//! Multi-region batch admission suite: with several regions composing
//! in parallel, outcomes — digest, replay set, cross-region count,
//! committed ledger — must not depend on the worker count, and an
//! audited multi-region engine must stay clean, digest-staleness bound
//! included.

use desim::SimRng;
use overlay::RegionMap;
use rasc_core::compose::{BatchItem, MinCostComposer, ProviderMap, ShardedAdmitter};
use rasc_core::engine::{Engine, EngineConfig};
use rasc_core::model::{ServiceCatalog, ServiceRequest};
use rasc_core::view::SystemView;
use simnet::{kbps, Topology};

fn factory() -> impl Fn() -> Box<dyn rasc_core::compose::Composer + Send> + Send + Sync + 'static {
    || Box::new(MinCostComposer::default().with_candidate_cap(8))
}

fn random_items(n: usize, count: usize, services: usize, seed: u64) -> Vec<BatchItem> {
    let mut rng = SimRng::new(seed ^ 0x5AAD);
    let mut providers = ProviderMap::new();
    for s in 0..services {
        let mut hosts = rng.sample_indices(n, (n / 8).max(4));
        hosts.sort_unstable();
        hosts.dedup();
        providers.insert(s, hosts);
    }
    (0..count)
        .map(|i| {
            let len = rng.range_usize(1, 4);
            let chain: Vec<usize> = (0..len).map(|_| rng.range_usize(0, services)).collect();
            (
                ServiceRequest::chain(
                    &chain,
                    rng.range_f64(2.0, 30.0),
                    (i * 3) % n,
                    (i * 3 + 1) % n,
                ),
                providers.clone(),
            )
        })
        .collect()
}

#[test]
fn multi_shard_outcome_is_deterministic_across_worker_counts() {
    for seed in [3u64, 11] {
        let n = 128;
        let topo = Topology::power_law(n, kbps(300.0), kbps(2500.0), seed);
        let base = SystemView::fresh(&topo);
        let catalog = ServiceCatalog::synthetic(5, seed);
        let items = random_items(n, 32, 5, seed);
        let sites = topo.site_assignment().expect("power-law is clustered");
        let mut reference = None;
        for threads in [1usize, 2, 5] {
            let mut sharded =
                ShardedAdmitter::new(RegionMap::from_sites(sites, 4), threads, 1, factory());
            let mut view = base.clone();
            let out = sharded.admit_batch(&mut view, &catalog, &items, seed);
            match &reference {
                None => reference = Some((out.digest(), view, out)),
                Some((d, v, o)) => {
                    assert_eq!(*d, out.digest(), "{threads} workers diverged");
                    assert!(*v == view, "ledger diverged at {threads} workers");
                    assert_eq!(o.cross_shard, out.cross_shard);
                    assert_eq!(o.replayed, out.replayed);
                }
            }
        }
    }
}

fn burst(n: usize) -> Vec<ServiceRequest> {
    (0..16)
        .map(|i| {
            ServiceRequest::chain(
                &[i % 4, (i + 1) % 4],
                4.0 + i as f64,
                (i * 5) % n,
                (i * 5 + 2) % n,
            )
        })
        .collect()
}

#[test]
fn audited_multi_shard_engine_stays_clean() {
    let n = 96;
    let catalog = ServiceCatalog::synthetic(4, 13);
    let topo = Topology::power_law(n, kbps(400.0), kbps(3000.0), 13);
    let offers: Vec<Vec<usize>> = (0..n)
        .map(|v| (0..4).filter(|s| (v + s) % 7 == 0).collect())
        .collect();
    let mut e = Engine::builder(n, catalog, 13)
        .topology(topo)
        .offers(offers)
        .config(EngineConfig {
            candidate_cap: Some(8),
            shards: 4,
            digest_refresh_secs: 1.0,
            audit: true,
            audit_period_secs: 2.0,
            ..Default::default()
        })
        .build();
    let report = e.submit_batch(burst(n), 2);
    assert!(report.apps.iter().any(|a| a.is_ok()), "nothing admitted");
    e.run_for_secs(10.0);
    // A second burst later in the run exercises the periodic digest
    // refresh path (the auditor bounds the digest's age at every
    // checkpoint in between).
    let second = e.submit_batch(burst(n), 2);
    assert!(second.apps.iter().any(|a| a.is_ok()));
    e.run_for_secs(10.0);
    let audit = e.finish_run();
    assert!(audit.clean(), "audit violations: {:#?}", audit.violations);
}
