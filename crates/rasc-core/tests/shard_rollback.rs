//! Multi-region rollback exactness: after a batch over several regions
//! with forced cross-region conflicts, the authoritative ledger must be
//! bit-equal to the pre-batch state plus exactly the admitted
//! reservations — replay losers leave no residue. Also pins down the
//! primitive the pipeline relies on: a transaction rolled back on a
//! digest-patched, partially re-synced view restores it bit-for-bit.

use desim::SimRng;
use monitor::ResidualDigest;
use overlay::RegionMap;
use rasc_core::compose::{
    apply_reservations, BatchItem, MinCostComposer, ProviderMap, ShardedAdmitter,
};
use rasc_core::model::{ServiceCatalog, ServiceRequest};
use rasc_core::view::SystemView;
use simnet::{kbps, Topology};

fn factory() -> impl Fn() -> Box<dyn rasc_core::compose::Composer + Send> + Send + Sync + 'static {
    || Box::new(MinCostComposer::default().with_candidate_cap(8))
}

#[test]
fn randomized_sharded_batches_leave_no_replay_residue() {
    let mut total_conflicts = 0usize;
    for seed in 0..8u64 {
        let n = 96;
        let topo = Topology::power_law(n, kbps(250.0), kbps(2000.0), seed);
        let base = SystemView::fresh(&topo);
        let catalog = ServiceCatalog::synthetic(4, seed);
        let mut rng = SimRng::new(seed ^ 0x0511);
        let mut providers = ProviderMap::new();
        for s in 0..4 {
            let mut hosts = rng.sample_indices(n, 8);
            hosts.sort_unstable();
            hosts.dedup();
            providers.insert(s, hosts);
        }
        // Few providers + heavy rates: optimistic shard-local proposals
        // genuinely collide and the reconcile phase replays or rejects.
        let items: Vec<BatchItem> = (0..20)
            .map(|i| {
                let chain = [i % 4];
                (
                    ServiceRequest::chain(
                        &chain,
                        rng.range_f64(10.0, 40.0),
                        (i * 5) % n,
                        (i * 5 + 2) % n,
                    ),
                    providers.clone(),
                )
            })
            .collect();
        let sites = topo.site_assignment().expect("power-law is clustered");
        let mut admitter = ShardedAdmitter::new(RegionMap::from_sites(sites, 4), 3, 1, factory());
        let mut view = base.clone();
        let out = admitter.admit_batch(&mut view, &catalog, &items, seed);
        // Bit-exactness: committed ledger == base + admitted reservations.
        let mut expect = base.clone();
        for ((req, _), r) in items.iter().zip(&out.results) {
            if let Ok(g) = r {
                apply_reservations(req, &catalog, g, &mut expect);
            }
        }
        assert!(
            expect == view,
            "seed {seed}: ledger != base + admitted reservations \
             ({} admitted, {} conflicts, {} replay-rejected)",
            out.admitted(),
            out.stats.conflicts,
            out.stats.replay_rejected
        );
        assert!(!view.in_transaction(), "batch left a transaction open");
        total_conflicts += out.stats.conflicts;
    }
    // The scenario is tight enough that replay actually ran somewhere;
    // without this the residue assertions above would be vacuous.
    assert!(
        total_conflicts > 0,
        "no seed produced a conflict — tighten the scenario"
    );
}

#[test]
fn rollback_on_digest_patched_view_is_bit_exact() {
    let n = 32;
    let topo = Topology::power_law(n, kbps(300.0), kbps(2500.0), 5);
    let base = SystemView::fresh(&topo);

    // A "remote" digest that disagrees with the base view (other shards
    // drained capacity since the snapshot), patched over half the nodes;
    // the other half re-syncs from an authoritative view that also moved.
    let mut digest = ResidualDigest::new(n);
    digest.refresh(3.0, |v| {
        let a = base.avail(v);
        (a.get(0) * 0.7, a.get(1) * 0.5, f64::INFINITY, 0.1)
    });
    let mut authority = base.clone();
    authority.reserve_component(2, 4096, 1.0, 20.0);
    authority.reserve_cpu(2, 0.001, 20.0);

    let remote: Vec<usize> = (0..n / 2).collect();
    let local: Vec<usize> = (n / 2..n).collect();
    let mut view = base.clone();
    view.apply_residual_digest(&digest, &remote);
    view.sync_nodes_from(&authority, &local);

    let pre = view.clone();
    view.begin_transaction();
    view.reserve_component(1, 4096, 1.0, 15.0);
    view.reserve_cpu(1, 0.002, 15.0);
    view.reserve_source(n / 2 + 1, 4096, 8.0);
    view.reserve_destination(n - 1, 4096, 8.0);
    // Nested transaction, as replay does inside an open outer one.
    view.begin_transaction();
    view.reserve_component(3, 4096, 1.0, 9.0);
    view.rollback_transaction();
    view.reserve_component(4, 4096, 1.0, 3.0);
    view.rollback_transaction();

    assert!(pre == view, "rollback left residue on a patched view");
    // And the patch itself did what it declared.
    let a = view.avail(0);
    let b = base.avail(0);
    assert!((a.get(0) - b.get(0) * 0.7).abs() < 1e-9);
    assert!((a.get(1) - b.get(1) * 0.5).abs() < 1e-9);
}
