//! Independent oracle for top-k candidate selection: across seeds,
//! topology families and transaction histories — including rollbacks
//! from arbitrary mid-transaction points — `select_top_candidates` must
//! return exactly what a brute-force full sort of the providers by
//! (`candidate_metric` descending, node id ascending), truncated to `k`,
//! returns. A capped composition whose cap covers every provider must
//! equal the uncapped composition.

use desim::SimRng;
use rasc_core::compose::{Composer, MinCostComposer, ProviderMap};
use rasc_core::model::{ServiceCatalog, ServiceRequest, DEFAULT_UNIT_BITS};
use rasc_core::view::SystemView;
use simnet::{kbps, Topology};
use std::cmp::Reverse;

/// Topology families at sizes big enough that capacities spread
/// unevenly but small enough for the suite to stay fast.
fn families(seed: u64) -> Vec<(&'static str, Topology)> {
    vec![
        (
            "power_law",
            Topology::power_law(160, kbps(200.0), kbps(5000.0), seed),
        ),
        (
            "datacenter_wan",
            Topology::datacenter_wan(160, 4, kbps(500.0), kbps(4000.0), seed),
        ),
        (
            "planetlab",
            Topology::planetlab_like(160, kbps(200.0), kbps(3000.0), seed),
        ),
        (
            "uniform",
            Topology::uniform(160, kbps(1500.0), desim::SimDuration::from_millis(10)),
        ),
    ]
}

/// A random provider list, unsorted and possibly with repeats (what a
/// caller may hand the selection).
fn raw_providers(rng: &mut SimRng, n: usize) -> Vec<usize> {
    let count = rng.range_usize(1, n / 2);
    (0..count).map(|_| rng.range_usize(0, n)).collect()
}

/// A sorted, deduplicated random provider subset (what discovery
/// returns, and what the composers are fed).
fn random_providers(rng: &mut SimRng, n: usize) -> Vec<usize> {
    let mut p = raw_providers(rng, n);
    p.sort_unstable();
    p.dedup();
    p
}

/// One random view mutation through the public (journaled) surface.
fn mutate(view: &mut SystemView, rng: &mut SimRng) {
    let v = rng.range_usize(0, view.len());
    match rng.range_usize(0, 4) {
        0 => view.reserve_component(v, DEFAULT_UNIT_BITS, 1.0, rng.range_f64(0.1, 40.0)),
        1 => view.release_component(v, DEFAULT_UNIT_BITS, 1.0, rng.range_f64(0.1, 10.0)),
        2 => view.consume_measured(v, rng.range_f64(0.0, 4e5), rng.range_f64(0.0, 4e5)),
        _ => view.reserve_component(v, DEFAULT_UNIT_BITS, 1.0, rng.range_f64(0.1, 120.0)),
    }
}

/// The oracle: distinct providers, fully sorted by metric descending
/// (compared through the bit patterns of the non-negative metrics) and
/// id ascending, the first `k` kept, reported by id.
fn oracle(view: &SystemView, providers: &[usize], k: usize) -> Vec<usize> {
    let mut distinct = providers.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    for &v in &distinct {
        let m = view.candidate_metric(v);
        assert!(m >= 0.0 && m.is_finite(), "metric out of range: {m}");
    }
    distinct.sort_by_key(|&v| (Reverse(view.candidate_metric(v).to_bits()), v));
    distinct.truncate(k);
    distinct.sort_unstable();
    distinct
}

fn assert_matches_oracle(view: &SystemView, providers: &[usize], label: &str) {
    let mut got = Vec::new();
    for k in [0usize, 1, 2, 5, 16, providers.len(), providers.len() + 7] {
        view.select_top_candidates(providers, k, &mut got);
        assert_eq!(
            got,
            oracle(view, providers, k),
            "selection diverged from the oracle ({label}, k={k}, p={})",
            providers.len()
        );
    }
}

#[test]
fn selection_matches_full_sort_across_families_and_histories() {
    for seed in 0..8u64 {
        for (family, topo) in families(seed) {
            let mut rng = SimRng::new(seed ^ 0x1DE0);
            let mut view = SystemView::fresh(&topo);
            let sorted = random_providers(&mut rng, view.len());
            let raw = raw_providers(&mut rng, view.len());
            assert_matches_oracle(&view, &sorted, family);
            assert_matches_oracle(&view, &raw, family);

            // Committed (non-transactional) mutations.
            for step in 0..40 {
                mutate(&mut view, &mut rng);
                if step % 8 == 0 {
                    assert_matches_oracle(&view, &sorted, family);
                    assert_matches_oracle(&view, &raw, family);
                }
            }
            assert_matches_oracle(&view, &sorted, family);
            assert_matches_oracle(&view, &raw, family);
        }
    }
}

#[test]
fn rollback_from_any_midpoint_keeps_selection_exact() {
    for seed in 0..6u64 {
        let topo = Topology::power_law(128, kbps(300.0), kbps(3000.0), seed);
        let mut rng = SimRng::new(seed ^ 0xB0B0);
        let mut view = SystemView::fresh(&topo);
        // Pre-transaction warm-up so the rollback target isn't pristine.
        for _ in 0..20 {
            mutate(&mut view, &mut rng);
        }
        let providers = random_providers(&mut rng, view.len());
        let reference = oracle(&view, &providers, 16);

        // Roll back from every prefix length of a mutation script: the
        // selection must match the oracle *inside* the transaction at
        // the cut point and after the rollback, which restores the
        // pre-transaction top-k.
        for cut in 0..12 {
            view.begin_transaction();
            for _ in 0..=cut {
                mutate(&mut view, &mut rng);
            }
            assert_matches_oracle(&view, &providers, "mid-transaction");
            view.rollback_transaction();
            assert_matches_oracle(&view, &providers, "post-rollback");
            let mut after = Vec::new();
            view.select_top_candidates(&providers, 16, &mut after);
            assert_eq!(reference, after, "rollback did not restore the top-k");
        }
    }
}

#[test]
fn cap_covering_every_provider_equals_uncapped_compose() {
    for seed in 0..6u64 {
        for (family, topo) in families(seed) {
            let n = topo.len();
            let catalog = ServiceCatalog::synthetic(4, seed);
            let mut rng = SimRng::new(seed ^ 0xCAB);
            let base = SystemView::fresh(&topo);
            let mut providers = ProviderMap::new();
            for s in 0..4 {
                providers.insert(s, random_providers(&mut rng, n));
            }
            let widest = providers.values().map(Vec::len).max().expect("services");
            for case in 0..10 {
                let chain = [case % 4, (case + 1) % 4];
                let req = ServiceRequest::chain(
                    &chain,
                    rng.range_f64(1.0, 25.0),
                    rng.range_usize(0, n),
                    rng.range_usize(0, n),
                );
                let run = |cap: Option<usize>| {
                    let mut c = MinCostComposer::default();
                    if let Some(k) = cap {
                        c = c.with_candidate_cap(k);
                    }
                    let mut view = base.clone();
                    let r = c.compose(
                        &req,
                        &catalog,
                        &providers,
                        &mut view,
                        &mut SimRng::new(seed * 1000 + case as u64),
                    );
                    (r, view)
                };
                let (ru, vu) = run(None);
                for k in [widest, widest + 5] {
                    let (rc, vc) = run(Some(k));
                    assert_eq!(
                        rc, ru,
                        "capped compose diverged ({family}, case {case}, k={k})"
                    );
                    assert!(
                        vc == vu,
                        "post-compose views diverged ({family}, case {case}, k={k})"
                    );
                }
            }
        }
    }
}
