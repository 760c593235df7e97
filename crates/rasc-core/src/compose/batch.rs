//! Batch admission: compose a burst of requests against one snapshot,
//! then commit deterministically.
//!
//! The single-request path costs one measured-view snapshot plus one
//! composition per request. At thousand-node scale the snapshot alone
//! is `O(n)`, and requests arrive in bursts, so the batch pipeline
//! ([`ShardedAdmitter`](super::ShardedAdmitter)) amortizes the snapshot
//! over the burst in two phases:
//!
//! 1. **Optimistic phase.** Every item composes against its region's
//!    view of the *same* base snapshot, not against earlier items'
//!    reservations, on a retained worker arena (a [`Composer`] whose
//!    `FlowNetwork`/solver buffers survive across items and batches).
//!    Each attempt runs inside an outer view transaction that is rolled
//!    back after the result is recorded, so the view returns to the base
//!    state bit-exactly and is reused for the next item. Before each
//!    item the arena drops its warm-start state
//!    ([`Composer::forget_warm_state`]): warm starts never change
//!    composition cost, but they can tilt equal-cost tie-breaking, and
//!    the pipeline must produce identical placements whichever worker
//!    picks an item up. Composing everything against the base is what
//!    makes the phase order-free: item `i`'s proposal never depends on
//!    how items were scheduled.
//!
//! 2. **Reconcile phase (serial, submission order).** This module's
//!    [`reconcile_proposals`] checks each proposal against the
//!    *authoritative* view (base plus every earlier winner) with the
//!    committed-rate ledger formula (`overcommits_a_host`, the same
//!    arithmetic the engine's install path and the auditor use). A
//!    proposal that still fits is applied as-is. One that lost its
//!    capacity to an earlier winner is a **conflict**, and the item is
//!    *replayed*: recomposed serially against the authoritative view,
//!    exactly like single-request admission. A burst colliding on one
//!    hot host therefore degrades to the serial outcome instead of
//!    rejecting work that still fits elsewhere. Items whose optimistic
//!    compose already failed are rejected outright: the authoritative
//!    view is the base minus winners' capacity, so what failed against
//!    the base cannot succeed later.
//!
//! Both phases are deterministic functions of (base view, items, seed,
//! region map): running with one worker or sixteen yields digest-equal
//! outcomes, which `tests/batch_determinism.rs` asserts and
//! [`BatchOutcome::digest`] makes cheap to compare.

use super::Composer;
use crate::compose::mincost::overcommits_a_host;
use crate::compose::{apply_reservations, ComposeError, ProviderMap};
use crate::model::{ExecutionGraph, ServiceCatalog, ServiceRequest};
use crate::view::SystemView;
use desim::SimRng;
use std::hash::Hasher;

/// One request of a batch: what `Engine::handle_submit` hands its
/// composer, minus the view (the admitter owns the snapshot).
pub type BatchItem = (ServiceRequest, ProviderMap);

/// Reconcile-phase accounting (all deterministic given the inputs).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReconcileStats {
    /// Items whose optimistic compose failed against the base snapshot.
    pub optimistic_failures: usize,
    /// Proposals that no longer fit the authoritative view at commit
    /// time (an earlier winner took the capacity).
    pub conflicts: usize,
    /// Conflicted items admitted by their serial replay.
    pub replayed_ok: usize,
    /// Conflicted items whose replay was rejected too.
    pub replay_rejected: usize,
}

/// Per-batch results, in item order.
#[derive(Debug)]
pub struct BatchOutcome {
    /// One admission result per item, index-aligned with the input. On
    /// `Ok` the graph's reservations have been applied to the view the
    /// batch ran against.
    pub results: Vec<Result<ExecutionGraph, ComposeError>>,
    /// Item indices that went through conflict replay, ascending.
    pub replayed: Vec<usize>,
    /// Reconcile-phase accounting.
    pub stats: ReconcileStats,
    /// Admitted requests with at least one placement outside the
    /// submitting source's home region: the proposals that rode on
    /// digest (possibly stale) information. Always 0 with one region.
    pub cross_shard: usize,
}

impl BatchOutcome {
    /// Order-sensitive digest of every per-item outcome (placements at
    /// full bit precision, rejections by error identity) — two digest-
    /// equal batches admitted the same apps onto the same hosts at the
    /// same rates. Runs on one worker and on many must match.
    pub fn digest(&self) -> u64 {
        let mut h = desim::hash::FxHasher::default();
        for (i, r) in self.results.iter().enumerate() {
            h.write_usize(i);
            match r {
                Ok(graph) => {
                    h.write_u8(1);
                    for sub in &graph.substreams {
                        h.write_usize(sub.len());
                        for stage in sub {
                            h.write_usize(stage.service);
                            for p in &stage.placements {
                                h.write_usize(p.node);
                                h.write_u64(p.rate.to_bits());
                            }
                        }
                    }
                }
                Err(ComposeError::NoProviders(s)) => {
                    h.write_u8(2);
                    h.write_usize(*s);
                }
                Err(ComposeError::InsufficientCapacity { substream }) => {
                    h.write_u8(3);
                    h.write_usize(*substream);
                }
                Err(ComposeError::UnknownService(s)) => {
                    h.write_u8(4);
                    h.write_usize(*s);
                }
                Err(ComposeError::DeadSource(v)) => {
                    h.write_u8(5);
                    h.write_usize(*v);
                }
            }
        }
        for &i in &self.replayed {
            h.write_usize(i);
        }
        h.finish()
    }

    /// Number of admitted items.
    pub fn admitted(&self) -> usize {
        self.results.iter().filter(|r| r.is_ok()).count()
    }
}

/// SplitMix64 (same constants as `simnet`'s jitter hash): decorrelates
/// per-item RNG streams from the batch seed.
pub(crate) fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Salt of the conflict-replay RNG stream (`"REPLAY"` in ASCII), so a
/// replay never re-rolls its optimistic phase's random choices.
pub(crate) const REPLAY_SALT: u64 = 0x5245504C4159;

/// The serial validate-and-commit pass: walk proposals in submission
/// order against the authoritative `view`, apply what still fits,
/// replay conflicts with the per-item replay RNG stream. Returns the
/// outcome with `cross_shard` still 0 (the caller owns the region map).
pub(crate) fn reconcile_proposals(
    view: &mut SystemView,
    catalog: &ServiceCatalog,
    items: &[BatchItem],
    proposals: Vec<Result<ExecutionGraph, ComposeError>>,
    seed: u64,
    arena: &mut dyn Composer,
) -> BatchOutcome {
    debug_assert_eq!(items.len(), proposals.len());
    let mut stats = ReconcileStats::default();
    let mut replayed = Vec::new();
    let mut results = Vec::with_capacity(items.len());
    for (i, ((req, providers), proposal)) in items.iter().zip(proposals).enumerate() {
        let outcome = match proposal {
            Err(e) => {
                // Failed against the base snapshot; the view only has
                // less capacity now.
                stats.optimistic_failures += 1;
                Err(e)
            }
            Ok(graph) => {
                if !overcommits_a_host(req, catalog, view, &graph) {
                    apply_reservations(req, catalog, &graph, view);
                    Ok(graph)
                } else {
                    stats.conflicts += 1;
                    replayed.push(i);
                    arena.forget_warm_state();
                    let mut rng = SimRng::new(mix(seed ^ i as u64 ^ REPLAY_SALT));
                    let r = arena.compose(req, catalog, providers, view, &mut rng);
                    match &r {
                        Ok(_) => stats.replayed_ok += 1,
                        Err(_) => stats.replay_rejected += 1,
                    }
                    r
                }
            }
        };
        results.push(outcome);
    }
    BatchOutcome {
        results,
        replayed,
        stats,
        cross_shard: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::{MinCostComposer, ShardedAdmitter};
    use crate::model::ServiceCatalog;
    use desim::SimDuration;
    use overlay::RegionMap;
    use simnet::Topology;

    fn setup(n: usize) -> (ServiceCatalog, SystemView, ProviderMap) {
        let catalog = ServiceCatalog::synthetic(4, 1);
        let view = SystemView::fresh(&Topology::uniform(
            n,
            1_000_000.0,
            SimDuration::from_millis(10),
        ));
        let mut providers = ProviderMap::new();
        for s in 0..4 {
            providers.insert(s, (1..n - 1).collect());
        }
        (catalog, view, providers)
    }

    /// `k` requests from sources spread over the overlay (so a
    /// multi-region admitter routes them to several regions) to the
    /// last node.
    fn requests(k: usize, rate: f64, n: usize) -> Vec<BatchItem> {
        let (_, _, providers) = setup(n);
        (0..k)
            .map(|i| {
                (
                    ServiceRequest::chain(&[0, 2], rate, i % (n - 1), n - 1),
                    providers.clone(),
                )
            })
            .collect()
    }

    fn mincost_admitter(regions: RegionMap, threads: usize) -> ShardedAdmitter {
        ShardedAdmitter::new(regions, threads, 1, || Box::new(MinCostComposer::default()))
    }

    #[test]
    fn serial_and_parallel_batches_digest_equal() {
        let n = 10;
        let (catalog, base, _) = setup(n);
        let items = requests(12, 8.0, n);
        let mut v1 = base.clone();
        let out1 = mincost_admitter(RegionMap::key_space(n, 3), 1)
            .admit_batch(&mut v1, &catalog, &items, 7);
        let mut v4 = base.clone();
        let out4 = mincost_admitter(RegionMap::key_space(n, 3), 4)
            .admit_batch(&mut v4, &catalog, &items, 7);
        assert_eq!(out1.digest(), out4.digest());
        assert_eq!(out1.cross_shard, out4.cross_shard);
        assert!(v1 == v4, "ledgers diverged");
        assert!(out1.admitted() > 0);
    }

    #[test]
    fn conflicts_are_replayed_and_capacity_is_respected() {
        // 4 nodes: source 0, two hosts 1..=2, destination 3 at 1 Mbps.
        // Each request wants most of a host; optimistically they all
        // fit, but committed together they overrun — later items must
        // replay, and what cannot fit must be rejected.
        let catalog = ServiceCatalog::synthetic(1, 3);
        let view = SystemView::fresh(&Topology::uniform(
            4,
            1_000_000.0,
            SimDuration::from_millis(5),
        ));
        let mut providers = ProviderMap::new();
        providers.insert(0, vec![1, 2]);
        // ~122 du/s per NIC; 70 du/s each means one per host fits, the
        // third conflicts wherever it lands.
        let items: Vec<BatchItem> = (0..3)
            .map(|_| (ServiceRequest::chain(&[0], 70.0, 0, 3), providers.clone()))
            .collect();
        let mut v = view.clone();
        let out =
            mincost_admitter(RegionMap::single(4), 2).admit_batch(&mut v, &catalog, &items, 1);
        assert!(out.stats.conflicts > 0, "expected capacity conflicts");
        // The view carries exactly the admitted reservations: replaying
        // them onto a fresh copy reproduces it.
        let mut replay = view.clone();
        for (item, r) in items.iter().zip(&out.results) {
            if let Ok(g) = r {
                apply_reservations(&item.0, &catalog, g, &mut replay);
            }
        }
        assert!(replay == v, "view must equal base + admitted reservations");
        // And a run on two regions, composed in parallel, agrees: every
        // request comes from node 0, so one region does all the work.
        let mut v2 = view.clone();
        let out2 = mincost_admitter(RegionMap::key_space(4, 2), 3)
            .admit_batch(&mut v2, &catalog, &items, 1);
        assert_eq!(out.digest(), out2.digest());
    }

    #[test]
    fn batch_of_one_matches_plain_compose() {
        let n = 8;
        let (catalog, base, providers) = setup(n);
        let req = ServiceRequest::chain(&[0, 2], 10.0, 0, n - 1);
        let mut direct_view = base.clone();
        let mut composer = MinCostComposer::default();
        let direct = composer
            .compose(
                &req,
                &catalog,
                &providers,
                &mut direct_view,
                &mut SimRng::new(99),
            )
            .unwrap();
        let mut batch_view = base.clone();
        let out = mincost_admitter(RegionMap::single(n), 1).admit_batch(
            &mut batch_view,
            &catalog,
            &[(req, providers)],
            123,
        );
        let batched = out.results[0].as_ref().unwrap();
        assert_eq!(&direct, batched, "single-item batch must match direct");
        assert!(direct_view == batch_view);
    }
}
