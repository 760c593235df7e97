//! The batch admission pipeline: region-local composition over partial
//! views, serial validate-and-commit against the authoritative ledger.
//!
//! The overlay is partitioned into **regions** by an
//! [`overlay::RegionMap`]; the region count is a parameter, and one
//! region is the global pipeline (every node authoritative, nothing
//! stale). With more regions the pipeline drops the single-consistent-
//! view assumption the way decentralized resource-mapping systems do
//! (Asaduzzaman & Maheswaran's bi-modal scheme: authoritative local state
//! plus gossiped summaries of everyone else):
//!
//! * Each region's shard holds a persistent partial [`SystemView`] in
//!   which *only its own members are authoritative*: they are re-synced
//!   from the base snapshot every batch
//!   ([`SystemView::sync_nodes_from`], `O(n/s)` per shard instead of
//!   `O(n)`). Site-clustered topologies (`power_law` / `datacenter_wan`)
//!   shard along their sites, others by overlay key space.
//! * Every other node appears through a [`ResidualDigest`]: a
//!   monitoring-plane summary of residual capacity refreshed
//!   periodically (every `refresh_every` batches here; fed by simulation
//!   events in the engine). Remote entries are therefore **declared
//!   stale**: between refreshes a shard composes cross-region placements
//!   against capacity numbers up to one refresh interval old. Views are
//!   patched from the digest only when its version actually changed, so
//!   the remote-patch cost amortizes to `O(n / refresh_every)` per shard
//!   per batch. With one region there are no remote nodes and no digest.
//! * Requests route to the shard owning their *source* region; shards
//!   compose their items concurrently on `desim::pool`, each item
//!   against the shard's partial view inside a rolled-back transaction
//!   (the order-free optimistic phase, see [`super::batch`]).
//! * Commit is the serial reconcile ([`reconcile_proposals`]):
//!   proposals are validated in submission order against the
//!   authoritative view with the committed-rate ledger formula
//!   (`overcommits_a_host`) and conflicting items are replayed.
//!   Staleness can only produce *proposals* that no longer fit, never a
//!   commit that overcommits, so every ledger invariant the auditor
//!   checks holds exactly, and the conflict/replay rate is the (measured)
//!   price of staleness.

use super::batch::{mix, reconcile_proposals, BatchItem, BatchOutcome};
use super::Composer;
use crate::compose::ComposeError;
use crate::model::{ExecutionGraph, ServiceCatalog};
use crate::view::SystemView;
use desim::SimRng;
use monitor::ResidualDigest;
use overlay::RegionMap;
use simnet::NodeId;
use std::sync::Mutex;

/// A shard's persistent composition state: the partial view (own region
/// authoritative, rest digest-patched) and the digest version the remote
/// entries currently reflect.
struct ShardSlot {
    view: SystemView,
    patched_version: u64,
}

/// The batch admission pipeline. See the module docs for the protocol;
/// construction fixes the region map, worker count, and digest refresh
/// period. The region map and refresh period are part of the
/// deterministic input (outcomes are a pure function of base view,
/// items, seed, and this configuration); the worker count never is.
pub struct ShardedAdmitter {
    regions: RegionMap,
    /// Per shard: every node *not* in the shard, ascending — the digest
    /// patch set.
    remotes: Vec<Vec<NodeId>>,
    threads: usize,
    /// Refresh the digest from the batch's base view every this many
    /// batches; 0 disables the automatic refresh (an external driver —
    /// the engine's monitoring events — calls
    /// [`refresh_digest`](Self::refresh_digest) instead).
    refresh_every: u64,
    factory: Box<dyn Fn() -> Box<dyn Composer + Send> + Send + Sync>,
    arenas: Mutex<Vec<Box<dyn Composer + Send>>>,
    slots: Mutex<Vec<Option<ShardSlot>>>,
    /// Remote-capacity digest; `None` with one region, which has no
    /// remote nodes.
    digest: Option<ResidualDigest>,
    batches: u64,
}

impl std::fmt::Debug for ShardedAdmitter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedAdmitter")
            .field("shards", &self.regions.regions())
            .field("threads", &self.threads)
            .field("refresh_every", &self.refresh_every)
            .finish_non_exhaustive()
    }
}

impl ShardedAdmitter {
    /// An admitter over `regions` shards whose arenas are built by
    /// `factory`, composing shards concurrently on up to `threads`
    /// workers. `refresh_every` is the digest staleness knob: refresh
    /// the remote-capacity digest every that many batches (0 = external
    /// refresh only).
    pub fn new(
        regions: RegionMap,
        threads: usize,
        refresh_every: u64,
        factory: impl Fn() -> Box<dyn Composer + Send> + Send + Sync + 'static,
    ) -> Self {
        assert!(threads > 0, "thread count must be positive");
        assert!(!regions.is_empty(), "region map covers no nodes");
        let n = regions.len();
        let remotes = (0..regions.regions())
            .map(|r| {
                (0..n)
                    .filter(|&v| regions.region_of(v) != r as u32)
                    .collect()
            })
            .collect();
        let shards = regions.regions();
        ShardedAdmitter {
            regions,
            remotes,
            threads,
            refresh_every,
            factory: Box::new(factory),
            arenas: Mutex::new(Vec::new()),
            slots: Mutex::new((0..shards).map(|_| None).collect()),
            digest: (shards > 1).then(|| ResidualDigest::new(n)),
            batches: 0,
        }
    }

    /// The remote-capacity digest (`None` with one region); the auditor
    /// bounds its age.
    pub fn digest(&self) -> Option<&ResidualDigest> {
        self.digest.as_ref()
    }

    /// Captures `view`'s residual capacities into the digest at time
    /// `at` (the caller's clock: simulation seconds in the engine, the
    /// batch counter in self-refreshing mode). Until the next call,
    /// every shard composes cross-region placements against this
    /// snapshot. A no-op with one region.
    pub fn refresh_digest(&mut self, view: &SystemView, at: f64) {
        if let Some(digest) = &mut self.digest {
            digest.refresh(at, |v| {
                let a = view.avail(v);
                (a.get(0), a.get(1), view.cpu_avail(v), view.drop_ratio(v))
            });
        }
    }

    fn take_arena(&self) -> Box<dyn Composer + Send> {
        self.arenas.lock().unwrap().pop().unwrap_or_else(|| {
            let mut c = (self.factory)();
            // Arenas are shared by every item of every batch, so per-app
            // retained-repair state would be misaddressed; the engine
            // repairs batch-admitted apps by cold recomposition.
            c.set_retention(false);
            c
        })
    }

    fn put_arena(&self, arena: Box<dyn Composer + Send>) {
        self.arenas.lock().unwrap().push(arena);
    }

    /// Admits `items` against `view` (the authoritative base snapshot):
    /// routes each item to the shard owning its source, composes the
    /// shards' work concurrently against their partial views, then
    /// validates-and-commits every proposal against `view` in submission
    /// order via the reconcile pass. On return, `view` carries exactly
    /// the admitted results' reservations.
    ///
    /// `seed` feeds the per-item RNG streams (`mix(seed, index)`), so
    /// outcomes are a pure function of (view, items, seed, regions) —
    /// worker count and scheduling cannot shift them.
    pub fn admit_batch(
        &mut self,
        view: &mut SystemView,
        catalog: &ServiceCatalog,
        items: &[BatchItem],
        seed: u64,
    ) -> BatchOutcome {
        assert!(!view.in_transaction(), "batch over a half-open snapshot");
        assert_eq!(view.len(), self.regions.len(), "view/region size mismatch");
        if self.refresh_every > 0 && self.batches.is_multiple_of(self.refresh_every) {
            self.refresh_digest(view, self.batches as f64);
        }
        self.batches += 1;

        // Route items to the shard owning their source's region.
        let mut jobs: Vec<(usize, Vec<usize>)> = Vec::new();
        {
            let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); self.regions.regions()];
            for (i, (req, _)) in items.iter().enumerate() {
                per_shard[self.regions.region_of(req.source) as usize].push(i);
            }
            for (s, idxs) in per_shard.into_iter().enumerate() {
                if !idxs.is_empty() {
                    jobs.push((s, idxs));
                }
            }
        }

        // Shard-parallel optimistic phase. Each shard composes its items
        // serially against its partial view (local slice re-synced from
        // the base, remote entries patched from the digest only when its
        // version changed), every item inside a rolled-back transaction
        // so the phase stays order-free.
        let this = &*self;
        let base: &SystemView = view;
        let shard_results: Vec<Vec<(usize, Result<ExecutionGraph, ComposeError>)>> =
            desim::pool::parallel_map_threads(self.threads, &jobs, |_, (s, idxs)| {
                let mut arena = this.take_arena();
                let mut slot = match this.slots.lock().unwrap()[*s].take() {
                    Some(slot) => slot,
                    None => ShardSlot {
                        // First use: full clone, so remote entries start
                        // from the creation-time base even before the
                        // first digest refresh reaches this shard.
                        view: base.clone(),
                        patched_version: this.digest.as_ref().map_or(0, ResidualDigest::version),
                    },
                };
                if let Some(digest) = &this.digest {
                    if slot.patched_version != digest.version() {
                        slot.view.apply_residual_digest(digest, &this.remotes[*s]);
                        slot.patched_version = digest.version();
                    }
                }
                slot.view.sync_nodes_from(base, this.regions.members(*s));
                let mut out = Vec::with_capacity(idxs.len());
                for &i in idxs {
                    let (req, providers) = &items[i];
                    arena.forget_warm_state();
                    let mut rng = SimRng::new(mix(seed ^ i as u64));
                    slot.view.begin_transaction();
                    let result = arena.compose(req, catalog, providers, &mut slot.view, &mut rng);
                    slot.view.rollback_transaction();
                    out.push((i, result));
                }
                this.slots.lock().unwrap()[*s] = Some(slot);
                this.put_arena(arena);
                out
            });

        // Scatter shard proposals back to global item order.
        let mut scattered: Vec<Option<Result<ExecutionGraph, ComposeError>>> =
            (0..items.len()).map(|_| None).collect();
        for (i, r) in shard_results.into_iter().flatten() {
            scattered[i] = Some(r);
        }
        let proposals = scattered
            .into_iter()
            .map(|p| p.expect("every item routed to exactly one shard"))
            .collect();

        // Serial validate-and-commit against the authoritative view: the
        // first committed proposal wins its capacity; later conflicting
        // proposals replay against what is actually left.
        let mut arena = self.take_arena();
        let mut outcome =
            reconcile_proposals(view, catalog, items, proposals, seed, arena.as_mut());
        self.put_arena(arena);

        outcome.cross_shard = items
            .iter()
            .zip(&outcome.results)
            .filter(|((req, _), r)| {
                let home = self.regions.region_of(req.source);
                r.as_ref().is_ok_and(|g| {
                    g.substreams.iter().flatten().any(|stage| {
                        stage
                            .placements
                            .iter()
                            .any(|p| self.regions.region_of(p.node) != home)
                    })
                })
            })
            .count();
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::{ComposerKind, ProviderMap};
    use crate::model::{ServiceCatalog, ServiceRequest};
    use desim::SimDuration;
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
            providers.insert(s, (0..n).collect());
        }
        (catalog, view, providers)
    }

    fn mincost() -> Box<dyn Composer + Send> {
        ComposerKind::MinCost.build()
    }

    fn items(k: usize, rate: f64, n: usize) -> Vec<BatchItem> {
        let (_, _, providers) = setup(n);
        (0..k)
            .map(|i| {
                (
                    ServiceRequest::chain(&[0, 2], rate, i % n, (i + 1) % n),
                    providers.clone(),
                )
            })
            .collect()
    }

    #[test]
    fn multi_shard_commits_exactly_the_admitted_reservations() {
        let n = 16;
        let (catalog, base, _) = setup(n);
        let batch = items(12, 10.0, n);
        let mut v = base.clone();
        let mut admitter = ShardedAdmitter::new(RegionMap::key_space(n, 4), 2, 2, mincost);
        let out = admitter.admit_batch(&mut v, &catalog, &batch, 3);
        assert!(out.admitted() > 0);
        let mut replay = base.clone();
        for (item, r) in batch.iter().zip(&out.results) {
            if let Ok(g) = r {
                crate::compose::apply_reservations(&item.0, &catalog, g, &mut replay);
            }
        }
        assert!(replay == v, "view must equal base + admitted reservations");
        // And the run is deterministic at a different worker count.
        let mut v2 = base.clone();
        let mut admitter2 = ShardedAdmitter::new(RegionMap::key_space(n, 4), 5, 2, mincost);
        let out2 = admitter2.admit_batch(&mut v2, &catalog, &batch, 3);
        assert_eq!(out.digest(), out2.digest());
        assert_eq!(out.cross_shard, out2.cross_shard);
        assert!(v == v2);
    }

    #[test]
    fn stale_digest_conflicts_are_resolved_at_commit() {
        // Two shards, all capacity on one contended host outside shard
        // 1's region; with a long refresh interval, shard 1 keeps
        // composing against the stale creation-time capacity, and the
        // commit pass must convert the staleness into conflicts/replays,
        // never an overcommitted ledger.
        let catalog = ServiceCatalog::synthetic(1, 3);
        let base = SystemView::fresh(&Topology::uniform(
            4,
            1_000_000.0,
            SimDuration::from_millis(5),
        ));
        // Regions by site: node 1 alone in region 0 (the host), the
        // rest in region 1.
        let sites = vec![1, 0, 1, 1];
        let regions = RegionMap::from_sites(&sites, 2);
        let mut providers = ProviderMap::new();
        providers.insert(0, vec![1]);
        // ~122 du/s available on host 1; three 50 du/s requests from
        // shard-1 sources can't all fit.
        let batch: Vec<BatchItem> = (0..3)
            .map(|i| {
                (
                    ServiceRequest::chain(&[0], 50.0, [0, 2, 3][i], 3),
                    providers.clone(),
                )
            })
            .collect();
        let mut v = base.clone();
        let mut admitter = ShardedAdmitter::new(regions, 2, 1_000_000, mincost);
        let out = admitter.admit_batch(&mut v, &catalog, &batch, 9);
        assert!(out.stats.conflicts > 0, "expected stale conflicts");
        assert_eq!(out.admitted(), 2);
        assert!(out.cross_shard > 0, "placements crossed regions");
        // Ledger exactness despite staleness.
        let mut replay = base.clone();
        for (item, r) in batch.iter().zip(&out.results) {
            if let Ok(g) = r {
                crate::compose::apply_reservations(&item.0, &catalog, g, &mut replay);
            }
        }
        assert!(replay == v);
    }
}
