//! Admission-throughput benchmark scenario: thousand-node power-law
//! overlays, concurrent tenants, and the batch pipeline — the
//! admissions/sec headline.
//!
//! Two regimes are compared at each overlay size:
//!
//! * `serial_1req` — the legacy control plane: every request pays its
//!   own `O(n)` snapshot clone and an **uncapped** composition that
//!   feeds every discovered provider into the flow network. This is
//!   exactly what the engine's single-request submit path did before
//!   this bench family existed, and it is the baseline the ≥5× headline
//!   is measured against.
//! * `batch{B}` — the [`ShardedAdmitter`] batch pipeline with one region
//!   at batch size `B`: one snapshot sync per batch, a retained solver
//!   arena, and capped candidate selection ([`CANDIDATE_CAP`] hosts per
//!   layer), with the serial, submission-ordered reconcile committing
//!   winners and replaying conflicts.
//!
//! Both regimes run the same requests against the same base view and
//! count **admitted applications per wall-clock second**; rejections and
//! conflict replays therefore penalize the number instead of inflating
//! it. Every rate is the median of [`RATE_SAMPLES`] timed slices, with
//! the slowest and fastest slice as min/max. The `sharded_*` family
//! runs the same pipeline over several regions, whose composition runs
//! on a worker pool — on a single-core box that measures pool overhead,
//! not scaling, and is annotated accordingly (see
//! [`Measurement::note`](crate::microbench::Measurement)).

use crate::microbench::{count_allocations, median_of, record_rate, Measurement};
use desim::SimRng;
use overlay::RegionMap;
use rasc_core::compose::{
    BatchItem, ComposeError, Composer, LatencyMatrix, MinCostComposer, ProviderMap, ShardedAdmitter,
};
use rasc_core::model::{ServiceCatalog, ServiceRequest};
use rasc_core::view::SystemView;
use simnet::Topology;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Overlay sizes of the scaling curve (the paper's evaluation stopped
/// at 40 nodes; the ROADMAP north star is production scale).
pub const SIZES: [usize; 3] = [1_000, 4_000, 10_000];

/// Batch sizes measured per overlay size.
pub const BATCHES: [usize; 3] = [1, 16, 128];

/// Per-layer candidate cap for the batch pipeline (top-`k` hosts by
/// bottleneck availability).
pub const CANDIDATE_CAP: usize = 16;

/// Timed slices behind every admissions/sec entry.
pub const RATE_SAMPLES: usize = 5;

/// Services in the benchmark catalog.
pub const SERVICES: usize = 10;

/// One provider per this many overlay nodes (fixed density, so the
/// provider count grows with `n` — the regime where uncapped per-layer
/// scans stop being free).
pub const PROVIDER_DENSITY: usize = 16;

/// A reusable admission workload: one power-law overlay, one catalog,
/// one provider map at fixed density, and a pool of distinct requests.
pub struct AdmissionScenario {
    /// Overlay size.
    pub n: usize,
    /// Synthetic service catalog ([`SERVICES`] entries).
    pub catalog: ServiceCatalog,
    /// Fresh measured view of the power-law overlay.
    pub view: SystemView,
    /// Requests paired with their (shared) provider map.
    pub items: Vec<BatchItem>,
    /// Link latencies, shared by every composer this scenario builds.
    pub latencies: Arc<LatencyMatrix>,
    /// Site assignment of the power-law overlay (cluster id per node),
    /// the input to region sharding.
    pub sites: Vec<u32>,
}

/// Builds the scenario: `requests` distinct 3-stage chains with spread
/// endpoints over a [`Topology::power_law`] overlay at `n` nodes.
/// Endpoints are distinct per request — concurrent tenants, not one
/// source resubmitting — so batch conflicts come from genuinely shared
/// hosts, not an artificial endpoint bottleneck.
pub fn scenario(n: usize, requests: usize, seed: u64) -> AdmissionScenario {
    assert!(n >= 64, "scenario needs room for endpoints and providers");
    let catalog = ServiceCatalog::synthetic(SERVICES, 1);
    let topology = Topology::power_law(n, simnet::kbps(300.0), simnet::kbps(3000.0), seed);
    let view = SystemView::fresh(&topology);
    let latencies = Arc::new(LatencyMatrix::from_topology(&topology));
    let mut rng = SimRng::new(seed ^ 0xAD31_5510);
    let mut providers = ProviderMap::new();
    for s in 0..SERVICES {
        let mut hosts = rng.sample_indices(n, (n / PROVIDER_DENSITY).max(16));
        hosts.sort_unstable();
        hosts.dedup();
        providers.insert(s, hosts);
    }
    let items = (0..requests)
        .map(|i| {
            // Distinct chains (three services, offsets coprime to the
            // catalog size) and endpoint pairs spread over the overlay.
            let chain = [i % SERVICES, (i + 3) % SERVICES, (i + 7) % SERVICES];
            let source = (i * 2) % n;
            let destination = (i * 2 + 1) % n;
            (
                ServiceRequest::chain(&chain, 6.0, source, destination),
                providers.clone(),
            )
        })
        .collect();
    let sites = topology
        .site_assignment()
        .expect("power-law overlays are clustered")
        .to_vec();
    AdmissionScenario {
        n,
        catalog,
        view,
        items,
        latencies,
        sites,
    }
}

/// Selection-microbench fixture: the scenario's view plus one sorted
/// provider list at the scenario's density (what a single compose layer
/// sees at size `n`).
pub fn selection_setup(n: usize, seed: u64) -> (SystemView, Vec<usize>) {
    let sc = scenario(n, 1, seed);
    let providers = sc.items[0].1.values().next().expect("has services").clone();
    (sc.view, providers)
}

/// The uncapped legacy composer (what the engine ran per request).
fn serial_composer(sc: &AdmissionScenario) -> MinCostComposer {
    MinCostComposer::default().with_latencies(sc.latencies.clone())
}

/// The batch pipeline over `shards` regions of the scenario's site
/// structure, its arenas running capped candidate selection — the
/// thousand-node configuration. `refresh_every` is in batches (the
/// admitter's self-refreshing mode): 1 re-captures the digest before
/// every batch, larger values let region-local composers see
/// progressively staler remote capacity.
pub fn admitter(
    sc: &AdmissionScenario,
    shards: usize,
    threads: usize,
    refresh_every: u64,
) -> ShardedAdmitter {
    let latencies = sc.latencies.clone();
    let regions = RegionMap::from_sites(&sc.sites, shards);
    ShardedAdmitter::new(regions, threads, refresh_every, move || {
        Box::new(
            MinCostComposer::default()
                .with_latencies(latencies.clone())
                .with_candidate_cap(CANDIDATE_CAP),
        )
    })
}

/// Times [`RATE_SAMPLES`] slices of `budget / RATE_SAMPLES` each, every
/// slice whole passes of `pass` (which returns the apps it admitted),
/// and records the median slice's admitted apps per wall second.
fn sampled_rate(name: &str, budget: Duration, mut pass: impl FnMut() -> u64) -> Measurement {
    let slice = budget / RATE_SAMPLES as u32;
    median_of(
        (0..RATE_SAMPLES)
            .map(|_| {
                let mut admitted = 0u64;
                let start = Instant::now();
                loop {
                    admitted += pass();
                    if start.elapsed() >= slice {
                        break;
                    }
                }
                record_rate(name, admitted, start.elapsed())
            })
            .collect(),
    )
}

/// Admitted-apps/sec of the serial single-request path: per request one
/// whole-view clone (the per-submission snapshot) plus one uncapped
/// compose, over whole passes of the request pool.
pub fn serial_apps_per_sec(sc: &AdmissionScenario, budget: Duration) -> Measurement {
    let mut composer = serial_composer(sc);
    let mut rng = SimRng::new(7);
    sampled_rate(
        &format!("admission/apps_per_sec/serial_1req/{}", sc.n),
        budget,
        || {
            let mut admitted = 0u64;
            for (req, providers) in &sc.items {
                let mut view = sc.view.clone();
                if composer
                    .compose(req, &sc.catalog, providers, &mut view, &mut rng)
                    .is_ok()
                {
                    admitted += 1;
                }
            }
            admitted
        },
    )
}

/// Admitted-apps/sec of the batch pipeline over `shards` regions at
/// `batch` requests per admitted batch, regions composing on up to
/// `threads` workers. Each batch starts from a fresh re-sync of the
/// base snapshot (the steady state of a control plane that re-snapshots
/// per burst), so every region count is directly comparable.
/// `name` is the full entry name.
pub fn apps_per_sec(
    name: &str,
    sc: &AdmissionScenario,
    shards: usize,
    batch: usize,
    threads: usize,
    refresh_every: u64,
    budget: Duration,
) -> Measurement {
    let mut admitter = admitter(sc, shards, threads, refresh_every);
    // Per-burst snapshot buffer, re-synced with `clone_from` (reuses
    // every heap allocation; a fresh clone would cost O(n) allocs).
    let mut view = sc.view.clone();
    sampled_rate(name, budget, || {
        let mut admitted = 0u64;
        for (b, chunk) in sc.items.chunks(batch).enumerate() {
            view.clone_from(&sc.view);
            let out = admitter.admit_batch(&mut view, &sc.catalog, chunk, b as u64);
            admitted += out.admitted() as u64;
        }
        admitted
    })
    .with_threads(threads)
}

/// Accounting of one saturating sharded run (see [`sharded_saturation`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardedSaturation {
    /// Requests submitted across all batches.
    pub submitted: usize,
    /// Requests admitted.
    pub admitted: usize,
    /// Commit-time conflicts (proposal overcommitted a host).
    pub conflicts: usize,
    /// Conflicted requests whose replay also failed.
    pub replay_rejected: usize,
    /// Admitted requests with a placement outside the source's region.
    pub cross_shard: usize,
}

/// Runs the scenario's request pool through the sharded pipeline into
/// **one** view — no per-burst reset, looping the pool `passes` times —
/// so capacity genuinely drains and later batches compose against
/// remote digests that are `refresh_every` batches stale. The conflict
/// and replay counts trace the staleness curve: near saturation, the
/// longer the digest lags the ledger, the more optimistic cross-shard
/// placements bounce at commit. (A single pass barely dents a
/// thousand-node overlay, which flattens the curve to zero — saturate
/// first, then measure.)
pub fn sharded_saturation(
    sc: &AdmissionScenario,
    shards: usize,
    batch: usize,
    threads: usize,
    refresh_every: u64,
    passes: usize,
) -> ShardedSaturation {
    let mut admitter = admitter(sc, shards, threads, refresh_every);
    let mut view = sc.view.clone();
    let mut acc = ShardedSaturation::default();
    let mut round = 0u64;
    for _ in 0..passes.max(1) {
        for chunk in sc.items.chunks(batch) {
            let out = admitter.admit_batch(&mut view, &sc.catalog, chunk, round);
            round += 1;
            acc.submitted += chunk.len();
            acc.admitted += out.admitted();
            acc.conflicts += out.stats.conflicts;
            acc.replay_rejected += out.stats.replay_rejected;
            acc.cross_shard += out.cross_shard;
        }
    }
    acc
}

/// Heap allocations per request in the batch pipeline's steady state
/// (arena warm, region view primed). Bounded, not zero: every
/// admitted app returns a freshly allocated [`ExecutionGraph`]
/// (rasc_core::model::ExecutionGraph) — but snapshot handling is
/// allocation-free, because this function's per-burst view re-syncs via
/// `SystemView::clone_from` and the admitter's region view via
/// `SystemView::sync_nodes_from`, both reusing every heap buffer. The gate in `repro bench` catches a
/// regression to per-request snapshot clones or arena rebuilds, which
/// cost thousands of allocations each at thousand-node scale.
pub fn steady_state_allocs_per_request(sc: &AdmissionScenario, batch: usize) -> f64 {
    let mut admitter = admitter(sc, 1, 1, 1);
    let chunk = &sc.items[..batch.min(sc.items.len())];
    // Warm the arena, the region view, and this function's own
    // per-burst snapshot buffer.
    let mut view = sc.view.clone();
    for seed in 0..3 {
        view.clone_from(&sc.view);
        admitter.admit_batch(&mut view, &sc.catalog, chunk, seed);
    }
    let rounds = 5u64;
    let allocs = count_allocations(|| {
        for seed in 0..rounds {
            view.clone_from(&sc.view);
            let out = admitter.admit_batch(&mut view, &sc.catalog, chunk, seed);
            std::hint::black_box(out.admitted());
        }
    });
    allocs as f64 / (rounds * chunk.len() as u64) as f64
}

/// Sanity probe used by tests and the bench preamble: one batch through
/// the pipeline, returning `(admitted, conflicts, rejected)`.
pub fn probe(sc: &AdmissionScenario, batch: usize) -> (usize, usize, usize) {
    let mut admitter = admitter(sc, 1, 1, 1);
    let chunk = &sc.items[..batch.min(sc.items.len())];
    let mut view = sc.view.clone();
    let out = admitter.admit_batch(&mut view, &sc.catalog, chunk, 0);
    let rejected = out
        .results
        .iter()
        .filter(|r| matches!(r, Err(ComposeError::InsufficientCapacity { .. })))
        .count();
    (out.admitted(), out.stats.conflicts, rejected)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_admits_most_of_a_large_batch() {
        let sc = scenario(1_000, 64, 11);
        let (admitted, _conflicts, rejected) = probe(&sc, 64);
        assert!(
            admitted >= 56,
            "a fresh 1k-node overlay should admit nearly all of 64 \
             requests (admitted {admitted}, rejected {rejected})"
        );
    }

    #[test]
    fn serial_and_batch_regimes_both_admit() {
        let sc = scenario(1_000, 16, 3);
        let m = serial_apps_per_sec(&sc, Duration::from_millis(1));
        assert!(m.value > 0.0, "serial path admitted nothing");
        assert_eq!(m.samples, RATE_SAMPLES);
        let b = apps_per_sec(
            "admission/apps_per_sec/batch16/1000",
            &sc,
            1,
            16,
            1,
            1,
            Duration::from_millis(1),
        );
        assert!(b.value > 0.0, "batch path admitted nothing");
        assert!(b.min <= b.value && b.value <= b.max);
    }

    #[test]
    fn sharded_saturation_drains_capacity() {
        let sc = scenario(1_000, 128, 42);
        let acc = sharded_saturation(&sc, 8, 16, 2, 4, 16);
        assert_eq!(acc.submitted, 128 * 16);
        assert!(acc.admitted > 0, "sharded pipeline admitted nothing");
        assert!(
            acc.admitted < acc.submitted,
            "16 passes should drain the overlay into rejections"
        );
        assert!(
            acc.admitted >= acc.cross_shard,
            "cross-shard count exceeds admissions"
        );
        eprintln!("saturation: {acc:?}");
    }

    #[test]
    fn selection_setup_is_sorted_and_dense() {
        let (view, providers) = selection_setup(1_000, 5);
        assert_eq!(view.len(), 1_000);
        assert!(providers.windows(2).all(|w| w[0] < w[1]));
        assert!(providers.len() >= 1_000 / PROVIDER_DENSITY / 2);
    }
}
