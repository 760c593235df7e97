//! Data-plane throughput benchmark: the `units/sec` headline metric.
//!
//! Each cell drives a fixed fleet of single-service chains through an
//! engine for a simulated horizon and reports *data units generated per
//! wall-clock second* — the rate at which the simulator can push units
//! through the full pipeline (source emission, link transfer, CPU
//! service, destination delivery). Two variants isolate the batched
//! data plane:
//!
//! * `perunit` — one link transfer and one event per unit (the engine
//!   default, `transfer_batch: 1`),
//! * `batch` — batched link transfers (one event amortizes a burst of
//!   up to 32 units).
//!
//! Each entry is the median of several consecutive measured slices of
//! one warmed engine, with the slowest and fastest slice as min/max.
//!
//! Apps are pinned one-per-provider (each app's service is offered by
//! exactly one node), so the pipeline shape is identical across
//! variants and seeds; `exec_noise_sigma = 0` makes every run fully
//! deterministic, so the generated-unit count is a property of the cell,
//! not the variant. Bigger is better: `scripts/verify.sh` inverts its
//! regression tripwire for the `units/s` unit.

use crate::microbench::{count_allocations, median_of, record_rate, Measurement};
use desim::SimDuration;
use rasc_core::compose::ComposerKind;
use rasc_core::engine::{BackgroundTraffic, Engine, EngineConfig};
use rasc_core::model::{Service, ServiceCatalog, ServiceRequest};
use simnet::{kbps, TopologyBuilder};
use std::time::Instant;

/// One data-plane engine configuration under measurement.
#[derive(Clone, Copy, Debug)]
pub struct DataplaneVariant {
    /// Bench id component, e.g. `"batch"`.
    pub label: &'static str,
    /// Units coalesced per link transfer (1 = per-unit reference plane).
    pub batch: u32,
}

/// The measured variants, reference first.
pub const VARIANTS: [DataplaneVariant; 2] = [
    DataplaneVariant {
        label: "perunit",
        batch: 1,
    },
    DataplaneVariant {
        label: "batch",
        batch: 32,
    },
];

/// Concurrent single-service apps per cell (the bench size axis). Each
/// app gets its own provider node, so the largest size is also the
/// largest event-queue population.
pub const SIZES: [usize; 3] = [2, 8, 48];

/// Data units per second each app's source emits.
const APP_RATE: f64 = 2_000.0;

/// Builds the cell's engine: `apps` provider nodes (provider `i` alone
/// offers service `i`), a source and a destination endpoint, generous
/// NICs (the bench measures the simulator, not admission), and a cheap
/// deterministic service so the CPU keeps up with the offered rate.
///
/// `paper_noise` adds what the paper scenario runs with on top: flaky
/// cross traffic on every provider and the default log-normal noise on
/// execution times. Runs are then no longer identical across variants,
/// so only the allocation check uses it.
fn build_engine(apps: usize, variant: DataplaneVariant, paper_noise: bool) -> Engine {
    let nodes = apps + 2;
    let catalog = ServiceCatalog::new(
        (0..apps)
            .map(|id| Service {
                id,
                name: format!("dataplane-{id}"),
                exec_time: SimDuration::from_micros(100),
                rate_ratio: 1.0,
            })
            .collect(),
    );
    let mut b = TopologyBuilder::new().default_latency(SimDuration::from_millis(2));
    for _ in 0..nodes {
        b.node(kbps(10_000_000.0), kbps(10_000_000.0));
    }
    let mut offers: Vec<Vec<usize>> = (0..apps).map(|i| vec![i]).collect();
    offers.push(vec![]);
    offers.push(vec![]);
    Engine::builder(nodes, catalog, 7)
        .topology(b.build())
        .offers(offers)
        .config(EngineConfig {
            composer: ComposerKind::MinCost,
            transfer_batch: variant.batch,
            exec_noise_sigma: if paper_noise {
                EngineConfig::default().exec_noise_sigma
            } else {
                0.0
            },
            background: paper_noise.then(|| BackgroundTraffic::flaky((0..apps).collect())),
            ..Default::default()
        })
        .build()
}

/// Builds, submits, and warms up one cell's engine (0.5 s of simulated
/// traffic, so stores, pools, and the event queue reach steady state).
fn warmed_engine(apps: usize, variant: DataplaneVariant, paper_noise: bool) -> Engine {
    let mut e = build_engine(apps, variant, paper_noise);
    let src = apps;
    let dst = apps + 1;
    for i in 0..apps {
        e.submit(ServiceRequest::chain(&[i], APP_RATE, src, dst))
            .expect("dataplane cell must compose");
    }
    e.run_for_secs(0.5);
    e
}

/// Measures one cell: wall-clocks `samples` consecutive slices of
/// `horizon_secs` simulated traffic on one warmed engine and reports the
/// median slice's generated units per wall second (min/max: the slowest
/// and fastest slice) as `dataplane/units_per_sec/<variant>/<apps>`.
pub fn throughput(
    apps: usize,
    variant: DataplaneVariant,
    horizon_secs: f64,
    samples: usize,
) -> Measurement {
    let name = format!("dataplane/units_per_sec/{}/{apps}", variant.label);
    let mut e = warmed_engine(apps, variant, false);
    median_of(
        (0..samples.max(1))
            .map(|_| {
                let before = e.report().generated;
                let start = Instant::now();
                e.run_for_secs(horizon_secs);
                let wall = start.elapsed();
                record_rate(&name, e.report().generated - before, wall)
            })
            .collect(),
    )
}

/// Heap allocations during one simulated second of steady-state traffic
/// on a warmed engine. The SoA unit store, batch pool, pooled CPU/run
/// vectors, and the event queue must all be at capacity after warm-up,
/// so this is asserted to be zero by `repro bench` — with `paper_noise`
/// (see [`build_engine`]) as well, which also covers the cross-traffic
/// handlers.
pub fn steady_state_allocs(apps: usize, variant: DataplaneVariant, paper_noise: bool) -> u64 {
    let mut e = warmed_engine(apps, variant, paper_noise);
    // The bandwidth meters hold a sliding window of (time, bits) pairs
    // covering `measure_window_secs` (4 s) of traffic; their deques only
    // stop growing once a full window has elapsed. Warm well past that.
    e.run_for_secs(7.5);
    count_allocations(|| e.run_for_secs(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_generate_and_deliver() {
        for variant in VARIANTS {
            let mut e = warmed_engine(2, variant, false);
            e.run_for_secs(1.0);
            let r = e.report();
            // 2 apps x 2000 units/s x 1.5 s simulated.
            assert!(r.generated >= 5_000, "{}: {}", variant.label, r.generated);
            assert!(
                r.delivered as f64 >= 0.9 * r.generated as f64,
                "{}: delivered {} of {}",
                variant.label,
                r.delivered,
                r.generated
            );
        }
    }

    #[test]
    fn generated_count_is_variant_independent() {
        // Same simulated horizon => same offered load, whatever the
        // batch size. Units/sec differences are wall time,
        // never workload drift. A batched source emits whole bursts, so
        // at the horizon cutoff counts may differ by up to one burst per
        // app — but no more.
        let counts: Vec<u64> = VARIANTS
            .iter()
            .map(|&v| {
                let mut e = warmed_engine(2, v, false);
                e.run_for_secs(1.0);
                e.report().generated
            })
            .collect();
        let max_batch = VARIANTS.iter().map(|v| v.batch as u64).max().unwrap();
        let spread = counts.iter().max().unwrap() - counts.iter().min().unwrap();
        assert!(
            spread <= 2 * max_batch,
            "generated counts diverge beyond burst granularity: {counts:?}"
        );
    }

    #[test]
    fn throughput_reports_rate_unit() {
        let m = throughput(2, VARIANTS[1], 0.25, 3);
        assert_eq!(m.unit, "units/s");
        assert!(m.min > 0.0 && m.min <= m.value && m.value <= m.max);
        assert_eq!(m.samples, 3);
        assert!(m.name.starts_with("dataplane/units_per_sec/batch/"));
    }
}
