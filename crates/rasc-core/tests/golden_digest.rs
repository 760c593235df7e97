//! Golden run pins: fixed-seed engine runs whose digests and outcome
//! counters are recorded constants.
//!
//! Every other determinism suite compares two runs of the *current*
//! code against each other, so a change that shifts event order the same
//! way in both runs passes them. These pins compare against values
//! recorded from an earlier build instead: a refactor of the event
//! queue, the event representation or any handler that claims to be
//! behaviour-preserving must leave them bit-identical.
//!
//! A deliberate behaviour change — a new tie-break in the event queue,
//! a different default flow algorithm (for example the switch to
//! network simplex planned on the roadmap), a new RNG draw — moves
//! these values. Such a change must re-record them here (the failure
//! message prints the new values) and say so in CHANGES.md.
//!
//! Auditing is pinned off: `RASC_AUDIT=1` adds checkpoint events and
//! words to the digest, and the pins must hold under either setting.

use desim::{SimRng, SimTime};
use rasc_core::compose::ComposerKind;
use rasc_core::engine::{
    BackgroundTraffic, BatchSubmitReport, Engine, EngineConfig, FaultPlan, FaultProfile,
};
use rasc_core::model::ServiceCatalog;
use workload::{PaperSetup, RequestGenerator};

/// Everything a pin compares: the digest plus the outcome counters and
/// the exact bits of the mean delivery delay.
fn observed(e: &Engine) -> Vec<(&'static str, u64)> {
    let r = e.report();
    vec![
        ("digest", e.run_digest()),
        ("composed", r.composed),
        ("rejected", r.rejected),
        ("generated", r.generated),
        ("delivered", r.delivered),
        ("timely", r.timely),
        ("out_of_order", r.out_of_order),
        ("components", r.components),
        ("split_requests", r.split_requests),
        ("recompositions", r.recompositions),
        ("repairs", r.repairs),
        ("total_drops", r.total_drops()),
        ("delay_mean_bits", r.delay_ms.mean().to_bits()),
    ]
}

fn assert_pinned(label: &str, e: &Engine, expected: &[(&str, u64)]) {
    let got = observed(e);
    let matches = got.len() == expected.len()
        && got
            .iter()
            .zip(expected)
            .all(|((gn, gv), (en, ev))| gn == en && gv == ev);
    assert!(
        matches,
        "{label}: run moved off its golden pin\n  expected {expected:?}\n  got      {got:?}"
    );
}

/// The paper's §4.1 scenario, scaled down: `PaperSetup::small` with its
/// flaky-node cross traffic, at the engine's default configuration.
fn paper_engine(setup: &PaperSetup, faults: Option<FaultPlan>) -> Engine {
    let config = EngineConfig {
        services_per_node: setup.services_per_node,
        background: Some(BackgroundTraffic::flaky(setup.flaky_nodes())),
        audit: false,
        ..EngineConfig::default()
    };
    assert_eq!(config.composer, ComposerKind::MinCost);
    let catalog = ServiceCatalog::synthetic(setup.services, setup.seed);
    let mut b = Engine::builder(setup.total_nodes(), catalog, setup.seed)
        .topology(setup.topology())
        .offers(setup.offers())
        .config(config);
    if let Some(plan) = faults {
        b = b.faults(plan);
    }
    let mut engine = b.build();
    let mut gen = RequestGenerator::new(
        setup.services,
        setup.total_nodes(),
        setup.avg_rate_kbps,
        setup.seed,
    )
    .with_endpoints(setup.endpoint_ids());
    let mut rng = SimRng::new(setup.seed ^ 0x60_1DE7);
    let mut arrivals: Vec<SimTime> = (0..setup.requests)
        .map(|_| SimTime::from_secs_f64(rng.f64() * setup.submit_window_secs))
        .collect();
    arrivals.sort_unstable();
    for at in arrivals {
        engine.submit_at(at, gen.next_request());
    }
    engine
}

#[test]
fn paper_small_with_background_traffic_is_pinned() {
    let setup = PaperSetup::small(7);
    let mut e = paper_engine(&setup, None);
    e.run_for_secs(setup.submit_window_secs + setup.measure_secs);
    assert_pinned("paper small seed 7", &e, PAPER_SMALL_SEED_7);
}

#[test]
fn mixed_fault_run_is_pinned() {
    let setup = PaperSetup {
        measure_secs: 10.0,
        ..PaperSetup::small(13)
    };
    let candidates: Vec<usize> = (0..setup.processing_nodes()).collect();
    let horizon = setup.submit_window_secs + setup.measure_secs;
    let plan = FaultPlan::generate(FaultProfile::Mixed, setup.seed, &candidates, horizon);
    assert!(!plan.is_empty());
    let mut e = paper_engine(&setup, Some(plan));
    e.run_for_secs(horizon);
    // Drain the backlog too, so teardown order is pinned as well.
    e.finish_run();
    assert_pinned("mixed faults seed 13", &e, MIXED_FAULTS_SEED_13);
}

/// Everything a batch pin compares per burst: the outcome digest, the
/// admitted count and the reconcile accounting.
fn burst_observed(r: &BatchSubmitReport) -> [u64; 6] {
    [
        r.digest,
        r.apps.iter().filter(|a| a.is_ok()).count() as u64,
        r.stats.optimistic_failures as u64,
        r.stats.conflicts as u64,
        r.stats.replayed_ok as u64,
        r.stats.replay_rejected as u64,
    ]
}

/// Batch admission at the default configuration: three bursts through
/// `submit_batch` at worker counts 1, 2 and 1, with a crash of a host
/// the first burst placed on between the second and third, then a run
/// to completion. Pins every burst's outcome and the whole run.
#[test]
fn submit_batch_bursts_with_a_crash_are_pinned() {
    let setup = PaperSetup {
        requests: 0,
        ..PaperSetup::small(11)
    };
    let mut e = paper_engine(&setup, None);
    let mut gen = RequestGenerator::new(
        setup.services,
        setup.total_nodes(),
        setup.avg_rate_kbps,
        setup.seed,
    )
    .with_endpoints(setup.endpoint_ids());
    let mut burst = |n: usize| (0..n).map(|_| gen.next_request()).collect::<Vec<_>>();
    let mut bursts = Vec::new();

    let first = e.submit_batch(burst(8), 1);
    let victim = first
        .apps
        .iter()
        .find_map(|a| a.as_ref().ok())
        .map(|&app| e.app_graph(app).substreams[0][0].placements[0].node)
        .expect("first burst admitted nothing");
    bursts.push(burst_observed(&first));
    e.run_for_secs(2.0);
    bursts.push(burst_observed(&e.submit_batch(burst(8), 2)));
    e.run_for_secs(2.0);
    e.fail_node(victim);
    e.run_for_secs(1.0);
    bursts.push(burst_observed(&e.submit_batch(burst(6), 1)));
    e.run_for_secs(10.0);
    e.finish_run();

    assert_eq!(
        bursts, BATCH_BURSTS_SEED_11,
        "batch bursts moved off their golden pin"
    );
    assert_pinned("batch bursts seed 11", &e, BATCH_RUN_SEED_11);
}

const PAPER_SMALL_SEED_7: &[(&str, u64)] = &[
    ("digest", 717954166247986770),
    ("composed", 10),
    ("rejected", 0),
    ("generated", 4001),
    ("delivered", 3920),
    ("timely", 3703),
    ("out_of_order", 0),
    ("components", 29),
    ("split_requests", 0),
    ("recompositions", 0),
    ("repairs", 0),
    ("total_drops", 53),
    ("delay_mean_bits", 4640053210108668780),
];
const MIXED_FAULTS_SEED_13: &[(&str, u64)] = &[
    ("digest", 5786003792219422024),
    ("composed", 10),
    ("rejected", 1),
    ("generated", 1702),
    ("delivered", 1687),
    ("timely", 1608),
    ("out_of_order", 1),
    ("components", 33),
    ("split_requests", 1),
    ("recompositions", 2),
    ("repairs", 1),
    ("total_drops", 15),
    ("delay_mean_bits", 4639752562907820060),
];
const BATCH_BURSTS_SEED_11: [[u64; 6]; 3] = [
    [14594530668255844641, 8, 0, 4, 4, 0],
    [11427907184214638886, 6, 0, 6, 4, 2],
    [13922423070430334092, 1, 5, 0, 0, 0],
];
const BATCH_RUN_SEED_11: &[(&str, u64)] = &[
    ("digest", 9171085679889271092),
    ("composed", 16),
    ("rejected", 8),
    ("generated", 2465),
    ("delivered", 2404),
    ("timely", 2048),
    ("out_of_order", 12),
    ("components", 64),
    ("split_requests", 3),
    ("recompositions", 2),
    ("repairs", 0),
    ("total_drops", 61),
    ("delay_mean_bits", 4643682824536994392),
];
