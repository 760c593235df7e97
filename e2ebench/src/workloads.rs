//! The three workloads. Every input is generated from the `--seed`
//! argument; the engine receives only the generated requests and faults.
//!
//! * `paper` — the §4.1 scenario (`PaperSetup::default()`) at 50, 100,
//!   150 and 200 kb/s, one fresh engine per (round, rate) episode,
//!   followed by an adaptation sweep over the episode's final placement.
//! * `admit1k` — six 1000-node power-law overlays with Poisson arrivals
//!   of finite-lifetime 3-service chains, each admitted by
//!   `Engine::submit`, under a process of degrade faults and restores.
//! * `churn` — ten 200-node power-law overlays whose arrivals are
//!   admitted in bursts by `Engine::submit_batch`, under crashes,
//!   degradations and restores.

use crate::harness::{Counters, Fault, Meter, Run};
use desim::{SimDuration, SimRng, SimTime};
use rasc_core::engine::{AuditReport, BackgroundTraffic, Engine, EngineConfig};
use rasc_core::model::{ServiceCatalog, ServiceRequest};
use simnet::{kbps, Topology};
use std::time::{Duration, Instant};
use workload::{PaperSetup, RequestGenerator};

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Workload {
    Paper,
    Admit1k,
    Churn,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "paper" => Some(Workload::Paper),
            "admit1k" => Some(Workload::Admit1k),
            "churn" => Some(Workload::Churn),
            _ => None,
        }
    }
}

/// What one measured phase produced.
pub struct Measured {
    pub meter: Meter,
    /// Wall time of the measured phase (set-up, warm-up, calibration and
    /// steal excluded).
    pub wall: Duration,
    /// Steal taken out of `wall`.
    pub steal: Duration,
    /// Set-up wall time per repetition: input generation + engine build.
    pub setup_s: Vec<f64>,
    pub topology_s: Vec<f64>,
    pub build_s: Vec<f64>,
    /// Quality counters at the determinism checkpoints.
    pub check: Vec<[u64; 7]>,
}

impl Measured {
    fn new(meter: Meter) -> Self {
        Measured {
            meter,
            wall: Duration::ZERO,
            steal: Duration::ZERO,
            setup_s: Vec::new(),
            topology_s: Vec::new(),
            build_s: Vec::new(),
            check: Vec::new(),
        }
    }
}

/// SplitMix64 finalizer: independent derived seeds from one argument.
fn derive(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Times `f`, recording a span when tracing.
fn timed<T>(m: &mut Meter, name: &'static str, out: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let span = m.begin(name, 0);
    let t = Instant::now();
    let v = f();
    out.push(t.elapsed().as_secs_f64());
    m.end(span);
    v
}

pub fn measure(w: Workload, seed: u64, scale: f64, m: Meter) -> Result<Measured, String> {
    match w {
        Workload::Paper => paper_measure(seed, scale, m),
        Workload::Admit1k => stream_measure(&ADMIT1K, seed, scale, m),
        Workload::Churn => stream_measure(&CHURN, seed, scale, m),
    }
}

/// Untimed repeat of the determinism checkpoints. Also returns how many
/// fault calls the cheap adaptation classifier got wrong.
pub fn repeat(w: Workload, seed: u64) -> Result<(Vec<[u64; 7]>, u64), String> {
    let mut m = Meter::default();
    m.verify_adapt = true;
    let check = match w {
        Workload::Paper => paper_repeat(seed, &mut m)?,
        Workload::Admit1k => vec![stream_prefix(&ADMIT1K, seed, false, &mut m)?.0],
        Workload::Churn => vec![stream_prefix(&CHURN, seed, false, &mut m)?.0],
    };
    Ok((check, m.misclassified))
}

/// Untimed audited pass: the workload's opening stretch on an engine
/// with the auditor on, ended by `finish_run`.
pub fn audited(w: Workload, seed: u64) -> Result<AuditReport, String> {
    match w {
        Workload::Paper => paper_audited(seed),
        Workload::Admit1k => {
            stream_prefix(&ADMIT1K, seed, true, &mut Meter::default()).map(|r| r.1)
        }
        Workload::Churn => stream_prefix(&CHURN, seed, true, &mut Meter::default()).map(|r| r.1),
    }
}

// ---------------------------------------------------------------- paper

/// The figures' x-axis: average request rate, kb/s.
const PAPER_RATES: [f64; 4] = [50.0, 100.0, 150.0, 200.0];
/// Rounds over the four rates per 20 s of `--seconds`.
const PAPER_ROUNDS: f64 = 40.0;
/// NIC factor of the adaptation sweep: low enough that every host
/// carrying a component is over-committed and must adapt.
const SWEEP_FACTOR: f64 = 0.1;

struct PaperEpisode {
    setup: PaperSetup,
    config: EngineConfig,
    catalog: ServiceCatalog,
    arrivals: Vec<(SimTime, ServiceRequest)>,
}

impl PaperEpisode {
    /// The §4.1 inputs, generated exactly as `workload::run_experiment`
    /// generates them, but handed to the engine one `submit` at a time.
    fn new(seed: u64, rate: f64, audit: bool) -> Self {
        let setup = PaperSetup {
            avg_rate_kbps: rate,
            seed,
            ..PaperSetup::default()
        };
        let config = EngineConfig {
            services_per_node: setup.services_per_node,
            background: Some(BackgroundTraffic::flaky(setup.flaky_nodes())),
            audit,
            ..EngineConfig::default()
        };
        let catalog = ServiceCatalog::synthetic(setup.services, seed);
        let mut gen = RequestGenerator::new(setup.services, setup.total_nodes(), rate, seed)
            .with_endpoints(setup.endpoint_ids());
        let mut rng = SimRng::new(seed ^ 0x414C_4C4F_4341_5445);
        let mut times: Vec<f64> = (0..setup.requests)
            .map(|_| rng.f64() * setup.submit_window_secs)
            .collect();
        times.sort_by(f64::total_cmp);
        let arrivals = times
            .into_iter()
            .map(|t| (SimTime::from_secs_f64(t), gen.next_request()))
            .collect();
        PaperEpisode {
            setup,
            config,
            catalog,
            arrivals,
        }
    }

    fn build(&self, m: &mut Meter, topo_s: &mut Vec<f64>, build_s: &mut Vec<f64>) -> Engine {
        let topology = timed(m, "setup.topology", topo_s, || self.setup.topology());
        timed(m, "setup.engine_build", build_s, || {
            Engine::builder(
                self.setup.total_nodes(),
                self.catalog.clone(),
                self.setup.seed,
            )
            .topology(topology)
            .offers(self.setup.offers())
            .config(self.config.clone())
            .build()
        })
    }

    fn horizon(&self) -> SimTime {
        SimTime::ZERO
            + SimDuration::from_secs_f64(self.setup.submit_window_secs + self.setup.measure_secs)
    }

    /// Arrivals in a closed loop (advance to each, then submit), the
    /// measurement window, then the adaptation sweep: every node that
    /// hosts a component is degraded and restored in turn.
    fn drive(&self, run: &mut Run) {
        for (at, req) in &self.arrivals {
            run.run_until(*at);
            run.submit(req.clone());
        }
        run.run_until(self.horizon());
        let mut hosts: Vec<usize> = (0..run.engine.app_count())
            .flat_map(|a| {
                run.engine
                    .app_graph(a)
                    .substreams
                    .iter()
                    .flatten()
                    .flat_map(|st| st.placements.iter().map(|p| p.node))
            })
            .collect();
        hosts.sort_unstable();
        hosts.dedup();
        for v in hosts {
            run.fault(Fault::Degrade(v, SWEEP_FACTOR));
            run.restore(v);
        }
    }
}

fn paper_episodes(seed: u64, rounds: usize) -> impl Iterator<Item = (usize, u64, f64)> {
    (0..rounds).flat_map(move |r| {
        PAPER_RATES
            .iter()
            .enumerate()
            .map(move |(i, &rate)| (r, derive(seed, (r * PAPER_RATES.len() + i) as u64), rate))
    })
}

fn paper_measure(seed: u64, scale: f64, m: Meter) -> Result<Measured, String> {
    let rounds = ((PAPER_ROUNDS * scale).round() as usize).max(1);
    let mut out = Measured::new(m);
    for (round, ep_seed, rate) in paper_episodes(seed, rounds) {
        let t = Instant::now();
        let ep = PaperEpisode::new(ep_seed, rate, false);
        let engine = ep.build(&mut out.meter, &mut out.topology_s, &mut out.build_s);
        out.setup_s.push(t.elapsed().as_secs_f64());

        let span = out.meter.begin("episode", 0);
        let stretch = out.meter.start()?;
        let mut run = Run::new(engine, &ep.catalog, &mut out.meter);
        ep.drive(&mut run);
        let (_, c) = run.finish()?;
        let (engine, steal) = out.meter.since(&stretch)?;
        out.wall += engine;
        out.steal += steal;
        out.meter.end(span);
        out.meter.totals.add(&c);
        if round == 0 {
            out.check.push(c.quality_key());
        }
    }
    Ok(out)
}

fn paper_repeat(seed: u64, m: &mut Meter) -> Result<Vec<[u64; 7]>, String> {
    let mut check = Vec::new();
    for (_, ep_seed, rate) in paper_episodes(seed, 1) {
        let ep = PaperEpisode::new(ep_seed, rate, false);
        let engine = ep.build(m, &mut Vec::new(), &mut Vec::new());
        let mut run = Run::new(engine, &ep.catalog, m);
        ep.drive(&mut run);
        check.push(run.finish()?.1.quality_key());
    }
    Ok(check)
}

fn paper_audited(seed: u64) -> Result<AuditReport, String> {
    let mut m = Meter::default();
    let (_, ep_seed, rate) = paper_episodes(seed, 1).last().expect("one round");
    let ep = PaperEpisode::new(ep_seed, rate, true);
    let engine = ep.build(&mut m, &mut Vec::new(), &mut Vec::new());
    let mut run = Run::new(engine, &ep.catalog, &mut m);
    ep.drive(&mut run);
    let (mut engine, _) = run.finish()?;
    Ok(engine.finish_run())
}

// ------------------------------------------------------ admit1k / churn

/// An open population of finite-lifetime 3-service chains on a
/// power-law overlay, with a Poisson fault process. Both workloads share
/// the constants below; the spec holds what differs between them.
struct StreamSpec {
    nodes: usize,
    lifetime_s: f64,
    /// `Some(w)`: arrivals collect for `w` simulated seconds and are
    /// admitted together by `submit_batch`; `None`: one `submit` each.
    burst_s: Option<f64>,
    faults_per_s: f64,
    /// Share of faults that crash-stop their node (the rest degrade).
    crash_share: f64,
    /// Every this many simulated seconds, all degraded nodes are
    /// restored (each restore drops the composer's retained repair
    /// state, so restores come in sweeps rather than one per fault).
    restore_every_s: f64,
    /// Independent overlays per run, each set up, warmed and measured:
    /// the more, the closer one seed's figures are to another's.
    overlays: usize,
    /// Simulated seconds run on each overlay before measuring, so the
    /// population is near its steady state; not timed.
    warmup_s: f64,
    /// Simulated seconds measured per overlay per 20 s of `--seconds`.
    measured_s: f64,
}

/// Simulated seconds into the first overlay's measured phase at which
/// the counters are checked against an untimed repeat (and audited).
const CHECK_S: f64 = 10.0;
const SERVICES: usize = 10;
/// One provider per this many nodes, per service.
const PROVIDER_SHARE: usize = 16;
const CHAIN: usize = 3;
const ARRIVALS_PER_S: f64 = 20.0;
/// Per-request rate range, data units/s (8192-bit units).
const RATE_DU: (f64, f64) = (1.0, 6.0);
/// NIC factor a degrade fault leaves its node.
const DEGRADE_FACTOR: f64 = 0.25;
/// Crash budget, as a share of the overlay.
const MAX_CRASH_SHARE: f64 = 0.1;

const ADMIT1K: StreamSpec = StreamSpec {
    nodes: 1000,
    lifetime_s: 15.0,
    burst_s: None,
    faults_per_s: 12.0,
    crash_share: 0.0,
    restore_every_s: 20.0,
    overlays: 6,
    warmup_s: 30.0,
    measured_s: 60.0,
};

const CHURN: StreamSpec = StreamSpec {
    nodes: 200,
    lifetime_s: 10.0,
    burst_s: Some(0.5),
    faults_per_s: 3.0,
    crash_share: 0.01,
    restore_every_s: 5.0,
    overlays: 10,
    warmup_s: 30.0,
    measured_s: 112.0,
};

/// One instance's overlay: topology, catalog and service placement.
struct StreamInputs {
    seed: u64,
    nodes: usize,
    catalog: ServiceCatalog,
    offers: Vec<Vec<usize>>,
}

impl StreamInputs {
    fn new(spec: &StreamSpec, seed: u64) -> Self {
        let mut rng = SimRng::new(derive(seed, 0x4F46_4645_5253));
        // Services are pushed in id order, so every list comes out sorted.
        let mut offers = vec![Vec::new(); spec.nodes];
        for s in 0..SERVICES {
            for v in rng.sample_indices(spec.nodes, spec.nodes / PROVIDER_SHARE) {
                offers[v].push(s);
            }
        }
        StreamInputs {
            seed,
            nodes: spec.nodes,
            catalog: ServiceCatalog::synthetic(SERVICES, seed),
            offers,
        }
    }

    fn build(
        &self,
        audit: bool,
        m: &mut Meter,
        topo_s: &mut Vec<f64>,
        build_s: &mut Vec<f64>,
    ) -> Engine {
        let topology = timed(m, "setup.topology", topo_s, || {
            Topology::power_law(self.nodes, kbps(300.0), kbps(3000.0), self.seed)
        });
        timed(m, "setup.engine_build", build_s, || {
            Engine::builder(self.nodes, self.catalog.clone(), self.seed)
                .topology(topology)
                .offers(self.offers.clone())
                .config(EngineConfig {
                    audit,
                    ..EngineConfig::default()
                })
                .build()
        })
    }
}

/// The caller's side of a stream workload: its random streams and the
/// faults it has outstanding. Deterministic in the seed, because every
/// choice depends only on its own streams and on engine state.
struct Stream<'s> {
    spec: &'s StreamSpec,
    arrivals: SimRng,
    faults: SimRng,
    next_arrival: f64,
    next_fault: f64,
    next_burst: f64,
    next_restore: f64,
    pending: Vec<ServiceRequest>,
    /// Degraded nodes awaiting the next restore sweep, in fault order.
    degraded_list: Vec<usize>,
    degraded: Vec<bool>,
    /// Nodes offering a service: fault victims are drawn from them.
    providers: Vec<usize>,
    crashes: usize,
}

impl<'s> Stream<'s> {
    fn new(spec: &'s StreamSpec, inputs: &StreamInputs) -> Self {
        let seed = inputs.seed;
        let mut arrivals = SimRng::new(derive(seed, 0x4152_5249_5645));
        let mut faults = SimRng::new(derive(seed, 0x4641_554C_5453));
        Stream {
            spec,
            next_arrival: arrivals.exp(ARRIVALS_PER_S),
            next_fault: faults.exp(spec.faults_per_s),
            next_burst: spec.burst_s.unwrap_or(f64::INFINITY),
            next_restore: spec.restore_every_s,
            arrivals,
            faults,
            pending: Vec::new(),
            degraded_list: Vec::new(),
            degraded: vec![false; spec.nodes],
            providers: (0..spec.nodes)
                .filter(|&v| !inputs.offers[v].is_empty())
                .collect(),
            crashes: 0,
        }
    }

    fn alive_node(&mut self, engine: &Engine) -> usize {
        loop {
            let v = self.arrivals.range_usize(0, self.spec.nodes);
            if engine.node_alive(v) {
                return v;
            }
        }
    }

    fn request(&mut self, engine: &Engine) -> ServiceRequest {
        let services = self.arrivals.sample_indices(SERVICES, CHAIN);
        let (lo, hi) = RATE_DU;
        let rate = self.arrivals.range_f64(lo, hi);
        let source = self.alive_node(engine);
        let destination = loop {
            let d = self.alive_node(engine);
            if d != source {
                break d;
            }
        };
        let life = self.arrivals.exp(1.0 / self.spec.lifetime_s);
        ServiceRequest::chain(&services, rate, source, destination)
            .with_lifetime(SimDuration::from_secs_f64(life))
    }

    /// A live, undegraded provider, uniformly.
    fn victim(&mut self, engine: &Engine) -> Option<usize> {
        (0..8)
            .map(|_| *self.faults.choose(&self.providers))
            .find(|&v| engine.node_alive(v) && !self.degraded[v])
    }

    /// Processes every caller event before simulated second `until`,
    /// then advances the engine to it.
    fn advance(&mut self, run: &mut Run, until: f64) {
        loop {
            let t = self
                .next_arrival
                .min(self.next_fault)
                .min(self.next_burst)
                .min(self.next_restore);
            if t >= until {
                break;
            }
            let at = SimTime::from_secs_f64(t);
            if t == self.next_restore {
                self.next_restore += self.spec.restore_every_s;
                if !self.degraded_list.is_empty() {
                    run.run_until(at);
                    for v in std::mem::take(&mut self.degraded_list) {
                        self.degraded[v] = false;
                        run.restore(v);
                    }
                }
            } else if t == self.next_burst {
                self.next_burst += self.spec.burst_s.expect("burst mode");
                if !self.pending.is_empty() {
                    run.run_until(at);
                    // A crashed node issues no requests: a burst loses the
                    // requests whose endpoints died while it collected.
                    let engine = &run.engine;
                    let reqs: Vec<ServiceRequest> = std::mem::take(&mut self.pending)
                        .into_iter()
                        .filter(|r| engine.node_alive(r.source) && engine.node_alive(r.destination))
                        .collect();
                    if !reqs.is_empty() {
                        run.submit_batch(reqs);
                    }
                }
            } else if t == self.next_fault {
                self.next_fault += self.faults.exp(self.spec.faults_per_s);
                let crash = self.crashes < (MAX_CRASH_SHARE * self.spec.nodes as f64) as usize
                    && self.faults.chance(self.spec.crash_share);
                if let Some(v) = self.victim(&run.engine) {
                    run.run_until(at);
                    if crash {
                        self.crashes += 1;
                        run.fault(Fault::Crash(v));
                    } else {
                        self.degraded[v] = true;
                        self.degraded_list.push(v);
                        run.fault(Fault::Degrade(v, DEGRADE_FACTOR));
                    }
                }
            } else {
                self.next_arrival += self.arrivals.exp(ARRIVALS_PER_S);
                let req = self.request(&run.engine);
                if self.spec.burst_s.is_some() {
                    self.pending.push(req);
                } else {
                    run.run_until(at);
                    run.submit(req);
                }
            }
        }
        run.run_until(SimTime::from_secs_f64(until));
    }
}

fn stream_measure(spec: &StreamSpec, seed: u64, scale: f64, m: Meter) -> Result<Measured, String> {
    let measured_s = spec.measured_s * scale;
    if measured_s < CHECK_S {
        return Err(format!(
            "--seconds too small: {measured_s:.0} simulated s measured, checkpoint at {:.0}",
            CHECK_S
        ));
    }
    let mut out = Measured::new(m);
    let mut check = None;
    for k in 0..spec.overlays {
        let t = Instant::now();
        let inputs = StreamInputs::new(spec, derive(seed, k as u64));
        let engine = inputs.build(false, &mut out.meter, &mut out.topology_s, &mut out.build_s);
        out.setup_s.push(t.elapsed().as_secs_f64());

        let mut scratch = Meter::default();
        let mut stream = Stream::new(spec, &inputs);
        let mut run = Run::new(engine, &inputs.catalog, &mut scratch);
        stream.advance(&mut run, spec.warmup_s);
        let warm = Counters::of(&run.engine);

        let span = out.meter.begin("episode", 0);
        let stretch = out.meter.start()?;
        let mut run = run.rebind(&inputs.catalog, &mut out.meter);
        if k == 0 {
            stream.advance(&mut run, spec.warmup_s + CHECK_S);
            check = Some(Counters::of(&run.engine).quality_key());
        }
        stream.advance(&mut run, spec.warmup_s + measured_s);
        let (_, end) = run.finish()?;
        let (engine, steal) = out.meter.since(&stretch)?;
        out.wall += engine;
        out.steal += steal;
        out.meter.end(span);
        out.meter.totals.add(&end.minus(&warm));
    }
    out.check.extend(check);
    Ok(out)
}

/// Runs warm-up plus the checkpoint stretch untimed; returns the
/// checkpoint counters and, with `audit`, the final audit report.
fn stream_prefix(
    spec: &StreamSpec,
    seed: u64,
    audit: bool,
    m: &mut Meter,
) -> Result<([u64; 7], AuditReport), String> {
    let inputs = StreamInputs::new(spec, derive(seed, 0));
    let engine = inputs.build(audit, m, &mut Vec::new(), &mut Vec::new());
    let mut stream = Stream::new(spec, &inputs);
    let mut run = Run::new(engine, &inputs.catalog, m);
    stream.advance(&mut run, spec.warmup_s);
    stream.advance(&mut run, spec.warmup_s + CHECK_S);
    let check = Counters::of(&run.engine).quality_key();
    let (mut engine, _) = run.finish()?;
    let report = if audit {
        engine.finish_run()
    } else {
        AuditReport::default()
    };
    Ok((check, report))
}
