//! The closed-loop caller: every call into the engine goes through
//! [`Run`], which times it, counts its outcome and, in the traced run,
//! records its span and runs the shadow probes.

use crate::calib::{self, Calibrator};
use crate::trace::Tracer;
use desim::{SimRng, SimTime};
use rasc_core::compose::{ComposeError, Composer, LatencyMatrix, MinCostComposer, ProviderMap};
use rasc_core::engine::{Engine, EngineConfig};
use rasc_core::metrics::{DropCause, RunReport};
use rasc_core::model::{AppId, ExecutionGraph, ServiceCatalog, ServiceRequest};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outcome counters of one engine, read from its `RunReport` and its
/// network: the quantities the correctness gate compares across repeats
/// of one seed and the end-to-end quality metrics are computed from.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counters {
    pub composed: u64,
    pub rejected: u64,
    pub generated: u64,
    pub delivered: u64,
    pub timely: u64,
    pub repairs: u64,
    pub recompositions: u64,
    pub components: u64,
    pub split_requests: u64,
    pub drops: [u64; 6],
    /// Sum of end-to-end delays of delivered units, ms.
    pub delay_ms_sum: f64,
    pub msgs: u64,
    pub bits: u64,
    pub nic_drops: u64,
}

impl Counters {
    pub fn of(engine: &Engine) -> Counters {
        let r: RunReport = engine.report();
        let net = engine.network();
        let (mut msgs, mut bits, mut nic_drops) = (0, 0, 0);
        for v in 0..net.len() {
            let s = net.stats(v);
            msgs += s.msgs_out;
            bits += s.bits_out;
            nic_drops += s.drops();
        }
        Counters {
            composed: r.composed,
            rejected: r.rejected,
            generated: r.generated,
            delivered: r.delivered,
            timely: r.timely,
            repairs: r.repairs,
            recompositions: r.recompositions,
            components: r.components,
            split_requests: r.split_requests,
            drops: r.drops,
            delay_ms_sum: r.delay_ms.mean() * r.delay_ms.count() as f64,
            msgs,
            bits,
            nic_drops,
        }
    }

    pub fn add(&mut self, o: &Counters) {
        self.composed += o.composed;
        self.rejected += o.rejected;
        self.generated += o.generated;
        self.delivered += o.delivered;
        self.timely += o.timely;
        self.repairs += o.repairs;
        self.recompositions += o.recompositions;
        self.components += o.components;
        self.split_requests += o.split_requests;
        for (d, s) in self.drops.iter_mut().zip(o.drops) {
            *d += s;
        }
        self.delay_ms_sum += o.delay_ms_sum;
        self.msgs += o.msgs;
        self.bits += o.bits;
        self.nic_drops += o.nic_drops;
    }

    /// What happened between `earlier` and `self` (same engine).
    pub fn minus(&self, earlier: &Counters) -> Counters {
        let mut d = *self;
        d.composed -= earlier.composed;
        d.rejected -= earlier.rejected;
        d.generated -= earlier.generated;
        d.delivered -= earlier.delivered;
        d.timely -= earlier.timely;
        d.repairs -= earlier.repairs;
        d.recompositions -= earlier.recompositions;
        d.components -= earlier.components;
        d.split_requests -= earlier.split_requests;
        for (x, e) in d.drops.iter_mut().zip(earlier.drops) {
            *x -= e;
        }
        d.delay_ms_sum -= earlier.delay_ms_sum;
        d.msgs -= earlier.msgs;
        d.bits -= earlier.bits;
        d.nic_drops -= earlier.nic_drops;
        d
    }

    pub fn dropped(&self, cause: DropCause) -> u64 {
        self.drops[cause as usize]
    }

    /// The counters a repeat of the same seed must reproduce exactly.
    pub fn quality_key(&self) -> [u64; 7] {
        [
            self.composed,
            self.rejected,
            self.generated,
            self.delivered,
            self.timely,
            self.repairs,
            self.recompositions,
        ]
    }
}

/// Everything a measured phase accumulates, across all of its engines.
#[derive(Default)]
pub struct Meter {
    pub tracer: Option<Tracer>,
    /// Machine-speed reference, on the measured phases only.
    pub calib: Option<Calibrator>,
    /// Wall time per admission call (`submit` or `submit_batch`), µs.
    pub admit_us: Vec<f64>,
    /// Wall time per fault call that triggered a recomposition, µs.
    pub adapt_us: Vec<f64>,
    /// Shadow probes (traced run only), µs per call.
    pub view_us: Vec<f64>,
    pub compose_us: Vec<f64>,
    pub requests: u64,
    pub admitted: u64,
    pub rejected: u64,
    /// Requests the engine refused as malformed (never expected).
    pub failed: u64,
    pub submit_calls: u64,
    pub batch_calls: u64,
    pub admit_busy: Duration,
    pub dataplane_busy: Duration,
    pub adapt_busy: Duration,
    pub adapt_calls: u64,
    pub noop_calls: u64,
    pub restore_calls: u64,
    /// Control messages sent during admission calls (traced run only).
    pub ctrl_msgs: u64,
    pub conflicts: u64,
    pub replayed_ok: u64,
    pub replay_rejected: u64,
    pub optimistic_failures: u64,
    /// Simulated seconds advanced by `run_until`.
    pub sim_secs: f64,
    /// Final counters of every engine, summed.
    pub totals: Counters,
    /// Cross-check each fault call's classification against the
    /// engine's recomposition counter (untimed passes only).
    pub verify_adapt: bool,
    /// Fault calls whose cheap classification disagreed.
    pub misclassified: u64,
    next_req: u64,
}

impl Meter {
    /// The meter of a measured phase, with spans when `traced`.
    pub fn measured(traced: bool) -> Self {
        Meter {
            tracer: traced.then(Tracer::new),
            calib: Some(Calibrator::new()),
            ..Default::default()
        }
    }

    /// Gives the calibrator its slice when one is due. Called before
    /// every call into the engine, never inside one.
    pub fn tick(&mut self) {
        if self.calib.as_ref().is_some_and(Calibrator::due) {
            let span = self.begin("calibrate", 0);
            self.calib.as_mut().expect("checked").sample();
            self.end(span);
        }
    }

    /// Wall time spent in the calibration kernel so far.
    pub fn calib_spent(&self) -> Duration {
        self.calib.as_ref().map_or(Duration::ZERO, |c| c.spent)
    }

    /// Starts timing a measured stretch.
    pub fn start(&self) -> Result<Stretch, String> {
        Ok(Stretch {
            at: Instant::now(),
            calib: self.calib_spent(),
            steal: calib::steal()?,
        })
    }

    /// The engine's share of the wall time since `s`, and the steal
    /// taken out of it. The calibration kernel's runs come out whole.
    /// Steal is counted over the stretch, kernel runs included, so only
    /// the engine's part of it comes out: the engine's time is
    /// `(wall - kernel) * (1 - steal / wall)`. Steal is summed over the
    /// vCPUs; the benchmark keeps one busy, and an idle vCPU accrues
    /// none, so the sum is the caller's own loss.
    pub fn since(&self, s: &Stretch) -> Result<(Duration, Duration), String> {
        let wall = s.at.elapsed();
        let net = wall - (self.calib_spent() - s.calib);
        let steal = (calib::steal()? - s.steal).min(wall);
        if wall.is_zero() {
            return Ok((net, Duration::ZERO));
        }
        let engine = net.mul_f64(1.0 - steal.as_secs_f64() / wall.as_secs_f64());
        Ok((engine, net - engine))
    }

    /// Reference seconds per wall second of this meter's phase.
    pub fn factor(&self) -> Result<f64, String> {
        self.calib
            .as_ref()
            .ok_or("phase was not calibrated")?
            .factor()
    }

    pub fn begin(&mut self, name: &'static str, req: u64) -> Option<usize> {
        self.tracer.as_mut().map(|t| t.begin(name, req))
    }

    pub fn end(&mut self, span: Option<usize>) {
        if let (Some(t), Some(id)) = (self.tracer.as_mut(), span) {
            t.end(id);
        }
    }

    fn next_req(&mut self) -> u64 {
        self.next_req += 1;
        self.next_req
    }
}

/// Workers per `submit_batch` call. The engine's default is one per
/// available CPU, but on a VM whose vCPUs share a host core a second
/// worker waits on the host's scheduler: with two workers on the 2-vCPU
/// reference VM, ten seeds of `churn` spread `admit_per_s` by 0.28 of its
/// median. One worker composes inline, on the same optimistic-compose and
/// reconcile path, and admits exactly what two would.
pub const BATCH_WORKERS: usize = 1;

/// The start of a measured stretch: see [`Meter::since`].
pub struct Stretch {
    at: Instant,
    calib: Duration,
    steal: Duration,
}

/// Shadow of the engine's admission path, run only when tracing: a
/// view snapshot and a composer built from `EngineConfig::default()`,
/// composing on the snapshot with ground-truth providers, so view and
/// compose time can be attributed without instrumenting the engine.
struct Shadow {
    composer: MinCostComposer,
    catalog: ServiceCatalog,
    rng: SimRng,
}

impl Shadow {
    fn new(engine: &Engine, catalog: &ServiceCatalog) -> Shadow {
        let config = EngineConfig::default();
        let latencies = Arc::new(LatencyMatrix::from_topology(engine.network().topology()));
        let mut composer =
            MinCostComposer::with_algorithm(config.flow_algorithm).with_latencies(latencies);
        if let Some(k) = config.candidate_cap {
            composer = composer.with_candidate_cap(k);
        }
        Shadow {
            composer,
            catalog: catalog.clone(),
            rng: SimRng::new(0x5348_4144_4F57),
        }
    }

    fn probe(&mut self, engine: &mut Engine, reqs: &[ServiceRequest], ids: &[u64], m: &mut Meter) {
        let span = m.begin("view", ids[0]);
        let t = Instant::now();
        let mut view = engine.view_snapshot();
        let d = t.elapsed();
        m.end(span);
        m.view_us.push(us(d));
        for (req, &id) in reqs.iter().zip(ids) {
            let mut providers = ProviderMap::new();
            for s in req.graph.substreams.iter().flat_map(|s| &s.services) {
                providers.insert(*s, engine.directory().providers(*s));
            }
            let span = m.begin("compose", id);
            let t = Instant::now();
            let _ = self
                .composer
                .compose(req, &self.catalog, &providers, &mut view, &mut self.rng);
            let d = t.elapsed();
            m.end(span);
            m.compose_us.push(us(d));
        }
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A fingerprint of `g`'s placements when any of them is on `v`.
fn placement_print(g: &ExecutionGraph, v: usize) -> Option<u64> {
    let mut on_v = false;
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for p in g.substreams.iter().flatten().flat_map(|st| &st.placements) {
        on_v |= p.node == v;
        for w in [p.node as u64, p.rate.to_bits()] {
            h = (h ^ w).wrapping_mul(0x0100_0000_01B3);
        }
    }
    on_v.then_some(h)
}

/// Messages sent so far, whether or not a NIC dropped them: one per send.
fn ctrl_sends(engine: &Engine) -> u64 {
    let net = engine.network();
    (0..net.len())
        .map(|v| net.stats(v).msgs_out + net.stats(v).drops_out)
        .sum()
}

/// One engine driven by the closed-loop caller.
pub struct Run<'m> {
    pub engine: Engine,
    m: &'m mut Meter,
    shadow: Option<Shadow>,
    /// Recompositions seen after the last fault call (`verify_adapt`).
    recompositions: u64,
    /// Per node, the apps whose graph has used it (a superset of those
    /// using it now), covering app ids below `indexed`.
    hosted: Vec<Vec<AppId>>,
    indexed: usize,
    /// Admission requests this engine received.
    requests: u64,
}

/// A fault the caller injects.
#[derive(Clone, Copy, Debug)]
pub enum Fault {
    Degrade(usize, f64),
    Crash(usize),
}

impl<'m> Run<'m> {
    pub fn new(engine: Engine, catalog: &ServiceCatalog, m: &'m mut Meter) -> Self {
        let shadow = m.tracer.is_some().then(|| Shadow::new(&engine, catalog));
        Run {
            hosted: vec![Vec::new(); engine.network().len()],
            engine,
            m,
            shadow,
            recompositions: 0,
            indexed: 0,
            requests: 0,
        }
    }

    /// Moves the engine (and what it has seen) under another meter.
    pub fn rebind<'n>(self, catalog: &ServiceCatalog, m: &'n mut Meter) -> Run<'n> {
        let shadow = m
            .tracer
            .is_some()
            .then(|| Shadow::new(&self.engine, catalog));
        Run {
            engine: self.engine,
            m,
            shadow,
            recompositions: self.recompositions,
            hosted: self.hosted,
            indexed: self.indexed,
            requests: self.requests,
        }
    }

    pub fn run_until(&mut self, at: SimTime) {
        self.m.tick();
        let from = self.engine.now();
        let span = self.m.begin("dataplane", 0);
        let t = Instant::now();
        self.engine.run_until(at);
        self.m.dataplane_busy += t.elapsed();
        self.m.end(span);
        self.m.sim_secs += self.engine.now().saturating_since(from).as_secs_f64();
    }

    fn count(&mut self, r: &Result<AppId, ComposeError>) {
        self.requests += 1;
        self.m.requests += 1;
        match r {
            Ok(_) => self.m.admitted += 1,
            Err(ComposeError::UnknownService(_)) => self.m.failed += 1,
            Err(_) => self.m.rejected += 1,
        }
    }

    /// One admission call: shadow probes (traced run), then `call`,
    /// timed as one admission sample.
    fn admission<T>(
        &mut self,
        span_name: &'static str,
        reqs: Vec<ServiceRequest>,
        call: impl FnOnce(&mut Engine, Vec<ServiceRequest>) -> T,
    ) -> T {
        self.m.tick();
        let ids: Vec<u64> = reqs.iter().map(|_| self.m.next_req()).collect();
        if let Some(sh) = self.shadow.as_mut() {
            sh.probe(&mut self.engine, &reqs, &ids, self.m);
        }
        let sent = self.m.tracer.is_some().then(|| ctrl_sends(&self.engine));
        let span = self.m.begin(span_name, ids[0]);
        let t = Instant::now();
        let out = call(&mut self.engine, reqs);
        let d = t.elapsed();
        self.m.end(span);
        if let Some(before) = sent {
            self.m.ctrl_msgs += ctrl_sends(&self.engine) - before;
        }
        self.m.admit_us.push(us(d));
        self.m.admit_busy += d;
        out
    }

    pub fn submit(&mut self, req: ServiceRequest) {
        let r = self.admission("admission", vec![req], |e, mut reqs| {
            e.submit(reqs.pop().expect("one request"))
        });
        self.m.submit_calls += 1;
        self.count(&r);
    }

    pub fn submit_batch(&mut self, reqs: Vec<ServiceRequest>) {
        let report = self.admission("batch", reqs, |e, reqs| e.submit_batch(reqs, BATCH_WORKERS));
        self.m.batch_calls += 1;
        let s = &report.stats;
        self.m.conflicts += s.conflicts as u64;
        self.m.replayed_ok += s.replayed_ok as u64;
        self.m.replay_rejected += s.replay_rejected as u64;
        self.m.optimistic_failures += s.optimistic_failures as u64;
        for r in &report.apps {
            self.count(r);
        }
    }

    /// Injects `fault` now. The call counts as an adaptation sample when
    /// it triggered at least one recomposition: a cold one (it re-runs
    /// discovery, so control messages leave some node during the call)
    /// or an in-place repair (an app touching the node changed graph).
    /// Reading `RunReport::recompositions` instead would fold every
    /// destination tracker on each call; the repeat pass checks that the
    /// two classifications agree.
    pub fn fault(&mut self, fault: Fault) {
        let v = match fault {
            Fault::Degrade(v, _) | Fault::Crash(v) => v,
        };
        self.m.tick();
        let span = self.m.begin("classify", 0);
        let touching = self.touching(v);
        self.m.end(span);
        let sent = ctrl_sends(&self.engine);
        let span = self.m.begin("adapt", 0);
        let t = Instant::now();
        match fault {
            Fault::Degrade(v, factor) => self.engine.degrade_node(v, factor),
            Fault::Crash(v) => self.engine.fail_node(v),
        }
        let d = t.elapsed();
        self.m.end(span);
        self.m.adapt_busy += d;
        self.m.adapt_calls += 1;
        let span = self.m.begin("classify", 0);
        let mut adapted = ctrl_sends(&self.engine) != sent;
        for &(a, p) in &touching {
            if placement_print(self.engine.app_graph(a), v) != Some(p) {
                adapted = true;
                self.index_app(a);
            }
        }
        self.m.end(span);
        if adapted {
            self.m.adapt_us.push(us(d));
        } else {
            self.m.noop_calls += 1;
        }
        if self.m.verify_adapt {
            let now = self.engine.report().recompositions;
            if adapted != (now > self.recompositions) {
                self.m.misclassified += 1;
            }
            self.recompositions = now;
        }
    }

    /// Files app `a` under every node its graph currently uses.
    fn index_app(&mut self, a: AppId) {
        for st in self.engine.app_graph(a).substreams.iter().flatten() {
            for p in &st.placements {
                self.hosted[p.node].push(a);
            }
        }
    }

    /// Apps whose graph uses `v`, with their placement fingerprints.
    fn touching(&mut self, v: usize) -> Vec<(AppId, u64)> {
        for a in self.indexed..self.engine.app_count() {
            self.index_app(a);
        }
        self.indexed = self.engine.app_count();
        let mut touching: Vec<(AppId, u64)> = std::mem::take(&mut self.hosted[v])
            .into_iter()
            .filter_map(|a| placement_print(self.engine.app_graph(a), v).map(|p| (a, p)))
            .collect();
        touching.sort_unstable();
        touching.dedup();
        self.hosted[v] = touching.iter().map(|t| t.0).collect();
        touching
    }

    pub fn restore(&mut self, v: usize) {
        self.m.tick();
        let span = self.m.begin("adapt", 0);
        let t = Instant::now();
        self.engine.restore_node(v);
        self.m.adapt_busy += t.elapsed();
        self.m.end(span);
        self.m.restore_calls += 1;
    }

    /// Ends this engine's measured life: reads its counters and checks
    /// the ledger identities every run must satisfy.
    pub fn finish(self) -> Result<(Engine, Counters), String> {
        let c = Counters::of(&self.engine);
        // Every admission request and every cold recomposition ends as
        // exactly one composed-or-rejected decision.
        let cold = c.recompositions - c.repairs;
        if c.composed + c.rejected != self.requests + cold {
            return Err(format!(
                "ledger: composed {} + rejected {} != requests {} + cold recompositions {cold}",
                c.composed, c.rejected, self.requests
            ));
        }
        if c.delivered > c.generated {
            return Err(format!(
                "delivered {} > generated {}",
                c.delivered, c.generated
            ));
        }
        Ok((self.engine, c))
    }
}
