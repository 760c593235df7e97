//! End-to-end and per-layer benchmark of the RASC engine at
//! `EngineConfig::default()`; see `README.md` in this directory.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload paper|admit1k|churn --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics without
//! `--trace`, the per-layer metrics with `--trace 1`.

mod calib;
mod harness;
mod stats;
mod trace;
mod workloads;

use harness::Meter;
use rasc_core::engine::EngineConfig;
use rasc_core::metrics::DropCause;
use stats::{blocked_tail, median, percentile, ratio};
use std::fmt::Write as _;
use workloads::{Measured, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace,
    })
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Metrics in output order: name, value, unit.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push('}');
        s
    }
}

/// Median and p99 of admission and adaptation calls, µs.
struct Latencies {
    admit50: f64,
    admit99: f64,
    adapt50: f64,
    adapt99: f64,
}

/// Computes the call latencies in reference µs and prints them with the
/// sample counts behind them.
fn latencies(m: &Measured) -> Result<Latencies, String> {
    let c = &m.meter;
    let f = c.factor()?;
    let admit50 = percentile("admit", &c.admit_us, 0.50)?;
    let (admit99, admit_blocks) = blocked_tail("admit", &c.admit_us, 0.99)?;
    let adapt50 = percentile("adapt", &c.adapt_us, 0.50)?;
    let (adapt99, adapt_blocks) = blocked_tail("adapt", &c.adapt_us, 0.99)?;
    println!(
        "admission calls: p50 {:.1} us, p99 {:.1} us wall (median of {admit_blocks} blocks; n = {})",
        admit50.value, admit99.value, admit50.n
    );
    println!(
        "adaptations:     p50 {:.1} us, p99 {:.1} us wall (median of {adapt_blocks} blocks; n = {}); \
         {} fault calls triggered nothing",
        adapt50.value, adapt99.value, adapt50.n, c.noop_calls
    );
    Ok(Latencies {
        admit50: admit50.value * f,
        admit99: admit99.value * f,
        adapt50: adapt50.value * f,
        adapt99: adapt99.value * f,
    })
}

/// Prints the calibration of a measured phase and returns its factor.
fn calibration(what: &str, m: &Measured) -> Result<f64, String> {
    let f = m.meter.factor()?;
    let n = m.meter.calib.as_ref().map_or(0, |c| c.samples.len());
    let r = 1e3 * calib::REFERENCE_S;
    println!(
        "calibration ({what}): kernel p50 {:.3} ms (n = {n}), reference {r:.3} ms: \
         {f:.4} reference s per wall s",
        r / f
    );
    Ok(f)
}

fn end_to_end(m: &Measured, rss: f64) -> Result<Metrics, String> {
    let t = &m.meter.totals;
    let f = calibration("timed run", m)?;
    let wall = m.wall.as_secs_f64() * f;
    let lat = latencies(m)?;
    println!(
        "set-up:          median {:.4} s wall (n = {})",
        median(&m.setup_s),
        m.setup_s.len()
    );
    let mut out = Metrics::default();
    out.put("setup_s", median(&m.setup_s) * f, "s");
    out.put("wall_s", wall, "s");
    out.put("sim_units_per_s", t.generated as f64 / wall, "1/s");
    out.put("admit_p50_us", lat.admit50, "us");
    out.put(
        "admit_per_s",
        m.meter.admitted as f64 / (m.meter.admit_busy.as_secs_f64() * f),
        "1/s",
    );
    out.put("adapt_p50_us", lat.adapt50, "us");
    out.put(
        "reject_frac",
        ratio(m.meter.rejected as f64, m.meter.requests as f64),
        "frac",
    );
    out.put(
        "delivered_frac",
        ratio(t.delivered as f64, t.generated as f64),
        "frac",
    );
    out.put(
        "timely_frac",
        ratio(t.timely as f64, t.delivered as f64),
        "frac",
    );
    out.put(
        "sim_delay_ms",
        ratio(t.delay_ms_sum, t.delivered as f64),
        "ms",
    );
    out.put("peak_rss_mb", rss, "MB");
    Ok(out)
}

fn per_layer(plain: &Measured, traced: &Measured) -> Result<Metrics, String> {
    let m = &traced.meter;
    let t = &m.totals;
    let plain_f = calibration("timed run", plain)?;
    let f = calibration("traced run", traced)?;
    let wall = traced.wall.as_secs_f64();
    let layers = m.tracer.as_ref().expect("traced run").layers();
    let busy = |name: &str| f * layers.get(name).map_or(0.0, |l| l.busy_s);
    let view = percentile("view snapshot", &m.view_us, 0.50)?;
    let compose = percentile("shadow compose", &m.compose_us, 0.50)?;
    let batched = m.requests as f64 - m.submit_calls as f64;
    let unattributed = layers.get("episode").map_or(0.0, |l| l.self_s);

    println!("per-layer time in the traced run (wall {wall:.3} s):");
    println!(
        "  {:<20} {:>8} {:>10} {:>10} {:>7}",
        "span", "calls", "busy_s", "self_s", "share"
    );
    let mut dominant = ("", 0.0);
    for (name, l) in &layers {
        println!(
            "  {name:<20} {:>8} {:>10.4} {:>10.4} {:>6.1}%",
            l.calls,
            l.busy_s,
            l.self_s,
            100.0 * l.self_s / wall
        );
        let own = ["episode", "calibrate", "classify"];
        if !name.starts_with("setup") && !own.contains(name) && l.self_s > dominant.1 {
            dominant = (name, l.self_s);
        }
    }
    println!(
        "  dominant layer: {} ({:.1}% of wall)",
        dominant.0,
        100.0 * dominant.1 / wall
    );
    println!(
        "view snapshot p50 n = {}, shadow compose p50 n = {}",
        view.n, compose.n
    );

    let lat = latencies(plain)?;
    let mut out = Metrics::default();
    out.put("admit_p99_us", lat.admit99, "us");
    out.put("adapt_p99_us", lat.adapt99, "us");
    out.put("setup.topology_s", median(&traced.topology_s) * f, "s");
    out.put("setup.engine_build_s", median(&traced.build_s) * f, "s");
    out.put("dataplane.busy_s", m.dataplane_busy.as_secs_f64() * f, "s");
    out.put(
        "dataplane.us_per_sim_s",
        m.dataplane_busy.as_secs_f64() * f * 1e6 / m.sim_secs,
        "us",
    );
    out.put("dataplane.units_generated", t.generated as f64, "count");
    out.put("dataplane.units_delivered", t.delivered as f64, "count");
    out.put(
        "dataplane.node_failed_drops",
        t.dropped(DropCause::NodeFailed) as f64,
        "count",
    );
    out.put(
        "dataplane.terminated_drops",
        t.dropped(DropCause::Terminated) as f64,
        "count",
    );
    out.put("simnet.msgs", t.msgs as f64, "count");
    out.put("simnet.mbytes", t.bits as f64 / 8e6, "MB");
    out.put("simnet.nic_drops", t.nic_drops as f64, "count");
    out.put(
        "sched.laxity_drops",
        t.dropped(DropCause::Laxity) as f64,
        "count",
    );
    out.put(
        "sched.queue_full_drops",
        t.dropped(DropCause::QueueFull) as f64,
        "count",
    );
    out.put(
        "admission.calls",
        (m.submit_calls + m.batch_calls) as f64,
        "count",
    );
    out.put("admission.busy_s", m.admit_busy.as_secs_f64() * f, "s");
    out.put(
        "admission.ctrl_msgs_per_req",
        ratio(m.ctrl_msgs as f64, m.requests as f64),
        "count",
    );
    out.put("view.snapshot_us_p50", view.value * f, "us");
    out.put("view.busy_s", busy("view"), "s");
    out.put("compose.us_p50", compose.value * f, "us");
    out.put("compose.busy_s", busy("compose"), "s");
    out.put(
        "compose.components_per_app",
        ratio(t.components as f64, t.composed as f64),
        "count",
    );
    out.put(
        "compose.split_frac",
        ratio(t.split_requests as f64, t.composed as f64),
        "frac",
    );
    out.put("batch.calls", m.batch_calls as f64, "count");
    out.put(
        "reconcile.conflicts_per_req",
        ratio(m.conflicts as f64, batched),
        "count",
    );
    out.put("reconcile.replayed_ok", m.replayed_ok as f64, "count");
    out.put(
        "reconcile.replay_rejected",
        m.replay_rejected as f64,
        "count",
    );
    out.put(
        "reconcile.optimistic_failures",
        m.optimistic_failures as f64,
        "count",
    );
    out.put("adapt.calls", m.adapt_calls as f64, "count");
    out.put("adapt.noop_calls", m.noop_calls as f64, "count");
    out.put("adapt.busy_s", m.adapt_busy.as_secs_f64() * f, "s");
    out.put("repair.in_place", t.repairs as f64, "count");
    out.put(
        "repair.cold",
        (t.recompositions - t.repairs) as f64,
        "count",
    );
    out.put(
        "repair.in_place_frac",
        ratio(t.repairs as f64, t.recompositions as f64),
        "frac",
    );
    out.put(
        "trace.overhead_frac",
        wall * f / (plain.wall.as_secs_f64() * plain_f) - 1.0,
        "frac",
    );
    out.put("trace.unattributed_frac", unattributed / wall, "frac");
    Ok(out)
}

fn summary(m: &Measured) {
    let c = &m.meter;
    println!(
        "measured: wall {:.3} s (less {:.3} s of steal) over {:.0} simulated s | \
         requests {} (admitted {}, rejected {}) \
         in {} submit + {} submit_batch calls, {:.3} s | dataplane {:.3} s | \
         faults {} ({} adapted, {} no-op) + {} restores, {:.3} s | \
         recompositions {} ({} in place)",
        m.wall.as_secs_f64(),
        m.steal.as_secs_f64(),
        c.sim_secs,
        c.requests,
        c.admitted,
        c.rejected,
        c.submit_calls,
        c.batch_calls,
        c.admit_busy.as_secs_f64(),
        c.dataplane_busy.as_secs_f64(),
        c.adapt_calls,
        c.adapt_us.len(),
        c.noop_calls,
        c.restore_calls,
        c.adapt_busy.as_secs_f64(),
        c.totals.recompositions,
        c.totals.repairs
    );
}

/// The correctness gate; every failure is listed.
fn gate(args: &Args, plain: &Measured, traced: Option<&Measured>) -> Result<Vec<String>, String> {
    let mut bad = Vec::new();
    for m in std::iter::once(plain).chain(traced) {
        let c = &m.meter;
        if c.admitted + c.rejected + c.failed != c.requests {
            bad.push(format!(
                "admitted {} + rejected {} + failed {} != attempted {}",
                c.admitted, c.rejected, c.failed, c.requests
            ));
        }
    }
    let (repeat, misclassified) = workloads::repeat(args.workload, args.seed)?;
    if misclassified > 0 {
        bad.push(format!(
            "{misclassified} fault calls classified differently from RunReport::recompositions"
        ));
    }
    if repeat != plain.check {
        bad.push(format!(
            "repeat of seed {} diverged: {:?} vs {:?}",
            args.seed, repeat, plain.check
        ));
    }
    if let Some(t) = traced {
        if t.check != plain.check
            || t.meter.totals.quality_key() != plain.meter.totals.quality_key()
        {
            bad.push("shadow probes perturbed the traced run".into());
        }
    }
    let audit = workloads::audited(args.workload, args.seed)?;
    println!(
        "audited pass: {} checkpoints, final check {}, {} violations",
        audit.checkpoints,
        audit.final_checked,
        audit.violation_count()
    );
    if !audit.clean() || !audit.final_checked || audit.checkpoints == 0 {
        bad.push(format!("audit: {:?}", audit.violations));
    }
    Ok(bad)
}

fn run(args: &Args) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let c = EngineConfig::default();
    println!(
        "config: flow_algorithm={:?} queue_backend={:?} transfer_batch={} shards={} \
         candidate_cap={:?} audit={} nproc={nproc} submit_batch_workers={} (default {})",
        c.flow_algorithm,
        c.queue_backend,
        c.transfer_batch,
        c.shards,
        c.candidate_cap,
        c.audit,
        harness::BATCH_WORKERS,
        desim::pool::default_threads()
    );
    println!(
        "workload {:?} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let scale = args.seconds / 20.0;
    let plain = workloads::measure(args.workload, args.seed, scale, Meter::measured(false))?;
    let rss = peak_rss_mb()?;
    summary(&plain);
    let traced = if args.trace {
        Some(workloads::measure(
            args.workload,
            args.seed,
            scale,
            Meter::measured(true),
        )?)
    } else {
        None
    };
    let metrics = match &traced {
        None => end_to_end(&plain, rss)?,
        Some(t) => per_layer(&plain, t)?,
    };
    if let Some(t) = &traced {
        let name = format!("spans-{:?}-{}.tsv", args.workload, args.seed).to_lowercase();
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(name);
        let tracer = t.meter.tracer.as_ref().expect("traced run");
        tracer
            .write_tsv(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    let bad = gate(args, &plain, traced.as_ref())?;
    for b in &bad {
        println!("INCORRECT: {b}");
    }
    for (name, value, unit) in &metrics.0 {
        println!("{name:<30} {value:>16.6} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        bad.is_empty(),
        plain.meter.requests,
        plain.meter.failed,
        metrics.json()
    );
    Ok(bad.is_empty())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload paper|admit1k|churn --seed N [--seconds S] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}
