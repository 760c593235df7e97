//! Machine-speed reference for the timed metrics.
//!
//! The benchmark shares its cores with other tenants of the host, and
//! their load makes the same work take up to twice as long from one
//! minute to the next. A [`Calibrator`] runs a fixed kernel, which
//! shares no code with the engine, in short slices spread over the
//! measured phase (one every [`PERIOD`]). The kernel's median time over
//! the run says how fast the machine ran while the engine was measured,
//! and [`Calibrator::factor`] rescales the run's times to the speed at
//! which the kernel takes [`REFERENCE_S`]: reference seconds. An engine
//! change leaves the kernel alone, so it moves the rescaled times as much
//! as the raw ones; the host's load moves both, and mostly cancels.
//! Time the hypervisor withholds from the VM altogether is read from the
//! kernel's steal counter ([`steal`]) and taken out of measured stretches.

use crate::stats::median;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Entries of the kernel's random-access table: 1 MiB of `u64`, half of
/// the reference machine's L2. Between kernel runs the engine evicts
/// part of it, so, like the engine's own state, it is served partly from
/// L2 and partly from L3, and slows with both when the host is busy.
const TABLE: usize = 1 << 17;
/// Operations per kernel run.
const OPS: usize = 40_000;
/// Wall time between kernel runs: the kernel takes about a tenth of it.
pub const PERIOD: Duration = Duration::from_millis(30);
/// Time of one kernel run on the reference machine (a 2-vCPU x86-64 VM)
/// when its host is quiet.
pub const REFERENCE_S: f64 = 0.0025;

/// One kernel run: a binary heap of pseudo-random keys plus random
/// read-modify-writes over a table, the mix of the engine's event queue
/// and its per-node state. Returns a checksum.
fn kernel(table: &mut [u64], heap: &mut BinaryHeap<u64>) -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    heap.clear();
    for i in 0..OPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize) & (TABLE - 1);
        table[slot] = table[slot].wrapping_add(x | 1);
        acc = acc.wrapping_add(table[(slot * 31 + i) & (TABLE - 1)]);
        heap.push(x >> 16);
        if heap.len() > 4096 {
            acc ^= heap.pop().unwrap_or(0);
        }
    }
    acc
}

/// Time the hypervisor has withheld from this VM's vCPUs while they were
/// ready to run, summed over the vCPUs: the steal column of `/proc/stat`,
/// in USER_HZ ticks (100 per second).
pub fn steal() -> Result<Duration, String> {
    let stat = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    let ticks: u64 = stat
        .lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .ok_or("no steal column in /proc/stat")?;
    Ok(Duration::from_millis(ticks * 10))
}

pub struct Calibrator {
    table: Vec<u64>,
    heap: BinaryHeap<u64>,
    last: Option<Instant>,
    /// Wall time per kernel run, s.
    pub samples: Vec<f64>,
    /// Wall time spent in the kernel so far.
    pub spent: Duration,
}

impl Calibrator {
    pub fn new() -> Self {
        Calibrator {
            table: vec![0; TABLE],
            heap: BinaryHeap::with_capacity(8192),
            last: None,
            samples: Vec::new(),
            spent: Duration::ZERO,
        }
    }

    /// Whether [`PERIOD`] has passed since the last kernel run ended
    /// (or none ran yet).
    pub fn due(&self) -> bool {
        self.last.is_none_or(|t| t.elapsed() >= PERIOD)
    }

    /// Runs and times the kernel once.
    pub fn sample(&mut self) {
        let t = Instant::now();
        black_box(kernel(&mut self.table, &mut self.heap));
        let end = Instant::now();
        let d = end - t;
        self.samples.push(d.as_secs_f64());
        self.spent += d;
        self.last = Some(end);
    }

    /// Reference seconds per wall second of this run: [`REFERENCE_S`]
    /// over the kernel's median time. The median, unlike the mean, is
    /// not moved by the few kernel runs that a rare stall of the host
    /// happens to hit; an error with fewer than 20 samples.
    pub fn factor(&self) -> Result<f64, String> {
        let n = self.samples.len();
        if n < 20 {
            return Err(format!(
                "{n} calibration samples; need at least 20 (raise --seconds)"
            ));
        }
        Ok(REFERENCE_S / median(&self.samples))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_reference_over_median_kernel_time() {
        let mut c = Calibrator::new();
        assert!(c.due());
        c.sample();
        assert_eq!(c.samples.len(), 1);
        assert!(c.factor().is_err());
        c.samples = (1..=21)
            .map(|i| f64::from(i) * REFERENCE_S / 11.0)
            .collect();
        assert!((c.factor().unwrap() - 1.0).abs() < 1e-12);
    }
}
