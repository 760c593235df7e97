//! Percentiles that refuse to report a tail the sample cannot support.

/// A percentile of `samples` together with the sample count behind it.
#[derive(Clone, Copy, Debug)]
pub struct Percentile {
    pub value: f64,
    pub n: usize,
}

/// Samples lying strictly beyond the `q` quantile of `n` samples
/// (nearest-rank definition).
fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// 1-based nearest rank of the `q` quantile.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The `q` quantile (nearest rank) of `samples`, or an error naming the
/// metric when fewer than ten samples lie beyond it: a tail backed by a
/// handful of samples is noise, so the benchmark fails instead of
/// printing it.
pub fn percentile(name: &str, samples: &[f64], q: f64) -> Result<Percentile, String> {
    let n = samples.len();
    if n == 0 || beyond(n, q) < 10 {
        return Err(format!(
            "{name}: {n} samples leave {} beyond p{}; need at least 10",
            if n == 0 { 0 } else { beyond(n, q) },
            q * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Percentile {
        value: sorted[rank(n, q) - 1],
        n,
    })
}

/// Samples per block of [`blocked_tail`].
const BLOCK: usize = 1000;

/// The `q` tail of time-ordered `samples` as the median of its value in
/// consecutive equal blocks of at least [`BLOCK`] samples each. Every
/// block's tail stands on at least ten samples (for `q <= 0.99`); the
/// median keeps a transient disturbance of the machine, which lands in
/// one block, from moving the reported figure. Returns the tail and the
/// block count.
pub fn blocked_tail(name: &str, samples: &[f64], q: f64) -> Result<(Percentile, usize), String> {
    let n = samples.len();
    let blocks = (n / BLOCK).max(1);
    let mut tails = Vec::with_capacity(blocks);
    for b in 0..blocks {
        let block = &samples[b * n / blocks..(b + 1) * n / blocks];
        tails.push(percentile(name, block, q)?.value);
    }
    Ok((
        Percentile {
            value: median(&tails),
            n,
        },
        blocks,
    ))
}

/// Median of a non-empty slice (mean of the middle pair when even).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        0.5 * (s[m - 1] + s[m])
    }
}

/// `num / den`, 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        let s: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(percentile("x", &s, 0.99).is_err());
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = percentile("x", &s, 0.99).unwrap();
        assert_eq!((p.value, p.n), (990.0, 1000));
    }

    #[test]
    fn p50_needs_twenty_samples() {
        let s: Vec<f64> = (1..=19).map(f64::from).collect();
        assert!(percentile("x", &s, 0.5).is_err());
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile("x", &s, 0.5).unwrap().value, 10.0);
    }

    #[test]
    fn blocked_tail_takes_the_median_block() {
        // Three blocks of 1000; the middle one is disturbed.
        let mut s: Vec<f64> = Vec::new();
        for b in 0..3 {
            let shift = if b == 1 { 10_000.0 } else { b as f64 };
            s.extend((1..=1000).map(|i| i as f64 + shift));
        }
        let (p, blocks) = blocked_tail("x", &s, 0.99).unwrap();
        assert_eq!((blocks, p.n), (3, 3000));
        assert_eq!(p.value, 992.0);
        assert!(blocked_tail("x", &s[..999], 0.99).is_err());
    }

    #[test]
    fn median_of_even_count_averages() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
