//! Order statistics over timing samples.
//!
//! Percentiles use the nearest-rank definition: the `p`-th percentile of `n`
//! sorted samples is the sample at 1-based rank `ceil(p/100 · n)`. A
//! percentile is only reported as trustworthy when at least
//! [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (0 < p ≤ 100) among `n` samples.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    assert!(n > 0, "percentile of an empty sample");
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n)
}

/// Nearest-rank percentile `p` of `samples` (sorted internally).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// How many of `n` samples lie beyond the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// Whether percentile `p` of `n` samples has at least [`MIN_BEYOND`]
/// samples beyond it.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    n > 0 && beyond(n, p) >= MIN_BEYOND
}

/// Median (mean of the middle pair for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method (the default of
/// Python's `statistics.quantiles(xs, n=4)`); a single sample is its own
/// quartiles.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(!samples.is_empty(), "quartiles of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0]);
    }
    // Python's exclusive method: j = clamp(i·(n+1) div 4, 1, n−1),
    // δ = i·(n+1) − 4j, result = (x[j−1]·(4−δ) + x[j]·δ) / 4.
    let at = |i: usize| {
        let m = (i * (n + 1)) as i64;
        let j = (m / 4).clamp(1, n as i64 - 1);
        let delta = (m - 4 * j) as f64;
        let j = j as usize;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (at(1), at(3))
}
