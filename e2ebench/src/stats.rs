//! Percentiles, quartiles and the tail-percentile rule.

/// Samples that must lie beyond a tail percentile for it to be reported
/// (choosing-metrics §1).
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` among `n` ascending samples:
/// the smallest rank with at least `p` % of the samples at or below it.
fn nearest_rank(n: usize, p: f64) -> usize {
    // The epsilon keeps 99.9 % of 10 000 at 9990, not 9991.
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    rank.clamp(1.min(n), n)
}

/// The value at percentile `p` (0..=100) of an ascending slice, by the
/// nearest-rank rule. Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank position of percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// The highest of the usual tail percentiles with at least
/// [`MIN_BEYOND`] samples beyond it among `n` samples.
pub fn highest_supported_tail(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    assert!(!s.is_empty(), "median of no samples");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so a spread computed here equals the
/// one the driver computes. Needs two values or more.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_known_vectors() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        let odd = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&odd, 50.0), 3.0);
        assert_eq!(percentile(&odd, 95.0), 5.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(100, 95.0), 5);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(highest_supported_tail(100), Some(90.0));
        assert_eq!(highest_supported_tail(199), Some(90.0));
        assert_eq!(highest_supported_tail(200), Some(95.0));
        assert_eq!(highest_supported_tail(1000), Some(99.0));
        assert_eq!(highest_supported_tail(10_000), Some(99.9));
        assert_eq!(highest_supported_tail(40), Some(75.0));
        assert_eq!(highest_supported_tail(39), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        assert_eq!(spread(&v), Some(1.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([3, 1, 2, 10, 7], n=4) == [1.5, 3.0, 8.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 10.0, 7.0]), Some((1.5, 8.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
