//! Order statistics over timing samples.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The `p`-th percentile (0 < p < 100, to a tenth of a percent) by the
/// nearest-rank rule: the smallest sample with at least `p`% of the
/// samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice, a NaN sample, or `p` outside (0, 100).
#[must_use]
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p < 100.0, "percentile {p} outside (0, 100)");
    let s = sorted(xs);
    s[rank(permille(p), s.len()) - 1]
}

/// `p` percent in tenths of a percent, so ranks are exact integers.
fn permille(p: f64) -> usize {
    (p * 10.0).round() as usize
}

/// 1-based nearest-rank position of the `pm`-permille percentile in `n`
/// samples.
fn rank(pm: usize, n: usize) -> usize {
    (pm * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Percentiles the benchmark may report, highest first.
const LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// The highest percentile of [`LADDER`] that leaves at least ten samples
/// strictly above its nearest-rank position in `n` samples, or `None`
/// when even the median does not (fewer than 20 samples). A percentile
/// with fewer samples beyond it is an anecdote, not a tail.
#[must_use]
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&p| n >= rank(permille(p), n) + 10)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN timing sample"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    #[should_panic(expected = "median of no samples")]
    fn median_rejects_empty() {
        let _ = median(&[]);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        // Order of the input does not matter.
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 90.0), 90.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        // The rule itself: at least ten samples strictly above the rank.
        for n in 1..3_000 {
            if let Some(p) = highest_supported_percentile(n) {
                let xs: Vec<f64> = (1..=n).map(|i| i as f64).collect();
                let beyond = xs.iter().filter(|&&x| x > percentile(&xs, p)).count();
                assert!(beyond >= 10, "n={n} p={p}");
            }
        }
    }
}
