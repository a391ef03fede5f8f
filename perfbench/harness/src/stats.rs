//! The benchmark's own statistics: nearest-rank percentiles, the rule
//! that decides whether a percentile is resolved by a sample, and the
//! median of repeated timings.

/// Samples a percentile needs *beyond* it before the benchmark treats
/// it as measured rather than as the sample maximum in disguise.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (0 < p ≤ 100) in `n` samples:
/// `⌈p/100 · n⌉`, clamped to `1..=n`.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    assert!(p > 0.0 && p <= 100.0, "percentile out of range: {p}");
    assert!(n > 0, "percentile of an empty sample");
    // Integer per-mille arithmetic keeps e.g. p = 99, n = 1000 at rank
    // 990 exactly instead of 991 after a float round-up.
    let permille = (p * 1000.0).round() as u128;
    let rank = (permille * n as u128).div_ceil(100_000) as usize;
    rank.clamp(1, n)
}

/// Nearest-rank percentile `p` of an ascending `sorted` sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[nearest_rank(p, sorted.len()) - 1]
}

/// Whether `n` samples resolve percentile `p`: at least [`MIN_BEYOND`]
/// samples rank above it.
pub fn resolves(p: f64, n: usize) -> bool {
    n > 0 && n - nearest_rank(p, n) >= MIN_BEYOND
}

/// Median of an unsorted sample (mean of the two middle values when
/// the count is even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ascending(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        assert_eq!(nearest_rank(50.0, 10), 5);
        assert_eq!(nearest_rank(50.0, 11), 6);
        assert_eq!(nearest_rank(99.0, 100), 99);
        assert_eq!(nearest_rank(99.0, 1000), 990);
        assert_eq!(nearest_rank(99.9, 1000), 999);
        assert_eq!(nearest_rank(100.0, 7), 7);
        assert_eq!(nearest_rank(0.1, 7), 1);
    }

    #[test]
    fn percentile_reads_the_ranked_sample() {
        let v = ascending(200);
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 99.0), 198.0);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples sits at rank 990: exactly ten beyond.
        assert!(resolves(99.0, 1000));
        assert!(!resolves(99.0, 999));
        assert!(!resolves(99.0, 100));
        // The median is resolved from 20 samples on.
        assert!(resolves(50.0, 20));
        assert!(!resolves(50.0, 19));
        assert!(!resolves(50.0, 0));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }
}
