//! Order statistics for the reported timings.

/// Samples a reported tail percentile must leave beyond it.
const MIN_TAIL: usize = 10;

/// The value at percentile `p` (0 < p ≤ 100) of `sorted` by the nearest-rank
/// rule: the smallest sample with at least `p`% of the samples at or below it.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).max(1)
}

/// The highest whole percentile, at most 99, that leaves at least
/// [`MIN_TAIL`] samples beyond it; `None` when even the median would not.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99).rev().find(|&p| n - rank(n, p) >= MIN_TAIL)
}

/// The median of `values` (mean of the middle two for an even count), or 0
/// when there are none.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    match sorted.len() {
        0 => 0.0,
        n if n.is_multiple_of(2) => (sorted[mid - 1] + sorted[mid]) / 2.0,
        _ => sorted[mid],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        // 1000 samples: rank 990 leaves exactly ten beyond p99.
        assert_eq!(tail_percentile(1000), Some(99));
        // One fewer and p99 would leave nine, so p98 is the highest.
        assert_eq!(tail_percentile(999), Some(98));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(19), None);
        for n in 20..3000 {
            let p = tail_percentile(n).expect("n >= 20 has a tail percentile");
            assert!(n - rank(n, p) >= MIN_TAIL, "n={n} p={p}");
            if p < 99 {
                assert!(n - rank(n, p + 1) < MIN_TAIL, "n={n}: p{} also fits", p + 1);
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50), 50.0);
        assert_eq!(percentile(&sorted, 99), 99.0);
        assert_eq!(percentile(&sorted, 100), 100.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
