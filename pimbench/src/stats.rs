//! Order statistics over timing samples: nearest-rank percentiles and
//! the tail rule ("the highest percentile with at least N samples beyond
//! it").

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or a `p` outside `(0, 100]`.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    sorted[rank_index(sorted.len(), p)]
}

/// Zero-based index of the nearest-rank `p`-th percentile among `n`
/// samples.
fn rank_index(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    // A percentile computed as 100 * k / n must land on rank k, so the
    // product is taken before the division and rounding error below one
    // part in 1e9 is forgiven.
    let x = p * n as f64 / 100.0;
    let rank = (x - 1e-9 * x.max(1.0)).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Nearest-rank median (the lower middle sample for an even count).
pub fn median(values: &[f64]) -> f64 {
    nearest_rank(&sorted(values), 50.0)
}

/// A copy of `values` in ascending order.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The tail sample reported beside the median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `97.5` for p97.5.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples strictly beyond it (at least the requested minimum).
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// The highest nearest-rank percentile that still has at least
/// `min_beyond` samples above its rank. Among `n` samples that is rank
/// `n - min_beyond`, i.e. percentile `100 * (n - min_beyond) / n`: any
/// higher percentile maps to a later rank and leaves fewer samples
/// beyond. `None` when there are not more than `min_beyond` samples.
pub fn tail(sorted: &[f64], min_beyond: usize) -> Option<Tail> {
    let n = sorted.len();
    if n <= min_beyond {
        return None;
    }
    let rank = n - min_beyond;
    let percentile = 100.0 * rank as f64 / n as f64;
    debug_assert_eq!(rank_index(n, percentile), rank - 1);
    Some(Tail {
        percentile,
        value: sorted[rank - 1],
        beyond: n - rank,
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_smallest_covering_sample() {
        let s = ramp(10);
        assert_eq!(nearest_rank(&s, 50.0), 5.0);
        assert_eq!(nearest_rank(&s, 51.0), 6.0);
        assert_eq!(nearest_rank(&s, 10.0), 1.0);
        assert_eq!(nearest_rank(&s, 0.1), 1.0);
        assert_eq!(nearest_rank(&s, 100.0), 10.0);
        assert_eq!(nearest_rank(&[7.0], 50.0), 7.0);
    }

    #[test]
    fn median_is_the_lower_middle_for_even_counts() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_leaves_exactly_the_minimum_beyond() {
        let s = ramp(100);
        let t = tail(&s, 10).unwrap();
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 100);
        // One more sample moves the rank up by one and the percentile
        // up with it; the count beyond stays ten.
        let t = tail(&ramp(101), 10).unwrap();
        assert_eq!(t.value, 91.0);
        assert_eq!(t.beyond, 10);
        assert!((t.percentile - 100.0 * 91.0 / 101.0).abs() < 1e-12);
    }

    #[test]
    fn tail_is_the_highest_such_percentile() {
        for n in 11..300 {
            let s = ramp(n);
            let t = tail(&s, 10).unwrap();
            let beyond = |p: f64| s.iter().filter(|&&v| v > nearest_rank(&s, p)).count();
            assert_eq!(beyond(t.percentile), 10, "n={n}");
            // Any higher percentile leaves fewer than ten beyond.
            let next = t.percentile + 1e-4;
            if next <= 100.0 {
                assert!(beyond(next) < 10, "n={n}");
            }
        }
    }

    #[test]
    fn tail_needs_more_samples_than_the_minimum() {
        assert_eq!(tail(&ramp(10), 10), None);
        assert!(tail(&ramp(11), 10).is_some());
        assert_eq!(tail(&ramp(11), 10).unwrap().value, 1.0);
    }

    #[test]
    fn tail_ignores_ties_in_rank_arithmetic() {
        let s = vec![5.0; 40];
        let t = tail(&s, 10).unwrap();
        assert_eq!(t.value, 5.0);
        assert_eq!(t.percentile, 75.0);
    }
}
