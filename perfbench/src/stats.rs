//! Order statistics for the reported timings.

/// Candidate percentile ranks, highest first.  A tail figure is reported at the
/// highest rank that still leaves at least [`MIN_BEYOND`] samples above it.
const RANKS: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples a tail percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// A percentile read off a sorted sample, with the rank actually used and the
/// sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile rank used (at most the requested one).
    pub rank: f64,
    /// The sample value at that rank.
    pub value: f64,
    /// How many samples the figure rests on.
    pub samples: usize,
}

/// The value at percentile `rank` of an ascending sample (nearest-rank method).
pub fn percentile(sorted: &[f64], rank: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let index = ((sorted.len() as f64) * rank / 100.0).ceil() as usize;
    sorted[index.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank position of `rank`.
fn beyond(n: usize, rank: f64) -> usize {
    let index = ((n as f64) * rank / 100.0).ceil() as usize;
    n - index.clamp(1, n)
}

/// The highest percentile rank no greater than `at_most` that leaves at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when the sample is too small for
/// even the median.
pub fn tail(sorted: &[f64], at_most: f64) -> Option<Tail> {
    let n = sorted.len();
    RANKS
        .iter()
        .copied()
        .filter(|&rank| rank <= at_most && n > 0 && beyond(n, rank) >= MIN_BEYOND)
        .map(|rank| Tail {
            rank,
            value: percentile(sorted, rank),
            samples: n,
        })
        .next()
}

/// The median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn the_tail_rank_leaves_ten_samples_beyond_it() {
        // 1000 samples: p99.9 leaves 1 beyond, p99 leaves exactly 10.
        let t = tail(&ramp(1000), 99.9).unwrap();
        assert_eq!((t.rank, t.value, t.samples), (99.0, 990.0, 1000));
        // 10 000 samples support p99.9 (10 beyond).
        let t = tail(&ramp(10_000), 99.9).unwrap();
        assert_eq!((t.rank, t.value), (99.9, 9990.0));
        // The requested rank caps the choice.
        let t = tail(&ramp(10_000), 99.0).unwrap();
        assert_eq!((t.rank, t.value), (99.0, 9900.0));
        // 200 samples fall back to p90 (20 beyond) since p99 leaves only 2.
        let t = tail(&ramp(200), 99.0).unwrap();
        assert_eq!((t.rank, t.value, t.samples), (90.0, 180.0, 200));
        // Too few samples for any rank.
        assert_eq!(tail(&ramp(15), 99.0), None);
        assert_eq!(tail(&[], 99.0), None);
    }

    #[test]
    fn median_and_percentile_use_the_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(percentile(&ramp(100), 99.0), 99.0);
        assert_eq!(percentile(&ramp(100), 100.0), 100.0);
    }
}
