//! Exact order statistics over raw samples.
//!
//! End-to-end latencies come from sorted raw samples, never from the
//! 4 %-bucket `mochi_util::Histogram`: a bucket edge would hide exactly the
//! few-percent moves this benchmark exists to show.

/// Percentiles a report may name, lowest first, each with the samples per
/// thousand that lie beyond it (integers, so that 10 000 samples support
/// p99.9 exactly rather than up to a rounding error).
const PERCENTILE_LADDER: [(f64, usize); 4] = [(50.0, 500), (90.0, 100), (99.0, 10), (99.9, 1)];

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: usize = 10;

/// Highest rung of [`PERCENTILE_LADDER`] with at least [`MIN_BEYOND`] of
/// `n` samples beyond it; `None` when even the median has too few.
pub fn supported_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .rev()
        .find(|(_, beyond_per_mille)| n * beyond_per_mille / 1000 >= MIN_BEYOND)
        .map(|(percentile, _)| *percentile)
}

/// Nearest-rank percentile `p` (0–100) of ascending `sorted`; 0 when empty.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A percentile as reported: the value, the percentile actually used (the
/// requested one, lowered to what the sample count supports) and the count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Picked {
    pub value: u64,
    pub percentile: f64,
    pub samples: usize,
}

/// Picks percentile `wanted` from `samples` (sorted in place), lowered to
/// [`supported_percentile`] when the sample is too small for it; with fewer
/// than `2 * MIN_BEYOND` samples the median is all there is.
pub fn pick(samples: &mut [u64], wanted: f64) -> Picked {
    samples.sort_unstable();
    let supported = supported_percentile(samples.len()).unwrap_or(50.0);
    let percentile = wanted.min(supported);
    Picked {
        value: percentile_sorted(samples, percentile),
        percentile,
        samples: samples.len(),
    }
}

/// Median of `values` (mean of the middle two when even); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Mean of the middle half of `values` (the lowest and highest quarter, by
/// count rounded down, are dropped): like the median it ignores a few
/// disturbed samples, like the mean it uses what the undisturbed ones say.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let drop = sorted.len() / 4;
    let kept = &sorted[drop..sorted.len() - drop];
    if kept.is_empty() {
        0.0
    } else {
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

/// First and third quartile by the "exclusive" method, which is what
/// Python's `statistics.quantiles(values, n=4)` computes — the acceptance
/// driver uses that function, so spreads must agree with it.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let only = sorted.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |quarter: usize| {
        // Position quarter*(n+1)/4 on a 1-based scale, clamped to the data.
        let j = (quarter * (n + 1) / 4).clamp(1, n - 1);
        let delta = (quarter * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta.clamp(0.0, 1.0)
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median; 0 when the median is 0.
pub fn relative_spread(values: &[f64]) -> f64 {
    let mid = median(values);
    if mid == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / mid.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&sorted, 50.0), 50);
        assert_eq!(percentile_sorted(&sorted, 99.0), 99);
        assert_eq!(percentile_sorted(&sorted, 100.0), 100);
        assert_eq!(percentile_sorted(&sorted, 0.0), 1);
        assert_eq!(percentile_sorted(&[], 50.0), 0);
        assert_eq!(percentile_sorted(&[7], 99.9), 7);
    }

    #[test]
    fn highest_percentile_with_ten_samples_beyond() {
        assert_eq!(supported_percentile(0), None);
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(99), Some(50.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(999), Some(90.0));
        assert_eq!(supported_percentile(1_000), Some(99.0));
        assert_eq!(supported_percentile(9_999), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn pick_lowers_an_unsupported_percentile() {
        let mut small: Vec<u64> = (1..=200).rev().collect();
        let picked = pick(&mut small, 99.0);
        assert_eq!(picked.percentile, 90.0);
        assert_eq!(picked.value, 180);
        assert_eq!(picked.samples, 200);

        let mut large: Vec<u64> = (1..=2_000).collect();
        let picked = pick(&mut large, 99.0);
        assert_eq!(picked.percentile, 99.0);
        assert_eq!(picked.value, 1_980);

        let mut tiny = vec![5, 1, 3];
        let picked = pick(&mut tiny, 99.9);
        assert_eq!((picked.percentile, picked.value), (50.0, 3));
    }

    #[test]
    fn interquartile_mean_drops_both_tails() {
        // Ten values: two dropped at each end.
        let values = [1.0, 100.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 0.0, 1_000.0];
        assert_eq!(interquartile_mean(&values), 7.5);
        assert_eq!(interquartile_mean(&[4.0, 2.0, 6.0]), 4.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        assert!((relative_spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0]), 0.0);
    }
}
