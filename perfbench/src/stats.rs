//! Percentiles and medians of latency samples, and their conversion to
//! reference units.
//!
//! A timing is reported as its median and the highest percentile of
//! [`LADDER`] that still has at least [`MIN_BEYOND`] samples beyond it, so
//! a tail figure always rests on more than a handful of observations.

/// Candidate percentiles, in tenths of a percent (p50, p90, p99, p99.9).
pub const LADDER: [u32; 4] = [500, 900, 990, 999];

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `tenths` (‰) over `n` samples:
/// `ceil(tenths / 1000 · n)`, computed in integers so p90 of 100 samples
/// is exactly rank 90.
pub fn rank(tenths: u32, n: usize) -> usize {
    (tenths as usize * n).div_ceil(1000).max(1)
}

/// Samples strictly beyond the nearest-rank percentile.
pub fn beyond(tenths: u32, n: usize) -> usize {
    n.saturating_sub(rank(tenths, n))
}

/// The highest percentile of [`LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median has fewer.
pub fn highest_reportable(n: usize) -> Option<u32> {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| beyond(p, n) >= MIN_BEYOND)
}

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], tenths: u32) -> f64 {
    sorted[rank(tenths, sorted.len()) - 1]
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Each operation's time divided by the median of the reference samples
/// around it: up to `window` taken before it and `window` after it.
/// `before[i]` is the number of reference samples taken before operation
/// `i` started (so `reference[..before[i]]` precede it). The machine's
/// speed at the moment scales both, so the quotient keeps the operation's
/// own cost.
pub fn reference_costs(ms: &[f64], before: &[usize], reference: &[f64], window: usize) -> Vec<f64> {
    assert!(window > 0 && !reference.is_empty(), "no reference samples");
    ms.iter()
        .zip(before)
        .map(|(&t, &b)| {
            let lo = b.saturating_sub(window).min(reference.len() - 1);
            let hi = (b + window).min(reference.len()).max(lo + 1);
            t / median(&reference[lo..hi])
        })
        .collect()
}

/// Display name of a ladder percentile (`p50`, `p99.9`).
pub fn label(tenths: u32) -> String {
    if tenths.is_multiple_of(10) {
        format!("p{}", tenths / 10)
    } else {
        format!("p{}.{}", tenths / 10, tenths % 10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_are_exact_nearest_ranks() {
        assert_eq!(rank(900, 100), 90);
        assert_eq!(rank(900, 101), 91);
        assert_eq!(rank(500, 1), 1);
        assert_eq!(rank(500, 20), 10);
        assert_eq!(rank(990, 1000), 990);
        assert_eq!(rank(999, 10_000), 9990);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_reportable(19), None);
        assert_eq!(highest_reportable(20), Some(500));
        assert_eq!(highest_reportable(99), Some(500));
        assert_eq!(highest_reportable(100), Some(900));
        assert_eq!(highest_reportable(999), Some(900));
        assert_eq!(highest_reportable(1000), Some(990));
        assert_eq!(highest_reportable(9_999), Some(990));
        assert_eq!(highest_reportable(10_000), Some(999));
        for n in 0..20_000 {
            if let Some(p) = highest_reportable(n) {
                assert!(beyond(p, n) >= MIN_BEYOND);
                // The next rung up, if any, would have too few.
                if let Some(&next) = LADDER.iter().find(|&&q| q > p) {
                    assert!(beyond(next, n) < MIN_BEYOND);
                }
            }
        }
    }

    #[test]
    fn reference_costs_use_the_samples_on_both_sides() {
        let reference = [1.0, 2.0, 4.0, 8.0, 16.0];
        // Window 1: the sample before and the one after.
        let costs = reference_costs(&[6.0, 6.0, 6.0], &[0, 2, 5], &reference, 1);
        assert_eq!(costs, vec![6.0 / 1.0, 6.0 / 3.0, 6.0 / 16.0]);
        // Window 2 around the middle: 1, 2, 4, 8, median 3.
        assert_eq!(reference_costs(&[3.0], &[2], &reference, 2), vec![1.0]);
    }

    #[test]
    fn percentile_and_median_pick_the_expected_samples() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 500), 50.0);
        assert_eq!(percentile(&sorted, 900), 90.0);
        assert_eq!(percentile(&sorted, 990), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(label(990), "p99");
        assert_eq!(label(999), "p99.9");
    }
}
