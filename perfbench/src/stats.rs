//! Order statistics over raw samples, and the failure ratio.
//!
//! Every latency the benchmark reports comes from here, computed over
//! the raw per-operation samples — never from a bucketed histogram,
//! whose bucket edges would pin a percentile regardless of the run.

/// Median by nearest rank (the lower middle for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Nearest-rank percentile `q` in `(0, 100]`: the smallest sample with
/// at least `q`% of the samples at or below it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !(q > 0.0 && q <= 100.0) {
        return None;
    }
    let sorted = sorted(samples);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples that must lie beyond a reported tail percentile.
const TAIL_BEYOND: usize = 10;

/// The tail the sample supports: p99 when at least [`TAIL_BEYOND`]
/// samples lie beyond it, otherwise the highest percentile that still
/// leaves [`TAIL_BEYOND`] samples beyond. Returns `(percentile, value)`,
/// or `None` when there are too few samples for any tail.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = ((0.99 * n as f64).ceil() as usize).min(n - TAIL_BEYOND);
    let sorted = sorted(samples);
    Some((100.0 * rank as f64 / n as f64, sorted[rank - 1]))
}

/// Failed over attempted; 0 when nothing was attempted.
pub fn fail_ratio(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_takes_the_nearest_rank() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn percentile_is_nearest_rank_over_raw_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 1.0), Some(1.0));
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), None);
        // A raw percentile resolves values a 2x bucket edge would pin:
        // 382 and 398 both land in the (200, 400] bucket.
        assert_eq!(percentile(&[382.0, 398.0], 100.0), Some(398.0));
    }

    #[test]
    fn tail_is_p99_once_ten_samples_lie_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 990.0)));
        let v: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 4950.0)));
    }

    #[test]
    fn tail_backs_off_below_p99_on_small_samples() {
        // 200 samples: p99 would leave 2 beyond; the supported tail is
        // rank 190, i.e. p95, with exactly ten samples beyond it.
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(tail(&v), Some((95.0, 190.0)));
        assert_eq!(tail(&[1.0; 10]), None);
        assert_eq!(tail(&(1..=11).map(f64::from).collect::<Vec<_>>()).map(|t| t.1), Some(1.0));
    }

    #[test]
    fn fail_ratio_is_failed_over_attempted() {
        assert_eq!(fail_ratio(0, 0), 0.0);
        assert_eq!(fail_ratio(0, 5000), 0.0);
        assert_eq!(fail_ratio(3, 4), 0.75);
        assert_eq!(fail_ratio(25, 5000), 0.005);
    }
}
