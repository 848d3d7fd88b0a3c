//! Order statistics and the regression verdict: the percentile and tail
//! rule every latency metric uses, the quartiles every summary and
//! `compare` row reports, and the better/worse/unresolved decision.

/// Nearest-rank percentile `p` (0–100) of `samples`; `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Share of a run's jobs the tail metric averages: the slowest tenth.
pub const TAIL_FRACTION: f64 = 0.1;

/// Mean of the slowest [`TAIL_FRACTION`] of `samples` (at least one
/// sample); `None` when empty. Server latencies cluster at the accept
/// loop's 10 ms period, so a single percentile jumps between clusters from
/// run to run, while the mean beyond it moves smoothly; and a fixed
/// fraction keeps the metric's meaning when a run's job count changes.
pub fn tail_mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let k = ((samples.len() as f64 * TAIL_FRACTION).ceil() as usize).max(1);
    Some(sorted[..k].iter().sum::<f64>() / k as f64)
}

/// Median of `samples` (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// First, second and third quartile, computed exactly like Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method), so
/// the spreads `compare` prints match the acceptance arithmetic.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    match ld {
        0 => None,
        1 => Some([data[0]; 3]),
        _ => {
            let m = ld + 1;
            let mut out = [0.0; 3];
            for (slot, i) in out.iter_mut().zip(1..4usize) {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
            }
            Some(out)
        }
    }
}

/// Interquartile distance as a share of the median (0 when every sample
/// is equal; infinite when the median is 0 but the samples spread).
pub fn relative_spread(samples: &[f64]) -> f64 {
    let Some([q1, q2, q3]) = quartiles(samples) else {
        return 0.0;
    };
    let width = q3 - q1;
    if width == 0.0 {
        0.0
    } else if q2 == 0.0 {
        f64::INFINITY
    } else {
        width / q2.abs()
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, sizes, failures).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

/// The outcome of comparing a change's runs against its parent's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change is better by more than the bound.
    Better,
    /// The change is worse by more than the bound.
    Worse,
    /// The medians agree within the bound.
    Same,
    /// The spread is wider than the bound and the runs overlap.
    Unresolved,
}

impl Verdict {
    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares `change` against `parent` for a metric whose regression bound
/// is `bound` (a share of the parent's median); a difference of at most
/// `floor` (in the metric's unit) is never a verdict. When either side's
/// spread is wider than the bound (and than the floor), only a complete
/// separation — every run of one side beating every run of the other —
/// decides; otherwise the medians do.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64, floor: f64) -> Verdict {
    let (Some(p), Some(c)) = (median(parent), median(change)) else {
        return Verdict::Unresolved;
    };
    // Positive `gain` means the change improved on the parent.
    let sign = match better {
        Better::Lower => -1.0,
        Better::Higher => 1.0,
    };
    let beats = |a: f64, b: f64| sign * (a - b) > 0.0;
    let all_better = change.iter().all(|&x| parent.iter().all(|&y| beats(x, y)));
    let all_worse = change.iter().all(|&x| parent.iter().all(|&y| beats(y, x)));
    let wide = |v: &[f64]| {
        relative_spread(v) > bound && quartiles(v).is_some_and(|[q1, _, q3]| q3 - q1 > floor)
    };
    if wide(parent) || wide(change) {
        return if all_better {
            Verdict::Better
        } else if all_worse {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if (c - p).abs() <= floor {
        return Verdict::Same;
    }
    let gain = if p == 0.0 {
        if c == p {
            0.0
        } else {
            sign * (c - p).signum() * f64::INFINITY
        }
    } else {
        sign * (c - p) / p.abs()
    };
    if gain > bound {
        Verdict::Better
    } else if gain < -bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_mean_averages_the_slowest_tenth() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // The slowest ten: 91..=100.
        assert_eq!(tail_mean(&v), Some(95.5));
        // Fewer than ten samples still average the single slowest.
        assert_eq!(tail_mean(&[3.0, 9.0, 1.0]), Some(9.0));
        // 15 samples: ceil(1.5) = 2 slowest.
        let v: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(tail_mean(&v), Some(14.5));
        assert_eq!(tail_mean(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[4.0]), Some([4.0; 3]));
        assert_eq!(quartiles(&[]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[2.0, 2.0, 2.0]), 0.0);
        assert_eq!(relative_spread(&[]), 0.0);
    }

    #[test]
    fn verdicts_follow_bounds_spread_and_separation() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Within a 10% bound either way.
        let close = [103.0, 104.0, 102.0, 103.5, 102.5];
        assert_eq!(
            verdict(&parent, &close, Better::Lower, 0.10, 0.0),
            Verdict::Same
        );
        // 20% slower on a lower-is-better metric.
        let slow = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(
            verdict(&parent, &slow, Better::Lower, 0.10, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&parent, &slow, Better::Higher, 0.10, 0.0),
            Verdict::Better
        );
        // Noisy overlapping runs: the spread exceeds the bound.
        let noisy = [60.0, 150.0, 95.0, 130.0, 70.0];
        assert_eq!(
            verdict(&parent, &noisy, Better::Lower, 0.10, 0.0),
            Verdict::Unresolved
        );
        // Noisy but completely separated: every change run beats the parent.
        let fast_noisy = [10.0, 40.0, 20.0, 35.0, 15.0];
        assert_eq!(
            verdict(&parent, &fast_noisy, Better::Lower, 0.10, 0.0),
            Verdict::Better
        );
        assert_eq!(
            verdict(&fast_noisy, &parent, Better::Lower, 0.10, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&[], &parent, Better::Lower, 0.1, 0.0),
            Verdict::Unresolved
        );
        // A floor absorbs a small absolute change however large its
        // share: 2 ms to 3 ms is +50%, but within a 50 ms floor.
        let (fast, slow) = ([0.002, 0.0021, 0.0019], [0.003, 0.0031, 0.0029]);
        assert_eq!(
            verdict(&fast, &slow, Better::Lower, 0.2, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&fast, &slow, Better::Lower, 0.2, 0.05),
            Verdict::Same
        );
        // Beyond the floor the share decides again.
        let (p, c) = ([0.5, 0.51, 0.49], [0.7, 0.71, 0.69]);
        assert_eq!(verdict(&p, &c, Better::Lower, 0.2, 0.05), Verdict::Worse);
        // Any rise in a zero-bound metric (the failed share) is worse.
        assert_eq!(
            verdict(&[0.0], &[0.01], Better::Lower, 0.0, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&[0.0], &[0.0], Better::Lower, 0.0, 0.0),
            Verdict::Same
        );
    }
}
