//! Deadline-aware admission control: decide *before* queueing whether a
//! job's deadline is achievable, and at which rung of the degradation
//! ladder. The estimate comes from an EWMA of recent per-rung service
//! latencies (seeded with pessimistic priors until real samples arrive),
//! inflated by a safety factor and the expected queue wait. A job whose
//! deadline not even the all-VH staircase can meet is rejected with a
//! typed, retry-after-bearing error instead of being queued to die.

use std::time::Duration;

use flowc_compact::supervisor::{self, unknown_name_error, Rung};
use flowc_compact::VhStrategy;

/// The rungs the service admits jobs at: the supervisor's default
/// (weighted) ladder, most ambitious first. A request names where on it
/// to start; admission only ever moves a job further down.
pub fn ladder() -> &'static [Rung] {
    supervisor::ladder(&VhStrategy::default())
}

/// Parses a `strategy` name into a rung of [`ladder`]. Any other name,
/// including a supervisor rung the service does not admit, is rejected
/// with the shape every name table shares.
///
/// # Errors
///
/// The unknown-name message listing the admitted rungs.
pub fn parse_rung(name: &str) -> Result<Rung, String> {
    Rung::parse(name)
        .filter(|rung| ladder().contains(rung))
        .ok_or_else(|| {
            let names: Vec<&str> = ladder().iter().map(|r| r.name()).collect();
            unknown_name_error("strategy", name, &names)
        })
}

/// Position of `rung` in [`ladder`], the model's slot for it.
fn slot(rung: Rung) -> usize {
    ladder()
        .iter()
        .position(|&r| r == rung)
        .expect("jobs are only admitted at rungs of the ladder")
}

/// Pessimistic latency priors per rung of [`ladder`], microseconds, the
/// exact rung slowest. They only matter until the first few real samples
/// arrive.
const PRIORS_US: [f64; 3] = [2_000_000.0, 50_000.0, 5_000.0];

/// What admission decided for an accepted job.
#[derive(Debug, Clone, Copy)]
pub struct Admission {
    /// The rung the job will run at.
    pub rung: Rung,
    /// Whether that is below the rung the client asked for.
    pub degraded: bool,
    /// The latency estimate that justified the decision.
    pub estimate: Duration,
}

/// Rejection: not even the cheapest rung fits the deadline.
#[derive(Debug, Clone, Copy)]
pub struct Infeasible {
    /// Cheapest-rung estimate (what the deadline would need to cover).
    pub estimate: Duration,
    /// Suggested retry delay (the expected queue-drain time: retrying
    /// sooner cannot help if the deadline itself is the problem, but the
    /// queue contribution will have decayed by then).
    pub retry_after: Duration,
}

/// EWMA per-rung latency model.
#[derive(Debug)]
pub struct LatencyModel {
    /// Current estimate per rung (in [`ladder`] order), microseconds.
    ewma_us: [f64; PRIORS_US.len()],
    /// Samples folded in per rung.
    samples: [u64; PRIORS_US.len()],
    /// Smoothing factor for new samples.
    alpha: f64,
    /// Multiplier on the estimate before comparing to the deadline.
    safety: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            ewma_us: PRIORS_US,
            samples: [0; PRIORS_US.len()],
            alpha: 0.3,
            safety: 2.0,
        }
    }
}

impl LatencyModel {
    /// Folds one observed service latency for `rung` into the model.
    pub fn record(&mut self, rung: Rung, latency: Duration) {
        let i = slot(rung);
        let us = latency.as_micros() as f64;
        if self.samples[i] == 0 {
            self.ewma_us[i] = us;
        } else {
            self.ewma_us[i] += self.alpha * (us - self.ewma_us[i]);
        }
        self.samples[i] += 1;
    }

    /// The current estimate for `rung`, safety factor *not* applied.
    pub fn estimate(&self, rung: Rung) -> Duration {
        Duration::from_micros(self.ewma_us[slot(rung)] as u64)
    }

    /// Decides the highest rung of [`ladder`], from `requested` down,
    /// whose safety-inflated estimate plus the expected queue wait fits
    /// `deadline`.
    ///
    /// # Errors
    ///
    /// [`Infeasible`] when not even the ladder's last rung fits.
    pub fn plan(
        &self,
        requested: Rung,
        deadline: Duration,
        queue_wait: Duration,
    ) -> Result<Admission, Infeasible> {
        let rungs = &ladder()[slot(requested)..];
        for &rung in rungs {
            let estimate = self.estimate(rung);
            let needed = estimate.mul_f64(self.safety) + queue_wait;
            if needed <= deadline {
                return Ok(Admission {
                    rung,
                    degraded: rung != requested,
                    estimate,
                });
            }
        }
        Err(Infeasible {
            estimate: self.estimate(rungs[rungs.len() - 1]),
            retry_after: queue_wait.max(Duration::from_millis(1)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_admits_degrades_and_rejects() {
        let model = LatencyModel::default();
        // Generous deadline: the requested rung is admitted as-is.
        let adm = model
            .plan(Rung::ExactMip, Duration::from_secs(30), Duration::ZERO)
            .unwrap();
        assert_eq!(adm.rung, Rung::ExactMip);
        assert!(!adm.degraded);
        // 300ms deadline: exact (2s prior × 2) cannot fit, heuristic can.
        let adm = model
            .plan(Rung::ExactMip, Duration::from_millis(300), Duration::ZERO)
            .unwrap();
        assert_eq!(adm.rung, Rung::HeuristicOct);
        assert!(adm.degraded);
        // 1ms deadline: not even all-vh (5ms prior × 2) fits.
        let rej = model
            .plan(Rung::ExactMip, Duration::from_millis(1), Duration::ZERO)
            .unwrap_err();
        assert!(rej.estimate >= Duration::from_millis(1));
        assert!(rej.retry_after > Duration::ZERO);
    }

    #[test]
    fn queue_wait_pushes_jobs_down_the_ladder() {
        let model = LatencyModel::default();
        // Alone, heuristic (50ms × 2) fits a 150ms deadline...
        let adm = model
            .plan(
                Rung::HeuristicOct,
                Duration::from_millis(150),
                Duration::ZERO,
            )
            .unwrap();
        assert_eq!(adm.rung, Rung::HeuristicOct);
        // ...but a 100ms expected queue wait forces all-vh.
        let adm = model
            .plan(
                Rung::HeuristicOct,
                Duration::from_millis(150),
                Duration::from_millis(100),
            )
            .unwrap();
        assert_eq!(adm.rung, Rung::AllVh);
    }

    #[test]
    fn admission_walks_the_supervisor_ladder() {
        assert_eq!(ladder(), supervisor::ladder(&VhStrategy::default()));
        assert_eq!(ladder().len(), PRIORS_US.len());
        // From every admitted rung, admission degrades along the ladder
        // the supervisor itself walks when entered at that rung.
        for (i, &rung) in ladder().iter().enumerate() {
            let entered = VhStrategy::entering(rung, 0.5, Duration::ZERO);
            assert_eq!(&ladder()[i..], supervisor::ladder(&entered));
        }
    }

    #[test]
    fn only_rungs_of_the_ladder_are_admitted() {
        for &rung in ladder() {
            assert_eq!(parse_rung(rung.name()), Ok(rung));
        }
        assert_eq!(parse_rung("staircase"), Ok(Rung::AllVh));
        assert_eq!(parse_rung("anytime-mip"), Ok(Rung::ExactMip));
        // The min-semiperimeter rung is a supervisor rung, but not one
        // the service plans for.
        assert_eq!(
            parse_rung("exact-oct").unwrap_err(),
            "unknown strategy `exact-oct` (exact-mip|heuristic-oct|all-vh)"
        );
    }

    #[test]
    fn ewma_follows_observations() {
        let mut model = LatencyModel::default();
        // First sample replaces the prior outright.
        model.record(Rung::AllVh, Duration::from_millis(40));
        assert_eq!(model.estimate(Rung::AllVh), Duration::from_millis(40));
        // Subsequent samples move the estimate smoothly.
        model.record(Rung::AllVh, Duration::from_millis(80));
        let e = model.estimate(Rung::AllVh);
        assert!(e > Duration::from_millis(40) && e < Duration::from_millis(80));
    }
}
