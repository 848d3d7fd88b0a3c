//! Shared resource budget and cooperative cancellation for the synthesis
//! pipeline.
//!
//! A [`Budget`] bundles the three resources a synthesis run may exhaust —
//! wall-clock (a deadline), BDD arena growth (a node ceiling), and
//! branch & bound exploration (a solver-node ceiling) — together with an
//! externally triggerable cancellation token. Long-running stages check it
//! *cooperatively*: the deep loops of the MILP branch & bound, the
//! vertex-cover search, BDD construction, and crossbar verification each
//! call [`Budget::check`] (or a cheaper specialized probe) at their
//! iteration boundaries and unwind with a typed [`BudgetExceeded`] instead
//! of running away.
//!
//! `Budget` is cheap to clone — clones share the cancellation flag, so
//! cancelling through a [`CancelHandle`] stops every stage holding a clone.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a budgeted computation had to stop early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum BudgetExceeded {
    /// The wall-clock deadline passed.
    Deadline,
    /// The cancellation token was triggered from outside.
    Cancelled,
    /// The BDD manager would have grown past `limit` nodes.
    BddNodes {
        /// The configured ceiling that was hit.
        limit: usize,
    },
    /// The branch & bound explored `limit` nodes without finishing.
    SolverNodes {
        /// The configured ceiling that was hit.
        limit: u64,
    },
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetExceeded::Deadline => write!(f, "deadline exceeded"),
            BudgetExceeded::Cancelled => write!(f, "cancelled"),
            BudgetExceeded::BddNodes { limit } => {
                write!(f, "BDD node ceiling ({limit}) exceeded")
            }
            BudgetExceeded::SolverNodes { limit } => {
                write!(f, "solver node ceiling ({limit}) exceeded")
            }
        }
    }
}

impl std::error::Error for BudgetExceeded {}

/// A handle that cancels every stage sharing the originating [`Budget`].
///
/// Obtained from [`Budget::cancel_handle`]; safe to move to another thread
/// (e.g. a ctrl-c handler or an RPC server's disconnect callback).
#[derive(Debug, Clone)]
pub struct CancelHandle(Arc<AtomicBool>);

impl CancelHandle {
    /// Requests cancellation. Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A resource budget for one synthesis request.
///
/// The default budget is unlimited; restrict it with the builder methods:
///
/// ```
/// use std::time::Duration;
/// use flowc_budget::Budget;
///
/// let budget = Budget::unlimited()
///     .with_deadline(Duration::from_secs(30))
///     .with_max_bdd_nodes(1_000_000)
///     .with_max_solver_nodes(5_000_000);
/// assert!(budget.check().is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct Budget {
    deadline: Option<Instant>,
    max_bdd_nodes: Option<usize>,
    max_solver_nodes: Option<u64>,
    cancel: Arc<AtomicBool>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

impl Budget {
    /// A budget with no limits and a fresh (untriggered) cancellation flag.
    pub fn unlimited() -> Self {
        Budget {
            deadline: None,
            max_bdd_nodes: None,
            max_solver_nodes: None,
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Sets the deadline to `timeout` from now. A `timeout` too large
    /// for the clock to represent leaves the budget as it was.
    #[must_use]
    pub fn with_deadline(self, timeout: Duration) -> Self {
        match Instant::now().checked_add(timeout) {
            Some(deadline) => self.with_deadline_at(deadline),
            None => self,
        }
    }

    /// Sets an absolute deadline.
    #[must_use]
    pub fn with_deadline_at(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Caps the BDD manager arena at `limit` nodes.
    #[must_use]
    pub fn with_max_bdd_nodes(mut self, limit: usize) -> Self {
        self.max_bdd_nodes = Some(limit);
        self
    }

    /// Caps branch & bound exploration at `limit` nodes.
    #[must_use]
    pub fn with_max_solver_nodes(mut self, limit: u64) -> Self {
        self.max_solver_nodes = Some(limit);
        self
    }

    /// The absolute deadline, if one is set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The BDD node ceiling, if one is set.
    pub fn max_bdd_nodes(&self) -> Option<usize> {
        self.max_bdd_nodes
    }

    /// The solver node ceiling, if one is set.
    pub fn max_solver_nodes(&self) -> Option<u64> {
        self.max_solver_nodes
    }

    /// A handle that cancels this budget (and all clones of it).
    pub fn cancel_handle(&self) -> CancelHandle {
        CancelHandle(Arc::clone(&self.cancel))
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// Time remaining until the deadline: `None` when no deadline is set,
    /// `Some(ZERO)` once it has passed.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Time remaining, clamped to `cap`: the smaller of `cap` and the time
    /// left on the clock.
    pub fn remaining_or(&self, cap: Duration) -> Duration {
        self.remaining().map_or(cap, |r| r.min(cap))
    }

    /// Whether the deadline has passed.
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The cooperative checkpoint: cancellation first (cheapest and most
    /// urgent), then the deadline. Node ceilings are checked by the stages
    /// that own the respective counters ([`Budget::check_solver_nodes`],
    /// the BDD manager's own arena accounting).
    pub fn check(&self) -> Result<(), BudgetExceeded> {
        if self.is_cancelled() {
            return Err(BudgetExceeded::Cancelled);
        }
        if self.deadline_exceeded() {
            return Err(BudgetExceeded::Deadline);
        }
        Ok(())
    }

    /// [`Budget::check`] plus the solver-node ceiling against an explored
    /// count owned by the caller.
    pub fn check_solver_nodes(&self, explored: u64) -> Result<(), BudgetExceeded> {
        self.check()?;
        match self.max_solver_nodes {
            Some(limit) if explored >= limit => Err(BudgetExceeded::SolverNodes { limit }),
            _ => Ok(()),
        }
    }

    /// Derives a sub-budget whose deadline is the sooner of this budget's
    /// deadline and `timeout` from now; shares the cancellation flag and
    /// node ceilings. A `timeout` too large for the clock to represent
    /// keeps this budget's deadline.
    #[must_use]
    pub fn capped(&self, timeout: Duration) -> Self {
        let mut sub = self.clone();
        if let Some(cap) = Instant::now().checked_add(timeout) {
            sub.deadline = Some(self.deadline.map_or(cap, |d| d.min(cap)));
        }
        sub
    }

    /// A sub-budget for a stage that may spend `share` (in `[0, 1]`) of
    /// the time left: [`Budget::capped`] at that share of
    /// [`Budget::remaining`], or a plain clone when no deadline is set.
    #[must_use]
    pub fn share(&self, share: f64) -> Self {
        match self.remaining() {
            Some(left) => self.capped(left.mul_f64(share)),
            None => self.clone(),
        }
    }

    /// Starts a [`Stopwatch`] against this budget. Equivalent to
    /// [`Stopwatch::start`].
    pub fn stopwatch(&self) -> Stopwatch {
        Stopwatch::start(self)
    }
}

/// A budget-backed wall-clock timer: the single source of truth for both
/// *how long a stage has run* and *whether its deadline has passed*, so the
/// two can never drift apart (the pre-session pipeline measured elapsed
/// time with ad-hoc `Instant::now()` pairs while deadline checks went
/// through the [`Budget`], and the two could disagree around the cutoff).
///
/// A stopwatch shares the originating budget's cancellation flag and
/// deadline; [`Stopwatch::check`] is exactly [`Budget::check`], and
/// [`Stopwatch::lap`] reads elapsed time from the same clock.
#[derive(Debug, Clone)]
pub struct Stopwatch {
    start: Instant,
    budget: Budget,
}

impl Stopwatch {
    /// Starts timing now, bound to `budget`'s deadline and cancellation.
    pub fn start(budget: &Budget) -> Self {
        Stopwatch {
            start: Instant::now(),
            budget: budget.clone(),
        }
    }

    /// Starts timing now with no deadline (pure elapsed-time measurement).
    pub fn unbudgeted() -> Self {
        Stopwatch::start(&Budget::unlimited())
    }

    /// Wall-clock time since the stopwatch started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed time since the last call to `lap` (or since start), and
    /// resets the lap origin — for timing consecutive stages off one clock.
    pub fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let lap = now.saturating_duration_since(self.start);
        self.start = now;
        lap
    }

    /// The cooperative budget checkpoint ([`Budget::check`]).
    pub fn check(&self) -> Result<(), BudgetExceeded> {
        self.budget.check()
    }

    /// The budget this stopwatch is bound to.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_always_passes() {
        let b = Budget::unlimited();
        assert!(b.check().is_ok());
        assert!(b.check_solver_nodes(u64::MAX).is_ok());
        assert!(b.remaining().is_none());
        assert!(!b.deadline_exceeded());
    }

    #[test]
    fn expired_deadline_fails_check() {
        let b = Budget::unlimited().with_deadline(Duration::ZERO);
        assert_eq!(b.check(), Err(BudgetExceeded::Deadline));
        assert_eq!(b.remaining(), Some(Duration::ZERO));
        assert!(b.deadline_exceeded());
    }

    #[test]
    fn cancellation_is_shared_across_clones() {
        let b = Budget::unlimited();
        let clone = b.clone();
        assert!(clone.check().is_ok());
        b.cancel_handle().cancel();
        assert_eq!(clone.check(), Err(BudgetExceeded::Cancelled));
        assert!(b.cancel_handle().is_cancelled());
    }

    #[test]
    fn cancellation_outranks_deadline() {
        let b = Budget::unlimited().with_deadline(Duration::ZERO);
        b.cancel_handle().cancel();
        assert_eq!(b.check(), Err(BudgetExceeded::Cancelled));
    }

    #[test]
    fn solver_node_ceiling() {
        let b = Budget::unlimited().with_max_solver_nodes(100);
        assert!(b.check_solver_nodes(99).is_ok());
        assert_eq!(
            b.check_solver_nodes(100),
            Err(BudgetExceeded::SolverNodes { limit: 100 })
        );
    }

    #[test]
    fn capped_takes_the_sooner_deadline() {
        let b = Budget::unlimited().with_deadline(Duration::from_secs(3600));
        let sub = b.capped(Duration::ZERO);
        assert!(sub.deadline_exceeded());
        assert!(!b.deadline_exceeded());
        // Sharing the cancel flag both ways.
        sub.cancel_handle().cancel();
        assert!(b.is_cancelled());

        let far = Budget::unlimited()
            .with_deadline(Duration::ZERO)
            .capped(Duration::from_secs(3600));
        assert!(far.deadline_exceeded());
    }

    #[test]
    fn capped_saturates_instead_of_overflowing_the_clock() {
        let sub = Budget::unlimited().capped(Duration::MAX);
        assert!(sub.deadline().is_none());
        assert!(sub.check().is_ok());
        let b = Budget::unlimited().with_deadline(Duration::from_secs(60));
        assert_eq!(b.capped(Duration::MAX).deadline(), b.deadline());
        assert!(Budget::unlimited()
            .with_deadline(Duration::MAX)
            .deadline()
            .is_none());
    }

    #[test]
    fn share_caps_only_a_budget_with_a_deadline() {
        assert!(Budget::unlimited().share(0.5).deadline().is_none());
        let b = Budget::unlimited().with_deadline(Duration::from_secs(100));
        let half = b.share(0.5).remaining().unwrap();
        assert!(half <= Duration::from_secs(50) && half > Duration::from_secs(40));
        b.share(0.5).cancel_handle().cancel();
        assert!(b.is_cancelled());
    }

    #[test]
    fn remaining_or_clamps() {
        let b = Budget::unlimited();
        assert_eq!(
            b.remaining_or(Duration::from_secs(5)),
            Duration::from_secs(5)
        );
        let b = b.with_deadline(Duration::ZERO);
        assert_eq!(b.remaining_or(Duration::from_secs(5)), Duration::ZERO);
    }

    #[test]
    fn stopwatch_shares_the_budget_clock() {
        let b = Budget::unlimited().with_deadline(Duration::ZERO);
        let sw = b.stopwatch();
        assert_eq!(sw.check(), Err(BudgetExceeded::Deadline));
        assert_eq!(sw.budget().remaining(), Some(Duration::ZERO));

        let b = Budget::unlimited();
        let sw = Stopwatch::start(&b);
        assert!(sw.check().is_ok());
        b.cancel_handle().cancel();
        assert_eq!(sw.check(), Err(BudgetExceeded::Cancelled));
        // Elapsed keeps counting regardless of budget state.
        assert!(sw.elapsed() < Duration::from_secs(60));
    }

    #[test]
    fn stopwatch_laps_partition_elapsed_time() {
        let mut sw = Stopwatch::unbudgeted();
        let a = sw.lap();
        let b = sw.lap();
        // Laps are non-negative and restart the origin; both tiny here.
        assert!(a + b < Duration::from_secs(60));
        assert!(sw.elapsed() <= a + b + Duration::from_secs(60));
    }

    #[test]
    fn errors_display() {
        assert!(BudgetExceeded::Deadline.to_string().contains("deadline"));
        assert!(BudgetExceeded::Cancelled.to_string().contains("cancel"));
        assert!(BudgetExceeded::BddNodes { limit: 7 }
            .to_string()
            .contains('7'));
        assert!(BudgetExceeded::SolverNodes { limit: 9 }
            .to_string()
            .contains('9'));
    }
}
