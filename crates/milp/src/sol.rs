//! Solution, status, and convergence-trace types shared by the MILP solver
//! and the domain-specific branch & bounds built on top of it.

use std::fmt;
use std::time::Duration;

/// Errors from the MILP solver.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MilpError {
    /// The model has no feasible integer point.
    Infeasible,
    /// The relaxation is unbounded below, so the MILP has no finite optimum.
    Unbounded,
}

impl fmt::Display for MilpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MilpError::Infeasible => write!(f, "model is infeasible"),
            MilpError::Unbounded => write!(f, "model is unbounded"),
        }
    }
}

impl std::error::Error for MilpError {}

/// How a solve ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// Optimality proven (incumbent meets the best bound).
    Optimal,
    /// The budget ran out with a feasible incumbent; `best_bound` tells how
    /// far it might be from optimal.
    TimeLimit,
}

/// One sample of the solver's convergence state, as plotted in Figure 10 of
/// the paper (best integer, best bound, relative gap over elapsed time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Wall-clock time since the solve started.
    pub elapsed: Duration,
    /// Objective of the best integer solution found so far (`None` until the
    /// first incumbent).
    pub best_integer: Option<f64>,
    /// Best proven lower bound on the optimum.
    pub best_bound: f64,
    /// Open nodes in the branch & bound tree.
    pub open_nodes: usize,
}

impl TracePoint {
    /// CPLEX-style relative gap `|best_integer - best_bound| / |best_integer|`,
    /// or 1.0 while no incumbent exists.
    pub fn relative_gap(&self) -> f64 {
        match self.best_integer {
            None => 1.0,
            Some(inc) => {
                let denom = inc.abs().max(1e-10);
                ((inc - self.best_bound).abs() / denom).min(1.0)
            }
        }
    }
}

/// The recorded convergence trajectory of a solve.
#[derive(Debug, Clone, Default)]
pub struct SolveTrace {
    points: Vec<TracePoint>,
}

impl SolveTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        SolveTrace::default()
    }

    /// Appends a sample.
    pub fn push(&mut self, point: TracePoint) {
        self.points.push(point);
    }

    /// All samples in chronological order.
    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    /// The final relative gap (1.0 for an empty trace).
    pub fn final_gap(&self) -> f64 {
        self.points.last().map_or(1.0, TracePoint::relative_gap)
    }
}

/// A feasible integer solution with its provenance.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Values for every model variable, in declaration order.
    pub values: Vec<f64>,
    /// Objective at `values`.
    pub objective: f64,
    /// Whether optimality was proven.
    pub status: SolveStatus,
    /// Best proven lower bound at termination.
    pub best_bound: f64,
    /// The convergence trace (for Figures 10/11-style reporting).
    pub trace: SolveTrace,
    /// Branch & bound nodes explored (0 when the root alone decided).
    pub nodes: u64,
    /// Warm-start outcome: `None` when no warm start was supplied,
    /// `Some(true)` when the supplied point was accepted as the initial
    /// incumbent, `Some(false)` when it failed validation.
    pub warm_start: Option<bool>,
}

impl Solution {
    /// CPLEX-style relative MIP gap at termination.
    pub fn relative_gap(&self) -> f64 {
        let denom = self.objective.abs().max(1e-10);
        ((self.objective - self.best_bound).abs() / denom).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_semantics() {
        let p = TracePoint {
            elapsed: Duration::from_secs(1),
            best_integer: None,
            best_bound: 3.0,
            open_nodes: 5,
        };
        assert_eq!(p.relative_gap(), 1.0);
        let p = TracePoint {
            best_integer: Some(10.0),
            ..p
        };
        assert!((p.relative_gap() - 0.7).abs() < 1e-12);
        let closed = TracePoint {
            best_integer: Some(3.0),
            best_bound: 3.0,
            ..p
        };
        assert_eq!(closed.relative_gap(), 0.0);
    }

    #[test]
    fn trace_accumulates() {
        let mut t = SolveTrace::new();
        assert_eq!(t.final_gap(), 1.0);
        t.push(TracePoint {
            elapsed: Duration::from_millis(1),
            best_integer: Some(4.0),
            best_bound: 2.0,
            open_nodes: 1,
        });
        assert_eq!(t.points().len(), 1);
        assert!((t.final_gap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn errors_display() {
        assert!(MilpError::Infeasible.to_string().contains("infeasible"));
        assert!(MilpError::Unbounded.to_string().contains("unbounded"));
    }
}
