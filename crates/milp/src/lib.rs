//! A 0-1 mixed-integer linear programming solver, built from scratch as the
//! CPLEX stand-in for the COMPACT reproduction.
//!
//! The paper solves its VH-labeling formulations (minimum vertex cover ILP,
//! Eq. 2, and the weighted MIP, Eq. 4) with CPLEX under a wall-clock limit,
//! reporting the best integer solution, the best bound, and the relative gap
//! over time (Figures 10 and 11). This crate provides the same capabilities:
//!
//! - [`Model`]: a row/column model builder (binary and continuous variables,
//!   `<=`/`>=`/`=` linear constraints, minimization objective);
//! - [`lp::Simplex`]: a dense bounded-variable dual simplex for LP
//!   relaxations, behind a presolve;
//! - [`BranchBound`]: best-first branch & bound over the binary variables
//!   with LP bounding, activity-based constraint propagation, rounding
//!   heuristics, a wall-clock limit, and a [`SolveTrace`] recording the
//!   incumbent/bound/gap trajectory;
//! - a pluggable [`Bounder`] so domain code (the VH-labeling of
//!   `flowc-compact`) can substitute combinatorial bounds where the dense
//!   LP would be too large.
//!
//! # Example: a tiny knapsack
//!
//! ```
//! use flowc_milp::{Model, Sense, BranchBound};
//!
//! let mut m = Model::new();
//! // maximize 5a + 4b + 3c  s.t.  2a + 3b + c <= 4  ==  minimize negated.
//! let a = m.add_binary("a", -5.0);
//! let b = m.add_binary("b", -4.0);
//! let c = m.add_binary("c", -3.0);
//! m.add_constraint(&[(a, 2.0), (b, 3.0), (c, 1.0)], Sense::Le, 4.0);
//! let sol = BranchBound::new().solve(&m).unwrap();
//! assert_eq!(sol.objective.round() as i64, -8); // a and c
//! assert_eq!(sol.values[a.index()].round() as i64, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch;
pub mod lp;
pub mod metrics;
mod model;
mod search;
mod sol;

pub use branch::{Bounder, BranchBound, LpBounder};
pub use model::{Model, Sense, VarId, VarKind};
pub use sol::{MilpError, Solution, SolveStatus, SolveTrace, TracePoint};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MilpError>;
