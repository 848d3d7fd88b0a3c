//! Reduced ordered binary decision diagrams (ROBDDs) and shared BDD forests
//! (SBDDs), built from scratch as the CUDD/ABC stand-in for the COMPACT
//! reproduction.
//!
//! A [`Manager`] owns a node arena with a per-level unique table and an ITE
//! computed cache. Multiple roots share structure, which is exactly the
//! *shared BDD* (SBDD) of the paper: building every output of a
//! multi-output circuit in one manager yields the SBDD, while building each
//! output in its own manager yields the "multiple ROBDDs" baseline.
//!
//! # Quick example
//!
//! ```
//! use flowc_bdd::Manager;
//!
//! let mut m = Manager::new();
//! let a = m.new_var("a");
//! let b = m.new_var("b");
//! let c = m.new_var("c");
//! let (va, vb, vc) = (m.var(a), m.var(b), m.var(c));
//! let ab = m.and(va, vb);
//! let f = m.or(ab, vc); // (a ∧ b) ∨ c — the paper's running example
//! assert!(m.eval(f, &[true, true, false]));
//! assert!(!m.eval(f, &[false, true, false]));
//! assert_eq!(m.size(&[f]), 5); // 3 internal nodes + 2 terminals
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build;
mod dot;
mod manager;
mod ops;
mod order;

pub use build::{build_robdds, build_sbdd, try_build_sbdd, NetworkBdds};
pub use dot::to_dot;
pub use manager::{Manager, Ref, VarId};
pub use order::{dfs_fanin_order, sift, SiftResult};
