//! Metric-guided bounders: combinatorial lower bounds specialized to the
//! structures this repo actually solves, pluggable into [`BranchBound`]
//! via the [`Bounder`] trait.
//!
//! Three families live here:
//!
//! - [`MatchingCoverBounder`] / [`DegreeCoverBounder`]: bounds for pairwise
//!   vertex-cover ILPs (`x_u + x_v >= 1` rows), via greedy disjoint-pair
//!   matching and degree counting respectively;
//! - [`VhBounder`]: the VH-labeling objective of the paper's Eq. 4
//!   (`γ·S + (1−γ)·D`), bounding S through forced-VH counts plus a
//!   vertex-disjoint triangle packing (every triangle is an odd cycle, so
//!   it forces a VH node) and D through `max(⌈S/2⌉, rows, columns)`;
//! - [`HybridBounder`]: composes a cheap combinatorial bounder with the LP
//!   relaxation — the LP is solved only when the cheap bound fails to reach
//!   the cutoff, which on deep subtrees skips most LP work.
//!
//! Every bounder here is pinned by exhaustive-enumeration-vs-branch&bound
//! equivalence tests on seeded random models (`tests/` in this crate and
//! the labeling equivalence suite in `flowc-conform`).

mod cover;
mod vh;

pub use cover::{CoverProblem, DegreeCoverBounder, MatchingCoverBounder};
pub use vh::{VhBounder, VhLayout};

use flowc_budget::Budget;

use crate::branch::{sanitize_bound, Bounder, LpBounder};
use crate::model::Model;

/// Composes a cheap combinatorial bounder with LP refinement: the LP solve
/// is skipped whenever the cheap bound alone already reaches the cutoff
/// (i.e. the node prunes without it). The reported bound is the max of the
/// two, so it is never weaker than either part.
#[derive(Debug, Clone)]
pub struct HybridBounder<B> {
    cheap: B,
    lp: LpBounder,
    /// Whether the last `lower_bound` call ran the LP (its relaxation
    /// point is only meaningful then).
    lp_fresh: bool,
    lp_solves: u64,
    lp_skips: u64,
}

impl<B: Bounder> HybridBounder<B> {
    /// Wraps `cheap` with LP refinement.
    pub fn new(cheap: B) -> Self {
        HybridBounder {
            cheap,
            lp: LpBounder::new(),
            lp_fresh: false,
            lp_solves: 0,
            lp_skips: 0,
        }
    }

    /// Stops each LP solve once `budget` is spent, falling back to the
    /// cheap bound for that call; see [`crate::lp::Simplex::with_budget`].
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.lp = LpBounder::with_budget(budget);
        self
    }

    /// `(lp_solves, lp_skips)` so far — how often the cheap bound made the
    /// LP unnecessary.
    pub fn lp_stats(&self) -> (u64, u64) {
        (self.lp_solves, self.lp_skips)
    }
}

impl<B: Bounder> Bounder for HybridBounder<B> {
    fn lower_bound(&mut self, model: &Model, fixed: &[Option<bool>], cutoff: f64) -> f64 {
        self.lp_fresh = false;
        let cheap = sanitize_bound(self.cheap.lower_bound(model, fixed, cutoff));
        let cheap = self.cheap.tighten_bound(cheap);
        if cheap == f64::INFINITY || cheap >= cutoff - 1e-9 {
            self.lp_skips += 1;
            return cheap;
        }
        self.lp_solves += 1;
        let lp = sanitize_bound(self.lp.lower_bound(model, fixed, cutoff));
        if lp == f64::INFINITY {
            return lp;
        }
        self.lp_fresh = true;
        // `-inf` (unbounded LP) defers to the combinatorial bound.
        cheap.max(lp)
    }

    fn tighten_bound(&self, bound: f64) -> f64 {
        self.cheap.tighten_bound(bound)
    }

    fn relaxation_point(&self) -> Option<&[f64]> {
        if self.lp_fresh {
            self.lp.relaxation_point()
        } else {
            None
        }
    }

    fn suggest_incumbent(&mut self, model: &Model, fixed: &[Option<bool>]) -> Option<Vec<f64>> {
        self.cheap.suggest_incumbent(model, fixed)
    }

    fn branch_hint(&self, model: &Model, fixed: &[Option<bool>]) -> Option<usize> {
        self.cheap.branch_hint(model, fixed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Sense;
    use crate::BranchBound;

    #[test]
    fn hybrid_is_never_weaker_than_lp_alone() {
        // C5 vertex cover: hybrid(Matching) must reach the optimum with a
        // proven gap of zero, like the LP path does.
        let mut m = Model::new();
        let xs: Vec<_> = (0..5).map(|i| m.add_binary(format!("x{i}"), 1.0)).collect();
        for i in 0..5 {
            m.add_constraint(&[(xs[i], 1.0), (xs[(i + 1) % 5], 1.0)], Sense::Ge, 1.0);
        }
        let prob = CoverProblem::from_model(&m).unwrap();
        let hybrid = || HybridBounder::new(MatchingCoverBounder::new(prob.clone()));
        let sol = BranchBound::new().solve_with(&m, hybrid()).unwrap();
        assert_eq!(sol.objective.round() as i64, 3);
        // A cutoff the cheap bound already reaches skips the LP; one it
        // cannot reach pays for it, and the LP's 2.5 beats matching's 2.
        let mut bounder = hybrid();
        let root = vec![None; 5];
        assert_eq!(bounder.lower_bound(&m, &root, 1.0), 2.0);
        assert_eq!(bounder.lp_stats(), (0, 1));
        assert!((bounder.lower_bound(&m, &root, f64::INFINITY) - 2.5).abs() < 1e-9);
        assert_eq!(bounder.lp_stats(), (1, 1));
    }
}
