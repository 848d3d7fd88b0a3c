//! Combinatorial bounders for the VH-labeling MIP, pluggable into
//! [`crate::BranchBound`] via the [`crate::Bounder`] trait:
//!
//! - [`VhBounder`]: the VH-labeling objective of the paper's Eq. 4
//!   (`γ·S + (1−γ)·D`), bounding S through forced-VH counts plus a
//!   vertex-disjoint triangle packing (every triangle is an odd cycle, so
//!   it forces a VH node) and D through `max(⌈S/2⌉, rows, columns)`;
//! - [`HybridBounder`]: composes a cheap combinatorial bounder with the LP
//!   relaxation — the LP is solved only when the cheap bound fails to reach
//!   the cutoff, which on deep subtrees skips most LP work.
//!
//! Both are pinned by exhaustive-enumeration-vs-branch&bound equivalence
//! tests on small Eq. 4 models (`vh.rs`) and by the labeling equivalence
//! suite in the root package's `tests/`.

pub(crate) mod vh;

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
}

impl<B: Bounder> HybridBounder<B> {
    /// Wraps `cheap` with LP refinement.
    pub fn new(cheap: B) -> Self {
        HybridBounder {
            cheap,
            lp: LpBounder::new(),
            lp_fresh: false,
        }
    }

    /// Stops each LP solve once `budget` is spent, falling back to the
    /// cheap bound for that call; see [`crate::lp::Simplex::with_budget`].
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.lp = LpBounder::with_budget(budget);
        self
    }
}

impl<B: Bounder> Bounder for HybridBounder<B> {
    fn lower_bound(&mut self, model: &Model, fixed: &[Option<bool>], cutoff: f64) -> f64 {
        self.lp_fresh = false;
        let cheap = sanitize_bound(self.cheap.lower_bound(model, fixed, cutoff));
        let cheap = self.cheap.tighten_bound(cheap);
        if cheap == f64::INFINITY || cheap >= cutoff - 1e-9 {
            return cheap;
        }
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
    use crate::metrics::vh::tests::{build_vh_model, graphs};
    use crate::BranchBound;

    #[test]
    fn hybrid_is_never_weaker_than_lp_alone() {
        // The Eq. 4 model of C5 at γ = 0.5: hybrid(Vh) must reach the
        // optimum with a proven gap of zero, like the LP path does.
        let (n, edges) = graphs().swap_remove(1);
        let (m, layout) = build_vh_model(n, &edges, 0.5);
        let hybrid = || HybridBounder::new(VhBounder::new(layout.clone()));
        let sol = BranchBound::new().solve_with(&m, hybrid()).unwrap();
        assert_eq!((sol.objective, sol.best_bound), (4.5, 4.5));
        // A cutoff the cheap bound already reaches skips the LP (no
        // relaxation point); one it cannot reach pays for it, and the
        // bound is the larger of the two: the cheap 4.0 over the LP's 3.75.
        let mut bounder = hybrid();
        let root = vec![None; m.num_vars()];
        assert_eq!(bounder.lower_bound(&m, &root, 4.0), 4.0);
        assert!(bounder.relaxation_point().is_none());
        let mut lp = LpBounder::new();
        assert!((lp.lower_bound(&m, &root, f64::INFINITY) - 3.75).abs() < 1e-9);
        assert_eq!(bounder.lower_bound(&m, &root, f64::INFINITY), 4.0);
        assert!(bounder.relaxation_point().is_some());
    }
}
