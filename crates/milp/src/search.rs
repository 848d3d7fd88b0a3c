//! The best-first branch & bound loop behind [`BranchBound::solve_with`].
//!
//! One heap of open nodes, ordered by bound (then depth), and one
//! [`Bounder`], all on the calling thread (DESIGN.md §13). The root is
//! bounded after any warm start is validated, the bounder's greedy
//! completion and, failing that, an LP completion seed the incumbent, and
//! the loop then pops the best node, prunes it against the incumbent (and
//! the gap tolerance) or expands it. The budget is checked before every
//! expansion and between child bounds, so a stop lands within one bounder
//! call; the bound it reports is the minimum over the node under
//! expansion and the heap.

use std::collections::BinaryHeap;
use std::time::Instant;

use crate::branch::{
    complete_leaf, expand_node, heuristic_incumbent, propagate, sanitize_bound,
    validate_warm_start, Bounder, BranchBound, Node,
};
use crate::model::Model;
use crate::sol::{MilpError, Solution, SolveStatus, SolveTrace, TracePoint};
use crate::Result;

/// The incumbent and the trace of one search.
struct Progress {
    incumbent: Option<(Vec<f64>, f64)>,
    trace: SolveTrace,
    start: Instant,
}

impl Progress {
    /// The incumbent objective, `+inf` when there is none.
    fn objective(&self) -> f64 {
        self.incumbent.as_ref().map_or(f64::INFINITY, |(_, o)| *o)
    }

    fn record(&mut self, best_bound: f64, open_nodes: usize) {
        self.trace.push(TracePoint {
            elapsed: self.start.elapsed(),
            best_integer: self.incumbent.as_ref().map(|(_, o)| *o),
            best_bound,
            open_nodes,
        });
    }

    /// Keeps `(values, obj)` when it improves on the incumbent, recording
    /// the improvement with `bound`, a valid lower bound at the time.
    fn offer(&mut self, values: Vec<f64>, obj: f64, bound: f64, open_nodes: usize) {
        if obj < self.objective() - 1e-12 {
            self.incumbent = Some((values, obj));
            self.record(bound, open_nodes);
        }
    }
}

/// A lower bound on every open node: `node` is under expansion and every
/// other open node is in `heap`.
fn open_bound(node: &Node, heap: &BinaryHeap<Node>) -> f64 {
    heap.peek()
        .map_or(node.bound, |top| top.bound.min(node.bound))
}

/// Best-first search with `bounder`; see the module doc.
pub(crate) fn solve<B: Bounder>(
    cfg: &BranchBound,
    model: &Model,
    mut bounder: B,
) -> Result<Solution> {
    let start = Instant::now();
    let n = model.num_vars();

    let mut warm_used = cfg.warm.as_ref().map(|_| false);
    let mut warm_incumbent: Option<(Vec<f64>, f64)> = None;
    if let Some(warm) = &cfg.warm {
        if let Some(obj) = validate_warm_start(model, warm, cfg.integrality_tol) {
            warm_incumbent = Some((warm.clone(), obj));
            warm_used = Some(true);
        }
    }

    let root_fixed: Vec<Option<bool>> = vec![None; n];
    let Some(root_fixed) = propagate(model, root_fixed) else {
        return Err(MilpError::Infeasible);
    };
    let warm_obj = warm_incumbent.as_ref().map_or(f64::INFINITY, |(_, o)| *o);
    let root_bound = sanitize_bound(bounder.lower_bound(model, &root_fixed, warm_obj));
    let root_bound = bounder.tighten_bound(root_bound);
    // An LP the budget interrupted also answers `-inf`; only a finished
    // one proves the relaxation unbounded. A spent budget goes on to stop
    // the search at its first node with whatever incumbent exists.
    if root_bound == f64::NEG_INFINITY && cfg.budget.check().is_ok() {
        return Err(MilpError::Unbounded);
    }
    if root_bound.is_infinite() {
        // A warm-started solve proved the root relaxation cut off by the
        // incumbent: the incumbent is optimal.
        if let Some((values, objective)) = warm_incumbent {
            return Ok(Solution {
                values,
                objective,
                status: SolveStatus::Optimal,
                best_bound: objective,
                trace: SolveTrace::new(),
                nodes: 0,
                warm_start: warm_used,
            });
        }
        return Err(MilpError::Infeasible);
    }

    let mut progress = Progress {
        incumbent: warm_incumbent,
        trace: SolveTrace::new(),
        start,
    };
    // Root heuristics: the bounder's greedy completion, kept when it beats
    // a warm start, then an LP completion if there is still no incumbent.
    if let Some((values, obj)) = heuristic_incumbent(model, &mut bounder, &root_fixed) {
        progress.offer(values, obj, root_bound, 1);
    }
    if !progress.objective().is_finite() {
        if let Some((values, obj)) = complete_leaf(model, &mut bounder, &root_fixed, &cfg.budget) {
            progress.offer(values, obj, root_bound, 1);
        }
    }
    let mut heap = BinaryHeap::from([Node {
        bound: root_bound,
        fixed: root_fixed,
        depth: 0,
        point: bounder.relaxation_point().map(<[f64]>::to_vec),
    }]);

    let mut explored = 0u64;
    // `Some(bound)` when the budget stopped the search with open nodes.
    let stopped = loop {
        let Some(node) = heap.pop() else {
            break None;
        };
        // Budget first: a cancelled or exhausted budget stops the search
        // even when this node would have been pruned.
        if cfg.budget_exhausted(explored) {
            break Some(open_bound(&node, &heap));
        }
        let inc_obj = progress.objective();
        if inc_obj.is_finite() {
            let denom = inc_obj.abs().max(1e-10);
            if node.bound >= inc_obj - 1e-9
                || (inc_obj - node.bound).abs() / denom <= cfg.gap_tolerance
            {
                continue;
            }
        }
        explored += 1;
        let open = heap.len() + 1;
        if (explored as usize).is_multiple_of(cfg.trace_every) {
            progress.record(open_bound(&node, &heap), open);
        }
        let Some(expansion) = expand_node(model, &mut bounder, &node, inc_obj, cfg, explored)
        else {
            break Some(open_bound(&node, &heap));
        };
        for (values, obj) in expansion.incumbents {
            progress.offer(values, obj, open_bound(&node, &heap), open);
        }
        heap.extend(expansion.children);
    };

    // On a clean finish every node was processed, so the incumbent is
    // optimal; on a stop, the weakest abandoned node bounds the optimum.
    let obj = progress.objective();
    let (status, best_bound, open) = match stopped {
        Some(bound) => (SolveStatus::TimeLimit, bound.min(obj), heap.len() + 1),
        None => (SolveStatus::Optimal, obj, 0),
    };
    progress.record(best_bound, open);
    let Some((values, objective)) = progress.incumbent else {
        return Err(MilpError::Infeasible);
    };
    Ok(Solution {
        values,
        objective,
        status,
        best_bound,
        trace: progress.trace,
        nodes: explored,
        warm_start: warm_used,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch::tests::{
        knapsack_model, ring_cover_model, set_cover_model, weighted_cover_model,
    };
    use crate::metrics::{CoverProblem, HybridBounder, MatchingCoverBounder};
    use flowc_budget::Budget;

    /// `(nodes, objective, best_bound, status)`, or `None` for infeasible.
    type Outcome = Option<(u64, f64, f64, SolveStatus)>;

    fn outcome(result: Result<Solution>) -> Outcome {
        match result {
            Ok(s) => Some((s.nodes, s.objective, s.best_bound, s.status)),
            Err(e) => {
                assert_eq!(e, MilpError::Infeasible);
                None
            }
        }
    }

    fn hybrid_cover(m: &Model) -> HybridBounder<MatchingCoverBounder> {
        let problem = CoverProblem::from_model(m).expect("pairwise cover");
        HybridBounder::new(MatchingCoverBounder::new(problem))
    }

    /// The search expands the nodes of plain single-heap best-first search
    /// in order. These values were recorded from that loop; the search must
    /// reproduce them exactly — node counts, objectives and bounds to the
    /// bit — including after a warm start (the root heuristic still runs)
    /// and when the solver-node ceiling cuts the search short.
    #[test]
    fn search_replays_the_recorded_best_first_outcomes_exactly() {
        use SolveStatus::{Optimal, TimeLimit};
        let solver = BranchBound::new();
        let mut cases: Vec<(String, Outcome, Outcome)> = Vec::new();
        let mut check = |name: String, got: Result<Solution>, want: Outcome| {
            cases.push((name, outcome(got), want));
        };
        for (n, obj) in [(9, 3.0), (14, 5.0), (20, 7.0)] {
            let m = ring_cover_model(n);
            let want = Some((0, obj, obj, Optimal));
            check(format!("ring{n}"), solver.solve(&m), want);
        }
        for (seed, lp_nodes, hybrid_nodes, obj) in [
            (1, 1, 1, 40.0),
            (2, 0, 1, 37.0),
            (3, 3, 4, 42.0),
            (4, 0, 0, 51.0),
            (5, 1, 1, 53.0),
        ] {
            let n = 20 + 4 * seed as usize;
            let m = weighted_cover_model(seed, n, 40 + 10 * seed as usize);
            let lp = Some((lp_nodes, obj, obj, Optimal));
            check(format!("cover{seed}-lp"), solver.solve(&m), lp);
            let hybrid = Some((hybrid_nodes, obj, obj, Optimal));
            let got = solver.solve_with(&m, hybrid_cover(&m));
            check(format!("cover{seed}-hybrid"), got, hybrid);
            // An all-ones warm start is feasible but poor: the root
            // heuristic must still run and replace it.
            let warm = solver.clone().warm_start(vec![1.0; n]);
            let got = warm.solve_with(&m, hybrid_cover(&m));
            check(format!("cover{seed}-hybrid-warm"), got, hybrid);
        }
        // These relaxations have several optimal vertices, and the one the
        // LP returns steers branching: the counts pin the LP's choice.
        for (seed, nodes, obj) in [(1, 5, 14.0), (2, 28, 15.0), (3, 11, 13.0), (4, 4, 13.0)] {
            let m = set_cover_model(seed, 40, 60);
            let want = Some((nodes, obj, obj, Optimal));
            check(format!("setcover{seed}"), solver.solve(&m), want);
        }
        for (seed, items, nodes, obj) in [
            (1, 15, 231, -257.0),
            (2, 20, 497, -386.0),
            (4, 20, 80, -358.0),
            (1, 25, 403, -442.0),
        ] {
            let m = knapsack_model(seed, items);
            let want = Some((nodes, obj, obj, Optimal));
            check(format!("knapsack{seed}-{items}"), solver.solve(&m), want);
        }
        let m = knapsack_model(2, 20);
        let warm = solver.clone().warm_start(vec![0.0; 20]);
        let want = Some((497, -386.0, -386.0, Optimal));
        check("knapsack2-20-warm".into(), warm.solve(&m), want);
        for (ceiling, want) in [
            (10, None),
            (100, Some((100, -386.0, -387.8918918918919, TimeLimit))),
            (300, Some((300, -386.0, -386.7894736842105, TimeLimit))),
        ] {
            let budget = Budget::unlimited().with_max_solver_nodes(ceiling);
            let got = solver.clone().budget(&budget).solve(&m);
            check(format!("knapsack2-20-ceiling{ceiling}"), got, want);
        }
        let diverged: Vec<String> = cases
            .iter()
            .filter(|(_, got, want)| got != want)
            .map(|(name, got, want)| format!("{name}: got {got:?}, want {want:?}"))
            .collect();
        assert!(diverged.is_empty(), "{}", diverged.join("\n"));
    }

    /// Every trace point carries a finite, valid lower bound — including
    /// the points recorded at incumbent improvements — and the bound
    /// column never decreases.
    #[test]
    fn trace_bounds_are_finite_and_valid() {
        let m = knapsack_model(2, 20);
        let sol = BranchBound::new().trace_every(1).solve(&m).unwrap();
        let bounds: Vec<f64> = sol.trace.points().iter().map(|p| p.best_bound).collect();
        assert!(bounds.len() > 100, "{} points", bounds.len());
        for (i, b) in bounds.iter().enumerate() {
            assert!(
                b.is_finite() && *b <= sol.objective + 1e-9,
                "point {i}: bound {b} vs objective {}",
                sol.objective
            );
        }
        for w in bounds.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "bound fell from {} to {}", w[0], w[1]);
        }
    }
}
