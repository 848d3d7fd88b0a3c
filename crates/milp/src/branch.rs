//! Best-first branch & bound over the binary variables of a [`Model`].
//!
//! This module holds the solver's configuration ([`BranchBound`]), the
//! [`Bounder`] contract and the per-node step ([`expand_node`]); the
//! search loop that drives them is in [`crate::search`]. Nodes carry the
//! relaxation point computed when they were *created*, so each node costs
//! exactly one bounder call.
//! Bounders can short-circuit against a cutoff (the incumbent), propose
//! greedy completions for early incumbents, and steer branching — see
//! [`Bounder`].

use std::cmp::Ordering;

use flowc_budget::Budget;

use crate::lp::{LpResult, Simplex};
use crate::model::{Model, Sense, VarKind};
use crate::sol::Solution;
#[cfg(doc)]
use crate::sol::{MilpError, SolveStatus};
use crate::Result;

/// Supplies lower bounds (and optionally heuristic completions) for a node
/// of the branch & bound tree, identified by its partial fixing of the
/// binary variables.
///
/// The default implementation is [`LpBounder`]; domain code can substitute
/// combinatorial bounds where a dense LP is impractical (the VH-labeling
/// bounders in [`crate::metrics`] do exactly this).
pub trait Bounder {
    /// A valid lower bound on the objective over all completions of
    /// `fixed` (entries are `None` for free binaries; continuous variables
    /// are always free). Return `f64::INFINITY` when the node is infeasible.
    ///
    /// `cutoff` is the current incumbent objective (`f64::INFINITY` when no
    /// incumbent exists): any bound `>= cutoff` prunes the node, so a
    /// bounder may stop refining — e.g. skip an LP solve — as soon as a
    /// cheap bound already reaches it. Returning NaN is treated as
    /// `+inf` (prune) by the search, never trusted as a bound.
    fn lower_bound(&mut self, model: &Model, fixed: &[Option<bool>], cutoff: f64) -> f64;

    /// Rounds a valid lower bound **up** to the smallest objective value
    /// the model can actually achieve (its objective lattice). Must never
    /// return less than `bound` and must pass non-finite inputs through
    /// unchanged. The search applies this to every root and child bound,
    /// so a problem-aware bounder (e.g. an objective known to be a mix of
    /// two integers) prunes ties that a fractional relaxation bound alone
    /// cannot. Default: identity.
    fn tighten_bound(&self, bound: f64) -> f64 {
        bound
    }

    /// The fractional point backing the last [`Bounder::lower_bound`] call,
    /// if one exists — used to select branching variables and to round for
    /// incumbents. Length must equal `model.num_vars()`.
    fn relaxation_point(&self) -> Option<&[f64]> {
        None
    }

    /// A heuristic feasible completion of `fixed`, used to seed and improve
    /// incumbents without waiting for the search to reach a leaf. The
    /// returned point must have length `model.num_vars()`; the search
    /// validates feasibility before accepting it, so a best-effort guess is
    /// fine. Default: no suggestion.
    fn suggest_incumbent(&mut self, model: &Model, fixed: &[Option<bool>]) -> Option<Vec<f64>> {
        let _ = (model, fixed);
        None
    }

    /// A preferred branching variable among the free binaries of `fixed`,
    /// consulted before the generic most-fractional rule. Must return the
    /// index of a *free* binary (or `None` to defer). Default: defer.
    fn branch_hint(&self, model: &Model, fixed: &[Option<bool>]) -> Option<usize> {
        let _ = (model, fixed);
        None
    }
}

/// LP-relaxation bounding via the dense bounded-variable dual [`Simplex`],
/// solved from scratch at every node.
#[derive(Debug, Default, Clone)]
pub struct LpBounder {
    simplex: Simplex,
    last_point: Option<Vec<f64>>,
}

impl LpBounder {
    /// Creates an LP bounder.
    pub fn new() -> Self {
        LpBounder::default()
    }

    /// An LP bounder whose solves stop once `budget` is spent; see
    /// [`Simplex::with_budget`].
    pub fn with_budget(budget: Budget) -> Self {
        LpBounder {
            simplex: Simplex::new().with_budget(budget),
            last_point: None,
        }
    }
}

impl Bounder for LpBounder {
    fn lower_bound(&mut self, model: &Model, fixed: &[Option<bool>], _cutoff: f64) -> f64 {
        let fixed_pairs: Vec<(usize, f64)> = fixed
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.map(|b| (i, b as u8 as f64)))
            .collect();
        match self.simplex.solve(model, &fixed_pairs) {
            LpResult::Optimal { x, objective } => {
                // A numerically failed LP can surface NaN; treating it as a
                // bound would corrupt the best-first order, so prune instead.
                if objective.is_nan() || x.iter().any(|v| v.is_nan()) {
                    self.last_point = None;
                    return f64::INFINITY;
                }
                self.last_point = Some(x);
                objective
            }
            LpResult::Infeasible => {
                self.last_point = None;
                f64::INFINITY
            }
            // An interrupted solve proves nothing: no bound (callers
            // that compose bounders keep their other bound).
            LpResult::Unbounded | LpResult::Interrupted => {
                self.last_point = None;
                f64::NEG_INFINITY
            }
        }
    }

    fn relaxation_point(&self) -> Option<&[f64]> {
        self.last_point.as_deref()
    }
}

/// Maps NaN bounds to `+inf` so they prune instead of corrupting the heap.
pub(crate) fn sanitize_bound(bound: f64) -> f64 {
    if bound.is_nan() {
        f64::INFINITY
    } else {
        bound
    }
}

/// An open node: its proven lower bound, the partial fixing, and the
/// relaxation point computed when the bound was (so expansion never has to
/// re-solve the relaxation).
pub(crate) struct Node {
    pub(crate) bound: f64,
    pub(crate) fixed: Vec<Option<bool>>,
    pub(crate) depth: usize,
    pub(crate) point: Option<Vec<f64>>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; we want the smallest bound first.
        // `total_cmp` gives a total order even if a NaN slips through
        // (NaN sorts above +inf, i.e. last), unlike the old
        // `partial_cmp().unwrap_or(Equal)` which silently broke heap
        // invariants on NaN bounds.
        other
            .bound
            .total_cmp(&self.bound)
            .then_with(|| self.depth.cmp(&other.depth))
    }
}

/// Result of expanding one node: children to enqueue plus any integer
/// incumbent candidates discovered along the way.
pub(crate) struct Expansion {
    pub(crate) children: Vec<Node>,
    pub(crate) incumbents: Vec<(Vec<f64>, f64)>,
}

/// Expands `node`: selects a branching variable, bounds both children, and
/// harvests incumbents (leaf completions, integral relaxation points).
/// `inc_obj` is the incumbent objective (`+inf` if none). `cfg`'s budget,
/// with `explored` nodes spent, is checked before each child bound; when it
/// is exhausted the expansion yields `None` (the caller abandons the node).
/// The budget also bounds a leaf's LP completion.
pub(crate) fn expand_node(
    model: &Model,
    bounder: &mut dyn Bounder,
    node: &Node,
    inc_obj: f64,
    cfg: &BranchBound,
    explored: u64,
) -> Option<Expansion> {
    let integrality_tol = cfg.integrality_tol;
    let mut out = Expansion {
        children: Vec::with_capacity(2),
        incumbents: Vec::new(),
    };
    let mut best = inc_obj;
    // If the node's relaxation point is already integral and feasible, it is
    // optimal for this subtree — record and close.
    if let Some(p) = node.point.as_deref() {
        if is_binary_integral(model, p, integrality_tol) && model.is_feasible(p, 1e-6) {
            let obj = model.objective_value(p);
            out.incumbents.push((p.to_vec(), obj));
            return Some(out);
        }
    }
    let branch_var = bounder
        .branch_hint(model, &node.fixed)
        .filter(|&i| node.fixed[i].is_none())
        .or_else(|| select_branch_var(model, &node.fixed, node.point.as_deref(), integrality_tol));
    let Some(branch_var) = branch_var else {
        // All binaries fixed: complete the continuous part and record.
        if let Some((values, obj)) = complete_leaf(model, bounder, &node.fixed, &cfg.budget) {
            out.incumbents.push((values, obj));
        }
        return Some(out);
    };
    for value in [true, false] {
        // Check the budget before each child bound: an expansion runs up to
        // two bounder calls, and waiting for the next pop to notice a
        // cancellation would stretch abort latency to a full expansion.
        if cfg.budget_exhausted(explored) {
            return None;
        }
        let mut child = node.fixed.clone();
        child[branch_var] = Some(value);
        let Some(child) = propagate(model, child) else {
            continue;
        };
        let child_bound = sanitize_bound(bounder.lower_bound(model, &child, best));
        let child_bound = bounder.tighten_bound(child_bound);
        if child_bound.is_infinite() {
            continue;
        }
        if child_bound >= best - 1e-9 {
            continue;
        }
        // Opportunistic incumbent from the child's relaxation.
        let point = bounder.relaxation_point().map(<[f64]>::to_vec);
        if let Some(p) = point.as_deref() {
            if is_binary_integral(model, p, integrality_tol) && model.is_feasible(p, 1e-6) {
                let obj = model.objective_value(p);
                if obj < best - 1e-12 {
                    best = obj;
                }
                out.incumbents.push((p.to_vec(), obj));
            }
        }
        out.children.push(Node {
            bound: child_bound,
            fixed: child,
            depth: node.depth + 1,
            point,
        });
    }
    Some(out)
}

/// Completes a fully-fixed node into a feasible point: first via the
/// bounder's own heuristic, else by solving the continuous remainder by LP
/// under `budget`.
pub(crate) fn complete_leaf(
    model: &Model,
    bounder: &mut dyn Bounder,
    fixed: &[Option<bool>],
    budget: &Budget,
) -> Option<(Vec<f64>, f64)> {
    if let Some(found) = heuristic_incumbent(model, bounder, fixed) {
        return Some(found);
    }
    let fixed_pairs: Vec<(usize, f64)> = fixed
        .iter()
        .enumerate()
        .filter_map(|(i, f)| f.map(|b| (i, b as u8 as f64)))
        .collect();
    let lp = Simplex::new().with_budget(budget.clone());
    if let LpResult::Optimal { x, objective } = lp.solve(model, &fixed_pairs) {
        if !objective.is_nan() && model.is_feasible(&x, 1e-6) {
            return Some((x, objective));
        }
    }
    None
}

/// Asks the bounder for a heuristic completion of `fixed` and validates it.
pub(crate) fn heuristic_incumbent(
    model: &Model,
    bounder: &mut dyn Bounder,
    fixed: &[Option<bool>],
) -> Option<(Vec<f64>, f64)> {
    let values = bounder.suggest_incumbent(model, fixed)?;
    if values.len() != model.num_vars() || !model.is_feasible(&values, 1e-6) {
        return None;
    }
    let obj = model.objective_value(&values);
    if obj.is_nan() {
        return None;
    }
    Some((values, obj))
}

/// Validates a warm-start vector: length, binary integrality, feasibility.
/// Returns its objective when acceptable.
pub(crate) fn validate_warm_start(model: &Model, values: &[f64], tol: f64) -> Option<f64> {
    if values.len() != model.num_vars() {
        return None;
    }
    if !is_binary_integral(model, values, tol) || !model.is_feasible(values, 1e-6) {
        return None;
    }
    let obj = model.objective_value(values);
    if obj.is_nan() {
        return None;
    }
    Some(obj)
}

/// Best-first branch & bound MILP solver. Configure with the builder-style
/// setters, then call [`BranchBound::solve`] (LP bounding) or
/// [`BranchBound::solve_with`] (custom [`Bounder`]).
#[derive(Debug, Clone)]
pub struct BranchBound {
    pub(crate) integrality_tol: f64,
    pub(crate) trace_every: usize,
    pub(crate) budget: Budget,
    pub(crate) warm: Option<Vec<f64>>,
}

impl Default for BranchBound {
    fn default() -> Self {
        BranchBound {
            integrality_tol: 1e-6,
            trace_every: 50,
            budget: Budget::unlimited(),
            warm: None,
        }
    }
}

impl BranchBound {
    /// Creates a solver with an unlimited budget and exact tolerances.
    pub fn new() -> Self {
        BranchBound::default()
    }

    /// Records a trace point every `n` explored nodes (in addition to every
    /// incumbent improvement).
    pub fn trace_every(mut self, n: usize) -> Self {
        self.trace_every = n.max(1);
        self
    }

    /// Bounds the solve by a shared [`Budget`] (default unlimited): the
    /// search loop checks cancellation, the deadline, and the solver-node
    /// ceiling at every node pop and between child bounds, and the LP
    /// solves of [`BranchBound::solve`] check it before every pivot.
    /// Exhaustion ends the solve — the best incumbent is returned with
    /// [`SolveStatus::TimeLimit`] and the proven bound (or
    /// [`MilpError::Infeasible`] when no incumbent exists yet).
    pub fn budget(mut self, budget: &Budget) -> Self {
        self.budget = budget.clone();
        self
    }

    /// Seeds the search with a known feasible point (e.g. the incumbent of
    /// an adjacent γ solve re-costed under this model's objective). The
    /// vector is validated — length, binary integrality, feasibility —
    /// before use; an invalid warm start is ignored, and
    /// [`Solution::warm_start`] reports whether it was accepted.
    pub fn warm_start(mut self, values: Vec<f64>) -> Self {
        self.warm = Some(values);
        self
    }

    /// Solves `model` with LP-relaxation bounding under the solver's
    /// budget.
    ///
    /// # Errors
    ///
    /// [`MilpError::Infeasible`] when no integer point exists (or none was
    /// found before the budget ran out), [`MilpError::Unbounded`] when the
    /// relaxation has no finite optimum.
    pub fn solve(&self, model: &Model) -> Result<Solution> {
        self.solve_with(model, LpBounder::with_budget(self.budget.clone()))
    }

    /// Solves `model` with `bounder` bounding every node, on the calling
    /// thread.
    ///
    /// # Errors
    ///
    /// See [`BranchBound::solve`].
    pub fn solve_with<B: Bounder>(&self, model: &Model, bounder: B) -> Result<Solution> {
        crate::search::solve(self, model, bounder)
    }

    pub(crate) fn budget_exhausted(&self, explored: u64) -> bool {
        self.budget.check_solver_nodes(explored).is_err()
    }
}

pub(crate) fn is_binary_integral(model: &Model, x: &[f64], tol: f64) -> bool {
    model.binaries().all(|v| {
        x[v.index()].fract().min(1.0 - x[v.index()].fract()).abs() <= tol
            || (x[v.index()] - x[v.index()].round()).abs() <= tol
    })
}

pub(crate) fn select_branch_var(
    model: &Model,
    fixed: &[Option<bool>],
    point: Option<&[f64]>,
    tol: f64,
) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for v in model.binaries() {
        let i = v.index();
        if fixed[i].is_some() {
            continue;
        }
        let frac = match point {
            Some(p) => {
                let f = p[i] - p[i].floor();
                f.min(1.0 - f)
            }
            None => 0.5,
        };
        if point.is_some() && frac <= tol {
            // Integral in the relaxation: deprioritize but keep as fallback.
            if best.is_none() {
                best = Some((i, -1.0));
            }
            continue;
        }
        match best {
            Some((_, bf)) if bf >= frac => {}
            _ => best = Some((i, frac)),
        }
    }
    best.map(|(i, _)| i)
}

/// Activity-based constraint propagation: repeatedly fixes binaries forced
/// by min/max-activity arguments. Returns `None` on detected infeasibility.
pub(crate) fn propagate(model: &Model, mut fixed: Vec<Option<bool>>) -> Option<Vec<Option<bool>>> {
    // Bounds per variable under the current fixing.
    let bounds = |fixed: &[Option<bool>], i: usize| -> (f64, f64) {
        match model.var_kind(crate::VarId(i as u32)) {
            VarKind::Binary => match fixed[i] {
                Some(true) => (1.0, 1.0),
                Some(false) => (0.0, 0.0),
                None => (0.0, 1.0),
            },
            VarKind::Continuous { lb, ub } => (lb, ub),
        }
    };
    loop {
        let mut changed = false;
        for c in &model.cons {
            // Min/max activity.
            let mut min_act = 0.0;
            let mut max_act = 0.0;
            for &(v, a) in &c.terms {
                let (lo, hi) = bounds(&fixed, v.index());
                if a >= 0.0 {
                    min_act += a * lo;
                    max_act += a * hi;
                } else {
                    min_act += a * hi;
                    max_act += a * lo;
                }
            }
            let tol = 1e-9;
            match c.sense {
                Sense::Le => {
                    if min_act > c.rhs + tol {
                        return None;
                    }
                }
                Sense::Ge => {
                    if max_act < c.rhs - tol {
                        return None;
                    }
                }
                Sense::Eq => {
                    if min_act > c.rhs + tol || max_act < c.rhs - tol {
                        return None;
                    }
                }
            }
            // Unit propagation on free binaries.
            for &(v, a) in &c.terms {
                let i = v.index();
                if !matches!(model.var_kind(v), VarKind::Binary) || fixed[i].is_some() {
                    continue;
                }
                if a.abs() < tol {
                    continue;
                }
                // Test both settings against the activity window.
                let feas = |val: f64, sense: Sense| -> bool {
                    // Activity excluding i, then add a*val.
                    let (lo_i, hi_i) = (0.0, 1.0);
                    let (min_wo, max_wo) = if a >= 0.0 {
                        (min_act - a * lo_i, max_act - a * hi_i)
                    } else {
                        (min_act - a * hi_i, max_act - a * lo_i)
                    };
                    let min_w = min_wo + a * val;
                    let max_w = max_wo + a * val;
                    match sense {
                        Sense::Le => min_w <= c.rhs + tol,
                        Sense::Ge => max_w >= c.rhs - tol,
                        Sense::Eq => min_w <= c.rhs + tol && max_w >= c.rhs - tol,
                    }
                };
                let can0 = feas(0.0, c.sense);
                let can1 = feas(1.0, c.sense);
                match (can0, can1) {
                    (false, false) => return None,
                    (true, false) => {
                        fixed[i] = Some(false);
                        changed = true;
                    }
                    (false, true) => {
                        fixed[i] = Some(true);
                        changed = true;
                    }
                    (true, true) => {}
                }
            }
        }
        if !changed {
            return Some(fixed);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::model::{Model, Sense};
    use crate::sol::{MilpError, SolveStatus};
    use std::collections::BinaryHeap;
    use std::time::{Duration, Instant};

    #[test]
    fn knapsack_optimum() {
        // max 10a + 6b + 4c s.t. a+b+c <= 2, 5a+4b+3c <= 10 => a,b (16).
        let mut m = Model::new();
        let a = m.add_binary("a", -10.0);
        let b = m.add_binary("b", -6.0);
        let c = m.add_binary("c", -4.0);
        m.add_constraint(&[(a, 1.0), (b, 1.0), (c, 1.0)], Sense::Le, 2.0);
        m.add_constraint(&[(a, 5.0), (b, 4.0), (c, 3.0)], Sense::Le, 10.0);
        let sol = BranchBound::new().solve(&m).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective + 16.0).abs() < 1e-6);
        assert!((sol.relative_gap()).abs() < 1e-6);
    }

    #[test]
    fn vertex_cover_on_odd_cycle() {
        // Min VC of C5 = 3; LP relaxation gives 2.5, so branching is forced.
        let mut m = Model::new();
        let xs: Vec<_> = (0..5).map(|i| m.add_binary(format!("x{i}"), 1.0)).collect();
        for i in 0..5 {
            m.add_constraint(&[(xs[i], 1.0), (xs[(i + 1) % 5], 1.0)], Sense::Ge, 1.0);
        }
        let sol = BranchBound::new().solve(&m).unwrap();
        assert_eq!(sol.objective.round() as i64, 3);
        assert_eq!(sol.status, SolveStatus::Optimal);
    }

    #[test]
    fn mixed_integer_with_continuous() {
        // min -y s.t. y <= 2a + 3b, a + b <= 1, y <= 2.5 -> b=1, y=2.5.
        let mut m = Model::new();
        let a = m.add_binary("a", 0.0);
        let b = m.add_binary("b", 0.0);
        let y = m.add_continuous("y", 0.0, 2.5, -1.0);
        m.add_constraint(&[(y, 1.0), (a, -2.0), (b, -3.0)], Sense::Le, 0.0);
        m.add_constraint(&[(a, 1.0), (b, 1.0)], Sense::Le, 1.0);
        let sol = BranchBound::new().solve(&m).unwrap();
        assert!((sol.objective + 2.5).abs() < 1e-6, "got {}", sol.objective);
        assert_eq!(sol.values[b.index()].round() as i64, 1);
    }

    #[test]
    fn infeasible_model_errors() {
        let mut m = Model::new();
        let a = m.add_binary("a", 1.0);
        m.add_constraint(&[(a, 1.0)], Sense::Ge, 2.0);
        assert_eq!(
            BranchBound::new().solve(&m).unwrap_err(),
            MilpError::Infeasible
        );
    }

    #[test]
    fn equality_constraints_respected() {
        // exactly two of four chosen, min cost.
        let mut m = Model::new();
        let costs = [5.0, 1.0, 3.0, 2.0];
        let xs: Vec<_> = costs
            .iter()
            .enumerate()
            .map(|(i, &c)| m.add_binary(format!("x{i}"), c))
            .collect();
        let terms: Vec<_> = xs.iter().map(|&x| (x, 1.0)).collect();
        m.add_constraint(&terms, Sense::Eq, 2.0);
        let sol = BranchBound::new().solve(&m).unwrap();
        assert!((sol.objective - 3.0).abs() < 1e-6);
        assert_eq!(sol.values[xs[1].index()].round() as i64, 1);
        assert_eq!(sol.values[xs[3].index()].round() as i64, 1);
    }

    #[test]
    fn expired_deadline_returns_incumbent_and_gap() {
        // A larger set-partitioning-flavoured instance; with an expired
        // deadline any answer is the root heuristic incumbent with a gap.
        let mut m = Model::new();
        let n = 14;
        let xs: Vec<_> = (0..n)
            .map(|i| m.add_binary(format!("x{i}"), 1.0 + (i % 3) as f64))
            .collect();
        for i in 0..n {
            m.add_constraint(
                &[(xs[i], 1.0), (xs[(i + 1) % n], 1.0), (xs[(i + 2) % n], 1.0)],
                Sense::Ge,
                1.0,
            );
        }
        let sol = BranchBound::new()
            .budget(&Budget::unlimited().with_deadline(Duration::ZERO))
            .solve(&m);
        if let Ok(sol) = sol {
            assert!(sol.relative_gap() <= 1.0);
            assert!(!sol.trace.points().is_empty());
        }
    }

    pub(crate) fn ring_cover_model(n: usize) -> Model {
        let mut m = Model::new();
        let xs: Vec<_> = (0..n)
            .map(|i| m.add_binary(format!("x{i}"), 1.0 + (i % 3) as f64))
            .collect();
        for i in 0..n {
            m.add_constraint(
                &[(xs[i], 1.0), (xs[(i + 1) % n], 1.0), (xs[(i + 2) % n], 1.0)],
                Sense::Ge,
                1.0,
            );
        }
        m
    }

    #[test]
    fn cancelled_budget_stops_the_search_with_incumbent() {
        let m = ring_cover_model(14);
        let budget = Budget::unlimited();
        budget.cancel_handle().cancel();
        match BranchBound::new().budget(&budget).solve(&m) {
            Ok(sol) => assert_eq!(sol.status, SolveStatus::TimeLimit),
            Err(e) => assert_eq!(e, MilpError::Infeasible),
        }
    }

    pub(crate) fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// A seeded pairwise vertex cover with costs in 1..=5.
    pub(crate) fn weighted_cover_model(seed: u64, n: usize, edges: usize) -> Model {
        let mut state = seed;
        let mut m = Model::new();
        let xs: Vec<_> = (0..n)
            .map(|i| m.add_binary(format!("x{i}"), (xorshift(&mut state) % 5 + 1) as f64))
            .collect();
        for _ in 0..edges {
            let u = (xorshift(&mut state) % n as u64) as usize;
            let v = (xorshift(&mut state) % n as u64) as usize;
            if u != v {
                m.add_constraint(&[(xs[u], 1.0), (xs[v], 1.0)], Sense::Ge, 1.0);
            }
        }
        m
    }

    /// A seeded unit-cost cover whose rows each hold three variables:
    /// ties everywhere, so the pop order among equal bounds matters.
    pub(crate) fn set_cover_model(seed: u64, n: usize, rows: usize) -> Model {
        let mut state = seed;
        let mut m = Model::new();
        let xs: Vec<_> = (0..n).map(|i| m.add_binary(format!("x{i}"), 1.0)).collect();
        for _ in 0..rows {
            let terms: Vec<_> = (0..3)
                .map(|_| (xs[(xorshift(&mut state) % n as u64) as usize], 1.0))
                .collect();
            m.add_constraint(&terms, Sense::Ge, 1.0);
        }
        m
    }

    /// A seeded strongly correlated knapsack (value = weight + 10, capacity
    /// half the total weight), negated for minimization: hundreds of nodes.
    pub(crate) fn knapsack_model(seed: u64, items: usize) -> Model {
        let mut state = seed;
        let mut m = Model::new();
        let mut terms = Vec::with_capacity(items);
        let mut total = 0u64;
        for i in 0..items {
            let weight = xorshift(&mut state) % 30 + 10;
            total += weight;
            let x = m.add_binary(format!("x{i}"), -((weight + 10) as f64));
            terms.push((x, weight as f64));
        }
        m.add_constraint(&terms, Sense::Le, (total / 2) as f64);
        m
    }

    /// A market-split instance: a few dense equality knapsacks over many
    /// binaries. The LP bound is uselessly weak here, so branch & bound
    /// grinds through an enormous tree — exactly what a mid-flight cancel
    /// needs to land in.
    pub(crate) fn market_split_model(vars: usize, rows: usize) -> Model {
        let mut m = Model::new();
        let xs: Vec<_> = (0..vars)
            .map(|j| m.add_binary(format!("x{j}"), 1.0))
            .collect();
        let mut state = 0x2545F4914F6CDD1Du64;
        for _ in 0..rows {
            let mut terms = Vec::with_capacity(vars);
            let mut total = 0i64;
            for &x in &xs {
                let c = (xorshift(&mut state) % 97 + 1) as i64;
                total += c;
                terms.push((x, c as f64));
            }
            m.add_constraint(&terms, Sense::Eq, (total / 2) as f64);
        }
        m
    }

    #[test]
    fn cancellation_mid_solve_returns_promptly() {
        // The search tree on this instance is nowhere near exhausted when
        // the cancel fires, so the search must notice the token between
        // LP bound calls — not only at node pops — for the abort to land
        // within a couple of LP solves. The 2s ceiling is a wide CI-proof
        // margin over the observed latency; the 30s deadline is a
        // backstop so a cancellation regression fails the test instead of
        // hanging it.
        let m = market_split_model(40, 4);
        let budget = Budget::unlimited().with_deadline(Duration::from_secs(30));
        let handle = budget.cancel_handle();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            handle.cancel();
        });
        let start = Instant::now();
        let result = BranchBound::new().budget(&budget).solve(&m);
        let elapsed = start.elapsed();
        canceller.join().unwrap();
        match result {
            Ok(sol) => assert_eq!(sol.status, SolveStatus::TimeLimit),
            Err(e) => assert_eq!(e, MilpError::Infeasible),
        }
        assert!(
            elapsed < Duration::from_secs(2),
            "cancelled solve took {elapsed:?}"
        );
    }

    #[test]
    fn solver_node_ceiling_stops_early() {
        let m = ring_cover_model(14);
        // A zero ceiling trips before the first node is explored, so the
        // solve must stop with whatever the root heuristic produced.
        let budget = Budget::unlimited().with_max_solver_nodes(0);
        match BranchBound::new().budget(&budget).solve(&m) {
            Ok(sol) => assert_eq!(sol.status, SolveStatus::TimeLimit),
            Err(e) => assert_eq!(e, MilpError::Infeasible),
        }
        // A generous ceiling changes nothing.
        let budget = Budget::unlimited().with_max_solver_nodes(10_000_000);
        let sol = BranchBound::new().budget(&budget).solve(&m).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
    }

    #[test]
    fn propagation_fixes_forced_binaries() {
        let mut m = Model::new();
        let a = m.add_binary("a", 1.0);
        let b = m.add_binary("b", 1.0);
        // a + b >= 2 forces both to 1.
        m.add_constraint(&[(a, 1.0), (b, 1.0)], Sense::Ge, 2.0);
        let fixed = propagate(&m, vec![None, None]).unwrap();
        assert_eq!(fixed, vec![Some(true), Some(true)]);
        // a + b <= 0 forces both to 0.
        let mut m2 = Model::new();
        let a2 = m2.add_binary("a", 1.0);
        let b2 = m2.add_binary("b", 1.0);
        m2.add_constraint(&[(a2, 1.0), (b2, 1.0)], Sense::Le, 0.0);
        let fixed = propagate(&m2, vec![None, None]).unwrap();
        assert_eq!(fixed, vec![Some(false), Some(false)]);
    }

    #[test]
    fn propagation_detects_conflict() {
        let mut m = Model::new();
        let a = m.add_binary("a", 1.0);
        m.add_constraint(&[(a, 1.0)], Sense::Ge, 1.0);
        m.add_constraint(&[(a, 1.0)], Sense::Le, 0.0);
        assert!(propagate(&m, vec![None]).is_none());
    }

    #[test]
    fn custom_bounder_drives_the_search() {
        // A combinatorial bounder for min Σxᵢ s.t. pairwise covers — count
        // half the uncovered constraints as the bound, no LP involved.
        struct CoverBounder {
            pairs: Vec<(usize, usize)>,
        }
        impl Bounder for CoverBounder {
            fn lower_bound(&mut self, _model: &Model, fixed: &[Option<bool>], _cutoff: f64) -> f64 {
                // Each uncovered pair needs at least one endpoint; a vertex
                // can serve many pairs, so matching-style pairing is needed
                // for tightness — here the trivial chosen-count bound plus
                // a greedy disjoint-pair count suffices.
                if self
                    .pairs
                    .iter()
                    .any(|&(u, v)| fixed[u] == Some(false) && fixed[v] == Some(false))
                {
                    return f64::INFINITY; // constraint unsatisfiable
                }
                let chosen = fixed.iter().filter(|f| **f == Some(true)).count() as f64;
                let mut used = vec![false; fixed.len()];
                let mut extra = 0.0;
                for &(u, v) in &self.pairs {
                    let free = |i: usize| fixed[i].is_none() && !used[i];
                    if fixed[u] != Some(true) && fixed[v] != Some(true) && free(u) && free(v) {
                        used[u] = true;
                        used[v] = true;
                        extra += 1.0;
                    }
                }
                chosen + extra
            }
        }
        // C5 vertex cover again: optimum 3.
        let mut m = Model::new();
        let xs: Vec<_> = (0..5).map(|i| m.add_binary(format!("x{i}"), 1.0)).collect();
        let pairs: Vec<(usize, usize)> = (0..5).map(|i| (i, (i + 1) % 5)).collect();
        for &(u, v) in &pairs {
            m.add_constraint(&[(xs[u], 1.0), (xs[v], 1.0)], Sense::Ge, 1.0);
        }
        let sol = BranchBound::new()
            .solve_with(&m, CoverBounder { pairs })
            .unwrap();
        assert_eq!(sol.objective.round() as i64, 3);
        assert_eq!(sol.status, SolveStatus::Optimal);
    }

    #[test]
    fn trace_records_convergence() {
        let mut m = Model::new();
        let xs: Vec<_> = (0..8).map(|i| m.add_binary(format!("x{i}"), 1.0)).collect();
        for i in 0..8 {
            m.add_constraint(&[(xs[i], 1.0), (xs[(i + 1) % 8], 1.0)], Sense::Ge, 1.0);
        }
        let sol = BranchBound::new().trace_every(1).solve(&m).unwrap();
        assert!(!sol.trace.points().is_empty());
        assert!(sol.trace.final_gap() < 1e-6);
        // Gap is monotone non-increasing at the final point vs the first.
        let first = sol.trace.points().first().unwrap().relative_gap();
        assert!(sol.trace.final_gap() <= first + 1e-9);
    }

    /// Regression for the NaN heap-order bug: a bounder that reports NaN for
    /// some nodes must have those nodes pruned (NaN ⇒ `+inf`), not silently
    /// compared `Equal` — the solve still terminates with the true optimum
    /// reachable through non-NaN nodes, or proves infeasibility cleanly.
    #[test]
    fn nan_bounds_are_pruned_not_trusted() {
        struct NanBounder {
            inner: LpBounder,
            calls: usize,
        }
        impl Bounder for NanBounder {
            fn lower_bound(&mut self, model: &Model, fixed: &[Option<bool>], cutoff: f64) -> f64 {
                self.calls += 1;
                // Poison every third bound with NaN; the search must treat
                // it as prunable, so the optimum is still found through the
                // remaining nodes of this small complete search space.
                if self.calls.is_multiple_of(3) {
                    return f64::NAN;
                }
                self.inner.lower_bound(model, fixed, cutoff)
            }
            fn relaxation_point(&self) -> Option<&[f64]> {
                self.inner.relaxation_point()
            }
        }
        let mut m = Model::new();
        let xs: Vec<_> = (0..6).map(|i| m.add_binary(format!("x{i}"), 1.0)).collect();
        for i in 0..6 {
            m.add_constraint(&[(xs[i], 1.0), (xs[(i + 1) % 6], 1.0)], Sense::Ge, 1.0);
        }
        // NaN-pruning may cut the true optimum's subtree, but the solve must
        // terminate with a feasible answer and an internally consistent
        // bound — never corrupt the heap or loop forever.
        let sol = BranchBound::new()
            .solve_with(
                &m,
                NanBounder {
                    inner: LpBounder::new(),
                    calls: 0,
                },
            )
            .unwrap();
        assert!(model_feasible(&m, &sol.values));
        assert!(!sol.objective.is_nan());
        assert!(!sol.best_bound.is_nan());
    }

    fn model_feasible(m: &Model, x: &[f64]) -> bool {
        m.is_feasible(x, 1e-6)
    }

    #[test]
    fn node_ordering_is_nan_safe() {
        // total_cmp puts a NaN bound *after* +inf in the pop order, so even
        // a NaN that slips through sanitize cannot shadow real nodes.
        let mk = |bound: f64| Node {
            bound,
            fixed: vec![],
            depth: 0,
            point: None,
        };
        let mut heap = BinaryHeap::new();
        heap.push(mk(f64::NAN));
        heap.push(mk(2.0));
        heap.push(mk(1.0));
        assert_eq!(heap.pop().unwrap().bound, 1.0);
        assert_eq!(heap.pop().unwrap().bound, 2.0);
        assert!(heap.pop().unwrap().bound.is_nan());
        assert_eq!(sanitize_bound(f64::NAN), f64::INFINITY);
        assert_eq!(sanitize_bound(3.5), 3.5);
    }

    #[test]
    fn warm_start_seeds_the_incumbent() {
        // C5 vertex cover: warm start with the known optimum {0, 2, 4}.
        let mut m = Model::new();
        let xs: Vec<_> = (0..5).map(|i| m.add_binary(format!("x{i}"), 1.0)).collect();
        for i in 0..5 {
            m.add_constraint(&[(xs[i], 1.0), (xs[(i + 1) % 5], 1.0)], Sense::Ge, 1.0);
        }
        let solver = BranchBound::new();
        let warm = vec![1.0, 0.0, 1.0, 0.0, 1.0];
        let sol = solver.clone().warm_start(warm).solve(&m).unwrap();
        assert_eq!(sol.objective.round() as i64, 3);
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert_eq!(sol.warm_start, Some(true));

        // An infeasible warm start is rejected, not trusted.
        let bad = vec![0.0; 5];
        let sol = solver.clone().warm_start(bad).solve(&m).unwrap();
        assert_eq!(sol.objective.round() as i64, 3);
        assert_eq!(sol.warm_start, Some(false));

        // No warm start ⇒ `None`.
        let sol = solver.solve(&m).unwrap();
        assert_eq!(sol.warm_start, None);
    }

    #[test]
    fn solution_reports_explored_nodes() {
        // C5 vertex cover: the LP root bound (2.5) cannot close against the
        // integer optimum (3), so at least one node must be expanded.
        let mut m = Model::new();
        let xs: Vec<_> = (0..5).map(|i| m.add_binary(format!("x{i}"), 1.0)).collect();
        for i in 0..5 {
            m.add_constraint(&[(xs[i], 1.0), (xs[(i + 1) % 5], 1.0)], Sense::Ge, 1.0);
        }
        let sol = BranchBound::new().solve(&m).unwrap();
        assert!(
            sol.nodes >= 1,
            "expected at least one explored node, got {}",
            sol.nodes
        );
    }
}
