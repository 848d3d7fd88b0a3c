//! Weighted-objective VH-labeling (Section VI-B): minimize
//! `γ·S + (1−γ)·D` over the labeling. [`solve`] runs the paper's Method B
//! along one of two paths that share the MIP *formulation* of Eq. 4:
//!
//! - **Exact**: on small graphs the model is handed to the [`flowc_milp`]
//!   branch & bound with LP bounding. This path proves optimality but the
//!   dense LP limits it to small graphs (the paper's CPLEX runs hit the
//!   same wall at larger sizes — three hours without closing the gap,
//!   Figure 11).
//! - **Anytime**: on larger graphs, or when the search found no incumbent,
//!   a staged optimizer seeded by the Section VI-A transversal: greedy OCT
//!   incumbent → exact (or budget-limited) OCT with its lower bound →
//!   `VH`-addition hill climbing that trades semiperimeter for maximum
//!   dimension (the paper's Figure 7 case). The climb scores each
//!   candidate with a [`MoveScorer`] in O(deg v) plus a bitset pass, with
//!   exactly the statistics a full re-labeling would give, and re-labels
//!   the graph (O(n + e)) only for an accepted move. Every stage is
//!   recorded in a [`SolveTrace`], reproducing the incumbent/bound/gap
//!   trajectories of Figures 10 and 11.

use std::collections::HashSet;
use std::time::Instant;

use flowc_budget::Budget;
use flowc_graph::{oct_heuristic, odd_cycle_transversal, OctResult};
use flowc_milp::metrics::{HybridBounder, VhBounder, VhLayout};
use flowc_milp::{BranchBound, Model, Sense, SolveStatus, SolveTrace, TracePoint, VarId};

use crate::balance::{balanced_labeling, MoveScorer};
use crate::labeling::{Labeling, VhLabel};
use crate::preprocess::BddGraph;

/// Configuration for the weighted solver.
#[derive(Debug, Clone)]
pub struct MipConfig {
    /// The trade-off weight γ of Eq. 1 (1 = semiperimeter only,
    /// 0 = maximum dimension only).
    pub gamma: f64,
    /// Enforce the Eq. 7 alignment constraints.
    pub align: bool,
}

impl Default for MipConfig {
    fn default() -> Self {
        MipConfig {
            gamma: 0.5,
            align: true,
        }
    }
}

/// Variable handles of the Eq. 4 model.
#[derive(Debug, Clone)]
pub struct MipVars {
    /// `x_i^V`: node `i` is mapped to a bitline.
    pub xv: Vec<VarId>,
    /// `x_i^H`: node `i` is mapped to a wordline.
    pub xh: Vec<VarId>,
    /// Orientation helper per graph edge (model order = edge order).
    pub orient: Vec<VarId>,
    /// The continuous `D = max(R, C)` variable.
    pub d: VarId,
}

/// Outcome of the weighted solve.
#[derive(Debug, Clone)]
pub struct MipOutcome {
    /// The best labeling found (valid; aligned when requested).
    pub labeling: Labeling,
    /// Whether the labeling was proven optimal for the weighted objective.
    pub optimal: bool,
    /// Objective value of the labeling.
    pub objective: f64,
    /// Best proven lower bound on the optimum.
    pub best_bound: f64,
    /// CPLEX-style relative gap at termination.
    pub relative_gap: f64,
    /// Incumbent/bound/gap trajectory (Figures 10/11).
    pub trace: SolveTrace,
    /// Branch & bound nodes explored (on the anytime path, the OCT
    /// search's; 0 when a cached OCT was reused).
    pub nodes: u64,
    /// Warm-start outcome: `None` when no warm start was offered,
    /// `Some(accepted)` otherwise.
    pub warm_start: Option<bool>,
}

/// Builds the Eq. 4 MIP: indicator variables per node, helper orientation
/// variables per edge, aggregate `R`, `C`, `D` with `D ≥ R`, `D ≥ C`, and
/// the per-edge disjunctive connection constraints. The Eq. 7 alignment
/// constraints are added when `align` is set.
pub fn build_model(graph: &BddGraph, gamma: f64, align: bool) -> (Model, MipVars) {
    let n = graph.num_nodes();
    let mut m = Model::new();
    // Objective: γ·S + (1−γ)·D with S = Σ(x_i^V + x_i^H).
    let xv: Vec<VarId> = (0..n)
        .map(|i| m.add_binary(format!("xv{i}"), gamma))
        .collect();
    let xh: Vec<VarId> = (0..n)
        .map(|i| m.add_binary(format!("xh{i}"), gamma))
        .collect();
    let d = m.add_continuous("D", 0.0, f64::INFINITY, 1.0 - gamma);
    // D >= R = Σ x_i^H  and  D >= C = Σ x_i^V.
    let mut r_terms: Vec<(VarId, f64)> = xh.iter().map(|&v| (v, -1.0)).collect();
    r_terms.push((d, 1.0));
    m.add_constraint(&r_terms, Sense::Ge, 0.0);
    let mut c_terms: Vec<(VarId, f64)> = xv.iter().map(|&v| (v, -1.0)).collect();
    c_terms.push((d, 1.0));
    m.add_constraint(&c_terms, Sense::Ge, 0.0);
    // Every node is mapped to at least one wire.
    for i in 0..n {
        m.add_constraint(&[(xv[i], 1.0), (xh[i], 1.0)], Sense::Ge, 1.0);
    }
    // Connection constraints with an orientation helper per edge:
    //   x_i^V + x_j^H >= 2 − 2·x_ij   and   x_i^H + x_j^V >= 2·x_ij.
    let mut orient = Vec::with_capacity(graph.num_edges());
    for (e, &(i, j)) in graph.graph.edges().iter().enumerate() {
        let o = m.add_binary(format!("e{e}"), 0.0);
        m.add_constraint(&[(xv[i], 1.0), (xh[j], 1.0), (o, 2.0)], Sense::Ge, 2.0);
        m.add_constraint(&[(xh[i], 1.0), (xv[j], 1.0), (o, -2.0)], Sense::Ge, 0.0);
        // Orientation-free cover rows: whichever way the edge is oriented,
        // one endpoint is a bitline and the other a wordline, so the V-set
        // and the H-set are each vertex covers. The pair of big-M rows
        // above is vacuous in the LP until `o` is fixed (summing them
        // eliminates `o` into a row the coverage constraints imply); these
        // rows carry the edge structure into the relaxation — on the
        // König-integral (bipartite-ish) parts of a BDD graph they pull
        // the root bound up to the integer optimum — and give activity
        // propagation a cascade: fixing `xh_i = 0` forces `xh_j = 1`.
        m.add_constraint(&[(xv[i], 1.0), (xv[j], 1.0)], Sense::Ge, 1.0);
        m.add_constraint(&[(xh[i], 1.0), (xh[j], 1.0)], Sense::Ge, 1.0);
        orient.push(o);
    }
    // Odd-cycle cover cuts: every edge is V→H oriented, so the H-set and
    // the V-set are each vertex covers of the graph. A triangle needs at
    // least two members in any vertex cover, so Σ xh ≥ 2 and Σ xv ≥ 2 over
    // each triangle — valid rows that cut off the LP's half-integral
    // covers and close the relaxation's unit gap at the sweep extremes.
    {
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(i, j) in graph.graph.edges() {
            if i != j && !adj[i].contains(&j) {
                adj[i].push(j);
                adj[j].push(i);
            }
        }
        for nbrs in &mut adj {
            nbrs.sort_unstable();
        }
        for &(i, j) in graph.graph.edges() {
            let (a, b) = if i < j { (i, j) } else { (j, i) };
            for &k in &adj[a] {
                if k > b && adj[b].binary_search(&k).is_ok() {
                    m.add_constraint(&[(xh[a], 1.0), (xh[b], 1.0), (xh[k], 1.0)], Sense::Ge, 2.0);
                    m.add_constraint(&[(xv[a], 1.0), (xv[b], 1.0), (xv[k], 1.0)], Sense::Ge, 2.0);
                }
            }
        }
    }
    // Alignment (Eq. 7): roots and terminal provide wordlines.
    if align {
        let mut targets: Vec<usize> = graph.roots.iter().flatten().copied().collect();
        if let Some(t) = graph.terminal {
            targets.push(t);
        }
        targets.sort_unstable();
        targets.dedup();
        for v in targets {
            m.add_constraint(&[(xh[v], 1.0)], Sense::Ge, 1.0);
        }
    }
    (m, MipVars { xv, xh, orient, d })
}

/// Describes the Eq. 4 model to the VH-specialized combinatorial bounder
/// of `flowc-milp` (column indices of every structural variable).
fn vh_layout(graph: &BddGraph, vars: &MipVars, gamma: f64) -> VhLayout {
    VhLayout {
        n: graph.num_nodes(),
        xv: vars.xv.iter().map(|v| v.index()).collect(),
        xh: vars.xh.iter().map(|v| v.index()).collect(),
        edges: graph
            .graph
            .edges()
            .iter()
            .zip(&vars.orient)
            .map(|(&(i, j), o)| (i, j, o.index()))
            .collect(),
        d_var: vars.d.index(),
        gamma,
    }
}

/// Encodes a known-valid labeling as a full assignment of the Eq. 4 model,
/// for use as a branch & bound warm start. Orientation helpers are set to
/// whichever disjunct the labeling satisfies, and `D = max(R, C)`.
pub fn warm_start_values(
    graph: &BddGraph,
    vars: &MipVars,
    num_vars: usize,
    labeling: &Labeling,
) -> Vec<f64> {
    let mut values = vec![0.0; num_vars];
    let mut rows = 0usize;
    let mut cols = 0usize;
    let has_v = |v: usize| matches!(labeling.label(v), VhLabel::V | VhLabel::Vh);
    let has_h = |v: usize| matches!(labeling.label(v), VhLabel::H | VhLabel::Vh);
    for v in 0..graph.num_nodes() {
        if has_v(v) {
            values[vars.xv[v].index()] = 1.0;
            cols += 1;
        }
        if has_h(v) {
            values[vars.xh[v].index()] = 1.0;
            rows += 1;
        }
    }
    for (&(i, j), o) in graph.graph.edges().iter().zip(&vars.orient) {
        // o = 0 requires xv_i ∧ xh_j; o = 1 requires xh_i ∧ xv_j.
        values[o.index()] = if has_v(i) && has_h(j) { 0.0 } else { 1.0 };
    }
    values[vars.d.index()] = rows.max(cols) as f64;
    values
}

/// Decodes a MIP solution into a labeling.
fn labeling_from_solution(vars: &MipVars, values: &[f64]) -> Labeling {
    let labels = vars
        .xv
        .iter()
        .zip(&vars.xh)
        .map(|(&v, &h)| {
            let has_v = values[v.index()] > 0.5;
            let has_h = values[h.index()] > 0.5;
            match (has_v, has_h) {
                (true, true) => VhLabel::Vh,
                (true, false) => VhLabel::V,
                (false, true) => VhLabel::H,
                (false, false) => VhLabel::Vh, // defensive; excluded by the model
            }
        })
        .collect();
    Labeling::new(labels)
}

/// `VH`-addition hill climbing (the paper's Figure 7 move): repeatedly try
/// upgrading a node to `VH`, re-balance, and keep the move when the weighted
/// objective improves. Candidates are tried highest degree first; a
/// [`MoveScorer`] gives each the exact statistics a full
/// [`balanced_labeling`] of the move would have, in O(deg v) plus a bitset
/// pass, so the graph is re-labeled, and the scorer rebuilt in O(n + e),
/// only once per accepted move. `budget` (deadline and cancellation) is
/// checked per candidate move; `on_improve` sees every accepted move (used
/// to record solver convergence traces).
/// Returns the improved labeling and the number of accepted moves. Tests
/// arm the `compact.hill_climb` failpoint at entry to prove a call was
/// skipped.
pub fn hill_climb(
    graph: &BddGraph,
    start: &Labeling,
    gamma: f64,
    align: bool,
    budget: &Budget,
    mut on_improve: impl FnMut(&Labeling),
) -> (Labeling, usize) {
    flowc_failpoint::fire("compact.hill_climb");
    let n = graph.num_nodes();
    let mut vh: HashSet<usize> = (0..n)
        .filter(|&v| matches!(start.label(v), VhLabel::Vh))
        .collect();
    let mut best = start.clone();
    let mut best_obj = best.stats().objective(gamma);
    let mut accepted = 0usize;
    if gamma >= 1.0 {
        return (best, 0); // adding VH nodes can only hurt S
    }
    let mut scorer = MoveScorer::new(graph, &vh, align);
    loop {
        let mut improved = false;
        // Candidates: non-VH nodes, highest degree first (they reconnect the
        // most components when removed).
        let mut candidates: Vec<usize> = (0..n).filter(|v| !vh.contains(v)).collect();
        candidates.sort_by_key(|&v| std::cmp::Reverse(graph.graph.degree(v)));
        for v in candidates {
            if budget.check().is_err() {
                return (best, accepted);
            }
            let obj = scorer.score(v).objective(gamma);
            if obj + 1e-9 < best_obj {
                vh.insert(v);
                best = balanced_labeling(graph, &vh, align);
                debug_assert_eq!(best.stats().objective(gamma), obj);
                best_obj = obj;
                accepted += 1;
                improved = true;
                on_improve(&best);
                scorer = MoveScorer::new(graph, &vh, align);
            }
        }
        if !improved {
            return (best, accepted);
        }
    }
}

/// Graphs of at most this many nodes get the LP-bounded branch & bound;
/// larger ones go straight to the anytime path. The dense `lp::Simplex`
/// stops at the budget's deadline, but its cost grows fast with the
/// model: a 71-node per-output graph of int2float takes about 20 ms at
/// the root, its 111-node output 0.2 s, and the whole 250-node graph
/// (986 columns) 2.1 s. Above this size the search would spend much of
/// its budget on root bounds, where the anytime path answers in
/// milliseconds.
const EXACT_NODE_LIMIT: usize = 80;

/// Solves the weighted VH-labeling problem (the paper's Method B, Eq. 4)
/// under `budget`, which every stage — the LP solves included — checks
/// cooperatively; `budget` is the only time bound.
///
/// Graphs of at most `EXACT_NODE_LIMIT` nodes go through the LP-bounded
/// branch & bound, warm-started from `warm` (typically the incumbent of an
/// adjacent γ point; it is re-costed under this γ, and an invalid hint is
/// ignored rather than trusted). When that search returns no incumbent,
/// or the graph is larger, the staged anytime path answers, seeded with
/// `oct_hint` in place of its OCT stage. Either way the outcome's trace
/// records the incumbent/bound/gap trajectory.
///
/// The second return value is a freshly computed, proven-optimal odd
/// cycle transversal for the caller to cache: it is γ-independent, and
/// the search costs one block at a time, so it is milliseconds on a graph
/// of many small blocks (router, i2c) but the OCT's whole 60% share of
/// the budget when the largest block does not close (cavlc is one
/// 592-node block). It is `None` when the hint
/// was used, the branch & bound answered, or the OCT solve timed out (a
/// timed-out transversal depends on the budget and must not be reused).
pub fn solve(
    graph: &BddGraph,
    config: &MipConfig,
    budget: &Budget,
    warm: Option<&Labeling>,
    oct_hint: Option<&OctResult>,
) -> (MipOutcome, Option<OctResult>) {
    if graph.num_nodes() <= EXACT_NODE_LIMIT {
        // Infeasibility cannot occur (all-VH is always feasible), so the
        // search only comes back empty when the budget ran out first.
        if let Some(out) = branch_and_bound(graph, config, budget, warm) {
            return (out, None);
        }
    }
    anytime(graph, config, budget, oct_hint)
}

/// The exact path: the Eq. 4 model through the LP-bounded branch & bound.
/// `None` when no incumbent was found before the budget ran out.
fn branch_and_bound(
    graph: &BddGraph,
    config: &MipConfig,
    budget: &Budget,
    warm: Option<&Labeling>,
) -> Option<MipOutcome> {
    let gamma = config.gamma;
    let (model, vars) = build_model(graph, gamma, config.align);
    let mut solver = BranchBound::new().trace_every(10).budget(budget);
    if let Some(labeling) = warm {
        solver = solver.warm_start(warm_start_values(graph, &vars, model.num_vars(), labeling));
    }
    let layout = vh_layout(graph, &vars, gamma);
    let bounder = HybridBounder::new(VhBounder::new(layout)).with_budget(budget.clone());
    let sol = solver.solve_with(&model, bounder).ok()?;
    let labeling = labeling_from_solution(&vars, &sol.values);
    debug_assert!(labeling.is_valid(graph));
    let objective = labeling.stats().objective(gamma);
    Some(MipOutcome {
        labeling,
        optimal: sol.status == SolveStatus::Optimal,
        objective,
        best_bound: sol.best_bound,
        relative_gap: sol.relative_gap(),
        trace: sol.trace,
        nodes: sol.nodes,
        warm_start: sol.warm_start,
    })
}

/// A proven lower bound on `γ·S + (1−γ)·D` over every valid labeling of an
/// `n`-node graph whose minimum odd cycle transversal has at least `oct_lb`
/// vertices: `S ≥ n + oct_lb`, and `D ≥ ⌈S/2⌉` because R and C each count
/// every VH node and `max(R, C) ≥ S/2`.
pub(crate) fn weighted_bound(n: usize, oct_lb: usize, gamma: f64) -> f64 {
    let s_lb = (n + oct_lb) as f64;
    gamma * s_lb + (1.0 - gamma) * (s_lb / 2.0).ceil()
}

/// Whether `objective` meets the proven `bound`, i.e. is optimal.
pub(crate) fn meets_bound(objective: f64, bound: f64) -> bool {
    (objective - bound).abs() < 1e-6
}

/// CPLEX-style relative gap between an incumbent `objective` and a proven
/// `bound`, capped at 1.
pub(crate) fn relative_gap(objective: f64, bound: f64) -> f64 {
    ((objective - bound).abs() / objective.abs().max(1e-10)).min(1.0)
}

/// The staged anytime path: greedy OCT incumbent → exact OCT on 60% of
/// the time left (bound + incumbent; replaced outright by `hint`) →
/// VH-addition hill climbing, skipped once the incumbent is proven
/// optimal. Always returns a valid labeling, even on an already-exhausted
/// budget. The second return value is as for [`solve`].
fn anytime(
    graph: &BddGraph,
    config: &MipConfig,
    budget: &Budget,
    hint: Option<&OctResult>,
) -> (MipOutcome, Option<OctResult>) {
    let start = Instant::now();
    let n = graph.num_nodes();
    let gamma = config.gamma;

    // Stage 1: greedy OCT incumbent.
    let mut trace = SolveTrace::new();
    let greedy_vh: HashSet<usize> = oct_heuristic(&graph.graph).into_iter().collect();
    let mut best = balanced_labeling(graph, &greedy_vh, config.align);
    let mut best_obj = best.stats().objective(gamma);
    let mut best_bound = weighted_bound(n, usize::from(!greedy_vh.is_empty()), gamma);
    trace.push(TracePoint {
        elapsed: start.elapsed(),
        best_integer: Some(best_obj),
        best_bound,
        open_nodes: 1,
    });

    // Stage 2: exact (or budget-limited) OCT improves both the incumbent
    // and the proven bound.
    let (oct, computed) = match hint {
        Some(h) => (h.clone(), false),
        None => {
            let fresh = odd_cycle_transversal(&graph.graph, &budget.share(0.6));
            (fresh, true)
        }
    };
    let oct_vh: HashSet<usize> = oct.transversal.iter().copied().collect();
    let cand = balanced_labeling(graph, &oct_vh, config.align);
    let cand_obj = cand.stats().objective(gamma);
    if cand_obj < best_obj {
        best = cand;
        best_obj = cand_obj;
    }
    best_bound = best_bound.max(weighted_bound(n, oct.lower_bound, gamma));
    trace.push(TracePoint {
        elapsed: start.elapsed(),
        best_integer: Some(best_obj),
        best_bound,
        open_nodes: 1,
    });

    // Optimality: proven only when the OCT was exact and the incumbent
    // meets the bound.
    let proven = |objective: f64| oct.optimal && meets_bound(objective, best_bound);
    // Stage 3: hill climbing on VH additions (only helps when γ < 1, and
    // never below a bound the incumbent already meets); each accepted move
    // is an incumbent improvement worth a trace point.
    if !proven(best_obj) {
        let (improved, _) = hill_climb(graph, &best, gamma, config.align, budget, |labeling| {
            trace.push(TracePoint {
                elapsed: start.elapsed(),
                best_integer: Some(labeling.stats().objective(gamma)),
                best_bound,
                open_nodes: 1,
            });
        });
        let improved_obj = improved.stats().objective(gamma);
        if improved_obj < best_obj {
            best = improved;
            best_obj = improved_obj;
        }
    }

    let optimal = proven(best_obj);
    let relative_gap = relative_gap(best_obj, best_bound);
    trace.push(TracePoint {
        elapsed: start.elapsed(),
        best_integer: Some(best_obj),
        best_bound,
        open_nodes: 0,
    });
    // Only a proven-optimal OCT is budget-independent and safe to reuse.
    let publish = (computed && oct.optimal).then(|| oct.clone());
    (
        MipOutcome {
            labeling: best,
            optimal,
            objective: best_obj,
            best_bound,
            relative_gap,
            trace,
            // A reused OCT expands no nodes here; report the reuse as an
            // accepted warm start instead.
            nodes: if computed { oct.nodes } else { 0 },
            warm_start: (!computed).then_some(true),
        },
        publish,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowc_bdd::build_sbdd;
    use flowc_logic::{GateKind, Network};

    fn fig2() -> BddGraph {
        let mut n = Network::new("fig2");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let ab = n.add_gate(GateKind::And, &[a, b], "ab").unwrap();
        let f = n.add_gate(GateKind::Or, &[ab, c], "f").unwrap();
        n.mark_output(f);
        BddGraph::from_bdds(&build_sbdd(&n, None))
    }

    /// [`solve`] cold: unlimited budget, no warm start, no OCT hint.
    fn solve_cold(g: &BddGraph, config: &MipConfig) -> MipOutcome {
        solve(g, config, &Budget::unlimited(), None, None).0
    }

    /// The anytime path alone, whatever the graph's size.
    fn solve_anytime(g: &BddGraph, config: &MipConfig) -> MipOutcome {
        anytime(g, config, &Budget::unlimited(), None).0
    }

    #[test]
    fn exact_mip_matches_oct_on_gamma_one() {
        let g = fig2();
        let out = solve_cold(
            &g,
            &MipConfig {
                gamma: 1.0,
                align: false,
            },
        );
        assert!(out.optimal, "fig2 is tiny; the MIP must close");
        assert!(out.labeling.is_valid(&g));
        // Minimum semiperimeter is n + 1 (one triangle).
        assert_eq!(out.labeling.stats().semiperimeter, g.num_nodes() + 1);
        assert!(out.relative_gap < 1e-6);
    }

    #[test]
    fn exact_mip_respects_alignment() {
        let g = fig2();
        let out = solve_cold(&g, &MipConfig::default());
        assert!(out.labeling.is_valid(&g));
        assert!(out.labeling.is_aligned(&g));
    }

    #[test]
    fn gamma_zero_prefers_balanced_designs() {
        let g = fig2();
        let balanced = solve_cold(
            &g,
            &MipConfig {
                gamma: 0.0,
                align: false,
            },
        );
        let min_s = solve_cold(
            &g,
            &MipConfig {
                gamma: 1.0,
                align: false,
            },
        );
        let bs = balanced.labeling.stats();
        let ms = min_s.labeling.stats();
        assert!(bs.max_dimension <= ms.max_dimension);
        assert!(ms.semiperimeter <= bs.semiperimeter);
    }

    #[test]
    fn anytime_path_produces_trace_and_valid_labeling() {
        let g = fig2();
        let out = solve_anytime(&g, &MipConfig::default());
        assert!(out.labeling.is_valid(&g));
        assert!(out.labeling.is_aligned(&g));
        assert!(out.trace.points().len() >= 2);
        // Bound can never exceed the incumbent.
        assert!(out.best_bound <= out.objective + 1e-9);
        // The trace's bound is monotonically non-decreasing.
        let bounds: Vec<f64> = out.trace.points().iter().map(|p| p.best_bound).collect();
        for w in bounds.windows(2) {
            assert!(w[1] >= w[0] - 1e-9);
        }
    }

    #[test]
    fn anytime_agrees_with_exact_on_small_instance() {
        let g = fig2();
        let exact = solve_cold(
            &g,
            &MipConfig {
                gamma: 0.5,
                align: true,
            },
        );
        let anytime = solve_anytime(
            &g,
            &MipConfig {
                gamma: 0.5,
                align: true,
            },
        );
        assert!(exact.optimal);
        // The anytime incumbent is within one VH upgrade of the optimum on
        // this instance (it may pick a different OCT vertex).
        assert!(anytime.objective <= exact.objective + 1.0);
    }

    #[test]
    fn model_shape_matches_eq4() {
        let g = fig2();
        let (m, vars) = build_model(&g, 0.5, false);
        let n = g.num_nodes();
        let e = g.num_edges();
        assert_eq!(vars.xv.len(), n);
        assert_eq!(vars.xh.len(), n);
        // 2n node binaries + e edge helpers + D.
        assert_eq!(m.num_vars(), 2 * n + e + 1);
        // 2 aggregate rows + n coverage rows + 2e connection rows + 2e
        // orientation-free cover rows + 2 rows per triangle.
        let mut triangles = 0;
        let edge_set: std::collections::HashSet<(usize, usize)> = g
            .graph
            .edges()
            .iter()
            .map(|&(i, j)| (i.min(j), i.max(j)))
            .collect();
        for &(a, b) in &edge_set {
            for k in (b + 1)..n {
                if edge_set.contains(&(a, k)) && edge_set.contains(&(b, k)) {
                    triangles += 1;
                }
            }
        }
        assert_eq!(m.num_constraints(), 2 + n + 4 * e + 2 * triangles);
    }

    #[test]
    fn hill_climb_never_worsens() {
        let g = fig2();
        let base = crate::oct_method::min_semiperimeter(
            &g,
            &crate::oct_method::OctMethodConfig::default(),
            &Budget::unlimited(),
        );
        for gamma in [0.0, 0.25, 0.5, 0.75] {
            let (improved, _) = hill_climb(
                &g,
                &base.labeling,
                gamma,
                true,
                &Budget::unlimited().with_deadline(std::time::Duration::from_secs(5)),
                |_| {},
            );
            assert!(improved.is_valid(&g));
            assert!(
                improved.stats().objective(gamma) <= base.labeling.stats().objective(gamma) + 1e-9
            );
        }
    }
}
