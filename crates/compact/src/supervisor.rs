//! The resilient synthesis supervisor: every supervised `synthesize` call
//! is bounded by a cooperative [`Budget`], isolated from solver panics, and
//! guaranteed to return *some* functionally valid crossbar by walking a
//! graceful-degradation ladder:
//!
//! 1. **Exact** — the Eq. 4 MIP (weighted strategy) or the exact Lemma-1
//!    OCT (min-semiperimeter strategy), proven optimal when it closes. The
//!    MIP rung runs the branch & bound on small graphs and the staged
//!    greedy-OCT → exact-OCT → hill-climb path otherwise
//!    ([`crate::mip_method::solve`]), so it always returns an incumbent.
//! 2. **Heuristic OCT** — the greedy transversal plus balancing, no solver
//!    involved.
//! 3. **All-VH** — the terminal rung: label every node `VH`. This is the
//!    staircase-shaped diagonal assignment (every node occupies one row and
//!    one column, `S = 2n`), which is valid for *any* graph and needs no
//!    search at all. It cannot fail and cannot be budgeted away.
//!
//! A rung is abandoned (and the next one tried) when it panics or produces
//! a labeling that cannot be mapped. Budget exhaustion *inside* a rung
//! degrades gracefully: every rung returns an incumbent, however little
//! budget it had. Every attempt is recorded in a [`DegradationReport`]
//! attached to the result.
//!
//! Since PR 4 the supervisor is staged through [`crate::session`]:
//! [`synthesize_with_budget`] wraps a one-shot [`crate::session::Session`],
//! the BDD build runs as [`crate::pass::BddBuildPass`] (budgeted first
//! attempt, one unbudgeted rebuild on exhaustion or panic —
//! `bdd_budget_lifted` in the report), and the ladder itself is
//! `run_ladder`, driven by [`crate::pass::LadderPass`]. Callers that
//! want artifact reuse across calls (γ sweeps, repair, the conformance
//! oracles) hold a long-lived session and use
//! [`crate::session::synthesize_in`] directly.
//!
//! Fault-injection tests arm the `compact.bdd` failpoint and the
//! `compact.rung.<name>` failpoint at each rung's entry (see
//! `flowc-failpoint`, compiled in for test builds only); the supervisor
//! must still return a valid design.

use std::collections::HashSet;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::str::FromStr;
use std::time::Duration;

use flowc_budget::{Budget, BudgetExceeded, Stopwatch};
use flowc_graph::{oct_heuristic, two_color, ColorResult, OctResult};
use flowc_logic::Network;
use flowc_milp::SolveTrace;
use flowc_xbar::metrics::CrossbarMetrics;
use flowc_xbar::Crossbar;

use crate::balance::balanced_labeling;
use crate::labeling::Labeling;
use crate::mapping::map_to_crossbar;
use crate::mip_method::{self, meets_bound, relative_gap, weighted_bound, MipConfig};
use crate::oct_method::{min_semiperimeter, OctMethodConfig};
use crate::pipeline::{CompactError, CompactResult, Config, VhStrategy};
use crate::preprocess::BddGraph;
use crate::session::Session;

/// One uniform "unknown name" message,
/// ``unknown <kind> `<got>` (<a|b|c>)``. Shared by every name-table
/// parser ([`Rung`], the mapping backends) so every selection surface
/// rejects with the same shape.
pub fn unknown_name_error(kind: &str, got: &str, known: &[&str]) -> String {
    format!("unknown {kind} `{got}` ({})", known.join("|"))
}

/// Generates [`Rung`] and its one name table: `ALL`/`NAMES` in ladder
/// order, `name`, `parse` (which also accepts each rung's input
/// aliases), `Display` and `FromStr`.
macro_rules! make_rung_enum {
    ( $( $(#[$meta:meta])* $variant:ident => $name:literal $(| $alias:literal)* ),* $(,)? ) => {
        /// A rung of the degradation ladder, ordered from most to least
        /// ambitious. The CLI's and the service's `strategy`, admission,
        /// the journal, `/metrics` and the degradation report all name
        /// rungs through this one table.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[non_exhaustive]
        pub enum Rung {
            $( $(#[$meta])* $variant, )*
        }

        impl Rung {
            /// Every rung, most ambitious first.
            pub const ALL: &'static [Rung] = &[ $( Rung::$variant, )* ];

            /// The canonical names, in [`Rung::ALL`] order.
            pub const NAMES: &'static [&'static str] = &[ $( $name, )* ];

            /// The canonical name, used in reports, on the wire, in the
            /// journal, in `/metrics` and in the rung's
            /// `compact.rung.<name>` failpoint.
            pub fn name(self) -> &'static str {
                match self {
                    $( Rung::$variant => $name, )*
                }
            }

            /// `rung.<name>`, the series the service's `/metrics` records
            /// this rung's job latencies under.
            pub fn latency_series(self) -> &'static str {
                match self {
                    $( Rung::$variant => concat!("rung.", $name), )*
                }
            }

            /// Inverse of [`Rung::name`], also accepting input aliases;
            /// `None` for unknown names (so persisted artifacts from a
            /// different version are rejected, not misread).
            pub fn parse(name: &str) -> Option<Rung> {
                match name {
                    $( $name $(| $alias)* => Some(Rung::$variant), )*
                    _ => None,
                }
            }
        }
    };
}

make_rung_enum!(
    /// The Eq. 4 MIP (Method B): the LP-bounded branch & bound on small
    /// graphs, the staged anytime path (greedy OCT → budgeted OCT → hill
    /// climb) otherwise. `anytime-mip` is accepted as an input alias.
    ExactMip => "exact-mip" | "anytime-mip",
    /// The exact Lemma-1 odd-cycle-transversal solve (γ = 1 objective).
    ExactOct => "exact-oct",
    /// Greedy OCT heuristic plus balancing; no solver.
    HeuristicOct => "heuristic-oct",
    /// Terminal fallback: every node labeled `VH` (the staircase diagonal).
    /// `staircase` is accepted as an input alias.
    AllVh => "all-vh" | "staircase",
);

impl fmt::Display for Rung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Rung {
    type Err = String;

    fn from_str(name: &str) -> Result<Rung, String> {
        Rung::parse(name).ok_or_else(|| unknown_name_error("strategy", name, Rung::NAMES))
    }
}

/// Why the supervisor abandoned a stage and moved down the ladder.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Trigger {
    /// The stage's budget ran out before it produced any incumbent.
    Budget(BudgetExceeded),
    /// The stage panicked; the payload message is preserved.
    Panicked(String),
    /// The stage completed but produced nothing usable (e.g. mapping
    /// rejected the labeling).
    Failed(String),
}

impl fmt::Display for Trigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trigger::Budget(e) => write!(f, "budget exhausted: {e}"),
            Trigger::Panicked(msg) => write!(f, "panicked: {msg}"),
            Trigger::Failed(msg) => write!(f, "failed: {msg}"),
        }
    }
}

/// One ladder stage the supervisor ran (or tried to).
#[derive(Debug, Clone)]
pub struct StageAttempt {
    /// The rung attempted.
    pub rung: Rung,
    /// Wall-clock time spent in the stage.
    pub wall: Duration,
    /// Why the stage was abandoned; `None` for the stage that produced the
    /// shipped design.
    pub trigger: Option<Trigger>,
}

/// Structured provenance of a supervised synthesis run.
#[derive(Debug, Clone)]
pub struct DegradationReport {
    /// The rung that produced the shipped design.
    pub rung: Rung,
    /// Whether the run degraded: a rung below the strategy's first choice
    /// shipped, the BDD budget had to be lifted, or the budget ran out
    /// before the result could be proven optimal.
    pub degraded: bool,
    /// Every stage attempted, in order, with per-stage wall time.
    pub attempts: Vec<StageAttempt>,
    /// Relative optimality gap of the shipped labeling (0 when proven
    /// optimal, 1 when no nontrivial bound is known).
    pub relative_gap: f64,
    /// Wall-clock time of the BDD build stage (≈0 when the session served
    /// the BDD from its artifact cache).
    pub bdd_wall: Duration,
    /// Whether the BDD had to be rebuilt without a budget after the
    /// budgeted build was exhausted or panicked.
    pub bdd_budget_lifted: bool,
    /// The budget violation observed when the ladder finished, if any.
    pub exhausted: Option<BudgetExceeded>,
    /// Branch & bound nodes the shipping rung explored (0 for non-MIP
    /// rungs and cache-served labelings).
    pub solver_nodes: u64,
    /// Warm-start outcome of the shipping rung (`None` when no warm
    /// start was offered, `Some(accepted)` otherwise).
    pub warm_start: Option<bool>,
    /// Whether the labeling was served from the session's artifact cache.
    pub label_cached: bool,
}

impl DegradationReport {
    /// One-line human-readable summary (for logs and the CLI).
    pub fn summary(&self) -> String {
        let mut s = format!(
            "shipped from rung {} after {} attempt(s); gap {:.3}",
            self.rung,
            self.attempts.len(),
            self.relative_gap
        );
        if self.bdd_budget_lifted {
            s.push_str("; BDD budget lifted");
        }
        if let Some(e) = &self.exhausted {
            s.push_str(&format!("; budget exhausted ({e})"));
        }
        s
    }
}

/// What a rung hands back to the supervisor before mapping.
struct RungOutput {
    labeling: Labeling,
    optimal: bool,
    relative_gap: f64,
    trace: Option<SolveTrace>,
    /// Branch & bound nodes explored (0 for non-MIP rungs).
    nodes: u64,
    /// Warm-start outcome of the MIP rung, when one was offered.
    warm_start: Option<bool>,
    /// The OCT the MIP rung's anytime path searched for, proven or stopped
    /// by the rung's budget, for the caller to cache (γ-independent).
    oct: Option<OctResult>,
}

pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The ladder a strategy walks, most ambitious rung first. The first rung
/// is the strategy's own solver; everything below it is a fallback.
pub fn ladder(strategy: &VhStrategy) -> &'static [Rung] {
    use Rung::*;
    match strategy {
        VhStrategy::MinSemiperimeter { .. } => &[ExactOct, HeuristicOct, AllVh],
        VhStrategy::Weighted { .. } => &[ExactMip, HeuristicOct, AllVh],
        VhStrategy::Heuristic { .. } => &[HeuristicOct, AllVh],
        VhStrategy::Staircase => &[AllVh],
    }
}

impl VhStrategy {
    /// The strategy whose [`ladder`] starts at `rung`:
    /// `ladder(&VhStrategy::entering(r, ..))[0] == r` for every rung.
    /// `gamma` and `time_limit` reach the rungs that use them.
    pub fn entering(rung: Rung, gamma: f64, time_limit: Duration) -> VhStrategy {
        match rung {
            Rung::ExactMip => VhStrategy::Weighted { gamma, time_limit },
            Rung::ExactOct => VhStrategy::MinSemiperimeter { time_limit },
            Rung::HeuristicOct => VhStrategy::Heuristic { gamma },
            Rung::AllVh => VhStrategy::Staircase,
        }
    }
}

/// Runs one rung. Every rung returns a labeling; only a panic (caught
/// by [`run_ladder`]) or a mapping rejection moves the ladder down. The
/// two exact rungs run under `budget` capped at the strategy's time
/// limit: that sub-budget is the only clock their solvers see.
fn run_rung(
    rung: Rung,
    graph: &BddGraph,
    config: &Config,
    budget: &Budget,
    warm: Option<&Labeling>,
    oct: Option<&OctResult>,
) -> RungOutput {
    flowc_failpoint::fire(format_args!("compact.rung.{rung}"));
    let strategy = &config.strategy;
    let solver_budget = budget.capped(strategy.time_limit());
    match rung {
        Rung::ExactMip => {
            let (out, fresh_oct) = mip_method::solve(
                graph,
                &MipConfig {
                    gamma: strategy.gamma(),
                    align: config.align,
                },
                &solver_budget,
                warm,
                oct,
            );
            RungOutput {
                labeling: out.labeling,
                optimal: out.optimal,
                relative_gap: out.relative_gap,
                trace: Some(out.trace),
                nodes: out.nodes,
                warm_start: out.warm_start,
                oct: fresh_oct,
            }
        }
        Rung::ExactOct => {
            let r = min_semiperimeter(
                graph,
                &OctMethodConfig {
                    align: config.align,
                },
                &solver_budget,
            );
            // Alignment upgrades can lift S above `n + k`, so a minimum
            // transversal alone proves nothing about the shipped labeling.
            bounded_output(graph, r.labeling, r.oct_lower_bound, config)
        }
        Rung::HeuristicOct => {
            let vh: HashSet<usize> = oct_heuristic(&graph.graph).into_iter().collect();
            let oct_lb = usize::from(!vh.is_empty());
            let labeling = balanced_labeling(graph, &vh, config.align);
            bounded_output(graph, labeling, oct_lb, config)
        }
        Rung::AllVh => {
            let vh: HashSet<usize> = (0..graph.num_nodes()).collect();
            let oct_lb = usize::from(matches!(two_color(&graph.graph), ColorResult::OddCycle(_)));
            let labeling = balanced_labeling(graph, &vh, config.align);
            bounded_output(graph, labeling, oct_lb, config)
        }
    }
}

/// A non-MIP rung's output: `labeling` measured against the weighted
/// bound that `oct_lb` (a proven lower bound on the minimum transversal)
/// proves under the strategy's γ. Optimal iff the objective meets it.
fn bounded_output(
    graph: &BddGraph,
    labeling: Labeling,
    oct_lb: usize,
    config: &Config,
) -> RungOutput {
    let gamma = config.strategy.gamma();
    let objective = labeling.stats().objective(gamma);
    let bound = weighted_bound(graph.num_nodes(), oct_lb, gamma);
    RungOutput {
        labeling,
        optimal: meets_bound(objective, bound),
        relative_gap: relative_gap(objective, bound),
        trace: None,
        nodes: 0,
        warm_start: None,
        oct: None,
    }
}

/// What the degradation ladder shipped, with full provenance. Produced by
/// `run_ladder` / [`crate::pass::LadderPass`] and folded into a
/// [`CompactResult`] by [`crate::session::synthesize_in`].
#[derive(Debug)]
pub struct LadderOutcome {
    /// The mapped design.
    pub crossbar: Crossbar,
    /// The labeling behind it (alignment already enforced).
    pub labeling: Labeling,
    /// Crossbar-level metrics of the shipped design.
    pub metrics: CrossbarMetrics,
    /// The rung that shipped.
    pub rung: Rung,
    /// Whether a rung below the strategy's first choice shipped, or the
    /// budget ran out before optimality was proven (the BDD-lift
    /// contribution is added by the caller, which owns that stage).
    pub degraded: bool,
    /// Whether the labeling was proven optimal for its objective.
    pub optimal: bool,
    /// Relative optimality gap at termination.
    pub relative_gap: f64,
    /// Solver convergence trace, when the shipping rung produced one.
    pub trace: Option<SolveTrace>,
    /// Every stage attempted, in order.
    pub attempts: Vec<StageAttempt>,
    /// The budget violation observed when the ladder finished, if any.
    pub exhausted: Option<BudgetExceeded>,
    /// Wall-clock time spent in labeling rungs.
    pub label_wall: Duration,
    /// Wall-clock time spent mapping labelings to crossbars.
    pub map_wall: Duration,
    /// Branch & bound nodes the shipping rung explored (0 for non-MIP
    /// rungs and for cache-served labelings).
    pub solver_nodes: u64,
    /// Warm-start outcome of the shipping rung (`None` when no warm start
    /// was offered, `Some(accepted)` otherwise).
    pub warm_start: Option<bool>,
    /// Whether the labeling was served from the session's artifact cache
    /// (set by [`crate::pass::LadderPass`], never by `run_ladder`).
    pub from_cache: bool,
    /// The OCT the MIP rung's anytime path searched for (γ-independent),
    /// proven or stopped by the rung's budget. The session caches it
    /// across sweep points when it is proven, or when only the job's own
    /// time limit stopped it.
    pub oct: Option<OctResult>,
}

impl LadderOutcome {
    /// The [`CompactResult`] this outcome ships over `graph`, its report
    /// completed with the BDD stage's wall time and lift flag.
    pub(crate) fn into_result(
        self,
        graph: &BddGraph,
        bdd_wall: Duration,
        bdd_budget_lifted: bool,
        synthesis_time: Duration,
    ) -> CompactResult {
        CompactResult {
            stats: self.labeling.stats(),
            crossbar: self.crossbar,
            metrics: self.metrics,
            graph_nodes: graph.num_nodes(),
            graph_edges: graph.num_edges(),
            labeling: self.labeling,
            optimal: self.optimal,
            relative_gap: self.relative_gap,
            trace: self.trace,
            synthesis_time,
            degradation: Some(DegradationReport {
                rung: self.rung,
                degraded: self.degraded || bdd_budget_lifted,
                attempts: self.attempts,
                relative_gap: self.relative_gap,
                bdd_wall,
                bdd_budget_lifted,
                exhausted: self.exhausted,
                solver_nodes: self.solver_nodes,
                warm_start: self.warm_start,
                label_cached: self.from_cache,
            }),
        }
    }
}

/// Walks the degradation ladder over an extracted graph: run a rung,
/// enforce alignment, map; on panic or mapping rejection, fall to the
/// next rung. `bdd_trigger` (why the budgeted BDD build was
/// abandoned upstream, if it was) is recorded ahead of the ladder so the
/// report tells the full story in order.
///
/// # Errors
///
/// Only when every rung fails — unreachable in practice, since the
/// terminal all-VH rung cannot fail; kept as a typed error so the
/// supervisor itself never panics.
pub(crate) fn run_ladder(
    graph: &BddGraph,
    config: &Config,
    budget: &Budget,
    names: &[String],
    bdd_trigger: Option<Trigger>,
    warm: Option<&Labeling>,
    oct: Option<&OctResult>,
) -> Result<LadderOutcome, CompactError> {
    let rungs = ladder(&config.strategy);
    let first_rung = rungs[0];
    let mut attempts: Vec<StageAttempt> = Vec::new();
    if let Some(t) = bdd_trigger {
        attempts.push(StageAttempt {
            rung: first_rung,
            wall: Duration::ZERO,
            trigger: Some(Trigger::Failed(format!("budgeted BDD build: {t}"))),
        });
    }
    let mut label_wall = Duration::ZERO;
    let mut map_wall = Duration::ZERO;
    for &rung in rungs {
        let sw = Stopwatch::unbudgeted();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_rung(rung, graph, config, budget, warm, oct)
        }));
        let wall = sw.elapsed();
        label_wall += wall;
        let output = match outcome {
            Ok(out) => out,
            Err(p) => {
                attempts.push(StageAttempt {
                    rung,
                    wall,
                    trigger: Some(Trigger::Panicked(panic_message(p))),
                });
                continue;
            }
        };
        let mut labeling = output.labeling;
        // Mapping requires wordlines on all ports even when alignment was
        // not requested as a constraint.
        labeling.enforce_alignment(graph);
        let map_sw = Stopwatch::unbudgeted();
        let mapped = catch_unwind(AssertUnwindSafe(|| {
            map_to_crossbar(graph, &labeling, names)
        }));
        map_wall += map_sw.elapsed();
        let crossbar = match mapped {
            Ok(Ok(x)) => x,
            Ok(Err(e)) => {
                attempts.push(StageAttempt {
                    rung,
                    wall,
                    trigger: Some(Trigger::Failed(format!("mapping rejected labeling: {e}"))),
                });
                continue;
            }
            Err(p) => {
                attempts.push(StageAttempt {
                    rung,
                    wall,
                    trigger: Some(Trigger::Panicked(format!(
                        "mapping panicked: {}",
                        panic_message(p)
                    ))),
                });
                continue;
            }
        };
        attempts.push(StageAttempt {
            rung,
            wall,
            trigger: None,
        });
        let exhausted = budget.check().err();
        let degraded = rung != first_rung || (exhausted.is_some() && !output.optimal);
        let metrics = CrossbarMetrics::of(&crossbar);
        return Ok(LadderOutcome {
            crossbar,
            labeling,
            metrics,
            rung,
            degraded,
            optimal: output.optimal,
            relative_gap: output.relative_gap,
            trace: output.trace,
            attempts,
            exhausted,
            label_wall,
            map_wall,
            solver_nodes: output.nodes,
            warm_start: output.warm_start,
            from_cache: false,
            oct: output.oct,
        });
    }
    Err(CompactError::Panicked {
        stage: "vh-label",
        message: format!(
            "every ladder rung failed: {}",
            attempts
                .iter()
                .map(|a| format!(
                    "{} ({})",
                    a.rung,
                    a.trigger
                        .as_ref()
                        .map_or_else(|| "ok".to_string(), Trigger::to_string)
                ))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    })
}

/// Supervised end-to-end synthesis: build the SBDD and synthesize under a
/// shared [`Budget`]. See the module documentation for the guarantees.
///
/// Runs through a one-shot [`Session`]; callers that synthesize the same
/// network repeatedly (γ sweeps, repair, conformance oracles) should hold
/// a long-lived session and call [`crate::session::synthesize_in`], which
/// reuses the BDD and graph artifacts across calls.
///
/// # Errors
///
/// Returns an error only when the BDD cannot be built at all (the
/// unbudgeted rebuild also panicked) or when even the terminal all-VH rung
/// cannot be mapped — both indicate a bug, not an input or budget
/// condition.
pub fn synthesize_with_budget(
    network: &Network,
    config: &Config,
    budget: &Budget,
) -> Result<CompactResult, CompactError> {
    let session = Session::with_budget(budget.clone());
    crate::session::synthesize_in(&session, network, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowc_logic::{GateKind, Network};
    use flowc_xbar::verify::verify_functional;

    fn fig2_network() -> Network {
        let mut n = Network::new("fig2");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let ab = n.add_gate(GateKind::And, &[a, b], "ab").unwrap();
        let f = n.add_gate(GateKind::Or, &[ab, c], "f").unwrap();
        n.mark_output(f);
        n
    }

    #[test]
    fn non_mip_rungs_report_a_bound_below_the_exact_optimum() {
        let ctrl = flowc_logic::bench_suite::by_name("ctrl")
            .unwrap()
            .network()
            .unwrap();
        for n in [fig2_network(), ctrl] {
            for gamma in [0.5, 1.0] {
                let exact = synthesize_with_budget(&n, &Config::gamma(gamma), &Budget::unlimited())
                    .unwrap();
                assert!(exact.optimal, "{} γ={gamma}", n.name());
                let optimum = exact.stats.objective(gamma);
                // exact-oct optimizes the γ = 1 objective only.
                let rungs: &[Rung] = if gamma == 1.0 {
                    &[Rung::HeuristicOct, Rung::ExactOct]
                } else {
                    &[Rung::HeuristicOct]
                };
                for &rung in rungs {
                    let cfg = Config {
                        strategy: VhStrategy::entering(rung, gamma, Duration::from_secs(30)),
                        ..Config::default()
                    };
                    let r = synthesize_with_budget(&n, &cfg, &Budget::unlimited()).unwrap();
                    let ctx = format!("{} {rung} γ={gamma}", n.name());
                    assert!(r.relative_gap < 1.0, "{ctx}");
                    // The gap is (objective − bound) / objective.
                    let objective = r.stats.objective(gamma);
                    let bound = objective * (1.0 - r.relative_gap);
                    assert!(
                        bound <= optimum + 1e-9,
                        "{ctx}: bound {bound} above optimum {optimum}"
                    );
                    // ctrl's minimum transversal needs alignment upgrades
                    // on top, so exact-oct's S is above `n + k` and above
                    // the joint MIP's proven optimum: not optimal.
                    assert!(
                        !r.optimal || objective <= optimum + 1e-9,
                        "{ctx}: claims {objective} optimal, the MIP proves {optimum}"
                    );
                }
            }
        }
    }

    #[test]
    fn unlimited_budget_ships_from_the_first_rung() {
        let n = fig2_network();
        let r = synthesize_with_budget(&n, &Config::default(), &Budget::unlimited()).unwrap();
        let report = r.degradation.as_ref().unwrap();
        assert_eq!(report.rung, Rung::ExactMip);
        assert!(!report.degraded, "{}", report.summary());
        assert!(verify_functional(&r.crossbar, &n, 64).unwrap().is_valid());

        // A graph too large for the branch & bound is answered inside the
        // same rung by the anytime path: one attempt, not degraded.
        let int2float = flowc_logic::bench_suite::by_name("int2float")
            .unwrap()
            .network()
            .unwrap();
        let r =
            synthesize_with_budget(&int2float, &Config::default(), &Budget::unlimited()).unwrap();
        assert!(r.graph_nodes > 80, "int2float must exceed the B&B limit");
        let report = r.degradation.as_ref().unwrap();
        assert_eq!(report.rung, Rung::ExactMip, "{}", report.summary());
        assert_eq!(report.attempts.len(), 1, "{}", report.summary());
        assert!(!report.degraded, "{}", report.summary());
        assert!(verify_functional(&r.crossbar, &int2float, 64)
            .unwrap()
            .is_valid());
    }

    #[test]
    fn a_spent_time_limit_is_not_a_degradation() {
        // The strategy's limit caps the solvers' clock, not the job's: a
        // point that runs out of it still ships from its own rung, and the
        // caller's budget reports nothing exhausted.
        let ctrl = flowc_logic::bench_suite::by_name("ctrl")
            .unwrap()
            .network()
            .unwrap();
        let cfg = Config {
            strategy: VhStrategy::entering(Rung::ExactMip, 0.5, Duration::ZERO),
            ..Config::default()
        };
        let r = synthesize_with_budget(&ctrl, &cfg, &Budget::unlimited()).unwrap();
        let report = r.degradation.as_ref().unwrap();
        assert_eq!(report.exhausted, None, "{}", report.summary());
        assert!(!report.degraded, "{}", report.summary());
        assert_eq!(report.rung, Rung::ExactMip, "{}", report.summary());
        assert!(verify_functional(&r.crossbar, &ctrl, 64)
            .unwrap()
            .is_valid());
    }

    #[test]
    fn an_unrepresentable_time_limit_means_no_limit() {
        // `u64::MAX` seconds overflows the clock; the cap saturates
        // instead of panicking the rung down the ladder.
        let int2float = flowc_logic::bench_suite::by_name("int2float")
            .unwrap()
            .network()
            .unwrap();
        let cfg = Config {
            strategy: VhStrategy::entering(Rung::ExactMip, 0.5, Duration::from_secs(u64::MAX)),
            ..Config::default()
        };
        let r = synthesize_with_budget(&int2float, &cfg, &Budget::unlimited()).unwrap();
        let report = r.degradation.as_ref().unwrap();
        assert_eq!(report.rung, Rung::ExactMip, "{}", report.summary());
        assert_eq!(report.attempts.len(), 1, "{}", report.summary());
        assert!(!report.degraded, "{}", report.summary());
    }

    #[test]
    fn zero_deadline_degrades_but_stays_valid() {
        let n = fig2_network();
        let budget = Budget::unlimited().with_deadline(Duration::ZERO);
        let r = synthesize_with_budget(&n, &Config::default(), &budget).unwrap();
        let report = r.degradation.as_ref().unwrap();
        assert!(report.degraded, "{}", report.summary());
        assert!(report.exhausted.is_some());
        assert!(verify_functional(&r.crossbar, &n, 64).unwrap().is_valid());
    }

    #[test]
    fn one_node_bdd_ceiling_lifts_and_recovers() {
        let n = fig2_network();
        let budget = Budget::unlimited().with_max_bdd_nodes(1);
        let r = synthesize_with_budget(&n, &Config::default(), &budget).unwrap();
        let report = r.degradation.as_ref().unwrap();
        assert!(report.bdd_budget_lifted);
        assert!(report.degraded);
        assert!(verify_functional(&r.crossbar, &n, 64).unwrap().is_valid());
    }

    #[test]
    fn cancelled_budget_aborts_with_typed_error() {
        // Explicit cancellation is a stop order, not a resource ceiling:
        // unlike deadline/node exhaustion (which degrade and still ship a
        // design), it must surface as `CompactError::Cancelled` without
        // falling back to an unbudgeted rebuild.
        let n = fig2_network();
        let budget = Budget::unlimited();
        budget.cancel_handle().cancel();
        let err = synthesize_with_budget(&n, &Config::default(), &budget).unwrap_err();
        assert!(matches!(err, CompactError::Cancelled), "{err}");
    }

    #[test]
    fn all_strategies_survive_a_zero_deadline() {
        let n = fig2_network();
        for strategy in [
            VhStrategy::MinSemiperimeter {
                time_limit: Duration::from_secs(5),
            },
            VhStrategy::entering(Rung::ExactMip, 0.5, Duration::from_secs(5)),
            VhStrategy::Heuristic { gamma: 0.5 },
            VhStrategy::Staircase,
        ] {
            let cfg = Config {
                strategy,
                ..Config::default()
            };
            let budget = Budget::unlimited().with_deadline(Duration::ZERO);
            let r = synthesize_with_budget(&n, &cfg, &budget).unwrap();
            assert!(
                verify_functional(&r.crossbar, &n, 64).unwrap().is_valid(),
                "{:?}",
                cfg.strategy
            );
        }
    }

    #[test]
    fn ladder_order_follows_the_strategy() {
        assert_eq!(
            ladder(&VhStrategy::Heuristic { gamma: 0.5 }),
            [Rung::HeuristicOct, Rung::AllVh]
        );
        assert_eq!(
            ladder(&VhStrategy::Staircase),
            [Rung::AllVh],
            "staircase goes straight to the terminal rung"
        );
        assert_eq!(
            ladder(&VhStrategy::default())[0],
            Rung::ExactMip,
            "weighted starts exact"
        );
        for &rung in Rung::ALL {
            let strategy = VhStrategy::entering(rung, 0.5, Duration::from_secs(1));
            assert_eq!(ladder(&strategy)[0], rung, "{strategy:?}");
        }
    }

    #[test]
    fn rung_names_round_trip() {
        assert_eq!(Rung::ALL.len(), Rung::NAMES.len());
        for (&rung, &name) in Rung::ALL.iter().zip(Rung::NAMES) {
            assert_eq!(rung.name(), name);
            assert_eq!(rung.to_string(), name);
            assert_eq!(Rung::parse(name), Some(rung));
            assert_eq!(name.parse::<Rung>(), Ok(rung));
            assert_eq!(rung.latency_series(), format!("rung.{name}"));
        }
        assert_eq!("staircase".parse::<Rung>(), Ok(Rung::AllVh));
        assert_eq!(Rung::AllVh.to_string(), "all-vh", "output is canonical");
        assert_eq!("anytime-mip".parse::<Rung>(), Ok(Rung::ExactMip));
        assert_eq!(Rung::ExactMip.to_string(), "exact-mip");
        assert_eq!(
            "warp".parse::<Rung>(),
            Err("unknown strategy `warp` (exact-mip|exact-oct|heuristic-oct|all-vh)".to_string())
        );
    }

    #[test]
    fn supervised_calls_trace_their_stages() {
        use crate::session::{Session, StageKind};
        let n = fig2_network();
        let session = Session::default();
        let r = crate::session::synthesize_in(&session, &n, &Config::default()).unwrap();
        assert!(verify_functional(&r.crossbar, &n, 64).unwrap().is_valid());
        let trace = session.trace();
        for kind in [
            StageKind::Normalize,
            StageKind::BddBuild,
            StageKind::GraphExtract,
            StageKind::VhLabel,
            StageKind::Map,
        ] {
            assert_eq!(trace.runs(kind), 1, "stage {kind} should run once");
        }
        assert_eq!(trace.runs(StageKind::Verify), 0, "verify is opt-in");
    }
}
