//! The resilient synthesis supervisor: every supervised `synthesize` call
//! is bounded by a cooperative [`Budget`], isolated from solver panics, and
//! guaranteed to return *some* functionally valid crossbar by walking a
//! graceful-degradation ladder:
//!
//! 1. **Exact** — the Eq. 4 MIP (weighted strategy) or the exact Lemma-1
//!    OCT (min-semiperimeter strategy), proven optimal when it closes.
//! 2. **Anytime MIP** — the staged greedy-OCT → exact-OCT → hill-climb
//!    path, which improves an always-valid incumbent until the budget runs
//!    out.
//! 3. **Heuristic OCT** — the greedy transversal plus balancing, no solver
//!    involved.
//! 4. **All-VH** — the terminal rung: label every node `VH`. This is the
//!    staircase-shaped diagonal assignment (every node occupies one row and
//!    one column, `S = 2n`), which is valid for *any* graph and needs no
//!    search at all. It cannot fail and cannot be budgeted away.
//!
//! A rung is abandoned (and the next one tried) when it panics, returns
//! nothing, or produces a labeling that cannot be mapped. Budget exhaustion
//! *inside* a rung degrades gracefully where the rung supports it (the
//! solvers all return their incumbent); only a rung with no incumbent at
//! all falls through. Every attempt is recorded in a [`DegradationReport`]
//! attached to the result.
//!
//! Since PR 4 the supervisor is staged through [`crate::session`]:
//! [`synthesize_with_budget`] wraps a one-shot [`crate::session::Session`],
//! the BDD build runs as [`crate::pass::BddBuildPass`] (budgeted first
//! attempt, one unbudgeted rebuild on exhaustion or panic —
//! `bdd_budget_lifted` in the report), and the ladder itself is
//! [`run_ladder`], driven by [`crate::pass::LadderPass`]. Callers that
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
use std::time::Duration;

use flowc_budget::{Budget, BudgetExceeded, Stopwatch};
use flowc_graph::{oct_heuristic, OctResult};
use flowc_logic::Network;
use flowc_milp::SolveTrace;
use flowc_xbar::metrics::CrossbarMetrics;
use flowc_xbar::Crossbar;

use crate::balance::balanced_labeling;
use crate::labeling::Labeling;
use crate::mapping::map_to_crossbar;
use crate::mip_method::{solve_anytime_with_oct, solve_exact_warm, MipConfig};
use crate::oct_method::{min_semiperimeter_budgeted, OctMethodConfig};
use crate::pipeline::{CompactError, CompactResult, Config, VhStrategy};
use crate::preprocess::BddGraph;
use crate::session::Session;

/// A rung of the degradation ladder, ordered from most to least ambitious.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Rung {
    /// The exact Eq. 4 MIP through the LP-bounded branch & bound.
    ExactMip,
    /// The exact Lemma-1 odd-cycle-transversal solve (γ = 1 objective).
    ExactOct,
    /// The staged anytime path (greedy OCT → budgeted OCT → hill climb).
    AnytimeMip,
    /// Greedy OCT heuristic plus balancing; no solver.
    HeuristicOct,
    /// Terminal fallback: every node labeled `VH` (the staircase diagonal).
    AllVh,
}

impl Rung {
    /// The stage name used in reports and in the rung's
    /// `compact.rung.<name>` failpoint.
    pub fn name(self) -> &'static str {
        match self {
            Rung::ExactMip => "exact-mip",
            Rung::ExactOct => "exact-oct",
            Rung::AnytimeMip => "anytime-mip",
            Rung::HeuristicOct => "heuristic-oct",
            Rung::AllVh => "all-vh",
        }
    }

    /// Inverse of [`Rung::name`]; `None` for unknown names (so persisted
    /// artifacts from a different version are rejected, not misread).
    pub fn parse(name: &str) -> Option<Rung> {
        Some(match name {
            "exact-mip" => Rung::ExactMip,
            "exact-oct" => Rung::ExactOct,
            "anytime-mip" => Rung::AnytimeMip,
            "heuristic-oct" => Rung::HeuristicOct,
            "all-vh" => Rung::AllVh,
            _ => return None,
        })
    }
}

impl fmt::Display for Rung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
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
    /// The stage completed but produced nothing usable (e.g. the graph
    /// exceeds the exact path's node limit, or mapping rejected the
    /// labeling).
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
    /// Warm-start outcome of the exact MIP rung, when one was offered.
    warm_start: Option<bool>,
    /// Freshly proven-optimal OCT from the anytime rung, for the caller
    /// to cache (γ-independent, budget-independent).
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

/// The ladder a strategy starts on. The first rung is the strategy's own
/// solver; everything below it is a fallback.
fn ladder(strategy: &VhStrategy) -> Vec<Rung> {
    match strategy {
        VhStrategy::MinSemiperimeter { .. } => {
            vec![Rung::ExactOct, Rung::HeuristicOct, Rung::AllVh]
        }
        VhStrategy::Weighted { .. } => vec![
            Rung::ExactMip,
            Rung::AnytimeMip,
            Rung::HeuristicOct,
            Rung::AllVh,
        ],
        VhStrategy::Heuristic { .. } => vec![Rung::HeuristicOct, Rung::AllVh],
        VhStrategy::Staircase => vec![Rung::AllVh],
    }
}

fn run_rung(
    rung: Rung,
    graph: &BddGraph,
    config: &Config,
    budget: &Budget,
    warm: Option<&Labeling>,
    oct: Option<&OctResult>,
) -> Option<RungOutput> {
    flowc_failpoint::fire(format_args!("compact.rung.{rung}"));
    match rung {
        Rung::ExactMip => {
            let (gamma, time_limit, exact_node_limit) = match &config.strategy {
                VhStrategy::Weighted {
                    gamma,
                    time_limit,
                    exact_node_limit,
                } => (*gamma, *time_limit, *exact_node_limit),
                // The exact-MIP rung is only scheduled for the weighted
                // strategy; these defaults are never reached in practice.
                VhStrategy::MinSemiperimeter { time_limit } => (1.0, *time_limit, 80),
                VhStrategy::Heuristic { gamma } => (*gamma, Duration::from_secs(30), 80),
                VhStrategy::Staircase => (0.5, Duration::ZERO, 0),
            };
            let out = solve_exact_warm(
                graph,
                &MipConfig {
                    gamma,
                    align: config.align,
                    time_limit,
                    exact_node_limit,
                    threads: config.label_threads.max(1),
                },
                budget,
                warm,
            )?;
            Some(RungOutput {
                labeling: out.labeling,
                optimal: out.optimal,
                relative_gap: out.relative_gap,
                trace: Some(out.trace),
                nodes: out.nodes,
                warm_start: out.warm_start,
                oct: None,
            })
        }
        Rung::ExactOct => {
            let time_limit = match &config.strategy {
                VhStrategy::MinSemiperimeter { time_limit } => *time_limit,
                _ => Duration::from_secs(30),
            };
            let r = min_semiperimeter_budgeted(
                graph,
                &OctMethodConfig {
                    time_limit,
                    align: config.align,
                    ..Default::default()
                },
                budget,
            );
            let gap = if r.optimal {
                0.0
            } else {
                let k = r.oct_size.max(1) as f64;
                ((r.oct_size.saturating_sub(r.oct_lower_bound)) as f64 / k).min(1.0)
            };
            Some(RungOutput {
                labeling: r.labeling,
                optimal: r.optimal,
                relative_gap: gap,
                trace: None,
                nodes: 0,
                warm_start: None,
                oct: None,
            })
        }
        Rung::AnytimeMip => {
            let (gamma, time_limit) = match &config.strategy {
                VhStrategy::Weighted {
                    gamma, time_limit, ..
                } => (*gamma, *time_limit),
                VhStrategy::MinSemiperimeter { time_limit } => (1.0, *time_limit),
                VhStrategy::Heuristic { gamma } => (*gamma, Duration::from_secs(30)),
                VhStrategy::Staircase => (0.5, Duration::ZERO),
            };
            let (out, fresh_oct) = solve_anytime_with_oct(
                graph,
                &MipConfig {
                    gamma,
                    align: config.align,
                    time_limit,
                    exact_node_limit: 0,
                    threads: config.label_threads.max(1),
                },
                budget,
                oct,
            );
            Some(RungOutput {
                labeling: out.labeling,
                optimal: out.optimal,
                relative_gap: out.relative_gap,
                trace: Some(out.trace),
                nodes: out.nodes,
                warm_start: out.warm_start,
                oct: fresh_oct,
            })
        }
        Rung::HeuristicOct => {
            let vh: HashSet<usize> = oct_heuristic(&graph.graph).into_iter().collect();
            Some(RungOutput {
                labeling: balanced_labeling(graph, &vh, config.align),
                optimal: false,
                relative_gap: 1.0,
                trace: None,
                nodes: 0,
                warm_start: None,
                oct: None,
            })
        }
        Rung::AllVh => {
            let vh: HashSet<usize> = (0..graph.num_nodes()).collect();
            Some(RungOutput {
                labeling: balanced_labeling(graph, &vh, config.align),
                optimal: false,
                relative_gap: 1.0,
                trace: None,
                nodes: 0,
                warm_start: None,
                oct: None,
            })
        }
    }
}

/// What the degradation ladder shipped, with full provenance. Produced by
/// [`run_ladder`] / [`crate::pass::LadderPass`] and folded into a
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
    /// (set by [`crate::pass::LadderPass`], never by [`run_ladder`]).
    pub from_cache: bool,
    /// Freshly proven-optimal OCT from the anytime rung (γ-independent),
    /// for the session to cache across sweep points.
    pub oct: Option<OctResult>,
}

/// Walks the degradation ladder over an extracted graph: run a rung,
/// enforce alignment, map; on panic, empty output, or mapping rejection,
/// fall to the next rung. `bdd_trigger` (why the budgeted BDD build was
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
    for rung in rungs {
        let sw = Stopwatch::unbudgeted();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_rung(rung, graph, config, budget, warm, oct)
        }));
        let wall = sw.elapsed();
        label_wall += wall;
        let output = match outcome {
            Ok(Some(out)) => out,
            Ok(None) => {
                attempts.push(StageAttempt {
                    rung,
                    wall,
                    trigger: Some(Trigger::Failed(
                        "stage produced no labeling before its budget ran out".into(),
                    )),
                });
                continue;
            }
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
    Err(CompactError::Synthesis(format!(
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
    )))
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
    fn unlimited_budget_ships_from_the_first_rung() {
        let n = fig2_network();
        let r = synthesize_with_budget(&n, &Config::default(), &Budget::unlimited()).unwrap();
        let report = r.degradation.as_ref().unwrap();
        assert_eq!(report.rung, Rung::ExactMip);
        assert!(!report.degraded, "{}", report.summary());
        assert!(verify_functional(&r.crossbar, &n, 64).unwrap().is_valid());
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
            VhStrategy::Weighted {
                gamma: 0.5,
                time_limit: Duration::from_secs(5),
                exact_node_limit: 80,
            },
            VhStrategy::Heuristic { gamma: 0.5 },
            VhStrategy::Staircase,
        ] {
            let cfg = Config {
                strategy,
                align: true,
                var_order: None,
                label_threads: 1,
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
            vec![Rung::HeuristicOct, Rung::AllVh]
        );
        assert_eq!(
            ladder(&VhStrategy::Staircase),
            vec![Rung::AllVh],
            "staircase goes straight to the terminal rung"
        );
        assert_eq!(
            ladder(&VhStrategy::default())[0],
            Rung::ExactMip,
            "weighted starts exact"
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
