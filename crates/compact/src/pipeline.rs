//! The end-to-end COMPACT flow (Figure 3 of the paper): network → (shared)
//! BDD → undirected graph → VH-labeling → crossbar.

use std::fmt;
use std::time::Duration;

use flowc_budget::{Budget, Stopwatch};

use flowc_bdd::NetworkBdds;
use flowc_logic::{LogicError, Network};
use flowc_milp::SolveTrace;
use flowc_xbar::metrics::CrossbarMetrics;
use flowc_xbar::{Crossbar, XbarError};

use crate::labeling::{Labeling, LabelingStats};
use crate::mapping::MapError;
use crate::preprocess::BddGraph;
use crate::supervisor::{run_ladder, Rung};

/// Which VH-labeling solver drives the synthesis.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum VhStrategy {
    /// Section VI-A: minimal semiperimeter via the odd cycle transversal
    /// (exactly the γ = 1 objective).
    MinSemiperimeter {
        /// Caps the job's budget for the exact transversal solve.
        time_limit: Duration,
    },
    /// Section VI-B: the weighted objective `γ·S + (1−γ)·D` via the Eq. 4
    /// MIP (exact on small graphs, staged anytime otherwise).
    Weighted {
        /// The trade-off weight γ.
        gamma: f64,
        /// Caps the job's budget for the whole Eq. 4 solve.
        time_limit: Duration,
    },
    /// Fast greedy path (heuristic OCT + balancing), for very large inputs.
    Heuristic {
        /// The trade-off weight γ (used by the balancing objective).
        gamma: f64,
    },
    /// The all-VH staircase diagonal (every node labeled `VH`, `S = 2n`):
    /// no search at all, valid for any graph. This is the terminal rung of
    /// the degradation ladder exposed as a strategy of its own, so load
    /// shedding (the serve admission controller) can force the cheapest
    /// possible synthesis up front instead of discovering it by falling
    /// down the ladder.
    Staircase,
}

impl Default for VhStrategy {
    fn default() -> Self {
        Config::default().strategy
    }
}

impl VhStrategy {
    /// The γ of the strategy's objective: 1 for the min-semiperimeter
    /// objective, the paper's 0.5 for the staircase (which optimizes
    /// nothing).
    pub fn gamma(&self) -> f64 {
        match self {
            VhStrategy::Weighted { gamma, .. } | VhStrategy::Heuristic { gamma } => *gamma,
            VhStrategy::MinSemiperimeter { .. } => 1.0,
            VhStrategy::Staircase => 0.5,
        }
    }

    /// The solver's wall-clock limit (zero for the strategies that run
    /// no solver). The exact rungs run under the job's budget capped at
    /// it; no solver keeps a clock of its own.
    pub fn time_limit(&self) -> Duration {
        match self {
            VhStrategy::Weighted { time_limit, .. }
            | VhStrategy::MinSemiperimeter { time_limit } => *time_limit,
            VhStrategy::Heuristic { .. } | VhStrategy::Staircase => Duration::ZERO,
        }
    }
}

/// Synthesis configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// The labeling solver. Defaults to the weighted objective at γ = 0.5,
    /// the paper's recommended setting.
    pub strategy: VhStrategy,
    /// Enforce the Eq. 7 alignment constraints (the paper's experiments
    /// include them by default). When disabled, misaligned roots are still
    /// upgraded at mapping time so the design remains realizable.
    pub align: bool,
    /// Optional BDD variable order (a permutation of the input indices).
    pub var_order: Option<Vec<usize>>,
    /// Ignored: every labeling search runs on the calling thread. The field
    /// stays only until the code that still builds a `Config` by struct
    /// literal with it is updated.
    pub label_threads: usize,
}

impl Default for Config {
    /// The paper's default: weighted objective, γ = 0.5, alignment on.
    fn default() -> Self {
        Config::gamma(0.5)
    }
}

impl Config {
    /// The weighted strategy at a given γ with alignment on (the paper's
    /// experimental setup).
    pub fn gamma(gamma: f64) -> Self {
        Config {
            strategy: VhStrategy::entering(Rung::ExactMip, gamma, Duration::from_secs(30)),
            align: true,
            var_order: None,
            label_threads: 1,
        }
    }
}

/// Errors from the synthesis pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CompactError {
    /// Crossbar mapping failed (invalid labeling — indicates a solver bug).
    Map(MapError),
    /// The input network failed [`Network::validate`].
    InvalidNetwork(LogicError),
    /// The opt-in verification stage could not evaluate the crossbar.
    Verify(XbarError),
    /// The opt-in verification stage found the crossbar disagreeing with
    /// the network — an internal bug, never an input condition.
    Mismatch {
        /// Assignments on which the crossbar and the network disagree.
        mismatches: usize,
        /// Assignments checked.
        checked: usize,
    },
    /// A stage panicked with no fallback left, or no ladder rung could
    /// produce any design — indicates a bug, not a budget or input
    /// condition.
    Panicked {
        /// Where it happened (`bdd-build`, `vh-label`, `batch-task`).
        stage: &'static str,
        /// The panic payload or the failed attempts, as text.
        message: String,
    },
    /// The budget's cancel flag fired before any design could ship (e.g.
    /// during the BDD build, which has no degraded fallback). Unlike
    /// deadline or node-ceiling exhaustion — which degrade and still ship
    /// a design — an explicit cancellation must *stop*, so it surfaces as
    /// this typed error instead of triggering an unbounded rebuild.
    Cancelled,
}

impl fmt::Display for CompactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompactError::Map(e) => write!(f, "crossbar mapping failed: {e}"),
            CompactError::InvalidNetwork(e) => write!(f, "network failed validation: {e}"),
            CompactError::Verify(e) => write!(f, "verification failed to run: {e}"),
            CompactError::Mismatch {
                mismatches,
                checked,
            } => write!(
                f,
                "synthesized crossbar disagrees with the network on {mismatches} of \
                 {checked} assignments"
            ),
            CompactError::Panicked { stage, message } => write!(f, "{stage} panicked: {message}"),
            CompactError::Cancelled => write!(f, "synthesis cancelled"),
        }
    }
}

impl std::error::Error for CompactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompactError::Map(e) => Some(e),
            CompactError::InvalidNetwork(e) => Some(e),
            CompactError::Verify(e) => Some(e),
            CompactError::Mismatch { .. }
            | CompactError::Panicked { .. }
            | CompactError::Cancelled => None,
        }
    }
}

/// The synthesized design with its provenance and cost figures.
#[derive(Debug, Clone)]
pub struct CompactResult {
    /// The crossbar design.
    pub crossbar: Crossbar,
    /// The VH-labeling behind it.
    pub labeling: Labeling,
    /// Labeling-level size statistics (rows, cols, S, D).
    pub stats: LabelingStats,
    /// Crossbar-level metrics (adds area, power, delay).
    pub metrics: CrossbarMetrics,
    /// BDD nodes after preprocessing (the paper's `n`).
    pub graph_nodes: usize,
    /// BDD edges after preprocessing.
    pub graph_edges: usize,
    /// Whether the labeling was proven optimal for its objective.
    pub optimal: bool,
    /// Relative optimality gap at termination (0 when proven optimal).
    pub relative_gap: f64,
    /// Solver convergence trace, when the strategy produces one.
    pub trace: Option<SolveTrace>,
    /// Wall-clock synthesis time (the paper's one-time initialization).
    pub synthesis_time: Duration,
    /// Supervisor provenance: which ladder rung shipped the design and
    /// what was attempted along the way. `None` for the entry points that
    /// keep no report (the constrained search).
    pub degradation: Option<crate::supervisor::DegradationReport>,
}

/// Runs the full COMPACT flow on a network. Builds the shared BDD (SBDD)
/// over all outputs — the multi-output mode of Section VII.
///
/// Every call is supervised: solver panics are isolated and answered by
/// the degradation ladder (see [`crate::supervisor`]), so a result is
/// returned even when a stage misbehaves. To bound the run by wall clock
/// or node ceilings as well, use
/// [`crate::supervisor::synthesize_with_budget`].
///
/// # Errors
///
/// [`CompactError::InvalidNetwork`] for a network that fails validation;
/// any other error indicates an internal bug; see
/// [`crate::supervisor::synthesize_with_budget`].
pub fn synthesize(network: &Network, config: &Config) -> Result<CompactResult, CompactError> {
    crate::supervisor::synthesize_with_budget(network, config, &flowc_budget::Budget::unlimited())
}

/// Runs the labeling and mapping stages on an already-built BDD forest.
/// Useful for comparing SBDD and per-output ROBDD flows (Table III).
/// Walks the same degradation ladder as [`synthesize`] under `budget`
/// (an exhausted one degrades to the cheaper rungs); the report records
/// which rung shipped (no BDD stage runs here, so its wall time is zero).
///
/// # Errors
///
/// See [`synthesize`].
pub fn synthesize_bdds(
    bdds: &NetworkBdds,
    output_names: &[String],
    config: &Config,
    budget: &Budget,
) -> Result<CompactResult, CompactError> {
    let sw = Stopwatch::unbudgeted();
    let graph = BddGraph::from_bdds(bdds);
    let out = run_ladder(&graph, config, budget, output_names, None, None, None)?;
    Ok(out.into_result(&graph, Duration::ZERO, false, sw.elapsed()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowc_logic::bench_suite;
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
    fn default_config_synthesizes_fig2() {
        let n = fig2_network();
        let r = synthesize(&n, &Config::default()).unwrap();
        assert!(verify_functional(&r.crossbar, &n, 64).unwrap().is_valid());
        assert!(r.stats.semiperimeter <= r.graph_nodes + 2);
        assert!(r.metrics.active_devices == r.graph_edges);
        assert!(r.synthesis_time.as_secs() < 30);
    }

    #[test]
    fn all_strategies_produce_valid_designs() {
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
            let r = synthesize(&n, &cfg).unwrap();
            let report = verify_functional(&r.crossbar, &n, 64).unwrap();
            assert!(report.is_valid(), "{:?}", cfg.strategy);
        }
    }

    #[test]
    fn multi_output_benchmark_verifies() {
        // ctrl: 7 inputs, exhaustive verification of all 128 assignments.
        let b = bench_suite::by_name("ctrl").unwrap();
        let n = b.network().unwrap();
        let r = synthesize(&n, &Config::gamma(0.5)).unwrap();
        let report = verify_functional(&r.crossbar, &n, 1 << 7).unwrap();
        assert!(report.is_valid(), "mismatches: {:?}", report.mismatches);
        // The headline property: S stays close to n (S ≈ 1.1n in the
        // paper), far below the baseline's 1.9n.
        assert!(
            (r.stats.semiperimeter as f64) < 1.5 * r.graph_nodes as f64,
            "S = {} for n = {}",
            r.stats.semiperimeter,
            r.graph_nodes
        );
    }

    #[test]
    fn int2float_verifies_exhaustively() {
        let b = bench_suite::by_name("int2float").unwrap();
        let n = b.network().unwrap();
        let r = synthesize(&n, &Config::gamma(0.5)).unwrap();
        let report = verify_functional(&r.crossbar, &n, 1 << 11).unwrap();
        assert!(report.is_valid());
        assert!(r
            .labeling
            .is_aligned(&crate::preprocess::BddGraph::from_bdds(
                &flowc_bdd::build_sbdd(&n, None)
            )));
    }

    #[test]
    fn custom_var_order_is_used() {
        let n = fig2_network();
        let cfg = Config {
            var_order: Some(vec![2, 1, 0]),
            ..Config::gamma(0.5)
        };
        let r = synthesize(&n, &cfg).unwrap();
        assert!(verify_functional(&r.crossbar, &n, 64).unwrap().is_valid());
    }
}
