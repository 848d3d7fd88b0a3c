//! The mapping-backend abstraction: every way this workspace turns a
//! [`Network`] into an executable in-memory design sits behind one
//! [`MappingBackend`] trait, and the [`Backend`] enum (generated by
//! `make_backend_enum!`) dispatches over all of them without dynamic
//! allocation. Downstream consumers — the CLI, the conform oracle panel,
//! `flowc-serve`, the bench bins — select backends through this single
//! parse/display/capability surface instead of hand-rolled string matches.
//!
//! The shipped backends:
//!
//! | name             | produces                                      |
//! |------------------|-----------------------------------------------|
//! | `compact`        | COMPACT single-SBDD flow crossbar             |
//! | `staircase`      | prior-art every-node-both-wires crossbar      |
//! | `robdd-diagonal` | per-output ROBDDs merged along the diagonal   |
//! | `magic-nor`      | CONTRA-style MAGIC NOR program (op counts)    |
//! | `partitioned`    | CONTRA-style tile schedule over an R×C box    |

use std::fmt;
use std::str::FromStr;
use std::time::Duration;

use flowc_bdd::try_build_sbdd;
use flowc_budget::{Budget, BudgetExceeded};
use flowc_compact::pass::{BddBuildPass, GraphExtractPass, Pass};
use flowc_compact::preprocess::BddGraph;
use flowc_compact::supervisor::synthesize_with_budget;
pub use flowc_compact::supervisor::unknown_name_error;
use flowc_compact::{
    synthesize_in_budgeted, CompactError, CompactResult, Config, ConstraintError, Session,
};
use flowc_logic::Network;
use flowc_xbar::metrics::CrossbarMetrics;
use flowc_xbar::verify::{pack_lanes, verify_with, VerifyReport};
use flowc_xbar::Crossbar;

use crate::magic::{map_magic, MagicConfig, MagicReport, NorNetlist};
use crate::partitioned::{PartitionedBackend, TileSchedule};
use crate::robdd_diagonal::compact_per_output;
use crate::staircase::staircase_map;

/// What a backend can and cannot do, queryable before synthesis so
/// consumers (the CLI's repair path, the partitioned backend's inner
/// selection, serve's admission) reject unsupported combinations up
/// front instead of failing mid-job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// Produces a flow-based crossbar design (vs an operation-count
    /// execution model like MAGIC).
    pub flow_crossbar: bool,
    /// Honors the γ-weighted objective `γ·S + (1−γ)·D`.
    pub gamma_objective: bool,
    /// Can target a fixed R×C bounding box (directly, not merely by
    /// luck of the unconstrained result fitting).
    pub area_constrained: bool,
    /// Produces a single monolithic crossbar usable as a partition tile.
    pub tileable: bool,
    /// Designs admit the defect-repair ladder (permute/spares/resynth).
    pub repairable: bool,
}

/// Everything a backend may draw on while synthesizing: the COMPACT
/// [`Config`] (strategy, γ, alignment, variable order), an optional
/// shared [`Session`] whose artifact cache amortizes BDD builds across
/// calls, and the cooperative [`Budget`] bounding the run.
#[derive(Debug, Clone)]
pub struct SynthesisCtx<'s> {
    /// Labeling/synthesis configuration for COMPACT-derived backends.
    pub config: Config,
    /// Shared artifact cache; `None` synthesizes cold.
    pub session: Option<&'s Session>,
    /// Wall-clock / node-ceiling / cancellation bounds.
    pub budget: Budget,
}

impl<'s> SynthesisCtx<'s> {
    /// A context with no session and an unlimited budget.
    pub fn new(config: Config) -> Self {
        SynthesisCtx {
            config,
            session: None,
            budget: Budget::unlimited(),
        }
    }

    /// Attaches a shared session.
    pub fn with_session(mut self, session: &'s Session) -> Self {
        self.session = Some(session);
        self
    }

    /// Replaces the budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }
}

impl Default for SynthesisCtx<'_> {
    fn default() -> Self {
        SynthesisCtx::new(Config::default())
    }
}

/// Why a backend refused or failed to produce a design.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum BackendError {
    /// The request is provably unsatisfiable (e.g. a single cone cannot
    /// fit the partition tile).
    Infeasible(ConstraintError),
    /// The backend does not support the requested combination (nested
    /// partitioning, non-tileable inner backend, …).
    Unsupported(String),
    /// The COMPACT pipeline (or one of its passes) failed; a cancel is
    /// [`CompactError::Cancelled`].
    Compact(CompactError),
    /// The budget stopped a backend that has no degraded fallback.
    Budget(BudgetExceeded),
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Infeasible(e) => write!(f, "{e}"),
            BackendError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            BackendError::Compact(e) => write!(f, "{e}"),
            BackendError::Budget(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BackendError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BackendError::Infeasible(e) => Some(e),
            BackendError::Compact(e) => Some(e),
            BackendError::Budget(e) => Some(e),
            BackendError::Unsupported(_) => None,
        }
    }
}

impl From<CompactError> for BackendError {
    fn from(e: CompactError) -> Self {
        BackendError::Compact(e)
    }
}

impl From<BudgetExceeded> for BackendError {
    fn from(e: BudgetExceeded) -> Self {
        BackendError::Budget(e)
    }
}

/// The concrete thing a backend produced.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum DesignArtifact {
    /// One crossbar computing every output by sneak-path flow.
    Monolithic(Crossbar),
    /// A COMPACT design: its crossbar together with the full provenance
    /// (labeling, optimality, degradation report).
    Compact(Box<CompactResult>),
    /// A schedule of crossbar tiles, each within the requested box.
    Tiled(TileSchedule),
    /// A MAGIC NOR program with its operation-count report.
    NorProgram {
        /// The n-ary NOR netlist the scheduler executes.
        netlist: NorNetlist,
        /// Operation counts and schedule length.
        report: MagicReport,
    },
}

/// A backend's output: the artifact and uniform cost metrics.
#[derive(Debug, Clone)]
pub struct MappedDesign {
    /// Stable name of the backend that produced this design.
    pub backend: &'static str,
    /// The design itself.
    pub artifact: DesignArtifact,
    /// Uniform cost figures (tiled designs aggregate over tiles).
    pub metrics: CrossbarMetrics,
    /// Whether a degradation ladder behind the design shipped a lower rung
    /// or ran out of budget before proving its labeling optimal (the CLI's
    /// exit code 2, serve's `degraded`).
    pub degraded: bool,
}

impl From<CompactResult> for MappedDesign {
    /// Wraps a COMPACT result as the `compact` backend's design, moving
    /// its crossbar rather than copying it.
    fn from(result: CompactResult) -> Self {
        MappedDesign {
            backend: CompactBackend.name(),
            metrics: result.metrics,
            degraded: result.degradation.as_ref().is_some_and(|d| d.degraded),
            artifact: DesignArtifact::Compact(Box::new(result)),
        }
    }
}

impl MappedDesign {
    /// Evaluates the design on 64 input assignments at once, in network
    /// output order and the lane layout of [`Crossbar::evaluate64`].
    ///
    /// # Errors
    ///
    /// [`XbarError::InputLen`](flowc_xbar::XbarError::InputLen) on a
    /// wrong-arity input, and any error a crossbar of the design returns.
    pub fn evaluate64(&self, input_words: &[u64]) -> flowc_xbar::Result<Vec<u64>> {
        match &self.artifact {
            DesignArtifact::Monolithic(xbar) => xbar.evaluate64(input_words),
            DesignArtifact::Compact(result) => result.crossbar.evaluate64(input_words),
            DesignArtifact::Tiled(schedule) => schedule.evaluate64(input_words),
            DesignArtifact::NorProgram { netlist, .. } => netlist.eval64(input_words),
        }
    }

    /// Evaluates the design on one input assignment: lane 0 of
    /// [`MappedDesign::evaluate64`].
    ///
    /// # Errors
    ///
    /// As [`MappedDesign::evaluate64`].
    pub fn evaluate(&self, inputs: &[bool]) -> flowc_xbar::Result<Vec<bool>> {
        let words = pack_lanes(inputs.len(), &[inputs.to_vec()]);
        Ok(self
            .evaluate64(&words)?
            .iter()
            .map(|w| w & 1 == 1)
            .collect())
    }

    /// Functionally verifies the design against `network` with the one
    /// sampled check every artifact shares
    /// ([`flowc_xbar::verify::verify_with`]).
    ///
    /// # Errors
    ///
    /// As [`MappedDesign::evaluate64`]; a `network` of another arity
    /// answers [`XbarError::InputLen`](flowc_xbar::XbarError::InputLen).
    pub fn verify(&self, network: &Network, samples: usize) -> flowc_xbar::Result<VerifyReport> {
        verify_with(network, samples, &Budget::unlimited(), |words| {
            self.evaluate64(words)
        })
    }

    /// The monolithic crossbar, when the artifact is one (repair and
    /// rendering paths need the raw array).
    pub fn crossbar(&self) -> Option<&Crossbar> {
        match &self.artifact {
            DesignArtifact::Monolithic(xbar) => Some(xbar),
            DesignArtifact::Compact(result) => Some(&result.crossbar),
            _ => None,
        }
    }

    /// The monolithic crossbar, moved out of the design.
    pub fn into_crossbar(self) -> Option<Crossbar> {
        match self.artifact {
            DesignArtifact::Monolithic(xbar) => Some(xbar),
            DesignArtifact::Compact(result) => Some(result.crossbar),
            _ => None,
        }
    }

    /// The COMPACT provenance, when the design came out of the COMPACT
    /// pipeline.
    pub fn compact(&self) -> Option<&CompactResult> {
        match &self.artifact {
            DesignArtifact::Compact(result) => Some(result),
            _ => None,
        }
    }

    /// The cost figures the front ends report. A COMPACT design's rows,
    /// columns, S and D are its labeling's (the paper's figures, which
    /// leave out the rows of constant-0 outputs); everything else is
    /// [`MappedDesign::metrics`].
    pub fn reported_metrics(&self) -> CrossbarMetrics {
        let mut m = self.metrics;
        if let Some(result) = self.compact() {
            m.rows = result.stats.rows;
            m.cols = result.stats.cols;
            m.semiperimeter = result.stats.semiperimeter;
            m.max_dimension = result.stats.max_dimension;
        }
        m
    }
}

/// A way of mapping a [`Network`] onto an in-memory computing substrate.
pub trait MappingBackend {
    /// Stable kebab-case name (wire protocol, CLI flag, metric label).
    fn name(&self) -> &'static str;

    /// What this backend supports.
    fn capabilities(&self) -> Capabilities;

    /// Maps `network` to a design under `ctx`.
    ///
    /// # Errors
    ///
    /// See [`BackendError`].
    fn synthesize(
        &self,
        network: &Network,
        ctx: &SynthesisCtx<'_>,
    ) -> Result<MappedDesign, BackendError>;
}

/// The COMPACT single-SBDD flow (the paper's own method).
#[derive(Debug, Clone, Default)]
pub struct CompactBackend;

impl MappingBackend for CompactBackend {
    fn name(&self) -> &'static str {
        "compact"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            flow_crossbar: true,
            gamma_objective: true,
            area_constrained: false,
            tileable: true,
            repairable: true,
        }
    }

    fn synthesize(
        &self,
        network: &Network,
        ctx: &SynthesisCtx<'_>,
    ) -> Result<MappedDesign, BackendError> {
        let result = match ctx.session {
            Some(session) => synthesize_in_budgeted(session, network, &ctx.config, &ctx.budget),
            None => synthesize_with_budget(network, &ctx.config, &ctx.budget),
        }?;
        Ok(result.into())
    }
}

/// The prior-art staircase mapping (reference \[16\]).
#[derive(Debug, Clone, Default)]
pub struct StaircaseBackend;

impl MappingBackend for StaircaseBackend {
    fn name(&self) -> &'static str {
        "staircase"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            flow_crossbar: true,
            gamma_objective: false,
            area_constrained: false,
            tileable: true,
            repairable: true,
        }
    }

    fn synthesize(
        &self,
        network: &Network,
        ctx: &SynthesisCtx<'_>,
    ) -> Result<MappedDesign, BackendError> {
        let names: Vec<String> = network
            .outputs()
            .iter()
            .map(|&o| network.net_name(o).to_string())
            .collect();
        let xbar = match ctx.session {
            Some(session) => {
                let bdd = BddBuildPass.run_with_budget(session, (network, None), &ctx.budget)?;
                let graph =
                    GraphExtractPass.run_with_budget(session, (&bdd.bdds, bdd.key), &ctx.budget)?;
                staircase_map(&graph, &names)
            }
            None => {
                let bdds = try_build_sbdd(network, None, &ctx.budget)?;
                staircase_map(&BddGraph::from_bdds(&bdds), &names)
            }
        };
        Ok(MappedDesign {
            backend: self.name(),
            metrics: CrossbarMetrics::of(&xbar),
            artifact: DesignArtifact::Monolithic(xbar),
            degraded: false,
        })
    }
}

/// The per-output ROBDD flow merged along the diagonal (Figure 8(a)).
#[derive(Debug, Clone, Default)]
pub struct DiagonalBackend;

impl MappingBackend for DiagonalBackend {
    fn name(&self) -> &'static str {
        "robdd-diagonal"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            flow_crossbar: true,
            gamma_objective: true,
            area_constrained: false,
            tileable: true,
            repairable: true,
        }
    }

    fn synthesize(
        &self,
        network: &Network,
        ctx: &SynthesisCtx<'_>,
    ) -> Result<MappedDesign, BackendError> {
        let merged = compact_per_output(network, &ctx.config, &ctx.budget)?;
        let degraded = merged
            .per_output
            .iter()
            .any(|r| r.degradation.as_ref().is_some_and(|d| d.degraded));
        Ok(MappedDesign {
            backend: self.name(),
            metrics: CrossbarMetrics::of(&merged.crossbar),
            artifact: DesignArtifact::Monolithic(merged.crossbar),
            degraded,
        })
    }
}

/// The CONTRA-style MAGIC NOR execution model (Figure 13).
#[derive(Debug, Clone, Default)]
pub struct MagicBackend {
    /// Array dimension and block spacing.
    pub config: MagicConfig,
}

impl MappingBackend for MagicBackend {
    fn name(&self) -> &'static str {
        "magic-nor"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            flow_crossbar: false,
            gamma_objective: false,
            area_constrained: false,
            tileable: false,
            repairable: false,
        }
    }

    fn synthesize(
        &self,
        network: &Network,
        ctx: &SynthesisCtx<'_>,
    ) -> Result<MappedDesign, BackendError> {
        ctx.budget.check()?;
        let report = map_magic(network, &self.config);
        let netlist = NorNetlist::from_network(network);
        let dim = self.config.dim;
        let metrics = CrossbarMetrics {
            rows: dim,
            cols: dim,
            semiperimeter: 2 * dim,
            max_dimension: dim,
            area: dim * dim,
            active_devices: report.total_ops(),
            bridge_devices: 0,
            delay_steps: report.delay_steps,
            tiles: 1,
            transfer_ops: report.copy_ops,
        };
        Ok(MappedDesign {
            backend: self.name(),
            metrics,
            artifact: DesignArtifact::NorProgram { netlist, report },
            degraded: false,
        })
    }
}

/// Generates the [`Backend`] enum plus its [`MappingBackend`] dispatch
/// impl: each variant wraps one backend struct and every trait method is
/// a generated `match` forwarding to it.
macro_rules! make_backend_enum {
    ( $( $(#[$meta:meta])* $variant:ident($ty:ty) => $name:literal ),* $(,)? ) => {
        /// Every shipped mapping backend, enum-dispatched. This is the
        /// single selection surface: parse with [`Backend::parse`] (or
        /// [`FromStr`]), display/serialize via the stable names in
        /// [`Backend::NAMES`], and query support via
        /// [`MappingBackend::capabilities`].
        #[derive(Debug, Clone)]
        pub enum Backend {
            $( $(#[$meta])* $variant($ty), )*
        }

        impl Backend {
            /// The stable names, in declaration order.
            pub const NAMES: &'static [&'static str] = &[ $( $name, )* ];

            /// Parses a stable backend name into its default-configured
            /// backend.
            ///
            /// # Errors
            ///
            /// The shared [`unknown_name_error`] message listing every
            /// known name.
            pub fn parse(name: &str) -> Result<Backend, String> {
                match name {
                    $( $name => Ok(Backend::$variant(<$ty>::default())), )*
                    other => Err(unknown_name_error("backend", other, Self::NAMES)),
                }
            }

            /// One default-configured instance of every backend, in
            /// declaration order.
            pub fn default_all() -> Vec<Backend> {
                vec![ $( Backend::$variant(<$ty>::default()), )* ]
            }

            /// The `/metrics` latency series of jobs run on this backend:
            /// `backend.<name>`.
            pub fn latency_series(&self) -> &'static str {
                match self {
                    $( Backend::$variant(_) => concat!("backend.", $name), )*
                }
            }
        }

        impl MappingBackend for Backend {
            fn name(&self) -> &'static str {
                match self {
                    $( Backend::$variant(b) => b.name(), )*
                }
            }

            fn capabilities(&self) -> Capabilities {
                match self {
                    $( Backend::$variant(b) => b.capabilities(), )*
                }
            }

            fn synthesize(
                &self,
                network: &Network,
                ctx: &SynthesisCtx<'_>,
            ) -> Result<MappedDesign, BackendError> {
                match self {
                    $( Backend::$variant(b) => b.synthesize(network, ctx), )*
                }
            }
        }
    };
}

make_backend_enum!(
    /// COMPACT single-SBDD flow (the paper's method).
    Compact(CompactBackend) => "compact",
    /// Prior-art staircase (reference \[16\]).
    Staircase(StaircaseBackend) => "staircase",
    /// Per-output ROBDDs merged diagonally (Figure 8(a)).
    RobddDiagonal(DiagonalBackend) => "robdd-diagonal",
    /// CONTRA-style MAGIC NOR execution model (Figure 13).
    MagicNor(MagicBackend) => "magic-nor",
    /// CONTRA-style area-constrained tile schedule.
    Partitioned(PartitionedBackend) => "partitioned",
);

impl Default for Backend {
    fn default() -> Self {
        Backend::Compact(CompactBackend)
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Backend::parse(s)
    }
}

/// Convenience: a default [`PartitionedBackend`] with an explicit tile
/// box (the common CLI/serve parameterization).
pub fn partitioned_with_tile(max_rows: usize, max_cols: usize) -> Backend {
    Backend::Partitioned(PartitionedBackend {
        tile: flowc_compact::SizeLimits { max_rows, max_cols },
        ..PartitionedBackend::default()
    })
}

/// A sensible per-candidate time slice for constrained tile fitting.
pub(crate) const DEFAULT_PER_TILE_TIME: Duration = Duration::from_secs(5);

#[cfg(test)]
mod tests {
    use super::*;
    use flowc_logic::{GateKind, Network};

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
    fn names_round_trip_through_parse_and_display() {
        for &name in Backend::NAMES {
            let backend = Backend::parse(name).unwrap();
            assert_eq!(backend.to_string(), name);
            assert_eq!(backend.name(), name);
        }
        assert_eq!(Backend::NAMES.len(), Backend::default_all().len());
    }

    #[test]
    fn unknown_backend_lists_all_names() {
        let err = Backend::parse("warp").unwrap_err();
        assert!(err.contains("unknown backend `warp`"), "{err}");
        for &name in Backend::NAMES {
            assert!(err.contains(name), "{err} missing {name}");
        }
    }

    #[test]
    fn every_backend_synthesizes_and_verifies_fig2() {
        let n = fig2_network();
        let ctx = SynthesisCtx::default();
        for backend in Backend::default_all() {
            let design = backend
                .synthesize(&n, &ctx)
                .unwrap_or_else(|e| panic!("{}: {e}", backend.name()));
            assert_eq!(design.backend, backend.name());
            let report = design
                .verify(&n, 64)
                .unwrap_or_else(|e| panic!("{}: {e}", backend.name()));
            assert!(report.is_valid(), "{}: {report:?}", backend.name());
            assert_eq!(report.checked, 8, "exhaustive for 3 inputs");
        }
    }

    #[test]
    fn every_backend_answers_a_wrong_arity_input_with_input_len() {
        let n = fig2_network();
        for backend in Backend::default_all() {
            let design = backend.synthesize(&n, &SynthesisCtx::default()).unwrap();
            let expected = flowc_xbar::XbarError::InputLen {
                got: 2,
                expected: 3,
            };
            assert_eq!(
                design.evaluate(&[true, false]).unwrap_err(),
                expected,
                "{}",
                backend.name()
            );
            assert_eq!(
                design.evaluate64(&[0, 0]).unwrap_err(),
                expected,
                "{}",
                backend.name()
            );
        }
    }

    #[test]
    fn capabilities_distinguish_the_execution_models() {
        assert!(Backend::parse("compact").unwrap().capabilities().repairable);
        let magic = Backend::parse("magic-nor").unwrap().capabilities();
        assert!(!magic.flow_crossbar && !magic.tileable && !magic.repairable);
        let part = Backend::parse("partitioned").unwrap().capabilities();
        assert!(part.area_constrained && !part.tileable);
    }

    #[test]
    fn session_and_sessionless_staircase_agree() {
        let n = fig2_network();
        let session = Session::default();
        let cold = StaircaseBackend
            .synthesize(&n, &SynthesisCtx::default())
            .unwrap();
        let cached = StaircaseBackend
            .synthesize(&n, &SynthesisCtx::default().with_session(&session))
            .unwrap();
        assert_eq!(cold.metrics, cached.metrics);
    }

    #[test]
    fn staircase_respects_an_exhausted_budget_without_a_session() {
        let n = fig2_network();
        let ctx =
            SynthesisCtx::default().with_budget(Budget::unlimited().with_deadline(Duration::ZERO));
        let err = StaircaseBackend.synthesize(&n, &ctx).unwrap_err();
        assert!(
            matches!(err, BackendError::Budget(BudgetExceeded::Deadline)),
            "{err}"
        );
    }

    #[test]
    fn unknown_name_error_matches_the_serve_wire_shape() {
        assert_eq!(
            unknown_name_error("strategy", "warp", &["a", "b"]),
            "unknown strategy `warp` (a|b)"
        );
    }
}
