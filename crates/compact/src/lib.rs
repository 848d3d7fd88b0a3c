//! COMPACT: flow-based computing on nanoscale crossbars with minimal
//! semiperimeter and maximum dimension — the core of the DATE 2021 paper
//! reproduction.
//!
//! The framework maps a Boolean function, given as a gate-level
//! [`flowc_logic::Network`], to a [`flowc_xbar::Crossbar`] in three steps:
//!
//! 1. **Graph pre-processing** ([`preprocess`]): build the (shared) BDD,
//!    drop the 0-terminal, and view the rest as an undirected graph whose
//!    nodes will become nanowires and whose edges will become memristors.
//! 2. **VH-labeling** ([`oct_method`], [`mip_method`]): assign each node a
//!    label `V` (bitline), `H` (wordline), or `VH` (both, joined by an
//!    always-on memristor), such that no edge joins two pure-`V` or two
//!    pure-`H` nodes. Minimizing `VH` labels minimizes the semiperimeter
//!    `S = R + C`; the weighted objective `γ·S + (1−γ)·D` additionally
//!    balances the design (`D = max(R, C)`).
//! 3. **Crossbar mapping** ([`mapping`]): bind labelled nodes to wordlines
//!    and bitlines and program each BDD edge's literal into the junction
//!    between its endpoints' wires.
//!
//! The end-to-end entry point is [`pipeline::synthesize`]:
//!
//! ```
//! use flowc_logic::{Network, GateKind};
//! use flowc_compact::pipeline::{synthesize, Config};
//!
//! let mut n = Network::new("fig2");
//! let a = n.add_input("a");
//! let b = n.add_input("b");
//! let c = n.add_input("c");
//! let ab = n.add_gate(GateKind::And, &[a, b], "ab").unwrap();
//! let f = n.add_gate(GateKind::Or, &[ab, c], "f").unwrap();
//! n.mark_output(f);
//!
//! let result = synthesize(&n, &Config::default()).unwrap();
//! // The design evaluates the function by sneak-path flow.
//! assert_eq!(result.crossbar.evaluate(&[true, true, false]).unwrap(), vec![true]);
//! assert_eq!(result.crossbar.evaluate(&[false, false, false]).unwrap(), vec![false]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balance;
pub mod constrained;
pub mod formal;
pub mod incremental;
pub mod labeling;
pub mod mapping;
pub mod mip_method;
pub mod oct_method;
pub mod pareto;
pub mod pass;
pub mod pipeline;
pub mod preprocess;
pub mod repair;
pub mod session;
pub mod supervisor;

pub use constrained::{synthesize_constrained, ConstraintError, SizeLimits};
pub use formal::{verify_symbolic, SymbolicReport};
pub use incremental::{
    parse_edit, parse_edit_script, repair_labeling, EditError, EditOutcome, EditResolution,
    EditSession, EditSessionConfig, EditableNetlist, IncrementalStats, NetlistEdit,
};
pub use labeling::{Labeling, LabelingStats, VhLabel};
pub use pipeline::{synthesize, CompactError, CompactResult, Config, VhStrategy};
pub use preprocess::BddGraph;
pub use repair::{
    repair_placement, repair_with_resynthesis, repair_with_resynthesis_in, RepairConfig,
    RepairError, RepairReport, RepairStrategy, RepairedDesign,
};
pub use session::{
    gamma_sweep_tasks, synthesize_batch, synthesize_in, synthesize_in_budgeted, ArtifactKey,
    BatchTask, CacheStats, Session, SessionConfig, StageKind, StageTrace,
};
pub use supervisor::{synthesize_with_budget, DegradationReport, Rung, StageAttempt, Trigger};
