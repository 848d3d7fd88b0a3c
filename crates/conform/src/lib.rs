//! Conformance subsystem: multi-oracle differential fuzzing with shrinking
//! and a persisted counterexample corpus.
//!
//! This crate is the testing backbone of the workspace. It packages what the
//! integration suites used to carry as private copies — the splitmix64
//! streams, the seeded case generators, the regression-seed persistence —
//! and builds the conformance machinery on top:
//!
//! - [`rng`] — deterministic `splitmix64` streams ([`Rng`]).
//! - [`env`](mod@env) — lenient `PROPTEST_CASES` / `PROPTEST_SEED` parsing.
//! - [`gen`] — composable generators: networks ([`NetworkGen`]), BLIF/PLA
//!   sources, undirected graphs, defect maps.
//! - [`oracle`] — the multi-oracle differential checker: every case runs
//!   through the brute-force simulator, the shared-BDD evaluator, the full
//!   COMPACT pipeline under every [`flowc_compact::VhStrategy`] and a small
//!   γ sweep, and the three baseline mappers; the first disagreeing oracle
//!   pair is reported with full provenance ([`Disagreement`]).
//! - [`editstream`] — streaming-edit cases ([`EditStreamGen`]) and the
//!   incremental-vs-cold differential oracle for
//!   [`flowc_compact::EditSession`], with an edit-prefix shrinker and its
//!   own `.edits` corpus format.
//! - [`shrink`] — a delta-debugging minimizer for failing networks.
//! - [`corpus`] — the persisted corpus: regression seeds plus shrunk
//!   counterexamples as replayable BLIF, replayed before fresh cases.
//! - [`harness`] — the per-test driver tying the above together.
//! - [`fixtures`] — canonical circuits (the paper's Fig. 2, etc.).
//!
//! The `conform-fuzz` binary wraps the same machinery in a time-boxed
//! command-line fuzzer wired into [`flowc_budget`] deadlines.
//!
//! The `broken-oracle` cargo feature compiles in a deliberately miscompiled
//! oracle (XOR lowered as OR) used to prove, in CI, that the differential
//! loop actually finds, shrinks, and persists counterexamples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod editstream;
pub mod env;
pub mod fixtures;
pub mod gen;
pub mod harness;
pub mod oracle;
pub mod rng;
pub mod shrink;

pub use corpus::Corpus;
pub use editstream::{
    check_edit_stream, load_edit_cases, parse_edit_case, persist_edit_case, shrink_edit_case,
    write_edit_case, EditCase, EditCheckConfig, EditStreamFailure, EditStreamGen,
    EditStreamOutcome,
};
pub use gen::NetworkGen;
pub use harness::Harness;
pub use oracle::{
    default_gammas, differential_check, shipped_oracles, shipped_oracles_budgeted, BackendOracle,
    CaseOutcome, DiffConfig, Disagreement, Oracle,
};
pub use rng::{splitmix64, Rng};
pub use shrink::{shrink_network, ShrinkResult};
