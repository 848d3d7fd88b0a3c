//! The multi-oracle differential checker.
//!
//! COMPACT's correctness claim is end-to-end: a netlist, its (S)BDD, the
//! VH-labeling, and the programmed crossbar must all compute the same
//! Boolean function. Every independent way the workspace has of computing
//! that function is wrapped here as an [`Oracle`] producing an output table
//! over a shared assignment set; [`differential_check`] runs a case through
//! all of them and reports the first disagreeing oracle pair with full
//! provenance (oracle names, the witnessing assignment, both output rows).
//!
//! The shipped oracle matrix:
//!
//! | oracle            | computes through                                  |
//! |-------------------|---------------------------------------------------|
//! | `sim`             | gate-level simulation (`flowc_logic::sim`)        |
//! | `sbdd`            | shared-BDD evaluation (`flowc_bdd`)               |
//! | `compact(…)`      | synthesis + crossbar flow, per [`VhStrategy`] and γ |
//! | `staircase`       | prior-art every-node-both-wires mapping           |
//! | `robdd-diagonal`  | per-output ROBDD flow merged diagonally           |
//! | `magic-nor`       | CONTRA-style NOR netlist execution                |
//! | `partitioned`     | area-constrained tile schedule (small tile, so splits happen) |
//! | symbolic          | `compact::formal::verify_symbolic` on the default design |
//!
//! The baseline rows are one [`BackendOracle`] each: every
//! [`flowc_baselines::Backend`] joins the panel through the same
//! enum-dispatched surface the CLI and serve use, so a backend added
//! there is automatically fuzzed here.
//!
//! With the `broken-oracle` feature a deliberately wrong oracle (XOR
//! computed as OR) joins the matrix so the whole find → shrink → persist
//! loop can be validated end-to-end.

use std::fmt;
use std::sync::Arc;

use flowc_baselines::{partitioned_with_tile, Backend, MappingBackend, SynthesisCtx};
use flowc_bdd::build_sbdd;
use flowc_budget::Budget;
use flowc_compact::{
    synthesize, synthesize_in, verify_symbolic, Config, Session, SessionConfig, VhStrategy,
};
use flowc_logic::Network;
use flowc_xbar::verify::pack_lanes;

use crate::rng::splitmix64;

/// An output table: one row of output bits per checked assignment.
pub type Table = Vec<Vec<bool>>;

/// An independent way of computing a network's Boolean function.
pub trait Oracle {
    /// Stable display name with provenance (strategy, γ, …).
    fn name(&self) -> String;

    /// The outputs for every assignment, in network output order. An `Err`
    /// is a conformance failure in its own right (e.g. synthesis refusing a
    /// valid network) and is reported with the same provenance as a
    /// disagreement.
    fn table(&self, network: &Network, assignments: &[Vec<bool>]) -> Result<Table, String>;
}

/// Tabulates a 64-lane evaluator of `network`'s function over the
/// assignment set, one [`pack_lanes`] chunk per call.
fn lane_table(
    network: &Network,
    assignments: &[Vec<bool>],
    mut evaluate: impl FnMut(&[u64]) -> flowc_xbar::Result<Vec<u64>>,
) -> Result<Table, String> {
    let k = network.num_inputs();
    let mut table = Vec::with_capacity(assignments.len());
    for chunk in assignments.chunks(64) {
        let wide = evaluate(&pack_lanes(k, chunk)).map_err(|e| e.to_string())?;
        for lane in 0..chunk.len() {
            table.push(wide.iter().map(|w| w >> lane & 1 == 1).collect());
        }
    }
    Ok(table)
}

/// Brute-force gate-level simulation — the reference oracle.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimOracle;

impl Oracle for SimOracle {
    fn name(&self) -> String {
        "sim".into()
    }

    fn table(&self, network: &Network, assignments: &[Vec<bool>]) -> Result<Table, String> {
        assignments
            .iter()
            .map(|a| network.simulate(a).map_err(|e| e.to_string()))
            .collect()
    }
}

/// Shared-BDD evaluation.
#[derive(Debug, Clone, Copy, Default)]
pub struct BddOracle;

impl Oracle for BddOracle {
    fn name(&self) -> String {
        "sbdd".into()
    }

    fn table(&self, network: &Network, assignments: &[Vec<bool>]) -> Result<Table, String> {
        let bdds = build_sbdd(network, None);
        Ok(assignments.iter().map(|a| bdds.eval(a)).collect())
    }
}

/// Full COMPACT synthesis followed by crossbar flow evaluation.
#[derive(Debug, Clone)]
pub struct CompactOracle {
    label: String,
    config: Config,
    session: Option<Arc<Session>>,
}

impl CompactOracle {
    /// An oracle running [`synthesize`] under `config`, displayed as
    /// `compact(label)`.
    pub fn new(label: impl Into<String>, config: Config) -> Self {
        CompactOracle {
            label: label.into(),
            config,
            session: None,
        }
    }

    /// An oracle synthesizing through a shared [`Session`], so sibling
    /// oracles that differ only in strategy or γ reuse one BDD build and
    /// one graph extraction per checked network.
    pub fn with_session(label: impl Into<String>, config: Config, session: Arc<Session>) -> Self {
        CompactOracle {
            label: label.into(),
            config,
            session: Some(session),
        }
    }
}

impl Oracle for CompactOracle {
    fn name(&self) -> String {
        format!("compact({})", self.label)
    }

    fn table(&self, network: &Network, assignments: &[Vec<bool>]) -> Result<Table, String> {
        let r = match &self.session {
            Some(session) => synthesize_in(session, network, &self.config),
            None => synthesize(network, &self.config),
        }
        .map_err(|e| e.to_string())?;
        lane_table(network, assignments, |words| r.crossbar.evaluate64(words))
    }
}

/// Any [`flowc_baselines::Backend`] as an oracle: the design the backend
/// produces (crossbar, tile schedule, or NOR program) is evaluated over
/// the assignment set. The oracle name is the backend's stable name, so
/// provenance in disagreements matches the CLI/serve selection surface.
#[derive(Debug, Clone)]
pub struct BackendOracle {
    backend: Backend,
    config: Config,
    session: Option<Arc<Session>>,
    budget: Budget,
}

impl BackendOracle {
    /// An oracle running `backend` cold with an unlimited budget.
    pub fn new(backend: Backend) -> Self {
        BackendOracle {
            backend,
            config: Config::default(),
            session: None,
            budget: Budget::unlimited(),
        }
    }

    /// Attaches a shared [`Session`] so sibling oracles reuse one BDD
    /// build and graph extraction per checked network.
    pub fn with_session(mut self, session: Arc<Session>) -> Self {
        self.session = Some(session);
        self
    }

    /// Bounds every synthesis this oracle performs — the panel budget,
    /// threaded through so fuzz runs stay bounded even on a session-miss
    /// rebuild.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }
}

impl Oracle for BackendOracle {
    fn name(&self) -> String {
        self.backend.name().into()
    }

    fn table(&self, network: &Network, assignments: &[Vec<bool>]) -> Result<Table, String> {
        let mut ctx = SynthesisCtx::new(self.config.clone()).with_budget(self.budget.clone());
        if let Some(session) = &self.session {
            ctx = ctx.with_session(session);
        }
        let design = self
            .backend
            .synthesize(network, &ctx)
            .map_err(|e| e.to_string())?;
        lane_table(network, assignments, |words| design.evaluate64(words))
    }
}

/// A deliberately broken oracle: evaluates XOR gates as OR (and XNOR as
/// NOR) — the classic "any-one" misreading of odd parity. It exists so the
/// fuzz loop can be validated end-to-end: with this oracle enabled,
/// `conform-fuzz` must find a disagreement, shrink it to a few gates, and
/// persist the counterexample.
#[cfg(feature = "broken-oracle")]
#[derive(Debug, Clone, Copy, Default)]
pub struct BrokenXorOracle;

#[cfg(feature = "broken-oracle")]
impl Oracle for BrokenXorOracle {
    fn name(&self) -> String {
        "broken(xor-as-or)".into()
    }

    fn table(&self, network: &Network, assignments: &[Vec<bool>]) -> Result<Table, String> {
        use flowc_logic::GateKind;
        let mut table = Vec::with_capacity(assignments.len());
        for a in assignments {
            let mut values = vec![false; network.num_nets()];
            for (i, &net) in network.inputs().iter().enumerate() {
                values[net.index()] = a[i];
            }
            for gate in network.gates() {
                let ins: Vec<bool> = gate.inputs.iter().map(|n| values[n.index()]).collect();
                let kind = match gate.kind {
                    GateKind::Xor => GateKind::Or,
                    GateKind::Xnor => GateKind::Nor,
                    k => k,
                };
                values[gate.output.index()] = kind.eval(&ins);
            }
            table.push(
                network
                    .outputs()
                    .iter()
                    .map(|o| values[o.index()])
                    .collect(),
            );
        }
        Ok(table)
    }
}

/// The default γ sweep for the weighted-objective oracles.
pub fn default_gammas() -> Vec<f64> {
    vec![0.0, 0.5, 1.0]
}

/// Every shipped oracle: simulation (the reference, always first), SBDD
/// evaluation, COMPACT synthesis under each [`VhStrategy`] (the weighted
/// MIP across the γ sweep, the exact odd-cycle-transversal route, and the
/// greedy heuristic), and one [`BackendOracle`] per non-COMPACT
/// [`Backend`] (the partitioned one on a deliberately small tile so tile
/// splits actually happen on fuzz networks). With the `broken-oracle`
/// feature the deliberately wrong oracle is appended.
pub fn shipped_oracles(gammas: &[f64]) -> Vec<Box<dyn Oracle>> {
    shipped_oracles_budgeted(gammas, &Budget::unlimited())
}

/// [`shipped_oracles`] with every synthesis — including session-miss
/// rebuilds inside the baseline oracles — bounded by `budget`. Fuzz
/// drivers pass their run deadline here so no single case can stall the
/// campaign.
pub fn shipped_oracles_budgeted(gammas: &[f64], budget: &Budget) -> Vec<Box<dyn Oracle>> {
    use std::time::Duration;
    // One shared session: all synthesis oracles differ only in labeling
    // strategy/γ, so each checked network costs one BDD build and one graph
    // extraction across the whole panel. The cache is bounded (FIFO), so
    // memory stays flat over long fuzz campaigns. The session carries the
    // panel budget, so cached-stage rebuilds stay bounded too.
    let session = Arc::new(Session::new(SessionConfig {
        budget: budget.clone(),
        ..SessionConfig::default()
    }));
    let mut oracles: Vec<Box<dyn Oracle>> = vec![
        Box::new(SimOracle),
        Box::new(BddOracle),
        Box::new(CompactOracle::with_session(
            "min-s",
            Config {
                strategy: VhStrategy::MinSemiperimeter {
                    time_limit: Duration::from_secs(5),
                },
                ..Config::default()
            },
            Arc::clone(&session),
        )),
    ];
    for &gamma in gammas {
        oracles.push(Box::new(CompactOracle::with_session(
            format!("weighted γ={gamma}"),
            Config::gamma(gamma),
            Arc::clone(&session),
        )));
        oracles.push(Box::new(CompactOracle::with_session(
            format!("heuristic γ={gamma}"),
            Config {
                strategy: VhStrategy::Heuristic { gamma },
                ..Config::default()
            },
            Arc::clone(&session),
        )));
    }
    for backend in [
        Backend::parse("staircase").expect("shipped name"),
        Backend::parse("robdd-diagonal").expect("shipped name"),
        Backend::parse("magic-nor").expect("shipped name"),
        // A small tile so panel-sized networks actually split; generous
        // enough that any single output cone of a fuzz network fits.
        partitioned_with_tile(16, 16),
    ] {
        oracles.push(Box::new(
            BackendOracle::new(backend)
                .with_session(Arc::clone(&session))
                .with_budget(budget.clone()),
        ));
    }
    #[cfg(feature = "broken-oracle")]
    oracles.push(Box::new(BrokenXorOracle));
    oracles
}

/// Differential-check tuning.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Exhaustive assignment enumeration up to this many inputs.
    pub max_exhaustive_inputs: usize,
    /// Sampled assignments for wider networks.
    pub samples: usize,
    /// Also run the symbolic (all-assignments BDD) equivalence proof on the
    /// default-configuration design.
    pub symbolic: bool,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            max_exhaustive_inputs: 10,
            samples: 128,
            symbolic: true,
        }
    }
}

/// A conformance failure: two oracles produced different outputs (or an
/// oracle failed outright) on a concrete case.
#[derive(Debug, Clone)]
pub struct Disagreement {
    /// The first oracle of the disagreeing pair (the reference, for output
    /// mismatches).
    pub left: String,
    /// The second oracle of the pair.
    pub right: String,
    /// The witnessing input assignment (empty for oracle errors).
    pub assignment: Vec<bool>,
    /// `left`'s outputs on the witness.
    pub left_output: Vec<bool>,
    /// `right`'s outputs on the witness.
    pub right_output: Vec<bool>,
    /// Free-form provenance: error text, table-shape mismatch, etc.
    pub detail: String,
}

impl fmt::Display for Disagreement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bits =
            |v: &[bool]| -> String { v.iter().map(|&b| if b { '1' } else { '0' }).collect() };
        write!(
            f,
            "oracles `{}` and `{}` disagree on x={}: {} vs {}{}",
            self.left,
            self.right,
            bits(&self.assignment),
            bits(&self.left_output),
            bits(&self.right_output),
            if self.detail.is_empty() {
                String::new()
            } else {
                format!(" ({})", self.detail)
            }
        )
    }
}

/// What a clean differential check covered.
#[derive(Debug, Clone, Copy)]
pub struct CaseOutcome {
    /// Oracles that produced tables.
    pub oracles: usize,
    /// Assignments each table covered.
    pub assignments: usize,
    /// Whether the symbolic proof ran.
    pub symbolic: bool,
}

/// The assignment set a differential check uses for a `num_inputs`-input
/// network: exhaustive when feasible, otherwise `samples` deterministic
/// draws (seeded only by the input count, so identical networks always see
/// identical assignments).
pub fn assignments_for(num_inputs: usize, cfg: &DiffConfig) -> Vec<Vec<bool>> {
    if num_inputs <= cfg.max_exhaustive_inputs {
        (0..1usize << num_inputs)
            .map(|v| (0..num_inputs).map(|i| v >> i & 1 == 1).collect())
            .collect()
    } else {
        let mut state = 0x00C0_F012_u64 ^ ((num_inputs as u64) << 32);
        (0..cfg.samples.max(1))
            .map(|_| {
                (0..num_inputs)
                    .map(|_| splitmix64(&mut state) & 1 == 1)
                    .collect()
            })
            .collect()
    }
}

/// Runs `network` through every oracle and compares all tables against the
/// first (reference) oracle's. Table equality is transitive, so comparing
/// against the reference decides all pairs; the reported pair is the
/// reference plus the first deviating oracle, with the witnessing
/// assignment and both output rows.
///
/// # Errors
///
/// Returns the first [`Disagreement`] (boxed: it carries full provenance).
pub fn differential_check(
    network: &Network,
    oracles: &[Box<dyn Oracle>],
    cfg: &DiffConfig,
) -> Result<CaseOutcome, Box<Disagreement>> {
    assert!(!oracles.is_empty(), "at least the reference oracle needed");
    let assignments = assignments_for(network.num_inputs(), cfg);
    let reference_table = run_oracle(oracles[0].as_ref(), network, &assignments)?;
    for oracle in &oracles[1..] {
        let table = run_oracle(oracle.as_ref(), network, &assignments)?;
        if table.len() != reference_table.len() {
            return Err(Box::new(Disagreement {
                left: oracles[0].name(),
                right: oracle.name(),
                assignment: Vec::new(),
                left_output: Vec::new(),
                right_output: Vec::new(),
                detail: format!(
                    "table length mismatch: {} vs {} rows",
                    reference_table.len(),
                    table.len()
                ),
            }));
        }
        for (i, (want, got)) in reference_table.iter().zip(&table).enumerate() {
            if want != got {
                return Err(Box::new(Disagreement {
                    left: oracles[0].name(),
                    right: oracle.name(),
                    assignment: assignments[i].clone(),
                    left_output: want.clone(),
                    right_output: got.clone(),
                    detail: String::new(),
                }));
            }
        }
    }
    if cfg.symbolic {
        symbolic_check(network, &oracles[0].name())?;
    }
    Ok(CaseOutcome {
        oracles: oracles.len(),
        assignments: assignments.len(),
        symbolic: cfg.symbolic,
    })
}

fn run_oracle(
    oracle: &dyn Oracle,
    network: &Network,
    assignments: &[Vec<bool>],
) -> Result<Table, Box<Disagreement>> {
    oracle.table(network, assignments).map_err(|e| {
        Box::new(Disagreement {
            left: oracle.name(),
            right: "<error>".into(),
            assignment: Vec::new(),
            left_output: Vec::new(),
            right_output: Vec::new(),
            detail: e,
        })
    })
}

/// The symbolic arm: proves the default-configuration design equivalent to
/// the specification over *all* assignments (not just the sampled table).
fn symbolic_check(network: &Network, reference: &str) -> Result<(), Box<Disagreement>> {
    let design = synthesize(network, &Config::default()).map_err(|e| {
        Box::new(Disagreement {
            left: "compact(default)+symbolic".into(),
            right: "<error>".into(),
            assignment: Vec::new(),
            left_output: Vec::new(),
            right_output: Vec::new(),
            detail: e.to_string(),
        })
    })?;
    let report = verify_symbolic(&design.crossbar, network);
    if report.equivalent {
        return Ok(());
    }
    let assignment = report.first_counterexample().cloned().unwrap_or_default();
    let left_output = network.simulate(&assignment).unwrap_or_default();
    let right_output = design.crossbar.evaluate(&assignment).unwrap_or_default();
    Err(Box::new(Disagreement {
        left: reference.to_string(),
        right: "compact(default)+symbolic".into(),
        assignment,
        left_output,
        right_output,
        detail: "symbolic connectivity function differs from the specification BDD".into(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::NetworkGen;
    use crate::rng::Rng;

    #[test]
    fn shipped_oracles_agree_on_a_small_batch() {
        let oracles = shipped_oracles(&[0.5]);
        let shape = NetworkGen::new(4, 8);
        let cfg = DiffConfig::default();
        for seed in 0..6 {
            let net = shape.generate(&mut Rng::new(seed));
            #[cfg(not(feature = "broken-oracle"))]
            differential_check(&net, &oracles, &cfg).unwrap_or_else(|d| panic!("seed {seed}: {d}"));
            #[cfg(feature = "broken-oracle")]
            let _ = differential_check(&net, &oracles, &cfg);
        }
    }

    #[test]
    fn disagreement_display_shows_provenance() {
        let d = Disagreement {
            left: "sim".into(),
            right: "sbdd".into(),
            assignment: vec![true, false],
            left_output: vec![true],
            right_output: vec![false],
            detail: String::new(),
        };
        let text = d.to_string();
        assert!(text.contains("sim") && text.contains("sbdd"));
        assert!(text.contains("x=10"), "{text}");
    }

    #[cfg(feature = "broken-oracle")]
    #[test]
    fn broken_oracle_is_caught_on_an_xor_network() {
        use flowc_logic::{GateKind, Network};
        let mut n = Network::new("xor2");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let f = n.add_gate(GateKind::Xor, &[a, b], "f").unwrap();
        n.mark_output(f);
        let oracles = shipped_oracles(&[0.5]);
        let err = differential_check(&n, &oracles, &DiffConfig::default())
            .expect_err("the broken oracle must disagree on XOR");
        assert!(err.right.contains("broken"), "{err}");
    }

    #[test]
    fn exhaustive_vs_sampled_assignment_sets() {
        let cfg = DiffConfig::default();
        assert_eq!(assignments_for(3, &cfg).len(), 8);
        let wide = assignments_for(20, &cfg);
        assert_eq!(wide.len(), cfg.samples);
        assert!(wide.iter().all(|a| a.len() == 20));
        // Deterministic across calls.
        assert_eq!(wide, assignments_for(20, &cfg));
    }
}
