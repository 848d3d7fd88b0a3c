//! The staged pipeline's passes: each COMPACT stage as a uniform unit of
//! work over a shared [`Session`].
//!
//! Every pass has the shape `run(&self, &Session, input) -> Result<Output>`
//! (the issue's `&mut Session` relaxed to `&Session` — session state is
//! behind interior mutability so [`crate::session::synthesize_batch`]
//! workers can share one session), counts its run, wall clock and cache
//! outcome in the session's stage tally, and checks or forwards the
//! budget. Cacheable passes ([`BddBuildPass`], [`GraphExtractPass`]) probe
//! the session's content-addressed artifact store first and publish their
//! output behind an [`Arc`].
//!
//! The VH-labeling and mapping stages are driven together by
//! [`LadderPass`]: the degradation ladder interleaves them (a labeling
//! that cannot be mapped sends the supervisor down a rung), so they cannot
//! be sequenced as independent passes — but the pass still counts
//! *separate* [`StageKind::VhLabel`] and [`StageKind::Map`] runs from the
//! per-stage walls the ladder measures.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use flowc_bdd::{try_build_sbdd, NetworkBdds};
use flowc_budget::Budget;
use flowc_logic::Network;
use flowc_xbar::verify::verify_functional;
use flowc_xbar::Crossbar;

use crate::mapping::map_to_crossbar;
use crate::pipeline::{CompactError, Config};
use crate::preprocess::BddGraph;
use crate::session::{
    bdd_key, graph_key, label_key, ArtifactKey, CacheOutcome, Claim, LabelArtifact, Session,
    StageKind,
};
use crate::supervisor::{
    ladder, panic_message, run_ladder, LadderOutcome, Rung, StageAttempt, Trigger,
};
use flowc_budget::Stopwatch;
use flowc_xbar::metrics::CrossbarMetrics;

/// A pipeline stage: deterministic work over a shared [`Session`].
///
/// `run` uses the session budget; [`Pass::run_with_budget`] lets batch
/// workers substitute a per-task slice while still sharing the session's
/// cache and stage tally.
pub trait Pass<I> {
    /// What the pass produces.
    type Output;

    /// Runs the stage under an explicit budget.
    ///
    /// # Errors
    ///
    /// [`CompactError`] on internal failure; budget exhaustion degrades
    /// inside the stage where the stage supports it.
    fn run_with_budget(
        &self,
        session: &Session,
        input: I,
        budget: &Budget,
    ) -> Result<Self::Output, CompactError>;

    /// Runs the stage under the session budget.
    ///
    /// # Errors
    ///
    /// See [`Pass::run_with_budget`].
    fn run(&self, session: &Session, input: I) -> Result<Self::Output, CompactError> {
        self.run_with_budget(session, input, session.budget())
    }
}

/// Output of [`NormalizePass`].
#[derive(Debug, Clone)]
pub struct NormalizeOutput {
    /// Primary-output names in output order (mapping wants them).
    pub output_names: Vec<String>,
    /// The network's structural content hash (the root of every
    /// downstream artifact key).
    pub network_key: ArtifactKey,
}

/// Stage 1: netlist validation and artifact-key derivation.
pub struct NormalizePass;

impl Pass<&Network> for NormalizePass {
    type Output = NormalizeOutput;

    fn run_with_budget(
        &self,
        session: &Session,
        network: &Network,
        _budget: &Budget,
    ) -> Result<NormalizeOutput, CompactError> {
        let sw = session.budget().stopwatch();
        network.validate().map_err(CompactError::InvalidNetwork)?;
        let output_names = network
            .outputs()
            .iter()
            .map(|&o| network.net_name(o).to_string())
            .collect();
        let key = ArtifactKey(network.content_hash());
        session.record(StageKind::Normalize, sw.elapsed(), CacheOutcome::Uncached);
        Ok(NormalizeOutput {
            output_names,
            network_key: key,
        })
    }
}

/// Output of [`BddBuildPass`]: the shared-BDD artifact plus the build
/// provenance the degradation report needs.
#[derive(Debug)]
pub struct BddArtifact {
    /// The (S)BDD forest, shared through the session cache.
    pub bdds: Arc<NetworkBdds>,
    /// The artifact key (network content hash + variable order).
    pub key: ArtifactKey,
    /// Whether the budgeted build failed and an unbudgeted rebuild ran.
    pub budget_lifted: bool,
    /// Wall-clock time of this stage (≈0 on a cache hit).
    pub wall: std::time::Duration,
    /// Why the budgeted build was abandoned, when it was.
    pub lift_trigger: Option<Trigger>,
}

/// Stage 2: budgeted shared-BDD construction with the supervisor's
/// lift-and-rebuild recovery, served from the artifact cache when the
/// same network + variable order was already built in this session.
pub struct BddBuildPass;

impl Pass<(&Network, Option<&[usize]>)> for BddBuildPass {
    type Output = BddArtifact;

    fn run_with_budget(
        &self,
        session: &Session,
        (network, var_order): (&Network, Option<&[usize]>),
        budget: &Budget,
    ) -> Result<BddArtifact, CompactError> {
        let sw = session.budget().stopwatch();
        let key = bdd_key(network, var_order);
        // Single-flight claim: either the artifact is ready (cached, or a
        // sibling thread just published it while we waited) or this thread
        // owns the build; the ticket releases the claim even on unwind.
        let ticket = match session.claim_bdd(key) {
            Claim::Ready(bdds) => {
                let wall = sw.elapsed();
                session.record(StageKind::BddBuild, wall, CacheOutcome::Hit);
                return Ok(BddArtifact {
                    bdds,
                    key,
                    budget_lifted: false,
                    wall,
                    lift_trigger: None,
                });
            }
            Claim::Build(ticket) => ticket,
        };
        let mut budget_lifted = false;
        let mut lift_trigger: Option<Trigger> = None;
        let first = catch_unwind(AssertUnwindSafe(|| {
            flowc_failpoint::fire("compact.bdd");
            try_build_sbdd(network, var_order, budget)
        }));
        let bdds = match first {
            Ok(Ok(b)) => b,
            // An explicit cancellation means *stop now* — lifting the
            // budget here would start an unbounded rebuild the client
            // just asked to abort. Deadline/node exhaustion still lifts
            // (shipping a degraded design beats shipping nothing).
            Ok(Err(flowc_budget::BudgetExceeded::Cancelled)) => {
                return Err(CompactError::Cancelled)
            }
            other => {
                // No downstream stage can run without a BDD: lift the
                // budget and rebuild.
                lift_trigger = Some(match other {
                    Ok(Err(e)) => Trigger::Budget(e),
                    Err(p) => Trigger::Panicked(panic_message(p)),
                    Ok(Ok(_)) => unreachable!("handled above"),
                });
                budget_lifted = true;
                match catch_unwind(AssertUnwindSafe(|| {
                    try_build_sbdd(network, var_order, &Budget::unlimited())
                })) {
                    Ok(Ok(b)) => b,
                    Ok(Err(e)) => {
                        return Err(CompactError::Panicked {
                            stage: "bdd-build",
                            message: format!("unbudgeted rebuild reported exhaustion: {e}"),
                        })
                    }
                    Err(p) => {
                        return Err(CompactError::Panicked {
                            stage: "bdd-build",
                            message: panic_message(p),
                        })
                    }
                }
            }
        };
        let bdds = Arc::new(bdds);
        session.store_bdd(key, Arc::clone(&bdds));
        drop(ticket); // publish before waking claim waiters
        let wall = sw.elapsed();
        session.record(StageKind::BddBuild, wall, CacheOutcome::Miss);
        Ok(BddArtifact {
            bdds,
            key,
            budget_lifted,
            wall,
            lift_trigger,
        })
    }
}

/// Stage 3: BDD → undirected-graph extraction (drop the 0-terminal, keep
/// literal-labeled edges), keyed off the BDD artifact so a γ sweep
/// extracts once.
pub struct GraphExtractPass;

impl Pass<(&Arc<NetworkBdds>, ArtifactKey)> for GraphExtractPass {
    type Output = Arc<BddGraph>;

    fn run_with_budget(
        &self,
        session: &Session,
        (bdds, bdd_key): (&Arc<NetworkBdds>, ArtifactKey),
        _budget: &Budget,
    ) -> Result<Arc<BddGraph>, CompactError> {
        let sw = session.budget().stopwatch();
        let key = graph_key(bdd_key);
        let ticket = match session.claim_graph(key) {
            Claim::Ready(graph) => {
                session.record(StageKind::GraphExtract, sw.elapsed(), CacheOutcome::Hit);
                return Ok(graph);
            }
            Claim::Build(ticket) => ticket,
        };
        let graph = Arc::new(BddGraph::from_bdds(bdds));
        session.store_graph(key, Arc::clone(&graph));
        drop(ticket); // publish before waking claim waiters
        session.record(StageKind::GraphExtract, sw.elapsed(), CacheOutcome::Miss);
        Ok(graph)
    }
}

/// Stages 4–5: the supervised VH-labeling degradation ladder plus crossbar
/// mapping. One pass because the ladder interleaves them; counts separate
/// [`StageKind::VhLabel`] and [`StageKind::Map`] runs.
///
/// Labeling artifacts are cached under [`label_key`] when the outcome is
/// budget-independent (proven optimal, or a deterministic heuristic
/// strategy): a repeated sweep over the same graph and strategy maps a
/// cached labeling instead of re-running the solver. Exact solves over a
/// graph the session has already labeled (at any γ) are seeded with the
/// previous labeling as a branch & bound warm start.
pub struct LadderPass<'c> {
    /// The synthesis configuration (strategy, alignment).
    pub config: &'c Config,
}

impl<'c> LadderPass<'c> {
    /// Ships a cache-served labeling: re-map it (mapping is cheap and
    /// uncached) and reconstruct a [`LadderOutcome`] with zero label wall.
    fn ship_cached(
        &self,
        session: &Session,
        graph: &BddGraph,
        names: &[String],
        budget: &Budget,
        artifact: &LabelArtifact,
    ) -> Result<LadderOutcome, CompactError> {
        session.record_label(
            std::time::Duration::ZERO,
            CacheOutcome::Hit,
            0,
            artifact.relative_gap,
            None,
        );
        let map_sw = Stopwatch::unbudgeted();
        let crossbar =
            map_to_crossbar(graph, &artifact.labeling, names).map_err(CompactError::Map)?;
        let map_wall = map_sw.elapsed();
        let metrics = CrossbarMetrics::of(&crossbar);
        session.record(StageKind::Map, map_wall, CacheOutcome::Uncached);
        Ok(LadderOutcome {
            crossbar,
            labeling: artifact.labeling.clone(),
            metrics,
            rung: artifact.rung,
            degraded: false,
            optimal: artifact.optimal,
            relative_gap: artifact.relative_gap,
            trace: None,
            attempts: vec![StageAttempt {
                rung: artifact.rung,
                wall: std::time::Duration::ZERO,
                trigger: None,
            }],
            exhausted: budget.check().err(),
            label_wall: std::time::Duration::ZERO,
            map_wall,
            solver_nodes: 0,
            warm_start: None,
            from_cache: true,
            oct: None,
        })
    }
}

impl<'c> Pass<(&BddGraph, ArtifactKey, &[String], Option<Trigger>)> for LadderPass<'c> {
    type Output = LadderOutcome;

    fn run_with_budget(
        &self,
        session: &Session,
        (graph, graph_key, names, bdd_trigger): (
            &BddGraph,
            ArtifactKey,
            &[String],
            Option<Trigger>,
        ),
        budget: &Budget,
    ) -> Result<LadderOutcome, CompactError> {
        let key = label_key(graph_key, self.config);
        // Single-flight claim: if a sibling is solving the same point we
        // wait it out; if its outcome was not cacheable, we solve too.
        let ticket = match session.claim_label(key) {
            Claim::Ready(artifact) => {
                return self.ship_cached(session, graph, names, budget, &artifact)
            }
            Claim::Build(ticket) => ticket,
        };
        let warm = session.warm_hint(graph_key);
        let oct_hint = session.oct_hint(graph_key);
        let outcome = run_ladder(
            graph,
            self.config,
            budget,
            names,
            bdd_trigger,
            warm.as_ref(),
            oct_hint.as_deref(),
        )?;
        // Publish budget-independent outcomes: proven optimal, or shipped
        // by a deterministic strategy's own first rung (no solver, no
        // clock). A rung the ladder fell to is never published: a cache
        // hit ships as not degraded.
        let deterministic = matches!(outcome.rung, Rung::HeuristicOct | Rung::AllVh)
            && outcome.rung == ladder(&self.config.strategy)[0];
        let cacheable = outcome.optimal || deterministic;
        if cacheable {
            session.store_label(
                key,
                Arc::new(LabelArtifact {
                    labeling: outcome.labeling.clone(),
                    optimal: outcome.optimal,
                    relative_gap: outcome.relative_gap,
                    rung: outcome.rung,
                }),
            );
        }
        drop(ticket); // publish (or release) before waking claim waiters

        // Any shipped labeling seeds later solves over this graph; a fresh
        // proven-optimal OCT (γ-independent) serves every later sweep point.
        session.offer_warm_hint(graph_key, outcome.labeling.clone());
        if let Some(oct) = &outcome.oct {
            session.offer_oct_hint(graph_key, Arc::new(oct.clone()));
        }
        session.record_label(
            outcome.label_wall,
            if cacheable {
                CacheOutcome::Miss
            } else {
                CacheOutcome::Uncached
            },
            outcome.solver_nodes,
            outcome.relative_gap,
            outcome.warm_start,
        );
        session.record(StageKind::Map, outcome.map_wall, CacheOutcome::Uncached);
        Ok(outcome)
    }
}

/// Stage 6 (opt-in via [`crate::session::SessionConfig::verify_samples`]):
/// functional verification of the mapped crossbar against the source
/// network.
pub struct VerifyPass {
    /// Assignments to check (exhaustive when the input count is small).
    pub samples: usize,
}

impl Pass<(&Crossbar, &Network)> for VerifyPass {
    type Output = ();

    fn run_with_budget(
        &self,
        session: &Session,
        (crossbar, network): (&Crossbar, &Network),
        _budget: &Budget,
    ) -> Result<(), CompactError> {
        let sw = session.budget().stopwatch();
        // Deliberately unbudgeted: a degraded-but-valid design must not
        // turn into an error because the budget ran out before the check.
        let report =
            verify_functional(crossbar, network, self.samples).map_err(CompactError::Verify)?;
        session.record(StageKind::Verify, sw.elapsed(), CacheOutcome::Uncached);
        if !report.is_valid() {
            return Err(CompactError::Mismatch {
                mismatches: report.mismatches.len(),
                checked: report.checked,
            });
        }
        Ok(())
    }
}
