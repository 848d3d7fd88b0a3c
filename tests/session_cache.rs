//! Acceptance tests for the shared synthesis `Session` (DESIGN.md §11):
//! artifact-cache correctness across a γ sweep, batch-vs-sequential
//! determinism, cached-vs-cold equivalence, and the stage tally's sums.

use std::sync::Arc;
use std::time::Duration;

use flowc::compact::{
    gamma_sweep_tasks, synthesize, synthesize_batch, synthesize_in, Config, Session, SessionConfig,
    StageKind,
};
use flowc::logic::{bench_suite, GateKind, Network};

const GAMMAS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

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

/// The headline reuse property: a 5-point γ sweep through one session
/// performs exactly one BDD build and one graph extraction; every other
/// point is served from the cache.
#[test]
fn five_point_gamma_sweep_builds_the_bdd_once() {
    let network = fig2_network();
    let session = Session::default();
    for &gamma in &GAMMAS {
        synthesize_in(&session, &network, &Config::gamma(gamma)).unwrap();
    }
    let trace = session.trace();
    assert_eq!(trace.builds(StageKind::BddBuild), 1, "{}", trace.summary());
    assert_eq!(trace.hits(StageKind::BddBuild), GAMMAS.len() - 1);
    assert_eq!(trace.builds(StageKind::GraphExtract), 1);
    assert_eq!(trace.hits(StageKind::GraphExtract), GAMMAS.len() - 1);
    // Every point still ran its own labeling and mapping.
    assert_eq!(trace.builds(StageKind::VhLabel), GAMMAS.len());
    assert_eq!(trace.builds(StageKind::Map), GAMMAS.len());
    let cache = session.cache_stats();
    // One BDD artifact, one graph artifact, plus one cached labeling per γ
    // point (every point closes optimally on fig2, so each is stored).
    assert_eq!(cache.misses, 2 + GAMMAS.len(), "{}", trace.summary());
    assert_eq!(cache.hits, 2 * (GAMMAS.len() - 1));
}

/// Two γ points in the same session synthesize from byte-identical shared
/// artifacts, and each final crossbar matches what a cold (fresh-session)
/// synthesis of the same configuration produces.
#[test]
fn cached_results_match_cold_synthesis_across_seeds() {
    let network = fig2_network();
    let session = Session::default();
    for &gamma in &[0.0, 1.0] {
        let cached = synthesize_in(&session, &network, &Config::gamma(gamma)).unwrap();
        let cold = synthesize(&network, &Config::gamma(gamma)).unwrap();
        assert_eq!(
            cached.crossbar, cold.crossbar,
            "γ={gamma}: cached and cold designs diverge"
        );
        assert_eq!(cached.stats, cold.stats);
    }
    // Both γ points drew from the same cached BDD: one build, one hit.
    let trace = session.trace();
    assert_eq!(trace.builds(StageKind::BddBuild), 1, "{}", trace.summary());
    assert_eq!(trace.hits(StageKind::BddBuild), 1);
}

/// A parity chain over `width` inputs: a cheap, structurally distinct
/// network per width.
fn parity_chain(width: usize) -> Network {
    let mut n = Network::new(format!("parity{width}"));
    let inputs: Vec<_> = (0..width).map(|i| n.add_input(format!("x{i}"))).collect();
    let mut acc = inputs[0];
    for (i, &x) in inputs.iter().enumerate().skip(1) {
        acc = n
            .add_gate(GateKind::Xor, &[acc, x], format!("p{i}"))
            .unwrap();
    }
    n.mark_output(acc);
    n
}

/// The stage tally stays consistent over a long mixed workload: 200
/// `synthesize_in` calls over four networks and five γ values through one
/// session count one run per call in every stage, split each stage's runs
/// into builds and hits, and sum to the session's cache statistics.
#[test]
fn stage_tally_sums_match_cache_stats_over_two_hundred_calls() {
    const ROUNDS: usize = 10;
    let networks = [
        fig2_network(),
        parity_chain(3),
        parity_chain(4),
        parity_chain(5),
    ];
    let session = Session::new(SessionConfig {
        verify_samples: Some(16),
        ..SessionConfig::default()
    });
    let mut calls = 0;
    for _ in 0..ROUNDS {
        for network in &networks {
            for &gamma in &GAMMAS {
                synthesize_in(&session, network, &Config::gamma(gamma)).unwrap();
                calls += 1;
            }
        }
    }
    assert_eq!(calls, ROUNDS * networks.len() * GAMMAS.len());
    assert!(calls >= 200);

    let trace = session.trace();
    for kind in StageKind::all() {
        assert_eq!(trace.runs(kind), calls, "{kind}: {}", trace.summary());
        assert_eq!(trace.builds(kind) + trace.hits(kind), trace.runs(kind));
    }
    // Each network's BDD and graph are built once; every (network, γ)
    // labeling closes optimally, is stored, and serves the later rounds.
    assert_eq!(trace.builds(StageKind::BddBuild), networks.len());
    assert_eq!(trace.builds(StageKind::GraphExtract), networks.len());
    assert_eq!(
        trace.builds(StageKind::VhLabel),
        networks.len() * GAMMAS.len()
    );
    assert_eq!(trace.hits(StageKind::Map), 0, "mapping is never cached");

    let cache = session.cache_stats();
    let hits: usize = StageKind::all().into_iter().map(|k| trace.hits(k)).sum();
    assert_eq!(cache.hits, hits);
    assert_eq!(cache.hits, trace.cache_hits());
    assert_eq!(cache.misses, trace.cache_misses());
    assert_eq!(
        cache.misses,
        trace.builds(StageKind::BddBuild)
            + trace.builds(StageKind::GraphExtract)
            + trace.builds(StageKind::VhLabel),
        "every computed BDD, graph and labeling is a cache miss"
    );
    assert_eq!(cache.evicted, 0);
}

/// `synthesize_batch` at 4 threads returns results in task order and each
/// design is identical to the sequential (single-session, in-order) run.
#[test]
fn batch_at_four_threads_matches_sequential_order() {
    let b = bench_suite::by_name("ctrl").unwrap();
    let network = Arc::new(b.network().unwrap());
    let tasks = gamma_sweep_tasks(&network, &GAMMAS, Duration::from_secs(10));

    let sequential_session = Session::default();
    let sequential: Vec<_> = tasks
        .iter()
        .map(|t| synthesize_in(&sequential_session, &network, &t.config).unwrap())
        .collect();

    let batch_session = Session::default();
    let batched = synthesize_batch(&batch_session, &tasks, 4);
    assert_eq!(batched.len(), tasks.len());
    for (i, (seq, bat)) in sequential.iter().zip(&batched).enumerate() {
        let bat = bat
            .as_ref()
            .unwrap_or_else(|e| panic!("batched task {} ({}) failed: {e}", i, tasks[i].label));
        assert_eq!(
            seq.crossbar, bat.crossbar,
            "task {} ({}): batched design differs from sequential",
            i, tasks[i].label
        );
    }
    // Parallelism must not cost reuse: the batch still builds once.
    let trace = batch_session.trace();
    assert_eq!(trace.builds(StageKind::BddBuild), 1, "{}", trace.summary());
    assert_eq!(trace.builds(StageKind::GraphExtract), 1);
}

/// The cached sweep spends strictly less wall time in the BDD-build and
/// graph-extract stages than the cold sweep — the claim behind the
/// `results/BENCH_synthesis.json` artifact. Stage wall (not end-to-end
/// wall) is compared so the assertion is robust on loaded CI machines.
#[test]
fn cached_sweep_spends_less_stage_time_than_cold() {
    let b = bench_suite::by_name("int2float").unwrap();
    let network = b.network().unwrap();

    let mut cold_shared_stages = Duration::ZERO;
    for &gamma in &GAMMAS {
        let cold = Session::default();
        synthesize_in(&cold, &network, &Config::gamma(gamma)).unwrap();
        let t = cold.trace();
        cold_shared_stages +=
            t.total_wall(StageKind::BddBuild) + t.total_wall(StageKind::GraphExtract);
    }

    let cached = Session::default();
    for &gamma in &GAMMAS {
        synthesize_in(&cached, &network, &Config::gamma(gamma)).unwrap();
    }
    let t = cached.trace();
    let cached_shared_stages =
        t.total_wall(StageKind::BddBuild) + t.total_wall(StageKind::GraphExtract);

    assert!(
        cached_shared_stages < cold_shared_stages,
        "cached sweep must be cheaper on shared stages: cached {:?} vs cold {:?}",
        cached_shared_stages,
        cold_shared_stages
    );
}

// ---------------------------------------------------------------------------
// Cone-of-influence cache keys (compact::incremental)
// ---------------------------------------------------------------------------

/// A no-op edit — removing a gate and re-inserting it identically — must
/// leave the combined cone key byte-stable, so the incremental cache
/// can't silently over-invalidate on edits that change nothing.
#[test]
fn cone_key_is_stable_across_a_noop_edit() {
    use flowc::compact::{EditableNetlist, NetlistEdit};

    let mut nl = EditableNetlist::from_network(&fig2_network());
    let key = nl.combined_cone_key();
    let cones = nl.output_cone_hashes();

    // Add a dead gate, then re-insert an identical copy under another
    // name: neither touches any output cone.
    nl.apply(&NetlistEdit::AddGate {
        name: "spare".into(),
        kind: GateKind::Xor,
        inputs: vec!["a".into(), "c".into()],
    })
    .unwrap();
    assert_eq!(nl.combined_cone_key(), key, "dead insert changed the key");
    nl.apply(&NetlistEdit::RemoveGate {
        name: "spare".into(),
    })
    .unwrap();
    nl.apply(&NetlistEdit::AddGate {
        name: "spare2".into(),
        kind: GateKind::Xor,
        inputs: vec!["a".into(), "c".into()],
    })
    .unwrap();
    assert_eq!(
        nl.combined_cone_key(),
        key,
        "identical re-insert changed the key"
    );
    assert_eq!(nl.output_cone_hashes(), cones);

    // Re-inserting a *live* cone identically is also a no-op: retarget
    // the output at an identical duplicate of its driver.
    nl.apply(&NetlistEdit::AddGate {
        name: "f2".into(),
        kind: GateKind::Or,
        inputs: vec!["ab".into(), "c".into()],
    })
    .unwrap();
    nl.apply(&NetlistEdit::RetargetOutput {
        index: 0,
        target: "f2".into(),
    })
    .unwrap();
    assert_eq!(
        nl.combined_cone_key(),
        key,
        "identical duplicate cone changed the key"
    );
}

/// A live edit moves only the affected output's cone hash; untouched
/// outputs keep theirs, so invalidation is exactly per-cone.
#[test]
fn live_edits_invalidate_exactly_the_affected_cones() {
    use flowc::compact::{EditableNetlist, NetlistEdit};

    let mut n = Network::new("two-cones");
    let a = n.add_input("a");
    let b = n.add_input("b");
    let c = n.add_input("c");
    let f = n.add_gate(GateKind::And, &[a, b], "f").unwrap();
    let g = n.add_gate(GateKind::Or, &[b, c], "g").unwrap();
    n.mark_output(f);
    n.mark_output(g);

    let mut nl = EditableNetlist::from_network(&n);
    let cones = nl.output_cone_hashes();
    nl.apply(&NetlistEdit::RewireInput {
        gate: "g".into(),
        pin: 1,
        source: "a".into(),
    })
    .unwrap();
    let after = nl.output_cone_hashes();
    assert_eq!(after[0], cones[0], "untouched cone was invalidated");
    assert_ne!(after[1], cones[1], "edited cone kept its hash");
    assert_ne!(nl.combined_cone_key(), {
        let fresh = EditableNetlist::from_network(&n);
        fresh.combined_cone_key()
    });
}

/// The `EditSession` resolves a no-op edit as a cache hit — no new BDD
/// build, no new solve — proving the cone key actually gates the
/// artifact pipeline.
#[test]
fn edit_session_serves_noop_edits_from_cache() {
    use flowc::compact::{EditResolution, EditSession, EditSessionConfig, NetlistEdit};

    let mut session = EditSession::new(&fig2_network(), EditSessionConfig::default()).unwrap();
    let builds_before = session.session().trace().builds(StageKind::BddBuild);
    let out = session
        .apply(&NetlistEdit::AddGate {
            name: "spare".into(),
            kind: GateKind::Nand,
            inputs: vec!["a".into(), "b".into()],
        })
        .unwrap();
    assert_eq!(out.resolution, EditResolution::Hit);
    assert_eq!(
        session.session().trace().builds(StageKind::BddBuild),
        builds_before,
        "a no-op edit rebuilt the BDD"
    );
    assert_eq!(session.stats().hits, 1);
    assert_eq!(session.stats().cold_solves, 0);
}
