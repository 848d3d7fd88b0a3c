//! Backend-matrix integration tests: every [`Backend`] variant maps the
//! same fixed circuits through the one enum-dispatched `MappingBackend`
//! trait, each design's 64-lane evaluation matches simulation and its
//! sampled check is exhaustive and valid, and the
//! partitioned backend's tile schedule is differentially checked against
//! the monolithic COMPACT design. The CI backend-matrix smoke job runs
//! exactly this suite.

use std::time::{Duration, Instant};

use flowc::baselines::{
    partitioned_with_tile, Backend, BackendError, DesignArtifact, MappedDesign, MappingBackend,
    SynthesisCtx,
};
use flowc::budget::Budget;
use flowc::compact::constrained::{synthesize_constrained, ConstraintError, SizeLimits};
use flowc::compact::{CompactError, Config, Rung, VhStrategy};
use flowc::conform::oracle::{differential_check, BackendOracle, DiffConfig, Oracle};
use flowc::conform::Rng;
use flowc::logic::{bench_suite, blif, Network};
use flowc::xbar::DeviceAssignment;

/// A circuit small enough to fit a 16x16 tile monolithically.
fn small_circuit() -> Network {
    let text = std::fs::read_to_string("testdata/adder4.blif").expect("testdata/adder4.blif");
    blif::parse(&text).expect("adder4 parses")
}

/// A circuit whose joint SBDD cannot fit a 16x16 tile: the 8-input
/// 256-output decoder needs hundreds of rows monolithically.
fn large_circuit() -> Network {
    bench_suite::by_name("dec")
        .expect("dec benchmark")
        .network()
        .expect("dec builds")
}

fn ctx() -> SynthesisCtx<'static> {
    SynthesisCtx::default().with_budget(Budget::unlimited().with_deadline(Duration::from_secs(60)))
}

/// Every backend maps the small circuit and sample-verifies.
#[test]
fn every_backend_maps_the_small_circuit() {
    let network = small_circuit();
    for name in Backend::NAMES {
        let backend = Backend::parse(name).expect("listed names parse");
        let design = backend
            .synthesize(&network, &ctx())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(design.backend, *name);
        assert!(design.metrics.rows > 0, "{name}: empty design");
        check_design(name, &design, &network, 256);
    }
}

/// Seeded random lanes: the design's 64-lane evaluation equals the
/// network's; and the sampled check is valid and exhaustive (`2^k`
/// assignments, above `samples` when `k` is small).
fn check_design(name: &str, design: &MappedDesign, network: &Network, samples: usize) {
    let mut rng = Rng::new(0x64_1A4E5);
    for _ in 0..4 {
        let words: Vec<u64> = (0..network.num_inputs()).map(|_| rng.next()).collect();
        assert_eq!(
            design
                .evaluate64(&words)
                .unwrap_or_else(|e| panic!("{name}: {e}")),
            network.simulate64(&words).expect("arity matches"),
            "{name}: 64-lane evaluation disagrees with simulation"
        );
    }
    let report = design
        .verify(network, samples)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(report.is_valid(), "{name}: {report:?}");
    assert_eq!(report.checked, 1 << network.num_inputs(), "{name}");
}

/// Every backend maps the oversized circuit too; the partitioned backend
/// must actually split it, with per-tile bounds respected and transfer
/// accounting present.
#[test]
fn every_backend_maps_the_circuit_that_overflows_a_tile() {
    let network = large_circuit();
    for name in Backend::NAMES {
        let backend = match Backend::parse(name).expect("listed names parse") {
            Backend::Partitioned(_) => partitioned_with_tile(16, 16),
            other => other,
        };
        let design = backend
            .synthesize(&network, &ctx())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        check_design(name, &design, &network, 128);
        if let DesignArtifact::Tiled(schedule) = &design.artifact {
            assert!(
                schedule.tiles.len() > 1,
                "dec must not fit one 16x16 tile ({} tiles)",
                schedule.tiles.len()
            );
            for tile in &schedule.tiles {
                assert!(tile.crossbar.rows() <= 16 && tile.crossbar.cols() <= 16);
            }
            assert_eq!(design.metrics.tiles, schedule.tiles.len());
            assert!(
                design.metrics.transfer_ops > 0,
                "shared inputs re-broadcast"
            );
        }
    }
}

/// The sampled check sees through tiling: one tile of a partitioned
/// adder4 design with a cut input wordline computes constant 0, and
/// `MappedDesign::verify` reports the design invalid, naming assignments
/// on which it really differs from the circuit.
#[test]
fn a_broken_tile_fails_the_sampled_check() {
    let network = small_circuit();
    let mut design = partitioned_with_tile(16, 16)
        .synthesize(&network, &ctx())
        .expect("16x16 tiles fit adder4 cones");
    let DesignArtifact::Tiled(schedule) = &mut design.artifact else {
        panic!("partitioned backend must produce a tile schedule");
    };
    let tile = &mut schedule.tiles[0];
    let input_row = tile.crossbar.input_row().expect("tiles have an input port");
    for col in 0..tile.crossbar.cols() {
        tile.crossbar
            .set(input_row, col, DeviceAssignment::Off)
            .expect("in range");
    }
    let report = design.verify(&network, 256).expect("evaluable");
    assert!(!report.is_valid(), "a dead tile must be caught");
    assert_eq!(report.checked, 512);
    for witness in &report.mismatches {
        assert_ne!(
            design.evaluate(witness).expect("evaluable"),
            network.simulate(witness).expect("simulates"),
            "reported mismatch {witness:?} is not one"
        );
    }
}

/// Partitioned-vs-monolithic equivalence through the conformance
/// machinery: the tile schedule and the single-crossbar COMPACT design
/// are differential oracles over the same network, and must agree on
/// every checked assignment (exhaustively here — 9 inputs).
#[test]
fn partitioned_agrees_with_monolithic_compact_via_conform() {
    let network = small_circuit();
    let oracles: Vec<Box<dyn Oracle>> = vec![
        Box::new(BackendOracle::new(Backend::default())),
        // 16x16: the smallest power-of-two tile that holds adder4's
        // widest output cone (one cone alone needs S >= 21).
        Box::new(BackendOracle::new(partitioned_with_tile(16, 16))),
    ];
    let cfg = DiffConfig {
        max_exhaustive_inputs: 9,
        symbolic: false,
        ..DiffConfig::default()
    };
    differential_check(&network, &oracles, &cfg)
        .unwrap_or_else(|d| panic!("partitioned disagrees with compact: {d}"));
}

/// Constrained synthesis failures are typed, not panics: a provably
/// impossible tile reports `Infeasible` with the semiperimeter bound, a
/// merely-unreached tile reports `NotFound` with the best shape seen.
#[test]
fn constrained_synthesis_failures_are_typed() {
    let network = small_circuit();
    let limits = SizeLimits {
        max_rows: 1,
        max_cols: 1,
    };
    let budget = Budget::unlimited().with_deadline(Duration::from_secs(5));
    match synthesize_constrained(&network, limits, &budget) {
        Err(ConstraintError::Infeasible {
            semiperimeter_lower_bound,
            limits: reported,
        }) => {
            assert!(semiperimeter_lower_bound > 2);
            assert_eq!(reported, limits);
        }
        other => panic!("1x1 must be provably infeasible, got {other:?}"),
    }
}

/// The same typed infeasibility surfaces through the backend trait: a
/// partitioned backend whose tile cannot hold even one output cone
/// answers `BackendError::Infeasible`, and the feasible/infeasible edge
/// is sharp (the same network synthesizes on a tile one notch larger).
#[test]
fn partitioned_infeasibility_is_typed_through_the_trait() {
    let network = small_circuit();
    let backend = partitioned_with_tile(2, 2);
    match backend.synthesize(&network, &ctx()) {
        Err(BackendError::Infeasible(_)) => {}
        other => panic!("2x2 tiles must be typed-infeasible, got {other:?}"),
    }
    partitioned_with_tile(16, 16)
        .synthesize(&network, &ctx())
        .expect("16x16 tiles fit adder4 cones");
}

fn int2float() -> Network {
    bench_suite::by_name("int2float")
        .expect("int2float benchmark")
        .network()
        .expect("int2float builds")
}

/// A zero `--time-limit` reaches every solver layer of the per-output
/// flow, the dense LP included, through the capped budget: robdd-diagonal
/// on int2float finishes in well under the 14 s its root LPs once took,
/// and the design still verifies.
#[test]
fn robdd_diagonal_obeys_a_zero_time_limit() {
    let network = int2float();
    let config = Config {
        strategy: VhStrategy::entering(Rung::ExactMip, 0.5, Duration::ZERO),
        ..Config::default()
    };
    let start = Instant::now();
    let design = Backend::parse("robdd-diagonal")
        .expect("robdd-diagonal parses")
        .synthesize(&network, &SynthesisCtx::new(config))
        .expect("robdd-diagonal ships");
    let elapsed = start.elapsed();
    assert!(elapsed < Duration::from_secs(3), "took {elapsed:?}");
    check_design("robdd-diagonal", &design, &network, 256);
}

/// A job deadline that runs out during the per-output ladders ships a
/// valid design flagged `degraded`, as the compact backend does; an
/// already-expired deadline is no error either.
#[test]
fn robdd_diagonal_reports_an_exhausted_deadline_as_degraded() {
    let network = int2float();
    let backend = Backend::parse("robdd-diagonal").expect("robdd-diagonal parses");
    // The whole job takes about 60 ms in a release build, so 10 ms runs
    // out part-way through the ladders.
    for deadline in [Duration::from_millis(10), Duration::ZERO] {
        let ctx = SynthesisCtx::default().with_budget(Budget::unlimited().with_deadline(deadline));
        let start = Instant::now();
        let design = backend
            .synthesize(&network, &ctx)
            .unwrap_or_else(|e| panic!("deadline {deadline:?}: {e}"));
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "deadline {deadline:?}"
        );
        assert!(design.degraded, "deadline {deadline:?}");
        check_design("robdd-diagonal", &design, &network, 256);
    }
}

/// Every per-output ladder closes well inside a 10 s deadline: the root
/// LPs of int2float's per-output graphs take milliseconds, so the job
/// ships undegraded in under 5 s instead of running into the deadline.
#[test]
fn robdd_diagonal_closes_int2float_inside_its_deadline() {
    let network = int2float();
    let backend = Backend::parse("robdd-diagonal").expect("robdd-diagonal parses");
    let ctx = SynthesisCtx::default()
        .with_budget(Budget::unlimited().with_deadline(Duration::from_secs(10)));
    let start = Instant::now();
    let design = backend.synthesize(&network, &ctx).expect("int2float maps");
    let elapsed = start.elapsed();
    assert!(!design.degraded, "degraded after {elapsed:?}");
    assert!(elapsed < Duration::from_secs(5), "took {elapsed:?}");
    check_design("robdd-diagonal", &design, &network, 256);
}

fn cavlc() -> Network {
    bench_suite::by_name("cavlc")
        .expect("cavlc benchmark")
        .network()
        .expect("cavlc builds")
}

/// A deadline that passes while the partitioned backend packs its tiles
/// reaches each tile's ladder: the job ships a valid tile schedule
/// flagged `degraded` instead of failing, an already-expired deadline
/// included, and a cancel still stops it with the typed error.
#[test]
fn partitioned_reports_an_exhausted_deadline_as_degraded() {
    let network = cavlc();
    let backend = Backend::parse("partitioned").expect("partitioned parses");
    for deadline in [Duration::from_millis(200), Duration::ZERO] {
        let ctx = SynthesisCtx::default().with_budget(Budget::unlimited().with_deadline(deadline));
        let start = Instant::now();
        let design = backend
            .synthesize(&network, &ctx)
            .unwrap_or_else(|e| panic!("deadline {deadline:?}: {e}"));
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "deadline {deadline:?}"
        );
        assert!(design.degraded, "deadline {deadline:?}");
        assert!(design.metrics.tiles > 1, "cavlc overflows one 64x64 tile");
        check_design("partitioned", &design, &network, 256);
    }

    let cancelled = Budget::unlimited();
    cancelled.cancel_handle().cancel();
    match backend.synthesize(&network, &SynthesisCtx::default().with_budget(cancelled)) {
        Err(BackendError::Compact(CompactError::Cancelled)) => {}
        other => panic!("a cancel must stop the job, got {other:?}"),
    }

    // A cone that finds no fit once the budget is spent fails with the
    // budget's error, not as infeasible: more time might have found one.
    let spent =
        SynthesisCtx::default().with_budget(Budget::unlimited().with_deadline(Duration::ZERO));
    match partitioned_with_tile(3, 3).synthesize(&small_circuit(), &spent) {
        Err(BackendError::Budget(_)) => {}
        other => panic!("3x3 tiles on a spent budget must report it, got {other:?}"),
    }
}
