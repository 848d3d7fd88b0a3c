//! Session/batch synthesis benchmark: cold per-point synthesis vs a γ
//! sweep through one shared [`Session`] (DESIGN.md §11).
//!
//! ```text
//! bench_synthesis [--benchmarks n1,n2,...] [--gammas g1,g2,...]
//!                 [--threads N] [--out PATH] [--baseline PATH]
//!                 [--edits N] [--edit-benchmark NAME]
//!                 [--backends b1,b2,...]
//! ```
//!
//! For each benchmark the sweep runs twice: *cold* (a fresh session per γ
//! point, so every point rebuilds the BDD and graph) and *cached* (one
//! session + [`flowc_compact::synthesize_batch`], so the whole sweep
//! performs one BDD build and one graph extraction). Per-stage timings,
//! cache hit rates, and the cold/cached walls land atomically in
//! `results/BENCH_synthesis.json` (or `--out`). Exits non-zero on any
//! failed synthesis, if a cached sweep recomputes a shared artifact, or
//! if any benchmark's cold/cached speedup drops below 1.0 (the cached
//! sweep must never lose to cold re-synthesis).
//!
//! With `--baseline PATH` the run is additionally diffed against a
//! committed result file: the cached sweep's `vh-label` wall must not
//! regress more than 20% (plus a 250ms noise floor, so sub-second walls
//! don't flake CI on timer jitter).
//!
//! The run closes with an *edit-replay* benchmark (DESIGN.md §15): a
//! fixed-seed stream of `--edits` netlist edits against one benchmark,
//! replayed through an [`EditSession`] and, separately, as a fresh cold
//! synthesis after every edit. The incremental contract is gated: the
//! session must beat per-edit cold re-synthesis by ≥3× wall-clock with
//! more than half the edits resolved above the cold rung (cache hit,
//! permutation repair, or warm start). Each side's wall time is the median
//! of three replays, alternating which side runs first; the row records
//! every replay. `--edits 0` skips the replay.
//!
//! A *backend comparison* closes each run: every mapping backend named in
//! `--backends` (default: all of them) synthesizes each benchmark once
//! through the unified [`flowc_baselines::Backend`] dispatch, each design
//! is sample-verified, and the per-backend shapes (rows, cols, S, tiles,
//! transfer ops, wall) land under `"backends"` in the result file. A
//! proven-infeasible request (a cone that no 12x12 tile can hold) is that
//! row's outcome, recorded with its proven semiperimeter bound; every
//! other synthesis error and every verification failure fails the run.
//! `--backends ""` skips the comparison.

use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

use flowc_baselines::{partitioned_with_tile, Backend, BackendError, MappingBackend, SynthesisCtx};
use flowc_bench::report::{self, Json};
use flowc_bench::{build_network, time_limit};
use flowc_budget::{Budget, Stopwatch};
use flowc_compact::{
    gamma_sweep_tasks, synthesize_batch, synthesize_in_budgeted, Config, ConstraintError,
    EditSession, EditSessionConfig, EditableNetlist, Session, StageKind, StageTrace,
};
use flowc_conform::{EditStreamGen, Rng};
use flowc_logic::bench_suite;

/// Fixed seed for the edit-replay stream: the same edits every run, so
/// the ≥3× gate measures the repair ladder, not generator luck.
const EDIT_REPLAY_SEED: u64 = 0xED17_57A6;

/// Replays per side of the edit-replay gate; each side's wall time is the
/// median.
const REPLAY_ROUNDS: usize = 3;

struct Options {
    benchmarks: Vec<String>,
    gammas: Vec<f64>,
    threads: usize,
    out: std::path::PathBuf,
    baseline: Option<std::path::PathBuf>,
    edits: usize,
    edit_benchmark: String,
    backends: Vec<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_synthesis [--benchmarks n1,n2,...] [--gammas g1,g2,...] \
         [--threads N] [--out PATH] [--baseline PATH] \
         [--edits N] [--edit-benchmark NAME] [--backends b1,b2,...]"
    );
    exit(1);
}

fn parse_options() -> Options {
    let mut opts = Options {
        // The small exactly-solved circuits: big enough that a BDD build
        // is measurable, small enough for a CI smoke step.
        benchmarks: vec!["ctrl".into(), "int2float".into(), "router".into()],
        gammas: vec![0.0, 0.25, 0.5, 0.75, 1.0],
        threads: 4,
        out: std::path::PathBuf::from("results/BENCH_synthesis.json"),
        baseline: None,
        edits: 50,
        edit_benchmark: "int2float".into(),
        backends: Backend::NAMES.iter().map(|&n| n.to_string()).collect(),
    };
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            usage()
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--benchmarks" => {
                opts.benchmarks = value(&mut args, "--benchmarks")
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if opts.benchmarks.is_empty() {
                    usage();
                }
            }
            "--gammas" => {
                opts.gammas = value(&mut args, "--gammas")
                    .split(',')
                    .map(|s| s.trim().parse::<f64>().unwrap_or_else(|_| usage()))
                    .collect();
                if opts.gammas.is_empty() {
                    usage();
                }
            }
            "--threads" => {
                opts.threads = value(&mut args, "--threads")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--out" => opts.out = value(&mut args, "--out").into(),
            "--baseline" => opts.baseline = Some(value(&mut args, "--baseline").into()),
            "--edits" => {
                opts.edits = value(&mut args, "--edits")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--edit-benchmark" => opts.edit_benchmark = value(&mut args, "--edit-benchmark"),
            "--backends" => {
                opts.backends = value(&mut args, "--backends")
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    opts
}

/// The cached sweep's `vh-label` wall for `benchmark` in a previously
/// written result file, if the file records one.
fn baseline_label_wall(baseline: &Json, benchmark: &str) -> Option<f64> {
    baseline
        .get("benchmarks")?
        .as_arr()?
        .iter()
        .find(|row| row.get("benchmark").and_then(Json::as_str) == Some(benchmark))?
        .get("stages")?
        .as_arr()?
        .iter()
        .find(|s| s.get("stage").and_then(Json::as_str) == Some("vh-label"))?
        .get("wall_s")?
        .as_f64()
}

fn stage_json(trace: &StageTrace) -> Json {
    Json::Arr(
        StageKind::all()
            .iter()
            .filter(|&&k| trace.runs(k) > 0)
            .map(|&k| {
                Json::Obj(vec![
                    ("stage".into(), Json::str(k.name())),
                    ("runs".into(), Json::int(trace.runs(k))),
                    ("builds".into(), Json::int(trace.builds(k))),
                    ("hits".into(), Json::int(trace.hits(k))),
                    (
                        "wall_s".into(),
                        Json::Num(trace.total_wall(k).as_secs_f64()),
                    ),
                ])
            })
            .collect(),
    )
}

/// The edit-replay benchmark: a fixed-seed stream of edits against one
/// benchmark circuit, replayed twice — once through a single
/// [`EditSession`] (the repair ladder carries state across edits), once
/// as a fresh cold synthesis of the materialized netlist after every
/// edit. Every solve runs under the per-point time budget, so a stream
/// that lands on a pathological netlist fails loudly instead of hanging
/// the harness. Returns the result row and whether a gate failed.
fn edit_replay(opts: &Options, budget: Duration) -> (Json, bool) {
    let Some(b) = bench_suite::by_name(&opts.edit_benchmark) else {
        eprintln!("unknown edit-replay benchmark {:?}", opts.edit_benchmark);
        exit(1);
    };
    let base = build_network(&b);
    let gen = EditStreamGen {
        edits: opts.edits,
        ..EditStreamGen::default()
    };
    let mut rng = Rng::new(EDIT_REPLAY_SEED);
    let case = gen.replay_for(base, &mut rng);
    let config = Config::default();
    let mut failed = false;

    // Incremental: one session carries the whole stream.
    let mut replay_incremental = || {
        let sw = Stopwatch::unbudgeted();
        let mut session = match EditSession::new(
            &case.base,
            EditSessionConfig {
                synthesis: config.clone(),
                ..EditSessionConfig::default()
            },
        ) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{}: edit-replay base synthesis failed: {e}", b.name);
                exit(1);
            }
        };
        for edit in &case.edits {
            let per_edit = Budget::unlimited().with_deadline(budget);
            if let Err(e) = session.apply_budgeted(edit, &per_edit) {
                eprintln!("{}: edit replay refused `{edit}`: {e}", b.name);
                failed = true;
            }
        }
        (sw.elapsed(), session.stats())
    };

    // Cold: a from-scratch synthesis of the materialized netlist after
    // every edit — what a caller without the session would pay.
    let mut cold_failed = false;
    let mut replay_cold = || {
        let sw = Stopwatch::unbudgeted();
        let mut shadow = EditableNetlist::from_network(&case.base);
        let cold_solve = |net: &flowc_logic::Network| {
            let per_edit = Budget::unlimited().with_deadline(budget);
            synthesize_in_budgeted(&Session::default(), net, &config, &per_edit)
                .map_err(|e| e.to_string())
        };
        if let Err(e) = cold_solve(&case.base) {
            eprintln!("{}: cold base synthesis failed: {e}", b.name);
            cold_failed = true;
        }
        for edit in &case.edits {
            if shadow.apply(edit).is_err() {
                continue; // the session refused it too (counted above)
            }
            let result = shadow
                .materialize()
                .map_err(|e| e.to_string())
                .and_then(|net| cold_solve(&net));
            if let Err(e) = result {
                eprintln!("{}: cold synthesis after `{edit}` failed: {e}", b.name);
                cold_failed = true;
            }
        }
        sw.elapsed()
    };

    // One replay of each side sits inside run-to-run noise, so each side
    // is the median of REPLAY_ROUNDS replays, alternating which runs first.
    let mut inc_runs = Vec::with_capacity(REPLAY_ROUNDS);
    let mut cold_runs = Vec::with_capacity(REPLAY_ROUNDS);
    let mut first_stats = None;
    for round in 0..REPLAY_ROUNDS {
        if round % 2 == 1 {
            cold_runs.push(replay_cold());
        }
        let (wall, stats) = replay_incremental();
        inc_runs.push(wall);
        first_stats.get_or_insert(stats);
        if round % 2 == 0 {
            cold_runs.push(replay_cold());
        }
    }
    let stats = first_stats.expect("at least one replay");
    failed |= cold_failed;
    let median = |runs: &[Duration]| {
        let mut sorted = runs.to_vec();
        sorted.sort_unstable();
        sorted[sorted.len() / 2]
    };
    let (inc_wall, cold_wall) = (median(&inc_runs), median(&cold_runs));
    let secs =
        |runs: &[Duration]| Json::Arr(runs.iter().map(|d| Json::Num(d.as_secs_f64())).collect());

    let resolved = stats.hits + stats.repairs + stats.warm_starts;
    let speedup = cold_wall.as_secs_f64() / inc_wall.as_secs_f64().max(1e-9);
    println!(
        "edit-replay {:<11} {} edits: incremental {:>8.3}s vs cold {:>8.3}s \
         (speedup {speedup:.2}) — {} hit / {} repaired / {} warm / {} cold",
        b.name,
        case.edits.len(),
        inc_wall.as_secs_f64(),
        cold_wall.as_secs_f64(),
        stats.hits,
        stats.repairs,
        stats.warm_starts,
        stats.cold_solves,
    );
    if speedup < 3.0 {
        eprintln!(
            "{}: edit replay speedup below the 3x gate ({:.3}s incremental vs {:.3}s cold, {speedup:.2}x)",
            b.name,
            inc_wall.as_secs_f64(),
            cold_wall.as_secs_f64()
        );
        failed = true;
    }
    if resolved * 2 <= case.edits.len() {
        eprintln!(
            "{}: only {resolved}/{} edits resolved above the cold rung",
            b.name,
            case.edits.len()
        );
        failed = true;
    }
    let row = Json::Obj(vec![
        ("benchmark".into(), Json::str(b.name)),
        ("seed".into(), Json::Num(EDIT_REPLAY_SEED as f64)),
        ("edits".into(), Json::int(case.edits.len())),
        (
            "incremental_wall_s".into(),
            Json::Num(inc_wall.as_secs_f64()),
        ),
        ("cold_wall_s".into(), Json::Num(cold_wall.as_secs_f64())),
        ("incremental_runs_s".into(), secs(&inc_runs)),
        ("cold_runs_s".into(), secs(&cold_runs)),
        ("speedup".into(), Json::Num(speedup)),
        ("hits".into(), Json::int(stats.hits)),
        ("repairs".into(), Json::int(stats.repairs)),
        ("warm_starts".into(), Json::int(stats.warm_starts)),
        ("cold_solves".into(), Json::int(stats.cold_solves)),
        (
            "outputs_invalidated".into(),
            Json::int(stats.outputs_invalidated),
        ),
    ]);
    (row, failed)
}

/// The backend comparison: each named backend maps every benchmark once
/// through the unified enum dispatch, the design is sample-verified, and
/// the per-backend shape lands in one row. A proven `Infeasible` answer is
/// the row's outcome, not a failure: the request cannot be met, and the
/// row keeps the proven bound. Returns the rows and whether any other
/// synthesis error or any verification failed.
fn backend_comparison(opts: &Options, budget: Duration) -> (Json, bool) {
    let mut rows = Vec::new();
    let mut failed = false;
    for name in &opts.backends {
        let backend = match Backend::parse(name) {
            // A 12x12 tile (not the 64x64 default) so the comparison
            // benchmarks, which all fit one 64x64 array, actually tile.
            Ok(Backend::Partitioned(_)) => partitioned_with_tile(12, 12),
            Ok(b) => b,
            Err(e) => {
                eprintln!("--backends: {e}");
                exit(1);
            }
        };
        for bench in &opts.benchmarks {
            let Some(b) = bench_suite::by_name(bench) else {
                eprintln!("unknown benchmark {bench:?}");
                exit(1);
            };
            let network = build_network(&b);
            let ctx = SynthesisCtx::default()
                .with_budget(Budget::unlimited().with_deadline(budget.max(Duration::from_secs(1))));
            let sw = Stopwatch::unbudgeted();
            let design = match backend.synthesize(&network, &ctx) {
                Ok(d) => d,
                Err(BackendError::Infeasible(ConstraintError::Infeasible {
                    semiperimeter_lower_bound,
                    limits,
                })) => {
                    println!(
                        "{bench:<11} {:<15} infeasible: S >= {semiperimeter_lower_bound} \
                         but a {} x {} tile allows {}",
                        backend.name(),
                        limits.max_rows,
                        limits.max_cols,
                        limits.max_rows + limits.max_cols
                    );
                    rows.push(Json::Obj(vec![
                        ("benchmark".into(), Json::str(bench.clone())),
                        ("backend".into(), Json::str(backend.name())),
                        ("outcome".into(), Json::str("infeasible")),
                        (
                            "semiperimeter_lower_bound".into(),
                            Json::int(semiperimeter_lower_bound),
                        ),
                        ("max_rows".into(), Json::int(limits.max_rows)),
                        ("max_cols".into(), Json::int(limits.max_cols)),
                    ]));
                    continue;
                }
                Err(e) => {
                    eprintln!("{bench} via {}: synthesis failed: {e}", backend.name());
                    failed = true;
                    continue;
                }
            };
            let wall = sw.elapsed();
            let verdict = design.verify(&network, 64);
            if !verdict.as_ref().is_ok_and(|report| report.is_valid()) {
                eprintln!(
                    "{bench} via {}: verification failed: {verdict:?}",
                    backend.name()
                );
                failed = true;
                continue;
            }
            let m = &design.metrics;
            println!(
                "{bench:<11} {:<15} {:>4} x {:<4} S={:<5} tiles={:<3} transfers={:<4} {:>7.3}s",
                design.backend,
                m.rows,
                m.cols,
                m.semiperimeter,
                m.tiles,
                m.transfer_ops,
                wall.as_secs_f64()
            );
            rows.push(Json::Obj(vec![
                ("benchmark".into(), Json::str(bench.clone())),
                ("backend".into(), Json::str(design.backend)),
                ("outcome".into(), Json::str("mapped")),
                ("rows".into(), Json::int(m.rows)),
                ("cols".into(), Json::int(m.cols)),
                ("semiperimeter".into(), Json::int(m.semiperimeter)),
                ("max_dimension".into(), Json::int(m.max_dimension)),
                ("tiles".into(), Json::int(m.tiles)),
                ("transfer_ops".into(), Json::int(m.transfer_ops)),
                ("wall_s".into(), Json::Num(wall.as_secs_f64())),
            ]));
        }
    }
    (Json::Arr(rows), failed)
}

fn main() {
    let opts = parse_options();
    let budget = time_limit(10);
    println!(
        "Synthesis benchmark — {} benchmark(s), {} γ point(s), {} thread(s), {}s/point budget",
        opts.benchmarks.len(),
        opts.gammas.len(),
        opts.threads,
        budget.as_secs()
    );
    let baseline = opts.baseline.as_ref().map(|path| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("reading baseline {}: {e}", path.display());
            exit(1);
        });
        Json::parse(&text).unwrap_or_else(|e| {
            eprintln!("parsing baseline {}: {e}", path.display());
            exit(1);
        })
    });
    let mut rows = Vec::new();
    let mut failed = false;
    for name in &opts.benchmarks {
        let Some(b) = bench_suite::by_name(name) else {
            eprintln!("unknown benchmark {name:?}");
            exit(1);
        };
        let network = Arc::new(build_network(&b));
        let tasks = gamma_sweep_tasks(&network, &opts.gammas, budget);

        // Cold: a fresh session per point — every point pays the full
        // BDD build and graph extraction.
        let cold_sw = Stopwatch::unbudgeted();
        let mut cold_bdd_wall = Duration::ZERO;
        let mut cold_label_wall = Duration::ZERO;
        for task in &tasks {
            let session = Session::default();
            match flowc_compact::synthesize_in(&session, &network, &task.config) {
                Ok(_) => {
                    cold_bdd_wall += session.trace().total_wall(StageKind::BddBuild);
                    cold_label_wall += session.trace().total_wall(StageKind::VhLabel);
                }
                Err(e) => {
                    eprintln!("{name} {}: cold synthesis failed: {e}", task.label);
                    failed = true;
                }
            }
        }
        let cold_wall = cold_sw.elapsed();

        // Cached: one session, the whole sweep batched.
        let session = Session::default();
        let cached_sw = Stopwatch::unbudgeted();
        let results = synthesize_batch(&session, &tasks, opts.threads);
        let cached_wall = cached_sw.elapsed();
        for (task, r) in tasks.iter().zip(&results) {
            if let Err(e) = r {
                eprintln!("{name} {}: batched synthesis failed: {e}", task.label);
                failed = true;
            }
        }
        let trace = session.trace();
        let cache = session.cache_stats();
        if trace.builds(StageKind::BddBuild) > 1 || trace.builds(StageKind::GraphExtract) > 1 {
            eprintln!(
                "{name}: cached sweep recomputed a shared artifact ({} BDD build(s), {} extraction(s))",
                trace.builds(StageKind::BddBuild),
                trace.builds(StageKind::GraphExtract)
            );
            failed = true;
        }
        let speedup = cold_wall.as_secs_f64() / cached_wall.as_secs_f64().max(1e-9);
        // 50ms absolute slack: sub-10ms sweeps jitter across 1.0 without
        // any real regression behind them.
        if speedup < 1.0 && cached_wall.as_secs_f64() - cold_wall.as_secs_f64() > 0.05 {
            eprintln!(
                "{name}: cached sweep slower than cold ({:.3}s vs {:.3}s, speedup {speedup:.2})",
                cached_wall.as_secs_f64(),
                cold_wall.as_secs_f64()
            );
            failed = true;
        }
        let cached_label_wall = trace.total_wall(StageKind::VhLabel).as_secs_f64();
        if let Some(base) = baseline.as_ref().and_then(|b| baseline_label_wall(b, name)) {
            // 20% relative slack plus a 250ms absolute noise floor: the
            // post-optimization labeling walls are fractions of a second,
            // where a bare 20% gate would trip on timer jitter.
            let limit = base * 1.2 + 0.25;
            println!(
                "{name:<11} vh-label {cached_label_wall:>8.3}s vs baseline {base:>8.3}s \
                 (limit {limit:.3}s)"
            );
            if cached_label_wall > limit {
                eprintln!(
                    "{name}: labeling wall regressed >20% vs baseline \
                     ({cached_label_wall:.3}s > {limit:.3}s)"
                );
                failed = true;
            }
        }
        println!(
            "{name:<11} cold {:>8.3}s (BDD {:>7.3}s)   cached {:>8.3}s (BDD {:>7.3}s)   hits {}/{}",
            cold_wall.as_secs_f64(),
            cold_bdd_wall.as_secs_f64(),
            cached_wall.as_secs_f64(),
            trace.total_wall(StageKind::BddBuild).as_secs_f64(),
            cache.hits,
            cache.hits + cache.misses,
        );
        rows.push(Json::Obj(vec![
            ("benchmark".into(), Json::str(name.clone())),
            ("cold_wall_s".into(), Json::Num(cold_wall.as_secs_f64())),
            (
                "cold_bdd_wall_s".into(),
                Json::Num(cold_bdd_wall.as_secs_f64()),
            ),
            (
                "cold_label_wall_s".into(),
                Json::Num(cold_label_wall.as_secs_f64()),
            ),
            ("cached_wall_s".into(), Json::Num(cached_wall.as_secs_f64())),
            ("speedup".into(), Json::Num(speedup)),
            ("stages".into(), stage_json(&trace)),
            (
                "cache".into(),
                Json::Obj(vec![
                    ("hits".into(), Json::int(cache.hits)),
                    ("misses".into(), Json::int(cache.misses)),
                    ("entries".into(), Json::int(cache.entries)),
                    ("evicted".into(), Json::int(cache.evicted)),
                ]),
            ),
        ]));
    }
    let (edit_replay_row, replay_failed) = if opts.edits > 0 {
        edit_replay(&opts, budget)
    } else {
        (Json::Null, false)
    };
    failed = failed || replay_failed;
    let (backend_rows, backends_failed) = if opts.backends.is_empty() {
        (Json::Arr(Vec::new()), false)
    } else {
        println!("\nbackend comparison:");
        backend_comparison(&opts, budget)
    };
    failed = failed || backends_failed;
    let json = Json::Obj(vec![
        (
            "gammas".into(),
            Json::Arr(opts.gammas.iter().map(|&g| Json::Num(g)).collect()),
        ),
        ("threads".into(), Json::int(opts.threads)),
        ("time_limit_secs".into(), Json::Num(budget.as_secs_f64())),
        ("benchmarks".into(), Json::Arr(rows)),
        ("edit_replay".into(), edit_replay_row),
        ("backends".into(), backend_rows),
    ]);
    if let Err(e) = report::write_json(&opts.out, &json) {
        eprintln!("writing {}: {e}", opts.out.display());
        exit(1);
    }
    println!("\nwrote {}", opts.out.display());
    if failed {
        exit(1);
    }
}
