//! `ledger`: the flowc performance ledger. It measures netlist-to-verified-
//! design latency, design quality and serve latency on four workloads, end
//! to end and per layer, with every design's correctness checked.
//!
//! ```text
//! cargo run --release --offline --manifest-path ledger/Cargo.toml --bin ledger -- \
//!     --workload sweep-exact --seed 7 --seconds 25 --trace 0
//! ledger run --seed 11 [--runs 3] [--seconds 25] [--trace] [--quick] [--out FILE]
//! ledger compare PARENT.json[,MORE.json] CHANGE.json[,MORE.json]
//! ```
//!
//! A workload run prints a `{"record": …}` line (provenance, every metric,
//! absolute serve figures) and then, last, the result line
//! `{"correct", "attempted", "failed", "metrics"}` holding the end-to-end
//! metrics, or the per-layer ones with `--trace 1`. It exits 1 when any job
//! failed (`failed` > 0), wrong output or not. `run` runs every workload in
//! fresh processes and writes a result file with medians and quartiles;
//! `compare` applies the bounds in `BENCHMARK.json` to two result files,
//! one row per workload and metric, plus each workload's failed jobs.
//!
//! # Workloads
//!
//! | name | inputs | why |
//! |---|---|---|
//! | `sweep-exact` | ctrl, int2float, dec, priority; a 5-point γ sweep per circuit through one `Session` with warm starts | the solver stops on its own, so a labeling speedup shows directly as latency |
//! | `sweep-budgeted` | router, cavlc, i2c; 5 γ at 0.5 s per point | the paper's gap-over-time regime: time is pinned by the budget, so a solver gain shows as S, D or gap |
//! | `map-large` | ten ISCAS-like circuits and arbiter on the heuristic rung, a fresh session each | no MILP and a cold cache: the control for solver changes, the target for BDD, map and verify changes |
//! | `serve-mixed` | a live `flowc-serve` (journal on), spawned fresh for each pass, 2 closed-loop clients, 88 jobs a pass: repeats, edit variants, `/patch` chains | the deployment path: HTTP, admission, queue, journal and workers under cache-friendly and cache-hostile jobs |
//!
//! Library jobs run single-threaded (`label_threads` 1, one job at a time),
//! take BLIF text in and hand a `VerifyPass`-checked design out. The seed
//! drives job order; content is fixed, so quality totals compare across
//! seeds. Each run repeats whole passes of the same jobs until another
//! would overrun `--seconds`.
//!
//! # Metrics
//!
//! End to end (names and units in [`run::END_TO_END`], bounds in
//! `BENCHMARK.json`). Times are taken at each item's fastest repetition in
//! the run ([`run::Fastest`]), because the measuring host's speed switches
//! by up to 1.7× in phases of seconds: `setup_s` (Σ over set-up items of
//! the fastest round; a round's time is its median repetition's),
//! `latency_ms_p50` and `latency_ms_tail` (median, and mean of the slowest
//! tenth, of each job's fastest pass) and `designs_per_s` (the fastest
//! pass's jobs ÷ its wall time). `semiperimeter_total` and
//! `max_dimension_total` (Σ S and Σ D over the first pass), `gap_mean`
//! (mean relative optimality gap over the first pass) and `peak_rss_mb`
//! (the synthesizing process's `VmHWM`). Failures are the result line's
//! `failed` count.
//!
//! Per layer ([`run::PER_LAYER`]), from spans the ledger records around
//! each layer's public call in a traced run: `logic` (`blif::parse`),
//! `normalize`, `bdd`, `graph`, `label` (`pass::NormalizePass`,
//! `BddBuildPass`, `GraphExtractPass`, `LadderPass`), `map`
//! (`mapping::map_to_crossbar`, re-run on the returned labeling, so label
//! self time is `label.ms − map.ms`), `verify` (`VerifyPass`), `formal`
//! (`verify_symbolic`), and on serve-mixed the client-side `serve.*` spans
//! with the server's `/metrics`. Times are milliseconds per job (serve:
//! medians and tail means over jobs), counts per job, shares ratios of
//! totals; a layer a workload does not reach reads 0. `README.md` beside
//! this package tables, per layer, the end-to-end metric and workload it
//! should move and the values the baseline's traced runs measured.
//!
//! # Correctness
//!
//! Every distinct design is proven equivalent to the generator's netlist
//! with `verify_symbolic` and simulated against it on 256 seeded vectors
//! ([`gate`]); a later pass that changes a design's shape is proven again.
//! Every serve repeat that was not degraded must ship the S the library
//! produces for the same circuit and γ.
//!
//! # Claiming a gain
//!
//! Name one end-to-end metric and one workload before measuring. Build the
//! parent and the change in separate checkouts and run `ledger run --runs 1
//! --seed N --out …` in each at least ten times, alternating which side
//! goes first and using a fresh seed per pair.
//! `ledger compare p1.json,p2.json,… c1.json,c2.json,…` must show the
//! claimed row `better` and no row `worse`. The traced runs' per-layer
//! metrics must show the saving in the layer the change touched.
//!
//! # What the ledger depends on
//!
//! `flowc_compact::pass::*`, `synthesize_in`, `gamma_sweep_tasks`,
//! `Session`/`SessionConfig` (including `cache_stats`),
//! `session::graph_key`, `mapping::map_to_crossbar`, `verify_symbolic`;
//! `flowc_logic::blif`, `Network::simulate64`, `bench_suite`;
//! `flowc_xbar::Crossbar::evaluate64`; `flowc_conform::EditStreamGen`;
//! `flowc_compact::EditableNetlist`; and the serve routes `/submit`,
//! `/patch`, `/status`, `/result`, `/metrics`, `/healthz` with the
//! `--addr`, `--port-file` and `--journal` flags. It never reads the
//! session's `StageTrace`.

mod gate;
mod library;
mod results;
mod run;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use flowc_report::Json;

use run::{Measured, RunOptions, Workload, END_TO_END, PER_LAYER};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => results::run_all(&args[1..]),
        Some("compare") => results::compare(&args[1..]),
        _ => one_workload(&args),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--quick]
/// [--out-dir DIR]`, runs that workload once and prints its record and
/// result lines.
fn one_workload(args: &[String]) -> Result<ExitCode, String> {
    let mut workload = None;
    let mut opts = RunOptions {
        seed: 1,
        seconds: 25.0,
        trace: false,
        quick: false,
        out_dir: run::default_out_dir(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => opts.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--quick" => opts.quick = true,
            "--out-dir" => opts.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let m = match workload {
        Workload::ServeMixed => serve::run(&opts)?,
        w => library::run(w, &opts)?,
    };
    let (record, result) = report(workload, &opts, &m);
    println!(
        "{}",
        Json::Obj(vec![("record".into(), record)]).to_compact()
    );
    println!("{}", result.to_compact());
    for e in &m.errors {
        eprintln!("ledger: {e}");
    }
    // The workloads are chosen so that no job fails; one that does, wrong
    // output or not, is a regression no quality total can show.
    Ok(if m.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The run record (provenance plus every metric) and the result line: the
/// end-to-end metrics, or the per-layer ones when tracing.
fn report(workload: Workload, opts: &RunOptions, m: &Measured) -> (Json, Json) {
    let mut layers = m.layers.clone();
    if opts.trace {
        layers.extend(m.common_layers());
    }
    let lookup = |name: &str| {
        layers
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    };
    let metrics: Vec<(String, Json)> = if opts.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name.to_string(), metric(lookup(name), unit)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(m.end_to_end())
            .map(|(&(name, unit), v)| (name.to_string(), metric(v, unit)))
            .collect()
    };
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(m.incorrect == 0)),
        ("attempted".into(), Json::int(m.attempted.max(1))),
        ("failed".into(), Json::int(m.failed)),
        ("metrics".into(), Json::Obj(metrics.clone())),
    ]);
    let record = Json::Obj(vec![
        ("workload".into(), Json::str(workload.name())),
        ("seed".into(), Json::Num(opts.seed as f64)),
        ("seconds".into(), Json::Num(opts.seconds)),
        ("trace".into(), Json::Bool(opts.trace)),
        ("quick".into(), Json::Bool(opts.quick)),
        ("passes".into(), Json::int(m.passes)),
        ("jobs".into(), Json::int(m.plain_jobs())),
        ("tail_fraction".into(), Json::Num(stats::TAIL_FRACTION)),
        (
            "pass_rates".into(),
            Json::Arr(
                m.pass_jobs
                    .iter()
                    .map(|&(jobs, wall)| Json::Num(jobs as f64 / wall))
                    .collect(),
            ),
        ),
        ("attempted".into(), Json::int(m.attempted)),
        ("failed".into(), Json::int(m.failed)),
        ("incorrect".into(), Json::int(m.incorrect)),
        (
            "errors".into(),
            Json::Arr(m.errors.iter().map(|e| Json::str(e.clone())).collect()),
        ),
        ("metrics".into(), Json::Obj(metrics)),
        ("detail".into(), Json::Obj(m.detail.clone())),
    ]);
    (record, result)
}

fn metric(value: f64, unit: &str) -> Json {
    Json::Obj(vec![
        ("value".into(), Json::Num(value)),
        ("unit".into(), Json::str(unit)),
    ])
}
