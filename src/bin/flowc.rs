//! `flowc` — command-line front end for the COMPACT synthesis flow.
//!
//! ```text
//! flowc list
//! flowc synth <circuit.{blif,pla,v}> [options]
//! flowc bench <name> [options]
//! flowc convert <in.{blif,pla,v}> <out.{blif,pla,v}>
//! flowc remote <submit|status|result|cancel|metrics> [args] [options]
//! flowc help
//!
//! options:
//!   --backend <name>      mapping backend: compact (default), staircase,
//!                         robdd-diagonal, magic-nor, or partitioned
//!   --tile-rows <n>       tile bounds for `--backend partitioned`
//!   --tile-cols <n>       (default 64 x 64)
//!   --tile-backend <name> backend mapping each tile (default compact)
//!   --gamma <0..1>        trade-off weight (default 0.5)
//!   --gamma-sweep <n>     synthesize n evenly spaced γ points through one
//!                         shared session (the BDD and graph are built
//!                         once) and print each design's shape plus the
//!                         per-stage trace and cache statistics
//!   --strategy <rung>     degradation-ladder rung to start on: exact-mip
//!                         (default; the Eq. 4 MIP, branch & bound on
//!                         graphs of at most 80 nodes, the anytime path
//!                         above), exact-oct (minimal S), heuristic-oct,
//!                         or all-vh (`anytime-mip` is accepted for
//!                         exact-mip, `staircase` for all-vh)
//!   --edit-stream <file>  after the initial synthesis, apply a netlist
//!                         edit script (one edit per line, `#` comments)
//!                         through one incremental edit session, printing
//!                         each edit's resolution (hit / repaired /
//!                         warm-started / cold) and the final design
//!   --time-limit <secs>   caps the labeling rung's share of the budget
//!                         (default 30)
//!   --deadline <secs>     hard wall-clock budget for the whole synthesis;
//!                         on exhaustion a degraded (but valid) design is
//!                         returned and the exit code is 2
//!   --max-bdd-nodes <n>   BDD node ceiling; exceeding it degrades too
//!   --no-align            drop the Eq. 7 alignment constraints
//!   --render              print the device matrix (small designs)
//!   --svg <file>          write an SVG rendering of the design
//!   --validate <n>        check n assignments against simulation
//!   --defect-map <file>   repair the design against a defect map file
//!   --defect-rate <p>     inject random defects at per-cell rate p and
//!                         repair (mutually exclusive with --defect-map)
//!   --seed <n>            defect-injection seed (default 1)
//!   --spare-rows <n>      spare wordlines for --defect-rate arrays
//!   --spare-cols <n>      spare bitlines for --defect-rate arrays
//! ```
//!
//! With defects, the exit code distinguishes outcomes: 0 when all defects
//! were benign, 2 when the design needed repair (a repaired, verified
//! design was produced), 1 when the array is irreparable.
//!
//! `flowc remote` is the client side of `flowc-serve`: it submits
//! circuits to a running service, polls status, fetches results, cancels
//! jobs, and scrapes `/metrics` (see `flowc help`).

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use flowc::baselines::{Backend, DesignArtifact, MappingBackend, SynthesisCtx};
use flowc::budget::Budget;
use flowc::compact::pipeline::{Config, VhStrategy};
use flowc::compact::supervisor::Rung;
use flowc::compact::{repair_with_resynthesis, RepairConfig, RepairError, RepairStrategy};
use flowc::logic::{blif, pla, verilog, Network};
use flowc::xbar::fault::{inject, DefectMap, DefectRates};
use flowc::xbar::verify::VerifyReport;

fn load(path: &str) -> Result<Network, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let ext = Path::new(path)
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or("");
    let parsed = match ext {
        "blif" => blif::parse(&text),
        "pla" => pla::parse(&text),
        "v" | "verilog" => verilog::parse(&text),
        other => {
            return Err(format!(
                "unknown circuit extension `.{other}` (use .blif/.pla/.v)"
            ))
        }
    };
    parsed.map_err(|e| format!("{path}: {e}"))
}

fn save(network: &Network, path: &str) -> Result<(), String> {
    let ext = Path::new(path)
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or("");
    let text = match ext {
        "blif" => blif::write(network),
        "pla" => pla::write(network).map_err(|e| e.to_string())?,
        "v" | "verilog" => verilog::write(network),
        other => return Err(format!("unknown output extension `.{other}`")),
    };
    flowc_report::write_atomic(Path::new(path), &text).map_err(|e| format!("{path}: {e}"))
}

/// Parses the `<secs>` of `flag` (`--deadline`, `--time-limit`):
/// non-negative seconds, fractions allowed. More than the clock can
/// represent saturates, so `--time-limit 18446744073709551615` is no limit.
fn parse_secs(flag: &str, text: &str) -> Result<Duration, String> {
    let secs = text.parse::<f64>().map_err(|e| format!("{flag}: {e}"))?;
    match Duration::try_from_secs_f64(secs) {
        Err(_) if secs > 0.0 => Ok(Duration::MAX),
        secs => secs.map_err(|_| format!("{flag} must be a non-negative number of seconds")),
    }
}

struct Options {
    gamma: f64,
    gamma_sweep: Option<usize>,
    strategy: Rung,
    time_limit: Duration,
    align: bool,
    render: bool,
    validate: Option<usize>,
    svg: Option<String>,
    deadline: Option<Duration>,
    max_bdd_nodes: Option<usize>,
    defect_map: Option<String>,
    defect_rate: Option<f64>,
    seed: u64,
    spare_rows: usize,
    spare_cols: usize,
    edit_stream: Option<String>,
    backend: String,
    tile_rows: Option<usize>,
    tile_cols: Option<usize>,
    tile_backend: Option<String>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = Options {
            gamma: 0.5,
            gamma_sweep: None,
            strategy: Rung::ExactMip,
            time_limit: Duration::from_secs(30),
            align: true,
            render: false,
            validate: None,
            svg: None,
            deadline: None,
            max_bdd_nodes: None,
            defect_map: None,
            defect_rate: None,
            seed: 1,
            spare_rows: 0,
            spare_cols: 0,
            edit_stream: None,
            backend: "compact".to_string(),
            tile_rows: None,
            tile_cols: None,
            tile_backend: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            match flag.as_str() {
                "--gamma" => {
                    opts.gamma = value("--gamma")?
                        .parse::<f64>()
                        .map_err(|e| format!("--gamma: {e}"))?;
                    if !(0.0..=1.0).contains(&opts.gamma) {
                        return Err("--gamma must be within [0, 1]".into());
                    }
                }
                "--gamma-sweep" => {
                    let steps = value("--gamma-sweep")?
                        .parse::<usize>()
                        .map_err(|e| format!("--gamma-sweep: {e}"))?;
                    if steps < 2 {
                        return Err("--gamma-sweep needs at least 2 points".into());
                    }
                    opts.gamma_sweep = Some(steps);
                }
                "--strategy" => opts.strategy = value("--strategy")?.parse()?,
                "--time-limit" => {
                    opts.time_limit = parse_secs("--time-limit", &value("--time-limit")?)?
                }
                "--deadline" => {
                    opts.deadline = Some(parse_secs("--deadline", &value("--deadline")?)?)
                }
                "--max-bdd-nodes" => {
                    opts.max_bdd_nodes = Some(
                        value("--max-bdd-nodes")?
                            .parse::<usize>()
                            .map_err(|e| format!("--max-bdd-nodes: {e}"))?,
                    )
                }
                "--no-align" => opts.align = false,
                "--svg" => opts.svg = Some(value("--svg")?),
                "--render" => opts.render = true,
                "--validate" => {
                    opts.validate = Some(
                        value("--validate")?
                            .parse::<usize>()
                            .map_err(|e| format!("--validate: {e}"))?,
                    )
                }
                "--defect-map" => opts.defect_map = Some(value("--defect-map")?),
                "--defect-rate" => {
                    let rate = value("--defect-rate")?
                        .parse::<f64>()
                        .map_err(|e| format!("--defect-rate: {e}"))?;
                    if !(0.0..=1.0).contains(&rate) {
                        return Err("--defect-rate must be within [0, 1]".into());
                    }
                    opts.defect_rate = Some(rate);
                }
                "--seed" => {
                    opts.seed = value("--seed")?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--spare-rows" => {
                    opts.spare_rows = value("--spare-rows")?
                        .parse::<usize>()
                        .map_err(|e| format!("--spare-rows: {e}"))?
                }
                "--spare-cols" => {
                    opts.spare_cols = value("--spare-cols")?
                        .parse::<usize>()
                        .map_err(|e| format!("--spare-cols: {e}"))?
                }
                "--edit-stream" => opts.edit_stream = Some(value("--edit-stream")?),
                "--backend" => opts.backend = value("--backend")?,
                "--tile-rows" => {
                    opts.tile_rows = Some(
                        value("--tile-rows")?
                            .parse::<usize>()
                            .map_err(|e| format!("--tile-rows: {e}"))?,
                    )
                }
                "--tile-cols" => {
                    opts.tile_cols = Some(
                        value("--tile-cols")?
                            .parse::<usize>()
                            .map_err(|e| format!("--tile-cols: {e}"))?,
                    )
                }
                "--tile-backend" => opts.tile_backend = Some(value("--tile-backend")?),
                other => return Err(format!("unknown option `{other}`")),
            }
        }
        if opts.defect_map.is_some() && opts.defect_rate.is_some() {
            return Err("--defect-map and --defect-rate are mutually exclusive".into());
        }
        Ok(opts)
    }

    fn config(&self) -> Config {
        Config {
            strategy: VhStrategy::entering(self.strategy, self.gamma, self.time_limit),
            align: self.align,
            ..Config::default()
        }
    }

    fn budget(&self) -> Budget {
        let mut budget = Budget::unlimited();
        if let Some(deadline) = self.deadline {
            budget = budget.with_deadline(deadline);
        }
        if let Some(nodes) = self.max_bdd_nodes {
            budget = budget.with_max_bdd_nodes(nodes);
        }
        budget
    }

    /// Resolves `--backend` plus the tile knobs into a [`Backend`].
    fn backend(&self) -> Result<Backend, String> {
        let mut backend = Backend::parse(&self.backend)?;
        if !matches!(backend, Backend::Partitioned(_))
            && (self.tile_rows.is_some() || self.tile_cols.is_some() || self.tile_backend.is_some())
        {
            return Err(format!(
                "--tile-rows/--tile-cols/--tile-backend only apply to \
                 `--backend partitioned` (got `{}`)",
                backend.name()
            ));
        }
        if let Backend::Partitioned(p) = &mut backend {
            if let Some(rows) = self.tile_rows {
                if rows == 0 {
                    return Err("--tile-rows must be at least 1".into());
                }
                p.tile.max_rows = rows;
            }
            if let Some(cols) = self.tile_cols {
                if cols == 0 {
                    return Err("--tile-cols must be at least 1".into());
                }
                p.tile.max_cols = cols;
            }
            if let Some(inner) = &self.tile_backend {
                *p.inner = Backend::parse(inner).map_err(|e| format!("--tile-backend: {e}"))?;
            }
            p.per_tile_time = self.time_limit;
        }
        Ok(backend)
    }
}

/// Runs `--gamma-sweep`: every γ point goes through one shared [`Session`],
/// so the whole sweep performs a single BDD build and graph extraction
/// (the per-stage trace printed at the end proves it).
fn gamma_sweep(network: &Network, steps: usize, opts: &Options) -> Result<bool, String> {
    use flowc::compact::{gamma_sweep_tasks, synthesize_batch, Session, SessionConfig};

    let session = Session::new(SessionConfig {
        budget: opts.budget(),
        warm_labels: true, // sequential sweep: each point seeds the next
        ..SessionConfig::default()
    });
    let gammas: Vec<f64> = (0..steps).map(|i| i as f64 / (steps - 1) as f64).collect();
    let network = std::sync::Arc::new(network.clone());
    // Tasks come back ordered by descending γ (warm-start chaining);
    // sequential execution preserves that order so each point seeds the
    // next. Results are re-sorted to ascending γ for display.
    let tasks = gamma_sweep_tasks(&network, &gammas, opts.time_limit);
    // Sequential: adjacent γ points share warm starts.
    let results = synthesize_batch(&session, &tasks, 1);
    println!("circuit    : {}", network.name());
    println!(
        "{:>6} | {:>5} {:>5} {:>5} {:>5} {:>4} | {:>7} {:>7} {:>6} {:>6}",
        "γ", "R", "C", "D", "S", "opt", "nodes", "gap", "warm", "cache"
    );
    let mut degraded = false;
    let mut rows: Vec<(&flowc::compact::BatchTask, &flowc::compact::CompactResult)> = Vec::new();
    for (task, result) in tasks.iter().zip(&results) {
        match result {
            Ok(r) => rows.push((task, r)),
            Err(e) => return Err(format!("{}: {e}", task.label)),
        }
    }
    rows.sort_by(|a, b| {
        a.0.config
            .strategy
            .gamma()
            .total_cmp(&b.0.config.strategy.gamma())
    });
    for (task, r) in rows {
        let report = r.degradation.as_ref();
        println!(
            "{:>6} | {:>5} {:>5} {:>5} {:>5} {:>4} | {:>7} {:>6.2}% {:>6} {:>6}",
            task.label.trim_start_matches("γ="),
            r.stats.rows,
            r.stats.cols,
            r.stats.max_dimension,
            r.stats.semiperimeter,
            if r.optimal { "yes" } else { "no" },
            report.map_or(0, |d| d.solver_nodes),
            100.0 * r.relative_gap,
            report.map_or("-", |d| match d.warm_start {
                Some(true) => "hit",
                Some(false) => "miss",
                None => "-",
            }),
            if report.is_some_and(|d| d.label_cached) {
                "hit"
            } else {
                "-"
            },
        );
        degraded |= report.is_some_and(|d| d.degraded);
    }
    let trace = session.trace();
    println!("\nstage trace:");
    for part in trace.summary().split("; ") {
        println!("  {part}");
    }
    let cache = session.cache_stats();
    println!(
        "cache      : {} hit(s), {} miss(es), {} entr{}",
        cache.hits,
        cache.misses,
        cache.entries,
        if cache.entries == 1 { "y" } else { "ies" }
    );
    Ok(degraded)
}

/// Runs `--edit-stream`: synthesizes the circuit once, then replays a
/// netlist edit script through one incremental [`EditSession`], printing
/// how each edit was resolved (cache hit, label repair, warm start, or
/// cold solve) and the final design's shape and counters.
fn edit_stream(network: &Network, script: &str, opts: &Options) -> Result<bool, String> {
    use flowc::compact::{parse_edit_script, EditSession, EditSessionConfig};
    let text = std::fs::read_to_string(script).map_err(|e| format!("{script}: {e}"))?;
    let edits = parse_edit_script(&text).map_err(|e| format!("{script}: {e}"))?;
    let config = EditSessionConfig {
        synthesis: opts.config(),
        ..EditSessionConfig::default()
    };
    let mut session =
        EditSession::new(network, config).map_err(|e| format!("initial synthesis: {e}"))?;
    let base = session.result();
    println!("circuit    : {}", network.name());
    println!(
        "base       : S={} ({} x {}), optimal {} in {:.2}s",
        base.stats.semiperimeter,
        base.stats.rows,
        base.stats.cols,
        base.optimal,
        base.synthesis_time.as_secs_f64()
    );
    let budget = opts.budget();
    for (i, edit) in edits.iter().enumerate() {
        let outcome = session
            .apply_budgeted(edit, &budget)
            .map_err(|e| format!("edit {} (`{edit}`): {e}", i + 1))?;
        println!(
            "edit {:>2}/{:<2} : {:<32} {:<12} S={:<5} {} cone(s) invalidated, {:.1}ms",
            i + 1,
            edits.len(),
            edit.to_string(),
            outcome.resolution.name(),
            outcome.result.stats.semiperimeter,
            outcome.outputs_invalidated,
            outcome.wall.as_secs_f64() * 1e3
        );
    }
    let stats = session.stats();
    println!(
        "resolved   : {} of {} edits without a cold solve ({} hit / {} repaired / {} warm-started / {} cold)",
        stats.resolved_incrementally(),
        stats.edits,
        stats.hits,
        stats.repairs,
        stats.warm_starts,
        stats.cold_solves
    );
    let result = session.result();
    println!("crossbar   : {} x {}", result.stats.rows, result.stats.cols);
    println!("semiperim. : {}", result.stats.semiperimeter);
    println!(
        "optimal    : {} (gap {:.2}%)",
        result.optimal,
        100.0 * result.relative_gap
    );
    Ok(result.degradation.as_ref().is_some_and(|d| d.degraded))
}

/// Prints the `validation` line; a mismatching design fails the run.
fn print_validation(report: &VerifyReport) -> Result<(), String> {
    if report.is_valid() {
        println!("validation : {} assignments, all match", report.checked);
        return Ok(());
    }
    println!("validation : {} assignments, MISMATCH", report.checked);
    Err("design mismatches the source circuit".into())
}

/// Synthesizes through the selected [`Backend`] and prints the shared
/// metric block, plus the labeling, ladder and defect-repair lines when
/// the design carries COMPACT provenance. Compact-only features error out
/// loudly on other backends instead of being silently ignored.
fn synth(network: &Network, opts: &Options) -> Result<bool, String> {
    let backend = opts.backend()?;
    let name = backend.name();
    let needs_compact = |what: &str| match name {
        "compact" => Ok(()),
        _ => Err(format!("{what} needs `--backend compact` (got `{name}`)")),
    };
    if let Some(steps) = opts.gamma_sweep {
        needs_compact("--gamma-sweep")?;
        return gamma_sweep(network, steps, opts);
    }
    if let Some(script) = &opts.edit_stream {
        needs_compact("--edit-stream")?;
        return edit_stream(network, script, opts);
    }
    let defects = opts.defect_map.is_some() || opts.defect_rate.is_some();
    if defects {
        needs_compact("defect repair")?;
    }
    let cfg = opts.config();
    let ctx = SynthesisCtx::new(cfg.clone()).with_budget(opts.budget());
    let design = backend
        .synthesize(network, &ctx)
        .map_err(|e| e.to_string())?;
    let m = design.reported_metrics();
    let compact = design.compact();
    println!("circuit    : {}", network.name());
    println!("backend    : {}", design.backend);
    println!("inputs     : {}", network.num_inputs());
    println!("outputs    : {}", network.num_outputs());
    if let Some(r) = compact {
        println!("BDD nodes  : {}", r.graph_nodes);
        println!("BDD edges  : {}", r.graph_edges);
    }
    println!("crossbar   : {} x {}", m.rows, m.cols);
    match compact {
        Some(r) => println!(
            "semiperim. : {} ({:.3} per node)",
            m.semiperimeter,
            m.semiperimeter as f64 / r.graph_nodes.max(1) as f64
        ),
        None => println!("semiperim. : {}", m.semiperimeter),
    }
    println!("max dim    : {}", m.max_dimension);
    println!("area       : {}", m.area);
    if let Some(r) = compact {
        println!("VH nodes   : {}", r.stats.num_vh);
    }
    println!("power      : {} active devices", m.active_devices);
    println!("delay      : {} steps", m.delay_steps);
    if let DesignArtifact::Tiled(schedule) = &design.artifact {
        println!(
            "tiles      : {} (each within {} x {})",
            m.tiles, schedule.limits.max_rows, schedule.limits.max_cols
        );
        println!(
            "transfers  : {} inter-tile input deliveries",
            m.transfer_ops
        );
    }
    let report = compact.and_then(|r| r.degradation.as_ref());
    if let Some(r) = compact {
        println!(
            "optimal    : {} (gap {:.2}%)",
            r.optimal,
            100.0 * r.relative_gap
        );
        println!("synth time : {:.2}s", r.synthesis_time.as_secs_f64());
    }
    if let Some(report) = report {
        println!("rung       : {}", report.summary());
    }
    let mut outcome = design.degraded;
    if design.degraded {
        println!("degraded   : yes");
        for attempt in report.iter().flat_map(|d| &d.attempts) {
            if let Some(trigger) = &attempt.trigger {
                println!(
                    "             {} after {:.2}s: {}",
                    attempt.rung,
                    attempt.wall.as_secs_f64(),
                    trigger
                );
            }
        }
    }
    if opts.render {
        let xbar = design.crossbar().ok_or_else(|| {
            format!(
                "--render needs a single-crossbar design; backend `{name}` \
                 produced a {} (try `--backend compact`)",
                match &design.artifact {
                    DesignArtifact::Tiled(_) => "tile schedule",
                    _ => "NOR program",
                }
            )
        })?;
        println!("\ndevice matrix:\n{}", xbar.render());
    }
    if let Some(path) = &opts.svg {
        let xbar = design
            .crossbar()
            .ok_or_else(|| format!("--svg needs a single-crossbar design (`{name}`)"))?;
        let svg = flowc::xbar::svg::to_svg(xbar, &flowc::xbar::svg::SvgOptions::default());
        flowc_report::write_atomic(Path::new(path), &svg).map_err(|e| format!("{path}: {e}"))?;
        println!("svg        : wrote {path}");
    }
    if let Some(samples) = opts.validate {
        let report = design
            .verify(network, samples)
            .map_err(|e| format!("validation: {e}"))?;
        print_validation(&report)?;
    }
    if defects {
        let design = design
            .crossbar()
            .expect("the compact backend maps one crossbar");
        let map = if let Some(path) = &opts.defect_map {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            DefectMap::parse(&text).map_err(|e| format!("{path}: {e}"))?
        } else {
            let rate = opts.defect_rate.expect("one source checked above");
            inject(
                design.rows() + opts.spare_rows,
                design.cols() + opts.spare_cols,
                &DefectRates::uniform(rate),
                opts.seed,
            )
        };
        println!(
            "defects    : {} faults on a {}x{} physical array",
            map.len(),
            map.rows(),
            map.cols()
        );
        let repair_cfg = RepairConfig::default();
        match repair_with_resynthesis(network, &cfg, design, &map, &repair_cfg, &opts.budget()) {
            Ok(repaired) => {
                println!("repair     : {}", repaired.report.summary());
                for attempt in &repaired.report.attempts {
                    println!(
                        "             {} — {}: {}",
                        attempt.action,
                        if attempt.success { "ok" } else { "failed" },
                        attempt.detail
                    );
                }
                if repaired.report.strategy != RepairStrategy::Benign {
                    outcome = true;
                }
            }
            Err(RepairError::Irreparable { attempts, defects }) => {
                eprintln!("repair     : irreparable under {defects} defects");
                for attempt in &attempts {
                    eprintln!(
                        "             {} — failed: {}",
                        attempt.action, attempt.detail
                    );
                }
                return Err("no rung of the repair ladder produced a working design".into());
            }
            Err(e) => return Err(e.to_string()),
        }
    }
    Ok(outcome)
}

const HELP: &str = "\
flowc — COMPACT flow-based crossbar synthesis

USAGE:
    flowc list
    flowc synth <circuit.{blif,pla,v}> [options]
    flowc bench <name> [options]
    flowc convert <in.{blif,pla,v}> <out.{blif,pla,v}>
    flowc remote <submit|status|result|cancel|metrics> [args] [options]
    flowc help | -h | --help

SYNTHESIS OPTIONS (synth/bench):
    --backend <name>       mapping backend: compact (default), staircase,
                           robdd-diagonal, magic-nor, partitioned
    --tile-rows/--tile-cols <n>   tile bounds for `partitioned` (64 x 64)
    --tile-backend <name>  backend mapping each tile (default compact)
    --gamma <0..1>         trade-off weight (default 0.5)
    --gamma-sweep <n>      n γ points through one shared session
    --strategy <rung>      ladder rung to start on: exact-mip (default;
                           alias anytime-mip), exact-oct, heuristic-oct,
                           all-vh (alias staircase); lower rungs are
                           fallbacks
    --edit-stream <file>   apply a netlist edit script incrementally
                           after the initial synthesis (synth only);
                           prints each edit's resolution and counters
    --time-limit <secs>    caps the labeling rung's share of the budget
                           (default 30)
    --deadline <secs>      hard wall-clock budget; exhaustion degrades
    --max-bdd-nodes <n>    BDD node ceiling; exceeding it degrades
    --no-align             drop the Eq. 7 alignment constraints
    --render / --svg <f>   print or write the device matrix
    --validate <n>         check n assignments against simulation
    --defect-map <f> | --defect-rate <p>   repair against defects
    --seed/--spare-rows/--spare-cols       defect-injection knobs

REMOTE (client for a running flowc-serve):
    flowc remote submit <circuit file | bench:<name>> [--server <addr>]
          [--gamma g] [--strategy s] [--backend b] [--tile-rows n]
          [--tile-cols n] [--deadline secs] [--priority 0..9]
          [--label text] [--job-key key] [--wait]
          (--job-key makes resubmission idempotent on a journaled server:
           a key the server has seen returns the original job id)
    flowc remote status <id> | result <id> | cancel <id> | metrics
          [--server <addr>]          (default server 127.0.0.1:7878)

EXIT CODES (shared flowc convention):
    0  success — a clean, non-degraded design (or the command's output)
    2  valid but degraded — the budget ran out and a lower rung shipped,
       the BDD ceiling was lifted, or defects forced a repair; with
       `remote`, the service admitted or finished the job degraded
    1  hard failure — parse error, infeasible deadline, irreparable
       array, cancelled/failed remote job, or an unreachable server
";

/// Formats the body of `remote submit`: reads the circuit (or names a
/// built-in benchmark) and carries the optional knobs through verbatim —
/// the server revalidates everything.
struct RemoteOptions {
    server: String,
    gamma: Option<f64>,
    strategy: Option<String>,
    deadline: Option<Duration>,
    priority: Option<u64>,
    label: Option<String>,
    job_key: Option<String>,
    backend: Option<String>,
    tile_rows: Option<u64>,
    tile_cols: Option<u64>,
    wait: bool,
    positional: Vec<String>,
}

impl RemoteOptions {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = RemoteOptions {
            server: "127.0.0.1:7878".to_string(),
            gamma: None,
            strategy: None,
            deadline: None,
            priority: None,
            label: None,
            job_key: None,
            backend: None,
            tile_rows: None,
            tile_cols: None,
            wait: false,
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            match flag.as_str() {
                "--server" => opts.server = value("--server")?,
                "--gamma" => {
                    opts.gamma = Some(
                        value("--gamma")?
                            .parse::<f64>()
                            .map_err(|e| format!("--gamma: {e}"))?,
                    )
                }
                "--strategy" => opts.strategy = Some(value("--strategy")?),
                "--deadline" => {
                    opts.deadline = Some(parse_secs("--deadline", &value("--deadline")?)?)
                }
                "--priority" => {
                    opts.priority = Some(
                        value("--priority")?
                            .parse::<u64>()
                            .map_err(|e| format!("--priority: {e}"))?,
                    )
                }
                "--label" => opts.label = Some(value("--label")?),
                "--job-key" => opts.job_key = Some(value("--job-key")?),
                "--backend" => opts.backend = Some(value("--backend")?),
                "--tile-rows" => {
                    opts.tile_rows = Some(
                        value("--tile-rows")?
                            .parse::<u64>()
                            .map_err(|e| format!("--tile-rows: {e}"))?,
                    )
                }
                "--tile-cols" => {
                    opts.tile_cols = Some(
                        value("--tile-cols")?
                            .parse::<u64>()
                            .map_err(|e| format!("--tile-cols: {e}"))?,
                    )
                }
                "--wait" => opts.wait = true,
                other if other.starts_with("--") => {
                    return Err(format!("unknown option `{other}`"))
                }
                other => opts.positional.push(other.to_string()),
            }
        }
        Ok(opts)
    }

    fn job_id(&self, action: &str) -> Result<&str, String> {
        self.positional
            .first()
            .map(String::as_str)
            .ok_or_else(|| format!("remote {action} needs a job id"))
    }
}

/// Builds the `POST /submit` body from a circuit file or `bench:<name>`.
fn submit_body(target: &str, opts: &RemoteOptions) -> Result<String, String> {
    use flowc_report::Json;
    let (circuit, format) = if let Some(name) = target.strip_prefix("bench:") {
        (name.to_string(), "bench")
    } else {
        let ext = Path::new(target)
            .extension()
            .and_then(|e| e.to_str())
            .unwrap_or("");
        let format = match ext {
            "blif" => "blif",
            "pla" => "pla",
            "v" | "verilog" => "verilog",
            other => {
                return Err(format!(
                    "unknown circuit extension `.{other}` (use .blif/.pla/.v or bench:<name>)"
                ))
            }
        };
        let text = std::fs::read_to_string(target).map_err(|e| format!("{target}: {e}"))?;
        (text, format)
    };
    let mut fields = vec![
        ("circuit".to_string(), Json::str(circuit)),
        ("format".to_string(), Json::str(format)),
    ];
    if let Some(g) = opts.gamma {
        fields.push(("gamma".to_string(), Json::Num(g)));
    }
    if let Some(s) = &opts.strategy {
        fields.push(("strategy".to_string(), Json::str(s.as_str())));
    }
    if let Some(d) = opts.deadline {
        fields.push(("deadline_ms".to_string(), Json::Num(d.as_millis() as f64)));
    }
    if let Some(p) = opts.priority {
        fields.push(("priority".to_string(), Json::Num(p as f64)));
    }
    if let Some(l) = &opts.label {
        fields.push(("label".to_string(), Json::str(l.as_str())));
    }
    if let Some(k) = &opts.job_key {
        fields.push(("job_key".to_string(), Json::str(k.as_str())));
    }
    if let Some(b) = &opts.backend {
        fields.push(("backend".to_string(), Json::str(b.as_str())));
    }
    if let Some(r) = opts.tile_rows {
        fields.push(("tile_rows".to_string(), Json::Num(r as f64)));
    }
    if let Some(c) = opts.tile_cols {
        fields.push(("tile_cols".to_string(), Json::Num(c as f64)));
    }
    Ok(Json::Obj(fields).to_compact())
}

/// The `flowc remote` client: talks to a running `flowc-serve`. Returns
/// whether the outcome was degraded (exit code 2), mirroring local synth.
fn remote(action: &str, args: &[String]) -> Result<bool, String> {
    use flowc::serve::client::{describe_error, request};
    use flowc_report::Json;

    let opts = RemoteOptions::parse(args)?;
    let server = opts.server.as_str();
    match action {
        "submit" => {
            let target = opts
                .positional
                .first()
                .ok_or("remote submit needs a circuit file or bench:<name>")?;
            let body = submit_body(target, &opts)?;
            let (status, resp) = request(server, "POST", "/submit", &body)?;
            if status != 200 {
                return Err(describe_error(status, &resp));
            }
            let id = resp
                .get("id")
                .and_then(Json::as_u64)
                .ok_or("server response is missing `id`")?;
            let degraded_admission = resp.get("degraded").and_then(Json::as_bool) == Some(true);
            println!("id         : {id}");
            if resp.get("duplicate").and_then(Json::as_bool) == Some(true) {
                println!("duplicate  : job key already submitted; this is the original job");
            }
            if let Some(rung) = resp.get("rung").and_then(Json::as_str) {
                println!(
                    "rung       : {rung}{}",
                    if degraded_admission {
                        " (degraded at admission)"
                    } else {
                        ""
                    }
                );
            }
            if let Some(est) = resp.get("estimated_ms").and_then(Json::as_u64) {
                println!("estimate   : {est} ms");
            }
            if !opts.wait {
                return Ok(degraded_admission);
            }
            // Long-poll until terminal (the server answers as soon as the
            // job ends, or at its own cap on `wait_ms`), then fetch and
            // print the outcome.
            let state = loop {
                let (status, resp) =
                    request(server, "GET", &format!("/status?id={id}&wait_ms=60000"), "")?;
                if status != 200 {
                    return Err(describe_error(status, &resp));
                }
                let state = resp
                    .get("state")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string();
                if !matches!(state.as_str(), "queued" | "running") {
                    break state;
                }
            };
            let (status, resp) = request(server, "GET", &format!("/result?id={id}"), "")?;
            if status != 200 {
                return Err(describe_error(status, &resp));
            }
            println!("{}", resp.to_pretty());
            match state.as_str() {
                "done" => {
                    let degraded = resp
                        .get("outcome")
                        .and_then(|o| o.get("degraded"))
                        .and_then(Json::as_bool)
                        == Some(true);
                    Ok(degraded || degraded_admission)
                }
                other => Err(format!("job {id} ended `{other}`")),
            }
        }
        "status" | "result" => {
            let id = opts.job_id(action)?;
            let (status, resp) = request(server, "GET", &format!("/{action}?id={id}"), "")?;
            if status != 200 {
                return Err(describe_error(status, &resp));
            }
            println!("{}", resp.to_pretty());
            Ok(false)
        }
        "cancel" => {
            let id = opts.job_id("cancel")?;
            let (status, resp) = request(server, "POST", "/cancel", &format!("{{\"id\": {id}}}"))?;
            if status != 200 {
                return Err(describe_error(status, &resp));
            }
            println!("{}", resp.to_pretty());
            Ok(false)
        }
        "metrics" => {
            let (status, resp) = request(server, "GET", "/metrics", "")?;
            if status != 200 {
                return Err(describe_error(status, &resp));
            }
            println!("{}", resp.to_pretty());
            Ok(false)
        }
        other => Err(format!(
            "unknown remote action `{other}` (submit|status|result|cancel|metrics)"
        )),
    }
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("help") | Some("-h") | Some("--help") => {
            print!("{HELP}");
            Ok(false)
        }
        Some("list") => {
            println!("{:<11} {:>7} {:>8} suite", "name", "inputs", "outputs");
            for b in flowc::logic::bench_suite::all() {
                println!(
                    "{:<11} {:>7} {:>8} {}",
                    b.name,
                    b.paper.inputs,
                    b.paper.outputs,
                    b.suite.name()
                );
            }
            Ok(false)
        }
        Some("synth") => {
            let path = args.get(1).ok_or("synth needs a circuit file")?;
            let network = load(path)?;
            let opts = Options::parse(&args[2..])?;
            synth(&network, &opts)
        }
        Some("bench") => {
            let name = args.get(1).ok_or("bench needs a benchmark name")?;
            let bench = flowc::logic::bench_suite::by_name(name)
                .ok_or_else(|| format!("unknown benchmark `{name}` (try `flowc list`)"))?;
            let network = bench.network().map_err(|e| e.to_string())?;
            let opts = Options::parse(&args[2..])?;
            synth(&network, &opts)
        }
        Some("convert") => {
            let input = args.get(1).ok_or("convert needs an input file")?;
            let output = args.get(2).ok_or("convert needs an output file")?;
            let network = load(input)?;
            save(&network, output)?;
            println!("wrote {output}");
            Ok(false)
        }
        Some("remote") => {
            let action = args
                .get(1)
                .ok_or("remote needs an action: submit|status|result|cancel|metrics")?;
            remote(action, &args[2..])
        }
        _ => {
            Err("usage: flowc <list|synth|bench|convert|remote|help> …  (see `flowc help`)".into())
        }
    }
}

fn main() -> ExitCode {
    match run() {
        // 0: clean synthesis; 2: a valid but degraded design was produced
        // (budget exhausted, ladder stepped down, or BDD ceiling lifted);
        // 1: hard failure, nothing usable was produced.
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::from(2),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
