//! The three library workloads: BLIF text in, verified design out, through
//! `flowc_logic::blif`, a `flowc_compact::Session` and its passes, and the
//! `VerifyPass` functional check — single-threaded, so the numbers measure
//! the code rather than the scheduler.

use std::sync::Arc;
use std::time::{Duration, Instant};

use flowc_compact::mapping::map_to_crossbar;
use flowc_compact::pass::{
    BddBuildPass, GraphExtractPass, LadderPass, NormalizePass, Pass, VerifyPass,
};
use flowc_compact::session::graph_key;
use flowc_compact::{
    gamma_sweep_tasks, synthesize_in, CompactError, Config, LabelingStats, Session, SessionConfig,
    VhStrategy,
};
use flowc_conform::Rng;
use flowc_logic::{bench_suite, blif, Network};
use flowc_report::Json;
use flowc_xbar::Crossbar;

use crate::gate::{prove, Gate, Shape};
use crate::run::{peak_rss_mb, JobKey, Measured, Pacer, RunOptions, Workload, PER_LAYER};
use crate::stats::median;
use crate::trace::{min_child_cover, Open, Recorder, Totals};

/// Assignments `VerifyPass` samples per design with more than 16 inputs
/// (it checks every assignment of smaller ones).
pub const VERIFY_SAMPLES: usize = 1024;

/// The five γ points of every sweep (the CLI's `--gamma-sweep 5`).
pub const GAMMAS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// A set-up round builds one circuit's input at least
/// [`SETUP_MIN_REPEATS`] times and for at least this long; its time is the
/// median repetition's. A round runs before the circuit's jobs in every
/// pass, so rounds sample the host's speed across the whole run, and
/// `setup_s` sums each circuit's fastest round.
const SETUP_ROUND: Duration = Duration::from_millis(5);
const SETUP_MIN_REPEATS: usize = 3;

/// How a library workload drives the pipeline.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// A five-point γ sweep through one session per circuit, warm starts
    /// chained across points (the `--gamma-sweep` product path), each point
    /// given `point_budget` of solver time.
    Sweep {
        /// The weighted strategy's time limit per γ point.
        point_budget: Duration,
    },
    /// The heuristic rung at γ = 0.5, a fresh session per design.
    Heuristic,
}

/// A library workload's circuits and mode (`None` for serve).
pub fn spec(workload: Workload) -> Option<(&'static [&'static str], Mode)> {
    match workload {
        Workload::SweepExact => Some((
            &["ctrl", "int2float", "dec", "priority"],
            Mode::Sweep {
                point_budget: Duration::from_secs(30),
            },
        )),
        Workload::SweepBudgeted => Some((
            &["router", "cavlc", "i2c"],
            Mode::Sweep {
                point_budget: Duration::from_millis(500),
            },
        )),
        Workload::MapLarge => Some((
            &[
                "c432", "c499", "c880", "c1355", "c1908", "c2670", "c3540", "c5315", "c7552",
                "arbiter",
            ],
            Mode::Heuristic,
        )),
        Workload::ServeMixed => None,
    }
}

/// A benchmark circuit: the generator's netlist (the correctness
/// reference) and the BLIF text the pipeline is given.
#[derive(Clone)]
pub struct Circuit {
    /// Registry name.
    pub name: &'static str,
    /// The netlist the BLIF was written from.
    pub reference: Network,
    /// The input the system under test sees.
    pub blif: String,
}

/// Builds `name`'s netlist and its BLIF text.
pub fn circuit(name: &'static str) -> Result<Circuit, String> {
    let bench = bench_suite::by_name(name).ok_or_else(|| format!("unknown circuit {name}"))?;
    let reference = bench.network().map_err(|e| format!("{name}: {e}"))?;
    let blif = blif::write(&reference);
    Ok(Circuit {
        name,
        reference,
        blif,
    })
}

/// The configurations one session runs for a circuit, in execution order.
fn configs(mode: Mode, network: &Arc<Network>) -> Vec<(String, Config)> {
    match mode {
        Mode::Sweep { point_budget } => gamma_sweep_tasks(network, &GAMMAS, point_budget)
            .into_iter()
            .map(|t| (t.label, t.config))
            .collect(),
        Mode::Heuristic => vec![(
            "heuristic γ=0.5".into(),
            Config {
                strategy: VhStrategy::Heuristic { gamma: 0.5 },
                align: true,
                var_order: None,
                label_threads: 1,
            },
        )],
    }
}

/// One set-up round of circuit `name` ([`SETUP_ROUND`]): the circuit and
/// the round's median time in seconds.
fn set_up(name: &'static str) -> Result<(Circuit, f64), String> {
    let round = Instant::now();
    let mut times = Vec::new();
    loop {
        let start = Instant::now();
        let c = circuit(name)?;
        times.push(start.elapsed().as_secs_f64());
        if times.len() >= SETUP_MIN_REPEATS && round.elapsed() >= SETUP_ROUND {
            return Ok((c, median(&times).unwrap_or(0.0)));
        }
    }
}

/// A seed for the gate's simulation vectors, distinct per design key.
fn key_seed(seed: u64, key: &str) -> u64 {
    key.bytes().fold(seed ^ 0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// One shipped design and the provenance the metrics need.
struct Design {
    job: u64,
    key: String,
    circuit: usize,
    shape: Shape,
    optimal: bool,
    degraded: bool,
    gap: f64,
    crossbar: Crossbar,
}

/// One pass's jobs, and the recorder when the pass is traced.
struct PassRun<'r> {
    rec: Option<&'r mut Recorder>,
    next_job: u64,
    designs: Vec<Design>,
    /// Each shipped job's latency in milliseconds, keyed by (circuit,
    /// configuration).
    latencies: Vec<(JobKey, f64)>,
}

/// Runs a library workload.
///
/// # Errors
///
/// Set-up failures (an unknown circuit) and an unwritable trace file; job
/// failures are counted instead.
pub fn run(workload: Workload, opts: &RunOptions) -> Result<Measured, String> {
    let (names, mode) = spec(workload).ok_or("not a library workload")?;
    let names = if opts.quick { &names[..1] } else { names };
    let mut m = Measured::default();

    // The first build of each circuit, with its page faults, is not timed.
    let mut circuits: Vec<Circuit> = names
        .iter()
        .map(|&n| circuit(n))
        .collect::<Result<_, _>>()?;
    let mut rng = Rng::new(opts.seed);
    let mut gate = Gate::default();
    let mut recorder = Recorder::default();
    let mut pacer = Pacer::new(opts);
    let mut next_job = 0u64;
    let mut proof_ms = Vec::new();
    while pacer.another() {
        let traced = opts.traced_pass(pacer.passes());
        let mut order: Vec<usize> = (0..circuits.len()).collect();
        shuffle(&mut order, &mut rng);
        let mut pass = PassRun {
            rec: traced.then_some(&mut recorder),
            next_job,
            designs: Vec::new(),
            latencies: Vec::new(),
        };
        let start = Instant::now();
        let mut setting_up = Duration::ZERO;
        for &ci in &order {
            let round = Instant::now();
            let (c, seconds) = set_up(names[ci])?;
            m.setup.record((ci, 0), seconds);
            circuits[ci] = c;
            setting_up += round.elapsed();
            let session = Session::new(SessionConfig {
                verify_samples: Some(VERIFY_SAMPLES),
                warm_labels: matches!(mode, Mode::Sweep { .. }),
                ..SessionConfig::default()
            });
            let plan = |n: &Arc<Network>| configs(mode, n);
            run_circuit(&circuits[ci], ci, &session, &plan, &mut pass, &mut m);
        }
        let wall = (start.elapsed() - setting_up).as_secs_f64();
        let warmup = opts.trace && pacer.passes() == 0;
        pacer.done();
        next_job = pass.next_job;
        let PassRun {
            designs, latencies, ..
        } = pass;
        m.timed_pass(traced, warmup, latencies, wall);
        m.pass_quality(
            designs
                .iter()
                .map(|d| (d.shape.s as f64, d.shape.d as f64, d.gap)),
        );
        let rec = traced.then_some(&mut recorder);
        gate_designs(
            &designs,
            &circuits,
            &mut gate,
            rec,
            opts.seed,
            &mut m,
            &mut proof_ms,
        );
    }
    m.passes = pacer.passes();
    m.peak_rss_mb = peak_rss_mb("self");
    m.detail.push(("proofs".into(), Json::int(proof_ms.len())));
    m.detail
        .push(("proof_ms_total".into(), Json::Num(proof_ms.iter().sum())));
    if let Mode::Sweep { point_budget } = mode {
        m.detail.push((
            "point_budget_s".into(),
            Json::Num(point_budget.as_secs_f64()),
        ));
    }
    if opts.trace {
        let path = opts
            .out_dir
            .join(format!("trace-{}.jsonl", workload.name()));
        recorder
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        m.layers = layer_metrics(&recorder);
    }
    Ok(m)
}

/// Counts each design's quality and passes it through the correctness
/// gate. In a traced pass the proof layer is also timed on every design,
/// as a span of its own outside the job span (a proof is not part of a job).
fn gate_designs(
    designs: &[Design],
    circuits: &[Circuit],
    gate: &mut Gate,
    mut rec: Option<&mut Recorder>,
    seed: u64,
    m: &mut Measured,
    proof_ms: &mut Vec<f64>,
) {
    for d in designs {
        m.ship(d.optimal, d.degraded);
        let reference = &circuits[d.circuit].reference;
        match gate.check(
            &d.key,
            d.shape,
            &d.crossbar,
            reference,
            key_seed(seed, &d.key),
        ) {
            Ok(ms) => proof_ms.extend(ms),
            Err(e) => m.mismatch(format!("correctness: {e}")),
        }
        if let Some(rec) = rec.as_deref_mut() {
            let open = rec.open();
            let proven = prove(&d.crossbar, reference).is_ok();
            rec.close(
                open,
                d.job,
                None,
                "formal",
                vec![("proven", Json::Bool(proven))],
            );
        }
    }
}

/// Traces the serve workload's distinct inputs in process: each circuit,
/// at its γ, through one shared session configured like a serve worker's
/// exact-mip rung with the job deadline as its time limit, then through
/// `VerifyPass` and the proof layer. Serve workers do not verify, so on
/// serve-mixed `verify.ms` is what verification would add.
pub fn trace_in_process(
    circuits: &[Circuit],
    gammas: &[f64],
    deadline: Duration,
    rec: &mut Recorder,
    first_job: u64,
    seed: u64,
    m: &mut Measured,
) {
    let session = Session::new(SessionConfig {
        verify_samples: Some(VERIFY_SAMPLES),
        ..SessionConfig::default()
    });
    let mut pass = PassRun {
        rec: Some(rec),
        next_job: first_job,
        designs: Vec::new(),
        latencies: Vec::new(),
    };
    // Quality is the server's; only failures of these replays count.
    let mut replay = Measured::default();
    for (ci, (c, gamma)) in circuits.iter().zip(gammas).enumerate() {
        let plan = |_: &Arc<Network>| {
            let mut config = Config::gamma(*gamma);
            if let VhStrategy::Weighted { time_limit, .. } = &mut config.strategy {
                *time_limit = deadline;
            }
            vec![(format!("#{ci} γ={gamma}"), config)]
        };
        run_circuit(c, ci, &session, &plan, &mut pass, &mut replay);
    }
    let designs = std::mem::take(&mut pass.designs);
    let rec = pass.rec.take();
    let mut gate = Gate::default();
    gate_designs(
        &designs,
        circuits,
        &mut gate,
        rec,
        seed,
        &mut replay,
        &mut Vec::new(),
    );
    m.failed += replay.failed;
    m.incorrect += replay.incorrect;
    m.errors.extend(replay.errors);
}

/// Fisher–Yates shuffle driven by the run's seeded stream.
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// What a session runs for one parsed circuit: labeled configurations in
/// execution order.
type Plan<'p> = dyn Fn(&Arc<Network>) -> Vec<(String, Config)> + 'p;

/// Synthesizes every configuration `plan` gives for one circuit through
/// `session`. The first job also pays the BLIF parse.
fn run_circuit(
    c: &Circuit,
    ci: usize,
    session: &Session,
    plan: &Plan<'_>,
    pass: &mut PassRun<'_>,
    m: &mut Measured,
) {
    let mut first = Some((Instant::now(), pass.rec.as_deref_mut().map(Recorder::open)));
    let parse_open = pass.rec.as_deref_mut().map(Recorder::open);
    let parsed = blif::parse(&c.blif);
    let job = pass.next_job + 1;
    if let (Some(rec), Some(open)) = (pass.rec.as_deref_mut(), parse_open) {
        let parent = first.as_ref().and_then(|(_, o)| o.as_ref()).map(|o| o.id);
        rec.close(open, job, parent, "logic", vec![]);
    }
    let network = match parsed {
        Ok(n) => Arc::new(n),
        Err(e) => {
            m.attempted += 1;
            m.fail(format!("{}: parse: {e}", c.name));
            return;
        }
    };
    for (k, (label, config)) in plan(&network).into_iter().enumerate() {
        pass.next_job += 1;
        let job = pass.next_job;
        m.attempted += 1;
        let (start, job_open) = first
            .take()
            .unwrap_or_else(|| (Instant::now(), pass.rec.as_deref_mut().map(Recorder::open)));
        let outcome = match (pass.rec.as_deref_mut(), job_open) {
            (Some(rec), Some(open)) => traced_job(rec, open, job, session, &network, &config),
            _ => synthesize_in(session, &network, &config).map(|r| {
                let degraded = r.degradation.as_ref().is_some_and(|d| d.degraded);
                (r.crossbar, r.stats, r.optimal, degraded, r.relative_gap)
            }),
        };
        let latency = start.elapsed().as_secs_f64() * 1e3;
        match outcome {
            Ok((crossbar, stats, optimal, degraded, gap)) => {
                pass.latencies.push(((ci, k), latency));
                pass.designs.push(Design {
                    job,
                    key: format!("{} {label}", c.name),
                    circuit: ci,
                    shape: Shape {
                        rows: stats.rows,
                        cols: stats.cols,
                        s: stats.semiperimeter,
                        d: stats.max_dimension,
                    },
                    optimal,
                    degraded,
                    gap,
                    crossbar,
                });
            }
            Err(e) => m.fail(format!("{} {label}: {e}", c.name)),
        }
    }
}

/// A design plus (optimal, degraded, relative gap).
type JobOutcome = (Crossbar, LabelingStats, bool, bool, f64);

/// One job driven pass by pass — the sequence `synthesize_in` runs — with a
/// span around each layer's public call, all children of `job_open`.
fn traced_job(
    rec: &mut Recorder,
    job_open: Open,
    job: u64,
    session: &Session,
    network: &Network,
    config: &Config,
) -> Result<JobOutcome, CompactError> {
    let parent = Some(job_open.id);

    let open = rec.open();
    let norm = NormalizePass.run(session, network)?;
    rec.close(
        open,
        job,
        parent,
        "normalize",
        vec![("gates", Json::int(network.num_gates()))],
    );

    let hits = session.cache_stats().hits;
    let open = rec.open();
    let bdd = BddBuildPass.run(session, (network, config.var_order.as_deref()))?;
    // Counting the forest is the ledger's work, so the span ends first.
    let end = Instant::now();
    let bdd_hit = session.cache_stats().hits > hits;
    let nodes = bdd.bdds.manager.reachable(&bdd.bdds.roots).len();
    rec.close_at(
        open,
        end,
        job,
        parent,
        "bdd",
        vec![
            ("nodes", Json::int(nodes)),
            ("cache_hit", Json::Bool(bdd_hit)),
        ],
    );

    let open = rec.open();
    let graph = GraphExtractPass.run(session, (&bdd.bdds, bdd.key))?;
    rec.close(
        open,
        job,
        parent,
        "graph",
        vec![
            ("nodes", Json::int(graph.num_nodes())),
            ("edges", Json::int(graph.num_edges())),
        ],
    );

    let open = rec.open();
    let ladder = LadderPass { config }.run(
        session,
        (
            &*graph,
            graph_key(bdd.key),
            norm.output_names.as_slice(),
            bdd.lift_trigger.clone(),
        ),
    )?;
    let end = Instant::now();
    let mut fields = vec![
        ("rung", Json::str(ladder.rung.name())),
        ("bnb_nodes", Json::Num(ladder.solver_nodes as f64)),
        ("cache_hit", Json::Bool(ladder.from_cache)),
        ("warm_accepted", Json::Bool(ladder.warm_start == Some(true))),
        ("optimal", Json::Bool(ladder.optimal)),
        ("gap", Json::Num(ladder.relative_gap)),
    ];
    let first_incumbent = ladder.trace.as_ref().and_then(|t| {
        t.points()
            .iter()
            .find(|p| p.best_integer.is_some())
            .map(|p| p.elapsed.as_secs_f64() * 1e3)
    });
    if let Some(ms) = first_incumbent {
        // Only solves that report a trajectory count towards the mean.
        fields.push(("first_incumbent_ms", Json::Num(ms)));
        fields.push(("trajectory", Json::Bool(true)));
    }
    rec.close_at(open, end, job, parent, "label", fields);

    // The ladder maps internally; mapping is re-run on the returned
    // labeling so its cost can be timed on its own.
    let open = rec.open();
    let remapped = map_to_crossbar(&graph, &ladder.labeling, &norm.output_names);
    rec.close(
        open,
        job,
        parent,
        "map",
        vec![("devices", Json::int(ladder.metrics.active_devices))],
    );
    remapped.map_err(CompactError::Map)?;

    let open = rec.open();
    VerifyPass {
        samples: VERIFY_SAMPLES,
    }
    .run(session, (&ladder.crossbar, network))?;
    // `verify_functional` is exhaustive up to 16 inputs.
    let k = network.num_inputs();
    let assignments = if k <= 16 { 1usize << k } else { VERIFY_SAMPLES };
    rec.close(
        open,
        job,
        parent,
        "verify",
        vec![("assignments", Json::int(assignments))],
    );

    let degraded = ladder.degraded || bdd.budget_lifted;
    rec.close(
        job_open,
        job,
        None,
        "job",
        vec![("degraded", Json::Bool(degraded))],
    );
    let stats = ladder.labeling.stats();
    Ok((
        ladder.crossbar,
        stats,
        ladder.optimal,
        degraded,
        ladder.relative_gap,
    ))
}

/// Per-layer metrics from a library run's spans: times in milliseconds per
/// job, counts per job, shares as ratios of totals. Layers the library
/// never reaches (serve, journal, incremental) read 0.
pub fn layer_metrics(rec: &Recorder) -> Vec<(&'static str, f64)> {
    let t = Totals::of(rec.spans());
    let jobs = t.count("job").max(1) as f64;
    let per_job = |x: f64| x / jobs;
    let ratio = |n: f64, d: f64| if d > 0.0 { n / d } else { 0.0 };
    let formal = t.count("formal") as f64;
    let mut out = vec![
        ("logic.parse_ms", per_job(t.ms("logic"))),
        ("normalize.ms", per_job(t.ms("normalize"))),
        ("bdd.build_ms", per_job(t.ms("bdd"))),
        ("bdd.nodes", per_job(t.field("bdd", "nodes"))),
        ("bdd.cache_hits", per_job(t.field("bdd", "cache_hit"))),
        ("graph.extract_ms", per_job(t.ms("graph"))),
        ("graph.nodes", per_job(t.field("graph", "nodes"))),
        ("graph.edges", per_job(t.field("graph", "edges"))),
        ("label.ms", per_job(t.ms("label"))),
        ("label.share", ratio(t.ms("label"), t.ms("job"))),
        ("label.bnb_nodes", per_job(t.field("label", "bnb_nodes"))),
        (
            "label.bnb_nodes_per_s",
            ratio(t.field("label", "bnb_nodes"), t.ms("label") / 1e3),
        ),
        (
            "label.first_incumbent_ms",
            ratio(
                t.field("label", "first_incumbent_ms"),
                t.field("label", "trajectory"),
            ),
        ),
        ("label.cache_hits", per_job(t.field("label", "cache_hit"))),
        (
            "label.warm_accepted",
            per_job(t.field("label", "warm_accepted")),
        ),
    ];
    // `label.rung.<rung>` counts the label spans whose `rung` was <rung>.
    for &(metric, _) in PER_LAYER
        .iter()
        .filter(|(n, _)| n.starts_with("label.rung."))
    {
        out.push((metric, per_job(t.field("label", &metric["label.".len()..]))));
    }
    out.extend([
        ("map.ms", per_job(t.ms("map"))),
        ("map.devices", per_job(t.field("map", "devices"))),
        ("verify.ms", per_job(t.ms("verify"))),
        (
            "verify.assignments",
            per_job(t.field("verify", "assignments")),
        ),
        ("formal.prove_ms", ratio(t.ms("formal"), formal)),
        (
            "formal.proven_frac",
            ratio(t.field("formal", "proven"), formal),
        ),
        ("trace.layer_cover_min", min_child_cover(rec.spans(), "job")),
    ]);
    out
}
