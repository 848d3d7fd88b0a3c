//! The serve workload: the real `flowc-serve` binary as a child process
//! (journal on, OS-assigned port), driven over HTTP by two closed-loop
//! client threads of this process. A job is timed from its submit until
//! `/status` first reports a terminal state, polled every 2 ms.
//!
//! Job content is fixed (drawn from [`CONTENT_SEED`]) and every pass runs
//! the same jobs against a server of its own, spawned fresh, so each pass
//! repeats one experiment and each job's fastest pass can be taken. The
//! run's seed orders each pass's shared jobs and places each client's
//! patch steps among them. That keeps quality totals comparable across
//! seeds while the timing sees a different interleaving each pass.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use flowc_compact::{Config, EditableNetlist, Session};
use flowc_conform::{EditStreamGen, Rng};
use flowc_logic::{blif, Network};
use flowc_report::Json;

use crate::library::{self, circuit, shuffle, Circuit};
use crate::run::{peak_rss_mb, repo_root, JobKey, Measured, Pacer, RunOptions};
use crate::stats::{median, percentile, tail_mean};
use crate::trace::{min_child_cover, Open, Recorder, Span, Totals};

/// Every job's deadline. It caps a pathological input at a few seconds
/// instead of letting one job dominate a run.
pub const DEADLINE: Duration = Duration::from_millis(5000);

/// Closed-loop clients (one process, at most two threads: `nproc` = 2 on
/// the reference machine).
const CLIENTS: usize = 2;

/// The circuits repeated verbatim (the sweep-exact set), each at these γ.
const REPEATS: [&str; 4] = ["ctrl", "int2float", "dec", "priority"];
const REPEAT_GAMMAS: [f64; 3] = [0.0, 0.5, 1.0];

/// Bases of the 1–5-edit variants, and of every client's patch lineage.
const VARIANT_BASES: [&str; 3] = ["ctrl", "int2float", "dec"];
const LINEAGE_BASE: &str = "int2float";
const LINEAGE_GAMMA: f64 = 0.5;

/// Seed of all job content, fixed so quality totals do not depend on the
/// run's seed. A job whose budget runs out ships a design that depends on
/// the machine's speed; such jobs are counted (`budget_exhausted`,
/// `serve.exhausted_frac`) so a total that moved for that reason shows why.
pub const CONTENT_SEED: u64 = 1;

/// `/status` polling interval.
const POLL: Duration = Duration::from_millis(2);

/// The jobs of one pass.
#[derive(Debug, Clone, Copy)]
struct Mix {
    /// Submissions of the repeated circuits, cycling through every
    /// (circuit, γ) pair (50%).
    repeats: usize,
    /// Fresh edit variants (35%).
    variants: usize,
    /// `/patch` steps per client, 1–3 edits each, chained from the
    /// client's lineage base (15%).
    patches_per_client: usize,
}

const FULL: Mix = Mix {
    repeats: 48,
    variants: 28,
    patches_per_client: 6,
};

/// `--quick`: 20 jobs.
const QUICK: Mix = Mix {
    repeats: 10,
    variants: 6,
    patches_per_client: 2,
};

/// One distinct input: the circuit, its γ and its rendered request body.
struct Input {
    circuit: Circuit,
    gamma: f64,
    body: String,
}

/// One patch step of a lineage: its edit-script lines and the netlist
/// they produce.
struct Step {
    edits: Vec<String>,
    circuit: Circuit,
}

/// All generated job content: the same in every pass.
struct Inputs {
    /// (circuit, γ) pairs submitted verbatim.
    repeats: Vec<Input>,
    /// Edit variants, each submitted once a pass.
    variants: Vec<Input>,
    /// Per client: the lineage base's submit body, and the chain of patch
    /// steps starting from that base.
    lineages: Vec<(String, Vec<Step>)>,
}

fn submit_body(blif: &str, gamma: f64, job_key: Option<&str>) -> String {
    let mut fields = vec![
        ("circuit".into(), Json::str(blif)),
        ("format".into(), Json::str("blif")),
        ("gamma".into(), Json::Num(gamma)),
        ("deadline_ms".into(), Json::Num(DEADLINE.as_millis() as f64)),
    ];
    if let Some(key) = job_key {
        fields.push(("job_key".into(), Json::str(key)));
    }
    Json::Obj(fields).to_compact()
}

fn patch_body(base_key: &str, job_key: &str, edits: &[String]) -> String {
    Json::Obj(vec![
        ("base_key".into(), Json::str(base_key)),
        ("job_key".into(), Json::str(job_key)),
        (
            "edits".into(),
            Json::Arr(edits.iter().map(|e| Json::str(e.clone())).collect()),
        ),
        ("gamma".into(), Json::Num(LINEAGE_GAMMA)),
        ("deadline_ms".into(), Json::Num(DEADLINE.as_millis() as f64)),
    ])
    .to_compact()
}

/// The netlist as the server will see it: BLIF-written and re-parsed, so
/// edit scripts name the nets the server's copy has.
fn as_served(name: &'static str) -> Result<(Circuit, Network), String> {
    let c = circuit(name)?;
    let parsed = blif::parse(&c.blif).map_err(|e| format!("{name}: {e}"))?;
    Ok((c, parsed))
}

/// Applies `edits` to `base` and materializes the result.
fn edited(base: &Network, edits: &[flowc_compact::NetlistEdit]) -> Result<Network, String> {
    let mut netlist = EditableNetlist::from_network(base);
    for e in edits {
        netlist
            .apply(e)
            .map_err(|err| format!("edit `{e}`: {err}"))?;
    }
    netlist.materialize().map_err(|e| e.to_string())
}

/// The repeated (circuit, γ) pairs.
fn repeat_inputs() -> Result<Vec<Input>, String> {
    let mut repeats = Vec::new();
    for name in REPEATS {
        for gamma in REPEAT_GAMMAS {
            let circuit = circuit(name)?;
            repeats.push(Input {
                body: submit_body(&circuit.blif, gamma, None),
                circuit,
                gamma,
            });
        }
    }
    Ok(repeats)
}

/// All job content of a run with `mix`.
fn generate(mix: Mix) -> Result<Inputs, String> {
    let mut rng = Rng::new(CONTENT_SEED);
    let bases = VARIANT_BASES
        .iter()
        .map(|&n| as_served(n).map(|(_, parsed)| (n, parsed)))
        .collect::<Result<Vec<_>, _>>()?;
    let mut variants = Vec::new();
    for i in 0..mix.variants {
        let (name, base) = &bases[i % bases.len()];
        let case = EditStreamGen {
            edits: 1 + rng.below(5),
            ..EditStreamGen::default()
        }
        .replay_for(base.clone(), &mut rng);
        let network = edited(&case.base, &case.edits)?;
        let text = blif::write(&network);
        let gamma = REPEAT_GAMMAS[rng.below(REPEAT_GAMMAS.len())];
        variants.push(Input {
            body: submit_body(&text, gamma, None),
            circuit: Circuit {
                name,
                reference: network,
                blif: text,
            },
            gamma,
        });
    }

    let (base, parsed) = as_served(LINEAGE_BASE)?;
    let mut lineages = Vec::new();
    for client in 0..CLIENTS {
        let mut lrng = Rng::new(CONTENT_SEED ^ ((client + 1) as u64) << 32);
        let sizes: Vec<usize> = (0..mix.patches_per_client)
            .map(|_| 1 + lrng.below(3))
            .collect();
        let case = EditStreamGen {
            edits: sizes.iter().sum(),
            ..EditStreamGen::default()
        }
        .replay_for(parsed.clone(), &mut lrng);
        let mut steps = Vec::new();
        let mut applied = 0;
        for size in sizes {
            let end = (applied + size).min(case.edits.len());
            if end == applied {
                break;
            }
            let network = edited(&case.base, &case.edits[..end])?;
            steps.push(Step {
                edits: case.edits[applied..end]
                    .iter()
                    .map(|e| e.to_string())
                    .collect(),
                circuit: Circuit {
                    name: LINEAGE_BASE,
                    blif: blif::write(&network),
                    reference: network,
                },
            });
            applied = end;
        }
        let key = base_key(client);
        lineages.push((submit_body(&base.blif, LINEAGE_GAMMA, Some(&key)), steps));
    }
    Ok(Inputs {
        repeats: repeat_inputs()?,
        variants,
        lineages,
    })
}

fn base_key(client: usize) -> String {
    format!("client{client}-base")
}

fn step_key(client: usize, step: usize) -> String {
    format!("client{client}-step{step}")
}

/// One HTTP/1.1 exchange, one connection per request (the server's
/// `Connection: close` contract).
fn call(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<(u16, Json), String> {
    let exchange = || -> std::io::Result<String> {
        let mut s = TcpStream::connect(addr)?;
        s.set_read_timeout(Some(Duration::from_secs(30)))?;
        s.write_all(
            format!(
                "{method} {path} HTTP/1.1\r\nHost: ledger\r\nContent-Length: {}\r\n\
                 Connection: close\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )?;
        let mut raw = String::new();
        s.read_to_string(&mut raw)?;
        Ok(raw)
    };
    let raw = exchange().map_err(|e| format!("{method} {path}: {e}"))?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: no status line"))?;
    let text = raw.split("\r\n\r\n").nth(1).unwrap_or("");
    let json = if text.is_empty() {
        Json::Null
    } else {
        Json::parse(text).map_err(|e| format!("{method} {path}: {e}"))?
    };
    Ok((status, json))
}

/// Builds `flowc-serve` from this checkout (a no-op when it is fresh, so a
/// stale binary is never measured) and returns its path.
fn build_server() -> Result<PathBuf, String> {
    let root = repo_root();
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "flowc-serve",
        ])
        .current_dir(&root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building flowc-serve failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    Ok(root.join(target).join("release").join("flowc-serve"))
}

/// A running `flowc-serve` child. Dropping it sends SIGTERM (the server
/// drains and exits), waits, and removes its scratch directory.
struct Server {
    child: Child,
    addr: SocketAddr,
    dir: PathBuf,
}

impl Server {
    fn spawn(bin: &Path, dir: PathBuf) -> Result<Server, String> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let port_file = dir.join("port");
        let child = Command::new(bin)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--port-file")
            .arg(&port_file)
            .arg("--journal")
            .arg(dir.join("journal"))
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            dir,
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("flowc-serve exited during start-up ({status})"));
            }
            let port = std::fs::read_to_string(&port_file)
                .ok()
                .and_then(|t| t.trim().parse::<u16>().ok())
                .filter(|&p| p != 0);
            if let Some(port) = port {
                server.addr.set_port(port);
                if matches!(call(server.addr, "GET", "/healthz", ""), Ok((200, _))) {
                    return Ok(server);
                }
            }
            if Instant::now() > deadline {
                return Err("flowc-serve never became healthy".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        #[cfg(unix)]
        {
            extern "C" {
                fn kill(pid: i32, sig: i32) -> i32;
            }
            const SIGTERM: i32 = 15;
            if let Ok(pid) = i32::try_from(self.child.id()) {
                // SAFETY: kill(2) takes plain integers and has no memory
                // preconditions; `pid` is our own child, not yet reaped
                // (we hold its `Child`), so the id cannot have been reused.
                unsafe {
                    kill(pid, SIGTERM);
                }
            }
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Polls `/status` for job `id` until it reports a terminal state (or the
/// job has run for four deadlines); returns the state and the polls made.
fn await_terminal(addr: SocketAddr, id: u64, submitted: Instant) -> (String, u64) {
    let mut polls = 0u64;
    loop {
        polls += 1;
        let state = match call(addr, "GET", &format!("/status?id={id}"), "") {
            Ok((_, json)) => match json.get("state").and_then(Json::as_str) {
                Some("queued" | "running") => None,
                Some(state) => Some(state.to_string()),
                None => Some("unknown".into()),
            },
            Err(e) => Some(format!("unreachable ({e})")),
        };
        if let Some(state) = state {
            return (state, polls);
        }
        if submitted.elapsed() > DEADLINE * 4 {
            return ("timed out".into(), polls);
        }
        std::thread::sleep(POLL);
    }
}

/// Submits the lineage bases (one per client) and waits for them.
fn seed_lineages(addr: SocketAddr, inputs: &Inputs) -> Result<(), String> {
    for (body, _) in &inputs.lineages {
        let start = Instant::now();
        let (status, json) = call(addr, "POST", "/submit", body)?;
        let id = json
            .get("id")
            .and_then(Json::as_u64)
            .filter(|_| status == 200)
            .ok_or_else(|| format!("lineage base refused ({status}): {}", json.to_compact()))?;
        match await_terminal(addr, id, start) {
            (state, _) if state == "done" => {}
            (state, _) => return Err(format!("lineage base ended `{state}`")),
        }
    }
    Ok(())
}

/// A job handed to a client: its request and what its answer must match.
#[derive(Clone)]
struct Job {
    body: Arc<str>,
    /// The library's semiperimeter for this (circuit, γ), for repeats.
    expect_s: Option<usize>,
    /// Which input the job carries.
    source: Source,
    /// The job's place in the pass ([`plan`]).
    key: JobKey,
}

/// Where a job's circuit comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Source {
    /// `Inputs::repeats[i]`.
    Repeat(usize),
    /// `Inputs::variants[i]`.
    Variant(usize),
    /// Step `step` of client `client`'s patch chain.
    Patch { client: usize, step: usize },
}

impl Source {
    /// The job kind, for per-kind figures.
    fn kind(self) -> &'static str {
        match self {
            Source::Repeat(_) => "repeat",
            Source::Variant(_) => "variant",
            Source::Patch { .. } => "patch",
        }
    }

    /// The route the job is sent to.
    fn path(self) -> &'static str {
        match self {
            Source::Patch { .. } => "/patch",
            _ => "/submit",
        }
    }
}

/// What a client observed for one job.
struct Observed {
    key: JobKey,
    latency_ms: f64,
    error: Option<String>,
    incorrect: bool,
    s: f64,
    d: f64,
    gap: f64,
    degraded: bool,
    /// The job's budget ran out before its solver finished.
    exhausted: bool,
}

/// The spans of one job, when its pass is traced.
struct JobSpans<'r> {
    rec: Option<&'r Mutex<Recorder>>,
    job: u64,
}

impl JobSpans<'_> {
    fn open(&self) -> Option<Open> {
        let mut rec = self.rec?.lock().ok()?;
        Some(rec.open())
    }

    fn close(
        &self,
        open: Option<Open>,
        end: Instant,
        parent: Option<u64>,
        layer: &'static str,
        fields: Vec<(&'static str, Json)>,
    ) {
        let rec = self.rec.and_then(|r| r.lock().ok());
        if let (Some(open), Some(mut rec)) = (open, rec) {
            rec.close_at(open, end, self.job, parent, layer, fields);
        }
    }
}

/// Runs one job: submit, poll to a terminal state, fetch the result.
fn run_job(addr: SocketAddr, job: &Job, spans: &JobSpans<'_>) -> Observed {
    let kind = job.source.kind();
    let mut observed = Observed {
        key: job.key,
        latency_ms: 0.0,
        error: None,
        incorrect: false,
        s: 0.0,
        d: 0.0,
        gap: 0.0,
        degraded: false,
        exhausted: false,
    };
    let start = Instant::now();
    let job_open = spans.open();
    let parent = job_open.as_ref().map(|o| o.id);

    let open = spans.open();
    let submitted = call(addr, "POST", job.source.path(), &job.body);
    spans.close(open, Instant::now(), parent, "serve.submit", vec![]);
    let submit_ms = start.elapsed().as_secs_f64() * 1e3;
    let id = match submitted {
        Ok((200, json)) => json.get("id").and_then(Json::as_u64),
        Ok((status, json)) => {
            observed.error = Some(format!(
                "{kind} {status}: {}",
                json.get("error").and_then(Json::as_str).unwrap_or("?")
            ));
            None
        }
        Err(e) => {
            observed.error = Some(e);
            None
        }
    };
    let Some(id) = id else {
        observed
            .error
            .get_or_insert_with(|| "submit answered no id".into());
        return observed;
    };

    let open = spans.open();
    let (state, polls) = await_terminal(addr, id, start);
    let terminal = Instant::now();
    observed.latency_ms = terminal.duration_since(start).as_secs_f64() * 1e3;
    let polls = vec![("polls", Json::Num(polls as f64))];
    spans.close(open, terminal, parent, "serve.wait", polls);

    let open = spans.open();
    let outcome = call(addr, "GET", &format!("/result?id={id}"), "")
        .ok()
        .and_then(|(_, json)| json.get("outcome").cloned())
        .unwrap_or(Json::Null);
    spans.close(open, Instant::now(), None, "serve.result", vec![]);
    let num = |key: &str| outcome.get(key).and_then(Json::as_f64);
    if state != "done" {
        observed.error = Some(format!("{kind} ended `{state}`"));
    } else if let (Some(s), Some(d)) = (num("semiperimeter"), num("max_dimension")) {
        observed.s = s;
        observed.d = d;
        observed.gap = num("relative_gap").unwrap_or(1.0);
        observed.degraded = outcome.get("degraded").and_then(Json::as_bool) == Some(true);
        observed.exhausted = !matches!(outcome.get("exhausted"), None | Some(Json::Null));
        if let Some(want) = job.expect_s {
            if !observed.degraded && s as usize != want {
                observed.incorrect = true;
                observed.error = Some(format!(
                    "{:?} shipped S = {s}, the library {want}",
                    job.source
                ));
            }
        }
    } else {
        observed.error = Some(format!("{kind} result lacks a design"));
    }

    let mut fields = vec![
        ("kind", Json::str(kind)),
        ("input", Json::str(format!("{:?}", job.source))),
        ("submit_ms", Json::Num(submit_ms)),
        ("worker_ms", Json::Num(num("wall_ms").unwrap_or(0.0))),
        ("state", Json::str(state)),
        ("degraded", Json::Bool(observed.degraded)),
        ("exhausted", Json::Bool(observed.exhausted)),
    ];
    if let Some(inc) = outcome.get("incremental") {
        let n = |k: &str| Json::Num(inc.get(k).and_then(Json::as_f64).unwrap_or(0.0));
        fields.extend([
            ("edits", n("edits")),
            ("resolved_hits", n("hits")),
            ("resolved_repairs", n("repairs")),
            ("resolved_warm", n("warm_starts")),
            ("cold", n("cold_solves")),
            (
                "fallback",
                Json::Bool(inc.get("fallback").and_then(Json::as_bool) == Some(true)),
            ),
        ]);
    }
    spans.close(job_open, terminal, None, "serve.job", fields);
    observed
}

/// The jobs of one pass: the repeats and the variants in seeded order,
/// taken by whichever client is free next, and each client's own patch
/// chain with, per step, how many shared jobs that client runs before it.
struct PassPlan {
    shared: Vec<Job>,
    patches: Vec<Vec<(usize, Job)>>,
}

impl PassPlan {
    fn jobs(&self) -> impl Iterator<Item = &Job> {
        self.shared
            .iter()
            .chain(self.patches.iter().flatten().map(|(_, j)| j))
    }
}

/// One pass's jobs, in an order drawn from `rng`. Every pass carries the
/// same jobs; a job's key is its input and, for a repeat, how many
/// submissions of that input precede it in the pass, so the key names a
/// cache miss or a cache hit whatever place the order gave it.
fn plan(inputs: &Inputs, expect: &[usize], mix: Mix, rng: &mut Rng) -> PassPlan {
    let repeats = inputs.repeats.len();
    let mut shared: Vec<Job> = (0..mix.repeats)
        .map(|i| Job {
            body: inputs.repeats[i % repeats].body.as_str().into(),
            expect_s: Some(expect[i % repeats]),
            source: Source::Repeat(i % repeats),
            key: (0, 0),
        })
        .collect();
    shared.extend(inputs.variants.iter().enumerate().map(|(v, input)| Job {
        body: input.body.as_str().into(),
        expect_s: None,
        source: Source::Variant(v),
        key: (1, v),
    }));
    shuffle(&mut shared, rng);
    let mut submitted = vec![0; repeats];
    for job in &mut shared {
        if let Source::Repeat(r) = job.source {
            job.key = (0, r + submitted[r] * repeats);
            submitted[r] += 1;
        }
    }
    let share = shared.len() / CLIENTS;
    let patches = (0..CLIENTS)
        .map(|client| {
            let mut slots: Vec<usize> = (0..mix.patches_per_client)
                .map(|_| rng.below(share + 1))
                .collect();
            slots.sort_unstable();
            let chain = &inputs.lineages[client].1;
            chain
                .iter()
                .enumerate()
                .zip(slots)
                .map(|((step, s), slot)| {
                    let from = match step {
                        0 => base_key(client),
                        _ => step_key(client, step - 1),
                    };
                    let job = Job {
                        body: patch_body(&from, &step_key(client, step), &s.edits).into(),
                        expect_s: None,
                        source: Source::Patch { client, step },
                        key: (2 + client, step),
                    };
                    (slot, job)
                })
                .collect()
        })
        .collect();
    PassPlan { shared, patches }
}

/// One client's share of a pass: shared jobs as they come, its own patch
/// steps at their slots, in chain order.
fn run_client(
    addr: SocketAddr,
    plan: &PassPlan,
    client: usize,
    next: &AtomicUsize,
    rec: Option<&Mutex<Recorder>>,
    first_id: u64,
) -> Vec<Observed> {
    let mut observed = Vec::new();
    let mut own_shared = 0;
    let mut patches = plan.patches[client].iter().peekable();
    loop {
        let job = match patches.next_if(|(slot, _)| *slot <= own_shared) {
            Some((_, job)) => job,
            None => match plan.shared.get(next.fetch_add(1, Ordering::Relaxed)) {
                Some(job) => {
                    own_shared += 1;
                    job
                }
                // Shared work is done: finish the chain.
                None => match patches.next() {
                    Some((_, job)) => job,
                    None => break,
                },
            },
        };
        let spans = JobSpans {
            rec,
            job: first_id + observed.len() as u64,
        };
        observed.push(run_job(addr, job, &spans));
    }
    observed
}

/// Runs the serve workload.
///
/// # Errors
///
/// Build, spawn and set-up failures; job failures are counted instead.
pub fn run(opts: &RunOptions) -> Result<Measured, String> {
    let mix = if opts.quick { QUICK } else { FULL };
    let bin = build_server()?;
    let mut m = Measured::default();

    // The library's answer for every repeated (circuit, γ): a fresh
    // session, no warm starts, the deadline as the solver's time limit.
    let expect: Vec<usize> = repeat_inputs()?
        .iter()
        .map(|input| {
            let network = blif::parse(&input.circuit.blif).map_err(|e| e.to_string())?;
            let mut config = Config::gamma(input.gamma);
            if let flowc_compact::VhStrategy::Weighted { time_limit, .. } = &mut config.strategy {
                *time_limit = DEADLINE;
            }
            flowc_compact::synthesize_in(&Session::default(), &network, &config)
                .map(|r| r.stats.semiperimeter)
                .map_err(|e| format!("{}: {e}", input.circuit.name))
        })
        .collect::<Result<_, String>>()?;

    let recorder = Mutex::new(Recorder::default());
    let mut rng = Rng::new(opts.seed);
    let mut pacer = Pacer::new(opts);
    let mut inputs = None;
    let mut first_pass: Vec<Source> = Vec::new();
    let mut next_id = 0u64;
    let mut exhausted = 0usize;
    let mut rss = Vec::new();
    let mut rtts = Vec::new();
    let mut metrics = Json::Null;
    while pacer.another() {
        let index = pacer.passes();
        let traced = opts.traced_pass(index);
        // Every pass is set up anew, so it starts from the same state: the
        // job content, a fresh server with an empty journal and cache, and
        // its lineage bases. The set-up is one timed round.
        let start = Instant::now();
        let generated = generate(mix)?;
        let dir = opts
            .out_dir
            .join(format!("serve-{}-{index}", std::process::id()));
        let server = Server::spawn(&bin, dir)?;
        seed_lineages(server.addr, &generated)?;
        m.setup.record((0, 0), start.elapsed().as_secs_f64());
        let inputs = &*inputs.insert(generated);
        let addr = server.addr;
        if traced {
            rtts = (0..20)
                .filter_map(|_| {
                    let t = Instant::now();
                    let ok = matches!(call(addr, "GET", "/healthz", ""), Ok((200, _)));
                    ok.then(|| t.elapsed().as_secs_f64() * 1e3)
                })
                .collect();
        }
        let plan = plan(inputs, &expect, mix, &mut rng);
        if index == 0 {
            first_pass = plan.jobs().map(|j| j.source).collect();
        }
        let rec = traced.then_some(&recorder);
        let next = AtomicUsize::new(0);
        let start = Instant::now();
        let results: Vec<Vec<Observed>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    let first_id = next_id + (client as u64) * 1_000_000 + 1;
                    let (plan, next) = (&plan, &next);
                    scope.spawn(move || run_client(addr, plan, client, next, rec, first_id))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_default())
                .collect()
        });
        let wall = start.elapsed().as_secs_f64();
        let warmup = opts.trace && index == 0;
        rss.push(peak_rss_mb(&server.child.id().to_string()));
        if traced {
            metrics = call(addr, "GET", "/metrics", "")
                .map(|(_, j)| j)
                .unwrap_or(Json::Null);
        }
        drop(server);
        pacer.done();
        next_id += CLIENTS as u64 * 1_000_000;
        let observed: Vec<Observed> = results.into_iter().flatten().collect();
        let jobs = plan.jobs().count();
        exhausted += observed.iter().filter(|o| o.exhausted).count();
        let latencies = account(&mut m, &observed, jobs);
        m.timed_pass(traced, warmup, latencies, wall);
    }
    m.passes = pacer.passes();
    // Every pass's server ran the same jobs from the same empty state.
    m.peak_rss_mb = median(&rss).unwrap_or(0.0);
    let inputs = inputs.ok_or("no pass ran")?;

    m.detail = serve_detail(&bin, mix);
    m.detail
        .push(("budget_exhausted".into(), Json::int(exhausted)));
    if opts.trace {
        let mut rec = recorder
            .into_inner()
            .map_err(|_| "span recorder poisoned")?;
        let serve_layers = serve_layers(rec.spans(), &metrics, &rtts);
        // The library layers, traced in process on the first pass's
        // distinct inputs.
        let mut seen = std::collections::BTreeSet::new();
        let mut circuits = Vec::new();
        let mut gammas = Vec::new();
        for source in first_pass {
            if !seen.insert(source) {
                continue;
            }
            let (c, gamma) = match source {
                Source::Repeat(i) => (&inputs.repeats[i].circuit, inputs.repeats[i].gamma),
                Source::Variant(i) => (&inputs.variants[i].circuit, inputs.variants[i].gamma),
                Source::Patch { client, step } => {
                    (&inputs.lineages[client].1[step].circuit, LINEAGE_GAMMA)
                }
            };
            circuits.push(c.clone());
            gammas.push(gamma);
        }
        library::trace_in_process(
            &circuits, &gammas, DEADLINE, &mut rec, next_id, opts.seed, &mut m,
        );
        let path = opts.out_dir.join("trace-serve-mixed.jsonl");
        rec.write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let mut layers = library::layer_metrics(&rec);
        let cover = min_child_cover(rec.spans(), "serve.job");
        for (name, value) in &mut layers {
            if *name == "trace.layer_cover_min" {
                *value = value.min(cover);
            }
        }
        layers.extend(serve_layers);
        layers.push((
            "serve.exhausted_frac",
            exhausted as f64 / m.attempted.max(1) as f64,
        ));
        m.layers = layers;
    }
    Ok(m)
}

/// Counts one pass of `jobs` jobs, of which `observed` came back, and
/// returns the latencies of those that shipped a design. Only those enter
/// the quality totals; every other job is a failure, and a failure fails
/// the run, so a job that stops shipping cannot pass for a smaller total.
fn account(m: &mut Measured, observed: &[Observed], jobs: usize) -> Vec<(JobKey, f64)> {
    let shipped = || observed.iter().filter(|o| o.error.is_none());
    m.pass_quality(shipped().map(|o| (o.s, o.d, o.gap)));
    for o in observed {
        m.attempted += 1;
        match &o.error {
            Some(e) if o.incorrect => m.mismatch(e.clone()),
            Some(e) => m.fail(e.clone()),
            None => m.ship(o.gap == 0.0, o.degraded),
        }
    }
    for _ in observed.len()..jobs {
        m.attempted += 1;
        m.fail("a client thread panicked".into());
    }
    shipped().map(|o| (o.key, o.latency_ms)).collect()
}

/// Serve-only per-layer metrics from the client spans of the traced passes,
/// and the `/healthz` round trips and `/metrics` of the last traced pass's
/// server. A job's
/// queue wait is its latency less its submit and its worker time.
fn serve_layers(spans: &[Span], metrics: &Json, rtts: &[f64]) -> Vec<(&'static str, f64)> {
    let t = Totals::of(spans);
    let jobs: Vec<&Span> = spans.iter().filter(|s| s.layer == "serve.job").collect();
    let ratio = |n: f64, d: f64| if d > 0.0 { n / d } else { 0.0 };
    let field = |s: &Span, key: &str| {
        s.fields
            .iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| v.as_f64())
            .unwrap_or(0.0)
    };
    let of = |f: &dyn Fn(&Span) -> f64| jobs.iter().map(|s| f(s)).collect::<Vec<f64>>();
    let submit = of(&|s| field(s, "submit_ms"));
    let worker = of(&|s| field(s, "worker_ms"));
    let queue = of(&|s| (s.dur_us / 1e3 - field(s, "submit_ms") - field(s, "worker_ms")).max(0.0));
    let patch: Vec<f64> = jobs
        .iter()
        .filter(|s| {
            s.fields
                .iter()
                .any(|(k, v)| *k == "kind" && v.as_str() == Some("patch"))
        })
        .map(|s| s.dur_us / 1e3)
        .collect();
    let p50 = |v: &[f64]| percentile(v, 50.0).unwrap_or(0.0);
    let tail = |v: &[f64]| tail_mean(v).unwrap_or(0.0);
    let resolved = t.field("serve.job", "resolved_hits")
        + t.field("serve.job", "resolved_repairs")
        + t.field("serve.job", "resolved_warm");
    let counter = |name: &str| {
        metrics
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let requests = counter("submitted") + counter("patches");
    let shed = counter("shed_queue_full")
        + counter("shed_breaker")
        + counter("shed_deadline")
        + counter("shed_shutdown");
    let appended = metrics
        .get("journal")
        .and_then(|j| j.get("records_appended"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    vec![
        ("incremental.patch_ms_p50", p50(&patch)),
        (
            "incremental.resolved_frac",
            ratio(resolved, t.field("serve.job", "edits")),
        ),
        (
            "incremental.cold",
            ratio(t.field("serve.job", "cold"), patch.len() as f64),
        ),
        (
            "session.cache_hit_rate",
            metrics
                .get("cache")
                .and_then(|c| c.get("hit_rate"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
        ),
        ("serve.http_rtt_ms", p50(rtts)),
        ("serve.submit_ms_p50", p50(&submit)),
        ("serve.submit_ms_tail", tail(&submit)),
        ("serve.queue_wait_ms_p50", p50(&queue)),
        ("serve.queue_wait_ms_tail", tail(&queue)),
        ("serve.worker_ms_p50", p50(&worker)),
        ("serve.worker_ms_tail", tail(&worker)),
        (
            "serve.polls_per_job",
            ratio(t.field("serve.wait", "polls"), jobs.len() as f64),
        ),
        ("serve.shed", ratio(shed, requests)),
        (
            "serve.breaker_trips",
            ratio(counter("breaker_trips"), requests),
        ),
        ("journal.records_appended", ratio(appended, requests)),
    ]
}

/// The serve run's provenance, for the run record.
fn serve_detail(bin: &Path, mix: Mix) -> Vec<(String, Json)> {
    let mtime = std::fs::metadata(bin)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0.0, |d| d.as_secs_f64());
    vec![
        (
            // Relative to the checkout, so result files compare across
            // machines.
            "serve_binary".into(),
            Json::str(
                bin.strip_prefix(repo_root())
                    .unwrap_or(bin)
                    .display()
                    .to_string(),
            ),
        ),
        ("serve_binary_mtime".into(), Json::Num(mtime)),
        ("clients".into(), Json::int(CLIENTS)),
        ("deadline_ms".into(), Json::Num(DEADLINE.as_millis() as f64)),
        (
            "jobs_per_pass".into(),
            Json::int(mix.repeats + mix.variants + CLIENTS * mix.patches_per_client),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shipped(s: f64, gap: f64) -> Observed {
        Observed {
            key: (0, s as usize),
            latency_ms: 20.0,
            error: None,
            incorrect: false,
            s,
            d: s / 2.0,
            gap,
            degraded: false,
            exhausted: false,
        }
    }

    #[test]
    fn a_failed_job_leaves_the_quality_totals_unchanged() {
        let mut clean = Measured::default();
        let latencies = account(&mut clean, &[shipped(40.0, 0.2), shipped(60.0, 0.4)], 2);
        assert_eq!(latencies, vec![((0, 40), 20.0), ((0, 60), 20.0)]);

        // The same pass with one job refused and one never answered: a
        // failure adds no S, no D and no zero gap.
        let mut refused = shipped(0.0, 0.0);
        refused.error = Some("variant 503: shed".into());
        let mut failing = Measured::default();
        let observed = [shipped(40.0, 0.2), refused, shipped(60.0, 0.4)];
        let latencies = account(&mut failing, &observed, 4);
        assert_eq!(latencies, vec![((0, 40), 20.0), ((0, 60), 20.0)]);
        assert_eq!(failing.end_to_end()[4..7], clean.end_to_end()[4..7]);
        assert_eq!(
            failing.end_to_end()[4..7],
            [100.0, 50.0, 0.30000000000000004]
        );
        assert_eq!((failing.attempted, failing.failed), (4, 2));
        assert_eq!(failing.incorrect, 0);
    }
}
