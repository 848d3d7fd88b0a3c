//! The service itself: acceptor, worker pool, supervisor, and the
//! endpoint handlers, wired around the overload machinery
//! ([`crate::admission`], [`crate::breaker`], [`crate::queue`]).
//!
//! Fault containment layers, outermost first:
//!
//! 1. **Admission** — a job is accepted, degraded to a cheaper ladder
//!    rung, or rejected with a typed retry-after error *before* it can
//!    occupy memory. The queue is bounded; nothing ever waits unboundedly.
//! 2. **Circuit breaker** — failure-rate or queue-depth trips switch the
//!    server to reject-fast; a half-open probe decides recovery.
//! 3. **Worker isolation** — each job runs on a worker thread whose panic
//!    kills only that job; the supervisor restarts the worker with
//!    exponential backoff and fails the in-flight job with a typed error.
//! 4. **Budget enforcement** — every job carries a deadline-bearing
//!    [`Budget`] whose cancel flag `POST /cancel` fires; the pipeline
//!    aborts mid-solve and ships a degraded-but-valid design when it can.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use flowc_baselines::{Backend, MappingBackend, SynthesisCtx};
use flowc_budget::Budget;
use flowc_compact::pipeline::Config;
use flowc_compact::session::bdd_key;
use flowc_compact::{
    synthesize_in_budgeted, CompactError, CompactResult, EditSession, EditSessionConfig,
    EditableNetlist, Session, SessionConfig, StageKind,
};
use flowc_logic::blif;
use flowc_report::Json;

use crate::admission::{LatencyModel, ServeRung};
use crate::breaker::{Breaker, BreakerConfig, BreakerState};
use crate::http::{read_request, write_response, Request};
use crate::jobs::{Insert, JobEntry, JobState, JobTable};
use crate::journal::{Journal, JournalConfig, JournalStats, Record};
use crate::metrics::Metrics;
use crate::protocol::{error_json, parse_patch, parse_submit, PatchDirective, SubmitSpec};
use crate::queue::{JobQueue, QueuedJob};

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Synthesis worker threads.
    pub workers: usize,
    /// Bounded queue capacity.
    pub queue_capacity: usize,
    /// Artifact-cache shards (one [`Session`] each), keyed by BDD key.
    pub session_shards: usize,
    /// Artifacts cached per stage per shard.
    pub cache_capacity: usize,
    /// Finished jobs retained for result pickup.
    pub retain: usize,
    /// Circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Write-ahead journal: `Some` makes every job lifecycle durable and
    /// replays it on startup. `None` (the default) keeps the PR-5
    /// memory-only behavior.
    pub journal: Option<JournalConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 64,
            session_shards: 4,
            cache_capacity: 64,
            retain: 1024,
            breaker: BreakerConfig::default(),
            journal: None,
        }
    }
}

/// What startup recovery did (populated only when the journal is on).
#[derive(Debug, Clone, Copy, Default)]
pub struct Recovery {
    /// Terminal jobs restored with their outcomes for result pickup.
    pub restored_terminal: usize,
    /// Interrupted (queued/running) jobs re-enqueued for execution.
    pub requeued: usize,
    /// Replayed jobs whose submit body no longer parses (failed typed).
    pub failed_replay: usize,
    /// Replayed jobs shed because the queue filled during recovery.
    pub shed_on_recovery: usize,
    /// Journal replay counters (torn tails, checksum failures, records).
    pub journal: JournalStats,
}

/// Which worker is running which job (crash attribution).
#[derive(Debug, Default)]
struct WorkerSlot {
    current: Mutex<Option<u64>>,
}

/// One retained incremental lineage: the edit session whose netlist is
/// the state named by a job key, plus the fingerprint a reuse must match
/// (same cone key, same γ, same rung — anything else gets a fresh
/// session, never a silently diverged one).
struct LineageEntry {
    cone_key: u64,
    gamma_bits: u64,
    rung: ServeRung,
    session: EditSession,
}

/// The bounded worker-side registry of live edit sessions, keyed by the
/// job key naming each session's current netlist state. A patch *takes*
/// its base session (two racing patches on one lineage: one continues
/// incrementally, the other rebuilds from the base netlist) and
/// re-registers the advanced session under the patch's own key.
struct EditRegistry {
    entries: HashMap<String, LineageEntry>,
    order: VecDeque<String>,
    capacity: usize,
}

impl EditRegistry {
    fn new(capacity: usize) -> EditRegistry {
        EditRegistry {
            entries: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Removes and returns the session at `key` iff its fingerprint
    /// matches; a mismatched entry stays (a later patch may still want it).
    fn take(
        &mut self,
        key: &str,
        cone_key: u64,
        gamma_bits: u64,
        rung: ServeRung,
    ) -> Option<EditSession> {
        match self.entries.get(key) {
            Some(e) if e.cone_key == cone_key && e.gamma_bits == gamma_bits && e.rung == rung => {}
            _ => return None,
        }
        self.order.retain(|k| k != key);
        self.entries.remove(key).map(|e| e.session)
    }

    fn insert(&mut self, key: String, entry: LineageEntry) {
        if self.entries.insert(key.clone(), entry).is_some() {
            self.order.retain(|k| *k != key);
        }
        self.order.push_back(key);
        while self.entries.len() > self.capacity {
            match self.order.pop_front() {
                Some(old) => {
                    self.entries.remove(&old);
                }
                None => break,
            }
        }
    }
}

/// Shared server state: everything the acceptor, handlers, workers, and
/// supervisor touch.
struct ServerInner {
    config: ServeConfig,
    queue: JobQueue,
    jobs: JobTable,
    sessions: Vec<Arc<Session>>,
    metrics: Mutex<Metrics>,
    model: Mutex<LatencyModel>,
    breaker: Mutex<Breaker>,
    slots: Vec<WorkerSlot>,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    journal: Option<Journal>,
    recovery: Option<Recovery>,
    edit_sessions: Mutex<EditRegistry>,
    /// The shared disk labeling cache directory (journal mode only);
    /// edit sessions write through it too, so incremental labelings
    /// survive crashes with the rest of the cache.
    disk_cache: Option<PathBuf>,
}

/// Terminal transition + journal append, in that order (the journal is
/// a lower bound on in-memory state). Returns whether this call made
/// the transition; duplicates journal nothing.
fn finish_job(inner: &ServerInner, id: u64, state: JobState, outcome: Json) -> bool {
    let newly = inner.jobs.finish(id, state.clone(), outcome.clone());
    if newly {
        if let Some(journal) = &inner.journal {
            journal.append(&Record::Terminal {
                id,
                state: state.name().into(),
                outcome,
            });
        }
    }
    newly
}

/// A running server. Dropping it without [`Server::shutdown`] aborts the
/// process-shared threads ungracefully; call `shutdown` for a clean drain.
pub struct Server {
    inner: Arc<ServerInner>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts the service: acceptor thread, `workers` synthesis
    /// workers, and the supervisor that restarts crashed workers.
    ///
    /// # Errors
    ///
    /// Propagates the bind error (address in use, permission).
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let shards = config.session_shards.max(1);
        // With a journal directory, labelings also persist to disk (CRC32
        // enveloped), so cached artifacts survive the same crashes the
        // journal recovers jobs from. Shards share one directory safely:
        // entries are content-keyed and written atomically.
        let disk_cache = config
            .journal
            .as_ref()
            .map(|journal| journal.dir.join("cache"));
        let sessions = (0..shards)
            .map(|_| {
                Arc::new(Session::new(SessionConfig {
                    cache_capacity: config.cache_capacity,
                    disk_cache: disk_cache.clone(),
                    ..SessionConfig::default()
                }))
            })
            .collect();
        let slots = (0..config.workers.max(1))
            .map(|_| WorkerSlot::default())
            .collect();

        // Journal replay happens before any thread exists: the table and
        // queue are rebuilt single-threaded, then serving starts.
        let queue = JobQueue::new(config.queue_capacity);
        let jobs = JobTable::new(config.retain);
        let mut next_id = 1u64;
        let mut journal = None;
        let mut recovery = None;
        if let Some(journal_config) = &config.journal {
            let (j, replay) = Journal::open(journal_config.clone())?;
            next_id = replay.next_id.max(1);
            let mut summary = Recovery {
                journal: replay.stats,
                ..Recovery::default()
            };
            for job in replay.jobs {
                restore_job(&jobs, &queue, &j, job, &mut summary);
            }
            journal = Some(j);
            recovery = Some(summary);
        }

        let inner = Arc::new(ServerInner {
            queue,
            jobs,
            sessions,
            metrics: Mutex::new(Metrics::default()),
            model: Mutex::new(LatencyModel::default()),
            breaker: Mutex::new(Breaker::new(config.breaker.clone())),
            slots,
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(next_id),
            journal,
            recovery,
            edit_sessions: Mutex::new(EditRegistry::new(16)),
            disk_cache,
            config,
        });

        let acceptor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("serve-acceptor".into())
                .spawn(move || accept_loop(&inner, &listener))
                .expect("spawn acceptor")
        };
        let supervisor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("serve-supervisor".into())
                .spawn(move || supervise(&inner))
                .expect("spawn supervisor")
        };

        Ok(Server {
            inner,
            addr,
            acceptor: Some(acceptor),
            supervisor: Some(supervisor),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// What startup recovery restored (`None` without a journal).
    pub fn recovery(&self) -> Option<Recovery> {
        self.inner.recovery
    }

    /// Requests a graceful shutdown: stop accepting, shed unstarted jobs,
    /// let running jobs finish. Returns immediately; [`Server::join`]
    /// waits for the drain.
    pub fn request_shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        let shed = self.inner.queue.close();
        for q in &shed {
            finish_job(
                &self.inner,
                q.id,
                JobState::Shed,
                error_json(
                    "shed_shutdown",
                    "server shutting down before the job started",
                    None,
                ),
            );
        }
        let mut metrics = self.inner.metrics.lock().unwrap_or_else(|e| e.into_inner());
        metrics.counters.shed_shutdown += shed.len() as u64;
    }

    /// Waits for the acceptor, workers, and supervisor to exit. Call
    /// after [`Server::request_shutdown`] (or let a signal handler set it).
    pub fn join(mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
    }

    /// Convenience: request shutdown and wait for the drain.
    pub fn shutdown(self) {
        self.request_shutdown();
        self.join();
    }
}

/// Rebuilds one replayed job. Terminal jobs come back spec-less with
/// their outcomes; interrupted jobs re-parse their original submit body
/// and re-enter the queue with a fresh full deadline (at-least-once:
/// a job that was `running` when the server died runs again).
fn restore_job(
    jobs: &JobTable,
    queue: &JobQueue,
    journal: &Journal,
    job: crate::journal::JobRecord,
    summary: &mut Recovery,
) {
    let id = job.id;
    let rung = ServeRung::parse(&job.rung).unwrap_or(ServeRung::ExactMip);
    if job.is_terminal() {
        let budget = Budget::unlimited();
        let cancel = budget.cancel_handle();
        jobs.insert(JobEntry {
            id,
            job_key: job.key,
            label: job.label,
            spec: None,
            rung,
            admission_degraded: job.degraded,
            budget,
            cancel,
            cancel_requested: false,
            state: JobState::parse(&job.state).unwrap_or(JobState::Failed),
            submitted: Instant::now(),
            outcome: Some(job.outcome.unwrap_or(Json::Null)),
        });
        summary.restored_terminal += 1;
        return;
    }
    let spec = match parse_submit(&job.body) {
        Ok(spec) => spec,
        Err(msg) => {
            // The body journaled at admission no longer parses — only
            // possible through corruption or a wire-format change. Fail
            // it typed rather than dropping the id on the floor.
            let budget = Budget::unlimited();
            let cancel = budget.cancel_handle();
            jobs.insert(JobEntry {
                id,
                job_key: job.key,
                label: job.label,
                spec: None,
                rung,
                admission_degraded: job.degraded,
                budget,
                cancel,
                cancel_requested: false,
                state: JobState::Queued,
                submitted: Instant::now(),
                outcome: None,
            });
            let outcome = error_json(
                "replay_failed",
                &format!("journaled submit body no longer parses: {msg}"),
                None,
            );
            jobs.finish(id, JobState::Failed, outcome.clone());
            journal.append(&Record::Terminal {
                id,
                state: JobState::Failed.name().into(),
                outcome,
            });
            summary.failed_replay += 1;
            return;
        }
    };
    let budget = Budget::unlimited().with_deadline(spec.deadline);
    let cancel = budget.cancel_handle();
    let priority = job.priority;
    jobs.insert(JobEntry {
        id,
        job_key: job.key,
        label: job.label,
        spec: Some(spec),
        rung,
        admission_degraded: job.degraded,
        budget,
        cancel,
        cancel_requested: false,
        state: JobState::Queued,
        submitted: Instant::now(),
        outcome: None,
    });
    if queue
        .push(QueuedJob {
            priority,
            seq: id,
            id,
        })
        .is_err()
    {
        let outcome = error_json("queue_full", "queue filled during crash recovery", None);
        jobs.finish(id, JobState::Shed, outcome.clone());
        journal.append(&Record::Terminal {
            id,
            state: JobState::Shed.name().into(),
            outcome,
        });
        summary.shed_on_recovery += 1;
    } else {
        summary.requeued += 1;
    }
}

/// Accept loop: nonblocking accepts with a short sleep so the shutdown
/// flag is honored within ~10ms even when no connections arrive.
fn accept_loop(inner: &Arc<ServerInner>, listener: &TcpListener) {
    while !inner.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let inner = Arc::clone(inner);
                // One short-lived thread per connection: requests are tiny
                // and `read_request` enforces size bounds, so the only
                // way to hold the thread is a slow client — bounded by the
                // read timeout below.
                let _ = std::thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || handle_connection(&inner, stream));
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn handle_connection(inner: &Arc<ServerInner>, mut stream: TcpStream) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let request = match read_request(&mut stream) {
        Ok(r) => r,
        Err(e) => {
            let body = error_json(e.tag, "request rejected", None).to_compact();
            write_response(&mut stream, e.status, &body);
            return;
        }
    };
    let (status, body) = route(inner, &request);
    write_response(&mut stream, status, &body.to_compact());
}

fn route(inner: &Arc<ServerInner>, request: &Request) -> (u16, Json) {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/submit") => submit(inner, &request.body),
        ("POST", "/patch") => patch(inner, &request.body),
        ("GET", "/status") => with_id(request, |id| status(inner, id)),
        ("GET", "/result") => with_id(request, |id| result(inner, id)),
        ("POST", "/cancel") => {
            let id = Json::parse(&request.body)
                .ok()
                .and_then(|j| j.get("id").and_then(Json::as_u64))
                .or_else(|| request.query.get("id").and_then(|s| s.parse().ok()));
            match id {
                Some(id) => cancel(inner, id),
                None => (
                    400,
                    error_json(
                        "bad_request",
                        "missing job id (body `{\"id\": n}` or ?id=n)",
                        None,
                    ),
                ),
            }
        }
        ("GET", "/metrics") => (200, metrics_json(inner)),
        ("GET", "/healthz") => (200, Json::Obj(vec![("ok".into(), Json::Bool(true))])),
        (_, "/submit" | "/patch" | "/status" | "/result" | "/cancel" | "/metrics" | "/healthz") => {
            (
                405,
                error_json("method_not_allowed", "wrong method for this endpoint", None),
            )
        }
        _ => (404, error_json("not_found", "unknown endpoint", None)),
    }
}

fn with_id(request: &Request, f: impl FnOnce(u64) -> (u16, Json)) -> (u16, Json) {
    match request.query.get("id").and_then(|s| s.parse().ok()) {
        Some(id) => f(id),
        None => (400, error_json("bad_request", "missing ?id=<job id>", None)),
    }
}

/// The expected queueing delay: mean observed job latency × depth,
/// divided across workers. Zero until the first job completes.
fn queue_wait_estimate(inner: &ServerInner) -> Duration {
    let metrics = inner.metrics.lock().unwrap_or_else(|e| e.into_inner());
    let mean_us = metrics.histogram("job").map_or(0, |h| h.mean_us());
    drop(metrics);
    let depth = inner.queue.depth() as u64;
    let workers = inner.config.workers.max(1) as u64;
    Duration::from_micros(mean_us.saturating_mul(depth) / workers)
}

/// Shutdown + circuit-breaker gate shared by `/submit` and `/patch`.
/// Breaker first: reject-fast must not pay for JSON/netlist parsing.
fn pre_admit(inner: &Arc<ServerInner>) -> Result<Instant, (u16, Json)> {
    if inner.shutdown.load(Ordering::SeqCst) {
        let mut metrics = inner.metrics.lock().unwrap_or_else(|e| e.into_inner());
        metrics.counters.shed_shutdown += 1;
        return Err((503, error_json("shutting_down", "server is draining", None)));
    }
    let now = Instant::now();
    let admitted = inner
        .breaker
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .admit(now);
    if let Err(rej) = admitted {
        let mut metrics = inner.metrics.lock().unwrap_or_else(|e| e.into_inner());
        metrics.counters.shed_breaker += 1;
        return Err((
            503,
            error_json(
                "breaker_open",
                "the service is shedding load after repeated failures or overload",
                Some(rej.retry_after),
            ),
        ));
    }
    Ok(now)
}

fn submit(inner: &Arc<ServerInner>, body: &str) -> (u16, Json) {
    {
        let mut metrics = inner.metrics.lock().unwrap_or_else(|e| e.into_inner());
        metrics.counters.submitted += 1;
    }
    let now = match pre_admit(inner) {
        Ok(now) => now,
        Err(resp) => return resp,
    };
    let spec = match parse_submit(body) {
        Ok(s) => s,
        Err(msg) => return (400, error_json("bad_request", &msg, None)),
    };
    admit_and_enqueue(inner, spec, now, body.to_string(), Vec::new())
}

/// `POST /patch`: an edit stream against the netlist of an earlier job,
/// named by its `job_key` (the lineage). The edits are validated and
/// materialized here, so the enqueued job carries an authoritative
/// netlist; the worker then tries the incremental ladder and falls back
/// to cold synthesis of that netlist on any desync.
fn patch(inner: &Arc<ServerInner>, body: &str) -> (u16, Json) {
    {
        let mut metrics = inner.metrics.lock().unwrap_or_else(|e| e.into_inner());
        metrics.counters.patches += 1;
    }
    let now = match pre_admit(inner) {
        Ok(now) => now,
        Err(resp) => return resp,
    };
    let req = match parse_patch(body) {
        Ok(r) => r,
        Err(msg) => return (400, error_json("bad_request", &msg, None)),
    };
    let base = match inner.jobs.lookup_key(&req.base_key) {
        None => {
            return (
                404,
                error_json(
                    "unknown_lineage",
                    &format!(
                        "no job with key `{}` (evicted, or never submitted)",
                        req.base_key
                    ),
                    None,
                ),
            );
        }
        Some((id, None)) => {
            return (
                409,
                error_json(
                    "lineage_lost",
                    &format!(
                        "job {id} (key `{}`) was restored from the journal without its \
                         circuit; resubmit the base netlist before patching it",
                        req.base_key
                    ),
                    None,
                ),
            );
        }
        Some((_, Some(network))) => network,
    };

    // Validate the whole stream against the base before admitting
    // anything: a refused edit is the client's bug, reported typed.
    let mut netlist = EditableNetlist::from_network(&base);
    for (i, edit) in req.edits.iter().enumerate() {
        if let Err(e) = netlist.apply(edit) {
            return (
                400,
                error_json(
                    "bad_edit",
                    &format!("edit {i} (`{edit}`) rejected: {e}"),
                    None,
                ),
            );
        }
    }
    let edited = match netlist.materialize() {
        Ok(n) => n,
        Err(e) => return (400, error_json("bad_edit", &e.to_string(), None)),
    };
    let label = req
        .label
        .clone()
        .unwrap_or_else(|| format!("{}+{}", req.base_key, req.edits.len()));

    // The journal gets a plain submit body carrying the materialized
    // BLIF: crash replay re-runs the patch as cold synthesis of the same
    // netlist under the same key — correct, just not incremental.
    let journal_body = Json::Obj(vec![
        ("circuit".into(), Json::str(blif::write(&edited))),
        ("format".into(), Json::str("blif")),
        ("gamma".into(), Json::Num(req.gamma)),
        ("strategy".into(), Json::str(req.rung.name())),
        (
            "deadline_ms".into(),
            Json::Num(req.deadline.as_millis() as f64),
        ),
        ("priority".into(), Json::Num(f64::from(req.priority))),
        ("job_key".into(), Json::str(req.job_key.clone())),
        ("label".into(), Json::str(label.clone())),
    ])
    .to_compact();

    let lineage = req.base_key.clone();
    let spec = SubmitSpec {
        network: Arc::new(edited),
        label,
        gamma: req.gamma,
        rung: req.rung,
        backend: Backend::default(),
        deadline: req.deadline,
        priority: req.priority,
        job_key: Some(req.job_key),
        patch: Some(PatchDirective {
            lineage: req.base_key,
            base,
            edits: req.edits,
        }),
    };
    admit_and_enqueue(
        inner,
        spec,
        now,
        journal_body,
        vec![("patched_from".into(), Json::str(lineage))],
    )
}

/// The shared back half of admission: queue-depth shed, deadline
/// feasibility, id allocation, job-key dedup, journal append, and the
/// queue push. `journal_body` is what replays after a crash — always a
/// plain `/submit` body, even for patches.
fn admit_and_enqueue(
    inner: &Arc<ServerInner>,
    spec: SubmitSpec,
    now: Instant,
    journal_body: String,
    extra_fields: Vec<(String, Json)>,
) -> (u16, Json) {
    // Queue-depth shed: a full queue trips the breaker (overload evidence)
    // and rejects with the expected drain time.
    let wait = queue_wait_estimate(inner);
    if inner.queue.depth() >= inner.queue.capacity() {
        let trips = {
            let mut breaker = inner.breaker.lock().unwrap_or_else(|e| e.into_inner());
            breaker.trip_for_overload(now);
            breaker.trips()
        };
        let mut metrics = inner.metrics.lock().unwrap_or_else(|e| e.into_inner());
        metrics.counters.shed_queue_full += 1;
        metrics.counters.breaker_trips = trips;
        return (
            429,
            error_json(
                "queue_full",
                "the job queue is at capacity",
                Some(wait.max(Duration::from_millis(10))),
            ),
        );
    }

    // Deadline feasibility: accept at the requested rung, degrade to a
    // cheaper one, or reject — never enqueue a job that cannot finish.
    let plan = {
        let model = inner.model.lock().unwrap_or_else(|e| e.into_inner());
        model.plan(spec.rung, spec.deadline, wait)
    };
    let admission = match plan {
        Ok(a) => a,
        Err(inf) => {
            let mut metrics = inner.metrics.lock().unwrap_or_else(|e| e.into_inner());
            metrics.counters.shed_deadline += 1;
            let msg = format!(
                "deadline {}ms is below the cheapest-rung estimate {}ms",
                spec.deadline.as_millis(),
                inf.estimate.as_millis().max(1)
            );
            return (
                422,
                error_json("deadline_infeasible", &msg, Some(inf.retry_after)),
            );
        }
    };

    let id = inner.next_id.fetch_add(1, Ordering::SeqCst);
    let budget = Budget::unlimited().with_deadline(spec.deadline);
    let cancel = budget.cancel_handle();
    let priority = spec.priority;
    let requested = spec.rung;
    let job_key = spec.job_key.clone();
    let label = spec.label.clone();
    match inner.jobs.insert(JobEntry {
        id,
        job_key: job_key.clone(),
        label: label.clone(),
        spec: Some(spec),
        rung: admission.rung,
        admission_degraded: admission.degraded,
        budget,
        cancel,
        cancel_requested: false,
        state: JobState::Queued,
        submitted: now,
        outcome: None,
    }) {
        Insert::Inserted => {}
        // Idempotent resubmission: the key already names a job (possibly
        // restored from the journal after a crash) — hand that one back
        // instead of running the work twice.
        Insert::Duplicate(existing) => {
            let state = inner
                .jobs
                .status(existing)
                .map_or_else(|| "unknown".into(), |(s, _, _)| s.name().to_string());
            return (
                200,
                Json::Obj(vec![
                    ("id".into(), Json::Num(existing as f64)),
                    ("state".into(), Json::str(state)),
                    ("duplicate".into(), Json::Bool(true)),
                ]),
            );
        }
    }
    // Journal the admission *before* the queue push: once a worker can
    // see the job, the journal already covers it (records replay
    // idempotently, so the harmless reverse orderings don't matter, but
    // a journaled-then-shed job must never become a popped-then-lost one).
    if let Some(journal) = &inner.journal {
        journal.append(&Record::Admitted {
            id,
            key: job_key,
            body: journal_body,
            label,
            rung: admission.rung.name().into(),
            degraded: admission.degraded,
            priority,
        });
    }
    if inner
        .queue
        .push(QueuedJob {
            priority,
            seq: id,
            id,
        })
        .is_err()
    {
        // Lost the race between the depth check and the push.
        finish_job(
            inner,
            id,
            JobState::Shed,
            error_json("queue_full", "queue filled during admission", None),
        );
        inner
            .breaker
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .trip_for_overload(now);
        let mut metrics = inner.metrics.lock().unwrap_or_else(|e| e.into_inner());
        metrics.counters.shed_queue_full += 1;
        return (
            429,
            error_json(
                "queue_full",
                "the job queue is at capacity",
                Some(wait.max(Duration::from_millis(10))),
            ),
        );
    }

    {
        let mut metrics = inner.metrics.lock().unwrap_or_else(|e| e.into_inner());
        metrics.counters.accepted += 1;
        if admission.degraded {
            metrics.counters.degraded_admission += 1;
        }
    }
    let mut fields = vec![
        ("id".into(), Json::Num(id as f64)),
        ("rung".into(), Json::str(admission.rung.name())),
        ("requested_rung".into(), Json::str(requested.name())),
        ("degraded".into(), Json::Bool(admission.degraded)),
        (
            "estimated_ms".into(),
            Json::Num(admission.estimate.as_millis() as f64),
        ),
    ];
    fields.extend(extra_fields);
    (200, Json::Obj(fields))
}

fn status(inner: &Arc<ServerInner>, id: u64) -> (u16, Json) {
    match inner.jobs.status(id) {
        None => (
            404,
            error_json("not_found", "unknown or evicted job id", None),
        ),
        Some((state, submitted, label)) => (
            200,
            Json::Obj(vec![
                ("id".into(), Json::Num(id as f64)),
                ("state".into(), Json::str(state.name())),
                ("label".into(), Json::str(label)),
                (
                    "age_ms".into(),
                    Json::Num(submitted.elapsed().as_millis() as f64),
                ),
            ]),
        ),
    }
}

fn result(inner: &Arc<ServerInner>, id: u64) -> (u16, Json) {
    match inner.jobs.outcome(id) {
        Some((state, outcome)) => (
            200,
            Json::Obj(vec![
                ("id".into(), Json::Num(id as f64)),
                ("state".into(), Json::str(state.name())),
                ("outcome".into(), outcome),
            ]),
        ),
        None => match inner.jobs.status(id) {
            Some(_) => (
                409,
                error_json("not_finished", "job has not reached a terminal state", None),
            ),
            None => (
                404,
                error_json("not_found", "unknown or evicted job id", None),
            ),
        },
    }
}

fn cancel(inner: &Arc<ServerInner>, id: u64) -> (u16, Json) {
    match inner.jobs.cancel(id) {
        None => (
            404,
            error_json("not_found", "unknown or evicted job id", None),
        ),
        Some((state, newly_terminal)) => {
            // Only the call that actually performed the queued-cancel
            // counts and journals it; repeats and running-cancels don't
            // (the latter reach their terminal state through the worker).
            if newly_terminal {
                {
                    let mut metrics = inner.metrics.lock().unwrap_or_else(|e| e.into_inner());
                    metrics.counters.cancelled += 1;
                }
                if let Some(journal) = &inner.journal {
                    let outcome = inner
                        .jobs
                        .outcome(id)
                        .map_or(Json::Null, |(_, outcome)| outcome);
                    journal.append(&Record::Terminal {
                        id,
                        state: JobState::Cancelled.name().into(),
                        outcome,
                    });
                }
            }
            (
                200,
                Json::Obj(vec![
                    ("id".into(), Json::Num(id as f64)),
                    ("state".into(), Json::str(state.name())),
                ]),
            )
        }
    }
}

fn metrics_json(inner: &Arc<ServerInner>) -> Json {
    let breaker = inner.breaker.lock().unwrap_or_else(|e| e.into_inner());
    let breaker_state = match breaker.state() {
        BreakerState::Closed => "closed",
        BreakerState::Open => "open",
        BreakerState::HalfOpen => "half-open",
    };
    let trips = breaker.trips();
    drop(breaker);

    // Aggregate the session shards: cache effectiveness + per-stage work.
    let mut hits = 0usize;
    let mut misses = 0usize;
    let mut entries = 0usize;
    let mut evicted = 0usize;
    let mut disk_hits = 0usize;
    let mut disk_corrupt = 0usize;
    let mut stages: Vec<(String, Json)> = Vec::new();
    let mut per_stage: Vec<(StageKind, usize, usize, usize, Duration)> = StageKind::all()
        .into_iter()
        .map(|k| (k, 0, 0, 0, Duration::ZERO))
        .collect();
    // Labeling-solver figures ride along: branch & bound nodes, proven
    // gaps, and warm-start hit/miss across every VhLabel record.
    let mut solves = 0usize;
    let mut bnb_nodes = 0u64;
    let mut warm_hits = 0usize;
    let mut warm_misses = 0usize;
    let mut worst_gap = 0.0f64;
    for session in &inner.sessions {
        let stats = session.cache_stats();
        hits += stats.hits;
        misses += stats.misses;
        entries += stats.entries;
        evicted += stats.evicted;
        disk_hits += stats.disk_hits;
        disk_corrupt += stats.disk_corrupt;
        let trace = session.trace();
        for (kind, runs, builds, cache_hits, wall) in &mut per_stage {
            *runs += trace.runs(*kind);
            *builds += trace.builds(*kind);
            *cache_hits += trace.hits(*kind);
            *wall += trace.total_wall(*kind);
        }
        for solve in trace.records.iter().filter_map(|r| r.solve) {
            solves += 1;
            bnb_nodes += solve.nodes;
            match solve.warm_start {
                Some(true) => warm_hits += 1,
                Some(false) => warm_misses += 1,
                None => {}
            }
            worst_gap = worst_gap.max(solve.gap);
        }
    }
    for (kind, runs, builds, cache_hits, wall) in per_stage {
        if runs == 0 {
            continue;
        }
        stages.push((
            kind.name().to_string(),
            Json::Obj(vec![
                ("runs".into(), Json::int(runs)),
                ("builds".into(), Json::int(builds)),
                ("cache_hits".into(), Json::int(cache_hits)),
                ("wall_ms".into(), Json::Num(wall.as_millis() as f64)),
            ]),
        ));
    }
    let cache_total = hits + misses;
    let hit_rate = if cache_total == 0 {
        0.0
    } else {
        hits as f64 / cache_total as f64
    };

    let mut extra = vec![
        ("queue_depth".into(), Json::int(inner.queue.depth())),
        ("queue_capacity".into(), Json::int(inner.queue.capacity())),
        ("live_jobs".into(), Json::int(inner.jobs.live_count())),
        ("workers".into(), Json::int(inner.config.workers.max(1))),
        ("breaker_state".into(), Json::str(breaker_state)),
        ("breaker_trips".into(), Json::Num(trips as f64)),
        (
            "cache".into(),
            Json::Obj(vec![
                ("hits".into(), Json::int(hits)),
                ("misses".into(), Json::int(misses)),
                ("entries".into(), Json::int(entries)),
                ("evicted".into(), Json::int(evicted)),
                ("hit_rate".into(), Json::Num(hit_rate)),
                ("disk_hits".into(), Json::int(disk_hits)),
                ("disk_corrupt".into(), Json::int(disk_corrupt)),
            ]),
        ),
        ("stages".into(), Json::Obj(stages)),
        (
            "solver".into(),
            Json::Obj(vec![
                ("label_solves".into(), Json::int(solves)),
                ("bnb_nodes".into(), Json::Num(bnb_nodes as f64)),
                ("warm_hits".into(), Json::int(warm_hits)),
                ("warm_misses".into(), Json::int(warm_misses)),
                ("worst_gap".into(), Json::Num(worst_gap)),
            ]),
        ),
    ];
    if let Some(journal) = &inner.journal {
        let s = journal.stats();
        let recovery = inner.recovery.unwrap_or_default();
        extra.push((
            "journal".into(),
            Json::Obj(vec![
                (
                    "records_appended".into(),
                    Json::Num(s.records_appended as f64),
                ),
                (
                    "records_replayed".into(),
                    Json::Num(s.records_replayed as f64),
                ),
                (
                    "torn_tail_truncations".into(),
                    Json::Num(s.torn_tail_truncations as f64),
                ),
                (
                    "checksum_failures".into(),
                    Json::Num(s.checksum_failures as f64),
                ),
                ("rotations".into(), Json::Num(s.rotations as f64)),
                ("compactions".into(), Json::Num(s.compactions as f64)),
                ("append_errors".into(), Json::Num(s.append_errors as f64)),
                (
                    "restored_terminal".into(),
                    Json::int(recovery.restored_terminal),
                ),
                ("requeued".into(), Json::int(recovery.requeued)),
                ("failed_replay".into(), Json::int(recovery.failed_replay)),
                (
                    "shed_on_recovery".into(),
                    Json::int(recovery.shed_on_recovery),
                ),
            ]),
        ));
    }
    let metrics = inner.metrics.lock().unwrap_or_else(|e| e.into_inner());
    metrics.to_json(extra)
}

/// The worker loop: pop → claim → synthesize under the job budget →
/// record. A panic anywhere in here kills only this thread; the
/// supervisor attributes the in-flight job and respawns.
fn worker_loop(inner: &Arc<ServerInner>, slot: usize) {
    while let Some(queued) = inner.queue.pop_blocking() {
        let Some((spec, rung, admission_degraded, budget)) = inner.jobs.claim_for_run(queued.id)
        else {
            continue; // cancelled while queued, or evicted
        };
        *inner.slots[slot]
            .current
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Some(queued.id);
        if let Some(journal) = &inner.journal {
            journal.append(&Record::Started { id: queued.id });
        }

        // Test-only fault injection: `panic` kills this worker mid-job to
        // exercise the supervisor's crash containment (the slot still
        // names the job, so it is failed as `worker_crashed`); `sleep`
        // holds the worker to keep work deterministically in flight.
        flowc_failpoint::fire("serve.worker.run");

        let start = Instant::now();
        let remaining = budget.remaining_or(Duration::from_secs(3600));
        let config = Config {
            strategy: rung.strategy(spec.gamma, remaining),
            align: true,
            var_order: None,
            label_threads: 1,
        };
        // Non-COMPACT backends dispatch through the unified
        // `MappingBackend` trait: no incremental patch ladder, no
        // COMPACT degradation machinery. The admission rung still
        // shaped `config` above, so the backend's synthesis context
        // carries the admission-assigned strategy and time slice.
        if spec.patch.is_none() && !matches!(spec.backend, Backend::Compact(_)) {
            let shard = (bdd_key(&spec.network, None).0 as usize) % inner.sessions.len();
            let ctx = SynthesisCtx::new(config)
                .with_session(&inner.sessions[shard])
                .with_budget(budget.clone());
            let outcome = spec.backend.synthesize(&spec.network, &ctx);
            let wall = start.elapsed();
            *inner.slots[slot]
                .current
                .lock()
                .unwrap_or_else(|e| e.into_inner()) = None;
            let cancelled = inner.jobs.cancel_requested(queued.id);
            match outcome {
                Ok(design) => {
                    let m = &design.metrics;
                    let body = Json::Obj(vec![
                        ("label".into(), Json::str(spec.label.clone())),
                        ("backend".into(), Json::str(design.backend)),
                        ("rows".into(), Json::int(m.rows)),
                        ("cols".into(), Json::int(m.cols)),
                        ("semiperimeter".into(), Json::int(m.semiperimeter)),
                        ("max_dimension".into(), Json::int(m.max_dimension)),
                        ("tiles".into(), Json::int(m.tiles)),
                        ("transfer_ops".into(), Json::int(m.transfer_ops)),
                        ("admission_rung".into(), Json::str(rung.name())),
                        ("degraded".into(), Json::Bool(admission_degraded)),
                        ("cancelled".into(), Json::Bool(cancelled)),
                        ("wall_ms".into(), Json::Num(wall.as_millis() as f64)),
                    ]);
                    let state = if cancelled {
                        JobState::Cancelled
                    } else {
                        JobState::Done
                    };
                    finish_job(inner, queued.id, state, body);
                    let mut metrics = inner.metrics.lock().unwrap_or_else(|e| e.into_inner());
                    metrics.observe("job", wall);
                    metrics.observe(backend_latency_name(&spec.backend), wall);
                    if cancelled {
                        metrics.counters.cancelled += 1;
                    } else {
                        metrics.counters.completed_ok += 1;
                    }
                    drop(metrics);
                    inner
                        .breaker
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .record(true, Instant::now());
                }
                Err(e) => {
                    let kind = match &e {
                        flowc_baselines::BackendError::Infeasible(_) => "infeasible",
                        _ => "synthesis_failed",
                    };
                    finish_job(
                        inner,
                        queued.id,
                        JobState::Failed,
                        error_json(kind, &e.to_string(), None),
                    );
                    let mut metrics = inner.metrics.lock().unwrap_or_else(|e| e.into_inner());
                    metrics.counters.failed += 1;
                    drop(metrics);
                    // An infeasible tile constraint is the client's ask,
                    // not service ill-health: don't feed the breaker a
                    // failure for it.
                    inner
                        .breaker
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .record(
                            matches!(e, flowc_baselines::BackendError::Infeasible(_)),
                            Instant::now(),
                        );
                }
            }
            sync_breaker_trips(inner);
            continue;
        }

        let (outcome, incremental) = match &spec.patch {
            Some(patch) => run_patch_job(inner, patch, &spec, &config, &budget),
            None => {
                let shard = (bdd_key(&spec.network, None).0 as usize) % inner.sessions.len();
                let session = &inner.sessions[shard];
                (
                    synthesize_in_budgeted(session, &spec.network, &config, &budget),
                    None,
                )
            }
        };
        let wall = start.elapsed();
        *inner.slots[slot]
            .current
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = None;

        let cancelled = inner.jobs.cancel_requested(queued.id);
        match outcome {
            Ok(result) => {
                let degradation = result.degradation.as_ref();
                let pipeline_degraded = degradation.is_some_and(|d| d.degraded);
                let shipped_rung = degradation.map_or("unknown", |d| d.rung.name()).to_string();
                let exhausted = degradation
                    .and_then(|d| d.exhausted.as_ref())
                    .map(|e| e.to_string());
                let degraded = pipeline_degraded || admission_degraded;
                let mut fields = vec![
                    ("label".into(), Json::str(spec.label.clone())),
                    ("rows".into(), Json::int(result.stats.rows)),
                    ("cols".into(), Json::int(result.stats.cols)),
                    (
                        "semiperimeter".into(),
                        Json::int(result.stats.semiperimeter),
                    ),
                    (
                        "max_dimension".into(),
                        Json::int(result.stats.max_dimension),
                    ),
                    ("admission_rung".into(), Json::str(rung.name())),
                    ("shipped_rung".into(), Json::str(shipped_rung)),
                    ("degraded".into(), Json::Bool(degraded)),
                    ("cancelled".into(), Json::Bool(cancelled)),
                    ("relative_gap".into(), Json::Num(result.relative_gap)),
                    ("exhausted".into(), exhausted.map_or(Json::Null, Json::str)),
                    ("wall_ms".into(), Json::Num(wall.as_millis() as f64)),
                ];
                if let Some(summary) = incremental {
                    fields.push(("incremental".into(), summary));
                }
                let body = Json::Obj(fields);
                let state = if cancelled {
                    JobState::Cancelled
                } else {
                    JobState::Done
                };
                finish_job(inner, queued.id, state, body);
                {
                    let mut metrics = inner.metrics.lock().unwrap_or_else(|e| e.into_inner());
                    metrics.observe("job", wall);
                    metrics.observe(rung_latency_name(rung), wall);
                    metrics.observe(backend_latency_name(&spec.backend), wall);
                    if let Some(d) = degradation {
                        metrics.observe("stage.bdd-build", d.bdd_wall);
                        let label_wall: Duration = d.attempts.iter().map(|a| a.wall).sum();
                        metrics.observe("stage.vh-label", label_wall);
                    }
                    if cancelled {
                        metrics.counters.cancelled += 1;
                    } else if degraded {
                        metrics.counters.completed_degraded += 1;
                    } else {
                        metrics.counters.completed_ok += 1;
                    }
                }
                // Cancelled runs finish artificially fast; folding them
                // into the latency model would bias admission optimistic.
                if !cancelled {
                    inner
                        .model
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .record(rung, wall);
                }
                inner
                    .breaker
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .record(true, Instant::now());
            }
            // A cancel that fired before any design could ship (e.g. mid
            // BDD build): the client asked for this, so it is a cancelled
            // job, not a service failure.
            Err(flowc_compact::CompactError::Cancelled) => {
                finish_job(
                    inner,
                    queued.id,
                    JobState::Cancelled,
                    Json::Obj(vec![
                        ("label".into(), Json::str(spec.label.clone())),
                        ("cancelled_while".into(), Json::str("running")),
                        ("wall_ms".into(), Json::Num(wall.as_millis() as f64)),
                    ]),
                );
                let mut metrics = inner.metrics.lock().unwrap_or_else(|e| e.into_inner());
                metrics.counters.cancelled += 1;
                drop(metrics);
                inner
                    .breaker
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .record(true, Instant::now());
            }
            Err(e) => {
                finish_job(
                    inner,
                    queued.id,
                    JobState::Failed,
                    error_json("synthesis_failed", &e.to_string(), None),
                );
                let mut metrics = inner.metrics.lock().unwrap_or_else(|e| e.into_inner());
                metrics.counters.failed += 1;
                drop(metrics);
                inner
                    .breaker
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .record(false, Instant::now());
            }
        }
        sync_breaker_trips(inner);
    }
}

/// One patch job through the incremental ladder: take (or build) the
/// lineage's edit session, replay the edit stream through it, and
/// re-register the advanced session under the patch's own key. Any
/// failure — lost lineage, refused edit, synthesis error — falls back to
/// cold synthesis of the admission-materialized netlist, which is always
/// authoritative. Returns the outcome plus the `incremental` body field.
fn run_patch_job(
    inner: &ServerInner,
    patch: &PatchDirective,
    spec: &SubmitSpec,
    config: &Config,
    budget: &Budget,
) -> (Result<CompactResult, CompactError>, Option<Json>) {
    let base_cone = EditableNetlist::from_network(&patch.base).combined_cone_key();
    let gamma_bits = spec.gamma.to_bits();
    let reused = {
        let mut registry = inner
            .edit_sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        registry.take(&patch.lineage, base_cone, gamma_bits, spec.rung)
    };
    let resumed = reused.is_some();
    let session: Result<EditSession, String> = match reused {
        Some(s) => Ok(s),
        None => EditSession::new(
            &patch.base,
            EditSessionConfig {
                synthesis: config.clone(),
                session: SessionConfig {
                    cache_capacity: inner.config.cache_capacity,
                    disk_cache: inner.disk_cache.clone(),
                    ..SessionConfig::default()
                },
                ..EditSessionConfig::default()
            },
        )
        .map_err(|e| format!("base session: {e}")),
    };

    let mut failure: Option<String> = None;
    let mut resolutions: Vec<Json> = Vec::new();
    let mut finished: Option<(CompactResult, [usize; 4])> = None;
    match session {
        Err(e) => failure = Some(e),
        Ok(mut session) => {
            let before = session.stats();
            for edit in &patch.edits {
                match session.apply_budgeted(edit, budget) {
                    Ok(out) => resolutions.push(Json::str(out.resolution.name())),
                    Err(e) => {
                        failure = Some(format!("edit `{edit}`: {e}"));
                        break;
                    }
                }
            }
            if failure.is_none() {
                let after = session.stats();
                let delta = [
                    after.hits - before.hits,
                    after.repairs - before.repairs,
                    after.warm_starts - before.warm_starts,
                    after.cold_solves - before.cold_solves,
                ];
                let result = session.result().clone();
                if let Some(key) = &spec.job_key {
                    let entry = LineageEntry {
                        cone_key: session.netlist().combined_cone_key(),
                        gamma_bits,
                        rung: spec.rung,
                        session,
                    };
                    inner
                        .edit_sessions
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .insert(key.clone(), entry);
                }
                finished = Some((result, delta));
            }
        }
    }

    if let Some((result, [hits, repairs, warm_starts, cold_solves])) = finished {
        {
            let mut metrics = inner.metrics.lock().unwrap_or_else(|e| e.into_inner());
            metrics.counters.incremental_hits += hits as u64;
            metrics.counters.incremental_repairs += repairs as u64;
            metrics.counters.incremental_warm_starts += warm_starts as u64;
            metrics.counters.incremental_cold += cold_solves as u64;
        }
        let summary = Json::Obj(vec![
            ("lineage".into(), Json::str(patch.lineage.clone())),
            ("resumed".into(), Json::Bool(resumed)),
            ("fallback".into(), Json::Bool(false)),
            ("edits".into(), Json::int(patch.edits.len())),
            ("hits".into(), Json::int(hits)),
            ("repairs".into(), Json::int(repairs)),
            ("warm_starts".into(), Json::int(warm_starts)),
            ("cold_solves".into(), Json::int(cold_solves)),
            ("resolutions".into(), Json::Arr(resolutions)),
        ]);
        return (Ok(result), Some(summary));
    }

    // Cold fallback, counted as such so `/metrics` shows how often the
    // incremental path actually carries patches.
    {
        let mut metrics = inner.metrics.lock().unwrap_or_else(|e| e.into_inner());
        metrics.counters.incremental_cold += 1;
    }
    let shard = (bdd_key(&spec.network, None).0 as usize) % inner.sessions.len();
    let outcome = synthesize_in_budgeted(&inner.sessions[shard], &spec.network, config, budget);
    let summary = Json::Obj(vec![
        ("lineage".into(), Json::str(patch.lineage.clone())),
        ("resumed".into(), Json::Bool(resumed)),
        ("fallback".into(), Json::Bool(true)),
        ("reason".into(), failure.map_or(Json::Null, Json::str)),
    ]);
    (outcome, Some(summary))
}

fn rung_latency_name(rung: ServeRung) -> &'static str {
    match rung {
        ServeRung::ExactMip => "rung.exact-mip",
        ServeRung::AnytimeMip => "rung.anytime-mip",
        ServeRung::HeuristicOct => "rung.heuristic-oct",
        ServeRung::Staircase => "rung.staircase",
    }
}

/// Per-backend latency histogram name, so `/metrics` surfaces which
/// mapping backend served each job (all five [`Backend`] variants get a
/// stable `backend.*` series).
fn backend_latency_name(backend: &Backend) -> &'static str {
    match backend {
        Backend::Compact(_) => "backend.compact",
        Backend::Staircase(_) => "backend.staircase",
        Backend::RobddDiagonal(_) => "backend.robdd-diagonal",
        Backend::MagicNor(_) => "backend.magic-nor",
        Backend::Partitioned(_) => "backend.partitioned",
    }
}

fn sync_breaker_trips(inner: &ServerInner) {
    let trips = inner
        .breaker
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .trips();
    let mut metrics = inner.metrics.lock().unwrap_or_else(|e| e.into_inner());
    metrics.counters.breaker_trips = trips;
}

/// Supervisor: spawn the workers, watch for crashes, restart with
/// exponential backoff, and attribute the crashed worker's in-flight job.
fn supervise(inner: &Arc<ServerInner>) {
    let workers = inner.config.workers.max(1);
    let base_backoff = Duration::from_millis(50);
    let max_backoff = Duration::from_secs(5);
    let mut handles: Vec<Option<JoinHandle<()>>> = Vec::with_capacity(workers);
    let mut backoff = vec![base_backoff; workers];
    let mut spawned_at = vec![Instant::now(); workers];
    let mut restart_due: Vec<Option<Instant>> = vec![None; workers];

    for slot in 0..workers {
        handles.push(Some(spawn_worker(inner, slot)));
    }

    loop {
        let shutting_down = inner.shutdown.load(Ordering::SeqCst);
        for slot in 0..workers {
            // A pending restart fires once its backoff deadline passes.
            if let Some(due) = restart_due[slot] {
                if !shutting_down && Instant::now() >= due {
                    restart_due[slot] = None;
                    spawned_at[slot] = Instant::now();
                    handles[slot] = Some(spawn_worker(inner, slot));
                }
                continue;
            }
            let finished = handles[slot].as_ref().is_some_and(JoinHandle::is_finished);
            if !finished {
                continue;
            }
            let handle = handles[slot].take().expect("checked above");
            let crashed = handle.join().is_err();
            if shutting_down && !crashed {
                continue; // clean exit through queue close
            }
            // Crash (or an impossible clean exit while serving): fail the
            // in-flight job, then schedule a backoff restart.
            let in_flight = inner.slots[slot]
                .current
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take();
            if let Some(job_id) = in_flight {
                finish_job(
                    inner,
                    job_id,
                    JobState::Failed,
                    error_json(
                        "worker_crashed",
                        "the worker thread running this job panicked; the worker was restarted",
                        None,
                    ),
                );
                let mut metrics = inner.metrics.lock().unwrap_or_else(|e| e.into_inner());
                metrics.counters.failed += 1;
                drop(metrics);
                inner
                    .breaker
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .record(false, Instant::now());
                sync_breaker_trips(inner);
            }
            if shutting_down {
                continue;
            }
            // A worker that survived a while has proven the previous
            // incident over; start the backoff ladder fresh.
            if spawned_at[slot].elapsed() > Duration::from_secs(10) {
                backoff[slot] = base_backoff;
            }
            {
                let mut metrics = inner.metrics.lock().unwrap_or_else(|e| e.into_inner());
                metrics.counters.worker_restarts += 1;
            }
            restart_due[slot] = Some(Instant::now() + backoff[slot]);
            backoff[slot] = (backoff[slot] * 2).min(max_backoff);
        }

        if shutting_down {
            // Drain: join everything that is still running; pending
            // restarts are abandoned.
            for handle in handles.iter_mut() {
                if let Some(h) = handle.take() {
                    let _ = h.join();
                }
            }
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn spawn_worker(inner: &Arc<ServerInner>, slot: usize) -> JoinHandle<()> {
    let inner = Arc::clone(inner);
    std::thread::Builder::new()
        .name(format!("serve-worker-{slot}"))
        .spawn(move || worker_loop(&inner, slot))
        .expect("spawn worker")
}
