//! The job table: every submitted job's lifecycle, budget, and result.
//!
//! Terminal entries are retained for result pickup but only up to a
//! bound — the oldest finished jobs are evicted first, so a long-running
//! server's memory is bounded by `queue + running + retained`, never by
//! total jobs served.
//!
//! Jobs may carry a client-supplied **job key**: inserting a second
//! entry with a key already present dedupes to the existing job, which
//! is what makes resubmission idempotent — within one process lifetime
//! and, when the journal is on, across a crash/restart (replay restores
//! the key index along with the jobs).

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use flowc_budget::{Budget, CancelHandle};
use flowc_logic::Network;
use flowc_report::Json;

use crate::protocol::SubmitSpec;

/// Lifecycle of one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting in the queue.
    Queued,
    /// A worker is synthesizing it right now.
    Running,
    /// Finished with a design (possibly degraded; see the result body).
    Done,
    /// Failed outright (synthesis bug or worker crash).
    Failed,
    /// Cancelled before completion (queued-cancel, or mid-flight cancel
    /// that aborted before any design shipped).
    Cancelled,
    /// Dropped unstarted because the server shut down.
    Shed,
}

impl JobState {
    /// Stable wire name.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::Shed => "shed",
        }
    }

    /// Parses a wire name back to a state (journal replay).
    pub fn parse(name: &str) -> Option<JobState> {
        match name {
            "queued" => Some(JobState::Queued),
            "running" => Some(JobState::Running),
            "done" => Some(JobState::Done),
            "failed" => Some(JobState::Failed),
            "cancelled" => Some(JobState::Cancelled),
            "shed" => Some(JobState::Shed),
            _ => None,
        }
    }

    /// Whether this state is final.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }
}

/// One job's record.
#[derive(Debug)]
pub struct JobEntry {
    /// The job id.
    pub id: u64,
    /// Client-supplied idempotency key, if any.
    pub job_key: Option<String>,
    /// Display label (kept outside the spec so terminal jobs restored
    /// from the journal — which have no spec — still report it).
    pub label: String,
    /// The validated submission, its `rung` the one admission assigned.
    /// `None` only for terminal jobs restored from the journal: their
    /// circuit is gone, their outcome remains.
    pub spec: Option<SubmitSpec>,
    /// Whether admission degraded the requested rung.
    pub admission_degraded: bool,
    /// The job budget: deadline fixed at submission, shared cancel flag.
    pub budget: Budget,
    /// Cancels the budget (fires mid-solve aborts).
    pub cancel: CancelHandle,
    /// Set once a client asked to cancel.
    pub cancel_requested: bool,
    /// Lifecycle state.
    pub state: JobState,
    /// Submission instant (queue-wait measurement).
    pub submitted: Instant,
    /// The result body (`Done`) or error body (`Failed`/`Cancelled`).
    pub outcome: Option<Json>,
}

/// What [`JobTable::insert`] did with the entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Insert {
    /// The entry went in as a new job.
    Inserted,
    /// An entry with the same job key already exists (in any state):
    /// the new entry was dropped; this is the surviving job's id. The
    /// check and the insert happen under one lock, so two racing
    /// submissions with the same key cannot both win.
    Duplicate(u64),
}

#[derive(Debug, Default)]
struct TableInner {
    jobs: HashMap<u64, JobEntry>,
    /// Terminal job ids, oldest first, for bounded retention.
    finished: Vec<u64>,
    /// Job-key → id index for idempotent resubmission.
    by_key: HashMap<String, u64>,
}

impl TableInner {
    fn evict_excess(&mut self, retain: usize) {
        while self.finished.len() > retain {
            let oldest = self.finished.remove(0);
            if let Some(entry) = self.jobs.remove(&oldest) {
                if let Some(key) = entry.job_key {
                    self.by_key.remove(&key);
                }
            }
        }
    }
}

/// The table: a mutex-guarded map plus FIFO eviction of finished jobs.
#[derive(Debug)]
pub struct JobTable {
    inner: Mutex<TableInner>,
    /// Notified on every terminal transition; long polls wait on it.
    terminal: Condvar,
    retain: usize,
}

impl JobTable {
    /// A table retaining at most `retain` finished jobs (min 1).
    pub fn new(retain: usize) -> Self {
        JobTable {
            inner: Mutex::new(TableInner::default()),
            terminal: Condvar::new(),
            retain: retain.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TableInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Inserts a job, deduplicating on the job key: if the key is
    /// already present the entry is dropped and the existing job's id
    /// returned. Entries already terminal (journal restores) join the
    /// retention FIFO immediately.
    pub fn insert(&self, entry: JobEntry) -> Insert {
        let mut inner = self.lock();
        if let Some(key) = &entry.job_key {
            if let Some(&existing) = inner.by_key.get(key) {
                return Insert::Duplicate(existing);
            }
            inner.by_key.insert(key.clone(), entry.id);
        }
        let id = entry.id;
        let terminal = entry.state.is_terminal();
        inner.jobs.insert(id, entry);
        if terminal {
            inner.finished.push(id);
            inner.evict_excess(self.retain);
        }
        Insert::Inserted
    }

    /// Claims `id` for a worker: flips `Queued` → `Running` and hands the
    /// worker what it needs. `None` when the job is gone, was cancelled
    /// while queued, or has no spec (the worker just skips it).
    pub fn claim_for_run(&self, id: u64) -> Option<(SubmitSpec, bool, Budget)> {
        let mut inner = self.lock();
        let entry = inner.jobs.get_mut(&id)?;
        if entry.state != JobState::Queued || entry.cancel_requested {
            return None;
        }
        let spec = entry.spec.clone()?;
        entry.state = JobState::Running;
        Some((spec, entry.admission_degraded, entry.budget.clone()))
    }

    /// Moves a job to a terminal state with its outcome body. Returns
    /// whether the transition happened (`false`: unknown id or already
    /// terminal — callers use this to avoid double-journaling).
    pub fn finish(&self, id: u64, state: JobState, outcome: Json) -> bool {
        debug_assert!(state.is_terminal());
        let mut inner = self.lock();
        let Some(entry) = inner.jobs.get_mut(&id) else {
            return false;
        };
        if entry.state.is_terminal() {
            return false;
        }
        entry.state = state;
        entry.outcome = Some(outcome);
        inner.finished.push(id);
        inner.evict_excess(self.retain);
        self.terminal.notify_all();
        true
    }

    /// Requests cancellation: fires the budget's cancel flag; a queued job
    /// is finished as `Cancelled` immediately (the worker will skip it), a
    /// running one aborts cooperatively and reports through its worker.
    /// Returns the state *after* the request plus whether *this call*
    /// made the job terminal (so the caller journals the transition
    /// exactly once), or `None` if unknown.
    pub fn cancel(&self, id: u64) -> Option<(JobState, bool)> {
        let mut inner = self.lock();
        let entry = inner.jobs.get_mut(&id)?;
        if entry.state.is_terminal() {
            return Some((entry.state.clone(), false));
        }
        entry.cancel_requested = true;
        entry.cancel.cancel();
        let mut newly_terminal = false;
        if entry.state == JobState::Queued {
            entry.state = JobState::Cancelled;
            entry.outcome = Some(Json::Obj(vec![(
                "cancelled_while".into(),
                Json::str("queued"),
            )]));
            inner.finished.push(id);
            inner.evict_excess(self.retain);
            self.terminal.notify_all();
            newly_terminal = true;
        }
        Some((inner.jobs[&id].state.clone(), newly_terminal))
    }

    /// Whether a cancel was requested for `id` (worker-side check).
    pub fn cancel_requested(&self, id: u64) -> bool {
        self.lock()
            .jobs
            .get(&id)
            .is_some_and(|e| e.cancel_requested)
    }

    /// A status snapshot: `(state, queue-age, label)`.
    pub fn status(&self, id: u64) -> Option<(JobState, Instant, String)> {
        self.await_status(id, Duration::ZERO)
    }

    /// A status snapshot taken once the job is terminal or `wait` has
    /// passed, whichever is first; the wait also ends at the job's own
    /// deadline while that is ahead. An overdue job waits on `wait` alone:
    /// bounding it by a passed deadline would answer at once and turn a
    /// client's long-poll loop into a busy loop. An unknown id, a terminal
    /// job or a zero `wait` answers at once, and a job evicted during the
    /// wait reads as unknown.
    pub fn await_status(&self, id: u64, wait: Duration) -> Option<(JobState, Instant, String)> {
        let inner = self.lock();
        let wait = inner
            .jobs
            .get(&id)
            .map_or(Duration::ZERO, |e| match e.budget.remaining() {
                Some(left) if !left.is_zero() => left.min(wait),
                _ => wait,
            });
        let (inner, _) = self
            .terminal
            .wait_timeout_while(inner, wait, |t| {
                t.jobs.get(&id).is_some_and(|e| !e.state.is_terminal())
            })
            .unwrap_or_else(|e| e.into_inner());
        inner
            .jobs
            .get(&id)
            .map(|e| (e.state.clone(), e.submitted, e.label.clone()))
    }

    /// The outcome body of a terminal job; `None` while pending or when
    /// the id is unknown/evicted.
    pub fn outcome(&self, id: u64) -> Option<(JobState, Json)> {
        let inner = self.lock();
        inner.jobs.get(&id).and_then(|e| {
            e.state
                .is_terminal()
                .then(|| (e.state.clone(), e.outcome.clone().unwrap_or(Json::Null)))
        })
    }

    /// Resolves a job key to `(id, circuit)` — the lineage lookup behind
    /// `POST /patch`. The circuit is `None` for journal-restored terminal
    /// jobs, whose spec (and netlist) did not survive the crash.
    pub fn lookup_key(&self, key: &str) -> Option<(u64, Option<Arc<Network>>)> {
        let inner = self.lock();
        let &id = inner.by_key.get(key)?;
        let entry = inner.jobs.get(&id)?;
        Some((id, entry.spec.as_ref().map(|s| Arc::clone(&s.network))))
    }

    /// Jobs currently in non-terminal states (gauge for `/metrics`).
    pub fn live_count(&self) -> usize {
        self.lock()
            .jobs
            .values()
            .filter(|e| !e.state.is_terminal())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowc_compact::Rung;
    use std::time::Duration;

    fn entry(id: u64) -> JobEntry {
        keyed_entry(id, None)
    }

    fn keyed_entry(id: u64, key: Option<&str>) -> JobEntry {
        let budget = Budget::unlimited().with_deadline(Duration::from_secs(30));
        let cancel = budget.cancel_handle();
        let mut spec =
            crate::protocol::parse_submit(r#"{"circuit": "dec", "format": "bench"}"#).unwrap();
        spec.rung = Rung::HeuristicOct;
        JobEntry {
            id,
            job_key: key.map(str::to_string),
            label: spec.label.clone(),
            spec: Some(spec),
            admission_degraded: false,
            budget,
            cancel,
            cancel_requested: false,
            state: JobState::Queued,
            submitted: Instant::now(),
            outcome: None,
        }
    }

    #[test]
    fn lifecycle_queued_running_done() {
        let t = JobTable::new(8);
        assert_eq!(t.insert(entry(1)), Insert::Inserted);
        assert_eq!(t.status(1).unwrap().0, JobState::Queued);
        let claim = t.claim_for_run(1).unwrap();
        assert_eq!(claim.0.rung, Rung::HeuristicOct);
        assert_eq!(t.status(1).unwrap().0, JobState::Running);
        assert!(t.outcome(1).is_none());
        assert!(t.finish(1, JobState::Done, Json::Obj(vec![])));
        assert_eq!(t.outcome(1).unwrap().0, JobState::Done);
        // Claiming or re-finishing a terminal job is refused.
        assert!(t.claim_for_run(1).is_none());
        assert!(!t.finish(1, JobState::Failed, Json::Null));
        assert_eq!(t.outcome(1).unwrap().0, JobState::Done);
    }

    #[test]
    fn queued_cancel_is_immediate_and_skips_the_worker() {
        let t = JobTable::new(8);
        t.insert(entry(1));
        assert_eq!(t.cancel(1), Some((JobState::Cancelled, true)));
        // A second cancel is a no-op, not a second terminal transition.
        assert_eq!(t.cancel(1), Some((JobState::Cancelled, false)));
        // The budget's cancel flag fired too.
        let (state, _) = t.outcome(1).unwrap();
        assert_eq!(state, JobState::Cancelled);
        assert!(t.claim_for_run(1).is_none());
        assert_eq!(t.cancel(99), None);
    }

    #[test]
    fn running_cancel_fires_the_budget() {
        let t = JobTable::new(8);
        t.insert(entry(1));
        let (_, _, budget) = t.claim_for_run(1).unwrap();
        assert_eq!(t.cancel(1), Some((JobState::Running, false)));
        assert!(budget.is_cancelled());
        assert!(t.cancel_requested(1));
    }

    #[test]
    fn await_status_wakes_on_every_terminal_transition() {
        let t = Arc::new(JobTable::new(8));
        t.insert(entry(1));
        t.insert(entry(2));
        t.claim_for_run(1).unwrap();
        let started = Instant::now();
        let waiters = [1, 2].map(|id| {
            let t = Arc::clone(&t);
            std::thread::spawn(move || t.await_status(id, Duration::from_secs(20)))
        });
        // Job 1 finishes through its worker, queued job 2 by a cancel.
        std::thread::sleep(Duration::from_millis(20));
        t.finish(1, JobState::Done, Json::Obj(vec![]));
        t.cancel(2);
        let states = waiters.map(|w| w.join().unwrap().unwrap().0);
        assert_eq!(states, [JobState::Done, JobState::Cancelled]);
        assert!(started.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn await_status_is_bounded_by_wait_and_deadline() {
        let t = JobTable::new(8);
        t.insert(entry(1));
        let started = Instant::now();
        assert_eq!(
            t.await_status(1, Duration::from_millis(30)).unwrap().0,
            JobState::Queued
        );
        assert!(started.elapsed() >= Duration::from_millis(30));
        // Unknown ids answer at once.
        let started = Instant::now();
        assert!(t.await_status(99, Duration::from_secs(20)).is_none());
        assert!(started.elapsed() < Duration::from_secs(1));
        // The wait ends at the job's deadline...
        let mut soon = entry(2);
        soon.budget = Budget::unlimited().with_deadline(Duration::from_millis(30));
        t.insert(soon);
        let started = Instant::now();
        assert_eq!(
            t.await_status(2, Duration::from_secs(20)).unwrap().0,
            JobState::Queued
        );
        let waited = started.elapsed();
        assert!(waited >= Duration::from_millis(20) && waited < Duration::from_secs(1));
        // ...but an overdue job waits on `wait`, never answering at once.
        let started = Instant::now();
        t.await_status(2, Duration::from_millis(30)).unwrap();
        assert!(started.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn finished_jobs_are_evicted_fifo() {
        let t = JobTable::new(2);
        for id in 1..=4 {
            t.insert(entry(id));
            t.claim_for_run(id).unwrap();
            t.finish(id, JobState::Done, Json::Obj(vec![]));
        }
        assert!(t.outcome(1).is_none());
        assert!(t.outcome(2).is_none());
        assert!(t.outcome(3).is_some());
        assert!(t.outcome(4).is_some());
    }

    #[test]
    fn job_keys_dedupe_in_every_state_and_free_on_eviction() {
        let t = JobTable::new(1);
        assert_eq!(t.insert(keyed_entry(1, Some("k"))), Insert::Inserted);
        // Queued, running, and terminal duplicates all resolve to job 1.
        assert_eq!(t.insert(keyed_entry(2, Some("k"))), Insert::Duplicate(1));
        t.claim_for_run(1).unwrap();
        assert_eq!(t.insert(keyed_entry(3, Some("k"))), Insert::Duplicate(1));
        t.finish(1, JobState::Done, Json::Obj(vec![]));
        assert_eq!(t.insert(keyed_entry(4, Some("k"))), Insert::Duplicate(1));
        // Distinct keys and keyless entries are independent.
        assert_eq!(t.insert(keyed_entry(5, Some("other"))), Insert::Inserted);
        assert_eq!(t.insert(keyed_entry(6, None)), Insert::Inserted);
        // Evicting job 1 (retain=1) frees its key for reuse.
        t.finish(5, JobState::Done, Json::Obj(vec![]));
        assert!(t.outcome(1).is_none(), "job 1 evicted");
        assert_eq!(t.insert(keyed_entry(7, Some("k"))), Insert::Inserted);
    }

    #[test]
    fn lookup_key_resolves_lineage_and_spec_presence() {
        let t = JobTable::new(8);
        t.insert(keyed_entry(1, Some("base")));
        let (id, net) = t.lookup_key("base").unwrap();
        assert_eq!(id, 1);
        assert!(net.is_some(), "live jobs expose their circuit");
        assert!(t.lookup_key("missing").is_none());
    }

    #[test]
    fn restored_terminal_entries_serve_results_without_a_spec() {
        let t = JobTable::new(8);
        let budget = Budget::unlimited();
        let cancel = budget.cancel_handle();
        t.insert(JobEntry {
            id: 9,
            job_key: Some("k-9".into()),
            label: "restored".into(),
            spec: None,
            admission_degraded: false,
            budget,
            cancel,
            cancel_requested: false,
            state: JobState::Done,
            submitted: Instant::now(),
            outcome: Some(Json::Obj(vec![("rows".into(), Json::Num(4.0))])),
        });
        let (state, outcome) = t.outcome(9).unwrap();
        assert_eq!(state, JobState::Done);
        assert_eq!(outcome.get("rows").and_then(Json::as_u64), Some(4));
        assert_eq!(t.status(9).unwrap().2, "restored");
        assert!(t.claim_for_run(9).is_none());
        assert_eq!(t.insert(keyed_entry(10, Some("k-9"))), Insert::Duplicate(9));
        let (id, net) = t.lookup_key("k-9").unwrap();
        assert_eq!(id, 9);
        assert!(net.is_none(), "journal-restored jobs lost their circuit");
    }

    #[test]
    fn state_names_round_trip() {
        for s in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
            JobState::Shed,
        ] {
            assert_eq!(JobState::parse(s.name()), Some(s));
        }
        assert_eq!(JobState::parse("warp"), None);
    }
}
