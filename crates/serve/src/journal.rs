//! The write-ahead job journal: crash durability for the service.
//!
//! Every job lifecycle transition (admitted, started, terminal) is
//! appended to a segment file as a CRC32-framed record *after* the
//! in-memory state changes, so on restart the journal is a lower bound
//! on what the dead server knew. Startup replay rebuilds the job table:
//! terminal jobs come back with their outcomes for result pickup,
//! non-terminal jobs are re-enqueued (at-least-once execution), and
//! client-supplied job keys make resubmission idempotent across the
//! crash.
//!
//! ## On-disk layout
//!
//! ```text
//! <dir>/wal-<N>.log     append-only segments, N monotonically increasing
//! <dir>/snapshot.json   CRC32-enveloped compaction snapshot
//! ```
//!
//! Each segment record is framed `[u32 len][u32 crc32][payload]`, both
//! integers little-endian, the payload a compact JSON object. A restart
//! never appends to an old segment — it always opens a fresh one — so
//! a torn tail only ever needs to be *tolerated at read time*, never
//! repaired in place.
//!
//! ## Durability contract
//!
//! `admitted` and terminal records are fsynced before [`Journal::append`]
//! returns: an acked submission can never 404 after a crash, and a job
//! observed terminal can never silently re-run. `started` records are
//! group-committed (synced every [`JournalConfig::sync_batch`] appends or
//! when any stronger record syncs); losing one only downgrades a
//! `running` job to `queued` on replay, which re-enqueues it — the
//! at-least-once path that was already true.
//!
//! ## Replay semantics
//!
//! Snapshot first, then every segment in index order. Records apply
//! idempotently and monotonically (queued → running → terminal; first
//! terminal wins), so the crash window between "snapshot written" and
//! "sealed segments deleted" — where both cover the same records — is
//! harmless. Corruption inside the *last* segment is a torn tail: replay
//! stops there and counts it. Corruption in an earlier segment skips the
//! rest of that segment only, counts a checksum failure, and keeps going.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use flowc_report::{crc32, read_json_checked, write_json_checked, Json, ReadCheckError};

/// Absurd-length guard: a frame longer than this is corruption, not data.
const MAX_RECORD_BYTES: u32 = 64 * 1024 * 1024;

/// Journal tuning. The defaults suit the test-scale service; production
/// deployments mostly tune `sync_batch` (latency vs. replay precision).
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Directory holding segments and the snapshot (created if absent).
    pub dir: PathBuf,
    /// Records per segment before rotation.
    pub segment_max_records: usize,
    /// Sealed segments tolerated before compaction into the snapshot.
    pub max_segments: usize,
    /// Lazy (`started`) records to buffer before forcing an fsync.
    pub sync_batch: usize,
    /// Terminal jobs kept in the replay mirror (and thus the snapshot),
    /// mirroring the job table's bounded result retention.
    pub retain: usize,
}

impl JournalConfig {
    /// Defaults rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> JournalConfig {
        JournalConfig {
            dir: dir.into(),
            segment_max_records: 1024,
            max_segments: 4,
            sync_batch: 8,
            retain: 1024,
        }
    }
}

/// Counters for the `/metrics` `journal` block and startup logging.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records appended since this process opened the journal.
    pub records_appended: u64,
    /// Records applied during startup replay (snapshot jobs + log records).
    pub records_replayed: u64,
    /// Torn tails truncated at replay (crash mid-append).
    pub torn_tail_truncations: u64,
    /// CRC/framing failures outside the tail (real corruption; the rest
    /// of that segment is skipped). A corrupt snapshot also counts here.
    pub checksum_failures: u64,
    /// Segment rotations.
    pub rotations: u64,
    /// Compactions (snapshot written, sealed segments deleted).
    pub compactions: u64,
    /// Appends that failed with an I/O error (service stayed up;
    /// durability for those records is lost).
    pub append_errors: u64,
}

/// One job's replayed (or mirrored) state. `body` is the original submit
/// body so a non-terminal job can be re-admitted through the same parse
/// path; it is dropped from snapshots once the job is terminal.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The job id.
    pub id: u64,
    /// Client-supplied idempotency key, if any.
    pub key: Option<String>,
    /// Original submit body (empty for terminal jobs restored from a
    /// snapshot — they will never run again).
    pub body: String,
    /// Display label.
    pub label: String,
    /// Admitted rung (wire name).
    pub rung: String,
    /// Whether admission degraded the requested rung.
    pub degraded: bool,
    /// Queue priority.
    pub priority: u8,
    /// Lifecycle state (wire name: queued/running/done/failed/…).
    pub state: String,
    /// Terminal outcome body.
    pub outcome: Option<Json>,
}

impl JobRecord {
    /// Whether the job had reached a terminal state.
    pub fn is_terminal(&self) -> bool {
        !matches!(self.state.as_str(), "queued" | "running")
    }
}

/// A lifecycle record to append.
#[derive(Debug, Clone)]
pub enum Record {
    /// Job admitted into the queue (synced immediately).
    Admitted {
        /// The job id.
        id: u64,
        /// Client idempotency key.
        key: Option<String>,
        /// Original submit body.
        body: String,
        /// Display label.
        label: String,
        /// Admitted rung (wire name).
        rung: String,
        /// Whether admission degraded the rung.
        degraded: bool,
        /// Queue priority.
        priority: u8,
    },
    /// A worker claimed the job (group-committed, lazy sync).
    Started {
        /// The job id.
        id: u64,
    },
    /// The job reached a terminal state (synced immediately).
    Terminal {
        /// The job id.
        id: u64,
        /// Terminal state wire name (done/failed/cancelled/shed).
        state: String,
        /// The outcome body stored for result pickup.
        outcome: Json,
    },
}

impl Record {
    fn to_json(&self) -> Json {
        match self {
            Record::Admitted {
                id,
                key,
                body,
                label,
                rung,
                degraded,
                priority,
            } => Json::Obj(vec![
                ("kind".into(), Json::str("admitted")),
                ("id".into(), Json::Num(*id as f64)),
                (
                    "key".into(),
                    key.as_ref().map_or(Json::Null, |k| Json::str(k.clone())),
                ),
                ("body".into(), Json::str(body.clone())),
                ("label".into(), Json::str(label.clone())),
                ("rung".into(), Json::str(rung.clone())),
                ("degraded".into(), Json::Bool(*degraded)),
                ("priority".into(), Json::Num(f64::from(*priority))),
            ]),
            Record::Started { id } => Json::Obj(vec![
                ("kind".into(), Json::str("started")),
                ("id".into(), Json::Num(*id as f64)),
            ]),
            Record::Terminal { id, state, outcome } => Json::Obj(vec![
                ("kind".into(), Json::str("terminal")),
                ("id".into(), Json::Num(*id as f64)),
                ("state".into(), Json::str(state.clone())),
                ("outcome".into(), outcome.clone()),
            ]),
        }
    }

    fn requires_sync(&self) -> bool {
        !matches!(self, Record::Started { .. })
    }
}

/// What startup replay recovered.
#[derive(Debug)]
pub struct Replay {
    /// Every job the journal knows, sorted by id: terminal ones for
    /// result pickup, non-terminal ones for re-enqueue.
    pub jobs: Vec<JobRecord>,
    /// First id safe to allocate (strictly above every replayed id).
    pub next_id: u64,
    /// Replay-time counters (torn tails, checksum failures, records).
    pub stats: JournalStats,
}

struct Inner {
    seg: File,
    seg_index: u64,
    seg_records: usize,
    /// Sealed segment indices still on disk (compaction deletes them).
    sealed: Vec<u64>,
    unsynced: usize,
    mirror: HashMap<u64, JobRecord>,
    /// Terminal ids oldest-first, for bounded mirror retention.
    terminal_fifo: Vec<u64>,
    next_id: u64,
    stats: JournalStats,
}

/// The write-ahead journal. All appends serialize through one mutex —
/// the records are tiny and the syncs dominate, so a finer lock would
/// buy nothing.
pub struct Journal {
    config: JournalConfig,
    inner: Mutex<Inner>,
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("wal-{index}.log"))
}

fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join("snapshot.json")
}

fn encode_frame(payload: &str) -> Vec<u8> {
    let bytes = payload.as_bytes();
    let mut frame = Vec::with_capacity(8 + bytes.len());
    frame.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(bytes).to_le_bytes());
    frame.extend_from_slice(bytes);
    frame
}

/// One segment's decode result: the records that verified, and whether
/// the segment ended cleanly or in garbage.
enum SegmentEnd {
    Clean,
    Corrupt,
}

fn decode_segment(bytes: &[u8]) -> (Vec<Json>, SegmentEnd) {
    let mut records = Vec::new();
    let mut at = 0usize;
    while at < bytes.len() {
        let Some(header) = bytes.get(at..at + 8) else {
            return (records, SegmentEnd::Corrupt);
        };
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if len > MAX_RECORD_BYTES {
            return (records, SegmentEnd::Corrupt);
        }
        let Some(payload) = bytes.get(at + 8..at + 8 + len as usize) else {
            return (records, SegmentEnd::Corrupt);
        };
        if crc32(payload) != crc {
            return (records, SegmentEnd::Corrupt);
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            return (records, SegmentEnd::Corrupt);
        };
        let Ok(json) = Json::parse(text) else {
            return (records, SegmentEnd::Corrupt);
        };
        records.push(json);
        at += 8 + len as usize;
    }
    (records, SegmentEnd::Clean)
}

fn job_to_json(job: &JobRecord, terminal: bool) -> Json {
    Json::Obj(vec![
        ("id".into(), Json::Num(job.id as f64)),
        (
            "key".into(),
            job.key
                .as_ref()
                .map_or(Json::Null, |k| Json::str(k.clone())),
        ),
        // Terminal jobs never run again: drop the (possibly large)
        // circuit body from snapshots.
        (
            "body".into(),
            Json::str(if terminal {
                String::new()
            } else {
                job.body.clone()
            }),
        ),
        ("label".into(), Json::str(job.label.clone())),
        ("rung".into(), Json::str(job.rung.clone())),
        ("degraded".into(), Json::Bool(job.degraded)),
        ("priority".into(), Json::Num(f64::from(job.priority))),
        ("state".into(), Json::str(job.state.clone())),
        ("outcome".into(), job.outcome.clone().unwrap_or(Json::Null)),
    ])
}

fn job_from_json(json: &Json) -> Option<JobRecord> {
    Some(JobRecord {
        id: json.get("id").and_then(Json::as_u64)?,
        key: json.get("key").and_then(Json::as_str).map(str::to_string),
        body: json
            .get("body")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string(),
        label: json
            .get("label")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string(),
        rung: json
            .get("rung")
            .and_then(Json::as_str)
            .unwrap_or("exact-mip")
            .to_string(),
        degraded: json
            .get("degraded")
            .and_then(Json::as_bool)
            .unwrap_or(false),
        priority: json
            .get("priority")
            .and_then(Json::as_u64)
            .map_or(0, |p| u8::try_from(p.min(9)).expect("capped at 9")),
        state: json
            .get("state")
            .and_then(Json::as_str)
            .unwrap_or("queued")
            .to_string(),
        outcome: match json.get("outcome") {
            None | Some(Json::Null) => None,
            Some(o) => Some(o.clone()),
        },
    })
}

impl Inner {
    /// Applies one replayed/appended record to the mirror. Idempotent and
    /// monotonic: duplicates are no-ops and a terminal state is never
    /// overwritten, so replaying a snapshot plus stale segments that
    /// cover the same records converges to the same table.
    fn apply(&mut self, record: &Record, retain: usize) {
        match record {
            Record::Admitted {
                id,
                key,
                body,
                label,
                rung,
                degraded,
                priority,
            } => {
                self.next_id = self.next_id.max(id + 1);
                self.mirror.entry(*id).or_insert_with(|| JobRecord {
                    id: *id,
                    key: key.clone(),
                    body: body.clone(),
                    label: label.clone(),
                    rung: rung.clone(),
                    degraded: *degraded,
                    priority: *priority,
                    state: "queued".into(),
                    outcome: None,
                });
            }
            Record::Started { id } => {
                if let Some(job) = self.mirror.get_mut(id) {
                    if job.state == "queued" {
                        job.state = "running".into();
                    }
                }
            }
            Record::Terminal { id, state, outcome } => {
                let Some(job) = self.mirror.get_mut(id) else {
                    return;
                };
                if job.is_terminal() {
                    return;
                }
                job.state = state.clone();
                job.outcome = Some(outcome.clone());
                job.body = String::new();
                self.terminal_fifo.push(*id);
                while self.terminal_fifo.len() > retain {
                    let oldest = self.terminal_fifo.remove(0);
                    self.mirror.remove(&oldest);
                }
            }
        }
    }

    fn apply_json(&mut self, json: &Json, retain: usize) {
        let Some(kind) = json.get("kind").and_then(Json::as_str) else {
            return;
        };
        let record = match kind {
            "admitted" => job_from_json(json).map(|j| Record::Admitted {
                id: j.id,
                key: j.key,
                body: j.body,
                label: j.label,
                rung: j.rung,
                degraded: j.degraded,
                priority: j.priority,
            }),
            "started" => json
                .get("id")
                .and_then(Json::as_u64)
                .map(|id| Record::Started { id }),
            "terminal" => {
                let id = json.get("id").and_then(Json::as_u64);
                let state = json.get("state").and_then(Json::as_str);
                match (id, state) {
                    (Some(id), Some(state)) => Some(Record::Terminal {
                        id,
                        state: state.to_string(),
                        outcome: json.get("outcome").cloned().unwrap_or(Json::Null),
                    }),
                    _ => None,
                }
            }
            _ => None,
        };
        if let Some(record) = record {
            self.stats.records_replayed += 1;
            self.apply(&record, retain);
        }
    }

    fn snapshot_json(&self) -> Json {
        let mut ids: Vec<u64> = self.mirror.keys().copied().collect();
        ids.sort_unstable();
        let jobs = ids
            .iter()
            .map(|id| {
                let job = &self.mirror[id];
                job_to_json(job, job.is_terminal())
            })
            .collect();
        Json::Obj(vec![
            ("next_id".into(), Json::Num(self.next_id as f64)),
            ("jobs".into(), Json::Arr(jobs)),
        ])
    }

    /// Writes the snapshot covering everything in the mirror, then
    /// deletes the sealed segments it supersedes. A crash between the
    /// two steps leaves stale segments whose records replay idempotently
    /// over the snapshot.
    fn compact(&mut self, dir: &Path) -> io::Result<()> {
        write_json_checked(&snapshot_path(dir), &self.snapshot_json()).map_err(io::Error::from)?;
        self.stats.compactions += 1;
        // Crash window under test: snapshot durable, old segments still
        // on disk. Replay must converge to the same table.
        flowc_failpoint::fire("serve.journal.compact");
        for index in self.sealed.drain(..) {
            let _ = fs::remove_file(segment_path(dir, index));
        }
        Ok(())
    }
}

impl Journal {
    /// Opens (creating if needed) the journal at `config.dir`, replays
    /// the snapshot and every segment, and starts a fresh active segment.
    ///
    /// # Errors
    ///
    /// Only environmental failures (directory not creatable, segment not
    /// creatable). Corruption never errors: it is tolerated, counted,
    /// and reported through [`Replay::stats`].
    pub fn open(config: JournalConfig) -> io::Result<(Journal, Replay)> {
        fs::create_dir_all(&config.dir)?;
        let mut inner = Inner {
            // Placeholder; replaced below once the segment index is known.
            seg: File::create(config.dir.join(".open.tmp"))?,
            seg_index: 0,
            seg_records: 0,
            sealed: Vec::new(),
            unsynced: 0,
            mirror: HashMap::new(),
            terminal_fifo: Vec::new(),
            next_id: 1,
            stats: JournalStats::default(),
        };

        // 1. Snapshot (if any): the compacted prefix of history.
        match read_json_checked(&snapshot_path(&config.dir)) {
            Ok(snap) => {
                inner.next_id = snap.get("next_id").and_then(Json::as_u64).unwrap_or(1);
                let jobs = snap.get("jobs").and_then(Json::as_arr).unwrap_or(&[]);
                for j in jobs {
                    if let Some(job) = job_from_json(j) {
                        inner.stats.records_replayed += 1;
                        inner.next_id = inner.next_id.max(job.id + 1);
                        if job.is_terminal() {
                            inner.terminal_fifo.push(job.id);
                        }
                        inner.mirror.insert(job.id, job);
                    }
                }
            }
            Err(ReadCheckError::Missing) => {}
            Err(_) => inner.stats.checksum_failures += 1,
        }

        // 2. Segments, in index order. Only the last may be torn.
        let mut indices: Vec<u64> = fs::read_dir(&config.dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name();
                let name = name.to_string_lossy().into_owned();
                name.strip_prefix("wal-")?
                    .strip_suffix(".log")?
                    .parse::<u64>()
                    .ok()
            })
            .collect();
        indices.sort_unstable();
        for (pos, &index) in indices.iter().enumerate() {
            let last = pos + 1 == indices.len();
            let bytes = fs::read(segment_path(&config.dir, index)).unwrap_or_default();
            let (records, end) = decode_segment(&bytes);
            for json in &records {
                inner.apply_json(json, config.retain);
            }
            if matches!(end, SegmentEnd::Corrupt) {
                if last {
                    inner.stats.torn_tail_truncations += 1;
                } else {
                    inner.stats.checksum_failures += 1;
                }
            }
        }

        // 3. Fresh active segment strictly above everything on disk.
        let seg_index = indices.last().map_or(1, |&i| i + 1);
        inner.seg = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(segment_path(&config.dir, seg_index))?;
        inner.seg_index = seg_index;
        inner.sealed = indices;
        let _ = fs::remove_file(config.dir.join(".open.tmp"));

        // 4. Crash-looped servers must not accrete segments forever.
        if inner.sealed.len() >= config.max_segments {
            let _ = inner.compact(&config.dir);
        }

        let mut jobs: Vec<JobRecord> = inner.mirror.values().cloned().collect();
        jobs.sort_unstable_by_key(|j| j.id);
        let replay = Replay {
            jobs,
            next_id: inner.next_id,
            stats: inner.stats,
        };
        Ok((
            Journal {
                config,
                inner: Mutex::new(inner),
            },
            replay,
        ))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends one record: mirror update, framed write, sync policy,
    /// rotation, compaction. I/O failures are counted and swallowed —
    /// the service keeps running with durability degraded rather than
    /// failing live traffic.
    pub fn append(&self, record: &Record) {
        let mut inner = self.lock();
        inner.apply(record, self.config.retain);
        flowc_failpoint::fire("serve.journal.append");
        let frame = encode_frame(&record.to_json().to_compact());
        if flowc_failpoint::hit("serve.journal.torn") == flowc_failpoint::Action::Crash {
            // Simulate a crash mid-append: half a frame reaches the OS,
            // then the process dies without unwinding. Replay must
            // truncate exactly this record and keep everything before it.
            let _ = inner.seg.write_all(&frame[..frame.len() / 2]);
            let _ = inner.seg.flush();
            std::process::abort();
        }
        let wrote = inner.seg.write_all(&frame).and_then(|()| {
            inner.unsynced += 1;
            if record.requires_sync() || inner.unsynced >= self.config.sync_batch {
                inner.unsynced = 0;
                inner.seg.sync_all()
            } else {
                Ok(())
            }
        });
        match wrote {
            Ok(()) => {
                inner.stats.records_appended += 1;
                inner.seg_records += 1;
            }
            Err(_) => {
                inner.stats.append_errors += 1;
                return;
            }
        }
        if inner.seg_records >= self.config.segment_max_records {
            let _ = self.rotate(&mut inner);
        }
    }

    fn rotate(&self, inner: &mut Inner) -> io::Result<()> {
        inner.seg.sync_all()?;
        let next = inner.seg_index + 1;
        // Crash window under test: the old segment is sealed and synced,
        // the new one does not exist yet. Replay opens index `next` fresh.
        flowc_failpoint::fire("serve.journal.rotate");
        inner.seg = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(segment_path(&self.config.dir, next))?;
        let sealed = inner.seg_index;
        inner.seg_index = next;
        inner.seg_records = 0;
        inner.unsynced = 0;
        inner.sealed.push(sealed);
        inner.stats.rotations += 1;
        if inner.sealed.len() >= self.config.max_segments {
            inner.compact(&self.config.dir)?;
        }
        Ok(())
    }

    /// A snapshot of the journal counters.
    pub fn stats(&self) -> JournalStats {
        self.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("flowc-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn admitted(id: u64, key: Option<&str>) -> Record {
        Record::Admitted {
            id,
            key: key.map(str::to_string),
            body: format!("{{\"circuit\": \"dec\", \"format\": \"bench\", \"n\": {id}}}"),
            label: format!("job-{id}"),
            rung: "heuristic-oct".into(),
            degraded: false,
            priority: 3,
        }
    }

    fn terminal(id: u64, state: &str) -> Record {
        Record::Terminal {
            id,
            state: state.into(),
            outcome: Json::Obj(vec![("rows".into(), Json::Num(id as f64))]),
        }
    }

    fn config(dir: &Path) -> JournalConfig {
        JournalConfig::new(dir)
    }

    #[test]
    fn replay_round_trips_lifecycles_and_resumes_ids() {
        let dir = temp_dir("roundtrip");
        {
            let (journal, replay) = Journal::open(config(&dir)).unwrap();
            assert!(replay.jobs.is_empty());
            assert_eq!(replay.next_id, 1);
            journal.append(&admitted(1, Some("k-1")));
            journal.append(&Record::Started { id: 1 });
            journal.append(&terminal(1, "done"));
            journal.append(&admitted(2, None));
            journal.append(&Record::Started { id: 2 });
            journal.append(&admitted(3, Some("k-3")));
            assert_eq!(journal.stats().records_appended, 6);
        }
        let (_journal, replay) = Journal::open(config(&dir)).unwrap();
        assert_eq!(replay.next_id, 4);
        assert_eq!(replay.stats.records_replayed, 6);
        assert_eq!(replay.stats.torn_tail_truncations, 0);
        let by_id: HashMap<u64, &JobRecord> = replay.jobs.iter().map(|j| (j.id, j)).collect();
        assert_eq!(by_id[&1].state, "done");
        assert!(by_id[&1].is_terminal());
        assert_eq!(by_id[&1].key.as_deref(), Some("k-1"));
        assert_eq!(
            by_id[&1]
                .outcome
                .as_ref()
                .unwrap()
                .get("rows")
                .and_then(Json::as_u64),
            Some(1)
        );
        // The running job comes back as running (re-enqueue candidate),
        // with its submit body intact for re-parsing.
        assert_eq!(by_id[&2].state, "running");
        assert!(by_id[&2].body.contains("\"n\": 2"));
        assert_eq!(by_id[&3].state, "queued");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_counted() {
        let dir = temp_dir("torn");
        {
            let (journal, _) = Journal::open(config(&dir)).unwrap();
            journal.append(&admitted(1, None));
            journal.append(&admitted(2, None));
        }
        // Tear the active segment's tail: chop the last record mid-frame.
        let seg = segment_path(&dir, 1);
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() - 7]).unwrap();
        let (_journal, replay) = Journal::open(config(&dir)).unwrap();
        assert_eq!(replay.stats.torn_tail_truncations, 1);
        assert_eq!(replay.jobs.len(), 1, "the complete prefix survives");
        assert_eq!(replay.jobs[0].id, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_stream_corruption_skips_the_segment_not_the_journal() {
        let dir = temp_dir("midcorrupt");
        {
            let (journal, _) = Journal::open(config(&dir)).unwrap();
            journal.append(&admitted(1, None));
        }
        // Corrupt segment 1's payload, then write more into segment 2.
        let seg1 = segment_path(&dir, 1);
        let mut bytes = fs::read(&seg1).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&seg1, &bytes).unwrap();
        {
            let (journal, replay) = Journal::open(config(&dir)).unwrap();
            // Segment 1 was last at this point: counted as torn tail.
            assert_eq!(replay.stats.torn_tail_truncations, 1);
            journal.append(&admitted(2, None));
        }
        let (_journal, replay) = Journal::open(config(&dir)).unwrap();
        // Now segment 1 is mid-stream: a checksum failure, and segment
        // 2's record still replays.
        assert_eq!(replay.stats.checksum_failures, 1);
        assert_eq!(replay.jobs.len(), 1);
        assert_eq!(replay.jobs[0].id, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_compacts_into_a_snapshot_and_stale_segments_stay_idempotent() {
        let dir = temp_dir("compact");
        let mut cfg = config(&dir);
        cfg.segment_max_records = 4;
        cfg.max_segments = 2;
        {
            let (journal, _) = Journal::open(cfg.clone()).unwrap();
            for id in 1..=10 {
                journal.append(&admitted(id, None));
                journal.append(&terminal(id, "done"));
            }
            let stats = journal.stats();
            assert!(stats.rotations >= 2, "rotations: {}", stats.rotations);
            assert!(stats.compactions >= 1, "compactions: {}", stats.compactions);
        }
        assert!(snapshot_path(&dir).exists());
        let (_journal, replay) = Journal::open(cfg.clone()).unwrap();
        assert_eq!(replay.jobs.len(), 10);
        assert!(replay.jobs.iter().all(JobRecord::is_terminal));
        assert_eq!(replay.next_id, 11);
        // Terminal snapshot entries carry outcomes but no bodies.
        assert!(replay.jobs.iter().all(|j| j.body.is_empty()));
        assert!(replay.jobs.iter().all(|j| j.outcome.is_some()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_is_a_counted_miss_not_a_crash() {
        let dir = temp_dir("snapcorrupt");
        let mut cfg = config(&dir);
        cfg.segment_max_records = 2;
        cfg.max_segments = 1;
        {
            let (journal, _) = Journal::open(cfg.clone()).unwrap();
            for id in 1..=4 {
                journal.append(&admitted(id, None));
            }
        }
        let snap = snapshot_path(&dir);
        assert!(snap.exists());
        let text = fs::read_to_string(&snap).unwrap();
        fs::write(&snap, text.replace("queued", "queueX")).unwrap();
        let (_journal, replay) = Journal::open(cfg).unwrap();
        assert!(replay.stats.checksum_failures >= 1);
        // Whatever still lives in un-compacted segments replays; the
        // snapshot's jobs are lost but the server comes up.
        assert!(replay.jobs.len() < 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mirror_retention_is_bounded() {
        let dir = temp_dir("retain");
        let mut cfg = config(&dir);
        cfg.retain = 3;
        {
            let (journal, _) = Journal::open(cfg.clone()).unwrap();
            for id in 1..=8 {
                journal.append(&admitted(id, None));
                journal.append(&terminal(id, "done"));
            }
            journal.append(&admitted(99, None));
        }
        let (_journal, replay) = Journal::open(cfg).unwrap();
        let terminal_count = replay.jobs.iter().filter(|j| j.is_terminal()).count();
        assert_eq!(terminal_count, 3, "only the newest terminals retained");
        assert!(
            replay.jobs.iter().any(|j| j.id == 99),
            "live jobs never evicted"
        );
        assert_eq!(replay.next_id, 100);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_and_out_of_order_records_replay_idempotently() {
        let dir = temp_dir("idempotent");
        {
            let (journal, _) = Journal::open(config(&dir)).unwrap();
            journal.append(&admitted(1, Some("k")));
            journal.append(&terminal(1, "done"));
            // Duplicates and post-terminal transitions must be no-ops —
            // exactly what replaying a stale segment over a snapshot does.
            journal.append(&admitted(1, Some("k")));
            journal.append(&Record::Started { id: 1 });
            journal.append(&terminal(1, "failed"));
            journal.append(&Record::Started { id: 42 });
        }
        let (_journal, replay) = Journal::open(config(&dir)).unwrap();
        assert_eq!(replay.jobs.len(), 1);
        assert_eq!(replay.jobs[0].state, "done", "first terminal wins");
        let _ = fs::remove_dir_all(&dir);
    }
}
