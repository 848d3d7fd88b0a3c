//! Crash-recovery integration tests: run the real `flowc-serve` binary
//! with `--journal`, kill it for real (SIGKILL, plus seeded failpoint
//! aborts armed through `FLOWC_FAILPOINTS`), restart it over the same
//! directory, and assert the durability contract — every admitted job
//! reaches a consistent terminal state exactly once, terminal outcomes
//! survive verbatim, job keys dedupe across the crash, and corrupted
//! journal bytes are detected and truncated, never replayed.
//!
//! Journal directories live under `target/crash-recovery/` so CI can
//! upload them as artifacts when a run fails.

use std::time::{Duration, Instant};

use flowc_report::Json;

mod common;
use common::{await_terminal, call, metrics, scratch_dir, submit, try_call, ServerProc};

fn fast_job(key: &str, priority: u8) -> String {
    format!(
        r#"{{"circuit": "dec", "format": "bench", "strategy": "staircase",
            "deadline_ms": 60000, "priority": {priority}, "job_key": "{key}"}}"#
    )
}

fn journal_metric(m: &Json, name: &str) -> u64 {
    m.get("journal")
        .and_then(|j| j.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing journal metric {name}: {}", m.to_compact()))
}

fn state_of(addr: std::net::SocketAddr, id: u64) -> String {
    let (status, json) = call(addr, "GET", &format!("/status?id={id}"), "");
    assert_eq!(status, 200, "status for {id}: {}", json.to_compact());
    json.get("state")
        .and_then(Json::as_str)
        .unwrap()
        .to_string()
}

/// The headline property: a 50-job mixed workload (priorities spread,
/// worker stalls, a worker panic, a cancellation), SIGKILLed mid-flight,
/// then restarted over the same journal. Nothing is lost, nothing runs
/// twice to a different answer, and the id counter never rewinds.
#[test]
fn sigkill_mid_workload_loses_no_job() {
    let dir = scratch_dir("crash-recovery", "sigkill");
    let journal = dir.join("journal");
    let jflag = journal.to_str().unwrap().to_string();
    let flags = [
        "--journal",
        jflag.as_str(),
        "--workers",
        "2",
        "--queue-cap",
        "128",
    ];
    // The 10th and 30th job runs stall their worker for 3 s, so work is
    // still in flight when the kill lands; the 20th panics its worker.
    let mut server = ServerProc::spawn(
        &flags,
        &[(
            "FLOWC_FAILPOINTS",
            "serve.worker.run=sleep(3000)@10,serve.worker.run=sleep(3000)@30,\
             serve.worker.run=panic@20",
        )],
    );
    let addr = server.addr;

    // 50 fast jobs with spread priorities.
    let mut ids: Vec<(String, u64)> = Vec::new();
    for i in 0..50u64 {
        let key = format!("job-{i}");
        let (status, json) = submit(addr, &fast_job(&key, (i % 10) as u8));
        assert_eq!(status, 200, "{}", json.to_compact());
        ids.push((key, json.get("id").and_then(Json::as_u64).unwrap()));
    }
    // Cancel one of the late (still queued or running) submissions; its
    // terminal state must also survive the crash.
    let (cancel_status, cancel_json) = call(
        addr,
        "POST",
        "/cancel",
        &format!("{{\"id\": {}}}", ids[45].1),
    );
    assert_eq!(cancel_status, 200, "{}", cancel_json.to_compact());

    // Let part of the workload settle and capture those durable outcomes.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut settled: Vec<(u64, String, String)> = Vec::new();
    loop {
        settled.clear();
        for (_, id) in &ids {
            let state = state_of(addr, *id);
            if !matches!(state.as_str(), "queued" | "running") {
                let (rs, rjson) = call(addr, "GET", &format!("/result?id={id}"), "");
                assert_eq!(rs, 200, "result for {id}: {}", rjson.to_compact());
                settled.push((*id, state, rjson.get("outcome").unwrap().to_compact()));
            }
        }
        if settled.len() >= 10 {
            break;
        }
        assert!(Instant::now() < deadline, "workload never made progress");
        std::thread::sleep(Duration::from_millis(50));
    }

    // The real crash: SIGKILL, mid-workload. No drain, no destructors.
    server.kill();
    drop(server);

    let server = ServerProc::spawn(&flags, &[]);
    let addr = server.addr;
    let m = metrics(addr);
    assert!(journal_metric(&m, "records_replayed") > 0);
    assert_eq!(journal_metric(&m, "checksum_failures"), 0);
    // A job can finish between the last poll and the kill; the journal
    // then rightly restores it as terminal too. So the count is bounded
    // by the jobs seen terminal before the kill and the jobs admitted.
    let restored = journal_metric(&m, "restored_terminal");
    assert!(
        restored >= settled.len() as u64 && restored <= ids.len() as u64,
        "every pre-kill terminal job is restored ({} seen terminal, {} admitted): {}",
        settled.len(),
        ids.len(),
        m.to_compact()
    );

    // Every admitted job reaches a terminal state; the vast majority
    // complete (the panic job fails typed, the cancelled job may stay
    // cancelled).
    let mut done = 0;
    for (_, id) in &ids {
        let state = await_terminal(addr, *id, Duration::from_secs(60));
        assert!(
            matches!(state.as_str(), "done" | "failed" | "cancelled"),
            "job {id}: unexpected terminal `{state}`"
        );
        if state == "done" {
            done += 1;
        }
    }
    assert!(done >= 45, "only {done}/50 jobs completed");

    // Pre-kill terminal outcomes are restored verbatim — not recomputed.
    for (id, state, outcome) in &settled {
        assert_eq!(
            state_of(addr, *id),
            *state,
            "job {id} changed terminal state across the crash"
        );
        let (rs, rjson) = call(addr, "GET", &format!("/result?id={id}"), "");
        assert_eq!(rs, 200);
        assert_eq!(
            rjson.get("outcome").unwrap().to_compact(),
            *outcome,
            "job {id} outcome changed across the crash"
        );
    }

    // Idempotent resubmission: keys recovered from the journal dedupe to
    // the original job instead of running it again.
    for (key, id) in ids.iter().take(8) {
        let (s, json) = submit(addr, &fast_job(key, 0));
        assert_eq!(s, 200, "{}", json.to_compact());
        assert_eq!(
            json.get("duplicate").and_then(Json::as_bool),
            Some(true),
            "key {key} was not deduplicated: {}",
            json.to_compact()
        );
        assert_eq!(json.get("id").and_then(Json::as_u64), Some(*id));
    }

    // Fresh submissions never reuse a recovered id.
    let max_id = ids.iter().map(|(_, id)| *id).max().unwrap();
    let (s, json) = submit(addr, &fast_job("fresh-after-recovery", 5));
    assert_eq!(s, 200, "{}", json.to_compact());
    let new_id = json.get("id").and_then(Json::as_u64).unwrap();
    assert!(new_id > max_id, "id counter rewound: {new_id} <= {max_id}");
    assert_eq!(
        await_terminal(addr, new_id, Duration::from_secs(30)),
        "done"
    );

    // The journal directory doubles as the disk label cache: staircase
    // labelings are deterministic, so they were written through.
    let cached = std::fs::read_dir(journal.join("cache"))
        .map(|d| d.count())
        .unwrap_or(0);
    assert!(cached > 0, "no labelings persisted to the disk cache");
}

/// Flipping a byte inside a sealed-and-synced segment must be detected by
/// the CRC framing on replay: the journal truncates/skips from the bad
/// frame, counts the detection, and the server still comes up.
#[test]
fn corrupt_segment_bytes_are_detected_not_replayed() {
    let dir = scratch_dir("crash-recovery", "corrupt");
    let journal = dir.join("journal");
    let jflag = journal.to_str().unwrap().to_string();
    let flags = ["--journal", jflag.as_str(), "--workers", "2"];
    {
        let mut server = ServerProc::spawn(&flags, &[]);
        let addr = server.addr;
        let mut ids = Vec::new();
        for i in 0..12 {
            let (s, json) = submit(addr, &fast_job(&format!("c-{i}"), 0));
            assert_eq!(s, 200, "{}", json.to_compact());
            ids.push(json.get("id").and_then(Json::as_u64).unwrap());
        }
        for id in ids {
            assert_eq!(await_terminal(addr, id, Duration::from_secs(30)), "done");
        }
        server.kill();
    }

    let segment = std::fs::read_dir(&journal)
        .unwrap()
        .filter_map(Result::ok)
        .find(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .expect("a journal segment")
        .path();
    let mut bytes = std::fs::read(&segment).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&segment, &bytes).unwrap();

    let server = ServerProc::spawn(&flags, &[]);
    let m = metrics(server.addr);
    let detected =
        journal_metric(&m, "torn_tail_truncations") + journal_metric(&m, "checksum_failures");
    assert!(
        detected >= 1,
        "corruption went undetected: {}",
        m.to_compact()
    );
    // Everything before the flipped byte still replays.
    assert!(journal_metric(&m, "records_replayed") >= 1);
}

/// Failpoint-driven crashes: a torn tail written mid-frame, an abort
/// inside an edit replay, and an abort between "snapshot written" and
/// "sealed segments deleted".
mod failpoints {
    use super::*;

    /// The 25th journal append writes half a frame, flushes it, and
    /// aborts the process — the torn tail a power cut leaves behind. On
    /// restart exactly one truncation is counted, no checksum failures,
    /// and every surviving job drains to a terminal state.
    #[test]
    fn injected_torn_tail_truncates_on_replay() {
        let dir = scratch_dir("crash-recovery", "torn");
        let journal = dir.join("journal");
        let jflag = journal.to_str().unwrap().to_string();
        let flags = [
            "--journal",
            jflag.as_str(),
            "--workers",
            "2",
            "--queue-cap",
            "128",
        ];
        let mut server = ServerProc::spawn(
            &flags,
            &[("FLOWC_FAILPOINTS", "serve.journal.torn=crash@25")],
        );
        let addr = server.addr;

        // Submit until the failpoint kills the server mid-write; worker
        // threads are appending started/terminal records concurrently, so
        // the abort can land under any of them.
        let mut submitted = Vec::new();
        for i in 0..60 {
            match try_call(addr, "POST", "/submit", &fast_job(&format!("t-{i}"), 0)) {
                Ok((200, json)) => {
                    submitted.push(json.get("id").and_then(Json::as_u64).unwrap());
                }
                _ => break,
            }
        }
        assert!(
            server.wait_for_death(Duration::from_secs(30)),
            "torn-tail failpoint never fired"
        );
        drop(server);

        let server = ServerProc::spawn(&flags, &[]);
        let addr = server.addr;
        let m = metrics(addr);
        assert_eq!(journal_metric(&m, "torn_tail_truncations"), 1);
        assert_eq!(journal_metric(&m, "checksum_failures"), 0);
        assert!(journal_metric(&m, "records_replayed") >= 1);

        // At most the torn record is lost; every id the journal still
        // knows reaches a terminal state.
        let mut known = 0;
        for id in submitted {
            match try_call(addr, "GET", &format!("/status?id={id}"), "") {
                Ok((200, _)) => {
                    await_terminal(addr, id, Duration::from_secs(60));
                    known += 1;
                }
                Ok((404, _)) => {} // the record inside the torn tail
                other => panic!("status for {id}: {other:?}"),
            }
        }
        assert!(known >= 1, "the whole workload vanished");
    }

    /// A crash between cone invalidation and the re-label (the
    /// `compact.incremental.relabel` failpoint inside the worker's edit
    /// session) must not poison the shared disk labeling cache: on
    /// restart the journal replays the patch cold from its materialized
    /// netlist, the base job's outcome survives verbatim, the patch
    /// still completes with the right answer, and no disk cache entry
    /// reads back corrupt.
    #[test]
    fn crash_during_edit_replay_keeps_disk_cache_consistent() {
        const BASE: &str = "\
.model patchbase
.inputs a b c
.outputs f g
.names a b f
11 1
.names b c g
1- 1
-1 1
.end
";
        let dir = scratch_dir("crash-recovery", "edit-replay");
        let journal = dir.join("journal");
        let jflag = journal.to_str().unwrap().to_string();
        let flags = ["--journal", jflag.as_str(), "--workers", "1"];
        let mut server = ServerProc::spawn(
            &flags,
            &[("FLOWC_FAILPOINTS", "compact.incremental.relabel=crash")],
        );
        let addr = server.addr;

        // The plain submit path never enters an edit session, so the
        // failpoint stays dormant while the base job completes (and its
        // staircase labeling writes through to the disk cache).
        let circuit = BASE.replace('\n', "\\n");
        let base_body = format!(
            r#"{{"circuit": "{circuit}", "format": "blif", "strategy": "staircase",
                "deadline_ms": 60000, "job_key": "er-base"}}"#
        );
        let (s, json) = submit(addr, &base_body);
        assert_eq!(s, 200, "{}", json.to_compact());
        let base_id = json.get("id").and_then(Json::as_u64).unwrap();
        assert_eq!(
            await_terminal(addr, base_id, Duration::from_secs(30)),
            "done"
        );
        let (rs, rjson) = call(addr, "GET", &format!("/result?id={base_id}"), "");
        assert_eq!(rs, 200);
        let base_outcome = rjson.get("outcome").unwrap().to_compact();

        // A live (cone-changing) edit: the worker's edit session
        // invalidates f's cone, hits the failpoint before the re-label,
        // and aborts the process. The HTTP response races the abort, so
        // tolerate a transport error — the admission record was synced
        // before the worker ever saw the job.
        let patch_body = r#"{"base_key": "er-base", "job_key": "er-1",
            "edits": ["rewire f 0 c"], "strategy": "staircase", "deadline_ms": 60000}"#;
        let _ = try_call(addr, "POST", "/patch", patch_body);
        assert!(
            server.wait_for_death(Duration::from_secs(30)),
            "edit-replay failpoint never fired"
        );
        drop(server);

        let server = ServerProc::spawn(&flags, &[]);
        let addr = server.addr;

        // The base job's terminal outcome is restored verbatim.
        assert_eq!(state_of(addr, base_id), "done");
        let (rs, rjson) = call(addr, "GET", &format!("/result?id={base_id}"), "");
        assert_eq!(rs, 200);
        assert_eq!(
            rjson.get("outcome").unwrap().to_compact(),
            base_outcome,
            "base outcome changed across the crash"
        );

        // The patch was journalled as a plain job over its materialized
        // netlist: recover its id through job-key dedupe and let the
        // replay drive it cold to completion.
        let dedupe = format!(
            r#"{{"circuit": "{circuit}", "format": "blif", "strategy": "staircase",
                "deadline_ms": 60000, "job_key": "er-1"}}"#
        );
        let (s, json) = submit(addr, &dedupe);
        assert_eq!(s, 200, "{}", json.to_compact());
        assert_eq!(
            json.get("duplicate").and_then(Json::as_bool),
            Some(true),
            "the interrupted patch was not replayed: {}",
            json.to_compact()
        );
        let patch_id = json.get("id").and_then(Json::as_u64).unwrap();
        assert_eq!(
            await_terminal(addr, patch_id, Duration::from_secs(60)),
            "done"
        );

        // The replayed patch lands on the same semiperimeter as a cold
        // synthesis of the edited circuit (`rewire f 0 c` repointed f's
        // buffer, so f is now just c).
        let reference = r#"{"circuit": ".model ref\n.inputs a b c\n.outputs f g\n.names c f\n1 1\n.names b c g\n1- 1\n-1 1\n.end\n",
            "format": "blif", "strategy": "staircase", "deadline_ms": 60000, "job_key": "er-ref"}"#;
        let (s, json) = submit(addr, reference);
        assert_eq!(s, 200, "{}", json.to_compact());
        let ref_id = json.get("id").and_then(Json::as_u64).unwrap();
        assert_eq!(
            await_terminal(addr, ref_id, Duration::from_secs(30)),
            "done"
        );
        let (_, pj) = call(addr, "GET", &format!("/result?id={patch_id}"), "");
        let (_, rj) = call(addr, "GET", &format!("/result?id={ref_id}"), "");
        let semi = |j: &Json| {
            j.get("outcome")
                .and_then(|o| o.get("semiperimeter"))
                .and_then(Json::as_u64)
        };
        assert_eq!(
            semi(&pj),
            semi(&rj),
            "replayed patch and cold reference disagree: {} vs {}",
            pj.to_compact(),
            rj.to_compact()
        );

        // The interrupted session left the disk labeling cache
        // consistent: entries exist (the check is not vacuous) and none
        // read back corrupt during the replay.
        let m = metrics(addr);
        let corrupt = m
            .get("cache")
            .and_then(|c| c.get("disk_corrupt"))
            .and_then(Json::as_u64)
            .unwrap();
        assert_eq!(
            corrupt,
            0,
            "disk labeling cache corrupted: {}",
            m.to_compact()
        );
        let cached = std::fs::read_dir(journal.join("cache"))
            .map(|d| d.count())
            .unwrap_or(0);
        assert!(cached > 0, "no labelings persisted to the disk cache");
    }

    /// Crash between writing the compaction snapshot and deleting the
    /// sealed segments it covers: on restart the snapshot plus the stale
    /// segments replay idempotently — every job exactly once.
    #[test]
    fn crash_during_compaction_replays_idempotently() {
        let dir = scratch_dir("crash-recovery", "compact");
        let journal = dir.join("journal");
        let jflag = journal.to_str().unwrap().to_string();
        let flags = [
            "--journal",
            jflag.as_str(),
            "--workers",
            "2",
            "--queue-cap",
            "128",
            "--journal-segment",
            "8",
            "--journal-segments",
            "2",
        ];
        let mut server = ServerProc::spawn(
            &flags,
            &[("FLOWC_FAILPOINTS", "serve.journal.compact=crash")],
        );
        let addr = server.addr;

        let mut submitted = Vec::new();
        for i in 0..60 {
            match try_call(addr, "POST", "/submit", &fast_job(&format!("cp-{i}"), 0)) {
                Ok((200, json)) => {
                    submitted.push((
                        format!("cp-{i}"),
                        json.get("id").and_then(Json::as_u64).unwrap(),
                    ));
                }
                _ => break,
            }
        }
        assert!(
            server.wait_for_death(Duration::from_secs(30)),
            "compaction failpoint never fired"
        );
        drop(server);
        assert!(
            journal.join("snapshot.json").exists(),
            "the snapshot was written before the crash"
        );

        let server = ServerProc::spawn(&flags, &[]);
        let addr = server.addr;
        let mut sample_key = None;
        for (key, id) in &submitted {
            match try_call(addr, "GET", &format!("/status?id={id}"), "") {
                Ok((200, _)) => {
                    let state = await_terminal(addr, *id, Duration::from_secs(60));
                    assert!(
                        matches!(state.as_str(), "done" | "failed"),
                        "job {id}: unexpected terminal `{state}`"
                    );
                    sample_key.get_or_insert((key.clone(), *id));
                }
                Ok((404, _)) => {} // lost with the dying process's tail
                other => panic!("status for {id}: {other:?}"),
            }
        }

        // "Exactly once" across snapshot + stale segments: a recovered
        // key dedupes instead of spawning a second run.
        let (key, id) = sample_key.expect("at least one job survived");
        let (s, json) = submit(addr, &fast_job(&key, 0));
        assert_eq!(s, 200, "{}", json.to_compact());
        assert_eq!(json.get("duplicate").and_then(Json::as_bool), Some(true));
        assert_eq!(json.get("id").and_then(Json::as_u64), Some(id));
    }
}
