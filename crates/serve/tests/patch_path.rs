//! End-to-end tests for the `POST /patch` incremental re-synthesis path:
//! a patch against a finished job's `job_key` re-labels only the affected
//! output cones through a worker-side edit session, chains lineage across
//! successive patches, reports its resolution ladder in the result body
//! and `/metrics`, and answers the failure modes (unknown lineage, refused
//! edit) with typed errors.

use std::time::Duration;

use flowc_report::Json;

mod common;
use common::{await_running, await_terminal, call, counter, metrics, submit, ServerProc};

/// A base circuit with stable net names the edit scripts can reference.
const BASE_BLIF: &str = "\
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

fn base_job(key: &str) -> String {
    let circuit = BASE_BLIF.replace('\n', "\\n");
    format!(
        r#"{{"circuit": "{circuit}", "format": "blif", "strategy": "staircase",
            "deadline_ms": 60000, "job_key": "{key}"}}"#
    )
}

fn patch_job(base_key: &str, job_key: &str, edits: &[&str]) -> String {
    let edits: Vec<String> = edits.iter().map(|e| format!("\"{e}\"")).collect();
    format!(
        r#"{{"base_key": "{base_key}", "job_key": "{job_key}",
            "edits": [{}], "strategy": "staircase", "deadline_ms": 60000}}"#,
        edits.join(", ")
    )
}

fn outcome_of(addr: std::net::SocketAddr, id: u64) -> Json {
    let (status, json) = call(addr, "GET", &format!("/result?id={id}"), "");
    assert_eq!(status, 200, "result for {id}: {}", json.to_compact());
    json.get("outcome").cloned().unwrap_or(Json::Null)
}

#[test]
fn patches_resolve_incrementally_and_chain_lineage() {
    let server = ServerProc::spawn(&["--workers", "1"], &[]);
    let addr = server.addr;

    let (s, json) = submit(addr, &base_job("lin-0"));
    assert_eq!(s, 200, "{}", json.to_compact());
    let base_id = json.get("id").and_then(Json::as_u64).unwrap();
    assert_eq!(
        await_terminal(addr, base_id, Duration::from_secs(30)),
        "done"
    );

    // Patch 1: a dead gate plus a live rewire — the worker builds the
    // lineage's edit session and reports its resolution ladder.
    let (s, json) = call(
        addr,
        "POST",
        "/patch",
        &patch_job("lin-0", "lin-1", &["add dead and a c", "rewire f 0 c"]),
    );
    assert_eq!(s, 200, "{}", json.to_compact());
    assert_eq!(
        json.get("patched_from").and_then(Json::as_str),
        Some("lin-0")
    );
    let p1 = json.get("id").and_then(Json::as_u64).unwrap();
    assert_eq!(await_terminal(addr, p1, Duration::from_secs(30)), "done");
    let outcome = outcome_of(addr, p1);
    let inc = outcome.get("incremental").unwrap_or_else(|| {
        panic!(
            "patch outcome lacks `incremental`: {}",
            outcome.to_compact()
        )
    });
    assert_eq!(inc.get("fallback").and_then(Json::as_bool), Some(false));
    assert_eq!(inc.get("lineage").and_then(Json::as_str), Some("lin-0"));
    assert_eq!(inc.get("edits").and_then(Json::as_u64), Some(2));
    // The dead gate never invalidates a cone: at least one hit.
    assert!(inc.get("hits").and_then(Json::as_u64).unwrap() >= 1);

    // Patch 2 chains from patch 1's key and must resume its session.
    let (s, json) = call(
        addr,
        "POST",
        "/patch",
        &patch_job("lin-1", "lin-2", &["remove dead"]),
    );
    assert_eq!(s, 200, "{}", json.to_compact());
    let p2 = json.get("id").and_then(Json::as_u64).unwrap();
    assert_eq!(await_terminal(addr, p2, Duration::from_secs(30)), "done");
    let inc = outcome_of(addr, p2).get("incremental").cloned().unwrap();
    assert_eq!(inc.get("resumed").and_then(Json::as_bool), Some(true));
    assert_eq!(inc.get("fallback").and_then(Json::as_bool), Some(false));

    // The patched netlist is authoritative: resubmitting it cold under a
    // fresh key must land on the same semiperimeter as the final patch.
    // (BLIF covers lower to an inner gate plus a buffer, so `rewire f 0 c`
    // repointed the buffer: f is now just c.)
    let reference = r#"{"circuit": ".model ref\n.inputs a b c\n.outputs f g\n.names c f\n1 1\n.names b c g\n1- 1\n-1 1\n.end\n",
        "format": "blif", "strategy": "staircase", "deadline_ms": 60000, "job_key": "ref-cold"}"#;
    let (s, json) = submit(addr, reference);
    assert_eq!(s, 200, "{}", json.to_compact());
    let r = json.get("id").and_then(Json::as_u64).unwrap();
    assert_eq!(await_terminal(addr, r, Duration::from_secs(30)), "done");
    let cold = outcome_of(addr, r);
    let patched = outcome_of(addr, p2);
    assert_eq!(
        patched.get("semiperimeter").and_then(Json::as_u64),
        cold.get("semiperimeter").and_then(Json::as_u64),
        "incremental and cold disagree: {} vs {}",
        patched.to_compact(),
        cold.to_compact()
    );

    // `/metrics` exposes the patch counters.
    let m = metrics(addr);
    assert_eq!(counter(&m, "patches"), 2);
    assert!(counter(&m, "incremental_hits") >= 1);
    let resolved = counter(&m, "incremental_hits")
        + counter(&m, "incremental_repairs")
        + counter(&m, "incremental_warm_starts");
    assert!(
        resolved >= 1,
        "no edit resolved incrementally: {}",
        m.to_compact()
    );

    // Idempotent resubmission of a patch key dedupes like `/submit`.
    let (s, json) = call(
        addr,
        "POST",
        "/patch",
        &patch_job("lin-0", "lin-1", &["add dead and a c", "rewire f 0 c"]),
    );
    assert_eq!(s, 200, "{}", json.to_compact());
    assert_eq!(json.get("duplicate").and_then(Json::as_bool), Some(true));
    assert_eq!(json.get("id").and_then(Json::as_u64), Some(p1));
}

#[test]
fn patch_failure_modes_answer_typed_errors() {
    let server = ServerProc::spawn(&["--workers", "1"], &[]);
    let addr = server.addr;

    // Unknown lineage: 404 before any work happens.
    let (s, json) = call(
        addr,
        "POST",
        "/patch",
        &patch_job("never-submitted", "p", &["remove g"]),
    );
    assert_eq!(s, 404, "{}", json.to_compact());
    assert_eq!(
        json.get("error").and_then(Json::as_str),
        Some("unknown_lineage")
    );

    let (s, json) = submit(addr, &base_job("err-base"));
    assert_eq!(s, 200, "{}", json.to_compact());
    let id = json.get("id").and_then(Json::as_u64).unwrap();
    assert_eq!(await_terminal(addr, id, Duration::from_secs(30)), "done");

    // A refused edit (removing a gate that feeds an output) is the
    // client's bug: 400 with the offending edit named.
    let (s, json) = call(
        addr,
        "POST",
        "/patch",
        &patch_job("err-base", "err-1", &["remove f"]),
    );
    assert_eq!(s, 400, "{}", json.to_compact());
    assert_eq!(json.get("error").and_then(Json::as_str), Some("bad_edit"));
    assert!(json
        .get("message")
        .and_then(Json::as_str)
        .unwrap()
        .contains("remove f"));

    // Malformed request bodies: 400 bad_request.
    let (s, json) = call(addr, "POST", "/patch", "{\"base_key\": \"err-base\"}");
    assert_eq!(s, 400, "{}", json.to_compact());
    assert_eq!(
        json.get("error").and_then(Json::as_str),
        Some("bad_request")
    );

    // Wrong method: the endpoint exists, but only as POST.
    let (s, _) = call(addr, "GET", "/patch", "");
    assert_eq!(s, 405);
}

#[test]
fn a_lineage_is_resumed_only_at_the_rung_it_was_admitted_at() {
    let server = ServerProc::spawn(&["--workers", "1"], &[]);
    let addr = server.addr;
    let (s, json) = submit(addr, &base_job("rung-0"));
    assert_eq!(s, 200, "{}", json.to_compact());
    let base_id = json.get("id").and_then(Json::as_u64).unwrap();
    assert_eq!(
        await_terminal(addr, base_id, Duration::from_secs(30)),
        "done"
    );

    // Both patches request the default exact-mip rung. The first one's
    // 300 ms deadline cannot fit the exact-mip prior (2 s × 2), so
    // admission places it, and its edit session, on heuristic-oct.
    let patch = |base_key: &str, job_key: &str, edit: &str, deadline_ms: u64| {
        let body = format!(
            r#"{{"base_key": "{base_key}", "job_key": "{job_key}",
                "edits": ["{edit}"], "deadline_ms": {deadline_ms}}}"#
        );
        let (s, json) = call(addr, "POST", "/patch", &body);
        assert_eq!(s, 200, "{}", json.to_compact());
        let id = json.get("id").and_then(Json::as_u64).unwrap();
        assert_eq!(await_terminal(addr, id, Duration::from_secs(30)), "done");
        outcome_of(addr, id)
    };
    let first = patch("rung-0", "rung-1", "add dead and a c", 300);
    assert_eq!(
        first.get("admission_rung").and_then(Json::as_str),
        Some("heuristic-oct"),
        "{}",
        first.to_compact()
    );

    // The second is admitted at exact-mip, so it must not resume the
    // heuristic-oct session.
    let second = patch("rung-1", "rung-2", "remove dead", 60_000);
    assert_eq!(
        second.get("admission_rung").and_then(Json::as_str),
        Some("exact-mip")
    );
    assert_eq!(
        second.get("shipped_rung").and_then(Json::as_str),
        Some("exact-mip"),
        "{}",
        second.to_compact()
    );
}

/// A patch cancelled while its re-synthesis builds the BDD stops at once:
/// it ends `cancelled`, and no cold fallback is started or counted.
#[test]
fn a_patch_cancelled_mid_bdd_build_skips_the_cold_fallback() {
    // Every BDD build sleeps, so the cancel lands inside one.
    let server = ServerProc::spawn(
        &["--workers", "1"],
        &[("FLOWC_FAILPOINTS", "compact.bdd=sleep(1000)")],
    );
    let addr = server.addr;
    let (s, json) = submit(addr, &base_job("cancel-0"));
    assert_eq!(s, 200, "{}", json.to_compact());
    let id = json.get("id").and_then(Json::as_u64).unwrap();
    assert_eq!(await_terminal(addr, id, Duration::from_secs(30)), "done");
    // The first patch registers a live edit session under `cancel-1`.
    let (s, json) = call(
        addr,
        "POST",
        "/patch",
        &patch_job("cancel-0", "cancel-1", &["rewire f 0 c"]),
    );
    assert_eq!(s, 200, "{}", json.to_compact());
    let id = json.get("id").and_then(Json::as_u64).unwrap();
    assert_eq!(await_terminal(addr, id, Duration::from_secs(30)), "done");

    let cold_before = counter(&metrics(addr), "incremental_cold");
    // The second resumes that session; its cone-changing edit re-synthesizes.
    let (s, json) = call(
        addr,
        "POST",
        "/patch",
        &patch_job("cancel-1", "cancel-2", &["rewire g 0 a"]),
    );
    assert_eq!(s, 200, "{}", json.to_compact());
    let id = json.get("id").and_then(Json::as_u64).unwrap();
    await_running(addr, id);
    let (s, json) = call(addr, "POST", "/cancel", &format!("{{\"id\": {id}}}"));
    assert_eq!(s, 200, "{}", json.to_compact());
    assert_eq!(
        await_terminal(addr, id, Duration::from_secs(30)),
        "cancelled"
    );
    let m = metrics(addr);
    assert_eq!(
        counter(&m, "incremental_cold"),
        cold_before,
        "{}",
        m.to_compact()
    );
    assert_eq!(counter(&m, "failed"), 0, "{}", m.to_compact());
}
