//! Backend-selection integration tests: jobs carrying a `backend` field
//! run through the unified `MappingBackend` dispatch and answer with
//! per-backend result shapes, and `/metrics` grows one `backend.*`
//! latency series per selection.

use std::net::SocketAddr;
use std::time::Duration;

use flowc_report::Json;
use flowc_serve::{ServeConfig, Server};

mod common;
use common::{await_running, await_terminal, call, counter, metrics, submit, ServerProc};

fn outcome_of(addr: SocketAddr, id: u64) -> Json {
    let (status, json) = call(addr, "GET", &format!("/result?id={id}"), "");
    assert_eq!(status, 200, "{}", json.to_compact());
    json.get("outcome").cloned().unwrap_or(Json::Null)
}

/// Every non-COMPACT backend runs the same circuit to completion, each
/// result names its backend, tile accounting flows through, and the
/// metrics endpoint has a latency series per backend used.
#[test]
fn jobs_dispatch_through_selected_backends() {
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("start");
    let addr = server.addr();

    // The compact default first, for contrast (no `backend` field).
    let (s, json) = submit(
        addr,
        r#"{"circuit": "dec", "format": "bench", "deadline_ms": 60000}"#,
    );
    assert_eq!(s, 200, "{}", json.to_compact());
    let compact_id = json.get("id").and_then(Json::as_u64).unwrap();
    assert_eq!(
        await_terminal(addr, compact_id, Duration::from_secs(30)),
        "done"
    );

    for backend in ["staircase", "robdd-diagonal", "magic-nor"] {
        let body = format!(
            r#"{{"circuit": "dec", "format": "bench", "backend": "{backend}",
                "deadline_ms": 60000}}"#
        );
        let (s, json) = submit(addr, &body);
        assert_eq!(s, 200, "{backend}: {}", json.to_compact());
        let id = json.get("id").and_then(Json::as_u64).unwrap();
        assert_eq!(
            await_terminal(addr, id, Duration::from_secs(30)),
            "done",
            "{backend}"
        );
        let outcome = outcome_of(addr, id);
        assert_eq!(
            outcome.get("backend").and_then(Json::as_str),
            Some(backend),
            "{}",
            outcome.to_compact()
        );
        assert_eq!(outcome.get("tiles").and_then(Json::as_u64), Some(1));
    }

    // Partitioned with a tile the decoder cannot fit monolithically:
    // multiple tiles and transfer accounting in the result body.
    let (s, json) = submit(
        addr,
        r#"{"circuit": "dec", "format": "bench", "backend": "partitioned",
            "tile_rows": 6, "tile_cols": 6, "deadline_ms": 60000}"#,
    );
    assert_eq!(s, 200, "{}", json.to_compact());
    let id = json.get("id").and_then(Json::as_u64).unwrap();
    assert_eq!(await_terminal(addr, id, Duration::from_secs(60)), "done");
    let outcome = outcome_of(addr, id);
    assert_eq!(
        outcome.get("backend").and_then(Json::as_str),
        Some("partitioned"),
        "{}",
        outcome.to_compact()
    );
    let tiles = outcome.get("tiles").and_then(Json::as_u64).unwrap();
    assert!(
        tiles > 1,
        "6x6 tile should split dec: {}",
        outcome.to_compact()
    );
    assert!(outcome.get("transfer_ops").and_then(Json::as_u64).is_some());
    assert!(outcome.get("rows").and_then(Json::as_u64).unwrap() <= 6);
    assert!(outcome.get("cols").and_then(Json::as_u64).unwrap() <= 6);

    // `/metrics` surfaces one latency series per backend selection.
    let m = metrics(addr);
    let latency = m.get("latency").expect("latency object");
    for series in [
        "backend.compact",
        "backend.staircase",
        "backend.robdd-diagonal",
        "backend.magic-nor",
        "backend.partitioned",
    ] {
        assert!(
            latency.get(series).is_some(),
            "missing {series}: {}",
            m.to_compact()
        );
    }
}

/// An impossible tile constraint answers a typed `infeasible` failure,
/// not a generic synthesis error and not a crash.
#[test]
fn impossible_tiles_fail_typed() {
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("start");
    let addr = server.addr();

    let (s, json) = submit(
        addr,
        r#"{"circuit": "dec", "format": "bench", "backend": "partitioned",
            "tile_rows": 1, "tile_cols": 1, "deadline_ms": 60000}"#,
    );
    assert_eq!(s, 200, "{}", json.to_compact());
    let id = json.get("id").and_then(Json::as_u64).unwrap();
    assert_eq!(await_terminal(addr, id, Duration::from_secs(30)), "failed");
    let outcome = outcome_of(addr, id);
    assert_eq!(
        outcome.get("error").and_then(Json::as_str),
        Some("infeasible"),
        "{}",
        outcome.to_compact()
    );
}

/// A cancel that lands during a non-COMPACT job's BDD build is the
/// client's ask, as it is for a COMPACT job: the job ends `cancelled`,
/// nothing counts as failed, and the breaker records no failure — ten in
/// a row (its minimum sample) would trip it otherwise.
#[test]
fn a_staircase_job_cancelled_mid_bdd_build_is_cancelled_not_failed() {
    // Every BDD build sleeps, so the cancel lands inside one; an AND of
    // a different width each time keeps every build a cache miss.
    let server = ServerProc::spawn(
        &["--workers", "1"],
        &[("FLOWC_FAILPOINTS", "compact.bdd=sleep(1000)")],
    );
    let addr = server.addr;
    for width in 2..12 {
        let mut n = flowc_logic::Network::new("and");
        let ins: Vec<_> = (0..width).map(|i| n.add_input(format!("x{i}"))).collect();
        let f = n.add_gate(flowc_logic::GateKind::And, &ins, "f").unwrap();
        n.mark_output(f);
        let job = Json::Obj(vec![
            ("circuit".into(), Json::str(flowc_logic::blif::write(&n))),
            ("format".into(), Json::str("blif")),
            ("backend".into(), Json::str("staircase")),
            ("deadline_ms".into(), Json::Num(60_000.0)),
        ]);
        let (s, json) = submit(addr, &job.to_compact());
        assert_eq!(s, 200, "{}", json.to_compact());
        let id = json.get("id").and_then(Json::as_u64).unwrap();
        await_running(addr, id);
        let (s, json) = call(addr, "POST", "/cancel", &format!("{{\"id\": {id}}}"));
        assert_eq!(s, 200, "{}", json.to_compact());
        assert_eq!(
            await_terminal(addr, id, Duration::from_secs(30)),
            "cancelled"
        );
    }
    let m = metrics(addr);
    assert_eq!(counter(&m, "failed"), 0, "{}", m.to_compact());
    assert_eq!(counter(&m, "cancelled"), 10, "{}", m.to_compact());
    assert_eq!(
        m.get("breaker_trips").and_then(Json::as_u64),
        Some(0),
        "{}",
        m.to_compact()
    );
}
