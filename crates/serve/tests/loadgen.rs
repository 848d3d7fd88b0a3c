//! Load-generation integration tests: drive a real server over TCP and
//! assert the overload contract — typed rejections and degradations,
//! never unbounded queueing; worker crashes contained and repaired;
//! cancellation honored mid-flight; `/metrics` reflecting all of it.

use std::time::{Duration, Instant};

use flowc_report::Json;
use flowc_serve::{BreakerConfig, ServeConfig, Server};

mod common;
use common::{
    await_running, await_terminal, call, counter, metrics, submit, wide_adder_job, ServerProc,
};

/// Overload: a busy worker plus a tiny queue. Every submission gets a
/// typed answer (accept / queue_full / breaker_open) with retry hints,
/// depth never exceeds the bound, accepted jobs all finish, and the
/// breaker recovers through its half-open probe once the overload clears.
#[test]
fn overload_sheds_typed_and_recovers() {
    let server = Server::start(ServeConfig {
        workers: 1,
        queue_capacity: 3,
        breaker: BreakerConfig {
            base_cooldown: Duration::from_millis(200),
            ..BreakerConfig::default()
        },
        ..ServeConfig::default()
    })
    .expect("start");
    let addr = server.addr();

    // Occupy the only worker with a long solve until the overload
    // assertions are done.
    let (status, json) = submit(addr, &wide_adder_job());
    assert_eq!(status, 200, "{}", json.to_compact());
    let busy = json.get("id").and_then(Json::as_u64).unwrap();
    await_running(addr, busy);

    // Fill the queue to its bound.
    let mut accepted = Vec::new();
    for _ in 0..3 {
        let (status, json) = submit(
            addr,
            r#"{"circuit": "dec", "format": "bench", "strategy": "staircase",
                "deadline_ms": 30000}"#,
        );
        assert_eq!(status, 200, "{}", json.to_compact());
        accepted.push(json.get("id").and_then(Json::as_u64).unwrap());
    }

    // The next submission is shed with a typed, retry-bearing error...
    let (status, json) = submit(
        addr,
        r#"{"circuit": "dec", "format": "bench", "strategy": "staircase",
            "deadline_ms": 30000}"#,
    );
    assert_eq!(status, 429, "{}", json.to_compact());
    assert_eq!(json.get("error").and_then(Json::as_str), Some("queue_full"));
    assert!(json.get("retry_after_ms").and_then(Json::as_u64).is_some());

    // ...and the overload has tripped the breaker: reject-fast now.
    let (status, json) = submit(
        addr,
        r#"{"circuit": "dec", "format": "bench", "strategy": "staircase",
            "deadline_ms": 30000}"#,
    );
    assert_eq!(status, 503, "{}", json.to_compact());
    assert_eq!(
        json.get("error").and_then(Json::as_str),
        Some("breaker_open")
    );
    assert!(json.get("retry_after_ms").and_then(Json::as_u64).is_some());

    let m = metrics(addr);
    assert!(counter(&m, "shed_queue_full") >= 1);
    assert!(counter(&m, "breaker_trips") >= 1);
    let depth = m.get("queue_depth").and_then(Json::as_u64).unwrap();
    assert!(depth <= 3, "queue depth {depth} exceeded its bound");

    // Free the worker. Every accepted job still completes — shedding
    // protected them.
    let (status, json) = call(addr, "POST", "/cancel", &format!("{{\"id\": {busy}}}"));
    assert_eq!(status, 200, "{}", json.to_compact());
    assert_eq!(
        await_terminal(addr, busy, Duration::from_secs(20)),
        "cancelled"
    );
    for id in accepted {
        assert_eq!(await_terminal(addr, id, Duration::from_secs(20)), "done");
    }

    // Overload over, cooldown served: the half-open probe admits a job,
    // its success closes the breaker, and service resumes.
    let deadline = Instant::now() + Duration::from_secs(10);
    let recovered_id = loop {
        let (status, json) = submit(
            addr,
            r#"{"circuit": "dec", "format": "bench", "strategy": "staircase",
                "deadline_ms": 30000}"#,
        );
        if status == 200 {
            break json.get("id").and_then(Json::as_u64).unwrap();
        }
        assert!(Instant::now() < deadline, "breaker never recovered");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(
        await_terminal(addr, recovered_id, Duration::from_secs(20)),
        "done"
    );
    let m = metrics(addr);
    assert_eq!(
        m.get("breaker_state").and_then(Json::as_str),
        Some("closed")
    );

    server.shutdown();
}

/// Admission control: an impossible deadline is rejected with a typed
/// error up front; a tight-but-possible one is admitted at a cheaper
/// rung, and the result says so.
#[test]
fn deadlines_reject_or_degrade_at_admission() {
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("start");
    let addr = server.addr();

    // 1ms cannot fit even the staircase estimate (5ms prior × safety 2).
    let (status, json) = submit(
        addr,
        r#"{"circuit": "dec", "format": "bench", "deadline_ms": 1}"#,
    );
    assert_eq!(status, 422, "{}", json.to_compact());
    assert_eq!(
        json.get("error").and_then(Json::as_str),
        Some("deadline_infeasible")
    );
    assert!(json.get("retry_after_ms").and_then(Json::as_u64).is_some());

    // 300ms cannot fit the exact-MIP prior (2s × 2) but fits the
    // heuristic: admitted, degraded, and honest about it end-to-end.
    let (status, json) = submit(
        addr,
        r#"{"circuit": "dec", "format": "bench", "strategy": "exact-mip",
            "deadline_ms": 300}"#,
    );
    assert_eq!(status, 200, "{}", json.to_compact());
    assert_eq!(json.get("degraded").and_then(Json::as_bool), Some(true));
    assert_eq!(
        json.get("rung").and_then(Json::as_str),
        Some("heuristic-oct")
    );
    let id = json.get("id").and_then(Json::as_u64).unwrap();
    assert_eq!(await_terminal(addr, id, Duration::from_secs(20)), "done");
    let (status, json) = call(addr, "GET", &format!("/result?id={id}"), "");
    assert_eq!(status, 200);
    let outcome = json.get("outcome").unwrap();
    assert_eq!(outcome.get("degraded").and_then(Json::as_bool), Some(true));
    assert_eq!(
        outcome.get("admission_rung").and_then(Json::as_str),
        Some("heuristic-oct")
    );

    let m = metrics(addr);
    assert!(counter(&m, "shed_deadline") >= 1);
    assert!(counter(&m, "degraded_admission") >= 1);

    server.shutdown();
}

/// Crash containment: a failpoint panics the worker on its first job;
/// only that job fails (typed `worker_crashed`), sibling jobs complete,
/// the supervisor restarts the worker, and the pool serves again
/// afterwards.
#[test]
fn worker_panic_is_contained_and_repaired() {
    let server = ServerProc::spawn(
        &["--workers", "2", "--queue-cap", "16"],
        &[("FLOWC_FAILPOINTS", "serve.worker.run=panic@1")],
    );
    let addr = server.addr;

    let mut ids = Vec::new();
    for _ in 0..5 {
        let (status, json) = submit(
            addr,
            r#"{"circuit": "dec", "format": "bench", "strategy": "staircase",
                "deadline_ms": 30000}"#,
        );
        assert_eq!(status, 200, "{}", json.to_compact());
        ids.push(json.get("id").and_then(Json::as_u64).unwrap());
    }

    // Exactly one job — whichever a worker ran first — is failed by the
    // supervisor with a typed error; its siblings are untouched.
    let mut crashed = Vec::new();
    for &id in &ids {
        match await_terminal(addr, id, Duration::from_secs(20)).as_str() {
            "done" => {}
            "failed" => crashed.push(id),
            other => panic!("job {id} ended `{other}`"),
        }
    }
    assert_eq!(crashed.len(), 1, "failed jobs: {crashed:?}");
    let (_, json) = call(addr, "GET", &format!("/result?id={}", crashed[0]), "");
    assert_eq!(
        json.get("outcome")
            .and_then(|o| o.get("error"))
            .and_then(Json::as_str),
        Some("worker_crashed")
    );
    let m = metrics(addr);
    assert!(counter(&m, "worker_restarts") >= 1);
    assert!(counter(&m, "failed") >= 1);

    // The restarted pool still serves.
    std::thread::sleep(Duration::from_millis(200));
    let (status, json) = submit(
        addr,
        r#"{"circuit": "dec", "format": "bench", "strategy": "staircase",
            "deadline_ms": 30000}"#,
    );
    assert_eq!(status, 200, "{}", json.to_compact());
    let id = json.get("id").and_then(Json::as_u64).unwrap();
    assert_eq!(await_terminal(addr, id, Duration::from_secs(20)), "done");
}

/// End-to-end cancellation: a job whose BDD build runs for tens of
/// seconds uncancelled is cancelled mid-flight and aborts promptly with
/// the typed cancelled state.
#[test]
fn cancel_stops_a_running_solve() {
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("start");
    let addr = server.addr();

    let (status, json) = submit(addr, &wide_adder_job());
    assert_eq!(status, 200, "{}", json.to_compact());
    let id = json.get("id").and_then(Json::as_u64).unwrap();

    // Wait until the worker is actually inside the solve.
    await_running(addr, id);
    std::thread::sleep(Duration::from_millis(50));

    let cancel_at = Instant::now();
    let (status, json) = call(addr, "POST", "/cancel", &format!("{{\"id\": {id}}}"));
    assert_eq!(status, 200, "{}", json.to_compact());

    let state = await_terminal(addr, id, Duration::from_secs(5));
    let latency = cancel_at.elapsed();
    assert_eq!(state, "cancelled");
    assert!(
        latency < Duration::from_secs(3),
        "cancel took {latency:?} to land"
    );
    let m = metrics(addr);
    assert!(counter(&m, "cancelled") >= 1);

    server.shutdown();
}
