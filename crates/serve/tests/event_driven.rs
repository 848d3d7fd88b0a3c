//! The event-driven server: a blocking acceptor that shutdown wakes with a
//! connection to itself, and the `/status?wait_ms=` long poll that answers
//! when the job ends rather than on the client's next poll.

use std::time::{Duration, Instant};

use flowc_report::Json;
use flowc_serve::{ServeConfig, Server};

mod common;
use common::{await_running, await_terminal, call, submit, wide_adder_job, ServerProc};

fn state_of(json: &Json) -> &str {
    json.get("state").and_then(Json::as_str).unwrap_or("?")
}

fn job_id(json: &Json) -> u64 {
    json.get("id").and_then(Json::as_u64).expect("job id")
}

/// With no traffic, shutdown wakes the blocked acceptor at once, for a
/// loopback bind and for an unspecified one (woken through loopback).
#[test]
fn idle_shutdown_wakes_the_blocked_acceptor() {
    for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        let server = Server::start(ServeConfig {
            addr: addr.into(),
            ..ServeConfig::default()
        })
        .expect("start");
        // Let the acceptor settle into its blocking `accept`.
        std::thread::sleep(Duration::from_millis(50));
        let started = Instant::now();
        server.shutdown();
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "{addr}: shutdown took {took:?}"
        );
    }
}

/// A long poll on a job the worker holds for 300 ms answers `done` as the
/// job ends, not at the end of `wait_ms`.
#[test]
fn long_poll_answers_when_the_job_ends() {
    let server = ServerProc::spawn(
        &["--workers", "1"],
        &[("FLOWC_FAILPOINTS", "serve.worker.run=sleep(300)@1")],
    );
    let addr = server.addr;
    let submitted = Instant::now();
    let (status, json) = submit(
        addr,
        r#"{"circuit": "dec", "format": "bench", "strategy": "staircase",
            "deadline_ms": 30000}"#,
    );
    assert_eq!(status, 200, "{}", json.to_compact());
    let id = job_id(&json);

    let (status, json) = call(addr, "GET", &format!("/status?id={id}&wait_ms=5000"), "");
    let answered = submitted.elapsed();
    assert_eq!(status, 200, "{}", json.to_compact());
    assert_eq!(state_of(&json), "done");

    // The job ended 300 ms (the failpoint) plus its synthesis wall time
    // after it was claimed; the answer follows within 100 ms of that.
    let (_, result) = call(addr, "GET", &format!("/result?id={id}"), "");
    let wall_ms = result
        .get("outcome")
        .and_then(|o| o.get("wall_ms"))
        .and_then(Json::as_u64)
        .expect("wall_ms");
    let ended = Duration::from_millis(300 + wall_ms);
    assert!(answered >= Duration::from_millis(300), "{answered:?}");
    assert!(
        answered < ended + Duration::from_millis(100),
        "answered {answered:?} after submit; the job ended after about {ended:?}"
    );
}

/// A short wait on a running job answers `running` once the wait is up;
/// an unknown id answers 404 at once; a malformed `wait_ms` is refused.
#[test]
fn long_poll_is_bounded_by_wait_ms() {
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("start");
    let addr = server.addr();
    let (status, json) = submit(addr, &wide_adder_job());
    assert_eq!(status, 200, "{}", json.to_compact());
    let id = job_id(&json);
    await_running(addr, id);

    let started = Instant::now();
    let (status, json) = call(addr, "GET", &format!("/status?id={id}&wait_ms=50"), "");
    let took = started.elapsed();
    assert_eq!(status, 200, "{}", json.to_compact());
    assert_eq!(state_of(&json), "running");
    assert!(
        took >= Duration::from_millis(50) && took < Duration::from_secs(2),
        "wait_ms=50 answered after {took:?}"
    );

    let started = Instant::now();
    let (status, _) = call(addr, "GET", "/status?id=999999&wait_ms=5000", "");
    assert_eq!(status, 404);
    assert!(started.elapsed() < Duration::from_secs(1));

    let (status, _) = call(addr, "GET", &format!("/status?id={id}&wait_ms=soon"), "");
    assert_eq!(status, 400);

    // A cancel ends the job; shutdown then drains at once.
    call(addr, "POST", "/cancel", &format!("{{\"id\": {id}}}"));
    assert_eq!(
        await_terminal(addr, id, Duration::from_secs(10)),
        "cancelled"
    );
    server.shutdown();
}
