//! `/metrics` reads each session shard's stage tally: after a known job
//! mix the `cache`, `stages` and `solver` blocks hold exact figures.

use std::time::Duration;

use flowc_report::Json;
use flowc_serve::{ServeConfig, Server};

mod common;
use common::{await_terminal, call, metrics, submit};

fn field(json: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(json, |j, key| j.get(key))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("missing {path:?} in {}", json.to_compact()))
}

/// Two identical ctrl jobs and one staircase dec job through one worker:
/// the second ctrl job is served the first one's BDD, graph and
/// (proven-optimal) labeling from the cache and maps afresh; the dec job
/// builds its own artifacts, whichever shard it lands on.
#[test]
fn a_known_job_mix_pins_the_cache_stage_and_solver_figures() {
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("start");
    let addr = server.addr();
    let ctrl = r#"{"circuit": "ctrl", "format": "bench", "deadline_ms": 60000}"#;
    let dec = r#"{"circuit": "dec", "format": "bench", "strategy": "staircase",
                  "deadline_ms": 60000}"#;
    let mut gaps = Vec::new();
    for body in [ctrl, ctrl, dec] {
        let (status, json) = submit(addr, body);
        assert_eq!(status, 200, "{}", json.to_compact());
        let id = json.get("id").and_then(Json::as_u64).expect("job id");
        assert_eq!(await_terminal(addr, id, Duration::from_secs(30)), "done");
        let (_, result) = call(addr, "GET", &format!("/result?id={id}"), "");
        gaps.push(field(&result, &["outcome", "relative_gap"]));
    }
    // ctrl closes optimally; the staircase labeling is only bounded.
    assert_eq!(gaps[..2], [0.0, 0.0]);
    assert!(gaps[2] > 0.0, "{gaps:?}");
    let m = metrics(addr);
    server.shutdown();

    let cache = [
        ("hits", 3.0),
        ("misses", 6.0),
        ("entries", 6.0),
        ("evicted", 0.0),
        ("hit_rate", 1.0 / 3.0),
    ];
    for (key, want) in cache {
        assert_eq!(field(&m, &["cache", key]), want, "cache.{key}");
    }
    // (stage, runs, builds, cache hits); serve workers do not verify.
    let stages = [
        ("normalize", 3.0, 3.0, 0.0),
        ("bdd-build", 3.0, 2.0, 1.0),
        ("graph-extract", 3.0, 2.0, 1.0),
        ("vh-label", 3.0, 2.0, 1.0),
        ("map", 3.0, 3.0, 0.0),
    ];
    for (stage, runs, builds, hits) in stages {
        assert_eq!(field(&m, &["stages", stage, "runs"]), runs, "{stage}");
        assert_eq!(field(&m, &["stages", stage, "builds"]), builds, "{stage}");
        assert_eq!(field(&m, &["stages", stage, "cache_hits"]), hits, "{stage}");
    }
    assert!(m.get("stages").and_then(|s| s.get("verify")).is_none());
    // ctrl's one branch & bound node closes it; the cache hit and the
    // staircase labeling add none. No warm starts: serve sessions leave
    // them off. The worst gap is the staircase job's.
    let solver = [
        ("label_solves", 3.0),
        ("bnb_nodes", 1.0),
        ("warm_hits", 0.0),
        ("warm_misses", 0.0),
        ("worst_gap", gaps[2]),
    ];
    for (key, want) in solver {
        assert_eq!(
            field(&m, &["solver", key]),
            want,
            "solver.{key}\n{}",
            m.to_compact()
        );
    }
}
