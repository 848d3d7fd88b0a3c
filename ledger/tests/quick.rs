//! `--quick` runs of the three library workloads (one circuit, one pass):
//! every design is proven, and the result line carries every metric
//! `BENCHMARK.json` names.

use std::path::Path;
use std::process::Command;

use flowc_report::Json;

/// The metric names `BENCHMARK.json` lists under `section`.
fn benchmark_metrics(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let json = Json::parse(&text).expect("parse BENCHMARK.json");
    json.get(section)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Runs one quick workload and returns its result line.
fn quick(workload: &str, trace: bool) -> Json {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("quick-{workload}"));
    let output = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--quick"])
        .arg("--out-dir")
        .arg(&out_dir)
        .output()
        .expect("run the ledger");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload}: {}\n{stdout}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("the result line is JSON")
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("missing metric {name}: {}", result.to_compact()))
}

#[test]
fn quick_library_runs_are_correct_and_report_every_end_to_end_metric() {
    let names = benchmark_metrics("end_to_end");
    for workload in ["sweep-exact", "sweep-budgeted", "map-large"] {
        let result = quick(workload, false);
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
        assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
        for name in &names {
            // The quick sweep's one circuit (ctrl) is proven optimal at
            // every γ, so its gap is legitimately 0.
            let floor_ok = match name.as_str() {
                "gap_mean" => metric(&result, name) >= 0.0,
                _ => metric(&result, name) > 0.0,
            };
            assert!(floor_ok, "{workload}: {name} is out of range");
        }
    }
}

#[test]
fn a_quick_traced_run_accounts_for_each_job_with_its_layers() {
    let result = quick("sweep-exact", true);
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    for name in benchmark_metrics("per_layer") {
        metric(&result, &name);
    }
    assert!(metric(&result, "trace.layer_cover_min") >= 0.95);
    assert_eq!(metric(&result, "formal.proven_frac"), 1.0);
    assert!(metric(&result, "label.ms") > 0.0);
}
