//! Result files: `ledger run` collects runs of every workload into one
//! file with its provenance and per-metric summaries, and `ledger compare`
//! applies the bounds in `BENCHMARK.json` to two such files.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use flowc_report::Json;

use crate::run::{default_out_dir, repo_root, Workload, END_TO_END};
use crate::stats::{median, quartiles, relative_spread, verdict, Better, Verdict};

/// The checked-out commit, read from `.git` without running git;
/// `"unknown"` outside a git checkout.
fn git_head(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Median, quartiles and relative spread of every end-to-end metric over
/// `runs` (records as printed by a workload run).
fn summary(runs: &[Json]) -> Json {
    Json::Obj(
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let v = metric_values(runs, name);
                let [q1, _, q3] = quartiles(&v).unwrap_or_default();
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("unit".into(), Json::str(unit)),
                        ("median".into(), Json::Num(median(&v).unwrap_or(0.0))),
                        ("q1".into(), Json::Num(q1)),
                        ("q3".into(), Json::Num(q3)),
                        ("spread".into(), Json::Num(relative_spread(&v))),
                        ("runs".into(), Json::int(v.len())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The values of metric `name` across run records.
fn metric_values(runs: &[Json], name: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
        .collect()
}

/// Runs this binary once for one workload; returns its record line and,
/// when the run failed, why. A failed run's record is kept: `compare`
/// counts its failed jobs.
fn child_run(
    workload: Workload,
    seed: u64,
    passthrough: &[String],
    trace: bool,
) -> Result<(Json, Option<String>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(passthrough)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let record = stdout
        .lines()
        .filter_map(|l| Json::parse(l).ok())
        .find_map(|j| j.get("record").cloned())
        .ok_or_else(|| format!("{}: the run printed no record", workload.name()))?;
    let failure = (!output.status.success()).then(|| {
        format!(
            "{} (seed {seed}) failed: {}",
            workload.name(),
            output.status
        )
    });
    Ok((record, failure))
}

/// `ledger run [--seed N] [--runs K] [--seconds S] [--trace] [--quick]
/// [--out PATH]`: every workload K times (seeds N,
/// N+1, ...), each in a fresh process, then one traced run each when
/// asked; writes the result file and prints each metric's median.
pub fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let mut seed = 1u64;
    let mut runs = 1usize;
    let mut trace = false;
    let mut out = default_out_dir().join("run.json");
    let mut passthrough = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--runs" => runs = value()?.parse().map_err(|_| "--runs needs an integer")?,
            "--seconds" => passthrough.extend(["--seconds".to_string(), value()?.clone()]),
            "--quick" => passthrough.push("--quick".into()),
            "--trace" => trace = true,
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workloads = Workload::ALL;
    let mut records: Vec<Vec<Json>> = vec![Vec::new(); workloads.len()];
    let mut traced: Vec<Json> = vec![Json::Null; workloads.len()];
    let mut failures = Vec::new();
    for r in 0..runs {
        for (w, &workload) in workloads.iter().enumerate() {
            match child_run(workload, seed + r as u64, &passthrough, false) {
                Ok((record, failure)) => {
                    records[w].push(record);
                    failures.extend(failure);
                }
                Err(e) => failures.push(e),
            }
        }
    }
    if trace {
        for (w, &workload) in workloads.iter().enumerate() {
            match child_run(workload, seed, &passthrough, true) {
                Ok((record, failure)) => {
                    traced[w] = record;
                    failures.extend(failure);
                }
                Err(e) => failures.push(e),
            }
        }
    }

    let root = repo_root();
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let file = Json::Obj(vec![
        (
            "provenance".into(),
            Json::Obj(vec![
                ("git_head".into(), Json::str(git_head(&root))),
                ("available_parallelism".into(), Json::int(parallelism)),
                ("seed".into(), Json::Num(seed as f64)),
                ("runs".into(), Json::int(runs)),
                ("arguments".into(), Json::str(args.join(" "))),
            ]),
        ),
        (
            "workloads".into(),
            Json::Obj(
                workloads
                    .iter()
                    .zip(records.iter().zip(traced))
                    .map(|(w, (runs, traced))| {
                        (
                            w.name().to_string(),
                            Json::Obj(vec![
                                ("summary".into(), summary(runs)),
                                ("runs".into(), Json::Arr(runs.clone())),
                                ("traced".into(), traced),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    flowc_report::write_json(&out, &file).map_err(|e| format!("{}: {e}", out.display()))?;

    for (w, runs) in workloads.iter().zip(&records) {
        println!("{} ({} run(s))", w.name(), runs.len());
        for &(name, unit) in &END_TO_END {
            let v = metric_values(runs, name);
            println!(
                "  {name:<22} {:>14.4} {unit:<8} spread {:.4}",
                median(&v).unwrap_or(0.0),
                relative_spread(&v)
            );
        }
    }
    println!("wrote {}", out.display());
    for f in &failures {
        eprintln!("ledger: {f}");
    }
    Ok(if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One end-to-end metric's bound from `BENCHMARK.json`.
struct Bound {
    name: String,
    better: Better,
    bound: f64,
}

/// The end-to-end bounds of the checkout's `BENCHMARK.json`.
fn bounds() -> Result<Vec<Bound>, String> {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    json.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json lacks `end_to_end`")?
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or_else(|| format!("metric lacks `{k}`"));
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("`name` is not a string")?
                    .into(),
                better: match field("better")?.as_str() {
                    Some("lower") => Better::Lower,
                    Some("higher") => Better::Higher,
                    _ => return Err("`better` is neither lower nor higher".into()),
                },
                bound: field("bound")?.as_f64().ok_or("`bound` is not a number")?,
            })
        })
        .collect()
}

/// The run records of every workload in `paths` (comma-separated result
/// files, merged — so alternating single-run files form one side).
fn load_side(paths: &str) -> Result<Vec<(String, Json)>, String> {
    let mut runs = Vec::new();
    for path in paths.split(',').filter(|p| !p.is_empty()) {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let file = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        for w in Workload::ALL {
            let records = file
                .get("workloads")
                .and_then(|ws| ws.get(w.name()))
                .and_then(|r| r.get("runs"))
                .and_then(Json::as_arr)
                .unwrap_or_default();
            runs.extend(records.iter().map(|r| (w.name().to_string(), r.clone())));
        }
    }
    Ok(runs)
}

/// Below this many seconds a `setup_s` change is `same` whatever its
/// share of the parent's median: a set-up of a few milliseconds moves by
/// more than any bound from one minute to the next.
const SETUP_FLOOR_S: f64 = 0.05;

/// `Σ failed / Σ attempted` over run records.
fn failed_frac(runs: &[Json]) -> f64 {
    let total = |key: &str| {
        runs.iter()
            .filter_map(|r| r.get(key)?.as_f64())
            .sum::<f64>()
    };
    total("failed") / total("attempted").max(1.0)
}

/// `ledger compare PARENT CHANGE`, each side one result file or several
/// joined by commas: one row per (workload, end-to-end metric) with each
/// side's median and quartiles and the verdict under the metric's bound in
/// `BENCHMARK.json`, then a row of each side's share of failed jobs, which
/// is `worse` when it rises at all. Exits 1 when any verdict is `worse`.
pub fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [parent, change] = args else {
        return Err("usage: ledger compare PARENT.json CHANGE.json".into());
    };
    let bounds = bounds()?;
    let (parent, change) = (load_side(parent)?, load_side(change)?);
    let runs_of = |side: &[(String, Json)], w: &str| -> Vec<Json> {
        side.iter()
            .filter(|(name, _)| name == w)
            .map(|(_, r)| r.clone())
            .collect()
    };
    let side = |v: &[f64]| {
        let [q1, q2, q3] = quartiles(v).unwrap_or_default();
        format!("{q2:>12.4} [{q1:.4}, {q3:.4}]")
    };
    println!(
        "{:<15} {:<20} {:>36} {:>36} {:>8} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change", "bound"
    );
    let mut worse = false;
    for w in Workload::ALL {
        let (p_runs, c_runs) = (runs_of(&parent, w.name()), runs_of(&change, w.name()));
        if p_runs.is_empty() || c_runs.is_empty() {
            continue;
        }
        for b in &bounds {
            let (p, c) = (
                metric_values(&p_runs, &b.name),
                metric_values(&c_runs, &b.name),
            );
            let floor = if b.name == "setup_s" {
                SETUP_FLOOR_S
            } else {
                0.0
            };
            let v = verdict(&p, &c, b.better, b.bound, floor);
            worse |= v == Verdict::Worse;
            let delta = match (median(&p), median(&c)) {
                (Some(pm), Some(cm)) if pm != 0.0 => format!("{:+.2}%", 100.0 * (cm - pm) / pm),
                _ => "-".into(),
            };
            println!(
                "{:<15} {:<20} {:>36} {:>36} {:>8} {:>6.3}  {}",
                w.name(),
                b.name,
                side(&p),
                side(&c),
                delta,
                b.bound,
                v.name()
            );
        }
        let (p, c) = (failed_frac(&p_runs), failed_frac(&c_runs));
        let v = verdict(&[p], &[c], Better::Lower, 0.0, 0.0);
        worse |= v == Verdict::Worse;
        println!(
            "{:<15} {:<20} {:>36.4} {:>36.4} {:>8} {:>6.3}  {}",
            w.name(),
            "failed_frac",
            p,
            c,
            "-",
            0.0,
            v.name()
        );
    }
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
