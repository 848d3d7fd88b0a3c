//! Experiment harness for the COMPACT reproduction.
//!
//! Each binary under `src/bin` regenerates one table or figure of the
//! paper (see DESIGN.md §4 for the index):
//!
//! | binary   | reproduces |
//! |----------|------------|
//! | `table1` | Table I — benchmark properties |
//! | `table2` | Table II — γ ∈ {0, 0.5, 1} |
//! | `table3` | Table III — multiple ROBDDs vs single SBDD |
//! | `table4` | Table IV — COMPACT vs the staircase baseline \[16\] |
//! | `fig9`   | Figure 9 — non-dominated designs under a γ sweep |
//! | `fig10`  | Figure 10 — solver convergence on i2c |
//! | `fig11`  | Figure 11 — relative gap at time-out |
//! | `fig12`  | Figure 12 — power/delay vs \[16\] |
//! | `fig13`  | Figure 13 — power/delay vs CONTRA-style MAGIC |
//! | `validate` | §VIII "SPICE-verified" — functional + electrical checks |
//! | `ablation_study` | DESIGN.md §5 ablations (alignment, ordering, OCT, simplification) |
//! | `yield_study` | DESIGN.md §9 — pre-/post-repair yield vs defect density |
//!
//! JSON artifacts land under `results/` via [`report::write_json`], which
//! writes atomically (temp file + rename) so interrupted runs never leave
//! truncated files.
//!
//! Wall-clock budgets default to laptop scale; set `FLOWC_TIME_LIMIT_SECS`
//! to trade time for tighter solutions (the paper used 3-hour CPLEX runs).

use std::time::Duration;

use flowc_compact::pipeline::{synthesize, CompactResult, Config, VhStrategy};
use flowc_compact::{synthesize_in, Rung, Session};
use flowc_logic::bench_suite::Benchmark;
use flowc_logic::Network;

pub mod report;
pub mod yield_study;

/// Per-instance wall-clock budget (seconds) from `FLOWC_TIME_LIMIT_SECS`,
/// defaulting to `default_secs`.
pub fn time_limit(default_secs: u64) -> Duration {
    std::env::var("FLOWC_TIME_LIMIT_SECS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .map_or(Duration::from_secs(default_secs), Duration::from_secs)
}

/// The benchmark subset the harness solves to proven optimality (the
/// paper's Table II similarly lists only instances that closed within its
/// 3-hour budget). Selection is by graph size: the small EPFL control
/// circuits.
pub const EXACT_SET: &[&str] = &[
    "cavlc",
    "ctrl",
    "dec",
    "i2c",
    "int2float",
    "priority",
    "router",
];

/// The instances that are *not* expected to close within the budget — the
/// Figure 11 population.
pub const HARD_SET: &[&str] = &[
    "c432", "c499", "c880", "c1355", "c1908", "c3540", "c5315", "c7552", "arbiter",
];

/// Runs the COMPACT weighted flow at `gamma` with the given budget.
///
/// # Panics
///
/// Panics if synthesis fails (indicates a labeling bug; surfaced loudly in
/// the harness).
pub fn run_compact(network: &Network, gamma: f64, budget: Duration) -> CompactResult {
    let cfg = compact_config(gamma, budget);
    synthesize(network, &cfg).expect("synthesis must succeed on valid labelings")
}

/// [`run_compact`] through a shared [`Session`], so sweeps over γ reuse
/// one BDD build and one graph extraction per network.
///
/// # Panics
///
/// As [`run_compact`].
pub fn run_compact_in(
    session: &Session,
    network: &Network,
    gamma: f64,
    budget: Duration,
) -> CompactResult {
    let cfg = compact_config(gamma, budget);
    synthesize_in(session, network, &cfg).expect("synthesis must succeed on valid labelings")
}

/// The harness-standard weighted configuration at `gamma`.
pub fn compact_config(gamma: f64, budget: Duration) -> Config {
    Config {
        strategy: VhStrategy::entering(Rung::ExactMip, gamma, budget),
        ..Config::gamma(gamma)
    }
}

/// Builds a benchmark's network, panicking with its name on failure.
pub fn build_network(b: &Benchmark) -> Network {
    b.network()
        .unwrap_or_else(|e| panic!("building {}: {e}", b.name))
}

/// Geometric mean of ratios (the paper's "normalized average").
pub fn geomean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return f64::NAN;
    }
    let log_sum: f64 = ratios.iter().map(|r| r.max(1e-12).ln()).sum();
    (log_sum / ratios.len() as f64).exp()
}

/// Formats a duration as fractional seconds.
pub fn secs(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// A registry-free timing harness for the `benches/` binaries (the image
/// has no criterion; these benches run offline with `cargo bench`).
pub mod timing {
    use std::time::Duration;

    use flowc_budget::Stopwatch;

    /// Per-case sample count: `FLOWC_BENCH_SAMPLES`, default 10.
    fn samples() -> usize {
        std::env::var("FLOWC_BENCH_SAMPLES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(10)
            .max(1)
    }

    /// Times `f` (one warm-up call, then `FLOWC_BENCH_SAMPLES` measured
    /// calls) and prints `group/name  median  min  max` in microseconds.
    /// The return value of the last call is returned so callers can keep
    /// results observable without `black_box`.
    pub fn bench<R>(group: &str, name: &str, mut f: impl FnMut() -> R) -> R {
        let mut out = f(); // warm-up; also forces lazy setup
        let n = samples();
        let mut times = Vec::with_capacity(n);
        for _ in 0..n {
            let sw = Stopwatch::unbudgeted();
            out = f();
            times.push(sw.elapsed());
        }
        times.sort();
        let fmt = |d: Duration| {
            let us = d.as_secs_f64() * 1e6;
            if us >= 1e6 {
                format!("{:.3} s", us / 1e6)
            } else if us >= 1e3 {
                format!("{:.2} ms", us / 1e3)
            } else {
                format!("{us:.1} µs")
            }
        };
        println!(
            "{group}/{name:<28} median {:>10}   min {:>10}   max {:>10}   ({n} samples)",
            fmt(times[times.len() / 2]),
            fmt(times[0]),
            fmt(times[times.len() - 1]),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn exact_and_hard_sets_name_real_benchmarks() {
        for name in EXACT_SET.iter().chain(HARD_SET) {
            assert!(
                flowc_logic::bench_suite::by_name(name).is_some(),
                "{name} missing from the registry"
            );
        }
    }

    #[test]
    fn run_compact_on_smallest_benchmark() {
        let b = flowc_logic::bench_suite::by_name("ctrl").unwrap();
        let n = build_network(&b);
        let r = run_compact(&n, 0.5, Duration::from_secs(5));
        assert!(r.stats.semiperimeter >= r.graph_nodes);
    }
}
