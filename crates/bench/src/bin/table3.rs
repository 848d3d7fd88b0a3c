//! Table III: multiple ROBDDs versus a single SBDD — node counts, crossbar
//! shape, and synthesis time for both multi-output flows, all at γ = 0.5
//! with alignment (the paper's default).

use std::time::Instant;

use flowc_baselines::robdd_diagonal::compact_per_output;
use flowc_bench::{
    build_network, compact_config, geomean, run_compact, secs, time_limit, EXACT_SET,
};
use flowc_budget::Budget;
use flowc_logic::bench_suite;
use flowc_xbar::metrics::CrossbarMetrics;

fn main() {
    let budget = time_limit(15);
    println!("Table III — multiple ROBDDs vs single SBDD (γ = 0.5)");
    println!(
        "{:<11} | {:>8} {:>5} {:>5} {:>5} {:>6} {:>8} | {:>8} {:>5} {:>5} {:>5} {:>6} {:>8}",
        "", "ROBDDs", "", "", "", "", "", "SBDD", "", "", "", "", ""
    );
    println!(
        "{:<11} | {:>8} {:>5} {:>5} {:>5} {:>6} {:>8} | {:>8} {:>5} {:>5} {:>5} {:>6} {:>8}",
        "benchmark", "nodes", "R", "C", "D", "S", "time_s", "nodes", "R", "C", "D", "S", "time_s"
    );
    let mut ratios: Vec<(f64, f64, f64, f64, f64)> = Vec::new();
    for name in EXACT_SET {
        let b = bench_suite::by_name(name).expect("registered");
        let n = build_network(&b);
        // Multiple ROBDDs, each through COMPACT, merged diagonally. The
        // per-output pieces are small, so each gets a slice of the budget.
        let cfg = compact_config(0.5, budget.min(std::time::Duration::from_secs(5)));
        let t0 = Instant::now();
        let multi =
            compact_per_output(&n, &cfg, &Budget::unlimited()).expect("per-output synthesis");
        let multi_time = t0.elapsed();
        let mm = CrossbarMetrics::of(&multi.crossbar);
        // Single SBDD through COMPACT.
        let shared = run_compact(&n, 0.5, budget);
        println!(
            "{:<11} | {:>8} {:>5} {:>5} {:>5} {:>6} {:>8} | {:>8} {:>5} {:>5} {:>5} {:>6} {:>8}",
            b.name,
            multi.merged_nodes,
            mm.rows,
            mm.cols,
            mm.max_dimension,
            mm.semiperimeter,
            secs(multi_time),
            shared.graph_nodes,
            shared.stats.rows,
            shared.stats.cols,
            shared.stats.max_dimension,
            shared.stats.semiperimeter,
            secs(shared.synthesis_time),
        );
        ratios.push((
            shared.graph_nodes as f64 / multi.merged_nodes as f64,
            shared.stats.rows as f64 / mm.rows as f64,
            shared.stats.cols as f64 / mm.cols as f64,
            shared.stats.max_dimension as f64 / mm.max_dimension as f64,
            shared.stats.semiperimeter as f64 / mm.semiperimeter as f64,
        ));
    }
    println!();
    let col = |f: fn(&(f64, f64, f64, f64, f64)) -> f64| {
        geomean(&ratios.iter().map(f).collect::<Vec<_>>())
    };
    println!("SBDD / ROBDDs reductions (normalized average; paper §VIII-B):");
    println!("  nodes : {:.3}  (paper ≈ 0.78, i.e. −22%)", col(|r| r.0));
    println!("  rows  : {:.3}  (paper ≈ 0.71, i.e. −29%)", col(|r| r.1));
    println!("  cols  : {:.3}  (paper ≈ 0.73, i.e. −27%)", col(|r| r.2));
    println!("  D     : {:.3}  (paper ≈ 0.73, i.e. −27%)", col(|r| r.3));
    println!("  S     : {:.3}  (paper ≈ 0.72, i.e. −28%)", col(|r| r.4));
}
