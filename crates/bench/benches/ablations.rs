//! Ablation benches for the design choices called out in DESIGN.md §5:
//! Nemhauser–Trotter kernelization, variable-ordering heuristics, exact vs
//! heuristic odd cycle transversals, and the balancing hill climb.
//!
//! Uses the in-tree `flowc_bench::timing` harness (no criterion; the build
//! must work fully offline). `FLOWC_BENCH_SAMPLES` controls sample counts.

use std::hint::black_box;
use std::time::Duration;

use flowc_bdd::{build_sbdd, dfs_fanin_order};
use flowc_bench::timing::bench;
use flowc_budget::Budget;
use flowc_compact::mip_method::hill_climb;
use flowc_compact::oct_method::{min_semiperimeter, OctMethodConfig};
use flowc_compact::BddGraph;
use flowc_graph::{
    cartesian_with_k2, greedy_cover, lp_lower_bound, minimum_vertex_cover, nt_kernel, oct_heuristic,
};
use flowc_logic::bench_suite;

/// A budget expiring `n` seconds from now.
fn secs(n: u64) -> Budget {
    Budget::unlimited().with_deadline(Duration::from_secs(n))
}

fn graph_of(name: &str) -> BddGraph {
    let network = bench_suite::by_name(name).unwrap().network().unwrap();
    BddGraph::from_bdds(&build_sbdd(&network, None))
}

/// NT kernelization vs raw bounds: how much of the product graph the
/// half-integral LP removes before branching even starts.
fn bench_kernelization() {
    let product = cartesian_with_k2(&graph_of("int2float").graph);
    bench("vc_kernelization", "nt_kernel_int2float_product", || {
        black_box(nt_kernel(&product).kernel.len())
    });
    bench("vc_kernelization", "lp_bound_int2float_product", || {
        black_box(lp_lower_bound(&product))
    });
    bench("vc_kernelization", "greedy_cover_int2float_product", || {
        black_box(greedy_cover(&product).len())
    });
    bench("vc_kernelization", "exact_vc_int2float_product", || {
        black_box(minimum_vertex_cover(&product, &secs(10), None).cover.len())
    });
}

/// Exact OCT (Lemma 1) vs the greedy heuristic: runtime and quality.
fn bench_oct_exact_vs_heuristic() {
    for name in ["int2float", "cavlc"] {
        let g = graph_of(name);
        bench("oct_exact_vs_heuristic", &format!("exact_{name}"), || {
            black_box(min_semiperimeter(&g, &OctMethodConfig::default(), &secs(30)).oct_size)
        });
        bench(
            "oct_exact_vs_heuristic",
            &format!("heuristic_{name}"),
            || black_box(oct_heuristic(&g.graph).len()),
        );
    }
}

/// Variable ordering: natural (generator-chosen) vs DFS-fanin rebuild.
fn bench_variable_ordering() {
    for name in ["c880", "priority"] {
        let network = bench_suite::by_name(name).unwrap().network().unwrap();
        bench("variable_ordering", &format!("natural_{name}"), || {
            black_box(build_sbdd(&network, None).shared_size())
        });
        bench("variable_ordering", &format!("dfs_fanin_{name}"), || {
            let order = dfs_fanin_order(&network);
            black_box(build_sbdd(&network, Some(&order)).shared_size())
        });
    }
}

/// The Figure 7 move: how expensive is VH-addition hill climbing, and how
/// much maximum dimension does it buy, from the minimum-semiperimeter
/// labeling of circuits of 250 (int2float), 511 (dec) and 1344 (i2c)
/// graph nodes.
fn bench_hill_climb() {
    for name in ["int2float", "dec", "i2c"] {
        let g = graph_of(name);
        let base = min_semiperimeter(&g, &OctMethodConfig::default(), &secs(30)).labeling;
        bench("hill_climb", name, || {
            let (improved, _) = hill_climb(&g, &base, 0.5, true, &secs(2), |_| {});
            black_box(improved.stats().max_dimension)
        });
        // Quality datum printed once (the harness times it, humans read this).
        let (improved, moves) = hill_climb(&g, &base, 0.5, true, &secs(2), |_| {});
        eprintln!(
            "[ablation] {name} hill climb: D {} -> {} with {} accepted moves",
            base.stats().max_dimension,
            improved.stats().max_dimension,
            moves
        );
    }
}

fn main() {
    bench_kernelization();
    bench_oct_exact_vs_heuristic();
    bench_variable_ordering();
    bench_hill_climb();
}
