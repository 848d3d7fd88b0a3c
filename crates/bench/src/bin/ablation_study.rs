//! Ablation study over the design choices DESIGN.md §5 calls out:
//! alignment-constraint cost, variable-ordering heuristics (natural /
//! DFS-fanin / sifting), exact-vs-heuristic odd cycle transversals, and the
//! effect of the logic simplification pass.

use std::time::{Duration, Instant};

use flowc_bdd::{build_sbdd, dfs_fanin_order, sift};
use flowc_bench::{build_network, time_limit};
use flowc_budget::Budget;
use flowc_compact::oct_method::{min_semiperimeter, OctMethodConfig};
use flowc_compact::BddGraph;
use flowc_graph::oct_heuristic;
use flowc_logic::bench_suite;
use flowc_logic::xform::simplify;

fn main() {
    let budget = time_limit(10);
    let set = ["ctrl", "int2float", "router", "cavlc", "dec", "priority"];

    println!("Ablation 1 — alignment constraint cost (γ = 1 labeling)");
    println!(
        "{:<11} {:>8} {:>10} {:>10} {:>9}",
        "benchmark", "nodes", "S_free", "S_aligned", "upgrades"
    );
    for name in set {
        let n = build_network(&bench_suite::by_name(name).expect("registered"));
        let g = BddGraph::from_bdds(&build_sbdd(&n, None));
        let free = min_semiperimeter(
            &g,
            &OctMethodConfig { align: false },
            &Budget::unlimited().with_deadline(budget),
        );
        let aligned = min_semiperimeter(
            &g,
            &OctMethodConfig { align: true },
            &Budget::unlimited().with_deadline(budget),
        );
        let sf = free.labeling.stats().semiperimeter;
        let sa = aligned.labeling.stats().semiperimeter;
        println!(
            "{:<11} {:>8} {:>10} {:>10} {:>9}",
            name,
            g.num_nodes(),
            sf,
            sa,
            sa.saturating_sub(sf)
        );
    }

    println!();
    println!("Ablation 2 — variable ordering (SBDD nodes)");
    println!(
        "{:<11} {:>10} {:>10} {:>10} {:>10}",
        "benchmark", "natural", "dfs", "sifted", "sift_s"
    );
    for name in ["ctrl", "int2float", "router", "cavlc"] {
        let n = build_network(&bench_suite::by_name(name).expect("registered"));
        let natural = build_sbdd(&n, None).shared_size();
        let dfs = build_sbdd(&n, Some(&dfs_fanin_order(&n))).shared_size();
        let cap = Budget::unlimited().with_deadline(budget.min(Duration::from_secs(20)));
        let t0 = Instant::now();
        let sifted = sift(&n, &cap);
        println!(
            "{:<11} {:>10} {:>10} {:>10} {:>9.1}s",
            name,
            natural,
            dfs,
            sifted.final_size,
            t0.elapsed().as_secs_f64()
        );
    }

    println!();
    println!("Ablation 3 — exact OCT (Lemma 1) vs greedy heuristic");
    println!(
        "{:<11} {:>8} {:>8} {:>8} {:>10} {:>10}",
        "benchmark", "nodes", "k_exact", "k_greedy", "t_exact_s", "t_greedy_s"
    );
    for name in set {
        let n = build_network(&bench_suite::by_name(name).expect("registered"));
        let g = BddGraph::from_bdds(&build_sbdd(&n, None));
        let t0 = Instant::now();
        let exact = min_semiperimeter(
            &g,
            &OctMethodConfig { align: false },
            &Budget::unlimited().with_deadline(budget),
        );
        let t_exact = t0.elapsed();
        let t0 = Instant::now();
        let greedy = oct_heuristic(&g.graph);
        let t_greedy = t0.elapsed();
        println!(
            "{:<11} {:>8} {:>7}{} {:>8} {:>10.2} {:>10.2}",
            name,
            g.num_nodes(),
            exact.oct_size,
            if exact.optimal { "*" } else { " " },
            greedy.len(),
            t_exact.as_secs_f64(),
            t_greedy.as_secs_f64()
        );
    }
    println!("(* = proven minimum)");

    println!();
    println!("Ablation 4 — logic simplification before BDD construction");
    println!(
        "{:<11} {:>10} {:>10} {:>10} {:>10}",
        "benchmark", "gates", "gates_opt", "nodes", "nodes_opt"
    );
    for name in set {
        let n = build_network(&bench_suite::by_name(name).expect("registered"));
        let s = simplify(&n).expect("valid network");
        let nodes = build_sbdd(&n, None).shared_size();
        let nodes_opt = build_sbdd(&s, None).shared_size();
        println!(
            "{:<11} {:>10} {:>10} {:>10} {:>10}",
            name,
            n.num_gates(),
            s.num_gates(),
            nodes,
            nodes_opt
        );
    }
    println!();
    println!("(canonical SBDDs under a fixed order are unaffected by gate-level");
    println!(" redundancy — the node columns agreeing is itself the check)");
}
