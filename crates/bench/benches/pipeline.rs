//! Microbenchmarks of every pipeline stage: BDD construction, graph
//! preprocessing, VH-labeling, crossbar mapping, and both evaluation
//! models, on representative benchmarks.
//!
//! Uses the in-tree `flowc_bench::timing` harness (no criterion; the build
//! must work fully offline). `FLOWC_BENCH_SAMPLES` controls sample counts.

use std::hint::black_box;
use std::time::Duration;

use flowc_baselines::magic::{map_magic, MagicConfig, NorNetlist};
use flowc_baselines::staircase::staircase_map;
use flowc_bdd::build_sbdd;
use flowc_bench::timing::bench;
use flowc_budget::Budget;
use flowc_compact::mapping::map_to_crossbar;
use flowc_compact::oct_method::{min_semiperimeter, OctMethodConfig};
use flowc_compact::pipeline::{synthesize, Config, VhStrategy};
use flowc_compact::{BddGraph, Rung};
use flowc_logic::bench_suite;
use flowc_xbar::circuit::ElectricalModel;

fn quick_config() -> Config {
    Config {
        strategy: VhStrategy::entering(Rung::ExactMip, 0.5, Duration::from_secs(2)),
        ..Config::default()
    }
}

fn bench_bdd_build() {
    for name in ["int2float", "cavlc", "i2c"] {
        let network = bench_suite::by_name(name).unwrap().network().unwrap();
        bench("bdd_build", name, || {
            black_box(build_sbdd(&network, None).shared_size())
        });
    }
}

fn bench_preprocess() {
    for name in ["cavlc", "i2c"] {
        let network = bench_suite::by_name(name).unwrap().network().unwrap();
        let bdds = build_sbdd(&network, None);
        bench("graph_preprocess", name, || {
            black_box(BddGraph::from_bdds(&bdds).num_edges())
        });
    }
}

/// The exact OCT's budget: cavlc's solve runs to this deadline.
fn oct_budget() -> Budget {
    Budget::unlimited().with_deadline(Duration::from_secs(30))
}

fn bench_vh_labeling() {
    for name in ["int2float", "cavlc"] {
        let network = bench_suite::by_name(name).unwrap().network().unwrap();
        let graph = BddGraph::from_bdds(&build_sbdd(&network, None));
        bench("vh_labeling_oct", name, || {
            black_box(
                min_semiperimeter(&graph, &OctMethodConfig::default(), &oct_budget())
                    .labeling
                    .stats()
                    .semiperimeter,
            )
        });
    }
}

fn bench_mapping() {
    for name in ["cavlc", "i2c"] {
        let network = bench_suite::by_name(name).unwrap().network().unwrap();
        let graph = BddGraph::from_bdds(&build_sbdd(&network, None));
        let labeling =
            min_semiperimeter(&graph, &OctMethodConfig::default(), &oct_budget()).labeling;
        let names: Vec<String> = network
            .outputs()
            .iter()
            .map(|&o| network.net_name(o).to_string())
            .collect();
        bench("crossbar_mapping", name, || {
            black_box(map_to_crossbar(&graph, &labeling, &names).unwrap().rows())
        });
    }
}

fn bench_evaluation() {
    let network = bench_suite::by_name("ctrl").unwrap().network().unwrap();
    let design = synthesize(&network, &quick_config()).unwrap();
    let assignment = vec![true; network.num_inputs()];
    bench("evaluation", "flow_ctrl", || {
        black_box(design.crossbar.evaluate(&assignment).unwrap())
    });
    let model = ElectricalModel::default();
    bench("evaluation", "nodal_analysis_ctrl", || {
        black_box(
            model
                .output_voltages(&design.crossbar, &assignment)
                .unwrap(),
        )
    });
}

fn bench_end_to_end() {
    for name in ["int2float", "cavlc"] {
        let network = bench_suite::by_name(name).unwrap().network().unwrap();
        bench("synthesis_end_to_end", &format!("compact_{name}"), || {
            black_box(
                synthesize(&network, &quick_config())
                    .unwrap()
                    .stats
                    .semiperimeter,
            )
        });
        let graph = BddGraph::from_bdds(&build_sbdd(&network, None));
        let names: Vec<String> = network
            .outputs()
            .iter()
            .map(|&o| network.net_name(o).to_string())
            .collect();
        bench("synthesis_end_to_end", &format!("staircase_{name}"), || {
            black_box(staircase_map(&graph, &names).rows())
        });
    }
}

fn bench_magic() {
    let network = bench_suite::by_name("cavlc").unwrap().network().unwrap();
    bench("magic_baseline", "nor_decompose_cavlc", || {
        black_box(NorNetlist::from_network(&network).num_gates())
    });
    bench("magic_baseline", "schedule_cavlc", || {
        black_box(map_magic(&network, &MagicConfig::default()).delay_steps)
    });
}

fn main() {
    bench_bdd_build();
    bench_preprocess();
    bench_vh_labeling();
    bench_mapping();
    bench_evaluation();
    bench_end_to_end();
    bench_magic();
}
