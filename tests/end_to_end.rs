//! Cross-crate integration tests: the full COMPACT flow from circuit
//! formats through BDDs, labeling, mapping, and both evaluation models,
//! checked against the paper's structural claims.

use std::time::Duration;

use flowc::baselines::magic::{map_magic, MagicConfig};
use flowc::baselines::robdd_diagonal::{compact_per_output, staircase_per_output};
use flowc::baselines::staircase::staircase_map;
use flowc::bdd::build_sbdd;
use flowc::budget::Budget;
use flowc::compact::pipeline::{synthesize, Config, VhStrategy};
use flowc::compact::{BddGraph, Rung};
use flowc::logic::bench_suite;
use flowc::xbar::metrics::CrossbarMetrics;
use flowc::xbar::verify::verify_functional;

/// The benchmark subset small enough for fast integration runs.
const FAST: &[&str] = &["ctrl", "int2float", "cavlc", "dec", "c432", "priority"];

fn quick_config(gamma: f64) -> Config {
    Config {
        strategy: VhStrategy::entering(Rung::ExactMip, gamma, Duration::from_secs(5)),
        ..Config::gamma(gamma)
    }
}

#[test]
fn compact_designs_are_valid_on_fast_benchmarks() {
    for name in FAST {
        let b = bench_suite::by_name(name).unwrap();
        let n = b.network().unwrap();
        let r = synthesize(&n, &quick_config(0.5)).unwrap();
        let report = verify_functional(&r.crossbar, &n, 300).unwrap();
        assert!(report.is_valid(), "{name}: {:?}", report.mismatches);
    }
}

#[test]
fn staircase_baseline_is_valid_on_fast_benchmarks() {
    for name in FAST {
        let b = bench_suite::by_name(name).unwrap();
        let n = b.network().unwrap();
        let g = BddGraph::from_bdds(&build_sbdd(&n, None));
        let names: Vec<String> = n
            .outputs()
            .iter()
            .map(|&o| n.net_name(o).to_string())
            .collect();
        let x = staircase_map(&g, &names);
        let report = verify_functional(&x, &n, 300).unwrap();
        assert!(report.is_valid(), "{name}");
    }
}

#[test]
fn compact_beats_staircase_on_every_metric() {
    // The paper's Table IV shape: COMPACT reduces S, D, and area against
    // the [16] baseline on every benchmark.
    for name in FAST {
        let b = bench_suite::by_name(name).unwrap();
        let n = b.network().unwrap();
        let ours = synthesize(&n, &quick_config(0.5)).unwrap();
        let base = staircase_per_output(&n);
        let bm = CrossbarMetrics::of(&base.crossbar);
        assert!(
            ours.stats.semiperimeter < bm.semiperimeter,
            "{name}: S {} !< {}",
            ours.stats.semiperimeter,
            bm.semiperimeter
        );
        assert!(
            ours.stats.max_dimension < bm.max_dimension,
            "{name}: D {} !< {}",
            ours.stats.max_dimension,
            bm.max_dimension
        );
        assert!(ours.metrics.area < bm.area, "{name}: area");
        assert!(ours.metrics.delay_steps < bm.delay_steps, "{name}: delay");
    }
}

#[test]
fn semiperimeter_coefficient_matches_paper_shape() {
    // Paper: S ≈ 1.11·n for COMPACT vs ≈ 1.9·n for the baseline. Allow a
    // generous band: COMPACT < 1.4n, baseline = 2n exactly by construction.
    for name in FAST {
        let b = bench_suite::by_name(name).unwrap();
        let n = b.network().unwrap();
        let ours = synthesize(&n, &quick_config(0.5)).unwrap();
        let coeff = ours.stats.semiperimeter as f64 / ours.graph_nodes as f64;
        assert!(
            coeff < 1.4,
            "{name}: S/n = {coeff:.3} is too far from the paper's ≈1.11"
        );
        assert!(coeff >= 1.0, "{name}: S/n below the n lower bound");
    }
}

#[test]
fn sbdd_flow_never_worse_than_robdd_flow() {
    for name in ["ctrl", "dec", "int2float"] {
        let b = bench_suite::by_name(name).unwrap();
        let n = b.network().unwrap();
        let shared = synthesize(&n, &quick_config(0.5)).unwrap();
        let separate = compact_per_output(&n, &quick_config(0.5), &Budget::unlimited()).unwrap();
        let sm = CrossbarMetrics::of(&separate.crossbar);
        assert!(shared.graph_nodes <= separate.merged_nodes, "{name}: nodes");
        assert!(
            shared.stats.semiperimeter <= sm.semiperimeter,
            "{name}: S {} > {}",
            shared.stats.semiperimeter,
            sm.semiperimeter
        );
        // The merged design stays functionally valid too.
        let report = verify_functional(&separate.crossbar, &n, 200).unwrap();
        assert!(report.is_valid(), "{name}");
    }
}

#[test]
fn magic_baseline_is_slower_on_epfl_control() {
    // Figure 13 shape: CONTRA-style delay far exceeds COMPACT's on the
    // control circuits.
    for name in ["ctrl", "int2float", "cavlc"] {
        let b = bench_suite::by_name(name).unwrap();
        let n = b.network().unwrap();
        let ours = synthesize(&n, &quick_config(0.5)).unwrap();
        let magic = map_magic(&n, &MagicConfig::default());
        assert!(
            magic.delay_steps > ours.metrics.delay_steps,
            "{name}: magic {} vs compact {}",
            magic.delay_steps,
            ours.metrics.delay_steps
        );
    }
}

#[test]
fn blif_source_flows_through_the_whole_pipeline() {
    let blif = "\
.model priority4
.inputs r0 r1 r2 r3
.outputs g0 g1 any
.names r0 g0
1 1
.names r0 r1 g1
01 1
.names r0 r1 r2 r3 any
1--- 1
-1-- 1
--1- 1
---1 1
.end
";
    let n = flowc::logic::blif::parse(blif).unwrap();
    let r = synthesize(&n, &Config::default()).unwrap();
    let report = verify_functional(&r.crossbar, &n, 16).unwrap();
    assert!(report.is_valid());
    assert_eq!(
        r.crossbar.evaluate(&[false, true, false, false]).unwrap(),
        vec![false, true, true]
    );
}

#[test]
fn pla_source_flows_through_the_whole_pipeline() {
    let pla = "\
.i 3
.o 2
.ilb x y z
.ob f g
.p 3
11- 10
--1 01
111 11
.e
";
    let n = flowc::logic::pla::parse(pla).unwrap();
    let r = synthesize(&n, &Config::default()).unwrap();
    let report = verify_functional(&r.crossbar, &n, 8).unwrap();
    assert!(report.is_valid());
}

#[test]
fn gamma_extremes_trade_s_for_d() {
    // γ = 1 minimizes S; γ = 0 never has larger D than the γ = 1 design.
    let b = bench_suite::by_name("int2float").unwrap();
    let n = b.network().unwrap();
    let min_s = synthesize(&n, &quick_config(1.0)).unwrap();
    let min_d = synthesize(&n, &quick_config(0.0)).unwrap();
    assert!(min_s.stats.semiperimeter <= min_d.stats.semiperimeter);
    assert!(min_d.stats.max_dimension <= min_s.stats.max_dimension);
}

#[test]
fn alignment_constraints_hold_on_every_fast_benchmark() {
    for name in FAST {
        let b = bench_suite::by_name(name).unwrap();
        let n = b.network().unwrap();
        let r = synthesize(&n, &quick_config(0.5)).unwrap();
        // Outputs on wordlines, input on the bottom wordline.
        assert_eq!(
            r.crossbar.input_row(),
            Some(r.crossbar.rows() - 1),
            "{name}: input must be the bottom-most wordline"
        );
        assert_eq!(r.crossbar.outputs().len(), n.num_outputs(), "{name}");
    }
}
