//! Cross-validation between the two VH-labeling solvers: on instances where
//! both complete, the Eq. 4 MIP at γ = 1 must agree with the Lemma-1
//! odd-cycle-transversal method (they optimize the same objective), and
//! both must respect the theoretical bounds `n ≤ S ≤ 2n`.

use std::time::Duration;

use flowc::bdd::build_sbdd;
use flowc::budget::Budget;
use flowc::compact::mip_method::{solve as mip_solve, MipConfig};
use flowc::compact::oct_method::{min_semiperimeter, OctMethodConfig};
use flowc::compact::BddGraph;
use flowc::conform::Rng;
use flowc::graph::lp_lower_bound;
use flowc::logic::bench_suite;
use flowc::logic::{GateKind, Network};

/// A budget expiring `n` seconds from now: the solvers' only clock.
fn secs(n: u64) -> Budget {
    Budget::unlimited().with_deadline(Duration::from_secs(n))
}

fn graph_of_network(n: &Network) -> BddGraph {
    BddGraph::from_bdds(&build_sbdd(n, None))
}

#[test]
fn mip_and_oct_are_consistent_on_ctrl_at_gamma_one() {
    // ctrl's graph (39 nodes) is within the exact MIP's reach *with* the
    // alignment constraints (which fix 27 port variables). Without them the
    // generic LP-bounded branch & bound does not close — which is exactly
    // the paper's motivation for the specialised Lemma-1 route of §VI-A.
    let b = bench_suite::by_name("ctrl").unwrap();
    let network = b.network().unwrap();
    let graph = graph_of_network(&network);
    assert!(graph.num_nodes() <= 80, "ctrl must stay in exact-MIP range");

    // Unaligned OCT: the unconditional lower bound S ≥ n + k_min.
    let oct_free = min_semiperimeter(&graph, &OctMethodConfig { align: false }, &secs(30));
    assert!(oct_free.optimal);
    // Aligned OCT method: minimum transversal + post-hoc upgrades (an upper
    // bound for the aligned optimum — upgrades are not jointly optimized).
    let oct_aligned = min_semiperimeter(&graph, &OctMethodConfig::default(), &secs(30));
    // Aligned exact MIP: the jointly-optimal aligned solution.
    let (mip, _) = mip_solve(
        &graph,
        &MipConfig {
            gamma: 1.0,
            align: true,
        },
        &secs(60),
        None,
        None,
    );
    assert!(mip.optimal, "ctrl at γ=1 with alignment must close");
    let n = graph.num_nodes();
    let s_mip = mip.labeling.stats().semiperimeter;
    let s_oct = oct_aligned.labeling.stats().semiperimeter;
    assert!(
        s_mip >= n + oct_free.oct_size,
        "aligned optimum {s_mip} below the unaligned bound {}",
        n + oct_free.oct_size
    );
    assert!(
        s_mip <= s_oct,
        "the joint MIP optimum {s_mip} must not exceed the OCT-then-upgrade {s_oct}"
    );
    assert!(mip.labeling.is_aligned(&graph));
}

#[test]
fn mip_and_oct_agree_on_random_functions_at_gamma_one() {
    let mut rng = Rng::new(0x5151_5151_5151_5151);
    for trial in 0..8 {
        // A random 4-input, 2-output network.
        let mut n = Network::new("rand");
        let mut nets: Vec<_> = (0..4).map(|i| n.add_input(format!("x{i}"))).collect();
        for g in 0..6 {
            let kind = match rng.below(5) {
                0 => GateKind::And,
                1 => GateKind::Or,
                2 => GateKind::Xor,
                3 => GateKind::Nand,
                _ => GateKind::Nor,
            };
            let a = nets[rng.below(nets.len())];
            let b = nets[rng.below(nets.len())];
            let out = n.add_gate(kind, &[a, b], format!("g{g}")).unwrap();
            nets.push(out);
        }
        n.mark_output(nets[nets.len() - 1]);
        n.mark_output(nets[nets.len() - 2]);
        let graph = graph_of_network(&n);
        if graph.num_nodes() == 0 || graph.num_nodes() > 40 {
            continue;
        }
        let oct = min_semiperimeter(&graph, &OctMethodConfig { align: false }, &secs(30));
        let (mip, _) = mip_solve(
            &graph,
            &MipConfig {
                gamma: 1.0,
                align: false,
            },
            &secs(30),
            None,
            None,
        );
        assert!(oct.optimal, "trial {trial}");
        if mip.optimal {
            assert_eq!(
                mip.labeling.stats().semiperimeter,
                graph.num_nodes() + oct.oct_size,
                "trial {trial}: objectives disagree"
            );
        }
    }
}

#[test]
fn semiperimeter_respects_theoretical_bounds() {
    for name in ["ctrl", "int2float", "cavlc", "dec"] {
        let b = bench_suite::by_name(name).unwrap();
        let network = b.network().unwrap();
        let graph = graph_of_network(&network);
        let r = min_semiperimeter(&graph, &OctMethodConfig { align: false }, &secs(30));
        let s = r.labeling.stats().semiperimeter;
        let n = graph.num_nodes();
        assert!(s >= n, "{name}: S = {s} below n = {n}");
        assert!(s <= 2 * n, "{name}: S = {s} above the trivial 2n");
        // The LP bound on the product graph transfers: S ≥ n + (LP − n)⁺.
        let product = flowc::graph::cartesian_with_k2(&graph.graph);
        let lp = lp_lower_bound(&product).ceil() as usize;
        assert!(s >= lp.max(n), "{name}: S = {s} violates the LP bound {lp}");
    }
}

#[test]
fn alignment_never_reduces_semiperimeter() {
    for name in ["ctrl", "int2float", "cavlc"] {
        let b = bench_suite::by_name(name).unwrap();
        let network = b.network().unwrap();
        let graph = graph_of_network(&network);
        let free = min_semiperimeter(&graph, &OctMethodConfig { align: false }, &secs(30));
        let aligned = min_semiperimeter(&graph, &OctMethodConfig { align: true }, &secs(30));
        assert!(
            aligned.labeling.stats().semiperimeter >= free.labeling.stats().semiperimeter,
            "{name}: alignment is a constraint, it cannot help"
        );
        assert!(aligned.labeling.is_aligned(&graph), "{name}");
    }
}
