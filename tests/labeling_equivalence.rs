//! Equivalence suite for the metric-guided branch & bound: on small,
//! conform-generator-seeded instances, every `Bounder` implementation must
//! reproduce the exhaustive-enumeration optimum, and a warm-started γ
//! sweep must land on the same optima as cold solves.

use std::time::Duration;

use flowc::budget::Budget;
use flowc::compact::mip_method::{solve as mip_solve, MipConfig};
use flowc::compact::BddGraph;
use flowc::conform::gen::gen_graph;
use flowc::conform::Rng;
use flowc::graph::UGraph;
use flowc::milp::{BranchBound, Model, Sense};

/// Wraps a bare conform-generated graph as a labeling instance (no BDD
/// provenance needed: with `align = false` the solver never consults
/// roots/terminal, and mapping is not exercised here).
fn instance(g: UGraph) -> BddGraph {
    let n = g.num_vertices();
    BddGraph {
        graph: g,
        labels: std::collections::HashMap::new(),
        terminal: None,
        roots: Vec::new(),
        node_names: (0..n).map(|v| format!("n{v}")).collect(),
        num_inputs: 0,
    }
}

/// Exhaustive VH-labeling optimum: every node takes V, H, or VH; each edge
/// must admit a V→H orientation; the objective is Eq. 4's γ·S + (1−γ)·D.
fn enumerate_vh_optimum(g: &UGraph, gamma: f64) -> f64 {
    let n = g.num_vertices();
    assert!(n <= 10, "enumeration is 3^n");
    let mut best = f64::INFINITY;
    // state per node: 0 = V, 1 = H, 2 = VH.
    let mut state = vec![0u8; n];
    loop {
        let has_v = |i: usize| state[i] != 1;
        let has_h = |i: usize| state[i] != 0;
        let feasible = g
            .edges()
            .iter()
            .all(|&(i, j)| (has_v(i) && has_h(j)) || (has_h(i) && has_v(j)));
        if feasible {
            let rows = (0..n).filter(|&i| has_h(i)).count();
            let cols = (0..n).filter(|&i| has_v(i)).count();
            let obj = gamma * (rows + cols) as f64 + (1.0 - gamma) * rows.max(cols) as f64;
            best = best.min(obj);
        }
        // Odometer increment.
        let mut k = 0;
        while k < n {
            state[k] += 1;
            if state[k] < 3 {
                break;
            }
            state[k] = 0;
            k += 1;
        }
        if k == n {
            return best;
        }
    }
}

#[test]
fn conform_seeded_labelings_match_exhaustive_enumeration() {
    let mut rng = Rng::new(0xC0DE);
    for case in 0..10u64 {
        let n = 4 + (case as usize % 5); // 4..=8 nodes
        let g = gen_graph(&mut rng, n);
        let graph = instance(g);
        for gamma in [0.0, 0.5, 1.0] {
            let want = enumerate_vh_optimum(&graph.graph, gamma);
            let (got, _) = mip_solve(
                &graph,
                &MipConfig {
                    gamma,
                    align: false,
                },
                &Budget::unlimited().with_deadline(Duration::from_secs(30)),
                None,
                None,
            );
            assert!(got.optimal, "case {case} γ={gamma} must close");
            assert!(
                (got.objective - want).abs() < 1e-6,
                "case {case} γ={gamma}: bnb {} vs exhaustive {want}",
                got.objective
            );
        }
    }
}

/// Minimum-vertex-cover model of `g`: minimize Σx subject to x_i + x_j ≥ 1
/// per edge — the paper's Eq. 2 cover as a 0-1 program.
fn cover_model(g: &UGraph) -> Model {
    let n = g.num_vertices();
    let mut m = Model::new();
    let xs: Vec<_> = (0..n).map(|v| m.add_binary(format!("x{v}"), 1.0)).collect();
    for &(i, j) in g.edges() {
        m.add_constraint(&[(xs[i], 1.0), (xs[j], 1.0)], Sense::Ge, 1.0);
    }
    m
}

/// Exhaustive minimum vertex cover size.
fn enumerate_cover_optimum(g: &UGraph) -> f64 {
    let n = g.num_vertices();
    assert!(n <= 14, "enumeration is 2^n");
    (0..1usize << n)
        .filter(|&mask| {
            g.edges()
                .iter()
                .all(|&(i, j)| mask >> i & 1 == 1 || mask >> j & 1 == 1)
        })
        .map(|mask| mask.count_ones() as f64)
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn every_bounder_matches_exhaustive_on_conform_seeded_covers() {
    let mut rng = Rng::new(0xBEEF);
    for case in 0..10u64 {
        let n = 5 + (case as usize % 6); // 5..=10 nodes
        let g = gen_graph(&mut rng, n);
        let m = cover_model(&g);
        let want = enumerate_cover_optimum(&g);
        let solver =
            BranchBound::new().budget(&Budget::unlimited().with_deadline(Duration::from_secs(30)));
        let sol = solver.solve(&m).expect("solvable");
        assert!(
            (sol.objective - want).abs() < 1e-6,
            "case {case}: bnb {} vs exhaustive {want}",
            sol.objective
        );
    }
}

/// ctrl's 5-point sweep closes at the root at every γ, cold and warm, on
/// pinned shapes: S/D 42/29, except 45/29 for the cold solve at γ = 0. The LP
/// presolve's integral reconstruction of the eliminated orientation
/// binaries is what lets the root close; without it the relaxation point
/// leaves them at ½ and the search branches.
#[test]
fn warm_started_sweep_lands_on_the_cold_optima() {
    use flowc::bdd::build_sbdd;
    use flowc::logic::bench_suite;

    let b = bench_suite::by_name("ctrl").unwrap();
    let network = b.network().unwrap();
    let graph = BddGraph::from_bdds(&build_sbdd(&network, None));
    let mut warm = None;
    // Sweep ordered for reuse (γ = 1 closes fastest and seeds the rest).
    for gamma in [1.0, 0.75, 0.5, 0.25, 0.0] {
        let budget = Budget::unlimited().with_deadline(Duration::from_secs(60));
        let config = MipConfig { gamma, align: true };
        let (cold, _) = mip_solve(&graph, &config, &budget, None, None);
        let (warmed, _) = mip_solve(&graph, &config, &budget, warm.as_ref(), None);
        assert_eq!(warmed.warm_start.is_some(), warm.is_some(), "γ={gamma}");
        assert!(cold.optimal && warmed.optimal, "γ={gamma} must close");
        for (kind, out) in [("cold", &cold), ("warm", &warmed)] {
            // At γ = 0 only D counts: the cold root lands on S = 45, while
            // the warm start keeps the S = 42 labeling of γ = 0.25.
            let shape = if gamma == 0.0 && kind == "cold" {
                (45, 29)
            } else {
                (42, 29)
            };
            let stats = out.labeling.stats();
            assert!(out.nodes <= 1, "γ={gamma} {kind}: {} nodes", out.nodes);
            assert_eq!(
                (stats.semiperimeter, stats.max_dimension),
                shape,
                "γ={gamma} {kind}"
            );
        }
        assert!(
            (cold.objective - warmed.objective).abs() < 1e-6,
            "γ={gamma}: cold {} vs warm {}",
            cold.objective,
            warmed.objective
        );
        warm = Some(warmed.labeling);
    }
}

/// The 5-point γ sweeps of two anytime-path circuits keep their shapes:
/// `(γ, S, D)` per point, one session, warm starts chained as
/// `--gamma-sweep 5` runs them. A change to the hill climb that accepts a
/// different move shows here.
#[test]
fn anytime_sweeps_keep_their_shapes() {
    use std::sync::Arc;

    use flowc::compact::{gamma_sweep_tasks, synthesize_in, Session};
    use flowc::logic::bench_suite;

    let golden: [(&str, [(usize, usize); 5]); 2] = [
        ("dec", [(511, 341); 5]),
        (
            "int2float",
            [(263, 132), (263, 132), (262, 133), (262, 133), (262, 133)],
        ),
    ];
    let gammas = [0.0, 0.25, 0.5, 0.75, 1.0];
    for (name, shape) in golden {
        let network = Arc::new(bench_suite::by_name(name).unwrap().network().unwrap());
        let session = Session::default();
        for task in gamma_sweep_tasks(&network, &gammas, Duration::from_secs(30)) {
            let r = synthesize_in(&session, &network, &task.config).unwrap();
            let gamma = task.config.strategy.gamma();
            let i = gammas.iter().position(|&g| g == gamma).unwrap();
            assert_eq!(
                (r.stats.semiperimeter, r.stats.max_dimension),
                shape[i],
                "{name} at γ {gamma}"
            );
        }
    }
}
