//! Property-based tests over the core invariants: random circuits map to
//! crossbars that agree with netlist simulation under every strategy;
//! random graphs yield valid transversals and labelings; format round-trips
//! preserve semantics.
//!
//! The harness lives in `flowc::conform` (the crate this suite seeded): it
//! is fully deterministic — every test derives its case seeds from a fixed
//! per-test base seed, so CI runs are reproducible bit-for-bit.
//! `PROPTEST_CASES` overrides the case count (default 32) and
//! `PROPTEST_SEED` overrides the base seed for local fuzzing. Failing case
//! seeds are persisted to `tests/regressions/<test>.txt` and replayed first
//! on every subsequent run; network-shaped failures are also shrunk and
//! persisted as replayable BLIF.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use flowc::budget::Budget;
use flowc::compact::balance::{balanced_labeling, MoveScorer};
use flowc::compact::mip_method::hill_climb;
use flowc::compact::pipeline::{synthesize, Config, VhStrategy};
use flowc::compact::{BddGraph, Labeling, VhLabel};
use flowc::conform::gen::gen_graph;
use flowc::conform::{Harness, NetworkGen, Rng};
use flowc::graph::{
    cartesian_with_k2, greedy_cover, hopcroft_karp, konig_cover, lp_lower_bound,
    minimum_vertex_cover, nt_kernel, oct_heuristic, odd_cycle_packing, odd_cycle_transversal,
    two_color, ColorResult, UGraph, VcResult,
};
use flowc::logic::{GateKind, Network};
use flowc::milp::lp::{LpResult, Simplex};
use flowc::milp::{Model, Sense, VarId, VarKind};
use flowc::xbar::fault::{apply_defects, CellState, DefectMap, Fault};
use flowc::xbar::verify::verify_functional;
use flowc::xbar::{Crossbar, DeviceAssignment, XbarError};

fn corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/regressions")
}

fn harness(name: &str) -> Harness {
    Harness::new(name).with_corpus(corpus_dir())
}

fn gen_small_graph(rng: &mut Rng, n: usize) -> UGraph {
    gen_graph(rng, n)
}

fn exhaustive_equiv(network: &Network, crossbar: &flowc::xbar::Crossbar) -> Result<(), String> {
    let k = network.num_inputs();
    for bits in 0..1usize << k {
        let assignment: Vec<bool> = (0..k).map(|i| bits >> i & 1 == 1).collect();
        let want = network.simulate(&assignment).map_err(|e| e.to_string())?;
        let got = crossbar.evaluate(&assignment).map_err(|e| e.to_string())?;
        if want != got {
            return Err(format!("mismatch on {assignment:?}: {got:?} vs {want:?}"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Properties.
// ---------------------------------------------------------------------------

#[test]
fn synthesized_crossbars_are_equivalent_to_their_networks() {
    harness("synthesized_crossbars_are_equivalent_to_their_networks").check_network(
        &NetworkGen::new(5, 12),
        |network, _rng| {
            let r = synthesize(network, &Config::default()).expect("synthesis succeeds");
            exhaustive_equiv(network, &r.crossbar).unwrap();
            // Cost-model invariants.
            assert_eq!(r.stats.semiperimeter, r.stats.rows + r.stats.cols);
            assert_eq!(r.stats.max_dimension, r.stats.rows.max(r.stats.cols));
            assert_eq!(r.stats.semiperimeter, r.graph_nodes + r.stats.num_vh);
            assert_eq!(r.metrics.active_devices, r.graph_edges);
        },
    );
}

#[test]
fn min_semiperimeter_strategy_is_equivalent_too() {
    harness("min_semiperimeter_strategy_is_equivalent_too").check_network(
        &NetworkGen::new(4, 10),
        |network, _rng| {
            let cfg = Config {
                strategy: VhStrategy::MinSemiperimeter {
                    time_limit: Duration::from_secs(5),
                },
                ..Config::default()
            };
            let r = synthesize(network, &cfg).expect("synthesis succeeds");
            exhaustive_equiv(network, &r.crossbar).unwrap();
        },
    );
}

#[test]
fn heuristic_strategy_is_equivalent_and_never_beats_exact_s() {
    harness("heuristic_strategy_is_equivalent_and_never_beats_exact_s").check_network(
        &NetworkGen::new(4, 10),
        |network, _rng| {
            let heuristic = synthesize(
                network,
                &Config {
                    strategy: VhStrategy::Heuristic { gamma: 0.5 },
                    ..Config::default()
                },
            )
            .expect("synthesis succeeds");
            exhaustive_equiv(network, &heuristic.crossbar).unwrap();
            let exact = synthesize(
                network,
                &Config {
                    strategy: VhStrategy::MinSemiperimeter {
                        time_limit: Duration::from_secs(5),
                    },
                    ..Config::default()
                },
            )
            .expect("synthesis succeeds");
            // The exact OCT uses no more VH nodes than the greedy heuristic
            // (both before alignment upgrades; compare via OCT size = S - n).
            assert!(
                exact.stats.num_vh <= heuristic.stats.num_vh + 2,
                "exact {} vs heuristic {}",
                exact.stats.num_vh,
                heuristic.stats.num_vh
            );
        },
    );
}

#[test]
fn oct_makes_random_graphs_bipartite() {
    harness("oct_makes_random_graphs_bipartite").check(|rng| {
        let g = gen_small_graph(rng, 14);
        let budget = Budget::unlimited().with_deadline(Duration::from_secs(5));
        let r = odd_cycle_transversal(&g, &budget);
        let keep: Vec<bool> = (0..g.num_vertices())
            .map(|v| !r.transversal.contains(&v))
            .collect();
        let (sub, _) = g.induced_subgraph(&keep);
        assert!(matches!(two_color(&sub), ColorResult::Bipartite(_)));
        assert!(r.lower_bound <= r.transversal.len().max(1));
    });
}

/// The greedy transversal recomputed the slow way: a fresh 2-coloring of
/// the induced subgraph after every removal and at every re-insertion test.
/// `oct_heuristic` must return exactly this vector.
fn reference_oct_heuristic(g: &UGraph) -> Vec<usize> {
    let n = g.num_vertices();
    let mut removed = vec![false; n];
    loop {
        let (sub, back) = g.induced_subgraph(&removed.iter().map(|&r| !r).collect::<Vec<_>>());
        match two_color(&sub) {
            ColorResult::Bipartite(_) => break,
            ColorResult::OddCycle(cycle) => {
                let victim = cycle
                    .iter()
                    .map(|&v| back[v])
                    .max_by_key(|&v| g.degree(v))
                    .expect("cycle is nonempty");
                removed[victim] = true;
            }
        }
    }
    let order: Vec<usize> = (0..n).filter(|&v| removed[v]).collect();
    for v in order {
        removed[v] = false;
        let keep: Vec<bool> = removed.iter().map(|&r| !r).collect();
        let (sub, _) = g.induced_subgraph(&keep);
        if matches!(two_color(&sub), ColorResult::OddCycle(_)) {
            removed[v] = true;
        }
    }
    (0..n).filter(|&v| removed[v]).collect()
}

fn is_bipartite_without(g: &UGraph, transversal: &[usize]) -> bool {
    let mut keep = vec![true; g.num_vertices()];
    for &v in transversal {
        keep[v] = false;
    }
    matches!(
        two_color(&g.induced_subgraph(&keep).0),
        ColorResult::Bipartite(_)
    )
}

#[test]
fn oct_heuristic_matches_the_recoloring_reference() {
    harness("oct_heuristic_matches_the_recoloring_reference").check(|rng| {
        let n = 1 + rng.below(60);
        let mut g = gen_small_graph(rng, n);
        // Every third case appends a second random graph as further
        // components, so coloring must resume past finished ones.
        if rng.below(3) == 0 {
            let m = 1 + rng.below(30);
            let h = gen_small_graph(rng, m);
            let offset = g.num_vertices();
            for _ in 0..h.num_vertices() {
                g.add_vertex();
            }
            for &(u, v) in h.edges() {
                g.add_edge(u + offset, v + offset);
            }
        }
        let t = oct_heuristic(&g);
        assert_eq!(t, reference_oct_heuristic(&g));
        assert!(is_bipartite_without(&g, &t));
    });
}

#[test]
fn oct_heuristic_sizes_on_registry_circuits_are_pinned() {
    for (name, k) in [("c432", 71), ("c2670", 189), ("c3540", 304)] {
        let network = flowc::logic::bench_suite::by_name(name)
            .unwrap()
            .network()
            .unwrap();
        let graph = BddGraph::from_bdds(&flowc::bdd::build_sbdd(&network, None));
        let t = oct_heuristic(&graph.graph);
        assert_eq!(t.len(), k, "{name}");
        assert!(is_bipartite_without(&graph.graph, &t), "{name}");
    }
}

/// VH-addition hill climbing scored the slow way: a full
/// `balanced_labeling` of every candidate move. `hill_climb` must return
/// exactly this labeling and accepted-move count.
fn reference_hill_climb(
    graph: &BddGraph,
    start: &Labeling,
    gamma: f64,
    align: bool,
) -> (Labeling, usize) {
    let n = graph.num_nodes();
    let mut vh: HashSet<usize> = (0..n)
        .filter(|&v| matches!(start.label(v), VhLabel::Vh))
        .collect();
    let mut best = start.clone();
    let mut best_obj = best.stats().objective(gamma);
    let mut accepted = 0usize;
    if gamma >= 1.0 {
        return (best, 0); // adding VH nodes can only hurt S
    }
    loop {
        let mut improved = false;
        // Candidates: non-VH nodes, highest degree first (they reconnect the
        // most components when removed).
        let mut candidates: Vec<usize> = (0..n).filter(|v| !vh.contains(v)).collect();
        candidates.sort_by_key(|&v| std::cmp::Reverse(graph.graph.degree(v)));
        for v in candidates {
            vh.insert(v);
            let cand = balanced_labeling(graph, &vh, align);
            let obj = cand.stats().objective(gamma);
            if obj + 1e-9 < best_obj {
                best = cand;
                best_obj = obj;
                accepted += 1;
                improved = true;
            } else {
                vh.remove(&v);
            }
        }
        if !improved {
            return (best, accepted);
        }
    }
}

#[test]
fn hill_climb_matches_the_rescoring_reference() {
    let accepted = std::cell::Cell::new(0usize);
    harness("hill_climb_matches_the_rescoring_reference").check_network(
        &NetworkGen::new(8, 40),
        |network, _rng| {
            let graph = BddGraph::from_bdds(&flowc::bdd::build_sbdd(network, None));
            let greedy: HashSet<usize> = oct_heuristic(&graph.graph).into_iter().collect();
            for align in [false, true] {
                let start = balanced_labeling(&graph, &greedy, align);
                for gamma in [0.0, 0.25, 0.5, 0.75] {
                    let (climbed, moves) =
                        hill_climb(&graph, &start, gamma, align, &Budget::unlimited(), |_| {});
                    assert_eq!(
                        (climbed, moves),
                        reference_hill_climb(&graph, &start, gamma, align),
                        "align {align}, γ {gamma}"
                    );
                    accepted.set(accepted.get() + moves);
                }
            }
        },
    );
    assert!(accepted.get() > 0, "no case accepted a move");
}

#[test]
fn hill_climb_matches_the_rescoring_reference_on_registry_circuits() {
    for name in ["int2float", "dec", "cavlc"] {
        let network = flowc::logic::bench_suite::by_name(name)
            .unwrap()
            .network()
            .unwrap();
        let graph = BddGraph::from_bdds(&flowc::bdd::build_sbdd(&network, None));
        let greedy: HashSet<usize> = oct_heuristic(&graph.graph).into_iter().collect();
        let start = balanced_labeling(&graph, &greedy, true);
        for gamma in [0.0, 0.5] {
            let climbed = hill_climb(&graph, &start, gamma, true, &Budget::unlimited(), |_| {});
            assert_eq!(
                climbed,
                reference_hill_climb(&graph, &start, gamma, true),
                "{name}, γ {gamma}"
            );
        }
    }
}

/// A labeling instance for the move scorer: a random graph (dense, or a
/// random tree with a few chords, whose many cut vertices the scorer must
/// split correctly), sometimes a second graph beside it and a few isolated
/// vertices; random roots and terminal; a valid transversal (the greedy
/// one plus random extra nodes).
fn gen_scoring_instance(rng: &mut Rng) -> (BddGraph, HashSet<usize>, bool) {
    let gen_part = |rng: &mut Rng| {
        let n = 1 + rng.below(30);
        if rng.coin() {
            return gen_small_graph(rng, n);
        }
        let mut g = UGraph::new(n);
        for v in 1..n {
            g.add_edge(v, rng.below(v));
        }
        for _ in 0..rng.below(n / 2 + 1) {
            let (u, v) = (rng.below(n), rng.below(n));
            if u != v {
                g.add_edge(u, v);
            }
        }
        g
    };
    let mut g = gen_part(rng);
    if rng.coin() {
        let h = gen_part(rng);
        let offset = g.num_vertices();
        for _ in 0..h.num_vertices() {
            g.add_vertex();
        }
        for &(u, v) in h.edges() {
            g.add_edge(u + offset, v + offset);
        }
    }
    for _ in 0..rng.below(4) {
        g.add_vertex();
    }
    let n = g.num_vertices();
    let roots = (0..rng.below(5)).map(|_| Some(rng.below(n))).collect();
    let terminal = rng.coin().then(|| rng.below(n));
    let mut vh: HashSet<usize> = oct_heuristic(&g).into_iter().collect();
    for v in 0..n {
        if rng.chance(0.1) {
            vh.insert(v);
        }
    }
    let graph = BddGraph {
        graph: g,
        labels: std::collections::HashMap::new(),
        terminal,
        roots,
        node_names: (0..n).map(|v| format!("n{v}")).collect(),
        num_inputs: 0,
    };
    (graph, vh, rng.coin())
}

/// Connected components of `g` without the nodes in `removed`.
fn components_without(g: &UGraph, removed: &HashSet<usize>) -> usize {
    let keep: Vec<bool> = (0..g.num_vertices())
        .map(|v| !removed.contains(&v))
        .collect();
    g.induced_subgraph(&keep).0.components().1
}

#[test]
fn move_scorer_matches_a_full_relabeling() {
    // Cases seen: several parts, an isolated node, an aligned cut vertex,
    // a cut vertex that roots its part's DFS (the scorer starts each DFS
    // at the part's lowest-index node).
    let seen = [(); 4].map(|_| std::cell::Cell::new(0usize));
    harness("move_scorer_matches_a_full_relabeling").check(|rng| {
        let (graph, vh, align) = gen_scoring_instance(rng);
        let g = &graph.graph;
        let mut scorer = MoveScorer::new(&graph, &vh, align);
        let parts = components_without(g, &vh);
        let keep: Vec<bool> = (0..g.num_vertices()).map(|v| !vh.contains(&v)).collect();
        let (sub, back) = g.induced_subgraph(&keep);
        let (comp, _) = sub.components();
        let mut part_min = vec![usize::MAX; parts];
        for (s, &v) in back.iter().enumerate() {
            part_min[comp[s]] = part_min[comp[s]].min(v);
        }
        let aligned: HashSet<usize> = graph
            .roots
            .iter()
            .flatten()
            .chain(&graph.terminal)
            .copied()
            .collect();
        for (s, &v) in back.iter().enumerate() {
            let mut with = vh.clone();
            with.insert(v);
            assert_eq!(
                scorer.score(v),
                balanced_labeling(&graph, &with, align).stats(),
                "node {v}, align {align}, vh {vh:?}, edges {:?}",
                g.edges()
            );
            let cut = components_without(g, &with) > parts;
            let hits = [
                parts >= 2,
                sub.degree(s) == 0,
                cut && align && aligned.contains(&v),
                cut && part_min[comp[s]] == v,
            ];
            for (count, hit) in seen.iter().zip(hits) {
                count.set(count.get() + usize::from(hit));
            }
        }
    });
    for (what, count) in [
        "several parts",
        "isolated node",
        "aligned cut vertex",
        "DFS root cut vertex",
    ]
    .iter()
    .zip(&seen)
    {
        assert!(count.get() > 0, "no case scored a move on a {what}");
    }
}

#[test]
fn bdd_graph_edges_have_literals_and_no_zero_terminal() {
    harness("bdd_graph_edges_have_literals_and_no_zero_terminal").check_network(
        &NetworkGen::new(5, 12),
        |network, _rng| {
            let bdds = flowc::bdd::build_sbdd(network, None);
            let g = BddGraph::from_bdds(&bdds);
            // Every edge is labelled.
            assert_eq!(g.labels.len(), g.num_edges());
            // Node count is the BDD size minus the dropped 0-terminal (when the
            // forest is non-trivial).
            let size = bdds.manager.size(&bdds.roots);
            let zero_reachable = bdds
                .manager
                .reachable(&bdds.roots)
                .contains(&flowc::bdd::Ref::ZERO);
            let expected = if zero_reachable { size - 1 } else { size };
            assert_eq!(g.num_nodes(), expected);
        },
    );
}

#[test]
fn blif_roundtrip_preserves_semantics() {
    harness("blif_roundtrip_preserves_semantics").check_network(
        &NetworkGen::new(4, 10),
        |network, _rng| {
            let text = flowc::logic::blif::write(network);
            let back = flowc::logic::blif::parse(&text).expect("own output parses");
            for bits in 0..1usize << 4 {
                let assignment: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
                assert_eq!(
                    back.simulate(&assignment).expect("simulates"),
                    network.simulate(&assignment).expect("simulates")
                );
            }
        },
    );
}

#[test]
fn nor_decomposition_is_equivalent() {
    harness("nor_decomposition_is_equivalent").check_network(
        &NetworkGen::new(5, 12),
        |network, _rng| {
            let nor = flowc::baselines::magic::NorNetlist::from_network(network);
            // All 32 assignments in lanes 0..32 of one 64-lane call.
            let words: Vec<u64> = (0..5)
                .map(|i| (0..32u64).fold(0, |w, bits| w | (bits >> i & 1) << bits))
                .collect();
            assert_eq!(
                nor.eval64(&words).expect("arity matches"),
                network.simulate64(&words).expect("simulates")
            );
        },
    );
}

#[test]
fn wide_crossbar_evaluation_matches_scalar() {
    harness("wide_crossbar_evaluation_matches_scalar").check_network(
        &NetworkGen::new(6, 12),
        |network, rng| {
            let r = synthesize(network, &Config::default()).expect("synthesis succeeds");
            // 64 random assignments, evaluated wide and lane-by-lane.
            let k = network.num_inputs();
            let mut words = vec![0u64; k];
            for w in &mut words {
                *w = rng.next();
            }
            let wide = r.crossbar.evaluate64(&words).expect("evaluable");
            for lane in 0..64u64 {
                let assignment: Vec<bool> = (0..k).map(|i| words[i] >> lane & 1 == 1).collect();
                let scalar = r.crossbar.evaluate(&assignment).expect("evaluable");
                for (j, &s) in scalar.iter().enumerate() {
                    assert_eq!(wide[j] >> lane & 1 == 1, s, "lane {lane} out {j}");
                }
            }
        },
    );
}

#[test]
fn simplify_and_binarize_preserve_synthesis() {
    harness("simplify_and_binarize_preserve_synthesis").check_network(
        &NetworkGen::new(5, 10),
        |network, _rng| {
            use flowc::logic::xform::{binarize, simplify};
            let simplified = simplify(network).expect("valid");
            let binary = binarize(network).expect("valid");
            for bits in 0..1usize << 5 {
                let assignment: Vec<bool> = (0..5).map(|i| bits >> i & 1 == 1).collect();
                let want = network.simulate(&assignment).expect("simulates");
                assert_eq!(simplified.simulate(&assignment).expect("simulates"), want);
                assert_eq!(binary.simulate(&assignment).expect("simulates"), want);
            }
            // Canonical SBDD sizes agree across the semantic-preserving forms.
            let base = flowc::bdd::build_sbdd(network, None).shared_size();
            let simp = flowc::bdd::build_sbdd(&simplified, None).shared_size();
            let bin = flowc::bdd::build_sbdd(&binary, None).shared_size();
            assert_eq!(base, simp);
            assert_eq!(base, bin);
        },
    );
}

#[test]
fn milp_solver_matches_brute_force_on_random_01_programs() {
    harness("milp_solver_matches_brute_force_on_random_01_programs").check(|rng| {
        use flowc::milp::{BranchBound, MilpError, Model, Sense};
        let n = rng.range(2, 7);
        let costs: Vec<i64> = (0..n).map(|_| rng.below(11) as i64 - 5).collect();
        let mut model = Model::new();
        let vars: Vec<_> = costs
            .iter()
            .enumerate()
            .map(|(i, &c)| model.add_binary(format!("x{i}"), c as f64))
            .collect();
        let mut constraints = Vec::new();
        for _ in 0..rng.below(6) {
            let coeffs: Vec<i64> = (0..n).map(|_| rng.below(7) as i64 - 3).collect();
            let sense = match rng.below(3) {
                0 => Sense::Le,
                1 => Sense::Ge,
                _ => Sense::Eq,
            };
            let rhs = rng.below(11) as i64 - 4;
            let terms: Vec<_> = vars
                .iter()
                .zip(&coeffs)
                .map(|(&v, &c)| (v, c as f64))
                .collect();
            model.add_constraint(&terms, sense, rhs as f64);
            constraints.push((coeffs, sense, rhs));
        }
        // Brute force.
        let mut best: Option<i64> = None;
        for mask in 0..1usize << n {
            let feasible = constraints.iter().all(|(coeffs, sense, rhs)| {
                let lhs: i64 = (0..n).map(|i| coeffs[i] * ((mask >> i & 1) as i64)).sum();
                match sense {
                    Sense::Le => lhs <= *rhs,
                    Sense::Ge => lhs >= *rhs,
                    Sense::Eq => lhs == *rhs,
                }
            });
            if feasible {
                let obj: i64 = (0..n).map(|i| costs[i] * ((mask >> i & 1) as i64)).sum();
                best = Some(best.map_or(obj, |b: i64| b.min(obj)));
            }
        }
        match (BranchBound::new().solve(&model), best) {
            (Ok(sol), Some(expect)) => {
                assert!(
                    (sol.objective - expect as f64).abs() < 1e-6,
                    "solver {} vs brute force {}",
                    sol.objective,
                    expect
                );
                assert!(model.is_feasible(&sol.values, 1e-6));
            }
            (Err(MilpError::Infeasible), None) => {}
            (got, want) => {
                panic!("solver {got:?} disagrees with brute force {want:?}");
            }
        }
    });
}

#[test]
fn vertex_cover_is_minimum_on_small_graphs() {
    harness("vertex_cover_is_minimum_on_small_graphs").check(|rng| {
        let g = gen_small_graph(rng, 10);
        let budget = Budget::unlimited().with_deadline(Duration::from_secs(5));
        let r = flowc::graph::minimum_vertex_cover(&g, &budget, None);
        assert!(r.optimal);
        // Valid cover.
        let set: HashSet<usize> = r.cover.iter().copied().collect();
        for &(u, v) in g.edges() {
            assert!(set.contains(&u) || set.contains(&v));
        }
        // Brute-force optimum matches.
        let n = g.num_vertices();
        let best = (0..1usize << n)
            .filter(|&mask| {
                g.edges()
                    .iter()
                    .all(|&(u, v)| mask >> u & 1 == 1 || mask >> v & 1 == 1)
            })
            .map(|mask| mask.count_ones() as usize)
            .min()
            .unwrap_or(0);
        assert_eq!(r.cover.len(), best);
        assert_eq!(r.lower_bound, best);
    });
}

const NIL: usize = usize::MAX;

/// The vertex-cover branch & bound computed from scratch at every node: a
/// fresh Hopcroft–Karp matching per bound, a greedy-matching tier before
/// it, full-sweep `reduce` and per-level copies of the residual graph.
struct ReferenceVcSolver<'g> {
    g: &'g UGraph,
    n: usize,
    best_cover: Vec<usize>,
    budget: Budget,
    timed_out: bool,
    /// Smallest unexplored lower bound among pruned-by-timeout subtrees.
    open_bound: Option<usize>,
    /// Branch & bound nodes expanded.
    nodes: u64,
    // Scratch, valid only within one bound evaluation.
    mate: Vec<usize>,
    pair_left: Vec<usize>,
    pair_right: Vec<usize>,
    dist: Vec<usize>,
    queue: std::collections::VecDeque<usize>,
}

impl<'g> ReferenceVcSolver<'g> {
    fn new(g: &'g UGraph, best_cover: Vec<usize>, budget: Budget) -> Self {
        let n = g.num_vertices();
        ReferenceVcSolver {
            g,
            n,
            best_cover,
            budget,
            timed_out: false,
            open_bound: None,
            nodes: 0,
            mate: vec![NIL; n],
            pair_left: vec![NIL; n],
            pair_right: vec![NIL; n],
            dist: vec![0; n],
            queue: std::collections::VecDeque::new(),
        }
    }

    /// Removes `v` from the residual graph, maintaining alive degrees.
    fn kill(&self, alive: &mut [bool], deg: &mut [usize], v: usize) {
        alive[v] = false;
        for &w in self.g.neighbors(v) {
            if alive[w] {
                deg[w] -= 1;
            }
        }
        deg[v] = 0;
    }

    /// Applies degree-0/degree-1 reductions plus the triangle rule (a
    /// degree-2 vertex with adjacent neighbors puts both neighbors into
    /// some minimum cover) until none fires.
    fn reduce(&self, alive: &mut [bool], deg: &mut [usize], chosen: &mut Vec<usize>) {
        loop {
            let mut changed = false;
            for v in 0..self.n {
                if !alive[v] {
                    continue;
                }
                match deg[v] {
                    0 => {
                        alive[v] = false;
                        changed = true;
                    }
                    1 => {
                        // Pendant vertex: take the neighbor.
                        let w = self
                            .g
                            .neighbors(v)
                            .iter()
                            .copied()
                            .find(|&w| alive[w])
                            .expect("degree-1 vertex has an alive neighbor");
                        chosen.push(w);
                        self.kill(alive, deg, w);
                        alive[v] = false;
                        changed = true;
                    }
                    2 => {
                        let mut nbrs = self.g.neighbors(v).iter().copied().filter(|&w| alive[w]);
                        let a = nbrs.next().expect("degree-2 vertex");
                        let b = nbrs.next().expect("degree-2 vertex");
                        if self.g.has_edge(a, b) {
                            chosen.push(a);
                            chosen.push(b);
                            self.kill(alive, deg, a);
                            self.kill(alive, deg, b);
                            alive[v] = false;
                            changed = true;
                        }
                    }
                    _ => {}
                }
            }
            if !changed {
                return;
            }
        }
    }

    /// A maximal matching of the residual graph. Its edges are disjoint and
    /// each needs a cover vertex, so the size is a valid (cheap, O(E))
    /// lower bound on the residual cover.
    fn greedy_matching_bound(&mut self, alive: &[bool]) -> usize {
        for v in 0..self.n {
            self.mate[v] = NIL;
        }
        let mut size = 0;
        for v in 0..self.n {
            if !alive[v] || self.mate[v] != NIL {
                continue;
            }
            for i in 0..self.g.neighbors(v).len() {
                let w = self.g.neighbors(v)[i];
                if alive[w] && self.mate[w] == NIL {
                    self.mate[v] = w;
                    self.mate[w] = v;
                    size += 1;
                    break;
                }
            }
        }
        size
    }

    /// The half-integral LP bound of the residual graph: half the maximum
    /// matching of its bipartite double, by Hopcroft–Karp over the solver's
    /// scratch buffers (the double is symmetric, so left = right = V).
    fn lp_bound(&mut self, alive: &[bool]) -> usize {
        for v in 0..self.n {
            self.pair_left[v] = NIL;
            self.pair_right[v] = NIL;
        }
        let mut size = 0usize;
        // Greedy seed cuts the number of augmentation phases.
        for u in 0..self.n {
            if !alive[u] {
                continue;
            }
            for i in 0..self.g.neighbors(u).len() {
                let v = self.g.neighbors(u)[i];
                if alive[v] && self.pair_right[v] == NIL {
                    self.pair_left[u] = v;
                    self.pair_right[v] = u;
                    size += 1;
                    break;
                }
            }
        }
        loop {
            // BFS layering from free alive vertices.
            self.queue.clear();
            let mut found = false;
            for (u, &live) in alive.iter().enumerate().take(self.n) {
                if live && self.pair_left[u] == NIL {
                    self.dist[u] = 0;
                    self.queue.push_back(u);
                } else {
                    self.dist[u] = NIL;
                }
            }
            while let Some(u) = self.queue.pop_front() {
                for i in 0..self.g.neighbors(u).len() {
                    let v = self.g.neighbors(u)[i];
                    if !alive[v] {
                        continue;
                    }
                    let w = self.pair_right[v];
                    if w == NIL {
                        found = true;
                    } else if self.dist[w] == NIL {
                        self.dist[w] = self.dist[u] + 1;
                        self.queue.push_back(w);
                    }
                }
            }
            if !found {
                break;
            }
            for u in 0..self.n {
                if alive[u] && self.pair_left[u] == NIL && self.augment(u, alive) {
                    size += 1;
                }
            }
        }
        size.div_ceil(2)
    }

    fn augment(&mut self, u: usize, alive: &[bool]) -> bool {
        for i in 0..self.g.neighbors(u).len() {
            let v = self.g.neighbors(u)[i];
            if !alive[v] {
                continue;
            }
            let w = self.pair_right[v];
            if w == NIL || (self.dist[w] == self.dist[u] + 1 && self.augment(w, alive)) {
                self.pair_left[u] = v;
                self.pair_right[v] = u;
                return true;
            }
        }
        self.dist[u] = NIL;
        false
    }

    fn rec(&mut self, mut alive: Vec<bool>, mut deg: Vec<usize>, mut chosen: Vec<usize>) {
        self.nodes += 1;
        if self.budget.check().is_err() {
            self.timed_out = true;
            // This subtree stays open: its chosen-so-far size is a valid
            // subtree lower bound contribution.
            let lb = chosen.len();
            self.open_bound = Some(self.open_bound.map_or(lb, |b| b.min(lb)));
            return;
        }
        self.reduce(&mut alive, &mut deg, &mut chosen);
        if chosen.len() >= self.best_cover.len() {
            return; // cannot improve
        }
        // Branch on the highest-degree alive vertex; edge-free residuals
        // close the node with a strictly better cover.
        let branch_vertex = match (0..self.n).filter(|&v| deg[v] > 0).max_by_key(|&v| deg[v]) {
            Some(v) => v,
            None => {
                self.best_cover = chosen;
                return;
            }
        };
        // Two-tier bound: the maximal-matching bound is nearly free and
        // prunes most nodes; survivors pay for the exact LP bound.
        let cheap = chosen.len() + self.greedy_matching_bound(&alive);
        if cheap >= self.best_cover.len() {
            return;
        }
        if chosen.len() + self.lp_bound(&alive) >= self.best_cover.len() {
            return;
        }
        // Branch include-N(v) first: stronger when the branch vertex has
        // high degree, which the selection maximizes.
        {
            let mut a = alive.clone();
            let mut d = deg.clone();
            let mut c = chosen.clone();
            for i in 0..self.g.neighbors(branch_vertex).len() {
                let w = self.g.neighbors(branch_vertex)[i];
                if a[w] {
                    c.push(w);
                    self.kill(&mut a, &mut d, w);
                }
            }
            a[branch_vertex] = false;
            self.rec(a, d, c);
        }
        {
            chosen.push(branch_vertex);
            self.kill(&mut alive, &mut deg, branch_vertex);
            self.rec(alive, deg, chosen);
        }
    }
}

/// `minimum_vertex_cover` on one thread over `ReferenceVcSolver`. The
/// incremental solver must expand the same search tree: the same cover,
/// node count, lower bound and optimality flag.
fn reference_vertex_cover(g: &UGraph, budget: &Budget, seed: Option<&[usize]>) -> VcResult {
    let (comp, count) = g.components();
    let mut cover = Vec::new();
    let mut lower_bound = 0usize;
    let mut optimal = true;
    let mut nodes = 0u64;
    // König-solvable bipartite components are handled inline; branch &
    // bound components are collected and solved in component order.
    let mut hard: Vec<(UGraph, Vec<usize>, Option<Vec<usize>>)> = Vec::new();
    for c in 0..count {
        let keep: Vec<bool> = comp.iter().map(|&x| x == c).collect();
        let (sub, back) = g.induced_subgraph(&keep);
        if sub.num_edges() == 0 {
            continue;
        }
        match two_color(&sub) {
            ColorResult::Bipartite(colors) => {
                let local = reference_bipartite_cover(&sub, &colors);
                lower_bound += local.len();
                cover.extend(local.into_iter().map(|v| back[v]));
            }
            ColorResult::OddCycle(_) => {
                let local_seed = seed.map(|seed| {
                    let mut inv = vec![NIL; g.num_vertices()];
                    for (k, &orig) in back.iter().enumerate() {
                        inv[orig] = k;
                    }
                    seed.iter()
                        .filter_map(|&v| (inv[v] != NIL).then_some(inv[v]))
                        .collect()
                });
                hard.push((sub, back, local_seed));
            }
        }
    }
    let solved: Vec<VcResult> = hard
        .iter()
        .map(|(sub, _back, local_seed)| {
            reference_vc_nonbipartite(sub, budget, local_seed.as_deref())
        })
        .collect();
    for ((_sub, back, _seed), local) in hard.iter().zip(solved) {
        lower_bound += local.lower_bound;
        optimal &= local.optimal;
        nodes += local.nodes;
        cover.extend(local.cover.into_iter().map(|v| back[v]));
    }
    cover.sort_unstable();
    cover.dedup();
    VcResult {
        cover,
        optimal,
        lower_bound,
        nodes,
    }
}

/// Exact minimum vertex cover of a bipartite graph via König's theorem.
fn reference_bipartite_cover(g: &UGraph, colors: &[u8]) -> Vec<usize> {
    // Left = color-0 vertices, right = color-1 vertices.
    let n = g.num_vertices();
    let mut left_ids = Vec::new();
    let mut right_ids = Vec::new();
    let mut pos = vec![usize::MAX; n];
    for v in 0..n {
        if colors[v] == 0 {
            pos[v] = left_ids.len();
            left_ids.push(v);
        } else {
            pos[v] = right_ids.len();
            right_ids.push(v);
        }
    }
    let mut adj = vec![Vec::new(); left_ids.len()];
    for &(u, v) in g.edges() {
        let (l, r) = if colors[u] == 0 { (u, v) } else { (v, u) };
        adj[pos[l]].push(pos[r]);
    }
    let m = hopcroft_karp(&adj, right_ids.len());
    let (cl, cr) = konig_cover(&adj, &m);
    let mut cover = Vec::new();
    for (i, &inc) in cl.iter().enumerate() {
        if inc {
            cover.push(left_ids[i]);
        }
    }
    for (i, &inc) in cr.iter().enumerate() {
        if inc {
            cover.push(right_ids[i]);
        }
    }
    cover
}

/// NT kernelization + branch & bound for one non-bipartite component.
fn reference_vc_nonbipartite(g: &UGraph, budget: &Budget, seed: Option<&[usize]>) -> VcResult {
    let nt = nt_kernel(g);
    // Solve the kernel.
    let mut keep = vec![false; g.num_vertices()];
    for &v in &nt.kernel {
        keep[v] = true;
    }
    let (kernel_graph, back) = g.induced_subgraph(&keep);
    let mut incumbent = greedy_cover(&kernel_graph);
    if let Some(seed) = seed {
        // A cover of `g` restricted to the kernel covers the kernel graph.
        let mut inv = vec![NIL; g.num_vertices()];
        for (k, &orig) in back.iter().enumerate() {
            inv[orig] = k;
        }
        let restricted: Vec<usize> = seed
            .iter()
            .filter_map(|&v| (inv[v] != NIL).then_some(inv[v]))
            .collect();
        if restricted.len() < incumbent.len() {
            incumbent = restricted;
        }
    }
    let mut solver = ReferenceVcSolver::new(&kernel_graph, incumbent, budget.clone());
    let alive = vec![true; kernel_graph.num_vertices()];
    let deg: Vec<usize> = (0..kernel_graph.num_vertices())
        .map(|v| kernel_graph.degree(v))
        .collect();
    solver.rec(alive, deg, Vec::new());

    let mut cover: Vec<usize> = nt.forced_in.clone();
    cover.extend(solver.best_cover.iter().map(|&v| back[v]));
    cover.sort_unstable();
    cover.dedup();

    let kernel_lp = lp_lower_bound(&kernel_graph).ceil() as usize;
    let kernel_lb = if solver.timed_out {
        // The optimum is min(best found, optima of subtrees left open); each
        // open subtree's optimum is at least its chosen-so-far size. The LP
        // bound is always valid, so take the stronger of the two.
        let open = solver
            .open_bound
            .map_or(solver.best_cover.len(), |b| b.min(solver.best_cover.len()));
        kernel_lp.max(open.min(solver.best_cover.len()))
    } else {
        solver.best_cover.len()
    };
    VcResult {
        optimal: !solver.timed_out,
        lower_bound: nt.forced_in.len() + kernel_lb,
        cover,
        nodes: solver.nodes,
    }
}

/// A vertex cover of `g` that need not be minimum: the complement of a
/// maximal independent set grown in random order. It sometimes beats the
/// greedy cover, so seeding it changes the incumbent.
fn random_cover(g: &UGraph, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..g.num_vertices()).collect();
    shuffle(rng, &mut order);
    let mut independent = vec![false; g.num_vertices()];
    for v in order {
        if g.neighbors(v).iter().all(|&w| !independent[w]) {
            independent[v] = true;
        }
    }
    (0..g.num_vertices()).filter(|&v| !independent[v]).collect()
}

/// Solves `g` unseeded and seeded with a random cover, by
/// `minimum_vertex_cover` and by the reference, and asserts the results
/// agree. Returns whether some search branched.
fn assert_vertex_cover_matches_the_reference(g: &UGraph, rng: &mut Rng) -> bool {
    let cover = random_cover(g, rng);
    let mut branched = false;
    for seed in [None, Some(cover.as_slice())] {
        let want = reference_vertex_cover(g, &Budget::unlimited(), seed);
        let got = minimum_vertex_cover(g, &Budget::unlimited(), seed);
        assert_eq!(
            (&got.cover, got.nodes, got.lower_bound, got.optimal),
            (&want.cover, want.nodes, want.lower_bound, want.optimal),
            "seeded: {}",
            seed.is_some()
        );
        branched |= want.nodes > 1;
    }
    branched
}

#[test]
fn vertex_cover_matches_the_reference_on_random_graphs() {
    let branched = std::cell::Cell::new(false);
    harness("vertex_cover_matches_the_reference_on_random_graphs").check(|rng| {
        let g = if rng.coin() {
            let n = 1 + rng.below(40);
            gen_small_graph(rng, n)
        } else {
            let n = 1 + rng.below(20);
            cartesian_with_k2(&gen_small_graph(rng, n))
        };
        if assert_vertex_cover_matches_the_reference(&g, rng) {
            branched.set(true);
        }
    });
    assert!(branched.get(), "no case branched");
}

#[test]
fn vertex_cover_matches_the_reference_on_bdd_graphs() {
    let branched = std::cell::Cell::new(false);
    harness("vertex_cover_matches_the_reference_on_bdd_graphs").check_network(
        &NetworkGen::new(6, 30),
        |network, rng| {
            let graph = BddGraph::from_bdds(&flowc::bdd::build_sbdd(network, None)).graph;
            for g in [cartesian_with_k2(&graph), graph] {
                if assert_vertex_cover_matches_the_reference(&g, rng) {
                    branched.set(true);
                }
            }
        },
    );
    assert!(branched.get(), "no case branched");
}

/// The greedy cover as it was written before its max-degree pick went
/// through a heap: every pick rescans all vertices for the last maximum
/// degree. Kept verbatim; `greedy_cover` must make exactly its picks.
fn reference_greedy_cover(g: &UGraph) -> Vec<usize> {
    let n = g.num_vertices();
    let mut deg: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
    let mut alive = vec![true; n];
    let mut cover = Vec::new();
    let mut remaining = g.num_edges();
    while remaining > 0 {
        let v = (0..n)
            .filter(|&v| alive[v])
            .max_by_key(|&v| deg[v])
            .expect("edges remain, so a vertex does too");
        if deg[v] == 0 {
            break;
        }
        cover.push(v);
        alive[v] = false;
        for &w in g.neighbors(v) {
            if alive[w] {
                deg[w] -= 1;
                remaining -= 1;
            }
        }
        deg[v] = 0;
    }
    cover.sort_unstable();
    cover
}

#[test]
fn greedy_cover_matches_the_rescanning_reference() {
    harness("greedy_cover_matches_the_rescanning_reference").check(|rng| {
        let n = 1 + rng.below(60);
        let g = gen_small_graph(rng, n);
        for g in [cartesian_with_k2(&g), g] {
            assert_eq!(greedy_cover(&g), reference_greedy_cover(&g));
        }
    });
}

/// The dense two-phase primal simplex the bounded dual simplex replaced,
/// kept as it was (presolve, upper-bound rows, phase 1, Dantzig with a
/// Bland fallback) minus its budget checks. `Simplex` must agree with it
/// on status and objective.
mod reference_lp {
    use flowc::milp::lp::LpResult;
    use flowc::milp::{Model, Sense, VarId, VarKind};

    /// Numerical tolerance used throughout the simplex.
    const EPS: f64 = 1e-9;
    /// Iteration budget multiplier before declaring a stall (switch to Bland).
    const DANTZIG_LIMIT_FACTOR: usize = 4;

    pub fn reference_simplex(model: &Model, fixed: &[(usize, f64)]) -> LpResult {
        let ids: Vec<VarId> = model.var_ids().collect();
        let obj: Vec<f64> = ids.iter().map(|&v| model.objective_coeff(v)).collect();
        // Effective bounds per variable.
        let n = model.num_vars();
        let mut lb = vec![0.0f64; n];
        let mut ub = vec![f64::INFINITY; n];
        for (i, &v) in ids.iter().enumerate() {
            match model.var_kind(v) {
                VarKind::Binary => {
                    lb[i] = 0.0;
                    ub[i] = 1.0;
                }
                VarKind::Continuous { lb: l, ub: u } => {
                    lb[i] = l;
                    ub[i] = u;
                }
            }
        }
        for &(i, val) in fixed {
            lb[i] = val;
            ub[i] = val;
        }
        for i in 0..n {
            if lb[i] > ub[i] + EPS {
                return LpResult::Infeasible;
            }
            if !lb[i].is_finite() {
                // Free-below variables are not produced by this workspace;
                // clamp to a large negative box to stay dense-friendly.
                lb[i] = -1e12;
            }
        }

        // Shift x = lb + x', x' in [0, ub-lb]. Rewrite rows accordingly;
        // columns with zero range (fixed variables) are substituted out —
        // their shifted value is identically zero.
        let range: Vec<f64> = (0..n).map(|i| (ub[i] - lb[i]).max(0.0)).collect();
        let mut rows: Vec<Row> = Vec::with_capacity(model.num_constraints());
        for ci in 0..model.num_constraints() {
            let (terms, sense, rhs) = model.constraint(ci);
            let mut coeffs = vec![0.0; n];
            let mut rhs = rhs;
            for &(v, a) in terms {
                rhs -= a * lb[v.index()];
                if range[v.index()] > EPS {
                    coeffs[v.index()] += a;
                }
            }
            rows.push(Row {
                coeffs,
                sense,
                rhs,
                alive: true,
            });
        }

        let mut eliminated = vec![false; n];
        let mut elims: Vec<Elim> = Vec::new();
        if presolve(&obj, &range, &mut rows, &mut eliminated, &mut elims).is_err() {
            return LpResult::Infeasible;
        }

        // Compact the live columns and append their upper-bound rows.
        let cols: Vec<usize> = (0..n)
            .filter(|&i| range[i] > EPS && !eliminated[i])
            .collect();
        let k = cols.len();
        let mut trows: Vec<TRow> = Vec::with_capacity(rows.len() + k);
        for row in rows.iter().filter(|r| r.alive) {
            trows.push(TRow {
                coeffs: cols.iter().map(|&i| row.coeffs[i]).collect(),
                sense: row.sense,
                rhs: row.rhs,
            });
        }
        for (ci, &i) in cols.iter().enumerate() {
            if range[i].is_finite() {
                let mut coeffs = vec![0.0; k];
                coeffs[ci] = 1.0;
                trows.push(TRow {
                    coeffs,
                    sense: Sense::Le,
                    rhs: range[i],
                });
            }
        }

        // Normalize to nonnegative rhs.
        for r in &mut trows {
            if r.rhs < 0.0 {
                for c in &mut r.coeffs {
                    *c = -*c;
                }
                r.rhs = -r.rhs;
                r.sense = match r.sense {
                    Sense::Le => Sense::Ge,
                    Sense::Ge => Sense::Le,
                    Sense::Eq => Sense::Eq,
                };
            }
        }

        let m = trows.len();
        // Column layout: [structural k][slack/surplus s][artificial a][rhs].
        let num_slack = trows
            .iter()
            .filter(|r| !matches!(r.sense, Sense::Eq))
            .count();
        // A `≥` row with zero rhs needs no artificial: negating it turns
        // the surplus into a plain basic slack at value zero, so only
        // strictly positive `≥` rows (and equations) enter phase 1.
        let num_art = trows
            .iter()
            .filter(|r| match r.sense {
                Sense::Le => false,
                Sense::Ge => r.rhs > EPS,
                Sense::Eq => true,
            })
            .count();
        let total = k + num_slack + num_art;
        let mut t = vec![vec![0.0f64; total + 1]; m + 1];
        let mut basis = vec![usize::MAX; m];
        let mut slack_idx = k;
        let mut art_idx = k + num_slack;
        let mut art_cols: Vec<usize> = Vec::new();
        for (ri, row) in trows.iter().enumerate() {
            t[ri][..k].copy_from_slice(&row.coeffs);
            t[ri][total] = row.rhs;
            match row.sense {
                Sense::Le => {
                    t[ri][slack_idx] = 1.0;
                    basis[ri] = slack_idx;
                    slack_idx += 1;
                }
                Sense::Ge if row.rhs <= EPS => {
                    // a·x ≥ 0  ⇔  −a·x + s = 0 with s ≥ 0 basic.
                    for cell in t[ri].iter_mut().take(k) {
                        *cell = -*cell;
                    }
                    t[ri][total] = 0.0;
                    t[ri][slack_idx] = 1.0;
                    basis[ri] = slack_idx;
                    slack_idx += 1;
                }
                Sense::Ge => {
                    t[ri][slack_idx] = -1.0;
                    slack_idx += 1;
                    t[ri][art_idx] = 1.0;
                    basis[ri] = art_idx;
                    art_cols.push(art_idx);
                    art_idx += 1;
                }
                Sense::Eq => {
                    t[ri][art_idx] = 1.0;
                    basis[ri] = art_idx;
                    art_cols.push(art_idx);
                    art_idx += 1;
                }
            }
        }

        // Phase 1: minimize the sum of artificials.
        if !art_cols.is_empty() {
            for &c in &art_cols {
                t[m][c] = 1.0;
            }
            // Price out the artificial basis.
            for ri in 0..m {
                if art_cols.contains(&basis[ri]) {
                    let pivot_row: Vec<f64> = t[ri].clone();
                    for (j, obj) in t[m].iter_mut().enumerate() {
                        *obj -= pivot_row[j];
                    }
                }
            }
            match run_simplex(&mut t, &mut basis, total) {
                Pivots::Optimal => {}
                // Phase-1 objective is bounded by construction; unbounded
                // here indicates numerical trouble — treat as infeasible.
                Pivots::Unbounded => return LpResult::Infeasible,
            }
            if -t[m][total] > 1e-6 {
                return LpResult::Infeasible;
            }
            // Drive any remaining artificial out of the basis if possible.
            for ri in 0..m {
                if art_cols.contains(&basis[ri]) {
                    if let Some(j) = (0..k + num_slack).find(|&j| t[ri][j].abs() > 1e-7) {
                        pivot(&mut t, ri, j, total);
                        basis[ri] = j;
                    }
                }
            }
            // Zero the phase-1 objective row and forbid artificial columns.
            for cell in t[m].iter_mut().take(total + 1) {
                *cell = 0.0;
            }
            for row in t.iter_mut().take(m) {
                for &c in &art_cols {
                    row[c] = 0.0;
                }
            }
        }

        // Phase 2 objective (shifted model objective over structurals).
        for (ci, &i) in cols.iter().enumerate() {
            t[m][ci] = obj[i];
        }
        // Price out basic structural columns.
        for ri in 0..m {
            let b = basis[ri];
            if t[m][b].abs() > 0.0 {
                let coeff = t[m][b];
                let pivot_row: Vec<f64> = t[ri].clone();
                for (j, obj) in t[m].iter_mut().enumerate() {
                    *obj -= coeff * pivot_row[j];
                }
            }
        }
        match run_simplex(&mut t, &mut basis, total) {
            Pivots::Optimal => {}
            Pivots::Unbounded => return LpResult::Unbounded,
        }

        // Extract solution (shifted basics mapped back to model columns).
        let mut x = lb.clone();
        for ri in 0..m {
            if basis[ri] < k {
                x[cols[basis[ri]]] = lb[cols[basis[ri]]] + t[ri][total];
            }
        }
        // Reconstruct eliminated columns in reverse elimination order: a
        // later elimination's rows never mention an earlier eliminated
        // variable, so each step sees fully reconstructed neighbors.
        for e in elims.iter().rev() {
            match e {
                Elim::AtValue { var, value } => x[*var] = lb[*var] + value,
                Elim::Pair {
                    var,
                    range: r,
                    pos,
                    pos_coeff,
                    pos_rhs,
                    neg,
                    neg_coeff,
                    neg_rhs,
                } => {
                    let eval = |terms: &[(usize, f64)]| -> f64 {
                        terms.iter().map(|&(v, c)| c * (x[v] - lb[v])).sum()
                    };
                    let lo = ((pos_rhs - eval(pos)) / pos_coeff).max(0.0);
                    let hi = ((eval(neg) - neg_rhs) / neg_coeff).min(*r);
                    // Prefer an integral endpoint of the feasible interval.
                    let value = if lo <= EPS {
                        0.0
                    } else if hi >= r - EPS {
                        *r
                    } else {
                        lo.min(*r)
                    };
                    x[*var] = lb[*var] + value;
                }
            }
        }
        let objective = model.objective_value(&x);
        LpResult::Optimal { x, objective }
    }

    /// A shifted model row during presolve (dense coefficients over all
    /// structural columns; `alive == false` once dropped or replaced).
    struct Row {
        coeffs: Vec<f64>,
        sense: Sense,
        rhs: f64,
        alive: bool,
    }

    /// A compacted tableau row (dense over the surviving columns).
    struct TRow {
        coeffs: Vec<f64>,
        sense: Sense,
        rhs: f64,
    }

    /// Record of a presolve column elimination, for solution reconstruction.
    /// All coefficients and right-hand sides live in the *shifted* space
    /// (`x' = x − lb`), and `AtValue`/interval values are shifted too.
    enum Elim {
        /// The column was set to a fixed shifted value (favorable bound of a
        /// zero-cost variable, or an unconstrained column pinned at zero).
        AtValue { var: usize, value: f64 },
        /// Bounded Fourier–Motzkin elimination of a zero-cost column from one
        /// positive-coefficient `≥` row (`pos`) and one negative-coefficient
        /// `≥` row (`neg`); `pos_coeff`/`neg_coeff` are the magnitudes.
        Pair {
            var: usize,
            range: f64,
            pos: Vec<(usize, f64)>,
            pos_coeff: f64,
            pos_rhs: f64,
            neg: Vec<(usize, f64)>,
            neg_coeff: f64,
            neg_rhs: f64,
        },
    }

    /// Minimum and maximum activity of a shifted row over the box
    /// `x' ∈ [0, range]`, skipping numerically-zero coefficients.
    fn activity(coeffs: &[f64], range: &[f64]) -> (f64, f64) {
        let mut lo = 0.0f64;
        let mut hi = 0.0f64;
        for (i, &c) in coeffs.iter().enumerate() {
            if c > EPS {
                hi += c * range[i];
            } else if c < -EPS {
                lo += c * range[i];
            }
        }
        (lo, hi)
    }

    /// Drops a row as redundant if every box point satisfies it; reports
    /// `Err(())` if no box point can. Returns whether the row stays alive.
    fn vet_row(row: &mut Row, range: &[f64]) -> Result<(), ()> {
        let (lo, hi) = activity(&row.coeffs, range);
        match row.sense {
            Sense::Ge => {
                if hi < row.rhs - 1e-6 {
                    return Err(());
                }
                if lo >= row.rhs - EPS {
                    row.alive = false;
                }
            }
            Sense::Le => {
                if lo > row.rhs + 1e-6 {
                    return Err(());
                }
                if hi <= row.rhs + EPS {
                    row.alive = false;
                }
            }
            Sense::Eq => {
                if hi < row.rhs - 1e-6 || lo > row.rhs + 1e-6 {
                    return Err(());
                }
            }
        }
        Ok(())
    }

    /// Presolve on the shifted rows: activity-based row dropping with quick
    /// infeasibility detection, then elimination of zero-objective bounded
    /// columns that the relaxation can always set freely — either at a
    /// favorable bound (all occurrences relax the same way) or via bounded
    /// Fourier–Motzkin when the column sits between exactly one pair of
    /// opposing `≥` rows (the Eq. 4 orientation binaries). Returns `Err(())`
    /// when the rows are infeasible over the box.
    fn presolve(
        obj: &[f64],
        range: &[f64],
        rows: &mut Vec<Row>,
        eliminated: &mut [bool],
        elims: &mut Vec<Elim>,
    ) -> Result<(), ()> {
        let n = obj.len();
        for row in rows.iter_mut() {
            vet_row(row, range)?;
        }
        for j in 0..n {
            if obj[j] != 0.0 || range[j] <= EPS || !range[j].is_finite() {
                continue;
            }
            let occ: Vec<usize> = (0..rows.len())
                .filter(|&ri| rows[ri].alive && rows[ri].coeffs[j].abs() > EPS)
                .collect();
            // Direction each occurrence relaxes toward: +1 if the row loosens
            // as x_j grows, −1 if it tightens, 0 for equations (never touched).
            let dir = |ri: usize| -> i8 {
                let c = rows[ri].coeffs[j];
                match rows[ri].sense {
                    Sense::Eq => 0,
                    Sense::Ge => {
                        if c > 0.0 {
                            1
                        } else {
                            -1
                        }
                    }
                    Sense::Le => {
                        if c > 0.0 {
                            -1
                        } else {
                            1
                        }
                    }
                }
            };
            if occ.is_empty() {
                eliminated[j] = true;
                elims.push(Elim::AtValue { var: j, value: 0.0 });
            } else if occ.iter().all(|&ri| dir(ri) == 1) {
                // Every row loosens as x_j grows: pin at the upper bound.
                for &ri in &occ {
                    let c = rows[ri].coeffs[j];
                    rows[ri].rhs -= c * range[j];
                    rows[ri].coeffs[j] = 0.0;
                    vet_row(&mut rows[ri], range)?;
                }
                eliminated[j] = true;
                elims.push(Elim::AtValue {
                    var: j,
                    value: range[j],
                });
            } else if occ.iter().all(|&ri| dir(ri) == -1) {
                // Every row loosens as x_j shrinks: pin at zero.
                for &ri in &occ {
                    rows[ri].coeffs[j] = 0.0;
                    vet_row(&mut rows[ri], range)?;
                }
                eliminated[j] = true;
                elims.push(Elim::AtValue { var: j, value: 0.0 });
            } else if occ.len() == 2
                && rows[occ[0]].sense == Sense::Ge
                && rows[occ[1]].sense == Sense::Ge
                && (rows[occ[0]].coeffs[j] > 0.0) != (rows[occ[1]].coeffs[j] > 0.0)
            {
                let (pi, ni) = if rows[occ[0]].coeffs[j] > 0.0 {
                    (occ[0], occ[1])
                } else {
                    (occ[1], occ[0])
                };
                let a1 = rows[pi].coeffs[j];
                let a2 = -rows[ni].coeffs[j];
                let sparse = |ri: usize| -> Vec<(usize, f64)> {
                    rows[ri]
                        .coeffs
                        .iter()
                        .enumerate()
                        .filter(|&(v, &c)| v != j && c.abs() > EPS)
                        .map(|(v, &c)| (v, c))
                        .collect()
                };
                let (pos, neg) = (sparse(pi), sparse(ni));
                let (pos_rhs, neg_rhs) = (rows[pi].rhs, rows[ni].rhs);
                rows[pi].alive = false;
                rows[ni].alive = false;
                // x_j ∈ [0, u] exists between the two rows iff:
                //   pos at x_j = u:   rest_pos ≥ pos_rhs − a1·u
                //   neg at x_j = 0:   rest_neg ≥ neg_rhs
                //   cross pair:       a2·rest_pos + a1·rest_neg ≥ a2·pos_rhs + a1·neg_rhs
                let mut fresh = Vec::with_capacity(3);
                let mut at_upper = vec![0.0; n];
                for &(v, c) in &pos {
                    at_upper[v] = c;
                }
                fresh.push(Row {
                    coeffs: at_upper,
                    sense: Sense::Ge,
                    rhs: pos_rhs - a1 * range[j],
                    alive: true,
                });
                let mut at_zero = vec![0.0; n];
                for &(v, c) in &neg {
                    at_zero[v] = c;
                }
                fresh.push(Row {
                    coeffs: at_zero,
                    sense: Sense::Ge,
                    rhs: neg_rhs,
                    alive: true,
                });
                let mut cross = vec![0.0; n];
                for &(v, c) in &pos {
                    cross[v] += a2 * c;
                }
                for &(v, c) in &neg {
                    cross[v] += a1 * c;
                }
                fresh.push(Row {
                    coeffs: cross,
                    sense: Sense::Ge,
                    rhs: a2 * pos_rhs + a1 * neg_rhs,
                    alive: true,
                });
                for mut row in fresh {
                    vet_row(&mut row, range)?;
                    if row.alive {
                        rows.push(row);
                    }
                }
                eliminated[j] = true;
                elims.push(Elim::Pair {
                    var: j,
                    range: range[j],
                    pos,
                    pos_coeff: a1,
                    pos_rhs,
                    neg,
                    neg_coeff: a2,
                    neg_rhs,
                });
            }
        }
        Ok(())
    }

    /// How a run of simplex iterations ended.
    enum Pivots {
        Optimal,
        Unbounded,
    }

    /// Runs primal simplex iterations on the tableau until optimal or
    /// unbounded.
    fn run_simplex(t: &mut [Vec<f64>], basis: &mut [usize], total: usize) -> Pivots {
        let m = t.len() - 1;
        let dantzig_limit = DANTZIG_LIMIT_FACTOR * (m + total) + 200;
        let mut iters = 0usize;
        loop {
            iters += 1;
            let bland = iters > dantzig_limit;
            // Entering column: most negative reduced cost (Dantzig), or first
            // negative (Bland, guaranteed finite).
            let mut enter = usize::MAX;
            let mut best = -EPS;
            for (j, &rc) in t[m].iter().enumerate().take(total) {
                if rc < -EPS {
                    if bland {
                        enter = j;
                        break;
                    }
                    if rc < best {
                        best = rc;
                        enter = j;
                    }
                }
            }
            if enter == usize::MAX {
                return Pivots::Optimal;
            }
            // Leaving row: minimum ratio, ties by smallest basis index (Bland).
            let mut leave = usize::MAX;
            let mut best_ratio = f64::INFINITY;
            for ri in 0..m {
                let a = t[ri][enter];
                if a > EPS {
                    let ratio = t[ri][total] / a;
                    if ratio < best_ratio - EPS
                        || (ratio < best_ratio + EPS
                            && (leave == usize::MAX || basis[ri] < basis[leave]))
                    {
                        best_ratio = ratio;
                        leave = ri;
                    }
                }
            }
            if leave == usize::MAX {
                return Pivots::Unbounded;
            }
            pivot(t, leave, enter, total);
            basis[leave] = enter;
        }
    }

    /// Gauss-Jordan pivot on (`row`, `col`).
    fn pivot(t: &mut [Vec<f64>], row: usize, col: usize, total: usize) {
        let piv = t[row][col];
        debug_assert!(piv.abs() > EPS, "pivot too small");
        for cell in t[row].iter_mut().take(total + 1) {
            *cell /= piv;
        }
        // Take the pivot row out so the other rows can borrow it; it goes back
        // unchanged.
        let pivot_row = std::mem::take(&mut t[row]);
        for (ri, r) in t.iter_mut().enumerate() {
            if ri == row {
                continue;
            }
            let factor = r[col];
            if factor.abs() > 0.0 {
                for j in 0..=total {
                    r[j] -= factor * pivot_row[j];
                }
            }
        }
        t[row] = pivot_row;
    }
}

/// Whether `x` satisfies `model`'s relaxation under `fixed`: every column
/// within its bounds (binaries in `[0, 1]`), every fixing and every row, to
/// `tol` scaled by the row's magnitude.
fn lp_feasible(model: &Model, fixed: &[(usize, f64)], x: &[f64], tol: f64) -> bool {
    let in_bounds = model
        .var_ids()
        .zip(x)
        .all(|(v, &xi)| match model.var_kind(v) {
            VarKind::Binary => (-tol..=1.0 + tol).contains(&xi),
            VarKind::Continuous { lb, ub } => xi >= lb - tol && xi <= ub + tol,
        });
    let fixings = fixed.iter().all(|&(i, val)| (x[i] - val).abs() <= tol);
    let rows = (0..model.num_constraints()).all(|ci| {
        let (terms, sense, rhs) = model.constraint(ci);
        let lhs: f64 = terms.iter().map(|&(v, a)| a * x[v.index()]).sum();
        let scale = 1.0 + rhs.abs() + terms.iter().map(|&(_, a)| a.abs()).sum::<f64>();
        match sense {
            Sense::Le => lhs <= rhs + tol * scale,
            Sense::Ge => lhs >= rhs - tol * scale,
            Sense::Eq => (lhs - rhs).abs() <= tol * scale,
        }
    });
    in_bounds && fixings && rows
}

/// Solves `model` under `fixed` with both simplexes and checks they agree:
/// the same status, objectives within 1e-6, and a point the model accepts.
/// Returns the status the two agree on.
fn assert_lp_matches_the_reference(model: &Model, fixed: &[(usize, f64)]) -> LpResult {
    let want = reference_lp::reference_simplex(model, fixed);
    let got = Simplex::new().solve(model, fixed);
    match (&got, &want) {
        (
            LpResult::Optimal { x, objective },
            LpResult::Optimal {
                objective: reference,
                ..
            },
        ) => {
            assert!(
                (objective - reference).abs() <= 1e-6 * reference.abs().max(1.0),
                "objective {objective} vs reference {reference}"
            );
            assert!(
                (model.objective_value(x) - objective).abs() <= 1e-9 * objective.abs().max(1.0),
                "objective {objective} is not the point's"
            );
            assert!(lp_feasible(model, fixed, x, 1e-6), "infeasible point {x:?}");
        }
        (got, want) => assert_eq!(got, want),
    }
    got
}

/// Fixes each binary of `model` to a random 0 or 1 with probability `p`.
fn random_fixings(model: &Model, rng: &mut Rng, p: f64) -> Vec<(usize, f64)> {
    let mut fixed = Vec::new();
    for v in model.binaries() {
        if rng.chance(p) {
            fixed.push((v.index(), rng.below(2) as f64));
        }
    }
    fixed
}

/// A column of a random model: a binary or a boxed continuous, whose cost
/// may be negative when `negative` is set, or a continuous with no upper
/// bound and a nonnegative cost (`random_ray_model` adds the negative one).
fn random_column(m: &mut Model, rng: &mut Rng, i: usize, negative: bool) -> VarId {
    let cost = rng.below(9) as f64 - if negative { 4.0 } else { 0.0 };
    match rng.below(4) {
        0 | 1 => m.add_binary(format!("b{i}"), cost),
        2 => {
            let lb = rng.below(3) as f64 - 1.0;
            m.add_continuous(format!("c{i}"), lb, lb + 1.0 + rng.below(4) as f64, cost)
        }
        _ => m.add_continuous(format!("u{i}"), 0.0, f64::INFINITY, cost.abs()),
    }
}

/// Random covering (`≥`, nonnegative terms), packing (`≤`, nonnegative
/// terms) and mixed-sign rows of every sense over mixed columns. Most rows
/// admit a hidden integral point of the box; one in twenty is unrestricted
/// and may make the model infeasible.
fn random_mixed_model(rng: &mut Rng) -> Model {
    let mut m = Model::new();
    let n = rng.range(1, 13);
    let negative = rng.coin();
    let vars: Vec<VarId> = (0..n)
        .map(|i| random_column(&mut m, rng, i, negative))
        .collect();
    let hidden: Vec<f64> = vars
        .iter()
        .map(|&v| match m.var_kind(v) {
            VarKind::Binary => rng.below(2) as f64,
            VarKind::Continuous { lb, ub } => {
                lb + rng.below(ub.min(lb + 3.0) as usize - lb as usize + 1) as f64
            }
        })
        .collect();
    for _ in 0..rng.below(2 * n + 2) {
        let kind = rng.below(4);
        let mut terms: Vec<(VarId, f64)> = vars
            .iter()
            .filter_map(|&v| {
                let a = 1.0 + rng.below(3) as f64;
                let a = if kind == 3 && rng.coin() { -a } else { a };
                rng.chance(0.4).then_some((v, a))
            })
            .collect();
        if terms.is_empty() {
            terms.push((vars[rng.below(n)], 1.0));
        }
        let at_hidden: f64 = terms.iter().map(|&(v, a)| a * hidden[v.index()]).sum();
        let rhs = if rng.chance(0.05) {
            rng.below(5) as f64 - 1.0
        } else {
            at_hidden
        };
        let slack = rng.below(3) as f64;
        match kind {
            0 => m.add_constraint(&terms, Sense::Ge, rhs - slack),
            1 => m.add_constraint(&terms, Sense::Le, rhs + slack),
            2 => m.add_constraint(&terms, Sense::Eq, rhs),
            _ => {
                let sense = [Sense::Le, Sense::Ge, Sense::Eq][rng.below(3)];
                m.add_constraint(&terms, sense, rhs);
            }
        }
    }
    m
}

/// A knapsack: binaries and boxed continuous items of negative cost
/// (value) under one or two capacity rows, sometimes with a demand row
/// that no packing meets.
fn random_knapsack(rng: &mut Rng) -> Model {
    let mut m = Model::new();
    let n = rng.range(1, 16);
    let items: Vec<VarId> = (0..n)
        .map(|i| {
            let value = -(1.0 + rng.below(20) as f64);
            if rng.chance(0.8) {
                m.add_binary(format!("x{i}"), value)
            } else {
                m.add_continuous(format!("y{i}"), 0.0, 1.0 + rng.below(3) as f64, value)
            }
        })
        .collect();
    let mut total = 0.0;
    for _ in 0..rng.range(1, 3) {
        let terms: Vec<(VarId, f64)> = items
            .iter()
            .map(|&v| (v, 1.0 + rng.below(10) as f64))
            .collect();
        let weight: f64 = terms.iter().map(|&(_, w)| w).sum();
        total = weight * 3.0;
        m.add_constraint(&terms, Sense::Le, (weight / 2.0).floor());
    }
    if rng.chance(0.2) {
        let all: Vec<(VarId, f64)> = items.iter().map(|&v| (v, 1.0)).collect();
        m.add_constraint(&all, Sense::Ge, total);
    }
    m
}

/// A negative-cost column with no upper bound beside a random model: rows
/// that it only loosens leave the relaxation unbounded below, unless a
/// packing row caps it (then the artificial bound must not show).
fn random_ray_model(rng: &mut Rng) -> Model {
    let mut m = random_mixed_model(rng);
    let others: Vec<VarId> = m.var_ids().collect();
    let ray = m.add_continuous("ray", 0.0, f64::INFINITY, -(1.0 + rng.below(3) as f64));
    for _ in 0..rng.below(3) {
        let mut terms: Vec<(VarId, f64)> = others
            .iter()
            .filter(|_| rng.coin())
            .map(|&v| (v, 1.0))
            .collect();
        terms.push((ray, 1.0 + rng.below(2) as f64));
        m.add_constraint(&terms, Sense::Ge, rng.below(4) as f64);
    }
    if rng.coin() {
        let mut terms = vec![(ray, 1.0 + rng.below(3) as f64)];
        terms.extend(others.iter().filter(|_| rng.coin()).map(|&v| (v, 1.0)));
        m.add_constraint(&terms, Sense::Le, 2.0 + rng.below(30) as f64);
    }
    m
}

#[test]
fn lp_matches_the_reference_on_random_models() {
    let seen = std::cell::RefCell::new(HashSet::new());
    harness("lp_matches_the_reference_on_random_models").check(|rng| {
        let model = match rng.below(3) {
            0 => random_mixed_model(rng),
            1 => random_knapsack(rng),
            _ => random_ray_model(rng),
        };
        for p in [0.0, 0.3] {
            let fixed = random_fixings(&model, rng, p);
            let status = assert_lp_matches_the_reference(&model, &fixed);
            seen.borrow_mut().insert(std::mem::discriminant(&status));
        }
    });
    // Optimal, infeasible and unbounded all occur at the default case count.
    assert_eq!(seen.borrow().len(), 3, "not every LP status occurred");
}

#[test]
fn lp_matches_the_reference_on_eq4_models() {
    use flowc::compact::mip_method::build_model;
    harness("lp_matches_the_reference_on_eq4_models").check_network(
        &NetworkGen::new(6, 30),
        |network, rng| {
            let graph = BddGraph::from_bdds(&flowc::bdd::build_sbdd(network, None));
            let gamma = rng.below(5) as f64 / 4.0;
            let (model, _) = build_model(&graph, gamma, rng.coin());
            for p in [0.0, 0.1, 0.4] {
                let fixed = random_fixings(&model, rng, p);
                assert_lp_matches_the_reference(&model, &fixed);
            }
        },
    );
}

#[test]
fn lp_answers_interrupted_on_a_spent_budget() {
    let mut rng = Rng::new(7);
    let model = random_knapsack(&mut rng);
    let spent = Budget::unlimited();
    spent.cancel_handle().cancel();
    assert_eq!(
        Simplex::new().with_budget(spent).solve(&model, &[]),
        LpResult::Interrupted
    );
}

/// The registry's exact OCTs. int2float is one block, so its count is
/// the whole-graph search's; the others count the nodes of their blocks'
/// searches. router and i2c are many blocks of at most 12 and 104 nodes,
/// which a whole-graph search does not close in 10 s.
#[test]
fn odd_cycle_transversal_searches_on_registry_circuits_are_pinned() {
    for (name, size, nodes) in [
        ("int2float", 11, 627),
        ("ctrl", 1, 3),
        ("priority", 1, 3),
        ("router", 53, 341),
        ("i2c", 3, 9),
    ] {
        let network = flowc::logic::bench_suite::by_name(name)
            .unwrap()
            .network()
            .unwrap();
        let graph = BddGraph::from_bdds(&flowc::bdd::build_sbdd(&network, None));
        let r = odd_cycle_transversal(&graph.graph, &Budget::unlimited());
        assert!(r.optimal, "{name}");
        assert_eq!(r.lower_bound, size, "{name}");
        assert_eq!((r.transversal.len(), r.nodes), (size, nodes), "{name}");
        assert!(is_bipartite_without(&graph.graph, &r.transversal), "{name}");
    }
}

/// The whole-graph Lemma 1 search `odd_cycle_transversal` ran before it
/// went block by block: one vertex cover of `G □ K₂`, seeded from the
/// greedy transversal.
fn reference_oct(g: &UGraph, budget: &Budget) -> flowc::graph::OctResult {
    if matches!(two_color(g), ColorResult::Bipartite(_)) {
        return flowc::graph::OctResult {
            transversal: Vec::new(),
            optimal: true,
            lower_bound: 0,
            nodes: 0,
        };
    }
    let n = g.num_vertices();
    let p = cartesian_with_k2(g);
    let greedy = oct_heuristic(g);
    let seed = {
        let mut keep = vec![true; n];
        for &v in &greedy {
            keep[v] = false;
        }
        let (sub, back) = g.induced_subgraph(&keep);
        match two_color(&sub) {
            ColorResult::Bipartite(colors) => {
                let mut cover = Vec::with_capacity(n + greedy.len());
                for &v in &greedy {
                    cover.push(v);
                    cover.push(v + n);
                }
                for (sub_v, &orig) in back.iter().enumerate() {
                    cover.push(if colors[sub_v] == 0 { orig } else { orig + n });
                }
                Some(cover)
            }
            ColorResult::OddCycle(_) => None,
        }
    };
    let vc = minimum_vertex_cover(&p, budget, seed.as_deref());
    let mut in_cover = vec![false; 2 * n];
    for &v in &vc.cover {
        in_cover[v] = true;
    }
    let transversal: Vec<usize> = (0..n).filter(|&v| in_cover[v] && in_cover[v + n]).collect();
    let transversal = if vc.optimal || transversal.len() <= greedy.len() {
        transversal
    } else {
        greedy
    };
    flowc::graph::OctResult {
        optimal: vc.optimal,
        lower_bound: vc.lower_bound.saturating_sub(n).max(1),
        transversal,
        nodes: vc.nodes,
    }
}

/// A random graph glued from small blocks at cut vertices: each new piece
/// shares one vertex `p` with what is built so far, often the `p` of the
/// piece before, so one cut vertex may join three or more blocks. A piece
/// is a random graph over `p` and its new vertices, a cycle (even cycles
/// are bipartite blocks), a pendant triangle with a tail of bridges, or a
/// fan whose triangles all share `p`, where keeping `p` costs more than
/// one.
fn gen_multi_block_graph(rng: &mut Rng) -> UGraph {
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let (mut n, mut p) = (1, 0);
    for _ in 0..rng.range(2, 9) {
        if !rng.chance(0.3) {
            p = rng.below(n);
        }
        let fresh: Vec<usize> = (n..n + rng.range(2, 7)).collect();
        n += fresh.len();
        let ring: Vec<usize> = std::iter::once(p).chain(fresh.iter().copied()).collect();
        match rng.below(4) {
            0 => {
                edges.extend(ring.windows(2).map(|w| (w[0], w[1])));
                for _ in 0..rng.below(2 * ring.len()) {
                    edges.push((ring[rng.below(ring.len())], ring[rng.below(ring.len())]));
                }
            }
            1 => edges.extend((0..ring.len()).map(|i| (ring[i], ring[(i + 1) % ring.len()]))),
            2 => {
                edges.extend([(p, fresh[0]), (p, fresh[1])]);
                edges.extend(fresh.windows(2).map(|w| (w[0], w[1])));
            }
            _ => {
                edges.extend(fresh.iter().map(|&v| (p, v)));
                edges.extend(fresh.windows(2).map(|w| (w[0], w[1])));
            }
        }
    }
    let mut g = UGraph::new(n);
    for (u, v) in edges {
        if u != v {
            g.add_edge(u, v);
        }
    }
    g
}

#[test]
fn oct_decomposition_matches_the_reference() {
    harness("oct_decomposition_matches_the_reference").check(|rng| {
        let g = gen_multi_block_graph(rng);
        let want = reference_oct(&g, &Budget::unlimited());
        let got = odd_cycle_transversal(&g, &Budget::unlimited());
        assert!(want.optimal && got.optimal);
        assert_eq!(got.transversal.len(), want.transversal.len());
        assert_eq!(got.lower_bound, got.transversal.len());
        assert!(is_bipartite_without(&g, &got.transversal));
    });
}

/// Deadlines of 0–2000 µs, skewed towards zero: a release build stops
/// about half of these searches partway, some between two blocks.
#[test]
fn oct_decomposition_bound_is_sound_when_interrupted() {
    harness("oct_decomposition_bound_is_sound_when_interrupted").check(|rng| {
        let g = gen_multi_block_graph(rng);
        let optimum = reference_oct(&g, &Budget::unlimited()).transversal.len();
        let deadline = Duration::from_micros((rng.below(2001) >> rng.below(11)) as u64);
        let r = odd_cycle_transversal(&g, &Budget::unlimited().with_deadline(deadline));
        assert!(is_bipartite_without(&g, &r.transversal), "{deadline:?}");
        assert!(r.transversal.len() >= optimum, "{deadline:?}");
        assert!(r.lower_bound <= optimum, "{deadline:?}");
        assert!(r.lower_bound >= usize::from(optimum > 0), "{deadline:?}");
        if r.optimal {
            assert_eq!(r.transversal.len(), optimum, "{deadline:?}");
        }
    });
}

/// A packing is vertex-disjoint odd cycles of `g`, so it is no larger than
/// a minimum transversal, and a stopped search reports at least its size.
#[test]
fn oct_packing_is_a_disjoint_odd_cycle_lower_bound() {
    harness("oct_packing_is_a_disjoint_odd_cycle_lower_bound").check(|rng| {
        let g = gen_multi_block_graph(rng);
        let packing = odd_cycle_packing(&g);
        let mut used = HashSet::new();
        for cycle in &packing {
            assert_eq!(cycle.len() % 2, 1, "{cycle:?}");
            for (i, &v) in cycle.iter().enumerate() {
                assert!(used.insert(v), "{v} is in two cycles");
                assert!(g.has_edge(v, cycle[(i + 1) % cycle.len()]), "{cycle:?}");
            }
        }
        let optimum = reference_oct(&g, &Budget::unlimited()).transversal.len();
        assert!(packing.len() <= optimum, "{} > {optimum}", packing.len());
        let stopped = Budget::unlimited();
        stopped.cancel_handle().cancel();
        let r = odd_cycle_transversal(&g, &stopped);
        assert!(r.lower_bound >= packing.len());
        assert!(r.lower_bound <= optimum);
    });
}

/// cavlc is one 592-node block: a stopped search bounds its OCT by 1, the
/// packing by 42, and the greedy transversal it returns has 55 vertices.
#[test]
fn oct_packing_bounds_cavlcs_interrupted_search() {
    let network = flowc::logic::bench_suite::by_name("cavlc")
        .unwrap()
        .network()
        .unwrap();
    let graph = BddGraph::from_bdds(&flowc::bdd::build_sbdd(&network, None)).graph;
    let stopped = Budget::unlimited();
    stopped.cancel_handle().cancel();
    let r = odd_cycle_transversal(&graph, &stopped);
    assert!(!r.optimal);
    assert_eq!((r.transversal.len(), r.lower_bound), (55, 42));
    assert_eq!(odd_cycle_packing(&graph).len(), 42);
    assert!(is_bipartite_without(&graph, &r.transversal));
}

#[test]
fn an_interrupted_vertex_cover_is_a_cover_with_a_valid_bound() {
    let network = flowc::logic::bench_suite::by_name("int2float")
        .unwrap()
        .network()
        .unwrap();
    let graph = BddGraph::from_bdds(&flowc::bdd::build_sbdd(&network, None)).graph;
    let product = cartesian_with_k2(&graph);
    // Lemma 1: VC(G □ K₂) = n + OCT(G), and int2float's OCT is 11.
    let optimum = graph.num_vertices() + 11;
    for micros in [500, 1000, 2000, 4000, 8000] {
        let budget = Budget::unlimited().with_deadline(Duration::from_micros(micros));
        let r = minimum_vertex_cover(&product, &budget, None);
        let set: HashSet<usize> = r.cover.iter().copied().collect();
        for &(u, v) in product.edges() {
            assert!(set.contains(&u) || set.contains(&v), "{micros} µs");
        }
        assert!(r.lower_bound <= optimum, "{micros} µs");
        assert!(r.cover.len() >= optimum, "{micros} µs");
    }
}

// The old private gen_network drew its gate count as `range(1, max_gates)`
// and its output count as `range(1, 5)`; NetworkGen must keep designating
// the same circuits for the same seeds so persisted regression seeds stay
// meaningful. This pins the stream layout.
#[test]
fn network_generator_is_bit_compatible_with_the_historical_one() {
    use flowc::logic::NetId;
    fn historical(rng: &mut Rng, num_inputs: usize, max_gates: usize) -> Network {
        let mut n = Network::new("random");
        let mut nets: Vec<NetId> = (0..num_inputs)
            .map(|i| n.add_input(format!("x{i}")))
            .collect();
        let num_gates = rng.range(1, max_gates);
        for g in 0..num_gates {
            let arity = rng.range(1, 4);
            let operands: Vec<NetId> = (0..arity).map(|_| nets[rng.below(nets.len())]).collect();
            let kind_sel = rng.below(7) as u8;
            let out = match kind_sel {
                0 => n.add_gate(GateKind::Not, &operands[..1], format!("g{g}")),
                1 if operands.len() >= 2 => n.add_gate(GateKind::And, &operands, format!("g{g}")),
                2 if operands.len() >= 2 => n.add_gate(GateKind::Or, &operands, format!("g{g}")),
                3 if operands.len() >= 2 => n.add_gate(GateKind::Xor, &operands, format!("g{g}")),
                4 if operands.len() >= 2 => n.add_gate(GateKind::Nand, &operands, format!("g{g}")),
                5 if operands.len() >= 2 => n.add_gate(GateKind::Nor, &operands, format!("g{g}")),
                6 if operands.len() == 3 => n.add_gate(GateKind::Mux, &operands, format!("g{g}")),
                _ => n.add_gate(GateKind::Buf, &operands[..1], format!("g{g}")),
            }
            .expect("arities are satisfied by construction");
            nets.push(out);
        }
        for _ in 0..rng.range(1, 5) {
            let net = nets[rng.below(nets.len())];
            n.mark_output(net);
        }
        n
    }
    for seed in 0..128 {
        let old = historical(&mut Rng::new(seed), 5, 12);
        let new = NetworkGen::new(5, 12).generate(&mut Rng::new(seed));
        assert_eq!(
            flowc::logic::blif::write(&old),
            flowc::logic::blif::write(&new),
            "seed {seed} designates different circuits"
        );
    }
}

// ---------------------------------------------------------------------------
// The sparse crossbar store and its reachability evaluator.
// ---------------------------------------------------------------------------

/// A dense `rows × cols` junction grid: the reference the sparse store
/// must match, cell for cell.
#[derive(Clone, PartialEq)]
struct DenseGrid {
    rows: usize,
    cols: usize,
    cells: Vec<DeviceAssignment>,
}

impl DenseGrid {
    fn new(rows: usize, cols: usize) -> Self {
        DenseGrid {
            rows,
            cols,
            cells: vec![DeviceAssignment::Off; rows * cols],
        }
    }

    fn set(&mut self, row: usize, col: usize, a: DeviceAssignment) -> Result<(), XbarError> {
        if row >= self.rows {
            return Err(XbarError::RowOutOfRange {
                row,
                rows: self.rows,
            });
        }
        if col >= self.cols {
            return Err(XbarError::ColOutOfRange {
                col,
                cols: self.cols,
            });
        }
        self.cells[row * self.cols + col] = a;
        Ok(())
    }

    fn programmed(&self) -> Vec<(usize, usize, DeviceAssignment)> {
        (0..self.rows * self.cols)
            .map(|i| (i / self.cols, i % self.cols, self.cells[i]))
            .filter(|&(_, _, a)| a != DeviceAssignment::Off)
            .collect()
    }

    fn place(&self, row_perm: &[usize], col_perm: &[usize], rows: usize, cols: usize) -> Self {
        let mut placed = DenseGrid::new(rows, cols);
        for (r, c, a) in self.programmed() {
            placed.cells[row_perm[r] * cols + col_perm[c]] = a;
        }
        placed
    }

    fn apply(&self, map: &DefectMap) -> Self {
        let mut faulty = self.clone();
        for (i, cell) in faulty.cells.iter_mut().enumerate() {
            match map.cell_state(i / self.cols, i % self.cols) {
                CellState::ForcedOff => *cell = DeviceAssignment::Off,
                CellState::ForcedOn => *cell = DeviceAssignment::On,
                CellState::Healthy => {}
            }
        }
        faulty
    }
}

/// Asserts `x` stores exactly `dense`'s junctions, in row-major order.
fn assert_stores(x: &Crossbar, dense: &DenseGrid) {
    assert_eq!((x.rows(), x.cols()), (dense.rows, dense.cols));
    for r in 0..dense.rows {
        for c in 0..dense.cols {
            assert_eq!(
                x.get(r, c),
                Ok(dense.cells[r * dense.cols + c]),
                "({r}, {c})"
            );
        }
    }
    assert_eq!(
        x.programmed_devices().collect::<Vec<_>>(),
        dense.programmed()
    );
}

fn random_device(rng: &mut Rng, num_inputs: usize) -> DeviceAssignment {
    match rng.below(4) {
        0 => DeviceAssignment::Off,
        1 => DeviceAssignment::On,
        _ => DeviceAssignment::Literal {
            input: rng.below(num_inputs),
            negated: rng.coin(),
        },
    }
}

fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// `len` distinct lines out of `0..bound`, in random order.
fn random_injection(rng: &mut Rng, len: usize, bound: usize) -> Vec<usize> {
    let mut lines: Vec<usize> = (0..bound).collect();
    shuffle(rng, &mut lines);
    lines.truncate(len);
    lines
}

#[test]
fn sparse_crossbar_store_matches_a_dense_reference() {
    // Cases seen: an `Off` write that unprograms a junction, a pair of
    // crossbars told apart by `Eq`, a stuck-on fault that programs a cell.
    let seen = [(); 3].map(|_| std::cell::Cell::new(0usize));
    let bump = |i: usize| seen[i].set(seen[i].get() + 1);
    harness("sparse_crossbar_store_matches_a_dense_reference").check(|rng| {
        let (rows, cols, k) = (rng.range(1, 8), rng.range(1, 8), rng.range(1, 4));
        let mut x = Crossbar::new(rows, cols, k);
        let mut dense = DenseGrid::new(rows, cols);
        for _ in 0..rng.below(3 * rows * cols) {
            // One past the edge on either axis keeps the range checks honest.
            let (r, c) = (rng.below(rows + 1), rng.below(cols + 1));
            let a = random_device(rng, k);
            if a == DeviceAssignment::Off && r < rows && c < cols && x.get(r, c).unwrap() != a {
                bump(0);
            }
            let set = x.set(r, c, a);
            assert_eq!(set, dense.set(r, c, a), "set ({r}, {c})");
            assert_eq!(x.get(r, c), set.map(|()| a));
        }
        assert_stores(&x, &dense);

        // `Eq` compares the junctions, not the order they were written in.
        let mut writes = dense.programmed();
        shuffle(rng, &mut writes);
        let mut y = Crossbar::new(rows, cols, k);
        for &(r, c, a) in &writes {
            y.set(r, c, a).unwrap();
        }
        assert_eq!(x, y);
        let (r, c, a) = (rng.below(rows), rng.below(cols), random_device(rng, k));
        let mut other = dense.clone();
        other.set(r, c, a).unwrap();
        y.set(r, c, a).unwrap();
        assert_eq!(x == y, dense == other);
        if x != y {
            bump(1);
        }

        let (phys_rows, phys_cols) = (rows + rng.below(3), cols + rng.below(3));
        let row_perm = random_injection(rng, rows, phys_rows);
        let col_perm = random_injection(rng, cols, phys_cols);
        let placed = x.place(&row_perm, &col_perm, phys_rows, phys_cols).unwrap();
        assert_stores(
            &placed,
            &dense.place(&row_perm, &col_perm, phys_rows, phys_cols),
        );

        let mut map = DefectMap::new(rows, cols);
        for _ in 0..rng.below(5) {
            let (row, col) = (rng.below(rows), rng.below(cols));
            let fault = match rng.below(4) {
                0 => Fault::StuckOff { row, col },
                1 => Fault::StuckOn { row, col },
                2 => Fault::OpenWordline { row },
                _ => Fault::OpenBitline { col },
            };
            if matches!(fault, Fault::StuckOn { .. })
                && x.get(row, col).unwrap() != DeviceAssignment::On
            {
                bump(2);
            }
            map.add(fault).unwrap();
        }
        assert_stores(&apply_defects(&x, &map).unwrap(), &dense.apply(&map));
    });
    for (what, count) in ["unprogramming write", "unequal pair", "stuck-on write"]
        .iter()
        .zip(&seen)
    {
        assert!(count.get() > 0, "no case exercised an {what}");
    }
}

/// The wordlines connected to the input wordline under one assignment, by
/// breadth-first search over the conducting junctions, with each reached
/// wordline's distance from the input in wires.
fn reference_reach(x: &Crossbar, inputs: &[bool]) -> Vec<Option<usize>> {
    let mut row_adj = vec![Vec::new(); x.rows()];
    let mut col_adj = vec![Vec::new(); x.cols()];
    for (r, c, a) in x.programmed_devices() {
        if a.conducts(inputs) {
            row_adj[r].push(c);
            col_adj[c].push(r);
        }
    }
    let input = x.input_row().expect("input bound");
    let mut row_dist = vec![None; x.rows()];
    let mut col_seen = vec![false; x.cols()];
    row_dist[input] = Some(0);
    let mut queue = std::collections::VecDeque::from([input]);
    while let Some(r) = queue.pop_front() {
        let d = row_dist[r].expect("queued rows are reached");
        for &c in &row_adj[r] {
            if !std::mem::replace(&mut col_seen[c], true) {
                for &next in &col_adj[c] {
                    if row_dist[next].is_none() {
                        row_dist[next] = Some(d + 2);
                        queue.push_back(next);
                    }
                }
            }
        }
    }
    row_dist
}

#[test]
fn sparse_crossbar_evaluator_matches_a_per_lane_bfs() {
    // Cases seen: a cycle among the programmed junctions, an output
    // reached through another wordline (a sneak path), an output that
    // differs between lanes, a wire with no junction at all.
    let seen = [(); 4].map(|_| std::cell::Cell::new(0usize));
    let bump = |i: usize| seen[i].set(seen[i].get() + 1);
    harness("sparse_crossbar_evaluator_matches_a_per_lane_bfs").check(|rng| {
        let (rows, cols, k) = (rng.range(1, 14), rng.range(1, 14), rng.range(0, 6));
        let mut x = Crossbar::new(rows, cols, k);
        let density = rng.range(1, 6);
        for r in 0..rows {
            for c in 0..cols {
                if rng.below(10) < density {
                    let a = if k == 0 || rng.below(4) == 0 {
                        DeviceAssignment::On
                    } else {
                        DeviceAssignment::Literal {
                            input: rng.below(k),
                            negated: rng.coin(),
                        }
                    };
                    x.set(r, c, a).unwrap();
                }
            }
        }
        x.set_input_row(rng.below(rows)).unwrap();
        for j in 0..rng.range(1, 4) {
            x.add_output(format!("f{j}"), rng.below(rows)).unwrap();
        }
        let devices = x.programmed_devices().count();
        if devices >= rows + cols {
            bump(0);
        }
        let mut touched = vec![false; rows + cols];
        for (r, c, _) in x.programmed_devices() {
            touched[r] = true;
            touched[rows + c] = true;
        }
        if touched.contains(&false) {
            bump(3);
        }

        let evaluator = x.evaluator();
        for batch in 0..4 {
            let words: Vec<u64> = (0..k).map(|_| rng.next()).collect();
            let wide = evaluator.evaluate64(&words).unwrap();
            assert_eq!(wide.len(), x.outputs().len());
            if batch == 0 {
                assert_eq!(wide, x.evaluate64(&words).unwrap());
            }
            for lane in 0..64 {
                let inputs: Vec<bool> = words.iter().map(|w| w >> lane & 1 == 1).collect();
                let reach = reference_reach(&x, &inputs);
                for (j, port) in x.outputs().iter().enumerate() {
                    assert_eq!(
                        wide[j] >> lane & 1 == 1,
                        reach[port.row].is_some(),
                        "lane {lane}, output {j} on row {}:\n{}",
                        port.row,
                        x.render()
                    );
                    if reach[port.row].is_some_and(|d| d >= 4) {
                        bump(1);
                    }
                }
                if lane == 0 {
                    let reached: Vec<bool> = reach.iter().map(Option::is_some).collect();
                    assert_eq!(x.reachable_rows(&inputs).unwrap(), reached);
                    let lane0: Vec<bool> = wide.iter().map(|w| w & 1 == 1).collect();
                    assert_eq!(x.evaluate(&inputs).unwrap(), lane0);
                }
            }
            if wide.iter().any(|&w| w != 0 && w != u64::MAX) {
                bump(2);
            }
        }
    });
    for (what, count) in ["cycle", "sneak path", "lane-dependent output", "bare wire"]
        .iter()
        .zip(&seen)
    {
        assert!(count.get() > 0, "no case exercised a {what}");
    }
}

#[test]
fn sparse_crossbar_of_50000_wires_a_side_places_evaluates_and_verifies_in_milliseconds() {
    // f = x0 ∧ ¬x1 on a 50 000 × 50 000 array with four junctions: a dense
    // store of 16-byte junctions would need 40 GB here.
    const SIDE: usize = 50_000;
    let mut n = Network::new("guard");
    let a = n.add_input("a");
    let b = n.add_input("b");
    let not_b = n.add_gate(GateKind::Not, &[b], "nb").unwrap();
    let f = n.add_gate(GateKind::And, &[a, not_b], "f").unwrap();
    n.mark_output(f);

    let start = Instant::now();
    let mut x = Crossbar::new(SIDE, SIDE, 2);
    let lit = |input, negated| DeviceAssignment::Literal { input, negated };
    x.set(SIDE - 1, 0, lit(0, false)).unwrap();
    x.set(7, 0, DeviceAssignment::On).unwrap();
    x.set(7, SIDE - 1, lit(1, true)).unwrap();
    x.set(0, SIDE - 1, DeviceAssignment::On).unwrap();
    x.set_input_row(SIDE - 1).unwrap();
    x.add_output("f", 0).unwrap();
    assert!(verify_functional(&x, &n, 64).unwrap().is_valid());

    // Reversed onto a larger physical array.
    let phys = SIDE + 1_000;
    let reversed: Vec<usize> = (0..SIDE).map(|i| phys - 1 - i).collect();
    let placed = x.place(&reversed, &reversed, phys, phys).unwrap();
    assert_eq!(placed.programmed_devices().count(), 4);
    assert_eq!(placed.get(phys - 8, phys - 1), Ok(DeviceAssignment::On));
    assert_eq!(placed.evaluate(&[true, false]).unwrap(), vec![true]);
    assert_eq!(placed.evaluate(&[true, true]).unwrap(), vec![false]);
    let report = verify_functional(&placed, &n, 64).unwrap();
    assert!(report.is_valid() && report.checked == 4);
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "a 4-device design took {elapsed:?}: something scans the whole grid"
    );
}
