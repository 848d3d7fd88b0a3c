//! Outside-in coverage for the `compact` modules the other suites only
//! exercise indirectly: the γ-sweep Pareto machinery (`compact::pareto`),
//! the orientation balancer (`compact::balance`), and the symbolic verifier
//! (`compact::formal`) — each cross-checked against the conformance
//! harness's generators and the truth-table oracle.

use std::collections::HashSet;
use std::time::Duration;

use flowc::bdd::build_sbdd;
use flowc::budget::Budget;
use flowc::compact::balance::{balanced_labeling, boxed_labeling};
use flowc::compact::pareto::{gamma_sweep, non_dominated, SweepPoint};
use flowc::compact::{synthesize, verify_symbolic, BddGraph, Config};
use flowc::conform::{Harness, NetworkGen};
use flowc::graph::odd_cycle_transversal;
use flowc::xbar::DeviceAssignment;

fn corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/regressions")
}

fn harness(name: &str) -> Harness {
    Harness::new(name).with_corpus(corpus_dir())
}

// ---------------------------------------------------------------------------
// compact::pareto
// ---------------------------------------------------------------------------

#[test]
fn gamma_sweep_points_are_mutually_non_dominated_after_filtering() {
    harness("gamma_sweep_points_are_mutually_non_dominated_after_filtering")
        .with_cases(8)
        .check_network(&NetworkGen::new(4, 8), |network, _rng| {
            let pts = gamma_sweep(network, 4, Duration::from_secs(5));
            assert!(!pts.is_empty(), "sweep must produce points");
            let nd = non_dominated(&pts);
            assert!(!nd.is_empty());
            // Every kept shape occurs in the input.
            for p in &nd {
                assert!(
                    pts.iter().any(|q| q.rows == p.rows && q.cols == p.cols),
                    "frontier invented shape ({}, {})",
                    p.rows,
                    p.cols
                );
            }
            // Pairwise non-domination, no duplicate shapes, sorted by rows.
            for (i, p) in nd.iter().enumerate() {
                for (j, q) in nd.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    assert!(
                        !(q.rows <= p.rows
                            && q.cols <= p.cols
                            && (q.rows < p.rows || q.cols < p.cols)),
                        "({}, {}) dominates kept ({}, {})",
                        q.rows,
                        q.cols,
                        p.rows,
                        p.cols
                    );
                    assert!(
                        !(p.rows == q.rows && p.cols == q.cols),
                        "duplicate shape survived"
                    );
                }
            }
            for w in nd.windows(2) {
                assert!(w[0].rows < w[1].rows, "frontier not sorted by rows");
            }
        });
}

#[test]
fn non_dominated_is_idempotent_and_order_insensitive() {
    let pts = vec![
        SweepPoint {
            gamma: 0.0,
            rows: 7,
            cols: 3,
        },
        SweepPoint {
            gamma: 0.2,
            rows: 3,
            cols: 7,
        },
        SweepPoint {
            gamma: 0.4,
            rows: 5,
            cols: 5,
        },
        SweepPoint {
            gamma: 0.6,
            rows: 8,
            cols: 8,
        },
        SweepPoint {
            gamma: 0.8,
            rows: 7,
            cols: 3,
        },
    ];
    let nd = non_dominated(&pts);
    let again = non_dominated(&nd);
    let shapes =
        |v: &[SweepPoint]| -> Vec<(usize, usize)> { v.iter().map(|p| (p.rows, p.cols)).collect() };
    assert_eq!(shapes(&nd), shapes(&again), "filter must be idempotent");
    let mut reversed = pts.clone();
    reversed.reverse();
    assert_eq!(
        shapes(&nd),
        shapes(&non_dominated(&reversed)),
        "result must not depend on presentation order"
    );
    assert_eq!(shapes(&nd), vec![(3, 7), (5, 5), (7, 3)]);
}

// ---------------------------------------------------------------------------
// compact::balance
// ---------------------------------------------------------------------------

#[test]
fn balanced_labelings_are_valid_aligned_and_balanced() {
    harness("balanced_labelings_are_valid_aligned_and_balanced")
        .with_cases(16)
        .check_network(&NetworkGen::new(5, 10), |network, _rng| {
            let graph = BddGraph::from_bdds(&build_sbdd(network, None));
            if graph.num_nodes() == 0 {
                return;
            }
            let budget = Budget::unlimited().with_deadline(Duration::from_secs(5));
            let oct = odd_cycle_transversal(&graph.graph, &budget);
            let vh: HashSet<usize> = oct.transversal.iter().copied().collect();
            let labeling = balanced_labeling(&graph, &vh, true);
            assert!(labeling.is_valid(&graph), "labeling must cover every edge");
            assert!(labeling.is_aligned(&graph), "align=true must align");
            let stats = labeling.stats();
            assert_eq!(stats.semiperimeter, stats.rows + stats.cols);
            // Balancing minimizes D over component orientations; it can
            // never exceed the trivial bound where every node is a row.
            assert!(stats.max_dimension <= graph.num_nodes() + stats.num_vh);
            // VH assignments at least cover the transversal (alignment may
            // upgrade more).
            assert!(stats.num_vh >= vh.len());
        });
}

#[test]
fn boxed_labeling_fits_the_box_whenever_the_balanced_one_does() {
    harness("boxed_labeling_fits_the_box_whenever_the_balanced_one_does")
        .with_cases(16)
        .check_network(&NetworkGen::new(5, 10), |network, _rng| {
            let graph = BddGraph::from_bdds(&build_sbdd(network, None));
            if graph.num_nodes() == 0 {
                return;
            }
            let budget = Budget::unlimited().with_deadline(Duration::from_secs(5));
            let oct = odd_cycle_transversal(&graph.graph, &budget);
            let vh: HashSet<usize> = oct.transversal.iter().copied().collect();
            let balanced = balanced_labeling(&graph, &vh, true);
            let s = balanced.stats();
            // A box exactly as large as the balanced shape must be satisfiable.
            let boxed = boxed_labeling(&graph, &vh, true, s.rows, s.cols);
            assert!(boxed.is_valid(&graph));
            assert!(boxed.is_aligned(&graph));
            let b = boxed.stats();
            assert!(
                b.rows <= s.rows && b.cols <= s.cols,
                "boxed ({}, {}) must fit the feasible box ({}, {})",
                b.rows,
                b.cols,
                s.rows,
                s.cols
            );
            // Boxing constrains orientation, never the transversal: S can
            // only grow through alignment upgrades, not shrink.
            assert!(b.semiperimeter >= graph.num_nodes() + vh.len());
        });
}

// ---------------------------------------------------------------------------
// compact::formal
// ---------------------------------------------------------------------------

#[test]
fn symbolic_verification_agrees_with_the_truth_table_oracle() {
    harness("symbolic_verification_agrees_with_the_truth_table_oracle")
        .with_cases(12)
        .check_network(&NetworkGen::new(4, 8), |network, _rng| {
            let design = synthesize(network, &Config::default()).expect("synthesis succeeds");
            let report = verify_symbolic(&design.crossbar, network);
            // The truth-table verdict over all 2^k assignments.
            let k = network.num_inputs();
            let table_equivalent = (0..1usize << k).all(|bits| {
                let a: Vec<bool> = (0..k).map(|i| bits >> i & 1 == 1).collect();
                network.simulate(&a).unwrap() == design.crossbar.evaluate(&a).unwrap()
            });
            assert_eq!(
                report.equivalent, table_equivalent,
                "symbolic and exhaustive-table verdicts disagree"
            );
            assert!(report.equivalent, "synthesis must produce valid designs");
            assert!(report.iterations >= 1);
        });
}

#[test]
fn symbolic_counterexamples_are_real_on_damaged_designs() {
    harness("symbolic_counterexamples_are_real_on_damaged_designs")
        .with_cases(12)
        .check_network(&NetworkGen::new(4, 8), |network, _rng| {
            let design = synthesize(network, &Config::default()).expect("synthesis succeeds");
            // Stuck-open the first literal device.
            let Some((r, c, _)) = design
                .crossbar
                .programmed_devices()
                .find(|(_, _, a)| a.is_literal())
            else {
                return; // constant designs carry no literals to break
            };
            let mut broken = design.crossbar.clone();
            broken.set(r, c, DeviceAssignment::Off).unwrap();
            let report = verify_symbolic(&broken, network);
            if report.equivalent {
                // The fault is logically masked; the truth table must agree.
                let k = network.num_inputs();
                for bits in 0..1usize << k {
                    let a: Vec<bool> = (0..k).map(|i| bits >> i & 1 == 1).collect();
                    assert_eq!(
                        network.simulate(&a).unwrap(),
                        broken.evaluate(&a).unwrap(),
                        "symbolic blessed a fault the table rejects"
                    );
                }
            } else {
                // Every reported counterexample must actually separate the
                // damaged crossbar from the specification.
                let witness = report
                    .first_counterexample()
                    .expect("inequivalence must come with a witness");
                assert_ne!(
                    network.simulate(witness).unwrap(),
                    broken.evaluate(witness).unwrap(),
                    "counterexample does not separate spec from damaged design"
                );
            }
        });
}
