//! Formal (symbolic) verification of crossbar designs.
//!
//! Sampling-based checks (`flowc_xbar::verify`) cover assignments; this
//! module proves validity for *every* assignment by computing, per wire,
//! the Boolean *connectivity function* — "this wire is electrically
//! connected to the driven input wordline under assignment x" — as a BDD,
//! via a least-fixpoint over the device graph. A design is valid iff each
//! output wordline's connectivity function is literally the specification
//! BDD, and when it is not, a satisfying assignment of the difference is a
//! concrete counterexample.
//!
//! This is the complete-verification counterpart of the paper's SPICE
//! spot-checks, feasible because flow-based evaluation is exactly graph
//! reachability (Section II-C).

use flowc_bdd::{build_sbdd, Manager, Ref};
use flowc_logic::Network;
use flowc_xbar::{Crossbar, DeviceAssignment};

/// Result of a symbolic equivalence check.
#[derive(Debug, Clone)]
pub struct SymbolicReport {
    /// Whether every output's connectivity function equals its spec.
    pub equivalent: bool,
    /// For each output: `None` when equivalent, or one assignment (network
    /// input order) on which the design and the specification disagree.
    pub counterexamples: Vec<Option<Vec<bool>>>,
    /// Fixpoint sweeps needed to converge (a diameter witness).
    pub iterations: usize,
}

impl SymbolicReport {
    /// The first counterexample, if any output disagrees.
    pub fn first_counterexample(&self) -> Option<&Vec<bool>> {
        self.counterexamples.iter().flatten().next()
    }
}

/// Symbolically verifies `xbar` against `reference`, proving equivalence
/// over all `2^k` assignments. BDD sizes govern the cost: intended for
/// small/medium designs (thousands of devices).
///
/// # Panics
///
/// Panics if the crossbar has no input port bound, or if the input counts
/// disagree.
pub fn verify_symbolic(xbar: &Crossbar, reference: &Network) -> SymbolicReport {
    assert_eq!(
        reference.num_inputs(),
        xbar.num_inputs(),
        "reference and crossbar must agree on the input count"
    );
    let input_row = xbar.input_row().expect("crossbar must bind an input port");

    // Specification BDDs (shared manager; same input order as the wires).
    // The build is owned here, so take the manager by value — cloning it
    // would copy the whole node table and ITE cache per verification.
    let spec = build_sbdd(reference, None);
    let spec_vars = spec.vars;
    let spec_roots = spec.roots;
    let mut manager = spec.manager;
    // Literal BDDs per input, in network input order.
    let literals: Vec<(Ref, Ref)> = spec_vars
        .iter()
        .map(|&v| {
            let pos = manager.var(v);
            let neg = manager.nvar(v);
            (pos, neg)
        })
        .collect();

    let device_fn = |m: &mut Manager, a: DeviceAssignment| -> Ref {
        match a {
            DeviceAssignment::Off => m.zero(),
            DeviceAssignment::On => m.one(),
            DeviceAssignment::Literal { input, negated } => {
                let (pos, neg) = literals[input];
                if negated {
                    neg
                } else {
                    pos
                }
            }
        }
    };
    let devices: Vec<(usize, usize, Ref)> = xbar
        .programmed_devices()
        .map(|(r, c, a)| (r, c, device_fn(&mut manager, a)))
        .collect();

    // Least fixpoint of reachability over the bipartite wire graph.
    let mut row_reach = vec![Ref::ZERO; xbar.rows()];
    let mut col_reach = vec![Ref::ZERO; xbar.cols()];
    row_reach[input_row] = Ref::ONE;
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        let mut changed = false;
        for &(r, c, g) in &devices {
            let through_row = manager.and(row_reach[r], g);
            let new_col = manager.or(col_reach[c], through_row);
            if new_col != col_reach[c] {
                col_reach[c] = new_col;
                changed = true;
            }
            let through_col = manager.and(col_reach[c], g);
            let new_row = manager.or(row_reach[r], through_col);
            if new_row != row_reach[r] {
                row_reach[r] = new_row;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Compare each output's connectivity function with its specification.
    let mut counterexamples = Vec::with_capacity(xbar.outputs().len());
    let mut equivalent = true;
    for (port, &spec_root) in xbar.outputs().iter().zip(&spec_roots) {
        let implemented = row_reach[port.row];
        if implemented == spec_root {
            counterexamples.push(None);
        } else {
            equivalent = false;
            let diff = manager.xor(implemented, spec_root);
            let witness = manager
                .pick_sat(diff)
                .expect("differing canonical BDDs have a differing assignment");
            // Map variable order back to network input order.
            let mut assignment = vec![false; reference.num_inputs()];
            for (input_idx, v) in spec_vars.iter().enumerate() {
                assignment[input_idx] = witness[v.index()];
            }
            counterexamples.push(Some(assignment));
        }
    }
    SymbolicReport {
        equivalent,
        counterexamples,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{synthesize, Config};
    use flowc_logic::{bench_suite, GateKind, Network};

    fn fig2_network() -> Network {
        let mut n = Network::new("fig2");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let ab = n.add_gate(GateKind::And, &[a, b], "ab").unwrap();
        let f = n.add_gate(GateKind::Or, &[ab, c], "f").unwrap();
        n.mark_output(f);
        n
    }

    #[test]
    fn synthesized_design_is_formally_equivalent() {
        let n = fig2_network();
        let r = synthesize(&n, &Config::default()).unwrap();
        let report = verify_symbolic(&r.crossbar, &n);
        assert!(report.equivalent, "{report:?}");
        assert!(report.first_counterexample().is_none());
        assert!(report.iterations >= 1);
    }

    #[test]
    fn benchmarks_verify_formally() {
        for name in ["ctrl", "int2float", "router", "dec"] {
            let b = bench_suite::by_name(name).unwrap();
            let n = b.network().unwrap();
            let r = synthesize(&n, &Config::default()).unwrap();
            let report = verify_symbolic(&r.crossbar, &n);
            assert!(report.equivalent, "{name}");
        }
    }

    #[test]
    fn broken_design_yields_a_counterexample() {
        let n = fig2_network();
        let r = synthesize(&n, &Config::default()).unwrap();
        let mut broken = r.crossbar.clone();
        // Flip the polarity of one literal device.
        let (br, bc, a) = broken
            .programmed_devices()
            .find(|(_, _, a)| a.is_literal())
            .expect("design has literal devices");
        let flowc_xbar::DeviceAssignment::Literal { input, negated } = a else {
            unreachable!()
        };
        broken
            .set(
                br,
                bc,
                DeviceAssignment::Literal {
                    input,
                    negated: !negated,
                },
            )
            .unwrap();
        let report = verify_symbolic(&broken, &n);
        assert!(!report.equivalent);
        let cex = report
            .first_counterexample()
            .expect("counterexample")
            .clone();
        // The counterexample really distinguishes the two.
        let want = n.simulate(&cex).unwrap();
        let got = broken.evaluate(&cex).unwrap();
        assert_ne!(want, got, "counterexample must witness the difference");
    }

    #[test]
    fn staircase_baseline_also_verifies_formally() {
        // The symbolic check is mapping-agnostic: apply it to the prior-art
        // layout too (via a hand-built every-node-both-wires crossbar on
        // fig2 through the public baseline API would create a dependency
        // cycle, so exercise with the min-semiperimeter strategy instead).
        let n = fig2_network();
        let cfg = Config {
            strategy: crate::pipeline::VhStrategy::MinSemiperimeter {
                time_limit: std::time::Duration::from_secs(5),
            },
            ..Config::default()
        };
        let r = synthesize(&n, &cfg).unwrap();
        assert!(verify_symbolic(&r.crossbar, &n).equivalent);
    }

    #[test]
    fn multi_output_with_constants_verifies() {
        let mut n = Network::new("mixed");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let f = n.add_gate(GateKind::Xor, &[a, b], "f").unwrap();
        let z = n.add_const0("z");
        let o = n.add_const1("o");
        n.mark_output(f);
        n.mark_output(z);
        n.mark_output(o);
        let r = synthesize(&n, &Config::default()).unwrap();
        let report = verify_symbolic(&r.crossbar, &n);
        assert!(report.equivalent, "{report:?}");
        assert_eq!(report.counterexamples.len(), 3);
    }
}
