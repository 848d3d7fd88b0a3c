//! Functional and electrical verification of crossbar designs against a
//! reference gate-level network — the role SPICE simulation plays in the
//! paper's evaluation ("we have verified that all the crossbar designs are
//! valid").

use flowc_budget::Budget;
use flowc_logic::Network;

use crate::circuit::ElectricalModel;
use crate::{Crossbar, Result, XbarError};

/// Outcome of a verification run.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyReport {
    /// Assignments checked.
    pub checked: usize,
    /// Assignments where the crossbar disagreed with the reference.
    pub mismatches: Vec<Vec<bool>>,
    /// Worst-case electrical margin observed, when electrical checking ran:
    /// `(lowest sensed voltage for a logic-1, highest for a logic-0)`.
    /// The design is electrically sensable iff the first exceeds the
    /// second — a threshold between them classifies every checked output.
    pub electrical_margin: Option<(f64, f64)>,
}

impl VerifyReport {
    /// Whether the design matched the reference on every checked
    /// assignment, and — when the electrical margin was measured — a
    /// sensing threshold separating logic 1 from logic 0 exists.
    pub fn is_valid(&self) -> bool {
        self.mismatches.is_empty() && self.margin_ok()
    }

    /// Whether the electrical on/off voltages are separable. Vacuously true
    /// for functional-only reports and when one class was never observed
    /// (the margin stays at its infinite initial value); false when either
    /// bound is NaN — a NaN margin means the nodal analysis produced
    /// garbage, which must not pass as "separable".
    pub fn margin_ok(&self) -> bool {
        match self.electrical_margin {
            Some((min_on, max_off)) => {
                if min_on.is_nan() || max_off.is_nan() {
                    false
                } else if min_on.is_finite() && max_off.is_finite() {
                    min_on > max_off
                } else {
                    // One class never observed: +inf on-floor or -inf
                    // off-ceiling cannot be violated.
                    true
                }
            }
            None => true,
        }
    }
}

/// The assignments [`verify_functional`] checks, drawn straight into lane
/// words (the layout of [`pack_lanes`]): exhaustive for up to 16 inputs,
/// otherwise `samples` seeded random draws, input by input. Returns the
/// assignment count and the `(words, lanes)` chunks of up to 64
/// assignments each.
fn lane_chunks(
    num_inputs: usize,
    samples: usize,
) -> (usize, impl Iterator<Item = (Vec<u64>, usize)>) {
    let exhaustive = num_inputs <= 16;
    // At least one draw: a zero sample count must not certify a design it
    // never evaluated.
    let total = if exhaustive {
        1usize << num_inputs
    } else {
        samples.max(1)
    };
    let mut rng = crate::rng::XorShift64::new(0x005E_ED0F_F10C_u64 ^ (num_inputs as u64) << 32);
    let mut base = 0;
    let chunks = std::iter::from_fn(move || {
        let lanes = (total - base).min(64);
        if lanes == 0 {
            return None;
        }
        let mut words = vec![0u64; num_inputs];
        for lane in 0..lanes {
            for (i, w) in words.iter_mut().enumerate() {
                let bit = if exhaustive {
                    (base + lane) >> i & 1 == 1
                } else {
                    rng.next_u64() & 1 == 1
                };
                *w |= u64::from(bit) << lane;
            }
        }
        base += lanes;
        Some((words, lanes))
    });
    (total, chunks)
}

/// Assignment `lane` of a chunk of lane words.
fn unpack_lane(words: &[u64], lane: usize) -> Vec<bool> {
    words.iter().map(|w| w >> lane & 1 == 1).collect()
}

/// Packs up to 64 assignments into lane words: bit `lane` of word `i` is
/// input `i` of `chunk[lane]`, the layout of [`Crossbar::evaluate64`].
pub fn pack_lanes(num_inputs: usize, chunk: &[Vec<bool>]) -> Vec<u64> {
    let mut words = vec![0u64; num_inputs];
    for (lane, a) in chunk.iter().enumerate() {
        for (w, &bit) in words.iter_mut().zip(a) {
            *w |= u64::from(bit) << lane;
        }
    }
    words
}

fn check_inputs(xbar: &Crossbar, reference: &Network) -> Result<()> {
    if reference.num_inputs() == xbar.num_inputs() {
        return Ok(());
    }
    Err(XbarError::ReferenceInputMismatch {
        reference: reference.num_inputs(),
        crossbar: xbar.num_inputs(),
    })
}

/// Checks the crossbar's flow-based evaluation against network simulation:
/// exhaustive for up to 16 inputs, otherwise `samples` random assignments
/// (at least one).
///
/// # Errors
///
/// Returns [`XbarError::ReferenceInputMismatch`] when the network's input
/// count differs from the crossbar's, and propagates crossbar evaluation
/// errors (missing input port, arity).
pub fn verify_functional(
    xbar: &Crossbar,
    reference: &Network,
    samples: usize,
) -> Result<VerifyReport> {
    verify_functional_budgeted(xbar, reference, samples, &Budget::unlimited())
}

/// [`verify_functional`] under a cooperative [`Budget`]: the deadline and
/// cancellation token are checked between 64-assignment evaluation chunks,
/// so a long verification can be interrupted mid-sweep.
///
/// # Errors
///
/// In addition to [`verify_functional`]'s errors, returns
/// [`XbarError::Budget`] when the budget is exhausted before the sweep
/// finishes.
pub fn verify_functional_budgeted(
    xbar: &Crossbar,
    reference: &Network,
    samples: usize,
    budget: &Budget,
) -> Result<VerifyReport> {
    check_inputs(xbar, reference)?;
    let evaluator = xbar.evaluator();
    verify_with(reference, samples, budget, |words| {
        evaluator.evaluate64(words)
    })
}

/// The one functional verifier: checks a 64-lane evaluator of
/// `reference`'s inputs against network simulation on
/// [`verify_functional`]'s assignments, 64 per call. An output row of the
/// wrong length mismatches on every lane.
///
/// # Errors
///
/// [`XbarError::Budget`] when the budget runs out between chunks, and
/// `evaluate`'s errors (an evaluator of another arity answers
/// [`XbarError::InputLen`]).
pub fn verify_with(
    reference: &Network,
    samples: usize,
    budget: &Budget,
    mut evaluate: impl FnMut(&[u64]) -> Result<Vec<u64>>,
) -> Result<VerifyReport> {
    let (checked, chunks) = lane_chunks(reference.num_inputs(), samples);
    let mut mismatches = Vec::new();
    for (words, lanes) in chunks {
        budget.check()?;
        let got = evaluate(&words)?;
        let want = reference.simulate64(&words).expect("packed at its arity");
        let mut diff = got.iter().zip(&want).fold(0, |acc, (g, w)| acc | (g ^ w));
        if got.len() != want.len() {
            diff = u64::MAX;
        }
        mismatches.extend(
            (0..lanes)
                .filter(|&lane| diff >> lane & 1 == 1)
                .map(|lane| unpack_lane(&words, lane)),
        );
        if mismatches.len() >= 10 {
            mismatches.truncate(10); // enough evidence
            break;
        }
    }
    mismatches.sort_unstable();
    mismatches.dedup();
    Ok(VerifyReport {
        checked,
        mismatches,
        electrical_margin: None,
    })
}

/// Checks the crossbar *electrically*: nodal analysis under each sampled
/// assignment, requiring every logic-1 output voltage to exceed every
/// logic-0 output voltage (so one sensing threshold classifies the design
/// correctly on all checked assignments; the margin is reported). Intended
/// for small/medium designs — the dense solve is cubic in the wire count.
///
/// # Errors
///
/// Returns [`XbarError::ReferenceInputMismatch`] when the network's input
/// count differs from the crossbar's, and propagates crossbar evaluation
/// errors.
pub fn verify_electrical(
    xbar: &Crossbar,
    reference: &Network,
    model: &ElectricalModel,
    samples: usize,
) -> Result<VerifyReport> {
    check_inputs(xbar, reference)?;
    let (checked, chunks) = lane_chunks(xbar.num_inputs(), samples);
    let mut min_on = f64::INFINITY;
    let mut max_off = f64::NEG_INFINITY;
    for (words, lanes) in chunks {
        for lane in 0..lanes {
            let a = unpack_lane(&words, lane);
            let volts = model.output_voltages(xbar, &a)?;
            let want = reference.simulate(&a).expect("input count checked");
            for (v, w) in volts.iter().zip(&want) {
                if *w {
                    min_on = min_on.min(*v);
                } else {
                    max_off = max_off.max(*v);
                }
            }
        }
    }
    Ok(VerifyReport {
        checked,
        mismatches: Vec::new(),
        electrical_margin: Some((min_on, max_off)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceAssignment;
    use flowc_logic::{GateKind, Network};

    fn fig2_pair() -> (Crossbar, Network) {
        let mut n = Network::new("fig2");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let ab = n.add_gate(GateKind::And, &[a, b], "ab").unwrap();
        let f = n.add_gate(GateKind::Or, &[ab, c], "f").unwrap();
        n.mark_output(f);

        let mut x = Crossbar::new(3, 3, 3);
        x.set(
            0,
            0,
            DeviceAssignment::Literal {
                input: 1,
                negated: false,
            },
        )
        .unwrap();
        x.set(1, 0, DeviceAssignment::On).unwrap();
        x.set(
            1,
            1,
            DeviceAssignment::Literal {
                input: 0,
                negated: false,
            },
        )
        .unwrap();
        x.set(2, 1, DeviceAssignment::On).unwrap();
        x.set(
            0,
            2,
            DeviceAssignment::Literal {
                input: 2,
                negated: false,
            },
        )
        .unwrap();
        x.set(2, 2, DeviceAssignment::On).unwrap();
        x.set_input_row(0).unwrap();
        x.add_output("f", 2).unwrap();
        (x, n)
    }

    #[test]
    fn valid_design_passes_both_checks() {
        let (x, n) = fig2_pair();
        let r = verify_functional(&x, &n, 64).unwrap();
        assert!(r.is_valid());
        assert_eq!(r.checked, 8, "exhaustive for 3 inputs");
        let e = verify_electrical(&x, &n, &ElectricalModel::default(), 64).unwrap();
        assert!(e.is_valid());
        let (min_on, max_off) = e.electrical_margin.unwrap();
        assert!(min_on > max_off, "separation: {min_on} vs {max_off}");
    }

    #[test]
    fn broken_design_is_caught() {
        let (mut x, n) = fig2_pair();
        // Sabotage: make the c-edge always off.
        x.set(0, 2, DeviceAssignment::Off).unwrap();
        let r = verify_functional(&x, &n, 64).unwrap();
        assert!(!r.is_valid());
        // The failing assignments all have c=1, ¬(a∧b).
        for a in &r.mismatches {
            assert!(a[2] && !(a[0] && a[1]), "unexpected mismatch {a:?}");
        }
    }

    #[test]
    fn arity_mismatch_is_a_typed_error() {
        let (x, _) = fig2_pair();
        let mut n = Network::new("two-in");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let f = n.add_gate(GateKind::And, &[a, b], "f").unwrap();
        n.mark_output(f);
        let err = verify_functional(&x, &n, 64).unwrap_err();
        assert!(matches!(
            err,
            XbarError::ReferenceInputMismatch {
                reference: 2,
                crossbar: 3
            }
        ));
        let err = verify_electrical(&x, &n, &ElectricalModel::default(), 64).unwrap_err();
        assert!(matches!(err, XbarError::ReferenceInputMismatch { .. }));
    }

    #[test]
    fn cancelled_budget_interrupts_verification() {
        let (x, n) = fig2_pair();
        let budget = Budget::unlimited();
        budget.cancel_handle().cancel();
        let err = verify_functional_budgeted(&x, &n, 64, &budget).unwrap_err();
        assert!(matches!(err, XbarError::Budget(_)));
        // An unlimited budget behaves like the plain entry point.
        let r = verify_functional_budgeted(&x, &n, 64, &Budget::unlimited()).unwrap();
        assert!(r.is_valid());
    }

    /// Every assignment as its own `Vec<bool>`, in the seeded draw order:
    /// the reference `lane_chunks` must reproduce lane for lane.
    fn materialized_assignments(num_inputs: usize, samples: usize) -> Vec<Vec<bool>> {
        if num_inputs <= 16 {
            (0..1usize << num_inputs)
                .map(|v| (0..num_inputs).map(|i| v >> i & 1 == 1).collect())
                .collect()
        } else {
            let mut rng =
                crate::rng::XorShift64::new(0x005E_ED0F_F10C_u64 ^ (num_inputs as u64) << 32);
            (0..samples.max(1))
                .map(|_| (0..num_inputs).map(|_| rng.next_u64() & 1 == 1).collect())
                .collect()
        }
    }

    #[test]
    fn lane_chunks_draw_the_materialized_assignments_in_order() {
        for (num_inputs, samples) in [
            (0, 5),
            (3, 0),
            (7, 1),
            (16, 9),
            (17, 0),
            (17, 65),
            (40, 200),
        ] {
            let want = materialized_assignments(num_inputs, samples);
            let (checked, chunks) = lane_chunks(num_inputs, samples);
            assert_eq!(checked, want.len());
            let mut got = Vec::new();
            for (words, lanes) in chunks {
                assert!(lanes <= 64 && words.len() == num_inputs);
                assert_eq!(
                    words,
                    pack_lanes(num_inputs, &want[got.len()..got.len() + lanes])
                );
                got.extend((0..lanes).map(|lane| unpack_lane(&words, lane)));
            }
            assert_eq!(got, want, "{num_inputs} inputs, {samples} samples");
        }
    }

    fn report_with_margin(margin: Option<(f64, f64)>) -> VerifyReport {
        VerifyReport {
            checked: 1,
            mismatches: Vec::new(),
            electrical_margin: margin,
        }
    }

    #[test]
    fn margin_ok_rejects_nan_bounds() {
        // NaN means the nodal analysis diverged; never certify it.
        assert!(!report_with_margin(Some((f64::NAN, 0.1))).margin_ok());
        assert!(!report_with_margin(Some((0.9, f64::NAN))).margin_ok());
        assert!(!report_with_margin(Some((f64::NAN, f64::NAN))).margin_ok());
        assert!(!report_with_margin(Some((f64::NAN, 0.1))).is_valid());
    }

    #[test]
    fn margin_ok_one_class_only_is_vacuous() {
        // Constant-1 design: no logic-0 output ever observed, max_off stays
        // at its -inf initial value. Separable by any threshold below min_on.
        assert!(report_with_margin(Some((0.7, f64::NEG_INFINITY))).margin_ok());
        // Constant-0 design: min_on stays +inf.
        assert!(report_with_margin(Some((f64::INFINITY, 0.2))).margin_ok());
        // No outputs observed at all (e.g. a portless sweep).
        assert!(report_with_margin(Some((f64::INFINITY, f64::NEG_INFINITY))).margin_ok());
    }

    #[test]
    fn margin_ok_finite_bounds_compare() {
        assert!(report_with_margin(Some((0.7, 0.2))).margin_ok());
        assert!(!report_with_margin(Some((0.2, 0.7))).margin_ok());
        assert!(
            !report_with_margin(Some((0.5, 0.5))).margin_ok(),
            "tie is not separable"
        );
        assert!(
            report_with_margin(None).margin_ok(),
            "functional-only is vacuous"
        );
    }

    #[test]
    fn zero_input_network_verifies() {
        // A constant function of no inputs: one (empty) assignment checked.
        let mut n = Network::new("const1");
        let o = n.add_const1("o");
        n.mark_output(o);
        let mut x = Crossbar::new(2, 1, 0);
        x.set(0, 0, DeviceAssignment::On).unwrap();
        x.set(1, 0, DeviceAssignment::On).unwrap();
        x.set_input_row(0).unwrap();
        x.add_output("o", 1).unwrap();
        let r = verify_functional(&x, &n, 16).unwrap();
        assert_eq!(r.checked, 1, "2^0 assignments");
        assert!(r.is_valid());
        let e = verify_electrical(&x, &n, &ElectricalModel::default(), 16).unwrap();
        assert!(e.is_valid());
        let (min_on, max_off) = e.electrical_margin.unwrap();
        assert!(min_on.is_finite());
        assert_eq!(max_off, f64::NEG_INFINITY, "no logic-0 outputs exist");
    }

    #[test]
    fn sampling_used_for_wide_inputs() {
        // 20 inputs: must sample, not enumerate.
        let mut n = Network::new("wide");
        let ins: Vec<_> = (0..20).map(|i| n.add_input(format!("x{i}"))).collect();
        let f = n.add_gate(GateKind::Or, &ins, "f").unwrap();
        n.mark_output(f);
        let mut x = Crossbar::new(2, 1, 20);
        x.set(
            0,
            0,
            DeviceAssignment::Literal {
                input: 0,
                negated: false,
            },
        )
        .unwrap();
        x.set(1, 0, DeviceAssignment::On).unwrap();
        x.set_input_row(0).unwrap();
        x.add_output("f", 1).unwrap();
        // Wrong design (only tests x0); sampling should catch it quickly.
        let r = verify_functional(&x, &n, 200).unwrap();
        assert_eq!(r.checked, 200);
        assert!(!r.is_valid());
        // Zero samples still check one assignment, never a vacuous pass.
        let r = verify_functional(&x, &n, 0).unwrap();
        assert!(r.checked >= 1);
        assert!(!r.is_valid(), "the single draw must expose the mismatch");
        for a in &r.mismatches {
            assert!(
                !a[0] && a[1..].iter().any(|&b| b),
                "unexpected mismatch {a:?}"
            );
        }
    }
}
