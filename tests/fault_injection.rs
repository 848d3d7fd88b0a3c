//! Failure-injection tests: the verification machinery must catch broken
//! designs, not just bless good ones. Each test damages a synthesized
//! crossbar in a specific way and checks that functional verification
//! reports the defect. The second half injects faults into the *solvers*
//! (exhausted budgets, panics) and checks that the synthesis supervisor
//! degrades to a valid design instead of aborting.

use std::time::{Duration, Instant};

use flowc::budget::Budget;
use flowc::compact::supervisor::{synthesize_with_budget, DegradationReport, Rung, Trigger};
use flowc::compact::{synthesize, Config};
use flowc::conform::fixtures::{fig2_network, fig2_pair, two_output_network};
use flowc::logic::bench_suite;
use flowc::xbar::verify::verify_functional;
use flowc::xbar::{Crossbar, DeviceAssignment};
use flowc_report::{write_atomic_typed, WriteStep};

#[test]
fn every_stuck_open_literal_fault_is_caught_on_fig2() {
    // Every literal device in a minimal design is load-bearing: forcing it
    // permanently off must change the function.
    let (network, crossbar) = fig2_pair();
    let faults: Vec<(usize, usize)> = crossbar
        .programmed_devices()
        .filter(|(_, _, a)| a.is_literal())
        .map(|(r, c, _)| (r, c))
        .collect();
    assert!(!faults.is_empty());
    for (r, c) in faults {
        let mut broken = crossbar.clone();
        broken.set(r, c, DeviceAssignment::Off).unwrap();
        let report = verify_functional(&broken, &network, 64).unwrap();
        assert!(
            !report.is_valid(),
            "stuck-open at ({r},{c}) was not detected"
        );
    }
}

#[test]
fn stuck_closed_faults_are_caught_unless_logically_masked() {
    // Forcing a literal device permanently on creates spurious sneak paths.
    // Some such faults are logically masked — e.g. shorting the ¬a edge
    // into node c of the Fig. 2 BDD yields f ∨ c = f — so the check is:
    // each fault is either detected, or exhaustively proven equivalent
    // (which the verifier's clean pass over all 2³ assignments is).
    let (network, crossbar) = fig2_pair();
    let mut detected = 0usize;
    let mut masked = 0usize;
    for (r, c, a) in crossbar.programmed_devices().collect::<Vec<_>>() {
        if !a.is_literal() {
            continue;
        }
        let mut broken = crossbar.clone();
        broken.set(r, c, DeviceAssignment::On).unwrap();
        let report = verify_functional(&broken, &network, 64).unwrap();
        assert_eq!(report.checked, 8, "3 inputs are checked exhaustively");
        if report.is_valid() {
            masked += 1;
        } else {
            detected += 1;
        }
    }
    assert!(detected >= 3, "most stuck-closed faults must be visible");
    assert!(
        masked <= 2,
        "fig2 has at most the ¬a-into-c class of maskings"
    );
}

#[test]
fn vh_bridge_faults_are_caught_on_fig2() {
    // Breaking the always-on bridge of a VH node splits a wire in two.
    let (network, crossbar) = fig2_pair();
    let bridges: Vec<(usize, usize)> = crossbar
        .programmed_devices()
        .filter(|(_, _, a)| *a == DeviceAssignment::On)
        .map(|(r, c, _)| (r, c))
        .collect();
    assert!(!bridges.is_empty(), "the Fig. 2 design has a VH node");
    for (r, c) in bridges {
        let mut broken = crossbar.clone();
        broken.set(r, c, DeviceAssignment::Off).unwrap();
        let report = verify_functional(&broken, &network, 64).unwrap();
        assert!(
            !report.is_valid(),
            "broken bridge at ({r},{c}) not detected"
        );
    }
}

#[test]
fn negated_literal_faults_are_caught_on_ctrl() {
    // Flip the polarity of a sample of devices on a real benchmark.
    let b = bench_suite::by_name("ctrl").unwrap();
    let network = b.network().unwrap();
    let design = synthesize(&network, &Config::default()).unwrap();
    let literals: Vec<(usize, usize, DeviceAssignment)> = design
        .crossbar
        .programmed_devices()
        .filter(|(_, _, a)| a.is_literal())
        .collect();
    let mut caught = 0usize;
    let sample: Vec<_> = literals.iter().step_by(3).collect();
    for &&(r, c, a) in &sample {
        let DeviceAssignment::Literal { input, negated } = a else {
            unreachable!("filtered to literals");
        };
        let mut broken = design.crossbar.clone();
        broken
            .set(
                r,
                c,
                DeviceAssignment::Literal {
                    input,
                    negated: !negated,
                },
            )
            .unwrap();
        let report = verify_functional(&broken, &network, 128).unwrap();
        if !report.is_valid() {
            caught += 1;
        }
    }
    // Polarity flips must be overwhelmingly visible (a rare flip can be
    // logically masked, but not many).
    assert!(
        caught * 10 >= sample.len() * 9,
        "only {caught}/{} polarity faults detected",
        sample.len()
    );
}

#[test]
fn wrong_input_port_is_caught() {
    let (network, mut crossbar) = fig2_pair();
    // Drive an output row instead of the terminal row.
    let out_row = crossbar.outputs()[0].row;
    crossbar.set_input_row(out_row).unwrap();
    let report = verify_functional(&crossbar, &network, 64).unwrap();
    assert!(!report.is_valid());
}

#[test]
fn swapped_outputs_are_caught_on_multi_output_designs() {
    let n = two_output_network();
    let design = synthesize(&n, &Config::default()).unwrap();
    // Rebind the ports in swapped order on a fresh crossbar clone.
    let mut swapped = design.crossbar.clone();
    let rows: Vec<usize> = swapped.outputs().iter().map(|p| p.row).collect();
    // Crossbar has no port-removal API (ports are append-only), so rebuild.
    let mut rebuilt = Crossbar::new(swapped.rows(), swapped.cols(), swapped.num_inputs());
    for (r, c, dev) in swapped.programmed_devices() {
        rebuilt.set(r, c, dev).unwrap();
    }
    rebuilt.set_input_row(swapped.input_row().unwrap()).unwrap();
    rebuilt.add_output("f", rows[1]).unwrap();
    rebuilt.add_output("g", rows[0]).unwrap();
    swapped = rebuilt;
    let report = verify_functional(&swapped, &n, 16).unwrap();
    assert!(!report.is_valid(), "swapped ports must be detected");
}

// ---------------------------------------------------------------------------
// Supervisor fault injection: damaged budgets and panicking solvers.
// ---------------------------------------------------------------------------

#[test]
fn zero_deadline_yields_a_degraded_but_valid_crossbar() {
    let n = fig2_network();
    let budget = Budget::unlimited().with_deadline(Duration::ZERO);
    let r = synthesize_with_budget(&n, &Config::default(), &budget)
        .expect("an exhausted budget must not abort synthesis");
    let report = r.degradation.as_ref().unwrap();
    assert!(report.degraded, "{}", report.summary());
    assert!(report.exhausted.is_some());
    assert!(verify_functional(&r.crossbar, &n, 64).unwrap().is_valid());
}

#[test]
fn one_node_bdd_ceiling_is_lifted_and_synthesis_recovers() {
    let n = fig2_network();
    let budget = Budget::unlimited().with_max_bdd_nodes(1);
    let r = synthesize_with_budget(&n, &Config::default(), &budget)
        .expect("a tiny BDD ceiling must not abort synthesis");
    let report = r.degradation.as_ref().unwrap();
    assert!(report.bdd_budget_lifted, "{}", report.summary());
    assert!(report.degraded);
    assert!(verify_functional(&r.crossbar, &n, 64).unwrap().is_valid());
}

/// The rungs that panicked, in ladder order.
fn panicked_rungs(report: &DegradationReport) -> Vec<Rung> {
    report
        .attempts
        .iter()
        .filter(|a| matches!(a.trigger, Some(Trigger::Panicked(_))))
        .map(|a| a.rung)
        .collect()
}

const PANIC_BOTH_MIP_RUNGS: &str = "compact.rung.exact-mip=panic,compact.rung.anytime-mip=panic";

#[test]
fn injected_solver_panics_degrade_but_never_abort() {
    // The scoped failpoints arm this thread only, so tests synthesizing
    // on other threads never see these panics.
    let n = fig2_network();
    let _fp = flowc_failpoint::scoped(PANIC_BOTH_MIP_RUNGS);
    let r = synthesize_with_budget(&n, &Config::default(), &Budget::unlimited())
        .expect("degradation must produce a design");
    let report = r.degradation.as_ref().unwrap();
    assert_eq!(report.rung, Rung::HeuristicOct, "{}", report.summary());
    assert!(report.degraded);
    assert_eq!(
        panicked_rungs(report),
        vec![Rung::ExactMip, Rung::AnytimeMip]
    );
    assert!(verify_functional(&r.crossbar, &n, 64).unwrap().is_valid());
}

#[test]
fn injected_bdd_panic_is_answered_by_an_unbudgeted_rebuild() {
    let n = fig2_network();
    let _fp = flowc_failpoint::scoped("compact.bdd=panic");
    let r = synthesize_with_budget(&n, &Config::default(), &Budget::unlimited())
        .expect("the rebuild must recover");
    let report = r.degradation.as_ref().unwrap();
    assert!(report.bdd_budget_lifted, "{}", report.summary());
    assert!(verify_functional(&r.crossbar, &n, 64).unwrap().is_valid());
}

#[test]
fn scoped_panics_never_leak_into_concurrent_syntheses() {
    // Regression for the process-global injector this replaced: armed
    // and unarmed threads synthesize side by side, and each must see
    // exactly its own faults.
    let n = fig2_network();
    std::thread::scope(|s| {
        for t in 0..8 {
            let n = &n;
            s.spawn(move || {
                let _fp = (t % 2 == 0).then(|| flowc_failpoint::scoped(PANIC_BOTH_MIP_RUNGS));
                for i in 0..25 {
                    let r = synthesize_with_budget(n, &Config::default(), &Budget::unlimited())
                        .expect("degradation must produce a design");
                    let report = r.degradation.as_ref().unwrap();
                    let ctx = format!("thread {t}, iteration {i}: {}", report.summary());
                    if t % 2 == 0 {
                        assert_eq!(report.rung, Rung::HeuristicOct, "{ctx}");
                        assert_eq!(
                            panicked_rungs(report),
                            vec![Rung::ExactMip, Rung::AnytimeMip],
                            "{ctx}"
                        );
                    } else {
                        assert_eq!(report.rung, Rung::ExactMip, "{ctx}");
                        assert!(panicked_rungs(report).is_empty(), "{ctx}");
                    }
                }
            });
        }
    });
}

#[test]
fn injected_temp_create_error_leaves_the_previous_file_intact() {
    let dir = std::env::temp_dir().join(format!("flowc-fault-write-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("artifact.json");
    std::fs::write(&path, "previous").unwrap();

    let err = {
        let _fp = flowc_failpoint::scoped("report.write.temp=error");
        write_atomic_typed(&path, "replacement").unwrap_err()
    };
    assert!(matches!(err.step, WriteStep::CreateTemp), "{err}");
    assert_eq!(std::fs::read(&path).unwrap(), b"previous");
    let siblings: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(
        siblings,
        ["artifact.json"],
        "no .tmp.<pid> file is left behind"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cancellation_mid_flight_aborts_with_typed_error() {
    // Explicit cancellation is a stop order, not a resource ceiling: it
    // must abort with `CompactError::Cancelled` instead of degrading
    // into the budget-lift rebuild the deadline/node ceilings use.
    let n = fig2_network();
    let budget = Budget::unlimited();
    budget.cancel_handle().cancel();
    let err = synthesize_with_budget(&n, &Config::default(), &budget).unwrap_err();
    assert!(
        matches!(err, flowc::compact::CompactError::Cancelled),
        "{err}"
    );
}

#[test]
fn deadline_overrun_is_bounded_on_a_real_benchmark() {
    // The acceptance bar: the wall clock must not blow past the deadline
    // (10% plus a small constant for scheduling noise; the ladder's
    // fallback rungs are all sub-second on these sizes).
    let b = bench_suite::by_name("ctrl").unwrap();
    let network = b.network().unwrap();
    let deadline = Duration::from_millis(200);
    let budget = Budget::unlimited().with_deadline(deadline);
    let t0 = Instant::now();
    let r = synthesize_with_budget(&network, &Config::default(), &budget).unwrap();
    let elapsed = t0.elapsed();
    assert!(
        elapsed < deadline.mul_f64(1.1) + Duration::from_millis(500),
        "synthesis took {elapsed:?} against a {deadline:?} deadline"
    );
    assert!(verify_functional(&r.crossbar, &network, 128)
        .unwrap()
        .is_valid());
}
