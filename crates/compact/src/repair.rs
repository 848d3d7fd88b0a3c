//! Defect-aware repair: make a synthesized design functionally valid on an
//! imperfect physical array described by a [`DefectMap`].
//!
//! The repair ladder, from cheapest to most drastic:
//!
//! 1. **Identity** — apply the defects where the design stands; many maps
//!    are entirely benign (stuck-off under unused cells, stuck-on under
//!    `VH` bridges).
//! 2. **Permutation** — permute wordlines and bitlines so every programmed
//!    `Literal` device lands on a healthy cell and every stuck-on cell
//!    lands on a benign crossing (an always-on `VH` bridge, or — in the
//!    relaxed pass — an `Off` don't-care whose bridge the verifier then
//!    has to bless). The permutation search is an alternating bipartite
//!    matching (Hopcroft–Karp from `flowc-graph`): match rows under the
//!    current column placement, then columns under the new row placement,
//!    and iterate.
//! 3. **Spares** — the same matching, but allowed to use the physical
//!    lines beyond the design's own size (the defect map's array may be
//!    larger than the design; the surplus lines are spare rows/columns).
//! 4. **Resynthesis** — ask the PR-1 supervisor for a *differently shaped*
//!    design (perturbed variable order, then the heuristic labeling) under
//!    a caller-supplied [`Budget`], and retry placement on it.
//!
//! Every candidate placement is accepted only after functional
//! verification of the defective array against the reference network, so a
//! returned [`RepairedDesign`] is *verified* valid under its defect map.
//! When the ladder runs dry the result is a typed
//! [`RepairError::Irreparable`] carrying the full attempt log — never a
//! panic.

use std::fmt;

use flowc_budget::Budget;
use flowc_graph::hopcroft_karp;
use flowc_logic::Network;
use flowc_xbar::fault::{apply_defects, CellState, DefectMap};
use flowc_xbar::verify::verify_functional;
use flowc_xbar::{Crossbar, DeviceAssignment, XbarError};

use crate::pipeline::Config;
use crate::session::{synthesize_in_budgeted, Session};

/// Tuning knobs for the repair ladder.
#[derive(Debug, Clone)]
pub struct RepairConfig {
    /// Assignments checked when verifying a candidate placement
    /// (exhaustive below 2^16 regardless; see
    /// [`flowc_xbar::verify::verify_functional`]).
    pub verify_samples: usize,
    /// Alternating row/column matching rounds per permutation pass.
    pub matching_rounds: usize,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            verify_samples: 256,
            matching_rounds: 3,
        }
    }
}

/// One rung of the repair ladder, as recorded in the attempt log.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RepairAction {
    /// Defects applied to the design in place, no permutation.
    Identity,
    /// Permutation search. `strict` forbids stuck-on cells under `Off`
    /// crossings; `spares` allows physical lines beyond the design size.
    Permute {
        /// Whether stuck-on-under-`Off` placements were forbidden.
        strict: bool,
        /// Whether spare physical lines were in play.
        spares: bool,
    },
    /// A fresh design was synthesized and placement retried on it.
    Resynthesize {
        /// Which perturbation produced the candidate design.
        variant: String,
    },
}

impl fmt::Display for RepairAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairAction::Identity => write!(f, "identity placement"),
            RepairAction::Permute { strict, spares } => write!(
                f,
                "{} permutation{}",
                if *strict { "strict" } else { "relaxed" },
                if *spares { " with spares" } else { "" }
            ),
            RepairAction::Resynthesize { variant } => write!(f, "resynthesis ({variant})"),
        }
    }
}

/// One attempted rung with its outcome.
#[derive(Debug, Clone)]
pub struct RepairAttempt {
    /// What was tried.
    pub action: RepairAction,
    /// Whether it produced a verified-valid placement.
    pub success: bool,
    /// Human-readable outcome (mismatch counts, matching deficits, …).
    pub detail: String,
}

/// How the shipped placement was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairStrategy {
    /// The defect map was benign as placed; nothing moved.
    Benign,
    /// A row/column permutation within the design's own footprint.
    Permutation,
    /// The permutation uses spare physical lines beyond the design size.
    Spares,
    /// A resynthesized design was placed instead of the original.
    Resynthesis,
}

impl fmt::Display for RepairStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RepairStrategy::Benign => "benign",
            RepairStrategy::Permutation => "permutation",
            RepairStrategy::Spares => "spares",
            RepairStrategy::Resynthesis => "resynthesis",
        })
    }
}

/// Structured provenance of a successful repair.
#[derive(Debug, Clone)]
pub struct RepairReport {
    /// The rung that produced the shipped placement.
    pub strategy: RepairStrategy,
    /// Every rung tried, in order.
    pub attempts: Vec<RepairAttempt>,
    /// Faults in the defect map.
    pub defects: usize,
    /// Physical array rows (the defect map's).
    pub physical_rows: usize,
    /// Physical array columns.
    pub physical_cols: usize,
    /// Logical-row → physical-wordline assignment of the shipped design.
    pub row_perm: Vec<usize>,
    /// Logical-column → physical-bitline assignment.
    pub col_perm: Vec<usize>,
    /// Assignments the accepting verification checked.
    pub verified_assignments: usize,
}

impl RepairReport {
    /// One-line human-readable summary (for logs and the CLI).
    pub fn summary(&self) -> String {
        format!(
            "repaired via {} after {} attempt(s); {} defect(s) on a {}x{} array; verified on {} assignments",
            self.strategy,
            self.attempts.len(),
            self.defects,
            self.physical_rows,
            self.physical_cols,
            self.verified_assignments
        )
    }
}

/// A design placed on the physical array and verified under its defects.
#[derive(Debug, Clone)]
pub struct RepairedDesign {
    /// The placed design: physical-array-sized, ports rebound. Programming
    /// this onto the defective array computes the reference function.
    pub crossbar: Crossbar,
    /// Provenance of the repair.
    pub report: RepairReport,
}

/// Errors from the repair ladder. Irreparability is a *result*, reported
/// with the full attempt log — callers decide whether it is fatal.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum RepairError {
    /// No rung produced a placement that verifies under the defect map.
    Irreparable {
        /// Every rung tried, in order, with outcomes.
        attempts: Vec<RepairAttempt>,
        /// Faults in the defect map.
        defects: usize,
    },
    /// The physical array is smaller than the design.
    MapTooSmall {
        /// Design size `(rows, cols)`.
        design: (usize, usize),
        /// Physical array size `(rows, cols)`.
        map: (usize, usize),
    },
    /// An evaluation/placement error from the crossbar layer (indicates a
    /// bug, not a defect condition).
    Xbar(XbarError),
}

impl fmt::Display for RepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairError::Irreparable { attempts, defects } => {
                write!(
                    f,
                    "irreparable under {defects} defect(s); attempts: {}",
                    attempts
                        .iter()
                        .map(|a| format!("{} ({})", a.action, a.detail))
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            }
            RepairError::MapTooSmall { design, map } => write!(
                f,
                "defect map describes a {}x{} array, smaller than the {}x{} design",
                map.0, map.1, design.0, design.1
            ),
            RepairError::Xbar(e) => write!(f, "crossbar error during repair: {e}"),
        }
    }
}

impl std::error::Error for RepairError {}

impl From<XbarError> for RepairError {
    fn from(e: XbarError) -> Self {
        RepairError::Xbar(e)
    }
}

/// Whether a design cell may be placed on a physical cell in `state`.
/// `strict` additionally forbids the one hazardous pairing that might
/// still be logically masked: a stuck-on cell under an `Off` crossing
/// (which bridges two wires the design meant to keep apart).
fn cell_compatible(a: DeviceAssignment, state: CellState, strict: bool) -> bool {
    match state {
        CellState::Healthy => true,
        CellState::ForcedOff => a == DeviceAssignment::Off,
        CellState::ForcedOn => a == DeviceAssignment::On || (!strict && a == DeviceAssignment::Off),
    }
}

/// Completes a partial matching into a full injective assignment by handing
/// unmatched logical lines the lowest-index free physical lines.
fn complete_assignment(pair_left: &[usize], bound: usize) -> Vec<usize> {
    let mut used = vec![false; bound];
    for &p in pair_left {
        if p != usize::MAX {
            used[p] = true;
        }
    }
    let mut free = (0..bound).filter(|&p| !used[p]);
    pair_left
        .iter()
        .map(|&p| {
            if p != usize::MAX {
                p
            } else {
                free.next().expect("bound >= pair_left.len() by contract")
            }
        })
        .collect()
}

/// Alternating bipartite-matching search for a defect-avoiding placement.
/// Returns `(row_perm, col_perm, fully_matched)`; even a partial result is
/// returned (its residual faults may verify benign).
fn permutation_search(
    design: &Crossbar,
    defects: &DefectMap,
    phys_rows: usize,
    phys_cols: usize,
    strict: bool,
    rounds: usize,
) -> (Vec<usize>, Vec<usize>, bool) {
    let (rows, cols) = (design.rows(), design.cols());
    // The search reads every design cell per round, so it reads a dense
    // grid built once rather than the sparse store.
    let mut grid = vec![DeviceAssignment::Off; rows * cols];
    for (r, c, a) in design.programmed_devices() {
        grid[r * cols + c] = a;
    }
    let cell = |r: usize, c: usize| grid[r * cols + c];
    // Likewise the physical cell states: one sparse lookup per cell, not
    // one per (logical line, physical line, cell) per round.
    let phys: Vec<CellState> = (0..phys_rows)
        .flat_map(|pr| (0..phys_cols).map(move |pc| (pr, pc)))
        .map(|(pr, pc)| defects.cell_state(pr, pc))
        .collect();
    let state = |pr: usize, pc: usize| phys[pr * phys_cols + pc];
    let mut col_perm: Vec<usize> = (0..cols).collect();
    let mut row_perm: Vec<usize> = (0..rows).collect();
    let mut perfect = false;
    for _ in 0..rounds.max(1) {
        // Rows against the current column placement.
        let row_adj: Vec<Vec<usize>> = (0..rows)
            .map(|lr| {
                (0..phys_rows)
                    .filter(|&pr| {
                        (0..cols).all(|lc| {
                            cell_compatible(cell(lr, lc), state(pr, col_perm[lc]), strict)
                        })
                    })
                    .collect()
            })
            .collect();
        let rm = hopcroft_karp(&row_adj, phys_rows);
        row_perm = complete_assignment(&rm.pair_left, phys_rows);
        // Columns against the new row placement.
        let col_adj: Vec<Vec<usize>> = (0..cols)
            .map(|lc| {
                (0..phys_cols)
                    .filter(|&pc| {
                        (0..rows).all(|lr| {
                            cell_compatible(cell(lr, lc), state(row_perm[lr], pc), strict)
                        })
                    })
                    .collect()
            })
            .collect();
        let cm = hopcroft_karp(&col_adj, phys_cols);
        col_perm = complete_assignment(&cm.pair_left, phys_cols);
        if rm.size == rows && cm.size == cols {
            perfect = true;
            break;
        }
    }
    (row_perm, col_perm, perfect)
}

/// Places the design by the given permutation, applies the defects, and
/// verifies against the reference. `Ok(Some(placed))` means the placement
/// is functionally valid on the defective array.
fn try_placement(
    network: &Network,
    design: &Crossbar,
    defects: &DefectMap,
    row_perm: &[usize],
    col_perm: &[usize],
    samples: usize,
) -> Result<(Option<Crossbar>, String, usize), RepairError> {
    let placed = design.place(row_perm, col_perm, defects.rows(), defects.cols())?;
    let faulty = apply_defects(&placed, defects)?;
    let report = verify_functional(&faulty, network, samples)?;
    if report.mismatches.is_empty() {
        Ok((
            Some(placed),
            format!("verified on {} assignments", report.checked),
            report.checked,
        ))
    } else {
        Ok((
            None,
            format!(
                "{} mismatch(es) in {} assignments",
                report.mismatches.len(),
                report.checked
            ),
            report.checked,
        ))
    }
}

/// Repairs by placement only (identity → permutation → spares): finds a
/// wordline/bitline permutation of `design` onto the defect map's physical
/// array under which the defective array still computes `network`.
///
/// # Errors
///
/// [`RepairError::MapTooSmall`] when the design does not fit the physical
/// array, [`RepairError::Irreparable`] (with the attempt log) when no
/// placement verifies.
pub fn repair_placement(
    network: &Network,
    design: &Crossbar,
    defects: &DefectMap,
    cfg: &RepairConfig,
) -> Result<RepairedDesign, RepairError> {
    let (rows, cols) = (design.rows(), design.cols());
    if defects.rows() < rows || defects.cols() < cols {
        return Err(RepairError::MapTooSmall {
            design: (rows, cols),
            map: (defects.rows(), defects.cols()),
        });
    }
    let has_spares = defects.rows() > rows || defects.cols() > cols;
    let mut attempts: Vec<RepairAttempt> = Vec::new();
    let ship = |action: RepairAction,
                strategy: RepairStrategy,
                placed: Crossbar,
                row_perm: Vec<usize>,
                col_perm: Vec<usize>,
                detail: String,
                checked: usize,
                attempts: &mut Vec<RepairAttempt>| {
        attempts.push(RepairAttempt {
            action,
            success: true,
            detail,
        });
        RepairedDesign {
            crossbar: placed,
            report: RepairReport {
                strategy,
                attempts: attempts.clone(),
                defects: defects.len(),
                physical_rows: defects.rows(),
                physical_cols: defects.cols(),
                row_perm,
                col_perm,
                verified_assignments: checked,
            },
        }
    };

    // Rung 1: identity placement — the defects may all be benign.
    let id_rows: Vec<usize> = (0..rows).collect();
    let id_cols: Vec<usize> = (0..cols).collect();
    let (placed, detail, checked) = try_placement(
        network,
        design,
        defects,
        &id_rows,
        &id_cols,
        cfg.verify_samples,
    )?;
    if let Some(placed) = placed {
        return Ok(ship(
            RepairAction::Identity,
            RepairStrategy::Benign,
            placed,
            id_rows,
            id_cols,
            detail,
            checked,
            &mut attempts,
        ));
    }
    attempts.push(RepairAttempt {
        action: RepairAction::Identity,
        success: false,
        detail,
    });

    // Rungs 2–3: permutation within the design footprint, then with
    // spares; strict compatibility before the relaxed one at each scope.
    let mut scopes = vec![(rows, cols, false)];
    if has_spares {
        scopes.push((defects.rows(), defects.cols(), true));
    }
    for &(pr, pc, spares) in &scopes {
        for strict in [true, false] {
            let action = RepairAction::Permute { strict, spares };
            let (row_perm, col_perm, matched) =
                permutation_search(design, defects, pr, pc, strict, cfg.matching_rounds);
            let (placed, detail, checked) = try_placement(
                network,
                design,
                defects,
                &row_perm,
                &col_perm,
                cfg.verify_samples,
            )?;
            let matched_note = if matched { "" } else { " (partial matching)" };
            if let Some(placed) = placed {
                let strategy = if spares {
                    RepairStrategy::Spares
                } else {
                    RepairStrategy::Permutation
                };
                return Ok(ship(
                    action,
                    strategy,
                    placed,
                    row_perm,
                    col_perm,
                    format!("{detail}{matched_note}"),
                    checked,
                    &mut attempts,
                ));
            }
            attempts.push(RepairAttempt {
                action,
                success: false,
                detail: format!("{detail}{matched_note}"),
            });
        }
    }
    Err(RepairError::Irreparable {
        attempts,
        defects: defects.len(),
    })
}

/// The perturbed synthesis configurations the resynthesis rung walks, in
/// order: a reversed then rotated BDD variable order (same strategy), and
/// finally the heuristic labeling (a differently shaped, `VH`-heavier
/// design with more placement freedom).
fn resynthesis_variants(network: &Network, config: &Config) -> Vec<(String, Config)> {
    let k = network.num_inputs();
    let mut variants = Vec::new();
    if k > 1 {
        variants.push((
            "reversed variable order".to_string(),
            Config {
                var_order: Some((0..k).rev().collect()),
                ..config.clone()
            },
        ));
        variants.push((
            "rotated variable order".to_string(),
            Config {
                var_order: Some((0..k).map(|i| (i + 1) % k).collect()),
                ..config.clone()
            },
        ));
    }
    variants.push((
        "heuristic labeling".to_string(),
        Config {
            strategy: crate::pipeline::VhStrategy::Heuristic { gamma: 0.5 },
            ..config.clone()
        },
    ));
    variants
}

/// The full repair ladder: placement repair of `design`, then
/// budget-bounded resynthesis of alternative designs (through the PR-1
/// supervisor, so resynthesis itself degrades gracefully rather than
/// failing) with placement repair retried on each.
///
/// # Errors
///
/// As [`repair_placement`]; [`RepairError::Irreparable`] carries the
/// attempt log across *all* candidate designs.
pub fn repair_with_resynthesis(
    network: &Network,
    config: &Config,
    design: &Crossbar,
    defects: &DefectMap,
    cfg: &RepairConfig,
    budget: &Budget,
) -> Result<RepairedDesign, RepairError> {
    let session = Session::with_budget(budget.clone());
    repair_with_resynthesis_in(&session, network, config, design, defects, cfg, budget)
}

/// [`repair_with_resynthesis`] inside an existing [`Session`]: candidate
/// synthesis is bounded by `budget` (typically a fresh per-trial deadline)
/// while the variants that keep the original variable order — the
/// heuristic labeling — reuse the session's cached BDD and graph
/// artifacts instead of rebuilding them every trial.
///
/// # Errors
///
/// See [`repair_with_resynthesis`].
#[allow(clippy::too_many_arguments)]
pub fn repair_with_resynthesis_in(
    session: &Session,
    network: &Network,
    config: &Config,
    design: &Crossbar,
    defects: &DefectMap,
    cfg: &RepairConfig,
    budget: &Budget,
) -> Result<RepairedDesign, RepairError> {
    let mut attempts = match repair_placement(network, design, defects, cfg) {
        Ok(done) => return Ok(done),
        Err(RepairError::Irreparable { attempts, .. }) => attempts,
        Err(other) => return Err(other),
    };
    for (variant, alt_config) in resynthesis_variants(network, config) {
        let action = RepairAction::Resynthesize {
            variant: variant.clone(),
        };
        let fresh = match synthesize_in_budgeted(session, network, &alt_config, budget) {
            Ok(r) => r,
            Err(e) => {
                attempts.push(RepairAttempt {
                    action,
                    success: false,
                    detail: format!("synthesis failed: {e}"),
                });
                continue;
            }
        };
        if fresh.crossbar.rows() > defects.rows() || fresh.crossbar.cols() > defects.cols() {
            attempts.push(RepairAttempt {
                action,
                success: false,
                detail: format!(
                    "candidate is {}x{}, larger than the {}x{} array",
                    fresh.crossbar.rows(),
                    fresh.crossbar.cols(),
                    defects.rows(),
                    defects.cols()
                ),
            });
            continue;
        }
        match repair_placement(network, &fresh.crossbar, defects, cfg) {
            Ok(mut done) => {
                attempts.push(RepairAttempt {
                    action,
                    success: true,
                    detail: format!(
                        "candidate {}x{} placed ({})",
                        fresh.crossbar.rows(),
                        fresh.crossbar.cols(),
                        done.report.summary()
                    ),
                });
                done.report.strategy = RepairStrategy::Resynthesis;
                done.report.attempts = attempts;
                return Ok(done);
            }
            Err(RepairError::Irreparable {
                attempts: sub_attempts,
                ..
            }) => {
                attempts.push(RepairAttempt {
                    action,
                    success: false,
                    detail: format!(
                        "candidate placement failed after {} attempt(s)",
                        sub_attempts.len()
                    ),
                });
            }
            Err(other) => return Err(other),
        }
    }
    Err(RepairError::Irreparable {
        attempts,
        defects: defects.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::synthesize;
    use flowc_logic::{GateKind, Network};
    use flowc_xbar::fault::{inject, DefectRates, Fault};

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

    fn fig2_design() -> (Network, Crossbar) {
        let n = fig2_network();
        let r = synthesize(&n, &Config::default()).unwrap();
        (n, r.crossbar)
    }

    /// A repaired design must verify clean with the defects applied.
    fn assert_repaired_valid(n: &Network, repaired: &RepairedDesign, defects: &DefectMap) {
        let faulty = apply_defects(&repaired.crossbar, defects).unwrap();
        let report = verify_functional(&faulty, n, 1024).unwrap();
        assert!(
            report.mismatches.is_empty(),
            "repaired design mismatches: {:?} ({})",
            report.mismatches,
            repaired.report.summary()
        );
    }

    #[test]
    fn empty_map_is_benign() {
        let (n, x) = fig2_design();
        let defects = DefectMap::new(x.rows(), x.cols());
        let repaired = repair_placement(&n, &x, &defects, &RepairConfig::default()).unwrap();
        assert_eq!(repaired.report.strategy, RepairStrategy::Benign);
        assert_repaired_valid(&n, &repaired, &defects);
    }

    #[test]
    fn functional_stuck_off_is_repaired_by_permutation() {
        let (n, x) = fig2_design();
        // The fig2 design is fully dense (every cell programmed), so a
        // stuck-off cell under a literal is provably irreparable inside the
        // same footprint — the ladder must say so with a typed error...
        let (lr, lc, _) = x
            .programmed_devices()
            .find(|(_, _, a)| a.is_literal())
            .expect("design has literals");
        let mut tight = DefectMap::new(x.rows(), x.cols());
        tight.add(Fault::StuckOff { row: lr, col: lc }).unwrap();
        match repair_placement(&n, &x, &tight, &RepairConfig::default()) {
            Err(RepairError::Irreparable { attempts, .. }) => {
                assert!(attempts.len() >= 2, "identity tried before permutation");
                assert!(!attempts[0].success);
            }
            other => panic!("dense footprint must be irreparable, got {other:?}"),
        }
        // ...while one spare column gives the permutation/spares rungs room
        // to steer the literal off the dead cell.
        let mut defects = DefectMap::new(x.rows(), x.cols() + 1);
        defects.add(Fault::StuckOff { row: lr, col: lc }).unwrap();
        let repaired = repair_placement(&n, &x, &defects, &RepairConfig::default()).unwrap();
        assert_ne!(repaired.report.strategy, RepairStrategy::Benign);
        assert!(repaired.report.attempts.len() >= 2, "identity tried first");
        assert!(!repaired.report.attempts[0].success);
        assert_repaired_valid(&n, &repaired, &defects);
    }

    #[test]
    fn broken_row_is_repaired_with_a_spare() {
        let (n, x) = fig2_design();
        // Physical array has one spare row; every cell of each non-spare
        // physical row is stuck off in turn — only a placement that moves
        // the victim row onto the spare can work.
        let mut defects = DefectMap::new(x.rows() + 1, x.cols());
        for c in 0..x.cols() {
            defects.add(Fault::StuckOff { row: 0, col: c }).unwrap();
        }
        let repaired = repair_placement(&n, &x, &defects, &RepairConfig::default()).unwrap();
        assert_repaired_valid(&n, &repaired, &defects);
        assert!(
            !repaired.report.row_perm.contains(&0)
                || repaired.report.strategy == RepairStrategy::Benign,
            "no load-bearing row may sit on the dead physical row 0: {:?}",
            repaired.report.row_perm
        );
    }

    #[test]
    fn saturated_array_is_typed_irreparable() {
        let (n, x) = fig2_design();
        let mut defects = DefectMap::new(x.rows(), x.cols());
        for r in 0..x.rows() {
            defects.add(Fault::OpenWordline { row: r }).unwrap();
        }
        let err = repair_placement(&n, &x, &defects, &RepairConfig::default()).unwrap_err();
        match err {
            RepairError::Irreparable { attempts, defects } => {
                assert_eq!(defects, x.rows());
                assert!(attempts.iter().all(|a| !a.success));
                assert!(attempts.len() >= 3, "identity + strict + relaxed");
            }
            other => panic!("expected Irreparable, got {other}"),
        }
    }

    #[test]
    fn map_smaller_than_design_is_rejected() {
        let (n, x) = fig2_design();
        let defects = DefectMap::new(x.rows() - 1, x.cols());
        assert!(matches!(
            repair_placement(&n, &x, &defects, &RepairConfig::default()),
            Err(RepairError::MapTooSmall { .. })
        ));
    }

    #[test]
    fn repair_is_deterministic() {
        let (n, x) = fig2_design();
        let defects = inject(x.rows(), x.cols(), &DefectRates::uniform(0.1), 99);
        let a = repair_placement(&n, &x, &defects, &RepairConfig::default());
        let b = repair_placement(&n, &x, &defects, &RepairConfig::default());
        match (a, b) {
            (Ok(ra), Ok(rb)) => {
                assert_eq!(ra.report.row_perm, rb.report.row_perm);
                assert_eq!(ra.report.col_perm, rb.report.col_perm);
                assert_eq!(ra.report.strategy, rb.report.strategy);
            }
            (Err(RepairError::Irreparable { .. }), Err(RepairError::Irreparable { .. })) => {}
            (a, b) => panic!("nondeterministic outcomes: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn resynthesis_ladder_survives_repairable_and_rejects_hopeless() {
        let (n, x) = fig2_design();
        let cfg = Config::default();
        // Repairable: a single stuck-off under a literal.
        let (lr, lc, _) = x
            .programmed_devices()
            .find(|(_, _, a)| a.is_literal())
            .unwrap();
        let mut defects = DefectMap::new(x.rows() + 2, x.cols() + 2);
        defects.add(Fault::StuckOff { row: lr, col: lc }).unwrap();
        let repaired = repair_with_resynthesis(
            &n,
            &cfg,
            &x,
            &defects,
            &RepairConfig::default(),
            &Budget::unlimited(),
        )
        .unwrap();
        assert_repaired_valid(&n, &repaired, &defects);
        // Hopeless: every wordline open. Resynthesis cannot help; the
        // error is typed and the attempt log names the resynthesis rungs.
        let mut dead = DefectMap::new(x.rows() + 2, x.cols() + 2);
        for r in 0..dead.rows() {
            dead.add(Fault::OpenWordline { row: r }).unwrap();
        }
        let err = repair_with_resynthesis(
            &n,
            &cfg,
            &x,
            &dead,
            &RepairConfig::default(),
            &Budget::unlimited(),
        )
        .unwrap_err();
        match err {
            RepairError::Irreparable { attempts, .. } => {
                assert!(attempts
                    .iter()
                    .any(|a| matches!(a.action, RepairAction::Resynthesize { .. })));
            }
            other => panic!("expected Irreparable, got {other}"),
        }
    }

    #[test]
    fn repaired_multi_output_benchmark_verifies() {
        let b = flowc_logic::bench_suite::by_name("ctrl").unwrap();
        let n = b.network().unwrap();
        let design = synthesize(&n, &Config::default()).unwrap().crossbar;
        let defects = inject(
            design.rows() + 2,
            design.cols() + 2,
            &DefectRates::uniform(0.02),
            7,
        );
        match repair_with_resynthesis(
            &n,
            &Config::default(),
            &design,
            &defects,
            &RepairConfig::default(),
            &Budget::unlimited(),
        ) {
            Ok(repaired) => assert_repaired_valid(&n, &repaired, &defects),
            Err(RepairError::Irreparable { .. }) => {
                // Acceptable at this density; the property under test is
                // "verified or typed", not universal repairability.
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
}
