//! Manufacturing-defect modeling for crossbar designs: a typed defect map
//! (stuck-off / stuck-on junctions, open wordlines / bitlines), a
//! deterministic seedable fault-injection engine, and [`apply_defects`],
//! which shows a design as the defective array computes it.
//!
//! Real ReRAM arrays ship with a percentage of unprogrammable junctions
//! and the occasional broken nanowire; a mapping that is only valid on a
//! perfect array is not manufacturable. This module provides the fault
//! side of defect tolerance; the repair side (steering programmed devices
//! away from bad cells) lives in the `flowc-compact` crate.
//!
//! The defect semantics follow the flow-based-computing fault literature:
//!
//! - **stuck-off**: the junction is permanently high-resistance — any
//!   assignment programmed there reads as [`DeviceAssignment::Off`];
//! - **stuck-on**: permanently low-resistance — reads as
//!   [`DeviceAssignment::On`], bridging its wordline and bitline;
//! - **open wordline / bitline**: the nanowire is severed — no junction on
//!   the line can carry current, so every cell on it acts stuck-off (an
//!   open dominates a stuck-on junction on the same line).

use std::collections::BTreeSet;
use std::fmt;

use crate::rng::XorShift64;
use crate::{Crossbar, DeviceAssignment, Result, XbarError};

/// A single manufacturing defect on a physical crossbar array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum Fault {
    /// Junction permanently high-resistance (cannot be programmed on).
    StuckOff {
        /// Wordline of the faulty junction.
        row: usize,
        /// Bitline of the faulty junction.
        col: usize,
    },
    /// Junction permanently low-resistance (cannot be programmed off).
    StuckOn {
        /// Wordline of the faulty junction.
        row: usize,
        /// Bitline of the faulty junction.
        col: usize,
    },
    /// Severed wordline: no junction on the row conducts.
    OpenWordline {
        /// The broken row.
        row: usize,
    },
    /// Severed bitline: no junction on the column conducts.
    OpenBitline {
        /// The broken column.
        col: usize,
    },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::StuckOff { row, col } => write!(f, "stuck-off {row} {col}"),
            Fault::StuckOn { row, col } => write!(f, "stuck-on {row} {col}"),
            Fault::OpenWordline { row } => write!(f, "open-row {row}"),
            Fault::OpenBitline { col } => write!(f, "open-col {col}"),
        }
    }
}

/// The effective state of one physical cell once all defects (junction
/// stucks and line opens) are accounted for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellState {
    /// Programmable as designed.
    Healthy,
    /// Reads as permanently off (stuck-off junction or an open line —
    /// opens dominate, since a severed wire conducts nothing).
    ForcedOff,
    /// Reads as permanently on.
    ForcedOn,
}

/// Error from parsing a textual defect map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DefectParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for DefectParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "defect map line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for DefectParseError {}

/// A typed, deduplicated defect map over a physical array of known size.
///
/// The textual format (read by `flowc --defect-map`, written by
/// [`fmt::Display`]) is line-oriented: a `dims R C` header, then one fault
/// per line (`stuck-off r c`, `stuck-on r c`, `open-row r`, `open-col c`),
/// with `#` comments and blank lines ignored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DefectMap {
    rows: usize,
    cols: usize,
    faults: BTreeSet<Fault>,
}

impl DefectMap {
    /// An empty defect map for a `rows × cols` physical array.
    pub fn new(rows: usize, cols: usize) -> Self {
        DefectMap {
            rows,
            cols,
            faults: BTreeSet::new(),
        }
    }

    /// Physical wordline count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Physical bitline count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of recorded (deduplicated) faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the array is defect-free.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Iterates the faults in a deterministic (sorted) order.
    pub fn faults(&self) -> impl Iterator<Item = Fault> + '_ {
        self.faults.iter().copied()
    }

    /// Records a fault. Duplicates are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::RowOutOfRange`] / [`XbarError::ColOutOfRange`]
    /// when the fault lies outside the physical array.
    pub fn add(&mut self, fault: Fault) -> Result<()> {
        let (row, col) = match fault {
            Fault::StuckOff { row, col } | Fault::StuckOn { row, col } => (Some(row), Some(col)),
            Fault::OpenWordline { row } => (Some(row), None),
            Fault::OpenBitline { col } => (None, Some(col)),
        };
        if let Some(row) = row {
            if row >= self.rows {
                return Err(XbarError::RowOutOfRange {
                    row,
                    rows: self.rows,
                });
            }
        }
        if let Some(col) = col {
            if col >= self.cols {
                return Err(XbarError::ColOutOfRange {
                    col,
                    cols: self.cols,
                });
            }
        }
        self.faults.insert(fault);
        Ok(())
    }

    /// Whether the wordline is severed.
    pub fn is_open_row(&self, row: usize) -> bool {
        self.faults.contains(&Fault::OpenWordline { row })
    }

    /// Whether the bitline is severed.
    pub fn is_open_col(&self, col: usize) -> bool {
        self.faults.contains(&Fault::OpenBitline { col })
    }

    /// The effective state of a physical cell: line opens dominate junction
    /// stucks, and stuck-off dominates stuck-on (a junction both recorded
    /// stuck-off and stuck-on cannot conduct reliably, so it is treated as
    /// off).
    pub fn cell_state(&self, row: usize, col: usize) -> CellState {
        if self.is_open_row(row)
            || self.is_open_col(col)
            || self.faults.contains(&Fault::StuckOff { row, col })
        {
            CellState::ForcedOff
        } else if self.faults.contains(&Fault::StuckOn { row, col }) {
            CellState::ForcedOn
        } else {
            CellState::Healthy
        }
    }

    /// Parses the textual format (see the type-level docs).
    ///
    /// # Errors
    ///
    /// Returns a [`DefectParseError`] naming the offending line for syntax
    /// errors, a missing/duplicate `dims` header, or out-of-range faults.
    pub fn parse(text: &str) -> std::result::Result<DefectMap, DefectParseError> {
        let mut map: Option<DefectMap> = None;
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            let content = raw.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            let fields: Vec<&str> = content.split_whitespace().collect();
            let err = |message: String| DefectParseError { line, message };
            let num = |s: &str| {
                s.parse::<usize>()
                    .map_err(|_| err(format!("`{s}` is not a non-negative integer")))
            };
            match fields.as_slice() {
                ["dims", r, c] => {
                    if map.is_some() {
                        return Err(err("duplicate `dims` header".into()));
                    }
                    map = Some(DefectMap::new(num(r)?, num(c)?));
                }
                [kind, rest @ ..] => {
                    let map = map
                        .as_mut()
                        .ok_or_else(|| err("`dims R C` header must come first".into()))?;
                    let fault = match (*kind, rest) {
                        ("stuck-off", [r, c]) => Fault::StuckOff {
                            row: num(r)?,
                            col: num(c)?,
                        },
                        ("stuck-on", [r, c]) => Fault::StuckOn {
                            row: num(r)?,
                            col: num(c)?,
                        },
                        ("open-row", [r]) => Fault::OpenWordline { row: num(r)? },
                        ("open-col", [c]) => Fault::OpenBitline { col: num(c)? },
                        _ => return Err(err(format!("unrecognized fault line `{content}`"))),
                    };
                    map.add(fault).map_err(|e| err(e.to_string()))?;
                }
                [] => unreachable!("empty lines skipped above"),
            }
        }
        map.ok_or(DefectParseError {
            line: 0,
            message: "empty defect map (no `dims R C` header)".into(),
        })
    }
}

impl fmt::Display for DefectMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "dims {} {}", self.rows, self.cols)?;
        for fault in &self.faults {
            writeln!(f, "{fault}")?;
        }
        Ok(())
    }
}

/// Per-cell and per-line defect probabilities for the injection engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefectRates {
    /// Probability that a junction is stuck-off.
    pub stuck_off: f64,
    /// Probability that a junction is stuck-on.
    pub stuck_on: f64,
    /// Probability that a wordline or bitline is severed.
    pub open_line: f64,
}

impl DefectRates {
    /// The conventional split for a total junction-defect density `p`:
    /// stuck-off faults dominate real arrays roughly 3:1, and line opens
    /// are far rarer than junction defects (two orders of magnitude here).
    pub fn uniform(p: f64) -> Self {
        DefectRates {
            stuck_off: 0.75 * p,
            stuck_on: 0.25 * p,
            open_line: 0.01 * p,
        }
    }
}

/// Deterministically samples a defect map for a `rows × cols` physical
/// array. The same `(rows, cols, rates, seed)` always produces the same
/// map, independent of platform — campaigns and CI are reproducible.
pub fn inject(rows: usize, cols: usize, rates: &DefectRates, seed: u64) -> DefectMap {
    let mut rng = XorShift64::new(seed);
    let mut map = DefectMap::new(rows, cols);
    for row in 0..rows {
        for col in 0..cols {
            // One draw decides the cell so the two junction fault kinds are
            // mutually exclusive, as they are physically.
            let u = rng.uniform();
            let fault = if u < rates.stuck_off {
                Some(Fault::StuckOff { row, col })
            } else if u < rates.stuck_off + rates.stuck_on {
                Some(Fault::StuckOn { row, col })
            } else {
                None
            };
            if let Some(f) = fault {
                map.add(f).expect("in range by construction");
            }
        }
    }
    for row in 0..rows {
        if rng.chance(rates.open_line) {
            map.add(Fault::OpenWordline { row })
                .expect("in range by construction");
        }
    }
    for col in 0..cols {
        if rng.chance(rates.open_line) {
            map.add(Fault::OpenBitline { col })
                .expect("in range by construction");
        }
    }
    map
}

/// Applies a defect map to a crossbar, returning the array as manufactured:
/// forced-off cells read [`DeviceAssignment::Off`] whatever was programmed,
/// forced-on cells read [`DeviceAssignment::On`].
///
/// # Errors
///
/// Returns [`XbarError::Placement`] when the map's dimensions do not match
/// the crossbar's (apply defects to the *placed* design, not the logical
/// one).
pub fn apply_defects(xbar: &Crossbar, map: &DefectMap) -> Result<Crossbar> {
    if map.rows() != xbar.rows() || map.cols() != xbar.cols() {
        return Err(XbarError::Placement {
            reason: format!(
                "defect map is {}x{} but the crossbar is {}x{}",
                map.rows(),
                map.cols(),
                xbar.rows(),
                xbar.cols()
            ),
        });
    }
    // Must-stay clone: injection is non-destructive by contract — every
    // campaign trial derives a fresh faulty copy from the pristine design.
    let mut faulty = xbar.clone();
    for fault in map.faults() {
        match fault {
            Fault::StuckOff { row, col } => faulty.set(row, col, DeviceAssignment::Off)?,
            Fault::StuckOn { row, col } => {
                // An open line on the same cell dominates; cell_state
                // resolves the precedence.
                if map.cell_state(row, col) == CellState::ForcedOn {
                    faulty.set(row, col, DeviceAssignment::On)?;
                }
            }
            Fault::OpenWordline { row } => {
                for col in 0..faulty.cols() {
                    faulty.set(row, col, DeviceAssignment::Off)?;
                }
            }
            Fault::OpenBitline { col } => {
                for row in 0..faulty.rows() {
                    faulty.set(row, col, DeviceAssignment::Off)?;
                }
            }
        }
    }
    Ok(faulty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_functional;
    use flowc_logic::{GateKind, Network};

    /// The Fig. 2 design for f = (a ∧ b) ∨ c with its reference network.
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

    /// Whether the design with every fault of `map` applied still computes
    /// the reference on every assignment.
    fn survives(x: &Crossbar, n: &Network, map: &DefectMap) -> bool {
        let faulty = apply_defects(x, map).unwrap();
        verify_functional(&faulty, n, 64).unwrap().is_valid()
    }

    #[test]
    fn empty_map_changes_nothing() {
        let (x, n) = fig2_pair();
        let map = DefectMap::new(3, 3);
        let faulty = apply_defects(&x, &map).unwrap();
        assert!(survives(&x, &n, &map));
        for bits in 0u32..8 {
            let ins: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(faulty.evaluate(&ins).unwrap(), x.evaluate(&ins).unwrap());
        }
    }

    #[test]
    fn stuck_off_on_a_literal_is_functional() {
        let (x, n) = fig2_pair();
        let mut map = DefectMap::new(3, 3);
        map.add(Fault::StuckOff { row: 0, col: 2 }).unwrap();
        assert!(!survives(&x, &n, &map));
    }

    #[test]
    fn stuck_on_on_a_bridge_is_benign() {
        let (x, n) = fig2_pair();
        // (1,0) is a VH bridge (always on) — sticking it on changes nothing.
        let mut map = DefectMap::new(3, 3);
        map.add(Fault::StuckOn { row: 1, col: 0 }).unwrap();
        assert!(survives(&x, &n, &map));
    }

    #[test]
    fn open_wordline_kills_the_design() {
        let (x, n) = fig2_pair();
        let mut map = DefectMap::new(3, 3);
        map.add(Fault::OpenWordline { row: 0 }).unwrap();
        assert!(!survives(&x, &n, &map));
        // The severed input row conducts nothing.
        let faulty = apply_defects(&x, &map).unwrap();
        for bits in 0u32..8 {
            let ins: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(faulty.evaluate(&ins).unwrap(), vec![false]);
        }
    }

    #[test]
    fn open_line_dominates_stuck_on() {
        let mut map = DefectMap::new(3, 3);
        map.add(Fault::StuckOn { row: 1, col: 1 }).unwrap();
        map.add(Fault::OpenWordline { row: 1 }).unwrap();
        assert_eq!(map.cell_state(1, 1), CellState::ForcedOff);
        let (x, _) = fig2_pair();
        let faulty = apply_defects(&x, &map).unwrap();
        assert_eq!(faulty.get(1, 1).unwrap(), DeviceAssignment::Off);
    }

    #[test]
    fn each_fault_is_judged_on_its_own() {
        let (x, n) = fig2_pair();
        let bridge = Fault::StuckOn { row: 1, col: 0 }; // benign (bridge)
        let literal = Fault::StuckOff { row: 0, col: 0 }; // kills literal b
        let mut both = DefectMap::new(3, 3);
        for (fault, benign) in [(bridge, true), (literal, false)] {
            let mut single = DefectMap::new(3, 3);
            single.add(fault).unwrap();
            assert_eq!(survives(&x, &n, &single), benign, "{fault:?}");
            both.add(fault).unwrap();
        }
        assert!(!survives(&x, &n, &both));
    }

    #[test]
    fn injection_is_deterministic_and_rate_sensitive() {
        let rates = DefectRates::uniform(0.05);
        let a = inject(40, 40, &rates, 123);
        let b = inject(40, 40, &rates, 123);
        assert_eq!(a, b, "same seed, same map");
        let c = inject(40, 40, &rates, 124);
        assert_ne!(a, c, "different seed, different map");
        // Density roughly matches the requested rate: 1600 cells at 5%.
        let junctions = a
            .faults()
            .filter(|f| matches!(f, Fault::StuckOff { .. } | Fault::StuckOn { .. }))
            .count();
        assert!((20..=140).contains(&junctions), "got {junctions}");
        let zero = inject(40, 40, &DefectRates::uniform(0.0), 123);
        assert!(zero.is_empty());
    }

    #[test]
    fn map_bounds_are_checked() {
        let mut map = DefectMap::new(2, 2);
        assert!(matches!(
            map.add(Fault::StuckOff { row: 2, col: 0 }),
            Err(XbarError::RowOutOfRange { .. })
        ));
        assert!(matches!(
            map.add(Fault::OpenBitline { col: 9 }),
            Err(XbarError::ColOutOfRange { .. })
        ));
        assert!(map.is_empty());
    }

    #[test]
    fn apply_requires_matching_dims() {
        let (x, _) = fig2_pair();
        let map = DefectMap::new(5, 5);
        assert!(matches!(
            apply_defects(&x, &map),
            Err(XbarError::Placement { .. })
        ));
    }

    #[test]
    fn text_format_round_trips() {
        let mut map = DefectMap::new(4, 5);
        map.add(Fault::StuckOff { row: 1, col: 2 }).unwrap();
        map.add(Fault::StuckOn { row: 0, col: 4 }).unwrap();
        map.add(Fault::OpenWordline { row: 3 }).unwrap();
        map.add(Fault::OpenBitline { col: 0 }).unwrap();
        let text = map.to_string();
        let parsed = DefectMap::parse(&text).unwrap();
        assert_eq!(parsed, map);
    }

    #[test]
    fn parse_reports_errors_with_line_numbers() {
        assert!(DefectMap::parse("").is_err());
        let err = DefectMap::parse("stuck-off 0 0\n").unwrap_err();
        assert_eq!(err.line, 1, "header must come first: {err}");
        let err = DefectMap::parse("dims 2 2\nwat 1 2\n").unwrap_err();
        assert_eq!(err.line, 2);
        let err = DefectMap::parse("dims 2 2\nstuck-off 5 0\n").unwrap_err();
        assert_eq!(err.line, 2, "{err}");
        let err = DefectMap::parse("dims 2 2\ndims 3 3\n").unwrap_err();
        assert_eq!(err.line, 2);
        // Comments and blanks are fine.
        let map = DefectMap::parse("# hi\n\ndims 2 2\nstuck-on 1 1 # ok\n").unwrap();
        assert_eq!(map.len(), 1);
    }
}
