use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// What a memristor junction is programmed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DeviceAssignment {
    /// Unused junction: always high resistance.
    #[default]
    Off,
    /// Stuck-on junction (logic `1`): always low resistance. COMPACT uses
    /// these to bridge the wordline and bitline of a `VH`-labelled node.
    On,
    /// A literal of Boolean input `input`: low resistance when the literal
    /// evaluates true.
    Literal {
        /// Index of the Boolean input variable.
        input: usize,
        /// Whether the literal is the negation of the input.
        negated: bool,
    },
}

impl DeviceAssignment {
    /// The conductance state of the device under an input assignment.
    ///
    /// An out-of-range literal index is a programming bug; it trips a
    /// `debug_assert` in debug builds and reads as non-conducting in
    /// release builds. Evaluation paths use [`Self::conducts_checked`],
    /// which surfaces the bug as a typed error instead.
    pub fn conducts(self, inputs: &[bool]) -> bool {
        match self {
            DeviceAssignment::Off => false,
            DeviceAssignment::On => true,
            DeviceAssignment::Literal { input, negated } => {
                debug_assert!(
                    input < inputs.len(),
                    "literal input {input} out of range ({} inputs)",
                    inputs.len()
                );
                inputs.get(input).is_some_and(|&b| b ^ negated)
            }
        }
    }

    /// Checked variant of [`Self::conducts`].
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::BadLiteral`] when a literal's input index is
    /// out of range for the supplied assignment.
    pub fn conducts_checked(self, inputs: &[bool]) -> crate::Result<bool> {
        match self {
            DeviceAssignment::Off => Ok(false),
            DeviceAssignment::On => Ok(true),
            DeviceAssignment::Literal { input, negated } => inputs
                .get(input)
                .map(|&b| b ^ negated)
                .ok_or(XbarError::BadLiteral {
                    input,
                    num_inputs: inputs.len(),
                }),
        }
    }

    /// Whether the device is assigned a literal (counted as "active" by the
    /// paper's power model).
    pub fn is_literal(self) -> bool {
        matches!(self, DeviceAssignment::Literal { .. })
    }
}

impl fmt::Display for DeviceAssignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceAssignment::Off => write!(f, "0"),
            DeviceAssignment::On => write!(f, "1"),
            DeviceAssignment::Literal { input, negated } => {
                write!(f, "{}x{}", if *negated { "!" } else { "" }, input)
            }
        }
    }
}

/// A named output port bound to a wordline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    /// Output name (the circuit's output net name).
    pub name: String,
    /// Wordline (row) index the output is sensed on.
    pub row: usize,
}

/// Errors from crossbar construction and evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum XbarError {
    /// A row index was out of range.
    RowOutOfRange {
        /// Offending index.
        row: usize,
        /// Number of rows.
        rows: usize,
    },
    /// A column index was out of range.
    ColOutOfRange {
        /// Offending index.
        col: usize,
        /// Number of columns.
        cols: usize,
    },
    /// Evaluation was given the wrong number of input values.
    InputLen {
        /// Values supplied.
        got: usize,
        /// Inputs expected.
        expected: usize,
    },
    /// The crossbar has no input port assigned.
    NoInputPort,
    /// A programmed literal references an input index the crossbar does not
    /// have — a programming bug, surfaced as a typed error by the checked
    /// evaluation paths.
    BadLiteral {
        /// The literal's (out-of-range) input index.
        input: usize,
        /// Number of inputs the evaluation supplied.
        num_inputs: usize,
    },
    /// A verification reference disagrees with the crossbar on the input
    /// count.
    ReferenceInputMismatch {
        /// Inputs of the reference network.
        reference: usize,
        /// Inputs of the crossbar.
        crossbar: usize,
    },
    /// A row/column permutation handed to [`Crossbar::place`] was
    /// malformed (wrong length, out-of-range target, or duplicate target).
    Placement {
        /// What was wrong with the permutation.
        reason: String,
    },
    /// A cooperative budget was exhausted mid-verification.
    Budget(flowc_budget::BudgetExceeded),
}

impl fmt::Display for XbarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XbarError::RowOutOfRange { row, rows } => {
                write!(f, "row {row} out of range (crossbar has {rows} rows)")
            }
            XbarError::ColOutOfRange { col, cols } => {
                write!(f, "column {col} out of range (crossbar has {cols} columns)")
            }
            XbarError::InputLen { got, expected } => {
                write!(f, "got {got} input values, crossbar expects {expected}")
            }
            XbarError::NoInputPort => write!(f, "crossbar has no input port"),
            XbarError::BadLiteral { input, num_inputs } => write!(
                f,
                "programmed literal references input {input} but only {num_inputs} inputs exist"
            ),
            XbarError::ReferenceInputMismatch {
                reference,
                crossbar,
            } => write!(
                f,
                "reference network has {reference} inputs but the crossbar has {crossbar}"
            ),
            XbarError::Placement { reason } => write!(f, "bad placement: {reason}"),
            XbarError::Budget(e) => write!(f, "verification interrupted: {e}"),
        }
    }
}

impl From<flowc_budget::BudgetExceeded> for XbarError {
    fn from(e: flowc_budget::BudgetExceeded) -> Self {
        XbarError::Budget(e)
    }
}

impl std::error::Error for XbarError {}

/// A crossbar design: the programmed junctions plus input/output port
/// bindings.
///
/// Rows are wordlines, columns are bitlines. `input_row` is the wordline
/// driven with the supply voltage during evaluation (the paper drives the
/// bottom-most wordline); each output is sensed on its own wordline.
///
/// Only the non-[`DeviceAssignment::Off`] junctions are stored: a COMPACT
/// design programs one junction per BDD edge and one bridge per `VH` node,
/// a tiny fraction of its `rows × cols` grid, so building, placing and
/// evaluating a design costs O(rows + cols + devices).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Crossbar {
    rows: usize,
    cols: usize,
    /// The programmed junctions keyed by `(row, col)`, so iteration is
    /// row-major; an absent key is an `Off` junction.
    devices: BTreeMap<(usize, usize), DeviceAssignment>,
    num_inputs: usize,
    input_row: Option<usize>,
    outputs: Vec<Port>,
    row_labels: Vec<String>,
    col_labels: Vec<String>,
}

impl Crossbar {
    /// Creates an all-off crossbar with `rows × cols` junctions for a
    /// function of `num_inputs` Boolean inputs.
    pub fn new(rows: usize, cols: usize, num_inputs: usize) -> Self {
        Crossbar {
            rows,
            cols,
            devices: BTreeMap::new(),
            num_inputs,
            input_row: None,
            outputs: Vec::new(),
            row_labels: vec![String::new(); rows],
            col_labels: vec![String::new(); cols],
        }
    }

    /// Number of wordlines (rows).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of bitlines (columns).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of Boolean inputs the device literals may reference.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    fn check(&self, row: usize, col: usize) -> crate::Result<()> {
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
        Ok(())
    }

    /// Programs the junction at `(row, col)`; programming it
    /// [`DeviceAssignment::Off`] unprograms it.
    ///
    /// # Errors
    ///
    /// Returns an error when either index is out of range.
    pub fn set(&mut self, row: usize, col: usize, a: DeviceAssignment) -> crate::Result<()> {
        self.check(row, col)?;
        if a == DeviceAssignment::Off {
            self.devices.remove(&(row, col));
        } else {
            self.devices.insert((row, col), a);
        }
        Ok(())
    }

    /// The junction assignment at `(row, col)`.
    ///
    /// # Errors
    ///
    /// Returns an error when either index is out of range.
    pub fn get(&self, row: usize, col: usize) -> crate::Result<DeviceAssignment> {
        self.check(row, col)?;
        Ok(self.devices.get(&(row, col)).copied().unwrap_or_default())
    }

    /// Binds the input port (driven wordline).
    ///
    /// # Errors
    ///
    /// Returns an error when `row` is out of range.
    pub fn set_input_row(&mut self, row: usize) -> crate::Result<()> {
        if row >= self.rows {
            return Err(XbarError::RowOutOfRange {
                row,
                rows: self.rows,
            });
        }
        self.input_row = Some(row);
        Ok(())
    }

    /// The input port wordline, if bound.
    pub fn input_row(&self) -> Option<usize> {
        self.input_row
    }

    /// Adds an output port on wordline `row`.
    ///
    /// # Errors
    ///
    /// Returns an error when `row` is out of range.
    pub fn add_output(&mut self, name: impl Into<String>, row: usize) -> crate::Result<()> {
        if row >= self.rows {
            return Err(XbarError::RowOutOfRange {
                row,
                rows: self.rows,
            });
        }
        self.outputs.push(Port {
            name: name.into(),
            row,
        });
        Ok(())
    }

    /// The output ports in binding order.
    pub fn outputs(&self) -> &[Port] {
        &self.outputs
    }

    /// Sets a debugging label on a wordline (e.g. the BDD node it realizes).
    ///
    /// # Errors
    ///
    /// Returns an error when `row` is out of range.
    pub fn set_row_label(&mut self, row: usize, label: impl Into<String>) -> crate::Result<()> {
        if row >= self.rows {
            return Err(XbarError::RowOutOfRange {
                row,
                rows: self.rows,
            });
        }
        self.row_labels[row] = label.into();
        Ok(())
    }

    /// Sets a debugging label on a bitline.
    ///
    /// # Errors
    ///
    /// Returns an error when `col` is out of range.
    pub fn set_col_label(&mut self, col: usize, label: impl Into<String>) -> crate::Result<()> {
        if col >= self.cols {
            return Err(XbarError::ColOutOfRange {
                col,
                cols: self.cols,
            });
        }
        self.col_labels[col] = label.into();
        Ok(())
    }

    /// The label of a wordline (empty when unset or out of range).
    pub fn row_label(&self, row: usize) -> &str {
        self.row_labels.get(row).map_or("", String::as_str)
    }

    /// The label of a bitline (empty when unset or out of range).
    pub fn col_label(&self, col: usize) -> &str {
        self.col_labels.get(col).map_or("", String::as_str)
    }

    /// Iterates over all non-[`DeviceAssignment::Off`] junctions as
    /// `(row, col, assignment)`, in row-major order.
    pub fn programmed_devices(
        &self,
    ) -> impl Iterator<Item = (usize, usize, DeviceAssignment)> + '_ {
        self.devices.iter().map(|(&(r, c), &a)| (r, c, a))
    }

    /// Flow-based evaluation: programs the devices and returns, for each
    /// output port, whether a conducting path connects the input wordline to
    /// that output wordline. This is the idealised sneak-path model; see
    /// [`crate::circuit`] for the electrical version.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::NoInputPort`] when no input row is bound,
    /// [`XbarError::InputLen`] on a wrong-sized assignment, or
    /// [`XbarError::BadLiteral`] when a programmed literal's index is out
    /// of range.
    pub fn evaluate(&self, inputs: &[bool]) -> crate::Result<Vec<bool>> {
        let reached = self.reachable_rows(inputs)?;
        Ok(self.outputs.iter().map(|p| reached[p.row]).collect())
    }

    /// The set of wordlines electrically connected to the input wordline
    /// under an assignment: lane 0 of the [`Evaluator`]'s reachability.
    ///
    /// # Errors
    ///
    /// See [`Crossbar::evaluate`].
    pub fn reachable_rows(&self, inputs: &[bool]) -> crate::Result<Vec<bool>> {
        let words: Vec<u64> = inputs
            .iter()
            .map(|&b| if b { u64::MAX } else { 0 })
            .collect();
        let reach = self.evaluator().reach(&words)?;
        Ok(reach[..self.rows].iter().map(|w| w & 1 == 1).collect())
    }

    /// Evaluates 64 input assignments at once: bit `k` of `input_words[i]`
    /// is input `i` in assignment `k`; bit `k` of output word `j` reports
    /// output `j` under assignment `k`. Builds an [`Evaluator`] for the
    /// one call; a caller evaluating many batches builds it once with
    /// [`Crossbar::evaluator`].
    ///
    /// # Errors
    ///
    /// See [`Evaluator::evaluate64`].
    pub fn evaluate64(&self, input_words: &[u64]) -> crate::Result<Vec<u64>> {
        self.evaluator().evaluate64(input_words)
    }

    /// The crossbar's wire graph as per-wire device lists, ready to
    /// evaluate any number of 64-lane batches. Costs O(rows + cols +
    /// devices).
    pub fn evaluator(&self) -> Evaluator<'_> {
        let wires = self.rows + self.cols;
        let mut devices = Vec::with_capacity(self.devices.len());
        let mut start = vec![0usize; wires + 1];
        let mut bad_literal = None;
        for (r, c, a) in self.programmed_devices() {
            start[r + 1] += 1;
            start[self.rows + c + 1] += 1;
            if let DeviceAssignment::Literal { input, .. } = a {
                if input >= self.num_inputs && bad_literal.is_none() {
                    bad_literal = Some(input);
                }
            }
            devices.push(a);
        }
        for w in 0..wires {
            start[w + 1] += start[w];
        }
        let mut fill = start.clone();
        let mut adj = vec![(0usize, 0usize); start[wires]];
        for (d, (r, c, _)) in self.programmed_devices().enumerate() {
            let col = self.rows + c;
            adj[fill[r]] = (col, d);
            fill[r] += 1;
            adj[fill[col]] = (r, d);
            fill[col] += 1;
        }
        Evaluator {
            xbar: self,
            devices,
            start,
            adj,
            bad_literal,
        }
    }

    /// Re-places the design onto a (possibly larger) physical grid:
    /// logical row `r` lands on physical wordline `row_perm[r]`, logical
    /// column `c` on physical bitline `col_perm[c]`. Devices, port
    /// bindings, and labels all move together; physical lines not in the
    /// image of the permutation are left all-[`DeviceAssignment::Off`]
    /// (spare lines). This is the mechanism the defect-aware repair pass
    /// uses to steer programmed junctions away from faulty cells.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::Placement`] when a permutation has the wrong
    /// length, targets an out-of-range line, or maps two logical lines to
    /// the same physical line.
    pub fn place(
        &self,
        row_perm: &[usize],
        col_perm: &[usize],
        phys_rows: usize,
        phys_cols: usize,
    ) -> crate::Result<Crossbar> {
        let check_perm = |perm: &[usize], len: usize, bound: usize, kind: &str| {
            if perm.len() != len {
                return Err(XbarError::Placement {
                    reason: format!("{kind} permutation has {} entries, need {len}", perm.len()),
                });
            }
            let mut used = vec![false; bound];
            for &p in perm {
                if p >= bound {
                    return Err(XbarError::Placement {
                        reason: format!("{kind} target {p} out of range (physical size {bound})"),
                    });
                }
                if used[p] {
                    return Err(XbarError::Placement {
                        reason: format!("{kind} target {p} used twice"),
                    });
                }
                used[p] = true;
            }
            Ok(())
        };
        check_perm(row_perm, self.rows, phys_rows, "row")?;
        check_perm(col_perm, self.cols, phys_cols, "column")?;
        let mut placed = Crossbar::new(phys_rows, phys_cols, self.num_inputs);
        placed.devices = self
            .programmed_devices()
            .map(|(r, c, a)| ((row_perm[r], col_perm[c]), a))
            .collect();
        if let Some(input_row) = self.input_row {
            placed.input_row = Some(row_perm[input_row]);
        }
        for p in &self.outputs {
            placed.outputs.push(Port {
                name: p.name.clone(),
                row: row_perm[p.row],
            });
        }
        for (r, label) in self.row_labels.iter().enumerate() {
            placed.row_labels[row_perm[r]] = label.clone();
        }
        for (c, label) in self.col_labels.iter().enumerate() {
            placed.col_labels[col_perm[c]] = label.clone();
        }
        Ok(placed)
    }

    /// Renders the device grid as text (one row per wordline), as in the
    /// paper's Figure 2(c) matrices. Intended for debugging small designs.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for r in 0..self.rows {
            for c in 0..self.cols {
                let a = self.devices.get(&(r, c)).copied().unwrap_or_default();
                let _ = write!(out, "{:>4}", a.to_string());
            }
            let mut tags = Vec::new();
            if Some(r) == self.input_row {
                tags.push("in".to_string());
            }
            for p in &self.outputs {
                if p.row == r {
                    tags.push(format!("out:{}", p.name));
                }
            }
            if tags.is_empty() {
                let _ = writeln!(out);
            } else {
                let _ = writeln!(out, "   <- {}", tags.join(","));
            }
        }
        out
    }
}

/// A crossbar's wire graph as per-wire device lists (one compressed sparse
/// adjacency over wordlines `0..rows` and bitlines `rows..rows + cols`),
/// built once by [`Crossbar::evaluator`]. Flow-based evaluation is graph
/// reachability from the input wordline; [`Evaluator::evaluate64`] runs it
/// for 64 assignments at once by propagating lane masks with a FIFO
/// worklist, so each wire forwards only the lanes that newly reached it.
#[derive(Debug, Clone)]
pub struct Evaluator<'a> {
    xbar: &'a Crossbar,
    /// Programmed devices in row-major order, indexed by device id.
    devices: Vec<DeviceAssignment>,
    /// `adj[start[w]..start[w + 1]]` lists wire `w`'s `(other wire, device)`.
    start: Vec<usize>,
    adj: Vec<(usize, usize)>,
    /// The first (row-major) literal whose input index the crossbar lacks.
    bad_literal: Option<usize>,
}

impl Evaluator<'_> {
    /// Evaluates 64 input assignments at once, in the lane layout of
    /// [`Crossbar::evaluate64`]: bit `k` of output word `j` reports
    /// output `j` under assignment `k`.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::NoInputPort`] when no input row is bound,
    /// [`XbarError::InputLen`] on a wrong-sized assignment, or
    /// [`XbarError::BadLiteral`] when a programmed literal's index is out
    /// of range.
    pub fn evaluate64(&self, input_words: &[u64]) -> crate::Result<Vec<u64>> {
        let reach = self.reach(input_words)?;
        Ok(self.xbar.outputs.iter().map(|p| reach[p.row]).collect())
    }

    /// The lane masks reaching every wire (wordlines first): the least
    /// fixpoint of propagation from the input wordline through conducting
    /// devices.
    fn reach(&self, input_words: &[u64]) -> crate::Result<Vec<u64>> {
        let input_row = self.xbar.input_row.ok_or(XbarError::NoInputPort)?;
        if input_words.len() != self.xbar.num_inputs {
            return Err(XbarError::InputLen {
                got: input_words.len(),
                expected: self.xbar.num_inputs,
            });
        }
        if let Some(input) = self.bad_literal {
            return Err(XbarError::BadLiteral {
                input,
                num_inputs: input_words.len(),
            });
        }
        let masks: Vec<u64> = self
            .devices
            .iter()
            .map(|&a| match a {
                DeviceAssignment::Off => 0,
                DeviceAssignment::On => u64::MAX,
                DeviceAssignment::Literal { input, negated } => {
                    let word = input_words[input];
                    if negated {
                        !word
                    } else {
                        word
                    }
                }
            })
            .collect();
        // `pending[w]` holds the lanes that reached `w` but have not yet been
        // forwarded; a wire is queued exactly while it has pending lanes.
        let mut reach = vec![0u64; self.start.len() - 1];
        let mut pending = reach.clone();
        reach[input_row] = u64::MAX;
        pending[input_row] = u64::MAX;
        let mut queue = VecDeque::from([input_row]);
        while let Some(w) = queue.pop_front() {
            let fresh = std::mem::take(&mut pending[w]);
            for &(v, d) in &self.adj[self.start[w]..self.start[w + 1]] {
                let gained = fresh & masks[d] & !reach[v];
                if gained != 0 {
                    reach[v] |= gained;
                    if pending[v] == 0 {
                        queue.push_back(v);
                    }
                    pending[v] |= gained;
                }
            }
        }
        Ok(reach)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 2 crossbar for f = (a ∧ b) ∨ c.
    ///
    /// Wires: rows = [1-terminal (input), node b, node a (output root)],
    /// cols = [node c's bitline / bridge structure]. We reproduce the spirit
    /// with an explicit hand mapping:
    ///   row0 = input (terminal 1), row1 = internal, row2 = output.
    fn fig2_crossbar() -> Crossbar {
        // f = (a AND b) OR c over inputs [a, b, c].
        // Layout: col0 connects row0-row1 via literal b; col1 connects
        // row1-row2 via literal a; col2 connects row0-row2 via literal c.
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
        x
    }

    #[test]
    fn fig2_truth_table() {
        let x = fig2_crossbar();
        for bits in 0u32..8 {
            let a = bits & 1 != 0;
            let b = bits & 2 != 0;
            let c = bits & 4 != 0;
            let out = x.evaluate(&[a, b, c]).unwrap();
            assert_eq!(out, vec![(a && b) || c], "{bits:03b}");
        }
    }

    #[test]
    fn assignments_conduct_correctly() {
        let on = DeviceAssignment::On;
        let off = DeviceAssignment::Off;
        let lit = DeviceAssignment::Literal {
            input: 0,
            negated: false,
        };
        let nlit = DeviceAssignment::Literal {
            input: 0,
            negated: true,
        };
        assert!(on.conducts(&[false]));
        assert!(!off.conducts(&[true]));
        assert!(lit.conducts(&[true]) && !lit.conducts(&[false]));
        assert!(nlit.conducts(&[false]) && !nlit.conducts(&[true]));
        assert!(lit.is_literal() && nlit.is_literal());
        assert!(!on.is_literal() && !off.is_literal());
    }

    #[test]
    fn bounds_checked() {
        let mut x = Crossbar::new(2, 2, 1);
        assert!(matches!(
            x.set(2, 0, DeviceAssignment::On),
            Err(XbarError::RowOutOfRange { .. })
        ));
        assert!(matches!(
            x.set(0, 5, DeviceAssignment::On),
            Err(XbarError::ColOutOfRange { .. })
        ));
        assert!(x.set_input_row(3).is_err());
        assert!(x.add_output("f", 9).is_err());
        assert!(x.get(0, 0).is_ok());
    }

    #[test]
    fn missing_input_port_is_error() {
        let x = Crossbar::new(2, 2, 1);
        assert_eq!(x.evaluate(&[true]).unwrap_err(), XbarError::NoInputPort);
    }

    #[test]
    fn wrong_input_len_is_error() {
        let x = fig2_crossbar();
        assert!(matches!(
            x.evaluate(&[true]),
            Err(XbarError::InputLen {
                got: 1,
                expected: 3
            })
        ));
    }

    #[test]
    fn no_path_through_off_devices() {
        let mut x = Crossbar::new(2, 1, 1);
        x.set(
            0,
            0,
            DeviceAssignment::Literal {
                input: 0,
                negated: false,
            },
        )
        .unwrap();
        // row1-col0 left Off: even with the literal on, row 1 is unreachable.
        x.set_input_row(0).unwrap();
        x.add_output("f", 1).unwrap();
        assert_eq!(x.evaluate(&[true]).unwrap(), vec![false]);
    }

    #[test]
    fn multi_output_sensing() {
        // Input row 0; outputs on rows 1 and 2 with different literals.
        let mut x = Crossbar::new(3, 2, 2);
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
        x.set(
            0,
            1,
            DeviceAssignment::Literal {
                input: 1,
                negated: false,
            },
        )
        .unwrap();
        x.set(2, 1, DeviceAssignment::On).unwrap();
        x.set_input_row(0).unwrap();
        x.add_output("f0", 1).unwrap();
        x.add_output("f1", 2).unwrap();
        assert_eq!(x.evaluate(&[true, false]).unwrap(), vec![true, false]);
        assert_eq!(x.evaluate(&[false, true]).unwrap(), vec![false, true]);
        assert_eq!(x.evaluate(&[true, true]).unwrap(), vec![true, true]);
    }

    #[test]
    fn evaluate64_agrees_with_scalar_on_fig2() {
        let x = fig2_crossbar();
        // Pack all 8 assignments into the low lanes.
        let mut words = vec![0u64; 3];
        for lane in 0..8u64 {
            for (i, w) in words.iter_mut().enumerate() {
                if lane >> i & 1 == 1 {
                    *w |= 1 << lane;
                }
            }
        }
        let wide = x.evaluate64(&words).unwrap();
        assert_eq!(wide.len(), 1);
        for lane in 0..8u64 {
            let ins: Vec<bool> = (0..3).map(|i| lane >> i & 1 == 1).collect();
            let scalar = x.evaluate(&ins).unwrap()[0];
            assert_eq!(wide[0] >> lane & 1 == 1, scalar, "lane {lane}");
        }
    }

    #[test]
    fn evaluate64_checks_arity_and_port() {
        let x = fig2_crossbar();
        assert!(matches!(
            x.evaluate64(&[0]),
            Err(XbarError::InputLen {
                got: 1,
                expected: 3
            })
        ));
        let no_port = Crossbar::new(2, 2, 1);
        assert_eq!(
            no_port.evaluate64(&[0]).unwrap_err(),
            XbarError::NoInputPort
        );
    }

    #[test]
    fn programmed_devices_iterator() {
        let x = fig2_crossbar();
        let devs: Vec<_> = x.programmed_devices().collect();
        assert_eq!(devs.len(), 6);
        assert_eq!(devs.iter().filter(|(_, _, a)| a.is_literal()).count(), 3);
    }

    #[test]
    fn render_marks_ports() {
        let x = fig2_crossbar();
        let text = x.render();
        assert!(text.contains("<- in"));
        assert!(text.contains("out:f"));
        assert!(text.contains("x2"));
    }

    #[test]
    fn bad_literal_is_a_typed_error_not_a_panic() {
        let mut x = Crossbar::new(2, 1, 1);
        x.set(
            0,
            0,
            DeviceAssignment::Literal {
                input: 7,
                negated: false,
            },
        )
        .unwrap();
        x.set(1, 0, DeviceAssignment::On).unwrap();
        x.set_input_row(0).unwrap();
        x.add_output("f", 1).unwrap();
        assert_eq!(
            x.evaluate(&[true]).unwrap_err(),
            XbarError::BadLiteral {
                input: 7,
                num_inputs: 1
            }
        );
        assert!(matches!(
            x.evaluate64(&[0]),
            Err(XbarError::BadLiteral { input: 7, .. })
        ));
        let bad = DeviceAssignment::Literal {
            input: 7,
            negated: true,
        };
        assert!(matches!(
            bad.conducts_checked(&[true]),
            Err(XbarError::BadLiteral { .. })
        ));
    }

    #[test]
    fn place_identity_preserves_function() {
        let x = fig2_crossbar();
        let id_rows: Vec<usize> = (0..x.rows()).collect();
        let id_cols: Vec<usize> = (0..x.cols()).collect();
        let placed = x.place(&id_rows, &id_cols, x.rows(), x.cols()).unwrap();
        for bits in 0u32..8 {
            let ins: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(
                placed.evaluate(&ins).unwrap(),
                x.evaluate(&ins).unwrap(),
                "{bits:03b}"
            );
        }
    }

    #[test]
    fn place_permutes_and_adds_spares() {
        let x = fig2_crossbar();
        // Shuffle rows and columns into a 5×4 physical array with spares.
        let placed = x.place(&[4, 0, 2], &[3, 1, 0], 5, 4).unwrap();
        assert_eq!(placed.rows(), 5);
        assert_eq!(placed.cols(), 4);
        assert_eq!(placed.input_row(), Some(4));
        assert_eq!(placed.outputs()[0].row, 2);
        for bits in 0u32..8 {
            let ins: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(
                placed.evaluate(&ins).unwrap(),
                x.evaluate(&ins).unwrap(),
                "{bits:03b}"
            );
        }
        // Spare row 1 and spare column 2 carry no devices.
        for c in 0..4 {
            assert_eq!(placed.get(1, c).unwrap(), DeviceAssignment::Off);
        }
        for r in 0..5 {
            assert_eq!(placed.get(r, 2).unwrap(), DeviceAssignment::Off);
        }
    }

    #[test]
    fn place_rejects_malformed_permutations() {
        let x = fig2_crossbar();
        // Wrong length.
        assert!(matches!(
            x.place(&[0, 1], &[0, 1, 2], 3, 3),
            Err(XbarError::Placement { .. })
        ));
        // Out of range.
        assert!(matches!(
            x.place(&[0, 1, 5], &[0, 1, 2], 3, 3),
            Err(XbarError::Placement { .. })
        ));
        // Duplicate target.
        assert!(matches!(
            x.place(&[0, 1, 1], &[0, 1, 2], 3, 3),
            Err(XbarError::Placement { .. })
        ));
    }

    #[test]
    fn labels_roundtrip() {
        let mut x = Crossbar::new(2, 2, 1);
        x.set_row_label(0, "root").unwrap();
        x.set_col_label(1, "n3").unwrap();
        assert_eq!(x.row_label(0), "root");
        assert_eq!(x.col_label(1), "n3");
        assert_eq!(x.row_label(1), "");
        assert!(x.set_row_label(5, "bad").is_err());
    }
}
