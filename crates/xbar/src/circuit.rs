//! DC nodal analysis of the crossbar's resistive network — the stand-in for
//! the paper's SPICE validation.
//!
//! Every wordline and bitline is a circuit node; every non-off junction is a
//! resistor (`r_on` when conducting, `r_off` otherwise). The input wordline
//! is driven at `v_in`, each output wordline is tied to ground through a
//! sensing resistor, and the resulting linear system `G·v = b` is solved by
//! dense Gaussian elimination with partial pivoting. A high sensed voltage
//! indicates a conducting sneak path, i.e. a true function output.

use crate::{Crossbar, Result, XbarError};

/// Device and measurement parameters of the electrical model. Defaults
/// match the flow-based-computing literature's HfO₂-style devices:
/// `Ron = 1 kΩ`, `Roff = 10 MΩ` (a 10⁴ on/off ratio), sensing resistor
/// `100 kΩ`, 1 V supply. The large ratio is what keeps a long series
/// on-path distinguishable from the aggregate off-state leakage of a big
/// crossbar.
#[derive(Debug, Clone, Copy)]
pub struct ElectricalModel {
    /// Supply voltage applied to the input wordline.
    pub v_in: f64,
    /// Low (conducting) memristor resistance, ohms.
    pub r_on: f64,
    /// High (blocking) memristor resistance, ohms.
    pub r_off: f64,
    /// Sensing resistor from each output wordline to ground, ohms.
    pub r_sense: f64,
    /// Tiny leak conductance to ground on every node, for numerical
    /// regularization of floating wires.
    pub g_leak: f64,
}

impl Default for ElectricalModel {
    fn default() -> Self {
        ElectricalModel {
            v_in: 1.0,
            r_on: 1e3,
            r_off: 1e7,
            r_sense: 1e5,
            g_leak: 1e-12,
        }
    }
}

impl ElectricalModel {
    /// Solves the crossbar network under `inputs` and returns the sensed
    /// voltage on each output port, in port order.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::NoInputPort`] when no input row is bound,
    /// [`XbarError::InputLen`] on a wrong-sized assignment, or
    /// [`XbarError::BadLiteral`] when a programmed literal's index is out
    /// of range.
    pub fn output_voltages(&self, xbar: &Crossbar, inputs: &[bool]) -> Result<Vec<f64>> {
        let input_row = xbar.input_row().ok_or(XbarError::NoInputPort)?;
        if inputs.len() != xbar.num_inputs() {
            return Err(XbarError::InputLen {
                got: inputs.len(),
                expected: xbar.num_inputs(),
            });
        }
        let rows = xbar.rows();
        let cols = xbar.cols();
        // Node numbering: rows 0..rows, cols rows..rows+cols. The input row
        // is a Dirichlet node (fixed at v_in) and is eliminated.
        let total = rows + cols;
        let mut idx = vec![usize::MAX; total];
        let mut unknowns = 0usize;
        for (node, slot) in idx.iter_mut().enumerate() {
            if node != input_row {
                *slot = unknowns;
                unknowns += 1;
            }
        }
        let mut g = vec![vec![0.0f64; unknowns]; unknowns];
        let mut b = vec![0.0f64; unknowns];
        for &node in &idx {
            if node != usize::MAX {
                g[node][node] += self.g_leak;
            }
        }
        // Junction resistors.
        for (r, c, a) in xbar.programmed_devices() {
            let conductance = if a.conducts_checked(inputs)? {
                1.0 / self.r_on
            } else {
                1.0 / self.r_off
            };
            stamp(
                &mut g,
                &mut b,
                &idx,
                (r, rows + c),
                conductance,
                input_row,
                self.v_in,
            );
        }
        // Sensing resistors to ground on output rows.
        for port in xbar.outputs() {
            if port.row != input_row {
                let i = idx[port.row];
                g[i][i] += 1.0 / self.r_sense;
            }
        }
        let v = solve_dense(g, b);
        Ok(xbar
            .outputs()
            .iter()
            .map(|p| {
                if p.row == input_row {
                    self.v_in
                } else {
                    v[idx[p.row]]
                }
            })
            .collect())
    }

    /// Evaluates the crossbar electrically with a fixed decision threshold:
    /// an output is logic 1 when its sensed voltage exceeds
    /// `threshold_fraction · v_in`.
    ///
    /// # Errors
    ///
    /// See [`ElectricalModel::output_voltages`].
    pub fn evaluate(
        &self,
        xbar: &Crossbar,
        inputs: &[bool],
        threshold_fraction: f64,
    ) -> Result<Vec<bool>> {
        Ok(self
            .output_voltages(xbar, inputs)?
            .into_iter()
            .map(|v| v > threshold_fraction * self.v_in)
            .collect())
    }
}

/// Stamps a conductance between two nodes, folding Dirichlet terms into `b`.
fn stamp(
    g: &mut [Vec<f64>],
    b: &mut [f64],
    idx: &[usize],
    (n1, n2): (usize, usize),
    conductance: f64,
    dirichlet: usize,
    v_in: f64,
) {
    let i1 = if n1 == dirichlet { usize::MAX } else { idx[n1] };
    let i2 = if n2 == dirichlet { usize::MAX } else { idx[n2] };
    match (i1, i2) {
        (usize::MAX, usize::MAX) => {}
        (usize::MAX, j) => {
            g[j][j] += conductance;
            b[j] += conductance * v_in;
        }
        (i, usize::MAX) => {
            g[i][i] += conductance;
            b[i] += conductance * v_in;
        }
        (i, j) => {
            g[i][i] += conductance;
            g[j][j] += conductance;
            g[i][j] -= conductance;
            g[j][i] -= conductance;
        }
    }
}

/// Dense Gaussian elimination with partial pivoting.
fn solve_dense(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Vec<f64> {
    let n = b.len();
    for col in 0..n {
        // Pivot selection.
        let pivot = (col..n)
            .max_by(|&i, &j| {
                a[i][col]
                    .abs()
                    .partial_cmp(&a[j][col].abs())
                    .expect("no NaN")
            })
            .expect("nonempty");
        a.swap(col, pivot);
        b.swap(col, pivot);
        let p = a[col][col];
        if p.abs() < 1e-30 {
            continue; // isolated node held at ~0 by the leak conductance
        }
        for row in (col + 1)..n {
            let factor = a[row][col] / p;
            if factor != 0.0 {
                let (upper, lower) = a.split_at_mut(row);
                for (dst, &src) in lower[0][col..].iter_mut().zip(&upper[col][col..]) {
                    *dst -= factor * src;
                }
                b[row] -= factor * b[col];
            }
        }
    }
    let mut x = vec![0.0f64; n];
    for col in (0..n).rev() {
        let mut sum = b[col];
        for k in (col + 1)..n {
            sum -= a[col][k] * x[k];
        }
        x[col] = if a[col][col].abs() < 1e-30 {
            0.0
        } else {
            sum / a[col][col]
        };
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceAssignment;

    /// Two wires bridged by a single device, sensed through Rs: a classic
    /// voltage divider.
    fn divider(on: bool) -> f64 {
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
        x.set(1, 0, DeviceAssignment::On).unwrap();
        x.set_input_row(0).unwrap();
        x.add_output("f", 1).unwrap();
        let m = ElectricalModel::default();
        m.output_voltages(&x, &[on]).unwrap()[0]
    }

    #[test]
    fn voltage_divider_matches_hand_calculation() {
        // Path: Vin - R(lit) - bitline - R(on) - output row - Rs - gnd.
        // On: V = Rs / (Rs + 2·Ron) = 1e5 / 1.02e5 ≈ 0.9804.
        let v_on = divider(true);
        assert!((v_on - 1e5 / 1.02e5).abs() < 1e-6, "got {v_on}");
        // Off: V = Rs / (Rs + Roff + Ron) ≈ 0.0099.
        let v_off = divider(false);
        assert!(
            (v_off - 1e5 / (1e5 + 1e7 + 1e3)).abs() < 1e-6,
            "got {v_off}"
        );
        assert!(v_on > 50.0 * v_off, "on/off separation");
    }

    #[test]
    fn electrical_agrees_with_flow_on_fig2() {
        // f = (a ∧ b) ∨ c mapped by hand (same design as the model tests).
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
        let m = ElectricalModel::default();
        for bits in 0u32..8 {
            let ins: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            let flow = x.evaluate(&ins).unwrap();
            let elec = m.evaluate(&x, &ins, 0.3).unwrap();
            assert_eq!(flow, elec, "assignment {bits:03b}");
        }
    }

    #[test]
    fn floating_output_reads_near_zero() {
        let mut x = Crossbar::new(2, 1, 1);
        // No devices at all; output floats, leak pulls it to ground.
        x.set_input_row(0).unwrap();
        x.add_output("f", 1).unwrap();
        let v = ElectricalModel::default()
            .output_voltages(&x, &[true])
            .unwrap()[0];
        assert!(v.abs() < 1e-3, "got {v}");
    }

    #[test]
    fn multiple_outputs_sensed_independently() {
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
        let m = ElectricalModel::default();
        let v = m.output_voltages(&x, &[true, false]).unwrap();
        assert!(v[0] > 0.5 && v[1] < 0.1, "got {v:?}");
    }

    #[test]
    fn errors_propagate() {
        let x = Crossbar::new(2, 2, 1);
        let m = ElectricalModel::default();
        assert!(m.output_voltages(&x, &[true]).is_err()); // no input port
    }
}
