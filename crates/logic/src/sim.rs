//! Netlist simulation: scalar and 64-way bit-parallel evaluation.

use crate::{LogicError, Network, Result};

impl Network {
    /// Evaluates the network on one input assignment; returns output values
    /// in [`Network::outputs`] order.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::InputLen`] if `values` does not match the number
    /// of primary inputs.
    pub fn simulate(&self, values: &[bool]) -> Result<Vec<bool>> {
        if values.len() != self.num_inputs() {
            return Err(LogicError::InputLen {
                got: values.len(),
                expected: self.num_inputs(),
            });
        }
        let mut state = vec![false; self.num_nets()];
        for (&net, &v) in self.inputs().iter().zip(values) {
            state[net.index()] = v;
        }
        let mut buf = Vec::new();
        for gate in self.gates() {
            buf.clear();
            buf.extend(gate.inputs.iter().map(|i| state[i.index()]));
            state[gate.output.index()] = gate.kind.eval(&buf);
        }
        Ok(self.outputs().iter().map(|o| state[o.index()]).collect())
    }

    /// Evaluates the network on 64 input assignments at once. Bit `k` of
    /// `words[i]` is the value of input `i` in assignment `k`; bit `k` of
    /// output word `j` is the value of output `j` in assignment `k`.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::InputLen`] if `words` does not match the number
    /// of primary inputs.
    pub fn simulate64(&self, words: &[u64]) -> Result<Vec<u64>> {
        if words.len() != self.num_inputs() {
            return Err(LogicError::InputLen {
                got: words.len(),
                expected: self.num_inputs(),
            });
        }
        let mut state = vec![0u64; self.num_nets()];
        for (&net, &w) in self.inputs().iter().zip(words) {
            state[net.index()] = w;
        }
        let mut buf = Vec::new();
        for gate in self.gates() {
            buf.clear();
            buf.extend(gate.inputs.iter().map(|i| state[i.index()]));
            state[gate.output.index()] = gate.kind.eval64(&buf);
        }
        Ok(self.outputs().iter().map(|o| state[o.index()]).collect())
    }
}

#[cfg(test)]
mod tests {
    use crate::{GateKind, Network};

    fn xor_tree(width: usize) -> Network {
        let mut n = Network::new("xor");
        let ins: Vec<_> = (0..width).map(|i| n.add_input(format!("x{i}"))).collect();
        let out = n.add_gate(GateKind::Xor, &ins, "p").unwrap();
        n.mark_output(out);
        n
    }

    #[test]
    fn scalar_and_wide_agree_on_parity() {
        let n = xor_tree(6);
        for assignment in 0u32..64 {
            let bits: Vec<bool> = (0..6).map(|i| assignment >> i & 1 == 1).collect();
            let scalar = n.simulate(&bits).unwrap()[0];
            assert_eq!(scalar, assignment.count_ones() % 2 == 1);
        }
        // All 64 assignments in one wide call.
        let words: Vec<u64> = (0..6)
            .map(|i| {
                let mut w = 0u64;
                for a in 0..64u64 {
                    if a >> i & 1 == 1 {
                        w |= 1 << a;
                    }
                }
                w
            })
            .collect();
        let wide = n.simulate64(&words).unwrap()[0];
        for a in 0..64u32 {
            assert_eq!(wide >> a & 1 == 1, a.count_ones() % 2 == 1);
        }
    }

    #[test]
    fn wrong_input_len_is_error() {
        let n = xor_tree(3);
        assert!(n.simulate(&[true]).is_err());
        assert!(n.simulate64(&[0, 0]).is_err());
    }
}
