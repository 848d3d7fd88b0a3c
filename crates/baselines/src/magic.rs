//! A CONTRA-style MAGIC (stateful NOR logic) execution model — the
//! in-memory-computing comparator of Figure 13.
//!
//! CONTRA maps a circuit to LUTs and executes it on a memristor crossbar
//! with MAGIC NOR operations, reporting *operation counts* (INPUT, COPY,
//! NOR) as its power proxy and *time steps* as its delay proxy. The closed
//! source is unavailable, so this module re-creates the execution model the
//! paper measures against (DESIGN.md §3):
//!
//! 1. the circuit is decomposed into an n-ary NOR netlist
//!    ([`NorNetlist::from_network`]);
//! 2. a scheduler places signals on a `dim × dim` array and executes the
//!    netlist level by level: NORs within a level run in parallel (bounded
//!    by the array dimension), while the COPY operations that realign
//!    operands serialize within each destination row
//!    ([`schedule`]) — exactly the realignment sequentiality the paper
//!    blames for CONTRA's delay.
//!
//! Power is the total number of write operations; delay is the number of
//! time steps of the schedule.

use flowc_logic::{GateKind, Network};
use flowc_xbar::XbarError;

/// Configuration of the MAGIC array (the paper's CONTRA settings).
#[derive(Debug, Clone, Copy)]
pub struct MagicConfig {
    /// Crossbar dimension (the paper uses 128×128).
    pub dim: usize,
    /// Row spacing between mapped blocks (the paper uses 6); reduces the
    /// usable parallel rows.
    pub spacing: usize,
}

impl Default for MagicConfig {
    fn default() -> Self {
        MagicConfig {
            dim: 128,
            spacing: 6,
        }
    }
}

/// An n-ary NOR netlist (signals: inputs first, then gate outputs).
#[derive(Debug, Clone)]
pub struct NorNetlist {
    num_inputs: usize,
    /// Gate `g` computes `NOR(operands)` into signal `num_inputs + g`.
    gates: Vec<Vec<usize>>,
    /// Output signal ids. `usize::MAX - 1` encodes constant 0 and
    /// `usize::MAX` constant 1 (from degenerate networks).
    outputs: Vec<usize>,
}

const CONST0: usize = usize::MAX - 1;
const CONST1: usize = usize::MAX;

impl NorNetlist {
    /// Decomposes a gate-level network into NOR gates. Buffers are aliases
    /// and constant operands fold algebraically, so the resulting netlist
    /// references only primary inputs and NOR outputs.
    ///
    /// # Panics
    ///
    /// Panics on gate kinds outside the [`GateKind`] set handled here
    /// (none exist today).
    pub fn from_network(network: &Network) -> Self {
        let mut b = NorBuilder {
            num_inputs: network.num_inputs(),
            gates: Vec::new(),
        };
        let mut signal_of = vec![usize::MAX; network.num_nets()];
        for (i, &net) in network.inputs().iter().enumerate() {
            signal_of[net.index()] = i;
        }
        for gate in network.gates() {
            let ops: Vec<usize> = gate.inputs.iter().map(|i| signal_of[i.index()]).collect();
            let out = match gate.kind {
                GateKind::Const0 => CONST0,
                GateKind::Const1 => CONST1,
                GateKind::Buf => ops[0],
                GateKind::Not => b.mk_not(ops[0]),
                GateKind::Nor => {
                    let or = b.mk_or(&ops);
                    b.mk_not(or)
                }
                GateKind::Or => b.mk_or(&ops),
                GateKind::And => b.mk_and(&ops),
                GateKind::Nand => {
                    let and = b.mk_and(&ops);
                    b.mk_not(and)
                }
                GateKind::Xor => b.mk_xor(&ops, false),
                GateKind::Xnor => b.mk_xor(&ops, true),
                GateKind::Mux => b.mk_mux(ops[0], ops[1], ops[2]),
                other => unimplemented!("NOR lowering for {other:?}"),
            };
            signal_of[gate.output.index()] = out;
        }
        let outputs = network
            .outputs()
            .iter()
            .map(|o| signal_of[o.index()])
            .collect();
        NorNetlist {
            num_inputs: b.num_inputs,
            gates: b.gates,
            outputs,
        }
    }

    /// Number of NOR gates.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }
}

/// Constant-folding NOR-netlist builder. Signals may be [`CONST0`] /
/// [`CONST1`]; emitted NOR gates never reference constants.
struct NorBuilder {
    num_inputs: usize,
    gates: Vec<Vec<usize>>,
}

impl NorBuilder {
    fn push(&mut self, ops: Vec<usize>) -> usize {
        debug_assert!(ops.iter().all(|&s| s < self.num_inputs + self.gates.len()));
        self.gates.push(ops);
        self.num_inputs + self.gates.len() - 1
    }

    fn mk_not(&mut self, s: usize) -> usize {
        match s {
            CONST0 => CONST1,
            CONST1 => CONST0,
            _ => self.push(vec![s]),
        }
    }

    /// n-ary OR with constant folding (`NOR` + inversion).
    fn mk_or(&mut self, ops: &[usize]) -> usize {
        if ops.contains(&CONST1) {
            return CONST1;
        }
        let real: Vec<usize> = ops.iter().copied().filter(|&s| s != CONST0).collect();
        match real.len() {
            0 => CONST0,
            1 => real[0],
            _ => {
                let nor = self.push(real);
                self.mk_not(nor)
            }
        }
    }

    /// n-ary AND with constant folding (`NOR` of inverted operands).
    fn mk_and(&mut self, ops: &[usize]) -> usize {
        if ops.contains(&CONST0) {
            return CONST0;
        }
        let real: Vec<usize> = ops.iter().copied().filter(|&s| s != CONST1).collect();
        match real.len() {
            0 => CONST1,
            1 => real[0],
            _ => {
                let inverted: Vec<usize> = real.iter().map(|&s| self.mk_not(s)).collect();
                self.push(inverted)
            }
        }
    }

    /// n-ary XOR (`negate` for XNOR) as a chain of 4-NOR XNOR stages.
    fn mk_xor(&mut self, ops: &[usize], negate: bool) -> usize {
        let mut complement = negate;
        let mut real = Vec::with_capacity(ops.len());
        for &s in ops {
            match s {
                CONST0 => {}
                CONST1 => complement = !complement,
                _ => real.push(s),
            }
        }
        match real.len() {
            0 => {
                if complement {
                    CONST1
                } else {
                    CONST0
                }
            }
            1 => {
                if complement {
                    self.mk_not(real[0])
                } else {
                    real[0]
                }
            }
            _ => {
                // Each stage computes XNOR(acc, b) in 4 NORs; k stages over
                // k+1 operands complement the parity k times.
                let mut acc = real[0];
                for &b2 in &real[1..] {
                    let x = self.push(vec![acc, b2]);
                    let y = self.push(vec![acc, x]);
                    let z = self.push(vec![b2, x]);
                    acc = self.push(vec![y, z]); // XNOR(acc, b2)
                }
                let stages = real.len() - 1;
                let acc_complemented = stages % 2 == 1;
                if acc_complemented != complement {
                    self.mk_not(acc)
                } else {
                    acc
                }
            }
        }
    }

    /// 2:1 mux `(s ∧ t) ∨ (¬s ∧ e)` with constant folding.
    fn mk_mux(&mut self, s: usize, t: usize, e: usize) -> usize {
        match s {
            CONST1 => return t,
            CONST0 => return e,
            _ => {}
        }
        match (t, e) {
            (CONST1, CONST0) => s,
            (CONST0, CONST1) => self.mk_not(s),
            (CONST1, _) => self.mk_or(&[s, e]),
            (CONST0, _) => {
                let ns = self.mk_not(s);
                self.mk_and(&[ns, e])
            }
            (_, CONST1) => {
                let ns = self.mk_not(s);
                self.mk_or(&[ns, t])
            }
            (_, CONST0) => self.mk_and(&[s, t]),
            _ => {
                let st = self.mk_and(&[s, t]);
                let ns = self.mk_not(s);
                let nse = self.mk_and(&[ns, e]);
                self.mk_or(&[st, nse])
            }
        }
    }
}

impl NorNetlist {
    /// Evaluates the NOR netlist on 64 assignments at once, in the lane
    /// layout of [`flowc_xbar::Crossbar::evaluate64`]: each gate ORs its
    /// operand words and complements the result.
    ///
    /// # Errors
    ///
    /// [`XbarError::InputLen`] when `input_words` has the wrong length.
    pub fn eval64(&self, input_words: &[u64]) -> flowc_xbar::Result<Vec<u64>> {
        if input_words.len() != self.num_inputs {
            return Err(XbarError::InputLen {
                got: input_words.len(),
                expected: self.num_inputs,
            });
        }
        let mut values = Vec::with_capacity(self.num_inputs + self.gates.len());
        values.extend_from_slice(input_words);
        for ops in &self.gates {
            let v = !ops.iter().fold(0, |acc, &s| acc | values[s]);
            values.push(v);
        }
        Ok(self
            .outputs
            .iter()
            .map(|&s| match s {
                CONST0 => 0,
                CONST1 => u64::MAX,
                _ => values[s],
            })
            .collect())
    }
}

/// Operation counts and schedule length of a MAGIC execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MagicReport {
    /// INPUT write operations (one per primary input).
    pub input_ops: usize,
    /// COPY operations inserted to realign operands.
    pub copy_ops: usize,
    /// NOR execution operations.
    pub nor_ops: usize,
    /// Time steps of the schedule (the delay proxy).
    pub delay_steps: usize,
}

impl MagicReport {
    /// Total write operations (the power proxy).
    pub fn total_ops(&self) -> usize {
        self.input_ops + self.copy_ops + self.nor_ops
    }
}

/// Schedules a NOR netlist on the MAGIC array and reports operation counts
/// and time steps.
///
/// MAGIC executes column-aligned operations: a single time step applies one
/// NOR (or COPY) column pattern across any number of selected rows. Gates
/// of the same level therefore batch into SIMD steps (bounded by the usable
/// row count), but the COPY operations that *realign* operands each target
/// a different source/destination column pair and serialize — this is the
/// "subsequent time steps spent realigning the data" sequentiality the
/// paper identifies as CONTRA's bottleneck (Section VIII-E).
pub fn schedule(netlist: &NorNetlist, config: &MagicConfig) -> MagicReport {
    let usable_rows = config.dim.saturating_sub(config.spacing).max(1);
    let n_signals = netlist.num_inputs + netlist.gates.len();
    // Level per signal: inputs at level 0.
    let mut level = vec![0usize; n_signals];
    for (g, ops) in netlist.gates.iter().enumerate() {
        let l = ops.iter().map(|&s| level[s]).max().unwrap_or(0) + 1;
        level[netlist.num_inputs + g] = l;
    }
    let max_level = level.iter().copied().max().unwrap_or(0);
    // Home row per signal (round-robin placement, as a simple but
    // deterministic data layout).
    let row_of = |s: usize| s % usable_rows;

    let mut copy_ops = 0usize;
    let mut nor_ops = 0usize;
    let mut delay_steps = 1usize; // all INPUT writes share one parallel step
    let mut gates_by_level: Vec<Vec<usize>> = vec![Vec::new(); max_level + 1];
    for (g, _) in netlist.gates.iter().enumerate() {
        gates_by_level[level[netlist.num_inputs + g]].push(g);
    }
    for gates in gates_by_level.iter().skip(1) {
        if gates.is_empty() {
            continue;
        }
        // Realignment: every operand living in a row other than the gate's
        // execution row needs a COPY into that row; each such copy uses its
        // own column pair and serializes.
        let mut level_copies = 0usize;
        for &g in gates {
            let exec_row = row_of(netlist.num_inputs + g);
            for &s in &netlist.gates[g] {
                if row_of(s) != exec_row {
                    level_copies += 1;
                }
            }
        }
        copy_ops += level_copies;
        // NORs of one level batch SIMD-style across rows.
        let nor_steps = gates.len().div_ceil(usable_rows);
        nor_ops += gates.len();
        delay_steps += level_copies + nor_steps;
    }
    MagicReport {
        input_ops: netlist.num_inputs,
        copy_ops,
        nor_ops,
        delay_steps,
    }
}

/// Convenience: binarize, decompose, and schedule in one call. CONTRA maps
/// LUTs over two-input AIGs, so the network is first rewritten into
/// two-input gates ([`flowc_logic::xform::binarize`]) — wide-gate inputs
/// would understate the operation counts a real MAGIC flow performs.
pub fn map_magic(network: &Network, config: &MagicConfig) -> MagicReport {
    let binary =
        flowc_logic::xform::binarize(network).expect("binarization of a valid network cannot fail");
    let nor = NorNetlist::from_network(&binary);
    schedule(&nor, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowc_logic::bench_suite;
    use flowc_logic::{GateKind, Network};

    /// Compares the NOR netlist with 64-lane simulation on `batches`
    /// words of seeded random lanes.
    fn check_equiv(network: &Network, batches: usize) {
        let nor = NorNetlist::from_network(network);
        let mut seed = 0xABCD_EF01_2345_6789u64;
        for _ in 0..batches {
            let words: Vec<u64> = (0..network.num_inputs())
                .map(|_| {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    seed
                })
                .collect();
            assert_eq!(
                nor.eval64(&words).unwrap(),
                network.simulate64(&words).unwrap(),
                "NOR decomposition mismatch on {words:x?}"
            );
        }
    }

    #[test]
    fn nor_decomposition_equivalent_for_all_gate_kinds() {
        let mut n = Network::new("all");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        for (kind, name) in [
            (GateKind::And, "g_and"),
            (GateKind::Or, "g_or"),
            (GateKind::Nand, "g_nand"),
            (GateKind::Nor, "g_nor"),
            (GateKind::Xor, "g_xor"),
            (GateKind::Xnor, "g_xnor"),
        ] {
            let g = n.add_gate(kind, &[a, b, c], name).unwrap();
            n.mark_output(g);
        }
        let nn = n.add_gate(GateKind::Not, &[a], "g_not").unwrap();
        n.mark_output(nn);
        let bb = n.add_gate(GateKind::Buf, &[b], "g_buf").unwrap();
        n.mark_output(bb);
        let mm = n.add_gate(GateKind::Mux, &[a, b, c], "g_mux").unwrap();
        n.mark_output(mm);
        n.mark_output(n.find_net("g_and").unwrap());
        check_equiv(&n, 4);
    }

    #[test]
    fn constants_fold() {
        let mut n = Network::new("c");
        let _a = n.add_input("a");
        let z = n.add_const0("z");
        let o = n.add_const1("o");
        n.mark_output(z);
        n.mark_output(o);
        let nor = NorNetlist::from_network(&n);
        assert_eq!(nor.eval64(&[u64::MAX]).unwrap(), vec![0, u64::MAX]);
        assert_eq!(nor.num_gates(), 0);
    }

    #[test]
    fn benchmarks_decompose_equivalently() {
        for name in ["ctrl", "int2float", "cavlc"] {
            let b = bench_suite::by_name(name).unwrap();
            let n = b.network().unwrap();
            check_equiv(&n, 4);
        }
    }

    #[test]
    fn schedule_counts_are_consistent() {
        let b = bench_suite::by_name("ctrl").unwrap();
        let n = b.network().unwrap();
        let nor = NorNetlist::from_network(&n);
        let report = schedule(&nor, &MagicConfig::default());
        assert_eq!(report.nor_ops, nor.num_gates());
        assert_eq!(report.input_ops, n.num_inputs());
        assert!(report.total_ops() >= report.nor_ops + report.input_ops);
        // Sequential lower bound: at least one step per level.
        assert!(report.delay_steps >= 2);
        // Fully sequential upper bound.
        assert!(report.delay_steps <= report.total_ops());
    }

    #[test]
    fn magic_is_much_slower_than_flow_based() {
        // The Figure 13 shape: CONTRA-style delay far exceeds COMPACT's
        // rows+1 on control circuits.
        let b = bench_suite::by_name("int2float").unwrap();
        let n = b.network().unwrap();
        let magic = map_magic(&n, &MagicConfig::default());
        let compact = flowc_compact::synthesize(&n, &flowc_compact::Config::default()).unwrap();
        assert!(
            magic.delay_steps > 2 * compact.metrics.delay_steps,
            "magic {} vs compact {}",
            magic.delay_steps,
            compact.metrics.delay_steps
        );
    }
}
