//! Incremental re-synthesis over streaming netlist edits.
//!
//! A [`EditSession`] holds an editable view of a netlist and the COMPACT
//! artifacts of its last synthesis. Each applied [`NetlistEdit`] is keyed
//! by per-output *cone-of-influence* content hashes — an FNV digest of the
//! transitive fan-in of each primary output, not of the whole network — so
//! an edit invalidates exactly the outputs whose cones it touches. Edits
//! that leave every cone intact (dead-logic inserts, removals of unused
//! gates, reverts back to a recently-seen state) resolve as cache hits
//! without running the solver at all.
//!
//! When a cone does change, the previous VH-labeling is *repaired* rather
//! than discarded: [`repair_labeling`] matches the old BDD graph's nodes
//! to the new one with the Hopcroft–Karp matcher (the same machinery the
//! defect-repair path uses for permutation search), transfers the matched
//! labels, upgrades anything unmatched or newly-infeasible to `Vh`, and
//! hands the result to the branch & bound as a warm-start incumbent.
//! When the match turns out to be an attribute-preserving isomorphism —
//! the edit rebuilt the BDD but did not change its labeling model, as
//! function-preserving rewires and reverts do — the permuted labeling is
//! provably optimal and ships directly, with no solver stage at all.
//! Otherwise the solver still *proves* optimality, so an incremental
//! solve lands on the same objective value a cold solve would — repair
//! changes the path, never the destination. The fallback ladder is:
//!
//! 1. **Hit** — the combined cone key matches a cached result (or the
//!    session's labeling artifact cache already holds this graph's
//!    optimum); no solve runs.
//! 2. **Repaired** — the old labeling transferred wholesale: either the
//!    perfect-transfer fast path shipped it without solving, or the
//!    solver accepted it as its incumbent with most nodes matched.
//! 3. **Warm-started** — little of the old labeling survived the match,
//!    but the (mostly-`Vh`) transfer still seeded the solver.
//! 4. **Cold** — the solver ran without a usable incumbent.
//!
//! The differential guarantee (incremental ≡ cold after every edit) is
//! exercised by `flowc-conform`'s edit-stream fuzzer; see DESIGN.md §15.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use flowc_budget::Budget;
use flowc_graph::{hopcroft_karp, BipartiteMatching};
use flowc_logic::{GateKind, LogicError, NetId, Network};
use flowc_xbar::metrics::CrossbarMetrics;

use crate::labeling::{Labeling, VhLabel};
use crate::mapping::map_to_crossbar;
use crate::pass::{BddBuildPass, GraphExtractPass, NormalizePass, Pass};
use crate::pipeline::{CompactError, CompactResult, Config};
use crate::preprocess::BddGraph;
use crate::session::{graph_key, synthesize_in_budgeted, ArtifactKey, Session, SessionConfig};
use crate::supervisor::DegradationReport;

// ---------------------------------------------------------------------------
// The edit vocabulary
// ---------------------------------------------------------------------------

/// One typed edit against an [`EditableNetlist`]. Nets are addressed by
/// name (the stable identity across edits); output slots by position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistEdit {
    /// Add a gate driving a fresh net `name`, fed by existing nets.
    AddGate {
        /// Fresh net name the new gate drives.
        name: String,
        /// Gate function.
        kind: GateKind,
        /// Operand net names, in pin order.
        inputs: Vec<String>,
    },
    /// Remove a gate nothing references (no fanout, not an output).
    RemoveGate {
        /// Net name of the gate to remove.
        name: String,
    },
    /// Reconnect one input pin of an existing gate to another net.
    RewireInput {
        /// Net name of the gate being rewired.
        gate: String,
        /// Pin index within the gate's operand list.
        pin: usize,
        /// Net name of the new source.
        source: String,
    },
    /// Point an existing output slot at a different net.
    RetargetOutput {
        /// Output slot (position in the output list).
        index: usize,
        /// Net name the slot should observe.
        target: String,
    },
    /// Append a new primary output observing `target`.
    AddOutput {
        /// Net name the new output observes.
        target: String,
    },
    /// Remove an output slot (the remaining slots shift down).
    DropOutput {
        /// Output slot to remove.
        index: usize,
    },
}

impl fmt::Display for NetlistEdit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistEdit::AddGate { name, kind, inputs } => {
                write!(f, "add {name} {}", kind.name())?;
                for i in inputs {
                    write!(f, " {i}")?;
                }
                Ok(())
            }
            NetlistEdit::RemoveGate { name } => write!(f, "remove {name}"),
            NetlistEdit::RewireInput { gate, pin, source } => {
                write!(f, "rewire {gate} {pin} {source}")
            }
            NetlistEdit::RetargetOutput { index, target } => {
                write!(f, "retarget {index} {target}")
            }
            NetlistEdit::AddOutput { target } => write!(f, "add-output {target}"),
            NetlistEdit::DropOutput { index } => write!(f, "drop-output {index}"),
        }
    }
}

fn parse_kind(name: &str) -> Option<GateKind> {
    [
        GateKind::Const0,
        GateKind::Const1,
        GateKind::Buf,
        GateKind::Not,
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Mux,
    ]
    .into_iter()
    .find(|&kind| kind.name() == name)
}

/// Parses one edit-script line (the inverse of [`NetlistEdit`]'s
/// `Display`). Grammar, one edit per line:
///
/// ```text
/// add <net> <kind> <operand>...      remove <net>
/// rewire <gate> <pin> <source>       retarget <slot> <net>
/// add-output <net>                   drop-output <slot>
/// ```
///
/// # Errors
///
/// A human-readable message naming the malformed token.
pub fn parse_edit(line: &str) -> Result<NetlistEdit, String> {
    let mut words = line.split_whitespace();
    let verb = words.next().ok_or("empty edit line")?;
    let rest: Vec<&str> = words.collect();
    let index = |w: &str| -> Result<usize, String> {
        w.parse().map_err(|_| format!("`{w}` is not a slot index"))
    };
    match verb {
        "add" => {
            if rest.len() < 2 {
                return Err("add needs `<net> <kind> <operand>...`".into());
            }
            let kind =
                parse_kind(rest[1]).ok_or_else(|| format!("unknown gate kind `{}`", rest[1]))?;
            Ok(NetlistEdit::AddGate {
                name: rest[0].to_string(),
                kind,
                inputs: rest[2..].iter().map(|s| s.to_string()).collect(),
            })
        }
        "remove" => match rest.as_slice() {
            [name] => Ok(NetlistEdit::RemoveGate {
                name: name.to_string(),
            }),
            _ => Err("remove needs `<net>`".into()),
        },
        "rewire" => match rest.as_slice() {
            [gate, pin, source] => Ok(NetlistEdit::RewireInput {
                gate: gate.to_string(),
                pin: index(pin)?,
                source: source.to_string(),
            }),
            _ => Err("rewire needs `<gate> <pin> <source>`".into()),
        },
        "retarget" => match rest.as_slice() {
            [slot, target] => Ok(NetlistEdit::RetargetOutput {
                index: index(slot)?,
                target: target.to_string(),
            }),
            _ => Err("retarget needs `<slot> <net>`".into()),
        },
        "add-output" => match rest.as_slice() {
            [target] => Ok(NetlistEdit::AddOutput {
                target: target.to_string(),
            }),
            _ => Err("add-output needs `<net>`".into()),
        },
        "drop-output" => match rest.as_slice() {
            [slot] => Ok(NetlistEdit::DropOutput {
                index: index(slot)?,
            }),
            _ => Err("drop-output needs `<slot>`".into()),
        },
        other => Err(format!("unknown edit verb `{other}`")),
    }
}

/// Parses a whole edit script: one edit per line, `#` comments and blank
/// lines skipped.
///
/// # Errors
///
/// The first malformed line, with its 1-based line number.
pub fn parse_edit_script(text: &str) -> Result<Vec<NetlistEdit>, String> {
    let mut edits = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        edits.push(parse_edit(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(edits)
}

/// Why an edit (or a session operation) was rejected. Every variant is a
/// *refusal*: the netlist is left exactly as it was before the call.
#[derive(Debug, Clone, PartialEq)]
pub enum EditError {
    /// A referenced net name does not exist.
    UnknownNet(String),
    /// The named net exists but is a primary input, not a gate.
    NotAGate(String),
    /// `AddGate` would shadow an existing net name.
    NameTaken(String),
    /// `RemoveGate` target still feeds a gate or a primary output.
    GateInUse(String),
    /// A pin index is out of range for the gate's operand list.
    PinOutOfRange {
        /// The gate being rewired.
        gate: String,
        /// The offending pin index.
        pin: usize,
        /// The gate's arity.
        arity: usize,
    },
    /// An output slot index is out of range.
    OutputOutOfRange(usize),
    /// The edit would leave the netlist with no primary outputs.
    NoOutputs,
    /// Rewiring would close a combinational cycle.
    WouldCycle(String),
    /// The operand count is illegal for the gate kind.
    Arity {
        /// The gate kind.
        kind: GateKind,
        /// The offered operand count.
        got: usize,
    },
    /// Materializing the edited netlist was refused by [`Network`]'s own
    /// checks.
    Network(LogicError),
    /// Re-synthesis after a structural change failed.
    Synthesis(CompactError),
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::UnknownNet(n) => write!(f, "no net named `{n}`"),
            EditError::NotAGate(n) => write!(f, "net `{n}` is a primary input, not a gate"),
            EditError::NameTaken(n) => write!(f, "net name `{n}` is already in use"),
            EditError::GateInUse(n) => {
                write!(f, "gate `{n}` still feeds a gate or output")
            }
            EditError::PinOutOfRange { gate, pin, arity } => {
                write!(f, "gate `{gate}` has {arity} pins, no pin {pin}")
            }
            EditError::OutputOutOfRange(i) => write!(f, "no output slot {i}"),
            EditError::NoOutputs => write!(f, "edit would leave the netlist with no outputs"),
            EditError::WouldCycle(n) => {
                write!(
                    f,
                    "rewiring through `{n}` would close a combinational cycle"
                )
            }
            EditError::Arity { kind, got } => {
                write!(f, "illegal operand count {got} for `{}`", kind.name())
            }
            EditError::Network(e) => write!(f, "edited netlist is invalid: {e}"),
            EditError::Synthesis(e) => write!(f, "re-synthesis failed: {e}"),
        }
    }
}

impl std::error::Error for EditError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EditError::Network(e) => Some(e),
            EditError::Synthesis(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CompactError> for EditError {
    fn from(e: CompactError) -> Self {
        EditError::Synthesis(e)
    }
}

// ---------------------------------------------------------------------------
// The editable netlist
// ---------------------------------------------------------------------------

/// One gate of an [`EditableNetlist`], with name-based operand wiring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EditGate {
    /// Net name the gate drives.
    pub name: String,
    /// Gate function.
    pub kind: GateKind,
    /// Operand net names, in pin order.
    pub inputs: Vec<String>,
}

/// A name-keyed, mutable view of a combinational netlist.
///
/// [`Network`](flowc_logic::Network) is append-only and acyclic by
/// construction — ideal for synthesis, useless for editing. This type
/// holds the same circuit as named gates with name-based wiring, accepts
/// [`NetlistEdit`]s with full validation (rejecting cycles, dangling
/// references, and arity violations *before* mutating), and materializes
/// back into a `Network` in a deterministic topological order.
#[derive(Debug, Clone)]
pub struct EditableNetlist {
    name: String,
    inputs: Vec<String>,
    input_index: HashMap<String, usize>,
    gates: Vec<EditGate>,
    gate_index: HashMap<String, usize>,
    outputs: Vec<String>,
}

fn arity_ok(kind: GateKind, n: usize) -> bool {
    match kind {
        GateKind::Const0 | GateKind::Const1 => n == 0,
        GateKind::Buf | GateKind::Not => n == 1,
        GateKind::Mux => n == 3,
        _ => n >= 2,
    }
}

impl EditableNetlist {
    /// Builds the editable view of `network`, using its net names as the
    /// stable edit-time identities.
    pub fn from_network(network: &Network) -> EditableNetlist {
        let inputs: Vec<String> = network
            .inputs()
            .iter()
            .map(|&i| network.net_name(i).to_string())
            .collect();
        let input_index = inputs
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
        let mut gates = Vec::with_capacity(network.num_gates());
        let mut gate_index = HashMap::new();
        for gate in network.gates() {
            let name = network.net_name(gate.output).to_string();
            gate_index.insert(name.clone(), gates.len());
            gates.push(EditGate {
                name,
                kind: gate.kind,
                inputs: gate
                    .inputs
                    .iter()
                    .map(|&i| network.net_name(i).to_string())
                    .collect(),
            });
        }
        let outputs = network
            .outputs()
            .iter()
            .map(|&o| network.net_name(o).to_string())
            .collect();
        EditableNetlist {
            name: network.name().to_string(),
            inputs,
            input_index,
            gates,
            gate_index,
            outputs,
        }
    }

    /// Primary-input names, in order.
    pub fn inputs(&self) -> &[String] {
        &self.inputs
    }

    /// Gates, in insertion order (not necessarily topological).
    pub fn gates(&self) -> &[EditGate] {
        &self.gates
    }

    /// Primary-output net names, in slot order.
    pub fn outputs(&self) -> &[String] {
        &self.outputs
    }

    fn net_exists(&self, name: &str) -> bool {
        self.input_index.contains_key(name) || self.gate_index.contains_key(name)
    }

    /// True if removing `name` would dangle a reference: some gate reads
    /// it, or some output slot observes it.
    fn is_referenced(&self, name: &str) -> bool {
        self.outputs.iter().any(|o| o == name)
            || self
                .gates
                .iter()
                .any(|g| g.inputs.iter().any(|i| i == name))
    }

    /// True if `needle` is in the transitive fan-in cone of `from`
    /// (the cycle check for rewiring: `gate` must not feed `source`).
    fn cone_contains(&self, from: &str, needle: &str) -> bool {
        let mut stack = vec![from];
        let mut seen: HashMap<&str, ()> = HashMap::new();
        while let Some(net) = stack.pop() {
            if net == needle {
                return true;
            }
            if seen.insert(net, ()).is_some() {
                continue;
            }
            if let Some(&g) = self.gate_index.get(net) {
                for op in &self.gates[g].inputs {
                    stack.push(op);
                }
            }
        }
        false
    }

    /// Applies one edit, validating it completely first.
    ///
    /// # Errors
    ///
    /// [`EditError`] describing the refusal; the netlist is unchanged.
    pub fn apply(&mut self, edit: &NetlistEdit) -> Result<(), EditError> {
        match edit {
            NetlistEdit::AddGate { name, kind, inputs } => {
                if self.net_exists(name) {
                    return Err(EditError::NameTaken(name.clone()));
                }
                if !arity_ok(*kind, inputs.len()) {
                    return Err(EditError::Arity {
                        kind: *kind,
                        got: inputs.len(),
                    });
                }
                for op in inputs {
                    if !self.net_exists(op) {
                        return Err(EditError::UnknownNet(op.clone()));
                    }
                }
                // A fresh gate only reads existing nets, so no cycle is
                // possible.
                self.gate_index.insert(name.clone(), self.gates.len());
                self.gates.push(EditGate {
                    name: name.clone(),
                    kind: *kind,
                    inputs: inputs.clone(),
                });
                Ok(())
            }
            NetlistEdit::RemoveGate { name } => {
                let &idx = self.gate_index.get(name).ok_or_else(|| {
                    match self.input_index.contains_key(name) {
                        true => EditError::NotAGate(name.clone()),
                        false => EditError::UnknownNet(name.clone()),
                    }
                })?;
                if self.is_referenced(name) {
                    return Err(EditError::GateInUse(name.clone()));
                }
                self.gates.remove(idx);
                self.gate_index.remove(name);
                for g in self.gate_index.values_mut() {
                    if *g > idx {
                        *g -= 1;
                    }
                }
                Ok(())
            }
            NetlistEdit::RewireInput { gate, pin, source } => {
                let &idx = self.gate_index.get(gate).ok_or_else(|| {
                    match self.input_index.contains_key(gate) {
                        true => EditError::NotAGate(gate.clone()),
                        false => EditError::UnknownNet(gate.clone()),
                    }
                })?;
                let arity = self.gates[idx].inputs.len();
                if *pin >= arity {
                    return Err(EditError::PinOutOfRange {
                        gate: gate.clone(),
                        pin: *pin,
                        arity,
                    });
                }
                if !self.net_exists(source) {
                    return Err(EditError::UnknownNet(source.clone()));
                }
                // `gate` must not sit in `source`'s fan-in cone, else the
                // new wire closes a combinational loop.
                if self.cone_contains(source, gate) {
                    return Err(EditError::WouldCycle(source.clone()));
                }
                self.gates[idx].inputs[*pin] = source.clone();
                Ok(())
            }
            NetlistEdit::RetargetOutput { index, target } => {
                if *index >= self.outputs.len() {
                    return Err(EditError::OutputOutOfRange(*index));
                }
                if !self.net_exists(target) {
                    return Err(EditError::UnknownNet(target.clone()));
                }
                self.outputs[*index] = target.clone();
                Ok(())
            }
            NetlistEdit::AddOutput { target } => {
                if !self.net_exists(target) {
                    return Err(EditError::UnknownNet(target.clone()));
                }
                self.outputs.push(target.clone());
                Ok(())
            }
            NetlistEdit::DropOutput { index } => {
                if *index >= self.outputs.len() {
                    return Err(EditError::OutputOutOfRange(*index));
                }
                if self.outputs.len() == 1 {
                    return Err(EditError::NoOutputs);
                }
                self.outputs.remove(*index);
                Ok(())
            }
        }
    }

    /// Gate indices in a deterministic topological order (Kahn's
    /// algorithm with an insertion-order tie-break), so materialization
    /// is stable across storage permutations.
    fn topo_order(&self) -> Result<Vec<usize>, EditError> {
        let n = self.gates.len();
        // indegree counts only gate→gate wires; input operands are free.
        let mut indegree = vec![0usize; n];
        let mut fanout: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (g, gate) in self.gates.iter().enumerate() {
            for op in &gate.inputs {
                if let Some(&src) = self.gate_index.get(op) {
                    indegree[g] += 1;
                    fanout[src].push(g);
                }
            }
        }
        // A sorted ready-pool (not a queue) keeps the order canonical.
        let mut ready: Vec<usize> = (0..n).filter(|&g| indegree[g] == 0).collect();
        ready.sort_unstable_by(|a, b| b.cmp(a)); // pop() takes the lowest
        let mut order = Vec::with_capacity(n);
        while let Some(g) = ready.pop() {
            order.push(g);
            for &next in &fanout[g] {
                indegree[next] -= 1;
                if indegree[next] == 0 {
                    // Insert keeping the descending sort.
                    let pos = ready
                        .binary_search_by(|x| next.cmp(x))
                        .unwrap_or_else(|p| p);
                    ready.insert(pos, next);
                }
            }
        }
        if order.len() != n {
            return Err(EditError::WouldCycle(
                self.gates[order.len().min(n - 1)].name.clone(),
            ));
        }
        Ok(order)
    }

    /// Materializes the current state as a validated, topologically
    /// ordered [`Network`].
    ///
    /// # Errors
    ///
    /// [`EditError`] if the state is somehow inconsistent (defensive; the
    /// per-edit validation keeps this unreachable through public edits).
    pub fn materialize(&self) -> Result<Network, EditError> {
        let mut network = Network::new(&self.name);
        let mut ids: HashMap<&str, NetId> = HashMap::new();
        for input in &self.inputs {
            ids.insert(input, network.add_input(input));
        }
        for &g in &self.topo_order()? {
            let gate = &self.gates[g];
            let operands: Vec<NetId> = gate
                .inputs
                .iter()
                .map(|op| {
                    ids.get(op.as_str())
                        .copied()
                        .ok_or_else(|| EditError::UnknownNet(op.clone()))
                })
                .collect::<Result<_, _>>()?;
            let id = network
                .add_gate(gate.kind, &operands, &gate.name)
                .map_err(EditError::Network)?;
            ids.insert(&gate.name, id);
        }
        for out in &self.outputs {
            let &id = ids
                .get(out.as_str())
                .ok_or_else(|| EditError::UnknownNet(out.clone()))?;
            network.mark_output(id);
        }
        Ok(network)
    }

    /// The cone-of-influence content hash of one output slot: an FNV-1a
    /// digest of the slot's transitive fan-in, in canonical (root-first
    /// DFS post-order) local numbering. Gate *names* and storage order do
    /// not contribute; global input indices do (the BDD variable order is
    /// a property of the whole input list, so two cones only share
    /// artifacts when they read the same global variables).
    pub fn cone_hash(&self, slot: usize) -> Option<u64> {
        let root = self.outputs.get(slot)?;
        let mut hasher = Fnv::new();
        let mut local: HashMap<usize, u64> = HashMap::new();
        self.hash_cone_of(root, &mut local, &mut hasher);
        Some(hasher.finish())
    }

    fn hash_cone_of(&self, root: &str, local: &mut HashMap<usize, u64>, hasher: &mut Fnv) {
        // Iterative DFS; the second visit of a frame emits the gate.
        enum Frame<'a> {
            Enter(&'a str),
            Emit(usize),
        }
        let mut stack = vec![Frame::Enter(root)];
        while let Some(frame) = stack.pop() {
            match frame {
                Frame::Enter(net) => {
                    if let Some(&input) = self.input_index.get(net) {
                        // Inputs hash by global index; emitted per *use*
                        // inside the gate record below, nothing here.
                        let _ = input;
                        continue;
                    }
                    let g = self.gate_index[net];
                    if local.contains_key(&g) {
                        continue;
                    }
                    // Reserve before descending so shared fan-in is
                    // emitted once; the id is final because post-order
                    // emission below assigns ids in the same DFS order.
                    stack.push(Frame::Emit(g));
                    for op in self.gates[g].inputs.iter().rev() {
                        stack.push(Frame::Enter(op));
                    }
                }
                Frame::Emit(g) => {
                    if local.contains_key(&g) {
                        continue;
                    }
                    let id = local.len() as u64;
                    local.insert(g, id);
                    let gate = &self.gates[g];
                    hasher.write_str(gate.kind.name());
                    hasher.write_u64(gate.inputs.len() as u64);
                    for op in &gate.inputs {
                        match self.input_index.get(op) {
                            Some(&i) => {
                                hasher.write_u64(0);
                                hasher.write_u64(i as u64);
                            }
                            None => {
                                hasher.write_u64(1);
                                hasher.write_u64(local[&self.gate_index[op]]);
                            }
                        }
                    }
                }
            }
        }
        // The root reference itself (an output can observe an input).
        match self.input_index.get(root) {
            Some(&i) => {
                hasher.write_u64(0);
                hasher.write_u64(i as u64);
            }
            None => {
                hasher.write_u64(1);
                hasher.write_u64(local[&self.gate_index[root]]);
            }
        }
    }

    /// Cone hashes of every output slot, in slot order.
    pub fn output_cone_hashes(&self) -> Vec<u64> {
        (0..self.outputs.len())
            .map(|s| self.cone_hash(s).expect("slot in range"))
            .collect()
    }

    /// The combined artifact key for the current state: the FNV fold of
    /// the input count and the ordered per-output cone hashes. Edits that
    /// only touch dead logic keep this key, so the [`EditSession`] resolves
    /// them as cache hits.
    pub fn combined_cone_key(&self) -> u64 {
        let mut hasher = Fnv::new();
        hasher.write_u64(self.inputs.len() as u64);
        for hash in self.output_cone_hashes() {
            hasher.write_u64(hash);
        }
        hasher.finish()
    }
}

/// FNV-1a, matching the digest family used for the session artifact keys.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

// ---------------------------------------------------------------------------
// Label repair
// ---------------------------------------------------------------------------

/// Repairs a VH-labeling across a graph change: matches `new`'s nodes to
/// `old`'s by BDD-variable name with the Hopcroft–Karp matcher (candidates
/// ordered by degree similarity so structurally-alike nodes pair first),
/// transfers the matched labels, upgrades unmatched nodes to `Vh`, then
/// restores Eq. 2 feasibility and Eq. 7 alignment. Returns the repaired
/// labeling — always valid and aligned for `new` — and the matched-node
/// count (the repair-quality signal the [`EditSession`] ladder uses).
///
/// The result is an *incumbent*, not an answer: handed to the branch &
/// bound as a warm start it can only speed the proof up, never change the
/// optimum the solver certifies.
pub fn repair_labeling(old: &BddGraph, old_labels: &Labeling, new: &BddGraph) -> (Labeling, usize) {
    if old_labels.labels().len() != old.num_nodes() || new.num_nodes() == 0 {
        let mut labeling = Labeling::new(vec![VhLabel::Vh; new.num_nodes()]);
        labeling.enforce_alignment(new);
        return (labeling, 0);
    }
    let matching = transfer_matching(old, new);
    let labeling = repair_from_matching(old_labels, new, &matching);
    (labeling, matching.size)
}

/// The Hopcroft–Karp node correspondence between two BDD graphs:
/// candidates are same-BDD-variable nodes, degree-similar pairs tried
/// first. `pair_left[u]` maps `new`'s node `u` onto `old`'s node space.
fn transfer_matching(old: &BddGraph, new: &BddGraph) -> BipartiteMatching {
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (v, name) in old.node_names.iter().enumerate() {
        by_name.entry(name.as_str()).or_default().push(v);
    }
    let adjacency: Vec<Vec<usize>> = (0..new.num_nodes())
        .map(|u| {
            let mut candidates = by_name
                .get(new.node_names[u].as_str())
                .cloned()
                .unwrap_or_default();
            // Degree-similar candidates first: they are likeliest to keep
            // the transferred label feasible.
            candidates.sort_by_key(|&v| {
                (
                    old.graph.degree(v).abs_diff(new.graph.degree(u)),
                    v, // deterministic tie-break
                )
            });
            candidates
        })
        .collect();
    hopcroft_karp(&adjacency, old.num_nodes())
}

/// Transfers matched labels onto `new` and restores feasibility: the
/// second half of [`repair_labeling`], split out so the edit session can
/// reuse one matching for both the warm-start candidate and the perfect
/// transfer check.
fn repair_from_matching(
    old_labels: &Labeling,
    new: &BddGraph,
    matching: &BipartiteMatching,
) -> Labeling {
    let mut labels = vec![VhLabel::Vh; new.num_nodes()];
    for (u, &v) in matching.pair_left.iter().enumerate() {
        if v != usize::MAX {
            labels[u] = old_labels.label(v);
        }
    }
    let mut labeling = Labeling::new(labels);
    // Restore edge feasibility (Eq. 2). Upgrading an endpoint to `Vh`
    // makes every edge at that endpoint feasible and never breaks an
    // edge fixed earlier (labels only gain capability), so one pass
    // suffices.
    for &(a, b) in new.graph.edges() {
        let (la, lb) = (labeling.label(a), labeling.label(b));
        let feasible = (la.has_h() && lb.has_v()) || (la.has_v() && lb.has_h());
        if !feasible {
            labeling.set(b, VhLabel::Vh);
        }
    }
    labeling.enforce_alignment(new);
    debug_assert!(labeling.is_valid(new));
    labeling
}

/// Whether `matching` is an attribute-preserving isomorphism from `new`
/// onto `old`: a node bijection under which the edge sets coincide and
/// the alignment-constrained ports (output roots plus the 1-terminal)
/// correspond. The VH-labeling problem of Eq. 1–7 is defined entirely by
/// the undirected edge set, the port set, and the objective weights, so
/// under such a bijection both graphs pose *literally the same*
/// optimization problem — an optimal labeling of one permutes into an
/// optimal labeling of the other. (Edge literals are deliberately
/// ignored: they steer the crossbar mapping, not the labeling model.)
fn is_attribute_isomorphism(old: &BddGraph, new: &BddGraph, matching: &BipartiteMatching) -> bool {
    let n = new.num_nodes();
    if n == 0 || old.num_nodes() != n || matching.size != n {
        return false;
    }
    if old.graph.num_edges() != new.graph.num_edges() {
        return false;
    }
    let to_old = &matching.pair_left;
    let old_edges: HashSet<(usize, usize)> = old
        .graph
        .edges()
        .iter()
        .map(|&(a, b)| (a.min(b), a.max(b)))
        .collect();
    if old_edges.len() != old.graph.num_edges() {
        return false; // parallel edges would alias under the set view
    }
    for &(a, b) in new.graph.edges() {
        let (x, y) = (to_old[a], to_old[b]);
        if !old_edges.contains(&(x.min(y), x.max(y))) {
            return false;
        }
    }
    // Eq. 7 constrains the *set* of ports; multiplicity (two outputs
    // sharing a root) adds no constraint.
    let old_ports: HashSet<usize> = old
        .roots
        .iter()
        .flatten()
        .copied()
        .chain(old.terminal)
        .collect();
    let new_ports: HashSet<usize> = new
        .roots
        .iter()
        .flatten()
        .copied()
        .chain(new.terminal)
        .collect();
    old_ports.len() == new_ports.len() && new_ports.iter().all(|&p| old_ports.contains(&to_old[p]))
}

/// Attempts the perfect-transfer fast path: when the matching is an
/// attribute-preserving isomorphism, permute `old_labels` onto `new` and
/// return it verbatim — valid, aligned, and with exactly the old stats,
/// optimality verdict, and gap (all are properties of the shared model).
/// Returns `None` when the graphs differ structurally (the caller falls
/// back to warm-started solving) or when the transfer is unexpectedly
/// infeasible (defensive; should not happen for a valid `old_labels`).
fn perfect_transfer(
    old: &BddGraph,
    old_labels: &Labeling,
    new: &BddGraph,
    matching: &BipartiteMatching,
) -> Option<Labeling> {
    if !is_attribute_isomorphism(old, new, matching) {
        return None;
    }
    let labels = matching
        .pair_left
        .iter()
        .map(|&v| old_labels.label(v))
        .collect();
    let labeling = Labeling::new(labels);
    (labeling.is_valid(new) && labeling.is_aligned(new)).then_some(labeling)
}

// ---------------------------------------------------------------------------
// The edit session
// ---------------------------------------------------------------------------

/// How an applied edit was resolved, from cheapest to costliest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditResolution {
    /// Every affected cone (and so every artifact) was already cached;
    /// no solve ran.
    Hit,
    /// The Hopcroft–Karp label repair carried the old solution over:
    /// the perfect-transfer fast path shipped it without solving, or the
    /// solver accepted it as its warm-start incumbent.
    Repaired,
    /// The transfer survived only partially, but still seeded the solver.
    WarmStarted,
    /// The solver ran without a usable incumbent.
    Cold,
}

impl EditResolution {
    /// Stable lowercase tag (wire format for `/metrics` and logs).
    pub fn name(self) -> &'static str {
        match self {
            EditResolution::Hit => "hit",
            EditResolution::Repaired => "repaired",
            EditResolution::WarmStarted => "warm-started",
            EditResolution::Cold => "cold",
        }
    }
}

/// Running counters for one [`EditSession`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Edits applied (accepted; refusals don't count).
    pub edits: usize,
    /// Edits resolved from cache without a solve.
    pub hits: usize,
    /// Edits resolved by Hopcroft–Karp label repair.
    pub repairs: usize,
    /// Edits resolved by a warm-started solve (partial transfer).
    pub warm_starts: usize,
    /// Edits that fell through to a cold solve.
    pub cold_solves: usize,
    /// Output cones invalidated across all edits.
    pub outputs_invalidated: usize,
}

impl IncrementalStats {
    /// Edits that avoided a cold solve (the ISSUE's headline counter).
    pub fn resolved_incrementally(&self) -> usize {
        self.hits + self.repairs + self.warm_starts
    }
}

/// The outcome of one accepted edit.
#[derive(Debug, Clone)]
pub struct EditOutcome {
    /// How the re-synthesis was resolved.
    pub resolution: EditResolution,
    /// Output cones this edit invalidated (0 for a pure cache hit on an
    /// unchanged key).
    pub outputs_invalidated: usize,
    /// The (possibly cached) synthesis result for the post-edit netlist.
    pub result: Arc<CompactResult>,
    /// Wall-clock time spent resolving the edit.
    pub wall: Duration,
}

/// Configuration for an [`EditSession`].
#[derive(Debug, Clone)]
pub struct EditSessionConfig {
    /// The synthesis configuration every state is solved under.
    pub synthesis: Config,
    /// The artifact-session configuration. `warm_labels` is forced on —
    /// warm-start chaining is the repair ladder's second rung.
    pub session: SessionConfig,
    /// Distinct netlist states whose full results are retained for
    /// revert-style hits (FIFO eviction).
    pub results: usize,
}

impl Default for EditSessionConfig {
    fn default() -> EditSessionConfig {
        EditSessionConfig {
            synthesis: Config::default(),
            session: SessionConfig::default(),
            results: 32,
        }
    }
}

/// A synthesis artifact snapshot for one netlist state.
struct EditPoint {
    cone_hashes: Vec<u64>,
    result: Arc<CompactResult>,
    graph: Arc<BddGraph>,
}

/// A long-lived session over one evolving netlist: applies
/// [`NetlistEdit`]s and re-synthesizes only what each edit actually
/// changed. See the [module docs](self) for the resolution ladder.
pub struct EditSession {
    netlist: EditableNetlist,
    config: Config,
    session: Session,
    results: HashMap<u64, Arc<EditPoint>>,
    order: VecDeque<u64>,
    capacity: usize,
    current_key: u64,
    current: Arc<EditPoint>,
    stats: IncrementalStats,
}

impl EditSession {
    /// Opens a session on `network`, paying one cold synthesis for the
    /// starting state (not counted in the edit stats).
    ///
    /// # Errors
    ///
    /// [`EditError::Synthesis`] if the initial synthesis fails (an
    /// invalid network, or an internal pipeline bug).
    pub fn new(network: &Network, config: EditSessionConfig) -> Result<EditSession, EditError> {
        let EditSessionConfig {
            synthesis,
            mut session,
            results,
        } = config;
        session.warm_labels = true;
        let session = Session::new(session);
        let netlist = EditableNetlist::from_network(network);
        let budget = session.budget().clone();
        let (point, _) = solve_state(&netlist, &session, &synthesis, None, &budget)?;
        let current_key = netlist.combined_cone_key();
        let mut this = EditSession {
            current_key,
            netlist,
            config: synthesis,
            session,
            results: HashMap::new(),
            order: VecDeque::new(),
            capacity: results.max(1),
            current: Arc::clone(&point),
            stats: IncrementalStats::default(),
        };
        this.remember(current_key, point);
        Ok(this)
    }

    /// The current synthesis result (always in sync with the netlist).
    pub fn result(&self) -> &CompactResult {
        &self.current.result
    }

    /// The editable netlist view.
    pub fn netlist(&self) -> &EditableNetlist {
        &self.netlist
    }

    /// The underlying artifact session (trace, cache stats).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Running hit/repair/fallback counters.
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// Applies one edit under the session budget.
    ///
    /// # Errors
    ///
    /// See [`EditSession::apply_budgeted`].
    pub fn apply(&mut self, edit: &NetlistEdit) -> Result<EditOutcome, EditError> {
        let budget = self.session.budget().clone();
        self.apply_budgeted(edit, &budget)
    }

    /// Applies one edit, re-synthesizing under `budget` if any output
    /// cone changed.
    ///
    /// # Errors
    ///
    /// An [`EditError`] refusal leaves both the netlist and the cached
    /// result exactly as they were (invalid edits are rejected before any
    /// mutation; a synthesis failure rolls the netlist back).
    pub fn apply_budgeted(
        &mut self,
        edit: &NetlistEdit,
        budget: &Budget,
    ) -> Result<EditOutcome, EditError> {
        let sw = budget.stopwatch();
        let before = self.netlist.clone();
        self.netlist.apply(edit)?;
        self.stats.edits += 1;

        let cone_hashes = self.netlist.output_cone_hashes();
        let combined = self.netlist.combined_cone_key();
        let invalidated = invalidated_cones(&self.current.cone_hashes, &cone_hashes);

        // Rung 1: the cone key is unchanged, or matches a retained state
        // (a revert) — the cached result *is* the answer.
        if combined == self.current_key {
            self.stats.hits += 1;
            return Ok(EditOutcome {
                resolution: EditResolution::Hit,
                outputs_invalidated: 0,
                result: Arc::clone(&self.current.result),
                wall: sw.elapsed(),
            });
        }
        if let Some(point) = self.results.get(&combined).cloned() {
            self.stats.hits += 1;
            self.stats.outputs_invalidated += invalidated;
            self.current_key = combined;
            self.current = point;
            return Ok(EditOutcome {
                resolution: EditResolution::Hit,
                outputs_invalidated: invalidated,
                result: Arc::clone(&self.current.result),
                wall: sw.elapsed(),
            });
        }

        // The invalidation decision is made; the relabel is next. A crash
        // here must leave any disk labeling cache consistent (exercised
        // by the serve crash-recovery harness).
        flowc_failpoint::fire("compact.incremental.relabel");

        self.stats.outputs_invalidated += invalidated;
        let solved = solve_state(
            &self.netlist,
            &self.session,
            &self.config,
            Some(&self.current),
            budget,
        );
        let (point, matched) = match solved {
            Ok(ok) => ok,
            Err(e) => {
                // Roll back so the session stays self-consistent.
                self.netlist = before;
                self.stats.edits -= 1;
                self.stats.outputs_invalidated -= invalidated;
                return Err(e);
            }
        };
        debug_assert_eq!(point.cone_hashes, cone_hashes);
        let resolution = classify(&point, matched);
        match resolution {
            EditResolution::Hit => self.stats.hits += 1,
            EditResolution::Repaired => self.stats.repairs += 1,
            EditResolution::WarmStarted => self.stats.warm_starts += 1,
            EditResolution::Cold => self.stats.cold_solves += 1,
        }
        self.current_key = combined;
        self.current = Arc::clone(&point);
        self.remember(combined, point);
        Ok(EditOutcome {
            resolution,
            outputs_invalidated: invalidated,
            result: Arc::clone(&self.current.result),
            wall: sw.elapsed(),
        })
    }

    fn remember(&mut self, key: u64, point: Arc<EditPoint>) {
        if self.results.insert(key, point).is_none() {
            self.order.push_back(key);
            while self.order.len() > self.capacity {
                if let Some(old) = self.order.pop_front() {
                    if old != self.current_key {
                        self.results.remove(&old);
                    } else {
                        // Never evict the live state; retry it later.
                        self.order.push_back(old);
                        break;
                    }
                }
            }
        }
    }
}

/// Count of cone hashes in `new` not covered by `old` (multiset
/// difference, so output reordering alone invalidates nothing).
fn invalidated_cones(old: &[u64], new: &[u64]) -> usize {
    let mut counts: HashMap<u64, usize> = HashMap::new();
    for &h in old {
        *counts.entry(h).or_insert(0) += 1;
    }
    new.iter()
        .filter(|h| {
            if let Some(c) = counts.get_mut(h) {
                if *c > 0 {
                    *c -= 1;
                    return false;
                }
            }
            true
        })
        .count()
}

/// Synthesizes `netlist`'s current state inside `session`, repairing
/// `previous`'s labeling into a warm-start incumbent first. Returns the
/// artifact snapshot plus the Hopcroft–Karp matched-node count.
fn solve_state(
    netlist: &EditableNetlist,
    session: &Session,
    config: &Config,
    previous: Option<&EditPoint>,
    budget: &Budget,
) -> Result<(Arc<EditPoint>, usize), EditError> {
    let network = netlist.materialize()?;
    let bdd = BddBuildPass
        .run_with_budget(session, (&network, config.var_order.as_deref()), budget)
        .map_err(EditError::from)?;
    let graph = GraphExtractPass.run_with_budget(session, (&bdd.bdds, bdd.key), budget)?;
    let gkey: ArtifactKey = graph_key(bdd.key);
    let mut matched = 0;
    if let Some(prev) = previous {
        if prev.result.labeling.labels().len() != prev.graph.num_nodes() || graph.num_nodes() == 0 {
            let (candidate, m) = repair_labeling(&prev.graph, &prev.result.labeling, &graph);
            matched = m;
            session.offer_warm_hint(gkey, candidate);
        } else {
            let matching = transfer_matching(&prev.graph, &graph);
            matched = matching.size;
            // Perfect-transfer fast path: the labeling of an
            // attribute-isomorphic graph *is* the answer — permute it and
            // skip the solver. A proven-optimal labeling stays optimal
            // (the model is identical); an anytime incumbent keeps its
            // objective and its relative gap (the bound is a graph
            // property and transfers too). Function-preserving rewires,
            // probe outputs, and reverts whose network fingerprint
            // changed land here. Gated on `align` because with alignment
            // off the shipped labeling is post-processed beyond the
            // model the solve covered.
            if config.align {
                if let Some(labeling) =
                    perfect_transfer(&prev.graph, &prev.result.labeling, &graph, &matching)
                {
                    let point =
                        transfer_point(netlist, session, &network, prev, &graph, labeling, budget)?;
                    session.offer_warm_hint(gkey, point.result.labeling.clone());
                    return Ok((Arc::new(point), matched));
                }
            }
            let candidate = repair_from_matching(&prev.result.labeling, &graph, &matching);
            session.offer_warm_hint(gkey, candidate);
        }
    }
    let result = synthesize_in_budgeted(session, &network, config, budget)?;
    let point = Arc::new(EditPoint {
        cone_hashes: netlist.output_cone_hashes(),
        result: Arc::new(result),
        graph,
    });
    Ok((point, matched))
}

/// Builds the [`EditPoint`] for a perfect transfer: maps the permuted
/// labeling to a crossbar and assembles a [`CompactResult`] carrying the
/// previous solve's provenance, with no solver stage at all. The
/// degradation report marks the warm start as accepted and the labeling
/// as freshly produced, so [`classify`] grades the edit `Repaired`.
fn transfer_point(
    netlist: &EditableNetlist,
    session: &Session,
    network: &Network,
    prev: &EditPoint,
    graph: &Arc<BddGraph>,
    labeling: Labeling,
    budget: &Budget,
) -> Result<EditPoint, EditError> {
    let sw = budget.stopwatch();
    let norm = NormalizePass.run_with_budget(session, network, budget)?;
    let stats = labeling.stats();
    let crossbar =
        map_to_crossbar(graph, &labeling, &norm.output_names).map_err(CompactError::Map)?;
    let metrics = CrossbarMetrics::of(&crossbar);
    let prev_report = prev.result.degradation.as_ref();
    let result = CompactResult {
        crossbar,
        stats,
        metrics,
        graph_nodes: graph.num_nodes(),
        graph_edges: graph.num_edges(),
        labeling,
        optimal: prev.result.optimal,
        relative_gap: prev.result.relative_gap,
        trace: None,
        synthesis_time: sw.elapsed(),
        degradation: Some(DegradationReport {
            rung: prev_report.map_or(crate::supervisor::Rung::ExactMip, |d| d.rung),
            degraded: false,
            attempts: Vec::new(),
            relative_gap: prev.result.relative_gap,
            bdd_wall: Duration::ZERO,
            bdd_budget_lifted: false,
            exhausted: None,
            solver_nodes: 0,
            warm_start: Some(true),
            label_cached: false,
        }),
    };
    Ok(EditPoint {
        cone_hashes: netlist.output_cone_hashes(),
        result: Arc::new(result),
        graph: Arc::clone(graph),
    })
}

/// Classifies a fresh solve against the resolution ladder using the
/// degradation report's provenance flags plus the repair match count.
fn classify(point: &EditPoint, matched: usize) -> EditResolution {
    let Some(report) = point.result.degradation.as_ref() else {
        return EditResolution::Cold;
    };
    if report.label_cached {
        return EditResolution::Hit;
    }
    if report.warm_start != Some(true) {
        return EditResolution::Cold;
    }
    // Warm start accepted: grade it by how much of the previous labeling
    // the Hopcroft–Karp transfer actually carried over.
    if matched * 2 >= point.graph.num_nodes().max(1) {
        EditResolution::Repaired
    } else {
        EditResolution::WarmStarted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowc_logic::GateKind;

    /// The paper's Fig. 2 example: f = (a ∧ b) ∨ c.
    fn fig2() -> Network {
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
    fn edits_round_trip_through_the_script_grammar() {
        let edits = vec![
            NetlistEdit::AddGate {
                name: "g9".into(),
                kind: GateKind::Nand,
                inputs: vec!["a".into(), "b".into()],
            },
            NetlistEdit::RemoveGate { name: "g9".into() },
            NetlistEdit::RewireInput {
                gate: "f".into(),
                pin: 1,
                source: "a".into(),
            },
            NetlistEdit::RetargetOutput {
                index: 0,
                target: "ab".into(),
            },
            NetlistEdit::AddOutput { target: "c".into() },
            NetlistEdit::DropOutput { index: 1 },
        ];
        let script: String = edits.iter().map(|e| format!("{e}\n")).collect();
        assert_eq!(parse_edit_script(&script).unwrap(), edits);
        assert!(parse_edit("warp f 0 a").is_err());
        assert!(parse_edit("add g9 quux a b").is_err());
        assert!(parse_edit_script("rewire f one a\n").is_err());
    }

    #[test]
    fn invalid_edits_are_refused_without_mutation() {
        let mut nl = EditableNetlist::from_network(&fig2());
        let frozen = nl.clone();
        for (edit, want) in [
            (
                NetlistEdit::AddGate {
                    name: "ab".into(),
                    kind: GateKind::And,
                    inputs: vec!["a".into(), "b".into()],
                },
                EditError::NameTaken("ab".into()),
            ),
            (
                NetlistEdit::AddGate {
                    name: "g9".into(),
                    kind: GateKind::Not,
                    inputs: vec!["a".into(), "b".into()],
                },
                EditError::Arity {
                    kind: GateKind::Not,
                    got: 2,
                },
            ),
            (
                NetlistEdit::AddGate {
                    name: "g9".into(),
                    kind: GateKind::And,
                    inputs: vec!["a".into(), "zz".into()],
                },
                EditError::UnknownNet("zz".into()),
            ),
            (
                NetlistEdit::RemoveGate { name: "ab".into() },
                EditError::GateInUse("ab".into()),
            ),
            (
                NetlistEdit::RemoveGate { name: "a".into() },
                EditError::NotAGate("a".into()),
            ),
            (
                NetlistEdit::RewireInput {
                    gate: "f".into(),
                    pin: 7,
                    source: "a".into(),
                },
                EditError::PinOutOfRange {
                    gate: "f".into(),
                    pin: 7,
                    arity: 2,
                },
            ),
            (
                NetlistEdit::RewireInput {
                    gate: "ab".into(),
                    pin: 0,
                    source: "f".into(),
                },
                EditError::WouldCycle("f".into()),
            ),
            (
                NetlistEdit::RetargetOutput {
                    index: 3,
                    target: "a".into(),
                },
                EditError::OutputOutOfRange(3),
            ),
            (NetlistEdit::DropOutput { index: 0 }, EditError::NoOutputs),
        ] {
            assert_eq!(nl.apply(&edit).unwrap_err(), want, "{edit}");
        }
        assert_eq!(nl.gates(), frozen.gates());
        assert_eq!(nl.outputs(), frozen.outputs());
    }

    #[test]
    fn rewiring_a_gate_to_itself_is_a_cycle() {
        let mut nl = EditableNetlist::from_network(&fig2());
        let err = nl
            .apply(&NetlistEdit::RewireInput {
                gate: "ab".into(),
                pin: 0,
                source: "ab".into(),
            })
            .unwrap_err();
        assert_eq!(err, EditError::WouldCycle("ab".into()));
    }

    #[test]
    fn dead_logic_does_not_perturb_the_cone_key() {
        let mut nl = EditableNetlist::from_network(&fig2());
        let key = nl.combined_cone_key();
        nl.apply(&NetlistEdit::AddGate {
            name: "dead".into(),
            kind: GateKind::Xor,
            inputs: vec!["a".into(), "c".into()],
        })
        .unwrap();
        assert_eq!(nl.combined_cone_key(), key, "dead gate changed the key");
        nl.apply(&NetlistEdit::RemoveGate {
            name: "dead".into(),
        })
        .unwrap();
        assert_eq!(nl.combined_cone_key(), key);
        // A live change must move it.
        nl.apply(&NetlistEdit::RewireInput {
            gate: "f".into(),
            pin: 1,
            source: "b".into(),
        })
        .unwrap();
        assert_ne!(nl.combined_cone_key(), key, "live rewire kept the key");
    }

    #[test]
    fn cone_hashes_ignore_names_and_storage_order() {
        // Same structure, different gate names and creation order of the
        // independent cones.
        let mut left = Network::new("l");
        let a = left.add_input("a");
        let b = left.add_input("b");
        let g0 = left.add_gate(GateKind::And, &[a, b], "g0").unwrap();
        let g1 = left.add_gate(GateKind::Or, &[a, b], "g1").unwrap();
        left.mark_output(g0);
        left.mark_output(g1);
        let mut right = Network::new("r");
        let a = right.add_input("a");
        let b = right.add_input("b");
        let h1 = right.add_gate(GateKind::Or, &[a, b], "h1").unwrap();
        let h0 = right.add_gate(GateKind::And, &[a, b], "h0").unwrap();
        right.mark_output(h0);
        right.mark_output(h1);
        let left = EditableNetlist::from_network(&left);
        let right = EditableNetlist::from_network(&right);
        assert_eq!(left.output_cone_hashes(), right.output_cone_hashes());
        assert_eq!(left.combined_cone_key(), right.combined_cone_key());
    }

    #[test]
    fn materialize_is_deterministic_and_valid() {
        let mut nl = EditableNetlist::from_network(&fig2());
        nl.apply(&NetlistEdit::AddGate {
            name: "g9".into(),
            kind: GateKind::Xor,
            inputs: vec!["f".into(), "c".into()],
        })
        .unwrap();
        nl.apply(&NetlistEdit::AddOutput {
            target: "g9".into(),
        })
        .unwrap();
        let m1 = nl.materialize().unwrap();
        let m2 = nl.materialize().unwrap();
        m1.validate().unwrap();
        assert_eq!(m1.content_hash(), m2.content_hash());
        assert_eq!(m1.num_outputs(), 2);
    }

    #[test]
    fn repair_produces_a_valid_aligned_incumbent() {
        use crate::pipeline::synthesize;
        let base = fig2();
        let cold = synthesize(&base, &Config::default()).unwrap();
        let mut nl = EditableNetlist::from_network(&base);
        nl.apply(&NetlistEdit::RewireInput {
            gate: "f".into(),
            pin: 1,
            source: "b".into(),
        })
        .unwrap();
        let session = Session::new(SessionConfig::default());
        let budget = session.budget().clone();
        let (point, _) = solve_state(&nl, &session, &Config::default(), None, &budget).unwrap();
        let (repaired, matched) = repair_labeling(&point.graph, &cold.labeling, &point.graph);
        assert!(repaired.is_valid(&point.graph));
        assert!(repaired.is_aligned(&point.graph));
        assert!(matched <= point.graph.num_nodes());
        // Repairing a graph onto itself with its own labeling transfers
        // everything and stays optimal-shaped.
        let (self_repair, m) = repair_labeling(&point.graph, &point.result.labeling, &point.graph);
        assert_eq!(m, point.graph.num_nodes());
        assert!(self_repair.is_valid(&point.graph));
    }

    #[test]
    fn the_session_ladder_resolves_noops_reverts_and_live_edits() {
        let mut session = EditSession::new(&fig2(), EditSessionConfig::default()).unwrap();
        let s0 = session.result().stats.semiperimeter;
        assert!(s0 > 0);

        // Dead gate: key unchanged → Hit without a solve.
        let out = session
            .apply(&NetlistEdit::AddGate {
                name: "dead".into(),
                kind: GateKind::Nor,
                inputs: vec!["a".into(), "b".into()],
            })
            .unwrap();
        assert_eq!(out.resolution, EditResolution::Hit);
        assert_eq!(out.outputs_invalidated, 0);

        // Live rewire: must re-solve (any non-Hit rung is legal; the
        // equivalence fuzzer checks the answer, this checks the ladder).
        let out = session
            .apply(&NetlistEdit::RewireInput {
                gate: "f".into(),
                pin: 1,
                source: "dead".into(),
            })
            .unwrap();
        assert_ne!(out.resolution, EditResolution::Hit);
        assert_eq!(out.outputs_invalidated, 1);

        // Revert: the previous state is retained → Hit.
        let out = session
            .apply(&NetlistEdit::RewireInput {
                gate: "f".into(),
                pin: 1,
                source: "c".into(),
            })
            .unwrap();
        assert_eq!(out.resolution, EditResolution::Hit);
        assert_eq!(session.result().stats.semiperimeter, s0);

        let stats = session.stats();
        assert_eq!(stats.edits, 3);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.resolved_incrementally() + stats.cold_solves, 3);

        // A refused edit changes nothing.
        let before = session.stats();
        assert!(session
            .apply(&NetlistEdit::RemoveGate { name: "a".into() })
            .is_err());
        assert_eq!(session.stats(), before);
        assert_eq!(session.result().stats.semiperimeter, s0);
    }
}
