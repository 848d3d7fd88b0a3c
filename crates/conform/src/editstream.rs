//! Edit-stream generation and the incremental-vs-cold differential oracle.
//!
//! The conformance suite's other oracles compare *algorithms* on one
//! frozen netlist. This module compares *histories*: it drives a
//! [`EditSession`] through a generated stream
//! of netlist edits and checks, after every single edit, that the
//! incrementally-maintained design is indistinguishable from a cold
//! synthesis of the same netlist — same optimality verdict, same
//! objective value (the semiperimeter, or its γ-weighted blend with the
//! max dimension under the weighted strategy), same input/output
//! behavior. Any divergence is a bug in
//! the cone-hash keying or the label-repair ladder, and is reported with
//! first-disagreement provenance (the edit index and the exact check that
//! split).
//!
//! Counterexamples persist as `<test>.<seed>.edits` files: a provenance
//! header, the `edit:`-prefixed stream, and the base netlist as BLIF —
//! replayable before fresh cases exactly like the network corpus.

use std::path::PathBuf;

use flowc_budget::Budget;
use flowc_compact::{
    parse_edit, synthesize, Config, EditError, EditSession, EditSessionConfig, EditableNetlist,
    IncrementalStats, NetlistEdit, SessionConfig, VhStrategy,
};
use flowc_logic::{blif, GateKind, Network};
use flowc_xbar::verify::verify_functional;

use crate::corpus::Corpus;
use crate::gen::NetworkGen;
use crate::rng::Rng;

/// One fuzz case: a base netlist plus the edit stream applied to it.
#[derive(Debug, Clone)]
pub struct EditCase {
    /// The starting netlist.
    pub base: Network,
    /// The edits, applied in order.
    pub edits: Vec<NetlistEdit>,
}

/// Generates [`EditCase`]s: a base network from [`NetworkGen`] and a
/// stream of structurally-valid random edits against it. Every draw is a
/// pure function of the [`Rng`] state, so a seed reproduces the exact
/// case.
#[derive(Debug, Clone)]
pub struct EditStreamGen {
    /// Base-network shape.
    pub shape: NetworkGen,
    /// Edits per case.
    pub edits: usize,
}

impl Default for EditStreamGen {
    fn default() -> Self {
        EditStreamGen {
            shape: NetworkGen::default(),
            edits: 8,
        }
    }
}

impl EditStreamGen {
    /// Draws one case. Edits are validated against a scratch netlist as
    /// they are drawn, so the produced stream always applies cleanly.
    pub fn generate(&self, rng: &mut Rng) -> EditCase {
        let base = self.shape.generate(rng);
        self.stream_for(base, rng)
    }

    /// Draws an edit stream against a caller-provided base network
    /// (`self.shape` is ignored). The bench harness uses this to replay
    /// streams over the paper's benchmark circuits instead of generated
    /// ones; the same validate-as-drawn guarantee applies.
    pub fn stream_for(&self, base: Network, rng: &mut Rng) -> EditCase {
        let mut scratch = EditableNetlist::from_network(&base);
        let mut edits = Vec::with_capacity(self.edits);
        let mut fresh = 0usize;
        while edits.len() < self.edits {
            let edit = self.draw_edit(&scratch, rng, &mut fresh);
            if scratch.apply(&edit).is_ok() {
                edits.push(edit);
            }
        }
        EditCase { base, edits }
    }

    /// Draws a *replay-profile* stream against `base`: the edit mix of an
    /// interactive editing session rather than a uniform adversarial
    /// draw. Real edit logs are dominated by locality — equivalence
    /// rewires (repointing one consumer at a freshly duplicated,
    /// functionally identical gate, the shape of optimizer rewrites),
    /// dead scaffolding, and undo churn — with only an occasional
    /// committed functional change. This is the workload the
    /// `bench_synthesis` edit-replay benchmark measures; the uniform
    /// [`stream_for`](Self::stream_for) mix remains the fuzzer's default.
    ///
    /// The same validate-as-drawn guarantee applies: every emitted edit
    /// applies cleanly in order.
    pub fn replay_for(&self, base: Network, rng: &mut Rng) -> EditCase {
        let mut scratch = EditableNetlist::from_network(&base);
        let mut edits: Vec<NetlistEdit> = Vec::with_capacity(self.edits);
        // Inverse edits for the undo draw, most recent last.
        let mut undo: Vec<NetlistEdit> = Vec::new();
        // Duplicate gates minted so far: (duplicate net, original net).
        let mut dups: Vec<(String, String)> = Vec::new();
        let mut fresh = 0usize;
        let mut guard = 0usize;
        while edits.len() < self.edits {
            guard += 1;
            if guard > self.edits * 64 {
                break; // degenerate base; ship what we have
            }
            let roll = rng.below(10);
            let edit = if roll < 2 {
                // Undo: pop the most recent recorded inverse. A stale
                // inverse (its gate became live, its pin moved on) is
                // simply refused by the scratch and dropped.
                match undo.pop() {
                    Some(e) => e,
                    None => self.draw_edit(&scratch, rng, &mut fresh),
                }
            } else if roll < 7 {
                // Equivalence rewire: repoint one consumer of an already
                // duplicated gate at its duplicate (function-preserving,
                // so the BDD — and the labeling problem — is unchanged),
                // minting the duplicate first when none has a consumer
                // left to move.
                match self.equivalence_step(&scratch, rng, &mut dups, &mut fresh) {
                    Some(e) => e,
                    None => self.draw_edit(&scratch, rng, &mut fresh),
                }
            } else if roll < 9 {
                // Probe churn: observe an already-observed net on a
                // second output slot (attaching a debug probe). The cone
                // key changes but the labeling model does not, so the
                // edit session resolves it by perfect label transfer.
                let outputs = scratch.outputs();
                if outputs.is_empty() {
                    self.scaffold(&scratch, rng, &mut fresh)
                } else {
                    NetlistEdit::AddOutput {
                        target: outputs[rng.below(outputs.len())].clone(),
                    }
                }
            } else {
                // A committed functional change.
                self.draw_edit(&scratch, rng, &mut fresh)
            };
            let inverse = inverse_of(&scratch, &edit);
            if scratch.apply(&edit).is_ok() {
                if let Some(inv) = inverse {
                    undo.push(inv);
                }
                edits.push(edit);
            }
        }
        EditCase { base, edits }
    }

    /// One step of the equivalence-rewire drip: if some minted duplicate
    /// still has a consumer of its original to move, move it; otherwise
    /// mint a duplicate of a random gate that has at least one consumer.
    fn equivalence_step(
        &self,
        scratch: &EditableNetlist,
        rng: &mut Rng,
        dups: &mut Vec<(String, String)>,
        fresh: &mut usize,
    ) -> Option<NetlistEdit> {
        let gates = scratch.gates();
        // A duplicate only stays usable while it still mirrors its
        // original — a later edit may have rewired either side, and a
        // rewire onto a diverged duplicate would change the function.
        let mirrors = |dup: &str, orig: &str| -> bool {
            let d = gates.iter().find(|g| g.name == dup);
            let o = gates.iter().find(|g| g.name == orig);
            match (d, o) {
                (Some(d), Some(o)) => d.kind == o.kind && d.inputs == o.inputs,
                _ => false,
            }
        };
        dups.retain(|(dup, orig)| mirrors(dup, orig));
        // Prefer moving a consumer onto an existing duplicate.
        if !dups.is_empty() {
            let start = rng.below(dups.len());
            for i in 0..dups.len() {
                let (dup, orig) = &dups[(start + i) % dups.len()];
                let mut candidates: Vec<(String, usize)> = Vec::new();
                for g in gates {
                    if g.name == *dup {
                        continue;
                    }
                    for (pin, src) in g.inputs.iter().enumerate() {
                        if src == orig {
                            candidates.push((g.name.clone(), pin));
                        }
                    }
                }
                if !candidates.is_empty() {
                    let (gate, pin) = candidates[rng.below(candidates.len())].clone();
                    return Some(NetlistEdit::RewireInput {
                        gate,
                        pin,
                        source: dup.clone(),
                    });
                }
            }
        }
        // Mint a new duplicate of a gate some other gate reads.
        let mut read: Vec<usize> = Vec::new();
        for (i, g) in gates.iter().enumerate() {
            let has_consumer = gates
                .iter()
                .any(|h| h.name != g.name && h.inputs.iter().any(|s| s == &g.name));
            if has_consumer {
                read.push(i);
            }
        }
        if read.is_empty() {
            return None;
        }
        let g = &gates[read[rng.below(read.len())]];
        let name = format!("d{}", *fresh);
        *fresh += 1;
        dups.push((name.clone(), g.name.clone()));
        Some(NetlistEdit::AddGate {
            name,
            kind: g.kind,
            inputs: g.inputs.clone(),
        })
    }

    /// A dead scaffolding gate over random existing nets.
    fn scaffold(&self, scratch: &EditableNetlist, rng: &mut Rng, fresh: &mut usize) -> NetlistEdit {
        let net_names: Vec<String> = scratch
            .inputs()
            .iter()
            .cloned()
            .chain(scratch.gates().iter().map(|g| g.name.clone()))
            .collect();
        let kind = match rng.below(3) {
            0 => GateKind::And,
            1 => GateKind::Or,
            _ => GateKind::Xor,
        };
        let name = format!("e{}", *fresh);
        *fresh += 1;
        NetlistEdit::AddGate {
            name,
            kind,
            inputs: (0..2)
                .map(|_| net_names[rng.below(net_names.len())].clone())
                .collect(),
        }
    }

    /// One random edit attempt against the current scratch state; the
    /// caller retries on refusal. Mirrors [`NetworkGen`]'s kind weights.
    fn draw_edit(
        &self,
        scratch: &EditableNetlist,
        rng: &mut Rng,
        fresh: &mut usize,
    ) -> NetlistEdit {
        let net_names: Vec<String> = scratch
            .inputs()
            .iter()
            .cloned()
            .chain(scratch.gates().iter().map(|g| g.name.clone()))
            .collect();
        let pick = |rng: &mut Rng| net_names[rng.below(net_names.len())].clone();
        match rng.below(8) {
            0 | 1 => {
                let kind = match rng.below(7) {
                    0 => GateKind::Not,
                    1 => GateKind::And,
                    2 => GateKind::Or,
                    3 => GateKind::Xor,
                    4 => GateKind::Nand,
                    5 => GateKind::Nor,
                    _ => GateKind::Mux,
                };
                let arity = match kind {
                    GateKind::Not => 1,
                    GateKind::Mux => 3,
                    _ => rng.range(2, 4),
                };
                let name = format!("e{}", *fresh);
                *fresh += 1;
                NetlistEdit::AddGate {
                    name,
                    kind,
                    inputs: (0..arity).map(|_| pick(rng)).collect(),
                }
            }
            2 => {
                // Aim at a random gate; the scratch refuses live ones and
                // the caller retries, so this biases toward dead logic
                // without a fanout scan.
                let gates = scratch.gates();
                if gates.is_empty() {
                    return NetlistEdit::AddOutput { target: pick(rng) };
                }
                NetlistEdit::RemoveGate {
                    name: gates[rng.below(gates.len())].name.clone(),
                }
            }
            3 | 4 => {
                let gates = scratch.gates();
                if gates.is_empty() {
                    return NetlistEdit::AddOutput { target: pick(rng) };
                }
                let gate = &gates[rng.below(gates.len())];
                NetlistEdit::RewireInput {
                    gate: gate.name.clone(),
                    pin: rng.below(gate.inputs.len().max(1)),
                    source: pick(rng),
                }
            }
            5 => NetlistEdit::RetargetOutput {
                index: rng.below(scratch.outputs().len().max(1)),
                target: pick(rng),
            },
            6 => NetlistEdit::AddOutput { target: pick(rng) },
            _ => NetlistEdit::DropOutput {
                index: rng.below(scratch.outputs().len().max(1)),
            },
        }
    }
}

/// The inverse of `edit` against the pre-application `scratch` state,
/// when one exists and is expressible in the edit vocabulary. Used by
/// the replay profile's undo draw; a recorded inverse that has gone
/// stale by the time it is replayed is refused by the scratch netlist
/// and silently dropped.
fn inverse_of(scratch: &EditableNetlist, edit: &NetlistEdit) -> Option<NetlistEdit> {
    match edit {
        NetlistEdit::AddGate { name, .. } => Some(NetlistEdit::RemoveGate { name: name.clone() }),
        NetlistEdit::RewireInput { gate, pin, .. } => {
            let g = scratch.gates().iter().find(|g| &g.name == gate)?;
            let old = g.inputs.get(*pin)?.clone();
            Some(NetlistEdit::RewireInput {
                gate: gate.clone(),
                pin: *pin,
                source: old,
            })
        }
        NetlistEdit::RetargetOutput { index, .. } => {
            let old = scratch.outputs().get(*index)?.clone();
            Some(NetlistEdit::RetargetOutput {
                index: *index,
                target: old,
            })
        }
        NetlistEdit::AddOutput { .. } => Some(NetlistEdit::DropOutput {
            index: scratch.outputs().len(),
        }),
        _ => None,
    }
}

/// Differential-check tuning for edit streams.
#[derive(Debug, Clone)]
pub struct EditCheckConfig {
    /// The synthesis configuration both sides run under.
    pub synthesis: Config,
    /// The incremental side's artifact-session configuration.
    pub session: SessionConfig,
    /// Functional-equivalence samples for wide networks (≤16 inputs are
    /// checked exhaustively by the crossbar verifier regardless).
    pub samples: usize,
}

impl Default for EditCheckConfig {
    fn default() -> Self {
        EditCheckConfig {
            synthesis: Config::default(),
            session: SessionConfig::default(),
            samples: 128,
        }
    }
}

/// What a clean edit-stream check covered.
#[derive(Debug, Clone, Copy)]
pub struct EditStreamOutcome {
    /// Edits both sides accepted and checked.
    pub edits_checked: usize,
    /// Edits both sides consistently refused (invalid after shrinking).
    pub edits_skipped: usize,
    /// The incremental session's resolution counters.
    pub stats: IncrementalStats,
}

/// An incremental-vs-cold divergence, with first-disagreement provenance.
#[derive(Debug, Clone)]
pub struct EditStreamFailure {
    /// Index of the edit after which the divergence appeared; `None`
    /// means the base-state synthesis itself diverged.
    pub edit_index: Option<usize>,
    /// The edit at that index.
    pub edit: Option<NetlistEdit>,
    /// Stable failure tag: `refusal-divergence`, `optimality-divergence`,
    /// `objective-divergence` (weighted strategy), `semiperimeter-divergence`
    /// (all other strategies), `functional-divergence`, `synthesis`.
    pub kind: String,
    /// Human-readable specifics (values on both sides, witness inputs).
    pub detail: String,
}

impl std::fmt::Display for EditStreamFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (&self.edit_index, &self.edit) {
            (Some(i), Some(e)) => {
                write!(f, "after edit {i} (`{e}`): {}: {}", self.kind, self.detail)
            }
            _ => write!(f, "at the base state: {}: {}", self.kind, self.detail),
        }
    }
}

fn failure(
    index: Option<usize>,
    edit: Option<&NetlistEdit>,
    kind: &str,
    detail: String,
) -> Box<EditStreamFailure> {
    Box::new(EditStreamFailure {
        edit_index: index,
        edit: edit.cloned(),
        kind: kind.to_string(),
        detail,
    })
}

/// Checks one netlist state: the incremental result against a cold
/// synthesis of `netlist`'s materialization.
fn check_state(
    incremental: &flowc_compact::CompactResult,
    netlist: &EditableNetlist,
    cfg: &EditCheckConfig,
    index: Option<usize>,
    edit: Option<&NetlistEdit>,
) -> Result<(), Box<EditStreamFailure>> {
    let network = netlist
        .materialize()
        .map_err(|e| failure(index, edit, "synthesis", format!("materialize: {e}")))?;
    let cold = synthesize(&network, &cfg.synthesis)
        .map_err(|e| failure(index, edit, "synthesis", format!("cold synthesis: {e}")))?;
    if incremental.optimal != cold.optimal {
        return Err(failure(
            index,
            edit,
            "optimality-divergence",
            format!(
                "incremental optimal={} (gap {:.4}) vs cold optimal={} (gap {:.4})",
                incremental.optimal, incremental.relative_gap, cold.optimal, cold.relative_gap
            ),
        ));
    }
    if incremental.optimal {
        // Both sides are proven optimal, so they must agree on the value
        // of the objective they optimized. Under the weighted strategy
        // that is γ·S + (1−γ)·D, *not* S alone: the perfect-transfer
        // fast path can legitimately ship a different equally-optimal
        // (S, D) split than the cold solve's tie-break picks. For every
        // other strategy the objective is the semiperimeter itself.
        let diverged = match &cfg.synthesis.strategy {
            VhStrategy::Weighted { gamma, .. } => {
                let (a, b) = (
                    incremental.stats.objective(*gamma),
                    cold.stats.objective(*gamma),
                );
                ((a - b).abs() > 1e-6).then(|| {
                    (
                        "objective-divergence",
                        format!(
                            "incremental objective={a:.4} vs cold objective={b:.4} (γ={gamma})"
                        ),
                    )
                })
            }
            _ => (incremental.stats.semiperimeter != cold.stats.semiperimeter).then(|| {
                (
                    "semiperimeter-divergence",
                    format!(
                        "incremental S={} ({}x{}) vs cold S={} ({}x{})",
                        incremental.stats.semiperimeter,
                        incremental.stats.rows,
                        incremental.stats.cols,
                        cold.stats.semiperimeter,
                        cold.stats.rows,
                        cold.stats.cols
                    ),
                )
            }),
        };
        if let Some((kind, detail)) = diverged {
            return Err(failure(index, edit, kind, detail));
        }
    }
    let report = verify_functional(&incremental.crossbar, &network, cfg.samples)
        .map_err(|e| failure(index, edit, "functional-divergence", format!("verify: {e}")))?;
    if let Some(witness) = report.mismatches.first() {
        let bits: String = witness.iter().map(|&b| if b { '1' } else { '0' }).collect();
        return Err(failure(
            index,
            edit,
            "functional-divergence",
            format!(
                "crossbar and netlist disagree on x={bits} ({} of {} assignments diverge)",
                report.mismatches.len(),
                report.checked
            ),
        ));
    }
    Ok(())
}

/// Replays `case` through an [`EditSession`] and proves it equivalent to
/// cold synthesis after the base state and after **every** edit.
///
/// Edits both sides refuse are skipped (so the shrinker may drop stream
/// prefixes freely); an edit only *one* side refuses is itself a
/// divergence.
///
/// # Errors
///
/// The first [`EditStreamFailure`], boxed (it carries full provenance).
pub fn check_edit_stream(
    case: &EditCase,
    cfg: &EditCheckConfig,
) -> Result<EditStreamOutcome, Box<EditStreamFailure>> {
    let mut session = EditSession::new(
        &case.base,
        EditSessionConfig {
            synthesis: cfg.synthesis.clone(),
            session: cfg.session.clone(),
            ..EditSessionConfig::default()
        },
    )
    .map_err(|e| failure(None, None, "synthesis", format!("base synthesis: {e}")))?;
    let mut shadow = EditableNetlist::from_network(&case.base);
    check_state(session.result(), &shadow, cfg, None, None)?;

    let mut checked = 0usize;
    let mut skipped = 0usize;
    for (i, edit) in case.edits.iter().enumerate() {
        let shadow_refusal: Option<EditError> = shadow.apply(edit).err();
        let incremental = session.apply(edit);
        match (shadow_refusal, incremental) {
            (Some(_), Err(_)) => skipped += 1,
            (Some(want), Ok(_)) => {
                return Err(failure(
                    Some(i),
                    Some(edit),
                    "refusal-divergence",
                    format!("cold side refused (`{want}`) but the session accepted"),
                ));
            }
            (None, Err(got)) => {
                return Err(failure(
                    Some(i),
                    Some(edit),
                    "refusal-divergence",
                    format!("session refused (`{got}`) but the edit is valid"),
                ));
            }
            (None, Ok(outcome)) => {
                check_state(&outcome.result, &shadow, cfg, Some(i), Some(edit))?;
                checked += 1;
            }
        }
    }
    Ok(EditStreamOutcome {
        edits_checked: checked,
        edits_skipped: skipped,
        stats: session.stats(),
    })
}

/// Shrinks a failing case over its edit stream: first truncates to the
/// shortest failing prefix, then drops individual edits while the failure
/// reproduces. The base network is left alone (edits name its nets).
pub fn shrink_edit_case<F>(case: &EditCase, budget: &Budget, still_fails: F) -> EditCase
where
    F: Fn(&EditCase) -> bool,
{
    if !still_fails(case) {
        return case.clone();
    }
    let mut best = case.clone();
    // Shortest failing prefix (the failure index bounds it, but the
    // closure is the only ground truth the shrinker trusts).
    for k in 0..best.edits.len() {
        if budget.check().is_err() {
            return best;
        }
        let candidate = EditCase {
            base: best.base.clone(),
            edits: best.edits[..k].to_vec(),
        };
        if still_fails(&candidate) {
            best = candidate;
            break;
        }
    }
    // Drop individual edits, rescanning until a fixpoint.
    let mut changed = true;
    while changed {
        changed = false;
        let mut i = best.edits.len();
        while i > 0 {
            i -= 1;
            if budget.check().is_err() {
                return best;
            }
            let mut edits = best.edits.clone();
            edits.remove(i);
            let candidate = EditCase {
                base: best.base.clone(),
                edits,
            };
            if still_fails(&candidate) {
                best = candidate;
                changed = true;
            }
        }
    }
    best
}

// ---------------------------------------------------------------------------
// Corpus persistence (`<test>.<seed>.edits`)
// ---------------------------------------------------------------------------

/// Serializes an [`EditCase`] to the corpus text format: `edit:` lines
/// followed by the base netlist as BLIF.
pub fn write_edit_case(case: &EditCase) -> String {
    let mut text = String::new();
    for edit in &case.edits {
        text.push_str(&format!("edit: {edit}\n"));
    }
    text.push_str(&blif::write(&case.base));
    text
}

/// Parses the corpus text format (the inverse of [`write_edit_case`];
/// `#` comment lines are ignored everywhere).
///
/// # Errors
///
/// The first malformed edit line or the BLIF parse error.
pub fn parse_edit_case(text: &str) -> Result<EditCase, String> {
    let mut edits = Vec::new();
    let mut rest = String::new();
    for line in text.lines() {
        match line.trim().strip_prefix("edit:") {
            Some(edit) => edits.push(parse_edit(edit.trim())?),
            None => {
                rest.push_str(line);
                rest.push('\n');
            }
        }
    }
    let base = blif::parse(&rest).map_err(|e| format!("base netlist: {e}"))?;
    Ok(EditCase { base, edits })
}

/// Persists a shrunk edit-stream counterexample with a provenance header,
/// next to the corpus's network counterexamples. Returns the path, or
/// `None` when the corpus is unwritable (best-effort, like the rest of
/// the corpus).
pub fn persist_edit_case(
    corpus: &Corpus,
    test: &str,
    seed: u64,
    case: &EditCase,
    detail: &str,
) -> Option<PathBuf> {
    let path = corpus.dir().join(format!("{test}.{seed}.edits"));
    let _ = std::fs::create_dir_all(corpus.dir());
    let mut text = String::new();
    text.push_str("# shrunk incremental counterexample — replayed before fresh cases\n");
    text.push_str(&format!("# test: {test}\n# seed: {seed}\n"));
    for line in detail.lines() {
        text.push_str(&format!("# {line}\n"));
    }
    text.push_str(&write_edit_case(case));
    flowc_report::write_atomic(&path, &text).ok()?;
    Some(path)
}

/// Loads every persisted edit-stream counterexample for `test`, sorted by
/// path. Unparseable files surface as `Err` like the network corpus.
#[allow(clippy::type_complexity)]
pub fn load_edit_cases(corpus: &Corpus, test: &str) -> Vec<(PathBuf, Result<EditCase, String>)> {
    let prefix = format!("{test}.");
    let mut paths: Vec<PathBuf> = match std::fs::read_dir(corpus.dir()) {
        Err(_) => return Vec::new(),
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.extension().is_some_and(|x| x == "edits")
                    && p.file_name()
                        .and_then(|f| f.to_str())
                        .is_some_and(|f| f.starts_with(&prefix))
            })
            .collect(),
    };
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let case = std::fs::read_to_string(&p)
                .map_err(|e| e.to_string())
                .and_then(|text| parse_edit_case(&text));
            (p, case)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_streams_always_apply_cleanly() {
        let gen = EditStreamGen::default();
        for seed in 0..16 {
            let mut rng = Rng::new(seed);
            let case = gen.generate(&mut rng);
            assert_eq!(case.edits.len(), gen.edits);
            let mut nl = EditableNetlist::from_network(&case.base);
            for edit in &case.edits {
                nl.apply(edit)
                    .unwrap_or_else(|e| panic!("seed {seed}: `{edit}`: {e}"));
            }
            nl.materialize().unwrap().validate().unwrap();
        }
    }

    #[test]
    fn edit_cases_round_trip_through_the_corpus_format() {
        let mut rng = Rng::new(7);
        let case = EditStreamGen::default().generate(&mut rng);
        let text = write_edit_case(&case);
        let back = parse_edit_case(&text).unwrap();
        assert_eq!(back.edits, case.edits);
        assert_eq!(
            back.base.num_inputs(),
            case.base.num_inputs(),
            "blif round-trip lost inputs"
        );
        assert_eq!(back.base.num_outputs(), case.base.num_outputs());
    }

    #[test]
    fn a_small_stream_checks_clean() {
        let gen = EditStreamGen {
            shape: NetworkGen {
                num_inputs: 3,
                max_gates: 4,
                max_outputs: 2,
            },
            edits: 3,
        };
        let mut rng = Rng::new(42);
        let case = gen.generate(&mut rng);
        let outcome =
            check_edit_stream(&case, &EditCheckConfig::default()).unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(outcome.edits_checked + outcome.edits_skipped, 3);
    }

    #[test]
    fn the_shrinker_reaches_a_minimal_failing_stream() {
        let mut rng = Rng::new(11);
        let case = EditStreamGen::default().generate(&mut rng);
        // A planted "bug": any stream containing a drop-output fails.
        let planted = |c: &EditCase| {
            c.edits
                .iter()
                .any(|e| matches!(e, NetlistEdit::DropOutput { .. }))
        };
        if !planted(&case) {
            return; // seed didn't draw one; other seeds cover it
        }
        let shrunk = shrink_edit_case(&case, &Budget::unlimited(), planted);
        assert_eq!(shrunk.edits.len(), 1, "{:?}", shrunk.edits);
        assert!(matches!(shrunk.edits[0], NetlistEdit::DropOutput { .. }));
    }
}
