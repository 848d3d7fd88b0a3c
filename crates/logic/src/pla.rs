//! PLA (programmable logic array, Espresso format) reading and writing.
//!
//! Supports the common subset: `.i`, `.o`, `.ilb`, `.ob`, `.p`, `.type fr`
//! (and the default `f` type), cube rows, and `.e`/`.end`. Each output is
//! built as the OR of the cubes whose output column is `1`; `~`/`-` output
//! positions are treated as 0 (type `f` semantics).
//!
//! ```
//! let src = "\
//! .i 2
//! .o 1
//! .ilb a b
//! .ob xor
//! .p 2
//! 01 1
//! 10 1
//! .e
//! ";
//! let n = flowc_logic::pla::parse(src).unwrap();
//! assert!(n.simulate(&[true, false]).unwrap()[0]);
//! assert!(!n.simulate(&[true, true]).unwrap()[0]);
//! ```

use std::fmt::Write as _;

use crate::cube::{Cube, CubeLit};
use crate::{GateKind, LogicError, NetId, Network, Result};

/// Maximum input count [`write()`] enumerates (2^24 rows, 2 MiB of simulated
/// words per output).
pub const MAX_TRUTH_VARS: usize = 24;

/// Parses PLA source text into a [`Network`].
///
/// # Errors
///
/// Returns [`LogicError::Parse`] on malformed input.
pub fn parse(source: &str) -> Result<Network> {
    let mut num_inputs: Option<usize> = None;
    let mut num_outputs: Option<usize> = None;
    let mut input_labels: Option<Vec<String>> = None;
    let mut output_labels: Option<Vec<String>> = None;
    let mut rows: Vec<(usize, Cube, Vec<bool>)> = Vec::new();

    for (idx, raw) in source.lines().enumerate() {
        let line = idx + 1;
        let text = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        };
        let text = text.trim();
        if text.is_empty() {
            continue;
        }
        let mut toks = text.split_whitespace();
        let first = toks.next().expect("nonempty line");
        match first {
            ".i" => {
                let v = toks
                    .next()
                    .and_then(|t| t.parse::<usize>().ok())
                    .ok_or_else(|| LogicError::Parse {
                        line,
                        message: ".i needs a number".into(),
                    })?;
                num_inputs = Some(v);
            }
            ".o" => {
                let v = toks
                    .next()
                    .and_then(|t| t.parse::<usize>().ok())
                    .ok_or_else(|| LogicError::Parse {
                        line,
                        message: ".o needs a number".into(),
                    })?;
                num_outputs = Some(v);
            }
            ".ilb" => input_labels = Some(toks.map(str::to_string).collect()),
            ".ob" => output_labels = Some(toks.map(str::to_string).collect()),
            ".p" => { /* cube count hint; we count rows ourselves */ }
            ".type" => {
                let t = toks.next().unwrap_or("f");
                if t != "f" && t != "fr" {
                    return Err(LogicError::Parse {
                        line,
                        message: format!("unsupported PLA type `{t}` (only f/fr)"),
                    });
                }
            }
            ".e" | ".end" => break,
            other if other.starts_with('.') => {
                return Err(LogicError::Parse {
                    line,
                    message: format!("unknown PLA directive `{other}`"),
                });
            }
            cube_text => {
                let ni = num_inputs.ok_or_else(|| LogicError::Parse {
                    line,
                    message: "cube row before .i".into(),
                })?;
                let no = num_outputs.ok_or_else(|| LogicError::Parse {
                    line,
                    message: "cube row before .o".into(),
                })?;
                let out_text = toks.next().ok_or_else(|| LogicError::Parse {
                    line,
                    message: "cube row is missing its output part".into(),
                })?;
                if toks.next().is_some() {
                    return Err(LogicError::Parse {
                        line,
                        message: "trailing tokens after output part".into(),
                    });
                }
                let cube = Cube::parse(cube_text, line)?;
                if cube.width() != ni {
                    return Err(LogicError::Parse {
                        line,
                        message: format!("input part has {} positions, .i says {ni}", cube.width()),
                    });
                }
                if out_text.len() != no {
                    return Err(LogicError::Parse {
                        line,
                        message: format!(
                            "output part has {} positions, .o says {no}",
                            out_text.len()
                        ),
                    });
                }
                let outs = out_text
                    .chars()
                    .map(|c| match c {
                        '1' | '4' => Ok(true),
                        '0' | '~' | '-' | '2' | '3' => Ok(false),
                        other => Err(LogicError::Parse {
                            line,
                            message: format!("invalid output character `{other}`"),
                        }),
                    })
                    .collect::<Result<Vec<bool>>>()?;
                rows.push((line, cube, outs));
            }
        }
    }

    let ni = num_inputs.ok_or_else(|| LogicError::Parse {
        line: 0,
        message: "missing .i".into(),
    })?;
    let no = num_outputs.ok_or_else(|| LogicError::Parse {
        line: 0,
        message: "missing .o".into(),
    })?;

    let mut network = Network::new("pla");
    let input_ids: Vec<NetId> = (0..ni)
        .map(|i| {
            let name = input_labels
                .as_ref()
                .and_then(|l| l.get(i).cloned())
                .unwrap_or_else(|| format!("in{i}"));
            network.add_input(name)
        })
        .collect();

    // Shared literal inverters, created on demand.
    let mut inverted: Vec<Option<NetId>> = vec![None; ni];
    let mut cube_nets: Vec<NetId> = Vec::with_capacity(rows.len());
    for (ri, (_, cube, _)) in rows.iter().enumerate() {
        let mut lits: Vec<NetId> = Vec::new();
        for (pos, lit) in cube.lits().iter().enumerate() {
            match lit {
                CubeLit::DontCare => {}
                CubeLit::Pos => lits.push(input_ids[pos]),
                CubeLit::Neg => {
                    let inv = match inverted[pos] {
                        Some(id) => id,
                        None => {
                            let id = network.add_gate(
                                GateKind::Not,
                                &[input_ids[pos]],
                                format!("ninv{pos}"),
                            )?;
                            inverted[pos] = Some(id);
                            id
                        }
                    };
                    lits.push(inv);
                }
            }
        }
        let net = match lits.len() {
            0 => network.add_const1(format!("p{ri}")),
            1 => lits[0],
            _ => network.add_gate(GateKind::And, &lits, format!("p{ri}"))?,
        };
        cube_nets.push(net);
    }

    for o in 0..no {
        let name = output_labels
            .as_ref()
            .and_then(|l| l.get(o).cloned())
            .unwrap_or_else(|| format!("out{o}"));
        let members: Vec<NetId> = rows
            .iter()
            .zip(&cube_nets)
            .filter(|((_, _, outs), _)| outs[o])
            .map(|(_, &net)| net)
            .collect();
        let out = match members.len() {
            0 => network.add_const0(&name),
            1 => network.add_gate(GateKind::Buf, &[members[0]], &name)?,
            _ => network.add_gate(GateKind::Or, &members, &name)?,
        };
        network.mark_output(out);
    }
    network.validate()?;
    Ok(network)
}

/// Serializes the two-level projection of a network to PLA text.
///
/// The network must have at most [`MAX_TRUTH_VARS`] inputs; the PLA is
/// emitted as one minterm row per satisfying assignment per output (no
/// minimization), which is sufficient for interchange and tests.
///
/// # Errors
///
/// Returns [`LogicError::TruthTooLarge`] for networks with too many inputs.
pub fn write(network: &Network) -> Result<String> {
    let words = output_words(network)?;
    let ni = network.num_inputs();
    let no = network.num_outputs();
    let mut out = String::new();
    let _ = writeln!(out, ".i {ni}");
    let _ = writeln!(out, ".o {no}");
    let _ = write!(out, ".ilb");
    for &i in network.inputs() {
        let _ = write!(out, " {}", network.net_name(i));
    }
    let _ = writeln!(out);
    let _ = write!(out, ".ob");
    for &o in network.outputs() {
        let _ = write!(out, " {}", network.net_name(o));
    }
    let _ = writeln!(out);
    let mut rows: Vec<(usize, Vec<bool>)> = Vec::new();
    for r in 0..1usize << ni {
        let outs: Vec<bool> = words
            .iter()
            .map(|w| w[r / 64] >> (r % 64) & 1 == 1)
            .collect();
        if outs.iter().any(|&b| b) {
            rows.push((r, outs));
        }
    }
    let _ = writeln!(out, ".p {}", rows.len());
    for (r, outs) in rows {
        for i in 0..ni {
            let _ = write!(out, "{}", (r >> i) & 1);
        }
        let _ = write!(out, " ");
        for b in outs {
            let _ = write!(out, "{}", b as u8);
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(out, ".e");
    Ok(out)
}

/// Simulates every assignment of the network's inputs, 64 per word: bit
/// `r % 64` of word `r / 64` of output `o` is output `o` on assignment `r`,
/// whose input `i` is bit `i` of `r`.
fn output_words(network: &Network) -> Result<Vec<Vec<u64>>> {
    let k = network.num_inputs();
    if k > MAX_TRUTH_VARS {
        return Err(LogicError::TruthTooLarge(k));
    }
    let rows = 1usize << k;
    let words = rows.div_ceil(64);
    let mut outs = vec![Vec::with_capacity(words); network.num_outputs()];
    let mut inputs = vec![0u64; k];
    for word in 0..words {
        for (i, w) in inputs.iter_mut().enumerate() {
            *w = 0;
            for bit in 0..64usize.min(rows - word * 64) {
                let assignment = word * 64 + bit;
                if assignment >> i & 1 == 1 {
                    *w |= 1 << bit;
                }
            }
        }
        let res = network.simulate64(&inputs)?;
        for (out, val) in outs.iter_mut().zip(res) {
            out.push(val);
        }
    }
    Ok(outs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateKind;

    #[test]
    fn parse_two_output_pla() {
        let src = "\
.i 3
.o 2
.ilb a b c
.ob f g
.p 3
11- 10
--1 01
000 11
.e
";
        let n = parse(src).unwrap();
        assert_eq!(n.num_inputs(), 3);
        assert_eq!(n.num_outputs(), 2);
        // f = ab | !a!b!c ; g = c | !a!b!c
        let case = |a: bool, b: bool, c: bool| n.simulate(&[a, b, c]).unwrap();
        assert_eq!(case(true, true, false), vec![true, false]);
        assert_eq!(case(false, false, true), vec![false, true]);
        assert_eq!(case(false, false, false), vec![true, true]);
        assert_eq!(case(true, false, false), vec![false, false]);
    }

    #[test]
    fn default_labels_synthesized() {
        let src = ".i 2\n.o 1\n11 1\n.e\n";
        let n = parse(src).unwrap();
        assert!(n.find_net("in0").is_some());
        assert!(n.find_net("out0").is_some());
    }

    #[test]
    fn empty_output_is_constant_zero() {
        let src = ".i 1\n.o 2\n1 10\n.e\n";
        let n = parse(src).unwrap();
        assert_eq!(n.simulate(&[true]).unwrap(), vec![true, false]);
        assert_eq!(n.simulate(&[false]).unwrap(), vec![false, false]);
    }

    #[test]
    fn malformed_rows_rejected() {
        assert!(parse(".i 2\n.o 1\n111 1\n.e\n").is_err()); // wide cube
        assert!(parse(".i 2\n.o 1\n11 11\n.e\n").is_err()); // wide output
        assert!(parse(".i 2\n.o 1\n11\n.e\n").is_err()); // missing output
        assert!(parse("11 1\n.e\n").is_err()); // row before .i/.o
        assert!(parse(".i 2\n.o 1\n.type xyz\n.e\n").is_err());
    }

    fn xor_tree(width: usize) -> Network {
        let mut n = Network::new("xor");
        let ins: Vec<_> = (0..width).map(|i| n.add_input(format!("x{i}"))).collect();
        let out = n.add_gate(GateKind::Xor, &ins, "p").unwrap();
        n.mark_output(out);
        n
    }

    #[test]
    fn write_lists_the_onset_past_the_first_word() {
        // 7 inputs = 128 rows = 2 simulated words; parity fills both.
        let n = xor_tree(7);
        let text = write(&n).unwrap();
        let rows: Vec<&str> = text.lines().filter(|l| !l.starts_with('.')).collect();
        let onset: Vec<String> = (0usize..128)
            .filter(|&r| {
                let bits: Vec<bool> = (0..7).map(|i| r >> i & 1 == 1).collect();
                n.simulate(&bits).unwrap()[0]
            })
            .map(|r| {
                let bits: String = (0..7)
                    .map(|i| if r >> i & 1 == 1 { '1' } else { '0' })
                    .collect();
                format!("{bits} 1")
            })
            .collect();
        assert_eq!(rows, onset);
        assert!(text.contains(".p 64\n"));
        // Assignment 64 (x6 alone) is odd, 65 (x0 and x6) is even.
        assert!(rows.contains(&"0000001 1") && !rows.contains(&"1000001 1"));
    }

    #[test]
    fn write_rejects_more_than_max_truth_vars_inputs() {
        assert_eq!(
            write(&xor_tree(MAX_TRUTH_VARS + 1)),
            Err(LogicError::TruthTooLarge(MAX_TRUTH_VARS + 1))
        );
    }

    #[test]
    fn write_then_parse_is_equivalent() {
        let mut n = Network::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let x = n.add_gate(GateKind::Xor, &[a, b], "x").unwrap();
        let f = n.add_gate(GateKind::Or, &[x, c], "f").unwrap();
        let g = n.add_gate(GateKind::Nand, &[a, c], "g").unwrap();
        n.mark_output(f);
        n.mark_output(g);
        let text = write(&n).unwrap();
        let back = parse(&text).unwrap();
        for bits in 0u32..8 {
            let vals: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(back.simulate(&vals).unwrap(), n.simulate(&vals).unwrap());
        }
    }
}
