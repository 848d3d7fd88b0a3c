//! Crossbar mapping (Section V-C): bind labelled graph nodes to wordlines
//! and bitlines, program each BDD edge's literal into the junction between
//! its endpoints' wires, and bridge every `VH` node's wire pair with an
//! always-on memristor. Ports follow the paper's convention: the 1-terminal
//! drives the bottom-most wordline, outputs are sensed on the top rows.

use std::fmt;

use flowc_xbar::{Crossbar, DeviceAssignment};

use crate::labeling::Labeling;
use crate::preprocess::BddGraph;

/// Errors from crossbar mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MapError {
    /// The labeling violates a connection constraint on the given edge.
    UnrealizableEdge(usize, usize),
    /// The labeling is missing a wordline on a root or the terminal
    /// (alignment constraints not enforced before mapping).
    Misaligned(usize),
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::UnrealizableEdge(u, v) => {
                write!(f, "edge ({u}, {v}) cannot be realized by the labeling")
            }
            MapError::Misaligned(v) => {
                write!(f, "node {v} is a port but its label provides no wordline")
            }
        }
    }
}

impl std::error::Error for MapError {}

/// Maps a labelled BDD graph onto a crossbar. `output_names[i]` names the
/// `i`-th output (parallel to `graph.roots`).
///
/// # Errors
///
/// Returns [`MapError::UnrealizableEdge`] if the labeling is invalid, or
/// [`MapError::Misaligned`] if a root or the terminal lacks a wordline.
pub fn map_to_crossbar(
    graph: &BddGraph,
    labeling: &Labeling,
    output_names: &[String],
) -> Result<Crossbar, MapError> {
    let n = graph.num_nodes();
    // Row order: output roots first (top), then the remaining wordline
    // nodes, then the terminal (bottom, driven). Column order is free.
    let mut row_of = vec![usize::MAX; n];
    let mut col_of = vec![usize::MAX; n];
    let mut row_nodes: Vec<usize> = Vec::new();
    let mut is_root = vec![false; n];
    for &r in graph.roots.iter().flatten() {
        is_root[r] = true;
    }
    for (v, &root) in is_root.iter().enumerate() {
        if root && Some(v) != graph.terminal {
            if !labeling.label(v).has_h() {
                return Err(MapError::Misaligned(v));
            }
            row_of[v] = row_nodes.len();
            row_nodes.push(v);
        }
    }
    for (v, row) in row_of.iter_mut().enumerate() {
        if labeling.label(v).has_h() && *row == usize::MAX && Some(v) != graph.terminal {
            *row = row_nodes.len();
            row_nodes.push(v);
        }
    }
    if let Some(t) = graph.terminal {
        if !labeling.label(t).has_h() {
            return Err(MapError::Misaligned(t));
        }
        row_of[t] = row_nodes.len();
        row_nodes.push(t);
    }
    // Constant-0 outputs get dedicated, unconnected wordlines at the very
    // top (they must never conduct).
    let const0_outputs: Vec<usize> = graph
        .roots
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.is_none().then_some(i))
        .collect();
    let mut col_nodes: Vec<usize> = Vec::new();
    for (v, col) in col_of.iter_mut().enumerate() {
        if labeling.label(v).has_v() {
            *col = col_nodes.len();
            col_nodes.push(v);
        }
    }

    let extra_rows = const0_outputs.len() + usize::from(graph.terminal.is_none());
    let rows = row_nodes.len() + extra_rows;
    let cols = col_nodes.len().max(1);
    let mut xbar = Crossbar::new(rows, cols, graph.num_inputs);

    // Labels for debugging.
    for (r, &v) in row_nodes.iter().enumerate() {
        let _ = xbar.set_row_label(r, graph.node_names[v].clone());
    }
    for (c, &v) in col_nodes.iter().enumerate() {
        let _ = xbar.set_col_label(c, graph.node_names[v].clone());
    }

    // VH bridges.
    for v in 0..n {
        if labeling.label(v).has_h() && labeling.label(v).has_v() {
            xbar.set(row_of[v], col_of[v], DeviceAssignment::On)
                .expect("indices in range by construction");
        }
    }
    // Edge devices.
    for &(u, v) in graph.graph.edges() {
        let lit = graph.labels[&(u.min(v), u.max(v))];
        let assignment = DeviceAssignment::Literal {
            input: lit.input,
            negated: lit.negated,
        };
        let (lu, lv) = (labeling.label(u), labeling.label(v));
        let (row, col) = if lu.has_h() && lv.has_v() {
            (row_of[u], col_of[v])
        } else if lv.has_h() && lu.has_v() {
            (row_of[v], col_of[u])
        } else {
            return Err(MapError::UnrealizableEdge(u, v));
        };
        debug_assert_eq!(
            xbar.get(row, col).expect("in range"),
            DeviceAssignment::Off,
            "junction ({row},{col}) assigned twice"
        );
        xbar.set(row, col, assignment).expect("indices in range");
    }

    // Ports: the terminal wordline is driven; when the whole forest is
    // constant-0 there is no terminal, and a dedicated dead input row is
    // used instead.
    let input_row = match graph.terminal {
        Some(t) => row_of[t],
        None => rows - 1,
    };
    xbar.set_input_row(input_row).expect("in range");
    let mut next_const0_row = row_nodes.len();
    for (i, root) in graph.roots.iter().enumerate() {
        let name = output_names
            .get(i)
            .cloned()
            .unwrap_or_else(|| format!("out{i}"));
        match root {
            Some(v) => xbar.add_output(name, row_of[*v]).expect("in range"),
            None => {
                xbar.add_output(name, next_const0_row).expect("in range");
                next_const0_row += 1;
            }
        }
    }
    Ok(xbar)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labeling::VhLabel;
    use crate::oct_method::{min_semiperimeter, OctMethodConfig};
    use flowc_bdd::build_sbdd;
    use flowc_budget::Budget;
    use flowc_logic::{GateKind, Network};
    use flowc_xbar::verify::verify_functional;

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

    #[test]
    fn fig2_end_to_end_valid() {
        let n = fig2_network();
        let g = crate::preprocess::BddGraph::from_bdds(&build_sbdd(&n, None));
        let r = min_semiperimeter(&g, &OctMethodConfig::default(), &Budget::unlimited());
        let xbar = map_to_crossbar(&g, &r.labeling, &["f".to_string()]).unwrap();
        let report = verify_functional(&xbar, &n, 64).unwrap();
        assert!(report.is_valid(), "mismatches: {:?}", report.mismatches);
        // Port conventions.
        assert_eq!(xbar.input_row(), Some(xbar.rows() - 1), "input at bottom");
        assert_eq!(xbar.outputs()[0].row, 0, "output at top");
    }

    #[test]
    fn unrealizable_labeling_rejected() {
        let n = fig2_network();
        let g = crate::preprocess::BddGraph::from_bdds(&build_sbdd(&n, None));
        let l = crate::labeling::Labeling::new(vec![VhLabel::H; g.num_nodes()]);
        assert!(matches!(
            map_to_crossbar(&g, &l, &[]),
            Err(MapError::UnrealizableEdge(_, _))
        ));
    }

    #[test]
    fn misaligned_root_rejected() {
        let n = fig2_network();
        let g = crate::preprocess::BddGraph::from_bdds(&build_sbdd(&n, None));
        let mut r = min_semiperimeter(&g, &OctMethodConfig::default(), &Budget::unlimited());
        let root = g.roots[0].unwrap();
        r.labeling.set(root, VhLabel::V);
        assert!(matches!(
            map_to_crossbar(&g, &r.labeling, &[]),
            Err(MapError::Misaligned(_))
        ));
    }

    #[test]
    fn constant_outputs_mapped() {
        let mut n = Network::new("consts");
        let a = n.add_input("a");
        let f = n.add_gate(GateKind::Buf, &[a], "f").unwrap();
        let z = n.add_const0("z");
        let o = n.add_const1("o");
        n.mark_output(f);
        n.mark_output(z);
        n.mark_output(o);
        let g = crate::preprocess::BddGraph::from_bdds(&build_sbdd(&n, None));
        let r = min_semiperimeter(&g, &OctMethodConfig::default(), &Budget::unlimited());
        let xbar = map_to_crossbar(&g, &r.labeling, &["f".into(), "z".into(), "o".into()]).unwrap();
        for a_val in [false, true] {
            let out = xbar.evaluate(&[a_val]).unwrap();
            assert_eq!(out, vec![a_val, false, true], "a={a_val}");
        }
    }

    #[test]
    fn metrics_match_labeling_stats() {
        let n = fig2_network();
        let g = crate::preprocess::BddGraph::from_bdds(&build_sbdd(&n, None));
        let r = min_semiperimeter(&g, &OctMethodConfig::default(), &Budget::unlimited());
        let xbar = map_to_crossbar(&g, &r.labeling, &["f".to_string()]).unwrap();
        let s = r.labeling.stats();
        assert_eq!(xbar.rows(), s.rows);
        assert_eq!(xbar.cols(), s.cols);
        let m = flowc_xbar::metrics::CrossbarMetrics::of(&xbar);
        assert_eq!(m.semiperimeter, s.semiperimeter);
        assert_eq!(m.max_dimension, s.max_dimension);
        // Active devices = BDD edges; bridges = VH count.
        assert_eq!(m.active_devices, g.num_edges());
        assert_eq!(m.bridge_devices, s.num_vh);
    }
}
