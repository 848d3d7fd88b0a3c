//! Combinatorial bounder for the paper's Eq. 4 VH-labeling MIP.
//!
//! A VH labeling assigns every BDD-graph node V (bitline), H (wordline) or
//! VH (both); no edge may join two pure-V or two pure-H nodes. With
//! `S = n + #VH`, `R = #H + #VH`, `C = #V + #VH` and `D = max(R, C)`, the
//! objective is `γ·S + (1−γ)·D`. Structurally the VH set is an odd cycle
//! transversal: the graph minus VH nodes must be bipartite. That yields
//! cheap, LP-free node bounds:
//!
//! - every triangle without a VH member forces one more VH node, so a
//!   vertex-disjoint triangle packing lower-bounds `S`;
//! - `R + C = S` forces `D ≥ ⌈S/2⌉`, and the already-fixed wordline /
//!   bitline counts bound `R` and `C` from below;
//!
//! plus a greedy completion (2-color the residual graph honoring fixed
//! labels, evict odd-cycle nodes to VH, balance component orientations)
//! that seeds strong incumbents long before the search reaches a leaf.

use crate::branch::Bounder;
use crate::model::Model;

/// Variable layout of an Eq. 4 model, as produced by the labeling stage:
/// per graph node its `xv`/`xh` column indices, per graph edge its
/// orientation binary, and the continuous `D` column.
#[derive(Debug, Clone)]
pub struct VhLayout {
    /// Number of graph nodes.
    pub n: usize,
    /// Column index of `xv_i` per node.
    pub xv: Vec<usize>,
    /// Column index of `xh_i` per node.
    pub xh: Vec<usize>,
    /// `(i, j, o_column)` per graph edge: the orientation binary linearizing
    /// the "no V–V / no H–H" disjunction.
    pub edges: Vec<(usize, usize, usize)>,
    /// Column index of the continuous `D = max(R, C)` variable.
    pub d_var: usize,
    /// The sweep weight γ ∈ [0, 1].
    pub gamma: f64,
}

/// LP-free bounder for the VH objective. See the module docs for the bound
/// derivation; wrap in [`crate::metrics::HybridBounder`] to add LP
/// refinement on nodes the combinatorial bound cannot prune.
#[derive(Debug, Clone)]
pub struct VhBounder {
    layout: VhLayout,
    adj: Vec<Vec<usize>>,
    degree: Vec<usize>,
    triangles: Vec<[usize; 3]>,
}

impl VhBounder {
    /// Precomputes adjacency and the triangle list for `layout`.
    pub fn new(layout: VhLayout) -> Self {
        let n = layout.n;
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(i, j, _) in &layout.edges {
            if i != j && !adj[i].contains(&j) {
                adj[i].push(j);
                adj[j].push(i);
            }
        }
        for nbrs in &mut adj {
            nbrs.sort_unstable();
        }
        let mut triangles = Vec::new();
        for &(i, j, _) in &layout.edges {
            let (a, b) = if i < j { (i, j) } else { (j, i) };
            // Common neighbors above b keep each triangle unique.
            for &k in &adj[a] {
                if k > b && adj[b].binary_search(&k).is_ok() {
                    triangles.push([a, b, k]);
                }
            }
        }
        let degree = adj.iter().map(Vec::len).collect();
        VhBounder {
            layout,
            adj,
            degree,
            triangles,
        }
    }

    /// The layout this bounder was built for.
    pub fn layout(&self) -> &VhLayout {
        &self.layout
    }
}

/// Decoded per-node state under a partial fixing.
struct NodeStates {
    /// `xv` can still be 1 (not fixed to 0).
    can_v: Vec<bool>,
    /// `xh` can still be 1.
    can_h: Vec<bool>,
    /// `xv` fixed to 1.
    forced_v: Vec<bool>,
    /// `xh` fixed to 1.
    forced_h: Vec<bool>,
}

impl NodeStates {
    /// `None` when some node can be neither bitline nor wordline.
    fn decode(layout: &VhLayout, fixed: &[Option<bool>]) -> Option<NodeStates> {
        let n = layout.n;
        let mut s = NodeStates {
            can_v: vec![true; n],
            can_h: vec![true; n],
            forced_v: vec![false; n],
            forced_h: vec![false; n],
        };
        for i in 0..n {
            match fixed[layout.xv[i]] {
                Some(false) => s.can_v[i] = false,
                Some(true) => s.forced_v[i] = true,
                None => {}
            }
            match fixed[layout.xh[i]] {
                Some(false) => s.can_h[i] = false,
                Some(true) => s.forced_h[i] = true,
                None => {}
            }
            if !s.can_v[i] && !s.can_h[i] {
                return None;
            }
        }
        Some(s)
    }

    fn is_vh(&self, i: usize) -> bool {
        self.forced_v[i] && self.forced_h[i]
    }

    fn can_vh(&self, i: usize) -> bool {
        self.can_v[i] && self.can_h[i]
    }

    /// Fully decided pure bitline (V) — cannot become VH.
    fn pure_v(&self, i: usize) -> bool {
        self.forced_v[i] && !self.can_h[i]
    }

    fn pure_h(&self, i: usize) -> bool {
        self.forced_h[i] && !self.can_v[i]
    }
}

impl Bounder for VhBounder {
    fn lower_bound(&mut self, _model: &Model, fixed: &[Option<bool>], _cutoff: f64) -> f64 {
        let layout = &self.layout;
        let n = layout.n;
        let Some(states) = NodeStates::decode(layout, fixed) else {
            return f64::INFINITY;
        };
        for &(i, j, _) in &layout.edges {
            if (states.pure_v(i) && states.pure_v(j)) || (states.pure_h(i) && states.pure_h(j)) {
                return f64::INFINITY;
            }
        }
        // Vertex-disjoint triangles without a VH member each force one more
        // VH node among their VH-capable members.
        let mut used = vec![false; n];
        let mut extra = 0usize;
        'tri: for t in &self.triangles {
            if t.iter().any(|&x| states.is_vh(x)) {
                continue;
            }
            let mut capable = 0;
            for &x in t {
                if states.can_vh(x) {
                    if used[x] {
                        continue 'tri; // overlaps an already-counted triangle
                    }
                    capable += 1;
                }
            }
            if capable == 0 {
                // All three members decided non-VH: an odd cycle survives.
                return f64::INFINITY;
            }
            for &x in t {
                if states.can_vh(x) {
                    used[x] = true;
                }
            }
            extra += 1;
        }
        let vh_count = (0..n).filter(|&i| states.is_vh(i)).count();
        let rows_now = states.forced_h.iter().filter(|&&b| b).count();
        let cols_now = states.forced_v.iter().filter(|&&b| b).count();
        let s_lb = (n + vh_count + extra) as f64;
        let d_lb = (s_lb / 2.0)
            .ceil()
            .max(rows_now as f64)
            .max(cols_now as f64);
        layout.gamma * s_lb + (1.0 - layout.gamma) * d_lb
    }

    /// Rounds a bound up to the objective lattice: every achievable value
    /// is `γ·S + (1−γ)·D` with integers `n ≤ S ≤ 2n` and `⌈S/2⌉ ≤ D ≤ S`,
    /// so the smallest lattice point at or above `bound` is still a valid
    /// lower bound. At the sweep extremes this is decisive — at γ = 0 a
    /// fractional `D` bound of 28.3 becomes 29, pruning whole tie plateaus
    /// that the LP relaxation alone cannot close.
    fn tighten_bound(&self, bound: f64) -> f64 {
        if !bound.is_finite() {
            return bound;
        }
        let layout = &self.layout;
        let gamma = layout.gamma;
        let eps = 1e-6;
        let mut best = f64::INFINITY;
        for s_val in layout.n..=2 * layout.n {
            let base = gamma * s_val as f64;
            let d_floor = s_val.div_ceil(2);
            let d = if 1.0 - gamma <= f64::EPSILON {
                // Pure-S objective: D contributes nothing.
                if base < bound - eps {
                    continue;
                }
                d_floor
            } else {
                let need = ((bound - eps - base) / (1.0 - gamma)).ceil();
                if need > s_val as f64 {
                    continue; // D ≤ S: no achievable D reaches the bound
                }
                d_floor.max(if need > 0.0 { need as usize } else { 0 })
            };
            best = best.min(base + (1.0 - gamma) * d as f64);
        }
        // `best` can dip below `bound` by the epsilon slack; never weaken.
        // An empty lattice above `bound` means the node cannot beat it.
        best.max(bound)
    }

    fn suggest_incumbent(&mut self, model: &Model, fixed: &[Option<bool>]) -> Option<Vec<f64>> {
        let layout = &self.layout;
        let n = layout.n;
        let states = NodeStates::decode(layout, fixed)?;

        // Transversal: start from the VH-fixed nodes, then evict odd-cycle
        // nodes until the residual graph 2-colors.
        let mut vh: Vec<bool> = (0..n).map(|i| states.is_vh(i)).collect();
        let mut color = vec![-1i8; n];
        let mut comp = vec![usize::MAX; n];
        let mut ncomp;
        'color: loop {
            color.iter_mut().for_each(|c| *c = -1);
            comp.iter_mut().for_each(|c| *c = usize::MAX);
            ncomp = 0;
            for s in 0..n {
                if vh[s] || color[s] >= 0 {
                    continue;
                }
                color[s] = 0;
                comp[s] = ncomp;
                let mut queue = vec![s];
                while let Some(u) = queue.pop() {
                    for &w in &self.adj[u] {
                        if vh[w] {
                            continue;
                        }
                        if color[w] < 0 {
                            color[w] = 1 - color[u];
                            comp[w] = ncomp;
                            queue.push(w);
                        } else if color[w] == color[u] {
                            // Odd cycle: move a capable endpoint into VH.
                            let pick = [u, w]
                                .into_iter()
                                .filter(|&x| states.can_vh(x))
                                .max_by_key(|&x| self.degree[x])?;
                            vh[pick] = true;
                            continue 'color;
                        }
                    }
                }
                ncomp += 1;
            }
            break;
        }

        // Orientation per component: color `o` becomes the bitline side.
        // Validity and (rows, cols) contribution per choice; nodes whose
        // fixing disagrees with their side upgrade to VH when allowed.
        #[derive(Clone, Copy)]
        struct Orient {
            valid: bool,
            r: usize,
            c: usize,
        }
        let mut comps = vec![
            [Orient {
                valid: true,
                r: 0,
                c: 0
            }; 2];
            ncomp
        ];
        for i in 0..n {
            if vh[i] {
                continue;
            }
            for (o, orient) in comps[comp[i]].iter_mut().enumerate() {
                let v_side = color[i] == o as i8;
                if v_side {
                    if !states.can_v[i] {
                        orient.valid = false;
                    } else if states.forced_h[i] {
                        orient.r += 1;
                        orient.c += 1;
                    } else {
                        orient.c += 1;
                    }
                } else if !states.can_h[i] {
                    orient.valid = false;
                } else if states.forced_v[i] {
                    orient.r += 1;
                    orient.c += 1;
                } else {
                    orient.r += 1;
                }
            }
        }
        let vh_base = vh.iter().filter(|&&b| b).count();
        let mut rows = vh_base;
        let mut cols = vh_base;
        let mut chosen = vec![usize::MAX; ncomp];
        let mut free: Vec<usize> = Vec::new();
        for (ci, os) in comps.iter().enumerate() {
            match (os[0].valid, os[1].valid) {
                (false, false) => return None,
                (true, false) => {
                    chosen[ci] = 0;
                    rows += os[0].r;
                    cols += os[0].c;
                }
                (false, true) => {
                    chosen[ci] = 1;
                    rows += os[1].r;
                    cols += os[1].c;
                }
                (true, true) => free.push(ci),
            }
        }
        // Balance the free components, largest first, to minimize max(R, C)
        // (ties: fewer VH upgrades).
        free.sort_by_key(|&ci| std::cmp::Reverse(comps[ci][0].r + comps[ci][0].c));
        for &ci in &free {
            let score = |o: usize| {
                let r = rows + comps[ci][o].r;
                let c = cols + comps[ci][o].c;
                (r.max(c), r + c)
            };
            let o = if score(0) <= score(1) { 0 } else { 1 };
            chosen[ci] = o;
            rows += comps[ci][o].r;
            cols += comps[ci][o].c;
        }

        // Materialize labels.
        let mut lv = vec![false; n];
        let mut lh = vec![false; n];
        for i in 0..n {
            if vh[i] {
                lv[i] = true;
                lh[i] = true;
                continue;
            }
            let v_side = color[i] == chosen[comp[i]] as i8;
            if v_side {
                lv[i] = true;
                lh[i] = states.forced_h[i];
            } else {
                lh[i] = true;
                lv[i] = states.forced_v[i];
            }
        }
        // Honor fixed orientation binaries: o=0 needs `xv_i ∧ xh_j`, o=1
        // needs `xh_i ∧ xv_j`; upgrade endpoints to VH where allowed.
        for &(i, j, ov) in &layout.edges {
            match fixed[ov] {
                Some(false) => {
                    if !lv[i] {
                        if !states.can_v[i] {
                            return None;
                        }
                        lv[i] = true;
                    }
                    if !lh[j] {
                        if !states.can_h[j] {
                            return None;
                        }
                        lh[j] = true;
                    }
                }
                Some(true) => {
                    if !lh[i] {
                        if !states.can_h[i] {
                            return None;
                        }
                        lh[i] = true;
                    }
                    if !lv[j] {
                        if !states.can_v[j] {
                            return None;
                        }
                        lv[j] = true;
                    }
                }
                None => {}
            }
        }
        let mut values = vec![0.0; model.num_vars()];
        for i in 0..n {
            values[layout.xv[i]] = f64::from(u8::from(lv[i]));
            values[layout.xh[i]] = f64::from(u8::from(lh[i]));
        }
        for &(i, j, ov) in &layout.edges {
            let o = match fixed[ov] {
                Some(b) => b,
                None => !(lv[i] && lh[j]),
            };
            let ok = if o { lh[i] && lv[j] } else { lv[i] && lh[j] };
            if !ok {
                return None;
            }
            values[ov] = f64::from(u8::from(o));
        }
        let rows_f = lh.iter().filter(|&&b| b).count();
        let cols_f = lv.iter().filter(|&&b| b).count();
        values[layout.d_var] = rows_f.max(cols_f) as f64;
        Some(values)
    }

    fn branch_hint(&self, _model: &Model, fixed: &[Option<bool>]) -> Option<usize> {
        // Branch on the label of the highest-degree undecided node: label
        // decisions drive both the bipartiteness structure and the R/C
        // counts, unlike the orientation binaries which are pure
        // linearization artifacts.
        let layout = &self.layout;
        (0..layout.n)
            .filter_map(|i| {
                let h_free = fixed[layout.xh[i]].is_none();
                let v_free = fixed[layout.xv[i]].is_none();
                if h_free {
                    Some((i, layout.xh[i]))
                } else if v_free {
                    Some((i, layout.xv[i]))
                } else {
                    None
                }
            })
            .max_by_key(|&(i, _)| self.degree[i])
            .map(|(_, var)| var)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HybridBounder;
    use crate::model::Sense;
    use crate::BranchBound;

    /// Builds the Eq. 4 MIP for a small graph, mirroring the layout the
    /// labeling stage produces: objective `γ·Σ(xv+xh) + (1−γ)·D`.
    fn build_vh_model(n: usize, edges: &[(usize, usize)], gamma: f64) -> (Model, VhLayout) {
        let mut m = Model::new();
        let xv: Vec<_> = (0..n)
            .map(|i| m.add_binary(format!("v{i}"), gamma))
            .collect();
        let xh: Vec<_> = (0..n)
            .map(|i| m.add_binary(format!("h{i}"), gamma))
            .collect();
        let mut layout_edges = Vec::new();
        for &(i, j) in edges {
            let o = m.add_binary(format!("o{i}_{j}"), 0.0);
            m.add_constraint(&[(xv[i], 1.0), (xh[j], 1.0), (o, 2.0)], Sense::Ge, 2.0);
            m.add_constraint(&[(xh[i], 1.0), (xv[j], 1.0), (o, -2.0)], Sense::Ge, 0.0);
            layout_edges.push((i, j, o.index()));
        }
        let d = m.add_continuous("D", 0.0, 2.0 * n as f64, 1.0 - gamma);
        let mut rows: Vec<_> = xh.iter().map(|&v| (v, -1.0)).collect();
        rows.push((d, 1.0));
        m.add_constraint(&rows, Sense::Ge, 0.0);
        let mut cols: Vec<_> = xv.iter().map(|&v| (v, -1.0)).collect();
        cols.push((d, 1.0));
        m.add_constraint(&cols, Sense::Ge, 0.0);
        for i in 0..n {
            m.add_constraint(&[(xv[i], 1.0), (xh[i], 1.0)], Sense::Ge, 1.0);
        }
        let layout = VhLayout {
            n,
            xv: xv.iter().map(|v| v.index()).collect(),
            xh: xh.iter().map(|v| v.index()).collect(),
            edges: layout_edges,
            d_var: d.index(),
            gamma,
        };
        (m, layout)
    }

    /// Exhaustive optimum over all valid labelings: label each node V, H
    /// or VH; reject V–V and H–H edges; cost `γ(n+#VH) + (1−γ)max(R,C)`.
    fn enumerate_optimum(n: usize, edges: &[(usize, usize)], gamma: f64) -> f64 {
        let mut best = f64::INFINITY;
        let total = 3usize.pow(n as u32);
        'outer: for mut code in 0..total {
            let mut labels = vec![0u8; n]; // 0=V, 1=H, 2=VH
            for l in labels.iter_mut() {
                *l = (code % 3) as u8;
                code /= 3;
            }
            for &(i, j) in edges {
                if (labels[i] == 0 && labels[j] == 0) || (labels[i] == 1 && labels[j] == 1) {
                    continue 'outer;
                }
            }
            let vh = labels.iter().filter(|&&l| l == 2).count();
            let r = labels.iter().filter(|&&l| l != 0).count();
            let c = labels.iter().filter(|&&l| l != 1).count();
            let cost = gamma * (n + vh) as f64 + (1.0 - gamma) * r.max(c) as f64;
            best = best.min(cost);
        }
        best
    }

    fn graphs() -> Vec<(usize, Vec<(usize, usize)>)> {
        vec![
            // Triangle: one VH forced.
            (3, vec![(0, 1), (1, 2), (0, 2)]),
            // C5: odd cycle, one VH.
            (5, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
            // Path P4: bipartite, no VH needed.
            (4, vec![(0, 1), (1, 2), (2, 3)]),
            // Two triangles sharing a vertex.
            (5, vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]),
            // K4: dense, multiple triangles.
            (4, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
        ]
    }

    /// Exhaustive-vs-branch&bound equivalence for every bounder path, over
    /// every small graph and every sweep point.
    #[test]
    fn all_bounders_match_exhaustive_enumeration() {
        for (n, edges) in graphs() {
            for &gamma in &[0.0, 0.25, 0.5, 0.75, 1.0] {
                let (m, layout) = build_vh_model(n, &edges, gamma);
                let expected = enumerate_optimum(n, &edges, gamma);

                let lp = BranchBound::new().solve(&m).unwrap();
                assert!(
                    (lp.objective - expected).abs() < 1e-6,
                    "LP n={n} γ={gamma}: {} vs {}",
                    lp.objective,
                    expected
                );

                let sol = BranchBound::new()
                    .solve_with(&m, VhBounder::new(layout.clone()))
                    .unwrap();
                assert!(
                    (sol.objective - expected).abs() < 1e-6,
                    "VhBounder n={n} γ={gamma}: {} vs {}",
                    sol.objective,
                    expected
                );

                let sol = BranchBound::new()
                    .solve_with(&m, HybridBounder::new(VhBounder::new(layout)))
                    .unwrap();
                assert!(
                    (sol.objective - expected).abs() < 1e-6,
                    "Hybrid n={n} γ={gamma}: {} vs {}",
                    sol.objective,
                    expected
                );
            }
        }
    }

    #[test]
    fn triangle_packing_counts_disjoint_triangles() {
        // Two vertex-disjoint triangles: S ≥ n + 2 at the root.
        let edges = vec![(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)];
        let (m, layout) = build_vh_model(6, &edges, 1.0);
        let mut bounder = VhBounder::new(layout);
        let fixed = vec![None; m.num_vars()];
        let bound = bounder.lower_bound(&m, &fixed, f64::INFINITY);
        // γ=1: bound = S_lb = 6 + 0 + 2.
        assert!((bound - 8.0).abs() < 1e-9, "got {bound}");
    }

    #[test]
    fn greedy_completion_is_feasible_from_the_root() {
        for (n, edges) in graphs() {
            for &gamma in &[0.0, 0.5, 1.0] {
                let (m, layout) = build_vh_model(n, &edges, gamma);
                let mut bounder = VhBounder::new(layout);
                let fixed = vec![None; m.num_vars()];
                let point = bounder
                    .suggest_incumbent(&m, &fixed)
                    .expect("root completion must exist");
                assert!(
                    m.is_feasible(&point, 1e-6),
                    "infeasible completion on n={n} γ={gamma}"
                );
            }
        }
    }
}
