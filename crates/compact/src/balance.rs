//! Orientation balancing: given the set of `VH` nodes (an odd cycle
//! transversal), the remaining graph is bipartite and each connected
//! component's 2-coloring can be oriented either way (colors → {V, H}).
//! This module picks orientations that (a) satisfy the alignment
//! constraints with the fewest `VH` upgrades and (b) balance the row/column
//! counts to minimize the maximum dimension — the paper's Figure 6 case,
//! where `D` shrinks at unchanged `S`.
//!
//! [`MoveScorer`] answers the question the Figure 7 hill climb asks of
//! every candidate — what would `balanced_labeling` give with one more
//! `VH` node? — from one DFS of the current remainder: O(n + e) to build,
//! O(deg v) plus a pass over a subset-sum bitset (about n/64 words) per
//! free part the move splits off to score a move. Its score is exactly
//! the statistics of the full re-labeling, so the climb accepts the same
//! moves.

use std::collections::HashSet;

use flowc_graph::Lowpoint;

use crate::labeling::{Labeling, LabelingStats, VhLabel};
use crate::preprocess::BddGraph;

/// Builds a complete labeling from a transversal: nodes in `vh` get `VH`,
/// the bipartite remainder is 2-colored per component and oriented to
/// minimize first alignment upgrades, then the maximum dimension.
///
/// When `align` is set, every root and the terminal end up providing a
/// wordline (Eq. 7), upgrading `V`-side aligned nodes to `VH` where the
/// component orientation cannot satisfy them all.
///
/// # Panics
///
/// Panics if removing `vh` does not leave a bipartite graph (i.e. `vh` is
/// not a valid odd cycle transversal).
pub fn balanced_labeling(graph: &BddGraph, vh: &HashSet<usize>, align: bool) -> Labeling {
    labeling_with_score(graph, vh, align, |rows, total| rows.max(total - rows))
}

/// Like [`balanced_labeling`], but orients components to fit inside the box
/// `rows ≤ max_rows, cols ≤ max_cols` (minimizing the total violation when
/// a perfect fit is unreachable) — the paper's Section III note on
/// user-specified row/column constraints.
///
/// # Panics
///
/// Panics if `vh` is not a valid odd cycle transversal.
pub fn boxed_labeling(
    graph: &BddGraph,
    vh: &HashSet<usize>,
    align: bool,
    max_rows: usize,
    max_cols: usize,
) -> Labeling {
    labeling_with_score(graph, vh, align, move |rows, total| {
        let cols = total - rows;
        rows.saturating_sub(max_rows) + cols.saturating_sub(max_cols)
    })
}

/// Like [`balanced_labeling`], but drives the row count as close as
/// possible to `target_rows` (the aspect-ratio sweep behind Figure 9 uses
/// this to trace equal-semiperimeter shapes).
///
/// # Panics
///
/// Panics if `vh` is not a valid odd cycle transversal.
pub(crate) fn targeted_labeling(
    graph: &BddGraph,
    vh: &HashSet<usize>,
    align: bool,
    target_rows: usize,
) -> Labeling {
    labeling_with_score(graph, vh, align, move |rows, _| rows.abs_diff(target_rows))
}

fn labeling_with_score(
    graph: &BddGraph,
    vh: &HashSet<usize>,
    align: bool,
    score: impl Fn(usize, usize) -> usize,
) -> Labeling {
    let remainder = Remainder::new(graph, vh, align);
    let parts = &remainder.parts;
    let count = parts.len();
    let forced: Vec<Option<usize>> = parts.iter().map(ClassCounts::forced).collect();

    let row_contrib = |c: usize, o: usize| parts[c].rows(o);
    let col_contrib = |c: usize, o: usize| parts[c].cols(o);

    // Base counts from the VH transversal itself.
    let base = vh.len();
    let mut fixed_r = base;
    let mut fixed_c = base;
    let mut free_comps: Vec<usize> = Vec::new();
    for (c, f) in forced.iter().enumerate().take(count) {
        match f {
            Some(o) => {
                fixed_r += row_contrib(c, *o);
                fixed_c += col_contrib(c, *o);
            }
            None => free_comps.push(c),
        }
    }

    // Subset-sum DP over the free components' row contributions: pick
    // orientations minimizing max(R, C). Total S is orientation-independent
    // for free components (tied upgrade costs).
    let orientation = choose_orientations(
        &free_comps,
        fixed_r,
        fixed_c,
        |c| (row_contrib(c, 0), col_contrib(c, 0)),
        |c| (row_contrib(c, 1), col_contrib(c, 1)),
        score,
    );

    // Materialize labels.
    let mut labels = vec![VhLabel::Vh; graph.num_nodes()];
    let mut comp_orientation = vec![0usize; count];
    for (i, &c) in free_comps.iter().enumerate() {
        comp_orientation[c] = orientation[i];
    }
    for (c, f) in forced.iter().enumerate() {
        if let Some(o) = f {
            comp_orientation[c] = *o;
        }
    }
    for (v, label) in labels.iter_mut().enumerate() {
        let part = remainder.part[v];
        if part == NONE {
            continue;
        }
        let is_h = usize::from(remainder.color[v]) == comp_orientation[part];
        *label = if is_h {
            VhLabel::H
        } else if remainder.aligned[v] {
            VhLabel::Vh // V-side aligned node: upgrade
        } else {
            VhLabel::V
        };
    }
    Labeling::new(labels)
}

/// Roots and the terminal when `align` is set: the nodes Eq. 7 requires to
/// provide a wordline.
fn aligned_nodes(graph: &BddGraph, align: bool) -> Vec<bool> {
    let mut aligned = vec![false; graph.num_nodes()];
    if align {
        for &r in graph.roots.iter().flatten() {
            aligned[r] = true;
        }
        if let Some(t) = graph.terminal {
            aligned[t] = true;
        }
    }
    aligned
}

/// A connected part of the bipartite remainder, summarized per color
/// class: everything the balancing objective reads of it. Swapping the
/// two classes changes none of the quantities below but the orientation
/// index, which is why a part can be counted in any 2-coloring of it.
#[derive(Debug, Default, Clone, Copy)]
struct ClassCounts {
    size: [usize; 2],
    aligned: [usize; 2],
}

impl ClassCounts {
    fn add(&mut self, color: u8, aligned: bool) {
        self.size[usize::from(color)] += 1;
        self.aligned[usize::from(color)] += usize::from(aligned);
    }

    fn plus(mut self, other: ClassCounts) -> ClassCounts {
        for c in 0..2 {
            self.size[c] += other.size[c];
            self.aligned[c] += other.aligned[c];
        }
        self
    }

    fn minus(mut self, other: ClassCounts) -> ClassCounts {
        for c in 0..2 {
            self.size[c] -= other.size[c];
            self.aligned[c] -= other.aligned[c];
        }
        self
    }

    fn is_empty(self) -> bool {
        self.size == [0, 0]
    }

    /// Orientation `o` makes color `o` the H side and color `1 − o` the V
    /// side; each aligned node on the V side is upgraded to `VH`. The
    /// orientation with fewer upgrades is forced; on a tie the part is free
    /// and joins the balancing DP (`None`).
    fn forced(&self) -> Option<usize> {
        match self.aligned[1].cmp(&self.aligned[0]) {
            std::cmp::Ordering::Less => Some(0),
            std::cmp::Ordering::Greater => Some(1),
            std::cmp::Ordering::Equal => None,
        }
    }

    /// Wordlines under orientation `o`: the H class plus the upgraded
    /// aligned nodes of the V class.
    fn rows(&self, o: usize) -> usize {
        self.size[o] + self.aligned[1 - o]
    }

    /// Bitlines under orientation `o`: the whole V class, upgrades included.
    fn cols(&self, o: usize) -> usize {
        self.size[1 - o]
    }

    /// Rows as `(fixed, free minimum, free delta)`: a forced part's rows
    /// are fixed; a free one provides its smaller orientation's rows and
    /// may add `|size₀ − size₁|` more.
    fn row_terms(&self) -> (usize, usize, usize) {
        match self.forced() {
            Some(o) => (self.rows(o), 0, 0),
            None => (
                0,
                self.rows(0).min(self.rows(1)),
                self.size[0].abs_diff(self.size[1]),
            ),
        }
    }

    /// Semiperimeter contribution: every node once, every upgrade twice.
    /// The same under both orientations of a free part, and the minimum
    /// over them for a forced one.
    fn semiperimeter(&self) -> usize {
        self.size[0] + self.size[1] + self.aligned[0].min(self.aligned[1])
    }
}

/// The balancing objective's sums over a set of parts: `S`, the rows of
/// `VH` nodes and forced parts, and the rows every free part provides
/// under either orientation.
#[derive(Debug, Clone, Copy)]
struct Totals {
    semiperimeter: usize,
    fixed_rows: usize,
    free_min_rows: usize,
}

impl Totals {
    /// Counts `part` in. Returns the rows a free part may add on top of
    /// its minimum, `|size₀ − size₁|` (its item in the subset sums), and 0
    /// for a forced one.
    fn add(&mut self, part: ClassCounts) -> usize {
        let (fixed, free_min, delta) = part.row_terms();
        self.semiperimeter += part.semiperimeter();
        self.fixed_rows += fixed;
        self.free_min_rows += free_min;
        delta
    }

    /// Counts `part` out; returns what [`Totals::add`] returned for it.
    fn remove(&mut self, part: ClassCounts) -> usize {
        let (fixed, free_min, delta) = part.row_terms();
        self.semiperimeter -= part.semiperimeter();
        self.fixed_rows -= fixed;
        self.free_min_rows -= free_min;
        delta
    }
}

/// `G − vh` as balancing sees it, from one [`Lowpoint`] DFS that starts
/// each connected part at its lowest-index node: the 2-coloring (that node
/// gets color 0), every part's [`ClassCounts`], and for [`MoveScorer`]
/// each node's `disc`/`low` times, DFS children and per-class subtree
/// counts.
#[derive(Debug, Clone)]
struct Remainder {
    /// Part index of each node; `NONE` for `VH` nodes.
    part: Vec<usize>,
    color: Vec<u8>,
    aligned: Vec<bool>,
    parts: Vec<ClassCounts>,
    disc: Vec<usize>,
    low: Vec<usize>,
    /// DFS tree children as linked lists (`NONE` ends a list).
    first_child: Vec<usize>,
    next_sibling: Vec<usize>,
    /// Per-class counts of each node's DFS subtree.
    subtree: Vec<ClassCounts>,
}

const NONE: usize = usize::MAX;

impl Remainder {
    /// # Panics
    ///
    /// Panics if `vh` is not a valid odd cycle transversal.
    fn new(graph: &BddGraph, vh: &HashSet<usize>, align: bool) -> Remainder {
        let n = graph.num_nodes();
        let aligned = aligned_nodes(graph, align);
        let Lowpoint {
            order,
            parent,
            disc,
            low,
        } = Lowpoint::new(&graph.graph, |v| vh.contains(&v));
        let mut part = vec![NONE; n];
        let mut color = vec![0u8; n];
        let mut first_child = vec![NONE; n];
        let mut next_sibling = vec![NONE; n];
        let mut parts = 0;
        for &v in &order {
            match parent[v] {
                NONE => {
                    part[v] = parts;
                    parts += 1;
                }
                p => {
                    part[v] = part[p];
                    color[v] = 1 - color[p];
                    next_sibling[v] = first_child[p];
                    first_child[p] = v;
                }
            }
        }
        for &(u, v) in graph.graph.edges() {
            assert!(
                part[u] == NONE || part[v] == NONE || color[u] != color[v],
                "transversal does not make the graph bipartite"
            );
        }
        let mut subtree = vec![ClassCounts::default(); n];
        let mut counts = vec![ClassCounts::default(); parts];
        for &v in order.iter().rev() {
            subtree[v].add(color[v], aligned[v]);
            match parent[v] {
                NONE => counts[part[v]] = subtree[v],
                p => subtree[p] = subtree[p].plus(subtree[v]),
            }
        }
        Remainder {
            part,
            color,
            aligned,
            parts: counts,
            disc,
            low,
            first_child,
            next_sibling,
            subtree,
        }
    }
}

/// Scores the paper's Figure 7 move — upgrade one more node to `VH`, then
/// re-balance — without re-labeling the graph. Built once from
/// `(graph, vh, align)` in O(n + e), [`MoveScorer::score`] returns for any
/// node `v ∉ vh` exactly the statistics of
/// `balanced_labeling(graph, vh ∪ {v}, align)` in O(deg v + W), where `W`
/// is the length in 64-bit words of the free parts' subset-sum bitset.
///
/// The objective reads each connected part of `G − vh` only through its
/// per-class `ClassCounts`, and removing `v` changes only `v`'s own part.
/// That part splits into the DFS subtrees of `v`'s children `u` with
/// `low(u) ≥ disc(v)` (Tarjan's articulation test) and the remainder, so
/// the scorer keeps the DFS of `G − vh` (`Remainder`) and the subset
/// sums of the free parts' row contributions as a bitset.
#[derive(Debug, Clone)]
pub struct MoveScorer {
    remainder: Remainder,
    num_nodes: usize,
    totals: Totals,
    /// The nonzero row deltas of the free parts and their subset sums.
    free_deltas: Vec<usize>,
    sums: Vec<u64>,
    /// Subset sums without one free part of the given delta, built when a
    /// move first splits a free part of that delta. Deltas sum to at most
    /// `n`, so there are O(√n) of them.
    sums_without: Vec<(usize, Vec<u64>)>,
    scratch: Vec<u64>,
}

impl MoveScorer {
    /// Builds the scorer for the labeling `balanced_labeling(graph, vh,
    /// align)`.
    ///
    /// # Panics
    ///
    /// Panics if `vh` is not a valid odd cycle transversal.
    pub fn new(graph: &BddGraph, vh: &HashSet<usize>, align: bool) -> MoveScorer {
        let n = graph.num_nodes();
        let remainder = Remainder::new(graph, vh, align);
        // Every VH node is a row and a column.
        let mut totals = Totals {
            semiperimeter: 2 * vh.len(),
            fixed_rows: vh.len(),
            free_min_rows: 0,
        };
        let free_deltas: Vec<usize> = remainder
            .parts
            .iter()
            .map(|&counts| totals.add(counts))
            .filter(|&delta| delta > 0)
            .collect();
        // Room for every delta plus those of the parts one move creates
        // (together at most the size of the part it splits).
        let words = (free_deltas.iter().sum::<usize>() + n).div_ceil(64) + 1;
        let sums = subset_sums(&free_deltas, None, words);
        MoveScorer {
            remainder,
            num_nodes: n,
            totals,
            free_deltas,
            sums,
            sums_without: Vec::new(),
            scratch: vec![0; words],
        }
    }

    /// The statistics of `balanced_labeling(graph, vh ∪ {v}, align)`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is already in `vh`.
    pub fn score(&mut self, v: usize) -> LabelingStats {
        let r = &self.remainder;
        let p = r.part[v];
        assert!(p != NONE, "node {v} is already VH");
        let whole = r.parts[p];
        // `v` leaves its part for VH: one more row and one more column.
        let mut totals = self.totals;
        totals.semiperimeter += 2;
        totals.fixed_rows += 1;
        match totals.remove(whole) {
            0 => self.scratch.copy_from_slice(&self.sums),
            delta => {
                let i = self.sums_without(delta);
                self.scratch.copy_from_slice(&self.sums_without[i].1);
            }
        }
        // The part splits into the subtrees of `v`'s children that reach
        // no higher than `v`, and the rest.
        let r = &self.remainder;
        let mut own = ClassCounts::default();
        own.add(r.color[v], r.aligned[v]);
        let mut rest = whole.minus(own);
        let mut child = r.first_child[v];
        while child != NONE {
            if r.low[child] >= r.disc[v] {
                let piece = r.subtree[child];
                rest = rest.minus(piece);
                shift_or(&mut self.scratch, totals.add(piece));
            }
            child = r.next_sibling[child];
        }
        if !rest.is_empty() {
            shift_or(&mut self.scratch, totals.add(rest));
        }

        // Reachable row totals are `base + t` for every set bit `t`; the
        // smallest one minimizing max(R, C) is the last at or below S/2
        // or the first at or above ⌈S/2⌉, whichever is better (the DP in
        // `choose_orientations` keeps the first minimum too).
        let semiperimeter = totals.semiperimeter;
        let base = totals.fixed_rows + totals.free_min_rows;
        let half = semiperimeter / 2;
        let below = half
            .checked_sub(base)
            .and_then(|t| last_set_at_or_below(&self.scratch, t))
            .map(|t| base + t);
        let above =
            first_set_at_or_above(&self.scratch, (semiperimeter - half).saturating_sub(base))
                .map(|t| base + t);
        let rows = match (below, above) {
            (Some(lo), Some(hi)) if semiperimeter - lo <= hi => lo,
            (_, Some(hi)) => hi,
            (Some(lo), None) => lo,
            (None, None) => unreachable!("the all-minimum orientation is always reachable"),
        };
        let cols = semiperimeter - rows;
        LabelingStats {
            rows,
            cols,
            semiperimeter,
            max_dimension: rows.max(cols),
            num_vh: semiperimeter - self.num_nodes,
        }
    }

    /// The index in `sums_without` of the sums without one part of
    /// `delta`, building them on first use.
    fn sums_without(&mut self, delta: usize) -> usize {
        match self.sums_without.iter().position(|(d, _)| *d == delta) {
            Some(i) => i,
            None => {
                let bits = subset_sums(&self.free_deltas, Some(delta), self.sums.len());
                self.sums_without.push((delta, bits));
                self.sums_without.len() - 1
            }
        }
    }
}

/// The subset sums of `deltas`, with one occurrence of `skip` left out, as
/// a bitset of `words` words.
fn subset_sums(deltas: &[usize], mut skip: Option<usize>, words: usize) -> Vec<u64> {
    let mut bits = vec![0u64; words];
    bits[0] = 1;
    for &d in deltas {
        if skip == Some(d) {
            skip = None;
        } else {
            shift_or(&mut bits, d);
        }
    }
    bits
}

/// `bits |= bits << d`, in place (bits shifted past the end are dropped).
fn shift_or(bits: &mut [u64], d: usize) {
    if d == 0 {
        return;
    }
    let (words, shift) = (d / 64, d % 64);
    for i in (words..bits.len()).rev() {
        let src = i - words;
        let mut moved = bits[src] << shift;
        if shift > 0 && src > 0 {
            moved |= bits[src - 1] >> (64 - shift);
        }
        bits[i] |= moved;
    }
}

/// The largest set bit at or below `t`.
fn last_set_at_or_below(bits: &[u64], t: usize) -> Option<usize> {
    let mut i = (t / 64).min(bits.len() - 1);
    let mut word = if i == t / 64 {
        bits[i] & (u64::MAX >> (63 - t % 64))
    } else {
        bits[i]
    };
    loop {
        if word != 0 {
            return Some(i * 64 + 63 - word.leading_zeros() as usize);
        }
        if i == 0 {
            return None;
        }
        i -= 1;
        word = bits[i];
    }
}

/// The smallest set bit at or above `t`.
fn first_set_at_or_above(bits: &[u64], t: usize) -> Option<usize> {
    let mut i = t / 64;
    let mut word = bits.get(i)? & (u64::MAX << (t % 64));
    loop {
        if word != 0 {
            return Some(i * 64 + word.trailing_zeros() as usize);
        }
        i += 1;
        word = *bits.get(i)?;
    }
}

/// Chooses an orientation per free component to minimize `score(R, S)`
/// given fixed base counts, via a reachability DP over the achievable row
/// totals. `score` receives the total row count and total semiperimeter
/// (so `C = S − R`); [`balanced_labeling`] scores `max(R, C)`, while the
/// boxed variant scores constraint violation.
fn choose_orientations(
    free: &[usize],
    fixed_r: usize,
    fixed_c: usize,
    contrib0: impl Fn(usize) -> (usize, usize),
    contrib1: impl Fn(usize) -> (usize, usize),
    score: impl Fn(usize, usize) -> usize,
) -> Vec<usize> {
    if free.is_empty() {
        return Vec::new();
    }
    // For each free component, orientation o adds (r_o, c_o); note
    // r_o + c_o is the same for o=0 and o=1, so C is determined by R.
    let max_r: usize = fixed_r
        + free
            .iter()
            .map(|&c| contrib0(c).0.max(contrib1(c).0))
            .sum::<usize>();
    // dp[r] = true if row total r is reachable; parent pointers for
    // reconstruction.
    let mut reachable = vec![false; max_r + 1];
    reachable[fixed_r] = true;
    let mut parents: Vec<Vec<i8>> = Vec::with_capacity(free.len());
    for &c in free {
        let (r0, _) = contrib0(c);
        let (r1, _) = contrib1(c);
        let mut next = vec![false; max_r + 1];
        let mut parent = vec![-1i8; max_r + 1];
        for (r, &ok) in reachable.iter().enumerate() {
            if !ok {
                continue;
            }
            if r + r0 <= max_r && !next[r + r0] {
                next[r + r0] = true;
                parent[r + r0] = 0;
            }
            if r + r1 <= max_r && !next[r + r1] {
                next[r + r1] = true;
                parent[r + r1] = 1;
            }
        }
        parents.push(parent);
        reachable = next;
    }
    // Total S over free components is fixed; compute it to derive C.
    let free_total: usize = free
        .iter()
        .map(|&c| {
            let (r0, c0) = contrib0(c);
            r0 + c0
        })
        .sum();
    let total = fixed_r + fixed_c + free_total;
    // Pick the reachable R minimizing the caller's score.
    let best_r = (0..=max_r)
        .filter(|&r| reachable[r])
        .min_by_key(|&r| score(r, total))
        .expect("at least one assignment is reachable");
    // Reconstruct.
    let mut choices = vec![0usize; free.len()];
    let mut r = best_r;
    for i in (0..free.len()).rev() {
        let o = parents[i][r];
        debug_assert!(o >= 0);
        choices[i] = o as usize;
        let (r0, _) = contrib0(free[i]);
        let (r1, _) = contrib1(free[i]);
        r -= if o == 0 { r0 } else { r1 };
    }
    choices
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowc_bdd::build_sbdd;
    use flowc_logic::{GateKind, Network};

    fn graph_of(f: impl FnOnce(&mut Network) -> Vec<flowc_logic::NetId>) -> BddGraph {
        let mut n = Network::new("t");
        let outs = f(&mut n);
        for o in outs {
            n.mark_output(o);
        }
        BddGraph::from_bdds(&build_sbdd(&n, None))
    }

    #[test]
    fn bipartite_graph_needs_no_vh_without_alignment() {
        let g = graph_of(|n| {
            let a = n.add_input("a");
            let b = n.add_input("b");
            let f = n.add_gate(GateKind::And, &[a, b], "f").unwrap();
            vec![f]
        });
        let l = balanced_labeling(&g, &HashSet::new(), false);
        assert!(l.is_valid(&g));
        assert_eq!(l.stats().num_vh, 0);
        assert_eq!(l.stats().semiperimeter, g.num_nodes());
    }

    #[test]
    fn alignment_may_force_upgrades() {
        // Path root - mid - terminal: root and terminal are the same color
        // class only if the path length is even; for a - b - 1 (two edges)
        // root and terminal share a color, so one orientation aligns both.
        let g = graph_of(|n| {
            let a = n.add_input("a");
            let b = n.add_input("b");
            let f = n.add_gate(GateKind::And, &[a, b], "f").unwrap();
            vec![f]
        });
        let l = balanced_labeling(&g, &HashSet::new(), true);
        assert!(l.is_valid(&g));
        assert!(l.is_aligned(&g));
        // Root and terminal are two hops apart: same class, zero upgrades.
        assert_eq!(l.stats().num_vh, 0);
    }

    #[test]
    fn odd_distance_alignment_costs_one_upgrade() {
        // f = a: graph is root(a) - 1, one edge; root and terminal are in
        // different classes, so alignment needs one VH upgrade.
        let g = graph_of(|n| {
            let a = n.add_input("a");
            let f = n.add_gate(GateKind::Buf, &[a], "f").unwrap();
            vec![f]
        });
        let l = balanced_labeling(&g, &HashSet::new(), true);
        assert!(l.is_valid(&g) && l.is_aligned(&g));
        assert_eq!(l.stats().num_vh, 1);
        assert_eq!(l.stats().semiperimeter, g.num_nodes() + 1);
    }

    #[test]
    fn balancing_minimizes_max_dimension() {
        // Two disjoint stars (in BDD terms, two independent outputs) give
        // two free components with skewed class sizes; the DP must orient
        // them oppositely.
        let g = graph_of(|n| {
            // Outputs f = AND(a,b,c,d) and g = OR(e,f2,g2,h): each is a
            // chain, giving components of equal classes; instead build one
            // wide and one narrow component via distinct structures.
            let ins: Vec<_> = (0..4).map(|i| n.add_input(format!("x{i}"))).collect();
            let f = n.add_gate(GateKind::And, &ins, "f").unwrap();
            vec![f]
        });
        // Chain of 5 nodes (4 internal + terminal).
        let l = balanced_labeling(&g, &HashSet::new(), false);
        let s = l.stats();
        assert!(l.is_valid(&g));
        // Perfectly balanced or off by one.
        assert!(s.max_dimension <= s.semiperimeter / 2 + 1);
    }

    #[test]
    #[should_panic(expected = "transversal")]
    fn invalid_transversal_panics() {
        // The Fig. 2 BDD ((a∧b)∨c) contains the triangle b-c-1, so the
        // empty transversal is invalid.
        let g = graph_of(|n| {
            let a = n.add_input("a");
            let b = n.add_input("b");
            let c = n.add_input("c");
            let ab = n.add_gate(GateKind::And, &[a, b], "ab").unwrap();
            let f = n.add_gate(GateKind::Or, &[ab, c], "f").unwrap();
            vec![f]
        });
        let _ = balanced_labeling(&g, &HashSet::new(), false);
    }
}
