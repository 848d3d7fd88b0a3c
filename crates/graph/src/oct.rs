//! Odd cycle transversal via the paper's Lemma 1: `G` has an OCT of size
//! `k` iff `G □ K₂` has a vertex cover of size `n + k`. A minimum vertex
//! cover of the product therefore yields a minimum OCT; *any* vertex cover
//! yields a valid (possibly suboptimal) OCT, which is what makes stopping
//! at the budget's deadline sound.
//!
//! Every odd cycle lies inside one biconnected block, so the exact search
//! runs block by block over the block–cut tree, rooted at each component's
//! largest non-bipartite block and solved from the leaves up. A block `B`
//! with parent cut vertex `p` has its forced child cut vertices removed,
//! leaving `B′`. It costs two Lemma 1 searches, `OCT(B′ − p)` and
//! `OCT(B′)`, and keeping `p` is free for it iff the two are equal: a
//! smaller transversal avoiding `p` would contradict the minimum. A cut
//! vertex that some child block cannot keep for free is forced into the
//! transversal: it costs one and saves at least one below, and once it is
//! forced its other child blocks need only the first search. The root
//! block costs one search and a bipartite block none, so a single-block
//! graph is one whole-graph search.

use std::cmp::Reverse;

use flowc_budget::Budget;

use crate::bipartite::extract_cycle;
use crate::blocks::{blocks, Block};
use crate::product::cartesian_with_k2;
use crate::vertex_cover::minimum_vertex_cover;
use crate::{two_color, ColorResult, UGraph};

const NONE: usize = usize::MAX;

/// Result of an odd-cycle-transversal computation.
#[derive(Debug, Clone)]
pub struct OctResult {
    /// Vertices whose removal makes the graph bipartite, sorted ascending.
    pub transversal: Vec<usize>,
    /// Whether the transversal was proven minimum.
    pub optimal: bool,
    /// A valid lower bound on the minimum OCT size.
    pub lower_bound: usize,
    /// Branch & bound nodes expanded by the vertex-cover solves.
    pub nodes: u64,
}

/// The answer for a bipartite graph.
const BIPARTITE: OctResult = OctResult {
    transversal: Vec::new(),
    optimal: true,
    lower_bound: 0,
    nodes: 0,
};

/// Computes a minimum odd cycle transversal of `g` over its block–cut
/// tree (see the module doc), one Lemma 1 search (vertex cover of
/// `B □ K₂`) per call. Bipartite inputs short-circuit to the empty
/// transversal. The vertex-cover branch & bound checks `budget`'s cancellation and deadline
/// cooperatively, so an in-flight solve can be interrupted mid-branch; on
/// exhaustion the result is the union of the blocks' transversals or the
/// greedy one, whichever is smaller, with `optimal == false` and a lower
/// bound summed over disjoint pieces of the blocks.
pub fn odd_cycle_transversal(g: &UGraph, budget: &Budget) -> OctResult {
    if matches!(two_color(g), ColorResult::Bipartite(_)) {
        return BIPARTITE;
    }
    let n = g.num_vertices();
    let blocks = blocks(g);

    // Root each component's block–cut tree at its largest non-bipartite
    // block: a breadth-first pass that makes every other block at a newly
    // reached vertex a child of that (cut) vertex.
    let mut blocks_at: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (b, block) in blocks.iter().enumerate() {
        for &v in &block.vertices {
            blocks_at[v].push(b);
        }
    }
    let mut roots: Vec<usize> = (0..blocks.len()).collect();
    roots.sort_by_key(|&b| Reverse((blocks[b].odd, blocks[b].vertices.len())));
    let mut parent_cut = vec![NONE; blocks.len()];
    let mut visited = vec![false; blocks.len()];
    let mut reached = vec![false; n];
    let mut order = Vec::with_capacity(blocks.len());
    for root in roots {
        if visited[root] {
            continue;
        }
        visited[root] = true;
        order.push(root);
        let mut head = order.len() - 1;
        while let Some(&b) = order.get(head) {
            head += 1;
            for &c in &blocks[b].vertices {
                if std::mem::replace(&mut reached[c], true) {
                    continue;
                }
                for &child in &blocks_at[c] {
                    if !std::mem::replace(&mut visited[child], true) {
                        parent_cut[child] = c;
                        order.push(child);
                    }
                }
            }
        }
    }

    // Leaves up. `forced[c]`: some child block of `c` cannot keep it for
    // free. Each block's search excludes its forced child cut vertices.
    let mut forced = vec![false; n];
    let mut local = vec![NONE; n];
    let mut transversal = Vec::new();
    let (mut optimal, mut lower_bound, mut nodes) = (true, 0, 0);
    let mut solve = |b: usize, drop: &dyn Fn(usize) -> bool| {
        let (sub, back) = block_graph(&blocks[b], drop, &mut local);
        let r = lemma1(&sub, budget);
        optimal &= r.optimal;
        nodes += r.nodes;
        let t: Vec<usize> = r.transversal.iter().map(|&v| back[v]).collect();
        (t, r.lower_bound)
    };
    for &b in order.iter().rev() {
        if !blocks[b].odd {
            continue;
        }
        let p = parent_cut[b];
        let below = |v: usize| v != p && forced[v];
        // The pieces `B′ − p` of the blocks and the roots' `B′` are
        // disjoint, so their bounds add up to a bound on the whole.
        let (t, bound) = solve(b, &|v| below(v) || v == p);
        lower_bound += bound;
        if p == NONE || forced[p] {
            transversal.extend(t);
            continue;
        }
        let (keep, _) = solve(b, &below);
        if keep.len() <= t.len() {
            transversal.extend(keep);
        } else {
            forced[p] = true;
            transversal.extend(t);
        }
    }
    transversal.extend((0..n).filter(|&v| forced[v]));
    transversal.sort_unstable();
    transversal.dedup();
    debug_assert!(
        is_valid_oct(g, &transversal),
        "block transversals do not compose"
    );
    let lower_bound = if optimal {
        transversal.len()
    } else {
        let greedy = oct_heuristic(g);
        if greedy.len() < transversal.len() {
            transversal = greedy;
        }
        lower_bound.max(1)
    };
    OctResult {
        transversal,
        optimal,
        lower_bound,
        nodes,
    }
}

/// The subgraph of `g` induced on `block`'s vertices for which `drop`
/// fails, with the map from its indices back to `g`'s. `local` is an
/// all-`NONE` scratch of `g`'s size, left as it was found.
fn block_graph(
    block: &Block,
    drop: impl Fn(usize) -> bool,
    local: &mut [usize],
) -> (UGraph, Vec<usize>) {
    let back: Vec<usize> = block
        .vertices
        .iter()
        .copied()
        .filter(|&v| !drop(v))
        .collect();
    for (i, &v) in back.iter().enumerate() {
        local[v] = i;
    }
    let mut sub = UGraph::new(back.len());
    for &(u, v) in &block.edges {
        if local[u] != NONE && local[v] != NONE {
            sub.add_edge(local[u], local[v]);
        }
    }
    for &v in &back {
        local[v] = NONE;
    }
    (sub, back)
}

/// One Lemma 1 search over the whole of `g`: a vertex cover of `G □ K₂`,
/// seeded from the greedy transversal.
fn lemma1(g: &UGraph, budget: &Budget) -> OctResult {
    if matches!(two_color(g), ColorResult::Bipartite(_)) {
        return BIPARTITE;
    }
    let n = g.num_vertices();
    let p = cartesian_with_k2(g);
    // Seed the product cover from the greedy transversal via the forward
    // direction of Lemma 1: both copies of each transversal vertex, plus
    // one copy of every other vertex picked by its 2-coloring side. The
    // seed has size `n + |greedy OCT|`, which usually lands within one or
    // two of the optimum and prunes the branch & bound from the start.
    let greedy = oct_heuristic(g);
    let seed = product_cover_from_transversal(g, &greedy, n);
    let vc = minimum_vertex_cover(&p, budget, seed.as_deref());
    let in_cover = {
        let mut m = vec![false; 2 * n];
        for &v in &vc.cover {
            m[v] = true;
        }
        m
    };
    let transversal: Vec<usize> = (0..n).filter(|&v| in_cover[v] && in_cover[v + n]).collect();
    debug_assert!(is_valid_oct(g, &transversal), "Lemma 1 construction failed");
    // When the vertex-cover solve timed out, its fallback cover can be
    // worse than the direct greedy transversal — return the better of the
    // two (optimality is only ever claimed for the exact path).
    let transversal = if vc.optimal {
        transversal
    } else {
        if greedy.len() < transversal.len() {
            greedy
        } else {
            transversal
        }
    };
    OctResult {
        optimal: vc.optimal,
        // VC(P) = n + OCT(G) at the optimum, so VC bounds transfer shifted
        // by n (clamped at 1: the graph is known non-bipartite here).
        lower_bound: vc.lower_bound.saturating_sub(n).max(1),
        transversal,
        nodes: vc.nodes,
    }
}

/// Lemma 1, forward direction: a transversal `t` of `g` plus a 2-coloring
/// of `g − t` yields a vertex cover of `G □ K₂` of size `n + |t|` (both
/// copies of each transversal vertex, one color-chosen copy of the rest).
/// Returns `None` if `g − t` is not bipartite (an invalid transversal).
fn product_cover_from_transversal(g: &UGraph, t: &[usize], n: usize) -> Option<Vec<usize>> {
    let mut keep = vec![true; n];
    for &v in t {
        keep[v] = false;
    }
    let (sub, back) = g.induced_subgraph(&keep);
    let colors = match two_color(&sub) {
        ColorResult::Bipartite(colors) => colors,
        ColorResult::OddCycle(_) => return None,
    };
    let mut cover = Vec::with_capacity(n + t.len());
    for &v in t {
        cover.push(v);
        cover.push(v + n);
    }
    for (sub_v, &orig) in back.iter().enumerate() {
        cover.push(if colors[sub_v] == 0 { orig } else { orig + n });
    }
    Some(cover)
}

/// Fast greedy OCT: repeatedly 2-color; on each odd-cycle certificate remove
/// the cycle vertex of maximum degree; finally try to re-insert removed
/// vertices that no longer break bipartiteness.
///
/// The 2-coloring is one BFS over `g` that skips removed vertices. Adjacency
/// lists keep edge-insertion order, as induced subgraphs do, so it visits
/// vertices exactly as a fresh [`two_color`] of `g − removed` would. A
/// conflict resets only the current component and recolors it from the same
/// start: earlier components are finished, bipartite and not adjacent to the
/// victim. Re-insertion tests each removed vertex, in ascending order,
/// against its kept neighbours in a parity union-find, which gives the same
/// answer as recoloring the whole graph.
pub fn oct_heuristic(g: &UGraph) -> Vec<usize> {
    let n = g.num_vertices();
    let mut removed = vec![false; n];
    let mut color = vec![u8::MAX; n];
    let mut parent = vec![usize::MAX; n];
    let mut forest = ParityForest::new(n);
    // The current component's BFS queue, which is also its visited list.
    let mut queue = Vec::new();
    for start in 0..n {
        'component: while !removed[start] && color[start] == u8::MAX {
            color[start] = 0;
            queue.clear();
            queue.push(start);
            let mut head = 0;
            while let Some(&u) = queue.get(head) {
                head += 1;
                for &w in g.neighbors(u) {
                    if removed[w] {
                        continue;
                    }
                    if color[w] == u8::MAX {
                        color[w] = 1 - color[u];
                        parent[w] = u;
                        queue.push(w);
                    } else if color[w] == color[u] {
                        let victim = extract_cycle(&parent, u, w)
                            .into_iter()
                            .max_by_key(|&v| g.degree(v))
                            .expect("cycle is nonempty");
                        removed[victim] = true;
                        for &v in &queue {
                            color[v] = u8::MAX;
                            parent[v] = usize::MAX;
                        }
                        continue 'component;
                    }
                }
            }
            forest.adopt(start, &queue, &color);
        }
    }
    // Re-insertion pass: keep the transversal minimal. `v` may rejoin iff
    // no two of its kept neighbours in one component demand opposite sides.
    let mut demands: Vec<(usize, u8)> = Vec::new();
    for v in 0..n {
        if !removed[v] {
            continue;
        }
        demands.clear();
        for &w in g.neighbors(v) {
            if !removed[w] {
                let (root, side) = forest.find(w);
                demands.push((root, 1 - side));
            }
        }
        demands.sort_unstable();
        demands.dedup();
        if demands.windows(2).any(|d| d[0].0 == d[1].0) {
            continue;
        }
        removed[v] = false;
        for &(root, side) in &demands {
            forest.union(v, root, side);
        }
    }
    (0..n).filter(|&v| removed[v]).collect()
}

/// A union-find over the kept vertices whose entries carry their 2-coloring
/// side relative to their set's root.
struct ParityForest {
    parent: Vec<usize>,
    /// Side of `v` relative to `parent[v]`.
    parity: Vec<u8>,
    size: Vec<usize>,
}

impl ParityForest {
    fn new(n: usize) -> Self {
        ParityForest {
            parent: (0..n).collect(),
            parity: vec![0; n],
            size: vec![1; n],
        }
    }

    /// Makes the 2-colored component `members` (rooted at `root`, colored
    /// 0) one set.
    fn adopt(&mut self, root: usize, members: &[usize], color: &[u8]) {
        for &v in members {
            self.parent[v] = root;
            self.parity[v] = color[v];
        }
        self.size[root] = members.len();
    }

    /// The root of `v`'s set and `v`'s side relative to it.
    fn find(&mut self, v: usize) -> (usize, u8) {
        let (mut root, mut side) = (v, 0);
        while self.parent[root] != root {
            side ^= self.parity[root];
            root = self.parent[root];
        }
        // Path compression: point every vertex on the path at the root.
        let (mut x, mut x_side) = (v, side);
        while x != root {
            let (next, next_side) = (self.parent[x], x_side ^ self.parity[x]);
            self.parent[x] = root;
            self.parity[x] = x_side;
            (x, x_side) = (next, next_side);
        }
        (root, side)
    }

    /// Merges `v`'s set with the set rooted at `root`, putting `v` on side
    /// `side` relative to `root`.
    fn union(&mut self, v: usize, root: usize, side: u8) {
        let (v_root, v_side) = self.find(v);
        debug_assert_ne!(v_root, root, "a re-inserted vertex joins each set once");
        // Side of `v_root` relative to `root`.
        let link = v_side ^ side;
        let (child, parent) = if self.size[v_root] < self.size[root] {
            (v_root, root)
        } else {
            (root, v_root)
        };
        self.parent[child] = parent;
        self.parity[child] = link;
        self.size[parent] += self.size[child];
    }
}

/// Checks that removing `transversal` leaves a bipartite graph.
pub(crate) fn is_valid_oct(g: &UGraph, transversal: &[usize]) -> bool {
    let mut keep = vec![true; g.num_vertices()];
    for &v in transversal {
        keep[v] = false;
    }
    let (sub, _) = g.induced_subgraph(&keep);
    matches!(two_color(&sub), ColorResult::Bipartite(_))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// An unbudgeted solve.
    fn oct(g: &UGraph) -> OctResult {
        odd_cycle_transversal(g, &Budget::unlimited())
    }

    fn cycle(n: usize) -> UGraph {
        let mut g = UGraph::new(n);
        for i in 0..n {
            g.add_edge(i, (i + 1) % n);
        }
        g
    }

    #[test]
    fn bipartite_graph_has_empty_oct() {
        let g = cycle(6);
        let r = oct(&g);
        assert!(r.transversal.is_empty() && r.optimal && r.lower_bound == 0);
    }

    #[test]
    fn single_odd_cycle_needs_one() {
        for n in [3usize, 5, 7, 9] {
            let g = cycle(n);
            let r = oct(&g);
            assert_eq!(r.transversal.len(), 1, "C{n}");
            assert!(r.optimal);
            assert_eq!(r.lower_bound, 1);
            assert!(is_valid_oct(&g, &r.transversal));
        }
    }

    #[test]
    fn two_disjoint_triangles_need_two() {
        let mut g = UGraph::new(6);
        for base in [0, 3] {
            g.add_edge(base, base + 1);
            g.add_edge(base + 1, base + 2);
            g.add_edge(base, base + 2);
        }
        let r = oct(&g);
        assert_eq!(r.transversal.len(), 2);
        assert!(r.optimal);
        assert!(is_valid_oct(&g, &r.transversal));
    }

    #[test]
    fn complete_graph_k5() {
        // OCT(K5) = 3 (remove 3 to leave an edge... K2 is bipartite; K3 is
        // not, so at least 2 must go; removing 2 leaves K3 — still odd).
        let mut g = UGraph::new(5);
        for u in 0..5 {
            for v in (u + 1)..5 {
                g.add_edge(u, v);
            }
        }
        let r = oct(&g);
        assert_eq!(r.transversal.len(), 3);
        assert!(r.optimal);
    }

    #[test]
    fn shared_vertex_triangles() {
        // Two triangles sharing vertex 0: removing 0 fixes both.
        let mut g = UGraph::new(5);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 2);
        g.add_edge(0, 3);
        g.add_edge(3, 4);
        g.add_edge(0, 4);
        let r = oct(&g);
        assert_eq!(r.transversal, vec![0]);
        assert!(r.optimal);
    }

    #[test]
    fn a_fan_forces_its_hub_into_the_transversal() {
        // The 7-cycle 0, 6..=11 is the root block. The fan of triangles
        // 0-i-(i+1) over the path 1..=5 hangs off cut vertex 0: keeping 0
        // would cost it two, so 0 is forced and the cycle, without 0, is a
        // path.
        let mut g = UGraph::new(12);
        for i in 1..=5 {
            g.add_edge(0, i);
        }
        for i in 1..5 {
            g.add_edge(i, i + 1);
        }
        for (u, v) in [(0, 6), (6, 7), (7, 8), (8, 9), (9, 10), (10, 11), (11, 0)] {
            g.add_edge(u, v);
        }
        let r = oct(&g);
        assert_eq!(r.transversal, vec![0]);
        assert!(r.optimal);
        assert_eq!(r.lower_bound, 1);
    }

    #[test]
    fn an_interrupted_bound_counts_each_block_without_its_parent_cut_vertex() {
        // Three triangles share vertex 0; each non-root triangle minus 0 is
        // an edge, so the disjoint pieces bound the OCT by the root's 1.
        let mut g = UGraph::new(7);
        for base in [1, 3, 5] {
            g.add_edge(0, base);
            g.add_edge(base, base + 1);
            g.add_edge(0, base + 1);
        }
        let budget = Budget::unlimited();
        budget.cancel_handle().cancel();
        let r = odd_cycle_transversal(&g, &budget);
        assert!(!r.optimal);
        assert_eq!(r.lower_bound, 1);
        assert!(is_valid_oct(&g, &r.transversal));
        assert_eq!(oct(&g).transversal, vec![0]);
    }

    #[test]
    fn heuristic_is_valid_and_small_on_single_cycle() {
        for n in [3usize, 5, 11] {
            let g = cycle(n);
            let t = oct_heuristic(&g);
            assert!(is_valid_oct(&g, &t), "C{n}");
            assert_eq!(t.len(), 1, "C{n} heuristic should be tight");
        }
    }

    #[test]
    fn heuristic_valid_on_random_nonbipartite() {
        let mut seed = 42u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..10 {
            let n = 10 + (rng() % 10) as usize;
            let mut g = UGraph::new(n);
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng() % 100 < 25 {
                        g.add_edge(u, v);
                    }
                }
            }
            let t = oct_heuristic(&g);
            assert!(is_valid_oct(&g, &t));
            // Exact result is no larger.
            let r = oct(&g);
            if r.optimal {
                assert!(r.transversal.len() <= t.len());
                assert!(is_valid_oct(&g, &r.transversal));
            }
        }
    }

    fn graph(n: usize, edges: &[(usize, usize)]) -> UGraph {
        let mut g = UGraph::new(n);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    #[test]
    fn heuristic_resumes_after_a_finished_bipartite_component() {
        // Path 0-1-2 is colored and finished before triangle 3-4-5 conflicts;
        // the cycle is [4, 3, 5] and the last maximum-degree vertex goes.
        let g = graph(6, &[(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)]);
        assert_eq!(oct_heuristic(&g), vec![5]);
    }

    #[test]
    fn heuristic_victim_can_be_the_component_start() {
        // Cycle [4, 0, 1] drops 1, then cycle [4, 0, 3] drops the BFS
        // start 0 itself; coloring resumes at the next uncolored vertex.
        // Re-inserting 1 then succeeds, so only 0 remains.
        let g = graph(5, &[(0, 4), (0, 1), (1, 4), (1, 2), (0, 3), (3, 4)]);
        let t = oct_heuristic(&g);
        assert_eq!(t, vec![0]);
        assert!(is_valid_oct(&g, &t));
    }

    #[test]
    fn reinsertion_merges_components_with_opposite_sides() {
        // The re-insertion of 1 in `heuristic_victim_can_be_the_component_start`:
        // its kept neighbours are 2 (root of {2}, side 0) and 4 (side 1
        // under root 3 of {3, 4}). They demand opposite sides of different
        // sets, so 1 rejoins and merges them.
        let mut forest = ParityForest::new(5);
        forest.adopt(2, &[2], &[0, 0, 0, 0, 0]);
        forest.adopt(3, &[3, 4], &[0, 0, 0, 0, 1]);
        let (r2, s2) = forest.find(2);
        let (r4, s4) = forest.find(4);
        forest.union(1, r2, 1 - s2);
        forest.union(1, r4, 1 - s4);
        let (root, s1) = forest.find(1);
        assert_eq!(forest.find(2), (root, 1 - s1));
        assert_eq!(forest.find(4), (root, 1 - s1));
        assert_eq!(forest.find(3), (root, s1));
    }

    #[test]
    fn reinsertion_rejects_an_odd_cycle_within_a_component() {
        // 0 goes first (cycle [1, 0, 2]), then 1 (cycle [5, 1, 6]).
        // Re-inserting 0 merges {2}, {3}, {4}; re-inserting 1 would then
        // close triangle 0-1-2 inside that one set, so 1 stays removed.
        let g = graph(
            7,
            &[
                (0, 1),
                (0, 2),
                (1, 2),
                (0, 3),
                (0, 4),
                (1, 5),
                (1, 6),
                (5, 6),
            ],
        );
        assert_eq!(oct_heuristic(&g), vec![1]);
    }

    #[test]
    fn cancelled_budget_still_returns_valid_oct() {
        let mut g = UGraph::new(6);
        for base in [0, 3] {
            g.add_edge(base, base + 1);
            g.add_edge(base + 1, base + 2);
            g.add_edge(base, base + 2);
        }
        let budget = Budget::unlimited();
        budget.cancel_handle().cancel();
        let r = odd_cycle_transversal(&g, &budget);
        assert!(is_valid_oct(&g, &r.transversal));
        assert!(!r.optimal);
    }

    #[test]
    fn timeout_still_returns_valid_oct() {
        let mut g = UGraph::new(40);
        let mut seed = 5u64;
        for u in 0..40usize {
            for v in (u + 1)..40 {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                if seed >> 58 & 3 == 0 {
                    g.add_edge(u, v);
                }
            }
        }
        let r = odd_cycle_transversal(&g, &Budget::unlimited().with_deadline(Duration::ZERO));
        assert!(is_valid_oct(&g, &r.transversal));
        assert!(r.lower_bound <= r.transversal.len().max(1));
    }
}
