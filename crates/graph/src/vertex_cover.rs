//! Exact minimum vertex cover with LP/Nemhauser–Trotter kernelization and
//! branch & bound — the engine behind the paper's Eq. 2 (the minimum vertex
//! cover ILP that yields the smallest odd cycle transversal).
//!
//! The vertex-cover LP is half-integral; its optimum equals half the
//! maximum-matching size of the bipartite double graph, and the König cover
//! of that double graph yields the Nemhauser–Trotter partition (vertices
//! forced into / out of some optimum cover). BDD-derived graphs are nearly
//! bipartite, so this kernelization usually collapses the instance and the
//! residual branch & bound tree stays small.
//!
//! The branch & bound is incremental. One residual graph and one matching
//! of its bipartite double live for the whole search: branching edits them
//! in place and backtracking restores them from an undo trail. Each node's
//! LP bound warm-starts Hopcroft–Karp from the matching its parent left, and
//! the reductions look only at the vertices whose degree changed. The tree
//! is the one a solver that rebuilds all of this per node would expand.

use std::collections::BinaryHeap;

use flowc_budget::Budget;

use crate::matching::{hopcroft_karp, konig_cover};
use crate::UGraph;

/// Result of a vertex-cover computation.
#[derive(Debug, Clone)]
pub struct VcResult {
    /// Vertices of the cover, sorted ascending.
    pub cover: Vec<usize>,
    /// Whether `cover` was proven minimum.
    pub optimal: bool,
    /// A valid lower bound on the minimum cover size.
    pub lower_bound: usize,
    /// Branch & bound nodes expanded across all components.
    pub nodes: u64,
}

/// Greedy max-degree vertex cover (upper bound / warm start).
///
/// Each pick is the alive vertex of largest degree, the highest index
/// among ties. A max-heap keyed by `(degree, index)` finds it; degrees
/// only fall, so an entry whose degree is no longer the vertex's own is
/// stale and skipped when it surfaces.
pub fn greedy_cover(g: &UGraph) -> Vec<usize> {
    let n = g.num_vertices();
    let mut deg: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
    let mut alive = vec![true; n];
    let mut heap: BinaryHeap<(usize, usize)> = (0..n)
        .filter(|&v| deg[v] > 0)
        .map(|v| (deg[v], v))
        .collect();
    let mut cover = Vec::new();
    let mut remaining = g.num_edges();
    while remaining > 0 {
        let (d, v) = heap
            .pop()
            .expect("edges remain, so a vertex of degree > 0 does too");
        if !alive[v] || d != deg[v] {
            continue;
        }
        cover.push(v);
        alive[v] = false;
        for &w in g.neighbors(v) {
            if alive[w] {
                deg[w] -= 1;
                remaining -= 1;
                if deg[w] > 0 {
                    heap.push((deg[w], w));
                }
            }
        }
        deg[v] = 0;
    }
    cover.sort_unstable();
    cover
}

/// The vertex-cover LP lower bound of the whole graph (half-integral, equal
/// to half the maximum matching of the bipartite double).
pub fn lp_lower_bound(g: &UGraph) -> f64 {
    let adj: Vec<Vec<usize>> = (0..g.num_vertices())
        .map(|v| g.neighbors(v).to_vec())
        .collect();
    hopcroft_karp(&adj, g.num_vertices()).size as f64 / 2.0
}

/// The Nemhauser–Trotter partition derived from an optimal half-integral LP
/// solution.
#[derive(Debug, Clone)]
pub struct NtKernel {
    /// Vertices with LP value 1: some minimum cover contains all of them.
    pub forced_in: Vec<usize>,
    /// Vertices with LP value 0: some minimum cover avoids all of them.
    pub excluded: Vec<usize>,
    /// Vertices with LP value ½: the residual kernel to branch on.
    pub kernel: Vec<usize>,
}

/// Computes the Nemhauser–Trotter kernel of `g`.
pub fn nt_kernel(g: &UGraph) -> NtKernel {
    let n = g.num_vertices();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(u, v) in g.edges() {
        adj[u].push(v);
        adj[v].push(u);
    }
    let m = hopcroft_karp(&adj, n);
    let (in_left, in_right) = konig_cover(&adj, &m);
    let mut forced_in = Vec::new();
    let mut excluded = Vec::new();
    let mut kernel = Vec::new();
    for v in 0..n {
        match (in_left[v], in_right[v]) {
            (true, true) => forced_in.push(v),
            (false, false) => excluded.push(v),
            _ => kernel.push(v),
        }
    }
    NtKernel {
        forced_in,
        excluded,
        kernel,
    }
}

const NIL: usize = usize::MAX;

/// One reversible edit of the search state. Branching logs its edits on a
/// trail and backtracking pops them, so the search never copies its state
/// per level.
#[derive(Debug, Clone, Copy)]
enum Undo {
    /// `v` left the residual graph with alive degree `deg`.
    Kill { v: usize, deg: usize },
    /// `pair_left[u]` held `old`.
    Left { u: usize, old: usize },
    /// `pair_right[v]` held `old`.
    Right { v: usize, old: usize },
}

/// A search state to backtrack to: the trail length plus the two counters
/// that the trail does not log.
#[derive(Debug, Clone, Copy)]
struct Mark {
    trail: usize,
    chosen: usize,
    matched: usize,
}

/// Branch & bound over one kernelized component.
///
/// The fields hold the current node's residual graph and a matching of its
/// bipartite double; popping the trail undoes a branch. `kill` drops the
/// killed vertex's pairs, so the matching always fits the residual graph
/// and a node's LP bound pays only for what its branch changed. `reduce`
/// visits only the `dirty` vertices, in the order full sweeps would, so the
/// search tree is the one a from-scratch solver expands.
struct Solver<'g> {
    g: &'g UGraph,
    n: usize,
    best_cover: Vec<usize>,
    budget: Budget,
    timed_out: bool,
    /// Smallest unexplored lower bound among pruned-by-timeout subtrees.
    open_bound: Option<usize>,
    /// Branch & bound nodes expanded.
    nodes: u64,
    // The residual graph of the current node.
    alive: Vec<bool>,
    deg: Vec<usize>,
    chosen: Vec<usize>,
    /// Bitset of the vertices whose alive degree changed since `reduce`
    /// last looked at them.
    dirty: Vec<u64>,
    // A matching of the residual graph's bipartite double (the double is
    // symmetric, so left = right = V): left `u` is matched to right
    // `pair_left[u]`, and `matched` counts the pairs.
    pair_left: Vec<usize>,
    pair_right: Vec<usize>,
    matched: usize,
    trail: Vec<Undo>,
    // Scratch, valid only within one bound evaluation.
    dist: Vec<usize>,
    queue: Vec<usize>,
}

impl<'g> Solver<'g> {
    fn new(g: &'g UGraph, best_cover: Vec<usize>, budget: Budget) -> Self {
        let n = g.num_vertices();
        // The root's reduce looks at every vertex.
        let mut dirty = vec![0u64; n.div_ceil(64)];
        for v in 0..n {
            dirty[v / 64] |= 1 << (v % 64);
        }
        Solver {
            g,
            n,
            best_cover,
            budget,
            timed_out: false,
            open_bound: None,
            nodes: 0,
            alive: vec![true; n],
            deg: (0..n).map(|v| g.degree(v)).collect(),
            chosen: Vec::new(),
            dirty,
            pair_left: vec![NIL; n],
            pair_right: vec![NIL; n],
            matched: 0,
            trail: Vec::new(),
            dist: vec![0; n],
            queue: Vec::new(),
        }
    }

    fn mark(&self) -> Mark {
        Mark {
            trail: self.trail.len(),
            chosen: self.chosen.len(),
            matched: self.matched,
        }
    }

    /// Restores the state recorded by `mark`.
    fn undo(&mut self, mark: Mark) {
        let g = self.g;
        while self.trail.len() > mark.trail {
            match self.trail.pop().expect("trail is longer than the mark") {
                Undo::Kill { v, deg } => {
                    if deg > 0 {
                        for &w in g.neighbors(v) {
                            if self.alive[w] {
                                self.deg[w] += 1;
                            }
                        }
                    }
                    self.alive[v] = true;
                    self.deg[v] = deg;
                }
                Undo::Left { u, old } => self.pair_left[u] = old,
                Undo::Right { v, old } => self.pair_right[v] = old,
            }
        }
        self.chosen.truncate(mark.chosen);
        self.matched = mark.matched;
    }

    fn set_left(&mut self, u: usize, v: usize) {
        self.trail.push(Undo::Left {
            u,
            old: self.pair_left[u],
        });
        self.pair_left[u] = v;
    }

    fn set_right(&mut self, v: usize, u: usize) {
        self.trail.push(Undo::Right {
            v,
            old: self.pair_right[v],
        });
        self.pair_right[v] = u;
    }

    /// Removes `v` from the residual graph: drops its matching pairs,
    /// maintains alive degrees and marks the neighbors it touched dirty.
    fn kill(&mut self, v: usize) {
        let right = self.pair_left[v];
        if right != NIL {
            self.set_left(v, NIL);
            self.set_right(right, NIL);
            self.matched -= 1;
        }
        let left = self.pair_right[v];
        if left != NIL {
            self.set_right(v, NIL);
            self.set_left(left, NIL);
            self.matched -= 1;
        }
        let deg = self.deg[v];
        self.trail.push(Undo::Kill { v, deg });
        self.alive[v] = false;
        self.deg[v] = 0;
        if deg > 0 {
            for &w in self.g.neighbors(v) {
                if self.alive[w] {
                    self.deg[w] -= 1;
                    self.dirty[w / 64] |= 1 << (w % 64);
                }
            }
        }
    }

    /// Clears and returns the first dirty vertex at or after `from`,
    /// wrapping around to vertex 0 past the end.
    fn take_dirty(&mut self, from: usize) -> Option<usize> {
        let first = |dirty: &[u64], from: usize| {
            (from / 64..dirty.len()).find_map(|i| {
                let mut word = dirty[i];
                if i == from / 64 {
                    word &= !0u64 << (from % 64);
                }
                (word != 0).then(|| i * 64 + word.trailing_zeros() as usize)
            })
        };
        let v = first(&self.dirty, from).or_else(|| first(&self.dirty, 0))?;
        self.dirty[v / 64] &= !(1 << (v % 64));
        Some(v)
    }

    /// Applies degree-0/degree-1 reductions plus the triangle rule (a
    /// degree-2 vertex with adjacent neighbors puts both neighbors into
    /// some minimum cover) until none fires. A rule can newly fire only
    /// where the alive degree changed, so this visits the dirty vertices in
    /// the order repeated full sweeps would: one dirtied ahead of the
    /// cursor in this sweep, one dirtied behind it in the next.
    fn reduce(&mut self) {
        let g = self.g;
        let mut cursor = 0;
        while let Some(v) = self.take_dirty(cursor) {
            cursor = v + 1;
            if !self.alive[v] {
                continue;
            }
            match self.deg[v] {
                0 => self.kill(v),
                1 => {
                    // Pendant vertex: take the neighbor.
                    let w = g
                        .neighbors(v)
                        .iter()
                        .copied()
                        .find(|&w| self.alive[w])
                        .expect("degree-1 vertex has an alive neighbor");
                    self.chosen.push(w);
                    self.kill(w);
                    self.kill(v);
                }
                2 => {
                    let mut nbrs = g.neighbors(v).iter().copied().filter(|&w| self.alive[w]);
                    let a = nbrs.next().expect("degree-2 vertex");
                    let b = nbrs.next().expect("degree-2 vertex");
                    if g.has_edge(a, b) {
                        self.chosen.push(a);
                        self.chosen.push(b);
                        self.kill(a);
                        self.kill(b);
                        self.kill(v);
                    }
                }
                _ => {}
            }
        }
    }

    /// Whether the half-integral LP bound, half the maximum matching of
    /// the residual graph's bipartite double, prunes the node. Hopcroft–Karp
    /// phases grow the kept matching and stop as soon as
    /// `chosen + ⌈size/2⌉` reaches the incumbent: any matching bounds the
    /// cover, so the node prunes exactly when the maximum one would.
    fn lp_prunes(&mut self) -> bool {
        let g = self.g;
        let need = self.best_cover.len() - self.chosen.len();
        loop {
            if self.matched.div_ceil(2) >= need {
                return true;
            }
            // BFS layering from free alive vertices, stopped after the
            // first layer that reaches a free vertex.
            self.queue.clear();
            for u in 0..self.n {
                if self.alive[u] && self.pair_left[u] == NIL {
                    self.dist[u] = 0;
                    self.queue.push(u);
                } else {
                    self.dist[u] = NIL;
                }
            }
            let mut found = NIL;
            let mut head = 0;
            while head < self.queue.len() {
                let u = self.queue[head];
                head += 1;
                if self.dist[u] > found {
                    break;
                }
                for &v in g.neighbors(u) {
                    if !self.alive[v] {
                        continue;
                    }
                    let w = self.pair_right[v];
                    if w == NIL {
                        found = self.dist[u];
                    } else if self.dist[w] == NIL && self.dist[u] < found {
                        self.dist[w] = self.dist[u] + 1;
                        self.queue.push(w);
                    }
                }
            }
            if found == NIL {
                return false;
            }
            for u in 0..self.n {
                if self.alive[u] && self.pair_left[u] == NIL && self.augment(u) {
                    self.matched += 1;
                    if self.matched.div_ceil(2) >= need {
                        return true;
                    }
                }
            }
        }
    }

    fn augment(&mut self, u: usize) -> bool {
        let g = self.g;
        for &v in g.neighbors(u) {
            if !self.alive[v] {
                continue;
            }
            let w = self.pair_right[v];
            if w == NIL || (self.dist[w] == self.dist[u] + 1 && self.augment(w)) {
                self.set_left(u, v);
                self.set_right(v, u);
                return true;
            }
        }
        self.dist[u] = NIL;
        false
    }

    /// Expands the current node. The state it leaves behind is undone by
    /// the caller.
    fn rec(&mut self) {
        self.nodes += 1;
        if self.budget.check().is_err() {
            self.timed_out = true;
            // This subtree stays open: its chosen-so-far size is a valid
            // subtree lower bound contribution.
            let lb = self.chosen.len();
            self.open_bound = Some(self.open_bound.map_or(lb, |b| b.min(lb)));
            return;
        }
        self.reduce();
        if self.chosen.len() >= self.best_cover.len() {
            return; // cannot improve
        }
        // Branch on the highest-degree alive vertex; edge-free residuals
        // close the node with a strictly better cover.
        let deg = &self.deg;
        let branch_vertex = match (0..self.n).filter(|&v| deg[v] > 0).max_by_key(|&v| deg[v]) {
            Some(v) => v,
            None => {
                self.best_cover = self.chosen.clone();
                return;
            }
        };
        if self.lp_prunes() {
            return;
        }
        let mark = self.mark();
        // Branch include-N(v) first: stronger when the branch vertex has
        // high degree, which the selection maximizes.
        let g = self.g;
        for &w in g.neighbors(branch_vertex) {
            if self.alive[w] {
                self.chosen.push(w);
                self.kill(w);
            }
        }
        self.kill(branch_vertex);
        self.rec();
        self.undo(mark);
        self.chosen.push(branch_vertex);
        self.kill(branch_vertex);
        self.rec();
    }
}

/// Computes a minimum vertex cover of `g`, component by component:
/// bipartite components are solved exactly in polynomial time
/// (Hopcroft–Karp + König), non-bipartite components go through
/// Nemhauser–Trotter kernelization and branch & bound with a warm-started
/// half-integral LP bound. The branch & bound checks `budget`'s
/// cancellation and deadline at every recursion step; within the budget
/// the result is proven optimal, and on exhaustion the best cover found so
/// far is returned with `optimal == false` and a valid global lower bound.
///
/// `seed` warm-starts the search from a known cover of `g` (need not be
/// minimal): it is restricted to each non-bipartite component — the
/// restriction of a cover to an induced subgraph covers that subgraph —
/// and adopted as the branch & bound incumbent when it beats the greedy
/// one. Seeding only ever tightens pruning; the returned cover is
/// identical to the unseeded one whenever both prove optimality.
pub fn minimum_vertex_cover(g: &UGraph, budget: &Budget, seed: Option<&[usize]>) -> VcResult {
    use crate::{two_color, ColorResult};
    let (comp, count) = g.components();
    let mut cover = Vec::new();
    let mut lower_bound = 0usize;
    let mut optimal = true;
    let mut nodes = 0u64;
    for c in 0..count {
        let keep: Vec<bool> = comp.iter().map(|&x| x == c).collect();
        let (sub, back) = g.induced_subgraph(&keep);
        if sub.num_edges() == 0 {
            continue;
        }
        match two_color(&sub) {
            ColorResult::Bipartite(colors) => {
                let local = bipartite_cover(&sub, &colors);
                lower_bound += local.len();
                cover.extend(local.into_iter().map(|v| back[v]));
            }
            ColorResult::OddCycle(_) => {
                let local_seed: Option<Vec<usize>> = seed.map(|seed| {
                    let mut inv = vec![NIL; g.num_vertices()];
                    for (k, &orig) in back.iter().enumerate() {
                        inv[orig] = k;
                    }
                    seed.iter()
                        .filter_map(|&v| (inv[v] != NIL).then_some(inv[v]))
                        .collect()
                });
                let local = vc_nonbipartite(&sub, budget, local_seed.as_deref());
                lower_bound += local.lower_bound;
                optimal &= local.optimal;
                nodes += local.nodes;
                cover.extend(local.cover.into_iter().map(|v| back[v]));
            }
        }
    }
    cover.sort_unstable();
    cover.dedup();
    VcResult {
        cover,
        optimal,
        lower_bound,
        nodes,
    }
}

/// Exact minimum vertex cover of a bipartite graph via König's theorem.
fn bipartite_cover(g: &UGraph, colors: &[u8]) -> Vec<usize> {
    // Left = color-0 vertices, right = color-1 vertices.
    let n = g.num_vertices();
    let mut left_ids = Vec::new();
    let mut right_ids = Vec::new();
    let mut pos = vec![usize::MAX; n];
    for v in 0..n {
        if colors[v] == 0 {
            pos[v] = left_ids.len();
            left_ids.push(v);
        } else {
            pos[v] = right_ids.len();
            right_ids.push(v);
        }
    }
    let mut adj = vec![Vec::new(); left_ids.len()];
    for &(u, v) in g.edges() {
        let (l, r) = if colors[u] == 0 { (u, v) } else { (v, u) };
        adj[pos[l]].push(pos[r]);
    }
    let m = hopcroft_karp(&adj, right_ids.len());
    let (cl, cr) = konig_cover(&adj, &m);
    let mut cover = Vec::new();
    for (i, &inc) in cl.iter().enumerate() {
        if inc {
            cover.push(left_ids[i]);
        }
    }
    for (i, &inc) in cr.iter().enumerate() {
        if inc {
            cover.push(right_ids[i]);
        }
    }
    cover
}

/// NT kernelization + branch & bound for one non-bipartite component.
fn vc_nonbipartite(g: &UGraph, budget: &Budget, seed: Option<&[usize]>) -> VcResult {
    let nt = nt_kernel(g);
    // Solve the kernel.
    let mut keep = vec![false; g.num_vertices()];
    for &v in &nt.kernel {
        keep[v] = true;
    }
    let (kernel_graph, back) = g.induced_subgraph(&keep);
    let mut incumbent = greedy_cover(&kernel_graph);
    if let Some(seed) = seed {
        // A cover of `g` restricted to the kernel covers the kernel graph.
        let mut inv = vec![NIL; g.num_vertices()];
        for (k, &orig) in back.iter().enumerate() {
            inv[orig] = k;
        }
        let restricted: Vec<usize> = seed
            .iter()
            .filter_map(|&v| (inv[v] != NIL).then_some(inv[v]))
            .collect();
        if restricted.len() < incumbent.len() {
            incumbent = restricted;
        }
    }
    let mut solver = Solver::new(&kernel_graph, incumbent, budget.clone());
    solver.rec();

    let mut cover: Vec<usize> = nt.forced_in.clone();
    cover.extend(solver.best_cover.iter().map(|&v| back[v]));
    cover.sort_unstable();
    cover.dedup();

    let kernel_lb = if solver.timed_out {
        // The optimum is min(best found, optima of subtrees left open); each
        // open subtree's optimum is at least its chosen-so-far size. The LP
        // bound is always valid, so take the stronger of the two.
        let kernel_lp = lp_lower_bound(&kernel_graph).ceil() as usize;
        let open = solver
            .open_bound
            .map_or(solver.best_cover.len(), |b| b.min(solver.best_cover.len()));
        kernel_lp.max(open.min(solver.best_cover.len()))
    } else {
        solver.best_cover.len()
    };
    VcResult {
        optimal: !solver.timed_out,
        lower_bound: nt.forced_in.len() + kernel_lb,
        cover,
        nodes: solver.nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// An unbudgeted, unseeded solve.
    fn mvc(g: &UGraph) -> VcResult {
        minimum_vertex_cover(g, &Budget::unlimited(), None)
    }

    fn is_cover(g: &UGraph, cover: &[usize]) -> bool {
        let set: std::collections::HashSet<usize> = cover.iter().copied().collect();
        g.edges()
            .iter()
            .all(|&(u, v)| set.contains(&u) || set.contains(&v))
    }

    fn brute_force_vc(g: &UGraph) -> usize {
        let n = g.num_vertices();
        assert!(n <= 20);
        (0..1usize << n)
            .filter(|&mask| {
                g.edges()
                    .iter()
                    .all(|&(u, v)| mask >> u & 1 == 1 || mask >> v & 1 == 1)
            })
            .map(|mask| mask.count_ones() as usize)
            .min()
            .unwrap_or(0)
    }

    #[test]
    fn classic_small_graphs() {
        // Triangle: 2; C5: 3; star K1,4: 1; P4: 2.
        let mut tri = UGraph::new(3);
        tri.add_edge(0, 1);
        tri.add_edge(1, 2);
        tri.add_edge(0, 2);
        let r = mvc(&tri);
        assert!(r.optimal && r.cover.len() == 2 && is_cover(&tri, &r.cover));
        assert_eq!(r.lower_bound, 2);

        let mut c5 = UGraph::new(5);
        for i in 0..5 {
            c5.add_edge(i, (i + 1) % 5);
        }
        let r = mvc(&c5);
        assert!(r.optimal && r.cover.len() == 3 && is_cover(&c5, &r.cover));

        let mut star = UGraph::new(5);
        for i in 1..5 {
            star.add_edge(0, i);
        }
        let r = mvc(&star);
        assert!(r.optimal && r.cover == vec![0]);

        let mut p4 = UGraph::new(4);
        p4.add_edge(0, 1);
        p4.add_edge(1, 2);
        p4.add_edge(2, 3);
        let r = mvc(&p4);
        assert!(r.optimal && r.cover.len() == 2 && is_cover(&p4, &r.cover));
    }

    #[test]
    fn lp_bound_is_valid_and_half_integral() {
        let mut tri = UGraph::new(3);
        tri.add_edge(0, 1);
        tri.add_edge(1, 2);
        tri.add_edge(0, 2);
        assert!((lp_lower_bound(&tri) - 1.5).abs() < 1e-9);
        // Bipartite C4: LP = integral optimum = 2.
        let mut c4 = UGraph::new(4);
        for i in 0..4 {
            c4.add_edge(i, (i + 1) % 4);
        }
        assert!((lp_lower_bound(&c4) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn nt_partition_is_consistent() {
        // The three NT classes partition the vertex set, and forced_in
        // covers every edge incident to an excluded vertex.
        let mut g = UGraph::new(6);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 2); // triangle
        g.add_edge(2, 3);
        g.add_edge(3, 4);
        g.add_edge(4, 5);
        let nt = nt_kernel(&g);
        let total = nt.forced_in.len() + nt.excluded.len() + nt.kernel.len();
        assert_eq!(total, 6);
        let forced: std::collections::HashSet<_> = nt.forced_in.iter().collect();
        for &x in &nt.excluded {
            for &w in g.neighbors(x) {
                assert!(
                    forced.contains(&w),
                    "excluded {x} has non-forced neighbor {w}"
                );
            }
        }
    }

    #[test]
    fn bipartite_components_solved_exactly() {
        // C4 (bipartite) plus a triangle: VC = 2 + 2 = 4.
        let mut g = UGraph::new(7);
        for i in 0..4 {
            g.add_edge(i, (i + 1) % 4);
        }
        g.add_edge(4, 5);
        g.add_edge(5, 6);
        g.add_edge(4, 6);
        let r = mvc(&g);
        assert!(r.optimal);
        assert_eq!(r.cover.len(), 4);
        assert_eq!(r.lower_bound, 4);
        assert!(is_cover(&g, &r.cover));
    }

    #[test]
    fn nt_kernel_keeps_odd_structures() {
        let mut tri = UGraph::new(3);
        tri.add_edge(0, 1);
        tri.add_edge(1, 2);
        tri.add_edge(0, 2);
        let nt = nt_kernel(&tri);
        assert_eq!(nt.kernel.len(), 3, "triangle is all ½");
    }

    #[test]
    fn greedy_is_a_cover() {
        let mut g = UGraph::new(8);
        let mut seed = 99u64;
        for u in 0..8usize {
            for v in (u + 1)..8 {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if seed >> 33 & 1 == 1 {
                    g.add_edge(u, v);
                }
            }
        }
        assert!(is_cover(&g, &greedy_cover(&g)));
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        let mut seed = 0xDEAD_BEEF_u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for trial in 0..15 {
            let n = 6 + (rng() % 7) as usize;
            let mut g = UGraph::new(n);
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng() % 100 < 35 {
                        g.add_edge(u, v);
                    }
                }
            }
            let expect = brute_force_vc(&g);
            let r = mvc(&g);
            assert!(r.optimal, "trial {trial} timed out");
            assert!(is_cover(&g, &r.cover), "trial {trial} invalid cover");
            assert_eq!(r.cover.len(), expect, "trial {trial} suboptimal");
            assert_eq!(r.lower_bound, expect, "trial {trial} bad bound");
        }
    }

    #[test]
    fn timeout_returns_valid_cover_and_bound() {
        // A dense-ish graph with zero budget: greedy fallback must hold.
        let mut g = UGraph::new(30);
        let mut seed = 7u64;
        for u in 0..30usize {
            for v in (u + 1)..30 {
                seed = seed
                    .wrapping_mul(2862933555777941757)
                    .wrapping_add(3037000493);
                if seed >> 60 & 1 == 1 {
                    g.add_edge(u, v);
                }
            }
        }
        let r = minimum_vertex_cover(&g, &Budget::unlimited().with_deadline(Duration::ZERO), None);
        assert!(is_cover(&g, &r.cover));
        assert!(r.lower_bound <= r.cover.len());
    }

    #[test]
    fn cancelled_budget_degrades_like_timeout() {
        let mut tri = UGraph::new(3);
        tri.add_edge(0, 1);
        tri.add_edge(1, 2);
        tri.add_edge(0, 2);
        let budget = Budget::unlimited();
        budget.cancel_handle().cancel();
        let r = minimum_vertex_cover(&tri, &budget, None);
        assert!(is_cover(&tri, &r.cover));
        assert!(!r.optimal, "a cancelled solve must not claim optimality");
        assert!(r.lower_bound <= r.cover.len());
    }

    #[test]
    fn expired_deadline_stops_the_search() {
        let mut tri = UGraph::new(3);
        tri.add_edge(0, 1);
        tri.add_edge(1, 2);
        tri.add_edge(0, 2);
        let budget = Budget::unlimited().with_deadline(Duration::ZERO);
        let r = minimum_vertex_cover(&tri, &budget, None);
        assert!(is_cover(&tri, &r.cover));
        assert!(!r.optimal);
    }

    #[test]
    fn empty_and_edgeless() {
        let g = UGraph::new(0);
        let r = mvc(&g);
        assert!(r.optimal && r.cover.is_empty() && r.lower_bound == 0);
        let g = UGraph::new(5);
        let r = mvc(&g);
        assert!(r.optimal && r.cover.is_empty());
    }
}
