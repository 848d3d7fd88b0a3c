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
pub fn greedy_cover(g: &UGraph) -> Vec<usize> {
    let n = g.num_vertices();
    let mut deg: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
    let mut alive = vec![true; n];
    let mut cover = Vec::new();
    let mut remaining = g.num_edges();
    while remaining > 0 {
        let v = (0..n)
            .filter(|&v| alive[v])
            .max_by_key(|&v| deg[v])
            .expect("edges remain, so a vertex does too");
        if deg[v] == 0 {
            break;
        }
        cover.push(v);
        alive[v] = false;
        for &w in g.neighbors(v) {
            if alive[w] {
                deg[w] -= 1;
                remaining -= 1;
            }
        }
        deg[v] = 0;
    }
    cover.sort_unstable();
    cover
}

/// The half-integral vertex-cover LP bound: half the maximum-matching size
/// of the bipartite double graph, restricted to `alive` vertices (pass all
/// `true` for the whole graph).
fn lp_bound_masked(g: &UGraph, alive: &[bool]) -> f64 {
    let n = g.num_vertices();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(u, v) in g.edges() {
        if alive[u] && alive[v] {
            adj[u].push(v);
            adj[v].push(u);
        }
    }
    let m = hopcroft_karp(&adj, n);
    m.size as f64 / 2.0
}

/// The vertex-cover LP lower bound of the whole graph (half-integral, equal
/// to half the maximum matching of the bipartite double).
pub fn lp_lower_bound(g: &UGraph) -> f64 {
    lp_bound_masked(g, &vec![true; g.num_vertices()])
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

/// Branch & bound over one kernelized component. All bound evaluations run
/// over scratch buffers owned by the solver — the search allocates only when
/// branching, which keeps the per-node cost at "a few graph scans" instead
/// of "rebuild the adjacency structure".
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
    // Scratch, valid only within one bound evaluation.
    mate: Vec<usize>,
    pair_left: Vec<usize>,
    pair_right: Vec<usize>,
    dist: Vec<usize>,
    queue: std::collections::VecDeque<usize>,
}

impl<'g> Solver<'g> {
    fn new(g: &'g UGraph, best_cover: Vec<usize>, budget: Budget) -> Self {
        let n = g.num_vertices();
        Solver {
            g,
            n,
            best_cover,
            budget,
            timed_out: false,
            open_bound: None,
            nodes: 0,
            mate: vec![NIL; n],
            pair_left: vec![NIL; n],
            pair_right: vec![NIL; n],
            dist: vec![0; n],
            queue: std::collections::VecDeque::new(),
        }
    }

    /// Removes `v` from the residual graph, maintaining alive degrees.
    fn kill(&self, alive: &mut [bool], deg: &mut [usize], v: usize) {
        alive[v] = false;
        for &w in self.g.neighbors(v) {
            if alive[w] {
                deg[w] -= 1;
            }
        }
        deg[v] = 0;
    }

    /// Applies degree-0/degree-1 reductions plus the triangle rule (a
    /// degree-2 vertex with adjacent neighbors puts both neighbors into
    /// some minimum cover) until none fires.
    fn reduce(&self, alive: &mut [bool], deg: &mut [usize], chosen: &mut Vec<usize>) {
        loop {
            let mut changed = false;
            for v in 0..self.n {
                if !alive[v] {
                    continue;
                }
                match deg[v] {
                    0 => {
                        alive[v] = false;
                        changed = true;
                    }
                    1 => {
                        // Pendant vertex: take the neighbor.
                        let w = self
                            .g
                            .neighbors(v)
                            .iter()
                            .copied()
                            .find(|&w| alive[w])
                            .expect("degree-1 vertex has an alive neighbor");
                        chosen.push(w);
                        self.kill(alive, deg, w);
                        alive[v] = false;
                        changed = true;
                    }
                    2 => {
                        let mut nbrs = self.g.neighbors(v).iter().copied().filter(|&w| alive[w]);
                        let a = nbrs.next().expect("degree-2 vertex");
                        let b = nbrs.next().expect("degree-2 vertex");
                        if self.g.has_edge(a, b) {
                            chosen.push(a);
                            chosen.push(b);
                            self.kill(alive, deg, a);
                            self.kill(alive, deg, b);
                            alive[v] = false;
                            changed = true;
                        }
                    }
                    _ => {}
                }
            }
            if !changed {
                return;
            }
        }
    }

    /// A maximal matching of the residual graph. Its edges are disjoint and
    /// each needs a cover vertex, so the size is a valid (cheap, O(E))
    /// lower bound on the residual cover.
    fn greedy_matching_bound(&mut self, alive: &[bool]) -> usize {
        for v in 0..self.n {
            self.mate[v] = NIL;
        }
        let mut size = 0;
        for v in 0..self.n {
            if !alive[v] || self.mate[v] != NIL {
                continue;
            }
            for i in 0..self.g.neighbors(v).len() {
                let w = self.g.neighbors(v)[i];
                if alive[w] && self.mate[w] == NIL {
                    self.mate[v] = w;
                    self.mate[w] = v;
                    size += 1;
                    break;
                }
            }
        }
        size
    }

    /// The half-integral LP bound of the residual graph: half the maximum
    /// matching of its bipartite double, by Hopcroft–Karp over the solver's
    /// scratch buffers (the double is symmetric, so left = right = V).
    fn lp_bound(&mut self, alive: &[bool]) -> usize {
        for v in 0..self.n {
            self.pair_left[v] = NIL;
            self.pair_right[v] = NIL;
        }
        let mut size = 0usize;
        // Greedy seed cuts the number of augmentation phases.
        for u in 0..self.n {
            if !alive[u] {
                continue;
            }
            for i in 0..self.g.neighbors(u).len() {
                let v = self.g.neighbors(u)[i];
                if alive[v] && self.pair_right[v] == NIL {
                    self.pair_left[u] = v;
                    self.pair_right[v] = u;
                    size += 1;
                    break;
                }
            }
        }
        loop {
            // BFS layering from free alive vertices.
            self.queue.clear();
            let mut found = false;
            for (u, &live) in alive.iter().enumerate().take(self.n) {
                if live && self.pair_left[u] == NIL {
                    self.dist[u] = 0;
                    self.queue.push_back(u);
                } else {
                    self.dist[u] = NIL;
                }
            }
            while let Some(u) = self.queue.pop_front() {
                for i in 0..self.g.neighbors(u).len() {
                    let v = self.g.neighbors(u)[i];
                    if !alive[v] {
                        continue;
                    }
                    let w = self.pair_right[v];
                    if w == NIL {
                        found = true;
                    } else if self.dist[w] == NIL {
                        self.dist[w] = self.dist[u] + 1;
                        self.queue.push_back(w);
                    }
                }
            }
            if !found {
                break;
            }
            for u in 0..self.n {
                if alive[u] && self.pair_left[u] == NIL && self.augment(u, alive) {
                    size += 1;
                }
            }
        }
        size.div_ceil(2)
    }

    fn augment(&mut self, u: usize, alive: &[bool]) -> bool {
        for i in 0..self.g.neighbors(u).len() {
            let v = self.g.neighbors(u)[i];
            if !alive[v] {
                continue;
            }
            let w = self.pair_right[v];
            if w == NIL || (self.dist[w] == self.dist[u] + 1 && self.augment(w, alive)) {
                self.pair_left[u] = v;
                self.pair_right[v] = u;
                return true;
            }
        }
        self.dist[u] = NIL;
        false
    }

    fn rec(&mut self, mut alive: Vec<bool>, mut deg: Vec<usize>, mut chosen: Vec<usize>) {
        self.nodes += 1;
        if self.budget.check().is_err() {
            self.timed_out = true;
            // This subtree stays open: its chosen-so-far size is a valid
            // subtree lower bound contribution.
            let lb = chosen.len();
            self.open_bound = Some(self.open_bound.map_or(lb, |b| b.min(lb)));
            return;
        }
        self.reduce(&mut alive, &mut deg, &mut chosen);
        if chosen.len() >= self.best_cover.len() {
            return; // cannot improve
        }
        // Branch on the highest-degree alive vertex; edge-free residuals
        // close the node with a strictly better cover.
        let branch_vertex = match (0..self.n).filter(|&v| deg[v] > 0).max_by_key(|&v| deg[v]) {
            Some(v) => v,
            None => {
                self.best_cover = chosen;
                return;
            }
        };
        // Two-tier bound: the maximal-matching bound is nearly free and
        // prunes most nodes; survivors pay for the exact LP bound.
        let cheap = chosen.len() + self.greedy_matching_bound(&alive);
        if cheap >= self.best_cover.len() {
            return;
        }
        if chosen.len() + self.lp_bound(&alive) >= self.best_cover.len() {
            return;
        }
        // Branch include-N(v) first: stronger when the branch vertex has
        // high degree, which the selection maximizes.
        {
            let mut a = alive.clone();
            let mut d = deg.clone();
            let mut c = chosen.clone();
            for i in 0..self.g.neighbors(branch_vertex).len() {
                let w = self.g.neighbors(branch_vertex)[i];
                if a[w] {
                    c.push(w);
                    self.kill(&mut a, &mut d, w);
                }
            }
            a[branch_vertex] = false;
            self.rec(a, d, c);
        }
        {
            chosen.push(branch_vertex);
            self.kill(&mut alive, &mut deg, branch_vertex);
            self.rec(alive, deg, chosen);
        }
    }
}

/// Computes a minimum vertex cover of `g`, component by component:
/// bipartite components are solved exactly in polynomial time
/// (Hopcroft–Karp + König), non-bipartite components go through
/// Nemhauser–Trotter kernelization and branch & bound with greedy-matching
/// and half-integral LP bounds. The branch & bound checks `budget`'s
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
///
/// With `threads > 1`, non-bipartite components are solved on scoped
/// worker threads. The merge happens in component order, so the result does
/// not depend on the thread count.
pub fn minimum_vertex_cover(
    g: &UGraph,
    threads: usize,
    budget: &Budget,
    seed: Option<&[usize]>,
) -> VcResult {
    use crate::{two_color, ColorResult};
    let (comp, count) = g.components();
    let mut cover = Vec::new();
    let mut lower_bound = 0usize;
    let mut optimal = true;
    let mut nodes = 0u64;
    // König-solvable bipartite components are handled inline; branch &
    // bound components are collected for (optionally concurrent) solving.
    let mut hard: Vec<(UGraph, Vec<usize>, Option<Vec<usize>>)> = Vec::new();
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
                let local_seed = seed.map(|seed| {
                    let mut inv = vec![NIL; g.num_vertices()];
                    for (k, &orig) in back.iter().enumerate() {
                        inv[orig] = k;
                    }
                    seed.iter()
                        .filter_map(|&v| (inv[v] != NIL).then_some(inv[v]))
                        .collect()
                });
                hard.push((sub, back, local_seed));
            }
        }
    }
    let solved: Vec<VcResult> = if threads > 1 && hard.len() > 1 {
        std::thread::scope(|scope| {
            let handles: Vec<_> = hard
                .iter()
                .map(|(sub, _back, local_seed)| {
                    scope.spawn(move || vc_nonbipartite(sub, budget, local_seed.as_deref()))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("vertex-cover worker panicked"))
                .collect()
        })
    } else {
        hard.iter()
            .map(|(sub, _back, local_seed)| vc_nonbipartite(sub, budget, local_seed.as_deref()))
            .collect()
    };
    for ((_sub, back, _seed), local) in hard.iter().zip(solved) {
        lower_bound += local.lower_bound;
        optimal &= local.optimal;
        nodes += local.nodes;
        cover.extend(local.cover.into_iter().map(|v| back[v]));
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
    let alive = vec![true; kernel_graph.num_vertices()];
    let deg: Vec<usize> = (0..kernel_graph.num_vertices())
        .map(|v| kernel_graph.degree(v))
        .collect();
    solver.rec(alive, deg, Vec::new());

    let mut cover: Vec<usize> = nt.forced_in.clone();
    cover.extend(solver.best_cover.iter().map(|&v| back[v]));
    cover.sort_unstable();
    cover.dedup();

    let kernel_lp = lp_lower_bound(&kernel_graph).ceil() as usize;
    let kernel_lb = if solver.timed_out {
        // The optimum is min(best found, optima of subtrees left open); each
        // open subtree's optimum is at least its chosen-so-far size. The LP
        // bound is always valid, so take the stronger of the two.
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

    /// An unbudgeted, unseeded single-thread solve.
    fn mvc(g: &UGraph) -> VcResult {
        minimum_vertex_cover(g, 1, &Budget::unlimited(), None)
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
        let r = minimum_vertex_cover(
            &g,
            1,
            &Budget::unlimited().with_deadline(Duration::ZERO),
            None,
        );
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
        let r = minimum_vertex_cover(&tri, 1, &budget, None);
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
        let r = minimum_vertex_cover(&tri, 1, &budget, None);
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
