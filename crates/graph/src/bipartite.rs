//! Bipartiteness testing and 2-coloring with odd-cycle certificates.

use crate::UGraph;

/// Outcome of a 2-coloring attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColorResult {
    /// The graph is bipartite; `colors[v]` is 0 or 1. Isolated vertices get
    /// color 0. Each connected component is colored independently with its
    /// lowest-index vertex colored 0.
    Bipartite(Vec<u8>),
    /// The graph contains an odd cycle; the certificate lists its vertices
    /// in cycle order.
    OddCycle(Vec<usize>),
}

/// BFS 2-coloring. Returns the coloring, or an odd-cycle certificate when
/// the graph is not bipartite.
pub fn two_color(g: &UGraph) -> ColorResult {
    let n = g.num_vertices();
    let mut color = vec![u8::MAX; n];
    let mut parent = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        if color[start] != u8::MAX {
            continue;
        }
        color[start] = 0;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &w in g.neighbors(u) {
                if color[w] == u8::MAX {
                    color[w] = 1 - color[u];
                    parent[w] = u;
                    queue.push_back(w);
                } else if color[w] == color[u] {
                    return ColorResult::OddCycle(extract_cycle(&parent, u, w));
                }
            }
        }
    }
    ColorResult::Bipartite(color)
}

/// Reconstructs an odd cycle from the BFS tree given the conflict edge
/// `{u, w}` (both endpoints share a color).
pub(crate) fn extract_cycle(parent: &[usize], u: usize, w: usize) -> Vec<usize> {
    // Walk both vertices to the root, find the lowest common ancestor.
    let path_to_root = |mut v: usize| -> Vec<usize> {
        let mut path = vec![v];
        while parent[v] != usize::MAX {
            v = parent[v];
            path.push(v);
        }
        path
    };
    let pu = path_to_root(u);
    let pw = path_to_root(w);
    // Find LCA: deepest common vertex.
    let set: std::collections::HashSet<usize> = pu.iter().copied().collect();
    let lca = *pw.iter().find(|v| set.contains(v)).expect("same BFS tree");
    let mut cycle: Vec<usize> = pu.iter().take_while(|&&v| v != lca).copied().collect();
    cycle.push(lca);
    let tail: Vec<usize> = pw.iter().take_while(|&&v| v != lca).copied().collect();
    cycle.extend(tail.into_iter().rev());
    cycle
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_cycle_is_bipartite() {
        let mut g = UGraph::new(4);
        for i in 0..4 {
            g.add_edge(i, (i + 1) % 4);
        }
        match two_color(&g) {
            ColorResult::Bipartite(c) => {
                for &(u, v) in g.edges() {
                    assert_ne!(c[u], c[v]);
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn odd_cycle_certified() {
        let mut g = UGraph::new(5);
        for i in 0..5 {
            g.add_edge(i, (i + 1) % 5);
        }
        match two_color(&g) {
            ColorResult::OddCycle(cycle) => {
                assert!(cycle.len() % 2 == 1, "certificate must be odd: {cycle:?}");
                assert!(cycle.len() >= 3);
                // Consecutive vertices (cyclically) are adjacent.
                for i in 0..cycle.len() {
                    let u = cycle[i];
                    let v = cycle[(i + 1) % cycle.len()];
                    assert!(g.has_edge(u, v), "{u}-{v} missing in {cycle:?}");
                }
                // Vertices are distinct.
                let set: std::collections::HashSet<_> = cycle.iter().collect();
                assert_eq!(set.len(), cycle.len());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn triangle_with_tail() {
        let mut g = UGraph::new(6);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(3, 4);
        g.add_edge(4, 2); // triangle 2-3-4
        g.add_edge(0, 5);
        match two_color(&g) {
            ColorResult::OddCycle(cycle) => {
                assert_eq!(cycle.len(), 3);
                let mut c = cycle.clone();
                c.sort_unstable();
                assert_eq!(c, vec![2, 3, 4]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn disconnected_components_colored_independently() {
        let mut g = UGraph::new(5);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        match two_color(&g) {
            ColorResult::Bipartite(c) => {
                assert_eq!(c[0], 0);
                assert_eq!(c[2], 0, "each component starts at color 0");
                assert_eq!(c[4], 0, "isolated vertex gets color 0");
                assert_ne!(c[0], c[1]);
                assert_ne!(c[2], c[3]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_graph() {
        let g = UGraph::new(0);
        assert_eq!(two_color(&g), ColorResult::Bipartite(vec![]));
    }
}
