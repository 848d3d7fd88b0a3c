//! Depth-first search with Tarjan's lowpoints, and the biconnected blocks
//! it yields. Every odd cycle lies inside one block, which is what lets the
//! exact odd cycle transversal search one block at a time.

use crate::UGraph;

const NONE: usize = usize::MAX;

/// A depth-first forest of `g` minus some skipped vertices, with discovery
/// times and lowpoints. Each tree starts at the lowest-index vertex not yet
/// visited, and each vertex scans its neighbours in adjacency order.
///
/// A child `u` of `v` with `low[u] ≥ disc[v]` reaches nothing above `v`
/// from its subtree, so removing `v` cuts that subtree off (Tarjan's
/// articulation test).
#[derive(Debug, Clone)]
pub struct Lowpoint {
    /// The visited vertices in discovery order.
    pub order: Vec<usize>,
    /// DFS tree parent; `usize::MAX` for tree roots and skipped vertices.
    pub parent: Vec<usize>,
    /// Discovery time, the vertex's index in `order`; `usize::MAX` for
    /// skipped vertices.
    pub disc: Vec<usize>,
    /// The smallest discovery time a vertex's subtree reaches by one
    /// non-tree edge or the edge to the vertex's parent.
    pub low: Vec<usize>,
}

impl Lowpoint {
    /// Runs one iterative DFS over `g`, never entering a vertex for which
    /// `skip` holds.
    pub fn new(g: &UGraph, skip: impl Fn(usize) -> bool) -> Lowpoint {
        let n = g.num_vertices();
        let skipped: Vec<bool> = (0..n).map(skip).collect();
        let mut order = Vec::with_capacity(n);
        let mut parent = vec![NONE; n];
        let mut disc = vec![NONE; n];
        let mut low = vec![NONE; n];
        // (vertex, index of the next neighbour to scan)
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for root in 0..n {
            if skipped[root] || disc[root] != NONE {
                continue;
            }
            let mut discovered = Some(root);
            loop {
                if let Some(v) = discovered.take() {
                    disc[v] = order.len();
                    low[v] = order.len();
                    order.push(v);
                    stack.push((v, 0));
                }
                let Some(&mut (v, ref mut next)) = stack.last_mut() else {
                    break;
                };
                if let Some(&w) = g.neighbors(v).get(*next) {
                    *next += 1;
                    if skipped[w] {
                        continue;
                    }
                    if disc[w] == NONE {
                        parent[w] = v;
                        discovered = Some(w);
                    } else {
                        low[v] = low[v].min(disc[w]);
                    }
                } else {
                    stack.pop();
                    if let Some(&(u, _)) = stack.last() {
                        low[u] = low[u].min(low[v]);
                    }
                }
            }
        }
        Lowpoint {
            order,
            parent,
            disc,
            low,
        }
    }
}

/// A biconnected block: a maximal 2-connected subgraph, or a bridge.
/// Every edge lies in exactly one block; two blocks share at most one
/// vertex, a cut vertex.
#[derive(Debug, Clone, Default)]
pub(crate) struct Block {
    /// Ascending.
    pub vertices: Vec<usize>,
    /// In `g`'s edge order.
    pub edges: Vec<(usize, usize)>,
    /// Whether the block has an odd cycle.
    pub odd: bool,
}

/// The blocks of `g`, from one [`Lowpoint`] DFS. A tree edge `(p, v)`
/// opens a new block when `low[v] ≥ disc[p]` and otherwise lies in the
/// block of `p`'s own tree edge; every other edge lies in the block of its
/// later-discovered endpoint's tree edge. A block's tree edges span it, so
/// it is odd iff one of its edges joins two vertices of equal depth
/// parity. Isolated vertices lie in no block.
pub(crate) fn blocks(g: &UGraph) -> Vec<Block> {
    let dfs = Lowpoint::new(g, |_| false);
    let mut block_of = vec![NONE; g.num_vertices()];
    let mut parity = vec![false; g.num_vertices()];
    let mut blocks: Vec<Block> = Vec::new();
    for &v in &dfs.order {
        let p = dfs.parent[v];
        if p == NONE {
            continue;
        }
        parity[v] = !parity[p];
        if dfs.low[v] >= dfs.disc[p] {
            block_of[v] = blocks.len();
            blocks.push(Block {
                vertices: vec![p, v],
                ..Block::default()
            });
        } else {
            block_of[v] = block_of[p];
            blocks[block_of[p]].vertices.push(v);
        }
    }
    for &(u, v) in g.edges() {
        let later = if dfs.disc[u] > dfs.disc[v] { u } else { v };
        let block = &mut blocks[block_of[later]];
        block.edges.push((u, v));
        block.odd |= parity[u] == parity[v];
    }
    for block in &mut blocks {
        block.vertices.sort_unstable();
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(n: usize, edges: &[(usize, usize)]) -> UGraph {
        let mut g = UGraph::new(n);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    fn sorted(blocks: Vec<Block>) -> Vec<(Vec<usize>, usize, bool)> {
        let mut out: Vec<(Vec<usize>, usize, bool)> = blocks
            .into_iter()
            .map(|b| (b.vertices, b.edges.len(), b.odd))
            .collect();
        out.sort();
        out
    }

    #[test]
    fn bowtie_splits_at_the_shared_vertex() {
        // Triangles 0-1-2 and 2-3-4 share vertex 2; 4-5 is a bridge and 6
        // is isolated.
        let g = graph(7, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5)]);
        assert_eq!(
            sorted(blocks(&g)),
            vec![
                (vec![0, 1, 2], 3, true),
                (vec![2, 3, 4], 3, true),
                (vec![4, 5], 1, false)
            ]
        );
    }

    #[test]
    fn a_cycle_is_one_block_and_a_path_is_all_bridges() {
        let cycle = graph(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        assert_eq!(sorted(blocks(&cycle)), vec![(vec![0, 1, 2, 3, 4], 5, true)]);
        let square = graph(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(sorted(blocks(&square)), vec![(vec![0, 1, 2, 3], 4, false)]);
        let path = graph(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(
            sorted(blocks(&path)),
            vec![
                (vec![0, 1], 1, false),
                (vec![1, 2], 1, false),
                (vec![2, 3], 1, false)
            ]
        );
    }

    #[test]
    fn skipped_vertices_are_never_entered() {
        // Removing 1 from the path 0-1-2 leaves two one-vertex trees.
        let g = graph(3, &[(0, 1), (1, 2)]);
        let dfs = Lowpoint::new(&g, |v| v == 1);
        assert_eq!(dfs.order, vec![0, 2]);
        assert_eq!(dfs.parent, vec![NONE; 3]);
        assert_eq!(dfs.disc[1], NONE);
    }
}
