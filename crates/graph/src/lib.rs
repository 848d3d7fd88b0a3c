//! Undirected graph algorithms for the COMPACT reproduction: bipartiteness
//! and 2-coloring, connected components, the Cartesian product with `K₂`,
//! maximum bipartite matching (Hopcroft–Karp), exact minimum vertex cover
//! with LP/Nemhauser–Trotter kernelization, depth-first lowpoints and
//! biconnected blocks, and the odd cycle transversal via the paper's
//! Lemma 1 (`OCT(G) = k  ⇔  VC(G □ K₂) = n + k`), searched one block at a
//! time.
//!
//! ```
//! use flowc_budget::Budget;
//! use flowc_graph::{UGraph, odd_cycle_transversal};
//!
//! // A triangle needs one vertex removed to become bipartite.
//! let mut g = UGraph::new(3);
//! g.add_edge(0, 1);
//! g.add_edge(1, 2);
//! g.add_edge(0, 2);
//! let oct = odd_cycle_transversal(&g, &Budget::unlimited());
//! assert_eq!(oct.transversal.len(), 1);
//! assert!(oct.optimal);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bipartite;
mod blocks;
mod matching;
mod oct;
mod product;
mod ugraph;
mod vertex_cover;

pub use bipartite::{two_color, ColorResult};
pub use blocks::Lowpoint;
pub use matching::{hopcroft_karp, konig_cover, BipartiteMatching};
pub use oct::{oct_heuristic, odd_cycle_transversal, OctResult};
pub use product::cartesian_with_k2;
pub use ugraph::UGraph;
pub use vertex_cover::{
    greedy_cover, lp_lower_bound, minimum_vertex_cover, nt_kernel, NtKernel, VcResult,
};
