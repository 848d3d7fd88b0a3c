//! Synthesis under explicit row/column limits — the Section III note:
//! "it is trivial to modify our problem formulation and COMPACT to handle
//! specified constraints on the rows and columns. For such problem
//! formulations, COMPACT would generate a valid design D or return that the
//! specified design constraints are infeasible."

use std::collections::HashSet;
use std::fmt;
use std::time::Instant;

use flowc_bdd::build_sbdd;
use flowc_budget::Budget;
use flowc_graph::odd_cycle_transversal;
use flowc_logic::Network;
use flowc_xbar::metrics::CrossbarMetrics;

use crate::balance::boxed_labeling;
use crate::labeling::{Labeling, VhLabel};
use crate::mapping::{map_to_crossbar, MapError};
use crate::pipeline::CompactResult;
use crate::preprocess::BddGraph;

/// A target crossbar bounding box.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeLimits {
    /// Maximum wordlines.
    pub max_rows: usize,
    /// Maximum bitlines.
    pub max_cols: usize,
}

/// Outcome of a constrained synthesis attempt that produced no design.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConstraintError {
    /// No design can exist: a proven lower bound exceeds the limits.
    Infeasible {
        /// Proven lower bound on the semiperimeter of any valid design.
        semiperimeter_lower_bound: usize,
        /// The limits that were requested.
        limits: SizeLimits,
    },
    /// The search budget expired without finding a fitting design (one may
    /// still exist); the closest shape found is reported.
    NotFound {
        /// Rows of the best (least-violating) design found.
        best_rows: usize,
        /// Columns of the best design found.
        best_cols: usize,
    },
    /// Mapping the fitting labeling failed — indicates a solver bug, not
    /// an input condition.
    Map(MapError),
}

impl fmt::Display for ConstraintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstraintError::Infeasible {
                semiperimeter_lower_bound,
                limits,
            } => write!(
                f,
                "infeasible: any valid design needs a semiperimeter of at least {}, \
                 but the limits allow only {} + {} = {}",
                semiperimeter_lower_bound,
                limits.max_rows,
                limits.max_cols,
                limits.max_rows + limits.max_cols
            ),
            ConstraintError::NotFound {
                best_rows,
                best_cols,
            } => write!(
                f,
                "no fitting design found within the budget (closest: {best_rows} × {best_cols})"
            ),
            ConstraintError::Map(e) => write!(f, "mapping rejected labeling: {e}"),
        }
    }
}

impl std::error::Error for ConstraintError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConstraintError::Map(e) => Some(e),
            ConstraintError::Infeasible { .. } | ConstraintError::NotFound { .. } => None,
        }
    }
}

/// Synthesizes a crossbar for `network` whose shape fits within `limits`,
/// or explains why it cannot (proven infeasibility vs budget exhaustion).
/// Alignment constraints are always enforced — ports need wordlines. The
/// transversal search may spend half of the time `budget` has left, and
/// the fitting hill climb checks `budget` before every move, so a cancel
/// stops the search.
///
/// # Errors
///
/// [`ConstraintError::Infeasible`] when a proven lower bound exceeds the
/// box; [`ConstraintError::NotFound`] when the budget expires first.
pub fn synthesize_constrained(
    network: &Network,
    limits: SizeLimits,
    budget: &Budget,
) -> Result<CompactResult, ConstraintError> {
    let start = Instant::now();
    let bdds = build_sbdd(network, None);
    let graph = BddGraph::from_bdds(&bdds);
    let names: Vec<String> = network
        .outputs()
        .iter()
        .map(|&o| network.net_name(o).to_string())
        .collect();

    // Port rows are all distinct wordlines: a quick row-count lower bound.
    let mut port_rows: HashSet<usize> = graph.roots.iter().flatten().copied().collect();
    if let Some(t) = graph.terminal {
        port_rows.insert(t);
    }
    let const0 = graph.roots.iter().filter(|r| r.is_none()).count();
    let min_rows = port_rows.len() + const0;
    if min_rows > limits.max_rows {
        return Err(ConstraintError::Infeasible {
            semiperimeter_lower_bound: min_rows + usize::from(graph.num_edges() > 0),
            limits,
        });
    }

    // Semiperimeter lower bound: S ≥ n + OCT(G) (plus the constant-0 rows).
    let oct = odd_cycle_transversal(&graph.graph, &budget.share(0.5));
    let s_lower = graph.num_nodes() + oct.lower_bound + const0;
    if s_lower > limits.max_rows + limits.max_cols {
        return Err(ConstraintError::Infeasible {
            semiperimeter_lower_bound: s_lower,
            limits,
        });
    }

    // Candidate transversal; box-fit the orientation, then hill climb with
    // VH additions while the fit improves.
    let mut vh: HashSet<usize> = oct.transversal.iter().copied().collect();
    let fits = |l: &Labeling| {
        let s = l.stats();
        s.rows + const0 <= limits.max_rows && s.cols <= limits.max_cols
    };
    let violation = |l: &Labeling| {
        let s = l.stats();
        (s.rows + const0).saturating_sub(limits.max_rows) + s.cols.saturating_sub(limits.max_cols)
    };
    let mut best = boxed_labeling(
        &graph,
        &vh,
        true,
        limits.max_rows.saturating_sub(const0),
        limits.max_cols,
    );
    best.enforce_alignment(&graph);
    'outer: while !fits(&best) && budget.check().is_ok() {
        let mut improved = false;
        let mut candidates: Vec<usize> = (0..graph.num_nodes())
            .filter(|v| !vh.contains(v) && !matches!(best.label(*v), VhLabel::Vh))
            .collect();
        candidates.sort_by_key(|&v| std::cmp::Reverse(graph.graph.degree(v)));
        for v in candidates {
            if budget.check().is_err() {
                break 'outer;
            }
            vh.insert(v);
            let mut cand = boxed_labeling(
                &graph,
                &vh,
                true,
                limits.max_rows.saturating_sub(const0),
                limits.max_cols,
            );
            cand.enforce_alignment(&graph);
            if violation(&cand) < violation(&best) {
                best = cand;
                improved = true;
                if fits(&best) {
                    break 'outer;
                }
            } else {
                vh.remove(&v);
            }
        }
        if !improved {
            break;
        }
    }

    if !fits(&best) {
        let s = best.stats();
        return Err(ConstraintError::NotFound {
            best_rows: s.rows + const0,
            best_cols: s.cols,
        });
    }
    let stats = best.stats();
    let crossbar = map_to_crossbar(&graph, &best, &names).map_err(ConstraintError::Map)?;
    let metrics = CrossbarMetrics::of(&crossbar);
    Ok(CompactResult {
        crossbar,
        stats,
        metrics,
        graph_nodes: graph.num_nodes(),
        graph_edges: graph.num_edges(),
        labeling: best,
        optimal: false,
        relative_gap: 1.0,
        trace: None,
        synthesis_time: start.elapsed(),
        degradation: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowc_logic::{bench_suite, GateKind, Network};
    use flowc_xbar::verify::verify_functional;
    use std::time::Duration;

    /// A budget that expires `secs` seconds from now.
    fn secs(secs: u64) -> Budget {
        Budget::unlimited().with_deadline(Duration::from_secs(secs))
    }

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
    fn generous_limits_succeed() {
        let n = fig2_network();
        let r = synthesize_constrained(
            &n,
            SizeLimits {
                max_rows: 10,
                max_cols: 10,
            },
            &secs(5),
        )
        .unwrap();
        assert!(r.crossbar.rows() <= 10 && r.crossbar.cols() <= 10);
        assert!(verify_functional(&r.crossbar, &n, 64).unwrap().is_valid());
    }

    #[test]
    fn provably_impossible_limits_are_infeasible() {
        let n = fig2_network();
        // The Fig. 2 graph needs S ≥ n + 1 = 5.
        let err = synthesize_constrained(
            &n,
            SizeLimits {
                max_rows: 2,
                max_cols: 2,
            },
            &secs(5),
        )
        .unwrap_err();
        match err {
            ConstraintError::Infeasible {
                semiperimeter_lower_bound,
                ..
            } => assert!(semiperimeter_lower_bound >= 5),
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn tight_but_feasible_box() {
        let n = fig2_network();
        // Minimum is S = 5 with shapes like 3×2; ask for exactly that.
        let r = synthesize_constrained(
            &n,
            SizeLimits {
                max_rows: 3,
                max_cols: 2,
            },
            &secs(5),
        )
        .unwrap();
        assert!(r.crossbar.rows() <= 3 && r.crossbar.cols() <= 2);
        assert!(verify_functional(&r.crossbar, &n, 64).unwrap().is_valid());
    }

    #[test]
    fn skewed_boxes_force_reorientation() {
        // int2float normally balances near-square (~66×66 at S≈132); ask
        // for a wide-flat box and check the orientation DP adapts.
        let b = bench_suite::by_name("int2float").unwrap();
        let n = b.network().unwrap();
        let unconstrained =
            crate::pipeline::synthesize(&n, &crate::pipeline::Config::default()).unwrap();
        let budget = unconstrained.stats.semiperimeter + 20;
        let r = synthesize_constrained(
            &n,
            SizeLimits {
                max_rows: budget * 3 / 4,
                max_cols: budget / 2,
            },
            &secs(10),
        )
        .unwrap();
        assert!(r.crossbar.rows() <= budget * 3 / 4);
        assert!(r.crossbar.cols() <= budget / 2);
        assert!(verify_functional(&r.crossbar, &n, 200).unwrap().is_valid());
    }

    #[test]
    fn a_cancelled_budget_stops_the_search_at_once() {
        // int2float in a box well below its unconstrained shape: the search
        // would climb for its whole budget, but a cancel ends it at once.
        let n = bench_suite::by_name("int2float")
            .unwrap()
            .network()
            .unwrap();
        let budget = Budget::unlimited();
        budget.cancel_handle().cancel();
        let start = Instant::now();
        let r = synthesize_constrained(
            &n,
            SizeLimits {
                max_rows: 60,
                max_cols: 40,
            },
            &budget,
        );
        let elapsed = start.elapsed();
        assert!(elapsed < Duration::from_millis(100), "took {elapsed:?}");
        assert!(!matches!(r, Err(ConstraintError::Map(_))), "{r:?}");
    }

    #[test]
    fn too_few_rows_for_ports_is_infeasible() {
        // dec has 256 outputs; they all need wordlines.
        let b = bench_suite::by_name("dec").unwrap();
        let n = b.network().unwrap();
        let err = synthesize_constrained(
            &n,
            SizeLimits {
                max_rows: 100,
                max_cols: 1000,
            },
            &secs(5),
        )
        .unwrap_err();
        assert!(matches!(err, ConstraintError::Infeasible { .. }));
    }

    #[test]
    fn error_messages_are_informative() {
        let e = ConstraintError::Infeasible {
            semiperimeter_lower_bound: 10,
            limits: SizeLimits {
                max_rows: 3,
                max_cols: 4,
            },
        };
        let text = e.to_string();
        assert!(text.contains("10") && text.contains("7"));
        let e = ConstraintError::NotFound {
            best_rows: 9,
            best_cols: 8,
        };
        assert!(e.to_string().contains("9 × 8"));
    }
}
