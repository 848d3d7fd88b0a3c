//! γ-sweep and non-dominated design extraction (Figure 9 of the paper).

use std::sync::Arc;
use std::time::Duration;

use flowc_logic::Network;

use crate::session::{gamma_sweep_tasks, synthesize_batch, Session};

/// One point of the sweep: the γ that produced it and the design's shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// The γ value used.
    pub gamma: f64,
    /// Wordlines of the design.
    pub rows: usize,
    /// Bitlines of the design.
    pub cols: usize,
}

/// Sweeps γ over `steps` evenly spaced values in `[0, 1]` and returns every
/// produced design shape. Runs through a one-shot [`Session`], so the BDD
/// and graph are built once and every γ point reuses them; to share the
/// artifacts with other work too, use [`gamma_sweep_in`].
pub fn gamma_sweep(network: &Network, steps: usize, time_limit: Duration) -> Vec<SweepPoint> {
    gamma_sweep_in(&Session::default(), network, steps, time_limit)
}

/// [`gamma_sweep`] inside an existing [`Session`]: every γ point varies
/// only the labeling objective, so the session serves one BDD build and
/// one graph extraction to the whole sweep. The points are
/// [`gamma_sweep_tasks`], run one after another in its descending γ order
/// (γ = 1 closes fastest) so each point's optimum warm-starts the next
/// through the session's warm-hint registry; results are still returned
/// in ascending γ order.
pub fn gamma_sweep_in(
    session: &Session,
    network: &Network,
    steps: usize,
    time_limit: Duration,
) -> Vec<SweepPoint> {
    let steps = steps.max(2);
    let gammas: Vec<f64> = (0..steps).map(|i| i as f64 / (steps - 1) as f64).collect();
    let tasks = gamma_sweep_tasks(&Arc::new(network.clone()), &gammas, time_limit);
    let results = synthesize_batch(session, &tasks, 1);
    // The supervised pipeline only errs on internal bugs; a failed γ point
    // degrades the sweep's resolution, not the caller.
    let mut points: Vec<SweepPoint> = tasks
        .iter()
        .zip(results)
        .filter_map(|(task, result)| {
            let r = result.ok()?;
            Some(SweepPoint {
                gamma: task.config.strategy.gamma(),
                rows: r.stats.rows,
                cols: r.stats.cols,
            })
        })
        .collect();
    points.reverse();
    points
}

/// Sweeps the *aspect ratio* at (near-)minimal semiperimeter: starting from
/// the minimum odd cycle transversal, re-orients the bipartite components
/// toward a range of row targets via the boxed orientation DP. Together
/// with [`gamma_sweep`] this traces the rows-vs-columns frontier the
/// paper's Figure 9 plots (its cavlc frontier mixes shapes like (233, 233)
/// and (239, 220) — same mechanism: equal-S designs with different splits).
pub fn aspect_sweep(network: &Network, steps: usize, time_limit: Duration) -> Vec<SweepPoint> {
    use crate::balance::targeted_labeling;
    use crate::preprocess::BddGraph;

    let bdds = flowc_bdd::build_sbdd(network, None);
    let graph = BddGraph::from_bdds(&bdds);
    let budget = flowc_budget::Budget::unlimited().with_deadline(time_limit);
    let oct = flowc_graph::odd_cycle_transversal(&graph.graph, &budget);
    let vh: std::collections::HashSet<usize> = oct.transversal.into_iter().collect();
    // The feasible row range is bracketed by the balanced solution (rows ≈
    // S/2) and the all-rows extreme (rows ≈ S − #VH); sweep targets across
    // it in both directions.
    let balanced = crate::balance::balanced_labeling(&graph, &vh, true);
    let s = balanced.stats().semiperimeter;
    let steps = steps.max(2);
    let mut out = Vec::new();
    for i in 0..steps {
        let target = s * (i + 1) / (2 * steps); // from ~0 up to S/2
        for rows_target in [target, s - target] {
            let mut l = targeted_labeling(&graph, &vh, true, rows_target);
            l.enforce_alignment(&graph);
            let st = l.stats();
            out.push(SweepPoint {
                gamma: f64::NAN, // not produced by a γ value
                rows: st.rows,
                cols: st.cols,
            });
        }
    }
    out
}

/// The combined Figure 9 frontier: γ sweep plus aspect sweep, filtered to
/// the non-dominated set.
pub fn frontier(network: &Network, steps: usize, time_limit: Duration) -> Vec<SweepPoint> {
    let mut points = gamma_sweep(network, steps, time_limit);
    points.extend(aspect_sweep(network, steps, time_limit));
    non_dominated(&points)
}

/// Filters a sweep down to the non-dominated designs: a design is kept iff
/// no other design has both fewer (or equal) rows *and* fewer (or equal)
/// columns with at least one strict improvement. Duplicate shapes are
/// collapsed. Results are sorted by rows ascending.
pub fn non_dominated(points: &[SweepPoint]) -> Vec<SweepPoint> {
    let mut kept: Vec<SweepPoint> = Vec::new();
    for &p in points {
        if kept
            .iter()
            .any(|q| q.rows <= p.rows && q.cols <= p.cols && (q.rows < p.rows || q.cols < p.cols))
        {
            continue;
        }
        // Remove points now dominated by p, and duplicates of p's shape.
        kept.retain(|q| {
            !(p.rows <= q.rows && p.cols <= q.cols && (p.rows < q.rows || p.cols < q.cols))
                && !(q.rows == p.rows && q.cols == p.cols)
        });
        kept.push(p);
    }
    kept.sort_by_key(|p| (p.rows, p.cols));
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowc_logic::{GateKind, Network};

    #[test]
    fn non_domination_filter() {
        let pts = vec![
            SweepPoint {
                gamma: 0.0,
                rows: 5,
                cols: 5,
            },
            SweepPoint {
                gamma: 0.3,
                rows: 4,
                cols: 6,
            },
            SweepPoint {
                gamma: 0.5,
                rows: 6,
                cols: 6,
            }, // dominated by (5,5)
            SweepPoint {
                gamma: 0.7,
                rows: 4,
                cols: 6,
            }, // duplicate shape
            SweepPoint {
                gamma: 1.0,
                rows: 3,
                cols: 8,
            },
        ];
        let nd = non_dominated(&pts);
        let shapes: Vec<(usize, usize)> = nd.iter().map(|p| (p.rows, p.cols)).collect();
        assert_eq!(shapes, vec![(3, 8), (4, 6), (5, 5)]);
    }

    #[test]
    fn aspect_sweep_traces_same_s_shapes() {
        // int2float has many components, so the orientation DP reaches a
        // wide range of row splits at the same semiperimeter.
        let b = flowc_logic::bench_suite::by_name("int2float").unwrap();
        let n = b.network().unwrap();
        let pts = aspect_sweep(&n, 6, Duration::from_secs(10));
        assert!(!pts.is_empty());
        let s_values: std::collections::HashSet<usize> =
            pts.iter().map(|p| p.rows + p.cols).collect();
        // All points share (near-)minimal semiperimeter.
        assert!(
            s_values.len() <= 3,
            "aspect sweep changes shape, not S: {s_values:?}"
        );
        let distinct_shapes: std::collections::HashSet<(usize, usize)> =
            pts.iter().map(|p| (p.rows, p.cols)).collect();
        // int2float's graph stays nearly connected after the transversal,
        // so its aspect freedom is small — the paper's Figure 9 frontier
        // for int2float likewise has only 3 points.
        assert!(
            distinct_shapes.len() >= 2,
            "expected at least two aspect ratios, got {distinct_shapes:?}"
        );
    }

    #[test]
    fn combined_frontier_is_nonempty_and_consistent() {
        let b = flowc_logic::bench_suite::by_name("int2float").unwrap();
        let n = b.network().unwrap();
        let f = frontier(&n, 5, Duration::from_secs(10));
        assert!(f.len() >= 2, "frontier: {f:?}");
        for w in f.windows(2) {
            assert!(w[0].rows < w[1].rows && w[0].cols > w[1].cols);
        }
    }

    #[test]
    fn gamma_sweep_shares_one_bdd_build() {
        use crate::session::StageKind;
        let mut n = Network::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let ab = n.add_gate(GateKind::And, &[a, b], "ab").unwrap();
        let f = n.add_gate(GateKind::Or, &[ab, c], "f").unwrap();
        n.mark_output(f);
        let session = Session::default();
        let pts = gamma_sweep_in(&session, &n, 4, Duration::from_secs(5));
        assert_eq!(pts.len(), 4);
        let trace = session.trace();
        assert_eq!(trace.builds(StageKind::BddBuild), 1);
        assert_eq!(trace.hits(StageKind::BddBuild), 3);
        assert_eq!(trace.builds(StageKind::GraphExtract), 1);
    }

    #[test]
    fn sweep_produces_valid_frontier() {
        let mut n = Network::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let ab = n.add_gate(GateKind::And, &[a, b], "ab").unwrap();
        let f = n.add_gate(GateKind::Or, &[ab, c], "f").unwrap();
        n.mark_output(f);
        let pts = gamma_sweep(&n, 3, Duration::from_secs(5));
        assert_eq!(pts.len(), 3);
        let nd = non_dominated(&pts);
        assert!(!nd.is_empty());
        // The frontier is strictly decreasing in cols as rows increase
        // (otherwise one point would dominate the other).
        for w in nd.windows(2) {
            assert!(w[0].rows < w[1].rows);
            assert!(w[0].cols > w[1].cols);
        }
    }
}
