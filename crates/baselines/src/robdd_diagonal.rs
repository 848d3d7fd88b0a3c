//! The multi-output flow of the prior art (Figure 8(a) of the paper): one
//! ROBDD per output, each labelled and mapped independently, then merged
//! along the crossbar diagonal with a single shared 1-terminal wordline.
//! Table III compares this against COMPACT's single-SBDD flow.

use flowc_bdd::build_robdds;
use flowc_budget::Budget;
use flowc_compact::pipeline::{synthesize_bdds, CompactError, CompactResult, Config};
use flowc_logic::Network;
use flowc_xbar::Crossbar;

/// The merged per-output design and its provenance.
#[derive(Debug)]
pub struct DiagonalResult {
    /// The merged crossbar (blocks along the diagonal, shared input row).
    pub crossbar: Crossbar,
    /// Per-output synthesis results (block order = output order).
    pub per_output: Vec<CompactResult>,
    /// Node count of the ROBDDs merged at the shared 1-terminal — the
    /// "Nodes" column of the multiple-ROBDDs arm of Table III.
    pub merged_nodes: usize,
}

/// Runs COMPACT independently on each output's ROBDD and merges the blocks
/// diagonally, sharing one input (1-terminal) wordline. Every output's
/// ladder runs under `budget`: past the deadline the remaining outputs
/// degrade to the cheaper rungs, and a cancel stops between outputs.
///
/// # Errors
///
/// [`CompactError::Cancelled`] once `budget` is cancelled; otherwise
/// propagates [`CompactError`] from any per-output synthesis.
pub fn compact_per_output(
    network: &Network,
    config: &Config,
    budget: &Budget,
) -> Result<DiagonalResult, CompactError> {
    let singles = build_robdds(network, config.var_order.as_deref());
    let names: Vec<String> = network
        .outputs()
        .iter()
        .map(|&o| network.net_name(o).to_string())
        .collect();
    let mut per_output = Vec::with_capacity(singles.len());
    for (i, bdds) in singles.iter().enumerate() {
        if budget.is_cancelled() {
            return Err(CompactError::Cancelled);
        }
        per_output.push(synthesize_bdds(bdds, &names[i..=i], config, budget)?);
    }

    // Merge: all block rows except each block's input row are stacked, then
    // one shared input row at the bottom; columns are simply concatenated.
    let total_rows: usize = per_output
        .iter()
        .map(|r| r.crossbar.rows().saturating_sub(1))
        .sum::<usize>()
        + 1;
    let total_cols: usize = per_output.iter().map(|r| r.crossbar.cols()).sum();
    let num_inputs = network.num_inputs();
    let mut merged = Crossbar::new(total_rows, total_cols.max(1), num_inputs);
    let shared_input = total_rows - 1;
    merged.set_input_row(shared_input).expect("in range");

    let mut row_offset = 0usize;
    let mut col_offset = 0usize;
    for result in &per_output {
        let block = &result.crossbar;
        let block_input = block.input_row().expect("blocks always bind an input");
        // Map a block row to the merged crossbar.
        let map_row = |r: usize| -> usize {
            use std::cmp::Ordering;
            match r.cmp(&block_input) {
                Ordering::Equal => shared_input,
                Ordering::Less => row_offset + r,
                Ordering::Greater => row_offset + r - 1,
            }
        };
        for (r, c, a) in block.programmed_devices() {
            merged
                .set(map_row(r), col_offset + c, a)
                .expect("offsets in range");
        }
        for port in block.outputs() {
            merged
                .add_output(port.name.clone(), map_row(port.row))
                .expect("offsets in range");
        }
        row_offset += block.rows() - 1;
        col_offset += block.cols();
    }

    // Merged node count: per-output graph nodes, sharing one 1-terminal.
    let blocks_with_terminal = per_output
        .iter()
        .filter(|r| r.graph_nodes > 0)
        .count()
        .max(1);
    let merged_nodes =
        per_output.iter().map(|r| r.graph_nodes).sum::<usize>() - (blocks_with_terminal - 1);

    Ok(DiagonalResult {
        crossbar: merged,
        per_output,
        merged_nodes,
    })
}

/// Convenience: the prior-art staircase applied per output and merged
/// diagonally — the full reference-\[16\] multi-output flow of Table IV.
///
/// # Panics
///
/// Panics only on internal invariant violations.
pub fn staircase_per_output(network: &Network) -> DiagonalResult {
    use flowc_compact::preprocess::BddGraph;
    let singles = build_robdds(network, None);
    let names: Vec<String> = network
        .outputs()
        .iter()
        .map(|&o| network.net_name(o).to_string())
        .collect();
    // Build per-output staircase blocks wrapped in minimal CompactResult-free
    // bookkeeping: reuse the merge by constructing Crossbars directly.
    let mut blocks: Vec<(Crossbar, usize)> = Vec::new();
    for (i, bdds) in singles.iter().enumerate() {
        let graph = BddGraph::from_bdds(bdds);
        let xbar = crate::staircase::staircase_map(&graph, &names[i..=i]);
        blocks.push((xbar, graph.num_nodes()));
    }
    let total_rows: usize = blocks
        .iter()
        .map(|(b, _)| b.rows().saturating_sub(1))
        .sum::<usize>()
        + 1;
    let total_cols: usize = blocks.iter().map(|(b, _)| b.cols()).sum();
    let mut merged = Crossbar::new(total_rows, total_cols.max(1), network.num_inputs());
    let shared_input = total_rows - 1;
    merged.set_input_row(shared_input).expect("in range");
    let mut row_offset = 0usize;
    let mut col_offset = 0usize;
    for (block, _) in &blocks {
        let block_input = block.input_row().expect("bound");
        let map_row = |r: usize| -> usize {
            use std::cmp::Ordering;
            match r.cmp(&block_input) {
                Ordering::Equal => shared_input,
                Ordering::Less => row_offset + r,
                Ordering::Greater => row_offset + r - 1,
            }
        };
        for (r, c, a) in block.programmed_devices() {
            merged
                .set(map_row(r), col_offset + c, a)
                .expect("offsets in range");
        }
        for port in block.outputs() {
            merged
                .add_output(port.name.clone(), map_row(port.row))
                .expect("offsets in range");
        }
        row_offset += block.rows() - 1;
        col_offset += block.cols();
    }
    let with_terminal = blocks.iter().filter(|(_, n)| *n > 0).count().max(1);
    let merged_nodes = blocks.iter().map(|(_, n)| *n).sum::<usize>() - (with_terminal - 1);
    DiagonalResult {
        crossbar: merged,
        per_output: Vec::new(),
        merged_nodes,
    }
}

/// A device-On bridge between every block's terminal and the shared input
/// row is unnecessary: the rows are literally the same wire after mapping.
#[cfg(test)]
mod tests {
    use super::*;
    use flowc_logic::bench_suite;
    use flowc_logic::{GateKind, Network};
    use flowc_xbar::metrics::CrossbarMetrics;
    use flowc_xbar::verify::verify_functional;

    fn two_output_network() -> Network {
        let mut n = Network::new("two");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let ab = n.add_gate(GateKind::And, &[a, b], "ab").unwrap();
        let f = n.add_gate(GateKind::Or, &[ab, c], "f").unwrap();
        let g = n.add_gate(GateKind::Xor, &[ab, c], "g").unwrap();
        n.mark_output(f);
        n.mark_output(g);
        n
    }

    #[test]
    fn merged_compact_design_is_valid() {
        let n = two_output_network();
        let r = compact_per_output(&n, &Config::default(), &Budget::unlimited()).unwrap();
        let report = verify_functional(&r.crossbar, &n, 64).unwrap();
        assert!(report.is_valid(), "mismatches: {:?}", report.mismatches);
        assert_eq!(r.per_output.len(), 2);
    }

    #[test]
    fn merged_staircase_design_is_valid() {
        let n = two_output_network();
        let r = staircase_per_output(&n);
        let report = verify_functional(&r.crossbar, &n, 64).unwrap();
        assert!(report.is_valid(), "mismatches: {:?}", report.mismatches);
    }

    #[test]
    fn sbdd_flow_beats_per_output_flow() {
        // Table III's headline: the shared SBDD yields fewer nodes and a
        // smaller semiperimeter than merged per-output ROBDDs.
        let b = bench_suite::by_name("dec").unwrap();
        let n = b.network().unwrap();
        let shared = flowc_compact::synthesize(&n, &Config::default()).unwrap();
        let separate = compact_per_output(&n, &Config::default(), &Budget::unlimited()).unwrap();
        assert!(shared.graph_nodes <= separate.merged_nodes);
        let sep_metrics = CrossbarMetrics::of(&separate.crossbar);
        assert!(
            shared.metrics.semiperimeter <= sep_metrics.semiperimeter,
            "{} vs {}",
            shared.metrics.semiperimeter,
            sep_metrics.semiperimeter
        );
    }

    #[test]
    fn merged_rows_share_one_input() {
        let n = two_output_network();
        let r = compact_per_output(&n, &Config::default(), &Budget::unlimited()).unwrap();
        let expect_rows: usize = r
            .per_output
            .iter()
            .map(|b| b.crossbar.rows() - 1)
            .sum::<usize>()
            + 1;
        assert_eq!(r.crossbar.rows(), expect_rows);
        assert_eq!(r.crossbar.input_row(), Some(expect_rows - 1));
    }

    #[test]
    fn a_deadline_bounds_the_per_output_flow() {
        use crate::backend::{BackendError, DiagonalBackend, MappingBackend, SynthesisCtx};
        use flowc_budget::BudgetExceeded;
        use std::time::{Duration, Instant};

        // Unbudgeted, int2float's per-output flow runs for tens of
        // seconds: two outputs' root LPs alone take 2 s and 11 s.
        let n = bench_suite::by_name("int2float")
            .unwrap()
            .network()
            .unwrap();
        let deadline = || Budget::unlimited().with_deadline(Duration::from_millis(50));

        let started = Instant::now();
        let ctx = SynthesisCtx::new(Config::default()).with_budget(deadline());
        match DiagonalBackend.synthesize(&n, &ctx) {
            Ok(_) | Err(BackendError::Budget(BudgetExceeded::Deadline)) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
        let took = started.elapsed();
        assert!(took < Duration::from_secs(2), "backend took {took:?}");

        // Past the deadline the remaining outputs degrade rather than fail.
        let r = compact_per_output(&n, &Config::default(), &deadline()).unwrap();
        assert!(r
            .per_output
            .iter()
            .any(|o| o.degradation.as_ref().is_some_and(|d| d.degraded)));
        let report = verify_functional(&r.crossbar, &n, 64).unwrap();
        assert!(report.is_valid(), "mismatches: {:?}", report.mismatches);
    }

    #[test]
    fn a_cancel_stops_the_per_output_flow() {
        let n = two_output_network();
        let budget = Budget::unlimited();
        budget.cancel_handle().cancel();
        assert!(matches!(
            compact_per_output(&n, &Config::default(), &budget),
            Err(CompactError::Cancelled)
        ));
    }
}
