//! CONTRA-style area-constrained partitioned mapping: when a network's
//! monolithic design exceeds a fixed R×C crossbar, split it into
//! per-output cone groups that each fit the tile, map every group with an
//! inner [`MappingBackend`], and emit a [`TileSchedule`] — the sequence
//! of tile programs plus the inter-tile input re-deliveries the split
//! costs. This is the Section III "specified constraints on the rows and
//! columns" note turned into a scale unlock: the single-array size
//! ceiling disappears, at the price of `transfer_ops` accounted in the
//! aggregate [`CrossbarMetrics`].
//!
//! Packing is greedy in output order: keep adding the next output's cone
//! to the current group while the merged sub-network still fits the
//! tile; close the group on the first miss. Each fit first tries the
//! inner backend unconstrained (session-cached, cheap), and only falls
//! back to [`synthesize_constrained`] — which actively squeezes the
//! labeling into the box — when the inner backend is COMPACT and the
//! free-form design spills over.

use std::collections::HashSet;
use std::time::Duration;

use flowc_compact::{synthesize_constrained, CompactError, ConstraintError, SizeLimits};
use flowc_logic::{NetId, Network};
use flowc_xbar::metrics::CrossbarMetrics;
use flowc_xbar::{Crossbar, XbarError};

use crate::backend::{
    Backend, BackendError, DesignArtifact, MappedDesign, MappingBackend, SynthesisCtx,
    DEFAULT_PER_TILE_TIME,
};

/// One scheduled tile: a crossbar over the cone group's own inputs, plus
/// the wiring back to the global network.
#[derive(Debug, Clone)]
pub struct Tile {
    /// The tile's crossbar (inputs are the cone's inputs, in
    /// `input_map` order).
    pub crossbar: Crossbar,
    /// For each tile input, the global primary-input index it reads.
    pub input_map: Vec<usize>,
    /// For each tile output, the global output position it drives.
    pub output_slots: Vec<usize>,
    /// The tile's own cost figures.
    pub metrics: CrossbarMetrics,
}

/// An ordered tile program computing the full network on one R×C array.
#[derive(Debug, Clone)]
pub struct TileSchedule {
    /// The tiles, in execution order.
    pub tiles: Vec<Tile>,
    /// The box every tile fits in.
    pub limits: SizeLimits,
    /// Global primary-input count.
    pub num_inputs: usize,
    /// Global output count.
    pub num_outputs: usize,
}

impl TileSchedule {
    /// Evaluates the schedule on 64 assignments at once, in the lane
    /// layout of [`Crossbar::evaluate64`]: gathers each tile's input words
    /// through `input_map`, runs the tile, and scatters its output words by
    /// `output_slots` into global output order.
    ///
    /// # Errors
    ///
    /// [`XbarError::InputLen`] when `input_words` has the wrong length, and
    /// any error a tile's crossbar returns.
    pub fn evaluate64(&self, input_words: &[u64]) -> flowc_xbar::Result<Vec<u64>> {
        if input_words.len() != self.num_inputs {
            return Err(XbarError::InputLen {
                got: input_words.len(),
                expected: self.num_inputs,
            });
        }
        let mut out = vec![0u64; self.num_outputs];
        for tile in &self.tiles {
            let local: Vec<u64> = tile.input_map.iter().map(|&i| input_words[i]).collect();
            let words = tile.crossbar.evaluate64(&local)?;
            for (&slot, &w) in tile.output_slots.iter().zip(&words) {
                out[slot] = w;
            }
        }
        Ok(out)
    }

    /// Inter-tile transfer operations: every primary input must be
    /// delivered to each tile that reads it, so any input shared by `k`
    /// tiles costs `k − 1` re-deliveries beyond the monolithic design's
    /// single load.
    pub fn transfer_ops(&self) -> usize {
        let deliveries: usize = self.tiles.iter().map(|t| t.input_map.len()).sum();
        let distinct: HashSet<usize> = self
            .tiles
            .iter()
            .flat_map(|t| t.input_map.iter().copied())
            .collect();
        deliveries - distinct.len()
    }

    /// Aggregate cost figures: the array shape is the max over tiles (one
    /// physical array is reprogrammed per tile), device counts and delays
    /// sum, and the transfer operations extend the delay (each
    /// re-delivery is a write step between tile evaluations).
    pub fn metrics(&self) -> CrossbarMetrics {
        let rows = self.tiles.iter().map(|t| t.metrics.rows).max().unwrap_or(0);
        let cols = self.tiles.iter().map(|t| t.metrics.cols).max().unwrap_or(0);
        let transfer_ops = self.transfer_ops();
        CrossbarMetrics {
            rows,
            cols,
            semiperimeter: rows + cols,
            max_dimension: rows.max(cols),
            area: rows * cols,
            active_devices: self.tiles.iter().map(|t| t.metrics.active_devices).sum(),
            bridge_devices: self.tiles.iter().map(|t| t.metrics.bridge_devices).sum(),
            delay_steps: self
                .tiles
                .iter()
                .map(|t| t.metrics.delay_steps)
                .sum::<usize>()
                + transfer_ops,
            tiles: self.tiles.len(),
            transfer_ops,
        }
    }
}

/// A sub-network induced by a set of outputs, with its global wiring.
struct Cone {
    network: Network,
    input_map: Vec<usize>,
    output_slots: Vec<usize>,
}

/// Extracts the cone-of-influence sub-network of the outputs at the
/// given positions, preserving names and the (topological) gate order.
fn extract_cone(network: &Network, outputs: &[usize]) -> Cone {
    let mut needed = vec![false; network.num_nets()];
    let mut stack: Vec<NetId> = outputs.iter().map(|&i| network.outputs()[i]).collect();
    while let Some(id) = stack.pop() {
        if needed[id.index()] {
            continue;
        }
        needed[id.index()] = true;
        if let Some(gate) = network.driver_gate(id) {
            for &input in &gate.inputs {
                if !needed[input.index()] {
                    stack.push(input);
                }
            }
        }
    }
    let mut sub = Network::new(format!("{}#tile", network.name()));
    let mut map: Vec<Option<NetId>> = vec![None; network.num_nets()];
    let mut input_map = Vec::new();
    for (gi, &net) in network.inputs().iter().enumerate() {
        if needed[net.index()] {
            map[net.index()] = Some(sub.add_input(network.net_name(net)));
            input_map.push(gi);
        }
    }
    for gate in network.gates() {
        if !needed[gate.output.index()] {
            continue;
        }
        let ins: Vec<NetId> = gate
            .inputs
            .iter()
            .map(|&i| map[i.index()].expect("cone closure includes every fan-in"))
            .collect();
        let out = sub
            .add_gate(gate.kind, &ins, network.net_name(gate.output))
            .expect("arity is preserved from a valid network");
        map[gate.output.index()] = Some(out);
    }
    for &oi in outputs {
        let net = network.outputs()[oi];
        sub.mark_output(map[net.index()].expect("outputs are in the cone"));
    }
    Cone {
        network: sub,
        input_map,
        output_slots: outputs.to_vec(),
    }
}

/// How one fit attempt ended.
enum Fit {
    /// The group fits; the tile design is ready.
    Fits(Box<MappedDesign>),
    /// The free-form design spilled over and no constrained route found
    /// a fit, but nothing proves one impossible.
    TooBig { rows: usize, cols: usize },
    /// A proven lower bound exceeds the tile.
    Impossible(ConstraintError),
}

/// The CONTRA-style area-constrained partitioned backend.
#[derive(Debug, Clone)]
pub struct PartitionedBackend {
    /// The tile bounding box every piece must fit.
    pub tile: SizeLimits,
    /// The backend mapping each tile (must be
    /// [`Capabilities::tileable`](crate::backend::Capabilities)).
    pub inner: Box<Backend>,
    /// Wall-clock slice for each constrained fitting attempt, capping the
    /// job's budget.
    pub per_tile_time: Duration,
}

impl Default for PartitionedBackend {
    fn default() -> Self {
        PartitionedBackend {
            tile: SizeLimits {
                max_rows: 64,
                max_cols: 64,
            },
            inner: Box::new(Backend::default()),
            per_tile_time: DEFAULT_PER_TILE_TIME,
        }
    }
}

impl PartitionedBackend {
    fn fits(&self, m: &CrossbarMetrics) -> bool {
        m.rows <= self.tile.max_rows && m.cols <= self.tile.max_cols
    }

    /// Maps one cone group, trying the inner backend free-form first and
    /// the constrained search second.
    fn fit_group(&self, cone: &Network, ctx: &SynthesisCtx<'_>) -> Result<Fit, BackendError> {
        let inner_ctx = SynthesisCtx {
            config: ctx.config.clone(),
            session: ctx.session,
            budget: ctx.budget.clone(),
        };
        let free = self.inner.synthesize(cone, &inner_ctx)?;
        if self.fits(&free.metrics) {
            return Ok(Fit::Fits(Box::new(free)));
        }
        if matches!(self.inner.as_ref(), Backend::Compact(_)) {
            let slice = ctx.budget.capped(self.per_tile_time);
            match synthesize_constrained(cone, self.tile, &slice) {
                Ok(result) => return Ok(Fit::Fits(Box::new(result.into()))),
                Err(e @ ConstraintError::Infeasible { .. }) => return Ok(Fit::Impossible(e)),
                Err(_) => {}
            }
        }
        Ok(Fit::TooBig {
            rows: free.metrics.rows,
            cols: free.metrics.cols,
        })
    }
}

impl MappingBackend for PartitionedBackend {
    fn name(&self) -> &'static str {
        "partitioned"
    }

    fn capabilities(&self) -> crate::backend::Capabilities {
        crate::backend::Capabilities {
            flow_crossbar: true,
            gamma_objective: self.inner.capabilities().gamma_objective,
            area_constrained: true,
            tileable: false,
            repairable: false,
        }
    }

    fn synthesize(
        &self,
        network: &Network,
        ctx: &SynthesisCtx<'_>,
    ) -> Result<MappedDesign, BackendError> {
        if !self.inner.capabilities().tileable {
            return Err(BackendError::Unsupported(format!(
                "inner backend `{}` does not produce monolithic crossbar tiles",
                self.inner.name()
            )));
        }
        let num_outputs = network.num_outputs();
        let mut tiles: Vec<Tile> = Vec::new();
        // The current group: output positions, plus the cone + design that
        // already fit (kept so closing a group never resynthesizes).
        let mut group: Vec<usize> = Vec::new();
        let mut fitted: Option<(Cone, Box<MappedDesign>)> = None;
        // Whether any shipped tile's design came from a degraded ladder.
        let mut degraded = false;

        let mut close = |fitted: &mut Option<(Cone, Box<MappedDesign>)>, tiles: &mut Vec<Tile>| {
            if let Some((cone, design)) = fitted.take() {
                degraded |= design.degraded;
                let metrics = design.metrics;
                let crossbar = design
                    .into_crossbar()
                    .expect("tileable inner backends produce monolithic crossbars");
                tiles.push(Tile {
                    metrics,
                    crossbar,
                    input_map: cone.input_map,
                    output_slots: cone.output_slots,
                });
            }
        };

        // A passed deadline is not checked here: it reaches each tile's
        // ladder, which degrades instead of failing. A cancel stops.
        for o in 0..num_outputs {
            if ctx.budget.is_cancelled() {
                return Err(CompactError::Cancelled.into());
            }
            let mut candidate = group.clone();
            candidate.push(o);
            let cone = extract_cone(network, &candidate);
            match self.fit_group(&cone.network, ctx)? {
                Fit::Fits(design) => {
                    group = candidate;
                    fitted = Some((cone, design));
                }
                miss => {
                    if group.is_empty() {
                        return Err(single_cone_miss(miss, ctx));
                    }
                    close(&mut fitted, &mut tiles);
                    // Re-open with the rejected output alone.
                    let solo = extract_cone(network, &[o]);
                    match self.fit_group(&solo.network, ctx)? {
                        Fit::Fits(design) => {
                            group = vec![o];
                            fitted = Some((solo, design));
                        }
                        miss => return Err(single_cone_miss(miss, ctx)),
                    }
                }
            }
        }
        close(&mut fitted, &mut tiles);

        let schedule = TileSchedule {
            tiles,
            limits: self.tile,
            num_inputs: network.num_inputs(),
            num_outputs,
        };
        let metrics = schedule.metrics();
        Ok(MappedDesign {
            backend: self.name(),
            metrics,
            artifact: DesignArtifact::Tiled(schedule),
            degraded,
        })
    }
}

/// The error for a single cone that cannot fit the tile: typed failure,
/// never a silent degrade. A proven lower bound is infeasible at any
/// budget. A search that found no fit reports the budget's error once
/// the budget is spent, since more time might have found one.
fn single_cone_miss(miss: Fit, ctx: &SynthesisCtx<'_>) -> BackendError {
    match miss {
        Fit::Impossible(e) => BackendError::Infeasible(e),
        Fit::TooBig { rows, cols } => match ctx.budget.check() {
            Err(e) => BackendError::Budget(e),
            Ok(()) => BackendError::Infeasible(ConstraintError::NotFound {
                best_rows: rows,
                best_cols: cols,
            }),
        },
        Fit::Fits(_) => unreachable!("only a miss is reported"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, MagicBackend};
    use flowc_logic::{bench_suite, GateKind};

    fn two_cone_network() -> Network {
        // Two independent cones over disjoint-ish inputs plus one shared
        // input, so a tight tile forces a split and the shared input
        // costs a transfer.
        let mut n = Network::new("twocones");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let d = n.add_input("d");
        let s = n.add_input("s");
        let ab = n.add_gate(GateKind::Xor, &[a, b], "ab").unwrap();
        let f = n.add_gate(GateKind::Xor, &[ab, s], "f").unwrap();
        let cd = n.add_gate(GateKind::Xor, &[c, d], "cd").unwrap();
        let g = n.add_gate(GateKind::Xor, &[cd, s], "g").unwrap();
        n.mark_output(f);
        n.mark_output(g);
        n
    }

    fn tiny_tile(max_rows: usize, max_cols: usize) -> PartitionedBackend {
        PartitionedBackend {
            tile: SizeLimits { max_rows, max_cols },
            ..PartitionedBackend::default()
        }
    }

    #[test]
    fn cone_extraction_preserves_function() {
        let n = two_cone_network();
        let cone = extract_cone(&n, &[1]);
        assert_eq!(cone.output_slots, vec![1]);
        // Output 1 (g) depends on c, d, s = global inputs 2, 3, 4.
        assert_eq!(cone.input_map, vec![2, 3, 4]);
        for v in 0..8u32 {
            let local: Vec<bool> = (0..3).map(|i| v >> i & 1 == 1).collect();
            let mut full = vec![false; 5];
            for (j, &gi) in cone.input_map.iter().enumerate() {
                full[gi] = local[j];
            }
            assert_eq!(
                cone.network.simulate(&local).unwrap(),
                vec![n.simulate(&full).unwrap()[1]]
            );
        }
    }

    #[test]
    fn tight_tile_splits_and_stays_equivalent() {
        let n = two_cone_network();
        let backend = tiny_tile(5, 4);
        let design = backend
            .synthesize(&n, &SynthesisCtx::default())
            .expect("each cone fits a 5x4 tile");
        let DesignArtifact::Tiled(schedule) = &design.artifact else {
            panic!("partitioned backend must produce a tile schedule");
        };
        assert!(
            schedule.tiles.len() >= 2,
            "the tight tile must force a split"
        );
        for tile in &schedule.tiles {
            assert!(tile.metrics.rows <= 5 && tile.metrics.cols <= 4);
        }
        // The shared input `s` feeds both cones: at least one transfer.
        assert!(design.metrics.transfer_ops >= 1);
        assert_eq!(design.metrics.tiles, schedule.tiles.len());
        for v in 0..32u32 {
            let inputs: Vec<bool> = (0..5).map(|i| v >> i & 1 == 1).collect();
            assert_eq!(
                design.evaluate(&inputs).unwrap(),
                n.simulate(&inputs).unwrap(),
                "mismatch on {inputs:?}"
            );
        }
    }

    #[test]
    fn generous_tile_yields_one_tile_and_no_transfers() {
        let n = two_cone_network();
        let design = tiny_tile(64, 64)
            .synthesize(&n, &SynthesisCtx::default())
            .unwrap();
        assert_eq!(design.metrics.tiles, 1);
        assert_eq!(design.metrics.transfer_ops, 0);
    }

    #[test]
    fn impossible_single_cone_is_a_typed_infeasibility() {
        let n = two_cone_network();
        let err = tiny_tile(1, 1)
            .synthesize(&n, &SynthesisCtx::default())
            .unwrap_err();
        assert!(
            matches!(err, BackendError::Infeasible(_)),
            "expected typed infeasibility, got {err}"
        );
    }

    #[test]
    fn non_tileable_inner_backend_is_rejected_up_front() {
        let backend = PartitionedBackend {
            inner: Box::new(Backend::MagicNor(MagicBackend::default())),
            ..PartitionedBackend::default()
        };
        let err = backend
            .synthesize(&two_cone_network(), &SynthesisCtx::default())
            .unwrap_err();
        assert!(matches!(err, BackendError::Unsupported(_)), "{err}");
    }

    #[test]
    fn nested_partitioning_is_rejected() {
        let backend = PartitionedBackend {
            inner: Box::new(Backend::Partitioned(PartitionedBackend::default())),
            ..PartitionedBackend::default()
        };
        let err = backend
            .synthesize(&two_cone_network(), &SynthesisCtx::default())
            .unwrap_err();
        assert!(matches!(err, BackendError::Unsupported(_)), "{err}");
    }

    #[test]
    fn staircase_inner_tiles_pack_and_verify() {
        let n = two_cone_network();
        let backend = PartitionedBackend {
            tile: SizeLimits {
                max_rows: 8,
                max_cols: 6,
            },
            inner: Box::new(Backend::parse("staircase").unwrap()),
            per_tile_time: Duration::from_secs(2),
        };
        let design = backend.synthesize(&n, &SynthesisCtx::default()).unwrap();
        assert!(design.verify(&n, 64).unwrap().is_valid());
    }

    #[test]
    fn oversized_benchmark_partitions_on_a_fixed_tile() {
        // ctrl's monolithic COMPACT design does not fit 12×12; the
        // partitioned backend must still deliver an equivalent schedule.
        let b = bench_suite::by_name("ctrl").unwrap();
        let n = b.network().unwrap();
        let backend = tiny_tile(12, 12);
        let design = backend.synthesize(&n, &SynthesisCtx::default()).unwrap();
        assert!(design.metrics.tiles > 1, "12x12 must force partitioning");
        assert!(design.verify(&n, 128).unwrap().is_valid());
    }
}
