//! Static variable-ordering heuristics and sifting by rebuild.
//!
//! The paper consumes whatever order ABC/CUDD produce; here we provide the
//! standard structural heuristics so the benchmark BDDs stay compact, plus a
//! rebuild-based [`sift`] used by the ordering ablation bench.

use flowc_budget::Budget;
use flowc_logic::Network;

use crate::build::{build_sbdd, NetworkBdds};

/// DFS-from-outputs ordering: walk each output cone depth-first and list
/// inputs in first-visit order. Inputs never reached by any output are
/// appended at the end in creation order.
pub fn dfs_fanin_order(network: &Network) -> Vec<usize> {
    let mut input_pos = vec![usize::MAX; network.num_nets()];
    for (i, &net) in network.inputs().iter().enumerate() {
        input_pos[net.index()] = i;
    }
    let mut visited = vec![false; network.num_nets()];
    let mut order: Vec<usize> = Vec::new();
    for &out in network.outputs() {
        let mut stack = vec![out];
        while let Some(net) = stack.pop() {
            if visited[net.index()] {
                continue;
            }
            visited[net.index()] = true;
            if network.is_input(net) {
                order.push(input_pos[net.index()]);
            } else if let Some(gate) = network.driver_gate(net) {
                // Push in reverse so the first fanin is visited first.
                for &inp in gate.inputs.iter().rev() {
                    stack.push(inp);
                }
            }
        }
    }
    for i in 0..network.num_inputs() {
        if !order.contains(&i) {
            order.push(i);
        }
    }
    order
}

/// Outcome of a [`sift`] run.
#[derive(Debug)]
pub struct SiftResult {
    /// The forest under the improved order.
    pub bdds: NetworkBdds,
    /// The input order that produced it.
    pub order: Vec<usize>,
    /// Shared node count before sifting.
    pub initial_size: usize,
    /// Shared node count after sifting.
    pub final_size: usize,
}

/// Variable sifting by reconstruction: each variable in turn is tried at
/// every position of the order (most impactful variables first), keeping
/// the position that minimizes the shared node count, until a pass yields
/// no improvement or `budget` is spent (deadline or cancel).
///
/// Classic sifting swaps adjacent levels in place; this implementation
/// re-derives the forest from the network for each candidate position,
/// which is slower per step but exact, simple, and safe. Intended for the
/// ordering ablation on small/medium circuits.
pub fn sift(network: &Network, budget: &Budget) -> SiftResult {
    let n = network.num_inputs();
    let mut order: Vec<usize> = (0..n).collect();
    let initial_size = build_sbdd(network, Some(&order)).shared_size();
    let mut best_size = initial_size;
    loop {
        let mut improved = false;
        // Sift variables one by one (in current-order sequence).
        for pos in 0..n {
            if budget.check().is_err() {
                let bdds = build_sbdd(network, Some(&order));
                return SiftResult {
                    final_size: bdds.shared_size(),
                    bdds,
                    order,
                    initial_size,
                };
            }
            let var = order[pos];
            let mut best_pos = pos;
            for candidate in 0..n {
                if candidate == pos {
                    continue;
                }
                let mut trial = order.clone();
                trial.remove(pos);
                trial.insert(candidate, var);
                let size = build_sbdd(network, Some(&trial)).shared_size();
                if size < best_size {
                    best_size = size;
                    best_pos = candidate;
                }
            }
            if best_pos != pos {
                order.remove(pos);
                order.insert(best_pos, var);
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    let bdds = build_sbdd(network, Some(&order));
    SiftResult {
        final_size: bdds.shared_size(),
        bdds,
        order,
        initial_size,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use flowc_logic::bench_suite::blocks::{input_bus, ripple_adder};
    use flowc_logic::{GateKind, Network};

    fn separated_adder() -> Network {
        let mut n = Network::new("add");
        let a = input_bus(&mut n, "a", 8);
        let b = input_bus(&mut n, "b", 8);
        let cin = n.add_input("cin");
        let (sum, cout) = ripple_adder(&mut n, &a, &b, cin, "fa").unwrap();
        for s in sum {
            n.mark_output(s);
        }
        n.mark_output(cout);
        n
    }

    #[test]
    fn dfs_order_is_permutation() {
        let n = separated_adder();
        let order = dfs_fanin_order(&n);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n.num_inputs()).collect::<Vec<_>>());
    }

    #[test]
    fn dfs_beats_natural_on_separated_adder() {
        let n = separated_adder();
        let nat = build_sbdd(&n, None);
        let dfs = build_sbdd(&n, Some(&dfs_fanin_order(&n)));
        assert!(
            dfs.shared_size() < nat.shared_size(),
            "DFS order should interleave the adder operands ({} vs {})",
            dfs.shared_size(),
            nat.shared_size()
        );
    }

    #[test]
    fn dfs_handles_unreachable_inputs() {
        let mut n = Network::new("t");
        let a = n.add_input("a");
        let _dangling = n.add_input("unused");
        let b = n.add_input("b");
        let f = n.add_gate(GateKind::And, &[b, a], "f").unwrap();
        n.mark_output(f);
        let order = dfs_fanin_order(&n);
        assert_eq!(order.len(), 3);
        // b is the first fanin of the only gate.
        assert_eq!(order[0], 2);
        assert_eq!(order[1], 0);
        assert_eq!(order[2], 1, "unused input appended last");
    }

    #[test]
    fn sifting_recovers_interleaved_adder_order() {
        // The separated a..a b..b order is exponentially bad for adders;
        // sifting must find something close to the interleaved optimum.
        let mut n = Network::new("add");
        let a = input_bus(&mut n, "a", 5);
        let b = input_bus(&mut n, "b", 5);
        let cin = n.add_input("cin");
        let (sum, cout) = ripple_adder(&mut n, &a, &b, cin, "fa").unwrap();
        for s in sum {
            n.mark_output(s);
        }
        n.mark_output(cout);
        let result = super::sift(
            &n,
            &Budget::unlimited().with_deadline(Duration::from_secs(30)),
        );
        assert!(result.final_size < result.initial_size, "{result:?}");
        // The interleaved reference order.
        let interleaved: Vec<usize> = (0..5).flat_map(|i| [i, i + 5]).chain([10]).collect();
        let reference = build_sbdd(&n, Some(&interleaved)).shared_size();
        assert!(
            result.final_size <= reference + reference / 4,
            "sifted {} vs interleaved {}",
            result.final_size,
            reference
        );
        // Function preserved.
        let mut x = 5u64;
        for _ in 0..32 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let vals: Vec<bool> = (0..11).map(|i| x >> (i + 7) & 1 == 1).collect();
            assert_eq!(result.bdds.eval(&vals), n.simulate(&vals).unwrap());
        }
    }

    #[test]
    fn sift_respects_budget() {
        let mut n = Network::new("t");
        let ins = input_bus(&mut n, "x", 8);
        let f = n.add_gate(GateKind::Xor, &ins, "f").unwrap();
        n.mark_output(f);
        let result = super::sift(&n, &Budget::unlimited().with_deadline(Duration::ZERO));
        // Zero budget: must still return a consistent result.
        assert_eq!(
            result.final_size,
            build_sbdd(&n, Some(&result.order)).shared_size()
        );
    }
}
