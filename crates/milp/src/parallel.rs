//! The branch & bound search loop behind [`BranchBound::solve_with`], at
//! every thread count.
//!
//! Architecture (DESIGN.md §13): each worker owns a local best-first heap
//! and a private [`Bounder`]; a shared pool heap hands surplus nodes to
//! idle workers. A worker pops the better of its local top and the pool
//! top, and donates local nodes to the pool only while another worker is
//! waiting for work. The incumbent objective lives as `f64` bits in an
//! [`AtomicU64`] (CAS-improve), so pruning reads are lock-free; the
//! incumbent *vector* sits behind a mutex that is only touched on
//! improvement. An atomic open-node count detects termination: children
//! are added before the parent is retired, so the count can only reach
//! zero when no node exists anywhere. Every worker polls the budget and
//! deadline between bounder calls, and idle workers wake on a timeout, so
//! cancellation lands within ~10ms from any state.
//!
//! With one thread no worker is ever idle, so nothing is donated and the
//! only worker, running on the calling thread, replays plain best-first
//! search: it expands the same nodes in the same order as a single-heap
//! loop would (pinned by golden values). With more threads the proven
//! optimum is the same; the optimal point may be a different one when
//! several are tied.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::branch::{
    complete_leaf, expand_node, heuristic_incumbent, propagate, sanitize_bound,
    validate_warm_start, Bounder, BranchBound, Node,
};
use crate::model::Model;
use crate::sol::{MilpError, Solution, SolveStatus, SolveTrace, TracePoint};
use crate::Result;

/// How long an idle worker sleeps before re-checking budget/deadline/work.
/// Keeps worst-case cancellation latency for a fully idle worker well under
/// the ~10ms target.
const IDLE_POLL: Duration = Duration::from_millis(2);

/// The state every worker reads and writes under one lock: the shared
/// nodes, and enough about each worker to bound the whole tree.
struct Pool {
    /// Nodes donated for stealing.
    heap: BinaryHeap<Node>,
    /// Per worker, a lower bound on every node it holds (its local heap
    /// and the node under expansion): the bound of the node it last
    /// popped, which is never above its local heap's top. `+inf` while
    /// the worker holds nothing.
    floors: Vec<f64>,
    /// Workers waiting for a node; busy workers donate while this exceeds
    /// the pool's size.
    idle: usize,
}

impl Pool {
    /// A valid lower bound on every open node of the search.
    fn lower_bound(&self) -> f64 {
        let pooled = self.heap.peek().map_or(f64::INFINITY, |n| n.bound);
        self.floors.iter().copied().fold(pooled, f64::min)
    }
}

struct Shared {
    /// Bits of the best incumbent objective (`+inf` when none). Monotone
    /// non-increasing under CAS, so stale reads only delay pruning.
    incumbent_bits: AtomicU64,
    /// The incumbent vector; locked only on improvement and at the end.
    incumbent: Mutex<Option<(Vec<f64>, f64)>>,
    /// Shared nodes and per-worker floors; paired with `work_cv`.
    pool: Mutex<Pool>,
    work_cv: Condvar,
    /// Nodes alive anywhere (pool + local heaps + in expansion).
    open: AtomicUsize,
    /// Nodes fully expanded, for traces and the node ceiling.
    explored: AtomicU64,
    /// Search exhausted (open hit zero).
    done: AtomicBool,
    /// Budget/deadline stop: abandon open nodes, report `TimeLimit`.
    stop: AtomicBool,
    /// Min bound over nodes abandoned at stop (bits, CAS-min folded).
    abandoned_bits: AtomicU64,
    trace: Mutex<SolveTrace>,
    start: Instant,
}

impl Shared {
    fn incumbent_obj(&self) -> f64 {
        f64::from_bits(self.incumbent_bits.load(Ordering::Acquire))
    }

    fn lower_bound(&self) -> f64 {
        poisoned_ok(self.pool.lock()).lower_bound()
    }

    fn record(&self, best_integer: Option<f64>, best_bound: f64) {
        poisoned_ok(self.trace.lock()).push(TracePoint {
            elapsed: self.start.elapsed(),
            best_integer,
            best_bound,
            open_nodes: self.open.load(Ordering::Relaxed),
        });
    }

    /// CAS-improves the shared incumbent; on success records a trace point
    /// with `bound`, a valid lower bound at the time of the offer.
    fn offer_incumbent(&self, values: Vec<f64>, obj: f64, bound: impl FnOnce() -> f64) {
        let mut cur = self.incumbent_bits.load(Ordering::Acquire);
        loop {
            if obj >= f64::from_bits(cur) - 1e-12 {
                return;
            }
            match self.incumbent_bits.compare_exchange_weak(
                cur,
                obj.to_bits(),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        let mut guard = poisoned_ok(self.incumbent.lock());
        let improves = guard.as_ref().is_none_or(|(_, o)| obj < *o - 1e-12);
        if improves {
            *guard = Some((values, obj));
        }
        drop(guard);
        self.record(Some(obj), bound());
    }

    /// Stops every worker, abandoning `node` and the nodes in `local`.
    fn halt(&self, node: &Node, local: &mut BinaryHeap<Node>) {
        self.stop.store(true, Ordering::Release);
        self.work_cv.notify_all();
        self.fold_abandoned(node.bound);
        self.drain_abandoned(local);
    }

    /// Folds `bound` into the abandoned-node minimum (stop path only).
    fn fold_abandoned(&self, bound: f64) {
        let mut cur = self.abandoned_bits.load(Ordering::Acquire);
        loop {
            if bound >= f64::from_bits(cur) {
                return;
            }
            match self.abandoned_bits.compare_exchange_weak(
                cur,
                bound.to_bits(),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Folds the bounds of every node a stopping worker still holds, and of
    /// the pool, so the reported `best_bound` stays valid.
    fn drain_abandoned(&self, local: &mut BinaryHeap<Node>) {
        for node in local.drain() {
            self.fold_abandoned(node.bound);
        }
        let mut pool = poisoned_ok(self.pool.lock());
        for node in pool.heap.drain() {
            self.fold_abandoned(node.bound);
        }
    }

    /// Retires one node; flips `done` and wakes everyone at zero.
    fn retire(&self) {
        if self.open.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.done.store(true, Ordering::Release);
            self.work_cv.notify_all();
        }
    }
}

fn poisoned_ok<T>(r: std::result::Result<T, std::sync::PoisonError<T>>) -> T {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Best-first search with one private bounder per worker, built by
/// `make_bounder`. The root relaxation and heuristics run on the calling
/// thread first, so every worker starts from a seeded incumbent; the
/// calling thread then runs the first worker with the root's bounder and
/// spawns the other `threads − 1`.
pub(crate) fn solve<B, F>(cfg: &BranchBound, model: &Model, make_bounder: F) -> Result<Solution>
where
    B: Bounder,
    F: Fn() -> B + Sync,
{
    let start = Instant::now();
    let n = model.num_vars();
    let mut bounder = make_bounder();

    let mut warm_used = cfg.warm.as_ref().map(|_| false);
    let mut warm_incumbent: Option<(Vec<f64>, f64)> = None;
    if let Some(warm) = &cfg.warm {
        if let Some(obj) = validate_warm_start(model, warm, cfg.integrality_tol) {
            warm_incumbent = Some((warm.clone(), obj));
            warm_used = Some(true);
        }
    }

    let root_fixed: Vec<Option<bool>> = vec![None; n];
    let Some(root_fixed) = propagate(model, root_fixed) else {
        return Err(MilpError::Infeasible);
    };
    let warm_obj = warm_incumbent.as_ref().map_or(f64::INFINITY, |(_, o)| *o);
    let root_bound = sanitize_bound(bounder.lower_bound(model, &root_fixed, warm_obj));
    let root_bound = bounder.tighten_bound(root_bound);
    // An LP the budget interrupted also answers `-inf`; only a finished
    // one proves the relaxation unbounded. A spent budget goes on to stop
    // the search at its first node with whatever incumbent exists.
    if root_bound == f64::NEG_INFINITY && cfg.budget.check().is_ok() {
        return Err(MilpError::Unbounded);
    }
    if root_bound.is_infinite() {
        // A warm-started solve proved the root relaxation cut off by the
        // incumbent: the incumbent is optimal.
        if let Some((values, objective)) = warm_incumbent {
            return Ok(Solution {
                values,
                objective,
                status: SolveStatus::Optimal,
                best_bound: objective,
                trace: SolveTrace::new(),
                nodes: 0,
                warm_start: warm_used,
            });
        }
        return Err(MilpError::Infeasible);
    }

    let threads = cfg.threads;
    let shared = Shared {
        incumbent_bits: AtomicU64::new(warm_obj.to_bits()),
        incumbent: Mutex::new(warm_incumbent),
        pool: Mutex::new(Pool {
            heap: BinaryHeap::new(),
            floors: vec![f64::INFINITY; threads],
            idle: 0,
        }),
        work_cv: Condvar::new(),
        open: AtomicUsize::new(1),
        explored: AtomicU64::new(0),
        done: AtomicBool::new(false),
        stop: AtomicBool::new(false),
        abandoned_bits: AtomicU64::new(f64::INFINITY.to_bits()),
        trace: Mutex::new(SolveTrace::new()),
        start,
    };
    // Root heuristics: the bounder's greedy completion, kept when it beats
    // a warm start, then an LP completion if there is still no incumbent.
    if let Some((values, obj)) = heuristic_incumbent(model, &mut bounder, &root_fixed) {
        shared.offer_incumbent(values, obj, || root_bound);
    }
    if !shared.incumbent_obj().is_finite() {
        if let Some((values, obj)) = complete_leaf(model, &mut bounder, &root_fixed, &cfg.budget) {
            shared.offer_incumbent(values, obj, || root_bound);
        }
    }
    poisoned_ok(shared.pool.lock()).heap.push(Node {
        bound: root_bound,
        fixed: root_fixed,
        depth: 0,
        point: bounder.relaxation_point().map(<[f64]>::to_vec),
    });

    std::thread::scope(|scope| {
        for id in 1..threads {
            let shared = &shared;
            let make_bounder = &make_bounder;
            scope.spawn(move || worker(id, cfg, model, shared, &mut make_bounder()));
        }
        worker(0, cfg, model, &shared, &mut bounder);
    });

    let incumbent = poisoned_ok(shared.incumbent.lock()).take();
    let obj = incumbent.as_ref().map_or(f64::INFINITY, |(_, o)| *o);
    // Proven bound: on a clean finish every node was processed, so the
    // incumbent is optimal. On a stop, the weakest abandoned node bounds
    // the optimum (pool leftovers were folded by the workers).
    let (status, best_bound) = if shared.stop.load(Ordering::Acquire) {
        let abandoned = f64::from_bits(shared.abandoned_bits.load(Ordering::Acquire));
        (SolveStatus::TimeLimit, abandoned.min(obj))
    } else {
        (SolveStatus::Optimal, obj)
    };
    shared.record(incumbent.as_ref().map(|(_, o)| *o), best_bound);
    let Some((values, objective)) = incumbent else {
        return Err(MilpError::Infeasible);
    };
    Ok(Solution {
        values,
        objective,
        status,
        best_bound,
        trace: poisoned_ok(shared.trace.into_inner()),
        nodes: shared.explored.load(Ordering::Acquire),
        warm_start: warm_used,
    })
}

fn worker(id: usize, cfg: &BranchBound, model: &Model, shared: &Shared, bounder: &mut dyn Bounder) {
    let mut local: BinaryHeap<Node> = BinaryHeap::new();
    loop {
        if shared.stop.load(Ordering::Acquire) {
            shared.drain_abandoned(&mut local);
            return;
        }
        let Some(node) = next_node(id, shared, &mut local) else {
            return; // done, nothing left anywhere
        };
        // Budget first: a cancelled or exhausted budget stops the search
        // even when this node would have been pruned.
        let out_of_budget = cfg.budget_exhausted(shared.explored.load(Ordering::Relaxed));
        // Prune against the freshest incumbent (and the gap tolerance).
        let inc_obj = shared.incumbent_obj();
        if !out_of_budget && inc_obj.is_finite() {
            let denom = inc_obj.abs().max(1e-10);
            if node.bound >= inc_obj - 1e-9
                || (inc_obj - node.bound).abs() / denom <= cfg.gap_tolerance
            {
                shared.retire();
                continue;
            }
        }
        if out_of_budget {
            shared.halt(&node, &mut local);
            return;
        }
        let explored = shared.explored.fetch_add(1, Ordering::AcqRel) + 1;
        if (explored as usize).is_multiple_of(cfg.trace_every) {
            shared.record(inc_obj.is_finite().then_some(inc_obj), shared.lower_bound());
        }
        let mut abort = || {
            shared.stop.load(Ordering::Acquire)
                || cfg.budget_exhausted(shared.explored.load(Ordering::Relaxed))
        };
        let Some(expansion) = expand_node(
            model,
            bounder,
            &node,
            shared.incumbent_obj(),
            cfg.integrality_tol,
            &cfg.budget,
            &mut abort,
        ) else {
            shared.halt(&node, &mut local);
            return;
        };
        for (values, obj) in expansion.incumbents {
            shared.offer_incumbent(values, obj, || shared.lower_bound());
        }
        // Children go live before the parent retires so `open` can only hit
        // zero when the tree is truly exhausted.
        shared
            .open
            .fetch_add(expansion.children.len(), Ordering::AcqRel);
        local.extend(expansion.children);
        shared.retire();
    }
}

/// Pops the better of the local top and the pool top (by `Node`'s order,
/// ties to the local heap), donating local nodes to idle workers on the
/// way; waits when both are empty. Returns `None` when the search is
/// exhausted or stopped.
fn next_node(id: usize, shared: &Shared, local: &mut BinaryHeap<Node>) -> Option<Node> {
    let mut pool = poisoned_ok(shared.pool.lock());
    loop {
        let from_local = match (local.peek(), pool.heap.peek()) {
            (Some(mine), Some(pooled)) => mine >= pooled,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => {
                pool.floors[id] = f64::INFINITY;
                if shared.done.load(Ordering::Acquire) || shared.stop.load(Ordering::Acquire) {
                    return None;
                }
                // Timed wait so an idle worker still notices budget
                // cancellation promptly even if no work ever arrives.
                pool.idle += 1;
                let (guard, _) = poisoned_ok(shared.work_cv.wait_timeout(pool, IDLE_POLL));
                pool = guard;
                pool.idle -= 1;
                continue;
            }
        };
        let node = if from_local {
            local.pop()
        } else {
            pool.heap.pop()
        }?;
        pool.floors[id] = node.bound;
        while pool.heap.len() < pool.idle {
            let Some(surplus) = local.pop() else { break };
            pool.heap.push(surplus);
            shared.work_cv.notify_one();
        }
        return Some(node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch::tests::{
        knapsack_model, ring_cover_model, set_cover_model, weighted_cover_model,
    };
    use crate::metrics::{CoverProblem, HybridBounder, MatchingCoverBounder};
    use flowc_budget::Budget;

    /// `(nodes, objective, best_bound, status)`, or `None` for infeasible.
    type Outcome = Option<(u64, f64, f64, SolveStatus)>;

    fn outcome(result: Result<Solution>) -> Outcome {
        match result {
            Ok(s) => Some((s.nodes, s.objective, s.best_bound, s.status)),
            Err(e) => {
                assert_eq!(e, MilpError::Infeasible);
                None
            }
        }
    }

    fn hybrid_cover(m: &Model) -> impl Fn() -> HybridBounder<MatchingCoverBounder> + Sync {
        let problem = CoverProblem::from_model(m).expect("pairwise cover");
        move || HybridBounder::new(MatchingCoverBounder::new(problem.clone()))
    }

    /// One thread replays plain best-first search. These values were
    /// recorded from the single-heap serial loop this driver replaced; the
    /// driver must reproduce them exactly — node counts, objectives and
    /// bounds to the bit — including after a warm start (the root
    /// heuristic still runs) and when the solver-node ceiling cuts the
    /// search short.
    #[test]
    fn one_thread_replays_the_serial_search_exactly() {
        use SolveStatus::{Optimal, TimeLimit};
        let one = BranchBound::new().threads(1);
        let mut cases: Vec<(String, Outcome, Outcome)> = Vec::new();
        let mut check = |name: String, got: Result<Solution>, want: Outcome| {
            cases.push((name, outcome(got), want));
        };
        for (n, obj) in [(9, 3.0), (14, 5.0), (20, 7.0)] {
            let m = ring_cover_model(n);
            let want = Some((0, obj, obj, Optimal));
            check(format!("ring{n}"), one.solve(&m), want);
        }
        for (seed, lp_nodes, hybrid_nodes, obj) in [
            (1, 1, 1, 40.0),
            (2, 0, 1, 37.0),
            (3, 3, 4, 42.0),
            (4, 0, 0, 51.0),
            (5, 1, 1, 53.0),
        ] {
            let n = 20 + 4 * seed as usize;
            let m = weighted_cover_model(seed, n, 40 + 10 * seed as usize);
            let lp = Some((lp_nodes, obj, obj, Optimal));
            check(format!("cover{seed}-lp"), one.solve(&m), lp);
            let hybrid = Some((hybrid_nodes, obj, obj, Optimal));
            let got = one.solve_with(&m, hybrid_cover(&m));
            check(format!("cover{seed}-hybrid"), got, hybrid);
            // An all-ones warm start is feasible but poor: the root
            // heuristic must still run and replace it.
            let warm = one.clone().warm_start(vec![1.0; n]);
            let got = warm.solve_with(&m, hybrid_cover(&m));
            check(format!("cover{seed}-hybrid-warm"), got, hybrid);
        }
        // These relaxations have several optimal vertices, and the one the
        // LP returns steers branching: the counts pin the LP's choice.
        for (seed, nodes, obj) in [(1, 5, 14.0), (2, 28, 15.0), (3, 11, 13.0), (4, 4, 13.0)] {
            let m = set_cover_model(seed, 40, 60);
            let want = Some((nodes, obj, obj, Optimal));
            check(format!("setcover{seed}"), one.solve(&m), want);
        }
        for (seed, items, nodes, obj) in [
            (1, 15, 231, -257.0),
            (2, 20, 497, -386.0),
            (4, 20, 80, -358.0),
            (1, 25, 403, -442.0),
        ] {
            let m = knapsack_model(seed, items);
            let want = Some((nodes, obj, obj, Optimal));
            check(format!("knapsack{seed}-{items}"), one.solve(&m), want);
        }
        let m = knapsack_model(2, 20);
        let warm = one.clone().warm_start(vec![0.0; 20]);
        let want = Some((497, -386.0, -386.0, Optimal));
        check("knapsack2-20-warm".into(), warm.solve(&m), want);
        for (ceiling, want) in [
            (10, None),
            (100, Some((100, -386.0, -387.8918918918919, TimeLimit))),
            (300, Some((300, -386.0, -386.7894736842105, TimeLimit))),
        ] {
            let budget = Budget::unlimited().with_max_solver_nodes(ceiling);
            let got = one.clone().budget(&budget).solve(&m);
            check(format!("knapsack2-20-ceiling{ceiling}"), got, want);
        }
        let diverged: Vec<String> = cases
            .iter()
            .filter(|(_, got, want)| got != want)
            .map(|(name, got, want)| format!("{name}: got {got:?}, want {want:?}"))
            .collect();
        assert!(diverged.is_empty(), "{}", diverged.join("\n"));
    }

    /// Four threads prove the same optimum as one.
    #[test]
    fn four_threads_match_one_thread_objective() {
        let models = [8, 11, 14].map(ring_cover_model);
        let models = models
            .into_iter()
            .chain([knapsack_model(1, 15), set_cover_model(2, 40, 60)]);
        for (i, m) in models.enumerate() {
            let one = BranchBound::new().solve(&m).unwrap();
            let four = BranchBound::new().threads(4).solve(&m).unwrap();
            assert_eq!(four.status, SolveStatus::Optimal);
            assert!(
                (four.objective - one.objective).abs() < 1e-6,
                "model {i}: 4 threads {} vs 1 thread {}",
                four.objective,
                one.objective
            );
            assert!(m.is_feasible(&four.values, 1e-6));
        }
    }

    /// Every trace point carries a finite, valid lower bound — including
    /// the points recorded at incumbent improvements — and on one thread
    /// the bound column never decreases.
    #[test]
    fn trace_bounds_are_finite_and_valid() {
        let m = knapsack_model(2, 20);
        for threads in [1, 4] {
            let sol = BranchBound::new()
                .threads(threads)
                .trace_every(1)
                .solve(&m)
                .unwrap();
            let bounds: Vec<f64> = sol.trace.points().iter().map(|p| p.best_bound).collect();
            assert!(
                bounds.len() > 100,
                "{threads} threads: {} points",
                bounds.len()
            );
            for (i, b) in bounds.iter().enumerate() {
                assert!(
                    b.is_finite() && *b <= sol.objective + 1e-9,
                    "{threads} threads, point {i}: bound {b} vs objective {}",
                    sol.objective
                );
            }
            if threads == 1 {
                for w in bounds.windows(2) {
                    assert!(w[1] >= w[0] - 1e-9, "bound fell from {} to {}", w[0], w[1]);
                }
            }
        }
    }
}
