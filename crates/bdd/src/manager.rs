use std::collections::HashMap;

use flowc_budget::CancelHandle;

/// A reference to a BDD node inside a [`Manager`].
///
/// References are only meaningful for the manager that produced them; they
/// stay valid until the next [`Manager::gc`] call, which remaps the roots it
/// is given.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ref(pub(crate) u32);

impl Ref {
    /// The constant-false terminal.
    pub const ZERO: Ref = Ref(0);
    /// The constant-true terminal.
    pub const ONE: Ref = Ref(1);

    /// Raw arena index (stable between GCs; used by graph extraction).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this is one of the two terminals.
    pub fn is_terminal(self) -> bool {
        self.0 <= 1
    }
}

/// A BDD variable handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// Raw variable index (creation order).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Sentinel variable value for terminal nodes.
const TERMINAL_VAR: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    var: u32,
    lo: Ref,
    hi: Ref,
}

/// A ROBDD/SBDD manager: node arena, per-(var,lo,hi) unique table, and an
/// ITE computed cache. See the crate docs for an example.
#[derive(Debug, Clone)]
pub struct Manager {
    nodes: Vec<Node>,
    unique: HashMap<(u32, Ref, Ref), Ref>,
    ite_cache: HashMap<(Ref, Ref, Ref), Ref>,
    var_names: Vec<String>,
    /// `var2level[v]` is the position of variable `v` in the order (0 = top).
    var2level: Vec<u32>,
    /// `level2var[l]` is the variable at position `l`.
    level2var: Vec<u32>,
    /// Arena ceiling: once `nodes.len()` reaches it, [`Manager::mk`] stops
    /// allocating, poisons the manager (`limit_hit`), and returns `ZERO`.
    node_limit: Option<usize>,
    limit_hit: bool,
    /// Cooperative cancellation token polled on every fresh allocation, so
    /// a cancel lands mid-`apply` (one `mk` granularity) instead of waiting
    /// for the per-gate budget checkpoint in the builder.
    cancel: Option<CancelHandle>,
    cancel_hit: bool,
}

impl Default for Manager {
    fn default() -> Self {
        Self::new()
    }
}

impl Manager {
    /// Creates an empty manager holding only the two terminals.
    pub fn new() -> Self {
        Manager {
            nodes: vec![
                Node {
                    var: TERMINAL_VAR,
                    lo: Ref::ZERO,
                    hi: Ref::ZERO,
                },
                Node {
                    var: TERMINAL_VAR,
                    lo: Ref::ONE,
                    hi: Ref::ONE,
                },
            ],
            unique: HashMap::new(),
            ite_cache: HashMap::new(),
            var_names: Vec::new(),
            var2level: Vec::new(),
            level2var: Vec::new(),
            node_limit: None,
            limit_hit: false,
            cancel: None,
            cancel_hit: false,
        }
    }

    /// Caps the arena at `limit` nodes (`None` removes the cap). Once the
    /// cap is reached, every new allocation is refused: `Manager::mk`
    /// returns `ZERO` instead of a fresh node and the manager is *poisoned*
    /// — [`Manager::limit_hit`] stays `true` and results computed after
    /// the hit are unreliable. Callers that care (e.g.
    /// [`crate::try_build_sbdd`]) must check `limit_hit` and discard the
    /// manager; the poisoned-but-total contract is what keeps every op
    /// panic-free and `Result`-free on the hot path.
    pub fn set_node_limit(&mut self, limit: Option<usize>) {
        self.node_limit = limit;
    }

    /// The configured arena ceiling.
    pub fn node_limit(&self) -> Option<usize> {
        self.node_limit
    }

    /// Whether an allocation has ever been refused because of the node
    /// limit. Once set, everything computed since the hit is suspect.
    pub fn limit_hit(&self) -> bool {
        self.limit_hit
    }

    /// Attaches a cancellation token polled on every fresh allocation
    /// (`None` detaches). Once the token is observed cancelled the manager
    /// is poisoned exactly like a node-limit hit — `Manager::mk` refuses
    /// allocations, [`Manager::cancel_hit`] stays `true`, and the partial
    /// forest must be discarded.
    pub fn set_cancel(&mut self, cancel: Option<CancelHandle>) {
        self.cancel = cancel;
    }

    /// Whether an allocation has ever been refused because the attached
    /// cancellation token fired. Once set, results are suspect.
    pub fn cancel_hit(&self) -> bool {
        self.cancel_hit
    }

    /// Declares a new variable at the bottom of the current order.
    pub fn new_var(&mut self, name: impl Into<String>) -> VarId {
        let v = self.var_names.len() as u32;
        self.var_names.push(name.into());
        self.var2level.push(v);
        self.level2var.push(v);
        VarId(v)
    }

    /// Number of declared variables.
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// The name of a variable.
    ///
    /// # Panics
    ///
    /// Panics if the variable does not belong to this manager.
    pub fn var_name(&self, var: VarId) -> &str {
        &self.var_names[var.index()]
    }

    /// The variables in order (top of the BDD first).
    pub fn order(&self) -> Vec<VarId> {
        self.level2var.iter().map(|&v| VarId(v)).collect()
    }

    /// Total nodes in the arena, including both terminals and any garbage
    /// from dropped intermediate results (call [`Manager::gc`] first for a
    /// live count, or use [`Manager::size`] for a per-root count).
    pub fn arena_size(&self) -> usize {
        self.nodes.len()
    }

    fn level(&self, r: Ref) -> u32 {
        let var = self.nodes[r.index()].var;
        if var == TERMINAL_VAR {
            u32::MAX
        } else {
            self.var2level[var as usize]
        }
    }

    /// The variable labelling an internal node.
    ///
    /// # Panics
    ///
    /// Panics when called on a terminal.
    pub fn node_var(&self, r: Ref) -> VarId {
        assert!(!r.is_terminal(), "terminals have no variable");
        VarId(self.nodes[r.index()].var)
    }

    /// The else-child (low edge) of an internal node.
    ///
    /// # Panics
    ///
    /// Panics when called on a terminal.
    pub fn node_lo(&self, r: Ref) -> Ref {
        assert!(!r.is_terminal(), "terminals have no children");
        self.nodes[r.index()].lo
    }

    /// The then-child (high edge) of an internal node.
    ///
    /// # Panics
    ///
    /// Panics when called on a terminal.
    pub fn node_hi(&self, r: Ref) -> Ref {
        assert!(!r.is_terminal(), "terminals have no children");
        self.nodes[r.index()].hi
    }

    /// Finds or creates the reduced node `(var, lo, hi)`.
    fn mk(&mut self, var: u32, lo: Ref, hi: Ref) -> Ref {
        if lo == hi {
            return lo;
        }
        debug_assert!(
            self.level(lo) > self.var2level[var as usize]
                && self.level(hi) > self.var2level[var as usize],
            "children must be strictly below the node's level"
        );
        if let Some(&r) = self.unique.get(&(var, lo, hi)) {
            return r;
        }
        if self.cancel_hit || self.cancel.as_ref().is_some_and(CancelHandle::is_cancelled) {
            // Same poisoned-but-total contract as the node limit: refuse
            // the allocation so the in-flight apply drains within its
            // existing arena, and let the caller see the right error.
            self.cancel_hit = true;
            return Ref::ZERO;
        }
        if self
            .node_limit
            .is_some_and(|limit| self.nodes.len() >= limit)
        {
            // Refuse the allocation but stay total: the computation keeps
            // running (bounded by the existing arena) and the poison flag
            // tells budget-aware callers to discard the result.
            self.limit_hit = true;
            return Ref::ZERO;
        }
        let r = Ref(self.nodes.len() as u32);
        self.nodes.push(Node { var, lo, hi });
        self.unique.insert((var, lo, hi), r);
        r
    }

    /// The constant-false function.
    pub fn zero(&self) -> Ref {
        Ref::ZERO
    }

    /// The constant-true function.
    pub fn one(&self) -> Ref {
        Ref::ONE
    }

    /// The projection function of `var`.
    pub fn var(&mut self, var: VarId) -> Ref {
        self.mk(var.0, Ref::ZERO, Ref::ONE)
    }

    /// The negated projection function of `var`.
    pub fn nvar(&mut self, var: VarId) -> Ref {
        self.mk(var.0, Ref::ONE, Ref::ZERO)
    }

    /// Top-variable cofactors of `f` with respect to variable `v` (which must
    /// be at or above `f`'s top level): returns `(f|v=0, f|v=1)`.
    fn cofactors(&self, f: Ref, v: u32) -> (Ref, Ref) {
        let n = &self.nodes[f.index()];
        if n.var == v {
            (n.lo, n.hi)
        } else {
            (f, f)
        }
    }

    /// If-then-else: `ite(f, g, h) = (f ∧ g) ∨ (¬f ∧ h)` — the universal
    /// BDD combinator all other operations reduce to.
    pub fn ite(&mut self, f: Ref, g: Ref, h: Ref) -> Ref {
        // Terminal cases.
        if f == Ref::ONE {
            return g;
        }
        if f == Ref::ZERO {
            return h;
        }
        if g == h {
            return g;
        }
        if g == Ref::ONE && h == Ref::ZERO {
            return f;
        }
        if let Some(&r) = self.ite_cache.get(&(f, g, h)) {
            return r;
        }
        let top_level = self.level(f).min(self.level(g)).min(self.level(h));
        let v = self.level2var[top_level as usize];
        let (f0, f1) = self.cofactors(f, v);
        let (g0, g1) = self.cofactors(g, v);
        let (h0, h1) = self.cofactors(h, v);
        let lo = self.ite(f0, g0, h0);
        let hi = self.ite(f1, g1, h1);
        let r = self.mk(v, lo, hi);
        self.ite_cache.insert((f, g, h), r);
        r
    }

    /// Conjunction.
    pub fn and(&mut self, f: Ref, g: Ref) -> Ref {
        self.ite(f, g, Ref::ZERO)
    }

    /// Disjunction.
    pub fn or(&mut self, f: Ref, g: Ref) -> Ref {
        self.ite(f, Ref::ONE, g)
    }

    /// Complement.
    pub fn not(&mut self, f: Ref) -> Ref {
        self.ite(f, Ref::ZERO, Ref::ONE)
    }

    /// Exclusive-or.
    pub fn xor(&mut self, f: Ref, g: Ref) -> Ref {
        let ng = self.not(g);
        self.ite(f, ng, g)
    }

    /// Exclusive-nor.
    pub fn xnor(&mut self, f: Ref, g: Ref) -> Ref {
        let ng = self.not(g);
        self.ite(f, g, ng)
    }

    /// N-ary conjunction over an operand list (true when empty).
    pub fn and_many(&mut self, fs: &[Ref]) -> Ref {
        fs.iter().fold(Ref::ONE, |acc, &f| self.and(acc, f))
    }

    /// N-ary disjunction over an operand list (false when empty).
    pub fn or_many(&mut self, fs: &[Ref]) -> Ref {
        fs.iter().fold(Ref::ZERO, |acc, &f| self.or(acc, f))
    }

    /// Evaluates `f` under an assignment indexed by variable (creation
    /// order), not by level.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` is shorter than the highest variable on the
    /// evaluated path.
    pub fn eval(&self, f: Ref, assignment: &[bool]) -> bool {
        let mut cur = f;
        while !cur.is_terminal() {
            let n = &self.nodes[cur.index()];
            cur = if assignment[n.var as usize] {
                n.hi
            } else {
                n.lo
            };
        }
        cur == Ref::ONE
    }

    /// The set of nodes reachable from `roots` (terminals included when
    /// reachable), in a deterministic DFS order.
    pub fn reachable(&self, roots: &[Ref]) -> Vec<Ref> {
        let mut seen = vec![false; self.nodes.len()];
        let mut out = Vec::new();
        let mut stack: Vec<Ref> = roots.to_vec();
        while let Some(r) = stack.pop() {
            if seen[r.index()] {
                continue;
            }
            seen[r.index()] = true;
            out.push(r);
            if !r.is_terminal() {
                let n = &self.nodes[r.index()];
                stack.push(n.lo);
                stack.push(n.hi);
            }
        }
        out
    }

    /// Node count of the shared forest rooted at `roots` (terminals
    /// included), i.e. the SBDD size when `roots` are a circuit's outputs.
    pub fn size(&self, roots: &[Ref]) -> usize {
        self.reachable(roots).len()
    }

    /// Number of satisfying assignments of `f` over all declared variables.
    pub fn sat_count(&self, f: Ref) -> u128 {
        let nvars = self.num_vars() as u32;
        let mut memo: HashMap<Ref, u128> = HashMap::new();
        // count(r) = satisfying assignments over variables strictly below
        // level(r); scale at the end.
        fn go(m: &Manager, memo: &mut HashMap<Ref, u128>, r: Ref, nvars: u32) -> u128 {
            if r == Ref::ZERO {
                return 0;
            }
            if r == Ref::ONE {
                return 1;
            }
            if let Some(&c) = memo.get(&r) {
                return c;
            }
            let n = m.nodes[r.index()];
            let my_level = m.var2level[n.var as usize];
            let lo = go(m, memo, n.lo, nvars);
            let hi = go(m, memo, n.hi, nvars);
            let lo_gap = m.level(n.lo).min(nvars) - my_level - 1;
            let hi_gap = m.level(n.hi).min(nvars) - my_level - 1;
            let c = (lo << lo_gap) + (hi << hi_gap);
            memo.insert(r, c);
            c
        }
        let c = go(self, &mut memo, f, nvars);
        let top_gap = self.level(f).min(nvars);
        c << top_gap
    }

    /// Garbage-collects the arena, keeping only nodes reachable from
    /// `roots`, and rewrites each root in place to its new reference. All
    /// other outstanding [`Ref`]s become invalid.
    pub fn gc(&mut self, roots: &mut [Ref]) {
        let live = self.reachable(roots);
        let mut remap: Vec<Option<Ref>> = vec![None; self.nodes.len()];
        remap[0] = Some(Ref::ZERO);
        remap[1] = Some(Ref::ONE);
        let mut new_nodes = vec![self.nodes[0], self.nodes[1]];
        // Assign new slots in an order where children precede parents:
        // process live nodes sorted by descending level so children (deeper)
        // come first.
        let mut ordered: Vec<Ref> = live.iter().copied().filter(|r| !r.is_terminal()).collect();
        ordered.sort_by_key(|&r| std::cmp::Reverse(self.level(r)));
        for r in ordered {
            let n = self.nodes[r.index()];
            let lo = remap[n.lo.index()].expect("child remapped before parent");
            let hi = remap[n.hi.index()].expect("child remapped before parent");
            let nr = Ref(new_nodes.len() as u32);
            new_nodes.push(Node { var: n.var, lo, hi });
            remap[r.index()] = Some(nr);
        }
        self.nodes = new_nodes;
        self.unique = self
            .nodes
            .iter()
            .enumerate()
            .skip(2)
            .map(|(i, n)| ((n.var, n.lo, n.hi), Ref(i as u32)))
            .collect();
        self.ite_cache.clear();
        for r in roots.iter_mut() {
            *r = remap[r.index()].expect("root is live by definition");
        }
    }

    /// Clears the ITE computed cache (useful to bound memory between
    /// unrelated build phases).
    pub fn clear_cache(&mut self) {
        self.ite_cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_vars() -> (Manager, Ref, Ref, Ref) {
        let mut m = Manager::new();
        let a = m.new_var("a");
        let b = m.new_var("b");
        let c = m.new_var("c");
        let (va, vb, vc) = (m.var(a), m.var(b), m.var(c));
        (m, va, vb, vc)
    }

    #[test]
    fn terminals_and_projection() {
        let (mut m, va, _, _) = three_vars();
        assert!(m.eval(m.one(), &[false, false, false]));
        assert!(!m.eval(m.zero(), &[false, false, false]));
        assert!(m.eval(va, &[true, false, false]));
        assert!(!m.eval(va, &[false, true, true]));
        let a = VarId(0);
        let nva = m.nvar(a);
        let also = m.not(va);
        assert_eq!(nva, also, "negated projection is canonical");
    }

    #[test]
    fn running_example_structure() {
        // f = (a ∧ b) ∨ c, the paper's Fig. 2 function.
        let (mut m, va, vb, vc) = three_vars();
        let ab = m.and(va, vb);
        let f = m.or(ab, vc);
        for bits in 0u32..8 {
            let a = bits & 1 != 0;
            let b = bits & 2 != 0;
            let c = bits & 4 != 0;
            assert_eq!(m.eval(f, &[a, b, c]), (a && b) || c, "{bits:03b}");
        }
        // ROBDD: node(a) -> node(b) -> node(c), plus 2 terminals.
        assert_eq!(m.size(&[f]), 5);
        assert_eq!(m.sat_count(f), 5); // (a&b)|c has 5 of 8 minterms
    }

    #[test]
    fn reduction_no_redundant_tests() {
        let (mut m, va, vb, _) = three_vars();
        // a XOR a = 0, a OR a = a.
        assert_eq!(m.xor(va, va), Ref::ZERO);
        assert_eq!(m.or(va, va), va);
        assert_eq!(m.and(va, va), va);
        // (a ∧ b) ∨ (a ∧ ¬b) = a.
        let nb = m.not(vb);
        let x = m.and(va, vb);
        let y = m.and(va, nb);
        assert_eq!(m.or(x, y), va);
    }

    #[test]
    fn canonicity_hash_consing() {
        let (mut m, va, vb, vc) = three_vars();
        let f1 = {
            let t = m.and(va, vb);
            m.or(t, vc)
        };
        let f2 = {
            // Build the same function differently: ¬(¬(a∧b) ∧ ¬c).
            let t = m.and(va, vb);
            let nt = m.not(t);
            let nc = m.not(vc);
            let u = m.and(nt, nc);
            m.not(u)
        };
        assert_eq!(f1, f2, "equal functions share one node");
    }

    #[test]
    fn xor_chain_counts() {
        let mut m = Manager::new();
        let vars: Vec<Ref> = (0..8)
            .map(|i| {
                let v = m.new_var(format!("x{i}"));
                m.var(v)
            })
            .collect();
        let mut f = Ref::ZERO;
        for v in vars {
            f = m.xor(f, v);
        }
        // Parity of 8 vars: 2^7 satisfying assignments, 2 nodes per level.
        assert_eq!(m.sat_count(f), 128);
        assert_eq!(m.size(&[f]), 2 * 8 - 1 + 2);
    }

    #[test]
    fn sat_count_handles_skipped_levels() {
        let mut m = Manager::new();
        let _a = m.new_var("a");
        let b = m.new_var("b");
        let _c = m.new_var("c");
        let vb = m.var(b);
        // f = b over 3 declared vars: 4 satisfying assignments.
        assert_eq!(m.sat_count(vb), 4);
        assert_eq!(m.sat_count(Ref::ONE), 8);
        assert_eq!(m.sat_count(Ref::ZERO), 0);
    }

    #[test]
    fn ite_general() {
        let (mut m, va, vb, vc) = three_vars();
        let f = m.ite(va, vb, vc); // a ? b : c
        for bits in 0u32..8 {
            let a = bits & 1 != 0;
            let b = bits & 2 != 0;
            let c = bits & 4 != 0;
            assert_eq!(m.eval(f, &[a, b, c]), if a { b } else { c });
        }
    }

    #[test]
    fn and_many_or_many() {
        let (mut m, va, vb, vc) = three_vars();
        let all = m.and_many(&[va, vb, vc]);
        assert_eq!(m.sat_count(all), 1);
        let any = m.or_many(&[va, vb, vc]);
        assert_eq!(m.sat_count(any), 7);
        assert_eq!(m.and_many(&[]), Ref::ONE);
        assert_eq!(m.or_many(&[]), Ref::ZERO);
    }

    #[test]
    fn gc_preserves_function_and_drops_garbage() {
        let (mut m, va, vb, vc) = three_vars();
        // Create garbage.
        for _ in 0..10 {
            let t = m.xor(va, vb);
            let _ = m.xor(t, vc);
        }
        let ab = m.and(va, vb);
        let f = m.or(ab, vc);
        let before = m.arena_size();
        let mut roots = [f];
        m.gc(&mut roots);
        let f = roots[0];
        assert!(m.arena_size() < before);
        assert_eq!(m.arena_size(), 5);
        for bits in 0u32..8 {
            let a = bits & 1 != 0;
            let b = bits & 2 != 0;
            let c = bits & 4 != 0;
            assert_eq!(m.eval(f, &[a, b, c]), (a && b) || c);
        }
        // The manager still works after GC (unique table consistent).
        let g = m.and(f, f);
        assert_eq!(g, f);
    }

    #[test]
    fn reachable_is_shared_across_roots() {
        let (mut m, va, vb, vc) = three_vars();
        let f = m.and(va, vb);
        let g = {
            let t = m.and(va, vb);
            m.or(t, vc)
        };
        let separate = m.size(&[f]) + m.size(&[g]);
        let shared = m.size(&[f, g]);
        assert!(shared < separate, "shared forest must deduplicate");
    }

    #[test]
    fn node_accessors_panic_on_terminals() {
        let m = Manager::new();
        let r = std::panic::catch_unwind(|| m.node_var(Ref::ONE));
        assert!(r.is_err());
    }
}
