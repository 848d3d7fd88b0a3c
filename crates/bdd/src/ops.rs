//! Satisfying-assignment extraction beyond the ITE core.

use crate::{Manager, Ref};

impl Manager {
    /// One satisfying assignment of `f` over all declared variables (don't
    /// cares default to `false`), or `None` when `f` is unsatisfiable.
    pub fn pick_sat(&self, f: Ref) -> Option<Vec<bool>> {
        if f == Ref::ZERO {
            return None;
        }
        let mut assignment = vec![false; self.num_vars()];
        let mut cur = f;
        while !cur.is_terminal() {
            let var = self.node_var(cur);
            // Prefer the child that can still reach 1.
            let hi = self.node_hi(cur);
            if hi != Ref::ZERO {
                assignment[var.index()] = true;
                cur = hi;
            } else {
                cur = self.node_lo(cur);
            }
        }
        debug_assert_eq!(cur, Ref::ONE, "non-zero BDDs always reach 1");
        Some(assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_sat_finds_a_model() {
        let mut m = Manager::new();
        let vars = ["a", "b", "c"].map(|name| m.new_var(name));
        let [va, vb, vc] = vars.map(|v| m.var(v));
        let nb = m.not(vb);
        let t = m.and(va, nb);
        let f = m.and(t, vc); // a ∧ ¬b ∧ c
        let model = m.pick_sat(f).unwrap();
        assert!(m.eval(f, &model));
        assert_eq!(model, vec![true, false, true]);
        assert!(m.pick_sat(Ref::ZERO).is_none());
        assert_eq!(m.pick_sat(Ref::ONE), Some(vec![false, false, false]));
    }
}
