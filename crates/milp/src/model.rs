use std::fmt;

/// Index of a decision variable in a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// Raw column index (position in [`crate::Solution::values`]).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// The domain of a decision variable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VarKind {
    /// Integer variable restricted to {0, 1}; branched on by the solver.
    Binary,
    /// Continuous variable within `[lb, ub]`.
    Continuous {
        /// Lower bound.
        lb: f64,
        /// Upper bound (may be `f64::INFINITY`).
        ub: f64,
    },
}

/// Direction of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
    /// `Σ aᵢxᵢ = b`
    Eq,
}

#[derive(Debug, Clone)]
pub(crate) struct Variable {
    pub name: String,
    pub kind: VarKind,
    pub obj: f64,
}

/// One linear constraint row (sparse).
#[derive(Debug, Clone)]
pub(crate) struct Constraint {
    pub terms: Vec<(VarId, f64)>,
    pub sense: Sense,
    pub rhs: f64,
}

/// A minimization MILP: `min cᵀx` subject to linear constraints, binary and
/// bounded-continuous variables. Build with the `add_*` methods and hand to
/// [`crate::BranchBound::solve`] (or [`crate::lp::Simplex`] for the pure LP
/// relaxation).
#[derive(Debug, Clone, Default)]
pub struct Model {
    pub(crate) vars: Vec<Variable>,
    pub(crate) cons: Vec<Constraint>,
}

impl Model {
    /// Creates an empty model.
    pub fn new() -> Self {
        Model::default()
    }

    /// Adds a binary variable with the given objective coefficient.
    pub fn add_binary(&mut self, name: impl Into<String>, obj: f64) -> VarId {
        let id = VarId(self.vars.len() as u32);
        self.vars.push(Variable {
            name: name.into(),
            kind: VarKind::Binary,
            obj,
        });
        id
    }

    /// Adds a continuous variable in `[lb, ub]` with the given objective
    /// coefficient.
    ///
    /// # Panics
    ///
    /// Panics if `lb > ub` or either bound is NaN.
    pub fn add_continuous(&mut self, name: impl Into<String>, lb: f64, ub: f64, obj: f64) -> VarId {
        assert!(!lb.is_nan() && !ub.is_nan(), "bounds must not be NaN");
        assert!(lb <= ub, "lower bound exceeds upper bound");
        let id = VarId(self.vars.len() as u32);
        self.vars.push(Variable {
            name: name.into(),
            kind: VarKind::Continuous { lb, ub },
            obj,
        });
        id
    }

    /// Adds the constraint `Σ coeff·var  sense  rhs`. Duplicate variables in
    /// `terms` are summed.
    ///
    /// # Panics
    ///
    /// Panics if a term references a variable not in this model.
    pub fn add_constraint(&mut self, terms: &[(VarId, f64)], sense: Sense, rhs: f64) {
        let mut merged: Vec<(VarId, f64)> = Vec::with_capacity(terms.len());
        for &(v, c) in terms {
            assert!(v.index() < self.vars.len(), "unknown variable {v}");
            match merged.iter_mut().find(|(mv, _)| *mv == v) {
                Some((_, mc)) => *mc += c,
                None => merged.push((v, c)),
            }
        }
        self.cons.push(Constraint {
            terms: merged,
            sense,
            rhs,
        });
    }

    /// Number of variables (columns).
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints (rows).
    pub fn num_constraints(&self) -> usize {
        self.cons.len()
    }

    /// The name of a variable.
    ///
    /// # Panics
    ///
    /// Panics when `v` does not belong to this model.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.vars[v.index()].name
    }

    /// The kind of a variable.
    ///
    /// # Panics
    ///
    /// Panics when `v` does not belong to this model.
    pub fn var_kind(&self, v: VarId) -> VarKind {
        self.vars[v.index()].kind
    }

    /// The objective coefficient of a variable.
    ///
    /// # Panics
    ///
    /// Panics when `v` does not belong to this model.
    pub fn objective_coeff(&self, v: VarId) -> f64 {
        self.vars[v.index()].obj
    }

    /// Iterator over every variable id, in column order.
    pub fn var_ids(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..self.vars.len()).map(|i| VarId(i as u32))
    }

    /// The `i`-th constraint: its terms, sense and right-hand side.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.num_constraints()`.
    pub fn constraint(&self, i: usize) -> (&[(VarId, f64)], Sense, f64) {
        let c = &self.cons[i];
        (&c.terms, c.sense, c.rhs)
    }

    /// Iterator over binary variable ids.
    pub fn binaries(&self) -> impl Iterator<Item = VarId> + '_ {
        self.vars
            .iter()
            .enumerate()
            .filter(|(_, v)| matches!(v.kind, VarKind::Binary))
            .map(|(i, _)| VarId(i as u32))
    }

    /// Evaluates the objective at a point.
    ///
    /// # Panics
    ///
    /// Panics if `x` is shorter than the number of variables.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.vars
            .iter()
            .enumerate()
            .map(|(i, v)| v.obj * x[i])
            .sum()
    }

    /// Checks whether `x` satisfies all constraints and variable domains to
    /// tolerance `tol` (binaries must be within `tol` of 0 or 1).
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() < self.vars.len() {
            return false;
        }
        for (i, v) in self.vars.iter().enumerate() {
            match v.kind {
                VarKind::Binary => {
                    if !((x[i] - 0.0).abs() <= tol || (x[i] - 1.0).abs() <= tol) {
                        return false;
                    }
                }
                VarKind::Continuous { lb, ub } => {
                    if x[i] < lb - tol || x[i] > ub + tol {
                        return false;
                    }
                }
            }
        }
        for c in &self.cons {
            let lhs: f64 = c.terms.iter().map(|&(v, a)| a * x[v.index()]).sum();
            let ok = match c.sense {
                Sense::Le => lhs <= c.rhs + tol,
                Sense::Ge => lhs >= c.rhs - tol,
                Sense::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_counts_and_lookup() {
        let mut m = Model::new();
        let a = m.add_binary("a", 1.0);
        let y = m.add_continuous("y", 0.0, 10.0, -2.0);
        m.add_constraint(&[(a, 1.0), (y, 1.0)], Sense::Le, 5.0);
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.num_constraints(), 1);
        assert_eq!(m.var_name(a), "a");
        assert_eq!(m.objective_coeff(y), -2.0);
        assert!(matches!(m.var_kind(a), VarKind::Binary));
        assert_eq!(m.binaries().collect::<Vec<_>>(), vec![a]);
        assert_eq!(m.var_ids().collect::<Vec<_>>(), vec![a, y]);
        assert_eq!(m.constraint(0), (&[(a, 1.0), (y, 1.0)][..], Sense::Le, 5.0));
    }

    #[test]
    fn duplicate_terms_merge() {
        let mut m = Model::new();
        let a = m.add_binary("a", 0.0);
        m.add_constraint(&[(a, 1.0), (a, 2.0)], Sense::Le, 2.0);
        assert_eq!(m.cons[0].terms.len(), 1);
        assert_eq!(m.cons[0].terms[0].1, 3.0);
    }

    #[test]
    fn feasibility_checks_domains_and_rows() {
        let mut m = Model::new();
        let a = m.add_binary("a", 0.0);
        let y = m.add_continuous("y", 0.0, 2.0, 0.0);
        m.add_constraint(&[(a, 1.0), (y, 1.0)], Sense::Ge, 1.5);
        assert!(m.is_feasible(&[1.0, 0.5], 1e-9));
        assert!(!m.is_feasible(&[0.5, 1.0], 1e-9), "fractional binary");
        assert!(
            !m.is_feasible(&[1.0, 3.0], 1e-9),
            "continuous out of bounds"
        );
        assert!(!m.is_feasible(&[0.0, 1.0], 1e-9), "row violated");
        assert!(!m.is_feasible(&[1.0], 1e-9), "short vector");
    }

    #[test]
    fn objective_value() {
        let mut m = Model::new();
        let a = m.add_binary("a", 2.0);
        let b = m.add_binary("b", -1.0);
        assert_eq!(m.objective_value(&[1.0, 1.0]), 1.0);
        let _ = (a, b);
    }

    #[test]
    fn bad_bounds_panic() {
        let mut m = Model::new();
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.add_continuous("y", 2.0, 1.0, 0.0)
        }))
        .is_err());
    }
}
