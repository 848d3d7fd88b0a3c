//! Combinatorial bounders for pairwise vertex-cover ILPs: models whose
//! rows are all `x_u + x_v >= 1` over binaries with non-negative costs
//! (the paper's Eq. 2 per-component covers have exactly this shape).

use crate::branch::Bounder;
use crate::model::{Model, Sense, VarKind};

/// The cover structure extracted from a model: one `(u, v)` pair per row,
/// plus the per-variable objective costs.
#[derive(Debug, Clone)]
pub struct CoverProblem {
    pairs: Vec<(usize, usize)>,
    costs: Vec<f64>,
    degree: Vec<usize>,
}

impl CoverProblem {
    /// Recognizes a pure pairwise-cover model: every variable binary with
    /// cost `>= 0`, every constraint `1·x_u + 1·x_v >= 1`. Returns `None`
    /// when the model has any other shape.
    pub fn from_model(model: &Model) -> Option<Self> {
        let n = model.num_vars();
        let mut costs = Vec::with_capacity(n);
        for i in 0..n {
            let v = crate::VarId(i as u32);
            if !matches!(model.var_kind(v), VarKind::Binary) {
                return None;
            }
            let c = model.objective_coeff(v);
            if c < 0.0 || c.is_nan() {
                return None;
            }
            costs.push(c);
        }
        let mut pairs = Vec::with_capacity(model.num_constraints());
        let mut degree = vec![0usize; n];
        for c in &model.cons {
            if c.sense != Sense::Ge || (c.rhs - 1.0).abs() > 1e-9 || c.terms.len() != 2 {
                return None;
            }
            let (u, au) = (c.terms[0].0.index(), c.terms[0].1);
            let (v, av) = (c.terms[1].0.index(), c.terms[1].1);
            if (au - 1.0).abs() > 1e-9 || (av - 1.0).abs() > 1e-9 || u == v {
                return None;
            }
            degree[u] += 1;
            degree[v] += 1;
            pairs.push((u, v));
        }
        Some(CoverProblem {
            pairs,
            costs,
            degree,
        })
    }

    /// Cost of the variables already fixed to one; `None` when some pair
    /// has both endpoints fixed to zero (infeasible).
    fn chosen_cost(&self, fixed: &[Option<bool>]) -> Option<f64> {
        if self
            .pairs
            .iter()
            .any(|&(u, v)| fixed[u] == Some(false) && fixed[v] == Some(false))
        {
            return None;
        }
        Some(
            fixed
                .iter()
                .enumerate()
                .filter(|(_, f)| **f == Some(true))
                .map(|(i, _)| self.costs[i])
                .sum(),
        )
    }

    fn uncovered<'a>(
        &'a self,
        fixed: &'a [Option<bool>],
    ) -> impl Iterator<Item = (usize, usize)> + 'a {
        self.pairs
            .iter()
            .copied()
            .filter(move |&(u, v)| fixed[u] != Some(true) && fixed[v] != Some(true))
    }

    /// Greedy completion: repeatedly add the free vertex covering the most
    /// remaining pairs per unit cost. Used as `suggest_incumbent` by both
    /// bounders.
    fn greedy_completion(&self, model: &Model, fixed: &[Option<bool>]) -> Option<Vec<f64>> {
        self.chosen_cost(fixed)?;
        let n = self.costs.len();
        let mut chosen: Vec<bool> = (0..n).map(|i| fixed[i] == Some(true)).collect();
        let mut open: Vec<(usize, usize)> = self
            .pairs
            .iter()
            .copied()
            .filter(|&(u, v)| !chosen[u] && !chosen[v])
            .collect();
        while !open.is_empty() {
            let mut count = vec![0usize; n];
            for &(u, v) in &open {
                if fixed[u].is_none() {
                    count[u] += 1;
                }
                if fixed[v].is_none() {
                    count[v] += 1;
                }
            }
            let best = (0..n).filter(|&i| count[i] > 0).max_by(|&a, &b| {
                let ra = count[a] as f64 / self.costs[a].max(1e-9);
                let rb = count[b] as f64 / self.costs[b].max(1e-9);
                ra.total_cmp(&rb)
            })?;
            chosen[best] = true;
            open.retain(|&(u, v)| u != best && v != best);
        }
        let values: Vec<f64> = (0..model.num_vars())
            .map(|i| if chosen[i] { 1.0 } else { 0.0 })
            .collect();
        Some(values)
    }

    /// Branch on a free endpoint of an uncovered pair, preferring high
    /// degree (covers the most rows at once).
    fn branch_on_uncovered(&self, fixed: &[Option<bool>]) -> Option<usize> {
        self.uncovered(fixed)
            .flat_map(|(u, v)| [u, v])
            .filter(|&i| fixed[i].is_none())
            .max_by_key(|&i| self.degree[i])
    }
}

/// Matching-based cover bound: chosen cost plus, for each greedily picked
/// vertex-disjoint uncovered pair, the cheaper endpoint's cost (the pair
/// needs at least one of them).
#[derive(Debug, Clone)]
pub struct MatchingCoverBounder {
    prob: CoverProblem,
}

impl MatchingCoverBounder {
    /// Wraps an extracted [`CoverProblem`].
    pub fn new(prob: CoverProblem) -> Self {
        MatchingCoverBounder { prob }
    }
}

impl Bounder for MatchingCoverBounder {
    fn lower_bound(&mut self, _model: &Model, fixed: &[Option<bool>], _cutoff: f64) -> f64 {
        let Some(mut bound) = self.prob.chosen_cost(fixed) else {
            return f64::INFINITY;
        };
        let mut used = vec![false; fixed.len()];
        for (u, v) in self.prob.uncovered(fixed) {
            let free = |i: usize| fixed[i].is_none() && !used[i];
            if free(u) && free(v) {
                used[u] = true;
                used[v] = true;
                bound += self.prob.costs[u].min(self.prob.costs[v]);
            }
        }
        bound
    }

    fn suggest_incumbent(&mut self, model: &Model, fixed: &[Option<bool>]) -> Option<Vec<f64>> {
        self.prob.greedy_completion(model, fixed)
    }

    fn branch_hint(&self, _model: &Model, fixed: &[Option<bool>]) -> Option<usize> {
        self.prob.branch_on_uncovered(fixed)
    }
}

/// Degree-based cover bound: `k` additional vertices cover at most
/// `k · max_degree` pairs, so `k >= ⌈uncovered / max_degree⌉` and the added
/// cost is at least that many copies of the cheapest free vertex.
#[derive(Debug, Clone)]
pub struct DegreeCoverBounder {
    prob: CoverProblem,
}

impl DegreeCoverBounder {
    /// Wraps an extracted [`CoverProblem`].
    pub fn new(prob: CoverProblem) -> Self {
        DegreeCoverBounder { prob }
    }
}

impl Bounder for DegreeCoverBounder {
    fn lower_bound(&mut self, _model: &Model, fixed: &[Option<bool>], _cutoff: f64) -> f64 {
        let Some(mut bound) = self.prob.chosen_cost(fixed) else {
            return f64::INFINITY;
        };
        let mut uncovered = 0usize;
        let mut free_deg = vec![0usize; fixed.len()];
        for (u, v) in self.prob.uncovered(fixed) {
            uncovered += 1;
            if fixed[u].is_none() {
                free_deg[u] += 1;
            }
            if fixed[v].is_none() {
                free_deg[v] += 1;
            }
        }
        if uncovered > 0 {
            let max_deg = free_deg.iter().copied().max().unwrap_or(0);
            if max_deg == 0 {
                return f64::INFINITY;
            }
            let min_cost = (0..fixed.len())
                .filter(|&i| free_deg[i] > 0)
                .map(|i| self.prob.costs[i])
                .fold(f64::INFINITY, f64::min);
            bound += uncovered.div_ceil(max_deg) as f64 * min_cost;
        }
        bound
    }

    fn suggest_incumbent(&mut self, model: &Model, fixed: &[Option<bool>]) -> Option<Vec<f64>> {
        self.prob.greedy_completion(model, fixed)
    }

    fn branch_hint(&self, _model: &Model, fixed: &[Option<bool>]) -> Option<usize> {
        self.prob.branch_on_uncovered(fixed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BranchBound;

    fn c5() -> Model {
        let mut m = Model::new();
        let xs: Vec<_> = (0..5).map(|i| m.add_binary(format!("x{i}"), 1.0)).collect();
        for i in 0..5 {
            m.add_constraint(&[(xs[i], 1.0), (xs[(i + 1) % 5], 1.0)], Sense::Ge, 1.0);
        }
        m
    }

    #[test]
    fn recognizes_cover_shape() {
        let m = c5();
        let prob = CoverProblem::from_model(&m).unwrap();
        assert_eq!(prob.pairs.len(), 5);
        // A knapsack row breaks the shape.
        let mut m2 = c5();
        let extra = m2.add_binary("y", 1.0);
        m2.add_constraint(&[(extra, 2.0)], Sense::Le, 4.0);
        assert!(CoverProblem::from_model(&m2).is_none());
    }

    #[test]
    fn matching_and_degree_bounders_find_c5_optimum() {
        let m = c5();
        let prob = CoverProblem::from_model(&m).unwrap();
        let matching = BranchBound::new()
            .solve_with(&m, MatchingCoverBounder::new(prob.clone()))
            .unwrap();
        let degree = BranchBound::new()
            .solve_with(&m, DegreeCoverBounder::new(prob))
            .unwrap();
        assert_eq!(matching.objective.round() as i64, 3);
        assert_eq!(degree.objective.round() as i64, 3);
    }
}
