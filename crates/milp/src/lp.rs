//! A dense bounded-variable dual simplex for linear-programming
//! relaxations.
//!
//! The solver targets the LP relaxations that arise in this workspace
//! (vertex-cover kernels, small weighted VH-labeling models, unit tests);
//! it trades sparsity for simplicity and is intentionally dense. Larger
//! instances go through the combinatorial [`crate::Bounder`] path instead.
//!
//! A solve presolves the model (see [`Simplex::solve`]), then runs the
//! dual simplex on one flat tableau over the surviving columns plus one
//! logical column per row. Bounds stay implicit: a nonbasic column sits at
//! one of its bounds and the logicals' bounds encode the row senses, so
//! there are no bound rows and no artificials. The start is the
//! all-logical basis with each column at the bound its cost prefers, which
//! is dual feasible, so there is no phase 1 either: each pivot repairs the
//! most violated row until the basis is primal feasible, hence optimal.

use flowc_budget::Budget;

use crate::model::{Model, Sense, VarKind};

/// Outcome of an LP solve.
#[derive(Debug, Clone, PartialEq)]
pub enum LpResult {
    /// An optimal solution: variable values (model order) and objective.
    Optimal {
        /// Values of the model's variables.
        x: Vec<f64>,
        /// Objective value `cᵀx`.
        objective: f64,
    },
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// The solver's budget was cancelled or ran past its deadline before
    /// the solve finished; nothing is known about the optimum.
    Interrupted,
}

/// Numerical tolerance used throughout the simplex.
const EPS: f64 = 1e-9;
/// Iteration budget multiplier before declaring a stall (switch to Bland).
const DANTZIG_LIMIT_FACTOR: usize = 4;
/// The upper bound given to a column with a negative cost and none of its
/// own. A bounded LP whose optimum needs such a column above this value
/// reads as unbounded; no model in this workspace comes near it.
const ARTIFICIAL_BOUND: f64 = 1e7;

/// A dense bounded-variable dual simplex solver. Construct with
/// [`Simplex::new`], then call [`Simplex::solve`].
#[derive(Debug, Default, Clone)]
pub struct Simplex {
    budget: Option<Budget>,
}

impl Simplex {
    /// Creates a solver with default settings.
    pub fn new() -> Self {
        Simplex::default()
    }

    /// Checks `budget` before every pivot: once it is cancelled or past
    /// its deadline, [`Simplex::solve`] answers [`LpResult::Interrupted`].
    /// A dense solve can run for seconds, so without this a caller's
    /// budget would go unheard for as long.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Solves the LP relaxation of `model` (binaries relaxed to `[0,1]`).
    ///
    /// Fixed assignments can be imposed by passing `fixed`, a slice of
    /// `(var_index, value)` pairs that overrides those variables' bounds.
    ///
    /// Presolve first substitutes fixed columns out, drops rows every box
    /// point satisfies, and eliminates zero-cost bounded columns (at a
    /// favorable bound, or by bounded Fourier–Motzkin between one opposing
    /// pair of `≥` rows). Eliminated columns come back at an integral
    /// endpoint of their feasible interval where one exists, which is what
    /// leaves Eq. 4's orientation binaries at 0 or 1 in the returned point.
    pub fn solve(&self, model: &Model, fixed: &[(usize, f64)]) -> LpResult {
        // Effective bounds per variable.
        let n = model.num_vars();
        let mut lb = vec![0.0f64; n];
        let mut ub = vec![f64::INFINITY; n];
        for (i, v) in model.vars.iter().enumerate() {
            match v.kind {
                VarKind::Binary => {
                    lb[i] = 0.0;
                    ub[i] = 1.0;
                }
                VarKind::Continuous { lb: l, ub: u } => {
                    lb[i] = l;
                    ub[i] = u;
                }
            }
        }
        for &(i, val) in fixed {
            lb[i] = val;
            ub[i] = val;
        }
        for i in 0..n {
            if lb[i] > ub[i] + EPS {
                return LpResult::Infeasible;
            }
            if !lb[i].is_finite() {
                // Free-below variables are not produced by this workspace;
                // clamp to a large negative box to stay dense-friendly.
                lb[i] = -1e12;
            }
        }

        // Shift x = lb + x', x' in [0, ub-lb]. Rewrite rows accordingly;
        // columns with zero range (fixed variables) are substituted out —
        // their shifted value is identically zero.
        let range: Vec<f64> = (0..n).map(|i| (ub[i] - lb[i]).max(0.0)).collect();
        let mut rows: Vec<Row> = Vec::with_capacity(model.num_constraints());
        for c in &model.cons {
            let mut coeffs = vec![0.0; n];
            let mut rhs = c.rhs;
            for &(v, a) in &c.terms {
                rhs -= a * lb[v.index()];
                if range[v.index()] > EPS {
                    coeffs[v.index()] += a;
                }
            }
            rows.push(Row {
                coeffs,
                sense: c.sense,
                rhs,
                alive: true,
            });
        }

        let mut eliminated = vec![false; n];
        let mut elims: Vec<Elim> = Vec::new();
        if presolve(model, &range, &mut rows, &mut eliminated, &mut elims).is_err() {
            return LpResult::Infeasible;
        }

        // The live columns. One with a negative cost and no finite upper
        // bound gets an artificial one, so the all-logical start is dual
        // feasible; the LP is unbounded when the optimum leaves it at that
        // bound with a reduced cost that still wants it higher.
        let cols: Vec<usize> = (0..n)
            .filter(|&i| range[i] > EPS && !eliminated[i])
            .collect();
        let cost: Vec<f64> = cols.iter().map(|&i| model.vars[i].obj).collect();
        let upper: Vec<f64> = cols
            .iter()
            .zip(&cost)
            .map(|(&i, &c)| {
                if c < 0.0 && !range[i].is_finite() {
                    ARTIFICIAL_BOUND
                } else {
                    range[i]
                }
            })
            .collect();
        let live: Vec<&Row> = rows.iter().filter(|r| r.alive).collect();
        let mut dual = DualSimplex::new(&live, &cols, &cost, upper);
        match dual.run(self.budget.as_ref()) {
            Pivots::Optimal => {}
            Pivots::Infeasible => return LpResult::Infeasible,
            Pivots::Interrupted => return LpResult::Interrupted,
        }
        let unbounded = (0..cols.len())
            .any(|c| dual.upper[c] == ARTIFICIAL_BOUND && dual.at_upper[c] && dual.d[c] < -EPS);
        if unbounded {
            return LpResult::Unbounded;
        }

        // Map the shifted values back to model columns.
        let mut x = lb.clone();
        for (&i, value) in cols.iter().zip(dual.values()) {
            x[i] = lb[i] + value;
        }
        // Reconstruct eliminated columns in reverse elimination order: a
        // later elimination's rows never mention an earlier eliminated
        // variable, so each step sees fully reconstructed neighbors.
        for e in elims.iter().rev() {
            match e {
                Elim::AtValue { var, value } => x[*var] = lb[*var] + value,
                Elim::Pair {
                    var,
                    range: r,
                    pos,
                    pos_coeff,
                    pos_rhs,
                    neg,
                    neg_coeff,
                    neg_rhs,
                } => {
                    let eval = |terms: &[(usize, f64)]| -> f64 {
                        terms.iter().map(|&(v, c)| c * (x[v] - lb[v])).sum()
                    };
                    let lo = ((pos_rhs - eval(pos)) / pos_coeff).max(0.0);
                    let hi = ((eval(neg) - neg_rhs) / neg_coeff).min(*r);
                    // Prefer an integral endpoint of the feasible interval.
                    let value = if lo <= EPS {
                        0.0
                    } else if hi >= r - EPS {
                        *r
                    } else {
                        lo.min(*r)
                    };
                    x[*var] = lb[*var] + value;
                }
            }
        }
        let objective = model.objective_value(&x);
        LpResult::Optimal { x, objective }
    }
}

/// A shifted model row during presolve (dense coefficients over all
/// structural columns; `alive == false` once dropped or replaced).
struct Row {
    coeffs: Vec<f64>,
    sense: Sense,
    rhs: f64,
    alive: bool,
}

/// Record of a presolve column elimination, for solution reconstruction.
/// All coefficients and right-hand sides live in the *shifted* space
/// (`x' = x − lb`), and `AtValue`/interval values are shifted too.
enum Elim {
    /// The column was set to a fixed shifted value (favorable bound of a
    /// zero-cost variable, or an unconstrained column pinned at zero).
    AtValue { var: usize, value: f64 },
    /// Bounded Fourier–Motzkin elimination of a zero-cost column from one
    /// positive-coefficient `≥` row (`pos`) and one negative-coefficient
    /// `≥` row (`neg`); `pos_coeff`/`neg_coeff` are the magnitudes.
    Pair {
        var: usize,
        range: f64,
        pos: Vec<(usize, f64)>,
        pos_coeff: f64,
        pos_rhs: f64,
        neg: Vec<(usize, f64)>,
        neg_coeff: f64,
        neg_rhs: f64,
    },
}

/// Minimum and maximum activity of a shifted row over the box
/// `x' ∈ [0, range]`, skipping numerically-zero coefficients.
fn activity(coeffs: &[f64], range: &[f64]) -> (f64, f64) {
    let mut lo = 0.0f64;
    let mut hi = 0.0f64;
    for (i, &c) in coeffs.iter().enumerate() {
        if c > EPS {
            hi += c * range[i];
        } else if c < -EPS {
            lo += c * range[i];
        }
    }
    (lo, hi)
}

/// Drops a row as redundant if every box point satisfies it; reports
/// `Err(())` if no box point can. Returns whether the row stays alive.
fn vet_row(row: &mut Row, range: &[f64]) -> Result<(), ()> {
    let (lo, hi) = activity(&row.coeffs, range);
    match row.sense {
        Sense::Ge => {
            if hi < row.rhs - 1e-6 {
                return Err(());
            }
            if lo >= row.rhs - EPS {
                row.alive = false;
            }
        }
        Sense::Le => {
            if lo > row.rhs + 1e-6 {
                return Err(());
            }
            if hi <= row.rhs + EPS {
                row.alive = false;
            }
        }
        Sense::Eq => {
            if hi < row.rhs - 1e-6 || lo > row.rhs + 1e-6 {
                return Err(());
            }
        }
    }
    Ok(())
}

/// Presolve on the shifted rows: activity-based row dropping with quick
/// infeasibility detection, then elimination of zero-objective bounded
/// columns that the relaxation can always set freely — either at a
/// favorable bound (all occurrences relax the same way) or via bounded
/// Fourier–Motzkin when the column sits between exactly one pair of
/// opposing `≥` rows (the Eq. 4 orientation binaries). Returns `Err(())`
/// when the rows are infeasible over the box.
fn presolve(
    model: &Model,
    range: &[f64],
    rows: &mut Vec<Row>,
    eliminated: &mut [bool],
    elims: &mut Vec<Elim>,
) -> Result<(), ()> {
    let n = model.num_vars();
    for row in rows.iter_mut() {
        vet_row(row, range)?;
    }
    for j in 0..n {
        if model.vars[j].obj != 0.0 || range[j] <= EPS || !range[j].is_finite() {
            continue;
        }
        let occ: Vec<usize> = (0..rows.len())
            .filter(|&ri| rows[ri].alive && rows[ri].coeffs[j].abs() > EPS)
            .collect();
        // Direction each occurrence relaxes toward: +1 if the row loosens
        // as x_j grows, −1 if it tightens, 0 for equations (never touched).
        let dir = |ri: usize| -> i8 {
            let c = rows[ri].coeffs[j];
            match rows[ri].sense {
                Sense::Eq => 0,
                Sense::Ge => {
                    if c > 0.0 {
                        1
                    } else {
                        -1
                    }
                }
                Sense::Le => {
                    if c > 0.0 {
                        -1
                    } else {
                        1
                    }
                }
            }
        };
        if occ.is_empty() {
            eliminated[j] = true;
            elims.push(Elim::AtValue { var: j, value: 0.0 });
        } else if occ.iter().all(|&ri| dir(ri) == 1) {
            // Every row loosens as x_j grows: pin at the upper bound.
            for &ri in &occ {
                let c = rows[ri].coeffs[j];
                rows[ri].rhs -= c * range[j];
                rows[ri].coeffs[j] = 0.0;
                vet_row(&mut rows[ri], range)?;
            }
            eliminated[j] = true;
            elims.push(Elim::AtValue {
                var: j,
                value: range[j],
            });
        } else if occ.iter().all(|&ri| dir(ri) == -1) {
            // Every row loosens as x_j shrinks: pin at zero.
            for &ri in &occ {
                rows[ri].coeffs[j] = 0.0;
                vet_row(&mut rows[ri], range)?;
            }
            eliminated[j] = true;
            elims.push(Elim::AtValue { var: j, value: 0.0 });
        } else if occ.len() == 2
            && rows[occ[0]].sense == Sense::Ge
            && rows[occ[1]].sense == Sense::Ge
            && (rows[occ[0]].coeffs[j] > 0.0) != (rows[occ[1]].coeffs[j] > 0.0)
        {
            let (pi, ni) = if rows[occ[0]].coeffs[j] > 0.0 {
                (occ[0], occ[1])
            } else {
                (occ[1], occ[0])
            };
            let a1 = rows[pi].coeffs[j];
            let a2 = -rows[ni].coeffs[j];
            let sparse = |ri: usize| -> Vec<(usize, f64)> {
                rows[ri]
                    .coeffs
                    .iter()
                    .enumerate()
                    .filter(|&(v, &c)| v != j && c.abs() > EPS)
                    .map(|(v, &c)| (v, c))
                    .collect()
            };
            let (pos, neg) = (sparse(pi), sparse(ni));
            let (pos_rhs, neg_rhs) = (rows[pi].rhs, rows[ni].rhs);
            rows[pi].alive = false;
            rows[ni].alive = false;
            // x_j ∈ [0, u] exists between the two rows iff:
            //   pos at x_j = u:   rest_pos ≥ pos_rhs − a1·u
            //   neg at x_j = 0:   rest_neg ≥ neg_rhs
            //   cross pair:       a2·rest_pos + a1·rest_neg ≥ a2·pos_rhs + a1·neg_rhs
            let mut fresh = Vec::with_capacity(3);
            let mut at_upper = vec![0.0; n];
            for &(v, c) in &pos {
                at_upper[v] = c;
            }
            fresh.push(Row {
                coeffs: at_upper,
                sense: Sense::Ge,
                rhs: pos_rhs - a1 * range[j],
                alive: true,
            });
            let mut at_zero = vec![0.0; n];
            for &(v, c) in &neg {
                at_zero[v] = c;
            }
            fresh.push(Row {
                coeffs: at_zero,
                sense: Sense::Ge,
                rhs: neg_rhs,
                alive: true,
            });
            let mut cross = vec![0.0; n];
            for &(v, c) in &pos {
                cross[v] += a2 * c;
            }
            for &(v, c) in &neg {
                cross[v] += a1 * c;
            }
            fresh.push(Row {
                coeffs: cross,
                sense: Sense::Ge,
                rhs: a2 * pos_rhs + a1 * neg_rhs,
                alive: true,
            });
            for mut row in fresh {
                vet_row(&mut row, range)?;
                if row.alive {
                    rows.push(row);
                }
            }
            eliminated[j] = true;
            elims.push(Elim::Pair {
                var: j,
                range: range[j],
                pos,
                pos_coeff: a1,
                pos_rhs,
                neg,
                neg_coeff: a2,
                neg_rhs,
            });
        }
    }
    Ok(())
}

/// How a dual simplex run ended.
enum Pivots {
    Optimal,
    Infeasible,
    Interrupted,
}

/// A bounded-variable dual simplex on one flat tableau `B⁻¹[A | I]`.
///
/// Columns are the live structurals, then one logical per row. In the
/// shifted space every column's lower bound is 0: a structural's upper
/// bound is its range, and row `i`'s logical `sᵢ = bᵢ − aᵢ·x` is boxed by
/// its sense (`≥` rows are negated to `≤` first, so an inequality's
/// logical is `[0, ∞)` and an equation's is `[0, 0]`). A nonbasic column
/// sits at one of its bounds; nothing else encodes a bound.
struct DualSimplex {
    /// Number of rows.
    m: usize,
    /// Number of columns: structurals then logicals.
    width: usize,
    /// The tableau, `m × width`, row-major.
    t: Vec<f64>,
    /// Reduced costs, one per column (0 on basic columns).
    d: Vec<f64>,
    /// Value of the basic column of each row.
    beta: Vec<f64>,
    /// The basic column of each row.
    basis: Vec<usize>,
    basic: Vec<bool>,
    upper: Vec<f64>,
    /// Whether a column is nonbasic at its upper bound (else basic or
    /// at 0).
    at_upper: Vec<bool>,
}

impl DualSimplex {
    /// The all-logical basis, with each structural at the bound that makes
    /// its reduced cost (its cost) dual feasible. `upper` holds the
    /// structurals' upper bounds and must be finite wherever `cost` is
    /// negative.
    fn new(rows: &[&Row], cols: &[usize], cost: &[f64], mut upper: Vec<f64>) -> Self {
        let (m, k) = (rows.len(), cols.len());
        let width = k + m;
        let mut t = vec![0.0; m * width];
        let mut beta = vec![0.0; m];
        let at_upper: Vec<bool> = (0..width).map(|c| c < k && cost[c] < 0.0).collect();
        for (i, row) in rows.iter().enumerate() {
            let sign = if row.sense == Sense::Ge { -1.0 } else { 1.0 };
            let cells = &mut t[i * width..(i + 1) * width];
            let mut value = sign * row.rhs;
            for (c, &j) in cols.iter().enumerate() {
                cells[c] = sign * row.coeffs[j];
                if at_upper[c] {
                    value -= cells[c] * upper[c];
                }
            }
            cells[k + i] = 1.0;
            beta[i] = value;
        }
        let mut d = vec![0.0; width];
        d[..k].copy_from_slice(cost);
        upper.extend(rows.iter().map(|row| match row.sense {
            Sense::Eq => 0.0,
            Sense::Le | Sense::Ge => f64::INFINITY,
        }));
        let mut basic = vec![false; width];
        basic[k..].fill(true);
        DualSimplex {
            m,
            width,
            t,
            d,
            beta,
            basis: (k..width).collect(),
            basic,
            upper,
            at_upper,
        }
    }

    /// Pivots until the basis is primal feasible (optimal, since every
    /// pivot keeps it dual feasible), or a row proves the rows infeasible,
    /// or `budget` is spent. Dantzig-like pricing (largest infeasibility)
    /// switches to Bland's rule once the run is long enough to suspect a
    /// cycle.
    fn run(&mut self, budget: Option<&Budget>) -> Pivots {
        let bland_after = DANTZIG_LIMIT_FACTOR * (self.m + self.width) + 200;
        let mut pivot_row: Vec<(usize, f64)> = Vec::with_capacity(self.width);
        let mut pivots = 0usize;
        loop {
            if budget.is_some_and(|b| b.check().is_err()) {
                return Pivots::Interrupted;
            }
            let bland = pivots >= bland_after;
            let Some(r) = self.leaving_row(bland) else {
                return Pivots::Optimal;
            };
            let Some(q) = self.entering_column(r, bland) else {
                return Pivots::Infeasible;
            };
            self.pivot(r, q, &mut pivot_row);
            pivots += 1;
        }
    }

    /// The row whose basic column is furthest outside its bounds (the
    /// lowest such column under Bland's rule), if any.
    fn leaving_row(&self, bland: bool) -> Option<usize> {
        let mut leave = None;
        let mut worst = EPS;
        for (r, &p) in self.basis.iter().enumerate() {
            let v = self.beta[r];
            let off = (-v).max(v - self.upper[p]);
            if off <= EPS {
                continue;
            }
            let better = match leave {
                None => true,
                Some(l) if bland => p < self.basis[l],
                Some(_) => off > worst,
            };
            if better {
                leave = Some(r);
                worst = off;
            }
        }
        leave
    }

    /// The value of every structural column (the first `width − m`).
    fn values(&self) -> Vec<f64> {
        let mut x: Vec<f64> = (0..self.width)
            .map(|j| if self.at_upper[j] { self.upper[j] } else { 0.0 })
            .collect();
        for (&j, &v) in self.basis.iter().zip(&self.beta) {
            x[j] = v;
        }
        x.truncate(self.width - self.m);
        x
    }

    /// The dual ratio test on row `r`: among the nonbasic columns that can
    /// move the leaving column toward its violated bound, the one whose
    /// reduced cost reaches zero first, ties by the larger |pivot| (by the
    /// lowest index under Bland's rule). `None` proves the rows infeasible.
    fn entering_column(&self, r: usize, bland: bool) -> Option<usize> {
        let row = &self.t[r * self.width..(r + 1) * self.width];
        // +1 when the leaving column must rise to 0, −1 when it must fall
        // to its upper bound.
        let dir = if self.beta[r] < 0.0 { 1.0 } else { -1.0 };
        let mut enter = None;
        let (mut best_ratio, mut best_pivot) = (f64::INFINITY, 0.0f64);
        for (j, &alpha) in row.iter().enumerate() {
            if self.basic[j] || alpha.abs() <= EPS || self.upper[j] == 0.0 {
                continue;
            }
            // Raising a column at 0 moves the leaving one by −alpha per
            // unit; lowering one at its upper bound moves it by +alpha.
            let slack = if self.at_upper[j] {
                if dir * alpha <= 0.0 {
                    continue;
                }
                -self.d[j]
            } else {
                if dir * alpha >= 0.0 {
                    continue;
                }
                self.d[j]
            };
            let ratio = slack.max(0.0) / alpha.abs();
            let better = if ratio < best_ratio - EPS {
                true
            } else {
                ratio <= best_ratio + EPS && !bland && alpha.abs() > best_pivot
            };
            if better {
                enter = Some(j);
                best_ratio = ratio.min(best_ratio);
                best_pivot = alpha.abs();
            }
        }
        enter
    }

    /// Moves the leaving column of row `r` to its violated bound by moving
    /// column `q`, then makes `q` basic in row `r` (a Gauss-Jordan pivot of
    /// the tableau and the reduced costs). `pivot_row` is scratch space.
    fn pivot(&mut self, r: usize, q: usize, pivot_row: &mut Vec<(usize, f64)>) {
        let w = self.width;
        let p = self.basis[r];
        let alpha = self.t[r * w + q];
        let to_upper = self.beta[r] > 0.0;
        let target = if to_upper { self.upper[p] } else { 0.0 };
        let step = (self.beta[r] - target) / alpha;
        for i in 0..self.m {
            self.beta[i] -= self.t[i * w + q] * step;
        }
        self.beta[r] = if self.at_upper[q] { self.upper[q] } else { 0.0 } + step;
        self.basis[r] = q;
        self.basic[q] = true;
        self.basic[p] = false;
        self.at_upper[q] = false;
        self.at_upper[p] = to_upper;

        // Only the pivot row's nonzeros touch the other rows.
        pivot_row.clear();
        for (j, cell) in self.t[r * w..(r + 1) * w].iter_mut().enumerate() {
            if *cell != 0.0 {
                *cell /= alpha;
                pivot_row.push((j, *cell));
            }
        }
        for (i, cells) in self.t.chunks_exact_mut(w).enumerate() {
            let factor = cells[q];
            if i == r || factor == 0.0 {
                continue;
            }
            for &(j, v) in pivot_row.iter() {
                cells[j] -= factor * v;
            }
            cells[q] = 0.0;
        }
        let factor = self.d[q];
        if factor != 0.0 {
            for &(j, v) in pivot_row.iter() {
                self.d[j] -= factor * v;
            }
            self.d[q] = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn simple_2d_lp() {
        // min -x - 2y  s.t. x + y <= 4, x <= 2, y <= 3, x,y >= 0.
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 2.0, -1.0);
        let y = m.add_continuous("y", 0.0, 3.0, -2.0);
        m.add_constraint(&[(x, 1.0), (y, 1.0)], Sense::Le, 4.0);
        match Simplex::new().solve(&m, &[]) {
            LpResult::Optimal { x: sol, objective } => {
                assert_close(objective, -7.0);
                assert_close(sol[0], 1.0);
                assert_close(sol[1], 3.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ge_and_eq_constraints() {
        // min x + y  s.t. x + y >= 3, x - y = 1  -> x = 2, y = 1.
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, f64::INFINITY, 1.0);
        let y = m.add_continuous("y", 0.0, f64::INFINITY, 1.0);
        m.add_constraint(&[(x, 1.0), (y, 1.0)], Sense::Ge, 3.0);
        m.add_constraint(&[(x, 1.0), (y, -1.0)], Sense::Eq, 1.0);
        match Simplex::new().solve(&m, &[]) {
            LpResult::Optimal { x: sol, objective } => {
                assert_close(objective, 3.0);
                assert_close(sol[0], 2.0);
                assert_close(sol[1], 1.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 1.0, 1.0);
        m.add_constraint(&[(x, 1.0)], Sense::Ge, 2.0);
        assert_eq!(Simplex::new().solve(&m, &[]), LpResult::Infeasible);
    }

    #[test]
    fn a_spent_budget_interrupts_the_solve() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 10.0, 1.0);
        let y = m.add_continuous("y", 0.0, 10.0, 1.0);
        m.add_constraint(&[(x, 1.0), (y, 1.0)], Sense::Ge, 3.0);
        let budget = Budget::unlimited();
        budget.cancel_handle().cancel();
        let solver = Simplex::new().with_budget(budget);
        assert_eq!(solver.solve(&m, &[]), LpResult::Interrupted);
        // A live budget changes nothing.
        let live = Simplex::new().with_budget(Budget::unlimited());
        assert_eq!(live.solve(&m, &[]), Simplex::new().solve(&m, &[]));
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, f64::INFINITY, -1.0);
        m.add_constraint(&[(x, 1.0)], Sense::Ge, 0.0);
        assert_eq!(Simplex::new().solve(&m, &[]), LpResult::Unbounded);
    }

    #[test]
    fn binary_relaxation_is_boxed() {
        // min -x over binary x: LP relaxation gives x = 1.
        let mut m = Model::new();
        let _x = m.add_binary("x", -1.0);
        match Simplex::new().solve(&m, &[]) {
            LpResult::Optimal { x: sol, objective } => {
                assert_close(sol[0], 1.0);
                assert_close(objective, -1.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fixed_overrides_bounds() {
        let mut m = Model::new();
        let x = m.add_binary("x", -1.0);
        let y = m.add_binary("y", -1.0);
        m.add_constraint(&[(x, 1.0), (y, 1.0)], Sense::Le, 2.0);
        match Simplex::new().solve(&m, &[(x.index(), 0.0)]) {
            LpResult::Optimal { x: sol, objective } => {
                assert_close(sol[0], 0.0);
                assert_close(sol[1], 1.0);
                assert_close(objective, -1.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn contradictory_fixing_is_infeasible() {
        let mut m = Model::new();
        let x = m.add_binary("x", 0.0);
        m.add_constraint(&[(x, 1.0)], Sense::Ge, 1.0);
        assert_eq!(
            Simplex::new().solve(&m, &[(x.index(), 0.0)]),
            LpResult::Infeasible
        );
    }

    #[test]
    fn vertex_cover_lp_is_half_integral_on_triangle() {
        // VC LP on a triangle: optimum 1.5 with all x = 1/2.
        let mut m = Model::new();
        let a = m.add_binary("a", 1.0);
        let b = m.add_binary("b", 1.0);
        let c = m.add_binary("c", 1.0);
        for (u, v) in [(a, b), (b, c), (a, c)] {
            m.add_constraint(&[(u, 1.0), (v, 1.0)], Sense::Ge, 1.0);
        }
        match Simplex::new().solve(&m, &[]) {
            LpResult::Optimal { objective, .. } => assert_close(objective, 1.5),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn degenerate_lp_terminates() {
        // A classic degenerate instance; Bland fallback must terminate.
        let mut m = Model::new();
        let x1 = m.add_continuous("x1", 0.0, f64::INFINITY, -0.75);
        let x2 = m.add_continuous("x2", 0.0, f64::INFINITY, 150.0);
        let x3 = m.add_continuous("x3", 0.0, f64::INFINITY, -0.02);
        let x4 = m.add_continuous("x4", 0.0, f64::INFINITY, 6.0);
        m.add_constraint(
            &[(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
            Sense::Le,
            0.0,
        );
        m.add_constraint(
            &[(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
            Sense::Le,
            0.0,
        );
        m.add_constraint(&[(x3, 1.0)], Sense::Le, 1.0);
        match Simplex::new().solve(&m, &[]) {
            LpResult::Optimal { objective, .. } => assert_close(objective, -0.05),
            other => panic!("unexpected {other:?}"),
        }
    }
}
