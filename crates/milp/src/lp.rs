//! A dense two-phase primal simplex for linear-programming relaxations.
//!
//! The solver targets the LP relaxations that arise in this workspace
//! (vertex-cover kernels, small weighted VH-labeling models, unit tests);
//! it trades sparsity for simplicity and is intentionally dense. Larger
//! instances go through the combinatorial [`crate::Bounder`] path instead.

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

/// A dense two-phase primal simplex solver. Construct with
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

        // Compact the live columns and append their upper-bound rows.
        let cols: Vec<usize> = (0..n)
            .filter(|&i| range[i] > EPS && !eliminated[i])
            .collect();
        let k = cols.len();
        let mut trows: Vec<TRow> = Vec::with_capacity(rows.len() + k);
        for row in rows.iter().filter(|r| r.alive) {
            trows.push(TRow {
                coeffs: cols.iter().map(|&i| row.coeffs[i]).collect(),
                sense: row.sense,
                rhs: row.rhs,
            });
        }
        for (ci, &i) in cols.iter().enumerate() {
            if range[i].is_finite() {
                let mut coeffs = vec![0.0; k];
                coeffs[ci] = 1.0;
                trows.push(TRow {
                    coeffs,
                    sense: Sense::Le,
                    rhs: range[i],
                });
            }
        }

        // Normalize to nonnegative rhs.
        for r in &mut trows {
            if r.rhs < 0.0 {
                for c in &mut r.coeffs {
                    *c = -*c;
                }
                r.rhs = -r.rhs;
                r.sense = match r.sense {
                    Sense::Le => Sense::Ge,
                    Sense::Ge => Sense::Le,
                    Sense::Eq => Sense::Eq,
                };
            }
        }

        let m = trows.len();
        // Column layout: [structural k][slack/surplus s][artificial a][rhs].
        let num_slack = trows
            .iter()
            .filter(|r| !matches!(r.sense, Sense::Eq))
            .count();
        // A `≥` row with zero rhs needs no artificial: negating it turns
        // the surplus into a plain basic slack at value zero, so only
        // strictly positive `≥` rows (and equations) enter phase 1.
        let num_art = trows
            .iter()
            .filter(|r| match r.sense {
                Sense::Le => false,
                Sense::Ge => r.rhs > EPS,
                Sense::Eq => true,
            })
            .count();
        let total = k + num_slack + num_art;
        let mut t = vec![vec![0.0f64; total + 1]; m + 1];
        let mut basis = vec![usize::MAX; m];
        let mut slack_idx = k;
        let mut art_idx = k + num_slack;
        let mut art_cols: Vec<usize> = Vec::new();
        for (ri, row) in trows.iter().enumerate() {
            t[ri][..k].copy_from_slice(&row.coeffs);
            t[ri][total] = row.rhs;
            match row.sense {
                Sense::Le => {
                    t[ri][slack_idx] = 1.0;
                    basis[ri] = slack_idx;
                    slack_idx += 1;
                }
                Sense::Ge if row.rhs <= EPS => {
                    // a·x ≥ 0  ⇔  −a·x + s = 0 with s ≥ 0 basic.
                    for cell in t[ri].iter_mut().take(k) {
                        *cell = -*cell;
                    }
                    t[ri][total] = 0.0;
                    t[ri][slack_idx] = 1.0;
                    basis[ri] = slack_idx;
                    slack_idx += 1;
                }
                Sense::Ge => {
                    t[ri][slack_idx] = -1.0;
                    slack_idx += 1;
                    t[ri][art_idx] = 1.0;
                    basis[ri] = art_idx;
                    art_cols.push(art_idx);
                    art_idx += 1;
                }
                Sense::Eq => {
                    t[ri][art_idx] = 1.0;
                    basis[ri] = art_idx;
                    art_cols.push(art_idx);
                    art_idx += 1;
                }
            }
        }

        // Phase 1: minimize the sum of artificials.
        if !art_cols.is_empty() {
            for &c in &art_cols {
                t[m][c] = 1.0;
            }
            // Price out the artificial basis.
            for ri in 0..m {
                if art_cols.contains(&basis[ri]) {
                    let pivot_row: Vec<f64> = t[ri].clone();
                    for (j, obj) in t[m].iter_mut().enumerate() {
                        *obj -= pivot_row[j];
                    }
                }
            }
            match run_simplex(&mut t, &mut basis, total, self.budget.as_ref()) {
                Pivots::Optimal => {}
                // Phase-1 objective is bounded by construction; unbounded
                // here indicates numerical trouble — treat as infeasible.
                Pivots::Unbounded => return LpResult::Infeasible,
                Pivots::Interrupted => return LpResult::Interrupted,
            }
            if -t[m][total] > 1e-6 {
                return LpResult::Infeasible;
            }
            // Drive any remaining artificial out of the basis if possible.
            for ri in 0..m {
                if art_cols.contains(&basis[ri]) {
                    if let Some(j) = (0..k + num_slack).find(|&j| t[ri][j].abs() > 1e-7) {
                        pivot(&mut t, ri, j, total);
                        basis[ri] = j;
                    }
                }
            }
            // Zero the phase-1 objective row and forbid artificial columns.
            for cell in t[m].iter_mut().take(total + 1) {
                *cell = 0.0;
            }
            for row in t.iter_mut().take(m) {
                for &c in &art_cols {
                    row[c] = 0.0;
                }
            }
        }

        // Phase 2 objective (shifted model objective over structurals).
        for (ci, &i) in cols.iter().enumerate() {
            t[m][ci] = model.vars[i].obj;
        }
        // Price out basic structural columns.
        for ri in 0..m {
            let b = basis[ri];
            if t[m][b].abs() > 0.0 {
                let coeff = t[m][b];
                let pivot_row: Vec<f64> = t[ri].clone();
                for (j, obj) in t[m].iter_mut().enumerate() {
                    *obj -= coeff * pivot_row[j];
                }
            }
        }
        match run_simplex(&mut t, &mut basis, total, self.budget.as_ref()) {
            Pivots::Optimal => {}
            Pivots::Unbounded => return LpResult::Unbounded,
            Pivots::Interrupted => return LpResult::Interrupted,
        }

        // Extract solution (shifted basics mapped back to model columns).
        let mut x = lb.clone();
        for ri in 0..m {
            if basis[ri] < k {
                x[cols[basis[ri]]] = lb[cols[basis[ri]]] + t[ri][total];
            }
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

/// A compacted tableau row (dense over the surviving columns).
struct TRow {
    coeffs: Vec<f64>,
    sense: Sense,
    rhs: f64,
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

/// How a run of simplex iterations ended.
enum Pivots {
    Optimal,
    Unbounded,
    Interrupted,
}

/// Runs primal simplex iterations on the tableau until optimal or
/// unbounded, or until `budget` is spent.
fn run_simplex(
    t: &mut [Vec<f64>],
    basis: &mut [usize],
    total: usize,
    budget: Option<&Budget>,
) -> Pivots {
    let m = t.len() - 1;
    let dantzig_limit = DANTZIG_LIMIT_FACTOR * (m + total) + 200;
    let mut iters = 0usize;
    loop {
        if budget.is_some_and(|b| b.check().is_err()) {
            return Pivots::Interrupted;
        }
        iters += 1;
        let bland = iters > dantzig_limit;
        // Entering column: most negative reduced cost (Dantzig), or first
        // negative (Bland, guaranteed finite).
        let mut enter = usize::MAX;
        let mut best = -EPS;
        for (j, &rc) in t[m].iter().enumerate().take(total) {
            if rc < -EPS {
                if bland {
                    enter = j;
                    break;
                }
                if rc < best {
                    best = rc;
                    enter = j;
                }
            }
        }
        if enter == usize::MAX {
            return Pivots::Optimal;
        }
        // Leaving row: minimum ratio, ties by smallest basis index (Bland).
        let mut leave = usize::MAX;
        let mut best_ratio = f64::INFINITY;
        for ri in 0..m {
            let a = t[ri][enter];
            if a > EPS {
                let ratio = t[ri][total] / a;
                if ratio < best_ratio - EPS
                    || (ratio < best_ratio + EPS
                        && (leave == usize::MAX || basis[ri] < basis[leave]))
                {
                    best_ratio = ratio;
                    leave = ri;
                }
            }
        }
        if leave == usize::MAX {
            return Pivots::Unbounded;
        }
        pivot(t, leave, enter, total);
        basis[leave] = enter;
    }
}

/// Gauss-Jordan pivot on (`row`, `col`).
fn pivot(t: &mut [Vec<f64>], row: usize, col: usize, total: usize) {
    let piv = t[row][col];
    debug_assert!(piv.abs() > EPS, "pivot too small");
    for cell in t[row].iter_mut().take(total + 1) {
        *cell /= piv;
    }
    // Take the pivot row out so the other rows can borrow it; it goes back
    // unchanged.
    let pivot_row = std::mem::take(&mut t[row]);
    for (ri, r) in t.iter_mut().enumerate() {
        if ri == row {
            continue;
        }
        let factor = r[col];
        if factor.abs() > 0.0 {
            for j in 0..=total {
                r[j] -= factor * pivot_row[j];
            }
        }
    }
    t[row] = pivot_row;
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
