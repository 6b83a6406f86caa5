//! Presolve: problem reductions applied before the search, with postsolve.
//!
//! Implemented reductions (iterated to a fixpoint, bounded rounds):
//!
//! 1. **Fixed variables** (`l == u`) are substituted into rows and objective.
//! 2. **Empty rows** are checked for trivial feasibility and dropped.
//! 3. **Singleton rows** become variable bounds and are dropped.
//! 4. **Bound propagation** tightens variable bounds from row activities,
//!    detects redundant rows, and proves infeasibility early. Integer
//!    variable bounds are rounded.
//! 5. **Empty columns** are fixed at their objective-optimal bound.
//!
//! [`Presolved::postsolve`] maps a reduced solution vector back to the
//! original variable space.

use crate::problem::{Problem, Row, Var, VarId, VarType};
use crate::solution::Status;

const EPS: f64 = 1e-9;
const INT_EPS: f64 = 1e-6;

/// The output of [`presolve`]: a reduced problem plus the bookkeeping needed
/// to reconstruct original solutions.
#[derive(Debug, Clone)]
pub struct Presolved {
    /// The reduced problem (possibly identical to the input).
    pub reduced: Problem,
    /// Early conclusion reached during presolve, if any.
    pub conclusion: Option<Status>,
    /// Original variable index -> reduced index (None when removed).
    map: Vec<Option<usize>>,
    /// Values of removed variables in original index space.
    fixed_values: Vec<f64>,
    /// Number of rows removed.
    pub rows_removed: usize,
    /// Number of variables removed.
    pub vars_removed: usize,
}

impl Presolved {
    /// A no-op presolve: the reduced problem is a verbatim copy and
    /// postsolve is the identity. Used when presolve is disabled.
    pub fn identity(problem: &Problem) -> Self {
        Presolved {
            reduced: problem.clone(),
            conclusion: None,
            map: (0..problem.num_vars()).map(Some).collect(),
            fixed_values: vec![0.0; problem.num_vars()],
            rows_removed: 0,
            vars_removed: 0,
        }
    }

    /// Maps a solution of the reduced problem back to original variables.
    ///
    /// # Panics
    ///
    /// Panics if `reduced_x` does not match the reduced problem size.
    pub fn postsolve(&self, reduced_x: &[f64]) -> Vec<f64> {
        assert_eq!(reduced_x.len(), self.reduced.num_vars());
        self.map
            .iter()
            .enumerate()
            .map(|(orig, m)| match m {
                Some(j) => reduced_x[*j],
                None => self.fixed_values[orig],
            })
            .collect()
    }

    /// Maps an original-space point into the reduced space, when it is
    /// consistent with the reductions: every presolve-removed variable must
    /// sit at its fixed value within `tol`. Returns `None` on a size
    /// mismatch (e.g. after pricing appended columns) or when the point
    /// contradicts a fixing — the inverse of [`Presolved::postsolve`] only
    /// exists for points the reductions kept.
    pub fn map_to_reduced(&self, x: &[f64], tol: f64) -> Option<Vec<f64>> {
        if x.len() != self.map.len() {
            return None;
        }
        let mut red = vec![0.0; self.reduced.num_vars()];
        for (orig, m) in self.map.iter().enumerate() {
            match m {
                Some(j) => red[*j] = x[orig],
                None => {
                    if (x[orig] - self.fixed_values[orig]).abs() > tol {
                        return None;
                    }
                }
            }
        }
        Some(red)
    }

    /// Registers `k` variables appended to the *reduced* problem after
    /// presolve ran (priced-in columns). Each appended variable is also
    /// appended to the original index space, mapped one-to-one onto the last
    /// `k` reduced columns, so [`Presolved::postsolve`] keeps working on the
    /// grown problem.
    ///
    /// # Panics
    ///
    /// Panics if the reduced problem has fewer than `k` variables.
    pub fn register_appended_vars(&mut self, k: usize) {
        let n_red = self.reduced.num_vars();
        assert!(k <= n_red, "cannot register {} appended vars, reduced has {}", k, n_red);
        for i in 0..k {
            self.map.push(Some(n_red - k + i));
            self.fixed_values.push(0.0);
        }
    }
}

struct Work {
    lb: Vec<f64>,
    ub: Vec<f64>,
    obj: Vec<f64>,
    vtype: Vec<VarType>,
    rows: Vec<Option<WorkRow>>,
    removed_var: Vec<bool>,
    infeasible: bool,
    unbounded: bool,
}

#[derive(Clone)]
struct WorkRow {
    coefs: Vec<(usize, f64)>,
    lb: f64,
    ub: f64,
}

impl Work {
    fn fix_var(&mut self, j: usize, value: f64) {
        // Substitute into every row containing j.
        self.removed_var[j] = true;
        self.lb[j] = value;
        self.ub[j] = value;
        for row in self.rows.iter_mut().flatten() {
            let mut contrib = 0.0;
            row.coefs.retain(|&(v, c)| {
                if v == j {
                    contrib += c * value;
                    false
                } else {
                    true
                }
            });
            if contrib != 0.0 {
                if row.lb.is_finite() {
                    row.lb -= contrib;
                }
                if row.ub.is_finite() {
                    row.ub -= contrib;
                }
            }
        }
    }
}

/// Runs presolve on `problem`. When `minimize` is false the problem is a
/// maximization and empty-column fixing flips direction accordingly.
pub fn presolve(problem: &Problem, minimize: bool) -> Presolved {
    let n = problem.num_vars();
    let mut w = Work {
        lb: (0..n).map(|j| problem.var_bounds(VarId(j)).0).collect(),
        ub: (0..n).map(|j| problem.var_bounds(VarId(j)).1).collect(),
        obj: (0..n).map(|j| problem.var_obj(VarId(j))).collect(),
        vtype: (0..n).map(|j| problem.var_type(VarId(j))).collect(),
        rows: problem
            .row_ids()
            .map(|r| {
                // merge duplicate coefficients up front
                let mut map = std::collections::BTreeMap::new();
                for &(v, c) in problem.row_coefs(r) {
                    *map.entry(v.index()).or_insert(0.0) += c;
                }
                let (lb, ub) = problem.row_bounds(r);
                Some(WorkRow {
                    coefs: map.into_iter().filter(|&(_, c)| c != 0.0).collect(),
                    lb,
                    ub,
                })
            })
            .collect(),
        removed_var: vec![false; n],
        infeasible: false,
        unbounded: false,
    };

    // Round integer bounds immediately.
    for j in 0..n {
        if w.vtype[j] != VarType::Continuous {
            if w.lb[j].is_finite() {
                w.lb[j] = (w.lb[j] - INT_EPS).ceil();
            }
            if w.ub[j].is_finite() {
                w.ub[j] = (w.ub[j] + INT_EPS).floor();
            }
            if w.lb[j] > w.ub[j] + EPS {
                w.infeasible = true;
            }
        }
    }

    let max_rounds = 10;
    for _round in 0..max_rounds {
        if w.infeasible || w.unbounded {
            break;
        }
        let mut changed = false;

        // 1. Fixed variables.
        for j in 0..n {
            if !w.removed_var[j] && (w.ub[j] - w.lb[j]).abs() <= EPS && w.lb[j].is_finite() {
                let v = w.lb[j];
                w.fix_var(j, v);
                changed = true;
            }
        }

        // 2/3/4. Row scans.
        for ri in 0..w.rows.len() {
            let Some(row) = w.rows[ri].clone() else { continue };
            if row.coefs.is_empty() {
                if row.lb > EPS || row.ub < -EPS {
                    w.infeasible = true;
                    break;
                }
                w.rows[ri] = None;
                changed = true;
                continue;
            }
            if row.coefs.len() == 1 {
                let (j, c) = row.coefs[0];
                let (mut lo, mut hi) = if c > 0.0 {
                    (row.lb / c, row.ub / c)
                } else {
                    (row.ub / c, row.lb / c)
                };
                if w.vtype[j] != VarType::Continuous {
                    if lo.is_finite() {
                        lo = (lo - INT_EPS).ceil();
                    }
                    if hi.is_finite() {
                        hi = (hi + INT_EPS).floor();
                    }
                }
                if lo > w.lb[j] + EPS {
                    w.lb[j] = lo;
                    changed = true;
                }
                if hi < w.ub[j] - EPS {
                    w.ub[j] = hi;
                    changed = true;
                }
                if w.lb[j] > w.ub[j] + 1e-7 {
                    w.infeasible = true;
                    break;
                }
                w.rows[ri] = None;
                changed = true;
                continue;
            }
            // Activity bounds.
            let mut min_act = 0.0f64;
            let mut max_act = 0.0f64;
            let mut min_inf = 0usize;
            let mut max_inf = 0usize;
            for &(j, c) in &row.coefs {
                let (lo, hi) = if c > 0.0 {
                    (w.lb[j], w.ub[j])
                } else {
                    (w.ub[j], w.lb[j])
                };
                if lo.is_finite() {
                    min_act += c * lo;
                } else {
                    min_inf += 1;
                }
                if hi.is_finite() {
                    max_act += c * hi;
                } else {
                    max_inf += 1;
                }
            }
            let row_min = if min_inf > 0 { f64::NEG_INFINITY } else { min_act };
            let row_max = if max_inf > 0 { f64::INFINITY } else { max_act };
            if row_min > row.ub + 1e-7 || row_max < row.lb - 1e-7 {
                w.infeasible = true;
                break;
            }
            if row_min >= row.lb - EPS && row_max <= row.ub + EPS {
                w.rows[ri] = None; // redundant
                changed = true;
                continue;
            }
            // Bound propagation per variable.
            for &(j, c) in &row.coefs {
                if w.removed_var[j] {
                    continue;
                }
                // residual activity excluding j
                let (jlo, jhi) = if c > 0.0 {
                    (w.lb[j], w.ub[j])
                } else {
                    (w.ub[j], w.lb[j])
                };
                let res_min = if min_inf == 0 {
                    min_act - c * jlo
                } else if min_inf == 1 && !jlo.is_finite() {
                    min_act
                } else {
                    f64::NEG_INFINITY
                };
                let res_max = if max_inf == 0 {
                    max_act - c * jhi
                } else if max_inf == 1 && !jhi.is_finite() {
                    max_act
                } else {
                    f64::INFINITY
                };
                // row.lb <= c*xj + res <= row.ub
                if row.ub.is_finite() && res_min.is_finite() {
                    let lim = (row.ub - res_min) / c;
                    if c > 0.0 {
                        let mut hi = lim;
                        if w.vtype[j] != VarType::Continuous {
                            hi = (hi + INT_EPS).floor();
                        }
                        if hi < w.ub[j] - 1e-7 {
                            w.ub[j] = hi;
                            changed = true;
                        }
                    } else {
                        let mut lo = lim;
                        if w.vtype[j] != VarType::Continuous {
                            lo = (lo - INT_EPS).ceil();
                        }
                        if lo > w.lb[j] + 1e-7 {
                            w.lb[j] = lo;
                            changed = true;
                        }
                    }
                }
                if row.lb.is_finite() && res_max.is_finite() {
                    let lim = (row.lb - res_max) / c;
                    if c > 0.0 {
                        let mut lo = lim;
                        if w.vtype[j] != VarType::Continuous {
                            lo = (lo - INT_EPS).ceil();
                        }
                        if lo > w.lb[j] + 1e-7 {
                            w.lb[j] = lo;
                            changed = true;
                        }
                    } else {
                        let mut hi = lim;
                        if w.vtype[j] != VarType::Continuous {
                            hi = (hi + INT_EPS).floor();
                        }
                        if hi < w.ub[j] - 1e-7 {
                            w.ub[j] = hi;
                            changed = true;
                        }
                    }
                }
                if w.lb[j] > w.ub[j] + 1e-7 {
                    w.infeasible = true;
                    break;
                }
            }
            if w.infeasible {
                break;
            }
        }

        if w.infeasible {
            break;
        }

        // 5. Empty columns.
        let mut appears = vec![false; n];
        for row in w.rows.iter().flatten() {
            for &(j, _) in &row.coefs {
                appears[j] = true;
            }
        }
        for (j, &in_some_row) in appears.iter().enumerate() {
            if w.removed_var[j] || in_some_row {
                continue;
            }
            let c = w.obj[j];
            let improving_down = (minimize && c > 0.0) || (!minimize && c < 0.0);
            let improving_up = (minimize && c < 0.0) || (!minimize && c > 0.0);
            let value = if improving_down {
                if w.lb[j].is_finite() {
                    w.lb[j]
                } else {
                    w.unbounded = true;
                    break;
                }
            } else if improving_up {
                if w.ub[j].is_finite() {
                    w.ub[j]
                } else {
                    w.unbounded = true;
                    break;
                }
            } else if w.lb[j].is_finite() {
                w.lb[j].max(0.0).min(w.ub[j])
            } else if w.ub[j].is_finite() {
                w.ub[j].min(0.0)
            } else {
                0.0
            };
            w.fix_var(j, value);
            changed = true;
        }

        if !changed {
            break;
        }
    }

    // Assemble the reduced problem.
    let conclusion = if w.infeasible {
        Some(Status::Infeasible)
    } else if w.unbounded {
        Some(Status::Unbounded)
    } else {
        None
    };

    let mut map = vec![None; n];
    let mut reduced = Problem::new(problem.sense());
    reduced.shift_objective(problem.obj_offset());
    let mut fixed_values = vec![0.0; n];
    let mut next = 0usize;
    for j in 0..n {
        if w.removed_var[j] {
            fixed_values[j] = w.lb[j];
            reduced.shift_objective(w.obj[j] * w.lb[j]);
        } else {
            map[j] = Some(next);
            next += 1;
            let builder = match w.vtype[j] {
                VarType::Continuous => Var::cont(),
                VarType::Integer => Var::integer(),
                VarType::Binary => Var::binary(),
            };
            reduced.add_var(
                builder
                    .bounds(w.lb[j].min(w.ub[j]), w.ub[j].max(w.lb[j]))
                    .obj(w.obj[j]),
            );
        }
    }
    let mut rows_removed = 0usize;
    for row in &w.rows {
        match row {
            None => rows_removed += 1,
            Some(r) => {
                let mut builder = Row::new().range(r.lb.min(r.ub), r.ub.max(r.lb));
                for &(j, c) in &r.coefs {
                    if let Some(rj) = map[j] {
                        builder = builder.coef(VarId(rj), c);
                    }
                }
                reduced.add_row(builder);
            }
        }
    }
    let vars_removed = w.removed_var.iter().filter(|&&b| b).count();

    Presolved {
        reduced,
        conclusion,
        map,
        fixed_values,
        rows_removed,
        vars_removed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Sense};

    #[test]
    fn fixed_variable_substituted() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(Var::cont().fixed(2.0).obj(3.0));
        let y = p.add_var(Var::cont().bounds(0.0, 10.0).obj(1.0));
        p.add_row(Row::new().coef(x, 1.0).coef(y, 1.0).ge(5.0));
        let ps = presolve(&p, true);
        assert!(ps.conclusion.is_none());
        // x substituted, singleton row becomes y >= 3, then the empty
        // column y is fixed at its optimal bound 3: fully resolved.
        assert_eq!(ps.reduced.num_rows(), 0);
        assert_eq!(ps.reduced.num_vars(), 0);
        let full = ps.postsolve(&[]);
        assert_eq!(full, vec![2.0, 3.0]);
        // offset accounts for c_x * 2 + c_y * 3
        assert!((ps.reduced.obj_offset() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn singleton_row_becomes_bound() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(Var::cont().bounds(0.0, 100.0).obj(1.0));
        p.add_row(Row::new().coef(x, 2.0).le(10.0));
        let ps = presolve(&p, true);
        assert_eq!(ps.reduced.num_rows(), 0);
        // the singleton row bounds x to [0, 5]; the now-empty column is then
        // fixed at its optimal bound 0
        let full = ps.postsolve(&vec![0.0; ps.reduced.num_vars()][..]);
        assert_eq!(full, vec![0.0]);
    }

    #[test]
    fn infeasible_bounds_detected() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(Var::cont().bounds(0.0, 1.0));
        p.add_row(Row::new().coef(x, 1.0).ge(5.0));
        let ps = presolve(&p, true);
        assert_eq!(ps.conclusion, Some(Status::Infeasible));
    }

    #[test]
    fn redundant_row_removed() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(Var::cont().bounds(0.0, 1.0).obj(1.0));
        let y = p.add_var(Var::cont().bounds(0.0, 1.0).obj(1.0));
        p.add_row(Row::new().coef(x, 1.0).coef(y, 1.0).le(10.0)); // redundant
        let ps = presolve(&p, true);
        assert_eq!(ps.reduced.num_rows(), 0);
        assert_eq!(ps.rows_removed, 1);
    }

    #[test]
    fn integer_bounds_rounded() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(Var::integer().bounds(0.3, 4.7).obj(1.0));
        let y = p.add_var(Var::cont().bounds(0.0, 1.0));
        p.add_row(Row::new().coef(x, 1.0).coef(y, 1.0).ge(0.5));
        let ps = presolve(&p, true);
        // integer rounding makes x's range [1, 4], which makes the row
        // redundant; both columns are then empty and fixed at their optimal
        // bounds (x at 1 with obj 1, y anywhere in [0,1] with obj 0 -> 0)
        assert!(ps.conclusion.is_none());
        let full = ps.postsolve(&vec![0.0; ps.reduced.num_vars()][..]);
        assert_eq!(full[0], 1.0);
    }

    #[test]
    fn empty_column_fixed_to_best_bound() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(Var::cont().bounds(1.0, 5.0).obj(2.0)); // no rows -> fix at 1
        let y = p.add_var(Var::cont().bounds(0.0, 3.0).obj(-1.0)); // fix at 3
        let _ = (x, y);
        let ps = presolve(&p, true);
        assert_eq!(ps.reduced.num_vars(), 0);
        let full = ps.postsolve(&[]);
        assert_eq!(full, vec![1.0, 3.0]);
        assert!((ps.reduced.obj_offset() - (2.0 - 3.0)).abs() < 1e-12);
    }

    #[test]
    fn empty_column_unbounded_detected() {
        let mut p = Problem::new(Sense::Minimize);
        let _x = p.add_var(Var::cont().bounds(0.0, f64::INFINITY).obj(-1.0));
        let ps = presolve(&p, true);
        assert_eq!(ps.conclusion, Some(Status::Unbounded));
    }

    #[test]
    fn maximize_flips_empty_column_direction() {
        let mut p = Problem::new(Sense::Maximize);
        let _x = p.add_var(Var::cont().bounds(1.0, 5.0).obj(2.0)); // maximize -> fix at 5
        let ps = presolve(&p, false);
        let full = ps.postsolve(&[]);
        assert_eq!(full, vec![5.0]);
    }

    #[test]
    fn propagation_tightens_binary() {
        // x + y <= 1 with x >= 1 forces y <= 0.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(Var::binary().bounds(1.0, 1.0).obj(0.0));
        let y = p.add_var(Var::binary().obj(-1.0));
        p.add_row(Row::new().coef(x, 1.0).coef(y, 1.0).le(1.0));
        let ps = presolve(&p, true);
        assert!(ps.conclusion.is_none());
        // everything resolved: x fixed, then singleton row bounds y to 0,
        // then y fixed by the fixpoint loop
        let full = ps.postsolve(&vec![0.0; ps.reduced.num_vars()][..]);
        assert_eq!(full[0], 1.0);
        assert!(full[1].abs() < 1e-9);
    }
}
