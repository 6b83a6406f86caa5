//! Problem definition: variables, ranged linear rows, and an objective.
//!
//! A [`Problem`] is the user-facing description of a mixed-integer linear
//! program in the general *ranged* form
//!
//! ```text
//!   minimize (or maximize)  c^T x + c0
//!   subject to              L_r <= a_r^T x <= U_r     for every row r
//!                           l_j <= x_j <= u_j         for every variable j
//!                           x_j integral              for j in I
//! ```
//!
//! Equalities are rows with `L_r == U_r`; one-sided rows use infinite bounds.

use crate::sparse::{CscMatrix, TripletBuilder};
use std::fmt;

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Sense {
    /// Minimize the objective (default).
    #[default]
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// The domain of a decision variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VarType {
    /// Continuous (real-valued).
    #[default]
    Continuous,
    /// General integer.
    Integer,
    /// Binary; bounds are clipped into `[0, 1]`.
    Binary,
}

/// Identifier of a variable within a [`Problem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Index of the variable in column order.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Identifier of a row (constraint) within a [`Problem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub(crate) usize);

impl RowId {
    /// Index of the row.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

#[derive(Debug, Clone)]
pub(crate) struct VarData {
    pub lower: f64,
    pub upper: f64,
    pub obj: f64,
    pub vtype: VarType,
    pub name: Option<String>,
}

#[derive(Debug, Clone)]
pub(crate) struct RowData {
    pub coefs: Vec<(VarId, f64)>,
    pub lower: f64,
    pub upper: f64,
    pub name: Option<String>,
}

/// Builder-style description of one variable; see [`Problem::add_var`].
///
/// # Examples
///
/// ```
/// use milp::{Problem, Sense, Var};
///
/// let mut p = Problem::new(Sense::Minimize);
/// let x = p.add_var(Var::cont().bounds(0.0, 10.0).obj(1.0).name("x"));
/// let b = p.add_var(Var::binary().obj(5.0));
/// assert_ne!(x, b);
/// ```
#[derive(Debug, Clone)]
pub struct Var {
    lower: f64,
    upper: f64,
    obj: f64,
    vtype: VarType,
    name: Option<String>,
}

impl Var {
    /// A continuous variable, default bounds `[0, +inf)`, zero objective.
    pub fn cont() -> Self {
        Var {
            lower: 0.0,
            upper: f64::INFINITY,
            obj: 0.0,
            vtype: VarType::Continuous,
            name: None,
        }
    }

    /// A free continuous variable with bounds `(-inf, +inf)`.
    pub fn free() -> Self {
        Var::cont().bounds(f64::NEG_INFINITY, f64::INFINITY)
    }

    /// A binary variable with bounds `[0, 1]`.
    pub fn binary() -> Self {
        Var {
            lower: 0.0,
            upper: 1.0,
            obj: 0.0,
            vtype: VarType::Binary,
            name: None,
        }
    }

    /// A general integer variable, default bounds `[0, +inf)`.
    pub fn integer() -> Self {
        Var {
            vtype: VarType::Integer,
            ..Var::cont()
        }
    }

    /// Sets lower and upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `lower > upper` or either bound is NaN.
    pub fn bounds(mut self, lower: f64, upper: f64) -> Self {
        assert!(!lower.is_nan() && !upper.is_nan(), "bounds must not be NaN");
        assert!(lower <= upper, "lower bound {} > upper bound {}", lower, upper);
        self.lower = lower;
        self.upper = upper;
        self
    }

    /// Fixes the variable to a single value.
    pub fn fixed(self, value: f64) -> Self {
        self.bounds(value, value)
    }

    /// Sets the objective coefficient.
    pub fn obj(mut self, c: f64) -> Self {
        assert!(c.is_finite(), "objective coefficient must be finite");
        self.obj = c;
        self
    }

    /// Attaches a diagnostic name.
    pub fn name(mut self, n: impl Into<String>) -> Self {
        self.name = Some(n.into());
        self
    }
}

/// Builder-style description of one ranged row; see [`Problem::add_row`].
///
/// # Examples
///
/// ```
/// use milp::{Problem, Sense, Var, Row};
///
/// let mut p = Problem::new(Sense::Minimize);
/// let x = p.add_var(Var::cont().obj(1.0));
/// let y = p.add_var(Var::cont().obj(2.0));
/// // x + 2y >= 3
/// p.add_row(Row::new().coef(x, 1.0).coef(y, 2.0).ge(3.0));
/// // x - y == 1
/// p.add_row(Row::new().coef(x, 1.0).coef(y, -1.0).eq(1.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Row {
    coefs: Vec<(VarId, f64)>,
    lower: f64,
    upper: f64,
    name: Option<String>,
}

impl Row {
    /// An empty row with free range `(-inf, +inf)`.
    pub fn new() -> Self {
        Row {
            coefs: Vec::new(),
            lower: f64::NEG_INFINITY,
            upper: f64::INFINITY,
            name: None,
        }
    }

    /// Adds (accumulates) a coefficient for `var`.
    pub fn coef(mut self, var: VarId, c: f64) -> Self {
        assert!(c.is_finite(), "row coefficient must be finite");
        self.coefs.push((var, c));
        self
    }

    /// Adds coefficients from an iterator.
    pub fn coefs<I: IntoIterator<Item = (VarId, f64)>>(mut self, iter: I) -> Self {
        for (v, c) in iter {
            self = self.coef(v, c);
        }
        self
    }

    /// Constrains the row to `a^T x >= rhs`.
    pub fn ge(mut self, rhs: f64) -> Self {
        self.lower = rhs;
        self
    }

    /// Constrains the row to `a^T x <= rhs`.
    pub fn le(mut self, rhs: f64) -> Self {
        self.upper = rhs;
        self
    }

    /// Constrains the row to `a^T x == rhs`.
    pub fn eq(mut self, rhs: f64) -> Self {
        self.lower = rhs;
        self.upper = rhs;
        self
    }

    /// Constrains the row to `lo <= a^T x <= hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range(mut self, lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "row range {} > {}", lo, hi);
        self.lower = lo;
        self.upper = hi;
        self
    }

    /// Attaches a diagnostic name.
    pub fn name(mut self, n: impl Into<String>) -> Self {
        self.name = Some(n.into());
        self
    }
}

/// A mixed-integer linear program.
///
/// See the [module documentation](self) for the mathematical form.
#[derive(Debug, Clone, Default)]
pub struct Problem {
    sense: Sense,
    vars: Vec<VarData>,
    rows: Vec<RowData>,
    obj_offset: f64,
}

// Parallel branch and bound shares the presolved `Problem` across worker
// threads (heuristics read it concurrently).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Problem>();
};

impl Problem {
    /// Creates an empty problem with the given optimization sense.
    pub fn new(sense: Sense) -> Self {
        Problem {
            sense,
            vars: Vec::new(),
            rows: Vec::new(),
            obj_offset: 0.0,
        }
    }

    /// The optimization sense.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of integer (including binary) variables.
    pub fn num_integers(&self) -> usize {
        self.vars
            .iter()
            .filter(|v| v.vtype != VarType::Continuous)
            .count()
    }

    /// Total number of structural nonzero coefficients across all rows.
    pub fn num_nonzeros(&self) -> usize {
        self.rows.iter().map(|r| r.coefs.len()).sum()
    }

    /// Constant added to the objective value.
    pub fn obj_offset(&self) -> f64 {
        self.obj_offset
    }

    /// Adds `delta` to the objective constant.
    pub fn shift_objective(&mut self, delta: f64) {
        self.obj_offset += delta;
    }

    /// Adds a variable, returning its id.
    pub fn add_var(&mut self, v: Var) -> VarId {
        let (mut lo, mut hi) = (v.lower, v.upper);
        if v.vtype == VarType::Binary {
            lo = lo.max(0.0);
            hi = hi.min(1.0);
        }
        self.vars.push(VarData {
            lower: lo,
            upper: hi,
            obj: v.obj,
            vtype: v.vtype,
            name: v.name,
        });
        VarId(self.vars.len() - 1)
    }

    /// Adds a row, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if the row references a variable not in this problem.
    pub fn add_row(&mut self, r: Row) -> RowId {
        for &(v, _) in &r.coefs {
            assert!(v.0 < self.vars.len(), "row references unknown variable {}", v);
        }
        self.rows.push(RowData {
            coefs: r.coefs,
            lower: r.lower,
            upper: r.upper,
            name: r.name,
        });
        RowId(self.rows.len() - 1)
    }

    /// Adds (accumulates) a coefficient for `var` on the existing row `r`.
    ///
    /// This is the column-append primitive: pricing enters a newly created
    /// variable into rows that were built before it existed.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `var` is not part of this problem, or `c` is not
    /// finite.
    pub fn add_row_coef(&mut self, r: RowId, var: VarId, c: f64) {
        assert!(c.is_finite(), "row coefficient must be finite");
        assert!(r.0 < self.rows.len(), "coefficient references unknown row {}", r);
        assert!(var.0 < self.vars.len(), "row references unknown variable {}", var);
        self.rows[r.0].coefs.push((var, c));
    }

    /// Variable bounds `(lower, upper)`.
    pub fn var_bounds(&self, v: VarId) -> (f64, f64) {
        (self.vars[v.0].lower, self.vars[v.0].upper)
    }

    /// Overwrites the bounds of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `lower > upper`.
    pub fn set_var_bounds(&mut self, v: VarId, lower: f64, upper: f64) {
        assert!(lower <= upper, "lower bound {} > upper bound {}", lower, upper);
        self.vars[v.0].lower = lower;
        self.vars[v.0].upper = upper;
    }

    /// The variable's domain type.
    pub fn var_type(&self, v: VarId) -> VarType {
        self.vars[v.0].vtype
    }

    /// The variable's objective coefficient.
    pub fn var_obj(&self, v: VarId) -> f64 {
        self.vars[v.0].obj
    }

    /// Sets the variable's objective coefficient.
    pub fn set_var_obj(&mut self, v: VarId, c: f64) {
        assert!(c.is_finite());
        self.vars[v.0].obj = c;
    }

    /// The variable's name, if set.
    pub fn var_name(&self, v: VarId) -> Option<&str> {
        self.vars[v.0].name.as_deref()
    }

    /// Row range `(lower, upper)`.
    pub fn row_bounds(&self, r: RowId) -> (f64, f64) {
        (self.rows[r.0].lower, self.rows[r.0].upper)
    }

    /// Row coefficients as pushed (duplicates possible; merged on assembly).
    pub fn row_coefs(&self, r: RowId) -> &[(VarId, f64)] {
        &self.rows[r.0].coefs
    }

    /// The row's name, if set.
    pub fn row_name(&self, r: RowId) -> Option<&str> {
        self.rows[r.0].name.as_deref()
    }

    /// Iterates over all variable ids.
    pub fn var_ids(&self) -> impl Iterator<Item = VarId> {
        (0..self.vars.len()).map(VarId)
    }

    /// The id of the variable at `index` (column order).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn var_id(&self, index: usize) -> VarId {
        assert!(index < self.vars.len(), "variable index out of range");
        VarId(index)
    }

    /// Iterates over all row ids.
    pub fn row_ids(&self) -> impl Iterator<Item = RowId> {
        (0..self.rows.len()).map(RowId)
    }

    /// Assembles the constraint matrix in CSC form (rows x vars).
    pub fn matrix(&self) -> CscMatrix {
        let mut b = TripletBuilder::new(self.rows.len(), self.vars.len());
        for (ri, row) in self.rows.iter().enumerate() {
            for &(v, c) in &row.coefs {
                b.push(ri, v.0, c);
            }
        }
        b.build()
    }

    /// Objective coefficients as a dense vector (in the problem's sense).
    pub fn objective(&self) -> Vec<f64> {
        self.vars.iter().map(|v| v.obj).collect()
    }

    /// Evaluates row activity `a_r^T x`.
    pub fn eval_row(&self, r: RowId, x: &[f64]) -> f64 {
        self.rows[r.0].coefs.iter().map(|&(v, c)| c * x[v.0]).sum()
    }

    /// Checks whether `x` satisfies all rows, bounds, and integrality within
    /// `tol`. Returns the first violation message, or `None` if feasible.
    pub fn check_feasible(&self, x: &[f64], tol: f64) -> Option<String> {
        if x.len() != self.vars.len() {
            return Some(format!(
                "solution has {} entries, problem has {} variables",
                x.len(),
                self.vars.len()
            ));
        }
        for (j, v) in self.vars.iter().enumerate() {
            if x[j] < v.lower - tol || x[j] > v.upper + tol {
                return Some(format!(
                    "variable {} = {} violates bounds [{}, {}]",
                    j, x[j], v.lower, v.upper
                ));
            }
            if v.vtype != VarType::Continuous && (x[j] - x[j].round()).abs() > tol {
                return Some(format!("variable {} = {} is not integral", j, x[j]));
            }
        }
        for r in self.row_ids() {
            let act = self.eval_row(r, x);
            let (lo, hi) = self.row_bounds(r);
            if act < lo - tol || act > hi + tol {
                return Some(format!(
                    "row {} activity {} violates range [{}, {}]",
                    r.0, act, lo, hi
                ));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_small_problem() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(Var::cont().bounds(0.0, 4.0).obj(1.0).name("x"));
        let y = p.add_var(Var::binary().obj(-2.0));
        let r = p.add_row(Row::new().coef(x, 1.0).coef(y, 1.0).le(3.0).name("cap"));
        assert_eq!(p.num_vars(), 2);
        assert_eq!(p.num_rows(), 1);
        assert_eq!(p.num_integers(), 1);
        assert_eq!(p.var_bounds(x), (0.0, 4.0));
        assert_eq!(p.var_bounds(y), (0.0, 1.0));
        assert_eq!(p.row_bounds(r), (f64::NEG_INFINITY, 3.0));
        assert_eq!(p.var_name(x), Some("x"));
        assert_eq!(p.row_name(r), Some("cap"));
    }

    #[test]
    fn binary_bounds_clipped() {
        let mut p = Problem::new(Sense::Minimize);
        let b = p.add_var(Var::binary().bounds(-3.0, 9.0));
        assert_eq!(p.var_bounds(b), (0.0, 1.0));
    }

    #[test]
    fn eval_and_check() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(Var::cont().bounds(0.0, 10.0).obj(3.0));
        let y = p.add_var(Var::integer().bounds(0.0, 5.0).obj(1.0));
        p.add_row(Row::new().coef(x, 2.0).coef(y, 1.0).range(1.0, 8.0));
        p.shift_objective(10.0);
        let sol = [2.0, 3.0];
        assert!(p.check_feasible(&sol, 1e-9).is_none());
        assert!(p.check_feasible(&[2.0, 3.5], 1e-9).is_some()); // fractional int
        assert!(p.check_feasible(&[20.0, 0.0], 1e-9).is_some()); // bound
        assert!(p.check_feasible(&[0.0, 0.0], 1e-9).is_some()); // row lower
    }

    #[test]
    fn matrix_assembly_merges_duplicates() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(Var::cont());
        p.add_row(Row::new().coef(x, 1.0).coef(x, 2.0).eq(3.0));
        let m = p.matrix();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.col(0).next(), Some((0, 3.0)));
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn foreign_var_rejected() {
        let mut p1 = Problem::new(Sense::Minimize);
        let x = p1.add_var(Var::cont());
        let _ = p1.add_var(Var::cont());
        let mut p2 = Problem::new(Sense::Minimize);
        let _ = x; // id from p1 with index 0 is fine in p2 only if p2 has vars
        let mut p3 = Problem::new(Sense::Minimize);
        let y = p3.add_var(Var::cont());
        let _ = y;
        // p2 has no vars at all; any coef panics
        p2.add_row(Row::new().coef(VarId(0), 1.0).le(1.0));
    }
}
