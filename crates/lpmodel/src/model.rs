//! The [`Model`] builder: a symbolic layer over the raw MILP problem.

use crate::expr::{Cons, LinExpr, Vid};
use milp::{Config, Problem, Row, Sense, Solution, Solver, Status, Var, VarId};

/// A symbolic MILP model (the YALMIP analog of the stack).
///
/// Variables are created through typed constructors, constraints through
/// [`LinExpr`] comparisons, and nonlinear constructs (products of binaries,
/// gated continuous terms, piecewise-linear envelopes) through the
/// linearization helpers in [`crate::linearize`] and [`crate::pwl`].
///
/// # Examples
///
/// ```
/// use lpmodel::Model;
/// use milp::Config;
///
/// let mut m = Model::maximize();
/// let x = m.integer("x", 0.0, 10.0);
/// let y = m.integer("y", 0.0, 10.0);
/// m.add((x * 6.0 + y * 4.0).leq(24.0));
/// m.add((x + y * 2.0).leq(6.0));
/// m.set_objective(x * 5.0 + y * 4.0);
/// let sol = m.solve(&Config::default());
/// assert!(sol.is_optimal());
/// assert_eq!(sol.objective().round() as i64, 20);
/// ```
#[derive(Debug, Clone)]
pub struct Model {
    problem: Problem,
    registry: Vec<VarId>,
    aux_counter: usize,
}

impl Model {
    /// Creates a minimization model.
    pub fn minimize() -> Self {
        Model {
            problem: Problem::new(Sense::Minimize),
            registry: Vec::new(),
            aux_counter: 0,
        }
    }

    /// Creates a maximization model.
    pub fn maximize() -> Self {
        Model {
            problem: Problem::new(Sense::Maximize),
            registry: Vec::new(),
            aux_counter: 0,
        }
    }

    /// Adds a binary variable.
    pub fn binary(&mut self, name: impl Into<String>) -> Vid {
        self.push(Var::binary().name(name))
    }

    /// Adds a continuous variable with bounds.
    pub fn cont(&mut self, name: impl Into<String>, lo: f64, hi: f64) -> Vid {
        self.push(Var::cont().bounds(lo, hi).name(name))
    }

    /// Adds a free continuous variable.
    pub fn free(&mut self, name: impl Into<String>) -> Vid {
        self.push(Var::free().name(name))
    }

    /// Adds an integer variable with bounds.
    pub fn integer(&mut self, name: impl Into<String>, lo: f64, hi: f64) -> Vid {
        self.push(Var::integer().bounds(lo, hi).name(name))
    }

    pub(crate) fn push(&mut self, v: Var) -> Vid {
        let id = self.problem.add_var(v);
        self.registry.push(id);
        Vid(self.registry.len() - 1)
    }

    pub(crate) fn fresh_name(&mut self, prefix: &str) -> String {
        self.aux_counter += 1;
        format!("__{}_{}", prefix, self.aux_counter)
    }

    /// Adds a constraint, returning its row index.
    pub fn add(&mut self, c: Cons) -> usize {
        let mut row = Row::new().range(c.lo, c.hi);
        for (v, coef) in c.expr.iter() {
            row = row.coef(self.registry[v.0], coef);
        }
        self.problem.add_row(row).index()
    }

    /// Adds a named constraint.
    pub fn add_named(&mut self, name: impl Into<String>, c: Cons) -> usize {
        let mut row = Row::new().range(c.lo, c.hi).name(name);
        for (v, coef) in c.expr.iter() {
            row = row.coef(self.registry[v.0], coef);
        }
        self.problem.add_row(row).index()
    }

    /// Sets the objective to `expr` (replacing any previous objective).
    pub fn set_objective(&mut self, expr: LinExpr) {
        for &id in &self.registry {
            self.problem.set_var_obj(id, 0.0);
        }
        let prev_offset = self.problem.obj_offset();
        self.problem.shift_objective(expr.constant() - prev_offset);
        for (v, c) in expr.iter() {
            self.problem.set_var_obj(self.registry[v.0], c);
        }
    }

    /// Tightens the bounds of `v` (intersection with existing bounds).
    pub fn tighten(&mut self, v: Vid, lo: f64, hi: f64) {
        let id = self.registry[v.0];
        let (clo, chi) = self.problem.var_bounds(id);
        self.problem.set_var_bounds(id, clo.max(lo), chi.min(hi));
    }

    /// Fixes `v` to a value.
    pub fn fix(&mut self, v: Vid, value: f64) {
        self.problem.set_var_bounds(self.registry[v.0], value, value);
    }

    /// Replaces the bounds of `v` outright — unlike [`Model::tighten`],
    /// which only ever narrows, this can relax. Needed to undo a
    /// [`Model::fix`] (e.g. a component coming back in stock).
    pub fn set_bounds(&mut self, v: Vid, lo: f64, hi: f64) {
        self.problem.set_var_bounds(self.registry[v.0], lo, hi);
    }

    /// Bounds of `v`.
    pub fn bounds(&self, v: Vid) -> (f64, f64) {
        self.problem.var_bounds(self.registry[v.0])
    }

    /// Computes conservative bounds of an expression from variable bounds.
    ///
    /// Used to derive big-M constants automatically.
    pub fn expr_bounds(&self, e: &LinExpr) -> (f64, f64) {
        let mut lo = e.constant();
        let mut hi = e.constant();
        for (v, c) in e.iter() {
            let (vl, vh) = self.bounds(v);
            let (tl, th) = if c >= 0.0 {
                (c * vl, c * vh)
            } else {
                (c * vh, c * vl)
            };
            lo += tl;
            hi += th;
        }
        (lo, hi)
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.problem.num_vars()
    }

    /// Number of constraints (rows).
    pub fn num_cons(&self) -> usize {
        self.problem.num_rows()
    }

    /// Number of structural nonzeros.
    pub fn num_nonzeros(&self) -> usize {
        self.problem.num_nonzeros()
    }

    /// Number of integer/binary variables.
    pub fn num_integers(&self) -> usize {
        self.problem.num_integers()
    }

    /// Read-only access to the compiled [`milp::Problem`].
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// Renders the model in CPLEX LP format (for external debugging).
    pub fn to_lp_string(&self) -> String {
        milp::lp_format::to_lp_string(&self.problem)
    }

    /// Solves the model with the given configuration.
    pub fn solve(&self, cfg: &Config) -> ModelSolution {
        let sol = Solver::new(cfg.clone()).solve(&self.problem);
        ModelSolution { sol }
    }

    /// Solves the model with root column generation: `source` prices new
    /// variables against the restricted LP duals (see
    /// [`milp::Solver::solve_with_columns`]).
    ///
    /// The solution vector covers the model's variables followed by every
    /// priced-in column in acceptance order. To read priced columns through
    /// [`ModelSolution::value`], append matching variables to the model
    /// *after* solving (e.g. via [`Model::binary`]) — the k-th appended
    /// variable's [`Vid`] then addresses the k-th priced column.
    pub fn solve_with_columns(
        &self,
        cfg: &Config,
        source: &mut dyn milp::ColumnSource,
    ) -> ModelSolution {
        let sol = Solver::new(cfg.clone()).solve_with_columns(&self.problem, source);
        ModelSolution { sol }
    }

    /// Resumes a checkpointed solve of this model from the frame at `path`
    /// (see [`milp::Solver::resume`]). Any valid frame — even a stale one —
    /// finishes with the same objective and proof status as an
    /// uninterrupted [`Model::solve`].
    pub fn solve_resumed(
        &self,
        cfg: &Config,
        path: &std::path::Path,
    ) -> Result<ModelSolution, milp::FrameError> {
        let sol = Solver::new(cfg.clone()).resume(&self.problem, path)?;
        Ok(ModelSolution { sol })
    }

    /// [`Model::solve_resumed`] with root column generation: the frame's
    /// accepted pricing batches are replayed and `source` has its opaque
    /// payload restored before the search continues (see
    /// [`milp::Solver::resume_with_columns`]).
    pub fn solve_resumed_with_columns(
        &self,
        cfg: &Config,
        path: &std::path::Path,
        source: &mut dyn milp::ColumnSource,
    ) -> Result<ModelSolution, milp::FrameError> {
        let sol = Solver::new(cfg.clone()).resume_with_columns(&self.problem, path, source)?;
        Ok(ModelSolution { sol })
    }
}

/// The result of [`Model::solve`].
#[derive(Debug, Clone)]
pub struct ModelSolution {
    sol: Solution,
}

impl ModelSolution {
    /// Final solver status.
    pub fn status(&self) -> Status {
        self.sol.status()
    }

    /// `true` when the status is proven optimal.
    pub fn is_optimal(&self) -> bool {
        self.sol.status() == Status::Optimal
    }

    /// `true` when any feasible solution is available.
    pub fn has_solution(&self) -> bool {
        self.sol.status().has_solution()
    }

    /// Objective value in the model's sense.
    pub fn objective(&self) -> f64 {
        self.sol.objective()
    }

    /// Best proven bound.
    pub fn best_bound(&self) -> f64 {
        self.sol.best_bound()
    }

    /// Relative MIP gap of the incumbent (`INFINITY` when none exists).
    pub fn gap(&self) -> f64 {
        self.sol.gap()
    }

    /// Value of a variable.
    ///
    /// # Panics
    ///
    /// Panics if no solution is available.
    pub fn value(&self, v: Vid) -> f64 {
        self.sol.values()[v.0]
    }

    /// Rounded 0/1 interpretation of a (binary) variable.
    ///
    /// # Panics
    ///
    /// Panics if no solution is available.
    pub fn is_one(&self, v: Vid) -> bool {
        self.value(v) > 0.5
    }

    /// Evaluates an expression at the solution point.
    ///
    /// # Panics
    ///
    /// Panics if no solution is available.
    pub fn eval(&self, e: &LinExpr) -> f64 {
        e.eval(|v| self.value(v))
    }

    /// The full solution vector in [`Vid`] order (empty when no solution is
    /// available). Callers that warm-start a later solve of the *same* model
    /// structure pass this slice to [`milp::Config::with_warm_start`].
    pub fn values(&self) -> &[f64] {
        self.sol.values()
    }

    /// Underlying solver statistics.
    pub fn stats(&self) -> &milp::Stats {
        self.sol.stats()
    }

    /// The [`milp::SolveError`] behind a [`Status::NumericFailure`], if any.
    pub fn solve_error(&self) -> Option<&milp::SolveError> {
        self.sol.solve_error()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_solve_lp() {
        let mut m = Model::minimize();
        let x = m.cont("x", 0.0, 10.0);
        let y = m.cont("y", 0.0, 10.0);
        m.add((x + y).geq(4.0));
        m.set_objective(2.0 * x + 3.0 * y);
        let s = m.solve(&Config::default());
        assert!(s.is_optimal());
        assert!((s.objective() - 8.0).abs() < 1e-6);
        assert!((s.value(x) - 4.0).abs() < 1e-6);
        assert!(s.value(y).abs() < 1e-6);
    }

    #[test]
    fn objective_replacement() {
        let mut m = Model::minimize();
        let x = m.cont("x", 1.0, 5.0);
        m.set_objective(x * 2.0 + 7.0);
        m.set_objective(LinExpr::from(x)); // replaces, offset cleared
        let s = m.solve(&Config::default());
        assert!((s.objective() - 1.0).abs() < 1e-6, "obj {}", s.objective());
    }

    #[test]
    fn expr_bounds_computation() {
        let mut m = Model::minimize();
        let x = m.cont("x", -1.0, 2.0);
        let y = m.cont("y", 0.0, 3.0);
        let e = 2.0 * x - y + 1.0;
        assert_eq!(m.expr_bounds(&e), (-1.0 + -3.0 + 1.0 + -1.0, 4.0 + 0.0 + 1.0));
        // lo = 2*(-1) - 3 + 1 = -4; hi = 2*2 - 0 + 1 = 5
        assert_eq!(m.expr_bounds(&e), (-4.0, 5.0));
    }

    #[test]
    fn fix_and_tighten() {
        let mut m = Model::minimize();
        let x = m.cont("x", 0.0, 10.0);
        m.tighten(x, 2.0, 8.0);
        assert_eq!(m.bounds(x), (2.0, 8.0));
        m.tighten(x, 0.0, 6.0); // lower stays 2
        assert_eq!(m.bounds(x), (2.0, 6.0));
        m.fix(x, 3.0);
        assert_eq!(m.bounds(x), (3.0, 3.0));
    }

    #[test]
    fn infeasible_model_reports_status() {
        let mut m = Model::minimize();
        let x = m.binary("x");
        m.add((x * 1.0).geq(2.0));
        let s = m.solve(&Config::default());
        assert_eq!(s.status(), Status::Infeasible);
        assert!(!s.has_solution());
    }

    #[test]
    fn eval_solution_expression() {
        let mut m = Model::maximize();
        let x = m.cont("x", 0.0, 4.0);
        m.set_objective(LinExpr::from(x));
        let s = m.solve(&Config::default());
        let e = 2.0 * x + 1.0;
        assert!((s.eval(&e) - 9.0).abs() < 1e-6);
    }

    #[test]
    fn solve_with_columns_prices_through_the_model() {
        use milp::{ColumnSource, NewColumn, PriceInput, PricedBatch};

        // min 2x + 3y s.t. x + y >= 2. Root dual on the cover row is 2, so
        // a unit column with cost 1 has reduced cost 1 - 2 < 0 and prices in.
        struct Unit {
            done: bool,
        }
        impl ColumnSource for Unit {
            fn price(&mut self, input: &PriceInput<'_>) -> PricedBatch {
                let mut batch = PricedBatch::default();
                if !self.done && input.y[0] > 1.0 + input.rc_tol {
                    self.done = true;
                    batch.cols.push(NewColumn {
                        obj: 1.0,
                        lb: 0.0,
                        ub: f64::INFINITY,
                        integer: false,
                        name: Some("priced".into()),
                        entries: vec![(0, 1.0)],
                    });
                }
                batch
            }
        }

        let mut m = Model::minimize();
        let x = m.cont("x", 0.0, 10.0);
        let y = m.cont("y", 0.0, 10.0);
        m.add((x + y).geq(2.0));
        m.set_objective(2.0 * x + 3.0 * y);
        let mut src = Unit { done: false };
        let s = m.solve_with_columns(&Config::default(), &mut src);
        assert!(s.is_optimal());
        assert!((s.objective() - 2.0).abs() < 1e-6, "obj {}", s.objective());
        assert_eq!(s.stats().cols_priced, 1);
        // Materialize the priced column as a model variable to read it.
        let mut m2 = m.clone();
        let priced = m2.cont("priced", 0.0, f64::INFINITY);
        assert!((s.value(priced) - 2.0).abs() < 1e-6);
        assert!(s.value(x).abs() < 1e-6);
    }

    #[test]
    fn counters() {
        let mut m = Model::minimize();
        let x = m.binary("x");
        let y = m.cont("y", 0.0, 1.0);
        m.add((x + y).leq(1.5));
        m.add((x - y).geq(-1.0));
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.num_cons(), 2);
        assert_eq!(m.num_integers(), 1);
        assert_eq!(m.num_nonzeros(), 4);
    }
}
