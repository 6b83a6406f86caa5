//! Bounded-variable revised simplex: primal with a composite Phase 1, plus
//! a dual simplex for warm-started reoptimization.
//!
//! The LP is held in the computational form
//!
//! ```text
//!   minimize  c^T x
//!   s.t.      A x - s = 0,   l <= [x; s] <= u
//! ```
//!
//! where one slack `s_r` with bounds equal to the row range is attached to
//! every row. The initial basis is the (always nonsingular) slack basis;
//! Phase 1 minimizes the sum of bound violations of basic variables using the
//! standard composite cost vector, and Phase 2 runs the classic revised
//! simplex with Devex pricing, a bound-flip-aware ratio test, and Bland's
//! rule as an anti-cycling fallback.
//!
//! When a warm-start basis is supplied and only variable bounds changed
//! since it was optimal (the branch-and-bound child-node case), the basis
//! is still **dual-feasible**, and the solver runs the **dual simplex**
//! instead of primal Phase 1: it picks the most bound-violating basic
//! variable (dual Devex row weights), runs a bound-flipping dual ratio
//! test over the pivot row, and pivots until primal feasibility is
//! restored — typically a handful of pivots instead of a full cold solve.
//! Any loss of dual feasibility (repaired statuses, numerical drift) makes
//! it fall back to the primal path, so the dual method is an accelerator,
//! never a correctness dependency.
//!
//! Numerical failures are recovered in-solver before surfacing: a singular
//! factorization triggers a refactorize / slack-basis reset, a persistent
//! stall restarts the solve under Bland's rule, and a final rung re-solves
//! with seeded cost perturbations. Only when all rungs fail does
//! [`solve_lp`] return a [`SolveError`].

use crate::config::Config;
use crate::error::SolveError;
use crate::lu::{Factorization, LuError};
use crate::sparse::CscMatrix;
use std::time::Instant;

/// Status of one variable in the simplex basis partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VStat {
    /// In the basis.
    Basic,
    /// Nonbasic at its lower bound.
    AtLower,
    /// Nonbasic at its upper bound.
    AtUpper,
    /// Nonbasic free variable (held at zero).
    Free,
}

/// Outcome status of one LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// Optimal basic solution found.
    Optimal,
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded below (in minimization form).
    Unbounded,
    /// Deadline or cancellation reached before convergence.
    Limit,
}

/// Result of one LP solve.
#[derive(Debug, Clone)]
pub struct LpResult {
    /// Final status.
    pub status: LpStatus,
    /// Objective value (minimization form) when `status == Optimal`.
    pub obj: f64,
    /// Values of the structural variables (length = number of columns of A).
    pub x: Vec<f64>,
    /// Simplex iterations used (all phases, dual included).
    pub iters: usize,
    /// Iterations spent in primal Phase 1 (feasibility restoration).
    pub phase1_iters: usize,
    /// Iterations spent in the dual simplex reoptimizer.
    pub dual_iters: usize,
    /// Final basis statuses over structural + slack variables; reusable as a
    /// warm start for a subsequent solve with modified bounds.
    pub statuses: Vec<VStat>,
    /// Reduced costs of the structural variables at termination (zero for
    /// basic and fixed variables). Meaningful when `status == Optimal`;
    /// used for reduced-cost variable fixing in branch and bound.
    pub dj: Vec<f64>,
    /// Row duals `y = B^{-T} c_B` at termination (length = number of rows).
    /// Meaningful when `status == Optimal`; the sign convention makes the
    /// reduced cost of a candidate column `a` equal to `c_a - y^T a`, which
    /// is what column-generation pricing consumes. Zeroed on perturbed
    /// recovery rungs (alongside `dj`) so pricing never trusts them.
    pub y: Vec<f64>,
    /// Recovery rungs consumed before this result was produced (0 = clean
    /// solve, 1 = Bland's-rule restart, 2 = perturb-and-retry).
    pub recoveries: usize,
}

/// A ranged sparse row `(coefs, lb, ub)` over the structural variables,
/// as consumed by [`LpData::append_rows`].
pub type SparseRow = (Vec<(usize, f64)>, f64, f64);

/// A structural column `(entries, cost)` over the existing rows, as consumed
/// by [`LpData::append_cols`]. Entries are `(row, value)` pairs.
pub type SparseCol = (Vec<(usize, f64)>, f64);

/// The LP data in computational form, shared across warm-started solves.
///
/// Constraint matrix and costs stay fixed; variable bounds are passed to
/// [`solve_lp`] per call so a branch-and-bound driver can tighten them
/// cheaply.
#[derive(Debug, Clone)]
pub struct LpData {
    /// Constraint matrix (rows x structural variables).
    pub a: CscMatrix,
    /// Structural costs (minimization).
    pub c: Vec<f64>,
    /// Row lower bounds (range constraints).
    pub row_lb: Vec<f64>,
    /// Row upper bounds.
    pub row_ub: Vec<f64>,
}

// Parallel branch and bound shares one `LpData` across worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<LpData>();
};

impl LpData {
    /// Number of structural variables.
    pub fn num_vars(&self) -> usize {
        self.a.ncols()
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.a.nrows()
    }

    /// Appends extra rows (cutting planes) to the LP in one rebuild.
    ///
    /// Each entry is `(coefs, lb, ub)` over the structural variables. The
    /// new rows' slacks extend the slack block at the end, so an existing
    /// status vector stays index-consistent when padded with one
    /// [`VStat::Basic`] entry per appended row — appending a cut whose slack
    /// enters the basis keeps the old basis dual-feasible, which is what
    /// lets the dual simplex reoptimize in a few pivots.
    pub fn append_rows(&mut self, rows: &[SparseRow]) {
        if rows.is_empty() {
            return;
        }
        let m0 = self.num_rows();
        let mut b = crate::sparse::TripletBuilder::new(m0 + rows.len(), self.num_vars());
        for (r, c, v) in self.a.triplets() {
            b.push(r, c, v);
        }
        for (i, (coefs, lo, hi)) in rows.iter().enumerate() {
            for &(j, v) in coefs {
                b.push(m0 + i, j, v);
            }
            self.row_lb.push(*lo);
            self.row_ub.push(*hi);
        }
        self.a = b.build();
    }

    /// Appends extra structural columns (priced-in variables) in one rebuild.
    ///
    /// Each entry is `(entries, cost)` over the *existing* rows. The new
    /// columns extend the structural block, shifting the slack block right
    /// by `cols.len()`: an existing status vector stays index-consistent when
    /// spliced as `[old structural] + [one VStat per new column] + [old
    /// slacks]`. Entering the new columns nonbasic at a bound that satisfies
    /// every row (for pricing, at lower bound zero) keeps the old basis
    /// primal-feasible, so a warm Phase-2 primal reoptimization converges in
    /// a few pivots — the column mirror of [`LpData::append_rows`].
    pub fn append_cols(&mut self, cols: &[SparseCol]) {
        if cols.is_empty() {
            return;
        }
        let n0 = self.num_vars();
        let mut b = crate::sparse::TripletBuilder::new(self.num_rows(), n0 + cols.len());
        for (r, c, v) in self.a.triplets() {
            b.push(r, c, v);
        }
        for (j, (entries, cost)) in cols.iter().enumerate() {
            for &(r, v) in entries {
                b.push(r, n0 + j, v);
            }
            self.c.push(*cost);
        }
        self.a = b.build();
    }
}

/// One row of the simplex tableau for a basic variable, extracted from the
/// final LU factorization of an optimal basis.
///
/// The augmented system `[A | -I] [x; s] = 0` has zero right-hand side, so
/// the row reads `x_var + sum_k coefs[k] * z_k = 0` where `z_k` ranges over
/// the *nonbasic* variables in augmented indexing (structural `j < n`,
/// slack of row `r` at `n + r`). Equivalently, with every nonbasic shifted
/// to its current resting value `z̄_k`, `x_var + sum_k coefs[k] * (z_k -
/// z̄_k) = rhs` where `rhs` is the basic variable's current value — the
/// form Gomory derivation wants.
#[derive(Debug, Clone)]
pub struct TableauRow {
    /// Augmented index of the basic variable this row belongs to.
    pub var: usize,
    /// Value of the basic variable at the current solution.
    pub rhs: f64,
    /// `(augmented nonbasic index, tableau coefficient)` pairs.
    pub coefs: Vec<(usize, f64)>,
}

/// Extracts simplex tableau rows for the requested basic variables by
/// re-installing `statuses` (an optimal basis from [`solve_lp`]) and running
/// one btran per row: row `i` of `B^{-1}` is `btran(e_i)`, and the tableau
/// coefficient of nonbasic column `k` is its dot product with that row.
///
/// Returns `None` when the basis cannot be re-installed or re-factorized
/// (wrong length, singular under fault injection, ...). Coefficients below
/// `1e-12` in magnitude are dropped; Gomory separation re-validates the cut
/// numerically anyway.
pub fn extract_tableau_rows(
    lp: &LpData,
    var_lb: &[f64],
    var_ub: &[f64],
    cfg: &Config,
    statuses: &[VStat],
    wanted: &[usize],
) -> Option<Vec<TableauRow>> {
    let mut eng = Engine::new(lp, var_lb, var_ub, cfg, None);
    match eng.install(Some(statuses)) {
        Ok(true) => {}
        // Falling back to the slack basis would extract rows of a basis
        // nobody asked about; report failure instead.
        Ok(false) | Err(_) => return None,
    }
    eng.compute_basics();
    let mut rows = Vec::with_capacity(wanted.len());
    let mut rho = vec![0.0; eng.m];
    for &j in wanted {
        if eng.status.get(j).copied() != Some(VStat::Basic) {
            continue;
        }
        let i = eng.pos[j];
        rho.iter_mut().for_each(|v| *v = 0.0);
        rho[i] = 1.0;
        eng.fact.btran(&mut rho);
        let mut coefs = Vec::new();
        for k in 0..eng.nn {
            if eng.status[k] == VStat::Basic {
                continue;
            }
            let a = if k < eng.n {
                eng.lp.a.col_dot(k, &rho)
            } else {
                -rho[k - eng.n]
            };
            if a.abs() > 1e-12 {
                coefs.push((k, a));
            }
        }
        rows.push(TableauRow {
            var: j,
            rhs: eng.x[j],
            coefs,
        });
    }
    Some(rows)
}

/// Refactorize the basis after this many eta updates.
const REFACTOR_INTERVAL: usize = 64;

struct Engine<'a> {
    lp: &'a LpData,
    /// Bounds over structural + slack variables.
    lb: Vec<f64>,
    ub: Vec<f64>,
    /// Costs over structural + slack variables (slacks have zero cost).
    cost: Vec<f64>,
    n: usize,
    m: usize,
    nn: usize,
    status: Vec<VStat>,
    basis: Vec<usize>,
    /// basis position of each variable (usize::MAX if nonbasic)
    pos: Vec<usize>,
    x: Vec<f64>,
    fact: Factorization,
    cfg: &'a Config,
    iters: usize,
    phase1_iters: usize,
    dual_iters: usize,
    degenerate_run: usize,
    deadline: Option<Instant>,
    /// Recovery rung: forces Bland's rule from the first iteration.
    force_bland: bool,
    /// Slack-basis rebuilds performed after singular factorizations; capped
    /// so a persistently singular basis surfaces as an error instead of
    /// looping.
    slack_resets: usize,
    /// Last factorization failure, kept for error reporting.
    last_lu: Option<LuError>,
    /// Primal Devex reference weights over all variables (reset to 1 with
    /// every basis install).
    devex: Vec<f64>,
    /// Dual Devex row weights over basis positions.
    dual_devex: Vec<f64>,
    /// Reduced costs captured during the last complete Phase-2 pricing
    /// pass (zero at basic/fixed entries).
    dj: Vec<f64>,
}

enum Pricing {
    Entering { j: usize, dir: f64 },
    OptimalOrFeasible,
}

enum Ratio {
    BoundFlip { t: f64 },
    Pivot { t: f64, leave_pos: usize, leave_to_upper: bool },
    Unbounded,
}

/// Terminating condition of a dual-simplex run.
enum DualRun {
    /// Primal feasibility restored; Phase 2 will certify optimality.
    Feasible,
    /// Dual unbounded: the primal LP is infeasible.
    Infeasible,
    /// Deadline or cancellation reached.
    Limit,
    /// The dual method cannot (or should not) continue from this basis;
    /// the caller falls back to the primal Phase 1 path.
    Fallback,
}

impl<'a> Engine<'a> {
    fn new(
        lp: &'a LpData,
        var_lb: &[f64],
        var_ub: &[f64],
        cfg: &'a Config,
        deadline: Option<Instant>,
    ) -> Self {
        let n = lp.num_vars();
        let m = lp.num_rows();
        let nn = n + m;
        let mut lb = Vec::with_capacity(nn);
        let mut ub = Vec::with_capacity(nn);
        lb.extend_from_slice(var_lb);
        ub.extend_from_slice(var_ub);
        lb.extend_from_slice(&lp.row_lb);
        ub.extend_from_slice(&lp.row_ub);
        let mut cost = Vec::with_capacity(nn);
        cost.extend_from_slice(&lp.c);
        cost.extend(std::iter::repeat_n(0.0, m));
        Engine {
            lp,
            lb,
            ub,
            cost,
            n,
            m,
            nn,
            status: vec![VStat::AtLower; nn],
            basis: Vec::new(),
            pos: vec![usize::MAX; nn],
            x: vec![0.0; nn],
            fact: Factorization::new(m),
            cfg,
            iters: 0,
            phase1_iters: 0,
            dual_iters: 0,
            degenerate_run: 0,
            deadline,
            force_bland: false,
            slack_resets: 0,
            last_lu: None,
            devex: vec![1.0; nn],
            dual_devex: vec![1.0; m],
            dj: vec![0.0; nn],
        }
    }

    /// Column of the augmented matrix `[A | -I]` for variable `j`.
    fn column(&self, j: usize, buf: &mut Vec<(usize, f64)>) {
        buf.clear();
        if j < self.n {
            for (r, v) in self.lp.a.col(j) {
                buf.push((r, v));
            }
        } else {
            buf.push((j - self.n, -1.0));
        }
    }

    /// Value a nonbasic variable should rest at, given its status.
    fn nonbasic_value(&self, j: usize) -> f64 {
        match self.status[j] {
            VStat::AtLower => self.lb[j],
            VStat::AtUpper => self.ub[j],
            VStat::Free => 0.0,
            VStat::Basic => unreachable!("basic variable has no resting value"),
        }
    }

    /// Picks the natural status for a nonbasic variable.
    fn natural_status(lb: f64, ub: f64) -> VStat {
        if lb.is_finite() {
            VStat::AtLower
        } else if ub.is_finite() {
            VStat::AtUpper
        } else {
            VStat::Free
        }
    }

    /// Installs the all-slack basis.
    fn slack_basis(&mut self) {
        for j in 0..self.n {
            self.status[j] = Self::natural_status(self.lb[j], self.ub[j]);
            self.pos[j] = usize::MAX;
        }
        self.basis = (self.n..self.nn).collect();
        for (i, &j) in self.basis.iter().enumerate() {
            self.status[j] = VStat::Basic;
            self.pos[j] = i;
        }
    }

    /// Installs a warm-start status vector if it is usable, else the slack
    /// basis. Returns whether the warm basis was installed (so the caller
    /// knows a dual-feasible start may be available). Errs only when even
    /// the slack basis fails to factorize.
    fn install(&mut self, warm: Option<&[VStat]>) -> Result<bool, SolveError> {
        self.devex.iter_mut().for_each(|w| *w = 1.0);
        self.dual_devex.iter_mut().for_each(|w| *w = 1.0);
        if let Some(w) = warm {
            if w.len() == self.nn && w.iter().filter(|s| **s == VStat::Basic).count() == self.m {
                self.basis.clear();
                for (j, &s) in w.iter().enumerate() {
                    let s = match s {
                        // repair statuses that bound changes made inconsistent
                        VStat::AtLower if !self.lb[j].is_finite() => {
                            Self::natural_status(self.lb[j], self.ub[j])
                        }
                        VStat::AtUpper if !self.ub[j].is_finite() => {
                            Self::natural_status(self.lb[j], self.ub[j])
                        }
                        VStat::Free if self.lb[j].is_finite() || self.ub[j].is_finite() => {
                            Self::natural_status(self.lb[j], self.ub[j])
                        }
                        s => s,
                    };
                    self.status[j] = s;
                    if s == VStat::Basic {
                        self.pos[j] = self.basis.len();
                        self.basis.push(j);
                    } else {
                        self.pos[j] = usize::MAX;
                    }
                }
                if self.refactorize() {
                    return Ok(true);
                }
            }
        }
        self.slack_basis();
        if self.refactorize() || self.refactorize() {
            // The slack basis is -I and can only fail under injection or a
            // broken workspace; one retry absorbs a single injected fault.
            return Ok(false);
        }
        Err(self
            .last_lu
            .clone()
            .map(SolveError::from)
            .unwrap_or(SolveError::SingularBasis { position: 0 }))
    }

    fn refactorize(&mut self) -> bool {
        if let Some(f) = &self.cfg.faults {
            if f.on_factorize() {
                // Injected singularity: report exactly what a real one would.
                self.last_lu = Some(LuError::Singular { position: 0 });
                return false;
            }
        }
        let mut colbuf: Vec<(usize, f64)> = Vec::new();
        let basis = self.basis.clone();
        let lp = self.lp;
        let n = self.n;
        match self.fact.factorize(|k, out| {
            let j = basis[k];
            colbuf.clear();
            if j < n {
                for (r, v) in lp.a.col(j) {
                    out.push((r, v));
                }
            } else {
                out.push((j - n, -1.0));
            }
        }) {
            Ok(()) => true,
            Err(e) => {
                self.last_lu = Some(e);
                false
            }
        }
    }

    /// Recomputes the values of all basic variables from the nonbasic rest
    /// values: `B x_B = -sum_j Abar_j x_j`.
    fn compute_basics(&mut self) {
        let mut rhs = vec![0.0; self.m];
        for j in 0..self.nn {
            if self.status[j] == VStat::Basic {
                continue;
            }
            let xj = self.nonbasic_value(j);
            self.x[j] = xj;
            if xj != 0.0 {
                if j < self.n {
                    self.lp.a.axpy_col(j, -xj, &mut rhs);
                } else {
                    rhs[j - self.n] += xj; // -(-1)*xj
                }
            }
        }
        self.fact.ftran(&mut rhs);
        for (i, &j) in self.basis.iter().enumerate() {
            self.x[j] = rhs[i];
        }
    }

    fn infeasibility(&self) -> f64 {
        let t = self.cfg.feas_tol;
        self.basis
            .iter()
            .map(|&j| {
                let v = self.x[j];
                if v < self.lb[j] - t {
                    self.lb[j] - v
                } else if v > self.ub[j] + t {
                    v - self.ub[j]
                } else {
                    0.0
                }
            })
            .sum()
    }

    /// Computes reduced costs via btran and picks an entering variable.
    /// `phase1` selects the composite infeasibility costs. Phase-2 passes
    /// also record the reduced costs in `self.dj` so a terminating
    /// (complete) pass leaves them valid for reduced-cost fixing.
    fn price(&mut self, phase1: bool, bland: bool) -> Pricing {
        let t = self.cfg.feas_tol;
        let mut cb = vec![0.0; self.m];
        let mut any_cost = false;
        for (i, &j) in self.basis.iter().enumerate() {
            let c = if phase1 {
                let v = self.x[j];
                if v < self.lb[j] - t {
                    -1.0
                } else if v > self.ub[j] + t {
                    1.0
                } else {
                    0.0
                }
            } else {
                self.cost[j]
            };
            if c != 0.0 {
                cb[i] = c;
                any_cost = true;
            }
        }
        if phase1 && !any_cost {
            return Pricing::OptimalOrFeasible;
        }
        self.fact.btran(&mut cb); // now y in row space
        let y = cb;
        let otol = self.cfg.opt_tol;
        if !phase1 {
            // Fresh capture per pass: entries not reached (early Bland
            // return) stay zero, which is always safe for fixing.
            self.dj.iter_mut().for_each(|d| *d = 0.0);
        }
        let mut best: Option<(usize, f64, f64)> = None; // (j, dir, score)
        for j in 0..self.nn {
            let st = self.status[j];
            if st == VStat::Basic {
                continue;
            }
            if self.lb[j] == self.ub[j] {
                continue; // fixed variable can never improve
            }
            let cj = if phase1 { 0.0 } else { self.cost[j] };
            let ay = if j < self.n {
                self.lp.a.col_dot(j, &y)
            } else {
                -y[j - self.n]
            };
            let d = cj - ay;
            if !phase1 {
                self.dj[j] = d;
            }
            let (attractive, dir) = match st {
                VStat::AtLower => (d < -otol, 1.0),
                VStat::AtUpper => (d > otol, -1.0),
                VStat::Free => (d.abs() > otol, if d < 0.0 { 1.0 } else { -1.0 }),
                VStat::Basic => unreachable!(),
            };
            if attractive {
                if bland {
                    return Pricing::Entering { j, dir };
                }
                let score = d * d / self.devex[j];
                if best.is_none_or(|(_, _, s)| score > s) {
                    best = Some((j, dir, score));
                }
            }
        }
        match best {
            Some((j, dir, _)) => Pricing::Entering { j, dir },
            None => Pricing::OptimalOrFeasible,
        }
    }

    /// Bound-flip-aware ratio test. `w` is the ftran'd entering column
    /// (indexed by basis position), `dir` the movement direction of the
    /// entering variable, `phase1` enables infeasible-basic handling.
    /// Under `bland`, ties are broken by smallest leaving-variable index
    /// (required for Bland's rule to actually prevent cycling).
    fn ratio_test(&self, j: usize, dir: f64, w: &[f64], phase1: bool, bland: bool) -> Ratio {
        let piv_tol = 1e-9;
        let t_feas = self.cfg.feas_tol;
        let mut t_best = f64::INFINITY;
        // (pos, to_upper, tie-break score: |w| normally, -var index for Bland)
        let mut leave: Option<(usize, bool, f64)> = None;
        for (i, &wi) in w.iter().enumerate() {
            if wi.abs() < piv_tol {
                continue;
            }
            let bj = self.basis[i];
            let xv = self.x[bj];
            // delta of basic per unit step: x_B -= dir * t * w
            let delta = -dir * wi;
            let (limit, to_upper): (f64, bool) = if delta > 0.0 {
                // moving up
                if phase1 && xv < self.lb[bj] - t_feas {
                    // infeasible below: stops when reaching its lower bound
                    (self.lb[bj], false)
                } else if self.ub[bj].is_finite() {
                    (self.ub[bj], true)
                } else {
                    continue;
                }
            } else {
                // moving down
                if phase1 && xv > self.ub[bj] + t_feas {
                    (self.ub[bj], true)
                } else if self.lb[bj].is_finite() {
                    (self.lb[bj], false)
                } else {
                    continue;
                }
            };
            let t_i = ((limit - xv) / delta).max(0.0);
            let score = if bland { -(bj as f64) } else { wi.abs() };
            let better = t_i < t_best - 1e-12
                || (t_i < t_best + 1e-12 && leave.is_none_or(|(_, _, s)| score > s));
            if better {
                t_best = t_i;
                leave = Some((i, to_upper, score));
            }
        }
        // Bound flip of the entering variable itself.
        let span = self.ub[j] - self.lb[j];
        if span.is_finite() && span < t_best {
            return Ratio::BoundFlip { t: span };
        }
        match leave {
            Some((pos, to_upper, _)) => Ratio::Pivot {
                t: t_best,
                leave_pos: pos,
                leave_to_upper: to_upper,
            },
            None => Ratio::Unbounded,
        }
    }

    /// Applies a step of size `t` along entering variable `j` (direction
    /// `dir`), updating basic values.
    fn apply_step(&mut self, j: usize, dir: f64, t: f64, w: &[f64]) {
        if t != 0.0 {
            for (i, &wi) in w.iter().enumerate() {
                if wi != 0.0 {
                    let bj = self.basis[i];
                    self.x[bj] -= dir * t * wi;
                }
            }
            self.x[j] += dir * t;
        }
    }

    /// Updates the primal Devex reference weights after variable `j` is
    /// chosen to enter at basis position `leave_pos` with ftran'd column
    /// `w`. Must run *before* the basis swap and eta update: the pivot row
    /// `rho = B^-T e_r` is taken from the pre-pivot factorization, and the
    /// leaving variable is still `basis[leave_pos]`.
    fn update_devex(&mut self, j: usize, leave_pos: usize, w: &[f64]) {
        let alpha_q = w[leave_pos];
        if alpha_q.abs() < 1e-12 {
            return;
        }
        let gamma_q = self.devex[j].max(1.0);
        let mut rho = vec![0.0; self.m];
        rho[leave_pos] = 1.0;
        self.fact.btran(&mut rho);
        let mut maxw = 1.0f64;
        for k in 0..self.nn {
            if self.status[k] == VStat::Basic || k == j || self.lb[k] == self.ub[k] {
                continue;
            }
            let alpha_k = if k < self.n {
                self.lp.a.col_dot(k, &rho)
            } else {
                -rho[k - self.n]
            };
            if alpha_k != 0.0 {
                let r = alpha_k / alpha_q;
                let cand = r * r * gamma_q;
                if cand > self.devex[k] {
                    self.devex[k] = cand;
                }
            }
            maxw = maxw.max(self.devex[k]);
        }
        let leaving = self.basis[leave_pos];
        self.devex[leaving] = (gamma_q / (alpha_q * alpha_q)).max(1.0);
        if maxw > 1e8 {
            // Weights have drifted far from the reference framework; restart
            // it (the classic Devex reset).
            self.devex.iter_mut().for_each(|g| *g = 1.0);
        }
    }

    /// Whether the current basis is dual-feasible: every nonbasic reduced
    /// cost has the sign its status requires (within a relaxed tolerance).
    fn dual_feasible(&self) -> bool {
        let mut y = vec![0.0; self.m];
        for (i, &j) in self.basis.iter().enumerate() {
            y[i] = self.cost[j];
        }
        self.fact.btran(&mut y);
        let tol = self.cfg.opt_tol * 10.0;
        for j in 0..self.nn {
            let st = self.status[j];
            if st == VStat::Basic || self.lb[j] == self.ub[j] {
                continue;
            }
            let ay = if j < self.n {
                self.lp.a.col_dot(j, &y)
            } else {
                -y[j - self.n]
            };
            let d = self.cost[j] - ay;
            let bad = match st {
                VStat::AtLower => d < -tol,
                VStat::AtUpper => d > tol,
                VStat::Free => d.abs() > tol,
                VStat::Basic => unreachable!(),
            };
            if bad {
                return false;
            }
        }
        true
    }

    /// Dual simplex: starting from a dual-feasible basis whose primal values
    /// violate some bounds (the warm-started child-node case), repeatedly
    /// drops the most violating basic variable (scaled by dual Devex row
    /// weights) and lets a bound-flipping dual ratio test choose the
    /// entering column, until primal feasibility is restored.
    fn iterate_dual(&mut self) -> Result<DualRun, SolveError> {
        let piv_tol = 1e-9;
        let t_feas = self.cfg.feas_tol;
        let mut colbuf: Vec<(usize, f64)> = Vec::new();
        let mut since_recompute = 0usize;
        let mut singular_retries = 0usize;
        loop {
            if self.iters.is_multiple_of(64) && self.out_of_time() {
                return Ok(DualRun::Limit);
            }
            if self.degenerate_run > Self::STALL_LIMIT {
                return Ok(DualRun::Fallback);
            }
            // Leaving variable: largest violation^2 / devex weight.
            let mut leave: Option<(usize, f64, f64, f64)> = None; // (pos, viol, sigma, score)
            for (i, &bj) in self.basis.iter().enumerate() {
                let v = self.x[bj];
                let (viol, sigma) = if v < self.lb[bj] - t_feas {
                    (self.lb[bj] - v, -1.0)
                } else if v > self.ub[bj] + t_feas {
                    (v - self.ub[bj], 1.0)
                } else {
                    continue;
                };
                let score = viol * viol / self.dual_devex[i];
                if leave.is_none_or(|(_, _, _, s)| score > s) {
                    leave = Some((i, viol, sigma, score));
                }
            }
            let Some((leave_pos, viol, sigma, _)) = leave else {
                return Ok(DualRun::Feasible); // primal feasible
            };
            // Pivot row rho = B^-T e_r and duals y = B^-T c_B; one matrix
            // pass below computes both alpha_j = rho.A_j and d_j.
            let mut rho = vec![0.0; self.m];
            rho[leave_pos] = 1.0;
            self.fact.btran(&mut rho);
            let mut y = vec![0.0; self.m];
            for (i, &bj) in self.basis.iter().enumerate() {
                y[i] = self.cost[bj];
            }
            self.fact.btran(&mut y);
            // Dual ratio test candidates: (ratio, j, abar, d).
            let mut cands: Vec<(f64, usize, f64, f64)> = Vec::new();
            for j in 0..self.nn {
                let st = self.status[j];
                if st == VStat::Basic || self.lb[j] == self.ub[j] {
                    continue;
                }
                let (alpha, ay) = if j < self.n {
                    (self.lp.a.col_dot(j, &rho), self.lp.a.col_dot(j, &y))
                } else {
                    (-rho[j - self.n], -y[j - self.n])
                };
                let abar = sigma * alpha;
                let d = self.cost[j] - ay;
                let eligible = match st {
                    VStat::AtLower => abar > piv_tol,
                    VStat::AtUpper => abar < -piv_tol,
                    VStat::Free => abar.abs() > piv_tol,
                    VStat::Basic => unreachable!(),
                };
                if !eligible {
                    continue;
                }
                let ratio = if abar > 0.0 {
                    d.max(0.0) / abar
                } else {
                    (-d).max(0.0) / (-abar)
                };
                cands.push((ratio, j, abar, d));
            }
            if cands.is_empty() {
                // Dual unbounded: no column can absorb the violation, the
                // primal LP is infeasible.
                return Ok(DualRun::Infeasible);
            }
            let anti_cycle = self.degenerate_run > 200;
            cands.sort_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| {
                        if anti_cycle {
                            a.1.cmp(&b.1) // Bland-style: lowest index
                        } else {
                            // prefer large pivots for stability
                            b.2.abs()
                                .partial_cmp(&a.2.abs())
                                .unwrap_or(std::cmp::Ordering::Equal)
                        }
                    })
            });
            // Bound-flipping walk: while the remaining violation survives
            // flipping a boxed candidate to its other bound, flip it and
            // keep looking; the blocking candidate enters the basis.
            let mut remaining = viol;
            let mut enter: Option<(usize, f64)> = None; // (j, abar)
            let mut flips: Vec<usize> = Vec::new();
            for &(_, j, abar, _) in &cands {
                let span = self.ub[j] - self.lb[j];
                if span.is_finite() && remaining - span * abar.abs() > t_feas {
                    remaining -= span * abar.abs();
                    flips.push(j);
                } else {
                    enter = Some((j, abar));
                    break;
                }
            }
            let Some((j_enter, _)) = enter else {
                // Every candidate flipped yet violation persists: infeasible.
                return Ok(DualRun::Infeasible);
            };
            // Apply the accumulated bound flips with one aggregated ftran:
            // x_B -= B^-1 (sum_j A_j delta_j).
            if !flips.is_empty() {
                let mut rhs = vec![0.0; self.m];
                for &j in &flips {
                    let (old, new_st) = match self.status[j] {
                        VStat::AtLower => (self.lb[j], VStat::AtUpper),
                        VStat::AtUpper => (self.ub[j], VStat::AtLower),
                        _ => continue, // free variables have no other bound
                    };
                    self.status[j] = new_st;
                    let delta = self.nonbasic_value(j) - old;
                    self.x[j] += delta;
                    if delta != 0.0 {
                        if j < self.n {
                            self.lp.a.axpy_col(j, delta, &mut rhs);
                        } else {
                            rhs[j - self.n] -= delta;
                        }
                    }
                }
                self.fact.ftran(&mut rhs);
                for (i, &bj) in self.basis.iter().enumerate() {
                    self.x[bj] -= rhs[i];
                }
            }
            // Entering column and step length to land the leaving variable
            // exactly on its violated bound.
            self.column(j_enter, &mut colbuf);
            let mut w = vec![0.0; self.m];
            for &(r, v) in &colbuf {
                w[r] = v;
            }
            self.fact.ftran(&mut w);
            if w[leave_pos].abs() < piv_tol {
                // Numerical disagreement between the pivot row and the
                // ftran'd column; refresh the factorization and retry.
                singular_retries += 1;
                if singular_retries > 3 || !self.refactorize() {
                    return Ok(DualRun::Fallback);
                }
                self.compute_basics();
                continue;
            }
            let leaving = self.basis[leave_pos];
            let target = if sigma > 0.0 {
                self.ub[leaving]
            } else {
                self.lb[leaving]
            };
            let dir = match self.status[j_enter] {
                VStat::AtLower => 1.0,
                VStat::AtUpper => -1.0,
                _ => {
                    if (self.x[leaving] - target) / w[leave_pos] >= 0.0 {
                        1.0
                    } else {
                        -1.0
                    }
                }
            };
            let t = ((self.x[leaving] - target) / (dir * w[leave_pos])).max(0.0);
            if t <= 1e-11 && flips.is_empty() {
                self.degenerate_run += 1;
            } else {
                self.degenerate_run = 0;
            }
            self.apply_step(j_enter, dir, t, &w);
            // Dual Devex row-weight update from the entering column (done
            // before the basis swap so weights still index the old basis).
            let alpha_r = w[leave_pos];
            let w_r = self.dual_devex[leave_pos].max(1.0);
            let mut maxw = 1.0f64;
            for (i, &wi) in w.iter().enumerate() {
                if i == leave_pos || wi == 0.0 {
                    continue;
                }
                let r = wi / alpha_r;
                let cand = r * r * w_r;
                if cand > self.dual_devex[i] {
                    self.dual_devex[i] = cand;
                }
                maxw = maxw.max(self.dual_devex[i]);
            }
            self.dual_devex[leave_pos] = (w_r / (alpha_r * alpha_r)).max(1.0);
            if maxw > 1e8 {
                self.dual_devex.iter_mut().for_each(|g| *g = 1.0);
            }
            // Basis swap.
            self.status[leaving] = if sigma > 0.0 {
                VStat::AtUpper
            } else {
                VStat::AtLower
            };
            self.x[leaving] = self.nonbasic_value(leaving);
            self.pos[leaving] = usize::MAX;
            self.basis[leave_pos] = j_enter;
            self.pos[j_enter] = leave_pos;
            self.status[j_enter] = VStat::Basic;
            if self.fact.eta_count() >= REFACTOR_INTERVAL
                || self.fact.update(leave_pos, &w).is_err()
            {
                if !self.refactorize() {
                    // Singular after the swap: rebuild the slack basis (it
                    // is not dual-feasible, so hand control to primal).
                    self.slack_resets += 1;
                    if self.slack_resets > 3 {
                        return Err(self
                            .last_lu
                            .clone()
                            .map(SolveError::from)
                            .unwrap_or(SolveError::SingularBasis { position: 0 }));
                    }
                    self.slack_basis();
                    if !self.refactorize() && !self.refactorize() {
                        return Err(self
                            .last_lu
                            .clone()
                            .map(SolveError::from)
                            .unwrap_or(SolveError::SingularBasis { position: 0 }));
                    }
                    self.compute_basics();
                    return Ok(DualRun::Fallback);
                }
                self.compute_basics();
                since_recompute = 0;
            }
            self.iters += 1;
            self.dual_iters += 1;
            since_recompute += 1;
            if since_recompute >= 512 {
                self.compute_basics();
                since_recompute = 0;
                if !self.x.iter().all(|v| v.is_finite()) {
                    return Err(SolveError::NumericBlowup);
                }
            }
        }
    }

    fn out_of_time(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d) || self.cfg.is_cancelled()
    }

    /// Maximum degenerate-pivot run tolerated once Bland's rule is already
    /// active; past this the solve is declared stalled ([`SolveError::Cycling`]).
    const STALL_LIMIT: usize = 5_000;

    /// Runs simplex iterations; `phase1` controls the costs. Returns the
    /// terminating condition from the inner loop, or a [`SolveError`] when
    /// the in-loop safeguards (slack reset, Bland's rule) are exhausted.
    fn iterate(&mut self, phase1: bool) -> Result<LpStatus, SolveError> {
        let mut colbuf: Vec<(usize, f64)> = Vec::new();
        let mut since_recompute = 0usize;
        loop {
            if self.iters.is_multiple_of(64) && self.out_of_time() {
                return Ok(LpStatus::Limit);
            }
            if self.degenerate_run > Self::STALL_LIMIT {
                return Err(SolveError::Cycling { iters: self.iters });
            }
            if phase1 && self.infeasibility() <= self.cfg.feas_tol * (1.0 + self.m as f64) {
                return Ok(LpStatus::Optimal); // feasible; caller proceeds to phase 2
            }
            let bland = self.force_bland || self.degenerate_run > 200;
            let (j, dir) = match self.price(phase1, bland) {
                Pricing::Entering { j, dir } => (j, dir),
                Pricing::OptimalOrFeasible => {
                    if phase1 && self.infeasibility() > self.cfg.feas_tol * (1.0 + self.m as f64) {
                        return Ok(LpStatus::Infeasible);
                    }
                    return Ok(LpStatus::Optimal);
                }
            };
            self.column(j, &mut colbuf);
            let mut w = vec![0.0; self.m];
            for &(r, v) in &colbuf {
                w[r] = v;
            }
            self.fact.ftran(&mut w);
            match self.ratio_test(j, dir, &w, phase1, bland) {
                Ratio::Unbounded => {
                    return if phase1 {
                        // cannot happen: phase-1 objective is bounded below by 0;
                        // treat defensively as numerical trouble -> infeasible
                        Ok(LpStatus::Infeasible)
                    } else {
                        Ok(LpStatus::Unbounded)
                    };
                }
                Ratio::BoundFlip { t } => {
                    self.apply_step(j, dir, t, &w);
                    self.status[j] = if dir > 0.0 {
                        VStat::AtUpper
                    } else {
                        VStat::AtLower
                    };
                    self.x[j] = self.nonbasic_value(j);
                    self.degenerate_run = 0;
                }
                Ratio::Pivot { t, leave_pos, leave_to_upper } => {
                    if t <= 1e-11 {
                        self.degenerate_run += 1;
                    } else {
                        self.degenerate_run = 0;
                    }
                    self.apply_step(j, dir, t, &w);
                    if !bland {
                        self.update_devex(j, leave_pos, &w);
                    }
                    let leaving = self.basis[leave_pos];
                    self.status[leaving] = if leave_to_upper {
                        VStat::AtUpper
                    } else {
                        VStat::AtLower
                    };
                    self.x[leaving] = self.nonbasic_value(leaving);
                    self.pos[leaving] = usize::MAX;
                    self.basis[leave_pos] = j;
                    self.pos[j] = leave_pos;
                    self.status[j] = VStat::Basic;
                    if self.fact.eta_count() >= REFACTOR_INTERVAL
                        || self.fact.update(leave_pos, &w).is_err()
                    {
                        if !self.refactorize() {
                            // numerically singular: rebuild from slack basis
                            self.slack_resets += 1;
                            if self.slack_resets > 3 {
                                // persistently singular: surface it; the
                                // solve_lp ladder gets the next rung
                                return Err(self
                                    .last_lu
                                    .clone()
                                    .map(SolveError::from)
                                    .unwrap_or(SolveError::SingularBasis { position: 0 }));
                            }
                            self.slack_basis();
                            if !self.refactorize() && !self.refactorize() {
                                return Err(self
                                    .last_lu
                                    .clone()
                                    .map(SolveError::from)
                                    .unwrap_or(SolveError::SingularBasis { position: 0 }));
                            }
                            self.compute_basics();
                            continue;
                        }
                        self.compute_basics();
                        since_recompute = 0;
                    }
                }
            }
            self.iters += 1;
            if phase1 {
                self.phase1_iters += 1;
            }
            since_recompute += 1;
            if since_recompute >= 512 {
                // periodic accuracy refresh
                self.compute_basics();
                since_recompute = 0;
                if !self.x.iter().all(|v| v.is_finite()) {
                    return Err(SolveError::NumericBlowup);
                }
            }
        }
    }

    fn objective(&self) -> f64 {
        (0..self.n).map(|j| self.cost[j] * self.x[j]).sum()
    }

    fn result(&self, status: LpStatus) -> LpResult {
        // Row duals y = B^{-T} c_B off the final factorization. The slack of
        // row r enters the augmented system as -e_r with zero cost, so its
        // reduced cost is 0 - y^T(-e_r) = y_r; for structural column a_j the
        // reduced cost is c_j - y^T a_j, the form pricing needs.
        let mut y = vec![0.0; self.m];
        for (i, &j) in self.basis.iter().enumerate() {
            y[i] = self.cost[j];
        }
        self.fact.btran(&mut y);
        LpResult {
            status,
            obj: self.objective(),
            x: self.x[..self.n].to_vec(),
            iters: self.iters,
            phase1_iters: self.phase1_iters,
            dual_iters: self.dual_iters,
            statuses: self.status.clone(),
            dj: self.dj[..self.n].to_vec(),
            y,
            recoveries: 0,
        }
    }
}

/// Deterministic hash in `[0, 1)` for seeded cost perturbations.
fn hash01(seed: u64, j: usize) -> f64 {
    let mut x = seed ^ (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// One rung of the recovery ladder: a complete two-phase solve with optional
/// Bland forcing and seeded cost perturbation.
#[allow(clippy::too_many_arguments)]
fn solve_lp_attempt(
    lp: &LpData,
    var_lb: &[f64],
    var_ub: &[f64],
    cfg: &Config,
    warm: Option<&[VStat]>,
    deadline: Option<Instant>,
    force_bland: bool,
    perturb_seed: Option<u64>,
) -> Result<LpResult, SolveError> {
    let mut eng = Engine::new(lp, var_lb, var_ub, cfg, deadline);
    eng.force_bland = force_bland;
    if let Some(seed) = perturb_seed {
        // Tiny seeded cost jitter breaks the degenerate ties that defeated
        // the earlier rungs; the true objective is recomputed afterwards.
        for j in 0..eng.n {
            let c = eng.cost[j];
            eng.cost[j] = c + 1e-7 * (hash01(seed, j) - 0.5) * (1.0 + c.abs());
        }
    }
    let used_warm = eng.install(warm)?;
    eng.compute_basics();

    let infeas_tol = cfg.feas_tol * (1.0 + eng.m as f64);
    let mut need_phase1 = eng.infeasibility() > infeas_tol;
    // Dual reoptimization: a warm basis that was optimal before a bound
    // change (or before rows were appended with basic slacks) is still
    // dual-feasible, so the dual simplex restores primal feasibility in a
    // few pivots instead of a full primal Phase 1. Only attempted when the
    // warm basis installed, and only on the clean rung (no Bland forcing,
    // no perturbation); any trouble falls back to the primal path below.
    if need_phase1 && used_warm && !force_bland && perturb_seed.is_none() && eng.dual_feasible() {
        match eng.iterate_dual()? {
            DualRun::Feasible => need_phase1 = false,
            DualRun::Infeasible => return Ok(eng.result(LpStatus::Infeasible)),
            DualRun::Limit => return Ok(eng.result(LpStatus::Limit)),
            DualRun::Fallback => need_phase1 = eng.infeasibility() > infeas_tol,
        }
    }
    // Phase 1 if needed.
    if need_phase1 {
        match eng.iterate(true)? {
            LpStatus::Optimal => {}
            s => return Ok(eng.result(s)),
        }
    }
    // Phase 2 (after a successful dual run this certifies optimality in a
    // single pricing pass and captures the reduced costs).
    let status = eng.iterate(false)?;
    let mut r = eng.result(status);
    if perturb_seed.is_some() {
        // Report the unperturbed objective; the perturbed reduced costs are
        // zeroed out so downstream fixing never trusts them.
        r.obj = (0..lp.num_vars()).map(|j| lp.c[j] * r.x[j]).sum();
        r.dj.iter_mut().for_each(|d| *d = 0.0);
        r.y.iter_mut().for_each(|v| *v = 0.0);
    }
    Ok(r)
}

/// Solves the LP given by `lp` with per-call variable bounds.
///
/// `warm` may carry the status vector of a previous solve over the same
/// matrix (e.g. from a parent branch-and-bound node); it is validated and
/// repaired, falling back to the all-slack basis when unusable.
///
/// `deadline` bounds wall-clock time; on expiry the solve returns
/// [`LpStatus::Limit`]. A [`crate::CancelToken`] on `cfg` is honored at the
/// same checkpoints.
///
/// Numerical failures run a three-rung recovery ladder before surfacing: a
/// clean re-solve, a cold-start re-solve under Bland's rule, and a seeded
/// perturb-and-retry. [`LpResult::recoveries`] records how many rungs were
/// consumed; an `Err` means all three failed.
pub fn solve_lp(
    lp: &LpData,
    var_lb: &[f64],
    var_ub: &[f64],
    cfg: &Config,
    warm: Option<&[VStat]>,
    deadline: Option<Instant>,
) -> Result<LpResult, SolveError> {
    // Length mismatches are construction bugs in the caller, not runtime
    // conditions: the branch-and-bound driver always passes vectors sized
    // off this same matrix.
    debug_assert_eq!(var_lb.len(), lp.num_vars());
    debug_assert_eq!(var_ub.len(), lp.num_vars());
    for j in 0..var_lb.len() {
        if var_lb[j] > var_ub[j] {
            // trivially infeasible bounds (possible after branching)
            return Ok(LpResult {
                status: LpStatus::Infeasible,
                obj: f64::INFINITY,
                x: Vec::new(),
                iters: 0,
                phase1_iters: 0,
                dual_iters: 0,
                statuses: Vec::new(),
                dj: Vec::new(),
                y: Vec::new(),
                recoveries: 0,
            });
        }
    }
    let mut last_err = SolveError::NumericBlowup;
    for attempt in 0..3u32 {
        let (w, bland, perturb) = match attempt {
            0 => (warm, false, None),
            // Rung 1: discard the (possibly corrupt) warm basis, force
            // Bland's rule from iteration one.
            1 => (None, true, None),
            // Rung 2: additionally perturb costs to break degeneracy.
            _ => (None, true, Some(cfg.seed ^ 0xFA17)),
        };
        match solve_lp_attempt(lp, var_lb, var_ub, cfg, w, deadline, bland, perturb) {
            Ok(mut r) => {
                r.recoveries = attempt as usize;
                return Ok(r);
            }
            Err(e) => last_err = e,
        }
    }
    Err(last_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::TripletBuilder;

    /// Test row: sparse coefficients plus `[lb, ub]` range.
    type TestRow<'a> = (&'a [(usize, f64)], f64, f64);

    fn lp(rows: &[TestRow], nvars: usize, c: &[f64]) -> LpData {
        let mut b = TripletBuilder::new(rows.len(), nvars);
        let mut row_lb = Vec::new();
        let mut row_ub = Vec::new();
        for (ri, (coefs, lo, hi)) in rows.iter().enumerate() {
            for &(j, v) in *coefs {
                b.push(ri, j, v);
            }
            row_lb.push(*lo);
            row_ub.push(*hi);
        }
        LpData {
            a: b.build(),
            c: c.to_vec(),
            row_lb,
            row_ub,
        }
    }

    const INF: f64 = f64::INFINITY;

    #[test]
    fn simple_min() {
        // min x + y  s.t. x + y >= 2, x,y in [0, 10]
        let data = lp(&[(&[(0, 1.0), (1, 1.0)], 2.0, INF)], 2, &[1.0, 1.0]);
        let r = solve_lp(&data, &[0.0, 0.0], &[10.0, 10.0], &Config::default(), None, None).unwrap();
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.obj - 2.0).abs() < 1e-7, "obj = {}", r.obj);
    }

    #[test]
    fn classic_max_as_min() {
        // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 => min -3x -2y; opt at (4,0) = -12
        let data = lp(
            &[
                (&[(0, 1.0), (1, 1.0)], -INF, 4.0),
                (&[(0, 1.0), (1, 3.0)], -INF, 6.0),
            ],
            2,
            &[-3.0, -2.0],
        );
        let r = solve_lp(&data, &[0.0, 0.0], &[INF, INF], &Config::default(), None, None).unwrap();
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.obj + 12.0).abs() < 1e-7, "obj = {}", r.obj);
        assert!((r.x[0] - 4.0).abs() < 1e-7);
        assert!(r.x[1].abs() < 1e-7);
    }

    #[test]
    fn equality_rows() {
        // min 2x + 3y s.t. x + y == 5, x - y == 1 -> x=3, y=2, obj 12
        let data = lp(
            &[
                (&[(0, 1.0), (1, 1.0)], 5.0, 5.0),
                (&[(0, 1.0), (1, -1.0)], 1.0, 1.0),
            ],
            2,
            &[2.0, 3.0],
        );
        let r = solve_lp(&data, &[0.0, 0.0], &[INF, INF], &Config::default(), None, None).unwrap();
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.obj - 12.0).abs() < 1e-7, "obj = {}", r.obj);
        assert!((r.x[0] - 3.0).abs() < 1e-7);
        assert!((r.x[1] - 2.0).abs() < 1e-7);
    }

    #[test]
    fn duals_satisfy_reduced_cost_identity() {
        // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 => min -3x - 2y.
        // Optimum (4, 0): row 0 binds (y0 = -3), row 1 is slack (y1 = 0).
        let data = lp(
            &[
                (&[(0, 1.0), (1, 1.0)], -INF, 4.0),
                (&[(0, 1.0), (1, 3.0)], -INF, 6.0),
            ],
            2,
            &[-3.0, -2.0],
        );
        let r = solve_lp(&data, &[0.0, 0.0], &[INF, INF], &Config::default(), None, None).unwrap();
        assert_eq!(r.status, LpStatus::Optimal);
        assert_eq!(r.y.len(), 2);
        assert!((r.y[0] + 3.0).abs() < 1e-7, "y = {:?}", r.y);
        assert!(r.y[1].abs() < 1e-7, "y = {:?}", r.y);
        // Reduced-cost identity c_j - y^T a_j for both structural columns.
        for j in 0..2 {
            let rc = data.c[j] - data.a.col_dot(j, &r.y);
            if (r.x[j]).abs() > 1e-7 {
                assert!(rc.abs() < 1e-7, "basic column rc = {rc}");
            } else {
                assert!(rc > -1e-7, "nonbasic column rc = {rc}");
            }
        }
    }

    #[test]
    fn append_cols_warm_reoptimizes() {
        // Start from the classic max LP, then price in a dominant column.
        let mut data = lp(
            &[
                (&[(0, 1.0), (1, 1.0)], -INF, 4.0),
                (&[(0, 1.0), (1, 3.0)], -INF, 6.0),
            ],
            2,
            &[-3.0, -2.0],
        );
        let cfg = Config::default();
        let r = solve_lp(&data, &[0.0, 0.0], &[INF, INF], &cfg, None, None).unwrap();
        assert_eq!(r.status, LpStatus::Optimal);
        // New column z: cost -5, enters row 0 only. rc = -5 - y0 = -2 < 0.
        let rc = -5.0 - r.y[0];
        assert!(rc < 0.0, "appended column should be improving, rc = {rc}");
        data.append_cols(&[(vec![(0, 1.0)], -5.0)]);
        assert_eq!(data.num_vars(), 3);
        // Splice the warm statuses: old structurals, new col at lower bound,
        // then the untouched slack block.
        let mut warm = r.statuses[..2].to_vec();
        warm.push(VStat::AtLower);
        warm.extend_from_slice(&r.statuses[2..]);
        let r2 = solve_lp(
            &data,
            &[0.0, 0.0, 0.0],
            &[INF, INF, INF],
            &cfg,
            Some(&warm),
            None,
        )
        .unwrap();
        assert_eq!(r2.status, LpStatus::Optimal);
        // Optimum moves to z = 4: obj = -20.
        assert!((r2.obj + 20.0).abs() < 1e-7, "obj = {}", r2.obj);
        assert!((r2.x[2] - 4.0).abs() < 1e-7, "x = {:?}", r2.x);
    }

    #[test]
    fn infeasible_detected() {
        // x >= 3 and x <= 1
        let data = lp(
            &[
                (&[(0, 1.0)], 3.0, INF),
                (&[(0, 1.0)], -INF, 1.0),
            ],
            1,
            &[1.0],
        );
        let r = solve_lp(&data, &[0.0], &[INF], &Config::default(), None, None).unwrap();
        assert_eq!(r.status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        // min -x, x >= 0, no upper limit
        let data = lp(&[(&[(0, 1.0)], 0.0, INF)], 1, &[-1.0]);
        let r = solve_lp(&data, &[0.0], &[INF], &Config::default(), None, None).unwrap();
        assert_eq!(r.status, LpStatus::Unbounded);
    }

    #[test]
    fn free_variable() {
        // min x s.t. x >= -5 via row (free var bounds)
        let data = lp(&[(&[(0, 1.0)], -5.0, INF)], 1, &[1.0]);
        let r = solve_lp(&data, &[-INF], &[INF], &Config::default(), None, None).unwrap();
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.obj + 5.0).abs() < 1e-7, "obj = {}", r.obj);
    }

    #[test]
    fn negative_lower_bounds() {
        // min x + y, x in [-3, 3], y in [-2, 2], x + y >= -4
        let data = lp(&[(&[(0, 1.0), (1, 1.0)], -4.0, INF)], 2, &[1.0, 1.0]);
        let r = solve_lp(&data, &[-3.0, -2.0], &[3.0, 2.0], &Config::default(), None, None).unwrap();
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.obj + 4.0).abs() < 1e-7, "obj = {}", r.obj);
    }

    #[test]
    fn range_rows() {
        // min x, 2 <= x + y <= 6, y in [0, 1] -> x >= 1 when y at most 1
        let data = lp(&[(&[(0, 1.0), (1, 1.0)], 2.0, 6.0)], 2, &[1.0, 0.0]);
        let r = solve_lp(&data, &[0.0, 0.0], &[INF, 1.0], &Config::default(), None, None).unwrap();
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.obj - 1.0).abs() < 1e-7, "obj = {}", r.obj);
    }

    #[test]
    fn warm_start_after_bound_change() {
        // min -x - y, x + y <= 4, x,y in [0,3]; opt 4 at e.g. (3,1)
        let data = lp(&[(&[(0, 1.0), (1, 1.0)], -INF, 4.0)], 2, &[-1.0, -1.0]);
        let r1 = solve_lp(&data, &[0.0, 0.0], &[3.0, 3.0], &Config::default(), None, None).unwrap();
        assert_eq!(r1.status, LpStatus::Optimal);
        assert!((r1.obj + 4.0).abs() < 1e-7);
        // Tighten x <= 1 and warm start: optimum becomes -1 - 3 = ... x+y<=4
        // with x<=1, y<=3 -> obj -4 still (1+3). Tighten y <= 1 too -> -2.
        let r2 = solve_lp(
            &data,
            &[0.0, 0.0],
            &[1.0, 1.0],
            &Config::default(),
            Some(&r1.statuses),
            None,
        )
        .unwrap();
        assert_eq!(r2.status, LpStatus::Optimal);
        assert!((r2.obj + 2.0).abs() < 1e-7, "obj = {}", r2.obj);
    }

    #[test]
    fn fixed_variables() {
        // x fixed at 2, min y with y >= x
        let data = lp(&[(&[(1, 1.0), (0, -1.0)], 0.0, INF)], 2, &[0.0, 1.0]);
        let r = solve_lp(&data, &[2.0, 0.0], &[2.0, INF], &Config::default(), None, None).unwrap();
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.obj - 2.0).abs() < 1e-7, "obj = {}", r.obj);
        assert!((r.x[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Many redundant constraints through the same vertex.
        let data = lp(
            &[
                (&[(0, 1.0), (1, 1.0)], -INF, 1.0),
                (&[(0, 2.0), (1, 2.0)], -INF, 2.0),
                (&[(0, 1.0)], -INF, 1.0),
                (&[(1, 1.0)], -INF, 1.0),
                (&[(0, 3.0), (1, 3.0)], -INF, 3.0),
            ],
            2,
            &[-1.0, -1.0],
        );
        let r = solve_lp(&data, &[0.0, 0.0], &[INF, INF], &Config::default(), None, None).unwrap();
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.obj + 1.0).abs() < 1e-7, "obj = {}", r.obj);
    }

    #[test]
    fn larger_random_lps_match_feasibility() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..20 {
            let n = rng.gen_range(2..6);
            let m = rng.gen_range(1..5);
            let mut b = TripletBuilder::new(m, n);
            let mut row_lb = vec![0.0; m];
            let mut row_ub = vec![0.0; m];
            for r in 0..m {
                for j in 0..n {
                    if rng.gen_bool(0.7) {
                        b.push(r, j, rng.gen_range(-2.0..2.0));
                    }
                }
                let c = rng.gen_range(-3.0..3.0);
                row_lb[r] = -INF;
                row_ub[r] = c;
            }
            let c: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let data = LpData {
                a: b.build(),
                c,
                row_lb,
                row_ub,
            };
            let lo = vec![0.0; n];
            let hi = vec![5.0; n];
            let r = solve_lp(&data, &lo, &hi, &Config::default(), None, None).unwrap();
            // Bounded box + <= rows: never unbounded; x=0 may violate rows
            // with negative ub, so infeasible is possible but solution, when
            // claimed optimal, must verify.
            if r.status == LpStatus::Optimal {
                let act = data.a.mul_vec(&r.x);
                for (ri, (&lo, &hi)) in data.row_lb.iter().zip(&data.row_ub).enumerate() {
                    assert!(
                        act[ri] >= lo - 1e-6 && act[ri] <= hi + 1e-6,
                        "row {} violated",
                        ri
                    );
                }
            }
            assert_ne!(r.status, LpStatus::Unbounded);
        }
    }

    #[test]
    fn append_rows_extends_lp_and_warm_start() {
        // min -x - y s.t. x + y <= 4; then append x <= 1.5 as an extra row
        // and reoptimize from the old basis padded with one Basic slack.
        let mut data = lp(&[(&[(0, 1.0), (1, 1.0)], -INF, 4.0)], 2, &[-1.0, -1.0]);
        let cfg = Config::default();
        let r = solve_lp(&data, &[0.0, 0.0], &[INF, INF], &cfg, None, None).unwrap();
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.obj + 4.0).abs() < 1e-7);

        data.append_rows(&[(vec![(0, 1.0)], -INF, 1.5)]);
        assert_eq!(data.num_rows(), 2);
        let mut warm = r.statuses.clone();
        warm.push(VStat::Basic);
        let r2 = solve_lp(&data, &[0.0, 0.0], &[INF, INF], &cfg, Some(&warm), None).unwrap();
        assert_eq!(r2.status, LpStatus::Optimal);
        assert!((r2.obj + 4.0).abs() < 1e-7, "obj = {}", r2.obj);
        assert!(r2.x[0] <= 1.5 + 1e-7);
    }

    #[test]
    fn tableau_rows_reproduce_basic_values() {
        // max x + y s.t. 2x + 3y <= 12, 3x + 2y <= 12 -> x = y = 2.4 basic.
        let data = lp(
            &[
                (&[(0, 2.0), (1, 3.0)], -INF, 12.0),
                (&[(0, 3.0), (1, 2.0)], -INF, 12.0),
            ],
            2,
            &[-1.0, -1.0],
        );
        let cfg = Config::default();
        let r = solve_lp(&data, &[0.0, 0.0], &[INF, INF], &cfg, None, None).unwrap();
        assert_eq!(r.status, LpStatus::Optimal);
        let rows = extract_tableau_rows(&data, &[0.0, 0.0], &[INF, INF], &cfg, &r.statuses, &[0, 1])
            .expect("basis reinstalls");
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!((row.rhs - 2.4).abs() < 1e-7, "rhs = {}", row.rhs);
            // Zero-rhs identity: x_var = -sum coefs * z_nb, with both slacks
            // nonbasic at their upper bound 12.
            let nb_sum: f64 = row.coefs.iter().map(|&(_, a)| a * 12.0).sum();
            assert!(
                (r.x[row.var] + nb_sum).abs() < 1e-7,
                "row identity violated for var {}",
                row.var
            );
        }
    }

    #[test]
    fn tableau_rows_reject_bad_statuses() {
        let data = lp(&[(&[(0, 1.0)], -INF, 3.0)], 1, &[-1.0]);
        let cfg = Config::default();
        // Wrong length: must refuse rather than silently use the slack basis.
        assert!(extract_tableau_rows(&data, &[0.0], &[INF], &cfg, &[VStat::Basic], &[0]).is_none());
    }
}
