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
//! Both loops pivot through one routine, `Engine::change_basis` (the swap,
//! an eta update or a refactorization, the slack-basis fallback), and each
//! quantity has one helper: `duals`, `pivot_row`, `ftran_column`,
//! `devex_update`, and `LpData::aug_entries`/`aug_dot` for `[A | -I]`.
//!
//! Numerical failures are recovered in-solver before surfacing: a singular
//! factorization triggers a refactorize / slack-basis reset, a persistent
//! stall restarts the solve under Bland's rule, and a final rung re-solves
//! with seeded cost perturbations. Only when all rungs fail does
//! [`solve_lp`] return a [`SolveError`]. [`certificate_violation`] checks
//! an `Optimal` result from its `x` and `y` alone.

use crate::config::Config;
use crate::error::SolveError;
use crate::lu::{Factorization, LuError};
use crate::sparse::CscMatrix;
use std::time::Instant;

/// Primal feasibility tolerance: how far a basic value may sit outside its
/// bounds (phase-1 costs, ratio tests, the infeasibility sum).
const FEAS_TOL: f64 = 1e-7;
/// Reduced-cost optimality tolerance: pricing, and ten times it in the
/// dual-feasibility check of a warm basis.
const OPT_TOL: f64 = 1e-7;

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
    // Falling back to the slack basis would extract rows of a basis nobody
    // asked about; report failure instead.
    if eng.install(Some(statuses)) != Ok(true) {
        return None;
    }
    eng.compute_basics();
    let rows = wanted
        .iter()
        .copied()
        .filter(|&j| eng.status.get(j) == Some(&VStat::Basic))
        .map(|j| {
            let rho = eng.pivot_row(eng.pos[j]);
            let coefs = (0..eng.nn)
                .filter(|&k| eng.status[k] != VStat::Basic)
                .map(|k| (k, lp.aug_dot(k, &rho)))
                .filter(|&(_, a)| a.abs() > 1e-12)
                .collect();
            TableauRow {
                var: j,
                rhs: eng.x[j],
                coefs,
            }
        })
        .collect();
    Some(rows)
}

impl LpData {
    /// Calls `f(row, value)` on each entry of column `j` of the augmented
    /// matrix `[A | -I]`: structural for `j < n`, the slack of row `j - n`
    /// beyond.
    fn aug_entries(&self, j: usize, mut f: impl FnMut(usize, f64)) {
        let n = self.num_vars();
        if j < n {
            for (r, v) in self.a.col(j) {
                f(r, v);
            }
        } else {
            f(j - n, -1.0);
        }
    }

    /// `a_j . v` for column `j` of `[A | -I]`.
    fn aug_dot(&self, j: usize, v: &[f64]) -> f64 {
        let n = self.num_vars();
        if j < n {
            self.a.col_dot(j, v)
        } else {
            -v[j - n]
        }
    }
}

/// Refactorize the basis after this many eta updates.
const REFACTOR_INTERVAL: usize = 64;

/// Recompute the basic values from scratch after this many pivots without
/// a refactorization.
const REFRESH_INTERVAL: usize = 512;

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
    /// Pivots since the running loop started or last refactorized.
    since_refresh: usize,
    deadline: Option<Instant>,
    /// Recovery rung: forces Bland's rule from the first iteration.
    force_bland: bool,
    /// Slack-basis rebuilds after singular factorizations; capped so a
    /// persistently singular basis surfaces as an error, not a loop.
    slack_resets: usize,
    /// Basis position of the last singular factorization, kept for error
    /// reporting.
    singular_at: usize,
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

/// What [`Engine::change_basis`] did to the basis.
#[derive(PartialEq, Eq)]
enum BasisChange {
    /// The entering variable took the leaving one's position.
    Pivoted,
    /// The new basis would not factorize; the slack basis replaced it.
    SlackReset,
}

/// Devex update of one pivot with pivot element `alpha_p` and pivot weight
/// `gamma`: each `(k, alpha_k)` of the pivot row (primal) or column (dual)
/// raises `weights[k]` to `(alpha_k / alpha_p)^2 gamma` if that is larger,
/// the pivot's own weight becomes `gamma / alpha_p^2` (at least 1), and
/// weights that have drifted past `1e8` restart at 1 (the classic reset).
fn devex_update(
    weights: &mut [f64],
    entries: impl Iterator<Item = (usize, f64)>,
    pivot: usize,
    alpha_p: f64,
    gamma: f64,
) {
    let mut maxw = 1.0f64;
    for (k, alpha_k) in entries {
        if alpha_k != 0.0 {
            let r = alpha_k / alpha_p;
            let cand = r * r * gamma;
            if cand > weights[k] {
                weights[k] = cand;
            }
        }
        maxw = maxw.max(weights[k]);
    }
    weights[pivot] = (gamma / (alpha_p * alpha_p)).max(1.0);
    if maxw > 1e8 {
        weights.fill(1.0);
    }
}

impl<'a> Engine<'a> {
    fn new(
        lp: &'a LpData,
        var_lb: &[f64],
        var_ub: &[f64],
        cfg: &'a Config,
        deadline: Option<Instant>,
    ) -> Self {
        let (n, m) = (lp.num_vars(), lp.num_rows());
        let nn = n + m;
        Engine {
            lp,
            lb: [var_lb, &lp.row_lb].concat(),
            ub: [var_ub, &lp.row_ub].concat(),
            cost: [&lp.c[..], &vec![0.0; m]].concat(),
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
            since_refresh: 0,
            deadline,
            force_bland: false,
            slack_resets: 0,
            singular_at: 0,
            devex: vec![1.0; nn],
            dual_devex: vec![1.0; m],
            dj: vec![0.0; nn],
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

    /// Installs and factorizes the all-slack basis. It is `-I` and can only
    /// fail under injection or a broken workspace; one retry absorbs a
    /// single injected fault.
    fn install_slack_basis(&mut self) -> Result<(), SolveError> {
        for j in 0..self.n {
            self.status[j] = Self::natural_status(self.lb[j], self.ub[j]);
            self.pos[j] = usize::MAX;
        }
        self.basis = (self.n..self.nn).collect();
        for (i, &j) in self.basis.iter().enumerate() {
            self.status[j] = VStat::Basic;
            self.pos[j] = i;
        }
        if self.refactorize() || self.refactorize() {
            Ok(())
        } else {
            Err(self.singular_error())
        }
    }

    /// Installs a warm-start status vector if it is usable, else the slack
    /// basis. Returns whether the warm basis was installed (so the caller
    /// knows a dual-feasible start may be available). Errs only when even
    /// the slack basis fails to factorize.
    fn install(&mut self, warm: Option<&[VStat]>) -> Result<bool, SolveError> {
        self.devex.fill(1.0);
        self.dual_devex.fill(1.0);
        if let Some(w) = warm {
            if w.len() == self.nn && w.iter().filter(|s| **s == VStat::Basic).count() == self.m {
                self.basis.clear();
                for (j, &s) in w.iter().enumerate() {
                    // repair statuses that bound changes made inconsistent
                    let (lb, ub) = (self.lb[j], self.ub[j]);
                    let natural = Self::natural_status(lb, ub);
                    let s = match s {
                        VStat::AtLower if !lb.is_finite() => natural,
                        VStat::AtUpper if !ub.is_finite() => natural,
                        VStat::Free if lb.is_finite() || ub.is_finite() => natural,
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
        self.install_slack_basis()?;
        Ok(false)
    }

    fn refactorize(&mut self) -> bool {
        if let Some(f) = &self.cfg.faults {
            if f.on_factorize() {
                // Injected singularity: report exactly what a real one would.
                self.singular_at = 0;
                return false;
            }
        }
        let (lp, basis) = (self.lp, &self.basis);
        match self
            .fact
            .factorize(|k, out| lp.aug_entries(basis[k], |r, v| out.push((r, v))))
        {
            Ok(()) => true,
            // `factorize` reports only singular pivots; `UnstableUpdate`
            // comes from eta updates, which `change_basis` answers by
            // refactorizing.
            Err(LuError::Singular { position } | LuError::UnstableUpdate { position }) => {
                self.singular_at = position;
                false
            }
        }
    }

    /// The error a basis that will not factorize surfaces as.
    fn singular_error(&self) -> SolveError {
        SolveError::SingularBasis {
            position: self.singular_at,
        }
    }

    /// Row duals `y = B^{-T} c_B` of the current basis.
    fn duals(&self) -> Vec<f64> {
        let mut y: Vec<f64> = self.basis.iter().map(|&j| self.cost[j]).collect();
        self.fact.btran(&mut y);
        y
    }

    /// Pivot row `rho = B^{-T} e_r` of basis position `r`.
    fn pivot_row(&self, r: usize) -> Vec<f64> {
        let mut rho = vec![0.0; self.m];
        rho[r] = 1.0;
        self.fact.btran(&mut rho);
        rho
    }

    /// Column of variable `j` in the current basis, `w = B^{-1} a_j`,
    /// indexed by basis position.
    fn ftran_column(&self, j: usize) -> Vec<f64> {
        let mut w = vec![0.0; self.m];
        self.lp.aug_entries(j, |r, v| w[r] = v);
        self.fact.ftran(&mut w);
        w
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
                self.lp.aug_entries(j, |r, v| rhs[r] += -xj * v);
            }
        }
        self.fact.ftran(&mut rhs);
        for (i, &j) in self.basis.iter().enumerate() {
            self.x[j] = rhs[i];
        }
    }

    /// How far variable `j` lies outside its bounds, beyond [`FEAS_TOL`],
    /// and on which side: `-1` below its lower bound, `1` above its upper.
    fn violation(&self, j: usize) -> Option<(f64, f64)> {
        let v = self.x[j];
        if v < self.lb[j] - FEAS_TOL {
            Some((self.lb[j] - v, -1.0))
        } else if v > self.ub[j] + FEAS_TOL {
            Some((v - self.ub[j], 1.0))
        } else {
            None
        }
    }

    /// Sum of the bound violations of the basic variables.
    fn infeasibility(&self) -> f64 {
        self.basis
            .iter()
            .map(|&j| self.violation(j).map_or(0.0, |(amount, _)| amount))
            .sum()
    }

    /// Computes reduced costs via btran and picks an entering variable.
    /// `phase1` selects the composite infeasibility costs. Phase-2 passes
    /// also record the reduced costs in `self.dj` so a terminating
    /// (complete) pass leaves them valid for reduced-cost fixing.
    fn price(&mut self, phase1: bool, bland: bool) -> Pricing {
        let y = if phase1 {
            // Composite costs: -1 below the lower bound, 1 above the upper.
            let mut cb: Vec<f64> = self
                .basis
                .iter()
                .map(|&j| self.violation(j).map_or(0.0, |(_, side)| side))
                .collect();
            if cb.iter().all(|&c| c == 0.0) {
                return Pricing::OptimalOrFeasible;
            }
            self.fact.btran(&mut cb);
            cb
        } else {
            // Fresh capture per pass: entries not reached (early Bland
            // return) stay zero, which is always safe for fixing.
            self.dj.fill(0.0);
            self.duals()
        };
        let otol = OPT_TOL;
        let mut best: Option<(usize, f64, f64)> = None; // (j, dir, score)
        for j in 0..self.nn {
            let st = self.status[j];
            if st == VStat::Basic || self.lb[j] == self.ub[j] {
                continue; // a fixed variable can never improve
            }
            let cj = if phase1 { 0.0 } else { self.cost[j] };
            let d = cj - self.lp.aug_dot(j, &y);
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
    /// entering variable. Under `phase1`, a basic variable outside its
    /// bounds blocks where it becomes feasible and never while it moves
    /// away from them. Under `bland`, ties are broken by smallest
    /// leaving-variable index (required for Bland's rule to actually
    /// prevent cycling).
    fn ratio_test(&self, j: usize, dir: f64, w: &[f64], phase1: bool, bland: bool) -> Ratio {
        let piv_tol = 1e-9;
        let t_feas = FEAS_TOL;
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
                } else if phase1 && xv > self.ub[bj] + t_feas {
                    // infeasible above and moving away: never blocks
                    continue;
                } else if self.ub[bj].is_finite() {
                    (self.ub[bj], true)
                } else {
                    continue;
                }
            } else {
                // moving down
                if phase1 && xv > self.ub[bj] + t_feas {
                    (self.ub[bj], true)
                } else if phase1 && xv < self.lb[bj] - t_feas {
                    continue;
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
    /// `w`. Must run *before* [`Engine::change_basis`]: the pivot row is
    /// taken from the pre-pivot factorization, and the leaving variable is
    /// still `basis[leave_pos]`.
    fn update_devex(&mut self, j: usize, leave_pos: usize, w: &[f64]) {
        let alpha_q = w[leave_pos];
        if alpha_q.abs() < 1e-12 {
            return;
        }
        let gamma_q = self.devex[j].max(1.0);
        let rho = self.pivot_row(leave_pos);
        let (lp, status, lb, ub) = (self.lp, &self.status, &self.lb, &self.ub);
        let row = (0..self.nn)
            .filter(|&k| status[k] != VStat::Basic && k != j && lb[k] != ub[k])
            .map(|k| (k, lp.aug_dot(k, &rho)));
        let leaving = self.basis[leave_pos];
        devex_update(&mut self.devex, row, leaving, alpha_q, gamma_q);
    }

    /// Whether the current basis is dual-feasible: every nonbasic reduced
    /// cost has the sign its status requires (within a relaxed tolerance).
    fn dual_feasible(&self) -> bool {
        let y = self.duals();
        let tol = OPT_TOL * 10.0;
        (0..self.nn).all(|j| {
            let st = self.status[j];
            if st == VStat::Basic || self.lb[j] == self.ub[j] {
                return true;
            }
            let d = self.cost[j] - self.lp.aug_dot(j, &y);
            !match st {
                VStat::AtLower => d < -tol,
                VStat::AtUpper => d > tol,
                VStat::Free => d.abs() > tol,
                VStat::Basic => unreachable!(),
            }
        })
    }

    /// Swaps `enter` (ftran'd column `w`) into basis position `leave_pos`;
    /// the leaving variable rests at its upper bound when `to_upper`, else
    /// at its lower one. The factorization takes one eta update, or is
    /// rebuilt every [`REFACTOR_INTERVAL`] updates and whenever an update
    /// fails. A rebuild that finds the new basis singular installs the
    /// slack basis instead, at most three times per solve; the fourth
    /// time, or a slack basis that will not factorize, is an error.
    fn change_basis(
        &mut self,
        enter: usize,
        leave_pos: usize,
        to_upper: bool,
        w: &[f64],
    ) -> Result<BasisChange, SolveError> {
        let leaving = self.basis[leave_pos];
        self.status[leaving] = if to_upper {
            VStat::AtUpper
        } else {
            VStat::AtLower
        };
        self.x[leaving] = self.nonbasic_value(leaving);
        self.pos[leaving] = usize::MAX;
        self.basis[leave_pos] = enter;
        self.pos[enter] = leave_pos;
        self.status[enter] = VStat::Basic;
        if self.fact.eta_count() < REFACTOR_INTERVAL && self.fact.update(leave_pos, w).is_ok() {
            return Ok(BasisChange::Pivoted);
        }
        if self.refactorize() {
            self.compute_basics();
            self.since_refresh = 0;
            return Ok(BasisChange::Pivoted);
        }
        self.slack_resets += 1;
        if self.slack_resets > 3 {
            // Persistently singular: the solve_lp ladder gets the next rung.
            return Err(self.singular_error());
        }
        self.install_slack_basis()?;
        self.compute_basics();
        Ok(BasisChange::SlackReset)
    }

    /// Counts one pivot. After [`REFRESH_INTERVAL`] pivots without a
    /// refactorization, recomputes the basic values from scratch and fails
    /// on a non-finite one.
    fn count_pivot(&mut self) -> Result<(), SolveError> {
        self.iters += 1;
        self.since_refresh += 1;
        if self.since_refresh >= REFRESH_INTERVAL {
            self.compute_basics();
            self.since_refresh = 0;
            if !self.x.iter().all(|v| v.is_finite()) {
                return Err(SolveError::NumericBlowup);
            }
        }
        Ok(())
    }

    /// Dual simplex: starting from a dual-feasible basis whose primal values
    /// violate some bounds (the warm-started child-node case), repeatedly
    /// drops the most violating basic variable (scaled by dual Devex row
    /// weights) and lets a bound-flipping dual ratio test choose the
    /// entering column, until primal feasibility is restored.
    fn iterate_dual(&mut self) -> Result<DualRun, SolveError> {
        let piv_tol = 1e-9;
        let t_feas = FEAS_TOL;
        self.since_refresh = 0;
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
                let Some((viol, sigma)) = self.violation(bj) else {
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
            // One matrix pass over the pivot row and the duals computes both
            // alpha_j = rho.A_j and d_j.
            let rho = self.pivot_row(leave_pos);
            let y = self.duals();
            // Dual ratio test candidates: (ratio, j, abar, d).
            let mut cands: Vec<(f64, usize, f64, f64)> = Vec::new();
            for j in 0..self.nn {
                let st = self.status[j];
                if st == VStat::Basic || self.lb[j] == self.ub[j] {
                    continue;
                }
                let abar = sigma * self.lp.aug_dot(j, &rho);
                let d = self.cost[j] - self.lp.aug_dot(j, &y);
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
                        self.lp.aug_entries(j, |r, v| rhs[r] += delta * v);
                    }
                }
                self.fact.ftran(&mut rhs);
                for (i, &bj) in self.basis.iter().enumerate() {
                    self.x[bj] -= rhs[i];
                }
            }
            // Entering column and step length to land the leaving variable
            // exactly on its violated bound.
            let w = self.ftran_column(j_enter);
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
                _ if (self.x[leaving] - target) / w[leave_pos] >= 0.0 => 1.0,
                _ => -1.0,
            };
            let t = ((self.x[leaving] - target) / (dir * w[leave_pos])).max(0.0);
            if t <= 1e-11 && flips.is_empty() {
                self.degenerate_run += 1;
            } else {
                self.degenerate_run = 0;
            }
            self.apply_step(j_enter, dir, t, &w);
            // Dual Devex row-weight update from the entering column (done
            // before the basis change so weights still index the old basis).
            let w_r = self.dual_devex[leave_pos].max(1.0);
            let column = w.iter().copied().enumerate();
            let column = column.filter(|&(i, wi)| i != leave_pos && wi != 0.0);
            devex_update(&mut self.dual_devex, column, leave_pos, w[leave_pos], w_r);
            if self.change_basis(j_enter, leave_pos, sigma > 0.0, &w)? == BasisChange::SlackReset {
                // The slack basis is not dual-feasible: hand control to primal.
                return Ok(DualRun::Fallback);
            }
            self.dual_iters += 1;
            self.count_pivot()?;
        }
    }

    fn out_of_time(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d) || self.cfg.is_cancelled()
    }

    /// Maximum degenerate-pivot run tolerated once Bland's rule is already
    /// active; past this the solve is declared stalled ([`SolveError::Cycling`]).
    const STALL_LIMIT: usize = 5_000;

    /// Runs the primal simplex to a terminal status: phase 1 (composite
    /// infeasibility costs) while the basis is infeasible, then phase 2. A
    /// slack-basis reset leaves a basis that is rarely feasible, so it
    /// returns to phase 1. Errs when the in-loop safeguards (slack reset,
    /// Bland's rule) are exhausted.
    fn iterate(&mut self) -> Result<LpStatus, SolveError> {
        let infeas_tol = FEAS_TOL * (1.0 + self.m as f64);
        let mut phase1 = true;
        self.since_refresh = 0;
        loop {
            if self.iters.is_multiple_of(64) && self.out_of_time() {
                return Ok(LpStatus::Limit);
            }
            if self.degenerate_run > Self::STALL_LIMIT {
                return Err(SolveError::Cycling { iters: self.iters });
            }
            if phase1 && self.infeasibility() <= infeas_tol {
                // Feasible: phase 2 starts its own refresh count.
                (phase1, self.since_refresh) = (false, 0);
                continue;
            }
            let bland = self.force_bland || self.degenerate_run > 200;
            let (j, dir) = match self.price(phase1, bland) {
                Pricing::Entering { j, dir } => (j, dir),
                Pricing::OptimalOrFeasible if !phase1 => return Ok(LpStatus::Optimal),
                Pricing::OptimalOrFeasible if self.infeasibility() > infeas_tol => {
                    return Ok(LpStatus::Infeasible);
                }
                Pricing::OptimalOrFeasible => {
                    (phase1, self.since_refresh) = (false, 0);
                    continue;
                }
            };
            let w = self.ftran_column(j);
            match self.ratio_test(j, dir, &w, phase1, bland) {
                // cannot happen in phase 1, whose objective is bounded below
                // by 0; treat it defensively as numerical trouble
                Ratio::Unbounded if phase1 => return Ok(LpStatus::Infeasible),
                Ratio::Unbounded => return Ok(LpStatus::Unbounded),
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
                    if self.change_basis(j, leave_pos, leave_to_upper, &w)?
                        == BasisChange::SlackReset
                    {
                        phase1 = true;
                        continue;
                    }
                }
            }
            if phase1 {
                self.phase1_iters += 1;
            }
            self.count_pivot()?;
        }
    }

    fn result(&self, status: LpStatus) -> LpResult {
        LpResult {
            status,
            obj: (0..self.n).map(|j| self.cost[j] * self.x[j]).sum(),
            x: self.x[..self.n].to_vec(),
            iters: self.iters,
            phase1_iters: self.phase1_iters,
            dual_iters: self.dual_iters,
            statuses: self.status.clone(),
            dj: self.dj[..self.n].to_vec(),
            // The slack of row r enters the augmented system as -e_r with
            // zero cost, so its reduced cost is 0 - y^T(-e_r) = y_r; for
            // structural column a_j the reduced cost is c_j - y^T a_j, the
            // form pricing needs.
            y: self.duals(),
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

/// Seed of the cost perturbation on [`Rung::Perturbed`].
const PERTURB_SEED: u64 = 0x5eed ^ 0xFA17;

/// One rung of the [`solve_lp`] recovery ladder, in ladder order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rung {
    /// The caller's warm basis, reoptimized by the dual simplex when it is
    /// dual-feasible.
    Clean,
    /// A cold start under Bland's rule from the first pivot.
    Bland,
    /// A cold start under Bland's rule with seeded cost perturbations.
    Perturbed,
}

/// One rung of the recovery ladder: a complete two-phase solve.
fn solve_lp_attempt(
    lp: &LpData,
    var_lb: &[f64],
    var_ub: &[f64],
    cfg: &Config,
    warm: Option<&[VStat]>,
    deadline: Option<Instant>,
    rung: Rung,
) -> Result<LpResult, SolveError> {
    let mut eng = Engine::new(lp, var_lb, var_ub, cfg, deadline);
    eng.force_bland = rung != Rung::Clean;
    if rung == Rung::Perturbed {
        // Tiny seeded cost jitter breaks the degenerate ties that defeated
        // the earlier rungs; the true objective is recomputed afterwards.
        for j in 0..eng.n {
            let c = eng.cost[j];
            eng.cost[j] = c + 1e-7 * (hash01(PERTURB_SEED, j) - 0.5) * (1.0 + c.abs());
        }
    }
    // The recovery rungs discard the (possibly corrupt) warm basis.
    let used_warm = eng.install(warm.filter(|_| rung == Rung::Clean))?;
    eng.compute_basics();

    // Dual reoptimization: a warm basis that was optimal before a bound
    // change (or before rows were appended with basic slacks) is still
    // dual-feasible, so the dual simplex restores primal feasibility in a
    // few pivots instead of a full primal Phase 1. Only a clean rung
    // installs a warm basis; any trouble falls back to the primal path
    // below.
    let infeasible = eng.infeasibility() > FEAS_TOL * (1.0 + eng.m as f64);
    if infeasible && used_warm && eng.dual_feasible() {
        match eng.iterate_dual()? {
            DualRun::Infeasible => return Ok(eng.result(LpStatus::Infeasible)),
            DualRun::Limit => return Ok(eng.result(LpStatus::Limit)),
            DualRun::Feasible | DualRun::Fallback => {}
        }
    }
    // Phase 1 while infeasible, then phase 2 (after a successful dual run
    // this certifies optimality in a single pricing pass and captures the
    // reduced costs).
    let status = eng.iterate()?;
    let mut r = eng.result(status);
    if rung == Rung::Perturbed {
        // Report the unperturbed objective; the perturbed reduced costs are
        // zeroed out so downstream fixing never trusts them.
        r.obj = (0..lp.num_vars()).map(|j| lp.c[j] * r.x[j]).sum();
        r.dj.fill(0.0);
        r.y.fill(0.0);
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
    if var_lb.iter().zip(var_ub).any(|(lb, ub)| lb > ub) {
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
    let mut last_err = SolveError::NumericBlowup;
    let ladder = [Rung::Clean, Rung::Bland, Rung::Perturbed];
    for (recoveries, rung) in ladder.into_iter().enumerate() {
        match solve_lp_attempt(lp, var_lb, var_ub, cfg, warm, deadline, rung) {
            Ok(mut r) => {
                r.recoveries = recoveries;
                return Ok(r);
            }
            Err(e) => last_err = e,
        }
    }
    Err(last_err)
}

/// Relative tolerance of [`certificate_violation`]; each check scales it by
/// the magnitude of the terms it sums.
const CERT_TOL: f64 = 1e-6;

/// Checks an [`LpStatus::Optimal`] result from `x` and `y` alone, without
/// trusting the engine's basis: `obj = c^T x`; `x` and `Ax` within bounds;
/// each reduced cost (`c_j - y^T A_j` for a column, `y_r` for a row's slack)
/// `>= 0` at a lower bound, `<= 0` at an upper one, `0` strictly between;
/// each nonzero [`LpResult::dj`] equal to the recomputed one. Dual checks
/// are skipped when `recoveries == 2`: that rung zeroes `y` and `dj`.
/// Returns the first violation; `None` when it holds or is not `Optimal`.
pub fn certificate_violation(
    lp: &LpData,
    var_lb: &[f64],
    var_ub: &[f64],
    r: &LpResult,
) -> Option<String> {
    let (n, m) = (lp.num_vars(), lp.num_rows());
    if r.status != LpStatus::Optimal {
        return None;
    }
    if (r.x.len(), r.y.len(), r.dj.len()) != (n, m, n) {
        return Some("x, y or dj sized for another LP".to_string());
    }
    let tol = |scale: f64| CERT_TOL * (1.0 + scale);
    let cx: f64 = (0..n).map(|j| lp.c[j] * r.x[j]).sum();
    if (r.obj - cx).abs() > tol((0..n).map(|j| (lp.c[j] * r.x[j]).abs()).sum()) {
        return Some(format!("obj {} but c^T x = {cx}", r.obj));
    }
    // Row activities and the magnitude of their terms.
    let mut act = vec![(0.0, 0.0); m];
    for j in 0..n {
        for (i, a) in lp.a.col(j) {
            act[i].0 += a * r.x[j];
            act[i].1 += (a * r.x[j]).abs();
        }
    }
    let y_scale = r.y.iter().chain(&lp.c).fold(0.0f64, |s, v| s.max(v.abs()));
    // Every column, then every row through its slack: value, bounds, value
    // scale, reduced cost and its scale.
    for k in 0..n + m {
        let row = k.checked_sub(n);
        let what = || row.map_or(format!("column {k}"), |i| format!("row {i}"));
        let (v, lo, hi, v_scale) = match row {
            None => (r.x[k], var_lb[k], var_ub[k], r.x[k].abs()),
            Some(i) => (act[i].0, lp.row_lb[i], lp.row_ub[i], act[i].1),
        };
        let vt = tol(v_scale);
        if v < lo - vt || v > hi + vt {
            return Some(format!("{}: {v} outside [{lo}, {hi}]", what()));
        }
        if r.recoveries == 2 {
            continue;
        }
        let (d, d_scale) = match row {
            None => {
                let terms: f64 = lp.a.col(k).map(|(i, a)| (a * r.y[i]).abs()).sum();
                (lp.c[k] - lp.a.col_dot(k, &r.y), lp.c[k].abs() + terms)
            }
            Some(i) => (r.y[i], y_scale),
        };
        let dt = tol(d_scale);
        let sign_ok = match (v <= lo + vt, v >= hi - vt) {
            (true, true) => true,
            (true, false) => d >= -dt,
            (false, true) => d <= dt,
            (false, false) => d.abs() <= dt,
        };
        if !sign_ok {
            return Some(format!("{}: reduced cost {d} at {v}", what()));
        }
        if row.is_none() && r.dj[k] != 0.0 && (r.dj[k] - d).abs() > dt {
            return Some(format!("column {k}: dj {} but {d} from y", r.dj[k]));
        }
    }
    None
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

    /// Solves with the default config and asserts the result's optimality
    /// certificate (a no-op unless the result is `Optimal`).
    fn solve_checked(data: &LpData, lo: &[f64], hi: &[f64], warm: Option<&[VStat]>) -> LpResult {
        let r = solve_lp(data, lo, hi, &Config::default(), warm, None).unwrap();
        assert_eq!(certificate_violation(data, lo, hi, &r), None);
        r
    }

    #[test]
    fn simple_min() {
        // min x + y  s.t. x + y >= 2, x,y in [0, 10]
        let data = lp(&[(&[(0, 1.0), (1, 1.0)], 2.0, INF)], 2, &[1.0, 1.0]);
        let r = solve_checked(&data, &[0.0, 0.0], &[10.0, 10.0], None);
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
        let r = solve_checked(&data, &[0.0, 0.0], &[INF, INF], None);
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
        let r = solve_checked(&data, &[0.0, 0.0], &[INF, INF], None);
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
        let r = solve_checked(&data, &[0.0, 0.0], &[INF, INF], None);
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
        let r = solve_checked(&data, &[0.0, 0.0], &[INF, INF], None);
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
        let r2 = solve_checked(&data, &[0.0, 0.0, 0.0], &[INF, INF, INF], Some(&warm));
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
        let r = solve_checked(&data, &[0.0], &[INF], None);
        assert_eq!(r.status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        // min -x, x >= 0, no upper limit
        let data = lp(&[(&[(0, 1.0)], 0.0, INF)], 1, &[-1.0]);
        let r = solve_checked(&data, &[0.0], &[INF], None);
        assert_eq!(r.status, LpStatus::Unbounded);
    }

    #[test]
    fn free_variable() {
        // min x s.t. x >= -5 via row (free var bounds)
        let data = lp(&[(&[(0, 1.0)], -5.0, INF)], 1, &[1.0]);
        let r = solve_checked(&data, &[-INF], &[INF], None);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.obj + 5.0).abs() < 1e-7, "obj = {}", r.obj);
    }

    #[test]
    fn negative_lower_bounds() {
        // min x + y, x in [-3, 3], y in [-2, 2], x + y >= -4
        let data = lp(&[(&[(0, 1.0), (1, 1.0)], -4.0, INF)], 2, &[1.0, 1.0]);
        let r = solve_checked(&data, &[-3.0, -2.0], &[3.0, 2.0], None);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.obj + 4.0).abs() < 1e-7, "obj = {}", r.obj);
    }

    #[test]
    fn range_rows() {
        // min x, 2 <= x + y <= 6, y in [0, 1] -> x >= 1 when y at most 1
        let data = lp(&[(&[(0, 1.0), (1, 1.0)], 2.0, 6.0)], 2, &[1.0, 0.0]);
        let r = solve_checked(&data, &[0.0, 0.0], &[INF, 1.0], None);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.obj - 1.0).abs() < 1e-7, "obj = {}", r.obj);
    }

    #[test]
    fn warm_start_after_bound_change() {
        // min -x - y, x + y <= 4, x,y in [0,3]; opt 4 at e.g. (3,1)
        let data = lp(&[(&[(0, 1.0), (1, 1.0)], -INF, 4.0)], 2, &[-1.0, -1.0]);
        let r1 = solve_checked(&data, &[0.0, 0.0], &[3.0, 3.0], None);
        assert_eq!(r1.status, LpStatus::Optimal);
        assert!((r1.obj + 4.0).abs() < 1e-7);
        // Tighten x <= 1 and warm start: optimum becomes -1 - 3 = ... x+y<=4
        // with x<=1, y<=3 -> obj -4 still (1+3). Tighten y <= 1 too -> -2.
        let r2 = solve_checked(&data, &[0.0, 0.0], &[1.0, 1.0], Some(&r1.statuses));
        assert_eq!(r2.status, LpStatus::Optimal);
        assert!((r2.obj + 2.0).abs() < 1e-7, "obj = {}", r2.obj);
    }

    #[test]
    fn fixed_variables() {
        // x fixed at 2, min y with y >= x
        let data = lp(&[(&[(1, 1.0), (0, -1.0)], 0.0, INF)], 2, &[0.0, 1.0]);
        let r = solve_checked(&data, &[2.0, 0.0], &[2.0, INF], None);
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
        let r = solve_checked(&data, &[0.0, 0.0], &[INF, INF], None);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.obj + 1.0).abs() < 1e-7, "obj = {}", r.obj);
    }

    /// Random LPs with `<=`, `>=`, ranged and equality rows over boxed,
    /// free and fixed columns, each solved cold and then re-solved warm
    /// (the dual path) and cold after one bound change. Every `Optimal`
    /// result must carry a valid certificate, and warm and cold agree. A
    /// free column also gets a ranged row of its own, so no LP is
    /// unbounded.
    #[test]
    fn larger_random_lps_match_feasibility() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(99);
        let (mut optimal, mut dual_solves) = (0, 0);
        for _ in 0..200 {
            let n = rng.gen_range(2..7);
            let m = rng.gen_range(1..6);
            let (mut lo, mut hi) = (vec![0.0; n], vec![5.0; n]);
            let mut free = Vec::new();
            for j in 0..n {
                match rng.gen_range(0..6) {
                    0 => {
                        (lo[j], hi[j]) = (-INF, INF);
                        free.push(j);
                    }
                    1 => {
                        let v = rng.gen_range(0.0..5.0);
                        (lo[j], hi[j]) = (v, v);
                    }
                    _ => {}
                }
            }
            let mut b = TripletBuilder::new(m + free.len(), n);
            let (mut row_lb, mut row_ub) = (Vec::new(), Vec::new());
            for r in 0..m {
                for j in 0..n {
                    if rng.gen_bool(0.7) {
                        b.push(r, j, rng.gen_range(-2.0..2.0));
                    }
                }
                let v = rng.gen_range(-3.0..3.0);
                let (l, u) = match rng.gen_range(0..4) {
                    0 => (-INF, v),
                    1 => (v, INF),
                    2 => (v, v + rng.gen_range(0.5..3.0)),
                    _ => (v, v),
                };
                row_lb.push(l);
                row_ub.push(u);
            }
            for (k, &j) in free.iter().enumerate() {
                b.push(m + k, j, 1.0);
                row_lb.push(-10.0);
                row_ub.push(10.0);
            }
            let c: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let data = LpData {
                a: b.build(),
                c,
                row_lb,
                row_ub,
            };
            let r = solve_checked(&data, &lo, &hi, None);
            assert_ne!(r.status, LpStatus::Unbounded);
            if r.status != LpStatus::Optimal {
                continue;
            }
            optimal += 1;
            // One bound change on a column that is not fixed: pull it off
            // its optimal value from below or from above.
            let movable: Vec<usize> = (0..n).filter(|&j| lo[j] < hi[j]).collect();
            if movable.is_empty() {
                continue;
            }
            let j = movable[rng.gen_range(0..movable.len())];
            let step: f64 = rng.gen_range(0.2..1.5);
            let (mut lo2, mut hi2) = (lo.clone(), hi.clone());
            if rng.gen_bool(0.5) {
                hi2[j] = (r.x[j] - step).max(lo[j]);
            } else {
                lo2[j] = (r.x[j] + step).min(hi[j]);
            }
            let warm = solve_checked(&data, &lo2, &hi2, Some(&r.statuses));
            let cold = solve_checked(&data, &lo2, &hi2, None);
            assert_eq!(warm.status, cold.status);
            if warm.status == LpStatus::Optimal {
                let (w, c) = (warm.obj, cold.obj);
                assert!((w - c).abs() < 1e-6, "warm {w} vs cold {c}");
            }
            dual_solves += usize::from(warm.dual_iters > 0);
        }
        assert!(optimal >= 50, "only {optimal} of 200 LPs are optimal");
        assert!(
            dual_solves >= 20,
            "only {dual_solves} warm re-solves ran dual pivots"
        );
    }

    /// Covering LP `min c x, A x >= 1, x >= 0` with random nonnegative
    /// `A` (density 0.3) and costs in `[1, 2)`: the slack basis violates
    /// every row, and no column or slack has a finite upper bound, so every
    /// pivot is a basis change.
    fn covering_lp(seed: u64, m: usize, n: usize) -> LpData {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = TripletBuilder::new(m, n);
        for r in 0..m {
            for j in 0..n {
                if rng.gen_bool(0.3) {
                    b.push(r, j, rng.gen_range(0.1..1.0));
                }
            }
        }
        LpData {
            a: b.build(),
            c: (0..n).map(|_| rng.gen_range(1.0..2.0)).collect(),
            row_lb: vec![1.0; m],
            row_ub: vec![INF; m],
        }
    }

    /// A singular refactorization in phase 2 falls back to the slack basis,
    /// which violates every covering row: the solve must return to phase 1
    /// instead of pricing phase 2 from there and calling that optimal.
    #[test]
    fn slack_reset_in_phase_two_returns_to_phase_one() {
        let (m, n) = (30, 90);
        let data = covering_lp(0, m, n);
        let (lo, hi) = (vec![0.0; n], vec![INF; n]);
        let clean = solve_checked(&data, &lo, &hi, None);
        // Every pivot changes the basis, so the first refactorization after
        // the install (the second factorization) falls in phase 2.
        assert!(clean.phase1_iters < REFACTOR_INTERVAL && clean.iters > REFACTOR_INTERVAL);
        let faults = crate::FaultInjection::default().lu_singular_on(2);
        let cfg = Config::default().with_faults(faults);
        let r = solve_lp(&data, &lo, &hi, &cfg, None, None).unwrap();
        assert_eq!(certificate_violation(&data, &lo, &hi, &r), None);
        assert_eq!((r.status, r.recoveries), (LpStatus::Optimal, 0));
        assert!((r.obj - clean.obj).abs() < 1e-7 * (1.0 + clean.obj.abs()));
        assert!(r.phase1_iters > clean.phase1_iters, "phase 1 not resumed");
    }

    #[test]
    fn append_rows_extends_lp_and_warm_start() {
        // min -x - y s.t. x + y <= 4; then append x <= 1.5 as an extra row
        // and reoptimize from the old basis padded with one Basic slack.
        let mut data = lp(&[(&[(0, 1.0), (1, 1.0)], -INF, 4.0)], 2, &[-1.0, -1.0]);
        let r = solve_checked(&data, &[0.0, 0.0], &[INF, INF], None);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.obj + 4.0).abs() < 1e-7);

        data.append_rows(&[(vec![(0, 1.0)], -INF, 1.5)]);
        assert_eq!(data.num_rows(), 2);
        let mut warm = r.statuses.clone();
        warm.push(VStat::Basic);
        let r2 = solve_checked(&data, &[0.0, 0.0], &[INF, INF], Some(&warm));
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
        let r = solve_checked(&data, &[0.0, 0.0], &[INF, INF], None);
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
