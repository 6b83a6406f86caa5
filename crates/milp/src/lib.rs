// Production-path code must surface failures through `SolveError`, not
// panic; tests and doctests are exempt (unwrap on known-good fixtures).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! A from-scratch mixed-integer linear programming solver.
//!
//! This crate provides the optimization substrate for the wireless-network
//! design-space-exploration stack: a sparse bounded-variable revised simplex
//! method (with LU-factorized basis and product-form updates) wrapped in a
//! branch-and-bound search with presolve, root cutting planes and root
//! primal heuristics.
//!
//! # Quick start
//!
//! ```
//! use milp::{Problem, Sense, Var, Row, Solver, Config, Status};
//!
//! // maximize 5a + 4b  s.t.  6a + 4b <= 24, a + 2b <= 6, a,b >= 0 integer
//! let mut p = Problem::new(Sense::Maximize);
//! let a = p.add_var(Var::integer().bounds(0.0, 10.0).obj(5.0).name("a"));
//! let b = p.add_var(Var::integer().bounds(0.0, 10.0).obj(4.0).name("b"));
//! p.add_row(Row::new().coef(a, 6.0).coef(b, 4.0).le(24.0));
//! p.add_row(Row::new().coef(a, 1.0).coef(b, 2.0).le(6.0));
//!
//! let sol = Solver::new(Config::default()).solve(&p);
//! assert_eq!(sol.status(), Status::Optimal);
//! // LP relaxation gives 21 at (3, 1.5); integer optimum is 20 at (4, 0)
//! assert_eq!(sol.objective().round() as i64, 20);
//! # assert!(sol.value(a) >= -1e-6);
//! ```
//!
//! # Design
//!
//! * [`Problem`] — ranged-row MILP description with builder-style
//!   [`Var`]/[`Row`] helpers.
//! * [`simplex`] — the LP engine ([`simplex::solve_lp`]); usable directly
//!   for pure LPs and warm-started from previous bases.
//! * [`branch`] — LP-based branch and bound with pseudo-cost branching,
//!   plunging, and reduced-cost fixing. With one worker and no time limit
//!   or cancellation, a solve repeats exactly: it spawns no thread and
//!   reads the clock for no decision.
//! * [`heur`] — the root primal heuristics: rounding and two LP dives,
//!   each dive bounded by a number of LP solves; every other incumbent
//!   comes from the warm start or an integral node LP.
//! * [`cuts`] — cutting-plane subsystem: round-based separation (Gomory
//!   mixed-integer, knapsack cover, clique/GUB) through a deduplicating
//!   pool, reoptimized with the dual simplex.
//! * [`pricing`] — column-generation subsystem: a caller-supplied
//!   [`pricing::ColumnSource`] prices improving variables against the root
//!   LP duals; accepted columns are appended and warm-reoptimized, the
//!   column mirror of the cut rounds. Supplying a source is the only
//!   switch; the round and column limits are fixed in [`pricing`].
//! * [`presolve`] — bound tightening and row/column elimination with full
//!   postsolve of the original solution vector.
//! * [`lp_format`] — export to CPLEX LP text format for debugging against
//!   external solvers.

pub mod branch;
pub mod checkpoint;
pub mod config;
pub mod cuts;
pub mod error;
pub mod heur;
pub mod lp_format;
pub mod lu;
pub mod presolve;
pub mod pricing;
pub mod problem;
pub mod simplex;
pub mod solution;
pub mod sparse;

pub use checkpoint::{load_frame, structure_fingerprint, FrameError, SearchFrame};
pub use config::{CheckpointConfig, Config, CutConfig};
pub use pricing::{ColumnSource, NewColumn, NewRow, PriceInput, PricedBatch};
pub use error::{CancelToken, FaultInjection, SolveError};
pub use problem::{Problem, Row, RowId, Sense, Var, VarId, VarType};
pub use solution::{Solution, Stats, Status};

use std::time::Instant;

/// The MILP solver facade: presolve, branch and bound, postsolve.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Clone, Default)]
pub struct Solver {
    config: Config,
}

impl Solver {
    /// Creates a solver with the given configuration.
    pub fn new(config: Config) -> Self {
        Solver { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Solves `problem`, returning the best solution found and its status.
    ///
    /// Never panics on well-formed problems: infeasibility, unboundedness,
    /// and limit hits are reported through [`Solution::status`].
    pub fn solve(&self, problem: &Problem) -> Solution {
        let start = Instant::now();
        branch::solve_milp(problem, &self.config, start)
    }

    /// Solves `problem` with root column generation: `source` is consulted
    /// after each restricted root LP solve and may price in new variables
    /// (see [`pricing::ColumnSource`]). The returned solution vector covers
    /// the original variables *followed by every priced-in column, in
    /// acceptance order* — callers that priced `k` columns read them at
    /// indices `num_vars .. num_vars + k`.
    ///
    /// Presolve is forced to the identity in this mode so the row indices
    /// the source addresses are the caller's own.
    pub fn solve_with_columns(&self, problem: &Problem, source: &mut dyn ColumnSource) -> Solution {
        let start = Instant::now();
        branch::solve_milp_with(problem, &self.config, start, Some(source))
    }

    /// Resumes a solve from the checkpoint frame at `path`, falling back to
    /// `<path>.prev` when the primary frame is torn or truncated. Resuming
    /// from *any* valid frame — even a stale one — finishes with the same
    /// objective and proof status as an uninterrupted run; staleness only
    /// re-does work. Fails with [`FrameError`] when no valid frame exists
    /// or the frame belongs to a different problem (callers typically fall
    /// back to a cold [`Solver::solve`]).
    pub fn resume(
        &self,
        problem: &Problem,
        path: &std::path::Path,
    ) -> Result<Solution, FrameError> {
        let start = Instant::now();
        let frame = checkpoint::load_frame(path)?;
        branch::resume_milp_with(problem, &self.config, start, frame, None)
    }

    /// [`Solver::resume`] with a column source — the counterpart of
    /// [`Solver::solve_with_columns`]: the frame's accepted pricing batches
    /// are replayed into the LP and the source's opaque payload is restored
    /// before the search continues.
    pub fn resume_with_columns(
        &self,
        problem: &Problem,
        path: &std::path::Path,
        source: &mut dyn ColumnSource,
    ) -> Result<Solution, FrameError> {
        let start = Instant::now();
        let frame = checkpoint::load_frame(path)?;
        branch::resume_milp_with(problem, &self.config, start, frame, Some(source))
    }
}

/// Convenience: solve with the default configuration.
///
/// # Examples
///
/// ```
/// use milp::{Problem, Sense, Var, Row};
///
/// let mut p = Problem::new(Sense::Minimize);
/// let x = p.add_var(Var::cont().bounds(0.0, 9.0).obj(1.0));
/// p.add_row(Row::new().coef(x, 1.0).ge(4.0));
/// let sol = milp::solve(&p);
/// assert!((sol.objective() - 4.0).abs() < 1e-6);
/// ```
pub fn solve(problem: &Problem) -> Solution {
    Solver::new(Config::default()).solve(problem)
}
