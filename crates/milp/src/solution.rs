//! Solve outcomes: status codes, solutions, and search statistics.

use crate::error::SolveError;
use crate::problem::VarId;
use crate::simplex::LpResult;
use std::time::Duration;

/// Final status of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    /// Proven optimal (within the configured gap).
    Optimal,
    /// Proven infeasible.
    Infeasible,
    /// Proven unbounded.
    Unbounded,
    /// A limit (time/node/iteration) was hit; a feasible incumbent exists.
    LimitFeasible,
    /// A limit was hit with no feasible incumbent found.
    LimitNoSolution,
    /// The solve failed numerically even after every recovery rung; see
    /// [`Solution::solve_error`] for the underlying [`SolveError`].
    NumericFailure,
}

impl Status {
    /// Whether a usable solution vector is available.
    pub fn has_solution(self) -> bool {
        matches!(self, Status::Optimal | Status::LimitFeasible)
    }
}

impl std::fmt::Display for Status {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Status::Optimal => "optimal",
            Status::Infeasible => "infeasible",
            Status::Unbounded => "unbounded",
            Status::LimitFeasible => "limit reached (feasible incumbent)",
            Status::LimitNoSolution => "limit reached (no solution)",
            Status::NumericFailure => "numeric failure (recovery exhausted)",
        };
        f.write_str(s)
    }
}

/// Counters describing the work performed during a solve.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    /// Branch-and-bound nodes processed (1 for a pure LP).
    pub nodes: usize,
    /// Total simplex iterations across every LP the solve runs: the root,
    /// each cut-round and pricing reoptimization, the root dives, and every
    /// node.
    pub simplex_iters: usize,
    /// Simplex iterations spent in primal Phase 1 (feasibility restoration);
    /// warm starts that dual-reoptimize successfully contribute none.
    pub phase1_iters: usize,
    /// Simplex iterations spent in the dual-simplex reoptimizer.
    pub dual_iters: usize,
    /// Number of LP relaxations solved.
    pub lp_solves: usize,
    /// Integer variable bounds tightened by reduced-cost fixing (at the
    /// root and on incumbent improvements).
    pub rc_fixed: usize,
    /// Incumbents found by the root heuristics, rounding and the two dives
    /// (as opposed to the warm start or node LPs): 0 to 3.
    pub heuristic_solutions: usize,
    /// Wall-clock time of the whole solve.
    pub elapsed: Duration,
    /// Rows removed by presolve.
    pub presolve_rows_removed: usize,
    /// Variables fixed/removed by presolve.
    pub presolve_vars_removed: usize,
    /// LP solves that needed at least one recovery rung (Bland restart or
    /// perturb-and-retry) before succeeding.
    pub lp_recoveries: usize,
    /// Parallel search workers that panicked and were isolated.
    pub worker_panics: usize,
    /// Branch-and-bound nodes dropped after an unrecoverable LP error (the
    /// final status is downgraded so optimality is never claimed past them).
    pub dropped_nodes: usize,
    /// Cutting planes generated by the separators (before pool filtering).
    pub cuts_generated: usize,
    /// Cutting planes that passed the pool filters and were appended to the
    /// LP relaxation.
    pub cuts_applied: usize,
    /// Root separation rounds run.
    pub cut_rounds: usize,
    /// Relative gap between the incumbent and the root LP bound *after*
    /// cut rounds; 0.0 when the root was already integral or no incumbent
    /// exists. Smaller root gaps mean the cuts tightened the relaxation.
    pub root_gap: f64,
    /// Columns priced into the LP by column generation at the root.
    pub cols_priced: usize,
    /// Solve-price-reoptimize rounds run by column generation.
    pub pricing_rounds: usize,
    /// Wall-clock time spent inside the root pricing loop (oracle calls
    /// plus LP reoptimizations).
    pub pricing_time: Duration,
    /// Wall-clock time the search threads spent claiming checkpoint frames
    /// and assembling them for the writer, summed over workers (with one
    /// worker, part of [`Stats::elapsed`]). The writer thread's encoding
    /// and disk time overlaps the search and is not counted.
    pub checkpoint_time: Duration,
    /// Checkpoint frames successfully persisted to disk.
    pub checkpoints_written: usize,
    /// Checkpoint frame writes that failed (unwritable path, full disk);
    /// the search goes on without them.
    pub checkpoint_failures: usize,
    /// Whether this solve was resumed from a checkpoint frame.
    pub resumed: bool,
    /// Whether a caller-supplied [`crate::Config::warm_start`] vector passed
    /// re-validation and was seeded as the initial incumbent.
    pub warm_seeded: bool,
    /// Wall-clock time from solve start to the *first* feasible incumbent,
    /// whatever found it (warm seed, a root heuristic, or a node LP). `None`
    /// when the solve never held an incumbent.
    pub time_to_first_incumbent: Option<Duration>,
    /// Wall-clock time from solve start to the first incumbent whose
    /// objective is within 1% of the final one — the anytime headline
    /// metric. `None` when the solve never held an incumbent.
    pub time_to_within_1pct: Option<Duration>,
    /// Always 0: the solver has no LNS engine. Kept because `perfbench`
    /// (a separate workspace) still reads it.
    pub lns_iters: usize,
    /// Always 0, for the same reason as [`Stats::lns_iters`].
    pub lns_published: usize,
}

impl Stats {
    /// Counts one LP solve and adds its pivots, and its recovery if it
    /// needed one. A failed solve counts as a solve and charges no pivots.
    pub(crate) fn charge_lp(&mut self, r: &Result<LpResult, SolveError>) {
        self.lp_solves += 1;
        if let Ok(r) = r {
            self.simplex_iters += r.iters;
            self.phase1_iters += r.phase1_iters;
            self.dual_iters += r.dual_iters;
            if r.recoveries > 0 {
                self.lp_recoveries += 1;
            }
        }
    }
}

/// Result of solving a [`crate::Problem`].
#[derive(Debug, Clone)]
pub struct Solution {
    pub(crate) status: Status,
    pub(crate) objective: f64,
    pub(crate) best_bound: f64,
    pub(crate) values: Vec<f64>,
    pub(crate) stats: Stats,
    pub(crate) error: Option<SolveError>,
}

impl Solution {
    /// The final status.
    pub fn status(&self) -> Status {
        self.status
    }

    /// Objective value of the incumbent (meaningful when
    /// [`Status::has_solution`]); in the problem's own sense.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Best proven bound on the optimum (lower bound when minimizing).
    pub fn best_bound(&self) -> f64 {
        self.best_bound
    }

    /// The relative gap between incumbent and bound, or `f64::INFINITY`
    /// when no incumbent exists.
    pub fn gap(&self) -> f64 {
        if !self.status.has_solution() {
            return f64::INFINITY;
        }
        let denom = self.objective.abs().max(1e-10);
        (self.objective - self.best_bound).abs() / denom
    }

    /// Value of variable `v` in the incumbent.
    ///
    /// # Panics
    ///
    /// Panics if no solution is available (check [`Status::has_solution`]).
    pub fn value(&self, v: VarId) -> f64 {
        assert!(
            self.status.has_solution(),
            "no solution available (status: {})",
            self.status
        );
        self.values[v.index()]
    }

    /// Full solution vector in variable order.
    ///
    /// # Panics
    ///
    /// Panics if no solution is available.
    pub fn values(&self) -> &[f64] {
        assert!(
            self.status.has_solution(),
            "no solution available (status: {})",
            self.status
        );
        &self.values
    }

    /// Interprets variable `v` as a 0/1 indicator (rounding its value).
    ///
    /// # Panics
    ///
    /// Panics if no solution is available.
    pub fn is_one(&self, v: VarId) -> bool {
        self.value(v) > 0.5
    }

    /// Search statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The [`SolveError`] behind a [`Status::NumericFailure`], if any.
    pub fn solve_error(&self) -> Option<&SolveError> {
        self.error.as_ref()
    }

    pub(crate) fn infeasible(stats: Stats) -> Self {
        Solution {
            status: Status::Infeasible,
            objective: f64::INFINITY,
            best_bound: f64::INFINITY,
            values: Vec::new(),
            stats,
            error: None,
        }
    }

    pub(crate) fn unbounded(stats: Stats) -> Self {
        Solution {
            status: Status::Unbounded,
            objective: f64::NEG_INFINITY,
            best_bound: f64::NEG_INFINITY,
            values: Vec::new(),
            stats,
            error: None,
        }
    }

    pub(crate) fn numeric_failure(stats: Stats, error: SolveError) -> Self {
        Solution {
            status: Status::NumericFailure,
            objective: f64::INFINITY,
            best_bound: f64::NEG_INFINITY,
            values: Vec::new(),
            stats,
            error: Some(error),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_solution_availability() {
        assert!(Status::Optimal.has_solution());
        assert!(Status::LimitFeasible.has_solution());
        assert!(!Status::Infeasible.has_solution());
        assert!(!Status::Unbounded.has_solution());
        assert!(!Status::LimitNoSolution.has_solution());
        assert!(!Status::NumericFailure.has_solution());
    }

    #[test]
    fn numeric_failure_carries_error() {
        let s = Solution::numeric_failure(Stats::default(), SolveError::NumericBlowup);
        assert_eq!(s.status(), Status::NumericFailure);
        assert_eq!(s.solve_error(), Some(&SolveError::NumericBlowup));
        assert!(!s.status().has_solution());
    }

    #[test]
    fn gap_computation() {
        let s = Solution {
            status: Status::LimitFeasible,
            objective: 110.0,
            best_bound: 100.0,
            values: vec![1.0],
            stats: Stats::default(),
            error: None,
        };
        assert!((s.gap() - 10.0 / 110.0).abs() < 1e-12);
        let inf = Solution::infeasible(Stats::default());
        assert_eq!(inf.gap(), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "no solution available")]
    fn value_panics_without_solution() {
        let s = Solution::infeasible(Stats::default());
        let _ = s.value(VarId(0));
    }
}
