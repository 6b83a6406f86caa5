//! Primal heuristics for the branch-and-bound search. Both run once, on
//! the root LP, before the tree search:
//!
//! * [`try_rounding`] rounds every integer variable of an LP-relaxation
//!   point to the nearest integer and keeps the result if it is feasible.
//! * [`dive_with`] fixes one fractional integer variable at a time and
//!   re-solves the LP until the point is integral. A dive is bounded by a
//!   number of LP solves, never by a time window, so it repeats exactly.
//!
//! Every other incumbent comes from the warm start or from an integral
//! node LP.

use crate::branch::INT_TOL;
use crate::config::Config;
use crate::problem::{Problem, VarType};
use crate::simplex::{solve_lp, LpData, LpStatus, VStat};
use crate::solution::Stats;
use std::time::Instant;

/// Rounds the integer variables of `x` and returns the rounded point if it
/// satisfies the (reduced) problem within `tol`.
///
/// The returned objective is in the problem's own sense, excluding the
/// objective offset.
pub fn try_rounding(reduced: &Problem, lp: &LpData, x: &[f64], tol: f64) -> Option<(f64, Vec<f64>)> {
    let mut cand = x.to_vec();
    for (j, v) in cand.iter_mut().enumerate() {
        if reduced.var_type(crate::problem::VarId(j)) != VarType::Continuous {
            *v = v.round();
            // respect bounds after rounding
            let (lo, hi) = reduced.var_bounds(crate::problem::VarId(j));
            *v = v.clamp(lo, hi);
        }
    }
    if reduced.check_feasible(&cand, tol).is_some() {
        return None;
    }
    let obj = lp.c.iter().zip(&cand).map(|(c, v)| c * v).sum();
    Some((obj, cand))
}

/// Variable-selection strategy for [`dive_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiveStrategy {
    /// Fix the fractional variable closest to an integer to its nearest
    /// value (classic fractional diving).
    NearestInteger,
    /// Fix the variable with the largest fractional part **up** (ceiling).
    /// Effective on covering/partitioning structures, where pushing the
    /// strongest fractional indicator to 1 keeps the LP feasible.
    MostFractionalUp,
}

/// LP diving: repeatedly fixes one fractional integer variable and
/// re-solves, for at most `min(int_vars, 400) + 5` LP solves. Every LP is
/// charged to `stats`; `deadline` (the solve's own) only stops the dive.
///
/// Returns `(internal_objective, x)` on success. The `int_vars` slice lists
/// the indices (in reduced space) of the integer variables.
#[allow(clippy::too_many_arguments)]
pub fn dive_with(
    strategy: DiveStrategy,
    reduced: &Problem,
    lp: &LpData,
    int_vars: &[usize],
    root_lb: &[f64],
    root_ub: &[f64],
    cfg: &Config,
    warm: Option<&[VStat]>,
    deadline: Option<Instant>,
    stats: &mut Stats,
) -> Option<(f64, Vec<f64>)> {
    let mut lb = root_lb.to_vec();
    let mut ub = root_ub.to_vec();
    let mut warm_statuses: Option<Vec<VStat>> = warm.map(|w| w.to_vec());
    let max_rounds = int_vars.len().min(400) + 5;
    // Last fix applied, kept so an infeasible dive step can retry the
    // opposite rounding once: (var, alternative_value, old_lb, old_ub).
    let mut retry: Option<(usize, f64, f64, f64)> = None;
    for _ in 0..max_rounds {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return None;
        }
        // Heuristics are optional: an unrecoverable LP error just abandons
        // the dive instead of propagating.
        let r = solve_lp(lp, &lb, &ub, cfg, warm_statuses.as_deref(), deadline);
        stats.charge_lp(&r);
        let Ok(r) = r else {
            return None;
        };
        if r.status != LpStatus::Optimal {
            if let Some((j, alt, olo, ohi)) = retry.take() {
                if alt >= olo && alt <= ohi {
                    lb[j] = alt;
                    ub[j] = alt;
                    continue;
                }
            }
            return None;
        }
        // Pick the next variable to fix according to the strategy.
        let mut pick: Option<(usize, f64)> = None;
        for &j in int_vars {
            let frac = (r.x[j] - r.x[j].round()).abs();
            if frac > INT_TOL {
                let score = match strategy {
                    // smaller = closer to integral
                    DiveStrategy::NearestInteger => frac,
                    // smaller = larger fractional part (prefer pushing up)
                    DiveStrategy::MostFractionalUp => -(r.x[j] - r.x[j].floor()),
                };
                if pick.is_none_or(|(_, s)| score < s) {
                    pick = Some((j, score));
                }
            }
        }
        match pick {
            None => {
                // integral: verify against the reduced problem to be safe
                let mut x = r.x.clone();
                for &j in int_vars {
                    x[j] = x[j].round();
                }
                if reduced.check_feasible(&x, 1e-5).is_some() {
                    return None;
                }
                let obj = lp.c.iter().zip(&x).map(|(c, v)| c * v).sum();
                return Some((obj, x));
            }
            Some((j, _)) => {
                let v = match strategy {
                    DiveStrategy::NearestInteger => r.x[j].round(),
                    DiveStrategy::MostFractionalUp => r.x[j].ceil(),
                }
                .clamp(lb[j], ub[j]);
                let alt = if v > r.x[j] { v - 1.0 } else { v + 1.0 };
                retry = Some((j, alt, lb[j], ub[j]));
                lb[j] = v;
                ub[j] = v;
                warm_statuses = Some(r.statuses);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Problem, Row, Sense, Var};
    use crate::sparse::TripletBuilder;

    fn knapsack() -> (Problem, LpData) {
        // min -(8x + 11y + 6z) s.t. 5x + 7y + 4z <= 14, x,y,z binary
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(Var::binary().obj(-8.0));
        let y = p.add_var(Var::binary().obj(-11.0));
        let z = p.add_var(Var::binary().obj(-6.0));
        p.add_row(Row::new().coef(x, 5.0).coef(y, 7.0).coef(z, 4.0).le(14.0));
        let mut b = TripletBuilder::new(1, 3);
        b.push(0, 0, 5.0);
        b.push(0, 1, 7.0);
        b.push(0, 2, 4.0);
        let lp = LpData {
            a: b.build(),
            c: vec![-8.0, -11.0, -6.0],
            row_lb: vec![f64::NEG_INFINITY],
            row_ub: vec![14.0],
        };
        (p, lp)
    }

    #[test]
    fn rounding_detects_feasible_point() {
        let (p, lp) = knapsack();
        // LP-ish fractional point that rounds to feasible (1, 1, 0)
        let x = [0.9, 1.0, 0.1];
        let got = try_rounding(&p, &lp, &x, 1e-6);
        assert!(got.is_some());
        let (obj, cand) = got.unwrap();
        assert_eq!(cand, vec![1.0, 1.0, 0.0]);
        assert!((obj + 19.0).abs() < 1e-9);
    }

    #[test]
    fn rounding_rejects_infeasible_point() {
        let (p, lp) = knapsack();
        // rounds to (1,1,1): weight 16 > 14
        let x = [0.9, 0.9, 0.9];
        assert!(try_rounding(&p, &lp, &x, 1e-6).is_none());
    }

    #[test]
    fn dive_finds_integral_solution() {
        let (p, lp) = knapsack();
        let mut stats = Stats::default();
        let got = dive_with(
            DiveStrategy::NearestInteger,
            &p,
            &lp,
            &[0, 1, 2],
            &[0.0, 0.0, 0.0],
            &[1.0, 1.0, 1.0],
            &Config::default(),
            None,
            None,
            &mut stats,
        );
        let (obj, x) = got.expect("dive should find a feasible point");
        assert!(p.check_feasible(&x, 1e-6).is_none());
        assert!(obj <= -6.0, "should find something non-trivial, got {}", obj);
        assert!(stats.lp_solves >= 1, "every dive LP is charged");
    }
}
