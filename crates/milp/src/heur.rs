//! Primal heuristics for the branch-and-bound search.
//!
//! Two cheap incumbent finders are provided:
//!
//! * [`try_rounding`] — round every integer variable of an LP-relaxation
//!   point to the nearest integer and keep the result if it is feasible.
//! * [`dive`] — iteratively fix the "most integral" fractional variable to
//!   its rounded value and re-solve the LP, diving toward an integral point.
//!
//! plus the anytime LNS + tabu engine (`run_lns`): a destroy/repair loop
//! that rides alongside the exact tree search, publishing every verified
//! improvement into the shared incumbent so the branch-and-bound workers
//! prune harder. See `DESIGN.md` §15 for the full recipe.

use crate::config::Config;
use crate::error::splitmix64;
use crate::problem::{Problem, VarType};
use crate::simplex::{solve_lp, LpData, LpStatus, VStat};
use std::sync::atomic::{AtomicBool, Ordering};
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

/// Variable-selection strategy for [`dive`].
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
/// re-solves, for at most `max_rounds` rounds.
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
        let Ok(r) = solve_lp(lp, &lb, &ub, cfg, warm_statuses.as_deref(), deadline) else {
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
            if frac > cfg.int_tol {
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

/// Classic fractional diving ([`DiveStrategy::NearestInteger`]); see
/// [`dive_with`].
#[allow(clippy::too_many_arguments)]
pub fn dive(
    reduced: &Problem,
    lp: &LpData,
    int_vars: &[usize],
    root_lb: &[f64],
    root_ub: &[f64],
    cfg: &Config,
    warm: Option<&[VStat]>,
    deadline: Option<Instant>,
) -> Option<(f64, Vec<f64>)> {
    dive_with(
        DiveStrategy::NearestInteger,
        reduced,
        lp,
        int_vars,
        root_lb,
        root_ub,
        cfg,
        warm,
        deadline,
    )
}

// --- LNS + tabu primal engine ---------------------------------------------

/// Everything the LNS engine borrows from the root solve. All slices are in
/// the *reduced* (presolved) variable space, matching `lp`.
pub(crate) struct LnsInput<'a> {
    /// The reduced problem, for final feasibility verification.
    pub(crate) reduced: &'a Problem,
    /// The root LP (with any applied root cuts).
    pub(crate) lp: &'a LpData,
    /// Indices of the integer variables.
    pub(crate) int_vars: &'a [usize],
    /// Root-tightened variable bounds (the engine never tightens these
    /// globally; each iteration derives its own restricted copy).
    pub(crate) base_lb: &'a [f64],
    pub(crate) base_ub: &'a [f64],
    /// The root LP relaxation point (drives RENS seeding and RINS fixing).
    pub(crate) root_x: &'a [f64],
    /// Root basis statuses, warm-starting the first repair LP.
    pub(crate) root_warm: Option<&'a [VStat]>,
    /// Destroy units: groups of integer variables freed together. Built by
    /// [`build_neighborhoods`] from the encoder's GUB annotations.
    pub(crate) neighborhoods: Vec<Vec<usize>>,
    pub(crate) cfg: &'a Config,
    pub(crate) deadline: Option<Instant>,
}

/// What the engine hands back for the stats block. The incumbents
/// themselves were already published through the shared [`Incumbent`].
#[derive(Debug, Default)]
pub(crate) struct LnsOutcome {
    /// Destroy/repair iterations run.
    pub(crate) iters: usize,
    /// Improvements accepted by the shared incumbent.
    pub(crate) published: usize,
    /// The engine's own improvement sequence (internal minimize sense).
    /// Depends only on the seed and the problem, never on thread count —
    /// an early async stop truncates it without reordering.
    pub(crate) trace: Vec<f64>,
}

/// Builds the destroy neighborhoods: every GUB group (route candidate-path
/// disjunctions, device-placement rows) restricted to integer members,
/// plus fixed-size chunks of the integers no group covers, so the whole
/// integer space stays reachable. Order is deterministic: groups first (in
/// annotation order), then uncovered chunks (in variable order).
pub(crate) fn build_neighborhoods(gub_groups: &[Vec<usize>], int_vars: &[usize]) -> Vec<Vec<usize>> {
    let int_set: std::collections::HashSet<usize> = int_vars.iter().copied().collect();
    let mut covered: std::collections::HashSet<usize> = std::collections::HashSet::new();
    let mut out: Vec<Vec<usize>> = Vec::new();
    for g in gub_groups {
        let members: Vec<usize> = g.iter().copied().filter(|j| int_set.contains(j)).collect();
        if members.len() >= 2 {
            covered.extend(members.iter().copied());
            out.push(members);
        }
    }
    let uncovered: Vec<usize> = int_vars
        .iter()
        .copied()
        .filter(|j| !covered.contains(j))
        .collect();
    for chunk in uncovered.chunks(8) {
        out.push(chunk.to_vec());
    }
    out
}

/// Maximum destroy/repair iterations before the engine retires.
const LNS_MAX_ITERS: usize = 400;
/// Consecutive non-improving iterations before the engine escalates the
/// destroy size (1 → 2 → 4 → … neighborhoods freed at once); once the
/// escalation ladder is exhausted and another such streak passes, the
/// engine retires instead of burning CPU the exact search could use.
const LNS_STALL: usize = 12;
/// Tabu tenure: a destroyed neighborhood is not re-destroyed for this many
/// iterations unless it just improved the incumbent (aspiration).
const TABU_TENURE: usize = 3;

/// The LNS + tabu destroy/repair loop.
///
/// Seeding: while the engine holds no solution of its own, a RENS pass
/// fixes the near-integral part of the root LP point and repairs the rest;
/// the integrality threshold loosens over a short ladder before giving up.
/// Improving: with a best in hand, a tabu list (with soonest-free
/// aspiration) picks one neighborhood to free; every other integer that
/// *agrees* between the root LP and the engine's best is RINS-fixed to the
/// best, disagreeing ones stay free; the restricted sub-MILP is repaired
/// under a strict-improvement cutoff by a node-budgeted mini search.
///
/// The engine is publish-only: it offers every verified improvement to
/// `inc` but never reads it back, so its own trace depends only on
/// `cfg.seed` and the problem — never on what the tree search found first.
/// Stop conditions (checked each iteration and inside the repair):
/// `stop` flag, cancellation token, wall-clock deadline, and the injected
/// fault-deadline; the injected LNS panic fires between iterations.
pub(crate) fn run_lns(
    inp: &LnsInput<'_>,
    inc: &crate::branch::Incumbent,
    stop: Option<&AtomicBool>,
) -> LnsOutcome {
    let cfg = inp.cfg;
    let mut out = LnsOutcome::default();
    if inp.neighborhoods.is_empty() {
        return out;
    }
    let stopped = |iter: usize| {
        stop.is_some_and(|s| s.load(Ordering::SeqCst))
            || cfg.is_cancelled()
            || inp.deadline.is_some_and(|d| Instant::now() >= d)
            || cfg.faults.as_ref().is_some_and(|f| f.deadline_expired(iter))
    };
    let mut rng = splitmix64(cfg.seed ^ 0x4C4E_535F_5441_4255); // "LNS_TABU"
    let mut best: Option<(f64, Vec<f64>)> = None;
    let nk = inp.neighborhoods.len();
    // Iteration index before which neighborhood k may be chosen again.
    let mut tabu_until = vec![0usize; nk];
    // RENS ladder: each failed seeding attempt fixes *more* of the root
    // point (tighter sub-MILP for the same node budget); off the end of
    // the ladder the engine gives up seeding and exits.
    const RENS_LADDER: [f64; 3] = [0.1, 0.25, 0.45];
    let mut rens_rung = 0usize;
    // Adaptive destroy: after `LNS_STALL` consecutive failures the engine
    // frees twice as many neighborhoods per iteration (larger jumps escape
    // the single-group local optimum); an improvement resets to 1. Once the
    // widest destroy also stalls, the engine retires — every further
    // iteration would only steal CPU from the exact search.
    let max_destroy = nk.min(8);
    let mut destroy = 1usize;
    let mut fails = 0usize;

    for iter in 0..LNS_MAX_ITERS {
        // Checked ahead of the stop conditions so the injected fault fires
        // deterministically even when the exact search wins the race and
        // stops the engine before its first destroy/repair.
        if cfg.faults.as_ref().is_some_and(|f| f.should_panic_lns()) {
            panic!("injected panic in LNS engine");
        }
        if stopped(iter) {
            break;
        }
        out.iters += 1;

        let mut lb = inp.base_lb.to_vec();
        let mut ub = inp.base_ub.to_vec();
        let cutoff;
        let freed_k;
        match &best {
            None => {
                let Some(&thresh) = RENS_LADDER.get(rens_rung) else {
                    break;
                };
                rens_rung += 1;
                freed_k = None;
                cutoff = f64::INFINITY;
                for &j in inp.int_vars {
                    let v = inp.root_x[j];
                    if (v - v.round()).abs() <= thresh {
                        let f = v.round().clamp(lb[j], ub[j]);
                        lb[j] = f;
                        ub[j] = f;
                    }
                }
            }
            Some((bobj, bx)) => {
                let mut active: Vec<usize> =
                    (0..nk).filter(|&k| tabu_until[k] <= iter).collect();
                if active.is_empty() {
                    // Aspiration: everything is tabu — take the soonest-free
                    // group (ties by index) rather than stalling.
                    active.push((0..nk).min_by_key(|&k| (tabu_until[k], k)).unwrap_or(0));
                }
                let mut picked = Vec::with_capacity(destroy.min(active.len()));
                for _ in 0..destroy.min(active.len()) {
                    rng = splitmix64(rng);
                    picked.push(active.swap_remove((rng % active.len() as u64) as usize));
                }
                cutoff = *bobj - cfg.abs_gap.max(1e-9);
                let freed: std::collections::HashSet<usize> = picked
                    .iter()
                    .flat_map(|&k| inp.neighborhoods[k].iter().copied())
                    .collect();
                freed_k = Some(picked);
                for &j in inp.int_vars {
                    if freed.contains(&j) {
                        continue;
                    }
                    // RINS: fix only where the root LP agrees with the
                    // engine's best; disagreements stay free for the
                    // repair to settle.
                    if (inp.root_x[j] - bx[j]).abs() <= 0.1 {
                        let f = bx[j].clamp(lb[j], ub[j]);
                        lb[j] = f;
                        ub[j] = f;
                    }
                }
            }
        }

        let found = repair_bnb(inp, &lb, &ub, cutoff, stop);
        let improved = found.is_some();
        if let Some((obj, x)) = found {
            out.trace.push(obj);
            best = Some((obj, x.clone()));
            if inc.offer(obj, x) {
                out.published += 1;
            }
        }
        if let Some(picked) = freed_k {
            let until = iter + 1 + if improved { 0 } else { TABU_TENURE };
            for k in picked {
                tabu_until[k] = until;
            }
            if improved {
                fails = 0;
                destroy = 1;
            } else {
                fails += 1;
                if fails >= LNS_STALL {
                    if destroy >= max_destroy {
                        break; // escalation exhausted: retire
                    }
                    destroy = (destroy * 2).min(max_destroy);
                    fails = 0;
                }
            }
        }
    }
    out
}

/// One repair node: bound changes relative to the iteration's restricted
/// base, plus a warm basis inherited from the parent.
struct RepairNode {
    changes: Vec<(usize, f64, f64)>,
    warm: Option<Vec<VStat>>,
}

/// Node budget of each sub-MILP repair solve.
const REPAIR_NODE_BUDGET: usize = 150;

/// Node-budgeted DFS mini branch-and-bound over the restricted bounds:
/// plunges into the child nearer the LP value, prunes on `cutoff`
/// (strict-improvement threshold), and verifies every integral point
/// against the reduced problem before accepting it. Returns the best
/// verified point found within the budget, if any.
fn repair_bnb(
    inp: &LnsInput<'_>,
    lb0: &[f64],
    ub0: &[f64],
    mut cutoff: f64,
    stop: Option<&AtomicBool>,
) -> Option<(f64, Vec<f64>)> {
    let cfg = inp.cfg;
    let mut best: Option<(f64, Vec<f64>)> = None;
    let mut stack = vec![RepairNode {
        changes: Vec::new(),
        warm: inp.root_warm.map(<[VStat]>::to_vec),
    }];
    let mut lb = lb0.to_vec();
    let mut ub = ub0.to_vec();
    let mut nodes = 0usize;
    while let Some(node) = stack.pop() {
        if nodes >= REPAIR_NODE_BUDGET
            || stop.is_some_and(|s| s.load(Ordering::SeqCst))
            || cfg.is_cancelled()
            || inp.deadline.is_some_and(|d| Instant::now() >= d)
        {
            break;
        }
        nodes += 1;
        lb.copy_from_slice(lb0);
        ub.copy_from_slice(ub0);
        for &(j, lo, hi) in &node.changes {
            lb[j] = lb[j].max(lo);
            ub[j] = ub[j].min(hi);
        }
        // Repairs are optional: any LP failure just abandons the node.
        let Ok(r) = solve_lp(inp.lp, &lb, &ub, cfg, node.warm.as_deref(), inp.deadline) else {
            continue;
        };
        if r.status != LpStatus::Optimal || r.obj >= cutoff {
            continue;
        }
        let mut pick: Option<(usize, f64)> = None;
        for &j in inp.int_vars {
            let frac = (r.x[j] - r.x[j].round()).abs();
            if frac > cfg.int_tol && pick.is_none_or(|(_, f)| frac > f) {
                pick = Some((j, frac));
            }
        }
        match pick {
            None => {
                let mut x = r.x.clone();
                for &j in inp.int_vars {
                    x[j] = x[j].round();
                }
                if inp.reduced.check_feasible(&x, 1e-5).is_some() {
                    continue;
                }
                let obj = inp.lp.c.iter().zip(&x).map(|(c, v)| c * v).sum::<f64>();
                if obj < cutoff {
                    cutoff = obj - cfg.abs_gap.max(1e-9);
                    best = Some((obj, x));
                }
            }
            Some((j, _)) => {
                let xj = r.x[j];
                let floor = xj.floor();
                let mut down_ch = node.changes.clone();
                down_ch.push((j, f64::NEG_INFINITY, floor));
                let mut up_ch = node.changes.clone();
                up_ch.push((j, floor + 1.0, f64::INFINITY));
                let down = RepairNode {
                    changes: down_ch,
                    warm: Some(r.statuses.clone()),
                };
                let up = RepairNode {
                    changes: up_ch,
                    warm: Some(r.statuses),
                };
                // LIFO: push the far child first so the near one plunges.
                if xj - floor < 0.5 {
                    stack.push(up);
                    stack.push(down);
                } else {
                    stack.push(down);
                    stack.push(up);
                }
            }
        }
    }
    best
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
        let got = dive(
            &p,
            &lp,
            &[0, 1, 2],
            &[0.0, 0.0, 0.0],
            &[1.0, 1.0, 1.0],
            &Config::default(),
            None,
            None,
        );
        let (obj, x) = got.expect("dive should find a feasible point");
        assert!(p.check_feasible(&x, 1e-6).is_none());
        assert!(obj <= -6.0, "should find something non-trivial, got {}", obj);
    }
}
