//! Cutting-plane subsystem: the cut pool and the two separators.
//!
//! Separation runs in **rounds**: [`cover::separate_cover`] and then
//! [`gomory::separate_gomory`] propose violated valid inequalities for the
//! current LP relaxation point, the [`CutPool`] filters them
//! (deduplication, numerical safety, efficacy, pairwise parallelism), and
//! the survivors are appended to the LP via [`LpData::append_rows`] and
//! reoptimized with the **dual simplex**: appending a row whose slack
//! enters the basis keeps the old basis dual-feasible, so each round costs
//! a handful of dual pivots instead of a cold resolve. A further separator
//! is one more call in [`run_root_cuts`].
//!
//! Validity discipline: every cut must hold for *all* integer-feasible
//! points of the original problem, so cuts can be shared freely across the
//! branch-and-bound tree. Cover cuts derive from original rows and are
//! always globally valid; Gomory cuts are derived with the root bounds.
//! Separation runs only at the root, so every applied cut is baked into the
//! LP each node solves.

pub mod cover;
pub mod gomory;

use crate::config::Config;
use crate::problem::{Problem, VarType};
use crate::simplex::{solve_lp, LpData, LpResult, SparseRow, VStat};
use crate::solution::Stats;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Minimum violation for a cut to be worth applying; below this the PR 2
/// stall detectors could end up chasing noise from our own rows.
pub const MIN_VIOLATION: f64 = 1e-6;
/// Maximum allowed ratio between the largest and smallest nonzero cut
/// coefficient; wider dynamic ranges degrade the LU factorization.
pub const MAX_DYNAMIC_RANGE: f64 = 1e8;
/// Coefficients below this fraction of the row's largest magnitude are
/// dropped (with a conservative right-hand-side adjustment).
const TINY_REL: f64 = 1e-11;

/// One cutting plane over the structural variables: `lb <= g^T x <= ub`
/// (one of the bounds is typically infinite).
#[derive(Debug, Clone)]
pub struct Cut {
    /// Sparse coefficients, sorted by variable index, duplicates merged.
    pub coefs: Vec<(usize, f64)>,
    /// Row lower bound.
    pub lb: f64,
    /// Row upper bound.
    pub ub: f64,
}

impl Cut {
    /// Activity `g^T x` at a point.
    pub fn activity(&self, x: &[f64]) -> f64 {
        self.coefs.iter().map(|&(j, v)| v * x[j]).sum()
    }

    /// Violation at `x`: how far the activity lies outside `[lb, ub]`.
    pub fn violation(&self, x: &[f64]) -> f64 {
        let a = self.activity(x);
        (self.lb - a).max(a - self.ub).max(0.0)
    }

    /// Euclidean norm of the coefficient vector.
    pub fn norm(&self) -> f64 {
        self.coefs
            .iter()
            .map(|&(_, v)| v * v)
            .sum::<f64>()
            .sqrt()
    }

    /// Cosine of the angle between two cuts' coefficient vectors (both
    /// assumed sorted by index). Near ±1 means near-parallel rows.
    pub fn cosine(&self, other: &Cut) -> f64 {
        let (na, nb) = (self.norm(), other.norm());
        if na == 0.0 || nb == 0.0 {
            return 0.0;
        }
        let mut dot = 0.0;
        let (mut i, mut k) = (0, 0);
        while i < self.coefs.len() && k < other.coefs.len() {
            let (ja, va) = self.coefs[i];
            let (jb, vb) = other.coefs[k];
            match ja.cmp(&jb) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => k += 1,
                std::cmp::Ordering::Equal => {
                    dot += va * vb;
                    i += 1;
                    k += 1;
                }
            }
        }
        dot / (na * nb)
    }

    /// Normalized content hash for pool deduplication: coefficients are
    /// scaled so the largest magnitude is 1 and quantized, so rescaled
    /// copies of the same cut collide.
    fn content_hash(&self) -> u64 {
        let mut h = DefaultHasher::new();
        let max = self
            .coefs
            .iter()
            .map(|&(_, v)| v.abs())
            .fold(0.0f64, f64::max);
        let scale = if max > 0.0 { 1.0 / max } else { 1.0 };
        let q = |v: f64| (v * scale * 1e9).round() as i64;
        for &(j, v) in &self.coefs {
            j.hash(&mut h);
            q(v).hash(&mut h);
        }
        if self.lb.is_finite() {
            q(self.lb).hash(&mut h);
        } else {
            u64::MAX.hash(&mut h);
        }
        if self.ub.is_finite() {
            q(self.ub).hash(&mut h);
        } else {
            u64::MAX.hash(&mut h);
        }
        h.finish()
    }

    /// Numerical-safety pass: merges/sorts coefficients, rejects non-finite
    /// data, drops tiny coefficients with a conservative bound adjustment
    /// (the cut is *relaxed*, never tightened, so validity is preserved),
    /// and rejects cuts whose coefficient dynamic range exceeds
    /// [`MAX_DYNAMIC_RANGE`]. Returns `None` when the cut is unusable.
    pub fn sanitize(mut self, var_lb: &[f64], var_ub: &[f64]) -> Option<Cut> {
        if !self.lb.is_finite() && !self.ub.is_finite() {
            return None;
        }
        self.coefs.sort_unstable_by_key(|&(j, _)| j);
        let mut merged: Vec<(usize, f64)> = Vec::with_capacity(self.coefs.len());
        for &(j, v) in &self.coefs {
            if !v.is_finite() {
                return None;
            }
            match merged.last_mut() {
                Some((jl, vl)) if *jl == j => *vl += v,
                _ => merged.push((j, v)),
            }
        }
        let max = merged.iter().map(|&(_, v)| v.abs()).fold(0.0f64, f64::max);
        if max == 0.0 || !max.is_finite() {
            return None;
        }
        let tiny = TINY_REL * max;
        let mut kept: Vec<(usize, f64)> = Vec::with_capacity(merged.len());
        let (mut lb, mut ub) = (self.lb, self.ub);
        for (j, v) in merged {
            if v.abs() > tiny {
                kept.push((j, v));
                continue;
            }
            if v == 0.0 {
                continue;
            }
            // Dropping g_j * x_j with x_j in [l, u]: the term's range is
            // [t_min, t_max]; relax the row bounds by the worst case so
            // every point feasible before stays feasible after.
            let (l, u) = (var_lb[j], var_ub[j]);
            let (t_min, t_max) = if v >= 0.0 { (v * l, v * u) } else { (v * u, v * l) };
            if lb.is_finite() {
                if !t_max.is_finite() {
                    kept.push((j, v));
                    continue;
                }
                lb -= t_max;
            }
            if ub.is_finite() {
                if !t_min.is_finite() {
                    kept.push((j, v));
                    continue;
                }
                ub -= t_min;
            }
        }
        if kept.is_empty() {
            return None;
        }
        let min = kept
            .iter()
            .map(|&(_, v)| v.abs())
            .fold(f64::INFINITY, f64::min);
        if max / min > MAX_DYNAMIC_RANGE {
            return None;
        }
        if (lb.is_finite() && lb.abs() > MAX_DYNAMIC_RANGE * max)
            || (ub.is_finite() && ub.abs() > MAX_DYNAMIC_RANGE * max)
        {
            return None;
        }
        Some(Cut {
            coefs: kept,
            lb,
            ub,
        })
    }
}

/// Problem-structure context shared by the separators: integrality flags
/// and knapsack candidate rows.
#[derive(Debug)]
pub struct CutContext {
    /// Per-variable integrality.
    pub is_int: Vec<bool>,
    /// All-binary rows usable as knapsack candidates: `(coefs, lb, ub)`.
    pub knapsack_rows: Vec<SparseRow>,
}

impl CutContext {
    /// Builds the context from a (presolved) problem.
    pub fn from_problem(p: &Problem) -> Self {
        let n = p.num_vars();
        let mut is_int = vec![false; n];
        let mut is_binary = vec![false; n];
        for j in 0..n {
            let id = p.var_id(j);
            let integral = p.var_type(id) != VarType::Continuous;
            is_int[j] = integral;
            let (l, u) = p.var_bounds(id);
            is_binary[j] = integral && l >= -1e-9 && u <= 1.0 + 1e-9;
        }
        let mut knapsack_rows = Vec::new();
        for r in p.row_ids() {
            let coefs = p.row_coefs(r);
            if coefs.len() < 2 {
                continue;
            }
            let (lo, hi) = p.row_bounds(r);
            if !lo.is_finite() && !hi.is_finite() {
                continue;
            }
            if !coefs.iter().all(|&(v, _)| is_binary[v.index()]) {
                continue;
            }
            // merge duplicates into index-sorted form
            let mut merged: Vec<(usize, f64)> =
                coefs.iter().map(|&(v, c)| (v.index(), c)).collect();
            merged.sort_unstable_by_key(|&(j, _)| j);
            let mut out: Vec<(usize, f64)> = Vec::with_capacity(merged.len());
            for (j, c) in merged {
                match out.last_mut() {
                    Some((jl, cl)) if *jl == j => *cl += c,
                    _ => out.push((j, c)),
                }
            }
            out.retain(|&(_, c)| c != 0.0);
            if out.len() >= 2 {
                knapsack_rows.push((out, lo, hi));
            }
        }
        CutContext {
            is_int,
            knapsack_rows,
        }
    }
}

/// Everything the Gomory separator inspects for one separation call.
pub struct SepInput<'a> {
    /// Current LP (including previously applied cut rows).
    pub lp: &'a LpData,
    /// Structural variable lower bounds the LP was solved with.
    pub var_lb: &'a [f64],
    /// Structural variable upper bounds.
    pub var_ub: &'a [f64],
    /// The fractional point to separate.
    pub x: &'a [f64],
    /// Optimal basis statuses of the LP at `x`.
    pub statuses: &'a [VStat],
    /// Solver configuration (tolerances, fault hooks).
    pub cfg: &'a Config,
    /// Soft cap on cuts to generate in this call.
    pub max_cuts: usize,
}

/// Maximum cuts applied per round (most efficacious first); also each
/// separator's budget in a round.
const MAX_CUTS_PER_ROUND: usize = 50;
/// Minimum efficacy (violation / coefficient 2-norm) for a cut to be
/// applied.
const MIN_EFFICACY: f64 = 1e-4;
/// Maximum |cosine| between two cuts applied in the same round; filters
/// near-parallel rows that would degrade the basis conditioning.
const MAX_PARALLELISM: f64 = 0.999;
/// Deduplicating cut pool.
///
/// Offered cuts pass the numerical-safety pass ([`Cut::sanitize`]) and a
/// normalized content hash before entering the pending set. Each
/// [`CutPool::select`] call scores pending cuts against the current
/// fractional point and moves the best ones — subject to efficacy and
/// pairwise-parallelism filters — onto the **append-only applied list**
/// (later cuts only ever append rows, so an earlier basis stays
/// index-consistent). Unselected cuts stay pending for later rounds; the
/// root loop's `MAX_ROUNDS` rounds of at most `MAX_CUTS_PER_ROUND` cuts per
/// separator bound the pool's size.
#[derive(Debug, Default)]
pub struct CutPool {
    pending: Vec<Cut>,
    applied: Vec<Cut>,
    seen: HashSet<u64>,
    /// Cuts offered by separators (pre-filter).
    pub generated: usize,
    /// Separation rounds run through this pool ([`CutPool::select`] calls).
    pub rounds: usize,
}

impl CutPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offers one cut: sanitize, deduplicate, and hold it as pending.
    /// Returns whether the cut entered the pool.
    pub fn offer(&mut self, cut: Cut, var_lb: &[f64], var_ub: &[f64]) -> bool {
        self.generated += 1;
        let Some(cut) = cut.sanitize(var_lb, var_ub) else {
            return false;
        };
        if !self.seen.insert(cut.content_hash()) {
            return false;
        }
        self.pending.push(cut);
        true
    }

    /// Selects up to `MAX_CUTS_PER_ROUND` pending cuts violated at `x`,
    /// moves them to the applied list, and returns clones of the newly
    /// applied cuts (in applied order).
    pub fn select(&mut self, x: &[f64]) -> Vec<Cut> {
        self.rounds += 1;
        // Score pending cuts: (index, violation, efficacy).
        let mut scored: Vec<(usize, f64, f64)> = self
            .pending
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let viol = c.violation(x);
                let norm = c.norm();
                if norm == 0.0 || viol < MIN_VIOLATION {
                    return None;
                }
                let eff = viol / norm;
                (eff >= MIN_EFFICACY).then_some((i, viol, eff))
            })
            .collect();
        scored.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
        let mut picked_idx: Vec<usize> = Vec::new();
        for &(i, _, _) in &scored {
            if picked_idx.len() >= MAX_CUTS_PER_ROUND {
                break;
            }
            let cand = &self.pending[i];
            let parallel = picked_idx
                .iter()
                .any(|&k| self.pending[k].cosine(cand).abs() > MAX_PARALLELISM);
            if !parallel {
                picked_idx.push(i);
            }
        }
        // Move picks to the applied list (order = pick order).
        picked_idx.sort_unstable();
        let mut selected = Vec::with_capacity(picked_idx.len());
        for &i in picked_idx.iter().rev() {
            selected.push(self.pending.swap_remove(i));
        }
        selected.reverse();
        self.applied.extend(selected.iter().cloned());
        selected
    }

    /// The append-only list of applied cuts, in global application order.
    pub fn applied(&self) -> &[Cut] {
        &self.applied
    }

    /// Number of cuts applied so far.
    pub fn applied_len(&self) -> usize {
        self.applied.len()
    }

    /// Appends a cut directly to the applied list, bypassing every filter.
    /// Only used by fault injection to plant a pathological row.
    pub fn force_apply(&mut self, cut: Cut) -> Cut {
        self.applied.push(cut.clone());
        cut
    }
}

/// Converts applied cuts into `append_rows` form.
pub fn cuts_to_rows(cuts: &[Cut]) -> Vec<SparseRow> {
    cuts.iter()
        .map(|c| (c.coefs.clone(), c.lb, c.ub))
        .collect()
}

/// Maximum separation rounds at the root.
const MAX_ROUNDS: usize = 4;

/// Runs round-based separation at the root: separate, filter through the
/// pool, append the survivors, and dual-reoptimize from the old basis
/// padded with one basic slack per new row. `lp` and `root` are updated in
/// place; on any non-optimal reoptimization the round is rolled back and
/// the loop stops, so the caller always continues from a consistent
/// (LP, result) pair. Every reoptimization, kept or rolled back, is
/// charged to `stats`; the round and cut counts stay in `pool`.
#[allow(clippy::too_many_arguments)]
pub fn run_root_cuts(
    lp: &mut LpData,
    var_lb: &[f64],
    var_ub: &[f64],
    cfg: &Config,
    ctx: &CutContext,
    root: &mut LpResult,
    pool: &mut CutPool,
    deadline: Option<Instant>,
    stats: &mut Stats,
) {
    if !cfg.cuts.enabled || root.status != crate::simplex::LpStatus::Optimal {
        return;
    }
    let mut injected = false;
    for _ in 0..MAX_ROUNDS {
        if deadline.is_some_and(|d| Instant::now() >= d) || cfg.is_cancelled() {
            break;
        }
        let inp = SepInput {
            lp,
            var_lb,
            var_ub,
            x: &root.x,
            statuses: &root.statuses,
            cfg,
            max_cuts: MAX_CUTS_PER_ROUND,
        };
        let mut found = Vec::new();
        cover::separate_cover(ctx, inp.x, inp.max_cuts, &mut found);
        gomory::separate_gomory(&inp, ctx, &mut found);
        for c in found {
            pool.offer(c, var_lb, var_ub);
        }
        // Mid-round cancellation point: a cancel that lands while the
        // separators run must abort here, before selection marks anything
        // applied and before the (expensive) append + reoptimize — not at
        // the top of the *next* round. The fault hook fires scheduled test
        // cancellations at exactly this spot so the within-one-round
        // latency guarantee stays pinned. Separated cuts stay pending in
        // the pool; nothing touches the LP.
        if let Some(f) = cfg.faults.as_ref() {
            f.mark_cut_round();
        }
        if cfg.is_cancelled() {
            // Selection never ran, so count the separation round here to
            // keep `rounds` = "separation rounds actually executed".
            pool.rounds += 1;
            break;
        }
        let mut selected = pool.select(&root.x);
        // Fault injection: plant one near-parallel duplicate of an applied
        // cut, bypassing the parallelism filter, to prove the recovery
        // ladder absorbs the near-singular basis it produces.
        if !injected
            && cfg
                .faults
                .as_ref()
                .is_some_and(|f| f.take_parallel_cut())
        {
            injected = true;
            if let Some(base) = selected.first().or_else(|| pool.applied().first()).cloned() {
                let twin = Cut {
                    coefs: base.coefs.iter().map(|&(j, v)| (j, v * (1.0 + 1e-9))).collect(),
                    // Slightly relaxed bounds keep the duplicate valid.
                    lb: if base.lb.is_finite() { base.lb - 1e-7 } else { base.lb },
                    ub: if base.ub.is_finite() { base.ub + 1e-7 } else { base.ub },
                };
                selected.push(pool.force_apply(twin));
            }
        }
        if selected.is_empty() {
            break;
        }
        // Snapshot for rollback: a failed reoptimization must not leave a
        // half-extended LP behind.
        let lp_backup = lp.clone();
        let warm_len = root.statuses.len();
        lp.append_rows(&cuts_to_rows(&selected));
        let mut warm = Vec::with_capacity(warm_len + selected.len());
        warm.extend_from_slice(&root.statuses);
        warm.extend(std::iter::repeat_n(VStat::Basic, selected.len()));
        // The padded basis installs as a warm basis and is dual-feasible by
        // construction, so the solve reoptimizes with the dual simplex.
        let reopt = solve_lp(lp, var_lb, var_ub, cfg, Some(&warm), deadline);
        stats.charge_lp(&reopt);
        // Fault injection: treat this round's reoptimization as failed so
        // the rollback arm below runs under test control.
        let forced_failure = cfg
            .faults
            .as_ref()
            .is_some_and(|f| f.take_cut_reopt_failure());
        match reopt {
            Ok(r) if r.status == crate::simplex::LpStatus::Optimal && !forced_failure => *root = r,
            _ => {
                // Cuts are valid inequalities, so a non-optimal outcome here
                // is numerical (or a limit): drop the round and stop.
                *lp = lp_backup;
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_merges_and_sorts() {
        let c = Cut {
            coefs: vec![(2, 1.0), (0, 2.0), (2, 0.5)],
            lb: f64::NEG_INFINITY,
            ub: 3.0,
        };
        let s = c.sanitize(&[0.0; 3], &[1.0; 3]).expect("valid");
        assert_eq!(s.coefs, vec![(0, 2.0), (2, 1.5)]);
    }

    #[test]
    fn sanitize_rejects_dynamic_range() {
        let c = Cut {
            coefs: vec![(0, 1.0), (1, 1e9)],
            lb: f64::NEG_INFINITY,
            ub: 1.0,
        };
        assert!(c.sanitize(&[0.0; 2], &[1.0; 2]).is_none());
    }

    #[test]
    fn sanitize_drops_tiny_with_bound_relaxation() {
        // 1e-13 is tiny relative to 1.0: dropped, and the <= bound must be
        // relaxed by the worst case of the dropped term (t_min = 0 here).
        let c = Cut {
            coefs: vec![(0, 1.0), (1, 1e-13)],
            lb: f64::NEG_INFINITY,
            ub: 1.0,
        };
        let s = c.sanitize(&[0.0; 2], &[1.0; 2]).expect("valid");
        assert_eq!(s.coefs.len(), 1);
        assert!(s.ub >= 1.0, "relaxed, never tightened: {}", s.ub);
    }

    #[test]
    fn sanitize_rejects_nonfinite() {
        let c = Cut {
            coefs: vec![(0, f64::NAN)],
            lb: 0.0,
            ub: 1.0,
        };
        assert!(c.sanitize(&[0.0], &[1.0]).is_none());
    }

    #[test]
    fn violation_and_cosine() {
        let a = Cut {
            coefs: vec![(0, 1.0), (1, 1.0)],
            lb: f64::NEG_INFINITY,
            ub: 1.0,
        };
        assert!((a.violation(&[0.8, 0.8]) - 0.6).abs() < 1e-12);
        assert_eq!(a.violation(&[0.3, 0.3]), 0.0);
        let b = Cut {
            coefs: vec![(0, 2.0), (1, 2.0)],
            ..a.clone()
        };
        assert!((a.cosine(&b) - 1.0).abs() < 1e-12);
        let c = Cut {
            coefs: vec![(0, 1.0), (1, -1.0)],
            ..a.clone()
        };
        assert!(a.cosine(&c).abs() < 1e-12);
    }

    #[test]
    fn pool_dedups() {
        let (lb, ub) = (vec![0.0; 2], vec![1.0; 2]);
        let mut pool = CutPool::new();
        let mk = || Cut {
            coefs: vec![(0, 1.0), (1, 1.0)],
            lb: f64::NEG_INFINITY,
            ub: 1.0,
        };
        assert!(pool.offer(mk(), &lb, &ub));
        assert!(!pool.offer(mk(), &lb, &ub), "duplicate rejected");
        // A scaled copy hashes identically after normalization.
        let scaled = Cut {
            coefs: vec![(0, 2.0), (1, 2.0)],
            ub: 2.0,
            ..mk()
        };
        assert!(!pool.offer(scaled, &lb, &ub), "rescaled duplicate rejected");
        assert_eq!(pool.generated, 3);
        assert_eq!(pool.pending.len(), 1);
    }

    #[test]
    fn pool_selects_violated_and_filters_parallel() {
        let (lb, ub) = (vec![0.0; 2], vec![1.0; 2]);
        let mut pool = CutPool::new();
        pool.offer(
            Cut {
                coefs: vec![(0, 1.0), (1, 1.0)],
                lb: f64::NEG_INFINITY,
                ub: 1.0,
            },
            &lb,
            &ub,
        );
        // Near-parallel twin (same direction, marginally different): must be
        // filtered by the parallelism check in the same round.
        pool.offer(
            Cut {
                coefs: vec![(0, 1.0), (1, 1.0 + 1e-6)],
                lb: f64::NEG_INFINITY,
                ub: 1.0,
            },
            &lb,
            &ub,
        );
        let sel = pool.select(&[0.9, 0.9]);
        assert_eq!(sel.len(), 1, "parallel twin filtered");
        assert_eq!(pool.applied_len(), 1);
    }
}
