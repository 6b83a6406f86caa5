//! Column generation: root-level pricing of new variables on demand.
//!
//! The solver core knows nothing about what a column *means* — a caller
//! supplies a [`ColumnSource`] that, given the optimal row duals of the
//! restricted LP, proposes improving columns (and any side rows those
//! columns need). [`run_root_pricing`] drives the classic restricted-master
//! loop at the root of the branch-and-bound tree:
//!
//! 1. solve the restricted LP over the current column set;
//! 2. hand the row duals to the source; it returns columns with negative
//!    reduced cost `c_j - y^T a_j < -rc_tol` (internal minimize sense);
//! 3. append the columns (and side rows) to the live LP, splice the old
//!    optimal basis — new columns enter nonbasic at a feasibility-preserving
//!    bound, new row slacks enter basic — and reoptimize warm;
//! 4. repeat until the source returns no column, proving LP optimality over
//!    the *full* (implicit) column set.
//!
//! The loop's limits are fixed: at most `MAX_ROUNDS` (200) rounds of at
//! most `MAX_COLS_PER_ROUND` (96) columns, accepting a column whose reduced
//! cost is below `-RC_TOL` (1e-6), and stopping early after `STALL_ROUNDS`
//! (5) rounds in a row that do not move the bound. Handing the solver a
//! column source is the only switch; without one, no pricing runs.
//!
//! This is the column mirror of `run_root_cuts`: rows there, variables
//! here, the same append-and-warm-reoptimize discipline. Pricing runs
//! before cut separation so every Gomory cut is derived on the final column
//! set, and it forces an identity presolve so the row indices the source
//! sees are exactly the caller's encode-time indices.

use crate::checkpoint::FrameBatch;
use crate::config::Config;
use crate::presolve::Presolved;
use crate::problem::{Row, RowId, Var, VarId};
use crate::simplex::{solve_lp, LpData, LpResult, LpStatus, SparseCol, SparseRow, VStat};
use crate::solution::Stats;
use std::time::Instant;

/// Maximum solve-price-reoptimize rounds at the root.
const MAX_ROUNDS: usize = 200;
/// Maximum columns accepted per round (most negative reduced cost first;
/// the source is asked for no more, and extra columns are truncated). The
/// paper's 50-node, 20-sensor data-collection row has 40 route replicas,
/// so every replica can contribute a bundle per round.
const MAX_COLS_PER_ROUND: usize = 96;
/// A candidate column is accepted when its reduced cost is below `-RC_TOL`
/// (minimization form); a round that improves the LP objective by at most
/// `RC_TOL · (1 + |obj|)` counts as stalled.
const RC_TOL: f64 = 1e-6;
/// Stop after this many consecutive stalled rounds: every extra column
/// slows the integer search, so pricing ends once rounds no longer move
/// the bound (degenerate stalling guard).
const STALL_ROUNDS: usize = 5;

/// Everything a [`ColumnSource`] gets to see when asked to price: the
/// restricted LP's optimal duals plus the dimensions needed to index them.
#[derive(Debug)]
pub struct PriceInput<'a> {
    /// Row duals of the restricted LP at its optimum, in row order
    /// (internal **minimize** sense: the reduced cost of a candidate column
    /// with user-sense objective coefficient `c` and entries `a` is
    /// `sign * c - y^T a`).
    pub y: &'a [f64],
    /// Reduced costs of the *existing* variables at the restricted optimum
    /// (internal minimize sense), indexed like the LP columns. A source
    /// pricing compound moves that force an existing nonbasic variable off
    /// its lower bound should charge at least that variable's (nonnegative)
    /// reduced cost — by LP convexity the objective rises by no less. May be
    /// shorter than `num_vars` (even empty) when the last solve went through
    /// a perturbed recovery rung; missing entries must be treated as zero,
    /// which is always optimistic and therefore sound.
    pub dj: &'a [f64],
    /// Number of structural variables currently in the LP. A side row
    /// returned this round addresses the round's `i`-th new column as
    /// `num_vars + i`.
    pub num_vars: usize,
    /// Number of rows currently in the LP (valid entry indices for new
    /// columns are `0..num_rows`).
    pub num_rows: usize,
    /// Optimal objective of the restricted LP (internal minimize sense).
    pub obj: f64,
    /// `+1.0` when the user problem minimizes, `-1.0` when it maximizes;
    /// multiply user-sense objective coefficients by this before comparing
    /// against `y`.
    pub sign: f64,
    /// Accept a column only when its reduced cost is below `-rc_tol`.
    pub rc_tol: f64,
    /// At most this many columns should be returned (most negative reduced
    /// cost first).
    pub max_cols: usize,
}

/// One column proposed by a [`ColumnSource`].
#[derive(Debug, Clone)]
pub struct NewColumn {
    /// Objective coefficient in the **user** sense (the driver applies the
    /// minimize-sign internally).
    pub obj: f64,
    /// Lower bound. For the warm-basis splice to stay primal-feasible the
    /// column must be harmless at this bound: every existing row must remain
    /// satisfied with the column resting here (pricing sources use 0).
    pub lb: f64,
    /// Upper bound.
    pub ub: f64,
    /// Whether the variable is integral (branched on like any other).
    pub integer: bool,
    /// Diagnostic name.
    pub name: Option<String>,
    /// `(existing row index, coefficient)` entries of the column.
    pub entries: Vec<(usize, f64)>,
}

/// A side row accompanying a batch of priced columns (e.g. a disjointness
/// row linking a new path variable to an existing one).
#[derive(Debug, Clone)]
pub struct NewRow {
    /// `(variable index, coefficient)` pairs; indices `< num_vars` address
    /// existing variables, `num_vars + i` addresses the batch's `i`-th new
    /// column. The row must be satisfied by the current LP optimum with
    /// every new column at its lower bound, or the warm splice loses primal
    /// feasibility.
    pub coefs: Vec<(usize, f64)>,
    /// Row lower bound.
    pub lb: f64,
    /// Row upper bound.
    pub ub: f64,
    /// Annotate the row as a GUB disjunction for the clique separator.
    pub gub: bool,
    /// Diagnostic name.
    pub name: Option<String>,
}

/// What a [`ColumnSource`] returns for one pricing round. An empty `cols`
/// terminates the loop (and certifies LP optimality over the full column
/// set, provided the source's reduced-cost test is exact or optimistic).
#[derive(Debug, Clone, Default)]
pub struct PricedBatch {
    /// New columns, most negative reduced cost first.
    pub cols: Vec<NewColumn>,
    /// Side rows over existing variables and this batch's columns.
    pub rows: Vec<NewRow>,
}

/// A supplier of priced columns, implemented by the modeling layer (the
/// archex path-pricing oracle) and handed to
/// [`crate::Solver::solve_with_columns`].
pub trait ColumnSource {
    /// Proposes improving columns for the current restricted optimum.
    /// Returning an empty batch ends the pricing loop.
    fn price(&mut self, input: &PriceInput<'_>) -> PricedBatch;

    /// Serializes whatever bookkeeping the source needs to survive a
    /// checkpoint/resume cycle (stored opaquely in the frame). Stateless
    /// sources keep the default empty payload.
    fn snapshot_state(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores bookkeeping captured by [`ColumnSource::snapshot_state`]
    /// before a resumed solve. The default ignores the payload.
    fn restore_state(&mut self, _bytes: &[u8]) {}
}

/// Splices a warm-status vector for an LP that grew by `k` columns and `r`
/// rows: `[old structural | k new columns nonbasic | old slacks | r new
/// slacks basic]`. New columns rest at their lower bound (finite) or free at
/// zero; new row slacks enter the basis, keeping it square.
fn splice_statuses(old: &[VStat], n0: usize, new_lb: &[f64], r: usize) -> Vec<VStat> {
    let mut v = Vec::with_capacity(old.len() + new_lb.len() + r);
    v.extend_from_slice(&old[..n0]);
    v.extend(new_lb.iter().map(|lb| {
        if lb.is_finite() {
            VStat::AtLower
        } else {
            VStat::Free
        }
    }));
    v.extend_from_slice(&old[n0..]);
    v.resize(v.len() + r, VStat::Basic);
    v
}

/// Runs the root pricing loop. On entry `root` holds the optimal result of
/// the restricted root LP; on exit it holds the optimal result over every
/// column the source priced in, and `ps.reduced`, `lp`, the bound vectors,
/// and `int_vars` have grown consistently. Failed reoptimizations roll the
/// round back and stop the loop — the restricted optimum before the round
/// stays valid, pricing is only ever an improvement pass.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_root_pricing(
    source: &mut dyn ColumnSource,
    ps: &mut Presolved,
    lp: &mut LpData,
    root_lb: &mut Vec<f64>,
    root_ub: &mut Vec<f64>,
    int_vars: &mut Vec<usize>,
    cfg: &Config,
    root: &mut LpResult,
    deadline: Option<Instant>,
    sign: f64,
    stats: &mut Stats,
    accepted: &mut Vec<FrameBatch>,
) {
    let t0 = Instant::now();
    let mut stalled = 0usize;
    for _round in 0..MAX_ROUNDS {
        if deadline.is_some_and(|d| Instant::now() >= d) || cfg.is_cancelled() {
            break;
        }
        if root.y.len() != lp.num_rows() {
            break; // duals unavailable (perturbed recovery rung)
        }
        let input = PriceInput {
            y: &root.y,
            dj: &root.dj,
            num_vars: lp.num_vars(),
            num_rows: lp.num_rows(),
            obj: root.obj,
            sign,
            rc_tol: RC_TOL,
            max_cols: MAX_COLS_PER_ROUND,
        };
        stats.pricing_rounds += 1;
        let batch = source.price(&input);
        // Mid-round cancellation point: a cancel that lands while the
        // oracle prices must abort here, before the splice + reoptimize.
        // The fault hook fires scheduled test cancellations at this spot.
        if let Some(f) = cfg.faults.as_ref() {
            f.mark_pricing_round();
        }
        if cfg.is_cancelled() {
            break;
        }
        if batch.cols.is_empty() {
            break; // no improving column: optimal over the full set
        }
        let n0 = lp.num_vars();
        let PricedBatch { mut cols, rows } = batch;
        let k = cols.len().min(MAX_COLS_PER_ROUND);
        cols.truncate(k);
        let batch = FrameBatch { cols, rows };

        // Snapshot for rollback; mirrors run_root_cuts' per-round backup.
        let lp_backup = lp.clone();
        let ps_backup = ps.clone();
        if !apply_batch(ps, lp, root_lb, root_ub, int_vars, &batch, sign) {
            break; // malformed batch: keep the restricted optimum
        }

        // Warm reoptimize from the spliced basis: new columns at their
        // resting bound keep every old row satisfied, new row slacks enter
        // basic, so the primal simplex restarts feasible in Phase 2.
        let spliced = splice_statuses(&root.statuses, n0, &root_lb[n0..], batch.rows.len());
        let prev_obj = root.obj;
        let reopt = solve_lp(lp, root_lb, root_ub, cfg, Some(&spliced), deadline);
        stats.charge_lp(&reopt);
        // Fault injection: treat this round's reoptimization as failed so
        // the splice rollback below runs under test control.
        let forced_failure = cfg
            .faults
            .as_ref()
            .is_some_and(|f| f.take_pricing_reopt_failure());
        match reopt {
            Ok(r) if r.status == LpStatus::Optimal && !forced_failure => {
                *root = r;
                stats.cols_priced += k;
                accepted.push(batch);
                let tol = RC_TOL * (1.0 + prev_obj.abs());
                if prev_obj - root.obj <= tol {
                    stalled += 1;
                    if stalled >= STALL_ROUNDS {
                        break;
                    }
                } else {
                    stalled = 0;
                }
            }
            _ => {
                // Reoptimization failed (limit, numeric trouble, or an
                // impossible infeasible/unbounded flip): roll the round
                // back and stop pricing — the pre-round optimum stands.
                *lp = lp_backup;
                *ps = ps_backup;
                root_lb.truncate(n0);
                root_ub.truncate(n0);
                int_vars.retain(|&j| j < n0);
                debug_assert_eq!(lp.num_vars(), n0, "rollback must restore the LP width");
                debug_assert_eq!(root_lb.len(), n0);
                break;
            }
        }
    }
    stats.pricing_time += t0.elapsed();
}

/// Grows `ps` (its reduced problem and postsolve map), the computational
/// LP, the bound vectors and `int_vars` by one batch of priced columns and
/// their side rows, the same way for a live pricing round and for a batch
/// replayed from a checkpoint frame. Columns go first, so a side row can
/// address the batch's `i`-th column as `num_vars + i`. No LP is solved.
/// Returns `false`, having changed nothing, when a column entry names a row
/// the LP lacks or a side row names a column past the batch.
pub(crate) fn apply_batch(
    ps: &mut Presolved,
    lp: &mut LpData,
    root_lb: &mut Vec<f64>,
    root_ub: &mut Vec<f64>,
    int_vars: &mut Vec<usize>,
    batch: &FrameBatch,
    sign: f64,
) -> bool {
    let (m0, n1) = (lp.num_rows(), lp.num_vars() + batch.cols.len());
    let bad_entry = |c: &NewColumn| c.entries.iter().any(|&(r, _)| r >= m0);
    let bad_coef = |r: &NewRow| r.coefs.iter().any(|&(j, _)| j >= n1);
    if batch.cols.iter().any(bad_entry) || batch.rows.iter().any(bad_coef) {
        return false;
    }
    for col in &batch.cols {
        let mut builder = if col.integer {
            if col.lb >= 0.0 && col.ub <= 1.0 {
                Var::binary()
            } else {
                Var::integer()
            }
        } else {
            Var::cont()
        }
        .bounds(col.lb, col.ub)
        .obj(col.obj);
        if let Some(name) = &col.name {
            builder = builder.name(name.clone());
        }
        let vid = ps.reduced.add_var(builder);
        debug_assert_eq!(vid.index(), ps.reduced.num_vars() - 1);
        for &(r, v) in &col.entries {
            ps.reduced.add_row_coef(RowId(r), vid, v);
        }
        root_lb.push(col.lb);
        root_ub.push(col.ub);
        if col.integer {
            int_vars.push(root_lb.len() - 1);
        }
    }
    for row in &batch.rows {
        let builder = Row::new()
            .range(row.lb, row.ub)
            .coefs(row.coefs.iter().map(|&(j, v)| (VarId(j), v)));
        let builder = match &row.name {
            Some(name) => builder.name(name.clone()),
            None => builder,
        };
        let rid = ps.reduced.add_row(builder);
        if row.gub {
            ps.reduced.mark_gub(rid);
        }
    }
    ps.register_appended_vars(batch.cols.len());
    let sparse_cols: Vec<SparseCol> = batch
        .cols
        .iter()
        .map(|c| (c.entries.clone(), sign * c.obj))
        .collect();
    lp.append_cols(&sparse_cols);
    let sparse_rows: Vec<SparseRow> = batch
        .rows
        .iter()
        .map(|r| (r.coefs.clone(), r.lb, r.ub))
        .collect();
    lp.append_rows(&sparse_rows);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch::solve_milp_with;
    use crate::problem::{Problem, Sense};
    use crate::solution::Status;

    /// A scripted source: each call pops the next batch.
    struct Scripted {
        batches: Vec<PricedBatch>,
        seen_duals: Vec<Vec<f64>>,
    }

    impl ColumnSource for Scripted {
        fn price(&mut self, input: &PriceInput<'_>) -> PricedBatch {
            self.seen_duals.push(input.y.to_vec());
            if self.batches.is_empty() {
                PricedBatch::default()
            } else {
                self.batches.remove(0)
            }
        }
    }

    /// min 2x1 + 3x2 s.t. x1 + x2 >= 2: dual y0 = 2 at the optimum (4.0).
    fn cover_problem() -> Problem {
        let mut p = Problem::new(Sense::Minimize);
        let x1 = p.add_var(Var::cont().bounds(0.0, 10.0).obj(2.0).name("x1"));
        let x2 = p.add_var(Var::cont().bounds(0.0, 10.0).obj(3.0).name("x2"));
        p.add_row(Row::new().coef(x1, 1.0).coef(x2, 1.0).ge(2.0));
        p
    }

    #[test]
    fn priced_column_improves_objective() {
        let p = cover_problem();
        // Column x3 with cost 1 covering the same row: rc = 1 - 2 = -1.
        let mut src = Scripted {
            batches: vec![PricedBatch {
                cols: vec![NewColumn {
                    obj: 1.0,
                    lb: 0.0,
                    ub: 10.0,
                    integer: false,
                    name: Some("x3".into()),
                    entries: vec![(0, 1.0)],
                }],
                rows: vec![],
            }],
            seen_duals: Vec::new(),
        };
        let cfg = Config::default();
        let s = solve_milp_with(&p, &cfg, Instant::now(), Some(&mut src));
        assert_eq!(s.status(), Status::Optimal);
        assert!((s.objective() - 2.0).abs() < 1e-6, "obj {}", s.objective());
        assert_eq!(s.stats().cols_priced, 1);
        assert!(s.stats().pricing_rounds >= 2, "needs a terminal empty round");
        // The first duals the source saw price the covering row at 2.
        assert!((src.seen_duals[0][0] - 2.0).abs() < 1e-6);
        // Solution vector covers the appended variable.
        assert_eq!(s.values().len(), 3);
        assert!((s.values()[2] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn side_row_caps_priced_column() {
        let p = cover_problem();
        // Same improving column, but a side row caps it at 1: the optimum
        // splits 1 unit at cost 1 and 1 unit at cost 2.
        let mut src = Scripted {
            batches: vec![PricedBatch {
                cols: vec![NewColumn {
                    obj: 1.0,
                    lb: 0.0,
                    ub: 10.0,
                    integer: false,
                    name: None,
                    entries: vec![(0, 1.0)],
                }],
                rows: vec![NewRow {
                    coefs: vec![(2, 1.0)], // num_vars + 0 = 2
                    lb: f64::NEG_INFINITY,
                    ub: 1.0,
                    gub: false,
                    name: None,
                }],
            }],
            seen_duals: Vec::new(),
        };
        let cfg = Config::default();
        let s = solve_milp_with(&p, &cfg, Instant::now(), Some(&mut src));
        assert_eq!(s.status(), Status::Optimal);
        assert!((s.objective() - 3.0).abs() < 1e-6, "obj {}", s.objective());
    }

    #[test]
    fn malformed_batch_is_rejected_before_any_change() {
        // The column names row 5 of a one-row problem: the batch must be
        // dropped whole and the restricted optimum kept.
        let p = cover_problem();
        let mut src = Scripted {
            batches: vec![PricedBatch {
                cols: vec![NewColumn {
                    obj: 1.0,
                    lb: 0.0,
                    ub: 10.0,
                    integer: false,
                    name: None,
                    entries: vec![(0, 1.0), (5, 1.0)],
                }],
                rows: vec![],
            }],
            seen_duals: Vec::new(),
        };
        let s = solve_milp_with(&p, &Config::default(), Instant::now(), Some(&mut src));
        assert_eq!(s.status(), Status::Optimal);
        assert!((s.objective() - 4.0).abs() < 1e-6, "obj {}", s.objective());
        assert_eq!(s.stats().cols_priced, 0);
        assert_eq!(s.values().len(), 2);
    }

    #[test]
    fn integer_priced_column_is_branched() {
        // min 2a + 3b, a + b >= 2, binaries: optimum a = b = 1, obj 5.
        let mut p = Problem::new(Sense::Minimize);
        let a = p.add_var(Var::binary().obj(2.0));
        let b = p.add_var(Var::binary().obj(3.0));
        p.add_row(Row::new().coef(a, 1.0).coef(b, 1.0).ge(2.0));
        // Price in a cheaper binary c (covers 2 units at once, cost 1):
        // optimum becomes c = 1, obj 1 — and c must come out integral.
        let mut src = Scripted {
            batches: vec![PricedBatch {
                cols: vec![NewColumn {
                    obj: 1.0,
                    lb: 0.0,
                    ub: 1.0,
                    integer: true,
                    name: Some("c".into()),
                    entries: vec![(0, 2.0)],
                }],
                rows: vec![],
            }],
            seen_duals: Vec::new(),
        };
        let cfg = Config::default();
        let s = solve_milp_with(&p, &cfg, Instant::now(), Some(&mut src));
        assert_eq!(s.status(), Status::Optimal);
        assert!((s.objective() - 1.0).abs() < 1e-6, "obj {}", s.objective());
        let v = s.values();
        assert!((v[2] - 1.0).abs() < 1e-6, "priced binary must be 1: {v:?}");
    }

    #[test]
    fn splice_statuses_shapes() {
        let old = vec![VStat::Basic, VStat::AtLower, VStat::Basic]; // n0=2, m0=1
        let got = splice_statuses(&old, 2, &[0.0, f64::NEG_INFINITY], 1);
        assert_eq!(
            got,
            vec![
                VStat::Basic,
                VStat::AtLower,
                VStat::AtLower, // new col, finite lb
                VStat::Free,    // new col, free
                VStat::Basic,   // old slack
                VStat::Basic,   // new row slack
            ]
        );
    }
}
