//! LP-based branch and bound.
//!
//! The driver presolves the problem, builds the computational LP form once,
//! and explores a tree of bound-tightened LP relaxations. Nodes carry their
//! bound *deltas* from the root plus a shared warm-start basis, so node
//! storage stays small. Node selection is best-bound with depth-first
//! plunging; branching uses pseudo-costs with a most-fractional fallback
//! before a variable's costs are initialized.
//!
//! # One search kernel
//!
//! Every thread count runs the same node loop (`worker`). Worker 0 runs
//! on the calling thread and each extra [`Config::threads`] adds one scoped
//! worker thread: open nodes live in a shared best-bound heap behind a
//! `Mutex`, the incumbent objective is published through an `AtomicU64`
//! (f64 bits) so every worker prunes against the freshest bound, and each
//! worker runs its own simplex instance with the shared warm-start bases
//! (`Arc`). Workers plunge depth-first locally and rebuild node bounds from
//! one shared copy of the reduced-cost-tightened base bounds. With one
//! worker the trajectory is a pure function of the problem and the
//! configuration (as long as no time limit or cancellation stops it); with
//! more, node processing order differs run to run, so pseudo-cost learning
//! and node counts vary — but pruning only ever
//! discards nodes whose LP bound cannot beat the incumbent, so the
//! *objective value* of the result is deterministic to within the gap
//! tolerances at any thread count.
//!
//! A resumed solve is a cold solve seeded from a checkpoint frame: both
//! entry points share the base-LP builder (`BaseLp::build`), the root
//! heuristics (`root_heuristics`), and the search-and-wrap-up tail
//! (`search_and_wrap_up`).

use crate::checkpoint::{self, CkptRuntime, FrameBase, FrameError, FrameNode, SearchFrame};
use crate::config::Config;
use crate::cuts;
use crate::error::{relock, SolveError};
use crate::heur;
use crate::presolve::{presolve, Presolved};
use crate::pricing::{self, ColumnSource};
use crate::problem::{Problem, Sense, VarId, VarType};
use crate::simplex::{solve_lp, LpData, LpResult, LpStatus, VStat};
use crate::solution::{Solution, Stats, Status};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Integrality tolerance: a value within this of a whole number counts as
/// integral (branching, node incumbents, root heuristics, warm-start checks).
pub(crate) const INT_TOL: f64 = 1e-6;
/// Absolute MIP gap: the search stops, and a node is pruned, once the
/// incumbent is within this of the bound (internal minimize sense).
const ABS_GAP: f64 = 1e-9;

/// One open node: bound changes relative to the root plus bookkeeping.
/// `Clone` lets a worker keep an in-flight copy so a panicking worker's
/// node can be re-queued instead of lost.
#[derive(Clone)]
struct Node {
    /// `(var, new_lb, new_ub)` tightenings along the path from the root.
    changes: Vec<(usize, f64, f64)>,
    /// LP bound inherited from the parent (internal minimize sense).
    bound: f64,
    depth: usize,
    /// Warm-start statuses shared with the sibling (and across worker
    /// threads).
    warm: Option<Arc<Vec<VStat>>>,
}

/// Max-heap adapter: we want the node with the *smallest* bound on top.
struct HeapNode(Node);

impl PartialEq for HeapNode {
    fn eq(&self, other: &Self) -> bool {
        self.0.bound == other.0.bound
    }
}
impl Eq for HeapNode {}
impl PartialOrd for HeapNode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapNode {
    fn cmp(&self, other: &Self) -> Ordering {
        // reversed: smaller bound = greater priority
        other
            .0
            .bound
            .partial_cmp(&self.0.bound)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.0.depth.cmp(&self.0.depth))
    }
}

/// Per-variable pseudo-cost records. Each worker keeps its own copy: the
/// records steer branching, not correctness, so they need no sharing.
struct PseudoCosts {
    up_sum: Vec<f64>,
    up_cnt: Vec<usize>,
    down_sum: Vec<f64>,
    down_cnt: Vec<usize>,
}

impl PseudoCosts {
    fn new(n: usize) -> Self {
        PseudoCosts {
            up_sum: vec![0.0; n],
            up_cnt: vec![0; n],
            down_sum: vec![0.0; n],
            down_cnt: vec![0; n],
        }
    }

    fn record(&mut self, var: usize, up: bool, degradation_per_frac: f64) {
        let d = degradation_per_frac.max(0.0);
        if up {
            self.up_sum[var] += d;
            self.up_cnt[var] += 1;
        } else {
            self.down_sum[var] += d;
            self.down_cnt[var] += 1;
        }
    }

    fn score(&self, var: usize, frac: f64) -> f64 {
        let eps = 1e-6;
        let up = if self.up_cnt[var] > 0 {
            self.up_sum[var] / self.up_cnt[var] as f64
        } else {
            1.0
        };
        let down = if self.down_cnt[var] > 0 {
            self.down_sum[var] / self.down_cnt[var] as f64
        } else {
            1.0
        };
        (up * (1.0 - frac)).max(eps) * (down * frac).max(eps)
    }

    fn initialized(&self, var: usize) -> bool {
        self.up_cnt[var] > 0 || self.down_cnt[var] > 0
    }
}

/// The presolved problem in internal LP form (minimize sense): the matrix
/// and objective every node LP solves against, the base variable bounds,
/// and the integrality pattern. Pricing and root cuts grow it in place;
/// the base bounds are the root bounds after reduced-cost fixing (or, on
/// resume, the frame's).
struct BaseLp {
    ps: Presolved,
    lp: LpData,
    lb: Vec<f64>,
    ub: Vec<f64>,
    int_vars: Vec<usize>,
    /// `+1.0` when the user problem minimizes, `-1.0` when it maximizes.
    sign: f64,
    obj_offset: f64,
}

impl BaseLp {
    /// Presolves `problem` (or takes it as is when `identity` is set or
    /// presolve is off) and builds the internal LP form. Fails with the
    /// presolver's conclusion when it already decided the problem.
    fn build(
        problem: &Problem,
        cfg: &Config,
        identity: bool,
        stats: &mut Stats,
    ) -> Result<Self, Status> {
        let minimize = problem.sense() == Sense::Minimize;
        let ps = if cfg.presolve && !identity {
            presolve(problem, minimize)
        } else {
            Presolved::identity(problem)
        };
        stats.presolve_rows_removed = ps.rows_removed;
        stats.presolve_vars_removed = ps.vars_removed;
        if let Some(conclusion) = ps.conclusion {
            return Err(conclusion);
        }
        let red = &ps.reduced;
        let n = red.num_vars();
        let sign = if minimize { 1.0 } else { -1.0 };
        let (row_lb, row_ub): (Vec<f64>, Vec<f64>) =
            red.row_ids().map(|r| red.row_bounds(r)).unzip();
        let lp = LpData {
            a: red.matrix(),
            c: red.objective().iter().map(|&v| sign * v).collect(),
            row_lb,
            row_ub,
        };
        let (lb, ub): (Vec<f64>, Vec<f64>) = (0..n).map(|j| red.var_bounds(VarId(j))).unzip();
        let int_vars = (0..n)
            .filter(|&j| red.var_type(VarId(j)) != VarType::Continuous)
            .collect();
        let obj_offset = red.obj_offset();
        Ok(BaseLp {
            ps,
            lp,
            lb,
            ub,
            int_vars,
            sign,
            obj_offset,
        })
    }

    /// Translates an internal (minimize-sense) objective to the user sense.
    fn user_obj(&self, internal: f64) -> f64 {
        self.sign * internal + self.obj_offset
    }

    /// Hash of the LP plus its bounds and integrality pattern, taken before
    /// any pricing or cut appends. Checkpoint frames carry it; resume
    /// recomputes it from a fresh encode and refuses frames whose hash
    /// differs, so a snapshot can never silently continue a different
    /// model.
    fn fingerprint(&self) -> u64 {
        let mut w = checkpoint::ByteWriter::new();
        w.put_usize(self.lp.num_vars());
        w.put_usize(self.lp.num_rows());
        for v in [&self.lp.c, &self.lp.row_lb, &self.lp.row_ub, &self.lb, &self.ub] {
            for &x in v {
                w.put_f64(x);
            }
        }
        w.put_usize(self.int_vars.len());
        for &j in &self.int_vars {
            w.put_usize(j);
        }
        checkpoint::fnv1a64(&w.into_bytes())
    }

    /// Solves the root relaxation at the base bounds, charging the work to
    /// `stats`.
    fn solve_root(
        &self,
        cfg: &Config,
        deadline: Option<Instant>,
        stats: &mut Stats,
    ) -> Result<LpResult, SolveError> {
        let r = solve_lp(&self.lp, &self.lb, &self.ub, cfg, None, deadline);
        stats.charge_lp(&r);
        r
    }
}

/// Read-only problem data shared by every search worker.
struct SearchCtx<'a> {
    base: &'a BaseLp,
    cfg: &'a Config,
    deadline: Option<Instant>,
    /// Root reduced costs and root LP bound, when a root solution is at
    /// hand and the problem has integer variables: every incumbent a worker
    /// finds re-runs fixing against the shared base bounds.
    rc_root: Option<(&'a [f64], f64)>,
    /// Durable-solve runtime, when [`Config::checkpoint`] is set: frame
    /// claims on the snapshot cadence and the hand-off to the writer.
    ckpt: Option<&'a CkptRuntime>,
    /// Shared incumbent: every tree worker publishes through (and prunes
    /// against) this one state.
    inc: &'a Incumbent,
}

// The context crosses scoped-thread boundaries; keep that statically true.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<SearchCtx<'_>>();
};

/// Shared incumbent state: the objective as atomic f64 bits for lock-free
/// pruning, the full vector behind a mutex, and a timestamped publication
/// trace for the anytime metrics. One instance is shared by every tree
/// worker, so an improvement from any of them immediately tightens every
/// worker's pruning bound.
struct Incumbent {
    /// Incumbent objective as f64 bits (∞ = none), internal minimize sense.
    bound: AtomicU64,
    /// Incumbent vector; `bound` is only written while holding this.
    full: Mutex<Option<(f64, Vec<f64>)>>,
    /// `(seconds since solve start, internal objective)` per accepted
    /// improvement, in publication order (objectives strictly decrease).
    trace: Mutex<Vec<(f64, f64)>>,
    /// Solve start: the zero point of the trace timestamps.
    start: Instant,
}

impl Incumbent {
    fn new(start: Instant) -> Self {
        Incumbent {
            bound: AtomicU64::new(INF_BITS),
            full: Mutex::new(None),
            trace: Mutex::new(Vec::new()),
            start,
        }
    }

    /// The incumbent objective (∞ when none), for lock-free pruning.
    fn bound(&self) -> f64 {
        f64::from_bits(self.bound.load(AtomicOrdering::SeqCst))
    }

    /// Installs `(obj, x)` as the incumbent if it improves; returns whether
    /// it did. Callers are responsible for only offering feasible points.
    fn offer(&self, obj: f64, x: Vec<f64>) -> bool {
        let mut guard = relock(&self.full);
        let improves = guard.as_ref().is_none_or(|(o, _)| obj < *o);
        if improves {
            *guard = Some((obj, x));
            self.bound.store(obj.to_bits(), AtomicOrdering::SeqCst);
            relock(&self.trace).push((self.start.elapsed().as_secs_f64(), obj));
        }
        improves
    }

    /// A clone of the current best `(objective, x)`.
    fn best(&self) -> Option<(f64, Vec<f64>)> {
        relock(&self.full).clone()
    }

    /// Consumes the state: the final incumbent plus the publication trace.
    #[allow(clippy::type_complexity)]
    fn into_parts(self) -> (Option<(f64, Vec<f64>)>, Vec<(f64, f64)>) {
        (
            self.full.into_inner().unwrap_or_else(PoisonError::into_inner),
            self.trace.into_inner().unwrap_or_else(PoisonError::into_inner),
        )
    }
}

/// What a tree search hands back to the wrap-up code. The incumbent itself
/// lives in the shared [`Incumbent`] (read by [`wrap_up`] after the search
/// has stopped).
struct SearchOutcome {
    /// Smallest bound among still-open nodes (∞ when the tree is exhausted).
    open_bound: f64,
    hit_limit: bool,
    /// A node LP was unbounded (only possible if the root was; defensive).
    unbounded: bool,
    /// Smallest bound among nodes dropped after unrecoverable LP errors
    /// (∞ when none). Folded into the final bound so a solve that lost
    /// subtrees never claims optimality past them.
    dropped_bound: f64,
}

impl SearchCtx<'_> {
    /// Whether the solve should wind down: wall-clock deadline,
    /// cooperative cancellation, or an injected (simulated) deadline expiry.
    fn should_stop(&self, nodes: usize) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
            || self.cfg.is_cancelled()
            || self
                .cfg
                .faults
                .as_ref()
                .is_some_and(|f| f.deadline_expired(nodes))
    }
}

/// Most fractional integer variable of `x`, if any. Fractionality ties are
/// broken by larger objective coefficient magnitude (branching on a
/// variable the objective actually cares about moves the bound faster on
/// symmetric routing models), then by lower index for determinism.
fn most_fractional(x: &[f64], c: &[f64], int_vars: &[usize], int_tol: f64) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64, f64, f64)> = None; // (j, frac, dist, |c_j|)
    for &j in int_vars {
        let f = x[j] - x[j].floor();
        let dist = (f - 0.5).abs();
        if f > int_tol && f < 1.0 - int_tol {
            let mag = c[j].abs();
            let better = match best {
                None => true,
                Some((_, _, d, m)) => dist < d - 1e-12 || (dist < d + 1e-12 && mag > m),
            };
            if better {
                best = Some((j, f, dist, mag));
            }
        }
    }
    best.map(|(j, f, _, _)| (j, f))
}

/// Reduced-cost variable fixing: given the root LP bound `lp_bound` and an
/// incumbent objective `inc_obj` (both internal minimize sense) plus the
/// root reduced costs `dj`, any solution better than the incumbent keeps a
/// nonbasic variable within `gap / |dj|` of the bound it rests at, so the
/// opposite bound can be pulled in globally. Returns the number of bounds
/// tightened. A small cushion keeps incumbent-equal solutions reachable.
fn fix_by_reduced_costs(
    lb: &mut [f64],
    ub: &mut [f64],
    dj: &[f64],
    int_vars: &[usize],
    lp_bound: f64,
    inc_obj: f64,
) -> Vec<(usize, f64, f64)> {
    let mut fixed: Vec<(usize, f64, f64)> = Vec::new();
    if dj.is_empty() || !lp_bound.is_finite() || !inc_obj.is_finite() {
        return fixed;
    }
    let gap = (inc_obj - lp_bound).max(0.0);
    let cushion = 1e-6 * (1.0 + gap.abs());
    for &j in int_vars {
        if lb[j] >= ub[j] {
            continue; // already fixed
        }
        let d = dj[j];
        // At optimality d > 0 only at a lower bound and d < 0 only at an
        // upper bound, so the sign identifies the resting bound.
        if d > 1e-9 && lb[j].is_finite() {
            let limit = lb[j] + ((gap + cushion) / d).floor();
            if limit < ub[j] - 1e-9 {
                ub[j] = limit.max(lb[j]);
                fixed.push((j, f64::NEG_INFINITY, ub[j]));
            }
        } else if d < -1e-9 && ub[j].is_finite() {
            let limit = ub[j] - ((gap + cushion) / -d).floor();
            if limit > lb[j] + 1e-9 {
                lb[j] = limit.min(ub[j]);
                fixed.push((j, lb[j], f64::INFINITY));
            }
        }
    }
    fixed
}

/// Solves `problem` by presolve + branch and bound. `start` anchors the time
/// limit. Called through [`crate::Solver::solve`].
pub fn solve_milp(problem: &Problem, cfg: &Config, start: Instant) -> Solution {
    solve_milp_with(problem, cfg, start, None)
}

/// [`solve_milp`] with an optional column source for root column
/// generation. When a source is supplied, presolve is forced to the
/// identity so the row indices the source prices against are exactly the
/// caller's encode-time indices, and the root LP is grown by a
/// solve-price-reoptimize loop before cut separation. Called through [`crate::Solver::solve_with_columns`].
pub fn solve_milp_with(
    problem: &Problem,
    cfg: &Config,
    start: Instant,
    mut columns: Option<&mut dyn ColumnSource>,
) -> Solution {
    let deadline = cfg.time_limit.map(|d| start + d);
    let mut stats = Stats::default();

    // --- Presolve and the internal LP form ---
    // Pricing requires stable row indices (the source addresses rows by
    // their encode-time position), so a column source forces the identity.
    let mut base = match BaseLp::build(problem, cfg, columns.is_some(), &mut stats) {
        Ok(base) => base,
        Err(conclusion) => {
            stats.elapsed = start.elapsed();
            return match conclusion {
                Status::Infeasible => Solution::infeasible(stats),
                Status::Unbounded => Solution::unbounded(stats),
                _ => unreachable!("presolve only concludes infeasible/unbounded"),
            };
        }
    };
    // Fingerprint the base LP before pricing or cuts mutate it (see
    // `BaseLp::fingerprint`); only checkpoint frames need it.
    let durable = cfg.checkpoint.is_some();
    let fingerprint = if durable { base.fingerprint() } else { 0 };

    // --- Root LP ---
    let mut root = match base.solve_root(cfg, deadline, &mut stats) {
        Ok(r) if r.status == LpStatus::Optimal => r,
        other => {
            stats.nodes = 1;
            stats.elapsed = start.elapsed();
            return match other.map(|r| r.status) {
                // Even the recovery ladder could not solve the root
                // relaxation: there is nothing to search, so surface the
                // failure.
                Err(e) => Solution::numeric_failure(stats, e),
                Ok(LpStatus::Infeasible) => Solution::infeasible(stats),
                Ok(LpStatus::Unbounded) => Solution::unbounded(stats),
                Ok(_) => Solution {
                    status: Status::LimitNoSolution,
                    objective: f64::INFINITY,
                    best_bound: base.user_obj(f64::NEG_INFINITY),
                    values: Vec::new(),
                    stats,
                    error: None,
                },
            };
        }
    };

    // --- Root column generation ---
    // The pricing loop runs before cut separation: every Gomory cut below
    // is derived on the final column set, so no cut is ever missing a
    // coefficient for a priced-in variable. The loop grows the reduced
    // problem, the LP, the base bounds, and `int_vars` in lockstep, and
    // leaves `root` optimal over the grown LP.
    let mut batches: Vec<checkpoint::FrameBatch> = Vec::new();
    if let Some(source) = columns.as_deref_mut() {
        pricing::run_root_pricing(
            source,
            &mut base.ps,
            &mut base.lp,
            &mut base.lb,
            &mut base.ub,
            &mut base.int_vars,
            cfg,
            &mut root,
            deadline,
            base.sign,
            &mut stats,
            &mut batches,
        );
    }

    // --- Root cutting planes ---
    // Separation rounds tighten the relaxation before any branching: each
    // round appends the pool's surviving cuts and dual-reoptimizes from the
    // old basis (cut slacks enter basic, which keeps it dual-feasible).
    // Gomory cuts are derived here, at the root bounds, so every cut is
    // globally valid and baked into the LP every node solves.
    let cut_ctx = cuts::CutContext::from_problem(&base.ps.reduced);
    let mut cut_pool = cuts::CutPool::new();
    if cfg.cuts.enabled && !base.int_vars.is_empty() {
        cuts::run_root_cuts(
            &mut base.lp,
            &base.lb,
            &base.ub,
            cfg,
            &cut_ctx,
            &mut root,
            &mut cut_pool,
            deadline,
            &mut stats,
        );
    }
    stats.cuts_generated = cut_pool.generated;
    stats.cuts_applied = cut_pool.applied_len();
    stats.cut_rounds = cut_pool.rounds;

    // --- Incumbent state (internal minimize sense) ---
    // One shared instance for the whole solve: the root heuristics and the
    // tree workers publish through it, and its timestamped trace yields the
    // anytime metrics in `wrap_up`.
    let inc = Incumbent::new(start);

    // A caller-supplied warm-start point (the previous optimum of a nearby
    // problem, in original variable order) seeds the incumbent when it
    // still satisfies every row, bound, and integrality constraint of
    // *this* problem: the search then opens with a proven primal bound and
    // reduced-cost fixing bites from the root. Validation happens against
    // both the original and the reduced problem — presolve may have fixed
    // variables by dominance arguments that exclude feasible-but-worse
    // points, in which case the hint is dropped rather than trusted. After
    // pricing grew the variable space the size check fails and the hint is
    // ignored (priced columns have no value in the caller's vector).
    if let Some(warm) = cfg.warm_start.as_deref() {
        if problem.check_feasible(warm, INT_TOL).is_none() {
            if let Some(red) = base.ps.map_to_reduced(warm, INT_TOL) {
                if base.ps.reduced.check_feasible(&red, INT_TOL).is_none() {
                    let obj: f64 = base.lp.c.iter().zip(&red).map(|(&c, &x)| c * x).sum();
                    if inc.offer(obj, red) {
                        stats.warm_seeded = true;
                    }
                }
            }
        }
    }
    root_heuristics(&base, &root, cfg, deadline, &inc, &mut stats);

    // --- Root reduced-cost fixing ---
    // With an incumbent in hand the root reduced costs bound how far any
    // nonbasic integer can move in a better solution; pull the opposite
    // bounds in before the tree search ever sees them.
    if !base.int_vars.is_empty() {
        stats.rc_fixed += fix_by_reduced_costs(
            &mut base.lb,
            &mut base.ub,
            &root.dj,
            &base.int_vars,
            root.obj,
            inc.bound(),
        )
        .len();
    }

    let root_node = Node {
        changes: Vec::new(),
        bound: root.obj,
        depth: 0,
        warm: Some(Arc::new(root.statuses.clone())),
    };
    // Everything static for the rest of the search goes into the frame
    // base; the root bound after the cut rounds also anchors `root_gap`.
    let frame_base = FrameBase {
        fingerprint,
        root_bound: root.obj,
        batches,
        user_data: columns
            .filter(|_| durable)
            .map(|s| s.snapshot_state())
            .unwrap_or_default(),
        cuts: cut_pool.applied().to_vec(),
    };
    search_and_wrap_up(
        base,
        cfg,
        start,
        inc,
        vec![root_node],
        Some(&root),
        frame_base,
        stats,
    )
}

/// Resumes a checkpointed solve from a decoded [`SearchFrame`]: a cold
/// solve seeded from the frame. It rebuilds the base LP exactly as
/// [`solve_milp_with`] does, verifies the frame's problem fingerprint,
/// replays the accepted pricing batches in order, bakes the frame's cuts
/// into the LP, restores the incumbent, and continues the tree search from
/// the frame's open nodes. Resuming from *any* valid frame — even a stale
/// one — yields the same final objective and proof status as an
/// uninterrupted run; staleness only re-does work.
///
/// Fails with [`FrameError::Mismatch`] when the frame does not belong to
/// this problem/configuration pairing; callers typically fall back to a
/// cold solve.
pub fn resume_milp_with(
    problem: &Problem,
    cfg: &Config,
    start: Instant,
    frame: SearchFrame,
    mut columns: Option<&mut dyn ColumnSource>,
) -> Result<Solution, FrameError> {
    let deadline = cfg.time_limit.map(|d| start + d);
    let mut stats = Stats {
        resumed: true,
        ..Stats::default()
    };

    // --- Rebuild the base LP exactly as the cold path does ---
    let Ok(mut base) = BaseLp::build(problem, cfg, columns.is_some(), &mut stats) else {
        // The original solve never searched (so never wrote a frame) for a
        // presolve-concluded problem; this frame is someone else's.
        return Err(FrameError::Mismatch("presolve concluded the problem"));
    };
    if base.fingerprint() != frame.fingerprint {
        return Err(FrameError::Mismatch("problem fingerprint differs"));
    }

    // --- Replay the accepted pricing rounds ---
    // Batch by batch, so side-row column indices (`num_vars + i` within
    // their own round) resolve exactly as they did when first accepted.
    if !frame.batches.is_empty() {
        if columns.is_none() {
            return Err(FrameError::Mismatch(
                "frame carries priced columns but no column source was given",
            ));
        }
        let fits = frame.batches.iter().all(|batch| {
            pricing::apply_batch(
                &mut base.ps,
                &mut base.lp,
                &mut base.lb,
                &mut base.ub,
                &mut base.int_vars,
                batch,
                base.sign,
            )
        });
        if !fits {
            return Err(FrameError::Mismatch("pricing batches do not fit the base LP"));
        }
        stats.cols_priced = frame.batches.iter().map(|b| b.cols.len()).sum();
    }
    if let Some(source) = &mut columns {
        source.restore_state(&frame.user_data);
    }

    // --- Validate the frame against the rebuilt LP ---
    let n = base.lp.num_vars();
    if frame.base_lb.len() != n || frame.base_ub.len() != n {
        return Err(FrameError::Mismatch("bound vector length differs"));
    }
    if frame.cuts.iter().any(|c| c.coefs.iter().any(|&(j, _)| j >= n)) {
        return Err(FrameError::Mismatch("cut references an unknown column"));
    }
    if frame.incumbent.as_ref().is_some_and(|(_, x)| x.len() != n) {
        return Err(FrameError::Mismatch("incumbent length differs"));
    }
    if frame
        .open_nodes
        .iter()
        .any(|nd| nd.changes.iter().any(|&(j, _, _)| j >= n))
    {
        return Err(FrameError::Mismatch("node change references an unknown column"));
    }

    // --- Seed the cold pipeline from the frame ---
    // Every cut is a root cut, valid for the whole tree: all of them go
    // into the base LP (frames from builds with node-level separation
    // carry globally valid cover/clique cuts past the root prefix, which
    // bake in just as soundly). The base bounds carry the killed run's
    // reduced-cost fixing.
    let rows = cuts::cuts_to_rows(&frame.cuts);
    if !rows.is_empty() {
        base.lp.append_rows(&rows);
    }
    stats.cuts_applied = frame.cuts.len();
    stats.nodes = frame.nodes_done;
    let SearchFrame {
        fingerprint,
        root_bound,
        incumbent,
        base_lb,
        base_ub,
        batches,
        cuts,
        open_nodes,
        user_data,
        ..
    } = frame;
    base.lb = base_lb;
    base.ub = base_ub;
    let inc = Incumbent::new(start);
    if let Some((obj, x)) = incumbent {
        inc.offer(obj, x);
    }

    // Re-solve the root relaxation once against the restored LP. Frames
    // drop warm bases, but every open node is just a set of bound deltas
    // from this root, so the root basis stays dual-feasible for all of
    // them — one solve here turns thousands of would-be cold node solves
    // back into short dual-simplex reoptimizations. The same root point
    // feeds the cold-style root heuristics. Failure is non-fatal: nodes
    // then cold-solve, and the heuristics and incumbent-time reduced-cost
    // fixing are skipped (pruning strength lost, never correctness).
    let root = base
        .solve_root(cfg, deadline, &mut stats)
        .ok()
        .filter(|r| r.status == LpStatus::Optimal);
    if let Some(root) = &root {
        root_heuristics(&base, root, cfg, deadline, &inc, &mut stats);
    }
    let warm = root.as_ref().map(|r| Arc::new(r.statuses.clone()));
    let roots = open_nodes
        .into_iter()
        .map(|nd| Node {
            changes: nd.changes,
            bound: nd.bound,
            depth: nd.depth,
            warm: warm.clone(),
        })
        .collect();
    let frame_base = FrameBase {
        fingerprint,
        root_bound,
        batches,
        user_data,
        cuts,
    };
    Ok(search_and_wrap_up(
        base,
        cfg,
        start,
        inc,
        roots,
        root.as_ref(),
        frame_base,
        stats,
    ))
}

/// Root primal heuristics shared by the cold and the resumed solve: simple
/// rounding of the root point, then two dives from the root basis, each
/// bounded by its LP-solve budget. Every improvement is published through
/// `inc`.
fn root_heuristics(
    base: &BaseLp,
    root: &LpResult,
    cfg: &Config,
    deadline: Option<Instant>,
    inc: &Incumbent,
    stats: &mut Stats,
) {
    if !cfg.heuristics || base.int_vars.is_empty() {
        return;
    }
    let reduced = &base.ps.reduced;
    if let Some((obj, x)) = heur::try_rounding(reduced, &base.lp, &root.x, INT_TOL) {
        if inc.offer(obj, x) {
            stats.heuristic_solutions += 1;
        }
    }
    for strategy in [
        heur::DiveStrategy::NearestInteger,
        heur::DiveStrategy::MostFractionalUp,
    ] {
        if let Some((obj, x)) = heur::dive_with(
            strategy,
            reduced,
            &base.lp,
            &base.int_vars,
            &base.lb,
            &base.ub,
            cfg,
            Some(&root.statuses),
            deadline,
            stats,
        ) {
            if inc.offer(obj, x) {
                stats.heuristic_solutions += 1;
            }
        }
    }
}

/// The search-and-wrap-up tail shared by the cold and the resumed solve:
/// the durable-solve runtime, the search context, the tree search from
/// `roots`, and postsolve. `root` is the root LP solution the open nodes
/// descend from; it seeds incumbent-time reduced-cost fixing, which is
/// skipped without it.
#[allow(clippy::too_many_arguments)]
fn search_and_wrap_up(
    base: BaseLp,
    cfg: &Config,
    start: Instant,
    inc: Incumbent,
    roots: Vec<Node>,
    root: Option<&LpResult>,
    frame_base: FrameBase,
    mut stats: Stats,
) -> Solution {
    let deadline = cfg.time_limit.map(|d| start + d);
    let root_bound = frame_base.root_bound;
    // The writer thread (spawned around the search in `run_search`)
    // persists the frames the workers assemble.
    let ckpt_rt = cfg
        .checkpoint
        .as_ref()
        .map(|ck| CkptRuntime::new(ck.clone(), frame_base, cfg.faults.clone()));
    let ctx = SearchCtx {
        base: &base,
        cfg,
        deadline,
        rc_root: root
            .filter(|_| !base.int_vars.is_empty())
            .map(|r| (r.dj.as_slice(), r.obj)),
        ckpt: ckpt_rt.as_ref(),
        inc: &inc,
    };
    let outcome = run_search(&ctx, roots, &mut stats);
    wrap_up(outcome, inc, &base, cfg, root_bound, start, stats)
}

/// Dispatches the tree search. A durable solve runs one writer thread
/// beside it that blocks on the frame hand-off; closing the hand-off after
/// the search lets the writer persist the last frame offered (a
/// limit-stopped solve's wind-down frame) before it is joined.
fn run_search(ctx: &SearchCtx<'_>, roots: Vec<Node>, stats: &mut Stats) -> SearchOutcome {
    let Some(rt) = ctx.ckpt else {
        return search(ctx, roots, stats);
    };
    std::thread::scope(|s| {
        let writer = s.spawn(|| rt.write_offered());
        let outcome = search(ctx, roots, stats);
        rt.close();
        (stats.checkpoints_written, stats.checkpoint_failures) =
            writer.join().unwrap_or_default();
        outcome
    })
}

/// Limit statistics, bound/status reconciliation, and postsolve of the
/// incumbent back to the original variable space.
fn wrap_up(
    outcome: SearchOutcome,
    inc: Incumbent,
    base: &BaseLp,
    cfg: &Config,
    root_cut_bound: f64,
    start: Instant,
    mut stats: Stats,
) -> Solution {
    stats.elapsed = start.elapsed();
    let user_obj = |internal: f64| base.user_obj(internal);
    // Anytime metrics from the incumbent trace: when the first feasible
    // point landed, and when the incumbent first came within 1% of the
    // final objective (in user space).
    let (incumbent, trace) = inc.into_parts();
    if let Some(&(t, _)) = trace.first() {
        stats.time_to_first_incumbent = Some(Duration::from_secs_f64(t));
    }
    if let Some((obj, _)) = &incumbent {
        let fin = user_obj(*obj);
        let tol = 0.01 * fin.abs().max(1e-10);
        stats.time_to_within_1pct = trace
            .iter()
            .find(|&&(_, o)| (user_obj(o) - fin).abs() <= tol)
            .map(|&(t, _)| Duration::from_secs_f64(t));
    }
    if outcome.unbounded {
        return Solution::unbounded(stats);
    }
    // Subtrees dropped after LP errors count as open: their bound caps the
    // proven bound, and their loss forbids an optimality claim.
    let open_bound = outcome.open_bound.min(outcome.dropped_bound);
    let hit_limit = outcome.hit_limit || outcome.dropped_bound.is_finite();
    match incumbent {
        Some((obj, x)) => {
            let values = base.ps.postsolve(&x);
            stats.root_gap = ((obj - root_cut_bound) / obj.abs().max(1e-10)).max(0.0);
            let bound_internal = if hit_limit || open_bound.is_finite() {
                open_bound.min(obj)
            } else {
                obj
            };
            let status = if hit_limit
                && (obj - bound_internal > ABS_GAP
                    && obj - bound_internal > cfg.rel_gap * obj.abs().max(1e-10))
            {
                Status::LimitFeasible
            } else {
                Status::Optimal
            };
            Solution {
                status,
                objective: user_obj(obj),
                best_bound: user_obj(bound_internal),
                values,
                stats,
                error: None,
            }
        }
        None => {
            if hit_limit {
                Solution {
                    status: Status::LimitNoSolution,
                    objective: f64::INFINITY,
                    best_bound: user_obj(open_bound),
                    values: Vec::new(),
                    stats,
                    error: None,
                }
            } else {
                Solution::infeasible(stats)
            }
        }
    }
}

/// A [`FrameNode`] snapshot of one open node (the warm basis is dropped;
/// a resumed node cold-solves once and re-warms its subtree).
fn frame_node(n: &Node) -> FrameNode {
    FrameNode {
        bound: n.bound,
        depth: n.depth,
        changes: n.changes.clone(),
    }
}

/// Picks the branching variable: the best pseudo-cost score, scoring a
/// variable whose costs are not initialized yet by its fractionality.
fn choose_branch(
    pc: &PseudoCosts,
    x: &[f64],
    int_vars: &[usize],
    mf_var: usize,
    mf_frac: f64,
) -> (usize, f64) {
    let mut best = (mf_var, mf_frac, -1.0f64);
    for &j in int_vars {
        let f = x[j] - x[j].floor();
        if f <= INT_TOL || f >= 1.0 - INT_TOL {
            continue;
        }
        let s = if pc.initialized(j) {
            pc.score(j, f)
        } else {
            // uninitialized: prefer most fractional
            0.25 - (f - 0.5) * (f - 0.5)
        };
        if s > best.2 {
            best = (j, f, s);
        }
    }
    (best.0, best.1)
}

/// Builds the two children of a branch on `bvar` at `floor`.
fn make_children(
    node: &Node,
    bvar: usize,
    floor: f64,
    bound: f64,
    warm: Arc<Vec<VStat>>,
) -> (Node, Node) {
    let down_child = Node {
        changes: {
            let mut ch = node.changes.clone();
            ch.push((bvar, f64::NEG_INFINITY, floor));
            ch
        },
        bound,
        depth: node.depth + 1,
        warm: Some(Arc::clone(&warm)),
    };
    let up_child = Node {
        changes: {
            let mut ch = node.changes.clone();
            ch.push((bvar, floor + 1.0, f64::INFINITY));
            ch
        },
        bound,
        depth: node.depth + 1,
        warm: Some(warm),
    };
    (down_child, up_child)
}

const INF_BITS: u64 = f64::INFINITY.to_bits();

/// State shared by the search workers.
struct Shared {
    /// Open nodes, best bound on top.
    heap: Mutex<BinaryHeap<HeapNode>>,
    /// Per worker: the node it owns — the one being processed, or its next
    /// plunge child. Every open node sits in the heap or in one of these
    /// slots, so the tree is exhausted exactly when the heap is empty and
    /// every slot is too. Lock order is heap → slot everywhere.
    inflight: Vec<Mutex<Option<Node>>>,
    /// Base bounds every node is rebuilt from: the root bounds after root
    /// reduced-cost fixing, tightened further whenever a worker improves
    /// the incumbent (globally valid: the fixing argument uses the root
    /// bound and the global incumbent). Every frame records them.
    base: Mutex<(Vec<f64>, Vec<f64>)>,
    /// All workers drain and exit (gap reached, limit hit, or unbounded).
    stop: AtomicBool,
    hit_limit: AtomicBool,
    unbounded: AtomicBool,
    /// Nodes processed, resumed runs included.
    nodes: AtomicUsize,
    /// Smallest bound among nodes dropped after unrecoverable LP errors.
    dropped_bound: Mutex<f64>,
}

impl Shared {
    /// The smallest bound among open nodes (heap top and every owned node)
    /// and whether any worker owns a node. `heap` is the locked heap, so
    /// the scan sees every open node exactly where it is.
    fn open_bound(&self, heap: &BinaryHeap<HeapNode>) -> (f64, bool) {
        let mut bound = heap.peek().map_or(f64::INFINITY, |h| h.0.bound);
        let mut owned = false;
        for slot in &self.inflight {
            if let Some(n) = relock(slot).as_ref() {
                bound = bound.min(n.bound);
                owned = true;
            }
        }
        (bound, owned)
    }

    /// Every open node — the locked heap, then the owned nodes in worker
    /// order — as frame nodes.
    fn open_nodes(&self, heap: &BinaryHeap<HeapNode>) -> Vec<FrameNode> {
        let mut open: Vec<FrameNode> = heap.iter().map(|h| frame_node(&h.0)).collect();
        for slot in &self.inflight {
            open.extend(relock(slot).as_ref().map(frame_node));
        }
        open
    }

    /// Claims the next node for worker `id`: its own plunge child when it
    /// has one, else the best open node, waiting while peers may still
    /// produce children. Before every claim it stops the search once the
    /// gap to the global open bound closes, and claims a checkpoint frame
    /// when the cadence has passed (heap ∪ slots is the complete open set
    /// at this boundary), charging the claim and the assembly to `tally`.
    /// Returns `None` when the search is over; a claimed node stays in the
    /// worker's slot until [`Shared::finish`].
    fn next_node(&self, ctx: &SearchCtx<'_>, id: usize, tally: &mut Stats) -> Option<Node> {
        let cfg = ctx.cfg;
        // Starvation backoff: on an oversubscribed host a tight fixed-period
        // poll steals the core from whichever worker is producing children,
        // so the wait doubles (capped) each empty round and resets on
        // success.
        let mut wait = Duration::from_micros(50);
        loop {
            if self.stop.load(AtomicOrdering::SeqCst) {
                return None;
            }
            let mut heap = relock(&self.heap);
            // Gap-based termination (the incumbent may have just improved
            // on another worker — the same check picks that up).
            let (open_bound, owned) = self.open_bound(&heap);
            let inc_obj = ctx.inc.bound();
            if inc_obj.is_finite() {
                let gap = inc_obj - open_bound;
                if gap <= ABS_GAP || gap <= cfg.rel_gap * inc_obj.abs().max(1e-10) {
                    self.stop.store(true, AtomicOrdering::SeqCst);
                    return None;
                }
            }
            let own = relock(&self.inflight[id]).clone();
            if own.is_none() && heap.is_empty() {
                if !owned {
                    return None; // tree exhausted
                }
                // Peers are still expanding: wait for children.
                drop(heap);
                std::thread::sleep(wait);
                wait = (wait * 2).min(Duration::from_millis(1));
                continue;
            }
            let snapshot = ctx.ckpt.and_then(|rt| {
                let t0 = Instant::now();
                rt.claim(t0).then(|| (rt, t0, self.open_nodes(&heap)))
            });
            let node = match own {
                Some(nd) => nd,
                None => {
                    let Some(HeapNode(nd)) = heap.pop() else {
                        unreachable!("the heap was checked non-empty under its lock")
                    };
                    // Claim under the lock so idle peers never observe an
                    // empty heap with every slot empty mid-handoff.
                    *relock(&self.inflight[id]) = Some(nd.clone());
                    nd
                }
            };
            drop(heap);
            if let Some((rt, t0, open)) = snapshot {
                rt.offer(self.snapshot_frame(ctx, rt, open));
                tally.checkpoint_time += t0.elapsed();
            }
            return Some(node);
        }
    }

    /// Assembles a complete [`SearchFrame`] from the runtime's static base
    /// (including the root cuts) plus the open set collected by the caller
    /// and the current base bounds.
    fn snapshot_frame(
        &self,
        ctx: &SearchCtx<'_>,
        rt: &CkptRuntime,
        open_nodes: Vec<FrameNode>,
    ) -> SearchFrame {
        let mut frame = rt.base_frame();
        frame.nodes_done = self.nodes.load(AtomicOrdering::SeqCst);
        (frame.base_lb, frame.base_ub) = relock(&self.base).clone();
        // Read the shared incumbent *after* the open set and the base
        // bounds: every pruning decision and every fixing reflected in
        // them used an incumbent at least as old as this one, so the frame
        // never pairs a pruned-down tree with a weaker incumbent.
        frame.incumbent = ctx.inc.best();
        frame.open_nodes = open_nodes;
        frame
    }

    /// Releases worker `id`'s node: done with, nothing left open.
    fn finish(&self, id: usize) {
        relock(&self.inflight[id]).take();
    }

    /// Raises `flag` (a limit or unboundedness) and stops every worker.
    fn halt(&self, flag: &AtomicBool) {
        flag.store(true, AtomicOrdering::SeqCst);
        self.stop.store(true, AtomicOrdering::SeqCst);
    }

    /// Rebuilds a node's bounds into `lb`/`ub`: the shared base bounds plus
    /// the node's own changes.
    fn node_bounds(&self, node: &Node, lb: &mut [f64], ub: &mut [f64]) {
        {
            let base = relock(&self.base);
            lb.copy_from_slice(&base.0);
            ub.copy_from_slice(&base.1);
        }
        for &(j, lo, hi) in &node.changes {
            lb[j] = lb[j].max(lo);
            ub[j] = ub[j].min(hi);
        }
    }

    /// Re-runs root reduced-cost fixing on the base bounds against a new
    /// incumbent objective; returns the number of bounds tightened.
    fn refix(&self, ctx: &SearchCtx<'_>, inc_obj: f64) -> usize {
        let Some((dj, root_bound)) = ctx.rc_root else {
            return 0;
        };
        let mut base = relock(&self.base);
        let (lb, ub) = &mut *base;
        fix_by_reduced_costs(lb, ub, dj, &ctx.base.int_vars, root_bound, inc_obj).len()
    }

    /// Cleans up after worker `id` unwound from a panic: its node (if any)
    /// goes back to the heap, under the heap lock so no peer ever sees it
    /// in neither place, and no peer waits on the dead worker.
    fn recover_after_panic(&self, id: usize) {
        let mut heap = relock(&self.heap);
        if let Some(node) = relock(&self.inflight[id]).take() {
            heap.push(HeapNode(node));
        }
    }
}

/// The tree search: worker 0 on the calling thread plus one scoped thread
/// per extra [`Config::threads`], all running [`worker`] over one shared
/// node pool. A panicking worker is isolated — its node goes back to the
/// pool — and restarted once; the survivors keep the incumbent intact.
fn search(ctx: &SearchCtx<'_>, roots: Vec<Node>, stats: &mut Stats) -> SearchOutcome {
    let base = ctx.base;
    let nthreads = if base.int_vars.is_empty() {
        1
    } else {
        ctx.cfg.effective_threads()
    };
    // Roots are pushed one by one (not heapified) so the heap layout — and
    // with it the order of equal-bound nodes — is a function of the push
    // sequence alone. Worker 0 starts with the best root in hand, so the
    // calling thread claims the first node while its peers spin up.
    let mut heap = BinaryHeap::new();
    for root in roots {
        heap.push(HeapNode(root));
    }
    let first = heap.pop().map(|HeapNode(nd)| nd);
    let shared = Shared {
        heap: Mutex::new(heap),
        inflight: std::iter::once(first)
            .chain((1..nthreads).map(|_| None))
            .map(Mutex::new)
            .collect(),
        base: Mutex::new((base.lb.clone(), base.ub.clone())),
        stop: AtomicBool::new(false),
        hit_limit: AtomicBool::new(false),
        unbounded: AtomicBool::new(false),
        nodes: AtomicUsize::new(stats.nodes),
        dropped_bound: Mutex::new(f64::INFINITY),
    };
    let run = |id: usize| {
        let mut tally = Stats::default();
        // AssertUnwindSafe is justified because every shared structure is
        // either atomic or repaired by relock(), and the tally only ever
        // accumulates.
        for _ in 0..2 {
            if catch_unwind(AssertUnwindSafe(|| worker(ctx, &shared, id, &mut tally))).is_ok() {
                break;
            }
            tally.worker_panics += 1;
            shared.recover_after_panic(id);
        }
        tally
    };
    let tallies: Vec<Stats> = std::thread::scope(|s| {
        let run = &run;
        let peers: Vec<_> = (1..nthreads).map(|id| s.spawn(move || run(id))).collect();
        let mut tallies = vec![run(0)];
        // Worker panics are caught inside the thread; a join error would be
        // a panic in the recovery itself, counted like any other.
        tallies.extend(peers.into_iter().map(|h| {
            h.join().unwrap_or_else(|_| Stats {
                worker_panics: 1,
                ..Stats::default()
            })
        }));
        tallies
    });
    for t in &tallies {
        stats.lp_solves += t.lp_solves;
        stats.simplex_iters += t.simplex_iters;
        stats.phase1_iters += t.phase1_iters;
        stats.dual_iters += t.dual_iters;
        stats.lp_recoveries += t.lp_recoveries;
        stats.rc_fixed += t.rc_fixed;
        stats.worker_panics += t.worker_panics;
        stats.dropped_nodes += t.dropped_nodes;
        stats.checkpoint_time += t.checkpoint_time;
    }
    stats.nodes = shared.nodes.load(AtomicOrdering::SeqCst);

    let heap = relock(&shared.heap);
    let (open_bound, owned) = shared.open_bound(&heap);
    // Open nodes left without a stop flag means every worker died (each
    // panicked past its restart): the search did not finish, so it must
    // not claim optimality, and a frame lets a resume pick it up.
    let abandoned = !shared.stop.load(AtomicOrdering::SeqCst) && (owned || !heap.is_empty());
    let hit_limit = shared.hit_limit.load(AtomicOrdering::SeqCst) || abandoned;
    // Limit wind-down: hand over a final frame covering every still-open
    // node (the writer persists it before it is joined), so a
    // deadline-expired or cancelled solve resumes from exactly where it
    // stopped.
    if hit_limit {
        if let Some(rt) = ctx.ckpt {
            let t0 = Instant::now();
            rt.offer(shared.snapshot_frame(ctx, rt, shared.open_nodes(&heap)));
            stats.checkpoint_time += t0.elapsed();
        }
    }
    drop(heap);
    let dropped_bound = *relock(&shared.dropped_bound);
    SearchOutcome {
        open_bound,
        hit_limit,
        unbounded: shared.unbounded.load(AtomicOrdering::SeqCst),
        dropped_bound,
    }
}

/// The node loop, the one every thread count runs: claims nodes (its own
/// plunge child first, else the best open node), solves their LP
/// relaxations with a private simplex instance, publishes incumbents,
/// fixes by reduced costs, and branches. Work is charged to `tally`.
fn worker(ctx: &SearchCtx<'_>, shared: &Shared, id: usize, tally: &mut Stats) {
    let cfg = ctx.cfg;
    let base = ctx.base;
    let int_vars = &base.int_vars[..];
    let mut pc = PseudoCosts::new(base.lb.len());
    let mut lb_buf = base.lb.clone();
    let mut ub_buf = base.ub.clone();

    while let Some(mut node) = shared.next_node(ctx, id, tally) {
        // Injected fault: panic exactly here, with the node in flight, so
        // tests prove the recovery path re-queues it.
        if cfg.faults.as_ref().is_some_and(|f| f.should_panic_worker(id)) {
            panic!("injected panic in worker {id}");
        }
        // Prune against the freshest shared incumbent (∞ when none).
        if node.bound >= ctx.inc.bound() - ABS_GAP {
            shared.finish(id);
            continue;
        }
        // Limits (wall-clock, cancellation, injected expiry, node count).
        // The node stays in flight, so the wind-down bound — and the final
        // checkpoint frame — still cover it.
        let done = shared.nodes.load(AtomicOrdering::SeqCst);
        if ctx.should_stop(done) || cfg.node_limit.is_some_and(|nl| done >= nl) {
            shared.halt(&shared.hit_limit);
            break;
        }
        shared.nodes.fetch_add(1, AtomicOrdering::SeqCst);

        shared.node_bounds(&node, &mut lb_buf, &mut ub_buf);
        let warm = node.warm.as_deref().map(Vec::as_slice);
        let r = solve_lp(&base.lp, &lb_buf, &ub_buf, cfg, warm, ctx.deadline);
        tally.charge_lp(&r);
        let r = match r {
            Ok(r) => r,
            Err(_) => {
                // Recovery ladder exhausted on this node: drop its subtree
                // but remember its bound so the final status stays honest.
                tally.dropped_nodes += 1;
                let mut dropped = relock(&shared.dropped_bound);
                *dropped = dropped.min(node.bound);
                drop(dropped);
                shared.finish(id);
                continue;
            }
        };
        match r.status {
            LpStatus::Infeasible => {
                shared.finish(id);
                continue;
            }
            LpStatus::Unbounded => {
                shared.halt(&shared.unbounded);
                shared.finish(id);
                break;
            }
            LpStatus::Limit => {
                shared.halt(&shared.hit_limit);
                break;
            }
            LpStatus::Optimal => {}
        }
        if r.obj >= ctx.inc.bound() - ABS_GAP {
            shared.finish(id);
            continue; // bound-dominated
        }

        let Some((mf_var, mf_frac)) = most_fractional(&r.x, &base.lp.c, int_vars, INT_TOL)
        else {
            // Integral: new incumbent.
            let mut x = r.x;
            for &j in int_vars {
                x[j] = x[j].round();
            }
            let obj = base.lp.c.iter().zip(&x).map(|(cc, v)| cc * v).sum::<f64>();
            if ctx.inc.offer(obj, x) {
                tally.rc_fixed += shared.refix(ctx, obj);
            }
            shared.finish(id);
            continue;
        };
        let (bvar, _bfrac) = choose_branch(&pc, &r.x, int_vars, mf_var, mf_frac);
        let xval = r.x[bvar];
        let floor = xval.floor();
        // Node-level reduced-cost fixing: this node's reduced costs bound
        // the cost of moving any nonbasic integer off its bound, so against
        // the incumbent the tightening is valid for the whole subtree —
        // record it on the node so both children inherit it. Fractional
        // variables are basic (dj = 0), so the branch variable is never
        // touched. A stale (worse) incumbent read only under-fixes, so the
        // tightening stays valid under races.
        let inc_obj = ctx.inc.bound();
        if inc_obj.is_finite() {
            let fixed =
                fix_by_reduced_costs(&mut lb_buf, &mut ub_buf, &r.dj, int_vars, r.obj, inc_obj);
            tally.rc_fixed += fixed.len();
            node.changes.extend_from_slice(&fixed);
        }
        let warm = Arc::new(r.statuses);
        let (down_child, up_child) = make_children(&node, bvar, floor, r.obj, warm);
        // Attribute this node's LP degradation to the parent's branch
        // direction (online pseudo-cost proxy).
        let parent_frac_gain = (r.obj - node.bound).max(0.0);
        if let Some(&(pvar, plo, _phi)) = node.changes.last() {
            let went_up = plo.is_finite();
            pc.record(pvar, went_up, parent_frac_gain.max(1e-9));
        }
        // Plunge into the child nearer the LP value; the sibling goes to
        // the shared pool for any worker. It is queued before the plunge
        // child replaces the finished node in this worker's slot, so no
        // snapshot misses either child.
        let (keep, other) = if xval - floor < 0.5 {
            (down_child, up_child)
        } else {
            (up_child, down_child)
        };
        relock(&shared.heap).push(HeapNode(other));
        *relock(&shared.inflight[id]) = Some(keep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Row, Var};

    fn cfg() -> Config {
        Config::default()
    }

    #[test]
    fn most_fractional_breaks_ties_by_objective_magnitude() {
        // Both variables sit exactly at 0.5; the larger |c| must win.
        let x = [0.5, 0.5];
        let c = [1.0, -3.0];
        let got = most_fractional(&x, &c, &[0, 1], 1e-6);
        assert_eq!(got, Some((1, 0.5)));
        // Equal magnitudes: the lower index wins for determinism.
        let c_eq = [2.0, -2.0];
        let got = most_fractional(&x, &c_eq, &[0, 1], 1e-6);
        assert_eq!(got, Some((0, 0.5)));
        // No tie: fractionality still dominates the coefficient.
        let x2 = [0.5, 0.9];
        let got = most_fractional(&x2, &c, &[0, 1], 1e-6);
        assert_eq!(got, Some((0, 0.5)));
    }

    #[test]
    fn fix_by_reduced_costs_tightens_and_respects_gap() {
        // gap = 10 - 8 = 2; d = 3 allows floor((2+eps)/3) = 0 above lb.
        let mut lb = vec![0.0, 0.0, 0.0];
        let mut ub = vec![10.0, 10.0, 10.0];
        let dj = [3.0, -3.0, 0.1];
        let fixed = fix_by_reduced_costs(&mut lb, &mut ub, &dj, &[0, 1, 2], 8.0, 10.0);
        assert_eq!(fixed.len(), 2);
        assert_eq!(ub[0], 0.0); // at-lower var pinned to its bound
        assert_eq!(lb[1], 10.0); // at-upper var pinned to its bound
        assert_eq!((lb[2], ub[2]), (0.0, 10.0)); // small |d|: gap/d >= span
        // The returned tightenings mirror the in-place updates, one-sided.
        assert_eq!(fixed[0], (0, f64::NEG_INFINITY, 0.0));
        assert_eq!(fixed[1], (1, 10.0, f64::INFINITY));
        // Infinite gap (no incumbent bound) must never fix anything.
        let mut lb2 = vec![0.0];
        let mut ub2 = vec![1.0];
        assert!(
            fix_by_reduced_costs(&mut lb2, &mut ub2, &[5.0], &[0], f64::NEG_INFINITY, 1.0)
                .is_empty()
        );
    }

    #[test]
    fn pure_lp_minimize() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(Var::cont().bounds(0.0, 10.0).obj(2.0));
        let y = p.add_var(Var::cont().bounds(0.0, 10.0).obj(3.0));
        p.add_row(Row::new().coef(x, 1.0).coef(y, 1.0).ge(4.0));
        let s = solve_milp(&p, &cfg(), Instant::now());
        assert_eq!(s.status(), Status::Optimal);
        assert!((s.objective() - 8.0).abs() < 1e-6, "obj {}", s.objective());
        assert!((s.value(x) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn pure_lp_maximize() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(Var::cont().bounds(0.0, 4.0).obj(3.0));
        let y = p.add_var(Var::cont().bounds(0.0, 4.0).obj(2.0));
        p.add_row(Row::new().coef(x, 1.0).coef(y, 1.0).le(5.0));
        let s = solve_milp(&p, &cfg(), Instant::now());
        assert_eq!(s.status(), Status::Optimal);
        assert!((s.objective() - 14.0).abs() < 1e-6, "obj {}", s.objective());
    }

    #[test]
    fn small_knapsack() {
        // max 8x + 11y + 6z + 4w, 5x + 7y + 4z + 3w <= 14, binary
        // optimum: y + z + w = 21 weight 14
        let mut p = Problem::new(Sense::Maximize);
        let vals = [8.0, 11.0, 6.0, 4.0];
        let wts = [5.0, 7.0, 4.0, 3.0];
        let vars: Vec<VarId> = vals
            .iter()
            .map(|&v| p.add_var(Var::binary().obj(v)))
            .collect();
        let mut row = Row::new().le(14.0);
        for (v, &w) in vars.iter().zip(&wts) {
            row = row.coef(*v, w);
        }
        p.add_row(row);
        let s = solve_milp(&p, &cfg(), Instant::now());
        assert_eq!(s.status(), Status::Optimal);
        assert!((s.objective() - 21.0).abs() < 1e-6, "obj {}", s.objective());
        assert!(!s.is_one(vars[0]));
        assert!(s.is_one(vars[1]) && s.is_one(vars[2]) && s.is_one(vars[3]));
    }

    #[test]
    fn integer_rounding_matters() {
        // max x + y s.t. 2x + 2y <= 3, integer -> optimum 1 (not 1.5)
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(Var::integer().bounds(0.0, 5.0).obj(1.0));
        let y = p.add_var(Var::integer().bounds(0.0, 5.0).obj(1.0));
        p.add_row(Row::new().coef(x, 2.0).coef(y, 2.0).le(3.0));
        let s = solve_milp(&p, &cfg(), Instant::now());
        assert_eq!(s.status(), Status::Optimal);
        assert!((s.objective() - 1.0).abs() < 1e-6, "obj {}", s.objective());
    }

    #[test]
    fn infeasible_milp() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(Var::binary().obj(1.0));
        let y = p.add_var(Var::binary().obj(1.0));
        p.add_row(Row::new().coef(x, 1.0).coef(y, 1.0).ge(3.0));
        let s = solve_milp(&p, &cfg(), Instant::now());
        assert_eq!(s.status(), Status::Infeasible);
    }

    #[test]
    fn equality_partition() {
        // choose exactly one of three options with different costs
        let mut p = Problem::new(Sense::Minimize);
        let a = p.add_var(Var::binary().obj(5.0));
        let b = p.add_var(Var::binary().obj(3.0));
        let c = p.add_var(Var::binary().obj(7.0));
        p.add_row(Row::new().coef(a, 1.0).coef(b, 1.0).coef(c, 1.0).eq(1.0));
        let s = solve_milp(&p, &cfg(), Instant::now());
        assert_eq!(s.status(), Status::Optimal);
        assert!((s.objective() - 3.0).abs() < 1e-6);
        assert!(s.is_one(b));
    }

    #[test]
    fn node_limit_reports_limit_status() {
        // a knapsack too hard for 1 node without heuristics
        let mut p = Problem::new(Sense::Maximize);
        let n = 12;
        let mut row = Row::new().le(17.0);
        for i in 0..n {
            let v = p.add_var(Var::binary().obj(3.0 + (i as f64 % 5.0)));
            row = row.coef(v, 2.0 + (i as f64 % 3.0));
        }
        p.add_row(row);
        let mut c = cfg().with_node_limit(1).with_heuristics(false);
        c.presolve = false;
        let s = solve_milp(&p, &c, Instant::now());
        assert!(matches!(
            s.status(),
            Status::LimitFeasible | Status::LimitNoSolution | Status::Optimal
        ));
    }

    #[test]
    fn objective_offset_respected() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(Var::cont().bounds(1.0, 2.0).obj(1.0));
        p.add_row(Row::new().coef(x, 1.0).ge(1.0));
        p.shift_objective(100.0);
        let s = solve_milp(&p, &cfg(), Instant::now());
        assert_eq!(s.status(), Status::Optimal);
        assert!((s.objective() - 101.0).abs() < 1e-6, "obj {}", s.objective());
    }

    /// Builds a moderately hard knapsack-style MILP for the thread tests.
    fn hard_knapsack(n: usize) -> Problem {
        let mut p = Problem::new(Sense::Maximize);
        let mut row = Row::new().le((2 * n) as f64 * 0.6);
        for i in 0..n {
            let v = p.add_var(Var::binary().obj(1.0 + ((i * 31) % 11) as f64 / 3.0));
            row = row.coef(v, 1.0 + ((i * 17) % 7) as f64 / 2.0);
        }
        p.add_row(row);
        p
    }

    #[test]
    fn parallel_agrees_with_sequential_objective() {
        for n in [10usize, 16, 22] {
            let p = hard_knapsack(n);
            let seq = solve_milp(&p, &cfg(), Instant::now());
            assert_eq!(seq.status(), Status::Optimal);
            for threads in [2usize, 4, 8] {
                let c = cfg().with_threads(threads);
                let par = solve_milp(&p, &c, Instant::now());
                assert_eq!(par.status(), Status::Optimal, "threads = {threads}");
                assert!(
                    (par.objective() - seq.objective()).abs() < 1e-6,
                    "threads {}: {} vs {}",
                    threads,
                    par.objective(),
                    seq.objective()
                );
                // the reported vector must itself be feasible and integral
                assert!(p.check_feasible(par.values(), 1e-6).is_none());
            }
        }
    }

    #[test]
    fn parallel_infeasible_detected() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(Var::binary().obj(1.0));
        let y = p.add_var(Var::binary().obj(1.0));
        p.add_row(Row::new().coef(x, 1.0).coef(y, 1.0).ge(3.0));
        let s = solve_milp(&p, &cfg().with_threads(4), Instant::now());
        assert_eq!(s.status(), Status::Infeasible);
    }

    #[test]
    fn parallel_respects_node_limit() {
        let p = hard_knapsack(12);
        let mut c = cfg().with_node_limit(1).with_heuristics(false).with_threads(4);
        c.presolve = false;
        let s = solve_milp(&p, &c, Instant::now());
        assert!(matches!(
            s.status(),
            Status::LimitFeasible | Status::LimitNoSolution | Status::Optimal
        ));
    }
}
