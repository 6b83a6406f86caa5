//! The end-to-end exploration driver: encode, solve, extract, verify.

use crate::design::{extract_design, NetworkDesign};
use crate::encode::link_quality::LqEncoding;
use crate::encode::{encode_pricing, encode_with_lq, EncodeError, EncodeMode};
use crate::pricing::PathPricer;
use crate::requirements::Requirements;
use crate::template::NetworkTemplate;
use devlib::Library;
use milp::Status;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Options for [`explore`].
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Routing encoding mode.
    pub mode: EncodeMode,
    /// Link-quality linearization (default: tight pair conflicts).
    pub lq_encoding: LqEncoding,
    /// MILP solver configuration.
    pub solver: milp::Config,
    /// Branch-and-price: start from the (small) `kstar` seed candidate set
    /// and let a dual-driven pricing oracle append further path columns at
    /// the root. Only meaningful with [`EncodeMode::Approx`].
    pub pricing: bool,
    /// Resume the integer search from the checkpoint frame at this path
    /// (see [`milp::CheckpointConfig`]). Any frame error — missing file,
    /// torn frame with no good predecessor, a frame written for a different
    /// problem — falls back to a cold solve, so a resume attempt is always
    /// safe.
    pub resume_from: Option<PathBuf>,
    /// Library indices of components that are out of stock: their sizing
    /// variables are fixed to zero after encoding, so no node may select
    /// them. Bound fixings, not structure — the encoded model keeps the
    /// same shape (and [`milp::structure_fingerprint`]) as the unrestricted
    /// one, which is what lets a [`crate::session::DesignSession`] toggle
    /// stock without a re-encode.
    pub banned_components: Vec<usize>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            mode: EncodeMode::Approx { kstar: 10 },
            lq_encoding: LqEncoding::default(),
            solver: milp::Config::default(),
            pricing: false,
            resume_from: None,
            banned_components: Vec::new(),
        }
    }
}

impl ExploreOptions {
    /// Approximate encoding with `kstar` candidates.
    pub fn approx(kstar: usize) -> Self {
        ExploreOptions {
            mode: EncodeMode::Approx { kstar },
            ..Default::default()
        }
    }

    /// Branch-and-price: approximate encoding seeded with only `kstar`
    /// Yen candidates per replica, plus root column generation — the
    /// [`PathPricer`] prices improving path columns against the restricted
    /// LP duals until none exists, so the root bound matches a much larger
    /// `K*` at a fraction of the model size. The pricing loop's round and
    /// column limits are fixed in [`milp::pricing`].
    pub fn pricing(kstar: usize) -> Self {
        ExploreOptions {
            mode: EncodeMode::Approx { kstar },
            pricing: true,
            ..Default::default()
        }
    }

    /// Exhaustive encoding.
    pub fn full() -> Self {
        ExploreOptions {
            mode: EncodeMode::Full,
            ..Default::default()
        }
    }

    /// Sets the solver time limit.
    pub fn with_time_limit(mut self, d: Duration) -> Self {
        self.solver.time_limit = Some(d);
        self
    }

    /// Enables periodic checkpointing of the integer search to `path` (see
    /// [`milp::CheckpointConfig`] for the cadence).
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.solver.checkpoint = Some(milp::CheckpointConfig::new(path.into()));
        self
    }

    /// Resumes the integer search from the frame at `path`, falling back to
    /// a cold solve when no usable frame exists.
    pub fn with_resume_from(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume_from = Some(path.into());
        self
    }

    /// Attaches a cooperative cancel token to the solver — a decomposition
    /// master loop uses one shared token to abort all in-flight zone solves.
    pub fn with_cancel(mut self, token: milp::CancelToken) -> Self {
        self.solver.cancel = Some(token);
        self
    }

    /// Caps the solver's internal worker threads. Zone solves that already
    /// run on one OS thread each should set 1 to avoid oversubscription.
    pub fn with_threads(mut self, n: usize) -> Self {
        self.solver = self.solver.with_threads(n);
        self
    }

    /// Sets the solver's RNG seed (see [`milp::Config::seed`]).
    /// Per-zone offsets keep parallel zone solves decorrelated yet
    /// reproducible.
    pub fn with_solver_seed(mut self, seed: u64) -> Self {
        self.solver.seed = seed;
        self
    }
}

/// Size and timing statistics of one exploration.
#[derive(Debug, Clone, Default)]
pub struct ExploreStats {
    /// Model variables.
    pub num_vars: usize,
    /// Model constraints.
    pub num_cons: usize,
    /// Structural nonzeros.
    pub num_nonzeros: usize,
    /// Binary/integer variables.
    pub num_integers: usize,
    /// Time spent building the encoding.
    pub encode_time: Duration,
    /// Time spent in the solver.
    pub solve_time: Duration,
    /// Relative MIP gap of the returned solution (0 when proven optimal,
    /// `f64::INFINITY` when no incumbent exists).
    pub gap: f64,
    /// The solver's record of its work (nodes, pivots, cuts, pricing,
    /// checkpoints, anytime metrics), as [`milp::Solution::stats`] returned
    /// it; all zero when the run never reached the solver.
    pub solver: milp::Stats,
}

/// The result of one exploration run.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// Final solver status.
    pub status: Status,
    /// The synthesized design (when a solution exists).
    pub design: Option<NetworkDesign>,
    /// Statistics.
    pub stats: ExploreStats,
}

impl ExploreOutcome {
    /// Whether the exploration produced a usable design.
    pub fn has_design(&self) -> bool {
        self.design.is_some()
    }
}

/// Runs the full pipeline: encode with the chosen mode, solve, extract.
///
/// # Errors
///
/// Returns [`EncodeError`] for inconsistent inputs; solver-level
/// infeasibility is reported through [`ExploreOutcome::status`] instead.
pub fn explore(
    template: &NetworkTemplate,
    library: &Library,
    req: &Requirements,
    opts: &ExploreOptions,
) -> Result<ExploreOutcome, EncodeError> {
    let t0 = Instant::now();
    let mut enc = match (opts.pricing, opts.mode) {
        (true, EncodeMode::Approx { kstar }) => {
            encode_pricing(template, library, req, kstar, opts.lq_encoding)?
        }
        _ => encode_with_lq(template, library, req, opts.mode, opts.lq_encoding)?,
    };
    for &lib_idx in &opts.banned_components {
        enc.ban_component(lib_idx);
    }
    let encode_time = t0.elapsed();
    let mut stats = ExploreStats {
        num_vars: enc.model.num_vars(),
        num_cons: enc.model.num_cons(),
        num_nonzeros: enc.model.num_nonzeros(),
        num_integers: enc.model.num_integers(),
        encode_time,
        ..Default::default()
    };
    // Encoding and solving share one deadline: whatever the encoder spent
    // comes out of the solver's time budget, so `time_limit` bounds the
    // whole call, not just the MILP phase.
    let mut solver_cfg = opts.solver.clone();
    if let Some(tl) = solver_cfg.time_limit {
        solver_cfg.time_limit = Some(tl.saturating_sub(encode_time));
    }
    let t1 = Instant::now();
    // `PathPricer::new` returns `None` unless the encoding carries pricing
    // hooks, so the plain path is untouched.
    let mut pricer = PathPricer::new(&mut enc, template);
    // A failed resume falls back to the cold path below. When the frame
    // had already restored the pricer's bookkeeping before failing, the
    // pricer's column-count guard makes the cold solve price nothing —
    // degraded (no column generation) but never corrupt.
    let resumed_sol = opts.resume_from.as_deref().and_then(|path| {
        match pricer.as_mut() {
            Some(p) => enc.model.solve_resumed_with_columns(&solver_cfg, path, p),
            None => enc.model.solve_resumed(&solver_cfg, path),
        }
        .ok()
    });
    let sol = match resumed_sol {
        Some(sol) => sol,
        None => match pricer.as_mut() {
            Some(p) => enc.model.solve_with_columns(&solver_cfg, p),
            None => enc.model.solve(&solver_cfg),
        },
    };
    if let Some(p) = pricer.take() {
        // Re-create the accepted columns as model variables (in LP column
        // order) and register the priced paths as regular candidates, so
        // extraction below sees them.
        p.materialize(&mut enc, sol.stats().cols_priced);
    }
    stats.solve_time = t1.elapsed();
    stats.solver = sol.stats().clone();
    stats.gap = sol.gap();
    let design = if sol.has_solution() {
        Some(extract_design(&enc, &sol, template, library, req))
    } else {
        None
    };
    Ok(ExploreOutcome {
        status: sol.status(),
        design,
        stats,
    })
}

/// One rung of the [`explore_resilient`] degradation ladder.
#[derive(Debug, Clone)]
pub struct Attempt {
    /// Encoding mode this attempt ran with.
    pub mode: EncodeMode,
    /// Solver status (`None` when encoding itself failed).
    pub status: Option<Status>,
    /// Encoding error, rendered, when the attempt never reached the solver.
    pub error: Option<String>,
    /// Objective of this attempt's design, when it produced one.
    pub objective: Option<f64>,
    /// Size/timing statistics (all zero when encoding failed).
    pub stats: ExploreStats,
    /// Wall-clock time consumed by this attempt.
    pub elapsed: Duration,
}

/// The full record of a resilient exploration: every attempt made, in
/// order, plus the best design found across all of them.
///
/// A timeout or a too-coarse approximation never discards work already
/// done: `design` is the best incumbent over the whole ladder, so callers
/// always get the best-known network even when the final rung failed.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Every rung tried, in execution order.
    pub attempts: Vec<Attempt>,
    /// Best design across all attempts (smallest objective).
    pub design: Option<NetworkDesign>,
    /// Status of the attempt that produced `design`, or of the last
    /// attempt when no design was found.
    pub final_status: Option<Status>,
    /// Total wall-clock time across all attempts.
    pub total_time: Duration,
    /// True when the ladder stopped because the shared budget ran out.
    pub budget_exhausted: bool,
}

impl ExploreReport {
    /// Whether any attempt produced a usable design.
    pub fn has_design(&self) -> bool {
        self.design.is_some()
    }

    /// Objective of the best design, if any.
    pub fn best_objective(&self) -> Option<f64> {
        self.design.as_ref().map(|d| d.objective)
    }

    /// Number of attempts made.
    pub fn num_attempts(&self) -> usize {
        self.attempts.len()
    }
}

/// Options for [`explore_resilient`].
#[derive(Debug, Clone)]
pub struct LadderOptions {
    /// First rung: mode, LQ encoding, and solver configuration. The
    /// solver's own `time_limit` (if set) caps each individual attempt;
    /// the shared `budget` caps the sum.
    pub base: ExploreOptions,
    /// Wall-clock budget shared by **all** attempts (encode + solve).
    pub budget: Duration,
    /// `K*` ceiling: once doubling would exceed it, the ladder falls
    /// through to the exhaustive [`EncodeMode::Full`] encoding, and stops
    /// after that. From `K*` = 1 under the default ceiling of 64 that is
    /// eight rungs at most.
    pub max_kstar: usize,
}

impl Default for LadderOptions {
    fn default() -> Self {
        LadderOptions {
            base: ExploreOptions::default(),
            budget: Duration::from_secs(30),
            max_kstar: 64,
        }
    }
}

impl LadderOptions {
    /// Ladder starting from the given first-rung options.
    pub fn new(base: ExploreOptions) -> Self {
        LadderOptions {
            base,
            ..Default::default()
        }
    }

    /// Sets the shared wall-clock budget.
    pub fn with_budget(mut self, d: Duration) -> Self {
        self.budget = d;
        self
    }
}

/// The next rung after `mode` failed: double `K*` (clamped to the
/// ceiling), then fall through to the exhaustive encoding, then give up.
fn escalate(mode: EncodeMode, max_kstar: usize) -> Option<EncodeMode> {
    match mode {
        EncodeMode::Approx { kstar } if kstar < max_kstar => Some(EncodeMode::Approx {
            kstar: (kstar * 2).clamp(kstar + 1, max_kstar),
        }),
        EncodeMode::Approx { .. } => Some(EncodeMode::Full),
        EncodeMode::Full => None,
    }
}

/// Whether an attempt outcome warrants climbing to a richer encoding.
///
/// `Infeasible` under an approximate encoding only proves the *candidate
/// set* inadequate, not the problem: a larger `K*` (or the exact encoding)
/// may still succeed. The same goes for a numeric failure — a different
/// model may be better conditioned.
fn should_escalate(status: Status) -> bool {
    matches!(status, Status::Infeasible | Status::NumericFailure)
}

/// Graceful-degradation exploration: runs [`explore`] repeatedly under one
/// shared wall-clock budget, escalating the encoding when an attempt fails
/// for a reason a richer encoding can fix.
///
/// The ladder is `Approx{K*}` → `Approx{2K*}` → … → `Approx{max_kstar}` →
/// `Full`. Escalation triggers on approximate-encoding infeasibility, on
/// `NoCandidatePaths` encode errors, and on numeric failure; a proven
/// optimum stops the ladder immediately, and a time/node limit stops it
/// with the best incumbent so far. Unlike [`explore`], this function never
/// returns an error: encode failures are recorded in the report.
pub fn explore_resilient(
    template: &NetworkTemplate,
    library: &Library,
    req: &Requirements,
    ladder: &LadderOptions,
) -> ExploreReport {
    let start = Instant::now();
    let mut report = ExploreReport {
        attempts: Vec::new(),
        design: None,
        final_status: None,
        total_time: Duration::ZERO,
        budget_exhausted: false,
    };
    let mut mode = ladder.base.mode;
    loop {
        let Some(remaining) = ladder
            .budget
            .checked_sub(start.elapsed())
            .filter(|r| !r.is_zero())
        else {
            report.budget_exhausted = true;
            break;
        };
        let mut opts = ladder.base.clone();
        opts.mode = mode;
        // Per-attempt limit: the base limit if any, but never more than
        // what is left of the shared budget.
        opts.solver.time_limit = Some(match opts.solver.time_limit {
            Some(tl) => tl.min(remaining),
            None => remaining,
        });
        let t = Instant::now();
        match explore(template, library, req, &opts) {
            Ok(out) => {
                let objective = out.design.as_ref().map(|d| d.objective);
                let status = out.status;
                report.attempts.push(Attempt {
                    mode,
                    status: Some(status),
                    error: None,
                    objective,
                    stats: out.stats,
                    elapsed: t.elapsed(),
                });
                // Keep the best incumbent across rungs (objectives are
                // minimized throughout the pipeline).
                if let Some(d) = out.design {
                    let better = report
                        .best_objective()
                        .is_none_or(|cur| d.objective < cur - 1e-9);
                    if better {
                        report.design = Some(d);
                        report.final_status = Some(status);
                    }
                }
                if status == Status::Optimal {
                    report.final_status = Some(status);
                    break;
                }
                if should_escalate(status) {
                    match escalate(mode, ladder.max_kstar) {
                        Some(next) => mode = next,
                        None => {
                            // Full encoding already failed: terminal.
                            if report.final_status.is_none() {
                                report.final_status = Some(status);
                            }
                            break;
                        }
                    }
                } else {
                    // Limit statuses: the budget (or per-attempt limit) is
                    // the binding constraint; escalating to a *bigger*
                    // model cannot help, so stop with the best incumbent.
                    if report.final_status.is_none() {
                        report.final_status = Some(status);
                    }
                    report.budget_exhausted = start.elapsed() >= ladder.budget;
                    break;
                }
            }
            Err(e) => {
                let recoverable = matches!(e, EncodeError::NoCandidatePaths { .. });
                report.attempts.push(Attempt {
                    mode,
                    status: None,
                    error: Some(e.to_string()),
                    objective: None,
                    stats: ExploreStats::default(),
                    elapsed: t.elapsed(),
                });
                // A too-small candidate set (`NoCandidatePaths`) is exactly
                // what escalation fixes; any other encode error (unknown
                // node, bad selector, ...) is a caller bug and terminal.
                match escalate(mode, ladder.max_kstar).filter(|_| recoverable) {
                    Some(next) => mode = next,
                    None => break,
                }
            }
        }
    }
    report.total_time = start.elapsed();
    report
}

/// Builds the encoding only and reports its size — used for the Table 3
/// complexity comparisons where solving the full enumeration would time
/// out.
///
/// # Errors
///
/// Returns [`EncodeError`] for inconsistent inputs.
pub fn encode_only(
    template: &NetworkTemplate,
    library: &Library,
    req: &Requirements,
    mode: EncodeMode,
) -> Result<ExploreStats, EncodeError> {
    let t0 = Instant::now();
    let enc = encode_with_lq(template, library, req, mode, LqEncoding::default())?;
    Ok(ExploreStats {
        num_vars: enc.model.num_vars(),
        num_cons: enc.model.num_cons(),
        num_nonzeros: enc.model.num_nonzeros(),
        num_integers: enc.model.num_integers(),
        encode_time: t0.elapsed(),
        ..Default::default()
    })
}

/// Analytic size estimate of the **full-enumeration** encoding, without
/// building it (needed at paper scale, where materializing the model would
/// exhaust memory — the paper, too, reports estimated counts "~" for its
/// larger instances).
///
/// Counts per required route: flow balance (n rows), `α <= e` (|links|),
/// degree bounds (2n), plus link-quality indicator rows per link, sizing
/// rows per node, and the energy machinery per (route, link) and
/// (node, component).
pub fn full_encoding_size_estimate(
    template: &NetworkTemplate,
    library: &Library,
    req: &Requirements,
    num_routes: usize,
) -> (usize, usize) {
    let n = template.num_nodes();
    let l = template.links().len();
    let comps_per_node: usize = template
        .nodes()
        .iter()
        .map(|nd| library.of_kind(nd.role.device_kind()).count())
        .sum::<usize>()
        / n.max(1);
    // variables: alpha per route per link + e + u + m + etx + gates
    let energy = crate::encode::energy::energy_needed(req);
    let mut vars = num_routes * l + l + n + n * comps_per_node;
    // constraints: per route (1a)+(1b)+(1c) = n + l + 2n ; edge linking 2l;
    // sizing n; LQ l
    let mut cons = num_routes * (3 * n + l) + 2 * l + n + l;
    if energy {
        // ETX var + segments per link, route-edge gates (1 var 4 rows),
        // node-component gates (3 each)
        let segs = 8;
        vars += l + num_routes * l + n * comps_per_node * 3;
        cons += l * segs + num_routes * l * 4 + n * comps_per_node * 3 * 4 + n;
    }
    (vars, cons)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::verify_design;
    use crate::template::NodeRole;
    use channel::LogDistance;
    use devlib::catalog;
    use floorplan::Point;

    fn template(relays: usize) -> NetworkTemplate {
        let mut t = NetworkTemplate::new();
        t.add_node("s0", Point::new(0.0, 0.0), NodeRole::Sensor);
        for i in 0..relays {
            let x = 10.0 + 10.0 * (i / 2) as f64;
            let y = if i % 2 == 0 { 6.0 } else { -6.0 };
            t.add_node(format!("r{}", i), Point::new(x, y), NodeRole::Relay);
        }
        t.add_node("sink", Point::new(40.0, 0.0), NodeRole::Sink);
        t.compute_path_loss(&LogDistance::indoor_2_4ghz());
        t.prune_links(&catalog::zigbee_reference(), -100.0, 10.0);
        t
    }

    const SPEC: &str =
        "p = has_path(sensors, sink)\nmin_signal_to_noise(12)\nobjective minimize cost";

    #[test]
    fn explore_end_to_end() {
        let t = template(6);
        let lib = catalog::zigbee_reference();
        let req = Requirements::from_spec_text(SPEC).unwrap();
        let out = explore(&t, &lib, &req, &ExploreOptions::approx(5)).unwrap();
        assert_eq!(out.status, Status::Optimal);
        let d = out.design.expect("design exists");
        assert!(verify_design(&d, &t, &lib, &req).is_empty());
        assert!(out.stats.num_cons > 0);
        assert!(out.stats.solve_time > Duration::ZERO);
    }

    #[test]
    fn explore_stats_carry_the_solver_record() {
        // One worker repeats a solve exactly, so the exploration's record
        // must equal a direct solve's.
        let t = template(6);
        let lib = catalog::zigbee_reference();
        let req = Requirements::from_spec_text(SPEC).unwrap();
        let opts = ExploreOptions::approx(5).with_threads(1);
        let out = explore(&t, &lib, &req, &opts).unwrap();
        let enc = encode_with_lq(&t, &lib, &req, opts.mode, opts.lq_encoding).unwrap();
        let direct = enc.model.solve(&opts.solver);
        let work = |s: &milp::Stats| {
            let counts = [s.simplex_iters, s.dual_iters, s.lp_solves, s.cuts_applied];
            (s.nodes, counts, s.rc_fixed)
        };
        assert_eq!(work(&out.stats.solver), work(direct.stats()));
        assert!(out.stats.solver.lp_solves > 0);
    }

    #[test]
    fn infeasible_reported_not_panicked() {
        let t = template(2);
        let lib = catalog::zigbee_reference();
        let req = Requirements::from_spec_text(
            "p = has_path(sensors, sink)\nmin_signal_to_noise(80)",
        )
        .unwrap();
        let out = explore(&t, &lib, &req, &ExploreOptions::approx(5)).unwrap();
        assert_eq!(out.status, Status::Infeasible);
        assert!(!out.has_design());
    }

    /// Geometry where `K* = 1` proposes only the direct (lowest total
    /// path-loss) sensor-to-sink link, whose best achievable SNR (~33 dB at
    /// 30 m) misses the 36 dB floor, while the two-hop relay detour
    /// (~41 dB per 15 m hop) clears it — so the ladder must escalate.
    fn detour_template() -> NetworkTemplate {
        let mut t = NetworkTemplate::new();
        t.add_node("s0", Point::new(0.0, 0.0), NodeRole::Sensor);
        t.add_node("r0", Point::new(15.0, 0.0), NodeRole::Relay);
        t.add_node("sink", Point::new(30.0, 0.0), NodeRole::Sink);
        t.compute_path_loss(&LogDistance::indoor_2_4ghz());
        t.prune_links(&catalog::zigbee_reference(), -100.0, 10.0);
        t
    }

    const DETOUR_SPEC: &str =
        "p = has_path(sensors, sink)\nmin_signal_to_noise(36)\nobjective minimize cost";

    #[test]
    fn escalate_walks_the_ladder() {
        assert_eq!(
            escalate(EncodeMode::Approx { kstar: 1 }, 8),
            Some(EncodeMode::Approx { kstar: 2 })
        );
        assert_eq!(
            escalate(EncodeMode::Approx { kstar: 6 }, 8),
            Some(EncodeMode::Approx { kstar: 8 })
        );
        assert_eq!(
            escalate(EncodeMode::Approx { kstar: 8 }, 8),
            Some(EncodeMode::Full)
        );
        assert_eq!(escalate(EncodeMode::Full, 8), None);
    }

    #[test]
    fn ladder_escalates_from_infeasible_kstar1() {
        let t = detour_template();
        let lib = catalog::zigbee_reference();
        let req = Requirements::from_spec_text(DETOUR_SPEC).unwrap();

        // Sanity: the first rung alone really is infeasible.
        let first = explore(&t, &lib, &req, &ExploreOptions::approx(1)).unwrap();
        assert_eq!(first.status, Status::Infeasible);

        let ladder = LadderOptions::new(ExploreOptions::approx(1))
            .with_budget(Duration::from_secs(60));
        let report = explore_resilient(&t, &lib, &req, &ladder);
        assert!(
            report.num_attempts() >= 2,
            "expected escalation, got {:?}",
            report.attempts
        );
        assert_eq!(report.attempts[0].mode, EncodeMode::Approx { kstar: 1 });
        assert_eq!(report.attempts[0].status, Some(Status::Infeasible));
        assert!(report.has_design(), "ladder must end with a feasible design");
        assert_eq!(report.final_status, Some(Status::Optimal));
        let last = report.attempts.last().unwrap();
        assert_eq!(last.status, Some(Status::Optimal));
        assert_eq!(report.best_objective(), last.objective);
        assert!(!report.budget_exhausted);
    }

    #[test]
    fn ladder_stops_immediately_on_optimal() {
        let t = template(4);
        let lib = catalog::zigbee_reference();
        let req = Requirements::from_spec_text(SPEC).unwrap();
        let ladder = LadderOptions::new(ExploreOptions::approx(5))
            .with_budget(Duration::from_secs(60));
        let report = explore_resilient(&t, &lib, &req, &ladder);
        assert_eq!(report.num_attempts(), 1);
        assert_eq!(report.final_status, Some(Status::Optimal));
        assert!(report.has_design());
    }

    #[test]
    fn ladder_exhausts_rungs_on_true_infeasibility() {
        // 80 dB is unreachable with any catalog pair: every rung up to and
        // including the exhaustive encoding must report infeasible.
        let t = template(2);
        let lib = catalog::zigbee_reference();
        let req = Requirements::from_spec_text(
            "p = has_path(sensors, sink)\nmin_signal_to_noise(80)\nobjective minimize cost",
        )
        .unwrap();
        let mut ladder = LadderOptions::new(ExploreOptions::approx(1))
            .with_budget(Duration::from_secs(60));
        ladder.max_kstar = 4;
        let report = explore_resilient(&t, &lib, &req, &ladder);
        assert!(!report.has_design());
        assert_eq!(report.final_status, Some(Status::Infeasible));
        let modes: Vec<EncodeMode> = report.attempts.iter().map(|a| a.mode).collect();
        assert_eq!(
            modes,
            vec![
                EncodeMode::Approx { kstar: 1 },
                EncodeMode::Approx { kstar: 2 },
                EncodeMode::Approx { kstar: 4 },
                EncodeMode::Full,
            ]
        );
    }

    #[test]
    fn ladder_escalates_past_no_candidate_paths() {
        // Two link-disjoint routes requested but only two nodes exist: the
        // approximate encoder fails with NoCandidatePaths at every K*, the
        // exhaustive encoding builds and proves infeasibility at solve time.
        let mut t = NetworkTemplate::new();
        t.add_node("s0", Point::new(0.0, 0.0), NodeRole::Sensor);
        t.add_node("sink", Point::new(15.0, 0.0), NodeRole::Sink);
        t.compute_path_loss(&LogDistance::indoor_2_4ghz());
        t.prune_links(&catalog::zigbee_reference(), -100.0, 10.0);
        let lib = catalog::zigbee_reference();
        let req = Requirements::from_spec_text(
            "p = has_path(sensors, sink)\nq = has_path(sensors, sink)\n\
             disjoint_links(p, q)\nobjective minimize cost",
        )
        .unwrap();
        let mut ladder = LadderOptions::new(ExploreOptions::approx(1))
            .with_budget(Duration::from_secs(60));
        ladder.max_kstar = 2;
        let report = explore_resilient(&t, &lib, &req, &ladder);
        assert!(report.attempts.len() >= 2);
        assert!(report.attempts[0].error.is_some());
        assert_eq!(report.attempts.last().unwrap().mode, EncodeMode::Full);
        assert!(!report.has_design());
    }

    #[test]
    fn ladder_zero_budget_reports_exhaustion() {
        let t = template(2);
        let lib = catalog::zigbee_reference();
        let req = Requirements::from_spec_text(SPEC).unwrap();
        let ladder =
            LadderOptions::new(ExploreOptions::approx(2)).with_budget(Duration::ZERO);
        let report = explore_resilient(&t, &lib, &req, &ladder);
        assert!(report.budget_exhausted);
        assert_eq!(report.num_attempts(), 0);
        assert!(!report.has_design());
        assert_eq!(report.final_status, None);
    }

    #[test]
    fn encode_time_charged_against_shared_limit() {
        // A limit far below the encoding time leaves the solver a zero
        // budget: the call must come back quickly with a limit status
        // instead of spending the full unadjusted limit inside the solver.
        let t = template(6);
        let lib = catalog::zigbee_reference();
        let req = Requirements::from_spec_text(SPEC).unwrap();
        let opts = ExploreOptions::approx(5).with_time_limit(Duration::from_nanos(1));
        let out = explore(&t, &lib, &req, &opts).unwrap();
        assert!(
            matches!(
                out.status,
                Status::LimitFeasible | Status::LimitNoSolution
            ),
            "got {:?}",
            out.status
        );
    }

    #[test]
    fn encode_only_measures_sizes() {
        let t = template(6);
        let lib = catalog::zigbee_reference();
        let req = Requirements::from_spec_text(SPEC).unwrap();
        let approx = encode_only(&t, &lib, &req, EncodeMode::Approx { kstar: 5 }).unwrap();
        let full = encode_only(&t, &lib, &req, EncodeMode::Full).unwrap();
        assert!(full.num_cons > approx.num_cons);
        assert!(full.num_vars > approx.num_vars);
    }

    #[test]
    fn size_estimate_tracks_reality() {
        let t = template(8);
        let lib = catalog::zigbee_reference();
        let req = Requirements::from_spec_text(SPEC).unwrap();
        let real = encode_only(&t, &lib, &req, EncodeMode::Full).unwrap();
        let (est_vars, est_cons) = full_encoding_size_estimate(&t, &lib, &req, 1);
        // estimate within 2x of reality on small instances
        let ratio_v = est_vars as f64 / real.num_vars as f64;
        let ratio_c = est_cons as f64 / real.num_cons as f64;
        assert!(
            (0.4..2.5).contains(&ratio_v),
            "vars: est {} real {}",
            est_vars,
            real.num_vars
        );
        assert!(
            (0.4..2.5).contains(&ratio_c),
            "cons: est {} real {}",
            est_cons,
            real.num_cons
        );
    }
}
