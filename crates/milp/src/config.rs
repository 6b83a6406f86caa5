//! Solver configuration: gaps, limits, and subsystem switches.

use crate::error::{CancelToken, FaultInjection};
use std::time::Duration;

/// Cutting-plane configuration: a master switch and one toggle per
/// separator.
///
/// Cuts are separated in rounds at the root, appended to the LP every node
/// solves, and reoptimized with the dual simplex. Every cut is a valid
/// inequality for the integer hull, so any combination of toggles leaves
/// the optimum unchanged — the toggles only trade separation effort against
/// LP tightness. The round limit and the pool's filters are fixed in
/// [`crate::cuts`].
///
/// # Examples
///
/// ```
/// use milp::{Config, CutConfig};
/// let cfg = Config::default().with_cuts(CutConfig::off());
/// assert!(!cfg.cuts.enabled);
/// ```
#[derive(Debug, Clone)]
pub struct CutConfig {
    /// Master switch; `false` skips separation entirely.
    pub enabled: bool,
    /// Gomory mixed-integer cuts from the optimal root tableau.
    pub gomory: bool,
    /// Lifted knapsack cover cuts from all-binary rows.
    pub cover: bool,
    /// Clique/GUB cuts from one-candidate-per-route disjunctions and
    /// pairwise binary conflicts.
    pub clique: bool,
}

impl Default for CutConfig {
    fn default() -> Self {
        CutConfig {
            enabled: true,
            gomory: true,
            cover: true,
            clique: true,
        }
    }
}

impl CutConfig {
    /// A configuration with every separator disabled (cuts-off ablation).
    pub fn off() -> Self {
        CutConfig {
            enabled: false,
            gomory: false,
            cover: false,
            clique: false,
        }
    }
}

/// Column-generation configuration: round limits and the reduced-cost
/// acceptance tolerance of the root pricing loop.
///
/// Pricing is driven by a caller-supplied [`crate::pricing::ColumnSource`]
/// (the solver core has no knowledge of what columns *mean*); these knobs
/// only bound how long the solve-price-reoptimize loop runs. Because every
/// priced column is a variable of the true (unrestricted) formulation,
/// pricing can only improve the restricted optimum — termination with no
/// acceptable column proves LP optimality over the full column set.
///
/// # Examples
///
/// ```
/// use milp::{ColGenConfig, Config};
/// let cfg = Config::default().with_colgen(ColGenConfig::default());
/// assert!(cfg.colgen.enabled);
/// ```
#[derive(Debug, Clone)]
pub struct ColGenConfig {
    /// Master switch; `false` skips pricing even when a column source is
    /// supplied.
    pub enabled: bool,
    /// Maximum solve-price-reoptimize rounds at the root.
    pub max_rounds: usize,
    /// Maximum columns accepted per round (most negative reduced cost
    /// first; the source enforces this).
    pub max_cols_per_round: usize,
    /// A candidate column is accepted when its reduced cost is below
    /// `-rc_tol` (minimization form).
    pub rc_tol: f64,
    /// Stop after this many consecutive rounds where the LP objective
    /// fails to improve by more than `rc_tol` (degenerate stalling guard).
    pub stall_rounds: usize,
}

impl Default for ColGenConfig {
    fn default() -> Self {
        ColGenConfig {
            enabled: true,
            max_rounds: 50,
            max_cols_per_round: 20,
            rc_tol: 1e-6,
            stall_rounds: 5,
        }
    }
}

impl ColGenConfig {
    /// A configuration with pricing disabled (pricing-off ablation).
    pub fn off() -> Self {
        ColGenConfig {
            enabled: false,
            ..Default::default()
        }
    }
}

/// Durable-solve settings: where and how often the watchdog thread persists
/// [`crate::checkpoint::SearchFrame`] snapshots, and the optional stall
/// window after which a worker pool with no node progress gets a clean
/// checkpointed abort.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Frame file path. The writer also uses `<path>.tmp` and keeps the
    /// previous good frame at `<path>.prev` for torn-write fallback.
    pub path: std::path::PathBuf,
    /// Snapshot cadence. `Duration::ZERO` means a frame at every node
    /// boundary (test cadence; far too slow for production solves).
    pub every: Duration,
    /// Stall window: when no branch-and-bound node completes for this long,
    /// the watchdog writes a final frame and aborts the search cleanly with
    /// a limit status instead of leaving a hung process. `None` disables
    /// stall detection.
    pub stall: Option<Duration>,
}

impl CheckpointConfig {
    /// Checkpointing to `path` with the default 1 s cadence and no stall
    /// watchdog.
    pub fn new(path: impl Into<std::path::PathBuf>) -> Self {
        CheckpointConfig {
            path: path.into(),
            every: Duration::from_secs(1),
            stall: None,
        }
    }

    /// Sets the snapshot cadence.
    pub fn with_cadence(mut self, every: Duration) -> Self {
        self.every = every;
        self
    }

    /// Enables the stall watchdog with the given silence window.
    pub fn with_stall_watchdog(mut self, window: Duration) -> Self {
        self.stall = Some(window);
        self
    }
}

/// Configuration for [`crate::Solver`].
///
/// The LP feasibility and optimality tolerances, the integrality tolerance
/// and the absolute MIP gap are fixed constants next to their readers in
/// [`crate::simplex`] and [`crate::branch`].
///
/// # Examples
///
/// ```
/// use milp::Config;
/// use std::time::Duration;
///
/// let cfg = Config::default()
///     .with_time_limit(Duration::from_secs(60))
///     .with_rel_gap(1e-4);
/// assert_eq!(cfg.rel_gap, 1e-4);
/// ```
#[derive(Debug, Clone)]
pub struct Config {
    /// Relative MIP gap at which the search stops.
    pub rel_gap: f64,
    /// Wall-clock limit for the whole solve (`None` = unlimited).
    pub time_limit: Option<Duration>,
    /// Maximum number of branch-and-bound nodes (`None` = unlimited).
    pub node_limit: Option<usize>,
    /// Fix nonbasic integer variables whose reduced cost exceeds the
    /// primal–dual gap: at the root, at every node (for its subtree), and
    /// on the shared base bounds whenever a worker improves the incumbent.
    pub reduced_cost_fixing: bool,
    /// Run the presolver before solving.
    pub presolve: bool,
    /// Root heuristics: round the root LP point, then run two LP dives
    /// from the root basis, each bounded by a number of LP solves (on by
    /// default). Every other incumbent comes from the warm start or from an
    /// integral node LP.
    pub heuristics: bool,
    /// Random seed for tie-breaking perturbations.
    pub seed: u64,
    /// Number of branch-and-bound workers. `0` (the default) uses
    /// [`std::thread::available_parallelism`]; `1` runs the one worker on
    /// the calling thread. Every count runs the same node loop, and the
    /// optimal objective is the same at any thread count (within the gap
    /// tolerances); above one worker, node counts and timings vary with
    /// scheduling.
    pub threads: usize,
    /// Cooperative cancellation token. When set, the solve winds down at the
    /// next checkpoint after [`CancelToken::cancel`] and returns the best
    /// incumbent with a limit status, exactly like a deadline expiry.
    pub cancel: Option<CancelToken>,
    /// Warm-start hint: a feasible point of the problem in **original**
    /// (pre-presolve) variable order — typically the previous optimum of a
    /// closely related solve. The solver re-validates it against the current
    /// rows, bounds, and integrality; when it still holds, it seeds the
    /// initial incumbent so the tree search starts with a proven primal
    /// bound and reduced-cost fixing bites from the root. A stale or
    /// inconsistent vector is silently ignored (the solve runs cold but
    /// stays correct), and the hint is never consulted while column
    /// generation is growing the variable space.
    pub warm_start: Option<Vec<f64>>,
    /// Deterministic fault-injection plan (tests only): forces LU
    /// singularities, worker panics, and simulated deadline expiry so every
    /// recovery path is exercised.
    pub faults: Option<FaultInjection>,
    /// Durable-solve settings: `Some` enables periodic checkpoint frames
    /// and the watchdog thread; write time is debited from the deadline.
    pub checkpoint: Option<CheckpointConfig>,
    /// Cutting-plane separation settings.
    pub cuts: CutConfig,
    /// Column-generation settings (consulted only when a column source is
    /// supplied via [`crate::Solver::solve_with_columns`]).
    pub colgen: ColGenConfig,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            rel_gap: 1e-6,
            time_limit: None,
            node_limit: None,
            reduced_cost_fixing: true,
            presolve: true,
            heuristics: true,
            seed: 0x5eed,
            threads: 0,
            cancel: None,
            warm_start: None,
            faults: None,
            checkpoint: None,
            cuts: CutConfig::default(),
            colgen: ColGenConfig::default(),
        }
    }
}

impl Config {
    /// Returns the default configuration (same as [`Default::default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a wall-clock time limit.
    pub fn with_time_limit(mut self, d: Duration) -> Self {
        self.time_limit = Some(d);
        self
    }

    /// Sets the node limit.
    pub fn with_node_limit(mut self, n: usize) -> Self {
        self.node_limit = Some(n);
        self
    }

    /// Sets the relative MIP gap.
    pub fn with_rel_gap(mut self, g: f64) -> Self {
        self.rel_gap = g;
        self
    }

    /// Enables or disables presolve.
    pub fn with_presolve(mut self, on: bool) -> Self {
        self.presolve = on;
        self
    }

    /// Enables or disables the root heuristics (rounding and the two dives).
    pub fn with_heuristics(mut self, on: bool) -> Self {
        self.heuristics = on;
        self
    }

    /// Sets the number of search worker threads (`0` = auto-detect).
    pub fn with_threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Enables or disables reduced-cost variable fixing.
    pub fn with_reduced_cost_fixing(mut self, on: bool) -> Self {
        self.reduced_cost_fixing = on;
        self
    }

    /// Attaches a cooperative cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Sets the random seed for tie-breaking perturbations.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Supplies a warm-start point (original variable order) to seed the
    /// initial incumbent after validation.
    pub fn with_warm_start(mut self, values: Vec<f64>) -> Self {
        self.warm_start = Some(values);
        self
    }

    /// Attaches a deterministic fault-injection plan (tests only).
    pub fn with_faults(mut self, faults: FaultInjection) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Enables durable solving: periodic checkpoint frames at
    /// `checkpoint.path` plus the watchdog thread.
    pub fn with_checkpoint(mut self, checkpoint: CheckpointConfig) -> Self {
        self.checkpoint = Some(checkpoint);
        self
    }

    /// Sets the cutting-plane configuration.
    pub fn with_cuts(mut self, cuts: CutConfig) -> Self {
        self.cuts = cuts;
        self
    }

    /// Sets the column-generation configuration.
    pub fn with_colgen(mut self, colgen: ColGenConfig) -> Self {
        self.colgen = colgen;
        self
    }

    /// Whether the attached cancellation token (if any) has fired.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Resolves [`Config::threads`] to a concrete worker count: `0` maps to
    /// the machine's available parallelism (or `1` if that is unknown).
    pub fn effective_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let cfg = Config::new()
            .with_time_limit(Duration::from_millis(500))
            .with_node_limit(10)
            .with_rel_gap(0.01)
            .with_presolve(false)
            .with_heuristics(false);
        assert_eq!(cfg.time_limit, Some(Duration::from_millis(500)));
        assert_eq!(cfg.node_limit, Some(10));
        assert_eq!(cfg.rel_gap, 0.01);
        assert!(!cfg.presolve);
        assert!(!cfg.heuristics);
    }

    #[test]
    fn heur_config_defaults_and_off() {
        assert!(Config::default().heuristics);
        assert!(!Config::default().with_heuristics(false).heuristics);
    }

    #[test]
    fn reopt_and_pricing_builders() {
        let cfg = Config::new().with_reduced_cost_fixing(false);
        assert!(!cfg.reduced_cost_fixing);
        assert!(Config::default().reduced_cost_fixing);
    }

    #[test]
    fn cut_config_defaults_and_off() {
        let d = Config::default();
        assert!(d.cuts.enabled && d.cuts.gomory && d.cuts.cover && d.cuts.clique);
        let off = Config::default().with_cuts(CutConfig::off());
        assert!(!off.cuts.enabled);
        assert!(!off.cuts.gomory && !off.cuts.cover && !off.cuts.clique);
    }

    #[test]
    fn colgen_config_defaults_and_off() {
        let d = Config::default();
        assert!(d.colgen.enabled);
        assert!(d.colgen.max_rounds >= 1 && d.colgen.max_cols_per_round >= 1);
        let off = Config::default().with_colgen(ColGenConfig::off());
        assert!(!off.colgen.enabled);
    }

    #[test]
    fn threads_resolution() {
        assert_eq!(Config::new().with_threads(4).effective_threads(), 4);
        assert_eq!(Config::new().with_threads(1).effective_threads(), 1);
        // auto-detect resolves to at least one worker
        assert!(Config::new().effective_threads() >= 1);
    }
}
