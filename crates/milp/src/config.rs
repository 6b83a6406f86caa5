//! Solver configuration: gaps, limits, and subsystem switches.

use crate::error::{CancelToken, FaultInjection};
use std::time::Duration;

/// Cutting-plane configuration: one switch for the root cut rounds.
///
/// Cuts are separated in rounds at the root (cover cuts, then Gomory
/// mixed-integer cuts), appended to the LP every node solves, and
/// reoptimized with the dual simplex. Every cut is a valid inequality for
/// the integer hull, so the switch leaves the optimum unchanged; it only
/// trades separation effort against LP tightness. The round limit and the
/// pool's filters are fixed in [`crate::cuts`].
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
    /// `false` skips separation entirely.
    pub enabled: bool,
}

impl Default for CutConfig {
    fn default() -> Self {
        CutConfig { enabled: true }
    }
}

impl CutConfig {
    /// Cut separation switched off (cuts-off ablation).
    pub fn off() -> Self {
        CutConfig { enabled: false }
    }
}

/// Durable-solve settings: where and how often the search hands
/// [`crate::checkpoint::SearchFrame`] snapshots to the frame writer thread.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Frame file path. The writer also uses `<path>.tmp` and keeps the
    /// previous good frame at `<path>.prev` for torn-write fallback.
    pub path: std::path::PathBuf,
    /// Snapshot cadence: a worker claims a frame at the first node boundary
    /// after `every` has passed since the last claim. `Duration::ZERO`
    /// means a frame at every node boundary (test cadence; far too slow for
    /// production solves).
    pub every: Duration,
}

impl CheckpointConfig {
    /// Checkpointing to `path` with the default 1 s cadence.
    pub fn new(path: impl Into<std::path::PathBuf>) -> Self {
        CheckpointConfig {
            path: path.into(),
            every: Duration::from_secs(1),
        }
    }

    /// Sets the snapshot cadence.
    pub fn with_cadence(mut self, every: Duration) -> Self {
        self.every = every;
        self
    }
}

/// Configuration for [`crate::Solver`].
///
/// The LP feasibility and optimality tolerances, the integrality tolerance
/// and the absolute MIP gap are fixed constants next to their readers in
/// [`crate::simplex`] and [`crate::branch`], and so are the column
/// generation limits in [`crate::pricing`]. Reduced-cost fixing always
/// runs: at the root, on the shared base bounds whenever a worker improves
/// the incumbent, and at every node for its subtree.
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
    /// Run the presolver before solving.
    pub presolve: bool,
    /// Root heuristics: round the root LP point, then run two LP dives
    /// from the root basis, each bounded by a number of LP solves (on by
    /// default). Every other incumbent comes from the warm start or from an
    /// integral node LP.
    pub heuristics: bool,
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
    /// Durable-solve settings: `Some` enables periodic checkpoint frames,
    /// assembled by the search and written by one writer thread; the
    /// deadline is the same as without them.
    pub checkpoint: Option<CheckpointConfig>,
    /// Cutting-plane separation settings.
    pub cuts: CutConfig,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            rel_gap: 1e-6,
            time_limit: None,
            node_limit: None,
            presolve: true,
            heuristics: true,
            threads: 0,
            cancel: None,
            warm_start: None,
            faults: None,
            checkpoint: None,
            cuts: CutConfig::default(),
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

    /// Attaches a cooperative cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
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
    /// `checkpoint.path`, written by one writer thread.
    pub fn with_checkpoint(mut self, checkpoint: CheckpointConfig) -> Self {
        self.checkpoint = Some(checkpoint);
        self
    }

    /// Sets the cutting-plane configuration.
    pub fn with_cuts(mut self, cuts: CutConfig) -> Self {
        self.cuts = cuts;
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
    fn cut_config_defaults_and_off() {
        assert!(Config::default().cuts.enabled);
        assert!(!Config::default().with_cuts(CutConfig::off()).cuts.enabled);
    }

    #[test]
    fn threads_resolution() {
        assert_eq!(Config::new().with_threads(4).effective_threads(), 4);
        assert_eq!(Config::new().with_threads(1).effective_threads(), 1);
        // auto-detect resolves to at least one worker
        assert!(Config::new().effective_threads() >= 1);
    }
}
