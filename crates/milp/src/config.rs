//! Solver configuration: tolerances, limits, and strategy switches.

use crate::error::{CancelToken, FaultInjection};
use std::time::Duration;

/// Branching variable selection strategy for the branch-and-bound search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Branching {
    /// Branch on the integer variable whose LP value is closest to 0.5 away
    /// from an integer (classic most-fractional rule).
    MostFractional,
    /// Pseudo-cost branching with most-fractional fallback before costs are
    /// initialized (default).
    #[default]
    PseudoCost,
}

/// LP reoptimization strategy for warm-started node solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReoptMode {
    /// Dual simplex when the warm basis is dual-feasible (the common case
    /// after a branching bound change), primal otherwise (default).
    #[default]
    Auto,
    /// Always try the dual simplex first on warm-started solves.
    Dual,
    /// Never use the dual simplex; re-solve with primal phase 1 + 2.
    Primal,
}

/// Simplex pricing rule for entering-variable selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PricingRule {
    /// Devex reference-weight pricing (default): approximates steepest-edge
    /// step quality and sharply cuts iteration counts on degenerate routing
    /// LPs. Bland's rule still takes over as the anti-cycling fallback.
    #[default]
    Devex,
    /// Classic Dantzig most-negative-reduced-cost pricing.
    Dantzig,
}

/// Node selection strategy for the branch-and-bound search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodeSelection {
    /// Pure best-bound (best-first) search.
    BestBound,
    /// Best-bound with depth-first plunging after each node (default): the
    /// solver dives into one child immediately, which finds incumbents early
    /// while the queue keeps the global bound.
    #[default]
    BestBoundPlunge,
    /// Pure depth-first search.
    DepthFirst,
}

/// Cutting-plane configuration: per-separator toggles, round limits, and
/// the numerical filters of the cut pool.
///
/// Cuts are separated in rounds at the root, appended to the LP every node
/// solves, and reoptimized with the dual simplex. Every cut is a valid inequality for the integer
/// hull, so any combination of toggles leaves the optimum unchanged — the
/// knobs only trade separation effort against LP tightness.
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
    /// Maximum separation rounds at the root.
    pub max_rounds: usize,
    /// Maximum cuts applied per round (most violated first).
    pub max_cuts_per_round: usize,
    /// Minimum efficacy (violation / coefficient 2-norm) for a cut to be
    /// applied.
    pub min_efficacy: f64,
    /// Maximum |cosine| between two cuts applied in the same round; filters
    /// near-parallel rows that would degrade the basis conditioning.
    pub max_parallelism: f64,
    /// Maximum number of cuts held in the pool (pending + applied).
    pub max_pool: usize,
    /// Pending cuts not selected for this many rounds are evicted.
    pub max_age: usize,
}

impl Default for CutConfig {
    fn default() -> Self {
        CutConfig {
            enabled: true,
            gomory: true,
            cover: true,
            clique: true,
            max_rounds: 4,
            max_cuts_per_round: 50,
            min_efficacy: 1e-4,
            max_parallelism: 0.999,
            max_pool: 2000,
            max_age: 3,
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
            ..Default::default()
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

/// Primal-heuristic configuration: the classic root rounding/diving passes
/// plus the anytime large-neighborhood-search (LNS) + tabu engine that rides
/// shotgun on the branch-and-bound search.
///
/// The LNS engine seeds from the root LP relaxation with RINS-style fixing
/// (integer variables on which the relaxation and the current incumbent
/// agree stay fixed), then repeatedly *destroys* a neighborhood — one
/// route's candidate-path disjunction or one node's device placements,
/// taken from the encoder's GUB annotations — and *repairs* it with a
/// node-budgeted sub-MILP on the warm-started dual-simplex core. Every
/// improvement is feasibility-checked against the full row set before it is
/// published through the shared incumbent, so the engine can only ever help:
/// workers prune harder, the final optimum is unchanged.
///
/// The engine is deterministic given [`Config::seed`]: it never *reads* the
/// shared incumbent, so its improvement sequence does not depend on thread
/// scheduling — only how far it gets before the exact search finishes does.
///
/// # Examples
///
/// ```
/// use milp::{Config, HeurConfig};
/// let cfg = Config::default().with_heur(HeurConfig::off());
/// assert!(!cfg.heuristics.enabled && !cfg.heuristics.lns);
/// ```
#[derive(Debug, Clone)]
pub struct HeurConfig {
    /// Master switch for the rounding/diving passes at the root and the
    /// in-tree dives.
    pub enabled: bool,
    /// Run the LNS + tabu primal engine alongside the tree search.
    pub lns: bool,
    /// Node budget for each sub-MILP repair solve.
    pub lns_node_budget: usize,
    /// Maximum destroy/repair iterations before the engine retires.
    pub lns_max_iters: usize,
    /// Consecutive non-improving iterations before the engine escalates the
    /// destroy size (1 → 2 → 4 → … neighborhoods freed at once); once the
    /// escalation ladder is exhausted and another such streak passes, the
    /// engine retires instead of burning CPU the exact search could use.
    pub lns_stall: usize,
    /// Tabu tenure: a destroyed neighborhood is not re-destroyed for this
    /// many iterations unless it just improved the incumbent (aspiration).
    pub tabu_tenure: usize,
    /// Run the engine inline (to completion, before the tree search starts)
    /// instead of on its own thread. Slower wall-clock but the published
    /// incumbent trace is bit-identical at any thread count — used by the
    /// determinism proptests.
    pub sync: bool,
}

impl Default for HeurConfig {
    fn default() -> Self {
        HeurConfig {
            enabled: true,
            lns: true,
            lns_node_budget: 150,
            lns_max_iters: 400,
            lns_stall: 12,
            tabu_tenure: 3,
            sync: false,
        }
    }
}

impl HeurConfig {
    /// A configuration with every primal heuristic disabled (the
    /// `heur_off` ablation: pure exact search).
    pub fn off() -> Self {
        HeurConfig {
            enabled: false,
            lns: false,
            ..Default::default()
        }
    }

    /// Rounding/diving only — the pre-LNS behaviour of the solver.
    pub fn dives_only() -> Self {
        HeurConfig {
            lns: false,
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
    /// Primal/dual feasibility tolerance.
    pub feas_tol: f64,
    /// Reduced-cost optimality tolerance.
    pub opt_tol: f64,
    /// Integrality tolerance: `x` counts as integral if within this of a
    /// whole number.
    pub int_tol: f64,
    /// Relative MIP gap at which the search stops.
    pub rel_gap: f64,
    /// Absolute MIP gap at which the search stops.
    pub abs_gap: f64,
    /// Wall-clock limit for the whole solve (`None` = unlimited).
    pub time_limit: Option<Duration>,
    /// Maximum number of branch-and-bound nodes (`None` = unlimited).
    pub node_limit: Option<usize>,
    /// Maximum simplex iterations per LP solve (`None` = unlimited).
    pub iter_limit: Option<usize>,
    /// Refactorize the basis after this many eta updates.
    pub refactor_interval: usize,
    /// Branching rule.
    pub branching: Branching,
    /// Node selection rule.
    pub node_selection: NodeSelection,
    /// Warm-start reoptimization strategy ([`ReoptMode::Auto`] tries the
    /// dual simplex whenever the inherited basis is dual-feasible).
    pub reopt: ReoptMode,
    /// Entering-variable pricing rule for the primal simplex.
    pub pricing: PricingRule,
    /// Fix nonbasic integer variables whose reduced cost exceeds the
    /// primal–dual gap: at the root, at every node (for its subtree), and
    /// on the shared base bounds whenever a worker improves the incumbent.
    pub reduced_cost_fixing: bool,
    /// Run the presolver before solving.
    pub presolve: bool,
    /// Primal-heuristic settings: root rounding/diving, in-tree dives, and
    /// the anytime LNS + tabu engine (all on by default).
    pub heuristics: HeurConfig,
    /// Print progress lines to stderr.
    pub verbose: bool,
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
            feas_tol: 1e-7,
            opt_tol: 1e-7,
            int_tol: 1e-6,
            rel_gap: 1e-6,
            abs_gap: 1e-9,
            time_limit: None,
            node_limit: None,
            iter_limit: None,
            refactor_interval: 64,
            branching: Branching::default(),
            node_selection: NodeSelection::default(),
            reopt: ReoptMode::default(),
            pricing: PricingRule::default(),
            reduced_cost_fixing: true,
            presolve: true,
            heuristics: HeurConfig::default(),
            verbose: false,
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

    /// Enables or disables all primal heuristics (dives *and* LNS). For
    /// finer control use [`Config::with_heur`].
    pub fn with_heuristics(mut self, on: bool) -> Self {
        self.heuristics = if on {
            HeurConfig::default()
        } else {
            HeurConfig::off()
        };
        self
    }

    /// Sets the primal-heuristic configuration.
    pub fn with_heur(mut self, heur: HeurConfig) -> Self {
        self.heuristics = heur;
        self
    }

    /// Enables or disables progress output.
    pub fn with_verbose(mut self, on: bool) -> Self {
        self.verbose = on;
        self
    }

    /// Sets the number of search worker threads (`0` = auto-detect).
    pub fn with_threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Sets the warm-start reoptimization strategy.
    pub fn with_reopt(mut self, mode: ReoptMode) -> Self {
        self.reopt = mode;
        self
    }

    /// Sets the simplex pricing rule.
    pub fn with_pricing(mut self, rule: PricingRule) -> Self {
        self.pricing = rule;
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

    /// Sets the random seed for tie-breaking perturbations and heuristics.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Splits a remaining wall-clock budget evenly across `subproblems`
    /// concurrent solves and sets it as this config's time limit. A
    /// decomposition master loop calls this each round so late zones don't
    /// inherit time the early zones already spent. Zero subproblems count
    /// as one; the slice is floored at 100 ms so a nearly-exhausted budget
    /// still lets each solve run its root LP and return a limit status.
    pub fn budget_slice(mut self, remaining: Duration, subproblems: usize) -> Self {
        let share = remaining / subproblems.max(1) as u32;
        self.time_limit = Some(share.max(Duration::from_millis(100)));
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
            .with_heuristics(false)
            .with_verbose(true);
        assert_eq!(cfg.time_limit, Some(Duration::from_millis(500)));
        assert_eq!(cfg.node_limit, Some(10));
        assert_eq!(cfg.rel_gap, 0.01);
        assert!(!cfg.presolve);
        assert!(!cfg.heuristics.enabled && !cfg.heuristics.lns);
        assert!(cfg.verbose);
    }

    #[test]
    fn heur_config_defaults_and_off() {
        let d = Config::default();
        assert!(d.heuristics.enabled && d.heuristics.lns);
        assert!(d.heuristics.lns_node_budget >= 1 && d.heuristics.lns_max_iters >= 1);
        assert!(!d.heuristics.sync, "sync engine is a test-only mode");
        let off = Config::default().with_heur(HeurConfig::off());
        assert!(!off.heuristics.enabled && !off.heuristics.lns);
        let dives = Config::default().with_heur(HeurConfig::dives_only());
        assert!(dives.heuristics.enabled && !dives.heuristics.lns);
    }

    #[test]
    fn reopt_and_pricing_builders() {
        let cfg = Config::new()
            .with_reopt(ReoptMode::Primal)
            .with_pricing(PricingRule::Dantzig)
            .with_reduced_cost_fixing(false);
        assert_eq!(cfg.reopt, ReoptMode::Primal);
        assert_eq!(cfg.pricing, PricingRule::Dantzig);
        assert!(!cfg.reduced_cost_fixing);
        // defaults: dual reoptimization + Devex + fixing on
        let d = Config::default();
        assert_eq!(d.reopt, ReoptMode::Auto);
        assert_eq!(d.pricing, PricingRule::Devex);
        assert!(d.reduced_cost_fixing);
    }

    #[test]
    fn cut_config_defaults_and_off() {
        let d = Config::default();
        assert!(d.cuts.enabled && d.cuts.gomory && d.cuts.cover && d.cuts.clique);
        assert!(d.cuts.max_rounds >= 1);
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
