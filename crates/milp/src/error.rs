//! Recoverable solver errors, cooperative cancellation, and deterministic
//! fault injection.
//!
//! The solver's failure philosophy: every numerical failure is first handled
//! *in place* by a recovery ladder (refactorize → slack-basis reset with
//! Bland's rule → seeded perturb-and-retry); only when the ladder is
//! exhausted does a [`SolveError`] surface, and even then the branch-and-
//! bound driver degrades the search (dropping the node, downgrading the
//! optimality claim to a limit status) instead of panicking. The
//! [`FaultInjection`] hooks let tests force each rung of that ladder to run
//! deterministically.

use crate::lu::LuError;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Structured taxonomy of solver failures that survive the in-solver
/// recovery ladder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// Basis factorization failed even after falling back to the (normally
    /// always-nonsingular) slack basis.
    SingularBasis {
        /// Basis position where elimination found no acceptable pivot.
        position: usize,
    },
    /// An eta update pivot was too small and refactorization did not help.
    UnstableUpdate {
        /// Basis position of the offending update.
        position: usize,
    },
    /// Iterates or the objective became non-finite (NaN/∞ blow-up).
    NumericBlowup,
    /// The simplex stalled past every anti-cycling safeguard (degenerate
    /// pivot run with Bland's rule already active).
    Cycling {
        /// Iteration count at which the stall was declared.
        iters: usize,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::SingularBasis { position } => {
                write!(f, "singular basis at position {} (recovery exhausted)", position)
            }
            SolveError::UnstableUpdate { position } => {
                write!(f, "unstable eta update at position {} (recovery exhausted)", position)
            }
            SolveError::NumericBlowup => write!(f, "non-finite iterate (numeric blow-up)"),
            SolveError::Cycling { iters } => {
                write!(f, "simplex stalled after {} iterations despite Bland's rule", iters)
            }
        }
    }
}

impl std::error::Error for SolveError {}

impl From<LuError> for SolveError {
    fn from(e: LuError) -> Self {
        match e {
            LuError::Singular { position } => SolveError::SingularBasis { position },
            LuError::UnstableUpdate { position } => SolveError::UnstableUpdate { position },
        }
    }
}

/// Locks a mutex, recovering the guard when a panicking thread poisoned it.
/// The solver's shared structures (node heap, incumbent) stay consistent
/// under panic because every critical section is a small push/pop/compare,
/// so continuing past poison is safe — and required for worker isolation.
pub(crate) fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Cooperative cancellation handle shared by every search worker and LP
/// solve of one [`crate::Solver`] run.
///
/// Cloning the token shares the underlying flag. Cancellation is honored at
/// the same checkpoints as the wall-clock deadline: the solve winds down and
/// returns the best incumbent with a limit status.
///
/// # Examples
///
/// ```
/// use milp::CancelToken;
/// let t = CancelToken::new();
/// let t2 = t.clone();
/// t.cancel();
/// assert!(t2.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; all holders observe it at their next check.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// Mutable fault-injection state, shared by every clone of a
/// [`FaultInjection`] so a whole solve (workers included) draws from the
/// same deterministic schedule.
#[derive(Debug, Default)]
struct FaultState {
    /// LU factorizations performed so far (1-based ordinals).
    factorizations: AtomicU64,
    /// Worker ids whose injected panic has already fired, once per firing.
    panicked: Mutex<Vec<usize>>,
    /// Whether the one-shot near-parallel-cut injection has fired.
    parallel_cut_fired: AtomicBool,
    /// Root cut-round reoptimizations attempted so far (1-based ordinals).
    cut_reopts: AtomicU64,
    /// Root pricing reoptimizations attempted so far (1-based ordinals).
    pricing_reopts: AtomicU64,
    /// Checkpoint frames written so far (1-based ordinals).
    checkpoint_writes: AtomicU64,
    /// Root cut separation rounds reached so far (1-based ordinals).
    cut_round_marks: AtomicU64,
    /// Root pricing rounds reached so far (1-based ordinals).
    pricing_round_marks: AtomicU64,
}

/// Deterministic fault-injection plan for exercising the recovery paths.
///
/// All hooks are ordinal-based so a given plan produces the same faults on
/// every run; tests assert that recovery restores the fault-free result
/// rather than trusting the error handling on faith. A plan starts empty
/// (`FaultInjection::default()`) and each builder schedules one fault.
///
/// # Examples
///
/// ```
/// use milp::{Config, FaultInjection};
/// let cfg = Config::default().with_faults(
///     FaultInjection::default()
///         .lu_singular_on(1)
///         .panic_worker(0)
///         .expire_after_nodes(100),
/// );
/// assert!(cfg.faults.is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultInjection {
    /// 1-based factorization ordinals forced to report a singular basis.
    lu_singular_at: Vec<u64>,
    /// Worker ids that panic on the next node they claim, once per listing.
    panic_workers: Vec<usize>,
    /// Inject one near-parallel duplicate of an applied cutting plane,
    /// bypassing the pool's parallelism filter, to exercise the recovery
    /// ladder on a near-singular basis.
    parallel_cut: bool,
    /// Treat the deadline as expired once this many nodes were processed.
    deadline_after_nodes: Option<usize>,
    /// 1-based root cut-round reoptimization ordinals forced to fail (the
    /// round's appended cuts must be rolled back).
    fail_cut_reopt_at: Vec<u64>,
    /// 1-based root pricing reoptimization ordinals forced to fail (the
    /// round's spliced columns must be rolled back).
    fail_pricing_reopt_at: Vec<u64>,
    /// 1-based checkpoint-write ordinals whose on-disk frame is truncated
    /// mid-payload (a torn write the loader must detect and skip).
    corrupt_checkpoint_at: Vec<u64>,
    /// `(ordinal, token)`: cancel `token` in the middle of the given
    /// 1-based root cut round — after separation, before the append +
    /// reoptimize — pinning the abort to within that round.
    cancel_in_cut_round: Vec<(u64, CancelToken)>,
    /// `(ordinal, token)`: cancel `token` in the middle of the given
    /// 1-based root pricing round — after the oracle call, before the
    /// column splice.
    cancel_in_pricing_round: Vec<(u64, CancelToken)>,
    state: Arc<FaultState>,
}

impl FaultInjection {
    /// Forces the `ordinal`-th (1-based) LU factorization of the solve to
    /// report a singular basis.
    pub fn lu_singular_on(mut self, ordinal: u64) -> Self {
        self.lu_singular_at.push(ordinal);
        self
    }

    /// Makes search worker `id` panic on the next node it claims. A worker
    /// is restarted once after a panic; list the same id twice to kill it
    /// for good.
    pub fn panic_worker(mut self, id: usize) -> Self {
        self.panic_workers.push(id);
        self
    }

    /// Simulates deadline expiry once `n` branch-and-bound nodes were
    /// processed.
    pub fn expire_after_nodes(mut self, n: usize) -> Self {
        self.deadline_after_nodes = Some(n);
        self
    }

    /// Forces the `ordinal`-th (1-based) reoptimization after a root cut
    /// round's append to report failure, exercising the round's rollback.
    pub fn fail_cut_reopt(mut self, ordinal: u64) -> Self {
        self.fail_cut_reopt_at.push(ordinal);
        self
    }

    /// Forces the `ordinal`-th (1-based) reoptimization after a pricing
    /// column splice to report failure, exercising the splice rollback.
    pub fn fail_pricing_reopt(mut self, ordinal: u64) -> Self {
        self.fail_pricing_reopt_at.push(ordinal);
        self
    }

    /// Truncates the `ordinal`-th (1-based) checkpoint frame written to
    /// disk, simulating a torn write; the resume loader must reject it by
    /// checksum and fall back to the previous good frame.
    pub fn corrupt_checkpoint(mut self, ordinal: u64) -> Self {
        self.corrupt_checkpoint_at.push(ordinal);
        self
    }

    /// Cancels `token` in the middle of the `ordinal`-th (1-based) root cut
    /// round: the cancellation lands after separation but before the round's
    /// append + reoptimization, so a test can assert the loop aborts within
    /// that round instead of running to the round limit.
    pub fn cancel_in_cut_round(mut self, ordinal: u64, token: CancelToken) -> Self {
        self.cancel_in_cut_round.push((ordinal, token));
        self
    }

    /// Cancels `token` in the middle of the `ordinal`-th (1-based) root
    /// pricing round: after the oracle priced its batch, before the columns
    /// are spliced into the LP.
    pub fn cancel_in_pricing_round(mut self, ordinal: u64, token: CancelToken) -> Self {
        self.cancel_in_pricing_round.push((ordinal, token));
        self
    }

    /// Schedules one injected near-parallel cutting plane: the first root
    /// cut round appends an almost-identical copy of an applied cut,
    /// skipping the pool's parallelism filter. The resulting near-singular
    /// basis must be absorbed by the recovery ladder.
    pub fn inject_parallel_cut(mut self) -> Self {
        self.parallel_cut = true;
        self
    }

    /// Hook: called once per LU factorization; `true` forces this one to
    /// report a singular basis.
    pub(crate) fn on_factorize(&self) -> bool {
        let ord = self.state.factorizations.fetch_add(1, Ordering::SeqCst) + 1;
        self.lu_singular_at.contains(&ord)
    }

    /// Hook: whether worker `id` should panic now (fires once per listing
    /// of `id`).
    pub(crate) fn should_panic_worker(&self, id: usize) -> bool {
        let listed = self.panic_workers.iter().filter(|&&w| w == id).count();
        let mut fired = relock(&self.state.panicked);
        let done = fired.iter().filter(|&&w| w == id).count();
        if done < listed {
            fired.push(id);
        }
        done < listed
    }

    /// Hook: whether the simulated deadline has expired at `nodes`.
    pub(crate) fn deadline_expired(&self, nodes: usize) -> bool {
        self.deadline_after_nodes.is_some_and(|n| nodes >= n)
    }

    /// Hook: one-shot trigger for the injected near-parallel cut.
    pub(crate) fn take_parallel_cut(&self) -> bool {
        self.parallel_cut
            && !self
                .state
                .parallel_cut_fired
                .swap(true, Ordering::SeqCst)
    }

    /// Hook: called once per root cut-round reoptimization; `true` forces
    /// this one to be treated as failed.
    pub(crate) fn take_cut_reopt_failure(&self) -> bool {
        let ord = self.state.cut_reopts.fetch_add(1, Ordering::SeqCst) + 1;
        self.fail_cut_reopt_at.contains(&ord)
    }

    /// Hook: called once per root pricing reoptimization; `true` forces
    /// this one to be treated as failed.
    pub(crate) fn take_pricing_reopt_failure(&self) -> bool {
        let ord = self.state.pricing_reopts.fetch_add(1, Ordering::SeqCst) + 1;
        self.fail_pricing_reopt_at.contains(&ord)
    }

    /// Hook: called once per checkpoint frame write; `true` tears this one
    /// (the writer truncates the file mid-payload).
    pub(crate) fn take_checkpoint_corruption(&self) -> bool {
        let ord = self.state.checkpoint_writes.fetch_add(1, Ordering::SeqCst) + 1;
        self.corrupt_checkpoint_at.contains(&ord)
    }

    /// Hook: called once per root cut round at its mid-round cancellation
    /// point; fires any token scheduled for this ordinal.
    pub(crate) fn mark_cut_round(&self) {
        let ord = self.state.cut_round_marks.fetch_add(1, Ordering::SeqCst) + 1;
        for (o, t) in &self.cancel_in_cut_round {
            if *o == ord {
                t.cancel();
            }
        }
    }

    /// Hook: called once per root pricing round at its mid-round
    /// cancellation point; fires any token scheduled for this ordinal.
    pub(crate) fn mark_pricing_round(&self) {
        let ord = self.state.pricing_round_marks.fetch_add(1, Ordering::SeqCst) + 1;
        for (o, t) in &self.cancel_in_pricing_round {
            if *o == ord {
                t.cancel();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_shares_state() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!b.is_cancelled());
        a.cancel();
        assert!(b.is_cancelled());
    }

    #[test]
    fn lu_ordinal_fires_exactly_once() {
        let f = FaultInjection::default().lu_singular_on(2);
        assert!(!f.on_factorize()); // ordinal 1
        assert!(f.on_factorize()); // ordinal 2: injected
        assert!(!f.on_factorize()); // ordinal 3
        // clones share the counter
        let g = f.clone();
        assert!(!g.on_factorize());
    }

    #[test]
    fn worker_panic_fires_once_per_id() {
        let f = FaultInjection::default().panic_worker(3);
        assert!(!f.should_panic_worker(0));
        assert!(f.should_panic_worker(3));
        assert!(!f.should_panic_worker(3)); // already fired
        // Listed twice: fires again after the restart, then never.
        let g = FaultInjection::default().panic_worker(2).panic_worker(2);
        assert!(g.should_panic_worker(2));
        assert!(g.should_panic_worker(2));
        assert!(!g.should_panic_worker(2));
    }

    #[test]
    fn deadline_after_nodes() {
        let f = FaultInjection::default().expire_after_nodes(5);
        assert!(!f.deadline_expired(4));
        assert!(f.deadline_expired(5));
        let none = FaultInjection::default();
        assert!(!none.deadline_expired(1_000_000));
    }

    #[test]
    fn parallel_cut_injection_fires_once() {
        let f = FaultInjection::default().inject_parallel_cut();
        assert!(f.take_parallel_cut());
        assert!(!f.take_parallel_cut(), "one-shot");
        // clones share the fired flag
        let g = FaultInjection::default().inject_parallel_cut();
        let h = g.clone();
        assert!(h.take_parallel_cut());
        assert!(!g.take_parallel_cut());
        // unscheduled: never fires
        assert!(!FaultInjection::default().take_parallel_cut());
    }

    #[test]
    fn reopt_failure_ordinals_fire_once_and_share_state() {
        let f = FaultInjection::default().fail_cut_reopt(2).fail_pricing_reopt(1);
        assert!(!f.take_cut_reopt_failure()); // ordinal 1
        let g = f.clone(); // clones share the ordinal counters
        assert!(g.take_cut_reopt_failure()); // ordinal 2: injected
        assert!(!f.take_cut_reopt_failure()); // ordinal 3
        assert!(f.take_pricing_reopt_failure()); // ordinal 1: injected
        assert!(!g.take_pricing_reopt_failure()); // ordinal 2
    }

    #[test]
    fn checkpoint_corruption_ordinal() {
        let f = FaultInjection::default().corrupt_checkpoint(3);
        assert!(!f.take_checkpoint_corruption());
        assert!(!f.take_checkpoint_corruption());
        assert!(f.take_checkpoint_corruption());
        assert!(!f.take_checkpoint_corruption());
    }

    #[test]
    fn lu_error_conversion() {
        let e: SolveError = LuError::Singular { position: 3 }.into();
        assert_eq!(e, SolveError::SingularBasis { position: 3 });
        assert!(e.to_string().contains("position 3"));
    }
}
