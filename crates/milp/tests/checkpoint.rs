//! Durable-solve integration tests: kill-and-resume determinism, torn-frame
//! fallback, and fingerprint guards.
//!
//! A "kill" is emulated with the deterministic
//! [`FaultInjection::expire_after_nodes`] hook: the victim solve winds down
//! mid-search exactly as a SIGKILL-then-restart observes it (the frame on
//! disk is simply the last one durably written). Resuming from *any* valid
//! frame — current, previous, or stale — must finish with the same objective
//! and proof status as an uninterrupted run.

use milp::checkpoint::write_frame;
use milp::{
    load_frame, CheckpointConfig, ColumnSource, Config, CutConfig, FaultInjection, FrameError,
    NewColumn, PriceInput, PricedBatch, Problem, Row, Sense, Solver, Status, Var,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Unique frame path per test case (proptest runs many cases in-process).
fn frame_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("milp_ckpt_{}_{}_{}", std::process::id(), tag, n))
}

/// Removes the frame, its rotation sibling, and any leftover temp file.
fn cleanup(path: &Path) {
    for suffix in ["", ".prev", ".tmp"] {
        let mut p = path.as_os_str().to_owned();
        p.push(suffix);
        let _ = std::fs::remove_file(PathBuf::from(p));
    }
}

/// A knapsack hard enough to need a real tree search, with a reproducible
/// optimum (mirrors the fault-injection suite).
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

/// Cuts off and heuristics off so the tree search processes real nodes
/// (cover cuts close these knapsacks at the root otherwise).
fn searchy() -> Config {
    Config::default()
        .with_cuts(CutConfig::off())
        .with_heuristics(false)
}

/// Checkpoint at every node boundary so even short victim runs leave a
/// frame behind.
fn every_node(path: &Path) -> CheckpointConfig {
    CheckpointConfig::new(path.to_path_buf()).with_cadence(Duration::ZERO)
}

/// Runs the kill-at-node-`k`-then-resume cycle on `nthreads` and asserts
/// the resumed solve reproduces the uninterrupted reference exactly.
fn kill_and_resume(p: &Problem, k: usize, nthreads: usize) {
    let clean = Solver::new(searchy().with_threads(nthreads)).solve(p);
    assert_eq!(clean.status(), Status::Optimal);

    let path = frame_path("kill");
    let victim_cfg = searchy()
        .with_threads(nthreads)
        .with_checkpoint(every_node(&path))
        .with_faults(FaultInjection::default().expire_after_nodes(k));
    let victim = Solver::new(victim_cfg).solve(p);
    assert!(
        matches!(
            victim.status(),
            Status::LimitFeasible | Status::LimitNoSolution
        ),
        "victim must die on the injected expiry, got {}",
        victim.status()
    );
    assert!(
        victim.stats().checkpoints_written >= 1,
        "the wind-down must leave a durable frame"
    );

    let resumed = Solver::new(searchy().with_threads(nthreads))
        .resume(p, &path)
        .expect("a frame was written");
    cleanup(&path);
    assert!(resumed.stats().resumed);
    assert_eq!(resumed.status(), Status::Optimal);
    assert!(
        (resumed.objective() - clean.objective()).abs() < 1e-6,
        "resumed {} vs uninterrupted {}",
        resumed.objective(),
        clean.objective()
    );
    assert!(p.check_feasible(resumed.values(), 1e-6).is_none());
}

#[test]
fn kill_and_resume_sequential() {
    kill_and_resume(&hard_knapsack(20), 5, 1);
}

#[test]
fn kill_and_resume_two_threads() {
    kill_and_resume(&hard_knapsack(20), 6, 2);
}

#[test]
fn kill_and_resume_four_threads() {
    kill_and_resume(&hard_knapsack(22), 8, 4);
}

/// Killing at the very first node boundary leaves a nearly-root frame; the
/// resume then redoes essentially the whole search and must still agree.
#[test]
fn kill_immediately_resumes_from_root_frame() {
    kill_and_resume(&hard_knapsack(18), 1, 1);
}

/// A checkpointed solve that finishes cleanly keeps its last mid-run frame;
/// resuming that *stale* frame re-does the tail of the search and must
/// reach the identical optimum.
#[test]
fn stale_frame_resume_matches_clean_finish() {
    let p = hard_knapsack(20);
    let path = frame_path("stale");
    let full = Solver::new(searchy().with_checkpoint(every_node(&path))).solve(&p);
    assert_eq!(full.status(), Status::Optimal);
    assert!(full.stats().checkpoints_written >= 1);

    let resumed = Solver::new(searchy()).resume(&p, &path).expect("frame exists");
    cleanup(&path);
    assert_eq!(resumed.status(), Status::Optimal);
    assert!((resumed.objective() - full.objective()).abs() < 1e-6);
}

/// Checkpoint time is what the search threads spend claiming and
/// assembling frames: with one worker it is part of the solve's wall time.
#[test]
fn checkpoint_time_is_accounted() {
    let p = hard_knapsack(20);
    let path = frame_path("accounted");
    let sol = Solver::new(searchy().with_threads(1).with_checkpoint(every_node(&path))).solve(&p);
    cleanup(&path);
    assert_eq!(sol.status(), Status::Optimal);
    assert!(sol.stats().checkpoints_written >= 1);
    assert!(sol.stats().checkpoint_time <= sol.stats().elapsed);
}

/// `max Σx s.t. Σ2x ≤ n` for odd `n`: the LP bound stays at `n/2` until
/// half the variables are fixed, so without cuts the proof of the
/// optimum `(n-1)/2` needs exponentially many nodes.
fn odd_capacity_knapsack(n: usize) -> Problem {
    let mut p = Problem::new(Sense::Maximize);
    let mut row = Row::new().le(n as f64);
    for _ in 0..n {
        let v = p.add_var(Var::binary().obj(1.0));
        row = row.coef(v, 2.0);
    }
    p.add_row(row);
    p
}

/// Checkpointing does not shorten the time limit: a solve that cannot
/// finish, with a frame at every node boundary, runs until its deadline.
#[test]
fn checkpointed_solve_runs_to_its_time_limit() {
    let p = odd_capacity_knapsack(41);
    let path = frame_path("deadline");
    let limit = Duration::from_millis(400);
    let cfg = searchy()
        .with_threads(1)
        .with_time_limit(limit)
        .with_checkpoint(every_node(&path));
    let sol = Solver::new(cfg).solve(&p);
    cleanup(&path);
    assert!(
        matches!(sol.status(), Status::LimitFeasible | Status::LimitNoSolution),
        "the proof cannot finish in {limit:?}, got {}",
        sol.status()
    );
    assert!(sol.stats().checkpoints_written >= 1);
    assert!(
        sol.stats().elapsed >= limit,
        "stopped after {:?} of a {limit:?} limit ({:?} checkpointing)",
        sol.stats().elapsed,
        sol.stats().checkpoint_time
    );
}

/// Failed frame writes are counted, and the search goes on without them:
/// a frame path inside a missing directory leaves the result unchanged.
#[test]
fn failed_frame_writes_are_counted_and_do_not_change_the_result() {
    let p = hard_knapsack(20);
    let plain = Solver::new(searchy().with_threads(1)).solve(&p);
    let missing = frame_path("no_such_dir").join("frame");
    let sol = Solver::new(searchy().with_threads(1).with_checkpoint(every_node(&missing))).solve(&p);
    assert_eq!(sol.stats().checkpoints_written, 0);
    assert!(sol.stats().checkpoint_failures >= 1);
    assert_eq!(sol.status(), plain.status());
    assert!(
        (sol.objective() - plain.objective()).abs() < 1e-6,
        "with failing writes {} vs plain {}",
        sol.objective(),
        plain.objective()
    );
}

/// The loader falls back to `<path>.prev` when the primary frame is torn
/// mid-payload (simulated via the injected-corruption fault on the second
/// write), and the resumed solve from the older frame still matches.
#[test]
fn torn_primary_falls_back_to_previous_frame() {
    let p = hard_knapsack(20);
    let clean = Solver::new(searchy()).solve(&p);

    // Produce one real frame via a killed solve...
    let path = frame_path("torn");
    let victim_cfg = searchy()
        .with_checkpoint(every_node(&path))
        .with_faults(FaultInjection::default().expire_after_nodes(4));
    let victim = Solver::new(victim_cfg).solve(&p);
    assert!(victim.stats().checkpoints_written >= 1);
    let good = milp::load_frame(&path).expect("victim frame loads");

    // ...then rotate it behind a torn write: the corruption fault truncates
    // the new primary mid-payload, so only `<path>.prev` validates.
    let faults = FaultInjection::default().corrupt_checkpoint(1);
    write_frame(&path, &good, Some(&faults)).expect("torn write still completes");
    assert!(
        milp::checkpoint::decode_frame(&std::fs::read(&path).expect("primary exists")).is_err(),
        "the primary frame must really be torn"
    );

    let resumed = Solver::new(searchy()).resume(&p, &path).expect("fallback frame");
    cleanup(&path);
    assert_eq!(resumed.status(), Status::Optimal);
    assert!((resumed.objective() - clean.objective()).abs() < 1e-6);
}

/// With both the primary and the fallback torn, resume reports the
/// primary's error instead of solving from garbage.
#[test]
fn doubly_torn_frame_is_rejected() {
    let p = hard_knapsack(16);
    let path = frame_path("doubly_torn");
    let victim_cfg = searchy()
        .with_checkpoint(every_node(&path))
        .with_faults(FaultInjection::default().expire_after_nodes(3));
    Solver::new(victim_cfg).solve(&p);
    let good = milp::load_frame(&path).expect("victim frame loads");
    let faults = FaultInjection::default().corrupt_checkpoint(1).corrupt_checkpoint(2);
    write_frame(&path, &good, Some(&faults)).expect("first torn write");
    write_frame(&path, &good, Some(&faults)).expect("second torn write");
    let err = Solver::new(searchy()).resume(&p, &path).expect_err("both frames torn");
    cleanup(&path);
    assert!(matches!(err, FrameError::Corrupt(_)));
}

/// A frame written for one problem must be refused by another: the
/// fingerprint covers dimensions, objective, and bounds.
#[test]
fn foreign_frame_is_rejected_by_fingerprint() {
    let a = hard_knapsack(16);
    let path = frame_path("foreign");
    let victim_cfg = searchy()
        .with_checkpoint(every_node(&path))
        .with_faults(FaultInjection::default().expire_after_nodes(3));
    Solver::new(victim_cfg).solve(&a);

    let b = hard_knapsack(17);
    let err = Solver::new(searchy())
        .resume(&b, &path)
        .expect_err("dimension change must be caught");
    cleanup(&path);
    assert!(matches!(err, FrameError::Mismatch(_)));
}

/// Resuming with no frame on disk is an I/O error, not a panic — callers
/// fall back to a cold solve.
#[test]
fn missing_frame_is_an_io_error() {
    let p = hard_knapsack(12);
    let path = frame_path("missing");
    let err = Solver::new(searchy()).resume(&p, &path).expect_err("nothing on disk");
    assert!(matches!(err, FrameError::Io(_)));
}

/// A killed cuts-on solve leaves a frame whose cut list is the root cuts;
/// a two-worker resume bakes them all into its LP and reproduces the clean
/// optimum.
#[test]
fn resume_with_root_cuts_two_threads() {
    let p = hard_knapsack(22);
    let base = Config::default().with_heuristics(false);
    let clean = Solver::new(base.clone()).solve(&p);
    assert_eq!(clean.status(), Status::Optimal);

    let path = frame_path("cuts");
    let victim_cfg = base
        .clone()
        .with_checkpoint(every_node(&path))
        .with_faults(FaultInjection::default().expire_after_nodes(1));
    let victim = Solver::new(victim_cfg).solve(&p);
    if victim.stats().checkpoints_written == 0 {
        // Cover cuts may close the instance at the root before any node
        // boundary; nothing to resume then.
        cleanup(&path);
        return;
    }
    let frame = milp::load_frame(&path).expect("frame loads");
    assert!(!frame.cuts.is_empty(), "cover cuts apply on this knapsack");
    assert_eq!(frame.root_cuts, frame.cuts.len(), "every cut is a root cut");

    let resumed = Solver::new(base.with_threads(2)).resume(&p, &path).expect("frame exists");
    cleanup(&path);
    assert_eq!(resumed.status(), Status::Optimal);
    assert!(
        (resumed.objective() - clean.objective()).abs() < 1e-6,
        "resumed-with-cuts {} vs clean {}",
        resumed.objective(),
        clean.objective()
    );
    assert!(p.check_feasible(resumed.values(), 1e-6).is_none());
}

/// Items a scripted column source prices into [`hard_knapsack`], two
/// rounds of `(value, weight)` pairs, each denser than the knapsack's LP
/// cut-off ratio so the restricted LP takes them.
const PRICED_ROUNDS: [&[(f64, f64)]; 2] = [&[(4.0, 1.0), (3.5, 1.5)], &[(5.0, 2.0)]];

/// Serves [`PRICED_ROUNDS`] in order, then nothing; its checkpoint payload
/// is the number of rounds served, which `restore_state` records.
#[derive(Default)]
struct ScriptedItems {
    served: usize,
    restored: Option<Vec<u8>>,
}

impl ColumnSource for ScriptedItems {
    fn price(&mut self, _input: &PriceInput<'_>) -> PricedBatch {
        let Some(items) = PRICED_ROUNDS.get(self.served) else {
            return PricedBatch::default();
        };
        self.served += 1;
        let cols = items
            .iter()
            .map(|&(value, weight)| NewColumn {
                obj: value,
                lb: 0.0,
                ub: 1.0,
                integer: true,
                name: None,
                entries: vec![(0, weight)],
            })
            .collect();
        PricedBatch { cols, rows: vec![] }
    }

    fn snapshot_state(&self) -> Vec<u8> {
        vec![self.served as u8]
    }

    fn restore_state(&mut self, bytes: &[u8]) {
        self.restored = Some(bytes.to_vec());
    }
}

/// The priced victim: [`ScriptedItems`] prices both rounds into
/// `hard_knapsack(20)`, then an injected expiry at node 5 kills the search
/// and the wind-down leaves a frame carrying the accepted batches at `path`.
fn priced_victim(p: &Problem, path: &Path) -> milp::Solution {
    let victim_cfg = searchy()
        .with_checkpoint(every_node(path))
        .with_faults(FaultInjection::default().expire_after_nodes(5));
    Solver::new(victim_cfg).solve_with_columns(p, &mut ScriptedItems::default())
}

/// A solve that priced columns, killed mid-search, resumes through the
/// column-source path: the frame carries the accepted batches, the
/// replayed LP reaches the uninterrupted priced optimum, and the resumed
/// vector is feasible for the knapsack grown by the priced items.
#[test]
fn priced_solve_kill_and_resume() {
    let p = hard_knapsack(20);
    let mut grown = p.clone();
    let capacity = grown.row_ids().next().expect("one knapsack row");
    for &(value, weight) in PRICED_ROUNDS.concat().iter() {
        let v = grown.add_var(Var::binary().obj(value));
        grown.add_row_coef(capacity, v, weight);
    }
    let clean = Solver::new(searchy()).solve_with_columns(&p, &mut ScriptedItems::default());
    assert_eq!(clean.status(), Status::Optimal);
    assert_eq!(clean.stats().cols_priced, 3);

    let path = frame_path("priced");
    let victim = priced_victim(&p, &path);
    assert!(
        matches!(
            victim.status(),
            Status::LimitFeasible | Status::LimitNoSolution
        ),
        "victim must die on the injected expiry, got {}",
        victim.status()
    );
    let frame = load_frame(&path).expect("the wind-down leaves a frame");
    let widths: Vec<usize> = frame.batches.iter().map(|b| b.cols.len()).collect();
    assert_eq!(widths, [2, 1], "the frame carries both accepted batches");

    let mut source = ScriptedItems::default();
    let resumed = Solver::new(searchy())
        .resume_with_columns(&p, &path, &mut source)
        .expect("the frame fits the problem");
    cleanup(&path);
    let payload = source.restored;
    assert_eq!(payload, Some(vec![2]), "the source payload is restored");
    assert!(resumed.stats().resumed);
    assert_eq!(resumed.stats().cols_priced, 3);
    assert_eq!(resumed.status(), Status::Optimal);
    assert!(
        (resumed.objective() - clean.objective()).abs() < 1e-6,
        "resumed {} vs uninterrupted {}",
        resumed.objective(),
        clean.objective()
    );
    assert_eq!(grown.check_feasible(resumed.values(), 1e-6), None);
}

/// A frame that carries priced columns is refused when resumed without a
/// column source. Presolve is off, so the rebuilt base LP is the identity
/// one the priced solve used and the fingerprint matches: the priced-batch
/// check is the one that refuses.
#[test]
fn priced_frame_resumed_without_a_source_is_refused() {
    let p = hard_knapsack(20);
    let path = frame_path("priced_plain");
    priced_victim(&p, &path);
    let err = Solver::new(searchy().with_presolve(false))
        .resume(&p, &path)
        .expect_err("a priced frame needs its column source");
    cleanup(&path);
    assert!(
        matches!(err, FrameError::Mismatch(why) if why.contains("priced columns")),
        "got {err}"
    );
}

mod determinism {
    use super::*;
    use milp::VarId;
    use proptest::prelude::*;

    fn instance() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, f64)> {
        (6usize..=12).prop_flat_map(|n| {
            let obj = prop::collection::vec(0.5..6.0f64, n);
            let wts = prop::collection::vec(0.5..4.0f64, n);
            (obj, wts, 3.0..12.0f64)
        })
    }

    fn build(obj: &[f64], wts: &[f64], cap: f64) -> Problem {
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<VarId> = obj
            .iter()
            .map(|&c| p.add_var(Var::binary().obj((c * 8.0).round() / 8.0)))
            .collect();
        let mut row = Row::new().le(cap);
        for (v, &w) in vars.iter().zip(wts) {
            row = row.coef(*v, (w * 8.0).round() / 8.0);
        }
        p.add_row(row);
        p
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Kill-and-resume is invisible: for random instances, kill points,
        /// and thread counts, the resumed solve reports exactly the status
        /// and objective of an uninterrupted run. When the victim finished
        /// before the kill point (or never reached a node boundary), the
        /// frame — if any — is stale, and resuming it must *still* match.
        #[test]
        fn kill_resume_is_deterministic(
            (obj, wts, cap) in instance(),
            kill_at in 1usize..6,
            threads in (0usize..3).prop_map(|i| [1usize, 2, 4][i]),
        ) {
            let p = build(&obj, &wts, cap);
            let clean = Solver::new(searchy()).solve(&p);
            let path = frame_path("prop");
            let victim_cfg = searchy()
                .with_threads(threads)
                .with_checkpoint(every_node(&path))
                .with_faults(FaultInjection::default().expire_after_nodes(kill_at));
            let victim = Solver::new(victim_cfg).solve(&p);
            match Solver::new(searchy().with_threads(threads)).resume(&p, &path) {
                Ok(resumed) => {
                    prop_assert_eq!(clean.status(), resumed.status());
                    if clean.status().has_solution() {
                        prop_assert!(
                            (clean.objective() - resumed.objective()).abs() < 1e-6,
                            "clean {} vs resumed {}", clean.objective(), resumed.objective()
                        );
                    }
                }
                Err(_) => {
                    // No frame: the victim must have concluded without ever
                    // reaching a node boundary — its own answer must agree.
                    prop_assert_eq!(clean.status(), victim.status());
                    if clean.status().has_solution() {
                        prop_assert!((clean.objective() - victim.objective()).abs() < 1e-6);
                    }
                }
            }
            cleanup(&path);
        }
    }
}
