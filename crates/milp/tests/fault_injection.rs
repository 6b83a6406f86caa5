//! Deterministic fault-injection tests: every recovery path of the solver
//! is forced to run and must restore the fault-free result.
//!
//! The plans are seeded/ordinal-based ([`FaultInjection`]), so these tests
//! are reproducible: an injected LU singularity or worker panic happens at
//! the same point on every run.

use milp::{
    CancelToken, Config, CutConfig, FaultInjection, Problem, Row, Sense, Solver, Status, Var,
    VarId,
};

/// A configuration whose tree search actually processes nodes on
/// `hard_knapsack`: cover cuts close these single-row knapsacks at the
/// root, so tests that need in-tree faults (worker panics, simulated
/// deadline expiry at node N) to fire must search without cuts.
fn no_cuts() -> Config {
    Config::default().with_cuts(CutConfig::off())
}

/// A knapsack hard enough to need a real tree search (hundreds of nodes
/// without heuristics), with a known-by-construction reproducible optimum.
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

fn solve_with(p: &Problem, cfg: Config) -> milp::Solution {
    Solver::new(cfg).solve(p)
}

#[test]
fn lu_singularity_recovers_to_fault_free_optimum() {
    let p = hard_knapsack(18);
    let clean = solve_with(&p, Config::default());
    assert_eq!(clean.status(), Status::Optimal);

    // Ordinals 1 and 2 fail both the first factorization and its immediate
    // retry, forcing solve_lp onto its second recovery rung; ordinal 6
    // exercises a mid-solve refactorization failure as well.
    let faults = FaultInjection::seeded(0xD15EA5E)
        .lu_singular_on(1)
        .lu_singular_on(2)
        .lu_singular_on(6);
    let sol = solve_with(&p, Config::default().with_faults(faults));
    assert_eq!(sol.status(), Status::Optimal);
    assert!(sol.status().has_solution());
    assert!(
        (sol.objective() - clean.objective()).abs() < 1e-6,
        "recovered {} vs fault-free {}",
        sol.objective(),
        clean.objective()
    );
    assert!(
        sol.stats().lp_recoveries >= 1,
        "the injected singularities must have consumed at least one rung"
    );
    assert!(p.check_feasible(sol.values(), 1e-6).is_none());
}

#[test]
fn lu_singularity_during_dual_reopt_recovers() {
    // Injected factorization failures land while warm bases are being
    // dual-reoptimized (cut rounds, child nodes) and hit its fallback
    // path; the result must match fault-free.
    let p = hard_knapsack(18);
    let clean = solve_with(&p, Config::default());
    assert_eq!(clean.status(), Status::Optimal);

    let faults = FaultInjection::seeded(0xD15EA5E)
        .lu_singular_on(3)
        .lu_singular_on(5)
        .lu_singular_on(9);
    let sol = solve_with(&p, Config::default().with_faults(faults));
    assert_eq!(sol.status(), Status::Optimal);
    assert!(
        (sol.objective() - clean.objective()).abs() < 1e-6,
        "dual-reopt recovery {} vs fault-free {}",
        sol.objective(),
        clean.objective()
    );
    assert!(p.check_feasible(sol.values(), 1e-6).is_none());
    let (c, f) = (clean.stats(), sol.stats());
    assert!(
        f.dual_iters > 0,
        "the faulted solve must still reoptimize with the dual simplex: {f:?}"
    );
    assert_ne!(
        (f.simplex_iters, f.dual_iters),
        (c.simplex_iters, c.dual_iters),
        "the injected faults must have changed the pivot trajectory"
    );
}

#[test]
fn worker_panic_preserves_incumbent_and_optimum() {
    let p = hard_knapsack(20);
    let clean = solve_with(&p, no_cuts());
    assert_eq!(clean.status(), Status::Optimal);

    // One worker runs the same loop as four, so a panic must be isolated,
    // its node re-queued, and the worker restarted at either count.
    for threads in [1usize, 4] {
        let faults = FaultInjection::seeded(7).panic_worker(0);
        let sol = solve_with(&p, no_cuts().with_threads(threads).with_faults(faults));
        assert_eq!(sol.status(), Status::Optimal, "threads = {threads}");
        assert!(sol.status().has_solution());
        assert!(
            (sol.objective() - clean.objective()).abs() < 1e-6,
            "threads {}: after panic {} vs fault-free {}",
            threads,
            sol.objective(),
            clean.objective()
        );
        assert!(
            sol.stats().worker_panics >= 1,
            "threads {threads}: the injected panic must have fired and been isolated"
        );
        assert!(p.check_feasible(sol.values(), 1e-6).is_none());
    }
}

#[test]
fn every_worker_panicking_once_restarts_and_finishes() {
    let p = hard_knapsack(16);
    let clean = solve_with(&p, no_cuts());
    assert_eq!(clean.status(), Status::Optimal);

    // Every worker dies on the first node it claims; each re-queues its
    // node and restarts once, and the search must still finish with the
    // exact optimum. Worker 0 always claims the first node, so at least
    // its panic fires; a restarted worker may finish the tree before a
    // peer ever claims a node, so the other two are up to scheduling.
    let faults = FaultInjection::seeded(3)
        .panic_worker(0)
        .panic_worker(1)
        .panic_worker(2);
    let sol = solve_with(&p, no_cuts().with_threads(3).with_faults(faults));
    assert_eq!(sol.status(), Status::Optimal);
    assert!(
        (sol.objective() - clean.objective()).abs() < 1e-6,
        "after restarts {} vs fault-free {}",
        sol.objective(),
        clean.objective()
    );
    assert!((1..=3).contains(&sol.stats().worker_panics));
    assert!(p.check_feasible(sol.values(), 1e-6).is_none());
}

#[test]
fn all_workers_dying_leaves_a_resumable_limit() {
    let p = hard_knapsack(16);
    let plain = || no_cuts().with_heuristics(false);
    let clean = solve_with(&p, plain());
    assert_eq!(clean.status(), Status::Optimal);

    // Both workers panic on every node they claim until their one restart
    // is spent: no node is ever processed, and with no worker left the
    // search must report a limit (never a false optimum or infeasibility)
    // and leave a frame that resumes to the exact optimum.
    let path = std::env::temp_dir().join(format!("milp_dying_{}", std::process::id()));
    let faults = FaultInjection::seeded(9)
        .panic_worker(0)
        .panic_worker(0)
        .panic_worker(1)
        .panic_worker(1);
    let ck = milp::CheckpointConfig::new(path.clone());
    let sol = solve_with(
        &p,
        plain().with_threads(2).with_checkpoint(ck).with_faults(faults),
    );
    assert_eq!(sol.status(), Status::LimitNoSolution);
    assert_eq!(sol.stats().worker_panics, 4);
    assert_eq!(sol.stats().nodes, 0);
    assert!(sol.stats().checkpoints_written >= 1);

    let resumed = Solver::new(plain()).resume(&p, &path);
    for suffix in ["", ".prev", ".tmp"] {
        let _ = std::fs::remove_file(format!("{}{}", path.display(), suffix));
    }
    let resumed = resumed.expect("the wind-down frame loads");
    assert_eq!(resumed.status(), Status::Optimal);
    assert!(
        (resumed.objective() - clean.objective()).abs() < 1e-6,
        "resumed {} vs fault-free {}",
        resumed.objective(),
        clean.objective()
    );
}

#[test]
fn injected_near_parallel_cut_recovers() {
    let p = hard_knapsack(18);
    let clean = solve_with(&p, Config::default());
    assert_eq!(clean.status(), Status::Optimal);

    // The first root cut round appends an almost-identical copy of an
    // applied cut, bypassing the pool's parallelism filter. The resulting
    // near-singular basis must be absorbed by the recovery ladder and the
    // fault-free optimum restored.
    let faults = FaultInjection::seeded(5).inject_parallel_cut();
    let sol = solve_with(&p, Config::default().with_faults(faults));
    assert_eq!(sol.status(), Status::Optimal);
    assert!(
        (sol.objective() - clean.objective()).abs() < 1e-6,
        "with injected parallel cut {} vs fault-free {}",
        sol.objective(),
        clean.objective()
    );
    assert!(
        sol.stats().cuts_applied > clean.stats().cuts_applied,
        "the injected duplicate must actually have entered the LP"
    );
    assert!(p.check_feasible(sol.values(), 1e-6).is_none());
}

#[test]
fn cancel_token_stops_the_solve() {
    let p = hard_knapsack(24);
    let token = CancelToken::new();
    token.cancel(); // pre-cancelled: the solve must wind down immediately
    let sol = solve_with(
        &p,
        Config::default().with_threads(2).with_cancel(token),
    );
    assert!(
        matches!(
            sol.status(),
            Status::LimitFeasible | Status::LimitNoSolution
        ),
        "cancelled solve must report a limit status, got {}",
        sol.status()
    );
}

#[test]
fn cancel_token_is_shared_across_clones() {
    let token = CancelToken::new();
    let cfg = Config::default().with_cancel(token.clone());
    assert!(!cfg.is_cancelled());
    token.cancel();
    assert!(cfg.is_cancelled());
}

#[test]
fn injected_deadline_expiry_yields_limit_status() {
    let p = hard_knapsack(22);
    let faults = FaultInjection::seeded(11).expire_after_nodes(1);
    let sol = solve_with(&p, no_cuts().with_heuristics(false).with_faults(faults));
    assert!(
        matches!(
            sol.status(),
            Status::LimitFeasible | Status::LimitNoSolution
        ),
        "simulated expiry must degrade to a limit status, got {}",
        sol.status()
    );
    // Even on a timeout, what is reported must be consistent.
    if sol.status().has_solution() {
        assert!(p.check_feasible(sol.values(), 1e-6).is_none());
    }
}

#[test]
fn injected_deadline_expiry_in_parallel_search() {
    let p = hard_knapsack(22);
    let faults = FaultInjection::seeded(11).expire_after_nodes(2);
    let sol = solve_with(
        &p,
        no_cuts()
            .with_threads(4)
            .with_heuristics(false)
            .with_faults(faults),
    );
    assert!(
        matches!(
            sol.status(),
            Status::LimitFeasible | Status::LimitNoSolution
        ),
        "got {}",
        sol.status()
    );
}

#[test]
fn injected_cut_reopt_failure_recovers_to_clean_optimum() {
    // Cuts on: the first root cut round's reoptimization is forced to
    // fail, rolling the appended rows back; the search must still finish
    // with the fault-free optimum (cuts only ever strengthen the bound).
    let p = hard_knapsack(18);
    let clean = solve_with(&p, Config::default());
    assert_eq!(clean.status(), Status::Optimal);

    let faults = FaultInjection::seeded(13).fail_cut_reopt(1);
    let sol = solve_with(&p, Config::default().with_faults(faults));
    assert_eq!(sol.status(), Status::Optimal);
    assert!(
        (sol.objective() - clean.objective()).abs() < 1e-6,
        "after cut-round rollback {} vs fault-free {}",
        sol.objective(),
        clean.objective()
    );
    assert!(p.check_feasible(sol.values(), 1e-6).is_none());
}

mod pricing_rollback {
    //! Satellite: a failed reoptimization after a column splice must
    //! restore the exact pre-splice LP — the solve then equals one with
    //! column generation disabled, and a later-round failure keeps every
    //! earlier round's columns.

    use super::*;
    use milp::{ColumnSource, NewColumn, PriceInput, PricedBatch};

    /// Scripted source: each call pops the next batch.
    struct Scripted {
        batches: Vec<PricedBatch>,
    }

    impl ColumnSource for Scripted {
        fn price(&mut self, _input: &PriceInput<'_>) -> PricedBatch {
            if self.batches.is_empty() {
                PricedBatch::default()
            } else {
                self.batches.remove(0)
            }
        }
    }

    /// min 2x1 + 3x2 s.t. x1 + x2 >= 2 — optimum 4.0 restricted; a priced
    /// covering column of cost `c` drops it to `2c`.
    fn cover_problem() -> milp::Problem {
        let mut p = milp::Problem::new(Sense::Minimize);
        let x1 = p.add_var(Var::cont().bounds(0.0, 10.0).obj(2.0).name("x1"));
        let x2 = p.add_var(Var::cont().bounds(0.0, 10.0).obj(3.0).name("x2"));
        p.add_row(Row::new().coef(x1, 1.0).coef(x2, 1.0).ge(2.0));
        p
    }

    fn covering_col(obj: f64, name: &str) -> PricedBatch {
        PricedBatch {
            cols: vec![NewColumn {
                obj,
                lb: 0.0,
                ub: 10.0,
                integer: false,
                name: Some(name.into()),
                entries: vec![(0, 1.0)],
            }],
            rows: vec![],
        }
    }

    #[test]
    fn round_one_failure_equals_colgen_disabled_solve() {
        let p = cover_problem();
        // Reference: same problem with the source never consulted.
        let mut idle = Scripted { batches: vec![] };
        let off = Solver::new(Config::default().with_colgen(milp::ColGenConfig::off()))
            .solve_with_columns(&p, &mut idle);
        assert_eq!(off.status(), Status::Optimal);

        let mut src = Scripted {
            batches: vec![covering_col(1.0, "x3")],
        };
        let faults = FaultInjection::seeded(17).fail_pricing_reopt(1);
        let sol = Solver::new(Config::default().with_faults(faults))
            .solve_with_columns(&p, &mut src);
        assert_eq!(sol.status(), Status::Optimal);
        assert!(
            (sol.objective() - off.objective()).abs() < 1e-9,
            "rolled-back splice {} vs colgen-off {}",
            sol.objective(),
            off.objective()
        );
        assert_eq!(sol.stats().cols_priced, 0, "the spliced column must be gone");
        assert_eq!(
            sol.values().len(),
            2,
            "the solution vector must cover exactly the pre-splice LP"
        );
    }

    #[test]
    fn cancellation_mid_pricing_round_aborts_within_one_round() {
        // The cancel lands *inside* round 1 (after the oracle call, before
        // the splice): the loop must stop there — no column enters, and
        // round 2 never runs even though the source has more batches.
        let p = cover_problem();
        let mut src = Scripted {
            batches: vec![covering_col(1.0, "x3"), covering_col(0.5, "x4")],
        };
        let token = CancelToken::new();
        let faults =
            FaultInjection::seeded(23).cancel_in_pricing_round(1, token.clone());
        let sol = Solver::new(Config::default().with_faults(faults).with_cancel(token))
            .solve_with_columns(&p, &mut src);
        assert_eq!(sol.stats().pricing_rounds, 1, "must abort within round 1");
        assert_eq!(sol.stats().cols_priced, 0, "the cancelled round splices nothing");
        assert!(
            !src.batches.is_empty(),
            "round 2 must never consult the source"
        );
    }

    #[test]
    fn round_two_failure_retains_round_one_columns() {
        let p = cover_problem();
        let mut src = Scripted {
            batches: vec![covering_col(1.0, "x3"), covering_col(0.5, "x4")],
        };
        let faults = FaultInjection::seeded(19).fail_pricing_reopt(2);
        let sol = Solver::new(Config::default().with_faults(faults))
            .solve_with_columns(&p, &mut src);
        assert_eq!(sol.status(), Status::Optimal);
        // Round 1's column (cost 1, so objective 2.0) survives; round 2's
        // cheaper column was rolled back with its round.
        assert!(
            (sol.objective() - 2.0).abs() < 1e-9,
            "expected the round-1 optimum 2.0, got {}",
            sol.objective()
        );
        assert_eq!(sol.stats().cols_priced, 1);
        assert_eq!(sol.values().len(), 3);
    }
}

#[test]
fn cancellation_mid_cut_round_aborts_within_one_round() {
    // Cover cuts fire on hard_knapsack, and the default config runs up to
    // four root rounds. A cancel landing inside round 1 — after separation,
    // before the append + reoptimize — must stop the loop right there: one
    // round counted, zero cuts applied, and the search winds down with a
    // limit status instead of running the remaining rounds.
    let p = hard_knapsack(18);
    let token = CancelToken::new();
    let faults = FaultInjection::seeded(29).cancel_in_cut_round(1, token.clone());
    let sol = solve_with(&p, Config::default().with_faults(faults).with_cancel(token));
    assert_eq!(sol.stats().cut_rounds, 1, "must abort within round 1");
    assert_eq!(sol.stats().cuts_applied, 0, "the cancelled round appends nothing");
    assert!(
        matches!(sol.status(), Status::LimitFeasible | Status::LimitNoSolution),
        "cancellation must yield a limit status, got {:?}",
        sol.status()
    );
}

#[test]
fn warm_start_seeds_incumbent_and_matches_cold_optimum() {
    let p = hard_knapsack(18);
    let clean = solve_with(&p, Config::default());
    assert_eq!(clean.status(), Status::Optimal);

    let cfg = Config::default().with_warm_start(clean.values().to_vec());
    let sol = solve_with(&p, cfg);
    assert!(sol.stats().warm_seeded, "a feasible previous optimum must seed");
    assert_eq!(sol.status(), Status::Optimal);
    assert!((sol.objective() - clean.objective()).abs() < 1e-6);
    assert!(p.check_feasible(sol.values(), 1e-6).is_none());
}

#[test]
fn warm_start_is_returned_when_the_search_expires_immediately() {
    // Simulated expiry before any node: the only incumbent available at
    // wind-down (heuristics aside) is the seeded warm point, so the solve
    // must come back with a solution at least as good as the seed.
    let p = hard_knapsack(18);
    let clean = solve_with(&p, no_cuts());
    let faults = FaultInjection::seeded(31).expire_after_nodes(0);
    let mut cfg = no_cuts()
        .with_faults(faults)
        .with_warm_start(clean.values().to_vec());
    cfg.heuristics = milp::HeurConfig::off();
    let sol = solve_with(&p, cfg);
    assert!(sol.stats().warm_seeded);
    assert!(
        sol.status().has_solution(),
        "the warm incumbent must survive the expiry"
    );
    // Maximize sense: the returned incumbent can only match or beat the seed.
    assert!(sol.objective() >= clean.objective() - 1e-6);
}

#[test]
fn stale_warm_start_is_ignored_not_trusted() {
    // An all-ones point violates the knapsack capacity: the hint must be
    // dropped after re-validation and the solve must still reach the true
    // optimum cold.
    let p = hard_knapsack(18);
    let clean = solve_with(&p, Config::default());
    let bad = vec![1.0; 18];
    assert!(p.check_feasible(&bad, 1e-6).is_some(), "test premise: infeasible");
    let sol = solve_with(&p, Config::default().with_warm_start(bad));
    assert!(!sol.stats().warm_seeded, "an infeasible hint must not seed");
    assert_eq!(sol.status(), Status::Optimal);
    assert!((sol.objective() - clean.objective()).abs() < 1e-6);
}

#[test]
fn warm_start_wrong_length_is_ignored() {
    let p = hard_knapsack(12);
    let sol = solve_with(&p, Config::default().with_warm_start(vec![0.0; 5]));
    assert!(!sol.stats().warm_seeded);
    assert_eq!(sol.status(), Status::Optimal);
}

#[test]
fn lns_engine_panic_is_isolated_and_optimum_stands() {
    // The injected panic fires inside the LNS + tabu engine thread; the
    // exact search must be untouched (the engine only ever publishes) and
    // the panic counted like any worker panic.
    let p = hard_knapsack(18);
    let clean = solve_with(&p, no_cuts());
    assert_eq!(clean.status(), Status::Optimal);

    let faults = FaultInjection::seeded(11).panic_lns();
    let sol = solve_with(&p, no_cuts().with_faults(faults));
    assert_eq!(sol.status(), Status::Optimal);
    assert!(
        (sol.objective() - clean.objective()).abs() < 1e-6,
        "after LNS panic {} vs fault-free {}",
        sol.objective(),
        clean.objective()
    );
    assert!(
        sol.stats().worker_panics >= 1,
        "the injected LNS panic must have fired and been isolated"
    );
    assert!(p.check_feasible(sol.values(), 1e-6).is_none());
}

#[test]
fn lns_engine_panic_in_sync_mode_is_isolated_too() {
    let p = hard_knapsack(18);
    let faults = FaultInjection::seeded(11).panic_lns();
    let mut cfg = no_cuts().with_faults(faults);
    cfg.heuristics.sync = true;
    let sol = solve_with(&p, cfg);
    assert_eq!(sol.status(), Status::Optimal);
    assert!(sol.stats().worker_panics >= 1);
    assert!(p.check_feasible(sol.values(), 1e-6).is_none());
}

#[test]
fn prefired_cancel_stops_the_lns_engine_before_any_iteration() {
    // Cancellation is one of the engine's per-iteration stop conditions;
    // a token fired before the solve starts must keep it from running at
    // all (and wind the whole solve down as usual).
    let p = hard_knapsack(20);
    let token = CancelToken::new();
    token.cancel();
    let mut cfg = no_cuts().with_cancel(token);
    cfg.heuristics.sync = true; // engine runs (and must exit) before the search
    let sol = solve_with(&p, cfg);
    assert!(
        matches!(
            sol.status(),
            Status::LimitFeasible | Status::LimitNoSolution
        ),
        "pre-fired cancel must wind down, got {:?}",
        sol.status()
    );
    assert_eq!(
        sol.stats().lns_iters,
        0,
        "a pre-fired token must stop the engine before any destroy/repair"
    );
}

#[test]
fn injected_deadline_expiry_stops_the_lns_engine() {
    // The simulated-deadline hook counts engine iterations like tree
    // nodes: expiry after 0 means not a single destroy/repair runs.
    let p = hard_knapsack(18);
    let faults = FaultInjection::seeded(31).expire_after_nodes(0);
    let mut cfg = no_cuts().with_faults(faults);
    cfg.heuristics.sync = true;
    let sol = solve_with(&p, cfg);
    assert_eq!(sol.stats().lns_iters, 0);
    assert!(
        matches!(
            sol.status(),
            Status::LimitFeasible | Status::LimitNoSolution
        ),
        "simulated expiry must wind down, got {:?}",
        sol.status()
    );
}

mod determinism {
    use super::*;
    use proptest::prelude::*;

    /// Random binary knapsack-ish instances for the recovery-determinism
    /// property.
    fn instance() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, f64)> {
        (3usize..=9).prop_flat_map(|n| {
            let obj = prop::collection::vec(0.5..6.0f64, n);
            let wts = prop::collection::vec(0.5..4.0f64, n);
            (obj, wts, 2.0..10.0f64)
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
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Under seeded fault injection, a run that recovers must report
        /// exactly the same status and optimal objective as a fault-free
        /// run: recovery is invisible to the caller.
        #[test]
        fn recovery_is_deterministic((obj, wts, cap) in instance(), seed in 0u64..1000) {
            let p = build(&obj, &wts, cap);
            let clean = Solver::new(Config::default()).solve(&p);
            let faults = FaultInjection::seeded(seed)
                .lu_singular_on(1)
                .lu_singular_on(2)
                .lu_singular_on(4);
            let faulty = Solver::new(Config::default().with_faults(faults)).solve(&p);
            prop_assert_eq!(clean.status(), faulty.status());
            if clean.status().has_solution() {
                prop_assert!(
                    (clean.objective() - faulty.objective()).abs() < 1e-6,
                    "fault-free {} vs recovered {}", clean.objective(), faulty.objective()
                );
            }
        }
    }
}
