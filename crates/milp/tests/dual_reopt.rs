//! Dual-simplex reoptimization tests.
//!
//! Warm-started solves after bound changes in *both* directions
//! (tightening, as in branching, and relaxation, as in backtracking) must
//! agree with cold solves (no warm basis, so primal Phase 1 + 2) on raw
//! LPs through [`solve_lp`]; full MILP solves through the solver facade
//! must reach the optimum found by brute-force enumeration. The
//! random-knapsack generator and rounding discipline match
//! `fault_injection.rs` so the instances line up across suites.

use milp::simplex::{solve_lp, LpData, LpStatus};
use milp::sparse::TripletBuilder;
use milp::{Config, CutConfig, Problem, Row, Sense, Solver, Status, Var, VarId};
use proptest::prelude::*;

const INF: f64 = f64::INFINITY;

/// min -2x - 3y - z  s.t.  x + y + z <= 6,  x + 2y <= 5  (box bounds per call).
fn small_lp() -> LpData {
    let mut b = TripletBuilder::new(2, 3);
    b.push(0, 0, 1.0);
    b.push(0, 1, 1.0);
    b.push(0, 2, 1.0);
    b.push(1, 0, 1.0);
    b.push(1, 1, 2.0);
    LpData {
        a: b.build(),
        c: vec![-2.0, -3.0, -1.0],
        row_lb: vec![-INF, -INF],
        row_ub: vec![6.0, 5.0],
    }
}

/// Best objective of the 0/1 knapsack `max obj·x  s.t.  wts·x <= cap`, by
/// enumerating every subset.
fn enumerate_knapsack(obj: &[f64], wts: &[f64], cap: f64) -> f64 {
    let n = obj.len();
    let mut best = 0.0f64;
    for mask in 0u32..(1 << n) {
        let (mut w, mut v) = (0.0, 0.0);
        for j in (0..n).filter(|&j| mask & (1 << j) != 0) {
            w += wts[j];
            v += obj[j];
        }
        if w <= cap + 1e-9 {
            best = best.max(v);
        }
    }
    best
}

#[test]
fn warm_start_after_bound_tightening_agrees_with_cold() {
    let lp = small_lp();
    let cfg = Config::default();
    let r0 = solve_lp(&lp, &[0.0; 3], &[4.0; 3], &cfg, None, None).unwrap();
    assert_eq!(r0.status, LpStatus::Optimal);
    // Tighten x <= 1 (the branching case): warm dual vs cold primal.
    let warm = solve_lp(
        &lp,
        &[0.0; 3],
        &[1.0, 4.0, 4.0],
        &cfg,
        Some(&r0.statuses),
        None,
    )
    .unwrap();
    let cold = solve_lp(&lp, &[0.0; 3], &[1.0, 4.0, 4.0], &cfg, None, None).unwrap();
    assert_eq!(warm.status, LpStatus::Optimal);
    assert_eq!(cold.status, LpStatus::Optimal);
    assert!(
        (warm.obj - cold.obj).abs() < 1e-7,
        "warm {} vs cold {}",
        warm.obj,
        cold.obj
    );
}

#[test]
fn warm_start_after_bound_relaxation_agrees_with_cold() {
    let lp = small_lp();
    let cfg = Config::default();
    // Start tight: every variable capped at 1.
    let tight = solve_lp(&lp, &[0.0; 3], &[1.0; 3], &cfg, None, None).unwrap();
    assert_eq!(tight.status, LpStatus::Optimal);
    // Relax the caps back to 4: nonbasic-at-upper variables jump to the new
    // bound, which can push basics out of range — the warm solve must still
    // land on the cold optimum.
    let warm = solve_lp(&lp, &[0.0; 3], &[4.0; 3], &cfg, Some(&tight.statuses), None).unwrap();
    let cold = solve_lp(&lp, &[0.0; 3], &[4.0; 3], &cfg, None, None).unwrap();
    assert_eq!(warm.status, LpStatus::Optimal);
    assert!(
        (warm.obj - cold.obj).abs() < 1e-7,
        "relaxed warm {} vs cold {}",
        warm.obj,
        cold.obj
    );
    // And relaxing a lower bound (after a branch-up) works the same way.
    let up = solve_lp(
        &lp,
        &[2.0, 0.0, 0.0],
        &[4.0; 3],
        &cfg,
        Some(&cold.statuses),
        None,
    )
    .unwrap();
    let back = solve_lp(&lp, &[0.0; 3], &[4.0; 3], &cfg, Some(&up.statuses), None).unwrap();
    assert_eq!(back.status, LpStatus::Optimal);
    assert!((back.obj - cold.obj).abs() < 1e-7);
}

/// The data of a knapsack hard enough to branch for real (same shape as
/// the fault-injection suite's `hard_knapsack`): objective, weights,
/// capacity.
fn hard_knapsack_data(n: usize) -> (Vec<f64>, Vec<f64>, f64) {
    let obj = (0..n).map(|i| 1.0 + ((i * 31) % 11) as f64 / 3.0).collect();
    let wts = (0..n).map(|i| 1.0 + ((i * 17) % 7) as f64 / 2.0).collect();
    (obj, wts, (2 * n) as f64 * 0.6)
}

fn hard_knapsack(n: usize) -> Problem {
    let (obj, wts, cap) = hard_knapsack_data(n);
    let mut p = Problem::new(Sense::Maximize);
    let mut row = Row::new().le(cap);
    for (&c, &w) in obj.iter().zip(&wts) {
        let v = p.add_var(Var::binary().obj(c));
        row = row.coef(v, w);
    }
    p.add_row(row);
    p
}

#[test]
fn dual_reoptimizer_runs_in_branch_and_bound() {
    let p = hard_knapsack(18);
    let s = Solver::new(Config::default().with_heuristics(false)).solve(&p);
    assert_eq!(s.status(), Status::Optimal);
    let (obj, wts, cap) = hard_knapsack_data(18);
    let best = enumerate_knapsack(&obj, &wts, cap);
    assert!((best - 34.666667).abs() < 1e-6, "enumerated optimum {best}");
    assert!(
        (s.objective() - best).abs() < 1e-6,
        "solver {} vs enumerated {}",
        s.objective(),
        best
    );
    // Child nodes inherit a dual-feasible parent basis, so the search must
    // actually exercise the dual path.
    assert!(
        s.stats().dual_iters > 0,
        "expected dual pivots in the tree search, stats: {:?}",
        s.stats()
    );
}

mod agreement {
    use super::*;

    /// Same strategy as `fault_injection.rs::determinism::instance`.
    fn instance() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, f64)> {
        (3usize..=9).prop_flat_map(|n| {
            let obj = prop::collection::vec(0.5..6.0f64, n);
            let wts = prop::collection::vec(0.5..4.0f64, n);
            (obj, wts, 2.0..10.0f64)
        })
    }

    /// Rounds to a multiple of 1/8 (exact in binary floating point).
    fn eighths(v: f64) -> f64 {
        (v * 8.0).round() / 8.0
    }

    fn build_milp(obj: &[f64], wts: &[f64], cap: f64) -> Problem {
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<VarId> = obj
            .iter()
            .map(|&c| p.add_var(Var::binary().obj(eighths(c))))
            .collect();
        let mut row = Row::new().le(cap);
        for (v, &w) in vars.iter().zip(wts) {
            row = row.coef(*v, eighths(w));
        }
        p.add_row(row);
        p
    }

    /// The LP relaxation of the same instance in minimize form.
    fn build_lp(obj: &[f64], wts: &[f64], cap: f64) -> LpData {
        let n = obj.len();
        let mut b = TripletBuilder::new(1, n);
        for (j, &w) in wts.iter().enumerate() {
            b.push(0, j, eighths(w));
        }
        LpData {
            a: b.build(),
            c: obj.iter().map(|&c| -eighths(c)).collect(),
            row_lb: vec![-INF],
            row_ub: vec![cap],
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Branch-style child solves (down: ub -> 0, up: lb -> 1) via warm
        /// dual reoptimization must agree with cold solves (no warm basis).
        #[test]
        fn dual_warm_children_agree_with_cold_primal(
            (obj, wts, cap) in instance(),
            branch_var in 0usize..9,
        ) {
            let lp = build_lp(&obj, &wts, cap);
            let n = lp.num_vars();
            let j = branch_var % n;
            let lo = vec![0.0; n];
            let hi = vec![1.0; n];
            let cfg = Config::default();
            let root = solve_lp(&lp, &lo, &hi, &cfg, None, None).unwrap();
            prop_assert_eq!(root.status, LpStatus::Optimal);

            let mut hi_down = hi.clone();
            hi_down[j] = 0.0;
            let warm = solve_lp(&lp, &lo, &hi_down, &cfg, Some(&root.statuses), None).unwrap();
            let cold = solve_lp(&lp, &lo, &hi_down, &cfg, None, None).unwrap();
            prop_assert_eq!(warm.status, cold.status);
            if warm.status == LpStatus::Optimal {
                prop_assert!((warm.obj - cold.obj).abs() < 1e-6,
                    "down-child warm {} vs cold {}", warm.obj, cold.obj);
            }

            let mut lo_up = lo.clone();
            lo_up[j] = 1.0;
            let warm = solve_lp(&lp, &lo_up, &hi, &cfg, Some(&root.statuses), None).unwrap();
            let cold = solve_lp(&lp, &lo_up, &hi, &cfg, None, None).unwrap();
            prop_assert_eq!(warm.status, cold.status);
            if warm.status == LpStatus::Optimal {
                prop_assert!((warm.obj - cold.obj).abs() < 1e-6,
                    "up-child warm {} vs cold {}", warm.obj, cold.obj);
            }
        }

        /// The default solve and a cut-free, heuristic-free solve (every
        /// incumbent then comes from a node LP and reduced-cost fixing runs
        /// in the tree) both reach the optimum found by enumerating every
        /// subset.
        #[test]
        fn milp_optimum_invariant_under_solver_knobs((obj, wts, cap) in instance()) {
            let p = build_milp(&obj, &wts, cap);
            let obj8: Vec<f64> = obj.iter().map(|&c| eighths(c)).collect();
            let wts8: Vec<f64> = wts.iter().map(|&w| eighths(w)).collect();
            let best = enumerate_knapsack(&obj8, &wts8, cap);
            let plain = Config::default().with_cuts(CutConfig::off()).with_heuristics(false);
            for cfg in [Config::default(), plain] {
                let s = Solver::new(cfg).solve(&p);
                prop_assert_eq!(s.status(), Status::Optimal);
                prop_assert!(
                    (s.objective() - best).abs() < 1e-6,
                    "solver {} vs enumerated {}", s.objective(), best
                );
            }
        }
    }
}
