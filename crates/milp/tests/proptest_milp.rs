//! Property tests: the branch-and-bound solver must agree with brute-force
//! enumeration on randomly generated small MILPs.
//!
//! These tests exercise the full stack (presolve, simplex phases 1 and 2,
//! warm starts, heuristics, branching) because any defect in an LP bound or
//! pruning rule shows up as a mismatch against the enumerated optimum.

use milp::{Config, Problem, Row, Sense, Solver, Status, Var, VarId};
use proptest::prelude::*;

/// A randomly generated pure-binary MILP instance.
#[derive(Debug, Clone)]
struct BinaryInstance {
    nvars: usize,
    obj: Vec<f64>,
    rows: Vec<(Vec<f64>, f64, f64)>, // coefs, lo, hi
    maximize: bool,
}

fn binary_instance() -> impl Strategy<Value = BinaryInstance> {
    (2usize..=8, 1usize..=5, any::<bool>()).prop_flat_map(|(nvars, nrows, maximize)| {
        let obj = prop::collection::vec(-5.0..5.0f64, nvars);
        let coefs = prop::collection::vec(prop::collection::vec(-3.0..3.0f64, nvars), nrows);
        let senses = prop::collection::vec((0..3, -4.0..4.0f64), nrows);
        (obj, coefs, senses).prop_map(move |(obj, coefs, senses)| {
            let rows = coefs
                .into_iter()
                .zip(senses)
                .map(|(c, (kind, rhs))| {
                    // round coefficients to one decimal to avoid borderline
                    // floating-point feasibility ties with the enumerator
                    let c: Vec<f64> = c.iter().map(|v| (v * 10.0).round() / 10.0).collect();
                    let rhs = (rhs * 10.0).round() / 10.0;
                    match kind {
                        0 => (c, f64::NEG_INFINITY, rhs), // <=
                        1 => (c, rhs, f64::INFINITY),     // >=
                        _ => (c, rhs - 1.0, rhs + 1.0),   // range
                    }
                })
                .collect();
            let obj = obj.iter().map(|v| (v * 10.0).round() / 10.0).collect();
            BinaryInstance {
                nvars,
                obj,
                rows,
                maximize,
            }
        })
    })
}

fn build(inst: &BinaryInstance) -> (Problem, Vec<VarId>) {
    let sense = if inst.maximize {
        Sense::Maximize
    } else {
        Sense::Minimize
    };
    let mut p = Problem::new(sense);
    let vars: Vec<VarId> = inst
        .obj
        .iter()
        .map(|&c| p.add_var(Var::binary().obj(c)))
        .collect();
    for (coefs, lo, hi) in &inst.rows {
        let mut row = Row::new().range(*lo, *hi);
        for (v, &c) in vars.iter().zip(coefs) {
            row = row.coef(*v, c);
        }
        p.add_row(row);
    }
    (p, vars)
}

/// Brute-force optimum over all 2^n binary assignments.
fn enumerate(inst: &BinaryInstance) -> Option<f64> {
    let n = inst.nvars;
    let mut best: Option<f64> = None;
    for mask in 0u32..(1 << n) {
        let x: Vec<f64> = (0..n)
            .map(|j| if mask & (1 << j) != 0 { 1.0 } else { 0.0 })
            .collect();
        let feasible = inst.rows.iter().all(|(coefs, lo, hi)| {
            let act: f64 = coefs.iter().zip(&x).map(|(c, v)| c * v).sum();
            act >= lo - 1e-9 && act <= hi + 1e-9
        });
        if feasible {
            let obj: f64 = inst.obj.iter().zip(&x).map(|(c, v)| c * v).sum();
            best = Some(match best {
                None => obj,
                Some(b) => {
                    if inst.maximize {
                        b.max(obj)
                    } else {
                        b.min(obj)
                    }
                }
            });
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn solver_matches_enumeration_on_binary_milps(inst in binary_instance()) {
        let (p, _) = build(&inst);
        let sol = Solver::new(Config::default()).solve(&p);
        match enumerate(&inst) {
            None => {
                prop_assert_eq!(sol.status(), Status::Infeasible);
            }
            Some(opt) => {
                prop_assert_eq!(sol.status(), Status::Optimal);
                prop_assert!((sol.objective() - opt).abs() < 1e-5,
                    "solver {} vs enumeration {}", sol.objective(), opt);
                // and the reported vector must itself be feasible
                prop_assert!(p.check_feasible(sol.values(), 1e-5).is_none());
            }
        }
    }

    #[test]
    fn presolve_off_agrees_with_presolve_on(inst in binary_instance()) {
        let (p, _) = build(&inst);
        let with = Solver::new(Config::default()).solve(&p);
        let without = Solver::new(Config::default().with_presolve(false)).solve(&p);
        prop_assert_eq!(with.status(), without.status());
        if with.status() == Status::Optimal {
            prop_assert!((with.objective() - without.objective()).abs() < 1e-5,
                "with presolve {} vs without {}", with.objective(), without.objective());
        }
    }

    #[test]
    fn heuristics_do_not_change_the_optimum(inst in binary_instance()) {
        let (p, _) = build(&inst);
        let on = Solver::new(Config::default()).solve(&p);
        let off = Solver::new(Config::default().with_heuristics(false)).solve(&p);
        prop_assert_eq!(on.status(), off.status());
        if on.status() == Status::Optimal {
            prop_assert!((on.objective() - off.objective()).abs() < 1e-5);
        }
    }

    /// With the default configuration a one-worker solve is a pure
    /// function of the problem and the configuration: it spawns no thread
    /// and reads the clock for no decision, so two runs repeat exactly,
    /// work counts included. More workers reach the same objective.
    #[test]
    fn one_worker_solves_repeat_and_thread_counts_agree(inst in binary_instance()) {
        let (p, _) = build(&inst);
        let solve = |threads: usize| Solver::new(Config::default().with_threads(threads)).solve(&p);
        let base = solve(1);
        let again = solve(1);
        prop_assert_eq!(again.status(), base.status());
        let work = |s: &milp::Stats| {
            [s.nodes, s.simplex_iters, s.dual_iters, s.rc_fixed, s.lp_solves]
        };
        prop_assert_eq!(work(again.stats()), work(base.stats()));
        for threads in [2usize, 4] {
            let sol = solve(threads);
            prop_assert_eq!(sol.status(), base.status());
            if base.status() == Status::Optimal {
                prop_assert!((sol.objective() - base.objective()).abs() < 1e-6,
                    "threads {}: {} vs single-threaded {}",
                    threads, sol.objective(), base.objective());
            }
        }
    }

    /// Every incumbent the solver returns when the exact search is starved
    /// to one node (root rounding or that node's LP) is actually feasible.
    #[test]
    fn node_limited_incumbents_are_feasible(inst in binary_instance()) {
        let (p, _) = build(&inst);
        // Starve the exact search; rounding carries.
        let sol = Solver::new(Config::default().with_node_limit(1)).solve(&p);
        if sol.status().has_solution() {
            prop_assert!(p.check_feasible(sol.values(), 1e-5).is_none(),
                "published incumbent violates the problem");
        }
    }

    #[test]
    fn thread_count_does_not_change_the_optimum(inst in binary_instance()) {
        let (p, _) = build(&inst);
        let opt = enumerate(&inst);
        for threads in [1usize, 2, 4] {
            let sol = Solver::new(Config::default().with_threads(threads)).solve(&p);
            match opt {
                None => prop_assert_eq!(sol.status(), Status::Infeasible),
                Some(opt) => {
                    prop_assert_eq!(sol.status(), Status::Optimal);
                    prop_assert!((sol.objective() - opt).abs() < 1e-6,
                        "threads {}: solver {} vs enumeration {}",
                        threads, sol.objective(), opt);
                    prop_assert!(p.check_feasible(sol.values(), 1e-5).is_none());
                }
            }
        }
    }
}

/// Small general-integer instances (bounds 0..=3) against enumeration.
#[derive(Debug, Clone)]
struct IntInstance {
    obj: Vec<f64>,
    rows: Vec<(Vec<f64>, f64)>, // <= rhs
}

fn int_instance() -> impl Strategy<Value = IntInstance> {
    (2usize..=4, 1usize..=3).prop_flat_map(|(nvars, nrows)| {
        let obj = prop::collection::vec(-4.0..4.0f64, nvars);
        let coefs = prop::collection::vec(prop::collection::vec(0.0..3.0f64, nvars), nrows);
        let rhs = prop::collection::vec(1.0..9.0f64, nrows);
        (obj, coefs, rhs).prop_map(|(obj, coefs, rhs)| IntInstance {
            obj: obj.iter().map(|v| (v * 4.0).round() / 4.0).collect(),
            rows: coefs
                .into_iter()
                .zip(rhs)
                .map(|(c, r)| {
                    (
                        c.iter().map(|v| (v * 4.0).round() / 4.0).collect(),
                        (r * 4.0).round() / 4.0,
                    )
                })
                .collect(),
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn solver_matches_enumeration_on_integer_milps(inst in int_instance()) {
        let n = inst.obj.len();
        let mut p = Problem::new(Sense::Minimize);
        let vars: Vec<VarId> = inst
            .obj
            .iter()
            .map(|&c| p.add_var(Var::integer().bounds(0.0, 3.0).obj(c)))
            .collect();
        for (coefs, rhs) in &inst.rows {
            let mut row = Row::new().le(*rhs);
            for (v, &c) in vars.iter().zip(coefs) {
                row = row.coef(*v, c);
            }
            p.add_row(row);
        }
        let sol = Solver::new(Config::default()).solve(&p);

        // enumerate 4^n points
        let mut best = f64::INFINITY;
        let mut counter = vec![0u8; n];
        loop {
            let x: Vec<f64> = counter.iter().map(|&v| v as f64).collect();
            let ok = inst.rows.iter().all(|(coefs, rhs)| {
                coefs.iter().zip(&x).map(|(c, v)| c * v).sum::<f64>() <= rhs + 1e-9
            });
            if ok {
                best = best.min(inst.obj.iter().zip(&x).map(|(c, v)| c * v).sum());
            }
            // increment base-4 counter
            let mut i = 0;
            loop {
                if i == n { break; }
                counter[i] += 1;
                if counter[i] <= 3 { break; }
                counter[i] = 0;
                i += 1;
            }
            if i == n { break; }
        }
        // all-zero is always feasible here (rhs >= 1 > 0), so a solution exists
        prop_assert_eq!(sol.status(), Status::Optimal);
        prop_assert!((sol.objective() - best).abs() < 1e-5,
            "solver {} vs enumeration {}", sol.objective(), best);
    }
}
