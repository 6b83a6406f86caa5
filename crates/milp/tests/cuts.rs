//! Cutting-plane correctness tests.
//!
//! Three layers: a hand-computed Gomory mixed-integer cut on a textbook
//! 2-variable LP (checked coefficient-by-coefficient against the pencil
//! derivation), a check that every root cover and Gomory cut holds at each
//! integer-feasible point of small seeded instances (enumerated), and
//! property tests asserting that branch and bound reaches the same optimum
//! with cuts on and off — cuts may only tighten the relaxation, never
//! change the integer optimum.

use milp::config::{Config, CutConfig};
use milp::cuts::{
    cover::separate_cover, gomory::separate_gomory, run_root_cuts, CutContext, CutPool, SepInput,
};
use milp::simplex::{solve_lp, LpData, LpStatus};
use milp::sparse::TripletBuilder;
use milp::{Problem, Row, Sense, Solver, Stats, Status, Var, VarId};
use proptest::prelude::*;

const INF: f64 = f64::INFINITY;

/// The textbook instance:
///
/// ```text
/// max  x + y
/// s.t. 2x + 3y <= 12
///      3x + 2y <= 12
///      x, y in {0, ..., 10}
/// ```
///
/// The LP relaxation is optimal at (2.4, 2.4). By hand, the GMI cut from
/// the tableau row of `x` (basis {x, y}, both slacks at their upper bound,
/// B^-1 = [[-0.4, 0.6], [0.6, -0.4]]):
///
/// ```text
/// x + 0.4 s1 - 0.6 s2 = 0,   f0 = frac(2.4) = 0.4,  mul = 2/3
/// t1 = 12 - s1 (continuous, ahat = -0.4 < 0):  gamma1 = 2/3 * 0.4 = 4/15
/// t2 = 12 - s2 (continuous, ahat =  0.6 >= 0): gamma2 = 0.6
/// (4/15) t1 + 0.6 t2 >= 0.4
/// ```
///
/// Unshifting and eliminating s1 = 2x + 3y, s2 = 3x + 2y gives
/// `-(7/3) x - 2 y >= -10`, i.e. `7x + 6y <= 30`. The row of `y` is
/// symmetric: `6x + 7y <= 30`.
fn textbook_lp() -> LpData {
    let mut b = TripletBuilder::new(2, 2);
    b.push(0, 0, 2.0);
    b.push(0, 1, 3.0);
    b.push(1, 0, 3.0);
    b.push(1, 1, 2.0);
    LpData {
        a: b.build(),
        c: vec![-1.0, -1.0], // minimize -x - y
        row_lb: vec![-INF, -INF],
        row_ub: vec![12.0, 12.0],
    }
}

fn textbook_problem() -> Problem {
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var(Var::integer().bounds(0.0, 10.0).obj(1.0));
    let y = p.add_var(Var::integer().bounds(0.0, 10.0).obj(1.0));
    p.add_row(Row::new().coef(x, 2.0).coef(y, 3.0).le(12.0));
    p.add_row(Row::new().coef(x, 3.0).coef(y, 2.0).le(12.0));
    p
}

#[test]
fn gomory_cut_matches_hand_derivation() {
    let lp = textbook_lp();
    let lo = vec![0.0, 0.0];
    let hi = vec![10.0, 10.0];
    let cfg = Config::default();
    let r = solve_lp(&lp, &lo, &hi, &cfg, None, None).expect("textbook LP solves");
    assert_eq!(r.status, LpStatus::Optimal);
    assert!((r.x[0] - 2.4).abs() < 1e-9 && (r.x[1] - 2.4).abs() < 1e-9);

    let ctx = CutContext::from_problem(&textbook_problem());
    let inp = SepInput {
        lp: &lp,
        var_lb: &lo,
        var_ub: &hi,
        x: &r.x,
        statuses: &r.statuses,
        cfg: &cfg,
        max_cuts: 10,
    };
    let mut out = Vec::new();
    separate_gomory(&inp, &ctx, &mut out);
    assert_eq!(out.len(), 2, "one GMI cut per fractional basic variable");

    // Each cut is g^T x >= d; normalize to `a x + b y <= rhs` with a
    // positive leading coefficient and compare against the hand result.
    let mut normalized: Vec<(f64, f64, f64)> = out
        .iter()
        .map(|cut| {
            assert_eq!(cut.ub, INF);
            assert_eq!(cut.coefs.len(), 2);
            assert_eq!((cut.coefs[0].0, cut.coefs[1].0), (0, 1));
            // -g x >= -d  ->  scale so the x coefficient becomes exact.
            let s = -3.0;
            (s * cut.coefs[0].1, s * cut.coefs[1].1, s * cut.lb)
        })
        .collect();
    normalized.sort_by(|a, b| a.0.total_cmp(&b.0));
    let [(a0, b0, r0), (a1, b1, r1)] = normalized[..] else {
        unreachable!()
    };
    assert!((a0 - 6.0).abs() < 1e-9 && (b0 - 7.0).abs() < 1e-9 && (r0 - 30.0).abs() < 1e-9);
    assert!((a1 - 7.0).abs() < 1e-9 && (b1 - 6.0).abs() < 1e-9 && (r1 - 30.0).abs() < 1e-9);

    for cut in &out {
        // Violated at the fractional LP optimum by exactly f0 = 0.4 ...
        assert!((cut.violation(&r.x) - 0.4).abs() < 1e-9);
        // ... and valid at every integer-feasible point.
        for x in 0..=4i64 {
            for y in 0..=4i64 {
                if 2 * x + 3 * y <= 12 && 3 * x + 2 * y <= 12 {
                    let point = [x as f64, y as f64];
                    assert!(
                        cut.violation(&point) <= 1e-9,
                        "cut cuts off integer point ({x}, {y})"
                    );
                }
            }
        }
    }
}

#[test]
fn cuts_close_the_textbook_gap_at_the_root() {
    let p = textbook_problem();
    let off = Solver::new(Config::default().with_cuts(CutConfig::off())).solve(&p);
    let on = Solver::new(Config::default()).solve(&p);
    assert_eq!(off.status(), Status::Optimal);
    assert_eq!(on.status(), Status::Optimal);
    assert!((on.objective() - off.objective()).abs() < 1e-6);
    // LP bound 4.8 vs integer optimum 4: without cuts the root gap is real.
    assert!(off.stats().root_gap > 0.1);
    assert!(on.stats().cuts_applied > 0);
    assert!(
        on.stats().root_gap < off.stats().root_gap,
        "cut rounds must tighten the root bound: {} vs {}",
        on.stats().root_gap,
        off.stats().root_gap
    );
}

/// Seeded knapsack instances: a weight row over binary variables plus
/// one-of-pair disjunction rows, so both separators have material to work
/// with.
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
    for pair in vars.chunks(2) {
        if let [a, b] = pair {
            p.add_row(Row::new().coef(*a, 1.0).coef(*b, 1.0).le(1.0));
        }
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cuts on and off reach the same status and optimum: cuts are valid
    /// inequalities, so they tighten the relaxation without excluding any
    /// integer solution.
    #[test]
    fn cuts_preserve_the_optimum((obj, wts, cap) in instance()) {
        let p = build(&obj, &wts, cap);
        let off = Solver::new(Config::default().with_cuts(CutConfig::off())).solve(&p);
        let on = Solver::new(Config::default()).solve(&p);
        prop_assert_eq!(off.status(), on.status());
        if off.status().has_solution() {
            prop_assert!(
                (off.objective() - on.objective()).abs() < 1e-6,
                "cuts-off {} vs cuts-on {}",
                off.objective(), on.objective()
            );
            prop_assert!(p.check_feasible(on.values(), 1e-6).is_none());
        }
    }

    /// Each separator's cuts at the root LP point, and every cut the root
    /// loop applies over its rounds, hold at each integer-feasible point
    /// of the instance (all `2^n` binary points, `n <= 9`, enumerated).
    #[test]
    fn root_cuts_hold_at_every_integer_point((obj, wts, cap) in instance()) {
        let p = build(&obj, &wts, cap);
        let n = p.num_vars();
        let (row_lb, row_ub) = p.row_ids().map(|r| p.row_bounds(r)).unzip();
        let mut lp = LpData {
            a: p.matrix(),
            c: p.objective().iter().map(|&v| -v).collect(), // maximize
            row_lb,
            row_ub,
        };
        let (lo, hi) = (vec![0.0; n], vec![1.0; n]);
        let cfg = Config::default();
        let mut root = solve_lp(&lp, &lo, &hi, &cfg, None, None).expect("root LP solves");
        prop_assert_eq!(root.status, LpStatus::Optimal);
        let ctx = CutContext::from_problem(&p);
        let inp = SepInput {
            lp: &lp,
            var_lb: &lo,
            var_ub: &hi,
            x: &root.x,
            statuses: &root.statuses,
            cfg: &cfg,
            max_cuts: 50,
        };
        let (mut cover, mut gomory) = (Vec::new(), Vec::new());
        separate_cover(&ctx, inp.x, inp.max_cuts, &mut cover);
        separate_gomory(&inp, &ctx, &mut gomory);
        let mut pool = CutPool::new();
        run_root_cuts(&mut lp, &lo, &hi, &cfg, &ctx, &mut root, &mut pool, None, &mut Stats::default());
        let sets = [("cover", &cover[..]), ("gomory", &gomory[..]), ("applied", pool.applied())];
        for bits in 0..1u32 << n {
            let x: Vec<f64> = (0..n).map(|j| f64::from((bits >> j) & 1)).collect();
            if p.check_feasible(&x, 1e-9).is_some() {
                continue;
            }
            for (name, cuts) in sets {
                for cut in cuts {
                    prop_assert!(
                        cut.violation(&x) <= 1e-6,
                        "{} cut {:?} cuts off integer point {:?}", name, cut, x
                    );
                }
            }
        }
    }
}
