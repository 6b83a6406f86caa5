//! LP certificates on encoded office models.
//!
//! For a few data-collection designs on the standard office floor, the
//! root relaxation is built the way the branch-and-bound driver builds its
//! base LP (presolve, then minimize-sense costs over the reduced problem)
//! and solved cold; twenty children that each differ from the root by one
//! bound are then re-solved warm from the root basis, the dual simplex
//! path, and cold. Every `Optimal` result must pass
//! [`certificate_violation`], and warm and cold children must agree.

use archex::encode::{encode, EncodeMode};
use archex::requirements::Requirements;
use archex::template::NetworkTemplate;
use channel::{LogDistance, MultiWall};
use devlib::catalog;
use floorplan::generate::{data_collection_markers, office_floor, OfficeParams};
use milp::presolve::presolve;
use milp::simplex::{certificate_violation, solve_lp, LpData, LpResult, LpStatus};
use milp::{Config, Sense, VarId, VarType};

const SPEC: &str = "set noise_dbm = -100\n\
    set bit_rate_kbps = 250\n\
    set packet_bytes = 50\n\
    set slot_ms = 1\n\
    set slots_per_frame = 16\n\
    set period_s = 30\n\
    set battery_mah = 3000\n\
    set modulation = qpsk\n\
    routes  = has_path(sensors, sink)\n\
    routes2 = has_path(sensors, sink)\n\
    disjoint_links(routes, routes2)\n\
    min_signal_to_noise(20)\n\
    min_network_lifetime(5)\n\
    objective minimize cost\n";

/// `sensors` end devices, a sink and `relays` relay candidates on the
/// office floor, with multi-wall path loss and pruned links.
fn office(sensors: usize, relays: usize, req: &Requirements) -> NetworkTemplate {
    let rx = (relays as f64).sqrt().ceil() as usize;
    let ry = relays.div_ceil(rx);
    let mut plan = office_floor(&OfficeParams::default());
    data_collection_markers(&mut plan, sensors, (rx, ry));
    let mut template = NetworkTemplate::from_plan(&plan);
    let base = LogDistance::at_frequency(req.params.freq_hz, req.params.pl_exponent);
    template.compute_path_loss(&MultiWall::new(base, &plan).cached());
    template.prune_links(
        &catalog::zigbee_reference(),
        req.params.noise_dbm,
        req.effective_min_snr_db(),
    );
    template
}

/// The presolved root LP, its bounds and its integer columns.
fn root_lp(sensors: usize, relays: usize) -> (LpData, Vec<f64>, Vec<f64>, Vec<usize>) {
    let req = Requirements::from_spec_text(SPEC).expect("spec parses");
    let t = office(sensors, relays, &req);
    let lib = catalog::zigbee_reference();
    let enc = encode(&t, &lib, &req, EncodeMode::Approx { kstar: 10 }).expect("encodes");
    let problem = enc.model.problem();
    let minimize = problem.sense() == Sense::Minimize;
    let ps = presolve(problem, minimize);
    assert_eq!(ps.conclusion, None, "presolve decided the model");
    let red = &ps.reduced;
    let sign = if minimize { 1.0 } else { -1.0 };
    let (row_lb, row_ub) = red.row_ids().map(|r| red.row_bounds(r)).unzip();
    let lp = LpData {
        a: red.matrix(),
        c: red.objective().iter().map(|&v| sign * v).collect(),
        row_lb,
        row_ub,
    };
    let (lb, ub) = red.var_ids().map(|v| red.var_bounds(v)).unzip();
    let ints = red
        .var_ids()
        .filter(|&v| red.var_type(v) != VarType::Continuous)
        .map(VarId::index)
        .collect();
    (lp, lb, ub, ints)
}

fn certified(lp: &LpData, lb: &[f64], ub: &[f64], r: &LpResult) {
    assert_eq!(
        certificate_violation(lp, lb, ub, r),
        None,
        "status {:?}",
        r.status
    );
}

#[test]
fn office_root_lps_and_their_children_carry_certificates() {
    let cfg = Config::default();
    let mut dual_children = 0;
    for (sensors, relays) in [(5, 22), (6, 30), (8, 35)] {
        let (lp, lb, ub, ints) = root_lp(sensors, relays);
        let root = solve_lp(&lp, &lb, &ub, &cfg, None, None).unwrap();
        assert_eq!(root.status, LpStatus::Optimal);
        certified(&lp, &lb, &ub, &root);
        // Children: both branches of the first fractional integers, then
        // integers moved off the bound they rest on, 20 in all.
        let x = &root.x;
        let fractional = |j: &usize| (x[*j] - x[*j].round()).abs() > 1e-6;
        let mut children = Vec::new();
        for &j in ints.iter().filter(|j| fractional(j)).take(10) {
            children.push((j, lb[j], x[j].floor()));
            children.push((j, x[j].ceil(), ub[j]));
        }
        for &j in ints.iter().filter(|j| !fractional(j)) {
            if children.len() == 20 {
                break;
            }
            let v = x[j].round();
            children.push(if v < ub[j] {
                (j, v + 1.0, ub[j])
            } else {
                (j, lb[j], v - 1.0)
            });
        }
        assert_eq!(children.len(), 20);
        for (j, lo_j, hi_j) in children {
            let (mut lo, mut hi) = (lb.clone(), ub.clone());
            (lo[j], hi[j]) = (lo_j, hi_j);
            let warm = solve_lp(&lp, &lo, &hi, &cfg, Some(&root.statuses), None).unwrap();
            let cold = solve_lp(&lp, &lo, &hi, &cfg, None, None).unwrap();
            certified(&lp, &lo, &hi, &warm);
            certified(&lp, &lo, &hi, &cold);
            assert_eq!(warm.status, cold.status, "child x{j} in [{lo_j}, {hi_j}]");
            if warm.status == LpStatus::Optimal {
                let (w, c) = (warm.obj, cold.obj);
                assert!(
                    (w - c).abs() <= 1e-6 * (1.0 + c.abs()),
                    "warm {w} vs cold {c}"
                );
            }
            dual_children += usize::from(warm.dual_iters > 0);
        }
    }
    assert!(
        dual_children >= 30,
        "only {dual_children} of 60 children ran dual pivots"
    );
}
