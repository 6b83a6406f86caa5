//! Property tests on the exploration core: encoding invariants over random
//! templates.

use archex::design::{extract_design, verify_design};
use archex::encode::{encode, EncodeMode};
use archex::explore::{explore, ExploreOptions};
use archex::requirements::Requirements;
use archex::template::{NetworkTemplate, NodeRole};
use channel::LogDistance;
use devlib::catalog;
use floorplan::Point;
use proptest::prelude::*;

/// Strategy: a random small template with one sensor, a handful of relays,
/// and a sink, all within radio range.
fn template_strategy() -> impl Strategy<Value = NetworkTemplate> {
    let relay = (5.0..35.0f64, -12.0..12.0f64);
    prop::collection::vec(relay, 2..7).prop_map(|relays| {
        let mut t = NetworkTemplate::new();
        t.add_node("s0", Point::new(0.0, 0.0), NodeRole::Sensor);
        for (i, (x, y)) in relays.iter().enumerate() {
            t.add_node(format!("r{}", i), Point::new(*x, *y), NodeRole::Relay);
        }
        t.add_node("sink", Point::new(40.0, 0.0), NodeRole::Sink);
        t.compute_path_loss(&LogDistance::indoor_2_4ghz());
        t.prune_links(&catalog::zigbee_reference(), -100.0, 10.0);
        t
    })
}

const SPEC: &str =
    "p = has_path(sensors, sink)\nmin_signal_to_noise(12)\nobjective minimize cost";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any design extracted from a solved encoding passes independent
    /// verification, for both encoders.
    #[test]
    fn extracted_designs_verify(t in template_strategy()) {
        let lib = catalog::zigbee_reference();
        let req = Requirements::from_spec_text(SPEC).expect("spec parses");
        for mode in [EncodeMode::Approx { kstar: 4 }, EncodeMode::Full] {
            let enc = encode(&t, &lib, &req, mode).expect("encodes");
            let sol = enc.model.solve(&milp::Config::default());
            if sol.status().has_solution() {
                let d = extract_design(&enc, &sol, &t, &lib, &req);
                let violations = verify_design(&d, &t, &lib, &req);
                prop_assert!(violations.is_empty(), "{:?}: {:?}", mode, violations);
            }
        }
    }

    /// A design obtained almost entirely through the LNS + tabu primal
    /// engine (the exact search is starved to a single node) still passes
    /// independent verification: heuristic publications are real designs,
    /// not bound artifacts.
    #[test]
    fn heuristic_incumbents_verify(t in template_strategy()) {
        let lib = catalog::zigbee_reference();
        let req = Requirements::from_spec_text(SPEC).expect("spec parses");
        let mut opts = ExploreOptions::approx(4);
        opts.solver.node_limit = Some(1);
        opts.solver.heuristics.sync = true; // engine runs before the tree search
        let out = explore(&t, &lib, &req, &opts).expect("encodes");
        if let Some(d) = out.design {
            let violations = verify_design(&d, &t, &lib, &req);
            prop_assert!(violations.is_empty(),
                "heuristic-path design violates: {:?}", violations);
        }
    }

    /// Approximate objective is monotone non-increasing in K* and never
    /// beats the exact optimum.
    #[test]
    fn approx_monotone_in_kstar(t in template_strategy()) {
        let lib = catalog::zigbee_reference();
        let req = Requirements::from_spec_text(SPEC).expect("spec parses");
        let full = explore(&t, &lib, &req, &ExploreOptions::full()).expect("encodes");
        let Some(fd) = full.design else { return Ok(()); };
        let mut prev = f64::INFINITY;
        for k in [1usize, 2, 4, 8] {
            let out = explore(&t, &lib, &req, &ExploreOptions::approx(k)).expect("encodes");
            let Some(d) = out.design else { continue };
            prop_assert!(d.total_cost <= prev + 1e-6,
                "K*={} cost {} above previous {}", k, d.total_cost, prev);
            prop_assert!(d.total_cost >= fd.total_cost - 1e-6,
                "K*={} cost {} beats exact {}", k, d.total_cost, fd.total_cost);
            prev = d.total_cost;
        }
    }

    /// Branch-and-price from a two-candidate seed reaches the same optimum
    /// as a comfortably large K*: whatever candidates the truncation
    /// dropped, the dual-driven pricing loop recovers. Cases where even the
    /// two-candidate restricted master is infeasible are skipped (root
    /// pricing starts from a feasible restriction; there is no Farkas
    /// pricing).
    #[test]
    fn pricing_small_seed_matches_large_kstar(t in template_strategy()) {
        let lib = catalog::zigbee_reference();
        let spec = "set battery_mah = 3000\n\
                    p = has_path(sensors, sink)\n\
                    min_signal_to_noise(12)\n\
                    min_network_lifetime(5)\n\
                    objective minimize cost";
        let req = Requirements::from_spec_text(spec).expect("spec parses");
        let seed = explore(&t, &lib, &req, &ExploreOptions::approx(2)).expect("encodes");
        if seed.status != milp::Status::Optimal {
            return Ok(());
        }
        let wide = explore(&t, &lib, &req, &ExploreOptions::approx(8)).expect("encodes");
        let priced = explore(&t, &lib, &req, &ExploreOptions::pricing(2)).expect("encodes");
        prop_assert_eq!(priced.status, milp::Status::Optimal);
        let wd = wide.design.expect("wide design");
        let pd = priced.design.expect("priced design");
        // Match-or-beat: bundles may recombine universe edges into paths
        // outside the Yen list, so the priced optimum can undercut K* = 8.
        prop_assert!(pd.objective <= wd.objective + 1e-6,
            "priced objective {} worse than K*=8 objective {} ({} cols priced)",
            pd.objective, wd.objective, priced.stats.solver.cols_priced);
        let violations = verify_design(&pd, &t, &lib, &req);
        prop_assert!(violations.is_empty(), "priced design violates: {:?}", violations);
    }

    /// The full encoding always needs at least as many constraints as the
    /// approximate one. (Variable counts can cross over on tiny templates,
    /// where the K* selector + edge-usage binaries outnumber the few alpha
    /// variables; the asymptotic advantage is Table 3's subject.)
    #[test]
    fn full_encoding_never_fewer_constraints(t in template_strategy()) {
        let lib = catalog::zigbee_reference();
        let req = Requirements::from_spec_text(SPEC).expect("spec parses");
        let a = archex::encode_only(&t, &lib, &req, EncodeMode::Approx { kstar: 5 })
            .expect("encodes");
        let f = archex::encode_only(&t, &lib, &req, EncodeMode::Full).expect("encodes");
        prop_assert!(f.num_cons >= a.num_cons,
            "full {} cons < approx {} cons", f.num_cons, a.num_cons);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The spec parser never panics on arbitrary input.
    #[test]
    fn spec_parser_total(input in "[ -~\n]{0,300}") {
        let _ = archex::parse_spec(&input);
    }

    /// Round-trip: statements we render are re-parsed identically.
    #[test]
    fn spec_numbers_roundtrip(v in -200.0..200.0f64) {
        let text = format!("min_rss({})", v);
        let stmts = archex::parse_spec(&text).expect("renders parse");
        prop_assert_eq!(stmts.len(), 1);
        match &stmts[0] {
            archex::Stmt::MinRss(x) => prop_assert!((x - v).abs() < 1e-9),
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }
}
