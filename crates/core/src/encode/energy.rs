//! Energy and lifetime constraints (3a)–(3b).
//!
//! The TDMA energy model follows §2 of the paper: per sensing period every
//! route replica delivers one packet; a node's charge per period is
//!
//! ```text
//! E_i = t_tx * c_tx_i * sum_j ETX_ij * n_ij      (transmit, per (3b))
//!     + t_tx * c_rx_i * sum_j ETX_ji * n_ji      (receive)
//!     + t_slot * c_active_i * k_i                (awake slots)
//!     + c_sleep_i * (T - t_slot * k_i)           (sleep remainder)
//! ```
//!
//! with `n_ij` the number of routes over link `(i,j)`, `k_i` the number of
//! TX/RX slots, and `ETX_ij` the expected transmissions from the link SNR.
//!
//! ## Linearization
//!
//! Energy only ever needs **lower-bounding** (it is minimized and/or upper
//! bounded by the lifetime requirement), which permits a one-row-per-case
//! indicator encoding instead of full product linearization:
//!
//! * `ETX_ij` — continuous, `>=` the convex secant envelope of the true
//!   curve, gated on the edge activation;
//! * `w_re >= ETX_ij - cap * (1 - a_re)` — ETX load of a route over an
//!   edge;
//! * `E_i >= (per-component energy affine form) - M * (1 - m_ki)` — one
//!   row per compatible component.
//!
//! When the link-quality floor is high enough that `ETX <= 1 + eps` over
//! the whole admissible range (true for the paper's 20 dB setup), the ETX
//! machinery collapses to the constant `cap` — detected automatically.
//! Mains-powered sinks and (routing-free) anchors are exempt.

use super::{Encoding, RouteVars};
use crate::encode::link_quality::snr_expr;
use crate::requirements::Requirements;
use crate::spec::ObjKind;
use crate::template::{NetworkTemplate, NodeRole};
use channel::etx_convex_breakpoints;
use devlib::Library;
use lpmodel::{LinExpr, Pwl, Vid};
use std::collections::HashMap;

/// Returns `true` when the requirements need an energy model at all.
pub fn energy_needed(req: &Requirements) -> bool {
    req.min_lifetime_years.is_some()
        || req.objective.iter().any(|(_, k)| *k == ObjKind::Energy)
}

/// ETX spread below which the curve is treated as the constant `cap`.
const ETX_CONST_EPS: f64 = 0.05;

/// Per-component energy coefficients of the active protocol's model, in
/// mA·s per unit of (TX load, RX load, slot count, constant-per-period):
///
/// * **TDMA**: `E = t_tx·c_tx·L_tx + t_tx·c_rx·L_rx +
///   t_slot·(c_act − c_sleep)·k + c_sleep·T`
/// * **CSMA**: transmissions carry the backoff overhead and the radio
///   idles in receive mode for `duty_cycle` of the period instead of
///   sleeping: `E = t_tx·(1+bo)·c_tx·L_tx + t_tx·c_rx·L_rx +
///   t_slot·(c_act − c_sleep)·k + (duty·c_rx + (1−duty)·c_sleep)·T`
///
/// Shared by the MILP encoder and the post-hoc design verifier so the two
/// can never drift apart.
pub fn energy_coefficients(
    p: &crate::requirements::Params,
    comp: &devlib::Component,
) -> (f64, f64, f64, f64) {
    let t_tx = p.packet_bits() as f64 / p.bit_rate_bps;
    let t_slot = p.slot_ms / 1000.0;
    let sleep_ma = comp.sleep_ua * 1e-3;
    let slot_coeff = t_slot * (comp.active_ma - sleep_ma);
    match p.protocol {
        crate::requirements::Protocol::Tdma => (
            t_tx * comp.radio_tx_ma,
            t_tx * comp.radio_rx_ma,
            slot_coeff,
            sleep_ma * p.period_s,
        ),
        crate::requirements::Protocol::Csma => (
            t_tx * (1.0 + p.csma_backoff) * comp.radio_tx_ma,
            t_tx * comp.radio_rx_ma,
            slot_coeff,
            (p.duty_cycle * comp.radio_rx_ma + (1.0 - p.duty_cycle) * sleep_ma) * p.period_s,
        ),
    }
}

/// Encodes the energy model and lifetime constraints. No-op when neither a
/// lifetime floor nor an energy objective is present, or when there are no
/// routes.
pub fn encode_energy(
    enc: &mut Encoding,
    template: &NetworkTemplate,
    library: &Library,
    req: &Requirements,
) {
    enc.node_energy = vec![None; template.num_nodes()];
    if !energy_needed(req) || enc.routes.is_empty() {
        return;
    }
    let pricing = enc.pricing.is_some();
    let p = &req.params;
    let snr_floor = req.effective_min_snr_db();
    let snr_hi = snr_floor + 40.0;
    let bp = etx_convex_breakpoints(p.modulation, p.packet_bits(), snr_floor, snr_hi, 33);
    let pwl = Pwl::new(bp);
    let etx_cap = pwl.points()[0].1.max(1.0);
    let etx_constant = etx_cap - 1.0 <= ETX_CONST_EPS;

    // 1. ETX variables per edge (skipped when the curve is flat).
    let mut etx_vars: HashMap<(usize, usize), Vid> = HashMap::new();
    if !etx_constant {
        let mut edges: Vec<(usize, usize)> = enc.edge_vars.keys().copied().collect();
        edges.sort_unstable();
        for (i, j) in edges {
            let e = enc.edge_vars[&(i, j)];
            let etx = enc.model.cont(format!("etx_{}_{}", i, j), 1.0, etx_cap);
            let snr = snr_expr(enc, template, library, i, j, p.noise_dbm);
            for (a, b) in pwl.segments() {
                // e = 1  =>  etx >= a*snr + b
                let lhs = LinExpr::from(etx) - snr.clone() * a;
                enc.model.indicator_geq(e, &lhs, b);
            }
            etx_vars.insert((i, j), etx);
        }
    }

    // 2. Per-route loads: ETX-weighted transmissions and slot counts.
    let n = template.num_nodes();
    let mut load_tx: Vec<LinExpr> = vec![LinExpr::zero(); n];
    let mut load_rx: Vec<LinExpr> = vec![LinExpr::zero(); n];
    let mut slots: Vec<LinExpr> = vec![LinExpr::zero(); n];
    let route_edge_usages: Vec<Vec<((usize, usize), Vid)>> = enc
        .routes
        .iter()
        .map(|r| match &r.vars {
            RouteVars::Approx { edge_used, .. } => {
                let mut v: Vec<_> = edge_used.iter().map(|(&e, &a)| (e, a)).collect();
                v.sort_unstable_by_key(|&(e, _)| e);
                v
            }
            RouteVars::Full { alpha } => {
                let mut v: Vec<_> = alpha.iter().map(|(&e, &a)| (e, a)).collect();
                v.sort_unstable_by_key(|&(e, _)| e);
                v
            }
        })
        .collect();
    for usages in route_edge_usages {
        for ((i, j), a) in usages {
            if etx_constant {
                load_tx[i].add_term(a, etx_cap);
                load_rx[j].add_term(a, etx_cap);
            } else {
                let etx = etx_vars[&(i, j)];
                // w >= etx - cap*(1 - a), w >= 0: exact ETX load when a = 1
                // under downward pressure (energy is lower-bounded only).
                let w = enc.model.cont(format!("wl_{}_{}_{}", i, j, a), 0.0, etx_cap);
                enc.model.add(
                    (LinExpr::from(w) - etx + LinExpr::term(a, -etx_cap)).geq(-etx_cap),
                );
                load_tx[i] += LinExpr::from(w);
                load_rx[j] += LinExpr::from(w);
            }
            slots[i].add_term(a, 1.0);
            slots[j].add_term(a, 1.0);
        }
    }

    // 3. Per-node energy variables with per-component lower bounds.
    let period = p.period_s;
    let budget = req
        .min_lifetime_seconds()
        .map(|life| p.battery_mas() * period / life);
    // Structural load ceiling for pricing mode: a simple path crosses a
    // node at most once, so no node ever carries more than one TX and one
    // RX hop (plus two slots) per replica — however many path columns the
    // pricer later appends.
    let total_reps = enc.routes.len() as f64;
    let mut energy_node_rows: Vec<Vec<(usize, f64, f64, f64)>> =
        vec![Vec::new(); template.num_nodes()];
    for i in 0..n {
        let role = template.nodes()[i].role;
        if !matches!(role, NodeRole::Sensor | NodeRole::Relay) {
            continue;
        }
        if !pricing
            && load_tx[i].is_constant()
            && load_rx[i].is_constant()
            && slots[i].is_constant()
        {
            continue; // no routes can touch this node (and none may appear)
        }
        // One energy variable per node; its upper bound IS the lifetime
        // constraint (3a).
        let mut e_hi = f64::INFINITY;
        // (map var, energy expr, big-M, (ctx, crx, cslot)) per component.
        type ComponentEnergy = (Vid, LinExpr, f64, (f64, f64, f64));
        let mut exprs: Vec<ComponentEnergy> = Vec::new();
        for &(k, m) in enc.map_vars[i].clone().iter() {
            let comp = library.get(k).expect("valid component index");
            let (ctx, crx, cslot, cperiod) = energy_coefficients(p, comp);
            let expr = load_tx[i].clone() * ctx
                + load_rx[i].clone() * crx
                + slots[i].clone() * cslot
                + cperiod;
            // Pricing must not derive the big-M from the current expression:
            // priced columns add load terms later, which would break the
            // row. The structural worst case dominates both.
            let hi = if pricing {
                total_reps * ((ctx + crx) * etx_cap + 2.0 * cslot) + cperiod
            } else {
                enc.model.expr_bounds(&expr).1
            };
            exprs.push((m, expr, hi, (ctx, crx, cslot)));
        }
        let var_hi = exprs.iter().map(|(_, _, h, _)| *h).fold(0.0f64, f64::max);
        if let Some(b) = budget {
            e_hi = b;
        }
        let energy = enc
            .model
            .cont(format!("energy_{}", i), 0.0, e_hi.min(var_hi.max(1.0)));
        for (m, expr, hi, coefs) in exprs {
            // m = 1  =>  energy >= expr, big-M'd as
            // energy >= expr - hi*(1-m)  <=>  energy - expr - hi*m >= -hi
            let row = enc
                .model
                .add((LinExpr::from(energy) - expr - LinExpr::term(m, hi)).geq(-hi));
            if pricing {
                energy_node_rows[i].push((row, coefs.0, coefs.1, coefs.2));
            }
        }
        enc.energy_expr += LinExpr::from(energy);
        enc.node_energy[i] = Some(LinExpr::from(energy));
    }
    if let Some(hooks) = enc.pricing.as_mut() {
        hooks.energy = super::pricing_hooks::EnergyHooks {
            enabled: true,
            etx_constant,
            etx_cap,
            node_rows: energy_node_rows,
            etx_cols: etx_vars.iter().map(|(&e, v)| (e, v.index())).collect(),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::link_quality::{encode_link_quality_with, LqEncoding};
    use crate::encode::mapping::encode_mapping;
    use crate::encode::objective::encode_objective;
    use crate::encode::routing::{encode_approx, resolve_routes};
    use crate::requirements::Requirements;
    use channel::{etx_from_snr, LogDistance};
    use devlib::catalog;
    use floorplan::Point;
    use milp::Config;

    fn template() -> NetworkTemplate {
        let mut t = NetworkTemplate::new();
        t.add_node("s0", Point::new(0.0, 0.0), NodeRole::Sensor);
        t.add_node("r0", Point::new(20.0, 0.0), NodeRole::Relay);
        t.add_node("sink", Point::new(40.0, 0.0), NodeRole::Sink);
        t.compute_path_loss(&LogDistance::indoor_2_4ghz());
        t.prune_links(&catalog::zigbee_reference(), -100.0, 5.0);
        t
    }

    fn encode_all(spec: &str) -> (Encoding, Requirements, NetworkTemplate) {
        let t = template();
        let lib = catalog::zigbee_reference();
        let req = Requirements::from_spec_text(spec).unwrap();
        let mut enc = encode_mapping(&t, &lib).unwrap();
        let concrete = resolve_routes(&t, &req).unwrap();
        encode_approx(&mut enc, &t, &req, &concrete, 3).unwrap();
        encode_link_quality_with(&mut enc, &t, &lib, &req, LqEncoding::default());
        encode_energy(&mut enc, &t, &lib, &req);
        encode_objective(&mut enc, &lib, &req);
        (enc, req, t)
    }

    #[test]
    fn no_energy_model_without_need() {
        let (enc, _, _) = encode_all("p = has_path(sensors, sink)\nobjective minimize cost");
        assert!(enc.node_energy.iter().all(|e| e.is_none()));
        assert!(enc.energy_expr.is_constant());
    }

    #[test]
    fn energy_model_built_when_lifetime_required() {
        let (enc, _, _) = encode_all(
            "p = has_path(sensors, sink)\nmin_signal_to_noise(15)\nmin_network_lifetime(1)\nobjective minimize cost",
        );
        assert!(enc.node_energy[0].is_some()); // sensor
        assert!(enc.node_energy[1].is_some()); // relay
        assert!(enc.node_energy[2].is_none()); // sink exempt
    }

    #[test]
    fn high_floor_collapses_etx_to_constant() {
        // at a 20 dB floor, ETX(QPSK, 400 bits) stays within 5e-21 of 1.0,
        // so the encoder must take the constant fast path (no etx_ vars)
        let (enc, _, _) = encode_all(
            "p = has_path(sensors, sink)\nmin_signal_to_noise(20)\nmin_network_lifetime(1)\nobjective minimize energy",
        );
        let lp = enc.model.to_lp_string();
        assert!(!lp.contains("etx_"), "expected constant-ETX fast path");
        // low floor keeps the ETX machinery
        let (enc2, _, _) = encode_all(
            "p = has_path(sensors, sink)\nmin_signal_to_noise(6)\nmin_network_lifetime(1)\nobjective minimize energy",
        );
        let lp2 = enc2.model.to_lp_string();
        assert!(lp2.contains("etx_"), "expected ETX variables at a 6 dB floor");
    }

    #[test]
    fn energy_matches_hand_computation() {
        // Solve, extract the selected design, and recompute energy from
        // first principles; the MILP expression must match (within the
        // convex-envelope tolerance on ETX).
        let (enc, req, t) = encode_all(
            "p = has_path(sensors, sink)\nmin_signal_to_noise(15)\nmin_network_lifetime(1)\nobjective minimize energy",
        );
        let lib = catalog::zigbee_reference();
        let sol = enc.model.solve(&Config::default());
        assert!(sol.has_solution(), "status {:?}", sol.status());
        // which component did the sensor get?
        let comp_of = |node: usize| -> &devlib::Component {
            let (k, _) = enc.map_vars[node]
                .iter()
                .find(|&&(_, v)| sol.is_one(v))
                .expect("used node has a component");
            lib.get(*k).unwrap()
        };
        // selected route
        let RouteVars::Approx { candidates, .. } = &enc.routes[0].vars else {
            panic!()
        };
        let path = candidates
            .iter()
            .find(|c| sol.is_one(c.selector))
            .expect("selected");
        // hand-compute sensor energy over its first hop
        let (i, j) = path.edges[0];
        assert_eq!(i, 0);
        let ci = comp_of(i);
        let cj = comp_of(j);
        let pl = t.path_loss(i, j);
        let snr =
            ci.tx_power_dbm + ci.antenna_gain_dbi + cj.antenna_gain_dbi - pl - req.params.noise_dbm;
        let etx = etx_from_snr(snr, req.params.modulation, req.params.packet_bits());
        let t_tx = req.params.packet_bits() as f64 / req.params.bit_rate_bps;
        let t_slot = req.params.slot_ms / 1000.0;
        let hand = t_tx * ci.radio_tx_ma * etx
            + t_slot * (ci.active_ma - ci.sleep_ua * 1e-3)
            + ci.sleep_ua * 1e-3 * req.params.period_s;
        let modeled = sol.eval(enc.node_energy[0].as_ref().unwrap());
        // the secant envelope may under-approximate ETX slightly
        assert!(
            (modeled - hand).abs() < 0.05 * hand + 1e-6,
            "modeled {} vs hand {}",
            modeled,
            hand
        );
    }

    #[test]
    fn lifetime_floor_infeasible_when_extreme() {
        // At 2000 years even the best part's sleep current alone
        // (0.4 uA x 30 s = 0.012 mA*s/period) exceeds the budget
        // (battery * period / lifetime ~ 0.005 mA*s/period).
        let t = template();
        let lib = catalog::zigbee_reference();
        let req = Requirements::from_spec_text(
            "p = has_path(sensors, sink)\nmin_signal_to_noise(15)\nmin_network_lifetime(2000)",
        )
        .unwrap();
        let mut enc = encode_mapping(&t, &lib).unwrap();
        let concrete = resolve_routes(&t, &req).unwrap();
        encode_approx(&mut enc, &t, &req, &concrete, 3).unwrap();
        encode_link_quality_with(&mut enc, &t, &lib, &req, LqEncoding::default());
        encode_energy(&mut enc, &t, &lib, &req);
        let sol = enc.model.solve(&Config::default());
        assert_eq!(sol.status(), milp::Status::Infeasible);
    }

    #[test]
    fn csma_costs_more_energy_than_tdma() {
        // identical design, CSMA's idle listening dominates: solve both and
        // compare the recomputed energies of the cost-optimal design
        use crate::design::extract_design;
        let spec_tdma = "set protocol = tdma\np = has_path(sensors, sink)\nmin_signal_to_noise(15)\nmin_network_lifetime(1)\nobjective minimize cost";
        let spec_csma = "set protocol = csma\nset duty_cycle = 0.002\np = has_path(sensors, sink)\nmin_signal_to_noise(15)\nmin_network_lifetime(1)\nobjective minimize cost";
        let mut energies = Vec::new();
        for spec in [spec_tdma, spec_csma] {
            let t = template();
            let lib = catalog::zigbee_reference();
            let req = Requirements::from_spec_text(spec).unwrap();
            let mut enc = encode_mapping(&t, &lib).unwrap();
            let concrete = resolve_routes(&t, &req).unwrap();
            encode_approx(&mut enc, &t, &req, &concrete, 3).unwrap();
            encode_link_quality_with(&mut enc, &t, &lib, &req, LqEncoding::default());
            encode_energy(&mut enc, &t, &lib, &req);
            encode_objective(&mut enc, &lib, &req);
            let sol = enc.model.solve(&Config::default());
            assert!(sol.has_solution(), "{} -> {:?}", spec, sol.status());
            let d = extract_design(&enc, &sol, &t, &lib, &req);
            energies.push(d.total_energy_mas);
        }
        assert!(
            energies[1] > energies[0] * 2.0,
            "CSMA {} should far exceed TDMA {}",
            energies[1],
            energies[0]
        );
    }

    #[test]
    fn csma_lifetime_constraint_binds_harder() {
        // a lifetime easily met under TDMA can be impossible under CSMA's
        // 5% idle listening (~1.1-1.7 mA average on these radios)
        let t = template();
        let lib = catalog::zigbee_reference();
        let spec = "set protocol = csma\nset duty_cycle = 0.05\np = has_path(sensors, sink)\nmin_signal_to_noise(15)\nmin_network_lifetime(3)";
        let req = Requirements::from_spec_text(spec).unwrap();
        let mut enc = encode_mapping(&t, &lib).unwrap();
        let concrete = resolve_routes(&t, &req).unwrap();
        encode_approx(&mut enc, &t, &req, &concrete, 3).unwrap();
        encode_link_quality_with(&mut enc, &t, &lib, &req, LqEncoding::default());
        encode_energy(&mut enc, &t, &lib, &req);
        let sol = enc.model.solve(&Config::default());
        assert_eq!(sol.status(), milp::Status::Infeasible);
    }

    #[test]
    fn minimizing_energy_picks_low_power_parts() {
        let (enc, _, _) = encode_all(
            "p = has_path(sensors, sink)\nmin_signal_to_noise(15)\nmin_network_lifetime(1)\nobjective minimize energy",
        );
        let lib = catalog::zigbee_reference();
        let sol = enc.model.solve(&Config::default());
        assert!(sol.has_solution());
        // sensor should pick a low-power (lp) variant despite higher cost
        let (k, _) = enc.map_vars[0]
            .iter()
            .find(|&&(_, v)| sol.is_one(v))
            .unwrap();
        let name = &lib.get(*k).unwrap().name;
        assert!(
            name.contains("lp"),
            "expected a low-power sensor, got {}",
            name
        );
    }
}
