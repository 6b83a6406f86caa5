//! Link-quality constraints (2a)–(2b): every *active* link must clear the
//! SNR (or RSS) floor under the selected component sizing.
//!
//! Because the SNR of a link is affine in the sizing binaries with a finite
//! component set, the conditional bound `e_ij = 1 => SNR_ij >= floor` is
//! encoded **exactly and tightly** as pairwise conflicts: for every
//! (TX component, RX component) pair that cannot clear the floor on this
//! link, `e_ij + m_ki + m_lj <= 2`. Aggregate cuts
//! `e_ij <= sum_{k usable} m_ki` strengthen the LP relaxation further.
//! This dominates the classic big-M linearization of (2b) while encoding
//! the same requirement.

use super::Encoding;
use crate::requirements::Requirements;
use crate::template::NetworkTemplate;
use devlib::Library;
use lpmodel::LinExpr;

/// Builds the affine SNR expression of a directed link under the sizing
/// map: `snr_ij = -PL_ij + tx_i + g_i + g_j - noise` (constraint (2a) with
/// the noise floor folded in).
pub fn snr_expr(
    enc: &Encoding,
    template: &NetworkTemplate,
    library: &Library,
    i: usize,
    j: usize,
    noise_dbm: f64,
) -> LinExpr {
    let tx = enc.node_attr_expr(i, library, |c| c.tx_power_dbm + c.antenna_gain_dbi);
    let rx_gain = enc.node_attr_expr(j, library, |c| c.antenna_gain_dbi);
    tx + rx_gain - template.path_loss(i, j) - noise_dbm
}

/// True SNR of a link for a concrete component pair.
pub fn pair_snr_db(
    template: &NetworkTemplate,
    i: usize,
    j: usize,
    tx: &devlib::Component,
    rx: &devlib::Component,
    noise_dbm: f64,
) -> f64 {
    tx.tx_power_dbm + tx.antenna_gain_dbi + rx.antenna_gain_dbi - template.path_loss(i, j)
        - noise_dbm
}

/// How to linearize the conditional bound (2b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LqEncoding {
    /// Exact pairwise conflicts + aggregate cuts (default; much tighter LP
    /// relaxation).
    #[default]
    PairConflicts,
    /// The textbook big-M indicator `snr >= floor - M(1 - e)`. Kept for the
    /// ablation study (`bench --bin ablation`).
    BigM,
}

/// Encodes (2b) for every edge variable created so far, using the chosen
/// linearization.
pub fn encode_link_quality_with(
    enc: &mut Encoding,
    template: &NetworkTemplate,
    library: &Library,
    req: &Requirements,
    encoding: LqEncoding,
) {
    let floor = req.effective_min_snr_db();
    let noise = req.params.noise_dbm;
    let edges: Vec<(usize, usize)> = {
        let mut v: Vec<_> = enc.edge_vars.keys().copied().collect();
        v.sort_unstable();
        v
    };
    if encoding == LqEncoding::BigM {
        for (i, j) in edges {
            let e = enc.edge_vars[&(i, j)];
            let snr = snr_expr(enc, template, library, i, j, noise);
            enc.model.indicator_geq(e, &snr, floor);
        }
        return;
    }
    for (i, j) in edges {
        let e = enc.edge_vars[&(i, j)];
        let tx_vars = enc.map_vars[i].clone();
        let rx_vars = enc.map_vars[j].clone();
        let mut tx_usable = vec![false; tx_vars.len()];
        let mut rx_usable = vec![false; rx_vars.len()];
        for (a, &(ka, ma)) in tx_vars.iter().enumerate() {
            let ca = library.get(ka).expect("valid component");
            for (b, &(kb, mb)) in rx_vars.iter().enumerate() {
                let cb = library.get(kb).expect("valid component");
                if pair_snr_db(template, i, j, ca, cb, noise) >= floor {
                    tx_usable[a] = true;
                    rx_usable[b] = true;
                } else {
                    // conflict: this pair cannot realize the link
                    enc.model
                        .add((LinExpr::from(e) + ma + LinExpr::from(mb)).leq(2.0));
                }
            }
        }
        // Aggregate cuts: the link needs a usable component on each side.
        let mut tx_sum = LinExpr::term(e, -1.0);
        let mut any_tx = false;
        for (a, &(_, ma)) in tx_vars.iter().enumerate() {
            if tx_usable[a] {
                tx_sum.add_term(ma, 1.0);
                any_tx = true;
            }
        }
        let mut rx_sum = LinExpr::term(e, -1.0);
        let mut any_rx = false;
        for (b, &(_, mb)) in rx_vars.iter().enumerate() {
            if rx_usable[b] {
                rx_sum.add_term(mb, 1.0);
                any_rx = true;
            }
        }
        if any_tx && any_rx {
            enc.model.add(tx_sum.geq(0.0));
            enc.model.add(rx_sum.geq(0.0));
        } else {
            // no component pair can realize this link: forbid it
            enc.model.fix(e, 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::mapping::encode_mapping;
    use crate::encode::routing::{encode_approx, resolve_routes};
    use crate::requirements::Requirements;
    use crate::template::{NetworkTemplate, NodeRole};
    use channel::{LogDistance, PathLossModel};
    use devlib::catalog;
    use floorplan::Point;
    use milp::Config;

    /// One sensor, one relay 25 m away, sink 25 m beyond; direct
    /// sensor->sink link is 50 m and needs the strongest components.
    fn template() -> NetworkTemplate {
        let mut t = NetworkTemplate::new();
        t.add_node("s0", Point::new(0.0, 0.0), NodeRole::Sensor);
        t.add_node("r0", Point::new(25.0, 0.0), NodeRole::Relay);
        t.add_node("sink", Point::new(50.0, 0.0), NodeRole::Sink);
        t.compute_path_loss(&LogDistance::indoor_2_4ghz());
        t.prune_links(&catalog::zigbee_reference(), -100.0, 0.0);
        t
    }

    #[test]
    fn snr_expr_matches_channel_math() {
        let t = template();
        let lib = catalog::zigbee_reference();
        let req = Requirements::from_spec_text("p = has_path(sensors, sink)").unwrap();
        let mut enc = encode_mapping(&t, &lib).unwrap();
        let concrete = resolve_routes(&t, &req).unwrap();
        encode_approx(&mut enc, &t, &req, &concrete, 3).unwrap();
        encode_link_quality_with(&mut enc, &t, &lib, &req, LqEncoding::default());
        // fix s0 to sensor-hp (tx 4.5, gain 0), r0 to relay-ant (4.5, 5)
        let fix_comp = |enc: &mut Encoding, node: usize, lib_name: &str| {
            let idx = lib.index_of(lib_name).unwrap();
            for &(k, v) in enc.map_vars[node].clone().iter() {
                enc.model.fix(v, if k == idx { 1.0 } else { 0.0 });
            }
        };
        fix_comp(&mut enc, 0, "sensor-hp");
        fix_comp(&mut enc, 1, "relay-ant");
        let sol = enc.model.solve(&Config::default());
        assert!(sol.has_solution(), "status {:?}", sol.status());
        let e = snr_expr(&enc, &t, &lib, 0, 1, -100.0);
        let got = sol.eval(&e);
        let model = LogDistance::indoor_2_4ghz();
        let pl = model.path_loss_db(Point::new(0.0, 0.0), Point::new(25.0, 0.0));
        let want = 4.5 + 0.0 + 5.0 - pl + 100.0;
        assert!((got - want).abs() < 1e-9, "{} vs {}", got, want);
    }

    #[test]
    fn lq_constraint_forces_stronger_components() {
        // Require a high SNR: cheapest components cannot clear it on the
        // 25 m hops, so the optimizer must pick antenna/high-power parts.
        let t = template();
        let lib = catalog::zigbee_reference();
        let model = LogDistance::indoor_2_4ghz();
        let pl_hop = model.path_loss_db(Point::new(0.0, 0.0), Point::new(25.0, 0.0));
        // best sensor EIRP 9.5, best relay rx gain 5 -> best hop SNR:
        let best_possible = 9.5 + 5.0 - pl_hop + 100.0;
        // demand a bit less than the max so only top components qualify
        let demand = best_possible - 1.0;
        let spec = format!(
            "p = has_path(sensors, sink)\nmin_signal_to_noise({})\nobjective minimize cost",
            demand
        );
        let req = Requirements::from_spec_text(&spec).unwrap();
        let mut enc = encode_mapping(&t, &lib).unwrap();
        let concrete = resolve_routes(&t, &req).unwrap();
        encode_approx(&mut enc, &t, &req, &concrete, 3).unwrap();
        encode_link_quality_with(&mut enc, &t, &lib, &req, LqEncoding::default());
        crate::encode::objective::encode_objective(&mut enc, &lib, &req);
        let sol = enc.model.solve(&Config::default());
        assert!(sol.has_solution(), "status {:?}", sol.status());
        // the sensor must be the antenna variant to reach EIRP 9.5
        let ant_idx = lib.index_of("sensor-ant").unwrap();
        let picked_ant = enc.map_vars[0]
            .iter()
            .find(|&&(k, _)| k == ant_idx)
            .map(|&(_, v)| sol.is_one(v))
            .unwrap();
        assert!(picked_ant, "expected sensor-ant under tight LQ");
    }

    #[test]
    fn infeasible_when_lq_impossible() {
        let t = template();
        let lib = catalog::zigbee_reference();
        let spec = "p = has_path(sensors, sink)\nmin_signal_to_noise(90)";
        let req = Requirements::from_spec_text(spec).unwrap();
        let mut enc = encode_mapping(&t, &lib).unwrap();
        let concrete = resolve_routes(&t, &req).unwrap();
        // note: prune_links used 0 dB, so candidates exist; the MILP must
        // still prove no sizing clears 90 dB
        encode_approx(&mut enc, &t, &req, &concrete, 3).unwrap();
        encode_link_quality_with(&mut enc, &t, &lib, &req, LqEncoding::default());
        let sol = enc.model.solve(&Config::default());
        assert_eq!(sol.status(), milp::Status::Infeasible);
    }

    #[test]
    fn active_links_verified_at_integral_points() {
        // brute-check: solve, then every active edge's true pair SNR must
        // clear the floor
        let t = template();
        let lib = catalog::zigbee_reference();
        let req = Requirements::from_spec_text(
            "p = has_path(sensors, sink)\nmin_signal_to_noise(18)\nobjective minimize cost",
        )
        .unwrap();
        let mut enc = encode_mapping(&t, &lib).unwrap();
        let concrete = resolve_routes(&t, &req).unwrap();
        encode_approx(&mut enc, &t, &req, &concrete, 3).unwrap();
        encode_link_quality_with(&mut enc, &t, &lib, &req, LqEncoding::default());
        crate::encode::objective::encode_objective(&mut enc, &lib, &req);
        let sol = enc.model.solve(&Config::default());
        assert!(sol.has_solution());
        for (&(i, j), &e) in &enc.edge_vars {
            if !sol.is_one(e) {
                continue;
            }
            let comp_of = |node: usize| {
                enc.map_vars[node]
                    .iter()
                    .find(|&&(_, v)| sol.is_one(v))
                    .map(|&(k, _)| lib.get(k).unwrap())
            };
            let (Some(ci), Some(cj)) = (comp_of(i), comp_of(j)) else {
                panic!("active edge endpoint unsized");
            };
            let snr = pair_snr_db(&t, i, j, ci, cj, -100.0);
            assert!(snr >= 18.0 - 1e-9, "edge {}->{} snr {}", i, j, snr);
        }
    }
}
