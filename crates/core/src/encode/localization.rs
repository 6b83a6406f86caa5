//! Localization constraints (4a)–(4b): every evaluation location must be
//! reachable (RSS above threshold) by at least `N` placed anchors.

use super::{EncodeError, Encoding};
use crate::requirements::Requirements;
use crate::template::{NetworkTemplate, NodeRole};
use devlib::Library;
use lpmodel::LinExpr;

/// Encodes the reachability matrix and coverage constraints.
///
/// For each evaluation point `j`, only the `kstar` **best candidate
/// anchors** (smallest path loss) are encoded — the localization analog of
/// Algorithm 1's pruning (§4.2 uses `K* = 20` candidate anchors per test
/// point). Pass `None` to encode all anchors (full enumeration baseline).
///
/// Constraints per encoded pair `(i, j)`:
///
/// * `r_ij <= u_i` — only placed anchors count (the conjunction of (4a));
/// * `r_ij = 1  =>  RSS_ij >= rss_floor` — big-M reified signal bound;
/// * per point: `sum_i r_ij >= N` (4b).
///
/// # Errors
///
/// Returns [`EncodeError::NoLocalizationData`] when the template lacks
/// anchors or evaluation points.
pub fn encode_localization(
    enc: &mut Encoding,
    template: &NetworkTemplate,
    library: &Library,
    req: &Requirements,
    kstar: Option<usize>,
) -> Result<(), EncodeError> {
    let Some((need, rss_floor)) = req.min_reachable else {
        return Ok(());
    };
    let anchors = template.nodes_of(NodeRole::Anchor);
    let n_eval = template.eval_points().len();
    if anchors.is_empty() || n_eval == 0 {
        return Err(EncodeError::NoLocalizationData);
    }
    let mut dsod = LinExpr::zero();
    for j in 0..n_eval {
        // rank anchors by path loss to this evaluation point
        let mut ranked: Vec<usize> = anchors.clone();
        ranked.sort_by(|&a, &b| {
            template
                .path_loss_to_eval(a, j)
                .partial_cmp(&template.path_loss_to_eval(b, j))
                .expect("path losses are comparable")
        });
        let take = kstar.unwrap_or(ranked.len()).min(ranked.len());
        let mut coverage = LinExpr::zero();
        let mut reach = Vec::with_capacity(take);
        for &i in ranked.iter().take(take) {
            let r = enc.model.binary(format!("r_{}_{}", i, j));
            // r <= u_i
            let u = enc.node_used[i];
            enc.model.add((LinExpr::from(r) - u).leq(0.0));
            // r = 1 => RSS >= floor ; RSS = -PL + tx_i + g_i (mobile gain 0)
            let rss = enc.node_attr_expr(i, library, |c| c.tx_power_dbm + c.antenna_gain_dbi)
                - template.path_loss_to_eval(i, j);
            enc.model.indicator_geq(r, &rss, rss_floor);
            coverage.add_term(r, 1.0);
            dsod.add_term(r, template.distance_to_eval(i, j));
            reach.push((i, r));
        }
        if take < need {
            // fewer candidates than required coverage: trivially infeasible,
            // let the solver report it via an impossible row
            enc.model
                .add_named(format!("cover_{}", j), coverage.geq(need as f64));
        } else {
            enc.model
                .add_named(format!("cover_{}", j), coverage.geq(need as f64));
        }
        enc.reach_vars.push(reach);
    }
    // normalize DSOD by the number of evaluation points
    enc.dsod_expr = dsod * (1.0 / n_eval as f64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::mapping::encode_mapping;
    use crate::encode::objective::encode_objective;
    use crate::requirements::Requirements;
    use channel::LogDistance;
    use devlib::catalog;
    use floorplan::{FloorPlan, Marker, MarkerKind, Point};
    use milp::Config;

    /// 4 anchor candidates `a0..a3` in a 30 m square, one eval point in the
    /// center.
    fn template() -> NetworkTemplate {
        let mut plan = FloorPlan::new(30.0, 30.0);
        for (x, y) in [(0.0, 0.0), (30.0, 0.0), (0.0, 30.0), (30.0, 30.0)] {
            plan.add_marker(Marker {
                position: Point::new(x, y),
                kind: MarkerKind::Anchor,
            });
        }
        plan.add_marker(Marker {
            position: Point::new(15.0, 15.0),
            kind: MarkerKind::EvalPoint,
        });
        let mut t = NetworkTemplate::from_plan(&plan);
        t.compute_path_loss(&LogDistance::indoor_2_4ghz());
        t
    }

    fn solve(spec: &str, kstar: Option<usize>) -> (Encoding, milp::Status, Option<lpmodel::ModelSolution>) {
        let t = template();
        let lib = catalog::zigbee_reference();
        let req = Requirements::from_spec_text(spec).unwrap();
        let mut enc = encode_mapping(&t, &lib).unwrap();
        encode_localization(&mut enc, &t, &lib, &req, kstar).unwrap();
        encode_objective(&mut enc, &lib, &req);
        let sol = enc.model.solve(&Config::default());
        let status = sol.status();
        let s = if status.has_solution() { Some(sol) } else { None };
        (enc, status, s)
    }

    #[test]
    fn coverage_forces_anchor_placement() {
        let (enc, status, sol) = solve(
            "min_reachable_devices(3, -80)\nobjective minimize cost",
            None,
        );
        assert_eq!(status, milp::Status::Optimal);
        let sol = sol.unwrap();
        let placed: usize = enc
            .node_used
            .iter()
            .filter(|&&u| sol.is_one(u))
            .count();
        assert!(placed >= 3, "only {} anchors placed", placed);
        // coverage literal count
        let reached: f64 = enc.reach_vars[0].iter().map(|&(_, r)| sol.value(r)).sum();
        assert!(reached >= 3.0 - 1e-6);
    }

    #[test]
    fn infeasible_when_demanding_more_than_candidates() {
        let (_, status, _) = solve(
            "min_reachable_devices(5, -80)\nobjective minimize cost",
            None,
        );
        assert_eq!(status, milp::Status::Infeasible); // only 4 anchors exist
    }

    #[test]
    fn strict_rss_needs_stronger_anchors() {
        // distance center->corner ~21.2 m; compute a floor only the
        // antenna/PA anchors can clear
        let t = template();
        let lib = catalog::zigbee_reference();
        use channel::PathLossModel;
        let pl = LogDistance::indoor_2_4ghz()
            .path_loss_db(Point::new(0.0, 0.0), Point::new(15.0, 15.0));
        // anchor-std EIRP 0, anchor-pa-ant EIRP 25
        let floor = -pl + 20.0; // needs EIRP >= 20
        let spec = format!(
            "min_reachable_devices(3, {})\nobjective minimize cost",
            floor
        );
        let req = Requirements::from_spec_text(&spec).unwrap();
        let mut enc = encode_mapping(&t, &lib).unwrap();
        encode_localization(&mut enc, &t, &lib, &req, None).unwrap();
        encode_objective(&mut enc, &lib, &req);
        let sol = enc.model.solve(&Config::default());
        assert!(sol.has_solution(), "{:?}", sol.status());
        // every reaching anchor must be the PA variant
        let pa = lib.index_of("anchor-pa-ant").unwrap();
        for &(i, r) in &enc.reach_vars[0] {
            if sol.is_one(r) {
                let (k, _) = enc.map_vars[i]
                    .iter()
                    .find(|&&(_, v)| sol.is_one(v))
                    .unwrap();
                assert_eq!(*k, pa, "anchor {} is not the PA variant", i);
            }
        }
    }

    #[test]
    fn kstar_limits_candidates_per_point() {
        let (enc, status, _) = solve(
            "min_reachable_devices(2, -80)\nobjective minimize cost",
            Some(2),
        );
        assert_eq!(status, milp::Status::Optimal);
        assert_eq!(enc.reach_vars[0].len(), 2);
    }

    #[test]
    fn dsod_prefers_near_anchors() {
        // add a distant extra anchor; DSOD objective should avoid it
        let mut t = template();
        t.add_node("afar", Point::new(200.0, 200.0), NodeRole::Anchor);
        t.compute_path_loss(&LogDistance::indoor_2_4ghz());
        let lib = catalog::zigbee_reference();
        let req = Requirements::from_spec_text(
            "min_reachable_devices(2, -90)\nobjective minimize dsod",
        )
        .unwrap();
        let mut enc = encode_mapping(&t, &lib).unwrap();
        encode_localization(&mut enc, &t, &lib, &req, None).unwrap();
        encode_objective(&mut enc, &lib, &req);
        let sol = enc.model.solve(&Config::default());
        assert!(sol.has_solution());
        let far = t.index_of("afar").unwrap();
        for &(i, r) in &enc.reach_vars[0] {
            if i == far {
                assert!(!sol.is_one(r), "distant anchor should not be selected");
            }
        }
    }

    #[test]
    fn missing_data_errors() {
        let mut t = NetworkTemplate::new();
        t.add_node("a0", Point::new(0.0, 0.0), NodeRole::Anchor);
        t.compute_path_loss(&LogDistance::indoor_2_4ghz());
        let lib = catalog::zigbee_reference();
        let req =
            Requirements::from_spec_text("min_reachable_devices(1, -80)").unwrap();
        let mut enc = encode_mapping(&t, &lib).unwrap();
        assert!(matches!(
            encode_localization(&mut enc, &t, &lib, &req, None),
            Err(EncodeError::NoLocalizationData)
        ));
    }
}
