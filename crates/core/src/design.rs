//! Extracted network designs: the optimizer's answer as a plain data
//! structure, with **independent verification** — every requirement is
//! re-checked from first principles (channel math, energy model) without
//! trusting the MILP encoding.

use crate::encode::link_quality::pair_snr_db;
use crate::encode::{Encoding, RouteVars};
use crate::requirements::Requirements;
use crate::template::{NetworkTemplate, NodeRole};
use channel::etx_from_snr;
use devlib::Library;
use lpmodel::ModelSolution;
use std::collections::{HashMap, HashSet};

/// A placed node in the final design.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignNode {
    /// Template node index.
    pub node: usize,
    /// Library index of the selected component.
    pub component: usize,
}

/// One realized route.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignRoute {
    /// Requirement family index.
    pub family: usize,
    /// Source template node.
    pub source: usize,
    /// Destination template node.
    pub dest: usize,
    /// Replica number within its disjointness group.
    pub replica: usize,
    /// Node sequence from source to destination.
    pub nodes: Vec<usize>,
}

impl DesignRoute {
    /// Directed edges of the route.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        self.nodes.windows(2).map(|w| (w[0], w[1])).collect()
    }
}

/// The synthesized network architecture.
#[derive(Debug, Clone, Default)]
pub struct NetworkDesign {
    /// Placed nodes with their components.
    pub placed: Vec<DesignNode>,
    /// Active links.
    pub edges: Vec<(usize, usize)>,
    /// Realized routes.
    pub routes: Vec<DesignRoute>,
    /// Total component dollar cost.
    pub total_cost: f64,
    /// Total energy (mA·s per period) over battery-powered nodes,
    /// recomputed from first principles.
    pub total_energy_mas: f64,
    /// Lifetime (years) per battery-powered placed node.
    pub lifetimes_years: Vec<(usize, f64)>,
    /// Per evaluation point: number of placed anchors whose true RSS clears
    /// the localization floor.
    pub coverage: Vec<usize>,
    /// The MILP objective value.
    pub objective: f64,
}

impl NetworkDesign {
    /// Number of placed (used) nodes.
    pub fn num_nodes(&self) -> usize {
        self.placed.len()
    }

    /// The component selected for a template node, if placed.
    pub fn component_of(&self, node: usize) -> Option<usize> {
        self.placed
            .iter()
            .find(|p| p.node == node)
            .map(|p| p.component)
    }

    /// Average lifetime (years) over battery-powered nodes, or `None`
    /// when no energy model applies.
    pub fn avg_lifetime_years(&self) -> Option<f64> {
        if self.lifetimes_years.is_empty() {
            None
        } else {
            Some(
                self.lifetimes_years.iter().map(|&(_, y)| y).sum::<f64>()
                    / self.lifetimes_years.len() as f64,
            )
        }
    }

    /// Minimum lifetime (years) over battery-powered nodes.
    pub fn min_lifetime_years(&self) -> Option<f64> {
        self.lifetimes_years
            .iter()
            .map(|&(_, y)| y)
            .min_by(|a, b| a.partial_cmp(b).expect("lifetimes are finite"))
    }

    /// Average number of anchors reaching each evaluation point.
    pub fn avg_reachable(&self) -> Option<f64> {
        if self.coverage.is_empty() {
            None
        } else {
            Some(self.coverage.iter().sum::<usize>() as f64 / self.coverage.len() as f64)
        }
    }
}

/// True (post-hoc) SNR of a link in a design.
pub fn true_snr_db(
    template: &NetworkTemplate,
    library: &Library,
    design: &NetworkDesign,
    i: usize,
    j: usize,
    noise_dbm: f64,
) -> Option<f64> {
    let ci = library.get(design.component_of(i)?)?;
    let cj = library.get(design.component_of(j)?)?;
    Some(pair_snr_db(template, i, j, ci, cj, noise_dbm))
}

/// Extracts the design from a solved encoding, recomputing all reported
/// metrics from first principles.
pub fn extract_design(
    enc: &Encoding,
    sol: &ModelSolution,
    template: &NetworkTemplate,
    library: &Library,
    req: &Requirements,
) -> NetworkDesign {
    let mut d = NetworkDesign {
        objective: sol.objective(),
        ..NetworkDesign::default()
    };
    // Nodes and components.
    for (i, &u) in enc.node_used.iter().enumerate() {
        if sol.is_one(u) {
            let comp = enc.map_vars[i]
                .iter()
                .find(|&&(_, m)| sol.is_one(m))
                .map(|&(k, _)| k);
            if let Some(component) = comp {
                d.placed.push(DesignNode { node: i, component });
                d.total_cost += library.get(component).expect("valid index").cost;
            }
        }
    }
    // Edges.
    let mut edges: Vec<(usize, usize)> = enc
        .edge_vars
        .iter()
        .filter(|(_, &e)| sol.is_one(e))
        .map(|(&k, _)| k)
        .collect();
    edges.sort_unstable();
    d.edges = edges;
    // Routes.
    for r in &enc.routes {
        let nodes = match &r.vars {
            RouteVars::Approx { candidates, .. } => candidates
                .iter()
                .find(|c| sol.is_one(c.selector))
                .map(|c| c.nodes.clone()),
            RouteVars::Full { alpha } => trace_path(alpha, sol, r.source, r.dest),
        };
        if let Some(nodes) = nodes {
            d.routes.push(DesignRoute {
                family: r.family,
                source: r.source,
                dest: r.dest,
                replica: r.replica,
                nodes,
            });
        }
    }
    // Energy + lifetimes from first principles.
    recompute_energy(&mut d, template, library, req);
    // Localization coverage from true RSS.
    recompute_coverage(&mut d, template, library, req);
    d
}

/// Recomputes every derived metric (`total_cost`, energy, lifetimes,
/// coverage) of a design whose `placed`/`routes`/`edges` were assembled or
/// edited outside [`extract_design`] — e.g. a stitched decomposed design
/// whose per-zone metrics are meaningless after component repair. The
/// `objective` field is left untouched; callers decide what it means.
pub fn recompute_metrics(
    d: &mut NetworkDesign,
    template: &NetworkTemplate,
    library: &Library,
    req: &Requirements,
) {
    d.total_cost = d
        .placed
        .iter()
        .map(|p| library.get(p.component).expect("valid index").cost)
        .sum();
    d.total_energy_mas = 0.0;
    d.lifetimes_years.clear();
    recompute_energy(d, template, library, req);
    d.coverage.clear();
    recompute_coverage(d, template, library, req);
}

/// Fills `d.coverage` (one count per evaluation point) from true RSS when
/// the requirements carry a localization floor; no-op otherwise.
fn recompute_coverage(
    d: &mut NetworkDesign,
    template: &NetworkTemplate,
    library: &Library,
    req: &Requirements,
) {
    if let Some((_, rss_floor)) = req.min_reachable {
        for j in 0..template.eval_points().len() {
            let mut count = 0;
            for p in &d.placed {
                if template.nodes()[p.node].role != NodeRole::Anchor {
                    continue;
                }
                let c = library.get(p.component).expect("valid index");
                let rss = c.tx_power_dbm + c.antenna_gain_dbi
                    - template.path_loss_to_eval(p.node, j);
                if rss >= rss_floor - 1e-9 {
                    count += 1;
                }
            }
            d.coverage.push(count);
        }
    }
}

fn trace_path(
    alpha: &HashMap<(usize, usize), lpmodel::Vid>,
    sol: &ModelSolution,
    src: usize,
    dst: usize,
) -> Option<Vec<usize>> {
    let next: HashMap<usize, usize> = alpha
        .iter()
        .filter(|(_, &v)| sol.is_one(v))
        .map(|(&(i, j), _)| (i, j))
        .collect();
    let mut nodes = vec![src];
    let mut cur = src;
    let mut guard = 0;
    while cur != dst {
        cur = *next.get(&cur)?;
        nodes.push(cur);
        guard += 1;
        if guard > next.len() + 1 {
            return None; // cycle unrelated to the path
        }
    }
    Some(nodes)
}

/// Recomputes per-node energy and lifetimes from the extracted routes and
/// components (ground truth, not MILP variables).
fn recompute_energy(
    d: &mut NetworkDesign,
    template: &NetworkTemplate,
    library: &Library,
    req: &Requirements,
) {
    let p = &req.params;
    let n = template.num_nodes();
    let mut load_tx = vec![0.0f64; n];
    let mut load_rx = vec![0.0f64; n];
    let mut slots = vec![0.0f64; n];
    for r in &d.routes {
        for (i, j) in r.edges() {
            let snr = true_snr_db(template, library, d, i, j, p.noise_dbm).unwrap_or(-30.0);
            let etx = etx_from_snr(snr, p.modulation, p.packet_bits());
            load_tx[i] += etx;
            load_rx[j] += etx;
            slots[i] += 1.0;
            slots[j] += 1.0;
        }
    }
    let seconds_per_year = 365.25 * 24.0 * 3600.0;
    for pnode in &d.placed {
        let i = pnode.node;
        if !matches!(template.nodes()[i].role, NodeRole::Sensor | NodeRole::Relay) {
            continue;
        }
        let c = library.get(pnode.component).expect("valid index");
        let (ctx, crx, cslot, cperiod) = crate::encode::energy::energy_coefficients(p, c);
        let energy = ctx * load_tx[i] + crx * load_rx[i] + cslot * slots[i] + cperiod;
        d.total_energy_mas += energy;
        let avg_current_ma = energy / p.period_s;
        let life_years = p.battery_mas() / avg_current_ma / seconds_per_year;
        d.lifetimes_years.push((i, life_years));
    }
}

/// Independently verifies a design against the requirements. Returns the
/// list of violations (empty = verified).
pub fn verify_design(
    design: &NetworkDesign,
    template: &NetworkTemplate,
    library: &Library,
    req: &Requirements,
) -> Vec<String> {
    let mut violations = Vec::new();
    let placed_nodes: HashSet<usize> = design.placed.iter().map(|p| p.node).collect();
    // Fixed nodes placed?
    for (i, node) in template.nodes().iter().enumerate() {
        if node.role.is_fixed() && !placed_nodes.contains(&i) {
            violations.push(format!("fixed node {} ({}) not placed", i, node.name));
        }
    }
    // Routes: structure + hop bounds.
    for (ridx, r) in design.routes.iter().enumerate() {
        if r.nodes.first() != Some(&r.source) || r.nodes.last() != Some(&r.dest) {
            violations.push(format!("route {} endpoints wrong", ridx));
        }
        let distinct: HashSet<_> = r.nodes.iter().collect();
        if distinct.len() != r.nodes.len() {
            violations.push(format!("route {} revisits a node", ridx));
        }
        for n in &r.nodes {
            if !placed_nodes.contains(n) {
                violations.push(format!("route {} uses unplaced node {}", ridx, n));
            }
        }
        let fam = &req.routes[r.family];
        if let Some(h) = fam.max_hops {
            if r.nodes.len() - 1 > h {
                violations.push(format!(
                    "route {} exceeds hop bound ({} > {})",
                    ridx,
                    r.nodes.len() - 1,
                    h
                ));
            }
        }
        // LQ along the route.
        let floor = req.effective_min_snr_db();
        for (i, j) in r.edges() {
            match true_snr_db(template, library, design, i, j, req.params.noise_dbm) {
                Some(snr) if snr >= floor - 1e-6 => {}
                Some(snr) => violations.push(format!(
                    "link {}->{} SNR {:.1} dB below floor {:.1}",
                    i, j, snr, floor
                )),
                None => violations.push(format!("link {}->{} endpoint unsized", i, j)),
            }
        }
    }
    // Route counts: every concrete requirement must be realized.
    let expected: usize = req
        .routes
        .iter()
        .map(|fam| match &fam.from {
            crate::spec::Selector::Sensors => template.nodes_of(NodeRole::Sensor).len(),
            crate::spec::Selector::Relays => template.nodes_of(NodeRole::Relay).len(),
            crate::spec::Selector::Anchors => template.nodes_of(NodeRole::Anchor).len(),
            crate::spec::Selector::Sink => template.nodes_of(NodeRole::Sink).len(),
            crate::spec::Selector::Node(_) => 1,
        })
        .sum();
    if design.routes.len() != expected {
        violations.push(format!(
            "expected {} routes, extracted {}",
            expected,
            design.routes.len()
        ));
    }
    // Disjointness.
    for &(fa, fb) in &req.disjoint {
        for ra in design.routes.iter().filter(|r| r.family == fa) {
            for rb in design
                .routes
                .iter()
                .filter(|r| r.family == fb && r.source == ra.source && r.dest == ra.dest)
            {
                let ea: HashSet<_> = ra.edges().into_iter().collect();
                if rb.edges().iter().any(|e| ea.contains(e)) {
                    violations.push(format!(
                        "routes of `{}`/`{}` from {} share a link",
                        req.routes[fa].name, req.routes[fb].name, ra.source
                    ));
                }
            }
        }
    }
    // Lifetime.
    if let Some(min_years) = req.min_lifetime_years {
        for &(i, years) in &design.lifetimes_years {
            // allow a small relative slack for the convex-envelope gap
            if years < min_years * 0.95 {
                violations.push(format!(
                    "node {} lifetime {:.2} y below required {:.2} y",
                    i, years, min_years
                ));
            }
        }
    }
    // Coverage.
    if let Some((need, _)) = req.min_reachable {
        for (j, &c) in design.coverage.iter().enumerate() {
            if c < need {
                violations.push(format!(
                    "evaluation point {} covered by {} anchors, need {}",
                    j, c, need
                ));
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{encode, EncodeMode};
    use channel::LogDistance;
    use devlib::catalog;
    use floorplan::Point;
    use milp::Config;

    fn run(spec: &str, mode: EncodeMode) -> (NetworkDesign, NetworkTemplate, Requirements) {
        let mut t = NetworkTemplate::new();
        t.add_node("s0", Point::new(0.0, 0.0), NodeRole::Sensor);
        t.add_node("r0", Point::new(15.0, 6.0), NodeRole::Relay);
        t.add_node("r1", Point::new(15.0, -6.0), NodeRole::Relay);
        t.add_node("r2", Point::new(30.0, 6.0), NodeRole::Relay);
        t.add_node("r3", Point::new(30.0, -6.0), NodeRole::Relay);
        t.add_node("sink", Point::new(45.0, 0.0), NodeRole::Sink);
        t.compute_path_loss(&LogDistance::indoor_2_4ghz());
        let lib = catalog::zigbee_reference();
        t.prune_links(&lib, -100.0, 10.0);
        let req = Requirements::from_spec_text(spec).unwrap();
        let enc = encode(&t, &lib, &req, mode).unwrap();
        let sol = enc.model.solve(&Config::default());
        assert!(sol.has_solution(), "status {:?}", sol.status());
        let d = extract_design(&enc, &sol, &t, &lib, &req);
        (d, t, req)
    }

    const SPEC: &str = "p = has_path(sensors, sink)\nq = has_path(sensors, sink)\ndisjoint_links(p, q)\nmin_signal_to_noise(12)\nmin_network_lifetime(2)\nobjective minimize cost";

    #[test]
    fn extracted_design_verifies_approx() {
        let (d, t, req) = run(SPEC, EncodeMode::Approx { kstar: 6 });
        let lib = catalog::zigbee_reference();
        let violations = verify_design(&d, &t, &lib, &req);
        assert!(violations.is_empty(), "violations: {:?}", violations);
        assert_eq!(d.routes.len(), 2);
        assert!(d.total_cost > 0.0);
        assert!(d.min_lifetime_years().unwrap() >= 2.0 * 0.95);
    }

    #[test]
    fn extracted_design_verifies_full() {
        let (d, t, req) = run(SPEC, EncodeMode::Full);
        let lib = catalog::zigbee_reference();
        let violations = verify_design(&d, &t, &lib, &req);
        assert!(violations.is_empty(), "violations: {:?}", violations);
        assert_eq!(d.routes.len(), 2);
    }

    #[test]
    fn full_and_approx_costs_close() {
        // with a healthy K*, the approximate optimum should match the exact
        // one on this tiny template
        let (da, _, _) = run(SPEC, EncodeMode::Approx { kstar: 10 });
        let (df, _, _) = run(SPEC, EncodeMode::Full);
        assert!(
            da.total_cost >= df.total_cost - 1e-6,
            "approx {} cheaper than exact {}",
            da.total_cost,
            df.total_cost
        );
        assert!(
            (da.total_cost - df.total_cost).abs() < 1e-6,
            "approx {} vs exact {}",
            da.total_cost,
            df.total_cost
        );
    }

    #[test]
    fn metrics_reported() {
        let (d, _, _) = run(SPEC, EncodeMode::Approx { kstar: 6 });
        assert!(d.avg_lifetime_years().unwrap() > 0.0);
        assert!(d.total_energy_mas > 0.0);
        assert!(d.num_nodes() >= 3); // sensor + sink + >=1 relay likely
        assert!(d.avg_reachable().is_none()); // no localization here
    }

    #[test]
    fn verify_catches_planted_violation() {
        let (mut d, t, req) = run(SPEC, EncodeMode::Approx { kstar: 6 });
        let lib = catalog::zigbee_reference();
        // sabotage: drop the first placed relay from the design
        let relay_pos = d
            .placed
            .iter()
            .position(|p| t.nodes()[p.node].role == NodeRole::Relay);
        if let Some(pos) = relay_pos {
            d.placed.remove(pos);
            let violations = verify_design(&d, &t, &lib, &req);
            assert!(!violations.is_empty());
        }
        // sabotage: make both routes identical
        let (mut d2, t2, req2) = run(SPEC, EncodeMode::Approx { kstar: 6 });
        d2.routes[1] = DesignRoute {
            replica: 1,
            family: 1,
            ..d2.routes[0].clone()
        };
        let violations = verify_design(&d2, &t2, &lib, &req2);
        assert!(violations.iter().any(|v| v.contains("share a link")));
    }
}
