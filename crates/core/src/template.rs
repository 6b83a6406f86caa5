//! Network templates: candidate node locations with roles, candidate links,
//! and precomputed path-loss matrices.
//!
//! A template is the paper's graph `T = (V, E)` with fixed nodes and
//! configurable links. Nodes come from floor-plan markers (or are added
//! programmatically); the candidate link set is derived from the channel
//! model by keeping only links that could meet the link-quality requirement
//! under the *best* component choice in the library (the same pre-pruning
//! the paper applies before encoding).

use channel::PathLossModel;
use devlib::{DeviceKind, Library};
use floorplan::{FloorPlan, MarkerKind, Point};
use netgraph::{DiGraph, NodeId};

/// The role of a template node (mirrors [`DeviceKind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeRole {
    /// Sensing end device (fixed position, always used).
    Sensor,
    /// Candidate relay position (optional).
    Relay,
    /// Base station (fixed, always used).
    Sink,
    /// Candidate localization anchor (optional).
    Anchor,
}

impl NodeRole {
    /// The matching library device kind.
    pub fn device_kind(self) -> DeviceKind {
        match self {
            NodeRole::Sensor => DeviceKind::Sensor,
            NodeRole::Relay => DeviceKind::Relay,
            NodeRole::Sink => DeviceKind::Sink,
            NodeRole::Anchor => DeviceKind::Anchor,
        }
    }

    /// Whether a node of this role is fixed (must appear in every design).
    pub fn is_fixed(self) -> bool {
        matches!(self, NodeRole::Sensor | NodeRole::Sink)
    }

    /// Whether data links from `self` to `to` are admissible in a
    /// data-collection network: sensors and relays transmit toward relays
    /// and the sink; sensors never forward; the sink never transmits data.
    pub fn can_send_to(self, to: NodeRole) -> bool {
        matches!(
            (self, to),
            (NodeRole::Sensor | NodeRole::Relay, NodeRole::Relay | NodeRole::Sink)
        )
    }
}

/// One candidate node of the template.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateNode {
    /// Human-readable name (`s0`, `r12`, `sink`, ...).
    pub name: String,
    /// Position on the floor plan (m).
    pub position: Point,
    /// Role of the node.
    pub role: NodeRole,
}

/// A network template: nodes, candidate links, and path-loss data.
///
/// # Examples
///
/// ```
/// use archex::template::{NetworkTemplate, NodeRole};
/// use floorplan::Point;
/// use channel::LogDistance;
/// use devlib::catalog;
///
/// let mut t = NetworkTemplate::new();
/// t.add_node("s0", Point::new(0.0, 0.0), NodeRole::Sensor);
/// t.add_node("r0", Point::new(10.0, 0.0), NodeRole::Relay);
/// t.add_node("sink", Point::new(20.0, 0.0), NodeRole::Sink);
/// t.compute_path_loss(&LogDistance::indoor_2_4ghz());
/// t.prune_links(&catalog::zigbee_reference(), -100.0, 10.0);
/// assert!(t.links().len() > 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct NetworkTemplate {
    nodes: Vec<TemplateNode>,
    /// Flat row-major path-loss matrix (dB); `f64::INFINITY` off-template.
    pl: Vec<f64>,
    /// Candidate directed links (indices into `nodes`).
    links: Vec<(usize, usize)>,
    /// Localization evaluation locations.
    eval_points: Vec<Point>,
    /// Path loss from every node to every evaluation point (row-major,
    /// `nodes x eval_points`).
    pl_eval: Vec<f64>,
}

impl NetworkTemplate {
    /// Creates an empty template.
    pub fn new() -> Self {
        NetworkTemplate::default()
    }

    /// Builds a template from floor-plan markers: sensors, sink, relays,
    /// anchors become nodes; eval markers become evaluation points.
    pub fn from_plan(plan: &FloorPlan) -> Self {
        let mut t = NetworkTemplate::new();
        let mut counters = std::collections::HashMap::new();
        for m in plan.markers() {
            let (role, prefix) = match m.kind {
                MarkerKind::Sensor => (NodeRole::Sensor, "s"),
                MarkerKind::Sink => (NodeRole::Sink, "sink"),
                MarkerKind::Relay => (NodeRole::Relay, "r"),
                MarkerKind::Anchor => (NodeRole::Anchor, "a"),
                MarkerKind::EvalPoint => {
                    t.eval_points.push(m.position);
                    continue;
                }
            };
            let c = counters.entry(prefix).or_insert(0usize);
            let name = if role == NodeRole::Sink && *c == 0 {
                "sink".to_string()
            } else {
                format!("{}{}", prefix, c)
            };
            *c += 1;
            t.add_node(name, m.position, role);
        }
        t
    }

    /// Adds a node, returning its index.
    pub fn add_node(&mut self, name: impl Into<String>, position: Point, role: NodeRole) -> usize {
        self.nodes.push(TemplateNode {
            name: name.into(),
            position,
            role,
        });
        self.nodes.len() - 1
    }

    /// All nodes.
    pub fn nodes(&self) -> &[TemplateNode] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Indices of nodes with a role.
    pub fn nodes_of(&self, role: NodeRole) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].role == role)
            .collect()
    }

    /// Index of a node by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.nodes.iter().position(|n| n.name == name)
    }

    /// Evaluation points.
    pub fn eval_points(&self) -> &[Point] {
        &self.eval_points
    }

    /// Computes the full node-to-node and node-to-eval path-loss matrices
    /// with `model`. Must be called after all nodes/eval points are added.
    pub fn compute_path_loss(&mut self, model: &impl PathLossModel) {
        let n = self.nodes.len();
        self.pl = vec![f64::INFINITY; n * n];
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    self.pl[i * n + j] =
                        model.path_loss_db(self.nodes[i].position, self.nodes[j].position);
                }
            }
        }
        let ne = self.eval_points.len();
        self.pl_eval = vec![f64::INFINITY; n * ne];
        for i in 0..n {
            for (j, &ep) in self.eval_points.iter().enumerate() {
                self.pl_eval[i * ne + j] = model.path_loss_db(self.nodes[i].position, ep);
            }
        }
    }

    /// Computes the node-to-node path-loss matrix from a closure over node
    /// *indices* instead of a single [`PathLossModel`]. City-scale templates
    /// need this: intra-building links use the building's multi-wall model,
    /// inter-building backhaul uses an outdoor model, and everything else is
    /// `INFINITY` — no single model over the merged plan can express that
    /// (nor afford it at thousands of sites). Eval-point losses are set to
    /// `INFINITY`; city instances do not use coverage eval points.
    pub fn compute_path_loss_with(&mut self, mut loss_db: impl FnMut(usize, usize) -> f64) {
        let n = self.nodes.len();
        self.pl = vec![f64::INFINITY; n * n];
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    self.pl[i * n + j] = loss_db(i, j);
                }
            }
        }
        self.pl_eval = vec![f64::INFINITY; n * self.eval_points.len()];
    }

    /// Adds `delta_db` to the path loss between nodes `i` and `j`, in both
    /// directions — the floorplan changed (a wall went up or came down)
    /// without moving any node. Callers must re-run
    /// [`Self::prune_links`] afterwards: the candidate link set is stale
    /// until then.
    ///
    /// # Panics
    ///
    /// Panics if [`Self::compute_path_loss`] has not run or `i == j`.
    pub fn add_path_loss_db(&mut self, i: usize, j: usize, delta_db: f64) {
        assert!(
            !self.pl.is_empty(),
            "compute_path_loss must run before add_path_loss_db"
        );
        assert_ne!(i, j, "path loss is only defined between distinct nodes");
        let n = self.nodes.len();
        self.pl[i * n + j] += delta_db;
        self.pl[j * n + i] += delta_db;
    }

    /// Path loss between two nodes (dB; `INFINITY` when unknown).
    pub fn path_loss(&self, i: usize, j: usize) -> f64 {
        let n = self.nodes.len();
        if self.pl.is_empty() {
            f64::INFINITY
        } else {
            self.pl[i * n + j]
        }
    }

    /// Path loss from node `i` to evaluation point `j`.
    pub fn path_loss_to_eval(&self, i: usize, j: usize) -> f64 {
        let ne = self.eval_points.len();
        if self.pl_eval.is_empty() {
            f64::INFINITY
        } else {
            self.pl_eval[i * ne + j]
        }
    }

    /// Derives the candidate link set: keep the directed link `i -> j` when
    /// roles admit it and the **best-case** SNR over the library clears
    /// `min_snr_db`: `max_eirp(role_i) + max_gain(role_j) - PL - noise >=
    /// min_snr_db`. Mirrors the paper's pre-pruning of infeasible links.
    ///
    /// # Panics
    ///
    /// Panics if [`Self::compute_path_loss`] has not run.
    pub fn prune_links(&mut self, library: &Library, noise_dbm: f64, min_snr_db: f64) {
        assert!(
            !self.pl.is_empty() || self.nodes.is_empty(),
            "compute_path_loss must run before prune_links"
        );
        self.links.clear();
        let n = self.nodes.len();
        for i in 0..n {
            for j in 0..n {
                if i == j || !self.nodes[i].role.can_send_to(self.nodes[j].role) {
                    continue;
                }
                let eirp = match library.max_eirp_of(self.nodes[i].role.device_kind()) {
                    Some(e) => e,
                    None => continue,
                };
                let rx_gain = library
                    .of_kind(self.nodes[j].role.device_kind())
                    .map(|(_, c)| c.antenna_gain_dbi)
                    .fold(f64::NEG_INFINITY, f64::max);
                if !rx_gain.is_finite() {
                    continue;
                }
                let best_snr = eirp + rx_gain - self.path_loss(i, j) - noise_dbm;
                if best_snr >= min_snr_db {
                    self.links.push((i, j));
                }
            }
        }
    }

    /// The candidate links.
    pub fn links(&self) -> &[(usize, usize)] {
        &self.links
    }

    /// Builds the weighted digraph over candidate links (weights = path
    /// loss), for Yen's algorithm. Node ids equal template indices; the
    /// returned edge order equals [`Self::links`] order.
    pub fn graph(&self) -> DiGraph {
        let mut g = DiGraph::new(self.nodes.len());
        for &(i, j) in &self.links {
            g.add_edge(NodeId(i), NodeId(j), self.path_loss(i, j));
        }
        g
    }

    /// Distance between two nodes (m).
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        self.nodes[i].position.distance(self.nodes[j].position)
    }

    /// Distance from a node to an evaluation point (m).
    pub fn distance_to_eval(&self, i: usize, j: usize) -> f64 {
        self.nodes[i].position.distance(self.eval_points[j])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use channel::LogDistance;
    use devlib::catalog;
    use floorplan::{Marker, MarkerKind};

    fn line_template() -> NetworkTemplate {
        let mut t = NetworkTemplate::new();
        t.add_node("s0", Point::new(0.0, 0.0), NodeRole::Sensor);
        t.add_node("r0", Point::new(15.0, 0.0), NodeRole::Relay);
        t.add_node("r1", Point::new(30.0, 0.0), NodeRole::Relay);
        t.add_node("sink", Point::new(45.0, 0.0), NodeRole::Sink);
        t.compute_path_loss(&LogDistance::indoor_2_4ghz());
        t
    }

    #[test]
    fn roles_and_fixedness() {
        assert!(NodeRole::Sensor.is_fixed());
        assert!(NodeRole::Sink.is_fixed());
        assert!(!NodeRole::Relay.is_fixed());
        assert!(NodeRole::Sensor.can_send_to(NodeRole::Relay));
        assert!(NodeRole::Relay.can_send_to(NodeRole::Sink));
        assert!(!NodeRole::Relay.can_send_to(NodeRole::Sensor));
        assert!(!NodeRole::Sink.can_send_to(NodeRole::Relay));
        assert!(!NodeRole::Sensor.can_send_to(NodeRole::Sensor));
    }

    #[test]
    fn path_loss_matrix_symmetry_for_symmetric_model() {
        let t = line_template();
        // log-distance is symmetric
        assert_eq!(t.path_loss(0, 2), t.path_loss(2, 0));
        assert!(t.path_loss(0, 1) < t.path_loss(0, 3));
        assert!(t.path_loss(0, 0).is_infinite());
    }

    #[test]
    fn prune_links_respects_roles_and_snr() {
        let mut t = line_template();
        let lib = catalog::zigbee_reference();
        // generous threshold: everything role-admissible is kept
        t.prune_links(&lib, -100.0, -40.0);
        // admissible directed pairs: s0->r0, s0->r1, s0->sink,
        // r0->r1, r1->r0, r0->sink, r1->sink = 7
        assert_eq!(t.links().len(), 7);
        // strict threshold: long links drop out
        t.prune_links(&lib, -100.0, 40.0);
        assert!(t.links().len() < 7);
        for &(i, j) in t.links() {
            assert!(t.nodes()[i].role.can_send_to(t.nodes()[j].role));
        }
    }

    #[test]
    fn graph_mirrors_links() {
        let mut t = line_template();
        t.prune_links(&catalog::zigbee_reference(), -100.0, -40.0);
        let g = t.graph();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), t.links().len());
        // edge weights are the PL values
        for (e, &(i, j)) in t.links().iter().enumerate() {
            assert_eq!(g.weight(netgraph::EdgeId(e)), t.path_loss(i, j));
        }
    }

    #[test]
    fn from_plan_extracts_markers() {
        let mut plan = FloorPlan::new(50.0, 20.0);
        plan.add_marker(Marker {
            position: Point::new(1.0, 1.0),
            kind: MarkerKind::Sensor,
        });
        plan.add_marker(Marker {
            position: Point::new(25.0, 10.0),
            kind: MarkerKind::Sink,
        });
        plan.add_marker(Marker {
            position: Point::new(10.0, 10.0),
            kind: MarkerKind::Relay,
        });
        plan.add_marker(Marker {
            position: Point::new(40.0, 5.0),
            kind: MarkerKind::EvalPoint,
        });
        let t = NetworkTemplate::from_plan(&plan);
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.eval_points().len(), 1);
        assert_eq!(t.index_of("s0"), Some(0));
        assert_eq!(t.index_of("sink"), Some(1));
        assert_eq!(t.index_of("r0"), Some(2));
        assert_eq!(t.nodes_of(NodeRole::Sensor), vec![0]);
    }

    #[test]
    fn eval_path_loss_computed() {
        let mut plan = FloorPlan::new(50.0, 20.0);
        plan.add_marker(Marker {
            position: Point::new(0.0, 0.0),
            kind: MarkerKind::Anchor,
        });
        plan.add_marker(Marker {
            position: Point::new(30.0, 0.0),
            kind: MarkerKind::EvalPoint,
        });
        let mut t = NetworkTemplate::from_plan(&plan);
        t.compute_path_loss(&LogDistance::indoor_2_4ghz());
        assert!(t.path_loss_to_eval(0, 0).is_finite());
        assert_eq!(t.distance_to_eval(0, 0), 30.0);
    }
}
