//! MILP encoding of the exploration problem.
//!
//! The encoder turns a template + library + requirements into a
//! [`lpmodel::Model`] holding the decision variables of the paper's problem
//! statement — edge activations `E`, routing `R`, and component sizing `M` —
//! plus the derived link-quality, energy, and localization constraints.
//!
//! Two routing encoders are provided:
//!
//! * [`routing::encode_full`] — the exact formulation (1a)–(1e), one `α^π`
//!   variable per (route, candidate link);
//! * [`routing::encode_approx`] — **Algorithm 1**, the paper's contribution:
//!   Yen's K-shortest candidate paths with selector variables.

pub mod energy;
pub mod link_quality;
pub mod localization;
pub mod mapping;
pub mod objective;
pub mod pricing_hooks;
pub mod routing;

use crate::requirements::Requirements;
use crate::template::{NetworkTemplate, NodeRole};
use devlib::Library;
use lpmodel::{LinExpr, Model, Vid};
use std::collections::HashMap;

/// How to encode routing constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeMode {
    /// Approximate path encoding (Algorithm 1) with `kstar` candidates per
    /// required route.
    Approx {
        /// Number of candidate paths `K*`.
        kstar: usize,
    },
    /// Exhaustive path encoding, constraints (1a)–(1e).
    Full,
}

/// Encoding failure.
#[derive(Debug, Clone, PartialEq)]
pub enum EncodeError {
    /// A route family selector matched no source nodes.
    EmptySelector {
        /// The family name.
        family: String,
    },
    /// A named node does not exist in the template.
    UnknownNode {
        /// The missing name.
        name: String,
    },
    /// No candidate paths exist between a required source/destination.
    NoCandidatePaths {
        /// Source node index.
        src: usize,
        /// Destination node index.
        dst: usize,
    },
    /// The library offers no component for a role present in the template.
    NoComponents {
        /// The uncovered role.
        role: NodeRole,
    },
    /// Localization constraints requested but the template has no
    /// evaluation points or no anchors.
    NoLocalizationData,
    /// The template has routes requested but no sink/destination resolved.
    MissingDestination,
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::EmptySelector { family } => {
                write!(f, "route family `{}` matches no source nodes", family)
            }
            EncodeError::UnknownNode { name } => write!(f, "unknown node `{}`", name),
            EncodeError::NoCandidatePaths { src, dst } => {
                write!(f, "no candidate paths from node {} to node {}", src, dst)
            }
            EncodeError::NoComponents { role } => {
                write!(f, "library has no components for role {:?}", role)
            }
            EncodeError::NoLocalizationData => {
                write!(f, "localization requires anchors and evaluation points")
            }
            EncodeError::MissingDestination => write!(f, "route destination not found"),
        }
    }
}

impl std::error::Error for EncodeError {}

/// One candidate path of the approximate encoding.
#[derive(Debug, Clone)]
pub struct CandidatePath {
    /// Selection binary `s` — 1 iff this candidate realizes the route.
    pub selector: Vid,
    /// Node indices along the path.
    pub nodes: Vec<usize>,
    /// Directed edges along the path.
    pub edges: Vec<(usize, usize)>,
}

/// Routing variables of one concrete route replica.
#[derive(Debug, Clone)]
pub enum RouteVars {
    /// Approximate encoding: pick one of the candidates.
    Approx {
        /// The Yen-generated candidates.
        candidates: Vec<CandidatePath>,
        /// Per-edge usage binaries `a_ij` (= OR of selectors of candidates
        /// using the edge), for disjointness and energy accounting.
        edge_used: HashMap<(usize, usize), Vid>,
    },
    /// Full encoding: one `α_ij` per candidate link.
    Full {
        /// `α` variables keyed by directed link.
        alpha: HashMap<(usize, usize), Vid>,
    },
}

/// One concrete required route (a replica of a family route).
#[derive(Debug, Clone)]
pub struct EncodedRoute {
    /// Index into `Requirements::routes`.
    pub family: usize,
    /// Source template node.
    pub source: usize,
    /// Destination template node.
    pub dest: usize,
    /// Replica number within its disjointness group.
    pub replica: usize,
    /// The routing variables.
    pub vars: RouteVars,
}

/// The complete encoding: model + variable maps.
#[derive(Debug)]
pub struct Encoding {
    /// The underlying MILP model.
    pub model: Model,
    /// `u_i` — node used.
    pub node_used: Vec<Vid>,
    /// `m_ki` — per node, (library index, variable) pairs over compatible
    /// components.
    pub map_vars: Vec<Vec<(usize, Vid)>>,
    /// `e_ij` — activated links (created on demand).
    pub edge_vars: HashMap<(usize, usize), Vid>,
    /// Encoded route replicas.
    pub routes: Vec<EncodedRoute>,
    /// Localization reachability literals: per evaluation point, the
    /// (anchor node, `r`) pairs that were encoded.
    pub reach_vars: Vec<Vec<(usize, Vid)>>,
    /// Per-node energy expressions (mA·s per period), for nodes with an
    /// energy model.
    pub node_energy: Vec<Option<LinExpr>>,
    /// Total dollar cost expression.
    pub cost_expr: LinExpr,
    /// Total energy expression (sum of node energies, mA·s per period).
    pub energy_expr: LinExpr,
    /// DSOD localization objective expression.
    pub dsod_expr: LinExpr,
    /// Row/column bookkeeping for column generation; `Some` only when the
    /// encoding was built through [`encode_pricing`].
    pub pricing: Option<pricing_hooks::PricingHooks>,
}

impl Encoding {
    /// Affine expression of a node attribute under the sizing map:
    /// `sum_k attr(component_k) * m_ki`.
    pub fn node_attr_expr(&self, node: usize, library: &Library, f: impl Fn(&devlib::Component) -> f64) -> LinExpr {
        let mut e = LinExpr::zero();
        for &(lib_idx, v) in &self.map_vars[node] {
            let c = library.get(lib_idx).expect("map var indexes valid component");
            e.add_term(v, f(c));
        }
        e
    }

    /// Marks the component at library index `lib_idx` as unavailable: every
    /// sizing variable that selects it is fixed to zero. A bound change
    /// only — model structure (and its [`milp::structure_fingerprint`]) is
    /// preserved, so warm state survives stock toggles.
    pub fn ban_component(&mut self, lib_idx: usize) {
        for node in 0..self.map_vars.len() {
            for &(k, v) in self.map_vars[node].clone().iter() {
                if k == lib_idx {
                    self.model.fix(v, 0.0);
                }
            }
        }
    }

    /// Undoes [`Encoding::ban_component`]: restores the binary `[0, 1]`
    /// domain of every sizing variable selecting `lib_idx`.
    pub fn unban_component(&mut self, lib_idx: usize) {
        for node in 0..self.map_vars.len() {
            for &(k, v) in self.map_vars[node].clone().iter() {
                if k == lib_idx {
                    self.model.set_bounds(v, 0.0, 1.0);
                }
            }
        }
    }

    /// Gets or creates the edge activation variable `e_ij`, linking it to
    /// node usage (`e <= u_i`, `e <= u_j`).
    pub fn edge_var(&mut self, i: usize, j: usize) -> Vid {
        if let Some(&v) = self.edge_vars.get(&(i, j)) {
            return v;
        }
        let v = self.model.binary(format!("e_{}_{}", i, j));
        let ui = self.node_used[i];
        let uj = self.node_used[j];
        self.model.add((LinExpr::from(v) - ui).leq(0.0));
        self.model.add((LinExpr::from(v) - uj).leq(0.0));
        self.edge_vars.insert((i, j), v);
        v
    }

    /// Number of model constraints (for the Table 3 size comparisons).
    pub fn num_cons(&self) -> usize {
        self.model.num_cons()
    }

    /// Number of model variables.
    pub fn num_vars(&self) -> usize {
        self.model.num_vars()
    }
}

/// Encodes the full exploration problem with an explicit link-quality
/// linearization (see [`link_quality::LqEncoding`]).
///
/// # Errors
///
/// Returns [`EncodeError`] when the template, library, and requirements are
/// inconsistent (unknown nodes, uncovered roles, unreachable destinations).
pub fn encode_with_lq(
    template: &NetworkTemplate,
    library: &Library,
    req: &Requirements,
    mode: EncodeMode,
    lq: link_quality::LqEncoding,
) -> Result<Encoding, EncodeError> {
    let mut enc = mapping::encode_mapping(template, library)?;
    let concrete = routing::resolve_routes(template, req)?;
    match mode {
        EncodeMode::Approx { kstar } => {
            routing::encode_approx(&mut enc, template, req, &concrete, kstar)?
        }
        EncodeMode::Full => routing::encode_full(&mut enc, template, req, &concrete)?,
    }
    link_quality::encode_link_quality_with(&mut enc, template, library, req, lq);
    energy::encode_energy(&mut enc, template, library, req);
    if req.min_reachable.is_some() {
        let k = match mode {
            EncodeMode::Approx { kstar } => Some(kstar),
            EncodeMode::Full => None,
        };
        localization::encode_localization(&mut enc, template, library, req, k)?;
    }
    objective::encode_objective(&mut enc, library, req);
    Ok(enc)
}

/// Encodes the exploration problem for **column generation**: the
/// approximate routing encoder runs with a deliberately small `kstar` as
/// the restricted master, and everything the pricer needs to append path
/// columns later is prepared up front:
///
/// * row/column bookkeeping is recorded into [`Encoding::pricing`] (GUB
///   rows, `a`-definition rows, disjointness rows, energy rows and their
///   load coefficients);
/// * a bounded **link universe** — the union of edges over a comfortably
///   larger Yen candidate set (`max(4·kstar, 16)`) than the seeded
///   selectors — gets its activation variables (and link-quality
///   constraints) immediately, so priced-in paths may recombine edges
///   across candidates no seed uses, while the model stays near the plain
///   approximate encoding's size (pre-activating *every* template link
///   multiplies the row count several-fold and drowns the integer search);
/// * energy big-M constants are derived from structural worst cases (every
///   replica crossing the node) instead of the current expression bounds,
///   so the rows stay valid as columns join them.
///
/// # Errors
///
/// See [`encode_with_lq`].
pub fn encode_pricing(
    template: &NetworkTemplate,
    library: &Library,
    req: &Requirements,
    kstar: usize,
    lq: link_quality::LqEncoding,
) -> Result<Encoding, EncodeError> {
    let mut enc = mapping::encode_mapping(template, library)?;
    enc.pricing = Some(pricing_hooks::PricingHooks::default());
    let concrete = routing::resolve_routes(template, req)?;
    routing::encode_approx(&mut enc, template, req, &concrete, kstar)?;
    // Pre-activate the link universe: priced paths may use any of these
    // edges, and link-quality/ETX constraints only cover edges that exist
    // by the time they encode.
    let universe_k = (4 * kstar).max(16);
    for (i, j) in routing::link_universe(template, req, &concrete, universe_k)? {
        enc.edge_var(i, j);
    }
    link_quality::encode_link_quality_with(&mut enc, template, library, req, lq);
    energy::encode_energy(&mut enc, template, library, req);
    if req.min_reachable.is_some() {
        localization::encode_localization(&mut enc, template, library, req, Some(kstar))?;
    }
    objective::encode_objective(&mut enc, library, req);
    Ok(enc)
}

/// Encodes the full exploration problem with the default (tight)
/// link-quality linearization.
///
/// # Errors
///
/// See [`encode_with_lq`].
pub fn encode(
    template: &NetworkTemplate,
    library: &Library,
    req: &Requirements,
    mode: EncodeMode,
) -> Result<Encoding, EncodeError> {
    encode_with_lq(template, library, req, mode, link_quality::LqEncoding::default())
}

pub(crate) fn new_encoding(model: Model) -> Encoding {
    Encoding {
        model,
        node_used: Vec::new(),
        map_vars: Vec::new(),
        edge_vars: HashMap::new(),
        routes: Vec::new(),
        reach_vars: Vec::new(),
        node_energy: Vec::new(),
        cost_expr: LinExpr::zero(),
        energy_expr: LinExpr::zero(),
        dsod_expr: LinExpr::zero(),
        pricing: None,
    }
}
