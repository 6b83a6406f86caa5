//! Routing constraint encoders: the exact formulation (1a)–(1e) and the
//! approximate path encoding of **Algorithm 1**.

use super::{CandidatePath, EncodeError, EncodedRoute, Encoding, RouteVars};
use crate::requirements::Requirements;
use crate::spec::Selector;
use crate::template::{NetworkTemplate, NodeRole};
use lpmodel::LinExpr;
use netgraph::{k_shortest_paths_filtered, Bans, DiGraph, NodeId, Path};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A resolved, concrete route requirement.
#[derive(Debug, Clone, PartialEq)]
pub struct ConcreteRoute {
    /// Index into `Requirements::routes`.
    pub family: usize,
    /// Source node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Disjointness group id (families joined by `disjoint_links`).
    pub group: usize,
}

fn resolve_selector(
    template: &NetworkTemplate,
    sel: &Selector,
    family: &str,
) -> Result<Vec<usize>, EncodeError> {
    let nodes = match sel {
        Selector::Sensors => template.nodes_of(NodeRole::Sensor),
        Selector::Relays => template.nodes_of(NodeRole::Relay),
        Selector::Anchors => template.nodes_of(NodeRole::Anchor),
        Selector::Sink => template.nodes_of(NodeRole::Sink),
        Selector::Node(name) => match template.index_of(name) {
            Some(i) => vec![i],
            None => return Err(EncodeError::UnknownNode { name: name.clone() }),
        },
    };
    if nodes.is_empty() {
        return Err(EncodeError::EmptySelector {
            family: family.to_string(),
        });
    }
    Ok(nodes)
}

/// Resolves route families into concrete `(family, src, dst, group)`
/// requirements. Families joined (transitively) by `disjoint_links` share a
/// group id.
///
/// # Errors
///
/// Returns [`EncodeError`] for unknown nodes, empty selectors, or a
/// destination selector matching more than one node.
pub fn resolve_routes(
    template: &NetworkTemplate,
    req: &Requirements,
) -> Result<Vec<ConcreteRoute>, EncodeError> {
    // Union-find over families for the disjointness groups.
    let nf = req.routes.len();
    let mut parent: Vec<usize> = (0..nf).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let r = find(parent, parent[x]);
            parent[x] = r;
        }
        parent[x]
    }
    for &(a, b) in &req.disjoint {
        let ra = find(&mut parent, a);
        let rb = find(&mut parent, b);
        if ra != rb {
            parent[ra] = rb;
        }
    }
    let mut out = Vec::new();
    for (fi, fam) in req.routes.iter().enumerate() {
        let sources = resolve_selector(template, &fam.from, &fam.name)?;
        let dests = resolve_selector(template, &fam.to, &fam.name)?;
        if dests.len() != 1 {
            return Err(EncodeError::MissingDestination);
        }
        let dst = dests[0];
        let group = find(&mut parent, fi);
        for src in sources {
            if src != dst {
                out.push(ConcreteRoute {
                    family: fi,
                    src,
                    dst,
                    group,
                });
            }
        }
    }
    Ok(out)
}

/// Encodes routing with **Algorithm 1** (approximate path encoding).
///
/// For every `(group, src, dst)` with `Nrep` required replicas:
/// `BalanceDown` splits `K*` into `K = ceil(K*/Nrep)` candidates per
/// replica; each replica runs Yen's K-shortest paths on the path-loss
/// weighted template; a selector binary per candidate plus `sum s = 1`
/// replaces constraints (1a)–(1c); `DisconnectMinDisjointPath` bans the
/// least-disjoint candidate's edges between replica iterations so at least
/// `Nrep` mutually disjoint candidates exist; an inter-replica `sum a <= 1`
/// per shared edge enforces the disjointness requirement itself.
///
/// # Errors
///
/// Returns [`EncodeError::NoCandidatePaths`] when Yen finds no admissible
/// path for a required route (also when the hop bound filters all of them).
pub fn encode_approx(
    enc: &mut Encoding,
    template: &NetworkTemplate,
    req: &Requirements,
    concrete: &[ConcreteRoute],
    kstar: usize,
) -> Result<(), EncodeError> {
    encode_approx_with_threads(enc, template, req, concrete, kstar, 0)
}

/// Candidate paths of one `(group, src, dst)` key, one entry per replica.
type GroupPaths = Vec<Vec<Path>>;

/// Union of template edges over the Yen candidate sets [`encode_approx`]
/// would build at `kstar` — the bounded link universe a pricing-mode
/// encoding pre-activates (see [`crate::encode::encode_pricing`]). Edges
/// are returned sorted so downstream variable creation is deterministic.
pub(crate) fn link_universe(
    template: &NetworkTemplate,
    req: &Requirements,
    concrete: &[ConcreteRoute],
    kstar: usize,
) -> Result<Vec<(usize, usize)>, EncodeError> {
    let kstar = kstar.max(1);
    let graph = template.graph();
    let mut edge_id: HashMap<(usize, usize), usize> = HashMap::new();
    for (eid, &(i, j)) in template.links().iter().enumerate() {
        edge_id.insert((i, j), eid);
    }
    let mut groups: HashMap<(usize, usize, usize), Vec<&ConcreteRoute>> = HashMap::new();
    for c in concrete {
        groups.entry((c.group, c.src, c.dst)).or_default().push(c);
    }
    let mut universe: Vec<(usize, usize)> = Vec::new();
    for ((_, src, dst), members) in &groups {
        let hops: Vec<Option<usize>> = members
            .iter()
            .map(|r| req.routes[r.family].max_hops)
            .collect();
        let nrep = hops.len();
        let group_paths = candidate_paths_for_group(
            &graph,
            &edge_id,
            &hops,
            *src,
            *dst,
            kstar.div_ceil(nrep),
        )?;
        for paths in &group_paths {
            for p in paths {
                let nodes: Vec<usize> = p.nodes().iter().map(|n| n.index()).collect();
                universe.extend(nodes.windows(2).map(|w| (w[0], w[1])));
            }
        }
    }
    universe.sort_unstable();
    universe.dedup();
    Ok(universe)
}

/// Phase 1 of [`encode_approx`]: runs the Yen/ban iteration for one key.
/// Pure path computation — no model state — so different keys can run on
/// different threads.
fn candidate_paths_for_group(
    graph: &DiGraph,
    edge_id: &HashMap<(usize, usize), usize>,
    max_hops: &[Option<usize>],
    src: usize,
    dst: usize,
    k_per_rep: usize,
) -> Result<GroupPaths, EncodeError> {
    let nrep = max_hops.len();
    let mut bans = Bans::none(graph);
    let mut out = Vec::with_capacity(nrep);
    for (rep, &hops) in max_hops.iter().enumerate() {
        let paths = k_shortest_paths_filtered(graph, NodeId(src), NodeId(dst), k_per_rep, &bans);
        let paths: Vec<_> = paths
            .into_iter()
            .filter(|p| hops.is_none_or(|h| p.len() <= h))
            .collect();
        if paths.is_empty() {
            return Err(EncodeError::NoCandidatePaths { src, dst });
        }
        // DisconnectMinDisjointPath: ban the candidate sharing the most
        // edges with the others, so the next replica iteration produces
        // at least one fully independent path.
        if rep + 1 < nrep {
            let mut worst = 0usize;
            let mut worst_score = -1i64;
            for (i, p) in paths.iter().enumerate() {
                let score: i64 = paths
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, q)| p.shared_edges(q) as i64)
                    .sum();
                if score > worst_score {
                    worst_score = score;
                    worst = i;
                }
            }
            for w in paths[worst].nodes().windows(2) {
                if let Some(&eid) = edge_id.get(&(w[0].index(), w[1].index())) {
                    bans.edges[eid] = true;
                }
            }
        }
        out.push(paths);
    }
    Ok(out)
}

/// [`encode_approx`] with an explicit Yen worker-thread count (`0` = the
/// machine's available parallelism, `1` = fully sequential).
///
/// Candidate generation splits into two phases. Phase 1 computes every
/// key's candidate paths — the Yen runs and inter-replica ban iteration for
/// one `(group, src, dst)` key are a sequential chain, but distinct keys
/// are independent, so they spread over `threads` workers. Phase 2 builds
/// the model sequentially in sorted key order from the precomputed paths.
/// Since phase 1 is pure and per-key deterministic, the resulting candidate
/// sets, variable order, and constraints are identical for every `threads`
/// value.
pub fn encode_approx_with_threads(
    enc: &mut Encoding,
    template: &NetworkTemplate,
    req: &Requirements,
    concrete: &[ConcreteRoute],
    kstar: usize,
    threads: usize,
) -> Result<(), EncodeError> {
    let kstar = kstar.max(1);
    let graph = template.graph();
    // Map template edge -> graph EdgeId for banning.
    let mut edge_id: HashMap<(usize, usize), usize> = HashMap::new();
    for (eid, &(i, j)) in template.links().iter().enumerate() {
        edge_id.insert((i, j), eid);
    }

    // Group replicas by (group, src, dst).
    let mut groups: HashMap<(usize, usize, usize), Vec<&ConcreteRoute>> = HashMap::new();
    for c in concrete {
        groups.entry((c.group, c.src, c.dst)).or_default().push(c);
    }
    let mut keys: Vec<_> = groups.keys().copied().collect();
    keys.sort_unstable();

    // --- Phase 1: candidate paths per key, possibly in parallel ---
    let per_key_hops: Vec<Vec<Option<usize>>> = keys
        .iter()
        .map(|key| {
            groups[key]
                .iter()
                .map(|route| req.routes[route.family].max_hops)
                .collect()
        })
        .collect();
    let compute = |idx: usize| -> Result<GroupPaths, EncodeError> {
        let (_, src, dst) = keys[idx];
        let nrep = per_key_hops[idx].len();
        candidate_paths_for_group(
            &graph,
            &edge_id,
            &per_key_hops[idx],
            src,
            dst,
            kstar.div_ceil(nrep),
        )
    };
    let nworkers = match threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
    .min(keys.len())
    .max(1);
    let mut computed: Vec<Option<Result<GroupPaths, EncodeError>>> = Vec::new();
    if nworkers <= 1 {
        computed.extend((0..keys.len()).map(|i| Some(compute(i))));
    } else {
        let slots: Vec<Mutex<Option<Result<GroupPaths, EncodeError>>>> =
            keys.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..nworkers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= keys.len() {
                        break;
                    }
                    // Isolate a panicking key: the worker survives to take
                    // the next key, and the panicked slot stays `None` for
                    // the sequential fallback below.
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| compute(i)));
                    if let Ok(r) = r {
                        *slots[i]
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(r);
                    }
                });
            }
        });
        computed.extend(slots.into_iter().enumerate().map(|(i, m)| {
            // A slot a worker never filled (it panicked) is recomputed
            // inline; deterministic inputs mean a repeated panic would
            // surface here on the caller's thread with full context.
            Some(
                m.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .unwrap_or_else(|| compute(i)),
            )
        }));
    }

    // --- Phase 2: sequential model build in sorted key order ---
    let record_hooks = enc.pricing.is_some();
    for (key, result) in keys.iter().zip(computed) {
        let members = &groups[key];
        let &(_, src, dst) = key;
        let nrep = members.len();
        // Surface errors in sorted key order, matching the sequential scan.
        let group_paths = result.expect("every key computed")?;
        let mut replica_edge_used: Vec<HashMap<(usize, usize), lpmodel::Vid>> = Vec::new();

        for (rep, (route, paths)) in members.iter().zip(&group_paths).enumerate() {
            let fam = &req.routes[route.family];
            // Selector per candidate; exactly one candidate realizes the
            // route (replaces (1a)-(1c): Yen guarantees validity).
            let mut selector_sum = LinExpr::zero();
            let mut candidates = Vec::with_capacity(paths.len());
            let mut edge_to_selectors: HashMap<(usize, usize), Vec<lpmodel::Vid>> = HashMap::new();
            for (kidx, p) in paths.iter().enumerate() {
                let s = enc
                    .model
                    .binary(format!("s_{}_{}_{}_{}", fam.name, src, rep, kidx));
                selector_sum.add_term(s, 1.0);
                let nodes: Vec<usize> = p.nodes().iter().map(|n| n.index()).collect();
                let edges: Vec<(usize, usize)> =
                    nodes.windows(2).map(|w| (w[0], w[1])).collect();
                for &e in &edges {
                    edge_to_selectors.entry(e).or_default().push(s);
                }
                candidates.push(CandidatePath {
                    selector: s,
                    nodes,
                    edges,
                });
            }
            // One-candidate-per-route disjunction.
            let gub_row = enc.model.add_named(
                format!("route_{}_{}_{}", fam.name, src, rep),
                selector_sum.eq(1.0),
            );
            // Edge-usage binaries a_e = sum of selectors through e, and
            // linking to the global edge activations.
            let mut edge_used = HashMap::new();
            let mut a_def_rows: HashMap<(usize, usize), usize> = HashMap::new();
            let mut a_cols: HashMap<(usize, usize), usize> = HashMap::new();
            // Sorted edge order: variable/row creation order must be
            // process-independent or checkpoint fingerprints (which hash
            // the base LP) would reject frames written by a previous run.
            let mut edge_order: Vec<(usize, usize)> = edge_to_selectors.keys().copied().collect();
            edge_order.sort_unstable();
            for e in &edge_order {
                let sels = &edge_to_selectors[e];
                let a = enc
                    .model
                    .binary(format!("a_{}_{}_{}_{}_{}", fam.name, src, rep, e.0, e.1));
                let mut sum = LinExpr::term(a, -1.0);
                for &s in sels {
                    sum.add_term(s, 1.0);
                }
                let def_row = enc.model.add(sum.eq(0.0));
                let ev = enc.edge_var(e.0, e.1);
                enc.model.add((LinExpr::from(a) - ev).leq(0.0));
                edge_used.insert(*e, a);
                if record_hooks {
                    a_def_rows.insert(*e, def_row);
                    a_cols.insert(*e, a.index());
                }
            }
            replica_edge_used.push(edge_used.clone());
            enc.routes.push(EncodedRoute {
                family: route.family,
                source: src,
                dest: dst,
                replica: rep,
                vars: RouteVars::Approx {
                    candidates,
                    edge_used,
                },
            });
            if let Some(hooks) = enc.pricing.as_mut() {
                let RouteVars::Approx { candidates, .. } = &enc.routes[enc.routes.len() - 1].vars
                else {
                    unreachable!("just pushed approx vars");
                };
                hooks.replicas.push(super::pricing_hooks::ReplicaHooks {
                    route_idx: enc.routes.len() - 1,
                    key: *key,
                    family: route.family,
                    replica: rep,
                    src,
                    dst,
                    max_hops: fam.max_hops,
                    gub_row,
                    a_def_rows,
                    a_cols,
                    seen: candidates.iter().map(|c| c.nodes.clone()).collect(),
                });
            }
        }

        // Inter-replica link-disjointness: each edge may carry at most one
        // replica of the group (the approximate form of constraint (1d)).
        if nrep > 1 {
            let mut all_edges: Vec<(usize, usize)> = replica_edge_used
                .iter()
                .flat_map(|m| m.keys().copied())
                .collect();
            all_edges.sort_unstable();
            all_edges.dedup();
            for e in all_edges {
                let users: Vec<lpmodel::Vid> = replica_edge_used
                    .iter()
                    .filter_map(|m| m.get(&e).copied())
                    .collect();
                if users.len() >= 2 {
                    let mut sum = LinExpr::zero();
                    for v in users {
                        sum.add_term(v, 1.0);
                    }
                    let row = enc.model.add(sum.leq(1.0));
                    if let Some(hooks) = enc.pricing.as_mut() {
                        hooks.disjoint_rows.insert((*key, e), row);
                    }
                }
            }
        }
    }
    Ok(())
}

/// Encodes routing exhaustively — the paper's exact constraints (1a)–(1e):
/// one `α_ij` binary per (route, candidate link), flow balance, edge
/// linking, loop-freedom degree bounds, pairwise disjointness, and hop
/// limits.
///
/// # Errors
///
/// Currently infallible in practice, but shares the signature of
/// [`encode_approx`] for symmetry; infeasibility (e.g. disconnected
/// source) surfaces at solve time.
pub fn encode_full(
    enc: &mut Encoding,
    template: &NetworkTemplate,
    req: &Requirements,
    concrete: &[ConcreteRoute],
) -> Result<(), EncodeError> {
    let n = template.num_nodes();
    for (ridx, route) in concrete.iter().enumerate() {
        let fam = &req.routes[route.family];
        let mut alpha: HashMap<(usize, usize), lpmodel::Vid> = HashMap::new();
        for &(i, j) in template.links() {
            let a = enc
                .model
                .binary(format!("al_{}_{}_{}_{}", ridx, route.src, i, j));
            // (1b) α <= e
            let ev = enc.edge_var(i, j);
            enc.model.add((LinExpr::from(a) - ev).leq(0.0));
            alpha.insert((i, j), a);
        }
        // Deterministic edge order for every row built off `alpha`: term
        // and row order must not depend on HashMap iteration (see the
        // checkpoint-fingerprint note in `encode_approx`).
        let mut alpha_order: Vec<(usize, usize)> = alpha.keys().copied().collect();
        alpha_order.sort_unstable();
        // (1a) flow balance.
        for v in 0..n {
            let mut bal = LinExpr::zero();
            for &(i, j) in &alpha_order {
                let a = alpha[&(i, j)];
                if i == v {
                    bal.add_term(a, 1.0);
                }
                if j == v {
                    bal.add_term(a, -1.0);
                }
            }
            let rhs = if v == route.src {
                1.0
            } else if v == route.dst {
                -1.0
            } else {
                0.0
            };
            enc.model
                .add_named(format!("bal_{}_{}", ridx, v), bal.eq(rhs));
        }
        // (1c) loop freedom: at most one successor and one predecessor.
        for v in 0..n {
            let mut outdeg = LinExpr::zero();
            let mut indeg = LinExpr::zero();
            for &(i, j) in &alpha_order {
                let a = alpha[&(i, j)];
                if i == v {
                    outdeg.add_term(a, 1.0);
                }
                if j == v {
                    indeg.add_term(a, 1.0);
                }
            }
            if outdeg.num_terms() > 0 {
                enc.model.add(outdeg.leq(1.0));
            }
            if indeg.num_terms() > 0 {
                enc.model.add(indeg.leq(1.0));
            }
        }
        // (1e) hop bound.
        if let Some(h) = fam.max_hops {
            let mut total = LinExpr::zero();
            for e in &alpha_order {
                total.add_term(alpha[e], 1.0);
            }
            enc.model.add(total.leq(h as f64));
        }
        enc.routes.push(EncodedRoute {
            family: route.family,
            source: route.src,
            dest: route.dst,
            replica: 0,
            vars: RouteVars::Full { alpha },
        });
    }
    // (1d) pairwise disjointness within groups sharing (src, dst).
    for i in 0..concrete.len() {
        for j in (i + 1)..concrete.len() {
            let (a, b) = (&concrete[i], &concrete[j]);
            if a.group == b.group && a.src == b.src && a.dst == b.dst {
                let (ra, rb) = (&enc.routes[i], &enc.routes[j]);
                let (RouteVars::Full { alpha: va }, RouteVars::Full { alpha: vb }) =
                    (&ra.vars, &rb.vars)
                else {
                    continue;
                };
                let mut cons: Vec<_> = va
                    .iter()
                    .filter_map(|(e, &x)| vb.get(e).map(|&y| (*e, x, y)))
                    .collect();
                // Row creation order must be deterministic across processes.
                cons.sort_unstable_by_key(|&(e, _, _)| e);
                for (_, x, y) in cons {
                    enc.model.add((x + LinExpr::from(y)).leq(1.0));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::mapping::encode_mapping;
    use crate::requirements::Requirements;
    use channel::LogDistance;
    use devlib::catalog;
    use floorplan::Point;
    use milp::Config;

    /// s0 --- r0 --- r1
    ///   \            \
    ///    r2 --------- sink ; multiple disjoint routes exist
    fn diamond_template() -> NetworkTemplate {
        let mut t = NetworkTemplate::new();
        t.add_node("s0", Point::new(0.0, 0.0), NodeRole::Sensor);
        t.add_node("r0", Point::new(10.0, 5.0), NodeRole::Relay);
        t.add_node("r1", Point::new(20.0, 5.0), NodeRole::Relay);
        t.add_node("r2", Point::new(10.0, -5.0), NodeRole::Relay);
        t.add_node("r3", Point::new(20.0, -5.0), NodeRole::Relay);
        t.add_node("sink", Point::new(30.0, 0.0), NodeRole::Sink);
        t.compute_path_loss(&LogDistance::indoor_2_4ghz());
        t.prune_links(&catalog::zigbee_reference(), -100.0, -20.0);
        t
    }

    fn basic_req(spec: &str) -> Requirements {
        Requirements::from_spec_text(spec).unwrap()
    }

    #[test]
    fn resolve_concrete_routes() {
        let t = diamond_template();
        let req = basic_req("p = has_path(sensors, sink)\nq = has_path(sensors, sink)\ndisjoint_links(p, q)");
        let routes = resolve_routes(&t, &req).unwrap();
        assert_eq!(routes.len(), 2);
        assert_eq!(routes[0].src, 0);
        assert_eq!(routes[0].dst, 5);
        // same group because of disjoint_links
        assert_eq!(routes[0].group, routes[1].group);
    }

    #[test]
    fn resolve_unknown_node_errors() {
        let t = diamond_template();
        let req = basic_req("p = has_path(s9, sink)");
        assert!(matches!(
            resolve_routes(&t, &req),
            Err(EncodeError::UnknownNode { .. })
        ));
    }

    #[test]
    fn approx_encoding_selects_one_candidate() {
        let t = diamond_template();
        let lib = catalog::zigbee_reference();
        let req = basic_req("p = has_path(sensors, sink)");
        let mut enc = encode_mapping(&t, &lib).unwrap();
        let concrete = resolve_routes(&t, &req).unwrap();
        encode_approx(&mut enc, &t, &req, &concrete, 5).unwrap();
        assert_eq!(enc.routes.len(), 1);
        let RouteVars::Approx { candidates, .. } = &enc.routes[0].vars else {
            panic!("expected approx vars");
        };
        assert!(!candidates.is_empty() && candidates.len() <= 5);
        // solve: minimize nothing -> must still pick exactly one candidate
        let sol = enc.model.solve(&Config::default());
        assert!(sol.has_solution());
        let picked: f64 = candidates.iter().map(|c| sol.value(c.selector)).sum();
        assert!((picked - 1.0).abs() < 1e-6);
    }

    #[test]
    fn approx_disjoint_replicas_are_disjoint() {
        let t = diamond_template();
        let lib = catalog::zigbee_reference();
        let req = basic_req(
            "p = has_path(sensors, sink)\nq = has_path(sensors, sink)\ndisjoint_links(p, q)",
        );
        let mut enc = encode_mapping(&t, &lib).unwrap();
        let concrete = resolve_routes(&t, &req).unwrap();
        encode_approx(&mut enc, &t, &req, &concrete, 6).unwrap();
        assert_eq!(enc.routes.len(), 2);
        let sol = enc.model.solve(&Config::default());
        assert!(sol.has_solution(), "status {:?}", sol.status());
        // extract both selected paths and check edge disjointness
        let mut edge_sets: Vec<std::collections::HashSet<(usize, usize)>> = Vec::new();
        for r in &enc.routes {
            let RouteVars::Approx { candidates, .. } = &r.vars else {
                panic!()
            };
            let sel = candidates
                .iter()
                .find(|c| sol.is_one(c.selector))
                .expect("one candidate selected");
            edge_sets.push(sel.edges.iter().copied().collect());
        }
        assert!(edge_sets[0].is_disjoint(&edge_sets[1]));
    }

    #[test]
    fn approx_hop_bound_filters_candidates() {
        let t = diamond_template();
        let lib = catalog::zigbee_reference();
        let req = basic_req("p = has_path(sensors, sink)\nmax_hops(p, 2)");
        let mut enc = encode_mapping(&t, &lib).unwrap();
        let concrete = resolve_routes(&t, &req).unwrap();
        encode_approx(&mut enc, &t, &req, &concrete, 10).unwrap();
        let RouteVars::Approx { candidates, .. } = &enc.routes[0].vars else {
            panic!()
        };
        for c in candidates {
            assert!(c.edges.len() <= 2);
        }
    }

    #[test]
    fn full_encoding_finds_route() {
        let t = diamond_template();
        let lib = catalog::zigbee_reference();
        let req = basic_req("p = has_path(sensors, sink)");
        let mut enc = encode_mapping(&t, &lib).unwrap();
        let concrete = resolve_routes(&t, &req).unwrap();
        encode_full(&mut enc, &t, &req, &concrete).unwrap();
        let sol = enc.model.solve(&Config::default());
        assert!(sol.has_solution());
        let RouteVars::Full { alpha } = &enc.routes[0].vars else {
            panic!()
        };
        // flow out of source must be exactly 1
        let out: f64 = alpha
            .iter()
            .filter(|((i, _), _)| *i == 0)
            .map(|(_, &v)| sol.value(v))
            .sum();
        assert!((out - 1.0).abs() < 1e-6);
        // flow into sink must be exactly 1
        let into: f64 = alpha
            .iter()
            .filter(|((_, j), _)| *j == 5)
            .map(|(_, &v)| sol.value(v))
            .sum();
        assert!((into - 1.0).abs() < 1e-6);
    }

    #[test]
    fn full_encoding_disjointness() {
        let t = diamond_template();
        let lib = catalog::zigbee_reference();
        let req = basic_req(
            "p = has_path(sensors, sink)\nq = has_path(sensors, sink)\ndisjoint_links(p, q)",
        );
        let mut enc = encode_mapping(&t, &lib).unwrap();
        let concrete = resolve_routes(&t, &req).unwrap();
        encode_full(&mut enc, &t, &req, &concrete).unwrap();
        let sol = enc.model.solve(&Config::default());
        assert!(sol.has_solution());
        // no edge used by both routes
        let RouteVars::Full { alpha: a0 } = &enc.routes[0].vars else {
            panic!()
        };
        let RouteVars::Full { alpha: a1 } = &enc.routes[1].vars else {
            panic!()
        };
        for (e, &v0) in a0 {
            if let Some(&v1) = a1.get(e) {
                assert!(sol.value(v0) + sol.value(v1) < 1.5);
            }
        }
    }

    #[test]
    fn full_encoding_is_larger_than_approx() {
        let t = diamond_template();
        let lib = catalog::zigbee_reference();
        let req = basic_req("p = has_path(sensors, sink)");
        let concrete = resolve_routes(&t, &req).unwrap();

        let mut e1 = encode_mapping(&t, &lib).unwrap();
        encode_approx(&mut e1, &t, &req, &concrete, 3).unwrap();
        let mut e2 = encode_mapping(&t, &lib).unwrap();
        encode_full(&mut e2, &t, &req, &concrete).unwrap();
        assert!(
            e2.model.num_cons() > e1.model.num_cons(),
            "full {} <= approx {}",
            e2.model.num_cons(),
            e1.model.num_cons()
        );
    }

    #[test]
    fn candidate_sets_invariant_under_yen_threads() {
        let t = diamond_template();
        let lib = catalog::zigbee_reference();
        let req = basic_req(
            "p = has_path(sensors, sink)\nq = has_path(sensors, sink)\ndisjoint_links(p, q)",
        );
        let concrete = resolve_routes(&t, &req).unwrap();
        let encode_at = |threads: usize| {
            let mut enc = encode_mapping(&t, &lib).unwrap();
            encode_approx_with_threads(&mut enc, &t, &req, &concrete, 6, threads).unwrap();
            enc
        };
        let base = encode_at(1);
        for threads in [2usize, 4] {
            let enc = encode_at(threads);
            assert_eq!(enc.model.num_cons(), base.model.num_cons());
            assert_eq!(enc.routes.len(), base.routes.len());
            for (ra, rb) in base.routes.iter().zip(&enc.routes) {
                let (
                    RouteVars::Approx { candidates: ca, .. },
                    RouteVars::Approx { candidates: cb, .. },
                ) = (&ra.vars, &rb.vars)
                else {
                    panic!("expected approx vars");
                };
                let nodes_a: Vec<_> = ca.iter().map(|c| c.nodes.clone()).collect();
                let nodes_b: Vec<_> = cb.iter().map(|c| c.nodes.clone()).collect();
                assert_eq!(nodes_a, nodes_b, "threads = {threads}");
            }
        }
    }

    #[test]
    fn no_candidates_when_disconnected() {
        // sensor too far for any link under a strict SNR threshold
        let mut t = NetworkTemplate::new();
        t.add_node("s0", Point::new(0.0, 0.0), NodeRole::Sensor);
        t.add_node("sink", Point::new(500.0, 0.0), NodeRole::Sink);
        t.compute_path_loss(&LogDistance::indoor_2_4ghz());
        t.prune_links(&catalog::zigbee_reference(), -100.0, 20.0);
        let lib = catalog::zigbee_reference();
        let req = basic_req("p = has_path(sensors, sink)");
        let mut enc = encode_mapping(&t, &lib).unwrap();
        let concrete = resolve_routes(&t, &req).unwrap();
        assert!(matches!(
            encode_approx(&mut enc, &t, &req, &concrete, 5),
            Err(EncodeError::NoCandidatePaths { .. })
        ));
    }
}
