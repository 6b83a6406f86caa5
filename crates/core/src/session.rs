//! Reentrant design sessions: incremental re-solve under spec deltas.
//!
//! [`explore`](crate::explore::explore) is a one-shot pipeline: encode,
//! solve, extract, drop everything. An interactive design session —
//! a user nudging prices, toggling stock, sketching walls — re-asks almost
//! the same question over and over, and a one-shot pipeline pays the full
//! encode + cold-solve price every time. [`DesignSession`] instead *owns*
//! the encoded model across calls and accepts typed [`SpecDelta`]s:
//!
//! * **Price and stock deltas** are applied to the live encoding in place
//!   (objective rebuild / bound fixings). Model structure is untouched, so
//!   the previous optimum re-seeds the next solve as a warm incumbent via
//!   [`milp::Config::warm_start`] and the solver dual-reoptimizes instead
//!   of starting from nothing.
//! * **Wall edits and route changes** alter the candidate link set or the
//!   constraint system itself. The session marks the encoding dirty and
//!   re-encodes cold on the next solve; the warm vector is then kept only
//!   if the fresh encoding's [`milp::structure_fingerprint`] matches the
//!   one the vector was produced under (same variable indexing), and
//!   dropped otherwise. A stale-but-matching vector is still re-validated
//!   inside the solver, so the gate is an optimization, never a soundness
//!   assumption.
//!
//! Every delta is validated **before** any state mutates: a poisoned delta
//! (unknown component, NaN cost, unknown node) returns a typed
//! [`DeltaError`] and leaves the session exactly as it was.

use crate::design::NetworkDesign;
use crate::encode::{encode_with_lq, objective, EncodeError, Encoding};
use crate::explore::ExploreOptions;
use crate::requirements::{Requirements, RouteFamily};
use crate::spec::Selector;
use crate::template::NetworkTemplate;
use devlib::Library;
use milp::Status;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// A typed, validated edit to a live design problem.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecDelta {
    /// A component's price changed (catalog update, volume discount).
    /// In-place: the objective is rebuilt on the live encoding.
    DevicePrice {
        /// Component name in the session's library.
        component: String,
        /// New unit cost (finite, non-negative).
        cost: f64,
    },
    /// A component went out of stock (or came back). In-place: the sizing
    /// variables selecting it are fixed to zero (or restored to `[0, 1]`).
    DeviceStock {
        /// Component name in the session's library.
        component: String,
        /// `false` bans the component from new designs.
        in_stock: bool,
    },
    /// The floorplan changed between two nodes — a wall went up
    /// (`delta_db > 0`) or came down (`delta_db < 0`). Structural: the
    /// candidate link set is re-pruned and the model re-encoded cold.
    WallEdit {
        /// First node name.
        a: String,
        /// Second node name.
        b: String,
        /// Path-loss change in dB, applied in both directions.
        delta_db: f64,
    },
    /// A new route requirement. Structural.
    RouteAdd {
        /// The route family to append.
        family: RouteFamily,
    },
    /// Removes the route requirement with this name (and any disjointness
    /// pairs that referenced it). Structural.
    RouteRemove {
        /// Name of the family to remove.
        name: String,
    },
}

/// A [`SpecDelta`] that could not be applied. The session state is
/// guaranteed untouched when one of these is returned.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaError {
    /// The named component does not exist in the session's library.
    UnknownComponent(String),
    /// The named node does not exist in the session's template.
    UnknownNode(String),
    /// No route family with this name exists.
    UnknownRoute(String),
    /// The new cost is NaN, infinite, or negative.
    InvalidCost {
        /// Component the bad cost was destined for.
        component: String,
        /// The rejected value.
        cost: f64,
    },
    /// Any other malformed delta (non-finite wall delta, self-loop wall,
    /// duplicate route name).
    Invalid(String),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::UnknownComponent(n) => write!(f, "unknown component `{}`", n),
            DeltaError::UnknownNode(n) => write!(f, "unknown node `{}`", n),
            DeltaError::UnknownRoute(n) => write!(f, "unknown route `{}`", n),
            DeltaError::InvalidCost { component, cost } => {
                write!(f, "invalid cost {} for component `{}`", cost, component)
            }
            DeltaError::Invalid(m) => write!(f, "invalid delta: {}", m),
        }
    }
}

impl std::error::Error for DeltaError {}

/// Counters accumulated over a session's lifetime.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionStats {
    /// Total solves.
    pub solves: usize,
    /// Solves that shipped a warm-start vector to the solver.
    pub warm_solves: usize,
    /// Solves where the solver actually accepted the warm vector as its
    /// initial incumbent (subset of `warm_solves`).
    pub warm_seeded: usize,
    /// Cold encodes (initial + structural re-encodes).
    pub cold_encodes: usize,
    /// Warm vectors dropped because a re-encode changed the structure
    /// fingerprint.
    pub fingerprint_rejects: usize,
    /// Deltas successfully applied.
    pub deltas_applied: usize,
}

/// The result of one [`DesignSession::solve`] call.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// Final solver status.
    pub status: Status,
    /// The synthesized design (when a solution exists).
    pub design: Option<NetworkDesign>,
    /// `true` when this solve shipped a warm-start vector.
    pub warm_used: bool,
    /// `true` when the solver accepted the warm vector as its incumbent.
    pub warm_seeded: bool,
    /// `true` when this solve had to re-encode the model cold.
    pub reencoded: bool,
    /// Session revision this outcome reflects (bumps on every applied
    /// delta).
    pub revision: u64,
    /// Time spent (re-)encoding, zero on pure warm solves.
    pub encode_time: Duration,
    /// Time spent in the solver.
    pub solve_time: Duration,
}

impl SessionOutcome {
    /// Objective of the produced design, if any.
    pub fn objective(&self) -> Option<f64> {
        self.design.as_ref().map(|d| d.objective)
    }
}

/// A cheap, model-free copy of a session's specification state. Enough to
/// rebuild an equivalent session after a worker death: the first solve of
/// the restored session re-encodes cold and re-applies the stock bans.
#[derive(Debug, Clone)]
pub struct SessionSnapshot {
    template: NetworkTemplate,
    library: Library,
    req: Requirements,
    opts: ExploreOptions,
    out_of_stock: BTreeSet<usize>,
    revision: u64,
}

impl SessionSnapshot {
    /// Builds a snapshot from scratch — the seed for sessions created on
    /// demand by a [`crate::service::DesignService`], and for every
    /// [`DesignSession::new`].
    ///
    /// Column generation (`opts.pricing`) is force-disabled: priced columns
    /// grow the variable space differently on every solve, which defeats
    /// warm-state reuse — sessions use the fixed approx/full encodings.
    pub fn new(
        template: NetworkTemplate,
        library: Library,
        req: Requirements,
        mut opts: ExploreOptions,
    ) -> Self {
        opts.pricing = false;
        let out_of_stock = opts.banned_components.iter().copied().collect();
        SessionSnapshot {
            template,
            library,
            req,
            opts,
            out_of_stock,
            revision: 0,
        }
    }
}

/// A reentrant design session: the encoded model, warm state, and last
/// design survive across solves (see the [module docs](self)).
#[derive(Debug)]
pub struct DesignSession {
    template: NetworkTemplate,
    library: Library,
    req: Requirements,
    opts: ExploreOptions,
    /// The live encoding; `None` until the first solve.
    enc: Option<Encoding>,
    /// [`milp::structure_fingerprint`] of `enc`'s problem.
    structure: u64,
    /// Previous optimum in the live encoding's variable order.
    warm: Option<Vec<f64>>,
    /// A structural delta arrived since `enc` was built.
    dirty: bool,
    /// Library indices currently banned by stock deltas; re-applied after
    /// every re-encode.
    out_of_stock: BTreeSet<usize>,
    last_design: Option<NetworkDesign>,
    revision: u64,
    stats: SessionStats,
}

impl DesignSession {
    /// Creates a session over an owned copy of the problem: the session
    /// [`DesignSession::restore`] builds from [`SessionSnapshot::new`], so
    /// column generation is off here too. Nothing is encoded until the
    /// first [`DesignSession::solve`].
    pub fn new(
        template: NetworkTemplate,
        library: Library,
        req: Requirements,
        opts: ExploreOptions,
    ) -> Self {
        Self::restore(SessionSnapshot::new(template, library, req, opts))
    }

    /// Rebuilds a session from a [`SessionSnapshot`] (worker-death
    /// recovery). The restored session has no encoding and no warm state;
    /// its first solve is cold.
    pub fn restore(snap: SessionSnapshot) -> Self {
        DesignSession {
            template: snap.template,
            library: snap.library,
            req: snap.req,
            opts: snap.opts,
            enc: None,
            structure: 0,
            warm: None,
            dirty: false,
            out_of_stock: snap.out_of_stock,
            last_design: None,
            revision: snap.revision,
            stats: SessionStats::default(),
        }
    }

    /// Captures the specification state (not the model) for later
    /// [`DesignSession::restore`].
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            template: self.template.clone(),
            library: self.library.clone(),
            req: self.req.clone(),
            opts: self.opts.clone(),
            out_of_stock: self.out_of_stock.clone(),
            revision: self.revision,
        }
    }

    /// Session revision: bumps on every successfully applied delta.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// The design produced by the most recent solve, if any.
    pub fn last_design(&self) -> Option<&NetworkDesign> {
        self.last_design.as_ref()
    }

    /// The session's current requirements.
    pub fn requirements(&self) -> &Requirements {
        &self.req
    }

    /// The session's current template.
    pub fn template(&self) -> &NetworkTemplate {
        &self.template
    }

    /// The session's current library.
    pub fn library(&self) -> &Library {
        &self.library
    }

    /// The exploration options the session was created with.
    pub fn options(&self) -> &ExploreOptions {
        &self.opts
    }

    /// `true` when the next solve can reuse the live encoding (no
    /// structural delta pending).
    pub fn is_warm(&self) -> bool {
        self.enc.is_some() && !self.dirty
    }

    /// Drops the live encoding and warm state, forcing the next solve to
    /// start cold. Used by the ablation baseline and by fault recovery.
    pub fn make_cold(&mut self) {
        self.enc = None;
        self.warm = None;
        self.dirty = false;
    }

    /// Applies one delta, validating it completely before mutating: on
    /// `Err`, the session is untouched.
    ///
    /// # Errors
    ///
    /// Returns [`DeltaError`] for unknown names and malformed values.
    pub fn apply(&mut self, delta: &SpecDelta) -> Result<(), DeltaError> {
        match delta {
            SpecDelta::DevicePrice { component, cost } => {
                if self.library.index_of(component).is_none() {
                    return Err(DeltaError::UnknownComponent(component.clone()));
                }
                if !cost.is_finite() || *cost < 0.0 {
                    return Err(DeltaError::InvalidCost {
                        component: component.clone(),
                        cost: *cost,
                    });
                }
                let ok = self.library.set_cost(component, *cost);
                debug_assert!(ok, "validated above");
                // Objective-only change: rebuild it on the live encoding.
                // Primal feasibility of the warm vector is unaffected.
                if let Some(enc) = self.enc.as_mut() {
                    objective::encode_objective(enc, &self.library, &self.req);
                }
            }
            SpecDelta::DeviceStock {
                component,
                in_stock,
            } => {
                let idx = self
                    .library
                    .index_of(component)
                    .ok_or_else(|| DeltaError::UnknownComponent(component.clone()))?;
                if *in_stock {
                    self.out_of_stock.remove(&idx);
                    if let Some(enc) = self.enc.as_mut() {
                        enc.unban_component(idx);
                    }
                } else {
                    self.out_of_stock.insert(idx);
                    if let Some(enc) = self.enc.as_mut() {
                        enc.ban_component(idx);
                    }
                }
                // Bound fixings keep the structure fingerprint; a warm
                // vector that now selects a banned component simply fails
                // the solver's re-validation and is ignored there.
            }
            SpecDelta::WallEdit { a, b, delta_db } => {
                let i = self
                    .template
                    .index_of(a)
                    .ok_or_else(|| DeltaError::UnknownNode(a.clone()))?;
                let j = self
                    .template
                    .index_of(b)
                    .ok_or_else(|| DeltaError::UnknownNode(b.clone()))?;
                if i == j {
                    return Err(DeltaError::Invalid(format!(
                        "wall edit needs two distinct nodes, got `{}` twice",
                        a
                    )));
                }
                if !delta_db.is_finite() {
                    return Err(DeltaError::Invalid(format!(
                        "non-finite wall delta {} dB",
                        delta_db
                    )));
                }
                self.template.add_path_loss_db(i, j, *delta_db);
                self.template.prune_links(
                    &self.library,
                    self.req.params.noise_dbm,
                    self.req.effective_min_snr_db(),
                );
                self.dirty = true;
            }
            SpecDelta::RouteAdd { family } => {
                for sel in [&family.from, &family.to] {
                    if let Selector::Node(n) = sel {
                        if self.template.index_of(n).is_none() {
                            return Err(DeltaError::UnknownNode(n.clone()));
                        }
                    }
                }
                if self.req.routes.iter().any(|r| r.name == family.name) {
                    return Err(DeltaError::Invalid(format!(
                        "route `{}` already exists",
                        family.name
                    )));
                }
                self.req.routes.push(family.clone());
                self.dirty = true;
            }
            SpecDelta::RouteRemove { name } => {
                let idx = self
                    .req
                    .routes
                    .iter()
                    .position(|r| r.name == *name)
                    .ok_or_else(|| DeltaError::UnknownRoute(name.clone()))?;
                self.req.routes.remove(idx);
                // Disjointness pairs index into `routes`: drop pairs that
                // referenced the removed family, shift the rest down.
                self.req.disjoint.retain(|&(a, b)| a != idx && b != idx);
                for pair in &mut self.req.disjoint {
                    if pair.0 > idx {
                        pair.0 -= 1;
                    }
                    if pair.1 > idx {
                        pair.1 -= 1;
                    }
                }
                self.dirty = true;
            }
        }
        self.revision += 1;
        self.stats.deltas_applied += 1;
        Ok(())
    }

    /// Applies a batch of deltas left to right, stopping at the first bad
    /// one. Deltas before the failure stay applied (each is individually
    /// atomic); the failed one and everything after it are not.
    ///
    /// # Errors
    ///
    /// Returns the index of the failing delta alongside its [`DeltaError`].
    pub fn apply_all(&mut self, deltas: &[SpecDelta]) -> Result<(), (usize, DeltaError)> {
        for (i, d) in deltas.iter().enumerate() {
            self.apply(d).map_err(|e| (i, e))?;
        }
        Ok(())
    }

    /// Solves the current specification with the session's own solver
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError`] when a structural delta made the
    /// specification unencodable; the session survives and a later delta
    /// can repair it.
    pub fn solve(&mut self) -> Result<SessionOutcome, EncodeError> {
        let base = self.opts.solver.clone();
        self.solve_with(&base)
    }

    /// Solves the current specification under a caller-supplied solver
    /// configuration — deadline and cancellation token in particular; the
    /// service front end builds one per request. Any `warm_start` already
    /// on `base` is replaced by the session's own. Encode time (when a
    /// re-encode happens) is charged against `base`'s time limit, so the
    /// limit bounds the whole call.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError`] when the specification is unencodable.
    pub fn solve_with(&mut self, base: &milp::Config) -> Result<SessionOutcome, EncodeError> {
        let t0 = Instant::now();
        let mut reencoded = false;
        if self.enc.is_none() || self.dirty {
            let enc = encode_with_lq(
                &self.template,
                &self.library,
                &self.req,
                self.opts.mode,
                self.opts.lq_encoding,
            )?;
            let mut enc = enc;
            for &idx in &self.out_of_stock {
                enc.ban_component(idx);
            }
            let fp = milp::structure_fingerprint(enc.model.problem());
            // Keep the warm vector only when the fresh encoding indexes
            // variables identically to the one that produced it.
            if self.warm.is_some() && fp != self.structure {
                self.warm = None;
                self.stats.fingerprint_rejects += 1;
            }
            self.structure = fp;
            self.enc = Some(enc);
            self.dirty = false;
            reencoded = true;
            self.stats.cold_encodes += 1;
        }
        let encode_time = t0.elapsed();

        let mut cfg = base.clone();
        if let Some(tl) = cfg.time_limit {
            cfg.time_limit = Some(tl.saturating_sub(encode_time));
        }
        let enc = self.enc.as_mut().expect("encoded above");
        let warm_used = match self.warm.as_ref() {
            Some(w) if w.len() == enc.model.num_vars() => {
                cfg.warm_start = Some(w.clone());
                true
            }
            _ => {
                cfg.warm_start = None;
                false
            }
        };

        let t1 = Instant::now();
        let sol = enc.model.solve(&cfg);
        let solve_time = t1.elapsed();

        let warm_seeded = sol.stats().warm_seeded;
        self.stats.solves += 1;
        if warm_used {
            self.stats.warm_solves += 1;
        }
        if warm_seeded {
            self.stats.warm_seeded += 1;
        }

        let design = if sol.has_solution() {
            self.warm = Some(sol.values().to_vec());
            Some(crate::design::extract_design(
                enc,
                &sol,
                &self.template,
                &self.library,
                &self.req,
            ))
        } else {
            // Keep the old warm vector: an infeasible *limit* outcome says
            // nothing about it, and a genuinely infeasible model rejects
            // it during re-validation anyway.
            None
        };
        if design.is_some() {
            self.last_design = design.clone();
        }
        Ok(SessionOutcome {
            status: sol.status(),
            design,
            warm_used,
            warm_seeded,
            reencoded,
            revision: self.revision,
            encode_time,
            solve_time,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::verify_design;
    use crate::explore::explore;
    use crate::spec::Selector;
    use crate::template::NodeRole;
    use channel::LogDistance;
    use devlib::catalog;
    use floorplan::Point;

    fn template(relays: usize) -> NetworkTemplate {
        let mut t = NetworkTemplate::new();
        t.add_node("s0", Point::new(0.0, 0.0), NodeRole::Sensor);
        for i in 0..relays {
            let x = 10.0 + 10.0 * (i / 2) as f64;
            let y = if i % 2 == 0 { 6.0 } else { -6.0 };
            t.add_node(format!("r{}", i), Point::new(x, y), NodeRole::Relay);
        }
        t.add_node("sink", Point::new(40.0, 0.0), NodeRole::Sink);
        t.compute_path_loss(&LogDistance::indoor_2_4ghz());
        t.prune_links(&catalog::zigbee_reference(), -100.0, 10.0);
        t
    }

    const SPEC: &str =
        "p = has_path(sensors, sink)\nmin_signal_to_noise(12)\nobjective minimize cost";

    fn session(relays: usize) -> DesignSession {
        DesignSession::new(
            template(relays),
            catalog::zigbee_reference(),
            Requirements::from_spec_text(SPEC).unwrap(),
            ExploreOptions::approx(5),
        )
    }

    #[test]
    fn first_solve_is_cold_then_price_delta_goes_warm() {
        let mut s = session(4);
        let first = s.solve().unwrap();
        assert_eq!(first.status, Status::Optimal);
        assert!(first.reencoded);
        assert!(!first.warm_used);

        let cheap = s.library().components()[0].name.clone();
        s.apply(&SpecDelta::DevicePrice {
            component: cheap,
            cost: 1.0,
        })
        .unwrap();
        let second = s.solve().unwrap();
        assert_eq!(second.status, Status::Optimal);
        assert!(!second.reencoded, "price delta must not re-encode");
        assert!(second.warm_used, "previous optimum ships as warm start");
        let d = second.design.expect("still feasible");
        assert!(verify_design(&d, s.template(), s.library(), s.requirements()).is_empty());
    }

    #[test]
    fn price_delta_matches_cold_explore_of_mutated_spec() {
        let mut s = session(4);
        s.solve().unwrap();
        let name = s.library().components()[0].name.clone();
        s.apply(&SpecDelta::DevicePrice {
            component: name.clone(),
            cost: 3.5,
        })
        .unwrap();
        let warm = s.solve().unwrap();

        let mut lib = catalog::zigbee_reference();
        assert!(lib.set_cost(&name, 3.5));
        let cold = explore(
            &template(4),
            &lib,
            &Requirements::from_spec_text(SPEC).unwrap(),
            &ExploreOptions::approx(5),
        )
        .unwrap();
        assert_eq!(warm.status, cold.status);
        let (w, c) = (warm.objective().unwrap(), cold.design.unwrap().objective);
        assert!((w - c).abs() < 1e-6, "warm {} vs cold {}", w, c);
    }

    #[test]
    fn stock_ban_removes_component_and_unban_restores_cost() {
        let mut s = session(4);
        let base = s.solve().unwrap().objective().unwrap();
        // Ban whatever the optimum used for the sensor node.
        let used_idx = s.last_design().unwrap().placed[0].component;
        let used = s.library().get(used_idx).unwrap().name.clone();
        s.apply(&SpecDelta::DeviceStock {
            component: used.clone(),
            in_stock: false,
        })
        .unwrap();
        let banned = s.solve().unwrap();
        assert!(!banned.reencoded, "stock delta is a bound change");
        let d = banned.design.as_ref().expect("alternatives exist");
        assert!(
            d.placed.iter().all(|p| p.component != used_idx),
            "banned component must not appear"
        );
        assert!(banned.objective().unwrap() >= base - 1e-6);

        s.apply(&SpecDelta::DeviceStock {
            component: used,
            in_stock: true,
        })
        .unwrap();
        let back = s.solve().unwrap().objective().unwrap();
        assert!((back - base).abs() < 1e-6, "unban restores the optimum");
    }

    #[test]
    fn wall_edit_forces_reencode_and_changes_the_design() {
        let mut s = session(4);
        let first = s.solve().unwrap();
        assert_eq!(first.status, Status::Optimal);
        // A massive wall between every relay pair's corridor: raise loss on
        // the direct sensor->sink diagonal so routing must adapt.
        s.apply(&SpecDelta::WallEdit {
            a: "s0".into(),
            b: "sink".into(),
            delta_db: 60.0,
        })
        .unwrap();
        assert!(!s.is_warm());
        let second = s.solve().unwrap();
        assert!(second.reencoded, "wall edit is structural");
        assert_eq!(second.status, Status::Optimal);
        let d = second.design.expect("detour exists");
        assert!(verify_design(&d, s.template(), s.library(), s.requirements()).is_empty());
    }

    #[test]
    fn route_add_and_remove_roundtrip() {
        let mut s = session(4);
        let base = s.solve().unwrap().objective().unwrap();
        s.apply(&SpecDelta::RouteAdd {
            family: RouteFamily {
                name: "extra".into(),
                from: Selector::Node("r0".into()),
                to: Selector::Sink,
                max_hops: None,
            },
        })
        .unwrap();
        let with_route = s.solve().unwrap();
        assert!(with_route.reencoded);
        assert!(with_route.objective().unwrap() >= base - 1e-6);

        s.apply(&SpecDelta::RouteRemove {
            name: "extra".into(),
        })
        .unwrap();
        let back = s.solve().unwrap().objective().unwrap();
        assert!((back - base).abs() < 1e-6);
    }

    #[test]
    fn poisoned_deltas_are_rejected_without_mutation() {
        let mut s = session(2);
        s.solve().unwrap();
        let rev = s.revision();

        let errs = [
            s.apply(&SpecDelta::DevicePrice {
                component: "no-such-device".into(),
                cost: 1.0,
            })
            .unwrap_err(),
            s.apply(&SpecDelta::DevicePrice {
                component: s.library().components()[0].name.clone(),
                cost: f64::NAN,
            })
            .unwrap_err(),
            s.apply(&SpecDelta::DevicePrice {
                component: s.library().components()[0].name.clone(),
                cost: -2.0,
            })
            .unwrap_err(),
            s.apply(&SpecDelta::WallEdit {
                a: "s0".into(),
                b: "ghost".into(),
                delta_db: 10.0,
            })
            .unwrap_err(),
            s.apply(&SpecDelta::WallEdit {
                a: "s0".into(),
                b: "s0".into(),
                delta_db: 10.0,
            })
            .unwrap_err(),
            s.apply(&SpecDelta::RouteRemove {
                name: "no-such-route".into(),
            })
            .unwrap_err(),
        ];
        assert!(matches!(errs[0], DeltaError::UnknownComponent(_)));
        assert!(matches!(errs[1], DeltaError::InvalidCost { .. }));
        assert!(matches!(errs[2], DeltaError::InvalidCost { .. }));
        assert!(matches!(errs[3], DeltaError::UnknownNode(_)));
        assert!(matches!(errs[4], DeltaError::Invalid(_)));
        assert!(matches!(errs[5], DeltaError::UnknownRoute(_)));

        assert_eq!(s.revision(), rev, "failed deltas must not bump revision");
        assert!(s.is_warm(), "failed deltas must not dirty the encoding");
        let again = s.solve().unwrap();
        assert!(!again.reencoded);
    }

    #[test]
    fn snapshot_restore_rebuilds_an_equivalent_session() {
        let mut s = session(4);
        s.solve().unwrap();
        let name = s.library().components()[0].name.clone();
        s.apply(&SpecDelta::DevicePrice {
            component: name,
            cost: 2.0,
        })
        .unwrap();
        let want = s.solve().unwrap().objective().unwrap();

        let mut r = DesignSession::restore(s.snapshot());
        assert_eq!(r.revision(), s.revision());
        let got = r.solve().unwrap();
        assert!(got.reencoded, "restored session starts cold");
        assert!((got.objective().unwrap() - want).abs() < 1e-6);
    }

    #[test]
    fn sessions_from_a_snapshot_never_price() {
        // A service restores every session from its seed snapshot; a seed
        // built with pricing options must not leak `pricing` into the
        // session, or the cold fallback rung would run branch-and-price.
        let (t, lib) = (template(4), catalog::zigbee_reference());
        let req = Requirements::from_spec_text(SPEC).unwrap();
        let seed =
            SessionSnapshot::new(t.clone(), lib.clone(), req.clone(), ExploreOptions::pricing(2));
        assert!(!DesignSession::restore(seed).options().pricing);
        let direct = DesignSession::new(t, lib, req, ExploreOptions::pricing(2));
        assert!(!direct.options().pricing);
    }

    #[test]
    fn disjoint_indices_survive_route_removal() {
        let mut s = session(4);
        // routes[0] exists from the spec; add two more and make the last
        // pair disjoint, then remove routes[0]: the pair must follow.
        for name in ["extra1", "extra2"] {
            s.apply(&SpecDelta::RouteAdd {
                family: RouteFamily {
                    name: name.into(),
                    from: Selector::Sensors,
                    to: Selector::Sink,
                    max_hops: None,
                },
            })
            .unwrap();
        }
        s.req.disjoint.push((1, 2));
        let first_route = s.req.routes[0].name.clone();
        s.apply(&SpecDelta::RouteRemove { name: first_route }).unwrap();
        assert_eq!(s.req.disjoint, vec![(0, 1)]);
        assert_eq!(s.req.routes.len(), 2);
    }
}
