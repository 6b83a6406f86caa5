// Production-path code must surface failures through `ExploreError`, not
// panic; tests are exempt (unwrap on known-good fixtures). Same gate as
// `milp`.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! ArchEx-style architecture exploration core for wireless networks.
//!
//! Reproduction of *"Optimized Selection of Wireless Network Topologies and
//! Components via Efficient Pruning of Feasible Paths"* (Kirov, Nuzzo,
//! Passerone, Sangiovanni-Vincentelli — DAC 2018): joint selection of
//! network topology (node placement + routing) and component sizing by
//! MILP, with the paper's **Algorithm 1** approximate path encoding built
//! on Yen's K-shortest paths.
//!
//! # Pipeline
//!
//! 1. Build a [`NetworkTemplate`] from a floor plan (or programmatically),
//!    compute path losses with a channel model, and prune infeasible links.
//! 2. Write requirements in the pattern language ([`spec`]) and assemble
//!    them into [`Requirements`].
//! 3. Call [`explore::explore`] with an [`encode::EncodeMode`]
//!    (`Approx { kstar }` for Algorithm 1, `Full` for the exact baseline).
//! 4. Inspect the returned [`design::NetworkDesign`] and re-verify it with
//!    [`design::verify_design`].
//!
//! # Examples
//!
//! ```
//! use archex::template::{NetworkTemplate, NodeRole};
//! use archex::requirements::Requirements;
//! use archex::explore::{explore, ExploreOptions};
//! use channel::LogDistance;
//! use devlib::catalog;
//! use floorplan::Point;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut t = NetworkTemplate::new();
//! t.add_node("s0", Point::new(0.0, 0.0), NodeRole::Sensor);
//! t.add_node("r0", Point::new(15.0, 0.0), NodeRole::Relay);
//! t.add_node("sink", Point::new(30.0, 0.0), NodeRole::Sink);
//! t.compute_path_loss(&LogDistance::indoor_2_4ghz());
//! let lib = catalog::zigbee_reference();
//! t.prune_links(&lib, -100.0, 10.0);
//!
//! let req = Requirements::from_spec_text(
//!     "p = has_path(sensors, sink)\n\
//!      min_signal_to_noise(12)\n\
//!      objective minimize cost",
//! )?;
//! let out = explore(&t, &lib, &req, &ExploreOptions::approx(5))?;
//! let design = out.design.expect("feasible");
//! assert!(design.total_cost > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod design;
pub mod encode;
pub mod explore;
pub mod kstar;
pub mod pricing;
pub mod report;
pub mod requirements;
pub mod scale;
pub mod service;
pub mod session;
pub mod spec;
pub mod template;

pub use design::{extract_design, verify_design, DesignNode, DesignRoute, NetworkDesign};
pub use encode::{EncodeError, EncodeMode, Encoding};
pub use explore::{
    encode_only, explore, explore_resilient, Attempt, ExploreOptions, ExploreOutcome,
    ExploreReport, ExploreStats, LadderOptions,
};
pub use kstar::{best_step, search_kstar, KstarSearch, KstarStep};
pub use pricing::PathPricer;
pub use report::{design_summary, design_to_svg, Table};
pub use requirements::{Params, Protocol, Requirements};
pub use scale::{
    generate_city, partition_city, solve_decomposed, solve_monolithic, CityInstance, CityParams,
    ScaleError, ScaleOptions, ScalePartition, ScaleReport, TrafficProfile,
};
pub use service::{
    DesignService, Outcome, Request, ServedInfo, ServiceConfig, ServiceFaults, ServiceMetrics,
};
pub use session::{
    DeltaError, DesignSession, SessionOutcome, SessionSnapshot, SessionStats, SpecDelta,
};
pub use spec::{parse_spec, ObjKind, Selector, Stmt};
pub use template::{NetworkTemplate, NodeRole, TemplateNode};
