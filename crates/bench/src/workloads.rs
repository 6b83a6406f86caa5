//! Workload construction: templates, floor plans, libraries, and specs for
//! the paper's two design examples at arbitrary scales.

use archex::requirements::Requirements;
use archex::scale::CityParams;
use archex::template::NetworkTemplate;
use channel::{LogDistance, MultiWall};
use devlib::{catalog, Library};
use floorplan::generate::{
    data_collection_markers, localization_markers, office_floor, OfficeParams,
};
use floorplan::FloorPlan;

/// A ready-to-explore data-collection workload.
#[derive(Debug)]
pub struct DataCollection {
    /// The floor plan (for figures).
    pub plan: FloorPlan,
    /// The network template with path loss and pruned links.
    pub template: NetworkTemplate,
    /// The component library.
    pub library: Library,
    /// Assembled requirements.
    pub requirements: Requirements,
}

/// A ready-to-explore localization workload.
#[derive(Debug)]
pub struct Localization {
    /// The floor plan (for figures).
    pub plan: FloorPlan,
    /// The template (anchor candidates + evaluation points).
    pub template: NetworkTemplate,
    /// The component library.
    pub library: Library,
    /// Assembled requirements.
    pub requirements: Requirements,
}

/// What a registered workload builds: a paper Table 3 row or a city-scale
/// instance for the spatial-decomposition solver.
#[derive(Debug, Clone)]
pub enum WorkloadKind {
    /// Data-collection row at `(total_nodes, end_devices)` on the single
    /// office floor (the paper's Table 3 axis).
    Table3 {
        /// Total template nodes (sensors + relay candidates + sink).
        total_nodes: usize,
        /// End devices (sensors) among them.
        end_devices: usize,
    },
    /// Multi-building city instance (see [`archex::scale`]).
    City {
        /// Generator parameters.
        params: CityParams,
        /// Target buildings per decomposition zone.
        buildings_per_zone: usize,
    },
}

/// A named benchmark workload. Table 3 rows and city-scale instances are
/// registered here so every binary draws its instance sizes from one place
/// instead of hardcoding them.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Stable name used in logs and JSON records.
    pub name: String,
    /// What to build.
    pub kind: WorkloadKind,
}

/// The proven optimum of the [50/20] row (`dc-50-20`, cost objective)
/// under the K* = 10 path encoding: a one-worker solve at the default gap
/// proves it in about 90 s on a 2-core host. The durability smoke checks
/// its resumed solve against it.
pub const DC_50_20_KSTAR10_OPTIMUM: f64 = 392.0;

/// The Table 3 instance ladder. `paper` selects the paper's full ten rows;
/// otherwise the laptop-friendly prefix that finishes in minutes.
pub fn table3_registry(paper: bool) -> Vec<WorkloadSpec> {
    const ROWS: [(usize, usize); 10] = [
        (50, 20),
        (100, 20),
        (100, 50),
        (100, 75),
        (250, 50),
        (250, 100),
        (250, 200),
        (500, 50),
        (500, 100),
        (500, 200),
    ];
    let take = if paper { ROWS.len() } else { 6 };
    ROWS[..take]
        .iter()
        .map(|&(total_nodes, end_devices)| WorkloadSpec {
            name: format!("dc-{total_nodes}-{end_devices}"),
            kind: WorkloadKind::Table3 {
                total_nodes,
                end_devices,
            },
        })
        .collect()
}

/// The city-scale sweep: three sizes (the largest past a thousand candidate
/// sites) plus the interference-aware campus variant.
pub fn scale_registry() -> Vec<WorkloadSpec> {
    let campus = CityParams {
        grid: (2, 2),
        sensors_per_building: 8,
        relay_grid: (4, 4),
        street_m: 24.0,
        seed: 101,
        interference: false,
    };
    vec![
        WorkloadSpec {
            name: "campus-4".into(),
            kind: WorkloadKind::City {
                params: campus.clone(),
                buildings_per_zone: 2,
            },
        },
        WorkloadSpec {
            name: "campus-4-interf".into(),
            kind: WorkloadKind::City {
                params: CityParams {
                    interference: true,
                    ..campus
                },
                buildings_per_zone: 2,
            },
        },
        WorkloadSpec {
            name: "district-8".into(),
            kind: WorkloadKind::City {
                params: CityParams {
                    grid: (4, 2),
                    sensors_per_building: 10,
                    relay_grid: (6, 5),
                    street_m: 28.0,
                    seed: 202,
                    interference: false,
                },
                buildings_per_zone: 2,
            },
        },
        WorkloadSpec {
            name: "district-16".into(),
            kind: WorkloadKind::City {
                params: CityParams {
                    grid: (4, 4),
                    sensors_per_building: 12,
                    relay_grid: (8, 7),
                    street_m: 28.0,
                    seed: 303,
                    interference: false,
                },
                buildings_per_zone: 1,
            },
        },
    ]
}

/// The small campus the tier-1 smoke test solves: four buildings, a few
/// dozen candidate sites, decomposable in seconds.
pub fn scale_smoke() -> WorkloadSpec {
    WorkloadSpec {
        name: "campus-smoke".into(),
        kind: WorkloadKind::City {
            params: CityParams {
                grid: (2, 2),
                sensors_per_building: 4,
                relay_grid: (3, 3),
                street_m: 24.0,
                seed: 11,
                interference: false,
            },
            buildings_per_zone: 2,
        },
    }
}

/// The paper's data-collection spec (§4.1): two disjoint routes per sensor,
/// SNR >= 20 dB, lifetime >= 5 years, with a selectable objective
/// (`"cost"`, `"energy"`, or `"0.5*cost + 0.5*energy"`).
pub fn data_collection_spec(objective: &str) -> String {
    format!(
        "set noise_dbm = -100\n\
         set bit_rate_kbps = 250\n\
         set packet_bytes = 50\n\
         set slot_ms = 1\n\
         set slots_per_frame = 16\n\
         set period_s = 30\n\
         set battery_mah = 3000\n\
         set modulation = qpsk\n\
         routes  = has_path(sensors, sink)\n\
         routes2 = has_path(sensors, sink)\n\
         disjoint_links(routes, routes2)\n\
         min_signal_to_noise(20)\n\
         min_network_lifetime(5)\n\
         objective minimize {}\n",
        objective
    )
}

/// The paper's localization spec (§4.2): >= 3 anchors per evaluation point
/// with RSS >= -80 dBm; objective `"cost"`, `"dsod"`, or a combination.
pub fn localization_spec(objective: &str) -> String {
    format!(
        "set noise_dbm = -100\n\
         min_reachable_devices(3, -80)\n\
         objective minimize {}\n",
        objective
    )
}

/// Builds a data-collection workload with `total_nodes` template nodes of
/// which `end_devices` are sensors (plus one sink; the rest are relay
/// candidates), on the standard office floor with multi-wall path loss.
///
/// # Panics
///
/// Panics if `total_nodes < end_devices + 2`.
pub fn data_collection_workload(
    total_nodes: usize,
    end_devices: usize,
    objective: &str,
) -> DataCollection {
    assert!(
        total_nodes >= end_devices + 2,
        "need at least one relay and the sink"
    );
    let relays = total_nodes - end_devices - 1;
    // lay relays out on a grid as square as possible
    let rx = (relays as f64).sqrt().ceil() as usize;
    let ry = relays.div_ceil(rx.max(1)).max(1);
    let mut plan = office_floor(&OfficeParams::default());
    let (_sensors, _sink, grid) = data_collection_markers(&mut plan, end_devices, (rx, ry));
    // data_collection_markers may create slightly more relays than asked
    // (full grid); that is fine — they are candidates, not placements.
    let _ = grid;
    let library = catalog::zigbee_reference();
    let requirements = Requirements::from_spec_text(&data_collection_spec(objective))
        .expect("builtin spec parses");
    let mut template = NetworkTemplate::from_plan(&plan);
    let base = LogDistance::at_frequency(
        requirements.params.freq_hz,
        requirements.params.pl_exponent,
    );
    // memoized wall crossings: the matrix asks for every ordered pair
    let mw = MultiWall::new(base, &plan).cached();
    template.compute_path_loss(&mw);
    template.prune_links(
        &library,
        requirements.params.noise_dbm,
        requirements.effective_min_snr_db(),
    );
    DataCollection {
        plan,
        template,
        library,
        requirements,
    }
}

/// Builds a localization workload with an `anchor_grid` of candidate
/// positions and an `eval_grid` of evaluation points.
pub fn localization_workload(
    anchor_grid: (usize, usize),
    eval_grid: (usize, usize),
    objective: &str,
) -> Localization {
    let mut plan = office_floor(&OfficeParams::default());
    let _ = localization_markers(&mut plan, anchor_grid, eval_grid);
    let library = catalog::zigbee_reference();
    let requirements = Requirements::from_spec_text(&localization_spec(objective))
        .expect("builtin spec parses");
    let mut template = NetworkTemplate::from_plan(&plan);
    let base = LogDistance::at_frequency(
        requirements.params.freq_hz,
        requirements.params.pl_exponent,
    );
    // memoized wall crossings: the matrix asks for every ordered pair
    let mw = MultiWall::new(base, &plan).cached();
    template.compute_path_loss(&mw);
    Localization {
        plan,
        template,
        library,
        requirements,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archex::template::NodeRole;

    #[test]
    fn data_collection_shapes() {
        let w = data_collection_workload(30, 8, "cost");
        let t = &w.template;
        assert_eq!(t.nodes_of(NodeRole::Sensor).len(), 8);
        assert_eq!(t.nodes_of(NodeRole::Sink).len(), 1);
        assert!(t.nodes_of(NodeRole::Relay).len() >= 21);
        assert!(!t.links().is_empty());
        assert_eq!(w.requirements.routes.len(), 2);
        assert_eq!(w.requirements.min_lifetime_years, Some(5.0));
    }

    /// Every zone of the smoke campus proves optimality well inside either
    /// budget and the backbone is a fixed tree, so the stitched design
    /// must not depend on the budget.
    #[test]
    fn scale_smoke_design_is_budget_independent() {
        use archex::scale::{generate_city, solve_decomposed, ScaleOptions};
        use std::time::Duration;
        let WorkloadKind::City {
            params,
            buildings_per_zone,
        } = scale_smoke().kind
        else {
            panic!("the scale smoke is a city workload");
        };
        let city = generate_city(&params);
        let solve = |secs| {
            let opts = ScaleOptions {
                buildings_per_zone,
                budget: Duration::from_secs(secs),
                ..ScaleOptions::default()
            };
            solve_decomposed(&city, &opts).expect("the smoke campus decomposes")
        };
        let (long, short) = (solve(60), solve(10));
        assert!(long.violations.is_empty(), "{:?}", long.violations);
        // the monolith's optimum; seam repair in node-index order costs 530
        assert_eq!(long.design.total_cost, 520.0);
        assert_eq!(long.design.placed, short.design.placed);
        assert_eq!(long.design.routes, short.design.routes);
        assert_eq!(long.design.total_cost, short.design.total_cost);
    }

    #[test]
    fn localization_shapes() {
        let w = localization_workload((5, 4), (4, 3), "cost");
        assert_eq!(w.template.nodes_of(NodeRole::Anchor).len(), 20);
        assert_eq!(w.template.eval_points().len(), 12);
        assert_eq!(w.requirements.min_reachable, Some((3, -80.0)));
    }
}
