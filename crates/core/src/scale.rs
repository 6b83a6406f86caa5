//! City-scale instances and spatial decomposition solving.
//!
//! The paper's templates top out at ~50 sites on one office floor. This
//! module grows the workload to campus/district scale — dozens of
//! buildings, thousands of candidate sites — and solves it by **spatial
//! decomposition**, the first workload the monolithic encoder cannot
//! touch:
//!
//! 1. [`generate_city`] composes the floor-plan generators into a seeded
//!    multi-building instance: per-building office plans with jittered
//!    dimensions, per-building traffic profiles (sensor density, relay
//!    grid, optional interference margin), one rooftop backhaul relay per
//!    building, and a single sink. Intra-building path loss uses the
//!    multi-wall model on the building's own plan; rooftop-to-rooftop
//!    backhaul uses an outdoor log-distance model; every other
//!    cross-building pair is off-template (`INFINITY`).
//! 2. [`partition_city`] clusters buildings into zones with deterministic
//!    k-means over building centers ([`netgraph::cluster::kmeans`]).
//! 3. [`solve_decomposed`] picks one gateway rooftop per zone, once, by
//!    zone proxy cost plus backhaul hop count to the sink, and routes the
//!    gateways to the sink along a minimum path-loss spanning tree (no
//!    backbone solve). It then solves the zone MILPs in parallel, each
//!    under a slice of the remaining budget set through
//!    [`LadderOptions::with_budget`], stitches zone routes onto backbone
//!    routes, repairs component choices at the seams, and re-verifies the
//!    stitched design against the full un-partitioned instance with
//!    [`verify_design`].
//! 4. [`solve_monolithic`] is the ablation baseline: the plain resilient
//!    ladder on the full template.

use crate::design::{recompute_metrics, verify_design, DesignNode, DesignRoute, NetworkDesign};
use crate::encode::link_quality::pair_snr_db;
use crate::encode::EncodeError;
use crate::explore::{explore_resilient, ExploreOptions, LadderOptions};
use crate::requirements::Requirements;
use crate::template::{NetworkTemplate, NodeRole};
use channel::{LogDistance, MultiWall, PathLossModel};
use devlib::{catalog, DeviceKind, Library};
use floorplan::generate::{building_markers, office_floor, OfficeParams};
use floorplan::{FloorPlan, Point};
use milp::Status;
use netgraph::cluster::{kmeans, num_clusters};
use netgraph::{distances_from, DiGraph, NodeId};
use rand::{Rng, SeedableRng, StdRng};
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::iter::successors;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Path-loss exponent of the outdoor rooftop-to-rooftop backhaul channel
/// (near line of sight above the clutter).
const OUTDOOR_EXPONENT: f64 = 2.05;

/// Per-building traffic intensity: scales sensor density and the relay
/// candidate grid, and (when the instance is interference-aware) adds a
/// receiver-side noise-rise margin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficProfile {
    /// High-traffic building: more sensors, denser relay grid, 3 dB margin.
    Dense,
    /// Nominal building.
    Standard,
    /// Low-traffic building: fewer sensors, sparser grid, no margin.
    Sparse,
}

impl TrafficProfile {
    /// Multiplier on the base sensors-per-building count.
    pub fn sensor_factor(self) -> f64 {
        match self {
            TrafficProfile::Dense => 1.5,
            TrafficProfile::Standard => 1.0,
            TrafficProfile::Sparse => 0.5,
        }
    }

    /// Additive adjustment to each relay-grid dimension.
    pub fn relay_delta(self) -> i64 {
        match self {
            TrafficProfile::Dense => 1,
            TrafficProfile::Standard => 0,
            TrafficProfile::Sparse => -1,
        }
    }

    /// Receiver-side interference margin (dB) added to indoor links of
    /// this building when [`CityParams::interference`] is set — a crude
    /// noise-rise model of co-channel traffic.
    pub fn interference_margin_db(self) -> f64 {
        match self {
            TrafficProfile::Dense => 3.0,
            TrafficProfile::Standard => 1.0,
            TrafficProfile::Sparse => 0.0,
        }
    }

    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            TrafficProfile::Dense => "dense",
            TrafficProfile::Standard => "standard",
            TrafficProfile::Sparse => "sparse",
        }
    }
}

/// Parameters of a generated city instance.
#[derive(Debug, Clone)]
pub struct CityParams {
    /// Building grid (columns, rows).
    pub grid: (usize, usize),
    /// Base sensors per building (scaled by the traffic profile).
    pub sensors_per_building: usize,
    /// Base relay candidate grid per building (adjusted by the profile).
    pub relay_grid: (usize, usize),
    /// Street width between building cells (m).
    pub street_m: f64,
    /// Generator seed: the same seed yields a byte-identical instance.
    pub seed: u64,
    /// Emit the interference-aware variant (per-building receiver margin).
    pub interference: bool,
}

impl Default for CityParams {
    fn default() -> Self {
        CityParams {
            grid: (2, 2),
            sensors_per_building: 8,
            relay_grid: (4, 4),
            street_m: 24.0,
            seed: 7,
            interference: false,
        }
    }
}

/// One generated building of a city instance.
#[derive(Debug, Clone)]
pub struct CityBuilding {
    /// Offset of the building's local plan in campus coordinates.
    pub origin: Point,
    /// The building's local floor plan (untranslated).
    pub plan: FloorPlan,
    /// Traffic profile drawn for this building.
    pub profile: TrafficProfile,
    /// Template node index of the building's rooftop backhaul relay.
    pub rooftop: usize,
    /// Template node index range `[start, end)` of this building's nodes.
    pub node_range: (usize, usize),
}

/// A generated city-scale instance: buildings, the full (monolithic)
/// template with path loss and pruned links, library, and requirements.
#[derive(Debug, Clone)]
pub struct CityInstance {
    /// Generation parameters.
    pub params: CityParams,
    /// Buildings in row-major grid order.
    pub buildings: Vec<CityBuilding>,
    /// The full un-partitioned template (the decomposition's ground truth).
    pub template: NetworkTemplate,
    /// Component library.
    pub library: Library,
    /// Assembled requirements (`has_path(sensors, sink)`, SNR floor).
    pub requirements: Requirements,
    /// Building index of every template node (the sink belongs to
    /// building 0).
    pub building_of: Vec<usize>,
    /// Rooftop backhaul node index per building.
    pub backhaul: Vec<usize>,
    /// Elevated (outdoor backhaul) flag per node.
    pub elevated: Vec<bool>,
    /// Template index of the single sink.
    pub sink: usize,
}

impl CityInstance {
    /// Number of candidate sites (template nodes).
    pub fn num_sites(&self) -> usize {
        self.template.num_nodes()
    }

    /// FNV-1a digest of the instance: node names, positions, roles, links,
    /// and the path-loss matrix. Two runs of [`generate_city`] with the
    /// same parameters must agree bit for bit (determinism contract).
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let eat = |h: &mut u64, bytes: &[u8]| {
            for &b in bytes {
                *h ^= b as u64;
                *h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for n in self.template.nodes() {
            eat(&mut h, n.name.as_bytes());
            eat(&mut h, &n.position.x.to_bits().to_le_bytes());
            eat(&mut h, &n.position.y.to_bits().to_le_bytes());
            eat(&mut h, &[n.role.device_kind().name().as_bytes()[0]]);
        }
        for &(i, j) in self.template.links() {
            eat(&mut h, &(i as u64).to_le_bytes());
            eat(&mut h, &(j as u64).to_le_bytes());
            eat(&mut h, &self.template.path_loss(i, j).to_bits().to_le_bytes());
        }
        h
    }
}

/// The city spec: one route per sensor to the sink, a 20 dB SNR floor,
/// minimize component cost. No lifetime bound — city instances are sized
/// by coverage and cost, and the decomposition stays objective-additive.
pub fn city_spec() -> String {
    "set noise_dbm = -100\n\
     set period_s = 30\n\
     set battery_mah = 3000\n\
     set modulation = qpsk\n\
     c = has_path(sensors, sink)\n\
     min_signal_to_noise(20)\n\
     objective minimize cost\n"
        .to_string()
}

/// Generates a seeded city instance (see the module docs for the layout).
///
/// Determinism: all randomness comes from one `StdRng` consumed in fixed
/// building order; node/link construction iterates vectors only, so the
/// same parameters always produce a byte-identical instance (checked by
/// [`CityInstance::fingerprint`] in tests).
///
/// # Panics
///
/// Panics if the building grid is empty.
pub fn generate_city(params: &CityParams) -> CityInstance {
    let (gx, gy) = params.grid;
    assert!(gx >= 1 && gy >= 1, "city needs at least one building");
    let mut rng = StdRng::seed_from_u64(params.seed);
    let base_w = 64.0;
    let base_h = 40.0;
    // cell pitch leaves room for the largest jittered building + street
    let cell_w = base_w * 1.15 + params.street_m + 8.0;
    let cell_h = base_h * 1.15 + params.street_m + 8.0;

    let mut template = NetworkTemplate::new();
    let mut buildings: Vec<CityBuilding> = Vec::with_capacity(gx * gy);
    let mut building_of: Vec<usize> = Vec::new();
    let mut backhaul: Vec<usize> = Vec::new();
    let mut elevated: Vec<bool> = Vec::new();

    for by in 0..gy {
        for bx in 0..gx {
            let b = by * gx + bx;
            let w = base_w * rng.gen_range(0.85..1.15);
            let h = base_h * rng.gen_range(0.85..1.15);
            let rooms = rng.gen_range(5..=8usize);
            let profile = match rng.gen_range(0..3usize) {
                0 => TrafficProfile::Dense,
                1 => TrafficProfile::Standard,
                _ => TrafficProfile::Sparse,
            };
            let jx = rng.gen_range(0.0..8.0);
            let jy = rng.gen_range(0.0..8.0);
            let origin = Point::new(bx as f64 * cell_w + jx, by as f64 * cell_h + jy);
            let mut plan = office_floor(&OfficeParams {
                width: w,
                height: h,
                rooms_per_band: rooms,
                corridor_height: 4.0,
                door_width: 1.2,
            });
            let n_sensors = ((params.sensors_per_building as f64 * profile.sensor_factor())
                .round() as usize)
                .max(1);
            let d = profile.relay_delta();
            let rg = (
                (params.relay_grid.0 as i64 + d).max(1) as usize,
                (params.relay_grid.1 as i64 + d).max(1) as usize,
            );
            let (sensors, relays) = building_markers(&mut plan, n_sensors, rg);
            let start = template.num_nodes();
            for (k, &p) in sensors.iter().enumerate() {
                template.add_node(format!("s{}_{}", b, k), origin + p, NodeRole::Sensor);
                building_of.push(b);
                elevated.push(false);
            }
            for (k, &p) in relays.iter().enumerate() {
                template.add_node(format!("r{}_{}", b, k), origin + p, NodeRole::Relay);
                building_of.push(b);
                elevated.push(false);
            }
            // rooftop backhaul relay, offset from the building center so it
            // never lands exactly on the sink
            let rooftop = template.add_node(
                format!("bh{}", b),
                origin + Point::new(w / 2.0 + 2.0, h / 2.0),
                NodeRole::Relay,
            );
            building_of.push(b);
            elevated.push(true);
            backhaul.push(rooftop);
            buildings.push(CityBuilding {
                origin,
                plan,
                profile,
                rooftop,
                node_range: (start, template.num_nodes()),
            });
        }
    }
    // single sink at the center of building 0
    let b0 = &buildings[0];
    let sink = template.add_node(
        "sink",
        b0.origin + Point::new(b0.plan.width() / 2.0, b0.plan.height() / 2.0),
        NodeRole::Sink,
    );
    building_of.push(0);
    elevated.push(false);
    buildings[0].node_range.1 = template.num_nodes();

    let requirements =
        Requirements::from_spec_text(&city_spec()).expect("builtin city spec parses");
    let indoor = LogDistance::at_frequency(
        requirements.params.freq_hz,
        requirements.params.pl_exponent,
    );
    let outdoor = LogDistance::at_frequency(requirements.params.freq_hz, OUTDOOR_EXPONENT);
    let positions: Vec<Point> = template.nodes().iter().map(|n| n.position).collect();
    // one memoized multi-wall model per building: the merged campus plan
    // would make every wall a candidate crossing for every pair
    let caches: Vec<_> = buildings
        .iter()
        .map(|b| MultiWall::new(indoor, &b.plan).cached())
        .collect();
    template.compute_path_loss_with(|i, j| {
        let (bi, bj) = (building_of[i], building_of[j]);
        let base = if bi == bj {
            let o = buildings[bi].origin;
            let a = Point::new(positions[i].x - o.x, positions[i].y - o.y);
            let b = Point::new(positions[j].x - o.x, positions[j].y - o.y);
            caches[bi].path_loss_db(a, b)
        } else if elevated[i] && elevated[j] {
            outdoor.path_loss_db(positions[i], positions[j])
        } else {
            return f64::INFINITY;
        };
        if params.interference && !elevated[j] {
            base + buildings[bj].profile.interference_margin_db()
        } else {
            base
        }
    });
    drop(caches);

    let library = catalog::zigbee_reference();
    template.prune_links(
        &library,
        requirements.params.noise_dbm,
        requirements.effective_min_snr_db(),
    );
    CityInstance {
        params: params.clone(),
        buildings,
        template,
        library,
        requirements,
        building_of,
        backhaul,
        elevated,
        sink,
    }
}

/// A spatial partition of a city instance into zones.
#[derive(Debug, Clone)]
pub struct ScalePartition {
    /// Zone index per building.
    pub zone_of_building: Vec<usize>,
    /// Zone index per template node.
    pub zone_of: Vec<usize>,
    /// Node indices per zone, ascending.
    pub zones: Vec<Vec<usize>>,
    /// Directed template links crossing zones (always rooftop-to-rooftop
    /// by construction; symmetric because link pruning is kind-level).
    pub boundary: Vec<(usize, usize)>,
}

impl ScalePartition {
    /// Number of zones.
    pub fn num_zones(&self) -> usize {
        self.zones.len()
    }
}

/// Partitions a city into zones of roughly `buildings_per_zone` buildings
/// via deterministic k-means over building centers. Nodes inherit their
/// building's zone, so a building is never split across zones (a zone
/// without a rooftop could not route traffic out).
pub fn partition_city(city: &CityInstance, buildings_per_zone: usize) -> ScalePartition {
    let nb = city.buildings.len();
    let k = nb.div_ceil(buildings_per_zone.max(1));
    let centers: Vec<(f64, f64)> = city
        .buildings
        .iter()
        .map(|b| {
            (
                b.origin.x + b.plan.width() / 2.0,
                b.origin.y + b.plan.height() / 2.0,
            )
        })
        .collect();
    let zone_of_building = kmeans(&centers, k, 50);
    let nz = num_clusters(&zone_of_building);
    let zone_of: Vec<usize> = city
        .building_of
        .iter()
        .map(|&b| zone_of_building[b])
        .collect();
    let mut zones: Vec<Vec<usize>> = vec![Vec::new(); nz];
    for (i, &z) in zone_of.iter().enumerate() {
        zones[z].push(i);
    }
    let boundary: Vec<(usize, usize)> = city
        .template
        .links()
        .iter()
        .copied()
        .filter(|&(i, j)| zone_of[i] != zone_of[j])
        .collect();
    ScalePartition {
        zone_of_building,
        zone_of,
        zones,
        boundary,
    }
}

/// Options for [`solve_decomposed`].
#[derive(Debug, Clone)]
pub struct ScaleOptions {
    /// Target buildings per zone.
    pub buildings_per_zone: usize,
    /// Yen candidate count (`K*`) for the zone encodings.
    pub kstar: usize,
    /// Wall-clock budget for the whole decomposed solve.
    pub budget: Duration,
    /// Has no effect: the solver takes no seed. Kept because `perfbench`
    /// (a separate workspace) still sets it.
    pub seed: u64,
    /// Outer worker threads for parallel zone solves (`0` = auto).
    pub threads: usize,
}

impl Default for ScaleOptions {
    fn default() -> Self {
        ScaleOptions {
            buildings_per_zone: 2,
            kstar: 4,
            budget: Duration::from_secs(60),
            seed: 0x5ca1e,
            threads: 0,
        }
    }
}

/// Decomposition failure.
#[derive(Debug)]
pub enum ScaleError {
    /// A sub-encoding failed structurally.
    Encode(EncodeError),
    /// A zone solve produced no design.
    Zone {
        /// Zone index.
        zone: usize,
        /// Final solver status, when the solve ran at all.
        status: Option<Status>,
    },
    /// A backbone relay (a gateway or the sink building's rooftop) has no
    /// rooftop route to the sink.
    Backbone {
        /// The unreachable relay's template node index.
        gateway: usize,
    },
    /// No rooftop in the zone can reach every zone sensor.
    NoGateway {
        /// Zone index.
        zone: usize,
    },
}

impl fmt::Display for ScaleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScaleError::Encode(e) => write!(f, "encoding failed: {}", e),
            ScaleError::Zone { zone, status } => {
                write!(f, "zone {} produced no design (status {:?})", zone, status)
            }
            ScaleError::Backbone { gateway } => {
                write!(f, "backbone relay {} has no route to the sink", gateway)
            }
            ScaleError::NoGateway { zone } => {
                write!(f, "zone {} has no gateway reaching every sensor", zone)
            }
        }
    }
}

impl std::error::Error for ScaleError {}

impl From<EncodeError> for ScaleError {
    fn from(e: EncodeError) -> Self {
        ScaleError::Encode(e)
    }
}

/// Result of a decomposed solve.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// The stitched design (metrics recomputed on the full instance).
    pub design: NetworkDesign,
    /// `verify_design` violations on the full instance (empty = verified).
    pub violations: Vec<String>,
    /// Number of zones solved.
    pub num_zones: usize,
    /// Cross-zone candidate links in the partition.
    pub boundary_links: usize,
    /// Gateway choice rounds. Always 1: each zone's gateway is chosen once,
    /// before the zone solves.
    pub price_iters: usize,
    /// Final solver status per zone, in zone order.
    pub zone_statuses: Vec<Status>,
    /// Chosen gateway node per zone (the sink for the sink's own zone).
    pub gateways: Vec<usize>,
    /// Wall-clock time of the whole decomposed solve.
    pub wall: Duration,
}

/// Monolithic ablation baseline: the plain resilient ladder on the full
/// un-partitioned template.
pub fn solve_monolithic(
    city: &CityInstance,
    budget: Duration,
    kstar: usize,
) -> crate::explore::ExploreReport {
    explore_resilient(
        &city.template,
        &city.library,
        &city.requirements,
        &LadderOptions::new(ExploreOptions::approx(kstar)).with_budget(budget),
    )
}

/// Zone-solve library: every real component, plus a `Sink`-kind stand-in
/// clone (`gw-*`) of every relay so a zone's gateway — really a rooftop
/// *relay* of the full instance — can be sized with relay-class radios
/// and costs. Stand-ins are mapped back to real relay parts during
/// stitching.
fn zone_library(lib: &Library) -> Library {
    let mut comps = lib.components().to_vec();
    for c in lib.components() {
        if c.kind == DeviceKind::Relay {
            let mut d = c.clone();
            d.kind = DeviceKind::Sink;
            d.name = format!("gw-{}", c.name);
            comps.push(d);
        }
    }
    Library::new(comps).expect("gw- prefix keeps clone names unique")
}

/// Builds the MILP sub-template of one zone: the zone's nodes with the
/// chosen gateway recast as the zone sink, path loss copied from the full
/// template, links re-pruned against the zone library.
fn zone_template(
    city: &CityInstance,
    nodes: &[usize],
    gateway: usize,
    lib: &Library,
) -> NetworkTemplate {
    let mut t = NetworkTemplate::new();
    for &g in nodes {
        let n = &city.template.nodes()[g];
        let role = if g == gateway { NodeRole::Sink } else { n.role };
        t.add_node(n.name.clone(), n.position, role);
    }
    t.compute_path_loss_with(|a, b| city.template.path_loss(nodes[a], nodes[b]));
    t.prune_links(
        lib,
        city.requirements.params.noise_dbm,
        city.requirements.effective_min_snr_db(),
    );
    t
}

/// Hop-count distances *to* `target` over the directed links accepted by
/// `keep`, via Dijkstra on the reversed unit-weight subgraph.
fn hops_to(
    n: usize,
    links: &[(usize, usize)],
    keep: impl Fn(usize, usize) -> bool,
    target: usize,
) -> Vec<f64> {
    let mut g = DiGraph::new(n);
    for &(i, j) in links {
        if keep(i, j) {
            g.add_edge(NodeId(j), NodeId(i), 1.0);
        }
    }
    distances_from(&g, NodeId(target))
}

/// Spatially decomposed solve: one-shot gateway choice, spanning-tree
/// backbone routes, parallel zone MILPs, stitching, seam repair, full
/// re-verification.
///
/// # Errors
///
/// Returns [`ScaleError`] when any zone yields no design (the caller may
/// retry with a larger budget), a backbone relay cannot reach the sink, or
/// a sub-encoding fails.
pub fn solve_decomposed(
    city: &CityInstance,
    opts: &ScaleOptions,
) -> Result<ScaleReport, ScaleError> {
    let t0 = Instant::now();
    let part = partition_city(city, opts.buildings_per_zone);
    let nz = part.num_zones();
    let sink_zone = part.zone_of[city.sink];
    let n = city.template.num_nodes();
    let cheapest_relay = city
        .library
        .cheapest_of(DeviceKind::Relay)
        .map(|c| c.cost)
        .unwrap_or(1.0)
        .max(1.0);

    // --- one-shot gateway choice -----------------------------------------
    // Each zone hands its traffic to the rooftop with the lowest price: the
    // worst sensor hop distance to it inside the zone, plus its backhaul hop
    // count to the sink, each hop costing about one relay. Ties go to the
    // lowest node index.
    let bh_hops = hops_to(
        n,
        city.template.links(),
        |i, j| city.elevated[i] && (city.elevated[j] || j == city.sink),
        city.sink,
    );
    let mut assignment: Vec<usize> = Vec::with_capacity(nz);
    for (z, zone_nodes) in part.zones.iter().enumerate() {
        if z == sink_zone {
            assignment.push(city.sink);
            continue;
        }
        let sensors: Vec<usize> = zone_nodes
            .iter()
            .copied()
            .filter(|&i| city.template.nodes()[i].role == NodeRole::Sensor)
            .collect();
        let mut best = usize::MAX;
        let mut best_p = f64::INFINITY;
        for &g in zone_nodes.iter().filter(|&&i| city.elevated[i]) {
            let d = hops_to(
                n,
                city.template.links(),
                |i, j| part.zone_of[i] == z && part.zone_of[j] == z,
                g,
            );
            let worst = sensors
                .iter()
                .map(|&s| d[s])
                .fold(0.0f64, |acc, x| acc.max(x));
            let h = if bh_hops[g].is_finite() {
                bh_hops[g]
            } else {
                4.0
            };
            let p = worst * cheapest_relay + h * cheapest_relay;
            if p < best_p {
                best_p = p;
                best = g;
            }
        }
        if best == usize::MAX {
            return Err(ScaleError::NoGateway { zone: z });
        }
        assignment.push(best);
    }
    let backbone = backbone_routes(city, &assignment, sink_zone)?;

    // --- parallel zone solves -------------------------------------------
    let zlib = zone_library(&city.library);
    let mut problems: Vec<(usize, NetworkTemplate, Vec<usize>)> = Vec::new();
    for (z, zone_nodes) in part.zones.iter().enumerate() {
        let gateway = assignment[z];
        let t = zone_template(city, zone_nodes, gateway, &zlib);
        problems.push((z, t, zone_nodes.clone()));
    }
    let workers = if opts.threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
    } else {
        opts.threads
    }
    .min(problems.len())
    .max(1);
    let remaining = opts.budget.saturating_sub(t0.elapsed());
    let chunks = problems.len().div_ceil(workers);
    let slice = remaining / chunks.max(1) as u32;
    let cancel = milp::CancelToken::new();
    let next_idx = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<crate::explore::ExploreReport>>> =
        (0..problems.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next_idx.fetch_add(1, Ordering::SeqCst);
                if i >= problems.len() {
                    break;
                }
                let (_, t, _) = &problems[i];
                let base = ExploreOptions::approx(opts.kstar)
                    .with_threads(1)
                    .with_cancel(cancel.clone());
                let ladder = LadderOptions::new(base).with_budget(slice);
                let rep = catch_unwind(AssertUnwindSafe(|| {
                    explore_resilient(t, &zlib, &city.requirements, &ladder)
                }));
                match rep {
                    Ok(r) => {
                        if !r.has_design() {
                            // the stitched design is dead without this zone;
                            // wind the others down
                            cancel.cancel();
                        }
                        if let Ok(mut slot) = results[i].lock() {
                            *slot = Some(r);
                        }
                    }
                    Err(_) => cancel.cancel(),
                }
            });
        }
    });
    let mut zone_reports = Vec::with_capacity(problems.len());
    let mut zone_statuses = Vec::with_capacity(problems.len());
    for (i, slot) in results.iter().enumerate() {
        let rep = slot
            .lock()
            .ok()
            .and_then(|mut s| s.take())
            .ok_or(ScaleError::Zone {
                zone: problems[i].0,
                status: None,
            })?;
        if !rep.has_design() {
            return Err(ScaleError::Zone {
                zone: problems[i].0,
                status: rep.final_status,
            });
        }
        zone_statuses.push(rep.final_status.unwrap_or(Status::LimitNoSolution));
        zone_reports.push(rep);
    }

    // --- stitch + repair + verify ---------------------------------------
    let mut design = stitch(
        city,
        &zlib,
        &problems,
        &zone_reports,
        &backbone,
        &assignment,
        sink_zone,
    );
    repair_components(&mut design, city);
    recompute_metrics(&mut design, &city.template, &city.library, &city.requirements);
    design.objective = design.total_cost;
    let violations = verify_design(&design, &city.template, &city.library, &city.requirements);
    Ok(ScaleReport {
        design,
        violations,
        num_zones: nz,
        boundary_links: part.boundary.len(),
        price_iters: 1,
        zone_statuses,
        gateways: assignment,
        wall: t0.elapsed(),
    })
}

/// Routes the backbone: the chosen gateways and the sink building's
/// rooftop each reach the sink along Prim's minimum spanning tree, grown
/// from the sink over the template links among those nodes and weighted
/// by path loss (ties go to the lower link). A tree path is a minimax
/// route: no route to the sink over these links has a lower worst hop.
/// Returns each relay's route, relay first and sink last, keyed by relay.
///
/// # Errors
///
/// [`ScaleError::Backbone`] names the lowest relay the tree cannot reach.
fn backbone_routes(
    city: &CityInstance,
    assignment: &[usize],
    sink_zone: usize,
) -> Result<BTreeMap<usize, Vec<usize>>, ScaleError> {
    let mut relays: Vec<usize> = assignment
        .iter()
        .enumerate()
        .filter(|&(z, _)| z != sink_zone)
        .map(|(_, &g)| g)
        .collect();
    relays.push(city.backhaul[city.building_of[city.sink]]);
    relays.sort_unstable();
    relays.dedup();
    let is_relay = |u: usize| relays.binary_search(&u).is_ok();
    let links: Vec<(usize, usize)> = city
        .template
        .links()
        .iter()
        .copied()
        .filter(|&(i, j)| is_relay(i) && (is_relay(j) || j == city.sink))
        .collect();
    let loss = |(i, j): (usize, usize)| city.template.path_loss(i, j);
    // each tree relay's next hop toward the sink
    let mut next: BTreeMap<usize, usize> = BTreeMap::new();
    let in_tree = |next: &BTreeMap<usize, usize>, u| u == city.sink || next.contains_key(&u);
    while let Some(&(i, j)) = links
        .iter()
        .filter(|&&(i, j)| !in_tree(&next, i) && in_tree(&next, j))
        .min_by(|&&a, &&b| loss(a).total_cmp(&loss(b)).then(a.cmp(&b)))
    {
        next.insert(i, j);
    }
    relays
        .into_iter()
        .map(|g| {
            let route: Vec<usize> = successors(Some(g), |u| next.get(u).copied()).collect();
            if route.last() == Some(&city.sink) {
                Ok((g, route))
            } else {
                Err(ScaleError::Backbone { gateway: g })
            }
        })
        .collect()
}

/// Loop-erases a node sequence: on a revisit, the cycle back to the first
/// occurrence is spliced out. Every surviving consecutive pair was
/// consecutive in the input, so all edges existed in the source routes.
fn loop_erase(seq: &[usize]) -> Vec<usize> {
    let mut out: Vec<usize> = Vec::with_capacity(seq.len());
    let mut pos: HashMap<usize, usize> = HashMap::new();
    for &v in seq {
        if let Some(&p) = pos.get(&v) {
            for w in out.drain(p + 1..) {
                pos.remove(&w);
            }
        } else {
            pos.insert(v, out.len());
            out.push(v);
        }
    }
    out
}

/// Maps a zone-library component choice onto the real library for a node
/// of `kind`: identity when the kind already matches, otherwise the
/// cheapest real part at least as capable (TX power and antenna gain) as
/// the stand-in, falling back to the most capable part.
fn map_component(lib: &Library, chosen: &devlib::Component, kind: DeviceKind) -> usize {
    if chosen.kind == kind {
        if let Some(idx) = lib.index_of(&chosen.name) {
            return idx;
        }
    }
    let mut best: Option<(f64, usize)> = None; // (cost, idx)
    for (idx, c) in lib.of_kind(kind) {
        if c.tx_power_dbm >= chosen.tx_power_dbm - 1e-9
            && c.antenna_gain_dbi >= chosen.antenna_gain_dbi - 1e-9
            && best.is_none_or(|(bc, _)| c.cost < bc)
        {
            best = Some((c.cost, idx));
        }
    }
    if let Some((_, idx)) = best {
        return idx;
    }
    // no dominating part: take the most capable one
    lib.of_kind(kind)
        .max_by(|(_, a), (_, b)| {
            (a.tx_power_dbm + a.antenna_gain_dbi)
                .partial_cmp(&(b.tx_power_dbm + b.antenna_gain_dbi))
                .expect("powers are finite")
        })
        .map(|(idx, _)| idx)
        .expect("library has parts of every kind")
}

/// Assembles the stitched design: zone routes extended along backbone
/// routes, loop-erased; zone components mapped to the real library, and
/// backbone nodes no zone placed given the cheapest part of their kind
/// (seam repair sizes them); unused optional nodes dropped.
fn stitch(
    city: &CityInstance,
    zlib: &Library,
    problems: &[(usize, NetworkTemplate, Vec<usize>)],
    zone_reports: &[crate::explore::ExploreReport],
    backbone: &BTreeMap<usize, Vec<usize>>,
    assignment: &[usize],
    sink_zone: usize,
) -> NetworkDesign {
    let kind_of = |node: usize| city.template.nodes()[node].role.device_kind();
    // zones are disjoint, so each node gets at most one zone pick
    let mut comp_of: HashMap<usize, usize> = HashMap::new();
    for ((_, _, map), rep) in problems.iter().zip(zone_reports) {
        let d = rep.design.as_ref().expect("zone reports are all solved");
        for p in &d.placed {
            let node = map[p.node];
            let chosen = zlib
                .get(p.component)
                .expect("zone designs index the zone library");
            comp_of.insert(node, map_component(&city.library, chosen, kind_of(node)));
        }
    }
    for &u in backbone.values().flatten() {
        comp_of.entry(u).or_insert_with(|| {
            city.library
                .cheapest_of(kind_of(u))
                .and_then(|c| city.library.index_of(&c.name))
                .expect("library has parts of every kind")
        });
    }
    // routes: one per sensor, zone leg then backbone leg
    let mut routes: Vec<DesignRoute> = Vec::new();
    for ((z, _, map), rep) in problems.iter().zip(zone_reports) {
        let d = rep.design.as_ref().expect("zone reports are all solved");
        for r in &d.routes {
            let mut seq: Vec<usize> = r.nodes.iter().map(|&u| map[u]).collect();
            if *z != sink_zone {
                seq.extend_from_slice(&backbone[&assignment[*z]][1..]);
            }
            let nodes = loop_erase(&seq);
            routes.push(DesignRoute {
                family: 0,
                source: nodes[0],
                dest: *nodes.last().expect("routes are non-empty"),
                replica: r.replica,
                nodes,
            });
        }
    }
    routes.sort_by_key(|r| r.source);

    // keep only nodes some route uses (fixed nodes are always used: every
    // sensor is a source and every route ends at the sink)
    let mut used: Vec<usize> = routes.iter().flat_map(|r| r.nodes.clone()).collect();
    used.sort_unstable();
    used.dedup();
    let placed: Vec<DesignNode> = used
        .iter()
        .filter_map(|&u| {
            comp_of.get(&u).map(|&component| DesignNode {
                node: u,
                component,
            })
        })
        .collect();
    let mut edges: Vec<(usize, usize)> = routes.iter().flat_map(|r| r.edges()).collect();
    edges.sort_unstable();
    edges.dedup();
    NetworkDesign {
        placed,
        edges,
        routes,
        ..NetworkDesign::default()
    }
}

/// Seam repair: re-picks the component of every placed node so all route
/// edges clear the SNR floor, preferring cheaper parts. Nodes farthest
/// from the sink go first (most hops left on any route through them, ties
/// by node index), so a transmitter is sized for its hop before its
/// receiver is. Neighbor choices interact, so the sweep runs to a
/// fixpoint (bounded passes); a node with no satisfying part gets the
/// max-min-slack one and the final [`verify_design`] pass is the
/// authority.
fn repair_components(d: &mut NetworkDesign, city: &CityInstance) {
    let floor = city.requirements.effective_min_snr_db();
    let noise = city.requirements.params.noise_dbm;
    let mut comp_of: HashMap<usize, usize> =
        d.placed.iter().map(|p| (p.node, p.component)).collect();
    let mut incident: HashMap<usize, Vec<(usize, usize)>> = HashMap::new();
    let mut all_edges: Vec<(usize, usize)> = d.routes.iter().flat_map(|r| r.edges()).collect();
    all_edges.sort_unstable();
    all_edges.dedup();
    for &(i, j) in &all_edges {
        incident.entry(i).or_default().push((i, j));
        incident.entry(j).or_default().push((i, j));
    }
    let snr = |comp_of: &HashMap<usize, usize>, i: usize, j: usize| -> f64 {
        let (Some(&ci), Some(&cj)) = (comp_of.get(&i), comp_of.get(&j)) else {
            return f64::NEG_INFINITY;
        };
        let (Some(a), Some(b)) = (city.library.get(ci), city.library.get(cj)) else {
            return f64::NEG_INFINITY;
        };
        pair_snr_db(&city.template, i, j, a, b, noise)
    };
    let mut hops_left = vec![0usize; city.template.num_nodes()];
    for r in &d.routes {
        for (k, &u) in r.nodes.iter().enumerate() {
            hops_left[u] = hops_left[u].max(r.nodes.len() - 1 - k);
        }
    }
    let mut order: Vec<usize> = d.placed.iter().map(|p| p.node).collect();
    order.sort_by_key(|&u| (Reverse(hops_left[u]), u));
    for _pass in 0..3 {
        let mut changed = false;
        for &u in &order {
            let Some(edges) = incident.get(&u) else { continue };
            let kind = city.template.nodes()[u].role.device_kind();
            let mut cands: Vec<(usize, f64)> = city
                .library
                .of_kind(kind)
                .map(|(idx, c)| (idx, c.cost))
                .collect();
            cands.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("costs are finite"));
            let current = comp_of.get(&u).copied();
            let mut picked: Option<usize> = None;
            let mut best_slack: Option<(f64, usize)> = None;
            for &(idx, _) in &cands {
                comp_of.insert(u, idx);
                let min_slack = edges
                    .iter()
                    .map(|&(i, j)| snr(&comp_of, i, j) - floor)
                    .fold(f64::INFINITY, f64::min);
                if min_slack >= -1e-6 {
                    picked = Some(idx);
                    break;
                }
                if best_slack.is_none_or(|(s, _)| min_slack > s) {
                    best_slack = Some((min_slack, idx));
                }
            }
            let choice = picked
                .or(best_slack.map(|(_, idx)| idx))
                .or(current)
                .unwrap_or_default();
            comp_of.insert(u, choice);
            if Some(choice) != current {
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for p in &mut d.placed {
        if let Some(&c) = comp_of.get(&p.node) {
            p.component = c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> CityParams {
        CityParams {
            grid: (2, 2),
            sensors_per_building: 3,
            relay_grid: (3, 3),
            street_m: 24.0,
            seed: 11,
            interference: false,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_city(&tiny_params());
        let b = generate_city(&tiny_params());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.num_sites(), b.num_sites());
        let mut other = tiny_params();
        other.seed = 12;
        let c = generate_city(&other);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn city_shape() {
        let city = generate_city(&tiny_params());
        assert_eq!(city.buildings.len(), 4);
        assert_eq!(city.backhaul.len(), 4);
        // one sink, elevated rooftops flagged
        assert_eq!(city.template.nodes_of(NodeRole::Sink), vec![city.sink]);
        for &bh in &city.backhaul {
            assert!(city.elevated[bh]);
        }
        // cross-building links exist only between rooftops
        for &(i, j) in city.template.links() {
            if city.building_of[i] != city.building_of[j] {
                assert!(city.elevated[i] && city.elevated[j], "link {}->{}", i, j);
            }
        }
    }

    #[test]
    fn partition_is_total_and_boundary_symmetric() {
        let city = generate_city(&tiny_params());
        let part = partition_city(&city, 2);
        assert_eq!(part.zone_of.len(), city.num_sites());
        let nz = part.num_zones();
        assert!(nz >= 2);
        // every node in exactly one zone
        let mut seen = vec![0usize; city.num_sites()];
        for zone in &part.zones {
            for &i in zone {
                seen[i] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
        // boundary is symmetric and crosses zones
        for &(i, j) in &part.boundary {
            assert_ne!(part.zone_of[i], part.zone_of[j]);
            assert!(part.boundary.contains(&(j, i)), "asymmetric {}->{}", i, j);
        }
    }

    #[test]
    fn interference_margin_raises_path_loss() {
        let base = generate_city(&tiny_params());
        let mut p = tiny_params();
        p.interference = true;
        let noisy = generate_city(&p);
        // profiles match (same seed); any indoor pair into a non-sparse
        // building gains its margin
        let mut raised = 0usize;
        for (i, n) in base.template.nodes().iter().enumerate() {
            for (j, _) in base.template.nodes().iter().enumerate() {
                if i == j || noisy.elevated[j] {
                    continue;
                }
                let a = base.template.path_loss(i, j);
                let b = noisy.template.path_loss(i, j);
                if a.is_finite() {
                    let margin =
                        noisy.buildings[noisy.building_of[j]].profile.interference_margin_db();
                    assert!((b - a - margin).abs() < 1e-9, "{}:{}", i, j);
                    if margin > 0.0 {
                        raised += 1;
                    }
                }
            }
            let _ = n;
        }
        assert!(raised > 0 || noisy.buildings.iter().all(|b| b.profile == TrafficProfile::Sparse));
    }

    #[test]
    fn loop_erase_splices_cycles() {
        assert_eq!(loop_erase(&[1, 2, 3, 2, 4]), vec![1, 2, 4]);
        assert_eq!(loop_erase(&[1, 2, 3]), vec![1, 2, 3]);
        assert_eq!(loop_erase(&[5]), vec![5]);
        assert_eq!(loop_erase(&[1, 2, 1, 3, 1, 4]), vec![1, 4]);
    }

    #[test]
    fn backbone_routes_are_minimax_paths_to_the_sink() {
        let city = generate_city(&CityParams {
            grid: (3, 2),
            ..tiny_params()
        });
        // one building per zone, so every rooftop is its zone's gateway
        let part = partition_city(&city, 1);
        let sink_zone = part.zone_of[city.sink];
        let assignment: Vec<usize> = part
            .zones
            .iter()
            .enumerate()
            .map(|(z, nodes)| {
                let rooftop = nodes.iter().copied().find(|&i| city.elevated[i]);
                if z == sink_zone {
                    city.sink
                } else {
                    rooftop.expect("a rooftop")
                }
            })
            .collect();
        let routes = backbone_routes(&city, &assignment, sink_zone).expect("rooftops connect");
        let mut relays = city.backhaul.clone();
        relays.sort_unstable();
        assert_eq!(routes.keys().copied().collect::<Vec<_>>(), relays);

        // the same links the tree may use: rooftop to rooftop or to the sink
        let links: Vec<(usize, usize)> = city
            .template
            .links()
            .iter()
            .copied()
            .filter(|&(i, j)| city.elevated[i] && (city.elevated[j] || j == city.sink))
            .collect();
        let loss = |(i, j): (usize, usize)| city.template.path_loss(i, j);
        // brute force: the least threshold under which `g` reaches the sink
        let minimax = |g: usize| {
            let mut thresholds: Vec<f64> = links.iter().map(|&l| loss(l)).collect();
            thresholds.sort_by(f64::total_cmp);
            thresholds
                .into_iter()
                .find(|&t| {
                    let mut reached = vec![g];
                    let mut k = 0;
                    while k < reached.len() {
                        let u = reached[k];
                        for &(i, j) in &links {
                            if i == u && loss((i, j)) <= t && !reached.contains(&j) {
                                reached.push(j);
                            }
                        }
                        k += 1;
                    }
                    reached.contains(&city.sink)
                })
                .expect("the sink is reachable")
        };
        let mut multi_hop = 0;
        for (&g, route) in &routes {
            assert_eq!(route.first(), Some(&g));
            assert_eq!(route.last(), Some(&city.sink));
            let hops: Vec<(usize, usize)> = route.windows(2).map(|w| (w[0], w[1])).collect();
            for &hop in &hops {
                assert!(links.contains(&hop), "{:?} is not a backbone link", hop);
            }
            let worst = hops.iter().map(|&h| loss(h)).fold(0.0, f64::max);
            assert_eq!(worst, minimax(g), "relay {}", g);
            multi_hop += usize::from(hops.len() > 2);
        }
        assert!(multi_hop > 0, "some rooftop relays through another");
    }

    #[test]
    fn decomposed_solve_verifies_on_full_instance() {
        let city = generate_city(&tiny_params());
        let opts = ScaleOptions {
            buildings_per_zone: 2,
            kstar: 3,
            budget: Duration::from_secs(20),
            ..ScaleOptions::default()
        };
        let rep = solve_decomposed(&city, &opts).expect("small campus decomposes");
        assert!(
            rep.violations.is_empty(),
            "stitched design violates: {:?}",
            rep.violations
        );
        assert!(rep.num_zones >= 2);
        assert!(rep.design.total_cost > 0.0);
        assert_eq!(
            rep.design.routes.len(),
            city.template.nodes_of(NodeRole::Sensor).len()
        );
    }
}
