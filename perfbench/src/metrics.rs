//! The metric registry: every end-to-end metric (untraced run) and every
//! per-layer metric (traced run), with its unit, its direction, and for
//! layer metrics the end-to-end metric it should move. `BENCHMARK.json`
//! lists the same names; the smoke test checks that they agree.
//!
//! End-to-end names are shared by the three workloads, since every run
//! reports every one of them. Per workload they read as follows:
//!
//! | name        | explore-office            | session-storm         | city-district          |
//! |-------------|---------------------------|-----------------------|------------------------|
//! | `p50_ms`    | `explore.p50_ms`          | `storm.p50_ms`        | `city.solve_s` (in ms) |
//! | `tail_ms`   | `explore.tail_ms`         | `storm.tail_ms`       | slowest district solve |
//! | `ops_per_s` | `explore.designs_per_s`   | `storm.rps`           | districts per second   |
//! | `ok_frac`   | 1 - `explore.fail_frac`   | 1 - `storm.fail_frac` | 1 - `city.fail_frac`   |

use std::collections::BTreeMap;

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// For a layer metric: the end-to-end metric and workload it should
    /// move. For an end-to-end metric: what it measures.
    pub note: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        note,
    }
}

pub const END_TO_END: &[Metric] = &[
    m("p50_ms", "ms", "lower", "median latency of one operation"),
    m(
        "tail_ms",
        "ms",
        "lower",
        "highest percentile with >= 10 operations beyond it",
    ),
    m(
        "ops_per_s",
        "1/s",
        "higher",
        "operations completed per wall second",
    ),
    m(
        "ok_frac",
        "frac",
        "higher",
        "operations answered in full (1 - fail_frac)",
    ),
    m("setup_s", "s", "lower", "median of repeated set-ups"),
    m(
        "peak_rss_mb",
        "MiB",
        "lower",
        "VmHWM of the workload's process",
    ),
];

const EXPLORE_TAIL: &str = "explore.tail_ms on explore-office";
const EXPLORE_RATE: &str = "explore.designs_per_s on explore-office";
const EDIT: &str = "storm.edit_p50_ms on session-storm";
const RESTRUCTURE: &str = "storm.restructure_p50_ms on session-storm";
const FAILS: &str = "explore.fail_frac on explore-office, storm.fail_frac on session-storm";
const STORM_TAIL: &str = "storm.tail_ms and storm.fail_frac on session-storm";
const CITY: &str = "city.solve_s and city.cost on city-district";
const MILP_TIME: &str = "explore.designs_per_s and explore.tail_ms on explore-office, \
    storm.edit_p50_ms on session-storm, city.solve_s on city-district";

pub const PER_LAYER: &[Metric] = &[
    m(
        "template.build_ms",
        "ms",
        "lower",
        "setup_s on city-district; no change on explore-office",
    ),
    m(
        "template.pairs",
        "count",
        "lower",
        "setup_s on city-district",
    ),
    m(
        "template.links_kept_frac",
        "frac",
        "lower",
        "setup_s on city-district",
    ),
    m(
        "encode.busy_ms",
        "ms",
        "lower",
        "storm.restructure_p50_ms on session-storm; no change on explore-office",
    ),
    m("encode.mapping_ms", "ms", "lower", RESTRUCTURE),
    m("encode.routing_ms", "ms", "lower", RESTRUCTURE),
    m("encode.link_quality_ms", "ms", "lower", RESTRUCTURE),
    m("encode.energy_ms", "ms", "lower", RESTRUCTURE),
    m("encode.objective_ms", "ms", "lower", RESTRUCTURE),
    m("encode.rows", "count", "lower", EXPLORE_TAIL),
    m("encode.cols", "count", "lower", EXPLORE_TAIL),
    m("encode.nonzeros", "count", "lower", EXPLORE_TAIL),
    m("encode.candidate_paths", "count", "lower", EXPLORE_TAIL),
    m("milp.busy_ms", "ms", "lower", MILP_TIME),
    m("milp.nodes", "count", "lower", MILP_TIME),
    m("milp.pivots", "count", "lower", MILP_TIME),
    m("milp.phase1_pivots", "count", "lower", MILP_TIME),
    m("milp.dual_pivots", "count", "lower", MILP_TIME),
    m("milp.lp_solves", "count", "lower", MILP_TIME),
    m("milp.presolve_ms", "ms", "lower", EDIT),
    m("milp.root_lp_ms", "ms", "lower", EDIT),
    m("milp.cuts_applied", "count", "higher", EXPLORE_TAIL),
    m("milp.cut_apply_frac", "frac", "higher", EXPLORE_TAIL),
    m("milp.cut_rounds", "count", "lower", EXPLORE_TAIL),
    m("milp.root_gap", "frac", "lower", EXPLORE_TAIL),
    m("milp.heuristic_solutions", "count", "higher", EXPLORE_RATE),
    m("milp.lns_iters", "count", "lower", EXPLORE_RATE),
    m("milp.lns_publish_frac", "frac", "higher", EXPLORE_RATE),
    m("milp.first_incumbent_ms", "ms", "lower", EXPLORE_RATE),
    m("milp.rc_fixed", "count", "higher", FAILS),
    m("milp.presolve_rows_removed", "count", "higher", FAILS),
    m("milp.lp_recoveries", "count", "lower", FAILS),
    m("milp.worker_panics", "count", "lower", FAILS),
    m("milp.dropped_nodes", "count", "lower", FAILS),
    m("design.extract_ms", "ms", "lower", "no change expected"),
    m("design.verify_ms", "ms", "lower", "no change expected"),
    m(
        "session.apply_ms",
        "ms",
        "lower",
        "storm.edit_p50_ms and storm.restructure_p50_ms on session-storm",
    ),
    m("session.encode_ms", "ms", "lower", RESTRUCTURE),
    m("session.solve_ms", "ms", "lower", EDIT),
    m("session.warm_seeded_frac", "frac", "higher", EDIT),
    m("session.reencode_frac", "frac", "lower", RESTRUCTURE),
    m("session.fingerprint_rejects", "count", "lower", RESTRUCTURE),
    m("service.queue_wait_ms", "ms", "lower", STORM_TAIL),
    m("service.rung2", "count", "lower", STORM_TAIL),
    m("service.rung3", "count", "lower", STORM_TAIL),
    m("service.degraded", "count", "lower", STORM_TAIL),
    m("service.shed", "count", "lower", STORM_TAIL),
    m("service.queue_depth_max", "count", "lower", STORM_TAIL),
    m(
        "storm.edit_p50_ms",
        "ms",
        "lower",
        "end-to-end latency of price/stock edits on session-storm",
    ),
    m(
        "storm.restructure_p50_ms",
        "ms",
        "lower",
        "end-to-end latency of wall/route restructures on session-storm",
    ),
    m(
        "scale.generate_ms",
        "ms",
        "lower",
        "setup_s on city-district",
    ),
    m("scale.partition_ms", "ms", "lower", CITY),
    m("scale.decomposed_ms", "ms", "lower", CITY),
    m("scale.verify_ms", "ms", "lower", CITY),
    m("scale.zones", "count", "higher", CITY),
    m("scale.zones_optimal_frac", "frac", "higher", CITY),
    m("scale.boundary_links", "count", "lower", CITY),
    m("scale.price_iters", "count", "lower", CITY),
    m(
        "city.cost",
        "cost",
        "lower",
        "stitched design cost on city-district",
    ),
    m(
        "cpu_per_wall",
        "frac",
        "higher",
        "explore.designs_per_s on explore-office, city.solve_s on city-district",
    ),
    m(
        "trace_overhead_frac",
        "frac",
        "lower",
        "traced against untraced time of the same operations",
    ),
];

/// Looks a metric up by name in either list.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted in the timed window.
    pub attempted: u64,
    /// Operations that did not complete in full (not Optimal, not Served,
    /// not verified): the numerator of `fail_frac`.
    pub failed: u64,
    /// Correctness checks that failed. Any entry fails the run.
    pub errors: Vec<String>,
    /// Registry metrics: end-to-end ones untraced, layer ones traced.
    pub metrics: Vec<(&'static str, f64)>,
    /// The same results under their workload-specific names, for people.
    pub named: Vec<(String, f64, &'static str)>,
    /// Free-form lines: pinned thread counts, tail percentile, trace path.
    pub notes: Vec<String>,
    /// How many times each named correctness check ran.
    pub checks: BTreeMap<&'static str, u64>,
}

impl RunResult {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(find(name).is_some(), "unregistered metric {name}");
        self.metrics.push((name, value));
    }

    pub fn name(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.named.push((name.into(), value, unit));
    }

    /// Runs the named correctness check `ok`; a failure records `what`.
    pub fn check(&mut self, name: &'static str, ok: bool, what: impl FnOnce() -> String) {
        *self.checks.entry(name).or_insert(0) += 1;
        if !ok {
            self.errors.push(what());
        }
    }
}
