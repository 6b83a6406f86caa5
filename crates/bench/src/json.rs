//! Machine-readable benchmark output (`BENCH_solver.json`,
//! `BENCH_scale.json`).
//!
//! The table binaries print human-oriented tables; CI and the speedup
//! checks want structured numbers. This module hand-writes the small JSON
//! document (the workspace vendors no serde), recording one entry per
//! solver invocation: workload size, thread count, wall time, and nodes
//! explored.

use std::io::Write;
use std::path::Path;

/// One solver invocation: the run's identity plus the solver's own record
/// of its work.
#[derive(Debug, Clone)]
pub struct SolverRecord {
    /// `"row"` for the main per-row runs, `"scaling"` for the thread sweep.
    pub kind: &'static str,
    /// Template size (total nodes).
    pub total: usize,
    /// Routed end devices.
    pub end: usize,
    /// `Config::threads` requested for the run (`0` = auto).
    pub threads: usize,
    /// Worker threads the run actually used.
    pub effective_threads: usize,
    /// True when the run requested more worker threads than the host has
    /// cores — scaling numbers from such runs measure time-slicing, not
    /// parallel speedup.
    pub oversubscribed: bool,
    /// Solver wall time in seconds.
    pub wall_s: f64,
    /// Final solver status (`Optimal`, `LimitFeasible`, ...).
    pub status: String,
    /// Objective of the returned design, when one exists.
    pub objective: Option<f64>,
    /// Encoding wall time in seconds.
    pub encode_s: f64,
    /// Constraints in the encoded model.
    pub cons: usize,
    /// The solver's counters for the run; `to_json` writes the subset
    /// `BENCH_solver.json` carries (`pivots` is `simplex_iters`, the `_s`
    /// keys are the durations in seconds).
    pub stats: milp::Stats,
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

fn json_opt(v: Option<f64>) -> String {
    v.map_or("null".to_string(), json_f64)
}

impl SolverRecord {
    fn to_json(&self) -> String {
        let s = &self.stats;
        format!(
            concat!(
                "{{\"kind\":\"{}\",\"total\":{},\"end\":{},\"threads\":{},",
                "\"effective_threads\":{},\"wall_s\":{},\"nodes\":{},",
                "\"status\":\"{}\",\"objective\":{},\"encode_s\":{},\"cons\":{},",
                "\"pivots\":{},\"phase1_pivots\":{},",
                "\"cuts_applied\":{},\"cut_rounds\":{},\"root_gap\":{},",
                "\"cols_priced\":{},\"pricing_rounds\":{},\"pricing_s\":{},",
                "\"oversubscribed\":{},\"checkpoint_s\":{},",
                "\"checkpoints_written\":{},\"resumed\":{},",
                "\"time_to_first_incumbent_s\":{},\"time_to_within_1pct_s\":{}}}"
            ),
            self.kind,
            self.total,
            self.end,
            self.threads,
            self.effective_threads,
            json_f64(self.wall_s),
            s.nodes,
            self.status,
            json_opt(self.objective),
            json_f64(self.encode_s),
            self.cons,
            s.simplex_iters,
            s.phase1_iters,
            s.cuts_applied,
            s.cut_rounds,
            json_f64(s.root_gap),
            s.cols_priced,
            s.pricing_rounds,
            json_f64(s.pricing_time.as_secs_f64()),
            self.oversubscribed,
            json_f64(s.checkpoint_time.as_secs_f64()),
            s.checkpoints_written,
            s.resumed,
            json_opt(s.time_to_first_incumbent.map(|d| d.as_secs_f64())),
            json_opt(s.time_to_within_1pct.map(|d| d.as_secs_f64())),
        )
    }
}

/// One city-scale instance worth of measurements (`BENCH_scale.json`):
/// the decomposed solve, its verification verdict on the full instance,
/// the one-node bound of the monolithic model, and the monolithic
/// ablation where attempted.
#[derive(Debug, Clone)]
pub struct ScaleRecord {
    /// Registry name of the instance (`campus-4`, `district-16`, ...).
    pub name: String,
    /// Candidate sites (template nodes) in the full instance.
    pub sites: usize,
    /// Buildings in the city grid.
    pub buildings: usize,
    /// True for the interference-aware generator variant.
    pub interference: bool,
    /// Zones the instance was partitioned into.
    pub zones: usize,
    /// Inter-zone backhaul links coordinated by the master loop.
    pub boundary_links: usize,
    /// Gateway choice rounds (`ScaleReport::price_iters`, always 1).
    pub price_iters: usize,
    /// Wall-clock seconds of the full decomposed solve (partition +
    /// zones + backbone + stitch + verify).
    pub decomposed_wall_s: f64,
    /// Objective (total cost) of the stitched design.
    pub stitched_objective: Option<f64>,
    /// True when the stitched design passed `verify_design` on the full
    /// un-partitioned instance.
    pub verified: bool,
    /// Violations reported by that verification (0 when `verified`).
    pub violations: usize,
    /// Budget handed to the decomposed solve, seconds.
    pub budget_s: f64,
    /// Best bound of the monolithic K* model after one branch-and-bound
    /// node (one worker, no time limit): the root LP bound after cuts,
    /// so it repeats exactly from run to run. `null` when that solve
    /// gave no finite bound.
    pub one_node_bound: Option<f64>,
    /// Relative gap of the stitched cost above the one-node bound,
    /// `(stitched - bound) / bound`, when both exist.
    pub bound_gap: Option<f64>,
    /// Final status of the monolithic ablation; `null` when the monolith
    /// was not attempted (instance past the size gate).
    pub monolithic_status: Option<String>,
    /// Objective of the monolithic design, when one was found.
    pub monolithic_objective: Option<f64>,
    /// Wall-clock seconds of the monolithic ablation.
    pub monolithic_wall_s: Option<f64>,
    /// Relative objective gap `(stitched - monolithic) / monolithic`,
    /// when both objectives exist.
    pub gap: Option<f64>,
}

impl ScaleRecord {
    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"name\":\"{}\",\"sites\":{},\"buildings\":{},",
                "\"interference\":{},\"zones\":{},\"boundary_links\":{},",
                "\"price_iters\":{},\"decomposed_wall_s\":{},",
                "\"stitched_objective\":{},\"verified\":{},\"violations\":{},",
                "\"budget_s\":{},\"one_node_bound\":{},\"bound_gap\":{},",
                "\"monolithic_status\":{},",
                "\"monolithic_objective\":{},\"monolithic_wall_s\":{},",
                "\"gap\":{}}}"
            ),
            self.name.replace('"', "'"),
            self.sites,
            self.buildings,
            self.interference,
            self.zones,
            self.boundary_links,
            self.price_iters,
            json_f64(self.decomposed_wall_s),
            json_opt(self.stitched_objective),
            self.verified,
            self.violations,
            json_f64(self.budget_s),
            json_opt(self.one_node_bound),
            json_opt(self.bound_gap),
            self.monolithic_status
                .as_ref()
                .map_or("null".to_string(), |s| format!(
                    "\"{}\"",
                    s.replace('"', "'")
                )),
            json_opt(self.monolithic_objective),
            json_opt(self.monolithic_wall_s),
            json_opt(self.gap),
        )
    }
}

/// Writes the city-scale sweep as `BENCH_scale.json`: one record per
/// instance, plus the host's parallelism (zone solves run in parallel).
///
/// # Errors
///
/// Propagates I/O errors from creating or writing the file.
pub fn write_scale_json(path: &Path, bench: &str, records: &[ScaleRecord]) -> std::io::Result<()> {
    let lines: Vec<String> = records.iter().map(ScaleRecord::to_json).collect();
    write_records_json(path, bench, &lines)
}

/// Writes `records` as `BENCH_solver.json`-style output to `path`. The
/// document carries the host's available parallelism so speedup numbers
/// can be judged against the hardware they ran on.
///
/// # Errors
///
/// Propagates I/O errors from creating or writing the file.
pub fn write_solver_json(path: &Path, bench: &str, records: &[SolverRecord]) -> std::io::Result<()> {
    let lines: Vec<String> = records.iter().map(SolverRecord::to_json).collect();
    write_records_json(path, bench, &lines)
}

/// The document both record files share: the bench name, the host's
/// available parallelism, and one rendered record per line.
fn write_records_json(path: &Path, bench: &str, records: &[String]) -> std::io::Result<()> {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"bench\": \"{bench}\",")?;
    writeln!(f, "  \"host_available_parallelism\": {host},")?;
    writeln!(f, "  \"records\": [")?;
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        writeln!(f, "    {r}{comma}")?;
    }
    writeln!(f, "  ]")?;
    writeln!(f, "}}")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// The exact line a record renders for these values, so the key order
    /// and number formats of `BENCH_solver.json` stay put.
    const GOLDEN_RECORD: &str = concat!(
        "{\"kind\":\"row\",\"total\":50,\"end\":20,\"threads\":1,\"effective_threads\":1,",
        "\"wall_s\":1.250000,\"nodes\":42,\"status\":\"Optimal\",\"objective\":10.000000,",
        "\"encode_s\":0.004000,\"cons\":2685,\"pivots\":900,\"phase1_pivots\":120,",
        "\"cuts_applied\":7,\"cut_rounds\":2,\"root_gap\":0.125000,\"cols_priced\":33,",
        "\"pricing_rounds\":4,\"pricing_s\":0.500000,\"oversubscribed\":true,",
        "\"checkpoint_s\":0.025000,\"checkpoints_written\":3,\"resumed\":true,",
        "\"time_to_first_incumbent_s\":0.040000,\"time_to_within_1pct_s\":null}"
    );

    fn golden_record() -> SolverRecord {
        SolverRecord {
            kind: "row",
            total: 50,
            end: 20,
            threads: 1,
            effective_threads: 1,
            oversubscribed: true,
            wall_s: 1.25,
            status: "Optimal".to_string(),
            objective: Some(10.0),
            encode_s: 0.004,
            cons: 2685,
            stats: milp::Stats {
                nodes: 42,
                simplex_iters: 900,
                phase1_iters: 120,
                cuts_applied: 7,
                cut_rounds: 2,
                root_gap: 0.125,
                cols_priced: 33,
                pricing_rounds: 4,
                pricing_time: Duration::from_millis(500),
                checkpoint_time: Duration::from_millis(25),
                checkpoints_written: 3,
                resumed: true,
                time_to_first_incumbent: Some(Duration::from_millis(40)),
                time_to_within_1pct: None,
                // Counters the file does not carry must not leak into it.
                dual_iters: 77,
                lp_solves: 55,
                ..Default::default()
            },
        }
    }

    #[test]
    fn record_renders_valid_json_shape() {
        let r = golden_record();
        assert_eq!(r.to_json(), GOLDEN_RECORD);
        let r2 = SolverRecord {
            objective: None,
            ..r
        };
        assert_eq!(
            r2.to_json(),
            GOLDEN_RECORD.replace("\"objective\":10.000000", "\"objective\":null")
        );
    }

    #[test]
    fn records_file_layout_is_unchanged() {
        let path = std::env::temp_dir().join(format!("bench_json_{}.json", std::process::id()));
        write_solver_json(&path, "table3", &[golden_record(), golden_record()]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(
            text,
            format!(
                "{{\n  \"bench\": \"table3\",\n  \"host_available_parallelism\": {host},\n  \"records\": [\n    {GOLDEN_RECORD},\n    {GOLDEN_RECORD}\n  ]\n}}\n"
            )
        );
    }

    #[test]
    fn scale_record_renders_nulls_for_skipped_monolith() {
        let r = ScaleRecord {
            name: "district-16".to_string(),
            sites: 1100,
            buildings: 16,
            interference: false,
            zones: 16,
            boundary_links: 24,
            price_iters: 2,
            decomposed_wall_s: 41.5,
            stitched_objective: Some(1234.0),
            verified: true,
            violations: 0,
            budget_s: 120.0,
            one_node_bound: Some(1200.0),
            bound_gap: Some(0.0283),
            monolithic_status: None,
            monolithic_objective: None,
            monolithic_wall_s: None,
            gap: None,
        };
        let s = r.to_json();
        assert!(s.starts_with('{') && s.ends_with('}'));
        assert!(s.contains("\"name\":\"district-16\""));
        assert!(s.contains("\"stitched_objective\":1234.000000"));
        assert!(s.contains("\"verified\":true"));
        assert!(s.contains("\"one_node_bound\":1200.000000,\"bound_gap\":0.028300"));
        assert!(s.contains("\"monolithic_status\":null"));
        assert!(s.contains("\"gap\":null"));
        let r2 = ScaleRecord {
            monolithic_status: Some("Optimal".to_string()),
            monolithic_objective: Some(1200.0),
            monolithic_wall_s: Some(88.0),
            gap: Some(0.0283),
            ..r
        };
        let s2 = r2.to_json();
        assert!(s2.contains("\"monolithic_status\":\"Optimal\""));
        assert!(s2.contains("\"gap\":0.028300"));
    }
}
