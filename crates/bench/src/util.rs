//! Small shared helpers for the table binaries.

use archex::explore::ExploreOutcome;
use std::time::Duration;

/// Reads a `usize` experiment parameter from the environment.
pub fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads an `f64` experiment parameter from the environment.
pub fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads a time limit (seconds) from the environment.
pub fn env_time_limit(key: &str, default_secs: u64) -> Duration {
    Duration::from_secs(env_usize(key, default_secs as usize) as u64)
}

/// `true` when the run should use the paper's full instance sizes
/// (`SCALE=paper`); default is the laptop-friendly scale.
pub fn paper_scale() -> bool {
    std::env::var("SCALE").map(|s| s == "paper").unwrap_or(false)
}

/// Renders a solve time like the paper's tables: seconds, `TO` when the
/// limit was hit without proof of optimality, or `NF` and the solver error
/// when LP recovery was exhausted.
pub fn time_cell(outcome: &ExploreOutcome, limit: Duration) -> String {
    match outcome.status {
        milp::Status::Optimal => format!("{:.0}", outcome.stats.solve_time.as_secs_f64().max(1.0)),
        milp::Status::LimitFeasible => {
            if outcome.stats.gap.is_finite() {
                format!("TO({:.0}s,{:.0}%)*", limit.as_secs_f64(), outcome.stats.gap * 100.0)
            } else {
                format!("TO({:.0}s)*", limit.as_secs_f64())
            }
        }
        milp::Status::LimitNoSolution => format!("TO({:.0}s)", limit.as_secs_f64()),
        milp::Status::NumericFailure => match &outcome.error {
            Some(e) => format!("NF: {e}"),
            None => "NF".to_string(),
        },
        s => format!("{}", s),
    }
}

/// Formats a large count like the paper: `x 10^3` units.
pub fn kilo(n: usize) -> String {
    format!("{:.0}", n as f64 / 1000.0)
}
