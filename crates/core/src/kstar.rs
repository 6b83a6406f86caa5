//! Systematic selection of `K*` (paper §4.3): generate designs for
//! increasing `K*`, stop once the solve time crosses a threshold or the
//! objective stops improving.

use crate::encode::EncodeError;
use crate::explore::{explore, ExploreOptions, ExploreOutcome};
use crate::requirements::Requirements;
use crate::template::NetworkTemplate;
use devlib::Library;
use std::time::Duration;

/// Configuration of the `K*` search.
#[derive(Debug, Clone)]
pub struct KstarSearch {
    /// Candidate `K*` values, tried in order (default `[1, 3, 5, 10, 20]`,
    /// the paper's sweep).
    pub ks: Vec<usize>,
    /// Stop once a run's solve time exceeds this threshold.
    pub time_threshold: Duration,
    /// Stop when the relative objective improvement falls below this.
    pub improvement_tol: f64,
    /// Solver configuration for each run.
    pub solver: milp::Config,
}

impl Default for KstarSearch {
    fn default() -> Self {
        KstarSearch {
            ks: vec![1, 3, 5, 10, 20],
            time_threshold: Duration::from_secs(600),
            improvement_tol: 1e-3,
            solver: milp::Config::default(),
        }
    }
}

/// One step of the search.
#[derive(Debug, Clone)]
pub struct KstarStep {
    /// The `K*` used.
    pub kstar: usize,
    /// The exploration outcome.
    pub outcome: ExploreOutcome,
}

/// Runs the `K*` search. The returned steps are in execution order; the
/// last step with a design is the recommended configuration (objectives are
/// non-increasing in `K*` up to solver tolerance).
///
/// # Errors
///
/// Propagates [`EncodeError`] from the underlying explorations.
pub fn search_kstar(
    template: &NetworkTemplate,
    library: &Library,
    req: &Requirements,
    cfg: &KstarSearch,
) -> Result<Vec<KstarStep>, EncodeError> {
    let mut steps: Vec<KstarStep> = Vec::new();
    let mut best: Option<f64> = None;
    for &k in &cfg.ks {
        let opts = ExploreOptions {
            mode: crate::encode::EncodeMode::Approx { kstar: k },
            solver: cfg.solver.clone(),
            ..Default::default()
        };
        let outcome = explore(template, library, req, &opts)?;
        let solve_time = outcome.stats.solve_time;
        let obj = outcome.design.as_ref().map(|d| d.objective);
        steps.push(KstarStep { kstar: k, outcome });
        // Stopping rules (paper §4.3): stop on vanishing relative
        // improvement, or once a run's solve time crosses the threshold.
        if let (Some(prev), Some(cur)) = (best, obj) {
            if (prev - cur) / prev.abs().max(1e-9) < cfg.improvement_tol {
                break;
            }
        }
        if let Some(cur) = obj {
            best = Some(best.map_or(cur, |b: f64| b.min(cur)));
        }
        if solve_time > cfg.time_threshold {
            break;
        }
    }
    Ok(steps)
}

/// The best step (lowest objective with a design), if any.
pub fn best_step(steps: &[KstarStep]) -> Option<&KstarStep> {
    steps
        .iter()
        .filter(|s| s.outcome.design.is_some())
        .min_by(|a, b| {
            let oa = a.outcome.design.as_ref().expect("filtered").objective;
            let ob = b.outcome.design.as_ref().expect("filtered").objective;
            oa.partial_cmp(&ob).expect("objectives are finite")
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::NodeRole;
    use channel::LogDistance;
    use devlib::catalog;
    use floorplan::Point;

    fn template() -> NetworkTemplate {
        let mut t = NetworkTemplate::new();
        t.add_node("s0", Point::new(0.0, 0.0), NodeRole::Sensor);
        t.add_node("s1", Point::new(0.0, 12.0), NodeRole::Sensor);
        for i in 0..6 {
            let x = 12.0 + 10.0 * (i / 2) as f64;
            let y = if i % 2 == 0 { 8.0 } else { -2.0 };
            t.add_node(format!("r{}", i), Point::new(x, y), NodeRole::Relay);
        }
        t.add_node("sink", Point::new(44.0, 4.0), NodeRole::Sink);
        t.compute_path_loss(&LogDistance::indoor_2_4ghz());
        t.prune_links(&catalog::zigbee_reference(), -100.0, 10.0);
        t
    }

    #[test]
    fn search_monotone_and_stops() {
        let t = template();
        let lib = catalog::zigbee_reference();
        let req = Requirements::from_spec_text(
            "p = has_path(sensors, sink)\nmin_signal_to_noise(12)\nobjective minimize cost",
        )
        .unwrap();
        let cfg = KstarSearch {
            ks: vec![1, 3, 5],
            ..Default::default()
        };
        let steps = search_kstar(&t, &lib, &req, &cfg).unwrap();
        assert!(!steps.is_empty());
        // objective non-increasing over successive steps (approx optimal)
        let objs: Vec<f64> = steps
            .iter()
            .filter_map(|s| s.outcome.design.as_ref().map(|d| d.objective))
            .collect();
        for w in objs.windows(2) {
            assert!(w[1] <= w[0] + 1e-6, "objectives increased: {:?}", objs);
        }
        let best = best_step(&steps).unwrap();
        assert!(best.outcome.design.is_some());
    }

    #[test]
    fn early_stop_on_no_improvement() {
        let t = template();
        let lib = catalog::zigbee_reference();
        // trivially easy problem: K*=1 already optimal, search should stop
        // right after the second step confirms no improvement
        let req = Requirements::from_spec_text(
            "p = has_path(sensors, sink)\nobjective minimize cost",
        )
        .unwrap();
        let cfg = KstarSearch {
            ks: vec![1, 3, 5, 10, 20],
            ..Default::default()
        };
        let steps = search_kstar(&t, &lib, &req, &cfg).unwrap();
        assert!(steps.len() <= 3, "searched too far: {} steps", steps.len());
    }
}
