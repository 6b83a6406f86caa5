// Benchmark code reports failures through stderr/exit codes, not panics.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! **City scale** — spatially decomposed solves on the multi-building
//! instances of the shared workload registry, each stitched design
//! re-verified on the full un-partitioned template and measured against
//! the one-node bound of the monolithic K* model (one worker, node limit
//! 1, no time limit, so the bound repeats exactly), with a monolithic
//! resilient-ladder ablation where the monolith is tractable. Emits
//! `BENCH_scale.json`.
//!
//! Environment knobs: `SCALE_MODE=smoke` runs only the small tier-1
//! campus with a 30 s budget and asserts the stitched design verifies
//! with an objective gap within `SCALE_SMOKE_GAP` (default 0.10) of the
//! monolithic solve; the default `sweep` mode runs the full registry.
//! `SCALE_TL` (decomposed budget seconds per instance, default 120),
//! `SCALE_MONO_TL` (monolith budget, default `SCALE_TL`),
//! `SCALE_MONO_MAX` (skip the monolithic ablation above this many
//! candidate sites, default 400 — building the full encoding past that
//! dominates the budget), `SCALE_JSON` (output path, default
//! `BENCH_scale.json`).

use archex::scale::{
    generate_city, solve_decomposed, solve_monolithic, CityInstance, ScaleOptions,
};
use archex::{EncodeMode, Table};
use bench::json::{write_scale_json, ScaleRecord};
use bench::util::{env_f64, env_time_limit, env_usize};
use bench::{scale_smoke, WorkloadKind, WorkloadSpec};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Limits for one registry entry's run.
struct RunLimits {
    /// Decomposed solve budget.
    budget: Duration,
    /// Monolithic ablation budget.
    mono_tl: Duration,
    /// Skip the monolith above this many candidate sites.
    mono_max: usize,
}

/// The best bound of the monolithic K* model after one branch-and-bound
/// node: one worker, no time limit, so it is the root LP bound after cuts
/// and repeats exactly. `None` when the encoding fails or the bound is not
/// finite.
fn one_node_bound(city: &CityInstance, kstar: usize) -> Option<f64> {
    let enc = archex::encode::encode(
        &city.template,
        &city.library,
        &city.requirements,
        EncodeMode::Approx { kstar },
    )
    .ok()?;
    let cfg = milp::Config::default().with_threads(1).with_node_limit(1);
    Some(enc.model.solve(&cfg).best_bound()).filter(|b| b.is_finite())
}

/// Solves one registry instance decomposed (+ monolith where allowed) and
/// returns its record; `ok` means the stitched design exists and passed
/// `verify_design` on the full instance.
fn run_instance(spec: &WorkloadSpec, limits: &RunLimits) -> (ScaleRecord, bool) {
    let WorkloadKind::City {
        params,
        buildings_per_zone,
    } = &spec.kind
    else {
        unreachable!("scale registry entries are City workloads");
    };
    let city = generate_city(params);
    let sites = city.num_sites();
    println!(
        "[{}] {} buildings, {} candidate sites ({}){}",
        spec.name,
        city.buildings.len(),
        sites,
        city.buildings
            .iter()
            .map(|b| b.profile.name().chars().next().unwrap_or('?'))
            .collect::<String>(),
        if params.interference {
            ", interference margins on"
        } else {
            ""
        },
    );

    let opts = ScaleOptions {
        buildings_per_zone: *buildings_per_zone,
        budget: limits.budget,
        ..ScaleOptions::default()
    };
    let mut rec = ScaleRecord {
        name: spec.name.clone(),
        sites,
        buildings: city.buildings.len(),
        interference: params.interference,
        zones: 0,
        boundary_links: 0,
        price_iters: 0,
        decomposed_wall_s: 0.0,
        stitched_objective: None,
        verified: false,
        violations: 0,
        budget_s: limits.budget.as_secs_f64(),
        one_node_bound: None,
        bound_gap: None,
        monolithic_status: None,
        monolithic_objective: None,
        monolithic_wall_s: None,
        gap: None,
    };

    let t0 = Instant::now();
    match solve_decomposed(&city, &opts) {
        Ok(rep) => {
            rec.zones = rep.num_zones;
            rec.boundary_links = rep.boundary_links;
            rec.price_iters = rep.price_iters;
            rec.decomposed_wall_s = rep.wall.as_secs_f64();
            rec.stitched_objective = Some(rep.design.total_cost);
            rec.verified = rep.violations.is_empty();
            rec.violations = rep.violations.len();
            println!(
                "  decomposed: {:.1}s, {} zones, {} boundary links, {} price iters, cost {:.0}, {}",
                rec.decomposed_wall_s,
                rep.num_zones,
                rep.boundary_links,
                rep.price_iters,
                rep.design.total_cost,
                if rec.verified {
                    "verified".to_string()
                } else {
                    format!("{} VIOLATIONS", rec.violations)
                },
            );
            for v in rep.violations.iter().take(5) {
                println!("    violation: {v}");
            }
        }
        Err(e) => {
            rec.decomposed_wall_s = t0.elapsed().as_secs_f64();
            println!("  decomposed: FAILED after {:.1}s: {e}", rec.decomposed_wall_s);
        }
    }

    let t1 = Instant::now();
    rec.one_node_bound = one_node_bound(&city, opts.kstar);
    rec.bound_gap = rel_gap(rec.stitched_objective, rec.one_node_bound);
    println!(
        "  one-node bound (K* = {}): {:.1}s, bound {}, stitched gap {}",
        opts.kstar,
        t1.elapsed().as_secs_f64(),
        rec.one_node_bound
            .map_or("-".to_string(), |b| format!("{b:.1}")),
        rec.bound_gap
            .map_or("-".to_string(), |g| format!("{:.1}%", g * 100.0)),
    );

    if sites <= limits.mono_max {
        let mono = solve_monolithic(&city, limits.mono_tl, opts.kstar, params.seed);
        rec.monolithic_status = Some(
            mono.final_status
                .map_or("NoSolve".to_string(), |s| format!("{s:?}")),
        );
        rec.monolithic_objective = mono.best_objective();
        rec.monolithic_wall_s = Some(mono.total_time.as_secs_f64());
        rec.gap = rel_gap(rec.stitched_objective, rec.monolithic_objective);
        println!(
            "  monolithic: {:.1}s, status {}, cost {}, gap {}",
            mono.total_time.as_secs_f64(),
            rec.monolithic_status.as_deref().unwrap_or("?"),
            rec.monolithic_objective
                .map_or("-".to_string(), |o| format!("{o:.0}")),
            rec.gap.map_or("-".to_string(), |g| format!("{:.1}%", g * 100.0)),
        );
    } else {
        println!("  monolithic: skipped ({sites} sites > SCALE_MONO_MAX {})", limits.mono_max);
    }

    let ok = rec.verified;
    (rec, ok)
}

/// `(cost - reference) / reference`, when both exist and the reference is
/// positive.
fn rel_gap(cost: Option<f64>, reference: Option<f64>) -> Option<f64> {
    match (cost, reference) {
        (Some(c), Some(r)) if r > 0.0 => Some((c - r) / r),
        _ => None,
    }
}

fn cell_opt(v: Option<f64>, fmt: impl Fn(f64) -> String) -> String {
    v.map_or("-".to_string(), fmt)
}

fn main() {
    let smoke = std::env::var("SCALE_MODE").map(|m| m == "smoke").unwrap_or(false);
    let default_tl = if smoke { 30 } else { 120 };
    let budget = env_time_limit("SCALE_TL", default_tl);
    let mono_tl = env_time_limit("SCALE_MONO_TL", budget.as_secs());
    let mono_max = if smoke {
        usize::MAX
    } else {
        env_usize("SCALE_MONO_MAX", 400)
    };
    let limits = RunLimits {
        budget,
        mono_tl,
        mono_max,
    };
    let specs: Vec<WorkloadSpec> = if smoke {
        vec![scale_smoke()]
    } else {
        bench::scale_registry()
    };

    println!(
        "City-scale decomposition {} (budget {:?}/instance, monolith <= {} sites)\n",
        if smoke { "smoke" } else { "sweep" },
        budget,
        if mono_max == usize::MAX {
            "all".to_string()
        } else {
            mono_max.to_string()
        },
    );

    let mut records = Vec::new();
    let mut all_ok = true;
    for spec in &specs {
        let (rec, ok) = run_instance(spec, &limits);
        all_ok &= ok;
        records.push(rec);
        println!();
    }

    let mut table = Table::new(
        "City scale: decomposed vs the one-node bound and the monolith",
        &[
            "Instance", "Sites", "Zones", "Bnd", "Iters", "Decomp s", "Cost", "Bound",
            "Gap %", "Mono s", "Mono cost", "Mono gap %", "Verified",
        ],
    );
    for r in &records {
        table.row(&[
            r.name.clone(),
            r.sites.to_string(),
            r.zones.to_string(),
            r.boundary_links.to_string(),
            r.price_iters.to_string(),
            format!("{:.1}", r.decomposed_wall_s),
            cell_opt(r.stitched_objective, |v| format!("{v:.0}")),
            cell_opt(r.one_node_bound, |v| format!("{v:.1}")),
            cell_opt(r.bound_gap, |v| format!("{:.1}", v * 100.0)),
            cell_opt(r.monolithic_wall_s, |v| format!("{v:.1}")),
            cell_opt(r.monolithic_objective, |v| format!("{v:.0}")),
            cell_opt(r.gap, |v| format!("{:.1}", v * 100.0)),
            r.verified.to_string(),
        ]);
    }
    print!("{}", table.render());

    let out = PathBuf::from(
        std::env::var("SCALE_JSON").unwrap_or_else(|_| "BENCH_scale.json".to_string()),
    );
    match write_scale_json(&out, "scale", &records) {
        Ok(()) => println!("\nwrote {}", out.display()),
        Err(e) => {
            eprintln!("failed to write {}: {e}", out.display());
            std::process::exit(1);
        }
    }

    if smoke {
        let max_gap = env_f64("SCALE_SMOKE_GAP", 0.10);
        let r = &records[0];
        let gap_ok = match r.gap {
            Some(g) => g <= max_gap,
            // a monolith that found nothing within budget cannot anchor a
            // gap check; the verified stitched design alone passes
            None => true,
        };
        if r.verified && gap_ok {
            println!(
                "SCALE_SMOKE ok: verified stitched design, gap {}",
                cell_opt(r.gap, |g| format!("{:.1}%", g * 100.0)),
            );
        } else {
            println!(
                "SCALE_SMOKE FAIL: verified={} violations={} gap={}",
                r.verified,
                r.violations,
                cell_opt(r.gap, |g| format!("{:.3}", g)),
            );
            std::process::exit(1);
        }
    } else if !all_ok {
        eprintln!("one or more instances failed to produce a verified stitched design");
        std::process::exit(1);
    }
}
