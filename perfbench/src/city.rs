//! `city-district`: one seeded 16-building district of about 1200 sites,
//! built with `archex::scale::generate_city`, solved with
//! `archex::scale::solve_decomposed` (one building per zone, `nproc` outer
//! zone threads), then re-verified on the full instance.

use crate::instances::{city_params, pairs, DISTRICT};
use crate::measure::{frac, median, mix, nproc, peak_rss_mb, repeat_setup, tail, CpuClock};
use crate::metrics::RunResult;
use crate::trace::Tracer;
use crate::Args;
use archex::scale::{
    generate_city, partition_city, solve_decomposed, CityInstance, ScaleOptions, ScaleReport,
};
use archex::{verify_design, NodeRole};
use milp::Status;
use std::time::{Duration, Instant};

const SETUP_REPS: usize = 5;
/// `CityParams::seed` of the warm-up campus, the same in every run.
const WARM_UP_CAMPUS: u64 = 11;

fn options(tiny: bool, threads: usize, seed: u64) -> ScaleOptions {
    ScaleOptions {
        buildings_per_zone: if tiny { 2 } else { 1 },
        budget: Duration::from_secs(120),
        threads,
        seed,
        ..ScaleOptions::default()
    }
}

/// Checks one decomposed solve; returns whether it produced a design that
/// verifies on the full un-partitioned instance.
fn check(
    res: &mut RunResult,
    city: &CityInstance,
    op: u64,
    report: &Result<ScaleReport, String>,
) -> bool {
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            res.notes.push(format!("district solve {}: {}", op, e));
            return false;
        }
    };
    let v = verify_design(
        &report.design,
        &city.template,
        &city.library,
        &city.requirements,
    );
    res.check(
        "verify_full_instance",
        v.is_empty() && report.violations.is_empty(),
        || {
            format!(
                "district solve {}: stitched design fails verify_design on the full instance: {}",
                op,
                v.iter()
                    .chain(&report.violations)
                    .cloned()
                    .collect::<Vec<_>>()
                    .join("; ")
            )
        },
    );
    v.is_empty()
}

fn solve(city: &CityInstance, opts: &ScaleOptions) -> Result<ScaleReport, String> {
    solve_decomposed(city, opts).map_err(|e| e.to_string())
}

pub fn run(args: &Args, tr: &mut Tracer) -> Result<RunResult, String> {
    let mut res = RunResult::default();
    let threads = nproc();
    let opts = options(args.tiny, threads, mix(args.seed));
    let params = if args.tiny {
        city_params(mix(args.seed), true)
    } else {
        city_params(DISTRICT, false)
    };
    res.notes.push(format!(
        "pins: nproc={} outer zone threads={} solver threads per zone=1 buildings per zone={} K*={}",
        nproc(),
        threads,
        opts.buildings_per_zone,
        opts.kstar
    ));

    // Set-up: generate the district, and warm up on a fixed four-building
    // campus (the same code path, a fraction of the work).
    let reps = if tr.enabled() { 1 } else { SETUP_REPS };
    let (city, setup_s) = repeat_setup(
        reps,
        || {
            let city = tr.span("scale.generate_city", 0, |_| generate_city(&params));
            let campus = generate_city(&city_params(WARM_UP_CAMPUS, true));
            solve(&campus, &options(true, threads, WARM_UP_CAMPUS))
                .map_err(|e| format!("warm-up campus: {}", e))?;
            Ok(city)
        },
        drop,
    )?;
    let sensors = city.template.nodes_of(NodeRole::Sensor).len();
    res.notes.push(format!(
        "district: {} sites, {} sensors, {} candidate links; peak memory after set-up {:.1} MiB",
        city.num_sites(),
        sensors,
        city.template.links().len(),
        peak_rss_mb()
    ));

    let clock = CpuClock::start();
    let start = Instant::now();
    let (mut lat_ms, mut costs) = (Vec::new(), Vec::new());
    let (mut ok, mut plain_total, mut traced_total) = (0u64, 0.0, 0.0);
    let (mut zones, mut optimal, mut boundary, mut price_iters) = (0.0, 0.0, 0.0, 0.0);
    let mut op = 0u64;
    loop {
        op += 1;
        res.attempted += 1;
        let t0 = Instant::now();
        let report = solve(&city, &opts);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        lat_ms.push(ms);
        if check(&mut res, &city, op, &report) {
            ok += 1;
        }
        if let Ok(r) = &report {
            costs.push(r.design.total_cost);
        }
        if tr.enabled() {
            // The same solve again, inside spans around each public call.
            plain_total += ms;
            tr.span("scale.partition_city_standalone", op, |_| {
                partition_city(&city, opts.buildings_per_zone)
            });
            let traced = tr.span("scale.solve_decomposed", op, |_| solve(&city, &opts));
            traced_total += tr.op_ms("scale.solve_decomposed", op);
            if let Ok(r) = &traced {
                let v = tr.span("design.verify_design", op, |_| {
                    verify_design(&r.design, &city.template, &city.library, &city.requirements)
                });
                res.check("traced_verify", v.is_empty(), || {
                    format!("traced district solve {}: {}", op, v.join("; "))
                });
                zones += r.num_zones as f64;
                optimal += r
                    .zone_statuses
                    .iter()
                    .filter(|s| **s == Status::Optimal)
                    .count() as f64;
                boundary += r.boundary_links as f64;
                price_iters += r.price_iters as f64;
            } else {
                res.check("traced_verify", false, || {
                    format!("traced district solve {} produced no design", op)
                });
            }
        }
        if args.tiny || start.elapsed() >= Duration::from_secs(args.seconds) {
            break;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    res.failed = res.attempted - ok;
    let cost = median(&costs);

    if tr.enabled() {
        let n = op as f64;
        res.set("template.build_ms", tr.mean_ms("scale.generate_city"));
        res.set("template.pairs", pairs(&city.template));
        res.set(
            "template.links_kept_frac",
            city.template.links().len() as f64 / pairs(&city.template),
        );
        res.set("scale.generate_ms", tr.mean_ms("scale.generate_city"));
        res.set(
            "scale.partition_ms",
            tr.mean_ms("scale.partition_city_standalone"),
        );
        res.set("scale.decomposed_ms", tr.mean_ms("scale.solve_decomposed"));
        res.set("scale.verify_ms", tr.mean_ms("design.verify_design"));
        res.set("scale.zones", frac(zones, n));
        res.set("scale.zones_optimal_frac", frac(optimal, zones));
        res.set("scale.boundary_links", frac(boundary, n));
        res.set("scale.price_iters", frac(price_iters, n));
        res.set("design.verify_ms", tr.mean_ms("design.verify_design"));
        res.set("city.cost", cost);
        res.set("cpu_per_wall", clock.cpu_per_wall());
        res.set("trace_overhead_frac", frac(traced_total, plain_total) - 1.0);
    } else {
        let t = tail(&lat_ms);
        res.set("p50_ms", median(&lat_ms));
        res.set("tail_ms", t.value);
        res.set("ops_per_s", frac(res.attempted as f64, wall));
        res.set("ok_frac", frac(ok as f64, res.attempted as f64));
        res.set("setup_s", setup_s);
        res.set("peak_rss_mb", peak_rss_mb());
        res.name("city.solve_s", median(&lat_ms) / 1e3, "s");
        res.name("city.cost", cost, "cost");
        res.name(
            "city.fail_frac",
            frac(res.failed as f64, res.attempted as f64),
            "frac",
        );
        res.notes.push(format!(
            "tail_ms is the slowest of {} district solves; cpu_per_wall {:.3}",
            t.n,
            clock.cpu_per_wall()
        ));
    }
    Ok(res)
}
