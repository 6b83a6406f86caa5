//! `explore-office`: a closed loop with one client running the paper's
//! data-collection designs through `archex::explore::explore`, each to
//! proven optimality, checked against a stored reference optimum.

use crate::instances::{
    by_calibration, explore_batch, office_template, pairs, parse_references, pool_design,
    requirements, Reference, DATA_COLLECTION_SPEC, POOL, REFERENCES,
};
use crate::measure::{frac, median, nproc, peak_rss_mb, repeat_setup, tail, CpuClock};
use crate::metrics::RunResult;
use crate::pipeline::{split_encode, standalone_root, EncodeTotals, MilpTotals};
use crate::trace::Tracer;
use crate::Args;
use archex::encode::encode_with_lq;
use archex::encode::link_quality::LqEncoding;
use archex::{explore, extract_design, verify_design, EncodeMode, ExploreOptions, NetworkDesign};
use archex::{NetworkTemplate, Requirements};
use devlib::Library;
use milp::{structure_fingerprint, CutConfig, Status};
use std::time::{Duration, Instant};

/// Yen candidates per route (the paper's K*).
const KSTAR: usize = 10;
/// Per-design cap: a design not proven optimal by then counts as failed.
const CAP: Duration = Duration::from_secs(60);
const SETUP_REPS: usize = 5;

/// The configuration under test: one branch-and-bound worker (the LNS
/// heuristic thread runs beside it), cuts, presolve and heuristics on.
fn options() -> ExploreOptions {
    ExploreOptions::approx(KSTAR)
        .with_threads(1)
        .with_time_limit(CAP)
}

/// The independent configuration the reference optima come from:
/// heuristics, cuts and presolve all off, no time limit.
fn reference_options() -> ExploreOptions {
    let mut o = ExploreOptions::approx(KSTAR).with_threads(1);
    o.solver = o
        .solver
        .with_heuristics(false)
        .with_presolve(false)
        .with_cuts(CutConfig::off());
    o
}

/// Two objectives agree within twice the solver's relative optimality gap.
fn same_objective(a: f64, b: f64) -> bool {
    (a - b).abs() <= 2e-6 * b.abs().max(1.0)
}

struct Prepared {
    id: usize,
    template: NetworkTemplate,
    library: Library,
    reference: f64,
}

/// Checks one answer. Returns whether the design counts as done: proven
/// optimal, verified and equal to its reference. A verification failure or
/// a wrong objective is a correctness error; a design not proven optimal
/// within the cap is only a failure.
fn check(
    res: &mut RunResult,
    p: &Prepared,
    req: &Requirements,
    status: Status,
    design: Option<&NetworkDesign>,
) -> bool {
    let Some(d) = design else {
        return false;
    };
    let v = verify_design(d, &p.template, &p.library, req);
    res.check("verify_design", v.is_empty(), || {
        format!("design {}: verify_design reports {}", p.id, v.join("; "))
    });
    let tol = 2e-6 * p.reference.abs().max(1.0);
    if status == Status::Optimal {
        let ok = same_objective(d.objective, p.reference);
        res.check("reference_optimum", ok, || {
            format!(
                "design {}: optimal objective {} differs from reference optimum {}",
                p.id, d.objective, p.reference
            )
        });
        ok && v.is_empty()
    } else {
        res.check(
            "reference_optimum",
            d.objective >= p.reference - tol,
            || {
                format!(
                    "design {}: objective {} beats the reference optimum {}",
                    p.id, d.objective, p.reference
                )
            },
        );
        false
    }
}

fn load_references(args: &Args) -> Result<Vec<Reference>, String> {
    match &args.references {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read reference table {}: {}", path, e))?;
            parse_references(&text)
        }
        None => parse_references(REFERENCES),
    }
}

fn prepare(tr: &mut Tracer, refs: &[Reference], id: usize, req: &Requirements) -> Prepared {
    let d = pool_design(id);
    let template = office_template(tr, id as u64, d.sensors, d.relays, &d.library, req);
    Prepared {
        id,
        template,
        library: d.library,
        reference: refs[id].objective,
    }
}

pub fn run(args: &Args, tr: &mut Tracer) -> Result<RunResult, String> {
    let mut res = RunResult::default();
    let refs = load_references(args)?;
    let req = requirements(DATA_COLLECTION_SPEC);
    let opts = options();
    let fastest = by_calibration(&refs);
    let batch: Vec<usize> = if args.tiny {
        fastest[..2].to_vec()
    } else {
        explore_batch(args.seed, &refs)
    };
    let warm = fastest[0];
    res.notes.push(format!(
        "pins: nproc={} branch-and-bound workers=1 (+1 LNS thread) K*={} per-design cap={}s",
        nproc(),
        KSTAR,
        CAP.as_secs()
    ));
    res.notes.push(format!("batch (pool ids): {:?}", batch));

    // Set-up: build every template of the batch and run one warm-up design
    // (the pool's fastest), checked like any other.
    let (prepared, setup_s) = repeat_setup(
        if tr.enabled() { 1 } else { SETUP_REPS },
        || {
            let prepared: Vec<Prepared> = batch
                .iter()
                .map(|&id| prepare(tr, &refs, id, &req))
                .collect();
            let w = prepare(tr, &refs, warm, &req);
            let out = explore(&w.template, &w.library, &req, &opts)
                .map_err(|e| format!("warm-up design {}: {}", w.id, e))?;
            if !check(&mut res, &w, &req, out.status, out.design.as_ref()) {
                res.errors
                    .push(format!("warm-up design {} not proven optimal", w.id));
            }
            Ok(prepared)
        },
        drop,
    )?;

    let clock = CpuClock::start();
    let start = Instant::now();
    let mut lat_ms = Vec::new();
    let mut ok = 0u64;
    let mut milp = MilpTotals::default();
    let mut sizes = EncodeTotals::default();
    let (mut plain_total, mut traced_total) = (0.0, 0.0);
    let mut op = 0u64;
    // Whole passes over the batch until the window is used up, so every
    // run times the same designs the same number of times.
    loop {
        for p in &prepared {
            op += 1;
            res.attempted += 1;
            let t0 = Instant::now();
            let out = explore(&p.template, &p.library, &req, &opts)
                .map_err(|e| format!("design {}: {}", p.id, e))?;
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            lat_ms.push(ms);
            if check(&mut res, p, &req, out.status, out.design.as_ref()) {
                ok += 1;
            }
            if tr.enabled() {
                plain_total += ms;
                traced_total += traced_design(
                    tr, &mut res, op, p, &req, &opts, &out, &mut milp, &mut sizes,
                )?;
            }
        }
        if args.tiny || start.elapsed() >= Duration::from_secs(args.seconds) {
            break;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    res.failed = res.attempted - ok;

    if tr.enabled() {
        let n = prepared.len() as f64;
        let templates = || prepared.iter().map(|p| &p.template);
        res.set("template.build_ms", tr.mean_ms("template.build"));
        res.set("template.pairs", templates().map(pairs).sum::<f64>() / n);
        res.set(
            "template.links_kept_frac",
            templates()
                .map(|t| t.links().len() as f64 / pairs(t))
                .sum::<f64>()
                / n,
        );
        sizes.emit(tr, &mut res);
        res.set("milp.busy_ms", tr.mean_ms("milp.solve"));
        milp.emit(&mut res);
        res.set("milp.presolve_ms", tr.mean_ms("milp.presolve_standalone"));
        res.set("milp.root_lp_ms", tr.mean_ms("milp.root_lp_standalone"));
        res.set("design.extract_ms", tr.mean_ms("design.extract_design"));
        res.set("design.verify_ms", tr.mean_ms("design.verify_design"));
        res.set("cpu_per_wall", clock.cpu_per_wall());
        res.set("trace_overhead_frac", frac(traced_total, plain_total) - 1.0);
        res.notes.push(format!(
            "traced composition: {} designs matched explore() in structure fingerprint and objective",
            res.attempted
        ));
    } else {
        let t = tail(&lat_ms);
        res.set("p50_ms", median(&lat_ms));
        res.set("tail_ms", t.value);
        res.set("ops_per_s", frac(res.attempted as f64, wall));
        res.set("ok_frac", frac(ok as f64, res.attempted as f64));
        res.set("setup_s", setup_s);
        res.set("peak_rss_mb", peak_rss_mb());
        res.name("explore.p50_ms", median(&lat_ms), "ms");
        res.name("explore.tail_ms", t.value, "ms");
        res.name(
            "explore.designs_per_s",
            frac(res.attempted as f64, wall),
            "1/s",
        );
        res.name(
            "explore.fail_frac",
            frac(res.failed as f64, res.attempted as f64),
            "frac",
        );
        res.notes.push(format!(
            "explore.tail_ms is p{:.1} of {} designs (cpu_per_wall {:.3})",
            t.pct,
            t.n,
            clock.cpu_per_wall()
        ));
    }
    Ok(res)
}

/// Runs one design again through the split pipeline inside spans and
/// checks that it composes to the same program as `explore`: same
/// structure fingerprint, same objective. Returns the traced time of the
/// steps `explore` itself runs (encode, solve, extract), in ms.
#[allow(clippy::too_many_arguments)]
fn traced_design(
    tr: &mut Tracer,
    res: &mut RunResult,
    op: u64,
    p: &Prepared,
    req: &Requirements,
    opts: &ExploreOptions,
    plain: &archex::ExploreOutcome,
    milp: &mut MilpTotals,
    sizes: &mut EncodeTotals,
) -> Result<f64, String> {
    let enc = split_encode(tr, op, &p.template, &p.library, req, KSTAR)
        .map_err(|e| format!("design {}: {}", p.id, e))?;
    let mut cfg = opts.solver.clone();
    if let Some(limit) = cfg.time_limit {
        cfg.time_limit = Some(limit.saturating_sub(Duration::from_secs_f64(
            tr.op_ms("encode.encode_with_lq", op) / 1e3,
        )));
    }
    let sol = tr.span("milp.solve", op, |_| enc.model.solve(&cfg));
    let design = sol.has_solution().then(|| {
        tr.span("design.extract_design", op, |_| {
            extract_design(&enc, &sol, &p.template, &p.library, req)
        })
    });
    if let Some(d) = &design {
        tr.span("design.verify_design", op, |_| {
            verify_design(d, &p.template, &p.library, req)
        });
    }
    check(res, p, req, sol.status(), design.as_ref());
    milp.add(sol.stats());
    sizes.add(&enc);
    standalone_root(tr, op, enc.model.problem(), &cfg);

    let explored = encode_with_lq(
        &p.template,
        &p.library,
        req,
        EncodeMode::Approx { kstar: KSTAR },
        LqEncoding::default(),
    )
    .map_err(|e| format!("design {}: {}", p.id, e))?;
    let (fp_split, fp_plain) = (
        structure_fingerprint(enc.model.problem()),
        structure_fingerprint(explored.model.problem()),
    );
    res.check("traced_fingerprint", fp_split == fp_plain, || {
        format!(
            "design {}: traced encoding fingerprint {:016x} differs from explore()'s {:016x}",
            p.id, fp_split, fp_plain
        )
    });
    let objectives = (
        plain.design.as_ref().map(|d| d.objective),
        design.as_ref().map(|d| d.objective),
    );
    res.check(
        "traced_objective",
        matches!(objectives, (Some(a), Some(b)) if same_objective(a, b)),
        || {
            format!(
                "design {}: traced objective {:?} differs from explore()'s {:?}",
                p.id, objectives.1, objectives.0
            )
        },
    );
    Ok(tr.op_ms("encode.encode_with_lq", op)
        + tr.op_ms("milp.solve", op)
        + tr.op_ms("design.extract_design", op))
}

/// Solves every pool design with the independent reference configuration
/// and, for grouping into strata, times it once with the configuration under
/// test. Prints the reference table (`references.tsv`).
pub fn make_references() -> Result<(), String> {
    let req = requirements(DATA_COLLECTION_SPEC);
    let mut tr = Tracer::new(false);
    println!("# Reference optima of the explore-office pool (perfbench --make-references).");
    println!("# reference_objective: proven optimum with heuristics, cuts and presolve off,");
    println!(
        "# K*={}, one branch-and-bound worker, no time limit.",
        KSTAR
    );
    println!("# calibration_ms: solve time with the configuration under test on the host that");
    println!(
        "# made the table ({} cores); it only groups designs of similar difficulty.",
        nproc()
    );
    println!("# id\tsensors\trelays\treference_objective\tcalibration_ms");
    for id in 0..POOL {
        let d = pool_design(id);
        let t = office_template(&mut tr, id as u64, d.sensors, d.relays, &d.library, &req);
        let reference = explore(&t, &d.library, &req, &reference_options())
            .map_err(|e| format!("design {}: {}", id, e))?;
        let objective = match (&reference.status, &reference.design) {
            (Status::Optimal, Some(des)) => des.objective,
            (s, _) => return Err(format!("design {}: reference solve ended {:?}", id, s)),
        };
        let t0 = Instant::now();
        let under_test = explore(&t, &d.library, &req, &options())
            .map_err(|e| format!("design {}: {}", id, e))?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match (&under_test.status, &under_test.design) {
            (Status::Optimal, Some(des)) if same_objective(des.objective, objective) => {}
            (s, des) => {
                return Err(format!(
                    "design {}: configuration under test ended {:?} at {:?}, reference {}",
                    id,
                    s,
                    des.as_ref().map(|d| d.objective),
                    objective
                ))
            }
        }
        println!(
            "{}\t{}\t{}\t{}\t{:.1}",
            id, d.sensors, d.relays, objective, ms
        );
        eprintln!(
            "design {:2}: reference {} ({:.0} ms under test)",
            id, objective, ms
        );
    }
    Ok(())
}
