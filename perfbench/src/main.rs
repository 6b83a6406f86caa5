//! Benchmark of the design pipeline, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <explore-office|session-storm|city-district|all> \
//!     --seed <n> --seconds <n> --trace <0|1> [--tiny] [--references <file>]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --make-references
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --list-metrics
//! ```
//!
//! An untraced run (`--trace 0`) calls only the public entry points
//! (`archex::explore::explore`, `archex::service::DesignService`,
//! `archex::scale::solve_decomposed`) and reports the end-to-end metrics.
//! A traced run (`--trace 1`) also runs the same operations through the
//! layers' public functions inside spans and reports the per-layer
//! metrics; the spans are written to `perfbench/traces/`. Every run checks
//! every answer and exits 1 when a check fails. `--workload all` runs the
//! three workloads one after another, each in its own process so each gets
//! its own peak memory reading. See `metrics.rs` for the metric registry.

mod city;
mod explore_office;
mod instances;
mod measure;
mod metrics;
mod pipeline;
mod storm;
mod trace;

use metrics::{RunResult, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use trace::Tracer;

pub const WORKLOADS: [&str; 3] = ["explore-office", "session-storm", "city-district"];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// A seconds-long run of each workload, for the smoke test.
    pub tiny: bool,
    /// Reference table to check explore-office against, instead of the
    /// shipped one.
    pub references: Option<String>,
    pub make_references: bool,
    pub list_metrics: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        tiny: false,
        references: None,
        make_references: false,
        list_metrics: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{} needs a value", flag))
        };
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes an integer".to_string())?
            }
            "--seconds" => {
                a.seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds takes an integer".to_string())?
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--tiny" => a.tiny = true,
            "--references" => a.references = Some(value()?),
            "--make-references" => a.make_references = true,
            "--list-metrics" => a.list_metrics = true,
            other => return Err(format!("unknown argument `{}`", other)),
        }
    }
    if !a.make_references
        && !a.list_metrics
        && a.workload != "all"
        && !WORKLOADS.contains(&a.workload.as_str())
    {
        return Err(format!("--workload must be one of {:?} or all", WORKLOADS));
    }
    Ok(a)
}

/// Prefix of the workload-specific metric names.
fn prefix(workload: &str) -> &'static str {
    match workload {
        "explore-office" => "explore",
        "session-storm" => "storm",
        _ => "city",
    }
}

/// Renders a float for JSON with every digit it has.
fn num(v: f64) -> String {
    format!("{}", v)
}

fn run_one(args: &Args) -> Result<ExitCode, String> {
    let mut tr = Tracer::new(args.trace);
    let mut res: RunResult = match args.workload.as_str() {
        "explore-office" => explore_office::run(args, &mut tr)?,
        "session-storm" => storm::run(args, &mut tr)?,
        _ => city::run(args, &mut tr)?,
    };
    let registry = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, _) in &res.metrics {
        if !registry.iter().any(|m| m.name == *name) {
            return Err(format!("workload reported unregistered metric {}", name));
        }
    }
    let measured = res.metrics.clone();
    let value = |name: &str| measured.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for n in &res.notes {
        println!("note {}", n);
    }
    let mut json = Vec::new();
    let mut errors = std::mem::take(&mut res.errors);
    for m in registry {
        let v = match value(m.name) {
            Some(v) => v,
            // A layer this workload never calls, or a counter the public
            // API does not return from inside it.
            None if args.trace => 0.0,
            None => return Err(format!("workload did not report {}", m.name)),
        };
        if !v.is_finite() {
            errors.push(format!("metric {} is not finite", m.name));
        }
        let v = if v.is_finite() { v } else { 0.0 };
        let tag = if args.trace {
            let reach = if value(m.name).is_some() {
                ""
            } else {
                "  [not measured on this workload]"
            };
            format!("  -> {}{}", m.note, reach)
        } else {
            String::new()
        };
        println!("metric {} {} {}{}", m.name, num(v), m.unit, tag);
        json.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            num(v),
            m.unit
        ));
    }
    if !args.trace {
        let p = prefix(&args.workload);
        for name in ["setup_s", "peak_rss_mb"] {
            let unit = metrics::find(name).map_or("", |m| m.unit);
            let v = value(name).unwrap_or(0.0);
            res.name(format!("{}.{}", p, name), v, unit);
        }
    }
    for (name, v, unit) in &res.named {
        println!("named {} {} {}", name, num(*v), unit);
    }
    if args.trace {
        let ledger: Vec<String> = tr
            .layer_self_ms()
            .iter()
            .map(|(layer, ms)| format!("{}={:.1}ms", layer, ms))
            .collect();
        println!("self time by layer: {}", ledger.join(" "));
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match tr.write_jsonl(&path) {
            Ok(()) => println!("trace {}", path.display()),
            Err(e) => errors.push(format!("cannot write trace {}: {}", path.display(), e)),
        }
    }
    let ran: Vec<String> = res
        .checks
        .iter()
        .map(|(n, c)| format!("{}={}", n, c))
        .collect();
    println!("checks {}", ran.join(" "));
    for e in &errors {
        println!("check FAILED: {}", e);
    }
    let correct = errors.is_empty();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct,
        res.attempted.max(1),
        res.failed,
        json.join(", ")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs every workload in a child process of its own and prints their
/// workload-specific metrics together.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut named = Vec::new();
    for w in WORKLOADS {
        let mut child_args: Vec<String> = vec![
            "--workload".into(),
            w.into(),
            "--seed".into(),
            args.seed.to_string(),
            "--seconds".into(),
            args.seconds.to_string(),
            "--trace".into(),
            u8::from(args.trace).to_string(),
        ];
        if args.tiny {
            child_args.push("--tiny".into());
        }
        if let Some(r) = &args.references {
            child_args.extend(["--references".into(), r.clone()]);
        }
        let out = std::process::Command::new(&exe)
            .args(&child_args)
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {}: {}", w, e))?;
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{}", text);
        all_ok &= out.status.success();
        for line in text.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.as_slice() {
                ["named", name, value, unit] => named.push(format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    name, value, unit
                )),
                _ if line.starts_with("{\"correct\"") => {
                    let field = |key: &str| {
                        line.split(&format!("\"{}\": ", key))
                            .nth(1)
                            .and_then(|r| r.split(',').next())
                            .and_then(|v| v.trim().parse::<u64>().ok())
                            .unwrap_or(0)
                    };
                    attempted += field("attempted");
                    failed += field("failed");
                }
                _ => {}
            }
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        all_ok,
        attempted.max(1),
        failed,
        named.join(", ")
    );
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {}", e);
            return ExitCode::from(2);
        }
    };
    let result = if args.list_metrics {
        for (list, metrics) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            for m in metrics {
                println!("{} {} {} {}", list, m.name, m.unit, m.better);
            }
        }
        Ok(ExitCode::SUCCESS)
    } else if args.make_references {
        explore_office::make_references().map(|()| ExitCode::SUCCESS)
    } else if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    };
    result.unwrap_or_else(|e| {
        eprintln!("perfbench: {}", e);
        ExitCode::FAILURE
    })
}
