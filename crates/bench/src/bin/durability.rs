// Benchmark code reports failures through stderr/exit codes, not panics.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! Durability smoke harness: one binary, two modes, driven by `DUR_MODE`.
//!
//! * `victim` — a checkpointed one-worker solve of the [50 / 20]
//!   data-collection workload at K* = 10 and the default gap, writing
//!   frames to `DUR_CKPT`; the caller (scripts/tier1.sh) SIGKILLs this
//!   process mid-search.
//! * `resume` — the same solve continued from the frame at `DUR_CKPT`. It
//!   gates itself: it exits non-zero unless it resumed from the frame,
//!   the design passes re-verification against the requirements, the
//!   solve proved `Optimal`, and the objective matches the proven optimum
//!   [`DC_50_20_KSTAR10_OPTIMUM`] to 1e-6 relative.
//!
//! Every mode prints a single machine-parsable line to stdout:
//!
//! ```text
//! DUR status=Optimal objective=392.000000 resumed=true verified=ok checkpoints=7
//! ```
//!
//! Knobs: `DUR_TL` (solve time limit in seconds, default 600; a hang
//! guard, far above the proof's time), `DUR_CKPT` (frame path, default
//! `<temp dir>/durability_<pid>.frame` — the victim and the resume run
//! must agree on it), `DUR_CADENCE_MS` (checkpoint cadence, default
//! 100 ms).

use archex::design::verify_design;
use archex::ExploreOptions;
use bench::util::{env_time_limit, env_usize};
use bench::{data_collection_workload, DC_50_20_KSTAR10_OPTIMUM};
use milp::Status;
use std::path::PathBuf;
use std::time::Duration;

fn frame_path() -> PathBuf {
    std::env::var("DUR_CKPT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            std::env::temp_dir().join(format!("durability_{}.frame", std::process::id()))
        })
}

fn main() {
    let mode = std::env::var("DUR_MODE").unwrap_or_else(|_| "victim".to_string());
    let tl = env_time_limit("DUR_TL", 600);
    let cadence = Duration::from_millis(env_usize("DUR_CADENCE_MS", 100) as u64);
    let path = frame_path();

    let w = data_collection_workload(50, 20, "cost");
    let mut opts = ExploreOptions::approx(10)
        .with_time_limit(tl)
        .with_threads(1);
    // Both modes checkpoint, so a second kill of the resumed run also works.
    opts.solver.checkpoint = Some(milp::CheckpointConfig::new(path.clone()).with_cadence(cadence));
    match mode.as_str() {
        "victim" => eprintln!(
            "durability victim: checkpointing to {} every {:?}",
            path.display(),
            cadence
        ),
        "resume" => opts.resume_from = Some(path.clone()),
        other => {
            eprintln!("unknown DUR_MODE '{other}' (victim|resume)");
            std::process::exit(2);
        }
    }

    let out = match archex::explore(&w.template, &w.library, &w.requirements, &opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("encode failed: {e}");
            std::process::exit(1);
        }
    };
    let verified = match &out.design {
        Some(d) => {
            let viol = verify_design(d, &w.template, &w.library, &w.requirements);
            if viol.is_empty() {
                "ok"
            } else {
                eprintln!("design verification failed: {viol:?}");
                "FAIL"
            }
        }
        None => "none",
    };
    let objective = out.design.as_ref().map(|d| d.objective);
    println!(
        "DUR status={:?} objective={} resumed={} verified={} checkpoints={}",
        out.status,
        objective.map_or("null".to_string(), |o| format!("{o:.6}")),
        out.stats.solver.resumed,
        verified,
        out.stats.solver.checkpoints_written,
    );

    let mut failures: Vec<String> = Vec::new();
    if verified == "FAIL" {
        failures.push("the design failed re-verification".into());
    }
    if mode == "resume" {
        if !out.stats.solver.resumed {
            failures.push("the run fell back to a cold solve".into());
        }
        if verified == "none" {
            failures.push("no design".into());
        }
        if out.status != Status::Optimal {
            failures.push(format!("status {:?}, not Optimal", out.status));
        }
        let opt = DC_50_20_KSTAR10_OPTIMUM;
        if !objective.is_some_and(|o| (o - opt).abs() <= 1e-6 * opt.abs()) {
            failures.push(format!("objective {objective:?}, not the proven optimum {opt}"));
        }
    }
    for f in &failures {
        eprintln!("durability {mode} FAILED: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
