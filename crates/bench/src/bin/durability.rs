// Benchmark code reports failures through stderr/exit codes, not panics.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! Durability smoke harness: one binary, three modes, driven by `DUR_MODE`.
//!
//! * `reference` — cold-solve the [50 / 20] data-collection workload and
//!   print the result line (the match-or-beat baseline).
//! * `victim` — the same solve with periodic checkpointing to `DUR_CKPT`;
//!   the caller (scripts/tier1.sh) SIGKILLs this process mid-search.
//! * `resume` — continue from the frame at `DUR_CKPT`, re-verify the final
//!   design against the requirements, and print the result line.
//!
//! Every mode prints a single machine-parsable line to stdout:
//!
//! ```text
//! DUR status=Optimal objective=123.456000 resumed=true verified=ok checkpoints=7
//! ```
//!
//! Knobs: `DUR_TL` (solve time limit in seconds, default 120), `DUR_CKPT`
//! (frame path, default `/tmp/durability_<pid>.frame` — the victim and the
//! resume run must agree on it), `DUR_CADENCE_MS` (checkpoint cadence,
//! default 100 ms).

use archex::design::verify_design;
use archex::ExploreOptions;
use bench::data_collection_workload;
use bench::util::{env_time_limit, env_usize};
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
    let mode = std::env::var("DUR_MODE").unwrap_or_else(|_| "reference".to_string());
    let tl = env_time_limit("DUR_TL", 120);
    let cadence = Duration::from_millis(env_usize("DUR_CADENCE_MS", 100) as u64);
    let path = frame_path();

    let w = data_collection_workload(50, 20, "cost");
    let mut opts = ExploreOptions::approx(10).with_time_limit(tl);
    opts.solver.rel_gap = 0.005;
    match mode.as_str() {
        "reference" => {}
        "victim" => {
            opts.solver.checkpoint =
                Some(milp::CheckpointConfig::new(path.clone()).with_cadence(cadence));
            eprintln!(
                "durability victim: checkpointing to {} every {:?}",
                path.display(),
                cadence
            );
        }
        "resume" => {
            // Keep checkpointing while resumed so a second kill also works.
            opts.solver.checkpoint =
                Some(milp::CheckpointConfig::new(path.clone()).with_cadence(cadence));
            opts.resume_from = Some(path.clone());
        }
        other => {
            eprintln!("unknown DUR_MODE '{other}' (reference|victim|resume)");
            std::process::exit(2);
        }
    }

    let out =
        explore_or_exit(&w.template, &w.library, &w.requirements, &opts);
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
    println!(
        "DUR status={:?} objective={} resumed={} verified={} checkpoints={}",
        out.status,
        out.design
            .as_ref()
            .map_or("null".to_string(), |d| format!("{:.6}", d.objective)),
        out.stats.solver.resumed,
        verified,
        out.stats.solver.checkpoints_written,
    );
    if verified == "FAIL" {
        std::process::exit(1);
    }
}

fn explore_or_exit(
    template: &archex::NetworkTemplate,
    library: &devlib::Library,
    req: &archex::Requirements,
    opts: &ExploreOptions,
) -> archex::ExploreOutcome {
    match archex::explore(template, library, req, opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("encode failed: {e}");
            std::process::exit(1);
        }
    }
}
