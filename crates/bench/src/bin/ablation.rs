// Benchmark code reports failures through stderr/exit codes, not panics.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! **Ablation study** — design choices of this reproduction, measured:
//!
//! 1. Link-quality linearization: exact pair conflicts (ours) vs the
//!    textbook big-M indicator form of constraint (2b).
//! 2. MILP heuristics on/off (diving + rounding).
//! 3. Presolve on/off.
//!
//! Each variant solves the same data-collection workload; the table reports
//! solve time, branch-and-bound nodes, and the objective found.
//!
//! Environment knobs: `AB_TOTAL`, `AB_END`, `AB_K`, `AB_TL`.

use archex::encode::link_quality::LqEncoding;
use archex::explore::explore;
use archex::{ExploreOptions, Table};
use bench::data_collection_workload;
use bench::util::{env_time_limit, env_usize, time_cell};

/// A labeled tweak applied on top of the baseline exploration options.
type Variant = (&'static str, Box<dyn Fn(&mut ExploreOptions)>);

fn main() {
    let total = env_usize("AB_TOTAL", 50);
    let end = env_usize("AB_END", 20);
    let k = env_usize("AB_K", 10);
    let tl = env_time_limit("AB_TL", 240);
    println!(
        "Ablation on the {}-node / {}-sensor data-collection workload (K* = {}, TL = {:?})\n",
        total, end, k, tl
    );
    let mut table = Table::new(
        "Ablation: encoding and solver design choices",
        &["Variant", "Cost ($)", "Time (s)", "B&B nodes", "Status"],
    );
    let variants: Vec<Variant> = vec![
        ("baseline (pair conflicts, heuristics, presolve)", Box::new(|_| {})),
        (
            "LQ as big-M indicators",
            Box::new(|o: &mut ExploreOptions| o.lq_encoding = LqEncoding::BigM),
        ),
        (
            "heuristics off",
            Box::new(|o: &mut ExploreOptions| o.solver.heuristics = milp::HeurConfig::off()),
        ),
        (
            "presolve off",
            Box::new(|o: &mut ExploreOptions| o.solver.presolve = false),
        ),
    ];
    for (name, tweak) in variants {
        let w = data_collection_workload(total, end, "cost");
        let mut opts = ExploreOptions::approx(k);
        opts.solver.time_limit = Some(tl);
        opts.solver.rel_gap = 0.005;
        tweak(&mut opts);
        match explore(&w.template, &w.library, &w.requirements, &opts) {
            Ok(out) => {
                table.row(&[
                    name.to_string(),
                    out.design
                        .as_ref()
                        .map(|d| format!("{:.0}", d.total_cost))
                        .unwrap_or_else(|| "-".into()),
                    time_cell(&out, tl),
                    out.stats.solver.nodes.to_string(),
                    format!("{}", out.status),
                ]);
            }
            Err(e) => table.row(&[
                name.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                e.to_string(),
            ]),
        }
    }
    println!("{}", table.render());
    println!("Pair-conflict LQ vs big-M is this reproduction's main formulation lever;");
    println!("see DESIGN.md (link quality) for why it tightens the LP relaxation.");
}
