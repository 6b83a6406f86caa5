// Benchmark code reports failures through stderr/exit codes, not panics.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! **Table 1** — Final number of nodes, dollar cost, average node lifetime
//! (years), and solver time for a data-collection WSN optimized for
//! different objectives.
//!
//! Paper reference (136-node template, 35 sensors, CPLEX on an i7):
//!
//! ```text
//! Objective   #Nodes  $cost  Lifetime(y)  Time(s)
//! $ cost        61    1022      7.33        45
//! Energy        63    1480     12.24       260
//! $ + Energy    61    1241      9.69        66
//! ```
//!
//! Default run uses a laptop-scale template (70 nodes / 20 sensors);
//! `SCALE=paper` switches to the paper's 136/35. Environment knobs:
//! `T1_TOTAL`, `T1_END`, `T1_K`, `T1_TL` (seconds), `T1_GAP`.

use archex::explore::explore;
use archex::{ExploreOptions, Table};
use bench::data_collection_workload;
use bench::util::{env_f64, env_time_limit, env_usize, paper_scale, time_cell};

fn main() {
    let (dt, de) = if paper_scale() { (136, 35) } else { (70, 20) };
    let total = env_usize("T1_TOTAL", dt);
    let end = env_usize("T1_END", de);
    let k = env_usize("T1_K", 10);
    let tl = env_time_limit("T1_TL", if paper_scale() { 900 } else { 240 });
    let gap = env_f64("T1_GAP", 0.005);

    println!(
        "Reproducing Table 1 (template: {} nodes, {} sensors, K* = {}, TL = {:?}, gap = {})\n",
        total, end, k, tl, gap
    );
    let mut table = Table::new(
        "Table 1: data-collection WSN optimized for different objectives",
        &["Objective", "# Nodes", "$ cost", "Lifetime (y)", "Time (s)"],
    );
    // the energy term (average current, uA) is ~10x smaller than dollar
    // cost on these instances; the combined objective weights the two to
    // comparable magnitudes, as the paper's "equally weighted" combination
    for (label, objective) in [
        ("$ cost", "cost".to_string()),
        ("Energy", "energy".to_string()),
        ("$ + Energy", "0.5*cost + 2.5*energy".to_string()),
    ] {
        let w = data_collection_workload(total, end, &objective);
        let mut opts = ExploreOptions::approx(k);
        opts.solver.time_limit = Some(tl);
        opts.solver.rel_gap = gap;
        match explore(&w.template, &w.library, &w.requirements, &opts) {
            Ok(out) => match &out.design {
                Some(d) => {
                    table.row(&[
                        label.to_string(),
                        d.num_nodes().to_string(),
                        format!("{:.0}", d.total_cost),
                        d.avg_lifetime_years()
                            .map(|y| format!("{:.2}", y))
                            .unwrap_or_else(|| "-".into()),
                        time_cell(&out, tl),
                    ]);
                    eprintln!(
                        "[{}] {} vars, {} cons, {} B&B nodes, status {}",
                        label,
                        out.stats.num_vars,
                        out.stats.num_cons,
                        out.stats.solver.nodes,
                        out.status
                    );
                }
                None => table.row(&[
                    label.to_string(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    format!("{}", out.status),
                ]),
            },
            Err(e) => table.row(&[
                label.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                e.to_string(),
            ]),
        }
    }
    println!("{}", table.render());
    println!("* TO(..) = time limit hit; reported design is the incumbent.");
    println!(
        "\nPaper (136 nodes, CPLEX): $1022/61n/7.33y/45s | $1480/63n/12.24y/260s | $1241/61n/9.69y/66s"
    );
    println!(
        "Expected shape: energy-optimal costs more dollars and lives longer; combined lands between."
    );
}
