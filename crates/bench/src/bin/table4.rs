// Benchmark code reports failures through stderr/exit codes, not panics.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! **Table 4** — Costs and solver times for data-collection networks
//! synthesized using different values of `K*`, compared with the exact
//! optimum (full enumeration) on the small template.
//!
//! Paper reference:
//!
//! ```text
//!        K*=1   K*=3   K*=5   K*=10  K*=20   opt
//! T1 $    920    861    805    642    619    579
//! T1 s      3      7     10     12    442   8233
//! T2 $   2594   2280   2083   1909   1842     -
//! T2 s      8     85    358   1708  15334    TO
//! ```
//!
//! T1 = 50 nodes / 20 end devices; T2 = 250 / 200 (laptop default scales
//! T2 down to 100 / 50). Environment knobs: `T4_TL`, `T4_OPT_TL`,
//! `T4_T2_TOTAL`, `T4_T2_END`.

use archex::explore::explore;
use archex::{ExploreOptions, Table};
use bench::data_collection_workload;
use bench::util::{env_time_limit, env_usize, paper_scale, time_cell};

fn main() {
    let ks = [1usize, 3, 5, 10, 20];
    let tl = env_time_limit("T4_TL", 300);
    let opt_tl = env_time_limit("T4_OPT_TL", 600);
    let (t2_total, t2_end) = if paper_scale() { (250, 200) } else { (100, 50) };
    let t2_total = env_usize("T4_T2_TOTAL", t2_total);
    let t2_end = env_usize("T4_T2_END", t2_end);

    println!(
        "Reproducing Table 4 (T1 = 50/20, T2 = {}/{}, TL = {:?}, opt TL = {:?})\n",
        t2_total, t2_end, tl, opt_tl
    );
    let mut header: Vec<String> = vec!["Template".into(), "Result".into()];
    header.extend(ks.iter().map(|k| format!("K*={}", k)));
    header.push("opt".into());
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        "Table 4: cost and solver time vs K*, compared with the exact optimum",
        &header_refs,
    );

    for (name, total, end, try_opt) in
        [("T1", 50, 20, true), ("T2", t2_total, t2_end, false)]
    {
        let mut costs: Vec<String> = Vec::new();
        let mut times: Vec<String> = Vec::new();
        for &k in &ks {
            let w = data_collection_workload(total, end, "cost");
            let mut opts = ExploreOptions::approx(k);
            opts.solver.time_limit = Some(tl);
            opts.solver.rel_gap = 0.005;
            match explore(&w.template, &w.library, &w.requirements, &opts) {
                Ok(out) => {
                    costs.push(
                        out.design
                            .as_ref()
                            .map(|d| format!("{:.0}", d.total_cost))
                            .unwrap_or_else(|| "-".into()),
                    );
                    times.push(time_cell(&out, tl));
                    eprintln!(
                        "[{} K*={}] cost {:?} status {} ({} nodes)",
                        name,
                        k,
                        out.design.as_ref().map(|d| d.total_cost),
                        out.status,
                        out.stats.solver.nodes
                    );
                }
                Err(e) => {
                    costs.push(format!("err: {}", e));
                    times.push("-".into());
                }
            }
        }
        // exact optimum column (full enumeration), T1 only
        let (opt_cost, opt_time) = if try_opt {
            let w = data_collection_workload(total, end, "cost");
            let mut fopts = ExploreOptions::full();
            fopts.solver.time_limit = Some(opt_tl);
            fopts.solver.rel_gap = 0.005;
            match explore(&w.template, &w.library, &w.requirements, &fopts) {
                Ok(out) => (
                    out.design
                        .as_ref()
                        .map(|d| format!("{:.0}", d.total_cost))
                        .unwrap_or_else(|| "-".into()),
                    time_cell(&out, opt_tl),
                ),
                Err(e) => (format!("err: {}", e), "-".into()),
            }
        } else {
            ("-".into(), "TO".into())
        };
        let mut cost_row = vec![name.to_string(), "Cost ($)".to_string()];
        cost_row.extend(costs);
        cost_row.push(opt_cost);
        table.row(&cost_row);
        let mut time_row = vec![name.to_string(), "Time (s)".to_string()];
        time_row.extend(times);
        time_row.push(opt_time);
        table.row(&time_row);
    }
    println!("{}", table.render());
    println!("\nPaper T1: 920/861/805/642/619 vs opt 579; T2: 2594/2280/2083/1909/1842.");
    println!("Expected shape: cost non-increasing in K* with diminishing returns after");
    println!("K*~10, steep time growth at K*=20; K*=1 is the fixed-routing heuristic.");
}
