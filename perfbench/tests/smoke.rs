//! Smoke test of the benchmark itself: a tiny run of every workload, untraced
//! and traced, must print every declared metric with its unit and run every
//! correctness check; a wrong reference optimum must fail the run; and the
//! metric registry must match `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::Path;
use std::process::Command;

struct Run {
    ok: bool,
    stdout: String,
}

fn bench(args: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    Run {
        ok: out.status.success(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
    }
}

/// `(list, name, unit, better)` rows of the binary's metric registry.
fn registry() -> Vec<(String, String, String, String)> {
    let run = bench(&["--list-metrics"]);
    assert!(run.ok);
    run.stdout
        .lines()
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f[0].into(), f[1].into(), f[2].into(), f[3].into())
        })
        .collect()
}

fn declared(list: &str) -> Vec<(String, String)> {
    registry()
        .into_iter()
        .filter(|r| r.0 == list)
        .map(|r| (r.1, r.2))
        .collect()
}

/// Asserts a run printed every metric of `list` with its unit, both as a
/// `metric` line and in the final JSON line, and ran the named checks.
fn assert_complete(run: &Run, list: &str, checks: &[&str]) {
    let last = run.stdout.lines().last().unwrap_or_default();
    assert!(
        last.starts_with("{\"correct\": true"),
        "last line: {last}\n{}",
        run.stdout
    );
    for (name, unit) in declared(list) {
        let line = run
            .stdout
            .lines()
            .find(|l| {
                l.split_whitespace().nth(1) == Some(name.as_str()) && l.starts_with("metric ")
            })
            .unwrap_or_else(|| panic!("no metric line for {name}\n{}", run.stdout));
        let f: Vec<&str> = line.split_whitespace().collect();
        assert!(f[2].parse::<f64>().is_ok_and(f64::is_finite), "{line}");
        assert_eq!(f[3], unit, "{line}");
        let json = format!("\"{name}\": {{\"value\": ");
        assert!(last.contains(&json), "{name} missing from JSON: {last}");
        assert!(
            last.contains(&format!("\"unit\": \"{unit}\"")),
            "{unit} missing: {last}"
        );
    }
    let ran = run
        .stdout
        .lines()
        .find_map(|l| l.strip_prefix("checks "))
        .unwrap_or_else(|| panic!("no checks line\n{}", run.stdout));
    for c in checks {
        let count = ran
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix(&format!("{c}=")))
            .and_then(|n| n.parse::<u64>().ok())
            .unwrap_or(0);
        assert!(count > 0, "check {c} never ran: {ran}");
    }
}

#[test]
fn one_command_runs_every_workload_and_prints_every_metric() {
    let run = bench(&[
        "--workload",
        "all",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--tiny",
    ]);
    assert!(run.ok, "{}", run.stdout);
    let named = [
        ("explore.p50_ms", "ms"),
        ("explore.tail_ms", "ms"),
        ("explore.designs_per_s", "1/s"),
        ("explore.fail_frac", "frac"),
        ("explore.setup_s", "s"),
        ("explore.peak_rss_mb", "MiB"),
        ("storm.p50_ms", "ms"),
        ("storm.tail_ms", "ms"),
        ("storm.rps", "1/s"),
        ("storm.edit_p50_ms", "ms"),
        ("storm.restructure_p50_ms", "ms"),
        ("storm.fail_frac", "frac"),
        ("storm.setup_s", "s"),
        ("storm.peak_rss_mb", "MiB"),
        ("city.solve_s", "s"),
        ("city.cost", "cost"),
        ("city.fail_frac", "frac"),
        ("city.setup_s", "s"),
        ("city.peak_rss_mb", "MiB"),
    ];
    for (name, unit) in named {
        assert!(
            run.stdout.lines().any(|l| {
                let f: Vec<&str> = l.split_whitespace().collect();
                f.len() == 4 && f[0] == "named" && f[1] == name && f[3] == unit
            }),
            "{name} [{unit}] not printed\n{}",
            run.stdout
        );
    }
    // The combined result closes the output; before it, each workload's own
    // block ends in its own JSON line.
    let (body, combined) = run
        .stdout
        .trim_end()
        .rsplit_once('\n')
        .expect("several lines");
    assert!(combined.starts_with("{\"correct\": true"), "{combined}");
    for (name, unit) in named {
        assert!(
            combined.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name}: {combined}"
        );
        assert!(
            combined.contains(&format!("\"unit\": \"{unit}\"")),
            "{unit}: {combined}"
        );
    }
    let blocks: Vec<&str> = body.split("perfbench ").skip(1).collect();
    assert_eq!(blocks.len(), 3);
    let checks: [&[&str]; 3] = [
        &["verify_design", "reference_optimum"],
        &[
            "resolved",
            "typed_outcome_sum",
            "service_counters",
            "served_answer",
        ],
        &["verify_full_instance"],
    ];
    for (block, checks) in blocks.iter().zip(checks) {
        let block = Run {
            ok: true,
            stdout: block.trim_end().to_string(),
        };
        assert_complete(&block, "end_to_end", checks);
    }
}

#[test]
fn traced_runs_report_every_layer_metric() {
    let cases: [(&str, &[&str]); 3] = [
        (
            "explore-office",
            &[
                "verify_design",
                "reference_optimum",
                "traced_fingerprint",
                "traced_objective",
            ],
        ),
        (
            "session-storm",
            &[
                "typed_outcome_sum",
                "service_counters",
                "replay_verify",
                "replay_objective",
            ],
        ),
        ("city-district", &["verify_full_instance", "traced_verify"]),
    ];
    for (workload, checks) in cases {
        let run = bench(&[
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "1",
            "--tiny",
        ]);
        assert!(run.ok, "{}", run.stdout);
        assert_complete(&run, "per_layer", checks);
        assert!(run
            .stdout
            .lines()
            .any(|l| l.starts_with("self time by layer: ")));
        let trace = run
            .stdout
            .lines()
            .find_map(|l| l.strip_prefix("trace "))
            .expect("trace path printed");
        let spans = std::fs::read_to_string(trace).expect("trace file written");
        assert!(spans.lines().count() > 0 && spans.lines().all(|l| l.starts_with("{\"id\":")));
    }
}

#[test]
fn wrong_reference_objective_fails_the_run() {
    let shipped =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("references.tsv"))
            .expect("shipped reference table");
    // Raise every reference optimum by 1 %: the solver's true optima no
    // longer match, so the run must report incorrect output and fail.
    let wrong: String = shipped
        .lines()
        .map(|l| {
            if l.starts_with('#') {
                return format!("{l}\n");
            }
            let mut f: Vec<String> = l.split('\t').map(String::from).collect();
            let v: f64 = f[3].parse().expect("objective column");
            f[3] = format!("{}", v * 1.01);
            format!("{}\n", f.join("\t"))
        })
        .collect();
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("wrong-references.tsv");
    std::fs::write(&path, wrong).expect("write tampered table");
    let path = path.to_string_lossy().into_owned();
    let args = [
        "--workload",
        "explore-office",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--tiny",
    ];
    let good = bench(&args);
    assert!(good.ok, "{}", good.stdout);
    let mut bad_args = args.to_vec();
    bad_args.extend(["--references", path.as_str()]);
    let bad = bench(&bad_args);
    assert!(
        !bad.ok,
        "a wrong reference must fail the run\n{}",
        bad.stdout
    );
    assert!(
        bad.stdout.contains("differs from reference optimum"),
        "{}",
        bad.stdout
    );
    let last = bad.stdout.lines().last().unwrap_or_default();
    assert!(last.starts_with("{\"correct\": false"), "{last}");
}

#[test]
fn benchmark_json_lists_the_registry() {
    let text =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let section = |key: &str| -> Vec<(String, String, String)> {
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let body = &text[start..];
        let end = body.find(']').expect("section closes");
        body[..end]
            .split('{')
            .skip(1)
            .map(|obj| {
                let field = |k: &str| {
                    let at = obj
                        .find(&format!("\"{k}\""))
                        .unwrap_or_else(|| panic!("{k} in {obj}"));
                    let rest = &obj[at + k.len() + 2..];
                    let open = rest.find('"').expect("value opens") + 1;
                    let close = rest[open..].find('"').expect("value closes") + open;
                    rest[open..close].to_string()
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    };
    for list in ["end_to_end", "per_layer"] {
        let want: Vec<(String, String, String)> = registry()
            .into_iter()
            .filter(|r| r.0 == list)
            .map(|r| (r.1, r.2, r.3))
            .collect();
        assert_eq!(
            section(list),
            want,
            "{list} in BENCHMARK.json differs from the registry"
        );
    }
}
