//! Every workload at smoke scale, traced, through the library and through
//! the `perf` binary: the whole benchmark, its correctness gates, the
//! replay audit and the transparency checks, in a few seconds.

use crowd_perf::{run_workload, Config, END_TO_END, PER_LAYER, WORKLOADS};
use serde::Deserialize;
use std::process::Command;

/// `BENCHMARK.json`, every field declared so the whole file is checked.
#[derive(Deserialize)]
struct Benchmark {
    command: Vec<String>,
    paths: Vec<String>,
    run_seconds: u64,
    workloads: Vec<Workload>,
    end_to_end: Vec<EndToEnd>,
    per_layer: Vec<Layer>,
}

#[derive(Deserialize)]
struct Workload {
    name: String,
    why: String,
}

#[derive(Deserialize)]
struct EndToEnd {
    name: String,
    unit: String,
    better: String,
    bound: f64,
}

#[derive(Deserialize)]
struct Layer {
    name: String,
    unit: String,
    better: String,
}

#[test]
fn benchmark_json_lists_what_the_benchmark_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let b: Benchmark = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    assert_eq!(b.paths, ["perfbench"]);
    assert!(b.command.iter().any(|a| a == "perfbench/Cargo.toml"));
    assert!((1..=60).contains(&b.run_seconds));
    let workloads: Vec<&str> = b.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(workloads, WORKLOADS);
    assert!(b
        .workloads
        .iter()
        .all(|w| !w.why.is_empty() && w.why.len() <= 200));
    let e2e: Vec<(&str, &str)> = b
        .end_to_end
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    assert_eq!(e2e, END_TO_END);
    let layers: Vec<(&str, &str)> = b
        .per_layer
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    assert_eq!(layers, PER_LAYER);
    let directions = b
        .end_to_end
        .iter()
        .map(|m| &m.better)
        .chain(b.per_layer.iter().map(|m| &m.better));
    for better in directions {
        assert!(better == "higher" || better == "lower", "{better}");
    }
    let setup = b
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
    for m in &b.end_to_end {
        assert!(
            m.bound > 0.0 && m.bound <= setup.bound && m.bound <= 0.25,
            "{}",
            m.name
        );
    }
}

fn smoke(trace: bool) -> Config {
    Config {
        seed: 45_223,
        seconds: 0.0,
        trace,
        smoke: true,
        out_dir: None,
    }
}

#[test]
fn every_workload_passes_its_gates_and_reports_every_metric() {
    for w in WORKLOADS {
        let report = run_workload(w, &smoke(true)).unwrap_or_else(|v| panic!("{v}"));
        assert_eq!(report.workload, w);
        assert!(report.attempted >= 1);
        assert_eq!(report.failed, 0);
        let names: Vec<_> = report.end_to_end.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(names, END_TO_END.to_vec(), "{w}");
        for m in &report.end_to_end {
            assert!(m.value.is_finite() && m.value > 0.0, "{w} {m:?}");
        }
        let layers: Vec<_> = report.per_layer.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(layers, PER_LAYER.to_vec(), "{w}");
        let value = |name: &str| {
            report
                .per_layer
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .expect("declared")
        };
        assert!(value("trace.overhead_share").is_finite());
        match w {
            "maxfind_kernel" => assert!(value("simulated.ns_per_cmp") > 0.0),
            "maxfind_platform" => {
                assert!(value("ladder.journaled") > value("ladder.model"));
                assert!(value("ladder.service") > 0.0);
                assert!(value("journal.bytes_per_cmp") > 0.0);
            }
            _ => {
                assert!(value("shard.ns_per_pair") > 0.0);
                assert!(value("journal.bytes_per_job") > 0.0);
            }
        }
        let json = report.json(true, true);
        assert!(json.starts_with("{\"correct\":true,"), "{json}");
    }
}

#[test]
fn untraced_runs_report_only_end_to_end_metrics() {
    let report = run_workload("serve_overload", &smoke(false)).unwrap_or_else(|v| panic!("{v}"));
    assert!(report.per_layer.is_empty());
    let json = report.json(false, true);
    for (name, unit) in END_TO_END {
        assert!(json.contains(&format!("\"{name}\":{{\"value\":")), "{name}");
        assert!(json.contains(&format!("\"unit\":\"{unit}\"")), "{unit}");
    }
}

#[test]
fn the_binary_prints_a_result_line_and_rejects_bad_arguments() {
    let perf = env!("CARGO_BIN_EXE_perf");
    let out = Command::new(perf)
        .args(["--workload", "serve_steady", "--smoke", "--seconds", "0"])
        .args(["--trace", "0", "--seed", "9"])
        .output()
        .expect("perf runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = stdout.lines().last().expect("output");
    assert!(last.starts_with("{\"correct\":true,"), "{last}");
    assert!(stdout
        .lines()
        .any(|l| l.starts_with("serve_steady setup_s ")));
    assert!(stdout.contains("# host nproc="));

    for bad in [
        &["--workload", "nope", "--smoke"][..],
        &["--all", "--workload", "serve_steady"],
        &["--workload", "serve_steady", "--seconds", "-1"],
        &["--frobnicate"],
    ] {
        let out = Command::new(perf).args(bad).output().expect("perf runs");
        assert!(!out.status.success(), "{bad:?}");
        let stdout = String::from_utf8(out.stdout).expect("utf-8");
        assert!(
            !stdout.contains("\"correct\":true"),
            "{bad:?} printed a result"
        );
    }
}
