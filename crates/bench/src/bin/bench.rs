//! Benchmark runner writing `BENCH_results.json`.
//!
//! ```text
//! bench [--tier small|full|large] [--jobs N] [--seed S] [--out FILE]
//! ```
//!
//! Runs sequential Phase-1 filtering, the parallel filter, 2-MaxFind on
//! the survivors, and the full two-phase run across catalog-size tiers
//! (`small`: n ∈ {10³, 10⁴}; `full` adds 10⁵; `large` adds 10⁶) and
//! records their comparison counts. The report (`{"meta": …}`) is
//! deterministic — byte-identical at any `--jobs` count — so CI can diff
//! it against the committed baseline. Wall-clock numbers come from the
//! repository benchmark, `perfbench/`.

use crowd_bench::pipeline::{self, BenchReport};
use crowd_experiments::engine;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut tier = String::from("small");
    let mut seed = pipeline::DEFAULT_SEED;
    let mut out = PathBuf::from("BENCH_results.json");

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tier" => match args.next() {
                Some(name) if pipeline::tiers(&name).is_some() => tier = name,
                _ => {
                    eprintln!("--tier requires one of: small full large");
                    return ExitCode::FAILURE;
                }
            },
            "--jobs" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => engine::set_jobs(n),
                _ => {
                    eprintln!("--jobs requires a worker count >= 1");
                    return ExitCode::FAILURE;
                }
            },
            "--seed" => match args.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(s) => seed = s,
                None => {
                    eprintln!("--seed requires an integer argument");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match args.next() {
                Some(path) => out = PathBuf::from(path),
                None => {
                    eprintln!("--out requires a file argument");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: bench [--tier small|full|large] [--jobs N] [--seed S] [--out FILE]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other:?} (try --help)");
                return ExitCode::FAILURE;
            }
        }
    }

    let specs = pipeline::tiers(&tier).expect("tier validated above");
    let report = pipeline::run_bench(&tier, &specs, seed);
    print_summary(&report);
    match std::fs::write(&out, report.to_json()) {
        Ok(()) => {
            eprintln!("wrote {}", out.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("failed to write {}: {e}", out.display());
            ExitCode::FAILURE
        }
    }
}

/// One line per tier and section: comparisons, survivors, steps.
fn print_summary(report: &BenchReport) {
    println!("tier set {:?}, seed {}", report.meta.tier, report.meta.seed);
    for meta in &report.meta.tiers {
        println!("n = {} (un = {}, ue = {}):", meta.n, meta.un, meta.ue);
        for (name, m) in [
            ("filter", &meta.filter),
            ("filter-par", &meta.filter_parallel),
            ("expert", &meta.expert),
            ("full", &meta.full),
        ] {
            println!(
                "  {name:<10} {:>10} naive + {:>6} expert cmp  ({} survivors, {} steps)",
                m.naive_comparisons, m.expert_comparisons, m.survivors, m.physical_steps,
            );
        }
    }
}
