//! Benchmark runner writing `SERVE_results.json`.
//!
//! ```text
//! serve_load [--seed S] [--out FILE]
//! ```
//!
//! Drives the crowd-serve service layer through the standard load
//! scenarios (half capacity, at capacity, double and quadruple capacity)
//! and reports admission, shed rate, cache reuse, p99 job latency, SLO
//! burn, and breaker trips. The report (`{"meta": …}`) is deterministic —
//! byte-identical on any machine — so CI can diff it against the
//! committed baseline. Wall-clock numbers come from the repository
//! benchmark, `perfbench/`.

use crowd_bench::serve_load::{self, ServeLoadReport};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut seed = serve_load::DEFAULT_SEED;
    let mut out = PathBuf::from("SERVE_results.json");

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
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
                println!("usage: serve_load [--seed S] [--out FILE]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other:?} (try --help)");
                return ExitCode::FAILURE;
            }
        }
    }

    let report = serve_load::run_serve_load(seed);
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

/// One line per scenario: admission split, cache reuse, tail latency,
/// SLO burn. Undefined ratios (`None`) print as `-` instead of a fake
/// zero.
fn print_summary(report: &ServeLoadReport) {
    let pct = |bps: Option<u64>| match bps {
        Some(bps) => format!("{:>5.2}%", bps as f64 / 100.0),
        None => format!("{:>6}", "-"),
    };
    let ticks = |t: Option<u64>| match t {
        Some(t) => format!("{t:>3}"),
        None => format!("{:>3}", "-"),
    };
    println!("seed {}", report.meta.seed);
    for meta in &report.meta.scenarios {
        println!(
            "{:<5} {:>4} offered  {:>4} admitted  {:>4} shed ({})  \
             {:>4} ok  {:>4} degraded  cache {:>4} hits ({})  {:>3} trips  \
             p99 {} ticks  slo {:>2} breaches (burn {})",
            meta.label,
            meta.offered,
            meta.admitted,
            meta.shed,
            pct(meta.shed_bps),
            meta.completed_ok,
            meta.degraded,
            meta.cache_hits,
            pct(meta.cache_hit_rate_bps),
            meta.breaker_trips,
            ticks(meta.p99_latency_ticks),
            meta.slo_breaches,
            pct(Some(u64::from(meta.slo_burn_max_bps))),
        );
    }
}
