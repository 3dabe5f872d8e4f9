//! Span-log analyzer and span-log generator — the tracing CI entry point.
//!
//! ```text
//! serve_trace <spans.jsonl> [--waterfalls N]     # analyze a span log
//! serve_trace --run --out DIR [--seeds N]        # generate span logs
//! ```
//!
//! **Analyze mode** parses a `spans.jsonl` (as written by `repro` next to
//! `events.jsonl`), enforces the accounting invariant — every job's stage
//! ticks must sum to its submission-to-completion latency — and prints
//! the per-tenant latency-attribution table plus ASCII waterfalls for the
//! slowest jobs. Unbalanced books exit nonzero with one message per
//! broken job.
//!
//! **Run mode** drives the canonical serve scenario once per seed,
//! writing `<out>/spans-<seed>.jsonl` (one file per seed — seeds reuse job
//! ids, so merged logs would not reconcile) plus `trace.md`, the analyzed
//! seed-0 log. The binary asserts in-process that every seed's log is
//! non-empty and reconciles, exiting nonzero otherwise. Kill/resume
//! equivalence of span logs is `serve_sweep`'s `resume identical` gate.

use crowd_experiments::serve_trace::{analyze, demo_run};
use crowd_obs::SpanLog;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Seeds traced by default.
const DEFAULT_SEEDS: u64 = 4;

fn analyze_file(path: &str, waterfalls: usize) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let log = match SpanLog::from_jsonl(&text) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("{path} is not a span log: {e}");
            return ExitCode::FAILURE;
        }
    };
    match analyze(&log) {
        Ok(analysis) => {
            println!("{}", analysis.render_report(waterfalls));
            eprintln!(
                "{}: {} spans, {} jobs, books balance",
                path,
                log.len(),
                analysis.jobs.len()
            );
            ExitCode::SUCCESS
        }
        Err(violations) => {
            for v in &violations {
                eprintln!("{path}: {v}");
            }
            eprintln!("{path}: {} jobs with unbalanced books", violations.len());
            ExitCode::FAILURE
        }
    }
}

fn run_logs(out_dir: &Path, seeds: u64) -> ExitCode {
    let mut failures = 0u64;
    let mut trace = String::new();
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("failed to write artifacts: {e}");
        return ExitCode::FAILURE;
    }
    for seed in 0..seeds {
        let (log, _) = demo_run(seed);
        let reconciles = log.reconcile().is_ok();
        eprintln!(
            "seed {seed:>3}: spans={} reconciles={reconciles}",
            log.len()
        );
        if !reconciles || log.is_empty() {
            failures += 1;
        }
        if seed == 0 {
            trace = analyze(&log)
                .map(|a| a.render_report(5))
                .unwrap_or_else(|v| format!("UNBALANCED BOOKS\n{}\n", v.join("\n")));
        }
        let path = out_dir.join(format!("spans-{seed}.jsonl"));
        if let Err(e) = std::fs::write(path, log.to_jsonl()) {
            eprintln!("failed to write artifacts: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = std::fs::write(out_dir.join("trace.md"), trace) {
        eprintln!("failed to write artifacts: {e}");
        return ExitCode::FAILURE;
    }

    if failures > 0 {
        eprintln!("{failures}/{seeds} seeds produced an empty or unbalanced span log");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "all {seeds} seeds traced and reconciled; artifacts in {}",
        out_dir.display()
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut run = false;
    let mut out_dir = PathBuf::from("trace-results");
    let mut seeds = DEFAULT_SEEDS;
    let mut waterfalls = 5usize;
    let mut input: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--run" => run = true,
            "--out" => match args.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--out requires a directory argument");
                    return ExitCode::FAILURE;
                }
            },
            "--seeds" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(v) if v >= 1 => seeds = v,
                _ => {
                    eprintln!("--seeds requires a count >= 1");
                    return ExitCode::FAILURE;
                }
            },
            "--waterfalls" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(v) => waterfalls = v,
                None => {
                    eprintln!("--waterfalls requires a count");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: serve_trace <spans.jsonl> [--waterfalls N]\n\
                     \x20      serve_trace --run [--out DIR] [--seeds N]"
                );
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') && input.is_none() => {
                input = Some(other.to_string());
            }
            other => {
                eprintln!("unknown argument {other:?} (see --help)");
                return ExitCode::FAILURE;
            }
        }
    }

    match (run, input) {
        (true, None) => run_logs(&out_dir, seeds),
        (false, Some(path)) => analyze_file(&path, waterfalls),
        (true, Some(_)) => {
            eprintln!("--run does not take a span-log argument");
            ExitCode::FAILURE
        }
        (false, None) => {
            eprintln!("pass a spans.jsonl to analyze, or --run to generate span logs (see --help)");
            ExitCode::FAILURE
        }
    }
}
