//! `perf`: the repository benchmark.
//!
//! ```text
//! perf --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! perf --all [same options]
//! ```
//!
//! `--workload` runs one workload in this process and prints its metrics
//! as `workload metric value unit`, then one JSON object as the last line
//! of standard output. `--all` re-executes this binary once per workload,
//! so each workload has its own process and its own peak RSS.

use crowd_perf::harness::Fingerprint;
use crowd_perf::{run_workload, Config, DEFAULT_SEED, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: perf (--workload <name> | --all) [--seed N] [--seconds S] \
                     [--trace 0|1] [--smoke] [--out DIR]";

struct Args {
    workload: Option<String>,
    all: bool,
    cfg: Config,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        all: false,
        cfg: Config {
            seed: DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
            smoke: false,
            out_dir: Some(PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))),
        },
    };
    let mut pending: Option<String> = None;
    while let Some(arg) = pending.take().or_else(|| args.next()) {
        let mut value = |name: &str| {
            pending
                .take()
                .or_else(|| args.next())
                .ok_or(format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => out.workload = Some(value("--workload")?),
            "--all" => out.all = true,
            "--seed" => {
                out.cfg.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must be a non-negative number, got {s}"));
                }
                out.cfg.seconds = s;
            }
            "--trace" => {
                // `--trace 0|1`, or a bare `--trace` meaning 1.
                out.cfg.trace = match args.next() {
                    Some(v) if v == "0" => false,
                    Some(v) if v == "1" => true,
                    other => {
                        pending = other;
                        true
                    }
                };
            }
            "--smoke" => out.cfg.smoke = true,
            "--out" => out.cfg.out_dir = Some(PathBuf::from(value("--out")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if out.all == out.workload.is_some() {
        return Err("give exactly one of --workload and --all".into());
    }
    Ok(out)
}

/// Runs every workload in a child process of its own.
fn run_all(cfg: &Config) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perf: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for w in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w])
            .args(["--seed", &cfg.seed.to_string()])
            .args(["--seconds", &cfg.seconds.to_string()])
            .args(["--trace", if cfg.trace { "1" } else { "0" }]);
        if cfg.smoke {
            cmd.arg("--smoke");
        }
        if let Some(dir) = &cfg.out_dir {
            cmd.arg("--out").arg(dir);
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => failed.push(format!("{w} ({status})")),
            Err(e) => failed.push(format!("{w} (spawn: {e})")),
        }
    }
    if failed.is_empty() {
        println!("# all {} workloads passed", WORKLOADS.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("perf: failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.all {
        return run_all(&args.cfg);
    }
    let name = args.workload.expect("checked in parse");
    let host = Fingerprint::current();
    match run_workload(&name, &args.cfg) {
        Ok(report) => {
            for line in report.lines(&host) {
                println!("{line}");
            }
            println!("{}", report.json(args.cfg.trace, true));
            ExitCode::SUCCESS
        }
        Err(v) => {
            eprintln!("perf: {v}");
            println!("# host {}", host.line());
            println!("{{\"correct\":false,\"attempted\":1,\"failed\":1,\"metrics\":{{}}}}");
            ExitCode::FAILURE
        }
    }
}
