//! CLI entry point regenerating the paper's tables and figures.
//!
//! ```text
//! repro [--quick] [--out DIR] [--jobs N] [all | fig2 fig3 ... table2 search_eval phase1_survival]
//! ```
//!
//! Results are written as markdown and CSV into `results/` (or `--out`),
//! alongside a `manifest.json` run record, and the markdown is echoed to
//! stdout. Experiments and their seed replications run on `--jobs N`
//! threads (default: all cores; `--jobs 1` is fully serial); every RNG is
//! seeded per experiment, so the tables and CSVs are byte-identical at any
//! job count.

use crowd_experiments::{engine, run_experiments, Scale, EXPERIMENT_NAMES, TEXT_EXPERIMENTS};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut quick = false;
    let mut out_dir = PathBuf::from("results");
    let mut names: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => match args.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--out requires a directory argument");
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
            "--help" | "-h" => {
                println!(
                    "usage: repro [--quick] [--out DIR] [--jobs N] [all | EXPERIMENT...]\n\
                     experiments: {} {}",
                    EXPERIMENT_NAMES.join(" "),
                    TEXT_EXPERIMENTS.join(" ")
                );
                return ExitCode::SUCCESS;
            }
            "all" => names.clear(),
            name => {
                if !crowd_experiments::runner::is_known(name) {
                    eprintln!(
                        "unknown experiment {name:?}; known: {} {}",
                        EXPERIMENT_NAMES.join(" "),
                        TEXT_EXPERIMENTS.join(" ")
                    );
                    return ExitCode::FAILURE;
                }
                names.push(name.to_string());
            }
        }
    }

    let scale = if quick { Scale::quick() } else { Scale::full() };
    match run_experiments(&names, &scale, &out_dir) {
        Ok(tables) => {
            for t in &tables {
                println!("{}", t.to_markdown());
                println!("{}", crowd_experiments::report::ascii_chart(t));
            }
            eprintln!(
                "wrote {} tables + manifest.json to {}",
                tables.len(),
                out_dir.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("failed to write results: {e}");
            ExitCode::FAILURE
        }
    }
}
