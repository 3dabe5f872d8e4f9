//! # crowd-perf
//!
//! The repository benchmark. Four workloads, from the simulated
//! comparison kernel to an overloaded crowd-serve, each run in its own
//! process: untraced for the end-to-end metrics, and in a separate traced
//! run for the per-layer metrics. Every layer is measured from outside,
//! by timing calls into its public functions. See `README.md` for every
//! workload, metric and layer, and why each was chosen.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod harness;
pub mod heap;
pub mod ladder;
pub mod maxfind;
pub mod replay;
pub mod report;
pub mod serve;
pub mod trace;

use report::{Metric, Report, Violation};
use std::path::PathBuf;
use trace::SpanLog;

/// The default seed, shared with `BENCH_results.json` and
/// `SERVE_results.json`.
pub const DEFAULT_SEED: u64 = crowd_bench::serve_load::DEFAULT_SEED;

/// Workload names, in the order `--all` runs them.
pub const WORKLOADS: [&str; 4] = [
    maxfind::KERNEL.name,
    maxfind::PLATFORM.name,
    serve::STEADY.name,
    serve::OVERLOAD.name,
];

/// Scale divisor of `--smoke` runs.
pub const SMOKE_DIVISOR: usize = 50;

/// End-to-end metrics, with units, in print order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("cmp_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("step_us_p50", "us"),
    ("step_us_p99", "us"),
    ("ok_share", "share"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics, with units, in print order. A traced run prints
/// all of them; a layer its workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("algorithms.phase1_ms", "ms"),
    ("algorithms.phase2_ms", "ms"),
    ("algorithms.self_share", "share"),
    ("simulated.ns_per_cmp", "ns"),
    ("oracle.calls", "count"),
    ("oracle.pairs_per_call", "count"),
    ("observed.self_ns_per_cmp", "ns"),
    ("platform.ns_per_cmp", "ns"),
    ("platform.retried_share", "share"),
    ("platform.dead_letters", "count"),
    ("journal.self_ns_per_cmp", "ns"),
    ("journal.bytes_per_cmp", "B"),
    ("obs.overhead_share", "share"),
    ("obs.events", "count"),
    ("serve.submit_ns_p50", "ns"),
    ("serve.admitted", "count"),
    ("serve.queued", "count"),
    ("serve.shed", "count"),
    ("cache.lookup_ns", "ns"),
    ("cache.insert_ns", "ns"),
    ("cache.hit_share", "share"),
    ("cache.evictions", "count"),
    ("shard.ns_per_pair", "ns"),
    ("shard.retry_share", "share"),
    ("journal.append_us_per_tick", "us"),
    ("journal.bytes_per_job", "B"),
    ("serve.step_us_p50", "us"),
    ("serve.step_us_p99", "us"),
    ("serve.self_share", "share"),
    ("serve.active_jobs_mean", "count"),
    ("ladder.model", "ns"),
    ("ladder.simulated", "ns"),
    ("ladder.simulated_hop", "ns"),
    ("ladder.observed", "ns"),
    ("ladder.observed_hop", "ns"),
    ("ladder.platform", "ns"),
    ("ladder.platform_hop", "ns"),
    ("ladder.journaled", "ns"),
    ("ladder.journaled_hop", "ns"),
    ("ladder.shard", "ns"),
    ("ladder.shard_hop", "ns"),
    ("ladder.service", "ns"),
    ("ladder.service_hop", "ns"),
    ("trace.overhead_share", "share"),
];

/// How one workload process runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Seed every input derives from.
    pub seed: u64,
    /// Seconds of timed samples.
    pub seconds: f64,
    /// Run the traced measurement too, and report per-layer metrics.
    pub trace: bool,
    /// Every workload at 1/[`SMOKE_DIVISOR`] size, minimum samples.
    pub smoke: bool,
    /// Where a traced run writes `trace-<workload>.jsonl` (the spans of
    /// its first traced sample); `None` keeps the spans in memory only.
    pub out_dir: Option<PathBuf>,
}

impl Config {
    /// The size divisor: 1, or [`SMOKE_DIVISOR`] under `--smoke`.
    pub fn divisor(&self) -> usize {
        if self.smoke {
            SMOKE_DIVISOR
        } else {
            1
        }
    }

    /// Seconds of untraced timed samples: all of `seconds`, or a
    /// third in a traced run, which replays those samples twice more
    /// (traced, and with the Recorder toggled) and so stays about as long
    /// as an untraced one.
    pub fn measure_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 3.0
        } else {
            self.seconds
        }
    }
}

/// Puts `found` into [`PER_LAYER`] order, with 0 for every layer the
/// workload does not exercise.
///
/// # Panics
///
/// On a metric name missing from [`PER_LAYER`] or a unit differing from
/// it — a bug in this crate.
pub fn complete_layers(found: Vec<Metric>) -> Vec<Metric> {
    for m in &found {
        assert!(
            PER_LAYER.contains(&(m.name, m.unit)),
            "per-layer metric {} [{}] is not declared",
            m.name,
            m.unit
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            found
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or(Metric {
                    name,
                    value: 0.0,
                    unit,
                })
        })
        .collect()
}

/// Runs workload `name` and, for a traced run with an output directory,
/// writes its spans there.
///
/// # Errors
///
/// A [`Violation`] naming the workload and the failed check; an unknown
/// workload name is reported as one too.
pub fn run_workload(name: &str, cfg: &Config) -> Result<Report, Violation> {
    let (mut report, spans): (Report, Option<SpanLog>) = match name {
        n if n == maxfind::KERNEL.name => maxfind::workload(&maxfind::KERNEL, cfg)?,
        n if n == maxfind::PLATFORM.name => maxfind::workload(&maxfind::PLATFORM, cfg)?,
        n if n == serve::STEADY.name => serve::workload(&serve::STEADY, cfg)?,
        n if n == serve::OVERLOAD.name => serve::workload(&serve::OVERLOAD, cfg)?,
        other => {
            return Err(report::violation(
                "perf",
                "workload",
                format!(
                    "unknown workload {other:?}; known: {}",
                    WORKLOADS.join(", ")
                ),
            ))
        }
    };
    for (m, (name, unit)) in report.end_to_end.iter().zip(END_TO_END) {
        assert_eq!((m.name, m.unit), (name, unit), "end-to-end metric order");
    }
    assert_eq!(report.end_to_end.len(), END_TO_END.len());
    if cfg.trace {
        report.per_layer = complete_layers(std::mem::take(&mut report.per_layer));
    }
    if let (Some(dir), Some(spans)) = (&cfg.out_dir, spans) {
        let path = dir.join(format!("trace-{}.jsonl", report.workload));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, spans.to_jsonl(1)))
            .map_err(|e| {
                report::violation(
                    report.workload,
                    "trace_file",
                    format!("{}: {e}", path.display()),
                )
            })?;
        report.notes.push(format!(
            "trace spans={} file={}",
            spans.spans().len(),
            path.display()
        ));
    }
    Ok(report)
}
