//! Experiment registry and batch runner.
//!
//! Each entry regenerates one table/figure of the paper. The `repro`
//! binary is a thin CLI over [`run_experiments`].

use crate::engine;
use crate::report::Table;
use crate::scale::Scale;
use crowd_core::model::WorkerClass;
use crowd_core::oracle::ComparisonCounts;
use crowd_core::trace::{tallied, FaultCounts};
use crowd_obs::{class_label, names as metric_names, Event, MetricSample, Recorder, SampleValue};
use serde::Serialize;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Names of all registered experiments, in paper order.
pub const EXPERIMENT_NAMES: [&str; 11] = [
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig9",
    "fig10",
    "table1",
    "table2",
    "search_eval",
];

/// Extra experiment backing a claim made in the Section 5.2 text.
pub const TEXT_EXPERIMENTS: [&str; 8] = [
    "phase1_survival",
    "lower_bounds",
    "latency",
    "budget_sweep",
    "ranking_quality",
    "fault_sweep",
    "chaos_sweep",
    "serve_sweep",
];

/// Runs one experiment by name.
///
/// # Errors
///
/// Rejects an unknown name with [`io::ErrorKind::InvalidInput`]. (The
/// batch runner validates names up front, so through that path this is
/// unreachable — but a library caller probing names directly gets a
/// diagnosable error, not a panic.)
pub fn run_experiment(name: &str, scale: &Scale) -> io::Result<Vec<Table>> {
    Ok(match name {
        "fig2" => vec![crate::fig2::run_dots(scale), crate::fig2::run_cars(scale)],
        "fig3" => crate::fig3::run(scale),
        "fig4" => crate::fig4::run(scale),
        "fig5" => crate::fig5::run(scale),
        "fig6" => crate::fig6::run(scale),
        "fig7" => crate::fig7::run(scale),
        "fig9" => crate::fig9::run(scale),
        "fig10" => crate::fig10::run(scale),
        "table1" => vec![crate::table1::run(scale)],
        "table2" => vec![crate::table2::run(scale)],
        "search_eval" => vec![crate::search_eval::run(scale)],
        "phase1_survival" => vec![crate::phase1_survival::run(scale)],
        "lower_bounds" => vec![crate::lower_bounds::run(scale)],
        "latency" => vec![crate::latency::run(scale)],
        "budget_sweep" => vec![crate::budget_sweep::run(scale)],
        "ranking_quality" => vec![crate::ranking_quality::run(scale)],
        "fault_sweep" => vec![crate::fault_sweep::run(scale)],
        "chaos_sweep" => vec![crate::chaos_sweep::run(scale)],
        "serve_sweep" => vec![
            crate::serve_sweep::run(scale),
            crate::serve_sweep::run_overlap(scale),
        ],
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                "unknown experiment {other:?}; known: {EXPERIMENT_NAMES:?} + {TEXT_EXPERIMENTS:?}"
            ),
            ))
        }
    })
}

/// True if `name` is a registered experiment.
pub fn is_known(name: &str) -> bool {
    EXPERIMENT_NAMES.contains(&name) || TEXT_EXPERIMENTS.contains(&name)
}

/// The nominal worker pool used for the manifest's physical-step estimate:
/// the middle of the [`crate::latency`] sweep for the plentiful naïve
/// crowd, a tenth of that for the scarce experts (`δe ≪ δn` workers are
/// rare — that is the paper's premise).
pub const NOMINAL_NAIVE_POOL: usize = 50;
/// Nominal expert-pool size for the physical-step estimate.
pub const NOMINAL_EXPERT_POOL: usize = 5;

/// Physical-step estimate for a comparison tally under the nominal pools:
/// `⌈naive/50⌉ + ⌈expert/5⌉`. Infallible because both pools are nonzero
/// constants — an [`EmptyPool`](crowd_platform::ScheduleError) here would
/// be a bug in this module, not a runtime condition.
pub fn nominal_physical_steps(comparisons: &ComparisonCounts) -> u64 {
    let naive = crowd_platform::physical_steps(comparisons.naive, NOMINAL_NAIVE_POOL);
    let expert = crowd_platform::physical_steps(comparisons.expert, NOMINAL_EXPERT_POOL);
    match (naive, expert) {
        (Ok(n), Ok(e)) => n + e,
        _ => unreachable!("nominal pools are nonzero constants"),
    }
}

/// Sums every counter sample named `name` in a metrics snapshot, across
/// label sets (0 when the metric was never emitted).
fn counter_total(snapshot: &[MetricSample], name: &str) -> u64 {
    snapshot
        .iter()
        .filter(|s| s.name == name)
        .map(|s| match s.value {
            SampleValue::Counter { value } => value,
            _ => 0,
        })
        .sum()
}

/// One experiment's entry in the run manifest.
#[derive(Debug, Clone, Serialize)]
pub struct ManifestEntry {
    /// Experiment name (the registry key).
    pub name: String,
    /// Number of tables the experiment produced.
    pub tables: usize,
    /// Wall-clock time of the experiment, in nanoseconds.
    pub wall_nanos: u64,
    /// Worker-performed comparisons, by class, counted in judgments (one
    /// per vote): the experiment's work tally, including work done on the
    /// threads it joined.
    pub comparisons: ComparisonCounts,
    /// Physical-step estimate under the paper's `⌈m/w⌉` batch-latency rule
    /// (Section 3) with the nominal pools: naïve comparisons over
    /// [`NOMINAL_NAIVE_POOL`] workers plus expert comparisons over
    /// [`NOMINAL_EXPERT_POOL`].
    pub physical_steps_estimate: u64,
    /// Platform and serve faults recorded while the experiment ran —
    /// dropouts, no-answers, timeouts, retries, dead letters, expert
    /// fallbacks — per worker class. All-zero for every experiment except
    /// the fault, chaos and serve sweeps.
    pub faults: FaultCounts,
    /// Write-ahead journal bytes made durable while the experiment ran
    /// (the [`crowd_journal_bytes_total`](metric_names::JOURNAL_BYTES)
    /// counter). Zero for every experiment that does not journal.
    pub journal_bytes: u64,
    /// Comparisons restored from journals during crash recovery instead
    /// of re-purchased (the
    /// [`crowd_replayed_comparisons_total`](metric_names::REPLAYED_COMPARISONS)
    /// counter). Nonzero only for the chaos and serve sweeps. The chaos
    /// sweep's platform resume counts answered *pairs*; the serve resume
    /// counts *judgments*, the unit of [`comparisons`](Self::comparisons).
    pub replayed_comparisons: u64,
}

/// Schema version of [`RunManifest`]. Bump when the manifest layout
/// changes shape; [`run_experiments`] refuses to overwrite a manifest
/// written by a *newer* schema (see `write_manifest`), so an old binary
/// cannot silently clobber results it does not understand.
pub const MANIFEST_VERSION: u64 = 3;

/// The machine-readable record of one `repro` run, written as
/// `manifest.json` next to the CSVs.
#[derive(Debug, Clone, Serialize)]
pub struct RunManifest {
    /// Manifest schema version ([`MANIFEST_VERSION`]). Manifests predating
    /// the field are treated as version 1.
    pub version: u64,
    /// Worker threads the run was allowed to use.
    pub jobs: usize,
    /// Scale label: `"quick"` or `"full"` (matching [`Scale`]).
    pub scale: String,
    /// Per-experiment records, in run order.
    pub experiments: Vec<ManifestEntry>,
}

/// Runs the named experiments (all of them if `names` is empty) across
/// [`engine::jobs`] worker threads, writing markdown + CSV plus a
/// `manifest.json` run record into `out_dir` and returning the tables.
///
/// Each experiment seeds every RNG it uses from [`Scale`], so the tables
/// and CSVs are byte-identical at any job count; only the manifest's
/// wall-clock fields vary between runs.
///
/// # Errors
///
/// Rejects unknown experiment names with [`io::ErrorKind::InvalidInput`]
/// (before any experiment runs) and propagates filesystem errors from
/// report writing.
pub fn run_experiments(names: &[String], scale: &Scale, out_dir: &Path) -> io::Result<Vec<Table>> {
    let selected: Vec<&str> = if names.is_empty() {
        EXPERIMENT_NAMES
            .iter()
            .chain(TEXT_EXPERIMENTS.iter())
            .copied()
            .collect()
    } else {
        names.iter().map(String::as_str).collect()
    };
    if let Some(unknown) = selected.iter().find(|name| !is_known(name)) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "unknown experiment {unknown:?}; known: {EXPERIMENT_NAMES:?} + {TEXT_EXPERIMENTS:?}"
            ),
        ));
    }

    // One run-level recorder scopes the whole selection: each experiment's
    // events and metrics funnel into it (via `parallel_map`'s ordered
    // segment replay when running threaded), and the aggregate is written
    // out below next to `manifest.json`. Wall-clock never enters the
    // recorder — it lives only in the manifest's informational fields — so
    // the observability files stay byte-identical at any job count.
    let recorder = Arc::new(Recorder::new());
    let results = {
        let _obs_guard = crowd_obs::install_recorder(recorder.clone());
        engine::parallel_map(selected, |name| {
            eprintln!("running {name} ...");
            crowd_obs::emit(Event::RunStarted {
                name: name.to_string(),
            });
            // A second, experiment-scoped recorder rides the thread-local
            // stack alongside the run-level one: every emission feeds both,
            // and this one's counter snapshot attributes journal/recovery
            // totals to the experiment that produced them.
            let experiment_rec = Arc::new(Recorder::new());
            let started = Instant::now();
            let (tables, tally) = {
                let _rec_guard = crowd_obs::install_recorder(experiment_rec.clone());
                tallied(|| run_experiment(name, scale))
            };
            let tables = tables?;
            let (comparisons, faults) = (tally.comparisons, tally.faults);
            let experiment_metrics = experiment_rec.metrics().snapshot();
            for (class, performed) in [
                (WorkerClass::Naive, comparisons.naive),
                (WorkerClass::Expert, comparisons.expert),
            ] {
                if performed > 0 {
                    crowd_obs::counter_add(
                        metric_names::COMPARISONS_TOTAL,
                        &[("class", class_label(class)), ("experiment", name)],
                        performed,
                    );
                }
            }
            crowd_obs::emit(Event::RunFinished {
                name: name.to_string(),
                comparisons_by_class: comparisons,
                faults: faults.total(),
            });
            let entry = ManifestEntry {
                name: name.to_string(),
                tables: tables.len(),
                wall_nanos: started.elapsed().as_nanos() as u64,
                comparisons,
                physical_steps_estimate: nominal_physical_steps(&comparisons),
                faults,
                journal_bytes: counter_total(&experiment_metrics, metric_names::JOURNAL_BYTES),
                replayed_comparisons: counter_total(
                    &experiment_metrics,
                    metric_names::REPLAYED_COMPARISONS,
                ),
            };
            io::Result::Ok((tables, entry))
        })
    };

    // Writes stay sequential and in selection order: output bytes must not
    // depend on which worker finished first.
    let mut all = Vec::new();
    let mut entries = Vec::new();
    for result in results {
        let (tables, entry) = result?;
        for table in tables {
            table.write_to(out_dir)?;
            all.push(table);
        }
        entries.push(entry);
    }
    write_summary(&all, out_dir)?;
    write_manifest(
        &RunManifest {
            version: MANIFEST_VERSION,
            jobs: engine::jobs(),
            scale: scale.label().to_string(),
            experiments: entries,
        },
        out_dir,
    )?;
    write_observability(&recorder, out_dir)?;
    Ok(all)
}

/// Writes `<dir>/manifest.json`.
///
/// Refuses ([`io::ErrorKind::InvalidData`]) to overwrite an existing
/// manifest whose `version` field exceeds [`MANIFEST_VERSION`]: a newer
/// schema may record things this writer would silently drop. A manifest
/// without a `version` field predates the field and counts as version 1;
/// an unparsable file is not a manifest and is overwritten.
fn write_manifest(manifest: &RunManifest, out_dir: &Path) -> io::Result<()> {
    let path = out_dir.join("manifest.json");
    if let Ok(existing) = std::fs::read_to_string(&path) {
        let existing_version = serde_json::from_str_value(&existing)
            .ok()
            .map_or(1, |value| {
                serde::field::<u64>(&value, "version").unwrap_or(1)
            });
        if existing_version > manifest.version {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "refusing to overwrite {}: it has manifest version \
                     {existing_version}, newer than this writer's {}",
                    path.display(),
                    manifest.version,
                ),
            ));
        }
    }
    let json = serde_json::to_string_pretty(manifest)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::create_dir_all(out_dir)?;
    std::fs::write(path, json + "\n")
}

/// Writes the run's observability artifacts next to the manifest:
/// `events.jsonl` (the structured event log), `spans.jsonl` (the causal
/// span log — analyze it with the `serve_trace` binary), `metrics.prom`
/// (Prometheus text exposition), and `metrics.json` (its JSON twin). All
/// four are wall-clock-free and byte-identical at any `--jobs` count.
fn write_observability(recorder: &Recorder, out_dir: &Path) -> io::Result<()> {
    let snapshot = recorder.metrics().snapshot();
    std::fs::create_dir_all(out_dir)?;
    std::fs::write(out_dir.join("events.jsonl"), recorder.log().to_jsonl())?;
    std::fs::write(out_dir.join("spans.jsonl"), recorder.span_log().to_jsonl())?;
    std::fs::write(
        out_dir.join("metrics.prom"),
        crowd_obs::render_prometheus(&snapshot),
    )?;
    std::fs::write(
        out_dir.join("metrics.json"),
        crowd_obs::render_json(&snapshot),
    )
}

/// Writes `<dir>/SUMMARY.md`: every produced table in one document, in run
/// order — the single file to diff against the paper.
fn write_summary(tables: &[Table], out_dir: &Path) -> io::Result<()> {
    use std::fmt::Write as _;
    let mut doc = String::from(
        "# Reproduction summary\n\nAll tables produced by this run, in paper order. \
         See EXPERIMENTS.md for the paper-vs-measured analysis.\n\n",
    );
    for t in tables {
        let _ = writeln!(doc, "{}", t.to_markdown());
    }
    std::fs::create_dir_all(out_dir)?;
    std::fs::write(out_dir.join("SUMMARY.md"), doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_registered_names_are_known() {
        for n in EXPERIMENT_NAMES.iter().chain(TEXT_EXPERIMENTS.iter()) {
            assert!(is_known(n));
        }
        assert!(!is_known("fig42"));
    }

    #[test]
    fn unknown_name_is_rejected_by_the_single_runner() {
        let err = run_experiment("fig42", &Scale::quick()).expect_err("fig42 is not registered");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("fig42"), "{err}");
    }

    #[test]
    fn run_experiments_writes_files_and_manifest() {
        let dir = std::env::temp_dir().join(format!("crowd_runner_test_{}", std::process::id()));
        let tables = run_experiments(&["table1".to_string()], &Scale::quick(), &dir)
            .expect("table1 runs and writes");
        assert_eq!(tables.len(), 1);
        assert!(dir.join("table1.md").exists());
        assert!(dir.join("table1.csv").exists());

        let manifest =
            std::fs::read_to_string(dir.join("manifest.json")).expect("manifest written");
        let parsed = serde_json::from_str_value(&manifest).expect("manifest is valid JSON");
        let experiments: Vec<serde::Value> =
            serde::field(&parsed, "experiments").expect("experiments array");
        assert_eq!(experiments.len(), 1);
        let name: String = serde::field(&experiments[0], "name").expect("name field");
        assert_eq!(name, "table1");
        let comparisons: serde::Value =
            serde::field(&experiments[0], "comparisons").expect("comparisons field");
        let naive: u64 = serde::field(&comparisons, "naive").expect("naive field");
        assert!(naive > 0, "table1 must perform naive comparisons");
        let steps: u64 = serde::field(&experiments[0], "physical_steps_estimate")
            .expect("physical_steps_estimate field");
        assert!(steps > 0);
        let journal_bytes: u64 =
            serde::field(&experiments[0], "journal_bytes").expect("journal_bytes field");
        assert_eq!(journal_bytes, 0, "table1 does not journal");
        let replayed: u64 = serde::field(&experiments[0], "replayed_comparisons")
            .expect("replayed_comparisons field");
        assert_eq!(replayed, 0, "table1 does not recover");
        let scale: String = serde::field(&parsed, "scale").expect("scale field");
        assert_eq!(scale, "quick");
        let version: u64 = serde::field(&parsed, "version").expect("version field");
        assert_eq!(version, MANIFEST_VERSION);

        // The observability artifacts land next to the manifest, and the
        // event log brackets the run with RunStarted/RunFinished.
        let events =
            std::fs::read_to_string(dir.join("events.jsonl")).expect("events.jsonl written");
        assert!(events.contains("RunStarted"), "{events}");
        assert!(events.contains("RunFinished"), "{events}");
        assert!(
            dir.join("spans.jsonl").exists(),
            "the span log lands next to the event log (empty here: table1 \
             completes no serve jobs)"
        );
        let prom = std::fs::read_to_string(dir.join("metrics.prom")).expect("metrics.prom written");
        assert!(
            prom.contains(metric_names::COMPARISONS_TOTAL),
            "comparisons counter expected in exposition: {prom}"
        );
        assert!(dir.join("metrics.json").exists());

        std::fs::remove_dir_all(&dir).expect("test dir removable");
    }

    #[test]
    fn manifest_with_newer_version_is_not_overwritten() {
        let dir = std::env::temp_dir().join(format!("crowd_runner_newer_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("test dir creatable");
        let newer = format!("{{\"version\": {}}}\n", MANIFEST_VERSION + 1);
        std::fs::write(dir.join("manifest.json"), &newer).expect("seed manifest written");

        let err = run_experiments(&["table1".to_string()], &Scale::quick(), &dir)
            .expect_err("a newer manifest must not be clobbered");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("newer"), "{err}");
        let untouched =
            std::fs::read_to_string(dir.join("manifest.json")).expect("manifest still present");
        assert_eq!(untouched, newer, "the newer manifest must be untouched");

        // A same-or-older manifest (including the pre-version schema, which
        // counts as version 1) is overwritten normally.
        std::fs::write(dir.join("manifest.json"), "{\"jobs\": 1}\n").expect("seed v1 manifest");
        run_experiments(&["table1".to_string()], &Scale::quick(), &dir)
            .expect("version-1 manifests are fair game");
        let rewritten =
            std::fs::read_to_string(dir.join("manifest.json")).expect("manifest rewritten");
        assert!(rewritten.contains("\"version\""), "{rewritten}");

        std::fs::remove_dir_all(&dir).expect("test dir removable");
    }

    #[test]
    fn unknown_name_is_an_error_not_a_panic() {
        let dir = std::env::temp_dir().join(format!("crowd_runner_unknown_{}", std::process::id()));
        let err = run_experiments(&["fig42".to_string()], &Scale::quick(), &dir)
            .expect_err("unknown names must be rejected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("fig42"), "{err}");
        assert!(!dir.exists(), "nothing may be written for a rejected run");
    }

    #[test]
    fn counter_total_sums_across_label_sets_and_skips_other_metrics() {
        use crowd_obs::MetricsRegistry;
        let registry = MetricsRegistry::new();
        registry.counter_add(metric_names::JOURNAL_BYTES, &[], 10);
        registry.counter_add(metric_names::JOURNAL_BYTES, &[("experiment", "x")], 5);
        registry.counter_add(metric_names::REPLAYED_COMPARISONS, &[], 7);
        let snapshot = registry.snapshot();
        assert_eq!(counter_total(&snapshot, metric_names::JOURNAL_BYTES), 15);
        assert_eq!(
            counter_total(&snapshot, metric_names::REPLAYED_COMPARISONS),
            7
        );
        assert_eq!(counter_total(&snapshot, "crowd_absent_total"), 0);
    }

    #[test]
    fn nominal_physical_steps_follows_the_ceil_rule() {
        let counts = ComparisonCounts {
            naive: 101,
            expert: 11,
        };
        // ⌈101/50⌉ + ⌈11/5⌉ = 3 + 3.
        assert_eq!(nominal_physical_steps(&counts), 6);
        assert_eq!(nominal_physical_steps(&ComparisonCounts::default()), 0);
    }
}
