//! The reproducible benchmark pipeline behind the `bench` binary.
//!
//! Runs the hot paths of the reproduction — sequential Phase-1 filtering,
//! the [`parallel_filter_candidates`] fan-out, 2-MaxFind on the Phase-1
//! survivors, and the full two-phase run — across catalog-size tiers, and
//! assembles a [`BenchReport`] that the binary writes as
//! `BENCH_results.json`.
//!
//! The report holds only [`BenchMeta`]: comparison counts, rounds,
//! survivor/peak candidate-set sizes and the `⌈m/w⌉` physical-step
//! estimate. Every RNG is seeded from the report seed (per group via
//! [`group_seed`] on the parallel path), so the report is
//! **byte-identical at any `--jobs` count**; CI diffs it against the
//! committed baseline and fails on comparison-count drift. Wall-clock
//! numbers are the repository benchmark's job (`perfbench/`), which
//! samples them repeatedly with their spread.

use crowd_core::algorithms::{
    expert_max_find, filter_candidates, two_max_find, ExpertMaxConfig, FilterConfig, FilterOutcome,
};
use crowd_core::element::Instance;
use crowd_core::model::{ExpertModel, TiePolicy, WorkerClass};
use crowd_core::oracle::SimulatedOracle;
use crowd_experiments::runner::nominal_physical_steps;
use crowd_experiments::{group_seed, parallel_filter_candidates};
use crowd_obs::{names as metric_names, MetricSample, Recorder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::sync::Arc;

/// Default report seed (the binary's `--seed` default).
pub const DEFAULT_SEED: u64 = 0xB0A7;

/// One catalog-size tier of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct TierSpec {
    /// Catalog size `n`.
    pub n: usize,
    /// Planted `un(n)`.
    pub un: usize,
    /// Planted `ue(n)`.
    pub ue: usize,
}

/// The tier for a catalog size `n`, at the pipeline's default worker
/// parameters: `un = ⌈n^(1/3)⌉` (so Phase 1 has real work at every size)
/// and `ue = max(2, un/4)`.
pub fn tier_for(n: usize) -> TierSpec {
    let un = (n as f64).cbrt().ceil() as usize;
    TierSpec {
        n,
        un,
        ue: (un / 4).max(2),
    }
}

/// The tiers of a named tier set: `small` is n ∈ {10³, 10⁴}, `full` adds
/// n = 10⁵ (the CI smoke tier), and `large` adds n = 10⁶ for offline
/// scaling runs. Unknown names return `None`.
pub fn tiers(name: &str) -> Option<Vec<TierSpec>> {
    match name {
        "small" => Some(vec![tier_for(1_000), tier_for(10_000)]),
        "full" => Some(vec![tier_for(1_000), tier_for(10_000), tier_for(100_000)]),
        "large" => Some(vec![
            tier_for(1_000),
            tier_for(10_000),
            tier_for(100_000),
            tier_for(1_000_000),
        ]),
        _ => None,
    }
}

/// Deterministic statistics of one benchmark section.
#[derive(Debug, Clone, Serialize)]
pub struct SectionMeta {
    /// Naïve comparisons performed.
    pub naive_comparisons: u64,
    /// Expert comparisons performed.
    pub expert_comparisons: u64,
    /// Rounds executed (filter rounds, or 2-MaxFind elimination rounds).
    pub rounds: usize,
    /// Peak candidate-set size: the largest working set after the first
    /// shrink — i.e. the biggest survivor set any later round (or the
    /// expert phase) had to carry.
    pub peak_candidates: usize,
    /// Elements alive when the section finished (1 for a max-find).
    pub survivors: usize,
    /// Physical-step estimate under the paper's `⌈m/w⌉` batch-latency rule
    /// with the nominal pools of [`crowd_experiments::runner`].
    pub physical_steps: u64,
}

/// Deterministic statistics of one tier.
#[derive(Debug, Clone, Serialize)]
pub struct TierMeta {
    /// Catalog size.
    pub n: usize,
    /// Planted `un(n)`.
    pub un: usize,
    /// Planted `ue(n)`.
    pub ue: usize,
    /// Sequential arena filter ([`filter_candidates`]).
    pub filter: SectionMeta,
    /// Parallel filter ([`parallel_filter_candidates`]).
    pub filter_parallel: SectionMeta,
    /// 2-MaxFind (expert class) on the sequential filter's survivors.
    pub expert: SectionMeta,
    /// Full two-phase [`expert_max_find`] run.
    pub full: SectionMeta,
}

/// The contents of a [`BenchReport`] — the CI baseline.
#[derive(Debug, Clone, Serialize)]
pub struct BenchMeta {
    /// Report schema version.
    pub schema: u32,
    /// Tier-set label (`"small"` or `"full"`).
    pub tier: String,
    /// Seed every section derives its RNG streams from.
    pub seed: u64,
    /// Per-tier deterministic statistics.
    pub tiers: Vec<TierMeta>,
    /// Aggregated `crowd-obs` metrics of the whole run: per-tier histograms
    /// of round survivor-set sizes ([`crowd_obs::names::ROUND_SURVIVORS`])
    /// and section comparison totals
    /// ([`crowd_obs::names::ROUND_COMPARISONS`]), labelled by catalog size
    /// and section. Derived from the deterministic counts, so this section
    /// is part of the CI baseline.
    pub metrics: Vec<MetricSample>,
}

/// A full benchmark report, as written to `BENCH_results.json`.
#[derive(Debug, Clone, Serialize)]
pub struct BenchReport {
    /// Deterministic statistics (byte-identical at any job count).
    pub meta: BenchMeta,
}

impl BenchReport {
    /// The report as pretty-printed JSON, newline-terminated.
    ///
    /// # Panics
    ///
    /// Panics if serialization fails (the report is a plain value tree, so
    /// it cannot).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes") + "\n"
    }
}

/// Runs every tier and assembles the report. `label` is the tier-set name
/// recorded in the metadata (use [`tiers`] to resolve the standard sets).
pub fn run_bench(label: &str, specs: &[TierSpec], seed: u64) -> BenchReport {
    // A scoped recorder collects each tier's histograms; the snapshot lands
    // in the report (the values are derived from the section counts, never
    // from wall time).
    let recorder = Arc::new(Recorder::new());
    let metas = {
        let _guard = crowd_obs::install_recorder(recorder.clone());
        specs.iter().map(|spec| run_tier(*spec, seed)).collect()
    };
    BenchReport {
        meta: BenchMeta {
            schema: 3,
            tier: label.to_string(),
            seed,
            tiers: metas,
            metrics: recorder.metrics().snapshot(),
        },
    }
}

/// Runs one tier: plant the instance, then run each section on a fresh
/// oracle seeded from `seed` (so sections are independent and the metadata
/// does not depend on section order or job count).
pub fn run_tier(spec: TierSpec, seed: u64) -> TierMeta {
    let (instance, model) = setup(spec, seed);
    let ids = instance.ids();
    let cfg = FilterConfig::new(spec.un);

    // Sequential arena filter.
    let mut oracle = fresh_oracle(&instance, &model, seed ^ 1);
    let seq = filter_candidates(&mut oracle, &ids, &cfg);
    let seq_meta = filter_meta(&seq);

    // Parallel filter: one oracle per (round, group), seeded from the
    // group coordinates — byte-identical at any job count.
    let par = parallel_filter_candidates(
        |round, group| fresh_oracle(&instance, &model, group_seed(seed, round, group)),
        &ids,
        &cfg,
    );
    let par_meta = filter_meta(&par);

    // Expert phase (2-MaxFind) on the sequential filter's survivors.
    let mut oracle = fresh_oracle(&instance, &model, seed ^ 2);
    let expert = two_max_find(&mut oracle, WorkerClass::Expert, &seq.survivors);
    let expert_meta = SectionMeta {
        naive_comparisons: expert.comparisons.naive,
        expert_comparisons: expert.comparisons.expert,
        rounds: expert.rounds,
        peak_candidates: seq.survivors.len(),
        survivors: 1,
        physical_steps: nominal_physical_steps(&expert.comparisons),
    };

    // Full two-phase run.
    let mut oracle = fresh_oracle(&instance, &model, seed ^ 3);
    let mut rng = StdRng::seed_from_u64(seed ^ 4);
    let full = expert_max_find(&mut oracle, &ids, &ExpertMaxConfig::new(spec.un), &mut rng);
    let full_meta = SectionMeta {
        naive_comparisons: full.total_comparisons.naive,
        expert_comparisons: full.total_comparisons.expert,
        rounds: full.phase1.rounds,
        peak_candidates: peak_after_first_round(&full.phase1.sizes),
        survivors: 1,
        physical_steps: nominal_physical_steps(&full.total_comparisons),
    };

    record_tier_metrics(
        spec,
        &[
            ("filter", &seq_meta),
            ("filter_parallel", &par_meta),
            ("expert", &expert_meta),
            ("full", &full_meta),
        ],
        &[
            ("filter", &seq.sizes),
            ("filter_parallel", &par.sizes),
            ("full", &full.phase1.sizes),
        ],
    );

    TierMeta {
        n: spec.n,
        un: spec.un,
        ue: spec.ue,
        filter: seq_meta,
        filter_parallel: par_meta,
        expert: expert_meta,
        full: full_meta,
    }
}

/// Feeds one tier's deterministic statistics into any installed `crowd-obs`
/// recorder: a histogram observation per section comparison total (by
/// class) and one per round survivor-set size. A no-op when the tier runs
/// outside [`run_bench`]'s recorder scope.
fn record_tier_metrics(
    spec: TierSpec,
    sections: &[(&str, &SectionMeta)],
    round_sizes: &[(&str, &Vec<usize>)],
) {
    let n = spec.n.to_string();
    for (section, meta) in sections {
        for (class, performed) in [
            ("naive", meta.naive_comparisons),
            ("expert", meta.expert_comparisons),
        ] {
            crowd_obs::observe(
                metric_names::ROUND_COMPARISONS,
                &[("class", class), ("n", &n), ("section", section)],
                performed,
            );
        }
    }
    for (section, sizes) in round_sizes {
        for &size in sizes.iter() {
            crowd_obs::observe(
                metric_names::ROUND_SURVIVORS,
                &[("n", &n), ("section", section)],
                size as u64,
            );
        }
    }
}

/// Plants the tier's instance and worker model from the report seed.
fn setup(spec: TierSpec, seed: u64) -> (Instance, ExpertModel) {
    let mut rng = StdRng::seed_from_u64(seed ^ (spec.n as u64));
    let planted = crowd_datasets::synthetic::planted_instance(spec.n, spec.un, spec.ue, &mut rng);
    let model = ExpertModel::exact(planted.delta_n, planted.delta_e, TiePolicy::UniformRandom);
    (planted.instance, model)
}

/// A simulated oracle borrowing the planted instance, with its own RNG
/// stream. Borrowing matters on the parallel path: one oracle is built per
/// (round, group), and cloning the instance there used to dominate the
/// runtime at large `n`.
fn fresh_oracle<'a>(
    instance: &'a Instance,
    model: &ExpertModel,
    seed: u64,
) -> SimulatedOracle<StdRng, &'a Instance> {
    SimulatedOracle::new(instance, model.clone(), StdRng::seed_from_u64(seed))
}

/// [`SectionMeta`] of a filter outcome.
fn filter_meta(out: &FilterOutcome) -> SectionMeta {
    SectionMeta {
        naive_comparisons: out.comparisons.naive,
        expert_comparisons: out.comparisons.expert,
        rounds: out.rounds,
        peak_candidates: peak_after_first_round(&out.sizes),
        survivors: out.survivors.len(),
        physical_steps: nominal_physical_steps(&out.comparisons),
    }
}

/// The largest survivor set after any completed round (the first entry is
/// the input size `n`; with no rounds that trivial value is the peak, and
/// an empty trace has none).
fn peak_after_first_round(sizes: &[usize]) -> usize {
    match sizes.split_first() {
        Some((first, rest)) => rest.iter().copied().max().unwrap_or(*first),
        None => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_experiments::engine;

    fn tiny() -> Vec<TierSpec> {
        vec![TierSpec {
            n: 240,
            un: 6,
            ue: 2,
        }]
    }

    #[test]
    fn metadata_is_byte_identical_across_job_counts() {
        engine::set_jobs(1);
        let serial = run_bench("tiny", &tiny(), 9);
        engine::set_jobs(4);
        let parallel = run_bench("tiny", &tiny(), 9);
        engine::set_jobs(0);
        assert_eq!(serial.to_json(), parallel.to_json());
    }

    /// The CI-diffed report contains no machine-dependent field — not the
    /// job count and not a single wall-clock or throughput number.
    #[test]
    fn metadata_carries_no_machine_dependent_fields() {
        let report = run_bench("tiny", &tiny(), 3);
        assert_eq!(report.meta.schema, 3);
        let json = report.to_json();
        for forbidden in [
            "\"jobs\"",
            "\"wall_nanos\"",
            "\"comparisons_per_sec\"",
            "\"run\"",
            "\"timings\"",
        ] {
            assert!(
                !json.contains(forbidden),
                "the report leaked the machine-dependent field {forbidden}"
            );
        }
    }

    #[test]
    fn report_json_is_the_meta_half_only() {
        let report = run_bench("tiny", &tiny(), 5);
        let parsed = serde_json::from_str_value(&report.to_json()).expect("valid JSON");
        let serde::Value::Object(top) = &parsed else {
            panic!("the report is a JSON object: {parsed:?}");
        };
        assert_eq!(top.len(), 1, "the report holds only `meta`");
        let meta: serde::Value = serde::field(&parsed, "meta").expect("meta half");
        let tiers: Vec<serde::Value> = serde::field(&meta, "tiers").expect("tier list");
        assert_eq!(tiers.len(), 1);
        let filter: serde::Value = serde::field(&tiers[0], "filter").expect("filter section");
        let naive: u64 = serde::field(&filter, "naive_comparisons").expect("naive count");
        assert!(naive > 0, "the filter must do naive work");
        let steps: u64 = serde::field(&filter, "physical_steps").expect("physical steps");
        assert!(steps > 0);
        // The report carries the metrics section: survivor-size
        // and comparison histograms recorded through crowd-obs.
        let metrics: Vec<serde::Value> = serde::field(&meta, "metrics").expect("metrics section");
        assert!(!metrics.is_empty(), "metrics section must not be empty");
        let names: Vec<String> = metrics
            .iter()
            .map(|m| serde::field(m, "name").expect("metric name"))
            .collect();
        assert!(names.iter().any(|n| n == metric_names::ROUND_SURVIVORS));
        assert!(names.iter().any(|n| n == metric_names::ROUND_COMPARISONS));
    }

    #[test]
    fn sections_agree_on_the_planted_instance() {
        let meta = run_tier(tier_for(600), 11);
        // Both filter paths must shrink below 2·un and keep an expert-phase
        // workload of at least one element.
        assert!(meta.filter.survivors < 2 * meta.un);
        assert!(meta.filter_parallel.survivors < 2 * meta.un);
        assert!(meta.filter.survivors >= 1);
        // The full run's totals dominate its phase-1 share.
        assert!(meta.full.naive_comparisons >= meta.filter.naive_comparisons / 2);
        assert!(meta.full.expert_comparisons > 0);
    }

    #[test]
    fn named_tier_sets_resolve() {
        assert_eq!(tiers("small").expect("small set").len(), 2);
        assert_eq!(tiers("full").expect("full set").len(), 3);
        assert_eq!(tiers("large").expect("large set").len(), 4);
        assert!(tiers("bogus").is_none());
        let t = tier_for(1_000);
        assert_eq!((t.un, t.ue), (10, 2));
    }

    #[test]
    fn peak_handles_degenerate_size_traces() {
        assert_eq!(peak_after_first_round(&[]), 0);
        assert_eq!(peak_after_first_round(&[7]), 7);
        assert_eq!(peak_after_first_round(&[100, 40, 60, 12]), 60);
    }
}
