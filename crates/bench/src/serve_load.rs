//! The `serve_load` benchmark pipeline: throughput and tail latency of
//! the crowd-serve service layer under seeded load, written to
//! `SERVE_results.json`.
//!
//! Like [`crate::pipeline`], the report holds only its `meta` half
//! (admission, shedding, degradation, breaker, and latency statistics per
//! scenario), which is fully deterministic — byte-identical on any machine
//! at any job count — and is committed as the CI baseline. Wall-clock
//! numbers come from the repository benchmark, `perfbench/`.

use crowd_core::model::WorkerClass;
use crowd_obs::{install_recorder, Recorder};
use crowd_platform::fault::{FaultConfig, LatencyModel};
use crowd_platform::serve::{
    ArrivalPlan, CrowdServe, ServeConfig, ShardSpec, SloPolicy, TenantId, TenantPolicy,
};
use serde::Serialize;
use std::sync::Arc;

/// Default seed, shared with the committed `SERVE_results.json`.
pub const DEFAULT_SEED: u64 = 45223;

/// Report schema version. v2: rounded `shed_bps` that is omitted (not
/// zero) when no load was offered, latency columns omitted when no job
/// completed, a `4x` scenario, catalog overlap, and judgment-cache
/// columns. v3: per-scenario SLO columns (`slo_breaches`,
/// `slo_burn_max_bps`) from the per-tenant sliding-window monitors.
pub const SCHEMA: u32 = 3;

/// Ticks generous enough that every scenario drains naturally.
const MAX_TICKS: u64 = 2_000;

/// One load scenario: a label plus the arrival rate (jobs per tick as
/// `num/den`) driven at the shared service config.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioSpec {
    /// Display label, e.g. `"0.5x"`.
    pub label: String,
    /// Arrival-rate numerator.
    pub rate_num: u64,
    /// Arrival-rate denominator.
    pub rate_den: u64,
    /// Jobs offered over the run.
    pub total_jobs: u64,
    /// Catalog overlap percentage fed to the arrival plan (see
    /// [`ArrivalPlan::with_overlap`]).
    pub overlap_percent: u32,
}

/// Shared-universe size used by every scenario's arrival plan.
const OVERLAP_UNIVERSE: u32 = 12;

/// The standard scenario set: arrival-rate multipliers of the nominal
/// one-job-per-tick load. `0.5x` is comfortably inside the admission
/// envelope; `2x` and `4x` are far outside it and must shed. Every
/// scenario runs at 50% catalog overlap so the judgment-cache columns
/// measure real cross-job reuse at each load tier.
pub fn scenarios() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec {
            label: "0.5x".into(),
            rate_num: 1,
            rate_den: 2,
            total_jobs: 240,
            overlap_percent: 50,
        },
        ScenarioSpec {
            // At one job per tick the token buckets' reservation envelope
            // is already the binding constraint, so this rate sheds too —
            // the shed-rate column makes that knee visible.
            label: "1x".into(),
            rate_num: 1,
            rate_den: 1,
            total_jobs: 240,
            overlap_percent: 50,
        },
        ScenarioSpec {
            label: "2x".into(),
            rate_num: 3,
            rate_den: 1,
            total_jobs: 240,
            overlap_percent: 50,
        },
        ScenarioSpec {
            // Deep overload: most of the offered load must shed, and the
            // latency columns exercise their no-completions edge case in
            // tests at this tier.
            label: "4x".into(),
            rate_num: 6,
            rate_den: 1,
            total_jobs: 240,
            overlap_percent: 50,
        },
    ]
}

/// The benchmarked service config: two tenants with tight budgets, two
/// naive shards (one mildly faulty, so breakers and retries do real
/// work) and a small expert shard.
pub fn bench_config() -> ServeConfig {
    ServeConfig::basic()
        .with_tenants(vec![
            TenantPolicy::new(TenantId(0), 600, 16),
            TenantPolicy::new(TenantId(1), 300, 8),
        ])
        .with_shards(vec![
            ShardSpec::honest(WorkerClass::Naive, 12, 36).with_fault(
                FaultConfig::none()
                    .with_no_answer(0.10)
                    .with_abandon(0.05)
                    .with_latency(LatencyModel::Geometric { p: 0.7, cap: 6 })
                    .with_timeout_steps(4),
            ),
            ShardSpec::honest(WorkerClass::Naive, 12, 36),
            ShardSpec::honest(WorkerClass::Expert, 4, 12),
        ])
        .with_queue_cap(4)
        // Tighter than the serve sweep's posture: this config's generous
        // buckets and warm cache keep p99 under 10 ticks at every load,
        // so the objective sits at 5 ticks to make queue pressure visible
        // in the SLO columns.
        .with_slo(
            SloPolicy::default_on()
                .with_latency_objective(5)
                .with_bad_budget_bps(2_000),
        )
}

/// Deterministic statistics of one scenario — part of the CI baseline.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioMeta {
    /// Scenario label.
    pub label: String,
    /// Logical ticks the run took to drain.
    pub ticks: u64,
    /// Jobs offered (submitted) across tenants.
    pub offered: u64,
    /// Jobs admitted, immediately or via the queue.
    pub admitted: u64,
    /// Jobs shed by admission control.
    pub shed: u64,
    /// Shed rate in basis points of offered load, rounded to the nearest
    /// basis point. `None` when the scenario offered no load at all —
    /// "nothing offered" is not the same fact as "nothing shed".
    pub shed_bps: Option<u64>,
    /// Jobs that completed with no degradation label.
    pub completed_ok: u64,
    /// Jobs that completed with an explicit degradation label.
    pub degraded: u64,
    /// Comparisons charged across tenants.
    pub comparisons: u64,
    /// Pair verdicts served from the cross-job judgment cache.
    pub cache_hits: u64,
    /// Comparisons (votes) those hits would otherwise have bought.
    pub cache_saved_comparisons: u64,
    /// Cache hit rate in basis points of lookups, rounded. `None` when
    /// the run performed no lookups.
    pub cache_hit_rate_bps: Option<u64>,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
    /// Pairs dead-lettered mid-tournament.
    pub dead_letters: u64,
    /// SLO breach transitions, summed over tenants.
    pub slo_breaches: u64,
    /// Worst per-tenant error-budget burn over the run, in basis points.
    pub slo_burn_max_bps: u32,
    /// Worst p99 job latency over tenants that completed at least one
    /// job, in ticks. `None` when no tenant completed anything — folding
    /// a default 0 here would report "instant" for "no data".
    pub p99_latency_ticks: Option<u64>,
    /// Worst max job latency over tenants that completed at least one
    /// job, in ticks; `None` under the same no-completions rule.
    pub max_latency_ticks: Option<u64>,
    /// Durable write-ahead journal bytes the run produced.
    pub journal_bytes: u64,
}

/// `numer · 10000 / denom`, rounded to the nearest basis point; `None`
/// when `denom` is zero (the ratio is undefined, not zero).
fn ratio_bps(numer: u64, denom: u64) -> Option<u64> {
    if denom == 0 {
        return None;
    }
    Some((numer.saturating_mul(10_000) + denom / 2) / denom)
}

/// The contents of a [`ServeLoadReport`] — the CI baseline.
#[derive(Debug, Clone, Serialize)]
pub struct ServeLoadMeta {
    /// Report schema version.
    pub schema: u32,
    /// Seed every scenario derives its streams from.
    pub seed: u64,
    /// Per-scenario deterministic statistics.
    pub scenarios: Vec<ScenarioMeta>,
}

/// The full `serve_load` report, as written to `SERVE_results.json`.
#[derive(Debug, Clone, Serialize)]
pub struct ServeLoadReport {
    /// Deterministic statistics (byte-identical on any machine).
    pub meta: ServeLoadMeta,
}

impl ServeLoadReport {
    /// The report as pretty-printed JSON, newline-terminated.
    ///
    /// # Panics
    ///
    /// Panics if serialization fails (the report is a plain value tree,
    /// so it cannot).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes") + "\n"
    }
}

/// The arrival plan of scenario number `idx`.
fn scenario_plan(seed: u64, idx: usize, spec: &ScenarioSpec) -> ArrivalPlan {
    ArrivalPlan::new(
        seed ^ (idx as u64).wrapping_mul(0x9E37_79B9),
        spec.rate_num,
        spec.rate_den,
        spec.total_jobs,
        2,
    )
    .with_catalog(4, 9)
    .with_deadline(40)
    .with_overlap(spec.overlap_percent, OVERLAP_UNIVERSE)
}

/// Runs every scenario in order and assembles the report.
pub fn run_serve_load(seed: u64) -> ServeLoadReport {
    let mut metas = Vec::new();
    for (idx, spec) in scenarios().iter().enumerate() {
        let plan = scenario_plan(seed, idx, spec);
        // A scoped recorder keeps obs traffic off the global sink; the
        // deterministic numbers come from the service report itself.
        let _guard = install_recorder(Arc::new(Recorder::new()));
        let mut service = CrowdServe::new(bench_config(), seed).expect("config is valid");
        let report = service
            .run(&plan, MAX_TICKS)
            .expect("a valid arrival plan runs to the end");

        let offered: u64 = report.tenants.iter().map(|t| t.offered).sum();
        let admitted: u64 = report.tenants.iter().map(|t| t.admitted).sum();
        let completed_ok: u64 = report.tenants.iter().map(|t| t.completed_ok).sum();
        let degraded: u64 = report.tenants.iter().map(|t| t.degraded).sum();
        let cache = service.cache_stats();
        // Latency aggregation only over tenants that completed a job;
        // a tenant with nothing completed has no latency distribution,
        // and folding its default 0 would corrupt the worst-case view.
        let finished = || {
            report
                .tenants
                .iter()
                .filter(|t| t.completed_ok + t.degraded > 0)
        };
        metas.push(ScenarioMeta {
            label: spec.label.clone(),
            ticks: report.ticks,
            offered,
            admitted,
            shed: report.shed,
            shed_bps: ratio_bps(report.shed, offered),
            completed_ok,
            degraded,
            comparisons: report.comparisons,
            cache_hits: cache.hits,
            cache_saved_comparisons: cache.saved_comparisons,
            cache_hit_rate_bps: ratio_bps(cache.hits, cache.lookups),
            breaker_trips: report.breaker_trips,
            dead_letters: report.dead_letters,
            slo_breaches: report.tenants.iter().map(|t| t.slo_breaches).sum(),
            slo_burn_max_bps: report
                .tenants
                .iter()
                .map(|t| t.slo_burn_max_bps)
                .max()
                .unwrap_or(0),
            p99_latency_ticks: finished().map(|t| t.p99_latency_ticks).max(),
            max_latency_ticks: finished().map(|t| t.max_latency_ticks).max(),
            journal_bytes: service.journal().durable().len() as u64,
        });
    }
    ServeLoadReport {
        meta: ServeLoadMeta {
            schema: SCHEMA,
            seed,
            scenarios: metas,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_platform::journal::{fnv1a64, JOURNAL_VERSION};
    use crowd_platform::Journal;

    #[test]
    fn metadata_is_deterministic() {
        let a = run_serve_load(DEFAULT_SEED);
        let b = run_serve_load(DEFAULT_SEED);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn half_load_journal_bytes_are_pinned() {
        // Length and hash of the `0.5x` run's durable journal as
        // `serde_json` wrote every record: any byte drift in the service
        // journal, from any layer, changes them.
        let spec = &scenarios()[0];
        assert_eq!(spec.label, "0.5x");
        let _guard = install_recorder(Arc::new(Recorder::new()));
        let mut service = CrowdServe::new(bench_config(), DEFAULT_SEED).expect("config is valid");
        service
            .run(&scenario_plan(DEFAULT_SEED, 0, spec), MAX_TICKS)
            .expect("a valid arrival plan runs to the end");
        let journal = service.journal().durable().to_vec();
        assert_eq!(journal.len(), 193_826);
        assert_eq!(fnv1a64(&journal), 0x9570_7966_fd1f_623f);

        // The records inside the frames. These pins predate the move of
        // the frame checksum from FNV-1a to `frame_sum` (journal version
        // 2 to 3), which changed only the checksums and the header's
        // version number: every tick record kept its bytes.
        let frames = Journal::decode_json(&journal).frames;
        assert_eq!(frames.len(), 1260);
        assert_eq!(
            frames[0].0,
            format!(
                "{{\"Started\":{{\"version\":{JOURNAL_VERSION},\"seed\":{DEFAULT_SEED},\"config_digest\":5205225891482106070}}}}"
            )
        );
        let records: Vec<u8> = frames[1..]
            .iter()
            .flat_map(|(json, _)| json.bytes())
            .collect();
        assert_eq!(records.len(), 166_443);
        assert_eq!(fnv1a64(&records), 0x3f85_8e89_ec81_e133);
    }

    #[test]
    fn scenarios_cover_under_and_overload() {
        let report = run_serve_load(DEFAULT_SEED);
        assert_eq!(report.meta.scenarios.len(), 4);
        let under = &report.meta.scenarios[0];
        let over = &report.meta.scenarios[2];
        assert_eq!(under.shed, 0, "half load must not shed: {under:?}");
        assert_eq!(
            under.shed_bps,
            Some(0),
            "offered load with zero shed is a real 0"
        );
        assert!(over.shed > 0, "double load must shed: {over:?}");
        for s in &report.meta.scenarios {
            assert_eq!(s.offered, s.admitted + s.shed, "{s:?}");
            assert_eq!(s.admitted, s.completed_ok + s.degraded, "{s:?}");
            assert!(
                s.cache_hits > 0,
                "50% overlap must produce cache hits: {s:?}"
            );
            assert!(s.cache_saved_comparisons >= s.cache_hits, "{s:?}");
        }
    }

    #[test]
    fn slo_burn_tracks_the_load_gradient() {
        let report = run_serve_load(DEFAULT_SEED);
        let s = &report.meta.scenarios;
        assert_eq!(
            (s[0].slo_breaches, s[0].slo_burn_max_bps),
            (0, 0),
            "half load stays inside the objective: {:?}",
            s[0]
        );
        assert_eq!(
            s[1].slo_breaches, 0,
            "1x burns budget without breaching: {:?}",
            s[1]
        );
        assert!(s[1].slo_burn_max_bps > 0, "{:?}", s[1]);
        for over in &s[2..] {
            assert!(
                over.slo_breaches > 0,
                "overload tiers must breach the objective: {over:?}"
            );
            assert!(over.slo_burn_max_bps > 2_000, "{over:?}");
        }
    }

    #[test]
    fn shed_bps_rounds_to_nearest_and_distinguishes_no_offered_load() {
        // 1/3 shed = 3333.33… bps: truncation said 3333, and so does
        // rounding; 2/3 = 6666.67 bps must round *up* to 6667.
        assert_eq!(ratio_bps(1, 3), Some(3333));
        assert_eq!(ratio_bps(2, 3), Some(6667));
        assert_eq!(ratio_bps(1, 2), Some(5000));
        assert_eq!(ratio_bps(0, 7), Some(0));
        // Zero offered load is "no data", not "0 bps shed".
        assert_eq!(ratio_bps(0, 0), None);
        assert_eq!(ratio_bps(5, 0), None);
    }

    #[test]
    fn latency_columns_skip_tenants_with_no_completions_at_4x() {
        // The 4x overload tier, but with budgets so tight that no job
        // is ever admitted: every tenant finishes the run with zero
        // completions, and the worst-per-tenant latency columns must
        // say "no data", not fold a default 0.
        let spec = scenarios().pop().expect("4x scenario exists");
        assert_eq!(spec.label, "4x");
        let plan = ArrivalPlan::new(
            DEFAULT_SEED,
            spec.rate_num,
            spec.rate_den,
            spec.total_jobs,
            2,
        )
        .with_catalog(4, 9)
        .with_deadline(40);
        let config = bench_config().with_tenants(vec![
            TenantPolicy::new(TenantId(0), 1, 0),
            TenantPolicy::new(TenantId(1), 1, 0),
        ]);
        let mut service = CrowdServe::new(config, DEFAULT_SEED).expect("config is valid");
        let report = service
            .run(&plan, MAX_TICKS)
            .expect("a valid arrival plan runs to the end");
        assert!(report.jobs.is_empty(), "budgets admit nothing");
        let finished: Vec<_> = report
            .tenants
            .iter()
            .filter(|t| t.completed_ok + t.degraded > 0)
            .collect();
        assert!(finished.is_empty());
        let p99: Option<u64> = finished.iter().map(|t| t.p99_latency_ticks).max();
        let max: Option<u64> = finished.iter().map(|t| t.max_latency_ticks).max();
        assert_eq!(p99, None, "no completions anywhere must surface as None");
        assert_eq!(max, None);
        // And the shed column still reports a real rate for the load
        // that *was* offered and entirely shed.
        let offered: u64 = report.tenants.iter().map(|t| t.offered).sum();
        assert!(offered > 0);
        assert_eq!(ratio_bps(report.shed, offered), Some(10_000));
    }
}
