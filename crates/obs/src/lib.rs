//! Observability for the max-finding reproduction: one subsystem for the
//! events, spans and metrics every layer reports. Its recorder stack is the
//! only thread-local stack in the workspace; `crowd_core` keeps just a
//! plain per-thread work tally beside it.
//!
//! Three cooperating pieces live here:
//!
//! * [`MetricsRegistry`] — monotonic counters, high-watermark gauges and
//!   fixed-bucket histograms keyed by metric name plus a small label set.
//!   Registries merge deterministically (counters and histogram buckets by
//!   sum, gauges by maximum), which is what lets per-worker registries
//!   aggregate across `parallel_map` fan-out without ordering artifacts.
//!   Series are interned process-wide; hot sites update through
//!   pre-registered [`CounterId`]/[`GaugeId`]/[`HistogramId`] handles
//!   (the enumerable ones live in [`series`]), cold sites by name.
//! * [`Event`] / [`EventLog`] — a structured, append-only event stream
//!   (`RunStarted`, `RoundCompleted`, `PhaseTransition`, fault and
//!   recovery events, `RunFinished`) serialized as JSONL. Records carry a
//!   **logical-clock sequence number** instead of wall time, so a run's
//!   log is byte-identical at any `--jobs` count.
//! * [`Span`] / [`SpanLog`] — deterministic causal spans on the logical
//!   clock: every completed serve job's latency is partitioned across the
//!   pipeline stages ([`Stage`]) that consumed it, serialized as sorted
//!   JSONL next to the event log and reconciled exactly against
//!   `latency_ticks()` by [`SpanLog::reconcile`].
//! * [`Recorder`] — the thread-local collection point: [`install_recorder`]
//!   scopes a recorder to the current thread, [`emit`]/[`counter_add`]/
//!   [`observe`]/[`gauge_set`] feed every installed recorder, and
//!   [`record_segment`]/[`replay`] let a parallel runner buffer one work
//!   item's output on a worker thread and splice it back in input order.
//!   Writes go lock-free into a per-thread pending log and cells, and
//!   move into the installed recorders at the thread's flush points
//!   (stack changes, replays, and reads on the writing thread).
//! * [`segments`] — the append-only byte store in fixed 64 KiB segments
//!   that holds recorder logs and the platform journal's durable bytes.
//!
//! Wall-clock time never enters any of these: timings stay segregated in
//! the informational blocks the manifest and bench report already have,
//! so the determinism checks (CI diffs of event logs and metric
//! expositions across job counts) keep passing.
//!
//! The bridge from the existing `crowd-core` seams is [`ObservedOracle`]:
//! it listens to the [`TraceEvent`](crowd_core::trace::TraceEvent)
//! boundary events the algorithms emit and turns them into [`Event`]s and
//! round-level histograms, forwarding every event inward.

mod bridge;
mod codec;
mod event;
mod expo;
mod metrics;
mod recorder;
pub mod segments;
pub mod series;
mod span;

pub use bridge::ObservedOracle;
pub use event::{Event, EventLog, LogRecord};
pub use expo::{render_json, render_prometheus};
pub use metrics::{
    BucketCount, CounterId, GaugeId, Histogram, HistogramId, LabelPair, MetricSample,
    MetricsRegistry, SampleValue, DEFAULT_BUCKETS,
};
pub use recorder::{
    counter_add, current_recorders, emit, emit_span, gauge_set, install_recorder,
    install_recorders, observe, record_segment, replay, Recorder, RecorderGuard, Segment,
};
pub use span::{stage_label, Span, SpanLog, Stage, StageAccum};

use crowd_core::model::WorkerClass;
use crowd_core::trace::{DeadLetterReason, DegradedReason, FaultKind};

/// Canonical metric names emitted by this workspace's instrumentation.
/// Everything is a `&'static str` constant so call sites cannot drift and
/// docs/tests can reference one authoritative list.
pub mod names {
    /// Counter, labels `{class, experiment}`: comparisons performed, from
    /// each experiment's work tally (`crowd_core::trace::tallied`).
    pub const COMPARISONS_TOTAL: &str = "crowd_comparisons_total";
    /// Counter, labels `{class, kind}`: faults recorded by the platform.
    pub const FAULTS_TOTAL: &str = "crowd_faults_total";
    /// Histogram, labels `{class}`: judgment latency in physical steps
    /// (usable answers only).
    pub const LATENCY_STEPS: &str = "crowd_latency_steps";
    /// Histogram, labels `{class}`: attempts consumed per completed unit
    /// (1 = first try).
    pub const RETRY_DEPTH: &str = "crowd_retry_depth";
    /// Counter, labels `{class}`: units dead-lettered after exhausting
    /// retries.
    pub const DEAD_LETTERS_TOTAL: &str = "crowd_dead_letters_total";
    /// Histogram, no labels: survivor-set size after each filter round.
    pub const ROUND_SURVIVORS: &str = "crowd_round_survivors";
    /// Histogram, labels `{class}`: comparisons consumed per filter round.
    pub const ROUND_COMPARISONS: &str = "crowd_round_comparisons";
    /// Gauge (high watermark), no labels: deepest retry attempt seen.
    pub const RETRY_DEPTH_MAX: &str = "crowd_retry_depth_max";
    /// Counter, no labels: journal bytes made durable by checkpoints.
    pub const JOURNAL_BYTES: &str = "crowd_journal_bytes_total";
    /// Counter, no labels: comparisons restored from a journal during
    /// crash recovery instead of re-purchased from workers. The units
    /// differ by source: the platform's resume path counts answered
    /// *pairs*, the serve resume counts *judgments* (one per vote).
    pub const REPLAYED_COMPARISONS: &str = "crowd_replayed_comparisons_total";
    /// Counter, labels `{tenant, outcome}`: jobs the service finished
    /// sorting, by outcome (`ok` / `degraded`).
    pub const SERVE_JOBS_TOTAL: &str = "crowd_serve_jobs_total";
    /// Counter, labels `{tenant}`: jobs shed by admission control (queue
    /// full, or a budget the tenant can never afford).
    pub const SERVE_SHED_TOTAL: &str = "crowd_serve_shed_total";
    /// Counter, labels `{tenant}`: comparisons charged against a tenant's
    /// token bucket by the service.
    pub const SERVE_COMPARISONS_TOTAL: &str = "crowd_serve_comparisons_total";
    /// Histogram, labels `{tenant}`: completed-job latency in service
    /// ticks, submission to completion.
    pub const SERVE_JOB_LATENCY_TICKS: &str = "crowd_serve_job_latency_ticks";
    /// Counter, labels `{shard}`: circuit-breaker trips quarantining a
    /// worker.
    pub const SERVE_BREAKER_TRIPS_TOTAL: &str = "crowd_serve_breaker_trips_total";
    /// Gauge (high watermark), no labels: deepest admission-queue depth
    /// the service has seen.
    pub const SERVE_QUEUE_DEPTH_MAX: &str = "crowd_serve_queue_depth_max";
    /// Counter, no labels: pair comparisons answered from the cross-job
    /// judgment cache instead of a worker shard.
    pub const SERVE_CACHE_HITS_TOTAL: &str = "crowd_serve_cache_hits_total";
    /// Counter, no labels: judgment-cache lookups that had to fall
    /// through to shard dispatch (absent, stale, or low-confidence).
    pub const SERVE_CACHE_MISSES_TOTAL: &str = "crowd_serve_cache_misses_total";
    /// Counter, no labels: cached verdicts evicted to respect the
    /// configured cache capacity.
    pub const SERVE_CACHE_EVICTIONS_TOTAL: &str = "crowd_serve_cache_evictions_total";
    /// Histogram, labels `{tenant, stage}`: per-completed-job ticks
    /// attributed to each pipeline stage by the causal span layer.
    pub const SERVE_STAGE_TICKS: &str = "crowd_serve_stage_ticks";
    /// Gauge (high watermark), labels `{tenant}`: p99 completed-job
    /// latency in ticks, from the service report.
    pub const SERVE_P99_LATENCY_TICKS: &str = "crowd_serve_p99_latency_ticks";
    /// Gauge (high watermark), labels `{tenant}`: maximum completed-job
    /// latency in ticks, from the service report.
    pub const SERVE_MAX_LATENCY_TICKS: &str = "crowd_serve_max_latency_ticks";
    /// Gauge (high watermark), labels `{tenant}`: worst bad-completion
    /// rate (basis points) the tenant's SLO window has seen.
    pub const SERVE_SLO_BURN_BPS: &str = "crowd_serve_slo_burn_bps";
    /// Counter, labels `{tenant}`: healthy→breached transitions of the
    /// tenant's SLO monitor.
    pub const SERVE_SLO_BREACHES_TOTAL: &str = "crowd_serve_slo_breaches_total";
}

/// A stable one-line description for a metric name, or `None` for names
/// outside the workspace vocabulary. [`render_prometheus`] turns these
/// into `# HELP` lines; keeping them in one table keeps the exposition
/// byte-diffable across call sites.
pub fn metric_help(name: &str) -> Option<&'static str> {
    Some(match name {
        names::COMPARISONS_TOTAL => "Comparisons performed, by worker class and experiment.",
        names::FAULTS_TOTAL => "Faults recorded by the platform, by class and kind.",
        names::LATENCY_STEPS => "Judgment latency in physical steps (usable answers only).",
        names::RETRY_DEPTH => "Attempts consumed per completed unit (1 = first try).",
        names::DEAD_LETTERS_TOTAL => "Units dead-lettered after exhausting retries.",
        names::ROUND_SURVIVORS => "Survivor-set size after each filter round.",
        names::ROUND_COMPARISONS => "Comparisons consumed per filter round, by class.",
        names::RETRY_DEPTH_MAX => "Deepest retry attempt seen.",
        names::JOURNAL_BYTES => "Journal bytes made durable by checkpoints.",
        names::REPLAYED_COMPARISONS => "Comparisons restored from a journal during recovery.",
        names::SERVE_JOBS_TOTAL => "Service jobs finished sorting, by tenant and outcome.",
        names::SERVE_SHED_TOTAL => "Jobs shed by admission control, by tenant.",
        names::SERVE_COMPARISONS_TOTAL => "Comparisons charged to tenant token buckets.",
        names::SERVE_JOB_LATENCY_TICKS => {
            "Completed-job latency in service ticks, submission to completion."
        }
        names::SERVE_BREAKER_TRIPS_TOTAL => "Circuit-breaker trips quarantining a worker.",
        names::SERVE_QUEUE_DEPTH_MAX => "Deepest admission-queue depth the service has seen.",
        names::SERVE_CACHE_HITS_TOTAL => "Pair comparisons answered from the judgment cache.",
        names::SERVE_CACHE_MISSES_TOTAL => "Judgment-cache lookups that fell through to shards.",
        names::SERVE_CACHE_EVICTIONS_TOTAL => "Cached verdicts evicted to respect capacity.",
        names::SERVE_STAGE_TICKS => {
            "Per-completed-job ticks attributed to each pipeline stage, by tenant."
        }
        names::SERVE_P99_LATENCY_TICKS => "p99 completed-job latency in ticks, by tenant.",
        names::SERVE_MAX_LATENCY_TICKS => "Maximum completed-job latency in ticks, by tenant.",
        names::SERVE_SLO_BURN_BPS => "Worst SLO window bad-completion rate seen, in basis points.",
        names::SERVE_SLO_BREACHES_TOTAL => "Healthy-to-breached transitions of a tenant's SLO.",
        _ => return None,
    })
}

/// The label value used for a worker class (`"naive"` / `"expert"`).
pub fn class_label(class: WorkerClass) -> &'static str {
    match class {
        WorkerClass::Naive => "naive",
        WorkerClass::Expert => "expert",
    }
}

/// The label value used for a fault kind (snake_case, stable).
pub fn kind_label(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::Dropout => "dropout",
        FaultKind::Abandon => "abandon",
        FaultKind::NoAnswer => "no_answer",
        FaultKind::Timeout => "timeout",
        FaultKind::Retry => "retry",
        FaultKind::DeadLetter => "dead_letter",
        FaultKind::ExpertFallback => "expert_fallback",
    }
}

/// The label value used for a dead-letter reason (snake_case, stable).
pub fn reason_label(reason: DeadLetterReason) -> &'static str {
    match reason {
        DeadLetterReason::RetriesExhausted => "retries_exhausted",
        DeadLetterReason::NoFreshWorkers => "no_fresh_workers",
        DeadLetterReason::NoHealthyWorkers => "no_healthy_workers",
    }
}

/// The label value used for a degraded-completion reason (snake_case,
/// stable).
pub fn degraded_label(reason: DegradedReason) -> &'static str {
    match reason {
        DegradedReason::DeadlineLapsed => "deadline_lapsed",
        DegradedReason::ExpertExhausted => "expert_exhausted",
        DegradedReason::BudgetExhausted => "budget_exhausted",
        DegradedReason::DeadLetters => "dead_letters",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable_and_distinct() {
        assert_eq!(class_label(WorkerClass::Naive), "naive");
        assert_eq!(class_label(WorkerClass::Expert), "expert");
        let labels: Vec<&str> = FaultKind::ALL.iter().map(|k| kind_label(*k)).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len(), "kind labels must be distinct");
    }

    #[test]
    fn every_canonical_metric_name_has_help_text() {
        let all = [
            names::COMPARISONS_TOTAL,
            names::FAULTS_TOTAL,
            names::LATENCY_STEPS,
            names::RETRY_DEPTH,
            names::DEAD_LETTERS_TOTAL,
            names::ROUND_SURVIVORS,
            names::ROUND_COMPARISONS,
            names::RETRY_DEPTH_MAX,
            names::JOURNAL_BYTES,
            names::REPLAYED_COMPARISONS,
            names::SERVE_JOBS_TOTAL,
            names::SERVE_SHED_TOTAL,
            names::SERVE_COMPARISONS_TOTAL,
            names::SERVE_JOB_LATENCY_TICKS,
            names::SERVE_BREAKER_TRIPS_TOTAL,
            names::SERVE_QUEUE_DEPTH_MAX,
            names::SERVE_CACHE_HITS_TOTAL,
            names::SERVE_CACHE_MISSES_TOTAL,
            names::SERVE_CACHE_EVICTIONS_TOTAL,
            names::SERVE_STAGE_TICKS,
            names::SERVE_P99_LATENCY_TICKS,
            names::SERVE_MAX_LATENCY_TICKS,
            names::SERVE_SLO_BURN_BPS,
            names::SERVE_SLO_BREACHES_TOTAL,
        ];
        for name in all {
            let help = metric_help(name).unwrap_or_else(|| panic!("no help text for {name}"));
            assert!(!help.is_empty() && !help.contains('\n'), "{name}: {help:?}");
        }
        assert_eq!(metric_help("not_a_workspace_metric"), None);
    }

    #[test]
    fn reason_labels_are_distinct() {
        let reasons: Vec<&str> = DeadLetterReason::ALL
            .iter()
            .map(|r| reason_label(*r))
            .collect();
        let mut dedup = reasons.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), reasons.len(), "reason labels must be distinct");
        let degraded: Vec<&str> = DegradedReason::ALL
            .iter()
            .map(|r| degraded_label(*r))
            .collect();
        let mut dedup = degraded.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(
            dedup.len(),
            degraded.len(),
            "degraded labels must be distinct"
        );
    }
}
