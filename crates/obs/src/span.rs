//! Deterministic causal spans on the service's logical clock.
//!
//! A [`Span`] says where one job's ticks went: each completed job emits a
//! small tree of spans keyed by `(tenant, job, stage)` over the stages of
//! the serve pipeline ([`Stage`]). Spans carry **no wall-clock time** —
//! start and end are logical ticks — so a run's span log is byte-identical
//! at any `--jobs` count and across kill+resume, exactly like the event
//! log.
//!
//! The accounting contract: for every completed job, the `ticks` of its
//! spans sum to its submission-to-completion latency. [`StageAccum`]
//! enforces the partition mechanically — the service attributes every
//! tick a job stays alive to exactly one active stage — and
//! [`SpanLog::reconcile`] audits it from the serialized log alone.

use serde::{Deserialize, Serialize};

/// One stage of the serve pipeline, in causal order.
///
/// `Admission` and `Completion` are zero-width boundary markers (their
/// spans always carry `ticks = 0`; their `start` pins the submission and
/// completion ticks). `QueueWait` covers submission-to-admission. The
/// remaining five are *active* stages: every tick between admission and
/// completion is attributed to exactly one of them.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum Stage {
    /// The admission decision (marker: `start` = submission tick).
    #[default]
    Admission,
    /// Ticks parked in the bounded admission queue.
    QueueWait,
    /// Active but nothing moved: deficit exhausted, shard windows full,
    /// or the reservation gate stalled the job.
    DispatchWait,
    /// The tick's progress came entirely from the judgment cache.
    CacheLookup,
    /// At least one pair executed cleanly on a worker shard.
    ShardExec,
    /// Shard execution that needed the retry layer (re-assignments or a
    /// dead-lettered pair).
    Retry,
    /// Blocked because every worker of the needed class was quarantined
    /// or dropped out — no healthy shard to dispatch onto.
    BreakerQuarantine,
    /// The completion boundary (marker: `start` = completion tick).
    Completion,
}

impl Stage {
    /// Every stage, in causal pipeline order.
    pub const ALL: [Stage; 8] = [
        Stage::Admission,
        Stage::QueueWait,
        Stage::DispatchWait,
        Stage::CacheLookup,
        Stage::ShardExec,
        Stage::Retry,
        Stage::BreakerQuarantine,
        Stage::Completion,
    ];

    /// The active stages a live job's ticks are attributed to.
    pub const ACTIVE: [Stage; 5] = [
        Stage::DispatchWait,
        Stage::CacheLookup,
        Stage::ShardExec,
        Stage::Retry,
        Stage::BreakerQuarantine,
    ];

    fn active_index(self) -> Option<usize> {
        Stage::ACTIVE.iter().position(|s| *s == self)
    }
}

/// The label value used for a stage in metrics and analyzer output
/// (snake_case, stable).
pub fn stage_label(stage: Stage) -> &'static str {
    match stage {
        Stage::Admission => "admission",
        Stage::QueueWait => "queue_wait",
        Stage::DispatchWait => "dispatch_wait",
        Stage::CacheLookup => "cache_lookup",
        Stage::ShardExec => "shard_exec",
        Stage::Retry => "retry",
        Stage::BreakerQuarantine => "breaker_quarantine",
        Stage::Completion => "completion",
    }
}

/// One causal span: where some of a job's logical ticks went.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Span {
    /// The owning tenant.
    pub tenant: u32,
    /// The service-assigned job id.
    pub job: u64,
    /// The pipeline stage.
    pub stage: Stage,
    /// First tick attributed to the stage (for markers: the boundary).
    pub start: u64,
    /// One past the last tick attributed (equals `start` for markers).
    pub end: u64,
    /// Ticks of the job's latency this stage accounts for. Stages
    /// interleave tick-by-tick, so `ticks ≤ end − start`; the exact
    /// attribution is `ticks`, the `[start, end)` bounds draw the
    /// waterfall.
    pub ticks: u64,
}

impl Span {
    /// The canonical ordering key: `(tenant, job, stage)` first, then the
    /// bounds — what [`SpanLog`] sorts by.
    fn sort_key(&self) -> (u32, u64, Stage, u64, u64, u64) {
        (
            self.tenant,
            self.job,
            self.stage,
            self.start,
            self.end,
            self.ticks,
        )
    }
}

/// Accumulates one job's per-stage tick attribution while it is active.
///
/// The service calls [`record`](StageAccum::record) exactly once per tick
/// a job stays alive past, so the accumulated ticks partition the job's
/// active life; [`job_spans`](StageAccum::job_spans) closes the book at
/// completion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageAccum {
    /// Per active stage: `(ticks, first, last)` — `None` until touched.
    slots: [Option<(u64, u64, u64)>; 5],
}

impl StageAccum {
    /// A fresh accumulator with nothing attributed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attributes one tick to `stage` (which must be an active stage;
    /// markers and queue time are derived, not recorded).
    pub fn record(&mut self, stage: Stage, tick: u64) {
        let Some(i) = stage.active_index() else {
            debug_assert!(false, "only active stages are recorded: {stage:?}");
            return;
        };
        self.slots[i] = Some(match self.slots[i] {
            None => (1, tick, tick),
            Some((t, first, last)) => (t + 1, first.min(tick), last.max(tick)),
        });
    }

    /// Total ticks attributed to active stages so far.
    pub fn ticks(&self) -> u64 {
        self.slots.iter().flatten().map(|(t, _, _)| *t).sum()
    }

    /// Closes the accumulator into the job's span tree: the `Admission`
    /// and `Completion` markers, a `QueueWait` span when the job queued,
    /// and one span per active stage that received ticks.
    ///
    /// When every live tick was recorded exactly once, the spans' `ticks`
    /// sum to `completed − submitted` — the job's latency.
    pub fn job_spans(
        &self,
        tenant: u32,
        job: u64,
        submitted: u64,
        admitted: u64,
        completed: u64,
    ) -> Vec<Span> {
        // At most one span per stage: sized once, never regrown.
        let mut spans = Vec::with_capacity(Stage::ALL.len());
        spans.push(Span {
            tenant,
            job,
            stage: Stage::Admission,
            start: submitted,
            end: submitted,
            ticks: 0,
        });
        if admitted > submitted {
            spans.push(Span {
                tenant,
                job,
                stage: Stage::QueueWait,
                start: submitted,
                end: admitted,
                ticks: admitted - submitted,
            });
        }
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some((ticks, first, last)) = slot {
                spans.push(Span {
                    tenant,
                    job,
                    stage: Stage::ACTIVE[i],
                    start: *first,
                    end: last + 1,
                    ticks: *ticks,
                });
            }
        }
        spans.push(Span {
            tenant,
            job,
            stage: Stage::Completion,
            start: completed,
            end: completed,
            ticks: 0,
        });
        spans
    }
}

/// An ordered span log — the in-memory form of a `spans.jsonl` file.
///
/// Construction sorts by `(tenant, job, stage, start, end, ticks)`, so
/// two logs holding the same spans serialize byte-identically no matter
/// what order they were recorded in.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanLog {
    /// The spans, in canonical order.
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// Builds a log, sorting into canonical order.
    pub fn from_spans(mut spans: Vec<Span>) -> Self {
        spans.sort_unstable_by_key(Span::sort_key);
        SpanLog { spans }
    }

    /// Serializes the log as JSONL: one compact JSON span per line,
    /// newline-terminated (empty string for an empty log).
    ///
    /// # Panics
    ///
    /// Panics if a span fails to serialize (it cannot: spans are plain
    /// value trees).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            out.push_str(&serde_json::to_string(span).expect("span serializes"));
            out.push('\n');
        }
        out
    }

    /// Parses a JSONL span log, re-sorting into canonical order. Blank
    /// lines are ignored.
    ///
    /// # Errors
    ///
    /// Returns the first malformed line's parse error, prefixed with its
    /// 1-based line number.
    pub fn from_jsonl(text: &str) -> Result<SpanLog, serde::Error> {
        let mut spans = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let span: Span = serde_json::from_str(line)
                .map_err(|e| serde::Error::msg(format!("line {}: {e}", i + 1)))?;
            spans.push(span);
        }
        Ok(SpanLog::from_spans(spans))
    }

    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when the log holds no spans.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Audits the accounting invariant over a single-run log: for every
    /// job (identified by its `Admission`/`Completion` markers), the
    /// stage `ticks` must sum to exactly `completion − admission` — the
    /// job's latency. Returns one message per violated job.
    pub fn reconcile(&self) -> Result<(), Vec<String>> {
        use std::collections::BTreeMap;
        #[derive(Default)]
        struct Book {
            submitted: Option<u64>,
            completed: Option<u64>,
            ticks: u64,
        }
        let mut books: BTreeMap<(u32, u64), Book> = BTreeMap::new();
        for span in &self.spans {
            let book = books.entry((span.tenant, span.job)).or_default();
            match span.stage {
                Stage::Admission => book.submitted = Some(span.start),
                Stage::Completion => book.completed = Some(span.start),
                _ => book.ticks += span.ticks,
            }
        }
        let mut bad = Vec::new();
        for ((tenant, job), book) in &books {
            match (book.submitted, book.completed) {
                (Some(s), Some(c)) => {
                    let latency = c.saturating_sub(s);
                    if book.ticks != latency {
                        bad.push(format!(
                            "tenant {tenant} job {job}: stages account for {} of {latency} \
                             latency ticks",
                            book.ticks
                        ));
                    }
                }
                _ => bad.push(format!(
                    "tenant {tenant} job {job}: missing admission or completion marker"
                )),
            }
        }
        if bad.is_empty() {
            Ok(())
        } else {
            Err(bad)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_spans() -> Vec<Span> {
        let mut acc = StageAccum::new();
        acc.record(Stage::DispatchWait, 3);
        acc.record(Stage::ShardExec, 4);
        acc.record(Stage::ShardExec, 5);
        acc.record(Stage::Retry, 6);
        acc.record(Stage::CacheLookup, 7);
        acc.record(Stage::BreakerQuarantine, 8);
        acc.job_spans(1, 42, 1, 3, 9)
    }

    #[test]
    fn accum_partitions_latency_exactly() {
        let spans = demo_spans();
        let log = SpanLog::from_spans(spans.clone());
        log.reconcile().expect("every tick attributed");
        // queue 2 + active 6 = latency 8.
        let total: u64 = spans.iter().map(|s| s.ticks).sum();
        assert_eq!(total, 8);
        assert_eq!(spans.len(), 2 + 5 + 1, "markers + queue + 5 active stages");
    }

    #[test]
    fn markers_are_zero_width_and_pin_the_boundaries() {
        let spans = demo_spans();
        let adm = spans.iter().find(|s| s.stage == Stage::Admission).unwrap();
        let done = spans.iter().find(|s| s.stage == Stage::Completion).unwrap();
        assert_eq!((adm.start, adm.end, adm.ticks), (1, 1, 0));
        assert_eq!((done.start, done.end, done.ticks), (9, 9, 0));
    }

    #[test]
    fn unqueued_jobs_emit_no_queue_wait_span() {
        let acc = StageAccum::new();
        let spans = acc.job_spans(0, 7, 5, 5, 5);
        assert_eq!(spans.len(), 2, "markers only: {spans:?}");
        SpanLog::from_spans(spans).reconcile().expect("0 == 0");
    }

    #[test]
    fn jsonl_round_trips_and_sorts_canonically() {
        let mut spans = demo_spans();
        spans.reverse();
        let log = SpanLog::from_spans(spans);
        let text = log.to_jsonl();
        assert_eq!(text.lines().count(), log.len());
        let parsed = SpanLog::from_jsonl(&text).expect("log parses");
        assert_eq!(parsed, log);
        // Canonical order: Admission first, Completion last per job.
        assert_eq!(log.spans.first().unwrap().stage, Stage::Admission);
        assert_eq!(log.spans.last().unwrap().stage, Stage::Completion);
    }

    #[test]
    fn reconcile_flags_unattributed_ticks_and_missing_markers() {
        let mut acc = StageAccum::new();
        acc.record(Stage::ShardExec, 3);
        // Latency 4, only 1 tick attributed.
        let log = SpanLog::from_spans(acc.job_spans(0, 1, 2, 2, 6));
        let bad = log.reconcile().expect_err("3 ticks unaccounted");
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("1 of 4"), "{bad:?}");

        let orphan = SpanLog::from_spans(vec![Span {
            tenant: 0,
            job: 9,
            stage: Stage::ShardExec,
            start: 0,
            end: 1,
            ticks: 1,
        }]);
        let bad = orphan.reconcile().expect_err("no markers");
        assert!(bad[0].contains("missing"), "{bad:?}");
    }

    #[test]
    fn stage_labels_are_distinct_and_stable() {
        let labels: Vec<&str> = Stage::ALL.iter().map(|s| stage_label(*s)).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len(), "stage labels must be distinct");
        assert_eq!(stage_label(Stage::QueueWait), "queue_wait");
    }

    #[test]
    fn empty_log_serializes_to_empty_string() {
        assert_eq!(SpanLog::default().to_jsonl(), "");
        assert!(SpanLog::from_jsonl("").unwrap().is_empty());
    }
}
