//! Pre-registered handles for the workspace series whose labels can be
//! enumerated: worker class, fault kind, dead-letter reason, or none.
//!
//! The handles live in one `static` table, registered on first use, so
//! the per-judgment and per-unit sites of the platform and the service
//! update through a handle without any per-`Platform` setup. Series
//! labelled by tenant or shard are registered where those are known
//! (`CrowdServe::new`, `WorkerShard::new`).

use crate::metrics::{CounterId, GaugeId, HistogramId};
use crate::{class_label, kind_label, names, reason_label};
use crowd_core::model::WorkerClass;
use crowd_core::trace::{DeadLetterReason, FaultKind};
use std::sync::OnceLock;

struct Table {
    latency_steps: [HistogramId; 2],
    retry_depth: [HistogramId; 2],
    faults: [[CounterId; FaultKind::ALL.len()]; 2],
    dead_letters: [[CounterId; DeadLetterReason::ALL.len()]; 2],
    retry_depth_max: GaugeId,
    queue_depth_max: GaugeId,
    cache_hits: CounterId,
    cache_misses: CounterId,
    cache_evictions: CounterId,
    journal_bytes: CounterId,
    replayed_comparisons: CounterId,
}

impl Table {
    fn register() -> Self {
        let class = |c: WorkerClass| [("class", class_label(c))];
        Table {
            latency_steps: WorkerClass::ALL
                .map(|c| HistogramId::new(names::LATENCY_STEPS, &class(c))),
            retry_depth: WorkerClass::ALL.map(|c| HistogramId::new(names::RETRY_DEPTH, &class(c))),
            faults: WorkerClass::ALL.map(|c| {
                FaultKind::ALL.map(|k| {
                    CounterId::new(
                        names::FAULTS_TOTAL,
                        &[("class", class_label(c)), ("kind", kind_label(k))],
                    )
                })
            }),
            dead_letters: WorkerClass::ALL.map(|c| {
                DeadLetterReason::ALL.map(|r| {
                    CounterId::new(
                        names::DEAD_LETTERS_TOTAL,
                        &[("class", class_label(c)), ("reason", reason_label(r))],
                    )
                })
            }),
            retry_depth_max: GaugeId::new(names::RETRY_DEPTH_MAX, &[]),
            queue_depth_max: GaugeId::new(names::SERVE_QUEUE_DEPTH_MAX, &[]),
            cache_hits: CounterId::new(names::SERVE_CACHE_HITS_TOTAL, &[]),
            cache_misses: CounterId::new(names::SERVE_CACHE_MISSES_TOTAL, &[]),
            cache_evictions: CounterId::new(names::SERVE_CACHE_EVICTIONS_TOTAL, &[]),
            journal_bytes: CounterId::new(names::JOURNAL_BYTES, &[]),
            replayed_comparisons: CounterId::new(names::REPLAYED_COMPARISONS, &[]),
        }
    }
}

fn table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(Table::register)
}

/// `crowd_latency_steps{class}`.
pub fn latency_steps(class: WorkerClass) -> HistogramId {
    table().latency_steps[class as usize]
}

/// `crowd_retry_depth{class}`.
pub fn retry_depth(class: WorkerClass) -> HistogramId {
    table().retry_depth[class as usize]
}

/// `crowd_faults_total{class, kind}`.
pub fn faults(class: WorkerClass, kind: FaultKind) -> CounterId {
    table().faults[class as usize][kind as usize]
}

/// `crowd_dead_letters_total{class, reason}`.
pub fn dead_letters(class: WorkerClass, reason: DeadLetterReason) -> CounterId {
    table().dead_letters[class as usize][reason as usize]
}

/// `crowd_retry_depth_max`.
pub fn retry_depth_max() -> GaugeId {
    table().retry_depth_max
}

/// `crowd_serve_queue_depth_max`.
pub fn queue_depth_max() -> GaugeId {
    table().queue_depth_max
}

/// `crowd_serve_cache_hits_total`.
pub fn cache_hits() -> CounterId {
    table().cache_hits
}

/// `crowd_serve_cache_misses_total`.
pub fn cache_misses() -> CounterId {
    table().cache_misses
}

/// `crowd_serve_cache_evictions_total`.
pub fn cache_evictions() -> CounterId {
    table().cache_evictions
}

/// `crowd_journal_bytes_total`.
pub fn journal_bytes() -> CounterId {
    table().journal_bytes
}

/// `crowd_replayed_comparisons_total`.
pub fn replayed_comparisons() -> CounterId {
    table().replayed_comparisons
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tables (and the service's per-tenant stage handles) are
    /// indexed by discriminant, so each `ALL` list must run in declaration
    /// order, and each handle must be the series its string form names.
    #[test]
    fn tables_index_by_discriminant() {
        for (i, stage) in crate::Stage::ALL.into_iter().enumerate() {
            assert_eq!(stage as usize, i);
        }
        for (i, c) in WorkerClass::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i);
            let labels = [("class", class_label(c))];
            assert_eq!(
                latency_steps(c),
                HistogramId::new(names::LATENCY_STEPS, &labels)
            );
            assert_eq!(
                retry_depth(c),
                HistogramId::new(names::RETRY_DEPTH, &labels)
            );
            for (j, k) in FaultKind::ALL.into_iter().enumerate() {
                assert_eq!(k as usize, j);
                let labels = [("kind", kind_label(k)), ("class", class_label(c))];
                assert_eq!(faults(c, k), CounterId::new(names::FAULTS_TOTAL, &labels));
            }
            for (j, r) in DeadLetterReason::ALL.into_iter().enumerate() {
                assert_eq!(r as usize, j);
                let labels = [("reason", reason_label(r)), ("class", class_label(c))];
                assert_eq!(
                    dead_letters(c, r),
                    CounterId::new(names::DEAD_LETTERS_TOTAL, &labels)
                );
            }
        }
    }
}
