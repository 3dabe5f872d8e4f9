//! The structured event vocabulary and its JSONL log form.

use crowd_core::model::WorkerClass;
use crowd_core::oracle::ComparisonCounts;
use crowd_core::trace::{DeadLetterReason, DegradedReason, FaultKind, TracePhase};
use serde::{Deserialize, Serialize};

/// One observable occurrence in a run.
///
/// Events are emitted through [`crate::emit`] into every installed
/// [`Recorder`](crate::Recorder) and serialized as one JSON object per
/// line. They carry **no wall-clock time**: ordering is the logical
/// sequence number the log assigns ([`LogRecord::seq`]), which is why a
/// run's log is byte-identical at any `--jobs` count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A named unit of work (an experiment, a bench tier, one algorithm
    /// run) begins.
    RunStarted {
        /// The run's name (experiment registry key, tier label, ...).
        name: String,
    },
    /// Algorithm 1 entered (`entered = true`) or left a phase.
    PhaseTransition {
        /// Which phase.
        phase: TracePhase,
        /// True on entry, false on exit.
        entered: bool,
    },
    /// One Phase-1 filter round finished.
    RoundCompleted {
        /// Round index (0-based).
        round: u32,
        /// Tournament groups the round played.
        groups: u32,
        /// Elements surviving the round.
        survivors: u64,
        /// Comparisons the round consumed, by worker class. Summing these
        /// over a run's rounds reconciles exactly with the
        /// [`ComparisonCounts`] tally of its filter phase.
        comparisons_by_class: ComparisonCounts,
    },
    /// The platform injected or detected a fault (dropout, abandonment,
    /// no-answer, timeout, expert fallback). Retries and dead letters have
    /// their own richer events below.
    FaultObserved {
        /// The worker class involved.
        class: WorkerClass,
        /// What went wrong.
        kind: FaultKind,
    },
    /// A failed judgment slot was re-assigned to a fresh worker.
    RetryScheduled {
        /// The worker class being retried.
        class: WorkerClass,
        /// Retry attempt number (1-based; the initial assignment is not a
        /// retry).
        attempt: u32,
        /// Backoff delay charged to the slot, in physical steps.
        backoff_steps: u64,
    },
    /// A unit exhausted its retries and was dead-lettered.
    DeadLettered {
        /// The worker class the unit was assigned to.
        class: WorkerClass,
        /// Total judgment attempts made for the unit.
        attempts: u32,
        /// Why the unit was given up on — quarantine storms
        /// ([`DeadLetterReason::NoHealthyWorkers`]) are distinguishable
        /// from small pools ([`DeadLetterReason::NoFreshWorkers`]) here.
        reason: DeadLetterReason,
    },
    /// A journal checkpoint flushed pending records to durable storage.
    CheckpointWritten {
        /// Batches journaled so far (including this checkpoint's).
        batches: u64,
        /// Bytes this flush made durable.
        bytes: u64,
    },
    /// Crash recovery began replaying a journal.
    RecoveryStarted {
        /// Completed batches found in the journal.
        batches: u64,
        /// True when the journal's tail was torn (a partially written
        /// final record was detected by checksum and discarded).
        torn_tail: bool,
    },
    /// Crash recovery finished replaying; the run continues live.
    RecoveryCompleted {
        /// Batches replayed from the journal.
        replayed_batches: u64,
        /// Individual comparisons restored from the journal instead of
        /// re-purchased from workers.
        replayed_comparisons: u64,
    },
    /// Admission control accepted a job into the service.
    JobAdmitted {
        /// The owning tenant.
        tenant: u32,
        /// The service-assigned job id.
        job: u64,
        /// Ticks the job waited in the admission queue (0 = admitted on
        /// arrival).
        waited_ticks: u64,
    },
    /// Admission control shed a job instead of queueing it unboundedly.
    JobShed {
        /// The owning tenant.
        tenant: u32,
        /// The service-assigned job id.
        job: u64,
        /// The earliest tick distance at which retrying could succeed
        /// (`u64::MAX` when the job can never fit the tenant's budget).
        retry_after: u64,
    },
    /// A service job finished sorting — correctly or explicitly degraded,
    /// never silently.
    JobCompleted {
        /// The owning tenant.
        tenant: u32,
        /// The service-assigned job id.
        job: u64,
        /// Ticks from submission to completion.
        latency_ticks: u64,
        /// Comparisons charged to the tenant for this job.
        comparisons: u64,
        /// `None` for a full-protocol result; `Some` names the degradation.
        degraded: Option<DegradedReason>,
    },
    /// A circuit breaker tripped, quarantining a worker.
    BreakerTripped {
        /// The shard the worker serves in.
        shard: u32,
        /// The quarantined worker.
        worker: u32,
        /// Consecutive failures that tripped the breaker.
        streak: u32,
        /// Ticks until the half-open probe.
        cooldown_ticks: u64,
    },
    /// A half-open breaker probe resolved.
    BreakerProbed {
        /// The shard the worker serves in.
        shard: u32,
        /// The probed worker.
        worker: u32,
        /// True when the probe succeeded and the breaker re-closed; false
        /// when it failed and the quarantine re-opened.
        recovered: bool,
    },
    /// A tenant's sliding-window SLO went from healthy to breached.
    SloBreached {
        /// The tenant whose objective is violated.
        tenant: u32,
        /// The tick the monitor detected the breach.
        tick: u64,
        /// Completions inside the sliding window at detection.
        window_jobs: u64,
        /// Window completions that violated the objective (degraded, or
        /// over the latency target).
        bad_jobs: u64,
        /// Bad-completion rate over the window, in basis points.
        bad_bps: u32,
    },
    /// A previously breached tenant SLO returned inside its objective.
    SloRecovered {
        /// The tenant whose objective recovered.
        tenant: u32,
        /// The tick the monitor detected the recovery.
        tick: u64,
        /// Completions inside the sliding window at detection.
        window_jobs: u64,
        /// Bad-completion rate over the window, in basis points.
        bad_bps: u32,
    },
    /// The matching [`Event::RunStarted`] unit of work finished.
    RunFinished {
        /// The run's name.
        name: String,
        /// Comparisons the run performed, by class.
        comparisons_by_class: ComparisonCounts,
        /// Total faults recorded during the run.
        faults: u64,
    },
}

/// One event plus its logical-clock sequence number (its position in the
/// log, assigned at serialization time).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogRecord {
    /// 0-based position in the log.
    pub seq: u64,
    /// The event.
    pub event: Event,
}

/// An ordered event log — the in-memory form of an `events.jsonl` file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventLog {
    /// The records, in sequence order.
    pub records: Vec<LogRecord>,
}

impl EventLog {
    /// Builds a log from events in emission order, assigning sequence
    /// numbers 0, 1, 2, ...
    pub fn from_events(events: Vec<Event>) -> Self {
        EventLog {
            records: events
                .into_iter()
                .enumerate()
                .map(|(i, event)| LogRecord {
                    seq: i as u64,
                    event,
                })
                .collect(),
        }
    }

    /// Serializes the log as JSONL: one compact JSON record per line,
    /// newline-terminated (empty string for an empty log).
    ///
    /// # Panics
    ///
    /// Panics if a record fails to serialize (it cannot: events are plain
    /// value trees).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for record in &self.records {
            out.push_str(&serde_json::to_string(record).expect("event record serializes"));
            out.push('\n');
        }
        out
    }

    /// Parses a JSONL event log (the read API the replay tooling uses).
    /// Blank lines are ignored.
    ///
    /// # Errors
    ///
    /// Returns the first malformed line's parse error, prefixed with its
    /// 1-based line number.
    pub fn from_jsonl(text: &str) -> Result<EventLog, serde::Error> {
        let mut records = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let record: LogRecord = serde_json::from_str(line)
                .map_err(|e| serde::Error::msg(format!("line {}: {e}", i + 1)))?;
            records.push(record);
        }
        Ok(EventLog { records })
    }

    /// The events in sequence order, without their sequence numbers.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.records.iter().map(|r| &r.event)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::RunStarted {
                name: "demo".to_string(),
            },
            Event::PhaseTransition {
                phase: TracePhase::Filter,
                entered: true,
            },
            Event::RoundCompleted {
                round: 0,
                groups: 4,
                survivors: 12,
                comparisons_by_class: ComparisonCounts {
                    naive: 96,
                    expert: 0,
                },
            },
            Event::FaultObserved {
                class: WorkerClass::Naive,
                kind: FaultKind::Timeout,
            },
            Event::RetryScheduled {
                class: WorkerClass::Naive,
                attempt: 1,
                backoff_steps: 1,
            },
            Event::DeadLettered {
                class: WorkerClass::Expert,
                attempts: 4,
                reason: DeadLetterReason::RetriesExhausted,
            },
            Event::JobAdmitted {
                tenant: 1,
                job: 42,
                waited_ticks: 3,
            },
            Event::JobShed {
                tenant: 2,
                job: 43,
                retry_after: 17,
            },
            Event::JobCompleted {
                tenant: 1,
                job: 42,
                latency_ticks: 9,
                comparisons: 31,
                degraded: Some(DegradedReason::ExpertExhausted),
            },
            Event::BreakerTripped {
                shard: 0,
                worker: 5,
                streak: 3,
                cooldown_ticks: 8,
            },
            Event::BreakerProbed {
                shard: 0,
                worker: 5,
                recovered: true,
            },
            Event::SloBreached {
                tenant: 1,
                tick: 30,
                window_jobs: 12,
                bad_jobs: 4,
                bad_bps: 3333,
            },
            Event::SloRecovered {
                tenant: 1,
                tick: 58,
                window_jobs: 10,
                bad_bps: 500,
            },
            Event::CheckpointWritten {
                batches: 3,
                bytes: 412,
            },
            Event::RecoveryStarted {
                batches: 3,
                torn_tail: true,
            },
            Event::RecoveryCompleted {
                replayed_batches: 3,
                replayed_comparisons: 96,
            },
            Event::RunFinished {
                name: "demo".to_string(),
                comparisons_by_class: ComparisonCounts {
                    naive: 96,
                    expert: 3,
                },
                faults: 2,
            },
        ]
    }

    #[test]
    fn jsonl_round_trips() {
        let log = EventLog::from_events(sample_events());
        let text = log.to_jsonl();
        assert_eq!(text.lines().count(), log.len());
        let parsed = EventLog::from_jsonl(&text).expect("log parses");
        assert_eq!(parsed, log);
    }

    #[test]
    fn sequence_numbers_are_positions() {
        let log = EventLog::from_events(sample_events());
        for (i, record) in log.records.iter().enumerate() {
            assert_eq!(record.seq, i as u64);
        }
    }

    #[test]
    fn malformed_lines_report_their_number() {
        let err = EventLog::from_jsonl("{\"seq\":0}\nnot json\n").expect_err("must fail");
        assert!(err.to_string().contains("line 1"), "{err}");
    }

    #[test]
    fn blank_lines_are_ignored() {
        let log = EventLog::from_events(vec![Event::RunStarted {
            name: "x".to_string(),
        }]);
        let mut text = String::from("\n");
        text.push_str(&log.to_jsonl());
        text.push('\n');
        assert_eq!(EventLog::from_jsonl(&text).unwrap(), log);
    }

    #[test]
    fn empty_log_serializes_to_empty_string() {
        assert_eq!(EventLog::default().to_jsonl(), "");
        assert!(EventLog::from_jsonl("").unwrap().is_empty());
    }
}
