//! Round trip of the recorder's compact event and span records.
//!
//! A recorder stores what [`emit`] and [`emit_span`] hand it as varint
//! records and decodes them when read. Arbitrary events of every variant
//! and arbitrary spans, including the extremes of every integer width
//! and empty, non-ASCII and segment-sized names, must read back exactly as emitted: directly, and
//! through a captured [`Segment`](crowd_obs::Segment) that is replayed.

use crowd_core::model::WorkerClass;
use crowd_core::oracle::ComparisonCounts;
use crowd_core::trace::{DeadLetterReason, DegradedReason, FaultKind, TracePhase};
use crowd_obs::segments::SEGMENT_BYTES;
use crowd_obs::{emit, emit_span, install_recorder, record_segment, replay, Event, Recorder};
use crowd_obs::{Span, Stage};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Number of [`Event`] variants; [`variant`] maps each to its index.
const VARIANTS: usize = 17;

/// The variant index of `event`. Exhaustive, so a new variant does not
/// compile until the generator below is taught it too.
fn variant(event: &Event) -> usize {
    match event {
        Event::RunStarted { .. } => 0,
        Event::PhaseTransition { .. } => 1,
        Event::RoundCompleted { .. } => 2,
        Event::FaultObserved { .. } => 3,
        Event::RetryScheduled { .. } => 4,
        Event::DeadLettered { .. } => 5,
        Event::CheckpointWritten { .. } => 6,
        Event::RecoveryStarted { .. } => 7,
        Event::RecoveryCompleted { .. } => 8,
        Event::JobAdmitted { .. } => 9,
        Event::JobShed { .. } => 10,
        Event::JobCompleted { .. } => 11,
        Event::BreakerTripped { .. } => 12,
        Event::BreakerProbed { .. } => 13,
        Event::SloBreached { .. } => 14,
        Event::SloRecovered { .. } => 15,
        Event::RunFinished { .. } => 16,
    }
}

/// A splitmix64 stream seeded by one case value: every field of one
/// generated record comes from it.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[(self.next() % from.len() as u64) as usize]
    }

    fn flag(&mut self) -> bool {
        self.next() & 1 == 1
    }

    /// A `u64`, often a varint edge or the type's maximum.
    fn u64(&mut self) -> u64 {
        match self.next() % 4 {
            0 => self.pick(&[0, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX]),
            1 => self.next() % 300,
            _ => self.next() >> (self.next() % 64),
        }
    }

    fn u32(&mut self) -> u32 {
        match self.next() % 4 {
            0 => self.pick(&[0, 127, 128, u32::MAX]),
            _ => (self.u64() >> 32) as u32 ^ self.next() as u32,
        }
    }

    fn name(&mut self) -> String {
        match self.next() % 8 {
            0 => String::new(),
            1 => "naïve-filter".to_string(),
            2 => "名前 ✓ 🦀".to_string(),
            3 => "x".repeat(200),
            // Longer than a segment: the record must straddle two.
            4 => "é".repeat(SEGMENT_BYTES / 2 + 3),
            _ => format!("run-{}", self.next() % 1000),
        }
    }

    fn counts(&mut self) -> ComparisonCounts {
        ComparisonCounts {
            naive: self.u64(),
            expert: self.u64(),
        }
    }

    fn class(&mut self) -> WorkerClass {
        self.pick(&WorkerClass::ALL)
    }

    fn event(&mut self) -> Event {
        match self.next() as usize % VARIANTS {
            0 => Event::RunStarted { name: self.name() },
            1 => Event::PhaseTransition {
                phase: self.pick(&[TracePhase::Filter, TracePhase::Expert]),
                entered: self.flag(),
            },
            2 => Event::RoundCompleted {
                round: self.u32(),
                groups: self.u32(),
                survivors: self.u64(),
                comparisons_by_class: self.counts(),
            },
            3 => Event::FaultObserved {
                class: self.class(),
                kind: self.pick(&FaultKind::ALL),
            },
            4 => Event::RetryScheduled {
                class: self.class(),
                attempt: self.u32(),
                backoff_steps: self.u64(),
            },
            5 => Event::DeadLettered {
                class: self.class(),
                attempts: self.u32(),
                reason: self.pick(&DeadLetterReason::ALL),
            },
            6 => Event::CheckpointWritten {
                batches: self.u64(),
                bytes: self.u64(),
            },
            7 => Event::RecoveryStarted {
                batches: self.u64(),
                torn_tail: self.flag(),
            },
            8 => Event::RecoveryCompleted {
                replayed_batches: self.u64(),
                replayed_comparisons: self.u64(),
            },
            9 => Event::JobAdmitted {
                tenant: self.u32(),
                job: self.u64(),
                waited_ticks: self.u64(),
            },
            10 => Event::JobShed {
                tenant: self.u32(),
                job: self.u64(),
                retry_after: self.u64(),
            },
            11 => Event::JobCompleted {
                tenant: self.u32(),
                job: self.u64(),
                latency_ticks: self.u64(),
                comparisons: self.u64(),
                degraded: if self.flag() {
                    None
                } else {
                    Some(self.pick(&DegradedReason::ALL))
                },
            },
            12 => Event::BreakerTripped {
                shard: self.u32(),
                worker: self.u32(),
                streak: self.u32(),
                cooldown_ticks: self.u64(),
            },
            13 => Event::BreakerProbed {
                shard: self.u32(),
                worker: self.u32(),
                recovered: self.flag(),
            },
            14 => Event::SloBreached {
                tenant: self.u32(),
                tick: self.u64(),
                window_jobs: self.u64(),
                bad_jobs: self.u64(),
                bad_bps: self.u32(),
            },
            15 => Event::SloRecovered {
                tenant: self.u32(),
                tick: self.u64(),
                window_jobs: self.u64(),
                bad_bps: self.u32(),
            },
            _ => Event::RunFinished {
                name: self.name(),
                comparisons_by_class: self.counts(),
                faults: self.u64(),
            },
        }
    }

    fn span(&mut self) -> Span {
        Span {
            tenant: self.u32(),
            job: self.u64(),
            stage: self.pick(&Stage::ALL),
            start: self.u64(),
            end: self.u64(),
            ticks: self.u64(),
        }
    }
}

/// The events and spans of one case, in emission order.
fn generate(codes: &[u64]) -> (Vec<Event>, Vec<Span>) {
    let mut events = Vec::new();
    let mut spans = Vec::new();
    for &code in codes {
        let mut draw = Draw(code);
        if code % 3 == 0 {
            spans.push(draw.span());
        } else {
            events.push(draw.event());
        }
    }
    (events, spans)
}

fn emit_all(codes: &[u64]) {
    for &code in codes {
        let mut draw = Draw(code);
        if code % 3 == 0 {
            emit_span(draw.span());
        } else {
            emit(draw.event());
        }
    }
}

#[test]
fn the_generator_covers_every_variant_and_edge() {
    let events: Vec<Event> = (0..2_000u64).map(|c| Draw(c).event()).collect();
    let covered: BTreeSet<usize> = events.iter().map(variant).collect();
    assert_eq!(covered, (0..VARIANTS).collect::<BTreeSet<_>>());
    let ints: BTreeSet<u64> = events
        .iter()
        .filter_map(|e| match e {
            Event::JobShed { job, .. } => Some(*job),
            _ => None,
        })
        .collect();
    assert!(ints.contains(&u64::MAX) && ints.contains(&(u32::MAX as u64)));
    let names: BTreeSet<String> = events
        .iter()
        .filter_map(|e| match e {
            Event::RunStarted { name } => Some(name.clone()),
            _ => None,
        })
        .collect();
    assert!(names.contains("") && names.iter().any(|n| !n.is_ascii()));
    assert!(names.iter().any(|n| n.len() > SEGMENT_BYTES));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn records_read_back_as_emitted(
        codes in prop::collection::vec(any::<u64>(), 0..200),
        split in any::<u64>(),
    ) {
        let (events, spans) = generate(&codes);

        let direct = Arc::new(Recorder::new());
        {
            let _g = install_recorder(direct.clone());
            emit_all(&codes);
        }
        prop_assert_eq!(direct.events(), events.clone());
        prop_assert_eq!(direct.spans(), spans.clone());

        // The same writes through two captured segments, replayed.
        let cut = (split as usize) % (codes.len() + 1);
        let spliced = Arc::new(Recorder::new());
        {
            let _g = install_recorder(spliced.clone());
            let ((), first) = record_segment(|| emit_all(&codes[..cut]));
            let ((), second) = record_segment(|| emit_all(&codes[cut..]));
            replay(first);
            replay(second);
        }
        prop_assert_eq!(spliced.events(), events);
        prop_assert_eq!(spliced.spans(), spans);
        prop_assert_eq!(spliced.log_bytes(), direct.log_bytes());
    }
}
