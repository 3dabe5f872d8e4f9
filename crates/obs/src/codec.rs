//! The compact form events and spans take in a recorder's log.
//!
//! A record is a tag byte and its fields in declaration order: integers
//! as LEB128 varints, `bool`s and small enums as one byte, strings as a
//! varint length and their UTF-8 bytes. An
//! [`Event`] takes the tag its variant has in `event_codec!`'s table; a
//! [`Span`] takes [`SPAN`]. A typical serve event is five or six bytes, a
//! span about ten, against 48 and 40 for the values themselves.
//!
//! Records are written only by this module and read back in the same
//! process, so a malformed record is a bug and decoding panics on one.

use crate::event::Event;
use crate::span::{Span, Stage};
use crowd_core::model::WorkerClass;
use crowd_core::oracle::ComparisonCounts;
use crowd_core::trace::{DeadLetterReason, DegradedReason, FaultKind, TracePhase};

/// The tag of a [`Span`] record.
const SPAN: u8 = 0xff;

const MALFORMED: &str = "recorder log records are written by the codec";

/// One decoded record.
pub(crate) enum Record {
    Event(Event),
    Span(Span),
}

/// A value that has a record encoding.
trait Field: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn get<'a, I: Iterator<Item = &'a [u8]>>(r: &mut Records<'a, I>) -> Self;
}

impl Field for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        let mut v = *self;
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }

    fn get<'a, I: Iterator<Item = &'a [u8]>>(r: &mut Records<'a, I>) -> Self {
        let (mut v, mut shift) = (0u64, 0);
        loop {
            let b = r.byte();
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }
}

impl Field for u32 {
    fn put(&self, out: &mut Vec<u8>) {
        u64::from(*self).put(out);
    }

    fn get<'a, I: Iterator<Item = &'a [u8]>>(r: &mut Records<'a, I>) -> Self {
        u32::try_from(u64::get(r)).expect(MALFORMED)
    }
}

impl Field for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn get<'a, I: Iterator<Item = &'a [u8]>>(r: &mut Records<'a, I>) -> Self {
        r.byte() != 0
    }
}

impl Field for String {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u64).put(out);
        out.extend_from_slice(self.as_bytes());
    }

    fn get<'a, I: Iterator<Item = &'a [u8]>>(r: &mut Records<'a, I>) -> Self {
        let len = usize::try_from(u64::get(r)).expect(MALFORMED);
        let mut bytes = Vec::with_capacity(len);
        while bytes.len() < len {
            assert!(!r.at_end(), "{MALFORMED}");
            let (head, tail) = r.chunk.split_at(r.chunk.len().min(len - bytes.len()));
            bytes.extend_from_slice(head);
            r.chunk = tail;
        }
        String::from_utf8(bytes).expect(MALFORMED)
    }
}

impl Field for ComparisonCounts {
    fn put(&self, out: &mut Vec<u8>) {
        self.naive.put(out);
        self.expert.put(out);
    }

    fn get<'a, I: Iterator<Item = &'a [u8]>>(r: &mut Records<'a, I>) -> Self {
        ComparisonCounts {
            naive: Field::get(r),
            expert: Field::get(r),
        }
    }
}

impl Field for Option<DegradedReason> {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(self.map_or(0, |d| d as u8 + 1));
    }

    fn get<'a, I: Iterator<Item = &'a [u8]>>(r: &mut Records<'a, I>) -> Self {
        let d = r.byte();
        (d > 0).then(|| DegradedReason::ALL[usize::from(d - 1)])
    }
}

/// Fieldless enums travel as their position in a list of every value,
/// which is their declaration order.
macro_rules! enum_fields {
    ($($ty:ty => $all:expr),* $(,)?) => {$(
        impl Field for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                out.push(*self as u8);
            }

            fn get<'a, I: Iterator<Item = &'a [u8]>>(r: &mut Records<'a, I>) -> Self {
                *$all.get(usize::from(r.byte())).expect(MALFORMED)
            }
        }
    )*};
}

enum_fields! {
    WorkerClass => WorkerClass::ALL,
    TracePhase => [TracePhase::Filter, TracePhase::Expert],
    FaultKind => FaultKind::ALL,
    DeadLetterReason => DeadLetterReason::ALL,
    DegradedReason => DegradedReason::ALL,
    Stage => Stage::ALL,
}

/// Generates [`encode_event`] and the event half of decoding from one
/// table of `tag => Variant { fields in declaration order }`.
macro_rules! event_codec {
    ($($tag:literal => $variant:ident { $($field:ident),* },)*) => {
        /// Appends `event`'s record to `out`.
        pub(crate) fn encode_event(event: &Event, out: &mut Vec<u8>) {
            match event {
                $(Event::$variant { $($field),* } => {
                    out.push($tag);
                    $($field.put(out);)*
                })*
            }
        }

        impl<'a, I: Iterator<Item = &'a [u8]>> Records<'a, I> {
            fn event(&mut self, tag: u8) -> Event {
                match tag {
                    $($tag => Event::$variant { $($field: Field::get(self)),* },)*
                    _ => panic!("{MALFORMED}: unknown tag {tag}"),
                }
            }
        }
    };
}

event_codec! {
    0 => RunStarted { name },
    1 => PhaseTransition { phase, entered },
    2 => RoundCompleted { round, groups, survivors, comparisons_by_class },
    3 => FaultObserved { class, kind },
    4 => RetryScheduled { class, attempt, backoff_steps },
    5 => DeadLettered { class, attempts, reason },
    6 => CheckpointWritten { batches, bytes },
    7 => RecoveryStarted { batches, torn_tail },
    8 => RecoveryCompleted { replayed_batches, replayed_comparisons },
    9 => JobAdmitted { tenant, job, waited_ticks },
    10 => JobShed { tenant, job, retry_after },
    11 => JobCompleted { tenant, job, latency_ticks, comparisons, degraded },
    12 => BreakerTripped { shard, worker, streak, cooldown_ticks },
    13 => BreakerProbed { shard, worker, recovered },
    14 => SloBreached { tenant, tick, window_jobs, bad_jobs, bad_bps },
    15 => SloRecovered { tenant, tick, window_jobs, bad_bps },
    16 => RunFinished { name, comparisons_by_class, faults },
}

/// Appends `span`'s record to `out`.
pub(crate) fn encode_span(span: &Span, out: &mut Vec<u8>) {
    out.push(SPAN);
    span.tenant.put(out);
    span.job.put(out);
    span.stage.put(out);
    span.start.put(out);
    span.end.put(out);
    span.ticks.put(out);
}

/// Reads records back from a log's chunks, whose concatenation is the
/// log; a record may straddle chunks.
pub(crate) struct Records<'a, I> {
    chunk: &'a [u8],
    rest: I,
}

impl<'a, I: Iterator<Item = &'a [u8]>> Records<'a, I> {
    pub(crate) fn new(chunks: I) -> Self {
        Records {
            chunk: &[],
            rest: chunks,
        }
    }

    /// True once every chunk is consumed.
    fn at_end(&mut self) -> bool {
        while self.chunk.is_empty() {
            match self.rest.next() {
                Some(chunk) => self.chunk = chunk,
                None => return true,
            }
        }
        false
    }

    fn byte(&mut self) -> u8 {
        assert!(!self.at_end(), "{MALFORMED}");
        let b = self.chunk[0];
        self.chunk = &self.chunk[1..];
        b
    }
}

impl<'a, I: Iterator<Item = &'a [u8]>> Iterator for Records<'a, I> {
    type Item = Record;

    fn next(&mut self) -> Option<Record> {
        if self.at_end() {
            return None;
        }
        Some(match self.byte() {
            SPAN => Record::Span(Span {
                tenant: Field::get(self),
                job: Field::get(self),
                stage: Field::get(self),
                start: Field::get(self),
                end: Field::get(self),
                ticks: Field::get(self),
            }),
            tag => Record::Event(self.event(tag)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(events: &[Event], spans: &[Span], split: usize) {
        let mut bytes = Vec::new();
        for (event, span) in events.iter().zip(spans) {
            encode_event(event, &mut bytes);
            encode_span(span, &mut bytes);
        }
        // Chunks of `split` bytes: every record boundary and every field
        // boundary falls inside or at the edge of some chunk.
        let mut got_events = Vec::new();
        let mut got_spans = Vec::new();
        for record in Records::new(bytes.chunks(split)) {
            match record {
                Record::Event(e) => got_events.push(e),
                Record::Span(s) => got_spans.push(s),
            }
        }
        assert_eq!(got_events, events);
        assert_eq!(got_spans, spans);
    }

    #[test]
    fn records_straddling_chunks_decode() {
        let events = vec![
            Event::RunStarted {
                name: "é-name".to_string(),
            },
            Event::JobCompleted {
                tenant: u32::MAX,
                job: u64::MAX,
                latency_ticks: 300,
                comparisons: 0,
                degraded: Some(DegradedReason::DeadLetters),
            },
        ];
        let spans = vec![
            Span {
                tenant: 7,
                job: 1 << 40,
                stage: Stage::Completion,
                start: 9,
                end: 9,
                ticks: 0,
            };
            2
        ];
        for split in 1..12 {
            round_trip(&events, &spans, split);
        }
    }

    #[test]
    fn varints_are_short_for_small_values() {
        let mut out = Vec::new();
        127u64.put(&mut out);
        assert_eq!(out, [127]);
        out.clear();
        u64::MAX.put(&mut out);
        assert_eq!(out.len(), 10);
    }
}
