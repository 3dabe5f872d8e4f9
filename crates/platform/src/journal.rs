//! Write-ahead journaling of platform batches for crash recovery.
//!
//! Crowdsourced judgments cost real money: a campaign killed halfway has
//! paid for every answered comparison, and restarting from scratch buys
//! them all again. The paper's two-phase algorithm is driven entirely by
//! its ordered comparison stream, so a journal of *(batch pairs, worker
//! assignments, outcomes, RNG stream positions, budget spent)* is a
//! complete recovery state.
//!
//! This module provides the journal itself:
//!
//! * [`JournalRecord`] — the versioned record vocabulary: one
//!   [`Started`](JournalRecord::Started) header, then a
//!   [`Scheduled`](JournalRecord::Scheduled) /
//!   [`Completed`](JournalRecord::Completed) pair per batch.
//! * [`Journal`] — an append-only byte log with an explicit durability
//!   line: records accumulate in a pending buffer and survive a crash
//!   only once [`flush`](Journal::flush)ed. Every record is framed as
//!   `<len> <frame_sum-hex16> <json>\n` (length-prefixed + checksummed
//!   JSONL), so a torn tail — a crash mid-write — is *detected*, not
//!   silently parsed. The checksum is [`frame_sum`], which reads the
//!   payload eight bytes per step and always catches a corruption
//!   confined to one 8-byte word. Both record vocabularies are declared
//!   through one table each (`json_records!`), which generates their
//!   JSON encoders: a record is encoded from borrowed slices into a
//!   reused buffer and framed, so a warm journal appends without
//!   allocating.
//!   Durable bytes live in fixed [`SEGMENT_BYTES`] segments
//!   ([`crowd_obs::segments`], the store recorder logs use too), never one
//!   growing buffer: a flush copies the pending bytes into the tail
//!   segment and opens a new one when it fills, so nothing durable is
//!   ever reallocated or copied again and at most one segment is slack.
//!   [`Journal::durable`] is a borrowed [`DurableBytes`] view over them;
//!   readers that need one contiguous slice (recovery, decoding, crash
//!   cuts) take a copy with [`DurableBytes::to_vec`], off the hot path.
//! * [`JournaledOracle`] — a [`PlatformOracle`] decorator that
//!   write-ahead journals every batch: the `Scheduled` record is flushed
//!   *before* workers are asked (the WAL invariant — at most one batch is
//!   ever in flight), the `Completed` record is flushed at the
//!   batch-aligned cadence of a [`CheckpointPolicy`].
//! * [`crash_cuts`] — the byte lengths a crash can leave durable. A run
//!   is deterministic and a killed run's output is thrown away, so what
//!   a kill leaves is a prefix of the uninterrupted run's durable bytes:
//!   cut at a frame boundary, or inside the next frame for a torn write.
//!   Resume equivalence is checked by resuming from such cuts of one
//!   uninterrupted journal.
//! * [`Journal::resuming`] — the one resume audit, shared by the batch
//!   and serve stacks: a resumed run must rewrite the crashed journal's
//!   intact bytes, and every frame it writes is compared with them.
//!
//! Recovery from these bytes lives in [`mod@crate::recover`].

use crate::platform::{Platform, PlatformOracle};
use crate::serve::{JobId, TenantId};
use crate::worker::WorkerId;
use crowd_core::element::ElementId;
use crowd_core::model::WorkerClass;
use crowd_core::oracle::{ComparisonCounts, ComparisonOracle, OracleError};
use crowd_core::trace::DegradedReason;
use crowd_obs::segments::Segments;
use crowd_obs::Event;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::io::Write;

/// Version stamped into every [`JournalRecord::Started`] header. Bump on
/// any change to the record vocabulary or frame format; recovery refuses
/// journals written by a different version rather than misread them.
/// Version 3 checksums frames with [`frame_sum`]; version 2 used
/// [`fnv1a64`].
pub const JOURNAL_VERSION: u32 = 3;

/// FNV-1a 64-bit: a byte-serial hash with no dependencies. It fingerprints
/// the service config (`ServeConfig::digest`) and pins golden outputs in
/// tests; journal frames use the faster [`frame_sum`].
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The journal frame checksum: eight payload bytes per step.
///
/// The state starts from the payload length. Each little-endian 8-byte
/// word `w` (the tail zero-padded) updates it as
/// `h = (h ^ w).wrapping_mul(ODD).rotate_left(31)`, and a final avalanche
/// (MurmurHash3's `fmix64`) spreads every state bit over the result.
/// Each of those steps is a bijection of the state, so two payloads of
/// one length that differ only inside one 8-byte word always get
/// different sums: any single-word corruption, a flipped bit or a
/// rewritten byte included, is caught. A change of length reaches the
/// state through its seed. Not cryptographic: it catches torn tails and
/// bit rot, not forgery.
pub fn frame_sum(bytes: &[u8]) -> u64 {
    const ODD: u64 = 0x9E37_79B9_7F4A_7C15;
    fn word(bytes: &[u8]) -> u64 {
        let mut w = [0u8; 8];
        w[..bytes.len()].copy_from_slice(bytes);
        u64::from_le_bytes(w)
    }
    let mut h = 0x243F_6A88_85A3_08D3 ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = (h ^ word(w)).wrapping_mul(ODD).rotate_left(31);
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        h = (h ^ word(tail)).wrapping_mul(ODD).rotate_left(31);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// A value a record encoder writes, byte for byte as `serde_json` writes
/// it. `Arg` is how an encoder takes the value: a scalar by value, a list
/// as a slice, a string as a `str`, a struct by reference. So the hot
/// paths encode from borrowed data and never build a record.
///
/// A `Vec<T>` is written by `T::put_list`. Its default writes `[`, each
/// item's `put` with a comma between, and `]`. The integer leaves and
/// pairs of them override it to write the whole list in one pass: `out`
/// grows once to the list's longest form, the digits go in by index, two
/// at a time, and `out` is cut back to what was written.
pub(crate) trait Json {
    /// The encoder's argument type for this value.
    type Arg<'a>: Copy
    where
        Self: 'a;
    /// Borrows the value as its encoder argument.
    fn arg(&self) -> Self::Arg<'_>;
    /// Appends the argument's JSON to `out`.
    fn put(arg: Self::Arg<'_>, out: &mut Vec<u8>);
    /// Appends the JSON list of `items` to `out`.
    fn put_list(items: &[Self], out: &mut Vec<u8>)
    where
        Self: Sized,
    {
        out.push(b'[');
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            Self::put(item.arg(), out);
        }
        out.push(b']');
    }
}

/// Declares a type from one table of its fields, with derives and docs
/// as written, and generates its JSON encoding from the same table.
///
/// * A `struct` gets a [`Json`] impl that writes it as an object of its
///   fields in order: serde's form of the struct.
/// * An `enum` of struct variants, each named `Variant => encoder { .. }`,
///   gets one `pub(crate) fn encoder(out, field, ..)` per variant, which
///   takes each field as its [`Json::Arg`] and appends serde's externally
///   tagged form `{"Variant":{"field":..}}`; and an owned `encode(&self,
///   out)` that calls them.
///
/// Every field ends in a comma, and every type has at least one field.
macro_rules! json_records {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$m:meta])* $v:vis $f:ident: $t:ty,)+
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$m])* $v $f: $t,)+
        }

        impl $crate::journal::Json for $name {
            type Arg<'a> = &'a $name;

            fn arg(&self) -> &$name {
                self
            }

            fn put(value: &$name, out: &mut Vec<u8>) {
                let $name { $($f),+ } = value;
                json_records!(@object out, $($f: $t = $f.arg()),+);
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident => $encoder:ident {
                    $($(#[$m:meta])* $f:ident: $t:ty,)+
                },
            )+
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $variant {
                    $($(#[$m])* $f: $t,)+
                },
            )+
        }

        impl $name {
            /// Appends the record's JSON to `out`.
            pub(crate) fn encode(&self, out: &mut Vec<u8>) {
                use $crate::journal::Json;
                match self {
                    $($name::$variant { $($f),+ } => $encoder(out, $($f.arg()),+),)+
                }
            }
        }

        $(
            #[doc = concat!(
                "Appends the JSON of a [`",
                stringify!($name), "::", stringify!($variant),
                "`] record to `out`."
            )]
            // One argument per field of the record, which has as many as
            // it needs.
            #[allow(clippy::too_many_arguments)]
            pub(crate) fn $encoder(
                out: &mut Vec<u8>,
                $($f: <$t as $crate::journal::Json>::Arg<'_>,)+
            ) {
                out.extend_from_slice(concat!("{\"", stringify!($variant), "\":").as_bytes());
                json_records!(@object out, $($f: $t = $f),+);
                out.push(b'}');
            }
        )+
    };
    // `{"field":value,..}`, each value written by its type's `Json::put`.
    (@object $out:ident, $($f:ident: $t:ty = $e:expr),+) => {
        let start = $out.len();
        $(
            $out.extend_from_slice(concat!(",\"", stringify!($f), "\":").as_bytes());
            <$t as $crate::journal::Json>::put($e, $out);
        )+
        // The first field's comma opens the object.
        $out[start] = b'{';
        $out.push(b'}');
    };
}
pub(crate) use json_records;

/// Leaf values passed to encoders by value.
macro_rules! scalar_json {
    ($($ty:ty => |$value:ident, $out:ident| $body:expr;)*) => {$(
        impl Json for $ty {
            type Arg<'a> = $ty;

            fn arg(&self) -> $ty {
                *self
            }

            fn put($value: $ty, $out: &mut Vec<u8>) {
                $body
            }
        }
    )*};
}

/// An integer leaf, written as bare decimal digits.
pub(crate) trait Int: Copy {
    /// The most decimal digits a value can have.
    const DIGITS: usize;
    /// The value.
    fn get(self) -> u64;
}

macro_rules! int_json {
    ($($ty:ty => |$n:ident| $get:expr, $digits:expr;)*) => {$(
        impl Int for $ty {
            const DIGITS: usize = $digits;

            fn get(self) -> u64 {
                let $n = self;
                $get
            }
        }
    )*};
}

int_json! {
    u32 => |n| u64::from(n), 10;
    u64 => |n| n, 20;
    ElementId => |id| u64::from(id.0), 10;
    WorkerId => |id| u64::from(id.0), 10;
    JobId => |id| id.0, 20;
    TenantId => |id| u64::from(id.0), 10;
}

impl<T: Int> Json for T {
    type Arg<'a>
        = T
    where
        T: 'a;

    fn arg(&self) -> T {
        *self
    }

    fn put(n: T, out: &mut Vec<u8>) {
        push_u64(out, n.get());
    }

    fn put_list(items: &[T], out: &mut Vec<u8>) {
        put_rows(out, items, T::DIGITS, |buf, n| write_decimal(buf, n.get()));
    }
}

/// Pairs are written as two-element lists; the journals hold only pairs
/// of integers.
impl<A: Int, B: Int> Json for (A, B) {
    type Arg<'a>
        = (A, B)
    where
        Self: 'a;

    fn arg(&self) -> (A, B) {
        *self
    }

    fn put(pair: (A, B), out: &mut Vec<u8>) {
        let mut row = [0u8; 43];
        let len = write_pair(&mut row, pair);
        out.extend_from_slice(&row[..len]);
    }

    fn put_list(items: &[(A, B)], out: &mut Vec<u8>) {
        put_rows(out, items, A::DIGITS + B::DIGITS + 3, write_pair);
    }
}

/// Writes `[a,b]` at the start of `buf` and returns its length.
fn write_pair<A: Int, B: Int>(buf: &mut [u8], (a, b): (A, B)) -> usize {
    buf[0] = b'[';
    let mut at = 1 + write_decimal(&mut buf[1..], a.get());
    buf[at] = b',';
    at += 1 + write_decimal(&mut buf[at + 1..], b.get());
    buf[at] = b']';
    at + 1
}

scalar_json! {
    bool => |b, out| out.extend_from_slice(if b { b"true" } else { b"false" });
    // Display is the shortest round-trip form serde_json prints, and it
    // prints `null` for a non-finite float; writing into a Vec cannot fail.
    f64 => |x, out| if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.extend_from_slice(b"null");
    };
    WorkerClass => |class, out| out.extend_from_slice(match class {
        WorkerClass::Naive => b"\"Naive\"",
        WorkerClass::Expert => b"\"Expert\"",
    });
    ComparisonCounts => |counts, out| {
        out.extend_from_slice(b"{\"naive\":");
        push_u64(out, counts.naive);
        out.extend_from_slice(b",\"expert\":");
        push_u64(out, counts.expert);
        out.push(b'}');
    };
    Option<DegradedReason> => |reason, out| out.extend_from_slice(match reason {
        None => b"null",
        Some(DegradedReason::DeadlineLapsed) => b"\"DeadlineLapsed\"",
        Some(DegradedReason::ExpertExhausted) => b"\"ExpertExhausted\"",
        Some(DegradedReason::BudgetExhausted) => b"\"BudgetExhausted\"",
        Some(DegradedReason::DeadLetters) => b"\"DeadLetters\"",
    });
}

impl<T: Json> Json for Vec<T> {
    type Arg<'a>
        = &'a [T]
    where
        T: 'a;

    fn arg(&self) -> &[T] {
        self
    }

    fn put(items: &[T], out: &mut Vec<u8>) {
        T::put_list(items, out);
    }
}

impl Json for String {
    type Arg<'a> = &'a str;

    fn arg(&self) -> &str {
        self
    }

    /// Escapes exactly as `serde_json` does: `"` and `\` get a backslash,
    /// the control characters with a short form become `\b \t \n \f \r`,
    /// every other one below U+0020 becomes `\u00xx`, and everything else
    /// (DEL and non-ASCII included) is copied.
    fn put(s: &str, out: &mut Vec<u8>) {
        out.push(b'"');
        let bytes = s.as_bytes();
        let mut start = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let short = match b {
                b'"' => b'"',
                b'\\' => b'\\',
                0x08 => b'b',
                b'\t' => b't',
                b'\n' => b'n',
                0x0c => b'f',
                b'\r' => b'r',
                0x00..=0x1f => b'u',
                _ => continue,
            };
            out.extend_from_slice(&bytes[start..i]);
            out.push(b'\\');
            out.push(short);
            if short == b'u' {
                out.extend_from_slice(b"00");
                out.push(b"0123456789abcdef"[usize::from(b >> 4)]);
                out.push(b"0123456789abcdef"[usize::from(b & 0xf)]);
            }
            start = i + 1;
        }
        out.extend_from_slice(&bytes[start..]);
        out.push(b'"');
    }
}

json_records! {
    /// One journal record, written as one framed JSON line.
    ///
    /// The JSON is serde's externally tagged form of this enum, for example
    /// `{"Scheduled":{"batch":0,"class":"Naive","pairs":[[0,1]]}}`: ids are
    /// bare integers, `spent` is Rust's shortest round-trip float (`null` when
    /// not finite). [`Journal::append`] writes it through encoders generated
    /// from this declaration, and [`Journal::decode`] reads it back through
    /// `serde_json`.
    #[derive(Debug, Clone, PartialEq, Deserialize)]
    pub enum JournalRecord {
        /// The journal header — always the first record.
        Started => started {
            /// The writing code's [`JOURNAL_VERSION`].
            version: u32,
            /// A caller-chosen job label (recovery verifies it resumes the
            /// job it thinks it does).
            job: String,
            /// The platform RNG seed the job was started with.
            seed: u64,
        },
        /// A batch is about to be submitted to workers. Flushed *before*
        /// execution — the write-ahead half of the WAL pair.
        Scheduled => scheduled {
            /// 0-based batch index.
            batch: u64,
            /// The worker class asked.
            class: WorkerClass,
            /// The comparison pairs, in submission order.
            pairs: Vec<(ElementId, ElementId)>,
        },
        /// The batch finished (fully, or up to a mid-batch fault).
        Completed => completed {
            /// The matching [`Scheduled`](JournalRecord::Scheduled) index.
            batch: u64,
            /// Majority winner per pair, in submission order. On a partial
            /// batch this is the completed *prefix* — those answers were
            /// purchased and must never be re-bought.
            winners: Vec<ElementId>,
            /// Workers the batch's schedule assigned, in assignment order.
            workers: Vec<WorkerId>,
            /// The platform's cumulative judgment tally after the batch.
            counts: ComparisonCounts,
            /// Money spent after the batch, in the ledger's units.
            spent: f64,
            /// The fault plan's SplitMix64 stream position after the batch:
            /// the attempt index the next judgment fate will be drawn at.
            fault_seq: u64,
            /// True when the batch errored mid-way and `winners` is a prefix.
            partial: bool,
        },
    }
}

/// When `Completed` records are made durable. `Scheduled` records ignore
/// the cadence: the WAL invariant flushes them unconditionally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointPolicy {
    /// Flush after this many completed batches (minimum 1).
    pub every_batches: u64,
}

impl CheckpointPolicy {
    /// Checkpoint after every completed batch — maximum durability, one
    /// flush per batch.
    pub fn every_batch() -> Self {
        CheckpointPolicy { every_batches: 1 }
    }

    /// Checkpoint after every `n` completed batches (`n` is clamped to at
    /// least 1). Larger `n` amortizes flushes; a crash can lose up to
    /// `n - 1` completed batches (they are then re-bought on resume).
    pub fn every(n: u64) -> Self {
        CheckpointPolicy {
            every_batches: n.max(1),
        }
    }
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy::every_batch()
    }
}

/// The outcome of decoding journal bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedJournal {
    /// The records that decoded cleanly, in order.
    pub records: Vec<JournalRecord>,
    /// Bytes consumed by those records — the recovery point.
    pub valid_bytes: usize,
    /// True when trailing bytes after the last clean record failed the
    /// frame or checksum check (a torn tail from a crash mid-write).
    pub torn_tail: bool,
}

pub use crowd_obs::segments::SEGMENT_BYTES;

/// An append-only journal with an explicit durability line.
///
/// The in-memory stand-in for an fsync'd file: [`append`](Journal::append)
/// buffers a record, [`flush`](Journal::flush) moves the buffer across the
/// durability line, and a crash discards whatever was still pending — or,
/// for a torn write, leaves part of a frame (see [`crash_cuts`]).
///
/// The durable bytes are kept in segments of [`SEGMENT_BYTES`] each,
/// every one but the last full; frames straddle segment boundaries
/// freely. [`durable`](Journal::durable) views them in place, and
/// [`DurableBytes::to_vec`] is the cold path that copies them into one
/// slice for the decoders.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    durable: Segments,
    pending: Vec<u8>,
    /// Reused buffer a record's JSON is encoded into before framing.
    scratch: Vec<u8>,
    /// On a resumed run, the crashed run's intact bytes: every frame must
    /// reproduce them at its own offset. Dropped once a frame passes
    /// their end or differs from them; always empty on a fresh journal.
    expected: Vec<u8>,
    /// A frame differed from `expected`.
    diverged: bool,
}

/// A borrowed view of a journal's durable bytes (see
/// [`Journal::durable`]): their length, their segments in order, and a
/// copy into one `Vec`. Compares equal to a byte slice holding the same
/// bytes, wherever the segment boundaries fall.
#[derive(Clone, Copy)]
pub struct DurableBytes<'a> {
    bytes: &'a Segments,
}

impl<'a> DurableBytes<'a> {
    /// Total durable bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when nothing is durable yet.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The bytes as consecutive slices, in order; their concatenation is
    /// the journal.
    pub fn chunks(&self) -> impl Iterator<Item = &'a [u8]> + 'a {
        self.bytes.chunks()
    }

    /// Copies the bytes into one `Vec`: the cold path for readers that
    /// need a contiguous slice, such as [`Journal::decode`].
    pub fn to_vec(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(self.len());
        for chunk in self.chunks() {
            bytes.extend_from_slice(chunk);
        }
        bytes
    }
}

impl std::fmt::Debug for DurableBytes<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableBytes")
            .field("len", &self.len())
            .field("segments", &self.chunks().count())
            .finish()
    }
}

impl PartialEq<[u8]> for DurableBytes<'_> {
    fn eq(&self, other: &[u8]) -> bool {
        if self.len() != other.len() {
            return false;
        }
        let mut rest = other;
        self.chunks().all(|chunk| {
            let (head, tail) = rest.split_at(chunk.len());
            rest = tail;
            head == chunk
        })
    }
}

impl PartialEq<&[u8]> for DurableBytes<'_> {
    fn eq(&self, other: &&[u8]) -> bool {
        *self == **other
    }
}

impl PartialEq<Vec<u8>> for DurableBytes<'_> {
    fn eq(&self, other: &Vec<u8>) -> bool {
        *self == **other
    }
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Self {
        Journal::default()
    }

    /// An empty journal for a resumed run, which must rewrite `intact`
    /// byte for byte: the intact frames of the crashed run's journal
    /// ([`DecodedFrames::valid_bytes`] of them). Each frame appended is
    /// compared with the bytes at its offset until the journal passes
    /// their end, so a resumed run is audited on every record it writes,
    /// and a frame this code would not write is a divergence.
    pub fn resuming(intact: &[u8]) -> Self {
        Journal {
            expected: intact.to_vec(),
            ..Journal::default()
        }
    }

    /// True while the journal has not yet rewritten all of the crashed
    /// run's intact bytes and has not diverged from them.
    pub(crate) fn auditing(&self) -> bool {
        !self.expected.is_empty()
    }

    /// True once a frame differed from the crashed run's bytes at its
    /// offset.
    pub fn diverged(&self) -> bool {
        self.diverged
    }

    /// Encodes `record` into the pending buffer as one
    /// `<len> <frame_sum:016x> <json>\n` frame. Not durable until
    /// [`flush`](Journal::flush).
    pub fn append(&mut self, record: &JournalRecord) {
        self.append_with(|out| record.encode(out));
    }

    /// Frames one record that `encode` writes into the journal's reused
    /// scratch buffer: the seam both stacks' generated encoders write
    /// through, so the hot paths encode borrowed data without building a
    /// record.
    pub(crate) fn append_with(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        let mut json = std::mem::take(&mut self.scratch);
        json.clear();
        encode(&mut json);
        self.push_frame(&json);
        self.scratch = json;
    }

    /// Encodes an arbitrary pre-serialized JSON record into the pending
    /// buffer using the same `<len> <checksum> <json>\n` framing, so a
    /// record vocabulary defined outside this crate shares the journal's
    /// torn-tail story.
    pub fn append_json(&mut self, json: &str) {
        self.push_frame(json.as_bytes());
    }

    /// Frames already-encoded JSON bytes into the pending buffer. Every
    /// record reaches it, whether encoded by [`append_with`](Self::append_with)
    /// or handed in by [`append_json`](Self::append_json), so every journal
    /// in the workspace has one frame format.
    pub(crate) fn push_frame(&mut self, json: &[u8]) {
        let start = self.pending.len();
        push_frame_header(&mut self.pending, json.len() as u64, frame_sum(json));
        self.pending.extend_from_slice(json);
        self.pending.push(b'\n');
        if !self.expected.is_empty() {
            self.audit(start);
        }
    }

    /// Compares the frame just written at `pending[start..]` with the
    /// crashed run's bytes at the same offset. Those bytes end at a frame
    /// boundary, so a frame that runs past their end differs from them.
    #[cold]
    fn audit(&mut self, start: usize) {
        let frame = &self.pending[start..];
        let at = self.durable.len() + start;
        self.diverged = self.expected.get(at..at + frame.len()) != Some(frame);
        if self.diverged || at + frame.len() == self.expected.len() {
            self.expected = Vec::new();
        }
    }

    /// Moves every pending byte across the durability line. Returns the
    /// bytes flushed (0 when nothing was pending).
    pub fn flush(&mut self) -> u64 {
        self.durable.extend(&self.pending);
        let n = self.pending.len() as u64;
        self.pending.clear();
        n
    }

    /// The bytes that would survive a crash right now, viewed in place.
    pub fn durable(&self) -> DurableBytes<'_> {
        DurableBytes {
            bytes: &self.durable,
        }
    }

    /// Bytes appended but not yet flushed.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Decodes journal bytes frame by frame, stopping at the first torn
    /// or corrupt frame. Never fails: a journal is readable up to its
    /// last intact record by construction.
    pub fn decode(bytes: &[u8]) -> DecodedJournal {
        let raw = Journal::decode_json(bytes);
        let mut records = Vec::new();
        let mut valid_bytes = 0usize;
        let mut torn_tail = raw.torn_tail;
        for (json, len) in raw.frames {
            match serde_json::from_str(&json) {
                Ok(record) => {
                    records.push(record);
                    valid_bytes += len;
                }
                Err(_) => {
                    // Intact frame, wrong vocabulary: unreadable from here.
                    torn_tail = true;
                    break;
                }
            }
        }
        DecodedJournal {
            records,
            valid_bytes,
            torn_tail,
        }
    }

    /// Decodes journal bytes into raw JSON payloads, stopping at the first
    /// torn or corrupt frame, without committing to a record vocabulary.
    /// Shared by every journal reader in the workspace.
    pub fn decode_json(bytes: &[u8]) -> DecodedFrames {
        let mut frames = Vec::new();
        let mut pos = 0usize;
        while pos < bytes.len() {
            let Some(frame) = decode_raw_frame(&bytes[pos..]) else {
                return DecodedFrames {
                    frames,
                    valid_bytes: pos,
                    torn_tail: true,
                };
            };
            pos += frame.1;
            frames.push(frame);
        }
        DecodedFrames {
            frames,
            valid_bytes: pos,
            torn_tail: false,
        }
    }
}

/// The lengths at which a crash can cut a journal, after its header:
/// every later frame's start, its midpoint and one byte short of its end,
/// and the full length. A start or the full length is a frame boundary;
/// the other two leave a torn frame that decoding must drop. A cut inside
/// the header is a run that never started, so none is returned. Built on
/// [`Journal::decode_json`]'s frame lengths; a torn tail of `bytes` itself
/// is not cut into.
pub fn crash_cuts(bytes: &[u8]) -> Vec<usize> {
    let frames = Journal::decode_json(bytes).frames;
    let mut start = frames.first().map_or(0, |(_, len)| *len);
    let mut cuts = Vec::with_capacity(3 * frames.len() + 1);
    for (_, len) in frames.iter().skip(1) {
        cuts.extend([start, start + len / 2, start + len - 1]);
        start += len;
    }
    cuts.push(bytes.len());
    cuts
}

/// Raw frames decoded from journal bytes: `(json payload, encoded frame
/// length)` pairs plus the same torn-tail verdict [`DecodedJournal`]
/// carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedFrames {
    /// The intact frames, in order: JSON payload and total encoded length.
    pub frames: Vec<(String, usize)>,
    /// Bytes consumed by the intact frames.
    pub valid_bytes: usize,
    /// True when trailing bytes failed the frame or checksum check.
    pub torn_tail: bool,
}

/// Decodes one `<len> <checksum> <json>\n` frame from the front of
/// `bytes` into `(json, total frame length)`, or `None` when the frame is
/// truncated or corrupt. The header must be written exactly as
/// [`push_frame_header`] writes it: decimal digits, then 16 lowercase hex
/// digits. A sign or an upper-case digit would otherwise let a one-byte
/// change of the header still parse to the same frame.
fn decode_raw_frame(bytes: &[u8]) -> Option<(String, usize)> {
    let sp1 = bytes.iter().position(|&b| b == b' ')?;
    if sp1 == 0 {
        return None;
    }
    let len = bytes[..sp1].iter().try_fold(0usize, |acc, &b| {
        let digit = b.is_ascii_digit().then(|| usize::from(b - b'0'))?;
        acc.checked_mul(10)?.checked_add(digit)
    })?;
    let sum_start = sp1 + 1;
    let sum_end = sum_start.checked_add(16)?;
    if bytes.len() <= sum_end || bytes[sum_end] != b' ' {
        return None;
    }
    let sum = bytes[sum_start..sum_end].iter().try_fold(0u64, |acc, &b| {
        let digit = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            _ => return None,
        };
        Some(acc << 4 | u64::from(digit))
    })?;
    let json_start = sum_end + 1;
    let json_end = json_start.checked_add(len)?;
    if bytes.len() <= json_end || bytes[json_end] != b'\n' {
        return None;
    }
    let json = &bytes[json_start..json_end];
    if frame_sum(json) != sum {
        return None;
    }
    Some((std::str::from_utf8(json).ok()?.to_string(), json_end + 1))
}

/// Appends a frame's `<len> <checksum:016x> ` header.
fn push_frame_header(out: &mut Vec<u8>, len: u64, checksum: u64) {
    push_u64(out, len);
    out.push(b' ');
    let mut digits = [0u8; 16];
    for (i, d) in digits.iter_mut().enumerate() {
        *d = b"0123456789abcdef"[(checksum >> (60 - 4 * i)) as usize & 0xf];
    }
    out.extend_from_slice(&digits);
    out.push(b' ');
}

/// Appends `n` in decimal.
fn push_u64(out: &mut Vec<u8>, n: u64) {
    let mut digits = [0u8; 20];
    let len = write_decimal(&mut digits, n);
    out.extend_from_slice(&digits[..len]);
}

/// `00`, `01`, .., `99`: the decimal digits of every number below 100.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Writes `n` in decimal at the start of `buf` and returns its length.
fn write_decimal(buf: &mut [u8], mut n: u64) -> usize {
    let len = n.checked_ilog10().map_or(1, |d| d as usize + 1);
    let digits = &mut buf[..len];
    let mut end = len;
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        end -= 2;
        digits[end..end + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        digits[..2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        digits[0] = b'0' + n as u8;
    }
    len
}

/// Appends the JSON list of `items` in one pass: `out` grows once to hold
/// `items.len()` rows of at most `max_row` bytes each, `row` writes each
/// item at the start of the slice it is given and returns its length, and
/// `out` is cut back to the bytes written.
fn put_rows<T: Copy>(
    out: &mut Vec<u8>,
    items: &[T],
    max_row: usize,
    row: impl Fn(&mut [u8], T) -> usize,
) {
    let start = out.len();
    out.resize(start + 2 + items.len() * (max_row + 1), 0);
    let buf = &mut out[start..];
    buf[0] = b'[';
    let mut at = 1;
    for &item in items {
        at += row(&mut buf[at..], item);
        buf[at] = b',';
        at += 1;
    }
    // The last row's comma becomes the closing bracket; an empty list
    // has none, so its bracket goes right after the opening one.
    let end = at.max(2);
    buf[end - 1] = b']';
    out.truncate(start + end);
}

/// Checks that every single-byte change and every truncation of `frame`,
/// written after the intact frames `prefix`, leaves exactly `prefix`
/// readable and flags a torn tail. `decode` returns the
/// `(valid_bytes, torn_tail)` verdict of the reader under test.
#[cfg(test)]
pub(crate) fn assert_frame_corruptions_are_caught(
    prefix: &[u8],
    frame: &[u8],
    decode: impl Fn(&[u8]) -> (usize, bool),
) {
    let clean = [prefix, frame].concat();
    assert_eq!(decode(&clean), (clean.len(), false), "the clean journal");
    let torn = (prefix.len(), true);
    let mut bytes = clean.clone();
    for i in prefix.len()..clean.len() {
        let original = bytes[i];
        for b in (0..=u8::MAX).filter(|&b| b != original) {
            bytes[i] = b;
            assert_eq!(decode(&bytes), torn, "byte {i} set to {b:#04x}");
        }
        bytes[i] = original;
    }
    for keep in prefix.len() + 1..clean.len() {
        assert_eq!(decode(&clean[..keep]), torn, "cut after {keep} bytes");
    }
}

/// A [`PlatformOracle`] decorator that write-ahead journals every batch.
///
/// Per batch: the `Scheduled` record is appended and *flushed* before any
/// worker is asked (so a crash can leave at most one batch in flight),
/// the batch runs on the wrapped platform, and the `Completed` record —
/// winners, worker assignments, cumulative tally, spend, and the fault
/// plan's SplitMix64 position — is appended and flushed at the
/// [`CheckpointPolicy`] cadence. Each checkpoint emits
/// [`Event::CheckpointWritten`] and bumps the
/// [`crowd_journal_bytes_total`](crowd_obs::names::JOURNAL_BYTES) counter.
///
/// A crash at any point leaves a prefix of the durable bytes (see
/// [`crash_cuts`]); [`mod@crate::recover`] turns them back into a running
/// job.
#[derive(Debug)]
pub struct JournaledOracle<R: RngCore> {
    inner: PlatformOracle<R>,
    journal: Journal,
    policy: CheckpointPolicy,
    next_batch: u64,
    unflushed_completed: u64,
    /// On a resumed run, the `(batches, comparisons)` its
    /// [`Event::RecoveryCompleted`] reports once the journal has rewritten
    /// the crashed run's intact bytes.
    replayed: Option<(u64, u64)>,
    /// The winners buffer a scalar comparison reuses.
    winner: Vec<ElementId>,
}

impl<R: RngCore> JournaledOracle<R> {
    /// Wraps `platform`, journaling under the given job label and
    /// checkpoint cadence. The `Started` header is flushed immediately.
    pub fn new(platform: Platform<R>, job: &str, seed: u64, policy: CheckpointPolicy) -> Self {
        Self::resuming(Journal::new(), None, platform, job, seed, policy)
    }

    /// [`new`](Self::new) over `journal`, which is a
    /// [`Journal::resuming`] one on a resumed run. Such a run refuses
    /// every batch from the first frame that diverges from the crashed
    /// run's bytes, before any worker is asked when that frame is the
    /// batch's `Scheduled` record. It reports `replayed` in
    /// [`Event::RecoveryCompleted`] right after the batch whose frames
    /// pass their end, or at once when they hold only the header.
    pub(crate) fn resuming(
        mut journal: Journal,
        replayed: Option<(u64, u64)>,
        platform: Platform<R>,
        job: &str,
        seed: u64,
        policy: CheckpointPolicy,
    ) -> Self {
        journal.append_with(|out| started(out, JOURNAL_VERSION, job, seed));
        journal.flush();
        let mut oracle = JournaledOracle {
            inner: PlatformOracle::new(platform),
            journal,
            policy,
            next_batch: 0,
            unflushed_completed: 0,
            replayed,
            winner: Vec::with_capacity(1),
        };
        // A diverged header refuses the first batch instead.
        let _ = oracle.audit();
        oracle
    }

    /// The journal (its [`durable`](Journal::durable) bytes are what a
    /// crash leaves behind).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The wrapped platform.
    pub fn platform(&self) -> &Platform<R> {
        self.inner.platform()
    }

    /// Batches journaled so far.
    pub fn batches(&self) -> u64 {
        self.next_batch
    }

    /// Flushes any pending `Completed` records (an orderly shutdown —
    /// call when the driving algorithm finishes). Returns bytes flushed.
    pub fn finish(&mut self) -> u64 {
        let bytes = self.journal.flush();
        if bytes > 0 {
            self.checkpoint_written(bytes);
        }
        self.unflushed_completed = 0;
        bytes
    }

    /// Consumes the decorator, returning the journal and the platform.
    pub fn into_parts(self) -> (Journal, Platform<R>) {
        (self.journal, self.inner.into_platform())
    }

    fn checkpoint_written(&self, bytes: u64) {
        crowd_obs::emit(Event::CheckpointWritten {
            batches: self.next_batch,
            bytes,
        });
        crowd_obs::series::journal_bytes().add(bytes);
    }

    /// Refuses once the journal has diverged from the crashed run's bytes,
    /// and emits the pending recovery event once it has rewritten them.
    fn audit(&mut self) -> Result<(), OracleError> {
        if self.journal.diverged() {
            return Err(OracleError::Interrupted);
        }
        if self.journal.auditing() {
            return Ok(());
        }
        if let Some((replayed_batches, replayed_comparisons)) = self.replayed.take() {
            crowd_obs::emit(Event::RecoveryCompleted {
                replayed_batches,
                replayed_comparisons,
            });
            crowd_obs::series::replayed_comparisons().add(replayed_comparisons);
        }
        Ok(())
    }
}

impl<R: RngCore> ComparisonOracle for JournaledOracle<R> {
    /// Infallible trait surface. Callers that must not panic on a
    /// fault-exhausted platform use [`Self::try_compare`], which returns
    /// the typed [`OracleError`] instead.
    fn compare(&mut self, class: WorkerClass, k: ElementId, j: ElementId) -> ElementId {
        self.try_compare(class, k, j)
            .expect("the journaled platform cannot answer")
    }

    fn try_compare(
        &mut self,
        class: WorkerClass,
        k: ElementId,
        j: ElementId,
    ) -> Result<ElementId, OracleError> {
        let mut winner = std::mem::take(&mut self.winner);
        winner.clear();
        let outcome = self.try_compare_batch(class, &[(k, j)], &mut winner);
        let answer = winner.first().copied();
        self.winner = winner;
        outcome.map(|()| answer.expect("a batch that succeeds answers its pair"))
    }

    fn compare_batch(
        &mut self,
        class: WorkerClass,
        pairs: &[(ElementId, ElementId)],
        winners: &mut Vec<ElementId>,
    ) {
        self.try_compare_batch(class, pairs, winners)
            .expect("the journaled platform cannot answer");
    }

    /// The WAL hot path: the `Scheduled` record is durable before any
    /// worker is asked, so a crash mid-batch leaves it dangling and
    /// recovery runs that batch live.
    fn try_compare_batch(
        &mut self,
        class: WorkerClass,
        pairs: &[(ElementId, ElementId)],
        winners: &mut Vec<ElementId>,
    ) -> Result<(), OracleError> {
        if pairs.is_empty() {
            return Ok(());
        }
        let batch = self.next_batch;
        self.next_batch += 1;
        self.journal
            .append_with(|out| scheduled(out, batch, class, pairs));
        let bytes = self.journal.flush();
        self.checkpoint_written(bytes);
        self.unflushed_completed = 0;
        if self.journal.diverged() {
            return Err(OracleError::Interrupted);
        }
        let start = winners.len();
        let outcome = self.inner.try_compare_batch(class, pairs, winners);
        let partial = outcome.is_err();
        let platform = self.inner.platform();
        self.journal.append_with(|out| {
            completed(
                out,
                batch,
                &winners[start..],
                platform.last_assignments(),
                platform.counts(),
                platform.ledger().total(),
                platform.fault_seq(),
                partial,
            )
        });
        self.unflushed_completed += 1;
        if partial || self.unflushed_completed >= self.policy.every_batches {
            let bytes = self.journal.flush();
            self.checkpoint_written(bytes);
            self.unflushed_completed = 0;
        }
        if self.replayed.is_some() {
            self.audit()?;
        }
        outcome
    }

    fn counts(&self) -> ComparisonCounts {
        self.inner.counts()
    }

    fn observe(&mut self, event: crowd_core::trace::TraceEvent) {
        self.inner.observe(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PlatformConfig;
    use crate::pool::WorkerPool;
    use crowd_core::element::Instance;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Started {
                version: JOURNAL_VERSION,
                job: "demo".to_string(),
                seed: 7,
            },
            JournalRecord::Scheduled {
                batch: 0,
                class: WorkerClass::Naive,
                pairs: vec![(ElementId(0), ElementId(1)), (ElementId(2), ElementId(3))],
            },
            JournalRecord::Completed {
                batch: 0,
                winners: vec![ElementId(1), ElementId(2)],
                workers: vec![WorkerId(4), WorkerId(9)],
                counts: ComparisonCounts {
                    naive: 2,
                    expert: 0,
                },
                spent: 0.2,
                fault_seq: 2,
                partial: false,
            },
        ]
    }

    #[test]
    fn frames_round_trip() {
        let mut journal = Journal::new();
        for r in &sample_records() {
            journal.append(r);
        }
        journal.flush();
        let decoded = Journal::decode(&journal.durable().to_vec());
        assert_eq!(decoded.records, sample_records());
        assert_eq!(decoded.valid_bytes, journal.durable().len());
        assert!(!decoded.torn_tail);
    }

    #[test]
    fn frame_header_matches_the_format_macro() {
        let lengths = [0, 1].into_iter().chain((1..=19).map(|k| 10u64.pow(k)));
        for len in lengths {
            for checksum in [0, 1, 0x0123_4567_89ab_cdef, u64::MAX] {
                let mut out = Vec::new();
                push_frame_header(&mut out, len, checksum);
                assert_eq!(out, format!("{len} {checksum:016x} ").into_bytes());
            }
        }
    }

    #[test]
    fn unflushed_records_do_not_survive() {
        let mut journal = Journal::new();
        journal.append(&sample_records()[0]);
        journal.flush();
        journal.append(&sample_records()[1]);
        // No flush: the second record dies with the process.
        let decoded = Journal::decode(&journal.durable().to_vec());
        assert_eq!(decoded.records.len(), 1);
        assert!(!decoded.torn_tail, "a missing record is not a torn one");
    }

    #[test]
    fn torn_tail_is_detected_and_dropped() {
        let mut journal = Journal::new();
        journal.append(&sample_records()[0]);
        let clean = journal.flush() as usize;
        journal.append(&sample_records()[1]);
        let full = journal.flush() as usize + clean;
        // A crash mid-write leaves half the second frame durable.
        let decoded = Journal::decode(&journal.durable().to_vec()[..(clean + full) / 2]);
        assert_eq!(decoded.records.len(), 1, "the torn frame must not parse");
        assert_eq!(decoded.valid_bytes, clean);
        assert!(decoded.torn_tail);
    }

    #[test]
    fn crash_cuts_cover_every_frame_after_the_header() {
        let mut journal = Journal::new();
        let mut ends = Vec::new();
        for r in &sample_records() {
            journal.append(r);
            journal.flush();
            ends.push(journal.durable().len());
        }
        let bytes = journal.durable().to_vec();
        let cuts = crash_cuts(&bytes);
        assert_eq!(cuts.len(), 3 * (ends.len() - 1) + 1);
        assert!(cuts.windows(2).all(|w| w[0] < w[1]), "{cuts:?}");
        assert_eq!(cuts[0], ends[0], "the first cut is the bare header");
        assert_eq!(cuts.last(), Some(&bytes.len()));
        for &cut in &cuts {
            let decoded = Journal::decode(&bytes[..cut]);
            let boundary = ends.contains(&cut);
            assert_eq!(decoded.torn_tail, !boundary, "cut at {cut}");
            assert!(!decoded.records.is_empty(), "the header survives {cut}");
        }
        assert_eq!(crash_cuts(b""), vec![0]);
    }

    #[test]
    fn corrupt_byte_fails_the_checksum() {
        let mut journal = Journal::new();
        for r in &sample_records() {
            journal.append(r);
        }
        journal.flush();
        let mut bytes = journal.durable().to_vec();
        // Flip one byte inside the last frame's JSON payload.
        let n = bytes.len();
        bytes[n - 3] ^= 0x01;
        let decoded = Journal::decode(&bytes);
        assert_eq!(decoded.records.len(), sample_records().len() - 1);
        assert!(decoded.torn_tail);
    }

    #[test]
    fn every_byte_change_and_cut_of_a_batch_frame_is_caught() {
        let records = sample_records();
        let mut journal = Journal::new();
        journal.append(&records[0]);
        journal.flush();
        let prefix = journal.durable().to_vec();
        journal.append(&records[2]);
        journal.flush();
        let frame = &journal.durable().to_vec()[prefix.len()..];
        assert_frame_corruptions_are_caught(&prefix, frame, |bytes| {
            let decoded = Journal::decode(bytes);
            let raw = Journal::decode_json(bytes);
            assert_eq!(raw.valid_bytes, decoded.valid_bytes);
            (decoded.valid_bytes, decoded.torn_tail)
        });
    }

    #[test]
    fn replacing_one_word_always_changes_the_sum() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(0x5EED_F4A3);
        let mut checked = 0;
        for _ in 0..4000 {
            let len = rng.gen_range(1..=300usize);
            let mut payload = vec![0u8; len];
            rng.fill_bytes(&mut payload);
            let start = 8 * rng.gen_range(0..len.div_ceil(8));
            let word = start..(start + 8).min(len);
            let mut changed = payload.clone();
            while changed == payload {
                rng.fill_bytes(&mut changed[word.clone()]);
            }
            assert_ne!(
                frame_sum(&payload),
                frame_sum(&changed),
                "{len}-byte payload, word at {start}"
            );
            checked += 1;
        }
        assert_eq!(checked, 4000);
        // One-bit flips, the commonest rot, in every position of a frame.
        let json = br#"{"Scheduled":{"batch":12,"class":"Naive","pairs":[[0,1],[2,3]]}}"#;
        for bit in 0..json.len() * 8 {
            let mut flipped = json.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(frame_sum(json), frame_sum(&flipped), "bit {bit}");
        }
    }

    #[test]
    fn the_frame_header_parses_only_as_written() {
        let mut journal = Journal::new();
        journal.append_json("{}");
        journal.flush();
        let frame = journal.durable().to_vec();
        assert_eq!(Journal::decode_json(&frame).valid_bytes, frame.len());
        let text = String::from_utf8(frame).expect("frames are UTF-8");
        let sum = format!("{:016x}", frame_sum(b"{}"));
        assert_eq!(text, format!("2 {sum} {{}}\n"));
        for bad in [
            format!("+2 {sum} {{}}\n"),
            format!("2 {} {{}}\n", sum.to_uppercase()),
            format!(" 2 {sum} {{}}\n"),
        ] {
            assert_ne!(bad, text);
            let decoded = Journal::decode_json(bad.as_bytes());
            assert_eq!(
                (decoded.valid_bytes, decoded.torn_tail),
                (0, true),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn a_deeply_nested_payload_reads_as_a_torn_tail() {
        // A checksummed frame whose JSON nests 200 000 arrays deep: the
        // parser must refuse it, not overflow the stack.
        let mut journal = Journal::new();
        for r in &sample_records() {
            journal.append(r);
        }
        let clean = journal.flush();
        journal.append_json(&"[".repeat(200_000));
        journal.flush();
        let decoded = Journal::decode(&journal.durable().to_vec());
        assert_eq!(decoded.records, sample_records());
        assert_eq!(decoded.valid_bytes as u64, clean);
        assert!(decoded.torn_tail);
    }

    /// A journal of `frames` Completed records of varied lengths, plus
    /// the frames each appended, encoded independently of the journal.
    fn segmented_journal(frames: u64) -> (Journal, Vec<JournalRecord>, Vec<u8>) {
        let mut journal = Journal::new();
        let (mut records, mut expected) = (Vec::new(), Vec::new());
        for batch in 0..frames {
            let width = (batch * 37 % 200) as u32;
            let record = JournalRecord::Completed {
                batch,
                winners: (0..width).map(ElementId).collect(),
                workers: (0..width / 2).map(WorkerId).collect(),
                counts: ComparisonCounts {
                    naive: batch,
                    expert: batch / 3,
                },
                spent: batch as f64 / 8.0,
                fault_seq: batch * 5,
                partial: batch % 7 == 0,
            };
            journal.append(&record);
            let mut json = Vec::new();
            record.encode(&mut json);
            expected.extend(format!("{} {:016x} ", json.len(), frame_sum(&json)).into_bytes());
            expected.extend(json);
            expected.push(b'\n');
            // Flush unevenly: one frame, then three at once, and so on.
            if batch % 4 != 1 && batch % 4 != 2 {
                journal.flush();
            }
            records.push(record);
        }
        journal.flush();
        (journal, records, expected)
    }

    #[test]
    fn frames_straddle_segments_and_read_back_in_order() {
        let (journal, records, expected) = segmented_journal(900);
        let durable = journal.durable();
        assert!(durable.len() > 3 * SEGMENT_BYTES, "{} bytes", durable.len());
        assert_eq!(durable.to_vec(), expected);
        assert_eq!(durable, expected);
        let chunks: Vec<&[u8]> = durable.chunks().collect();
        assert_eq!(chunks.len(), durable.len().div_ceil(SEGMENT_BYTES));
        let (last, full) = chunks.split_last().expect("segments");
        assert!(full.iter().all(|c| c.len() == SEGMENT_BYTES));
        assert!(!last.is_empty() && last.len() <= SEGMENT_BYTES);
        // Frames really do cross the boundaries.
        let mut start = 0;
        let mut straddling = 0;
        for (_, len) in Journal::decode_json(&expected).frames {
            straddling += usize::from(start / SEGMENT_BYTES != (start + len - 1) / SEGMENT_BYTES);
            start += len;
        }
        assert_eq!(
            straddling,
            chunks.len() - 1,
            "every boundary falls inside a frame"
        );

        let bytes = durable.to_vec();
        let decoded = Journal::decode(&bytes);
        assert_eq!(decoded.records, records);
        assert_eq!(
            (decoded.valid_bytes, decoded.torn_tail),
            (bytes.len(), false)
        );
        let raw = Journal::decode_json(&bytes);
        assert_eq!(raw.frames.len(), records.len());
        assert_eq!((raw.valid_bytes, raw.torn_tail), (bytes.len(), false));
        let cuts = crash_cuts(&bytes);
        assert_eq!(cuts.len(), 3 * (records.len() - 1) + 1);
        // Cuts one byte either side of each segment boundary: at most the
        // frame they tear is lost.
        for boundary in (1..chunks.len()).map(|k| k * SEGMENT_BYTES) {
            for cut in [boundary - 1, boundary, boundary + 1] {
                let decoded = Journal::decode(&bytes[..cut]);
                assert!(decoded.valid_bytes <= cut && cut - decoded.valid_bytes < 2000);
                assert_eq!(decoded.records[..], records[..decoded.records.len()]);
            }
        }
    }

    #[test]
    fn the_durable_view_compares_byte_for_byte() {
        let (journal, _, expected) = segmented_journal(400);
        let durable = journal.durable();
        assert_eq!(durable, expected[..]);
        assert_eq!(durable, &expected[..]);
        assert_eq!(durable, expected);
        let n = expected.len();
        for i in [
            0,
            1,
            SEGMENT_BYTES - 1,
            SEGMENT_BYTES,
            SEGMENT_BYTES + 1,
            n / 2,
            n - 1,
        ] {
            let mut changed = expected.clone();
            changed[i] ^= 0x20;
            assert!(durable != changed, "byte {i} changed");
            let slice: &[u8] = &changed;
            assert!(durable != slice, "byte {i} changed");
        }
        let short: &[u8] = &expected[..n - 1];
        assert!(durable != short, "one byte short");
        assert!(durable != [&expected[..], b"x"].concat(), "one byte long");
        assert!(durable != Vec::new());

        assert!(Journal::new().durable().is_empty());
        assert_eq!(Journal::new().durable(), Vec::new());
    }

    #[test]
    fn a_cloned_journal_keeps_appending_identically() {
        let (mut journal, _, _) = segmented_journal(300);
        let mut copy = journal.clone();
        for j in [&mut journal, &mut copy] {
            j.append_json(&"7".repeat(SEGMENT_BYTES / 3));
            j.flush();
        }
        assert_eq!(copy.durable().to_vec(), journal.durable().to_vec());
    }

    #[test]
    fn journaled_oracle_writes_ahead() {
        let instance = Instance::new(vec![1.0, 2.0, 3.0, 4.0]);
        let mut pool = WorkerPool::new();
        pool.hire_naive_crowd(5, 0.0, 0.0);
        let platform = Platform::new(
            instance,
            pool,
            PlatformConfig::paper_default().without_gold(),
            StdRng::seed_from_u64(3),
        );
        let mut oracle = JournaledOracle::new(platform, "wal", 3, CheckpointPolicy::every(64));
        let mut winners = Vec::new();
        oracle
            .try_compare_batch(
                WorkerClass::Naive,
                &[(ElementId(0), ElementId(3))],
                &mut winners,
            )
            .unwrap();
        assert_eq!(winners, vec![ElementId(3)]);
        // The lazy checkpoint cadence keeps Completed pending, but the
        // Scheduled record is already durable: WAL.
        let decoded = Journal::decode(&oracle.journal().durable().to_vec());
        assert!(matches!(
            decoded.records.last(),
            Some(JournalRecord::Scheduled { batch: 0, .. })
        ));
        oracle.finish();
        let decoded = Journal::decode(&oracle.journal().durable().to_vec());
        assert!(matches!(
            decoded.records.last(),
            Some(JournalRecord::Completed {
                batch: 0,
                partial: false,
                ..
            })
        ));
    }

    #[test]
    fn a_refused_batch_journals_no_assignments() {
        let instance = Instance::new(vec![1.0, 2.0, 3.0, 4.0]);
        let mut pool = WorkerPool::new();
        pool.hire_naive_crowd(3, 0.0, 0.0); // no experts, and no fallback
        let platform = Platform::new(
            instance,
            pool,
            PlatformConfig::paper_default().without_gold(),
            StdRng::seed_from_u64(3),
        );
        let mut oracle = JournaledOracle::new(platform, "refused", 3, CheckpointPolicy::every(1));
        let mut winners = Vec::new();
        oracle
            .try_compare_batch(
                WorkerClass::Naive,
                &[(ElementId(0), ElementId(3))],
                &mut winners,
            )
            .unwrap();
        let refused = oracle.try_compare_batch(
            WorkerClass::Expert,
            &[(ElementId(1), ElementId(2))],
            &mut winners,
        );
        assert_eq!(
            refused,
            Err(OracleError::WorkforceDepleted {
                class: WorkerClass::Expert
            })
        );
        // The refused batch asked nobody, so its Completed record names
        // no workers rather than the previous batch's.
        let completed: Vec<(Vec<WorkerId>, bool)> =
            Journal::decode(&oracle.journal().durable().to_vec())
                .records
                .into_iter()
                .filter_map(|record| match record {
                    JournalRecord::Completed {
                        workers, partial, ..
                    } => Some((workers, partial)),
                    _ => None,
                })
                .collect();
        assert_eq!(completed, [(vec![WorkerId(0)], false), (vec![], true)]);
    }

    #[test]
    fn checkpoint_cadence_batches_completed_flushes() {
        let instance = Instance::new(vec![1.0, 2.0, 3.0, 4.0]);
        let mut pool = WorkerPool::new();
        pool.hire_naive_crowd(5, 0.0, 0.0);
        let platform = Platform::new(
            instance,
            pool,
            PlatformConfig::paper_default().without_gold(),
            StdRng::seed_from_u64(3),
        );
        let mut oracle = JournaledOracle::new(platform, "cadence", 3, CheckpointPolicy::every(2));
        let mut winners = Vec::new();
        for _ in 0..2 {
            oracle
                .try_compare_batch(
                    WorkerClass::Naive,
                    &[(ElementId(0), ElementId(3))],
                    &mut winners,
                )
                .unwrap();
        }
        // At cadence 2, batch 0's Completed rode along with batch 1's
        // write-ahead Scheduled flush (the journal is one append-only
        // stream), while batch 1's own Completed is still pending — the
        // crash window a lazy cadence accepts.
        let completed = |bytes: &[u8]| {
            Journal::decode(bytes)
                .records
                .iter()
                .filter(|r| matches!(r, JournalRecord::Completed { .. }))
                .count()
        };
        assert_eq!(completed(&oracle.journal().durable().to_vec()), 1);
        assert!(oracle.journal().pending_len() > 0);
        oracle.finish();
        assert_eq!(completed(&oracle.journal().durable().to_vec()), 2);
    }

    /// Where a decimal gains or loses a digit (`10^k − 1`, `10^k`,
    /// `10^k + 1`, so 0, 9, 10, 99 and 100 too), the extremes, and
    /// anything.
    fn edge_u64s() -> impl Strategy<Value = u64> {
        prop_oneof![
            (0u64..60).prop_map(|v| 10u64.pow((v / 3) as u32) + v % 3 - 1),
            Just(u64::from(u32::MAX)),
            Just(u64::MAX),
            any::<u64>(),
            0u64..1_000,
        ]
    }

    fn edge_u32s() -> impl Strategy<Value = u32> {
        prop_oneof![
            (0u32..30).prop_map(|v| 10u32.pow(v / 3) + v % 3 - 1),
            Just(u32::MAX),
            any::<u32>(),
        ]
    }

    /// Appends `items` through `Vec<T>`'s encoder after a prefix, and checks
    /// the prefix is kept and the rest is serde's JSON.
    fn assert_list_like_serde<T: Json + Serialize>(items: &Vec<T>) {
        let mut out = b"prefix".to_vec();
        <Vec<T> as Json>::put(items.arg(), &mut out);
        let expected = format!("prefix{}", serde_json::to_string(items).unwrap());
        assert_eq!(String::from_utf8(out).unwrap(), expected);
    }

    #[test]
    fn empty_and_edge_lists_write_like_serde() {
        assert_list_like_serde::<u32>(&vec![]);
        assert_list_like_serde::<(u32, u64)>(&vec![]);
        let edges: Vec<u64> = (0..20)
            .flat_map(|k| {
                let p = 10u64.pow(k);
                [p - 1, p, p + 1]
            })
            .chain([u64::from(u32::MAX), u64::MAX])
            .collect();
        assert_list_like_serde(&edges);
        assert_list_like_serde(&edges.iter().map(|&n| n as u32).collect::<Vec<_>>());
        assert_list_like_serde(&edges.iter().map(|&n| (n as u32, n)).collect::<Vec<_>>());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The one-pass integer list writers give serde's bytes.
        #[test]
        fn integer_lists_write_like_serde(
            small in prop::collection::vec(edge_u32s(), 0..40),
            large in prop::collection::vec(edge_u64s(), 0..40),
        ) {
            assert_list_like_serde(&small);
            assert_list_like_serde(&large);
            assert_list_like_serde(&small.iter().map(|&n| WorkerId(n)).collect::<Vec<_>>());
            assert_list_like_serde(&large.iter().map(|&n| JobId(n)).collect::<Vec<_>>());
            assert_list_like_serde(&small.iter().map(|&n| TenantId(n)).collect::<Vec<_>>());
            let pairs: Vec<(u32, u64)> = small.iter().copied().zip(large.iter().copied()).collect();
            assert_list_like_serde(&pairs);
            let elements: Vec<(ElementId, ElementId)> = small
                .iter()
                .zip(small.iter().rev())
                .map(|(&a, &b)| (ElementId(a), ElementId(b)))
                .collect();
            assert_list_like_serde(&elements);
            assert_list_like_serde(&elements.iter().map(|p| p.0).collect::<Vec<_>>());
        }
    }
}
