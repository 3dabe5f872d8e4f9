//! Property tests of the journal's frame codec.
//!
//! * The hand-written encoder behind [`Journal::append`] must produce the
//!   bytes serde's derived serialization of the record vocabulary
//!   produces, framed as `<len> <frame_sum:016x> <json>\n`, for any
//!   `Scheduled` or `Completed` record — empty vectors, `u64::MAX` and
//!   non-finite or negative-zero `spent` included — and for any
//!   `Started` header, whatever its job label holds: quotes, backslashes,
//!   control characters, DEL or non-ASCII.
//! * Decoding hostile bytes never panics and never claims more valid
//!   bytes than it was given.

use crowd_core::element::ElementId;
use crowd_core::model::WorkerClass;
use crowd_core::oracle::ComparisonCounts;
use crowd_platform::journal::frame_sum;
use crowd_platform::{Journal, JournalRecord, WorkerId};
use proptest::prelude::*;
use serde::Serialize;

/// The record vocabulary with serde's derived serialization: the
/// reference the direct encoder is checked against.
#[derive(Serialize)]
enum DerivedRecord {
    Started {
        version: u32,
        job: String,
        seed: u64,
    },
    Scheduled {
        batch: u64,
        class: WorkerClass,
        pairs: Vec<(ElementId, ElementId)>,
    },
    Completed {
        batch: u64,
        winners: Vec<ElementId>,
        workers: Vec<WorkerId>,
        counts: ComparisonCounts,
        spent: f64,
        fault_seq: u64,
        partial: bool,
    },
}

fn derived_frame(record: &DerivedRecord) -> Vec<u8> {
    let json = serde_json::to_string(record).unwrap();
    format!(
        "{} {:016x} {json}\n",
        json.len(),
        frame_sum(json.as_bytes())
    )
    .into_bytes()
}

fn appended(record: &JournalRecord) -> Vec<u8> {
    let mut journal = Journal::new();
    journal.append(record);
    journal.flush();
    journal.durable().to_vec()
}

fn u64s() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(u64::MAX), any::<u64>()]
}

fn u32s() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0u32), Just(u32::MAX), any::<u32>()]
}

fn spends() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>(),
        Just(f64::NAN.to_bits()),
        Just(f64::INFINITY.to_bits()),
        Just(f64::NEG_INFINITY.to_bits()),
        Just((-0.0f64).to_bits()),
        Just(0.2f64.to_bits()),
        Just(1e300f64.to_bits()),
    ]
    .prop_map(f64::from_bits)
}

/// Job labels: strings of arbitrary scalar values, half the characters
/// drawn from those JSON escapes and their neighbours.
fn labels() -> impl Strategy<Value = String> {
    let hostile = prop_oneof![
        Just('"'),
        Just('\\'),
        (0u8..0x20).prop_map(char::from),
        Just('\u{7f}'),
        Just('é'),
        Just('\u{2028}'),
        Just('😀'),
    ];
    let scalar = any::<u32>().prop_map(|c| char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}'));
    prop::collection::vec(prop_oneof![hostile, scalar], 0..24).prop_map(String::from_iter)
}

fn ids() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(u32s(), 0..6)
}

/// `<len> <checksum> <payload>\n` around arbitrary payload bytes.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut frame = format!("{} {:016x} ", payload.len(), frame_sum(payload)).into_bytes();
    frame.extend_from_slice(payload);
    frame.push(b'\n');
    frame
}

fn sample_journal() -> Vec<u8> {
    let mut journal = Journal::new();
    journal.append(&JournalRecord::Scheduled {
        batch: 0,
        class: WorkerClass::Naive,
        pairs: vec![(ElementId(0), ElementId(1))],
    });
    journal.append(&JournalRecord::Completed {
        batch: 0,
        winners: vec![ElementId(1)],
        workers: vec![WorkerId(3)],
        counts: ComparisonCounts {
            naive: 1,
            expert: 0,
        },
        spent: 0.1,
        fault_seq: 1,
        partial: false,
    });
    journal.flush();
    journal.durable().to_vec()
}

fn assert_decodes_sanely(bytes: &[u8]) {
    let records = Journal::decode(bytes);
    assert!(records.valid_bytes <= bytes.len());
    let frames = Journal::decode_json(bytes);
    assert!(frames.valid_bytes <= bytes.len());
    assert!(records.valid_bytes <= frames.valid_bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn append_matches_the_derived_serialization(
        batch in u64s(),
        expert in any::<bool>(),
        firsts in ids(),
        seconds in ids(),
        winners in ids(),
        workers in ids(),
        naive_count in u64s(),
        expert_count in u64s(),
        spent in spends(),
        fault_seq in u64s(),
        partial in any::<bool>(),
    ) {
        let class = if expert { WorkerClass::Expert } else { WorkerClass::Naive };
        let pairs: Vec<_> = firsts
            .iter()
            .zip(&seconds)
            .map(|(&k, &j)| (ElementId(k), ElementId(j)))
            .collect();
        let winners: Vec<_> = winners.into_iter().map(ElementId).collect();
        let workers: Vec<_> = workers.into_iter().map(WorkerId).collect();
        let counts = ComparisonCounts { naive: naive_count, expert: expert_count };

        let scheduled = JournalRecord::Scheduled { batch, class, pairs: pairs.clone() };
        let bytes = appended(&scheduled);
        prop_assert_eq!(
            String::from_utf8(bytes.clone()).unwrap(),
            String::from_utf8(derived_frame(&DerivedRecord::Scheduled { batch, class, pairs }))
                .unwrap()
        );
        prop_assert_eq!(Journal::decode(&bytes).records, vec![scheduled]);

        let completed = JournalRecord::Completed {
            batch,
            winners: winners.clone(),
            workers: workers.clone(),
            counts,
            spent,
            fault_seq,
            partial,
        };
        let bytes = appended(&completed);
        prop_assert_eq!(
            String::from_utf8(bytes.clone()).unwrap(),
            String::from_utf8(derived_frame(&DerivedRecord::Completed {
                batch,
                winners,
                workers,
                counts,
                spent,
                fault_seq,
                partial,
            }))
            .unwrap()
        );
        if spent.is_finite() {
            prop_assert_eq!(Journal::decode(&bytes).records, vec![completed]);
        }
    }

    #[test]
    fn started_labels_encode_like_serde(version in u32s(), job in labels(), seed in u64s()) {
        let started = JournalRecord::Started { version, job: job.clone(), seed };
        let bytes = appended(&started);
        prop_assert_eq!(
            String::from_utf8(bytes.clone()).unwrap(),
            String::from_utf8(derived_frame(&DerivedRecord::Started { version, job, seed }))
                .unwrap()
        );
        prop_assert_eq!(Journal::decode(&bytes).records, vec![started]);
    }

    #[test]
    fn decoding_hostile_bytes_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        flip in any::<usize>(),
        mask in any::<u8>(),
    ) {
        // Raw bytes: almost never a frame.
        assert_decodes_sanely(&bytes);
        // The same bytes as a checksummed payload, after a valid prefix:
        // the frame is intact, so the JSON parser sees them.
        let mut journal = sample_journal();
        let prefix = journal.len();
        journal.extend_from_slice(&framed(&bytes));
        assert_decodes_sanely(&journal);
        prop_assert!(Journal::decode(&journal).valid_bytes >= prefix);
        // A valid journal with one byte corrupted, then truncated there.
        let mut corrupt = sample_journal();
        let at = flip % corrupt.len();
        corrupt[at] ^= mask;
        assert_decodes_sanely(&corrupt);
        assert_decodes_sanely(&corrupt[..at]);
    }
}
