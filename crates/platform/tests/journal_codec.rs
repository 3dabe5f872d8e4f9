//! Property tests of the journal's frame codec.
//!
//! * The generated encoder behind [`Journal::append`] must produce the
//!   bytes serde's derived serialization of the record vocabulary
//!   produces, framed as `<len> <frame_sum:016x> <json>\n`, for any
//!   `Scheduled` or `Completed` record — empty vectors, `u64::MAX` and
//!   non-finite or negative-zero `spent` included — and for any
//!   `Started` header, whatever its job label holds: quotes, backslashes,
//!   control characters, DEL or non-ASCII.
//! * Decoding hostile bytes never panics and never claims more valid
//!   bytes than it was given.
//! * A faulty journaled run's frames decode to the records the run
//!   wrote, and re-append byte for byte through [`Journal::append`].

use crowd_core::element::{ElementId, Instance};
use crowd_core::model::WorkerClass;
use crowd_core::oracle::{ComparisonCounts, ComparisonOracle};
use crowd_platform::journal::frame_sum;
use crowd_platform::{
    CheckpointPolicy, FaultConfig, Journal, JournalRecord, JournaledOracle, Platform,
    PlatformConfig, RetryPolicy, WorkerId, WorkerPool, JOURNAL_VERSION,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

/// The journaled hot path writes each record through its per-variant
/// encoder, one positional argument per field. A faulty run, driven batch
/// by batch past its errors, must decode to exactly the records its
/// batches describe, partial `Completed` records included, and
/// re-appending them through the owned [`Journal::append`] must give back
/// its bytes. A call site that swapped `batch` and `fault_seq`, both
/// `u64`, fails here.
#[test]
fn hot_path_frames_re_encode_through_the_owned_records() {
    let n = 40u32;
    let instance = Instance::new((0..n).map(f64::from).collect());
    let mut pool = WorkerPool::new();
    pool.hire_naive_crowd(9, 2.0, 0.0);
    pool.hire_expert_panel(3, 0.5, 0.0);
    let faults = FaultConfig::none().with_no_answer(0.3).with_abandon(0.1);
    let config = PlatformConfig::paper_default()
        .without_gold()
        .with_faults(faults, 11)
        .with_retry(RetryPolicy::paper_default().with_max_retries(1));
    let platform = Platform::new(instance, pool, config, StdRng::seed_from_u64(5));
    let mut oracle = JournaledOracle::new(platform, "re-encode", 5, CheckpointPolicy::every(3));
    let mut expected = vec![JournalRecord::Started {
        version: JOURNAL_VERSION,
        job: "re-encode".to_string(),
        seed: 5,
    }];
    let mut rng = StdRng::seed_from_u64(7);
    let mut winners = Vec::new();
    for batch in 0..60u64 {
        let class = if batch % 4 == 3 {
            WorkerClass::Expert
        } else {
            WorkerClass::Naive
        };
        let pairs: Vec<_> = (0..1 + batch % 6)
            .map(|_| {
                let k = rng.gen_range(0..n);
                (ElementId(k), ElementId((k + rng.gen_range(1..n)) % n))
            })
            .collect();
        winners.clear();
        let partial = oracle
            .try_compare_batch(class, &pairs, &mut winners)
            .is_err();
        let platform = oracle.platform();
        expected.push(JournalRecord::Scheduled {
            batch,
            class,
            pairs,
        });
        expected.push(JournalRecord::Completed {
            batch,
            winners: winners.clone(),
            workers: platform.last_assignments().to_vec(),
            counts: platform.counts(),
            spent: platform.ledger().total(),
            fault_seq: platform.fault_seq(),
            partial,
        });
    }
    oracle.finish();
    let kept_a_prefix = |r: &JournalRecord| match r {
        JournalRecord::Completed {
            partial, winners, ..
        } => *partial && !winners.is_empty(),
        _ => false,
    };
    assert!(
        expected.iter().any(kept_a_prefix),
        "no partial batch kept a prefix of winners"
    );

    let bytes = oracle.journal().durable().to_vec();
    let decoded = Journal::decode(&bytes);
    assert_eq!(
        (decoded.valid_bytes, decoded.torn_tail),
        (bytes.len(), false)
    );
    assert_eq!(decoded.records, expected);
    let mut again = Journal::new();
    for record in &decoded.records {
        again.append(record);
    }
    again.flush();
    assert_eq!(again.durable().to_vec(), bytes);
}
