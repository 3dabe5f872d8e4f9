//! Crash recovery: turn durable journal bytes back into a running job.
//!
//! The model is write-ahead-log state-machine replay. The platform is a
//! deterministic state machine (seeded RNGs, a stateless SplitMix64 fault
//! plan, hash-free iteration orders), so re-executing the algorithm on a
//! *fresh* platform rebuilds worker trust, the ledger, the RNG streams and
//! the fault-plan position exactly, and rewrites the crashed run's journal
//! byte for byte. That rewrite is the audit: [`resume_job`] journals the
//! resumed run into a [`Journal::resuming`] journal, which compares every
//! frame with the crashed run's intact bytes at the same offset. Every
//! record is covered that way — each batch's pairs, winners, worker
//! assignments, tally, spend, fault-stream position and partial flag — and
//! a journal this code did not write diverges at its first foreign frame.
//! A divergence (config drift, version skew) aborts the resumed run rather
//! than let it silently differ; when it is a batch's `Scheduled` record,
//! no worker is asked for that batch.
//!
//! The one deliberately re-bought case: a dangling `Scheduled` record
//! (the WAL wrote the intent, the crash hit before any worker answered).
//! Recovery runs that batch live — at most one batch per crash, the
//! floor any write-ahead scheme can guarantee.

use crate::journal::{CheckpointPolicy, Journal, JournalRecord, JournaledOracle, JOURNAL_VERSION};
use crate::platform::Platform;
use crowd_obs::Event;
use rand::RngCore;

/// Why a journal could not be recovered.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoverError {
    /// The journal holds no intact record at all.
    Empty,
    /// The first intact record is not a `Started` header.
    MissingHeader,
    /// The journal was written by a different [`JOURNAL_VERSION`].
    VersionMismatch {
        /// The version found in the header.
        found: u32,
    },
    /// The header does not describe the job being resumed.
    JobMismatch {
        /// The job label in the journal.
        journal: String,
        /// The label the caller expected.
        expected: String,
    },
    /// The header's platform seed is not the rebuilt platform's.
    SeedMismatch {
        /// The seed in the journal.
        journal: u64,
        /// The seed the caller rebuilt the platform with.
        code: u64,
    },
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Empty => write!(f, "the journal holds no intact record"),
            RecoverError::MissingHeader => write!(f, "the journal does not start with a header"),
            RecoverError::VersionMismatch { found } => write!(
                f,
                "journal version {found} does not match this build's {JOURNAL_VERSION}"
            ),
            RecoverError::JobMismatch { journal, expected } => {
                write!(f, "the journal describes job {journal:?}, not {expected:?}")
            }
            RecoverError::SeedMismatch { journal, code } => write!(
                f,
                "the journal was seeded with {journal}, the rebuilt platform with {code}"
            ),
        }
    }
}

impl std::error::Error for RecoverError {}

/// A journal's header and what its intact frames hold, ready to drive a
/// resume.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovered {
    /// The job label from the header.
    pub job: String,
    /// The platform seed from the header.
    pub seed: u64,
    /// `Completed` records: batches the resumed run replays rather than
    /// buys.
    pub completed_batches: u64,
    /// `Scheduled` records, a dangling one included.
    pub scheduled_batches: u64,
    /// Comparisons restored from the journal instead of re-purchased:
    /// the judgment tally (`counts.total()`) of the last `Completed`
    /// record, the unit of the platform's tally, the manifest's
    /// `comparisons` and the serve resume.
    pub replayed_comparisons: u64,
    /// True when a torn tail was detected (and discarded) by checksum.
    pub torn_tail: bool,
    /// Journal bytes covered by intact frames: what a resumed run must
    /// rewrite.
    pub valid_bytes: usize,
}

/// Decodes journal `bytes` and checks their header, in one pass.
///
/// A torn tail (crash mid-write) is not an error: the tail is discarded
/// and recovery proceeds from the last intact frame, with
/// [`Recovered::torn_tail`] set. Frames after the header are only
/// counted; the resumed run's journal audits them.
///
/// # Errors
///
/// Returns a [`RecoverError`] when the journal is empty, headerless or
/// version-skewed.
pub fn recover(bytes: &[u8]) -> Result<Recovered, RecoverError> {
    let decoded = Journal::decode_json(bytes);
    let mut records = decoded
        .frames
        .iter()
        .map(|(json, _)| serde_json::from_str::<JournalRecord>(json));
    let Some(header) = records.next() else {
        return Err(RecoverError::Empty);
    };
    let Ok(JournalRecord::Started { version, job, seed }) = header else {
        return Err(RecoverError::MissingHeader);
    };
    if version != JOURNAL_VERSION {
        return Err(RecoverError::VersionMismatch { found: version });
    }
    let mut recovered = Recovered {
        job,
        seed,
        completed_batches: 0,
        scheduled_batches: 0,
        replayed_comparisons: 0,
        torn_tail: decoded.torn_tail,
        valid_bytes: decoded.valid_bytes,
    };
    for record in records.flatten() {
        match record {
            JournalRecord::Started { .. } => {}
            JournalRecord::Scheduled { .. } => recovered.scheduled_batches += 1,
            JournalRecord::Completed { counts, .. } => {
                recovered.completed_batches += 1;
                recovered.replayed_comparisons = counts.total();
            }
        }
    }
    Ok(recovered)
}

/// One-call resume: recover `bytes`, check them against the job the
/// caller is rebuilding, and journal a fresh `platform` into a
/// [`Journal::resuming`] journal that must rewrite their intact frames.
///
/// `platform` must be constructed exactly as the crashed run's was (same
/// instance, pool, config, and the `seed` the journal header records),
/// and driven by the same algorithm: the journaled batches then re-execute
/// identically, and the first frame that differs refuses the batch it
/// belongs to and every later one ([`Journal::diverged`]). Emits
/// [`Event::RecoveryStarted`]; [`Event::RecoveryCompleted`] follows once
/// the resumed journal has rewritten the crashed one.
///
/// # Errors
///
/// Fails when the journal cannot be decoded ([`recover`]) or its header
/// names a different job or seed.
pub fn resume_job<R: RngCore>(
    bytes: &[u8],
    platform: Platform<R>,
    job: &str,
    seed: u64,
    policy: CheckpointPolicy,
) -> Result<JournaledOracle<R>, RecoverError> {
    let recovered = recover(bytes)?;
    if recovered.job != job {
        return Err(RecoverError::JobMismatch {
            journal: recovered.job,
            expected: job.to_string(),
        });
    }
    if recovered.seed != seed {
        return Err(RecoverError::SeedMismatch {
            journal: recovered.seed,
            code: seed,
        });
    }
    crowd_obs::emit(Event::RecoveryStarted {
        batches: recovered.completed_batches,
        torn_tail: recovered.torn_tail,
    });
    Ok(JournaledOracle::resuming(
        Journal::resuming(&bytes[..recovered.valid_bytes]),
        Some((recovered.scheduled_batches, recovered.replayed_comparisons)),
        platform,
        job,
        seed,
        policy,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PlatformConfig;
    use crate::pool::WorkerPool;
    use crowd_core::element::{ElementId, Instance};
    use crowd_core::model::WorkerClass;
    use crowd_core::oracle::{ComparisonOracle, OracleError};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const JOB: &str = "recover-test";
    const SEED: u64 = 0xFEED;

    fn fresh_platform() -> Platform<StdRng> {
        let instance = Instance::new(vec![1.0, 5.0, 3.0, 9.0, 7.0, 2.0]);
        let mut pool = WorkerPool::new();
        pool.hire_naive_crowd(6, 0.1, 0.05);
        Platform::new(
            instance,
            pool,
            PlatformConfig::paper_default().without_gold(),
            StdRng::seed_from_u64(SEED),
        )
    }

    fn batches() -> Vec<Vec<(ElementId, ElementId)>> {
        vec![
            vec![(ElementId(0), ElementId(1)), (ElementId(2), ElementId(3))],
            vec![(ElementId(4), ElementId(5))],
            vec![(ElementId(1), ElementId(3)), (ElementId(3), ElementId(4))],
        ]
    }

    /// Drives the batch list uninterrupted, returning winners and the
    /// journal bytes.
    fn run_journaled() -> (Vec<ElementId>, Vec<u8>) {
        let mut oracle =
            JournaledOracle::new(fresh_platform(), JOB, SEED, CheckpointPolicy::every_batch());
        let mut winners = Vec::new();
        for batch in batches() {
            oracle
                .try_compare_batch(WorkerClass::Naive, &batch, &mut winners)
                .expect("a fault-free platform answers");
        }
        oracle.finish();
        let (journal, _) = oracle.into_parts();
        (winners, journal.durable().to_vec())
    }

    /// The length of `bytes`' first `frames` frames: what a crash leaves
    /// durable right after they are flushed. At cadence 1 the frames run
    /// header, then `Scheduled`/`Completed` per batch.
    fn frames_len(bytes: &[u8], frames: usize) -> usize {
        let decoded = Journal::decode_json(bytes);
        assert!(decoded.frames.len() >= frames);
        decoded.frames[..frames].iter().map(|(_, len)| len).sum()
    }

    #[test]
    fn resume_after_mid_batch_crash_matches_uninterrupted() {
        let (full, bytes) = run_journaled();
        // Batch 1's `Scheduled` is durable, no worker has answered it.
        let cut = &bytes[..frames_len(&bytes, 4)];
        let recovered = recover(cut).expect("journal recovers");
        assert_eq!(recovered.completed_batches, 1);
        assert_eq!(recovered.scheduled_batches, 2, "batch 1 dangles");
        let Ok(JournalRecord::Completed { counts, .. }) =
            serde_json::from_str(&frames_of(&bytes)[2])
        else {
            panic!("frame 2 is batch 0's `Completed` record");
        };
        assert!(counts.total() >= 2, "{counts:?}");
        assert_eq!(
            recovered.replayed_comparisons,
            counts.total(),
            "batch 0's judgments come from the journal replay"
        );

        let mut resumed = resume_job(
            cut,
            fresh_platform(),
            JOB,
            SEED,
            CheckpointPolicy::every_batch(),
        )
        .expect("journal recovers");
        assert!(resumed.journal().auditing());
        let mut winners = Vec::new();
        for batch in batches() {
            resumed
                .try_compare_batch(WorkerClass::Naive, &batch, &mut winners)
                .expect("resumed run answers");
        }
        assert_eq!(winners, full, "resume must equal the uninterrupted run");
        assert!(!resumed.journal().diverged());
        assert!(!resumed.journal().auditing(), "the cut was rewritten");
        resumed.finish();
        assert_eq!(resumed.journal().durable(), &bytes[..], "the journal too");
    }

    #[test]
    fn resume_after_torn_write_discards_the_tail_and_matches() {
        let (full, bytes) = run_journaled();
        // Half of batch 2's `Scheduled` frame reached the journal.
        let (intact, next) = (frames_len(&bytes, 5), frames_len(&bytes, 6));
        let cut = &bytes[..(intact + next) / 2];
        let recovered = recover(cut).expect("journal recovers");
        assert!(recovered.torn_tail, "the torn frame must be detected");
        assert_eq!(recovered.valid_bytes, intact);
        assert_eq!(recovered.completed_batches, 2);

        let mut resumed = resume_job(
            cut,
            fresh_platform(),
            JOB,
            SEED,
            CheckpointPolicy::every_batch(),
        )
        .unwrap();
        let mut winners = Vec::new();
        for batch in batches() {
            resumed
                .try_compare_batch(WorkerClass::Naive, &batch, &mut winners)
                .unwrap();
        }
        assert_eq!(winners, full);
        assert!(!resumed.journal().diverged());
    }

    #[test]
    fn resume_audits_against_a_drifted_journal() {
        let (_, bytes) = run_journaled();
        let bytes = &bytes[..frames_len(&bytes, 6)];
        // Rebuild the platform with a *different* worker pool: replay
        // diverges from the checkpoints and must abort, not silently
        // continue.
        let instance = Instance::new(vec![1.0, 5.0, 3.0, 9.0, 7.0, 2.0]);
        let mut pool = WorkerPool::new();
        pool.hire_naive_crowd(6, 0.45, 0.4);
        let drifted = Platform::new(
            instance,
            pool,
            PlatformConfig::paper_default().without_gold(),
            StdRng::seed_from_u64(SEED),
        );
        let mut resumed =
            resume_job(bytes, drifted, JOB, SEED, CheckpointPolicy::every_batch()).unwrap();
        let mut winners = Vec::new();
        let mut failed = false;
        for batch in batches() {
            if resumed
                .try_compare_batch(WorkerClass::Naive, &batch, &mut winners)
                .is_err()
            {
                failed = true;
                break;
            }
        }
        assert!(
            failed && resumed.journal().diverged(),
            "a drifted platform must be caught by the audit"
        );
    }

    #[test]
    fn header_mismatches_are_refused() {
        let (_, bytes) = run_journaled();
        assert!(matches!(
            resume_job(
                &bytes,
                fresh_platform(),
                "other-job",
                SEED,
                CheckpointPolicy::every_batch()
            ),
            Err(RecoverError::JobMismatch { .. })
        ));
        assert_eq!(
            resume_job(
                &bytes,
                fresh_platform(),
                JOB,
                SEED + 1,
                CheckpointPolicy::every_batch()
            )
            .unwrap_err(),
            RecoverError::SeedMismatch {
                journal: SEED,
                code: SEED + 1
            }
        );
        assert_eq!(recover(b"").unwrap_err(), RecoverError::Empty);
    }

    /// The JSON payloads of `bytes`' frames, in order.
    fn frames_of(bytes: &[u8]) -> Vec<String> {
        let frames = Journal::decode_json(bytes).frames;
        frames.into_iter().map(|(json, _)| json).collect()
    }

    /// Frames `frames` afresh through [`Journal::append_json`], so every
    /// checksum is valid.
    fn journal_of(frames: &[String]) -> Vec<u8> {
        let mut journal = Journal::new();
        for json in frames {
            journal.append_json(json);
        }
        journal.flush();
        journal.durable().to_vec()
    }

    /// Resumes from `bytes` and drives every batch, returning each batch's
    /// outcome and the platform's tally after it.
    fn resume_outcomes(bytes: &[u8]) -> Vec<(Result<(), OracleError>, u64)> {
        let mut resumed = resume_job(
            bytes,
            fresh_platform(),
            JOB,
            SEED,
            CheckpointPolicy::every_batch(),
        )
        .expect("the header is intact");
        let mut winners = Vec::new();
        batches()
            .iter()
            .map(|batch| {
                let outcome = resumed.try_compare_batch(WorkerClass::Naive, batch, &mut winners);
                (outcome, resumed.platform().counts().total())
            })
            .collect()
    }

    #[test]
    fn a_changed_worker_id_diverges() {
        let (_, bytes) = run_journaled();
        let mut frames = frames_of(&bytes);
        // Frame 2 is batch 0's `Completed` record.
        let json = &mut frames[2];
        let at = json.find("\"workers\":[").expect("a workers list") + "\"workers\":[".len();
        let end = at
            + json[at..]
                .find(|c: char| !c.is_ascii_digit())
                .expect("a list");
        let id: u32 = json[at..end].parse().expect("a worker id");
        json.replace_range(at..end, &(id + 1).to_string());
        let outcomes = resume_outcomes(&journal_of(&frames));
        assert_eq!(outcomes[0].0, Err(OracleError::Interrupted), "{outcomes:?}");
        // The later batches are refused before any worker is asked.
        for (outcome, counts) in &outcomes[1..] {
            assert_eq!(*outcome, Err(OracleError::Interrupted));
            assert_eq!(*counts, outcomes[0].1, "{outcomes:?}");
        }
    }

    #[test]
    fn foreign_frames_are_refused_before_any_batch_runs_past_them() {
        let (_, bytes) = run_journaled();
        let frames = frames_of(&bytes);
        // A second header after batch 0, and batch 1's `Completed`
        // without its `Scheduled`.
        let second_header = [&frames[..3], &frames[..1], &frames[3..]].concat();
        let unscheduled = [&frames[..3], &frames[4..]].concat();
        for foreign in [second_header, unscheduled] {
            let outcomes = resume_outcomes(&journal_of(&foreign));
            let (first, after_batch_0) = &outcomes[0];
            assert_eq!(*first, Ok(()), "batch 0 replays: {outcomes:?}");
            for (outcome, counts) in &outcomes[1..] {
                assert_eq!(*outcome, Err(OracleError::Interrupted), "{outcomes:?}");
                assert_eq!(counts, after_batch_0, "no worker asked: {outcomes:?}");
            }
        }
    }

    #[test]
    fn version_skew_is_refused() {
        let mut journal = Journal::new();
        journal.append(&JournalRecord::Started {
            version: JOURNAL_VERSION + 1,
            job: JOB.to_string(),
            seed: SEED,
        });
        journal.flush();
        assert_eq!(
            recover(&journal.durable().to_vec()).unwrap_err(),
            RecoverError::VersionMismatch {
                found: JOURNAL_VERSION + 1
            }
        );
    }
}
