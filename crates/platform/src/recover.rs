//! Crash recovery: turn durable journal bytes back into a running job.
//!
//! The model is write-ahead-log state-machine replay. The platform is a
//! deterministic state machine (seeded RNGs, a stateless SplitMix64 fault
//! plan, hash-free iteration orders), so re-executing the journaled batch
//! sequence on a *fresh* platform rebuilds worker trust, the ledger, the
//! RNG streams and the fault-plan position exactly — no worker is asked
//! anything new and no money is notionally re-spent until the journal is
//! exhausted. The journal's `Completed` records are not used to *drive*
//! that replay but to *audit* it: every replayed batch is checked against
//! the journaled winners, the cumulative tally, the spend, and the fault
//! stream position, and additionally consumed through a
//! [`crowd_core::replay::ReplayOracle`] built from the journal transcript
//! — the same answered-transcript machinery the offline re-analysis
//! tooling uses. Any mismatch means the journal and the code disagree
//! (config drift, version skew) and recovery aborts rather than silently
//! diverge.
//!
//! The one deliberately re-bought case: a dangling `Scheduled` record
//! (the WAL wrote the intent, the crash hit before any worker answered).
//! Recovery runs that batch live — at most one batch per crash, the
//! floor any write-ahead scheme can guarantee.

use crate::journal::{CheckpointPolicy, Journal, JournalRecord, JournaledOracle, JOURNAL_VERSION};
use crate::platform::Platform;
use crowd_core::element::ElementId;
use crowd_core::model::WorkerClass;
use crowd_core::oracle::{ComparisonCounts, ComparisonOracle, OracleError};
use crowd_core::replay::{JudgmentLog, RecordedJudgment, ReplayOracle};
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
    /// The record sequence violates the WAL grammar (e.g. a `Completed`
    /// without its `Scheduled`).
    Corrupt(String),
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
            RecoverError::Corrupt(what) => write!(f, "corrupt journal: {what}"),
        }
    }
}

impl std::error::Error for RecoverError {}

/// What a replayed batch must reproduce, straight from its `Completed`
/// record.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpectedOutcome {
    /// The journaled winners (a prefix on a partial batch).
    pub winners: Vec<ElementId>,
    /// The journaled cumulative judgment tally.
    pub counts: ComparisonCounts,
    /// The journaled cumulative spend.
    pub spent: f64,
    /// The journaled fault-plan stream position.
    pub fault_seq: u64,
    /// True when the batch ended in a mid-batch fault.
    pub partial: bool,
}

/// One batch the resumed run must re-issue: the scheduled pairs, plus the
/// audited outcome when the journal completed the batch (`None` for a
/// dangling `Scheduled` — that batch runs live).
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptEntry {
    /// 0-based batch index.
    pub batch: u64,
    /// The worker class the batch was posted to.
    pub class: WorkerClass,
    /// The comparison pairs, in submission order.
    pub pairs: Vec<(ElementId, ElementId)>,
    /// The audited outcome, when the journal holds one.
    pub expected: Option<ExpectedOutcome>,
}

/// A decoded, structurally validated journal, ready to drive a resume.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovered {
    /// The job label from the header.
    pub job: String,
    /// The platform seed from the header.
    pub seed: u64,
    /// The batches to replay, in order.
    pub script: Vec<ScriptEntry>,
    /// The answered transcript of every completed batch, in order — the
    /// [`ReplayOracle`] audit channel is built from this.
    pub log: JudgmentLog,
    /// True when a torn tail was detected (and discarded) by checksum.
    pub torn_tail: bool,
    /// Journal bytes covered by intact records.
    pub valid_bytes: usize,
}

impl Recovered {
    /// Batches with a journaled outcome (the dangling `Scheduled`, if
    /// any, is not counted — it runs live).
    pub fn completed_batches(&self) -> u64 {
        self.script.iter().filter(|e| e.expected.is_some()).count() as u64
    }
}

/// Decodes and structurally validates journal `bytes`.
///
/// A torn tail (crash mid-write) is not an error: the tail is discarded
/// and recovery proceeds from the last intact record, with
/// [`Recovered::torn_tail`] set.
///
/// # Errors
///
/// Returns a [`RecoverError`] when the journal is empty, headerless,
/// version-skewed, or grammatically corrupt.
pub fn recover(bytes: &[u8]) -> Result<Recovered, RecoverError> {
    let decoded = Journal::decode(bytes);
    let mut records = decoded.records.into_iter();
    let Some(header) = records.next() else {
        return Err(RecoverError::Empty);
    };
    let JournalRecord::Started { version, job, seed } = header else {
        return Err(RecoverError::MissingHeader);
    };
    if version != JOURNAL_VERSION {
        return Err(RecoverError::VersionMismatch { found: version });
    }
    let mut script: Vec<ScriptEntry> = Vec::new();
    let mut log = JudgmentLog::new();
    for record in records {
        match record {
            JournalRecord::Started { .. } => {
                return Err(RecoverError::Corrupt("second Started header".to_string()));
            }
            JournalRecord::Scheduled {
                batch,
                class,
                pairs,
            } => {
                if script.last().is_some_and(|e| e.expected.is_none()) {
                    return Err(RecoverError::Corrupt(format!(
                        "batch {batch} scheduled while the previous batch is still in flight"
                    )));
                }
                if batch != script.len() as u64 {
                    return Err(RecoverError::Corrupt(format!(
                        "batch {batch} scheduled out of order (expected {})",
                        script.len()
                    )));
                }
                script.push(ScriptEntry {
                    batch,
                    class,
                    pairs,
                    expected: None,
                });
            }
            JournalRecord::Completed {
                batch,
                winners,
                workers: _,
                counts,
                spent,
                fault_seq,
                partial,
            } => {
                let Some(entry) = script.last_mut() else {
                    return Err(RecoverError::Corrupt(format!(
                        "batch {batch} completed without being scheduled"
                    )));
                };
                if entry.batch != batch || entry.expected.is_some() {
                    return Err(RecoverError::Corrupt(format!(
                        "batch {batch} completed out of order"
                    )));
                }
                if winners.len() > entry.pairs.len()
                    || (!partial && winners.len() != entry.pairs.len())
                {
                    return Err(RecoverError::Corrupt(format!(
                        "batch {batch} completed with {} winners for {} pairs",
                        winners.len(),
                        entry.pairs.len()
                    )));
                }
                for (&(k, j), &winner) in entry.pairs.iter().zip(&winners) {
                    log.push(RecordedJudgment {
                        class: entry.class,
                        k,
                        j,
                        winner,
                    });
                }
                entry.expected = Some(ExpectedOutcome {
                    winners,
                    counts,
                    spent,
                    fault_seq,
                    partial,
                });
            }
        }
    }
    Ok(Recovered {
        job,
        seed,
        script,
        log,
        torn_tail: decoded.torn_tail,
        valid_bytes: decoded.valid_bytes,
    })
}

/// An oracle that resumes a journaled job: replays the recovered script
/// on a fresh platform (auditing every batch against the journal and the
/// [`ReplayOracle`] transcript), then passes through live.
///
/// The wrapped [`JournaledOracle`] journals the resumed run from scratch,
/// so a resumed job can itself crash and be resumed again.
#[derive(Debug)]
pub struct ResumeOracle<R: RngCore> {
    inner: JournaledOracle<R>,
    script: Vec<ScriptEntry>,
    replay: ReplayOracle,
    pos: usize,
    replayed_comparisons: u64,
    diverged: Option<String>,
}

impl<R: RngCore> ResumeOracle<R> {
    /// Builds the resume path from a recovered journal and a fresh
    /// journaled platform. Emits [`Event::RecoveryStarted`]; when the
    /// script is empty the recovery is trivially complete and
    /// [`Event::RecoveryCompleted`] follows immediately.
    pub fn new(recovered: Recovered, inner: JournaledOracle<R>) -> Self {
        crowd_obs::emit(Event::RecoveryStarted {
            batches: recovered.completed_batches(),
            torn_tail: recovered.torn_tail,
        });
        let oracle = ResumeOracle {
            inner,
            replay: ReplayOracle::new(&recovered.log),
            script: recovered.script,
            pos: 0,
            replayed_comparisons: 0,
            diverged: None,
        };
        if oracle.script.is_empty() {
            oracle.emit_completed();
        }
        oracle
    }

    /// Comparisons restored from the journal instead of re-purchased,
    /// counted in answered *pairs*: a pair settled by a majority of
    /// several judgments counts once. The manifest's `comparisons` and
    /// the serve resume count *judgments* instead.
    pub fn replayed_comparisons(&self) -> u64 {
        self.replayed_comparisons
    }

    /// True while journal replay is still in progress.
    pub fn replaying(&self) -> bool {
        self.pos < self.script.len()
    }

    /// The first audit failure, if replay diverged from the journal.
    pub fn diverged(&self) -> Option<&str> {
        self.diverged.as_deref()
    }

    /// The wrapped journaled platform.
    pub fn inner(&self) -> &JournaledOracle<R> {
        &self.inner
    }

    /// Consumes the resume path, returning the journaled platform.
    pub fn into_inner(self) -> JournaledOracle<R> {
        self.inner
    }

    fn emit_completed(&self) {
        crowd_obs::emit(Event::RecoveryCompleted {
            replayed_batches: self.pos as u64,
            replayed_comparisons: self.replayed_comparisons,
        });
        crowd_obs::series::replayed_comparisons().add(self.replayed_comparisons);
    }

    fn diverge(&mut self, what: String) -> OracleError {
        if self.diverged.is_none() {
            self.diverged = Some(what);
        }
        OracleError::Interrupted
    }
}

impl<R: RngCore> ComparisonOracle for ResumeOracle<R> {
    /// Infallible trait surface. Callers that must not panic on replay
    /// divergence or a fault-exhausted platform use [`Self::try_compare`],
    /// which returns the typed [`OracleError`] instead.
    fn compare(&mut self, class: WorkerClass, k: ElementId, j: ElementId) -> ElementId {
        self.try_compare(class, k, j)
            .expect("the resumed platform cannot answer")
    }

    fn try_compare(
        &mut self,
        class: WorkerClass,
        k: ElementId,
        j: ElementId,
    ) -> Result<ElementId, OracleError> {
        let mut winners = Vec::with_capacity(1);
        self.try_compare_batch(class, &[(k, j)], &mut winners)?;
        Ok(winners[0])
    }

    fn compare_batch(
        &mut self,
        class: WorkerClass,
        pairs: &[(ElementId, ElementId)],
        winners: &mut Vec<ElementId>,
    ) {
        self.try_compare_batch(class, pairs, winners)
            .expect("the resumed platform cannot answer");
    }

    fn try_compare_batch(
        &mut self,
        class: WorkerClass,
        pairs: &[(ElementId, ElementId)],
        winners: &mut Vec<ElementId>,
    ) -> Result<(), OracleError> {
        if self.diverged.is_some() {
            return Err(OracleError::Interrupted);
        }
        if pairs.is_empty() {
            return Ok(());
        }
        let scripted = self.pos < self.script.len();
        if scripted {
            let entry = &self.script[self.pos];
            if entry.class != class || entry.pairs != pairs {
                let batch = entry.batch;
                return Err(self.diverge(format!(
                    "batch {batch}: the resumed run requested different work \
                     than the journal recorded"
                )));
            }
        }
        let start = winners.len();
        let outcome = self.inner.try_compare_batch(class, pairs, winners);
        if !scripted {
            return outcome;
        }
        let entry = &self.script[self.pos];
        let batch = entry.batch;
        if let Some(expected) = entry.expected.clone() {
            let got = &winners[start..];
            if got != expected.winners.as_slice() {
                return Err(self.diverge(format!(
                    "batch {batch}: replay produced different winners than the journal"
                )));
            }
            // Audit through the transcript-replay channel too: the journal
            // log must answer exactly what the fresh platform answered.
            for (&(k, j), &winner) in pairs.iter().zip(got) {
                match self.replay.try_compare(class, k, j) {
                    Ok(w) if w == winner => {}
                    _ => {
                        return Err(self.diverge(format!(
                            "batch {batch}: the journal transcript disagrees with replay"
                        )));
                    }
                }
            }
            let platform = self.inner.platform();
            if platform.counts() != expected.counts
                || platform.fault_seq() != expected.fault_seq
                || platform.ledger().total() != expected.spent
            {
                return Err(self.diverge(format!(
                    "batch {batch}: replayed platform state drifted from the checkpoint \
                     (tally/spend/fault-stream mismatch)"
                )));
            }
            self.replayed_comparisons += got.len() as u64;
        }
        self.pos += 1;
        if self.pos == self.script.len() {
            self.emit_completed();
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

/// One-call resume: recover `bytes`, validate them against the job the
/// caller is rebuilding, and wrap a fresh `platform` in the replay path.
///
/// `platform` must be constructed exactly as the crashed run's was (same
/// instance, pool, config, and the `seed` the journal header records) —
/// recovery re-executes the journaled batches on it and audits every step
/// against the checkpoints.
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
) -> Result<ResumeOracle<R>, RecoverError> {
    let recovered = recover(bytes)?;
    if recovered.job != job {
        return Err(RecoverError::JobMismatch {
            journal: recovered.job,
            expected: job.to_string(),
        });
    }
    if recovered.seed != seed {
        return Err(RecoverError::Corrupt(format!(
            "the journal was seeded with {}, the rebuilt platform with {seed}",
            recovered.seed
        )));
    }
    let inner = JournaledOracle::new(platform, job, seed, policy);
    Ok(ResumeOracle::new(recovered, inner))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PlatformConfig;
    use crate::pool::WorkerPool;
    use crowd_core::element::Instance;
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
        assert_eq!(recovered.completed_batches(), 1);
        assert_eq!(recovered.script.len(), 2, "batch 1 dangles");

        let mut resumed = resume_job(
            cut,
            fresh_platform(),
            JOB,
            SEED,
            CheckpointPolicy::every_batch(),
        )
        .expect("journal recovers");
        assert!(resumed.replaying());
        let mut winners = Vec::new();
        for batch in batches() {
            resumed
                .try_compare_batch(WorkerClass::Naive, &batch, &mut winners)
                .expect("resumed run answers");
        }
        assert_eq!(winners, full, "resume must equal the uninterrupted run");
        assert_eq!(resumed.diverged(), None);
        assert_eq!(
            resumed.replayed_comparisons(),
            2,
            "batch 0's two comparisons came from the journal replay"
        );
        let mut inner = resumed.into_inner();
        inner.finish();
        assert_eq!(inner.journal().durable(), &bytes[..], "the journal too");
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
        assert_eq!(recovered.completed_batches(), 2);

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
        assert_eq!(resumed.diverged(), None);
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
            failed && resumed.diverged().is_some(),
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
        assert_eq!(recover(b"").unwrap_err(), RecoverError::Empty);
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
