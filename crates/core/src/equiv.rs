//! Differential oracle equivalence: prove that two ways of driving an
//! oracle issue the **byte-identical comparison sequence**.
//!
//! This is the promoted form of the PR-4 differential proptest harness.
//! Both sides are wrapped in a [`RecordingOracle`], driven by a caller
//! closure, and their [`JudgmentLog`]s — every `(class, k, j, winner)`
//! in caller order — plus their comparison-count deltas are asserted
//! equal, with a first-divergence diagnostic on mismatch.
//!
//! Typical uses:
//!
//! * pin an algorithm rewrite to its reference implementation (the arena
//!   filter vs. the retained pre-refactor filter);
//! * prove a batch execution path ([`ComparisonOracle::compare_batch`])
//!   equals the scalar loop through any decorator stack — see
//!   [`drive_scalar`] / [`drive_batched`].

use crate::element::ElementId;
use crate::model::WorkerClass;
use crate::oracle::ComparisonOracle;
use crate::replay::{JudgmentLog, RecordingOracle};

/// Drives `a` and `b` through recording decorators and asserts they saw
/// the same comparison sequence, produced the same answers, tallied the
/// same counts, and that the two drivers returned equal values.
///
/// Returns the (shared) judgment log and the drivers' common return
/// value, for callers that want to assert more.
///
/// # Panics
///
/// Panics with a first-divergence diagnostic when the logs, count deltas,
/// or driver outputs differ.
#[track_caller]
pub fn assert_oracles_equal<A, B, T, DA, DB>(
    a: A,
    b: B,
    drive_a: DA,
    drive_b: DB,
) -> (JudgmentLog, T)
where
    A: ComparisonOracle,
    B: ComparisonOracle,
    T: PartialEq + std::fmt::Debug,
    DA: FnOnce(&mut RecordingOracle<A>) -> T,
    DB: FnOnce(&mut RecordingOracle<B>) -> T,
{
    let mut rec_a = RecordingOracle::new(a);
    let before_a = rec_a.counts();
    let out_a = drive_a(&mut rec_a);
    let delta_a = rec_a.counts().saturating_sub(before_a);

    let mut rec_b = RecordingOracle::new(b);
    let before_b = rec_b.counts();
    let out_b = drive_b(&mut rec_b);
    let delta_b = rec_b.counts().saturating_sub(before_b);

    let (log_a, _) = rec_a.into_parts();
    let (log_b, _) = rec_b.into_parts();
    if log_a != log_b {
        let ja = log_a.judgments();
        let jb = log_b.judgments();
        let at = ja
            .iter()
            .zip(jb)
            .position(|(x, y)| x != y)
            .unwrap_or_else(|| ja.len().min(jb.len()));
        panic!(
            "comparison sequences diverged at judgment {at}: \
             a = {:?} (of {}), b = {:?} (of {})",
            ja.get(at),
            ja.len(),
            jb.get(at),
            jb.len(),
        );
    }
    assert_eq!(
        delta_a, delta_b,
        "identical judgment logs but different comparison tallies"
    );
    assert_eq!(out_a, out_b, "drivers returned different outcomes");
    (log_a, out_a)
}

/// Drives `pairs` through the oracle one [`compare`] at a time, returning
/// the winners in order — the scalar side of a scalar-vs-batch proof.
///
/// [`compare`]: ComparisonOracle::compare
pub fn drive_scalar<O: ComparisonOracle>(
    oracle: &mut O,
    class: WorkerClass,
    pairs: &[(ElementId, ElementId)],
) -> Vec<ElementId> {
    pairs
        .iter()
        .map(|&(k, j)| oracle.compare(class, k, j))
        .collect()
}

/// Drives `pairs` through the oracle as consecutive
/// [`compare_batch`] calls of the given `segment` lengths (any remainder
/// after the listed segments forms one final batch; zero-length segments
/// are legal and exercise the empty-batch path), returning the winners in
/// order.
///
/// [`compare_batch`]: ComparisonOracle::compare_batch
pub fn drive_batched<O: ComparisonOracle>(
    oracle: &mut O,
    class: WorkerClass,
    pairs: &[(ElementId, ElementId)],
    segments: &[usize],
) -> Vec<ElementId> {
    let mut winners = Vec::with_capacity(pairs.len());
    let mut rest = pairs;
    for &len in segments {
        let take = len.min(rest.len());
        let (batch, tail) = rest.split_at(take);
        oracle.compare_batch(class, batch, &mut winners);
        rest = tail;
    }
    if !rest.is_empty() {
        oracle.compare_batch(class, rest, &mut winners);
    }
    winners
}

/// Drives `pairs` through the oracle as consecutive fallible
/// [`try_compare_batch`] calls of the given `segment` lengths (remainder
/// and zero-length rules as in [`drive_batched`]), stopping at the first
/// error. Returns the winners answered so far — including any completed
/// prefix a partial-batch oracle appended before its error — and the
/// error, if one fired.
///
/// This is the crash/resume driver for [`assert_oracles_equal`]: a
/// resume test cuts an uninterrupted run's journal where a crash could
/// have left it, resumes from the cut, and drives both sides with
/// `drive_until_error`; a resumed side whose replay diverges stops at
/// [`OracleError::Interrupted`] instead of panicking.
///
/// [`try_compare_batch`]: ComparisonOracle::try_compare_batch
/// [`OracleError::Interrupted`]: crate::oracle::OracleError::Interrupted
pub fn drive_until_error<O: ComparisonOracle>(
    oracle: &mut O,
    class: WorkerClass,
    pairs: &[(ElementId, ElementId)],
    segments: &[usize],
) -> (Vec<ElementId>, Option<crate::oracle::OracleError>) {
    let mut winners = Vec::with_capacity(pairs.len());
    let mut rest = pairs;
    for &len in segments {
        let take = len.min(rest.len());
        let (batch, tail) = rest.split_at(take);
        if let Err(e) = oracle.try_compare_batch(class, batch, &mut winners) {
            return (winners, Some(e));
        }
        rest = tail;
    }
    if !rest.is_empty() {
        if let Err(e) = oracle.try_compare_batch(class, rest, &mut winners) {
            return (winners, Some(e));
        }
    }
    (winners, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Instance;
    use crate::oracle::{FnOracle, PerfectOracle};

    fn instance() -> Instance {
        Instance::new(vec![3.0, 1.0, 4.0, 1.5, 9.0, 2.6])
    }

    fn pairs() -> Vec<(ElementId, ElementId)> {
        vec![
            (ElementId(0), ElementId(1)),
            (ElementId(2), ElementId(3)),
            (ElementId(4), ElementId(5)),
            (ElementId(1), ElementId(4)),
        ]
    }

    #[test]
    fn equal_runs_pass_and_return_the_log() {
        let (log, winners) = assert_oracles_equal(
            PerfectOracle::new(instance()),
            PerfectOracle::new(instance()),
            |o| drive_scalar(o, WorkerClass::Naive, &pairs()),
            |o| drive_batched(o, WorkerClass::Naive, &pairs(), &[2]),
        );
        assert_eq!(log.len(), pairs().len());
        assert_eq!(winners.len(), pairs().len());
        assert_eq!(winners[0], ElementId(0));
    }

    #[test]
    #[should_panic(expected = "diverged at judgment 1")]
    fn diverging_answers_name_the_first_bad_judgment() {
        assert_oracles_equal(
            FnOracle::new(|_, k, _| k),
            FnOracle::new(|_, k, j| if k == ElementId(2) { j } else { k }),
            |o| drive_scalar(o, WorkerClass::Naive, &pairs()),
            |o| drive_scalar(o, WorkerClass::Naive, &pairs()),
        );
    }

    #[test]
    #[should_panic(expected = "diverged at judgment 3")]
    fn shorter_runs_diverge_at_the_missing_tail() {
        assert_oracles_equal(
            FnOracle::new(|_, k, _| k),
            FnOracle::new(|_, k, _| k),
            |o| drive_scalar(o, WorkerClass::Naive, &pairs()),
            |o| drive_scalar(o, WorkerClass::Naive, &pairs()[..3]),
        );
    }

    #[test]
    #[should_panic(expected = "different outcomes")]
    fn diverging_driver_outputs_fail() {
        assert_oracles_equal(
            PerfectOracle::new(instance()),
            PerfectOracle::new(instance()),
            |o| {
                drive_scalar(o, WorkerClass::Naive, &pairs());
                1u32
            },
            |o| {
                drive_scalar(o, WorkerClass::Naive, &pairs());
                2u32
            },
        );
    }

    #[test]
    fn zero_length_segments_are_legal() {
        let mut o = PerfectOracle::new(instance());
        let winners = drive_batched(&mut o, WorkerClass::Naive, &pairs(), &[0, 1, 0, 2]);
        assert_eq!(winners.len(), pairs().len());
        assert_eq!(o.counts().naive, pairs().len() as u64);
    }

    /// A perfect oracle that reports [`OracleError::Interrupted`] after a
    /// fixed number of comparisons — the completed prefix of each batch is
    /// kept, mirroring the platform's partial-batch contract.
    struct CrashingOracle {
        inner: PerfectOracle,
        remaining: u64,
    }

    impl ComparisonOracle for CrashingOracle {
        fn compare(&mut self, class: WorkerClass, k: ElementId, j: ElementId) -> ElementId {
            self.try_compare(class, k, j).expect("crashed")
        }

        fn try_compare(
            &mut self,
            class: WorkerClass,
            k: ElementId,
            j: ElementId,
        ) -> Result<ElementId, crate::oracle::OracleError> {
            if self.remaining == 0 {
                return Err(crate::oracle::OracleError::Interrupted);
            }
            self.remaining -= 1;
            Ok(self.inner.compare(class, k, j))
        }

        fn counts(&self) -> crate::oracle::ComparisonCounts {
            self.inner.counts()
        }
    }

    #[test]
    fn drive_until_error_keeps_the_answered_prefix() {
        let mut o = CrashingOracle {
            inner: PerfectOracle::new(instance()),
            remaining: 3,
        };
        let (winners, err) = drive_until_error(&mut o, WorkerClass::Naive, &pairs(), &[2]);
        // Two pairs from the first batch, then one from the second before
        // the crash: the mid-batch prefix survives.
        assert_eq!(winners.len(), 3);
        assert!(matches!(err, Some(crate::oracle::OracleError::Interrupted)));
        assert_eq!(o.counts().naive, 3);
    }

    #[test]
    fn drive_until_error_without_fault_matches_drive_batched() {
        let mut a = PerfectOracle::new(instance());
        let expected = drive_batched(&mut a, WorkerClass::Naive, &pairs(), &[2]);
        let mut o = CrashingOracle {
            inner: PerfectOracle::new(instance()),
            remaining: u64::MAX,
        };
        let (winners, err) = drive_until_error(&mut o, WorkerClass::Naive, &pairs(), &[2]);
        assert_eq!(winners, expected);
        assert!(err.is_none());
    }
}
