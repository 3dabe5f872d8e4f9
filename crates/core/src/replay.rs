//! Recording comparison judgments.
//!
//! [`RecordingOracle`] captures every judgment an oracle produces into a
//! serializable [`JudgmentLog`], in answering order. The equivalence
//! harness ([`crate::equiv`]) compares two oracle stacks by their logs.

use crate::element::ElementId;
use crate::model::WorkerClass;
use crate::oracle::{ComparisonCounts, ComparisonOracle};
use serde::{Deserialize, Serialize};

/// One recorded judgment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecordedJudgment {
    /// The worker class asked.
    pub class: WorkerClass,
    /// First element as presented.
    pub k: ElementId,
    /// Second element as presented.
    pub j: ElementId,
    /// The element declared the winner.
    pub winner: ElementId,
}

/// A serializable log of judgments, in recording order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct JudgmentLog {
    judgments: Vec<RecordedJudgment>,
}

impl JudgmentLog {
    /// An empty log.
    pub fn new() -> Self {
        JudgmentLog::default()
    }

    /// The judgments, in recording order.
    pub fn judgments(&self) -> &[RecordedJudgment] {
        &self.judgments
    }

    /// Number of recorded judgments.
    pub fn len(&self) -> usize {
        self.judgments.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.judgments.is_empty()
    }

    /// Appends a judgment.
    pub fn push(&mut self, judgment: RecordedJudgment) {
        self.judgments.push(judgment);
    }
}

/// Decorator that records every judgment flowing through an oracle.
#[derive(Debug)]
pub struct RecordingOracle<O> {
    inner: O,
    log: JudgmentLog,
}

impl<O: ComparisonOracle> RecordingOracle<O> {
    /// Wraps `inner` with an empty log.
    pub fn new(inner: O) -> Self {
        RecordingOracle {
            inner,
            log: JudgmentLog::new(),
        }
    }

    /// The log so far.
    pub fn log(&self) -> &JudgmentLog {
        &self.log
    }

    /// Consumes the recorder, returning the log and the wrapped oracle.
    pub fn into_parts(self) -> (JudgmentLog, O) {
        (self.log, self.inner)
    }
}

impl<O: ComparisonOracle> ComparisonOracle for RecordingOracle<O> {
    fn compare(&mut self, class: WorkerClass, k: ElementId, j: ElementId) -> ElementId {
        let winner = self.inner.compare(class, k, j);
        self.log.push(RecordedJudgment {
            class,
            k,
            j,
            winner,
        });
        winner
    }

    fn try_compare(
        &mut self,
        class: WorkerClass,
        k: ElementId,
        j: ElementId,
    ) -> Result<ElementId, crate::oracle::OracleError> {
        let winner = self.inner.try_compare(class, k, j)?;
        self.log.push(RecordedJudgment {
            class,
            k,
            j,
            winner,
        });
        Ok(winner)
    }

    /// Forwards the batch to the inner oracle *as a batch* (so its batch
    /// adapters stay engaged), then logs the answered pairs one by one —
    /// a recorded batch run is indistinguishable in the log from the
    /// equivalent scalar run, which is exactly what the
    /// [`equiv`](crate::equiv) harness relies on.
    fn compare_batch(
        &mut self,
        class: WorkerClass,
        pairs: &[(ElementId, ElementId)],
        winners: &mut Vec<ElementId>,
    ) {
        let start = winners.len();
        self.inner.compare_batch(class, pairs, winners);
        for (&(k, j), &winner) in pairs.iter().zip(&winners[start..]) {
            self.log.push(RecordedJudgment {
                class,
                k,
                j,
                winner,
            });
        }
    }

    fn try_compare_batch(
        &mut self,
        class: WorkerClass,
        pairs: &[(ElementId, ElementId)],
        winners: &mut Vec<ElementId>,
    ) -> Result<(), crate::oracle::OracleError> {
        let start = winners.len();
        let outcome = self.inner.try_compare_batch(class, pairs, winners);
        // Log whatever was answered, even on a mid-batch fault.
        for (&(k, j), &winner) in pairs.iter().zip(&winners[start..]) {
            self.log.push(RecordedJudgment {
                class,
                k,
                j,
                winner,
            });
        }
        outcome
    }

    fn counts(&self) -> ComparisonCounts {
        self.inner.counts()
    }

    fn observe(&mut self, event: crate::trace::TraceEvent) {
        self.inner.observe(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{two_max_find, TwoMaxFindOutcome};
    use crate::element::Instance;
    use crate::model::{ExpertModel, TiePolicy};
    use crate::oracle::SimulatedOracle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn instance() -> Instance {
        Instance::new(vec![5.0, 1.0, 9.0, 3.0, 7.0])
    }

    fn run_recorded() -> (JudgmentLog, TwoMaxFindOutcome) {
        let model = ExpertModel::exact(2.0, 0.5, TiePolicy::UniformRandom);
        let oracle = SimulatedOracle::new(instance(), model, StdRng::seed_from_u64(1));
        let mut rec = RecordingOracle::new(oracle);
        let out = two_max_find(&mut rec, WorkerClass::Naive, &instance().ids());
        let (log, _) = rec.into_parts();
        (log, out)
    }

    #[test]
    fn recording_captures_every_judgment() {
        let (log, out) = run_recorded();
        assert_eq!(log.len() as u64, out.comparisons.total());
        for r in log.judgments() {
            assert!(r.winner == r.k || r.winner == r.j);
        }
    }

    #[test]
    fn classes_are_kept_separate() {
        let model = ExpertModel::exact(2.0, 0.5, TiePolicy::UniformRandom);
        let oracle = SimulatedOracle::new(instance(), model, StdRng::seed_from_u64(3));
        let mut rec = RecordingOracle::new(oracle);
        rec.compare(WorkerClass::Expert, ElementId(0), ElementId(1));
        rec.compare(WorkerClass::Naive, ElementId(0), ElementId(1));
        rec.compare(WorkerClass::Naive, ElementId(2), ElementId(3));
        let classes: Vec<WorkerClass> = rec.log().judgments().iter().map(|r| r.class).collect();
        assert_eq!(
            classes,
            [WorkerClass::Expert, WorkerClass::Naive, WorkerClass::Naive]
        );
        assert_eq!(
            rec.counts(),
            ComparisonCounts {
                naive: 2,
                expert: 1
            }
        );
    }

    #[test]
    fn log_round_trips_through_json() {
        let (log, _) = run_recorded();
        let json = serde_json::to_string(&log).unwrap();
        let back: JudgmentLog = serde_json::from_str(&json).unwrap();
        assert_eq!(back, log);
    }
}
