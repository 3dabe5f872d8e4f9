//! Gold-question quality control.
//!
//! CrowdFlower "offers quality-ensured results": workers are continuously
//! scored on gold units, and "responses of workers whose performance on
//! gold comparisons has accuracy less than 70% are ignored" (paper
//! Section 3.1). [`TrustTracker`] implements exactly that policy: it keeps
//! per-worker gold tallies and flags workers below [`TRUST_THRESHOLD`]
//! once they have seen [`MIN_GOLD`] gold questions.

use crate::worker::WorkerId;
use serde::{Deserialize, Serialize};

/// Gold accuracy below which a worker's responses are ignored (paper
/// Section 3.1: 70%).
pub const TRUST_THRESHOLD: f64 = 0.7;

/// Gold judgments a worker sees before [`TRUST_THRESHOLD`] is enforced: a
/// worker is innocent until she has had a fair number of chances.
pub const MIN_GOLD: u32 = 3;

/// Per-worker gold performance record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GoldRecord {
    /// Gold units the worker has judged.
    pub seen: u32,
    /// Gold units the worker answered correctly.
    pub correct: u32,
}

impl GoldRecord {
    /// Gold accuracy, or `None` before any gold judgment.
    pub fn accuracy(&self) -> Option<f64> {
        (self.seen > 0).then(|| self.correct as f64 / self.seen as f64)
    }
}

/// Tracks worker trust from gold-question performance under the paper's
/// CrowdFlower policy: [`TRUST_THRESHOLD`] accuracy, enforced after
/// [`MIN_GOLD`] gold judgments.
///
/// Records are dense, indexed by [`WorkerId::index`] and grown on demand,
/// so scoring a gold judgment or checking a worker is one indexed access.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrustTracker {
    records: Vec<GoldRecord>,
}

impl TrustTracker {
    /// Records one gold judgment for `worker`.
    pub fn record(&mut self, worker: WorkerId, correct: bool) {
        let idx = worker.index();
        if idx >= self.records.len() {
            self.records.resize(idx + 1, GoldRecord::default());
        }
        let rec = &mut self.records[idx];
        rec.seen += 1;
        if correct {
            rec.correct += 1;
        }
    }

    /// The worker's gold record (zeroes if she has seen no gold yet).
    pub fn record_of(&self, worker: WorkerId) -> GoldRecord {
        self.records
            .get(worker.index())
            .copied()
            .unwrap_or_default()
    }

    /// True if the worker's responses should be used: either she has not
    /// yet seen [`MIN_GOLD`] gold units, or her accuracy is at least
    /// [`TRUST_THRESHOLD`].
    pub fn is_trusted(&self, worker: WorkerId) -> bool {
        self.trusts(self.record_of(worker))
    }

    fn trusts(&self, rec: GoldRecord) -> bool {
        if rec.seen < MIN_GOLD {
            return true;
        }
        rec.accuracy().is_none_or(|a| a >= TRUST_THRESHOLD)
    }

    /// All currently untrusted (spam-flagged) workers, in ascending id
    /// order.
    pub fn untrusted(&self) -> impl Iterator<Item = WorkerId> + '_ {
        self.records
            .iter()
            .enumerate()
            .filter(|&(_, &rec)| !self.trusts(rec))
            .map(|(i, _)| WorkerId(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: WorkerId = WorkerId(0);

    #[test]
    fn fresh_workers_are_trusted() {
        let t = TrustTracker::default();
        assert!(t.is_trusted(W));
        assert_eq!(t.record_of(W), GoldRecord::default());
        assert_eq!(t.untrusted().next(), None);
    }

    #[test]
    fn accuracy_below_threshold_excludes() {
        let mut t = TrustTracker::default();
        t.record(W, true);
        t.record(W, false);
        assert!(t.is_trusted(W), "only 2 gold seen, below min_gold");
        t.record(W, false);
        // 1/3 ≈ 0.33 < 0.7 with min_gold reached.
        assert!(!t.is_trusted(W));
        assert!(t.untrusted().any(|w| w == W));
    }

    #[test]
    fn good_workers_stay_trusted() {
        let mut t = TrustTracker::default();
        for i in 0..10 {
            t.record(W, i % 10 != 0); // 90% accuracy
        }
        assert!(t.is_trusted(W));
    }

    #[test]
    fn boundary_accuracy_is_trusted() {
        // Exactly 70%: "accuracy less than 70%" is ignored, so 0.7 passes.
        let mut t = TrustTracker::default();
        for i in 0..10 {
            t.record(W, i < 7);
        }
        assert_eq!(t.record_of(W).accuracy(), Some(0.7));
        assert!(t.is_trusted(W));
    }

    #[test]
    fn just_below_the_boundary_excludes() {
        // 69% < 70%: one miss past the boundary flips the flag.
        let mut t = TrustTracker::default();
        for i in 0..100 {
            t.record(W, i < 69);
        }
        assert_eq!(t.record_of(W).accuracy(), Some(0.69));
        assert!(!t.is_trusted(W));
    }

    #[test]
    fn redemption_is_possible() {
        let mut t = TrustTracker::default();
        for _ in 0..3 {
            t.record(W, false);
        }
        assert!(!t.is_trusted(W));
        for _ in 0..20 {
            t.record(W, true);
        }
        assert!(t.is_trusted(W), "20/23 ≈ 0.87 >= 0.7");
    }

    #[test]
    fn untrusted_workers_come_in_ascending_order() {
        let mut t = TrustTracker::default();
        for _ in 0..MIN_GOLD {
            for w in [9, 2, 5, 0] {
                t.record(WorkerId(w), false);
            }
            t.record(WorkerId(4), true);
        }
        let flagged: Vec<WorkerId> = t.untrusted().collect();
        assert_eq!(flagged, [0, 2, 5, 9].map(WorkerId));
        assert_eq!(t.record_of(WorkerId(7)), GoldRecord::default());
        assert_eq!(t.record_of(WorkerId(70)), GoldRecord::default());
    }
}
