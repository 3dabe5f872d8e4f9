//! Jobs, units and judgments — the platform's task vocabulary.
//!
//! Following CrowdFlower's terminology (Section 3.1 of the paper): a *job*
//! is a batch of *units* (here, pairwise comparisons); each unit collects a
//! number of *judgments* from distinct workers. Some units are *gold*:
//! their true answer is known, they are indistinguishable from real units
//! to the workers, and they exist solely to score worker trust ("15% of the
//! queries that we performed are gold queries").

use crate::worker::WorkerId;
use crowd_core::element::ElementId;
use serde::{Deserialize, Serialize};

/// Identifier of a unit within a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct UnitId(pub u32);

/// A single pairwise-comparison unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Unit {
    /// The unit's id within its job.
    pub id: UnitId,
    /// The pair of elements to compare.
    pub pair: (ElementId, ElementId),
    /// For gold units, the known correct answer.
    pub gold_answer: Option<ElementId>,
}

impl Unit {
    /// A regular (paid, scored-by-aggregation) unit.
    #[inline]
    pub fn regular(id: UnitId, k: ElementId, j: ElementId) -> Self {
        if k == j {
            same_element(k);
        }
        Unit {
            id,
            pair: (k, j),
            gold_answer: None,
        }
    }

    /// A gold unit with known answer.
    ///
    /// # Panics
    ///
    /// Panics if `answer` is not one of the pair.
    pub fn gold(id: UnitId, k: ElementId, j: ElementId, answer: ElementId) -> Self {
        if k == j {
            same_element(k);
        }
        assert!(
            answer == k || answer == j,
            "the gold answer must be one of the pair"
        );
        Unit {
            id,
            pair: (k, j),
            gold_answer: Some(answer),
        }
    }

    /// True for gold units.
    pub fn is_gold(&self) -> bool {
        self.gold_answer.is_some()
    }
}

/// The panic of a unit built over one element twice, kept out of the
/// constructors so they stay small enough to inline.
#[cold]
#[inline(never)]
fn same_element(e: ElementId) -> ! {
    panic!("a unit compares two distinct elements, got {e:?} twice");
}

/// One worker's answer to one unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Judgment {
    /// The unit judged.
    pub unit: UnitId,
    /// The worker who judged it.
    pub worker: WorkerId,
    /// The element the worker declared the winner.
    pub answer: ElementId,
    /// The physical time step at which the judgment was produced.
    pub physical_step: u64,
}

/// A job: a batch of units plus the per-unit judgment requirement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Job {
    units: Vec<Unit>,
    judgments_per_unit: u32,
}

impl Job {
    /// Builds a job.
    ///
    /// # Panics
    ///
    /// Panics if `judgments_per_unit == 0` or `units` is empty.
    pub fn new(units: Vec<Unit>, judgments_per_unit: u32) -> Self {
        Job::check_shape(&units, judgments_per_unit);
        Job {
            units,
            judgments_per_unit,
        }
    }

    /// Panics unless `units` and `judgments_per_unit` make a job: at
    /// least one unit, and at least one judgment each.
    pub(crate) fn check_shape(units: &[Unit], judgments_per_unit: u32) {
        assert!(!units.is_empty(), "a job needs at least one unit");
        assert!(
            judgments_per_unit > 0,
            "each unit needs at least one judgment"
        );
    }

    /// Convenience: a job of regular units from raw pairs.
    pub fn from_pairs(pairs: &[(ElementId, ElementId)], judgments_per_unit: u32) -> Self {
        let units = pairs
            .iter()
            .enumerate()
            .map(|(i, &(k, j))| Unit::regular(UnitId(i as u32), k, j))
            .collect();
        Job::new(units, judgments_per_unit)
    }

    /// The job's units.
    pub fn units(&self) -> &[Unit] {
        &self.units
    }

    /// Judgments each unit must collect.
    pub fn judgments_per_unit(&self) -> u32 {
        self.judgments_per_unit
    }

    /// Total judgments the job will request.
    pub fn total_judgments(&self) -> u64 {
        self.units.len() as u64 * self.judgments_per_unit as u64
    }

    /// Number of gold units in the job.
    pub fn gold_count(&self) -> usize {
        self.units.iter().filter(|u| u.is_gold()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ElementId = ElementId(0);
    const B: ElementId = ElementId(1);

    #[test]
    fn regular_and_gold_units() {
        let r = Unit::regular(UnitId(0), A, B);
        assert!(!r.is_gold());
        let g = Unit::gold(UnitId(1), A, B, B);
        assert!(g.is_gold());
        assert_eq!(g.gold_answer, Some(B));
    }

    #[test]
    #[should_panic(expected = "distinct elements")]
    fn self_pair_panics() {
        Unit::regular(UnitId(0), A, A);
    }

    #[test]
    #[should_panic(expected = "one of the pair")]
    fn foreign_gold_answer_panics() {
        Unit::gold(UnitId(0), A, B, ElementId(9));
    }

    #[test]
    fn job_accounting() {
        let job = Job::new(
            vec![
                Unit::regular(UnitId(0), A, B),
                Unit::gold(UnitId(1), A, B, B),
            ],
            21,
        );
        assert_eq!(job.total_judgments(), 42);
        assert_eq!(job.gold_count(), 1);
        assert_eq!(job.judgments_per_unit(), 21);
        assert_eq!(job.units().len(), 2);
    }

    #[test]
    fn job_from_pairs() {
        let job = Job::from_pairs(&[(A, B), (B, ElementId(2))], 3);
        assert_eq!(job.units().len(), 2);
        assert_eq!(job.gold_count(), 0);
        assert_eq!(job.units()[1].pair, (B, ElementId(2)));
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn empty_job_panics() {
        Job::new(vec![], 1);
    }

    #[test]
    #[should_panic(expected = "at least one judgment")]
    fn zero_judgments_panics() {
        Job::new(vec![Unit::regular(UnitId(0), A, B)], 0);
    }
}
