//! Units — the platform's task vocabulary.
//!
//! Following CrowdFlower's terminology (Section 3.1 of the paper): a *job*
//! is a batch of *units* (here, pairwise comparisons); each unit collects a
//! number of *judgments* from distinct workers. Some units are *gold*:
//! their true answer is known, they are indistinguishable from real units
//! to the workers, and they exist solely to score worker trust ("15% of the
//! queries that we performed are gold queries").

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
}
