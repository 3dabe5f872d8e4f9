//! The payment ledger.
//!
//! Workers "are paid for each operation they perform" (paper Section 3.4).
//! The ledger records one payment per judgment — including judgments on
//! gold units and judgments later discarded by quality control: the
//! requester pays for the work either way, which is exactly why spam and
//! over-asking hurt.

use crate::worker::WorkerId;
use crowd_core::model::WorkerClass;
use serde::{Deserialize, Serialize};

/// A ledger of per-judgment payments.
///
/// Per-class and per-worker totals are dense: `by_class` is indexed by
/// `class as usize` and `by_worker` by [`WorkerId::index`], grown on
/// demand, so a payment is two indexed adds and no hashing. `None` marks
/// a worker never paid; a zero payment still makes her `Some`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Ledger {
    total: f64,
    by_class: [f64; 2],
    by_worker: Vec<Option<f64>>,
    judgments: u64,
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Self {
        Ledger::default()
    }

    /// Records one payment of `amount` to `worker` (of `class`).
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite amounts.
    pub fn pay(&mut self, worker: WorkerId, class: WorkerClass, amount: f64) {
        if !(amount.is_finite() && amount >= 0.0) {
            refuse_payment(amount);
        }
        self.total += amount;
        self.by_class[class as usize] += amount;
        let idx = worker.index();
        if idx >= self.by_worker.len() {
            self.by_worker.resize(idx + 1, None);
        }
        *self.by_worker[idx].get_or_insert(0.0) += amount;
        self.judgments += 1;
    }

    /// Total money spent.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Money spent on workers of `class`.
    pub fn spent_on(&self, class: WorkerClass) -> f64 {
        self.by_class[class as usize]
    }

    /// Money earned by `worker`.
    pub fn earned_by(&self, worker: WorkerId) -> f64 {
        self.by_worker
            .get(worker.index())
            .copied()
            .flatten()
            .unwrap_or(0.0)
    }

    /// Number of paid judgments.
    pub fn judgments(&self) -> u64 {
        self.judgments
    }

    /// Number of distinct workers paid.
    pub fn workers_paid(&self) -> usize {
        self.by_worker.iter().filter(|w| w.is_some()).count()
    }
}

/// The panic of [`Ledger::pay`] on a bad amount, kept out of the
/// per-judgment path.
#[cold]
#[inline(never)]
fn refuse_payment(amount: f64) -> ! {
    panic!("payments must be non-negative, got {amount}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payments_accumulate() {
        let mut l = Ledger::new();
        l.pay(WorkerId(0), WorkerClass::Naive, 1.0);
        l.pay(WorkerId(0), WorkerClass::Naive, 1.0);
        l.pay(WorkerId(1), WorkerClass::Expert, 10.0);
        assert_eq!(l.total(), 12.0);
        assert_eq!(l.spent_on(WorkerClass::Naive), 2.0);
        assert_eq!(l.spent_on(WorkerClass::Expert), 10.0);
        assert_eq!(l.earned_by(WorkerId(0)), 2.0);
        assert_eq!(l.earned_by(WorkerId(1)), 10.0);
        assert_eq!(l.judgments(), 3);
        assert_eq!(l.workers_paid(), 2);
    }

    #[test]
    fn empty_ledger_reads_zero() {
        let l = Ledger::new();
        assert_eq!(l.total(), 0.0);
        assert_eq!(l.spent_on(WorkerClass::Expert), 0.0);
        assert_eq!(l.earned_by(WorkerId(9)), 0.0);
        assert_eq!(l.judgments(), 0);
    }

    #[test]
    fn free_work_is_allowed() {
        let mut l = Ledger::new();
        l.pay(WorkerId(0), WorkerClass::Naive, 0.0);
        assert_eq!(l.total(), 0.0);
        assert_eq!(l.judgments(), 1);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_payment_panics() {
        Ledger::new().pay(WorkerId(0), WorkerClass::Naive, -1.0);
    }
}
