//! Deterministic crash injection for the journaled execution path.
//!
//! A chaos test is only trustworthy when the crash is *reproducible*: the
//! same seed must kill the same run at the same comparison, or a failing
//! resume-equivalence case cannot be replayed. A [`ChaosPlan`] therefore
//! carries one concrete [`InjectionPoint`] and fires exactly once, by
//! making the [`JournaledOracle`](crate::journal::JournaledOracle) report
//! [`OracleError::Interrupted`](crowd_core::oracle::OracleError::Interrupted)
//! instead of executing.
//!
//! The four injection points cover the distinct crash windows of the
//! write-ahead path:
//!
//! * [`MidBatch`](InjectionPoint::MidBatch) — after the `Scheduled`
//!   record is durable, before any worker is asked: recovery finds a
//!   dangling record and runs the batch live.
//! * [`MidJournalWrite`](InjectionPoint::MidJournalWrite) — half the
//!   `Scheduled` frame reaches the durable journal: recovery must detect
//!   the torn tail by checksum and resume from the last intact record.
//! * [`BetweenRounds`](InjectionPoint::BetweenRounds) — armed by the
//!   algorithm's `RoundEnd` trace event, fires before the next batch
//!   writes anything: the journal ends at a Phase-1 round boundary, and
//!   with a lazy checkpoint cadence the round's unflushed completions
//!   are lost (and re-bought on resume).
//! * [`AtPhaseTransition`](InjectionPoint::AtPhaseTransition) — armed by
//!   `PhaseEnd(Filter)`, fires before the first expert batch journals:
//!   the durable transcript covers Phase 1, Phase 2 has not begun.

use crowd_core::trace::{TraceEvent, TracePhase};

/// Where a [`ChaosPlan`] kills the run. See the module docs for the crash
/// window each variant exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionPoint {
    /// Crash after the numbered batch's `Scheduled` record is durable,
    /// before the batch executes.
    MidBatch {
        /// 0-based journal batch index.
        batch: u64,
    },
    /// Crash while writing the numbered batch's `Scheduled` record: only
    /// half the frame reaches the durable journal.
    MidJournalWrite {
        /// 0-based journal batch index.
        batch: u64,
    },
    /// Crash on the first batch after the numbered Phase-1 filter round
    /// ends.
    BetweenRounds {
        /// 0-based round index, matching `TraceEvent::RoundEnd`.
        round: u32,
    },
    /// Crash on the first batch after Phase 1 ends (the filter→expert
    /// transition).
    AtPhaseTransition,
}

/// A single-shot, deterministic kill switch for a journaled run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPlan {
    point: InjectionPoint,
    /// Set by a trace event for the boundary-triggered points; the next
    /// batch then crashes.
    armed: bool,
    /// A plan fires at most once (the oracle is dead afterwards anyway).
    fired: bool,
}

impl ChaosPlan {
    /// A plan that kills the run at exactly `point`.
    pub fn at(point: InjectionPoint) -> Self {
        ChaosPlan {
            point,
            armed: false,
            fired: false,
        }
    }

    /// True once the plan has killed a run.
    pub fn fired(&self) -> bool {
        self.fired
    }

    /// Arms boundary-triggered points from the algorithm's trace stream.
    pub fn on_trace(&mut self, event: TraceEvent) {
        match (self.point, event) {
            (InjectionPoint::BetweenRounds { round }, TraceEvent::RoundEnd(r)) if r == round => {
                self.armed = true;
            }
            (InjectionPoint::AtPhaseTransition, TraceEvent::PhaseEnd(TracePhase::Filter)) => {
                self.armed = true;
            }
            _ => {}
        }
    }

    /// Should the write of `batch`'s `Scheduled` record be torn? Consults
    /// and consumes the plan.
    pub fn tears_journal_at(&mut self, batch: u64) -> bool {
        if self.fired {
            return false;
        }
        if matches!(self.point, InjectionPoint::MidJournalWrite { batch: b } if b == batch) {
            self.fired = true;
            return true;
        }
        false
    }

    /// Should the run crash before executing `batch` (its `Scheduled`
    /// record already durable)? Consults and consumes the plan.
    pub fn crashes_at(&mut self, batch: u64) -> bool {
        if self.fired {
            return false;
        }
        if matches!(self.point, InjectionPoint::MidBatch { batch: b } if b == batch) {
            self.fired = true;
            return true;
        }
        false
    }

    /// Should a boundary-armed crash fire now — *before* the next batch
    /// writes anything to the journal? This is the window where a lazy
    /// [`CheckpointPolicy`](crate::journal::CheckpointPolicy) genuinely
    /// loses completed-but-unflushed batches (they are re-bought on
    /// resume). Consults and consumes the plan.
    pub fn fires_armed(&mut self) -> bool {
        if self.fired || !self.armed {
            return false;
        }
        self.fired = true;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mid_batch_fires_exactly_once_at_its_batch() {
        let mut plan = ChaosPlan::at(InjectionPoint::MidBatch { batch: 2 });
        assert!(!plan.crashes_at(0));
        assert!(!plan.crashes_at(1));
        assert!(plan.crashes_at(2));
        assert!(plan.fired());
        assert!(!plan.crashes_at(2), "a plan fires once");
    }

    #[test]
    fn torn_write_only_matches_the_journal_point() {
        let mut plan = ChaosPlan::at(InjectionPoint::MidJournalWrite { batch: 1 });
        assert!(!plan.crashes_at(1), "a torn write is not a plain crash");
        assert!(plan.tears_journal_at(1));
        assert!(!plan.tears_journal_at(1));
    }

    #[test]
    fn round_boundary_arms_then_fires_before_the_next_batch() {
        let mut plan = ChaosPlan::at(InjectionPoint::BetweenRounds { round: 1 });
        assert!(!plan.fires_armed());
        plan.on_trace(TraceEvent::RoundEnd(0));
        assert!(!plan.fires_armed(), "wrong round must not arm");
        plan.on_trace(TraceEvent::RoundEnd(1));
        assert!(plan.fires_armed());
        assert!(!plan.fires_armed(), "a plan fires once");
    }

    #[test]
    fn phase_transition_arms_on_filter_end_only() {
        let mut plan = ChaosPlan::at(InjectionPoint::AtPhaseTransition);
        plan.on_trace(TraceEvent::PhaseStart(TracePhase::Filter));
        plan.on_trace(TraceEvent::PhaseEnd(TracePhase::Expert));
        assert!(!plan.fires_armed());
        plan.on_trace(TraceEvent::PhaseEnd(TracePhase::Filter));
        assert!(plan.fires_armed());
    }
}
