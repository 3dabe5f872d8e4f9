//! Timeout recovery: capped exponential backoff and dead-letter records.
//!
//! When a judgment times out, abandons, or no-answers, the platform
//! re-assigns the unit to a *different* worker (preserving the
//! distinct-workers-per-unit invariant, see
//! [`crate::scheduler::reassign`]) after a backoff delay measured in
//! physical steps. Units that exhaust their retries land in a
//! [`DeadLetter`] record on the platform instead of being silently lost.

use crate::task::UnitId;
use crowd_core::element::ElementId;
use crowd_core::model::WorkerClass;
use crowd_obs::{series, Event};
use serde::{Deserialize, Serialize};

pub use crowd_core::trace::DeadLetterReason;

/// Retry policy for failed judgments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum re-assignments per unit after the initial attempt.
    pub max_retries: u32,
    /// Backoff before the first retry, in physical steps.
    pub base_backoff_steps: u64,
    /// Cap on the (exponentially growing) backoff.
    pub max_backoff_steps: u64,
}

impl RetryPolicy {
    /// The default recovery posture: three retries with 1-step backoff
    /// doubling up to 8 steps. At zero fault rates nothing ever fails, so
    /// this policy is inert and costs nothing.
    pub fn paper_default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff_steps: 1,
            max_backoff_steps: 8,
        }
    }

    /// No retries at all: every failed judgment dead-letters immediately.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff_steps: 0,
            max_backoff_steps: 0,
        }
    }

    /// Sets the maximum number of retries.
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// The backoff before retry number `attempt` (1-based), in physical
    /// steps: `base · 2^(attempt−1)`, capped at `max_backoff_steps`.
    pub fn backoff(&self, attempt: u32) -> u64 {
        if attempt == 0 || self.base_backoff_steps == 0 {
            return 0;
        }
        let doubled = self
            .base_backoff_steps
            .saturating_mul(1u64.checked_shl(attempt - 1).unwrap_or(u64::MAX));
        doubled.min(self.max_backoff_steps)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::paper_default()
    }
}

/// A unit that exhausted its retries without collecting the judgments it
/// needed — the platform's record of work it had to give up on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeadLetter {
    /// The failed unit.
    pub unit: UnitId,
    /// The pair the unit asked about.
    pub pair: (ElementId, ElementId),
    /// The worker class the unit was posted to.
    pub class: WorkerClass,
    /// Total attempts made (initial assignment plus retries).
    pub attempts: u32,
    /// The logical step the unit was posted in.
    pub logical_step: u64,
    /// Why the unit was given up on. `NoHealthyWorkers` (every eligible
    /// worker excluded or quarantined) is deliberately distinct from
    /// `NoFreshWorkers` (a pool too small for the distinct-workers
    /// invariant): dashboards must be able to tell a quarantine storm
    /// from an under-hired campaign.
    pub reason: DeadLetterReason,
}

/// Reports a unit or pair given up on to the observability layer: an
/// [`Event::DeadLettered`] and a bump of the
/// [`crowd_dead_letters_total`](crowd_obs::names::DEAD_LETTERS_TOTAL)
/// counter. The platform and the service both report through here.
pub(crate) fn report_dead_letter(class: WorkerClass, attempts: u32, reason: DeadLetterReason) {
    crowd_obs::emit(Event::DeadLettered {
        class,
        attempts,
        reason,
    });
    series::dead_letters(class, reason).add(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_retries: 10,
            base_backoff_steps: 1,
            max_backoff_steps: 8,
        };
        assert_eq!(p.backoff(0), 0);
        assert_eq!(p.backoff(1), 1);
        assert_eq!(p.backoff(2), 2);
        assert_eq!(p.backoff(3), 4);
        assert_eq!(p.backoff(4), 8);
        assert_eq!(p.backoff(5), 8, "capped");
        assert_eq!(p.backoff(63), 8, "shift overflow saturates at the cap");
        assert_eq!(p.backoff(100), 8, "shift overflow saturates at the cap");
    }

    #[test]
    fn zero_base_means_no_backoff() {
        assert_eq!(RetryPolicy::none().backoff(5), 0);
    }

    #[test]
    fn cap_is_reached_exactly_when_a_doubling_lands_on_it() {
        // 2·2³ = 16 == cap: the boundary attempt hits the cap without
        // overshooting, and every later attempt stays pinned there.
        let p = RetryPolicy {
            max_retries: 8,
            base_backoff_steps: 2,
            max_backoff_steps: 16,
        };
        assert_eq!(p.backoff(3), 8);
        assert_eq!(p.backoff(4), 16);
        assert_eq!(p.backoff(5), 16);
    }

    #[test]
    fn base_above_the_cap_clamps_from_the_first_retry() {
        let p = RetryPolicy {
            max_retries: 2,
            base_backoff_steps: 8,
            max_backoff_steps: 4,
        };
        assert_eq!(p.backoff(1), 4);
        assert_eq!(p.backoff(2), 4);
    }

    #[test]
    fn cap_equal_to_base_pins_every_retry() {
        let p = RetryPolicy {
            max_retries: 4,
            base_backoff_steps: 3,
            max_backoff_steps: 3,
        };
        for attempt in 1..=4 {
            assert_eq!(p.backoff(attempt), 3);
        }
    }

    #[test]
    fn shift_overflow_boundary_saturates_instead_of_wrapping() {
        // With an unbounded cap, attempt 64 uses the last in-range shift
        // (2⁶³) and attempt 65 crosses the u64 shift limit — the backoff
        // must saturate, not wrap to a tiny delay.
        let p = RetryPolicy {
            max_retries: u32::MAX,
            base_backoff_steps: 1,
            max_backoff_steps: u64::MAX,
        };
        assert_eq!(p.backoff(64), 1u64 << 63);
        assert_eq!(p.backoff(65), u64::MAX);
    }

    #[test]
    fn dead_letter_serializes() {
        let dl = DeadLetter {
            unit: UnitId(3),
            pair: (ElementId(1), ElementId(2)),
            class: WorkerClass::Naive,
            attempts: 4,
            logical_step: 7,
            reason: DeadLetterReason::NoHealthyWorkers,
        };
        let json = serde_json::to_string(&dl).unwrap();
        assert!(json.contains("attempts"), "{json}");
        assert!(json.contains("NoHealthyWorkers"), "{json}");
    }
}
