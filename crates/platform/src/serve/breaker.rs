//! Per-worker circuit breakers: quarantine workers on failure streaks,
//! probe them half-open after a seeded cooldown.
//!
//! The state machine is the classic three-state breaker on the service's
//! logical clock:
//!
//! ```text
//! Closed { streak } --streak hits threshold--> Open { until }
//! Open { until }    --tick reaches until-----> HalfOpen   (one probe)
//! HalfOpen          --probe succeeds---------> Closed { 0 }
//! HalfOpen          --probe fails------------> Open { until' }
//! ```
//!
//! Every transition is a pure function of `(state, outcome, tick)` plus a
//! seeded cooldown jitter, so breaker behaviour is deterministic under a
//! fixed seed — and a zero-rate fault plan, which never produces a
//! failure, leaves every breaker in `Closed { 0 }` forever: runs with the
//! breaker layer enabled are byte-identical to runs without it.

use crate::fault::mix;
use serde::{Deserialize, Serialize};

/// Consecutive failures that open a closed breaker.
pub const TRIP_THRESHOLD: u32 = 3;

/// Base quarantine length, in service ticks.
pub const COOLDOWN_BASE: u64 = 4;

/// Extra quarantine ticks drawn from the seeded jitter stream, in
/// `[0, COOLDOWN_JITTER]`. Jitter keeps a correlated failure burst from
/// synchronizing every breaker's half-open probe onto one tick.
pub const COOLDOWN_JITTER: u64 = 4;

/// Breaker posture for a service: on (trip after [`TRIP_THRESHOLD`]
/// consecutive failures, cool down [`COOLDOWN_BASE`] plus up to
/// [`COOLDOWN_JITTER`] ticks) or off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BreakerPolicy {
    /// Master switch. Disabled breakers never trip and always admit.
    pub enabled: bool,
}

impl BreakerPolicy {
    /// The default quarantine posture: trip after 3 consecutive failures,
    /// cool down 4–8 ticks.
    pub fn default_on() -> Self {
        BreakerPolicy { enabled: true }
    }

    /// No breakers at all: never trips, always admits.
    pub fn disabled() -> Self {
        BreakerPolicy { enabled: false }
    }
}

/// The seeded cooldown for a worker's `trips`-th trip:
/// `COOLDOWN_BASE + mix(seed, worker, trips) % (COOLDOWN_JITTER + 1)`.
fn cooldown(seed: u64, worker: u64, trips: u64) -> u64 {
    let draw = mix(seed ^ worker.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ trips.rotate_left(17));
    COOLDOWN_BASE + draw % (COOLDOWN_JITTER + 1)
}

/// The breaker's observable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerState {
    /// Healthy; `streak` consecutive failures so far.
    Closed {
        /// Consecutive failures recorded without an intervening success.
        streak: u32,
    },
    /// Quarantined until the logical clock reaches `until`.
    Open {
        /// First tick at which a half-open probe is allowed.
        until: u64,
    },
    /// Cooldown elapsed; the next assignment is the probe.
    HalfOpen,
}

/// What [`CircuitBreaker::on_failure`] reports back, so the caller can
/// emit the matching events exactly once per transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureVerdict {
    /// `Some(cooldown)` when this failure tripped the breaker open.
    pub tripped: Option<u64>,
    /// True when the failure was a half-open probe (the quarantine
    /// re-opened rather than opened).
    pub was_probe: bool,
}

/// One worker's circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CircuitBreaker {
    state: BreakerState,
    trips: u64,
}

impl Default for CircuitBreaker {
    fn default() -> Self {
        CircuitBreaker::new()
    }
}

impl CircuitBreaker {
    /// A closed breaker with no failure history.
    pub fn new() -> Self {
        CircuitBreaker {
            state: BreakerState::Closed { streak: 0 },
            trips: 0,
        }
    }

    /// The current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Times this breaker has opened.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// True when the worker may be assigned work at `tick`. An expired
    /// quarantine transitions to [`BreakerState::HalfOpen`] here, so the
    /// assignment this admits is the probe.
    pub fn admits(&mut self, tick: u64) -> bool {
        match self.state {
            BreakerState::Closed { .. } | BreakerState::HalfOpen => true,
            BreakerState::Open { until } if tick >= until => {
                self.state = BreakerState::HalfOpen;
                true
            }
            BreakerState::Open { .. } => false,
        }
    }

    /// Like [`admits`](CircuitBreaker::admits) but without the half-open
    /// transition — for counting healthy workers without spending probes.
    pub fn would_admit(&self, tick: u64) -> bool {
        match self.state {
            BreakerState::Closed { .. } | BreakerState::HalfOpen => true,
            BreakerState::Open { until } => tick >= until,
        }
    }

    /// Records a usable judgment. Returns true when this closed a
    /// half-open probe (the worker recovered).
    pub fn on_success(&mut self) -> bool {
        let recovered = matches!(self.state, BreakerState::HalfOpen);
        self.state = BreakerState::Closed { streak: 0 };
        recovered
    }

    /// Records a failed judgment (abandonment, no-answer, or timeout) at
    /// `tick` under `policy`, with the quarantine jitter drawn from
    /// `(seed, worker)`.
    pub fn on_failure(
        &mut self,
        tick: u64,
        policy: &BreakerPolicy,
        seed: u64,
        worker: u64,
    ) -> FailureVerdict {
        if !policy.enabled {
            return FailureVerdict {
                tripped: None,
                was_probe: false,
            };
        }
        match self.state {
            BreakerState::Closed { streak } => {
                let streak = streak + 1;
                if streak >= TRIP_THRESHOLD {
                    let cooldown = self.trip(tick, seed, worker);
                    FailureVerdict {
                        tripped: Some(cooldown),
                        was_probe: false,
                    }
                } else {
                    self.state = BreakerState::Closed { streak };
                    FailureVerdict {
                        tripped: None,
                        was_probe: false,
                    }
                }
            }
            BreakerState::HalfOpen => {
                let cooldown = self.trip(tick, seed, worker);
                FailureVerdict {
                    tripped: Some(cooldown),
                    was_probe: true,
                }
            }
            // A quarantined worker is never assigned work; a failure
            // reaching an open breaker is a caller bug, tolerated as a
            // no-op rather than a panic.
            BreakerState::Open { .. } => FailureVerdict {
                tripped: None,
                was_probe: false,
            },
        }
    }

    fn trip(&mut self, tick: u64, seed: u64, worker: u64) -> u64 {
        self.trips += 1;
        let cooldown = cooldown(seed, worker, self.trips);
        self.state = BreakerState::Open {
            until: tick.saturating_add(cooldown),
        };
        cooldown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ON: BreakerPolicy = BreakerPolicy { enabled: true };

    fn fail(b: &mut CircuitBreaker, tick: u64) -> FailureVerdict {
        b.on_failure(tick, &ON, 7, 0)
    }

    /// Fails a closed breaker until it trips, returning the cooldown.
    fn trip(b: &mut CircuitBreaker, tick: u64) -> u64 {
        for _ in 1..TRIP_THRESHOLD {
            assert!(fail(b, tick).tripped.is_none());
        }
        fail(b, tick)
            .tripped
            .expect("the threshold-th failure trips")
    }

    #[test]
    fn full_cycle_closed_open_halfopen_closed() {
        let mut b = CircuitBreaker::new();
        let until = trip(&mut b, 0);
        assert_eq!(until, cooldown(7, 0, 1));
        assert_eq!(b.state(), BreakerState::Open { until });
        assert!(!b.admits(until - 1), "still quarantined");
        assert!(b.admits(until), "cooldown elapsed: probe allowed");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.on_success(), "probe success reports recovery");
        assert_eq!(b.state(), BreakerState::Closed { streak: 0 });
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn failed_probe_reopens() {
        let mut b = CircuitBreaker::new();
        let first = trip(&mut b, 0);
        assert!(b.admits(first));
        let verdict = fail(&mut b, first);
        assert!(verdict.was_probe);
        let second = cooldown(7, 0, 2);
        assert_eq!(verdict.tripped, Some(second));
        assert_eq!(
            b.state(),
            BreakerState::Open {
                until: first + second
            }
        );
        assert_eq!(b.trips(), 2);
    }

    #[test]
    fn success_resets_the_streak() {
        let mut b = CircuitBreaker::new();
        for _ in 1..TRIP_THRESHOLD {
            fail(&mut b, 0);
        }
        assert!(!b.on_success(), "a closed success is not a recovery");
        for _ in 1..TRIP_THRESHOLD {
            fail(&mut b, 0);
        }
        assert_eq!(
            b.state(),
            BreakerState::Closed {
                streak: TRIP_THRESHOLD - 1
            },
            "streak restarted after the success"
        );
    }

    #[test]
    fn disabled_policy_never_trips() {
        let policy = BreakerPolicy::disabled();
        let mut b = CircuitBreaker::new();
        for _ in 0..1_000 {
            assert!(b.on_failure(0, &policy, 7, 0).tripped.is_none());
        }
        assert_eq!(b.state(), BreakerState::Closed { streak: 0 });
        assert!(b.admits(0));
        assert_eq!(b.trips(), 0);
    }

    #[test]
    fn cooldown_jitter_is_seeded_and_bounded() {
        let mut seen = std::collections::HashSet::new();
        for worker in 0..64u64 {
            let c = cooldown(11, worker, 1);
            assert!(
                (COOLDOWN_BASE..=COOLDOWN_BASE + COOLDOWN_JITTER).contains(&c),
                "cooldown {c} out of range"
            );
            seen.insert(c);
            assert_eq!(c, cooldown(11, worker, 1), "deterministic");
        }
        assert!(seen.len() > 1, "jitter must actually vary");
    }

    #[test]
    fn would_admit_does_not_spend_the_probe() {
        let mut b = CircuitBreaker::new();
        let until = trip(&mut b, 0);
        assert!(b.would_admit(until));
        assert!(
            matches!(b.state(), BreakerState::Open { .. }),
            "read-only check must not transition to half-open"
        );
    }
}
