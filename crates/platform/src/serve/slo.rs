//! Per-tenant SLO monitoring on the service's logical clock.
//!
//! A tenant's objective is a statement about *completions*: within any
//! sliding window of [`WINDOW_TICKS`] ticks, at most
//! [`SloPolicy::bad_budget_bps`] (in basis points) of the jobs that
//! completed may be **bad** — degraded, or slower than
//! [`SloPolicy::latency_objective_ticks`]. The monitor tracks each
//! tenant's window, flips between healthy and breached with hysteresis-free
//! edge detection (one event per transition), and keeps cumulative burn
//! counters for the run report.
//!
//! Everything is a pure function of the logical clock and the completion
//! stream, so breach/recovery events land at identical ticks in reruns,
//! at any `--jobs`, and across kill+resume.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Sliding-window length, in ticks. A completion at tick `t` leaves the
/// window once the clock passes `t + WINDOW_TICKS`.
pub const WINDOW_TICKS: u64 = 64;

/// Completions the window must hold before a breach can be declared — one
/// bad job out of one is not a trend.
pub const MIN_SAMPLES: u64 = 4;

/// A tenant service-level objective over completed jobs, judged over a
/// [`WINDOW_TICKS`] window once it holds [`MIN_SAMPLES`] completions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SloPolicy {
    /// Latency objective: a completion slower than this (in ticks,
    /// submission to completion) counts against the error budget.
    pub latency_objective_ticks: u64,
    /// Error budget: bad completions allowed per window, in basis points
    /// of the window's completions (10_000 = all of them).
    pub bad_budget_bps: u32,
}

impl SloPolicy {
    /// The default posture experiments run with: a 64-tick window, a
    /// 32-tick latency objective, a 10% error budget, and at least 4
    /// samples before judging.
    pub fn default_on() -> Self {
        SloPolicy {
            latency_objective_ticks: 32,
            bad_budget_bps: 1_000,
        }
    }

    /// Overrides the latency objective.
    pub fn with_latency_objective(mut self, ticks: u64) -> Self {
        self.latency_objective_ticks = ticks;
        self
    }

    /// Overrides the error budget, in basis points.
    pub fn with_bad_budget_bps(mut self, bps: u32) -> Self {
        self.bad_budget_bps = bps.min(10_000);
        self
    }
}

/// An SLO state transition the monitor detected this tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloTransition {
    /// Healthy → breached.
    Breached {
        /// Completions inside the window.
        window_jobs: u64,
        /// Bad completions inside the window.
        bad_jobs: u64,
        /// Bad rate over the window, in basis points.
        bad_bps: u32,
    },
    /// Breached → healthy.
    Recovered {
        /// Completions inside the window.
        window_jobs: u64,
        /// Bad rate over the window, in basis points.
        bad_bps: u32,
    },
}

/// One tenant's sliding-window SLO monitor.
#[derive(Debug, Clone, Default)]
pub struct SloMonitor {
    /// `(completion tick, was bad)` for completions still in the window.
    window: VecDeque<(u64, bool)>,
    /// Bad completions currently in the window (cached count).
    window_bad: u64,
    /// True while the objective is breached.
    breached: bool,
    /// Healthy→breached transitions, cumulative.
    breaches: u64,
    /// Bad completions, cumulative over the whole run.
    bad_total: u64,
    /// Completions, cumulative over the whole run.
    completions_total: u64,
    /// Worst window bad rate ever observed, in basis points.
    burn_max_bps: u32,
}

impl SloMonitor {
    /// A fresh, healthy monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completion. `bad` is decided by the caller against the
    /// policy (degraded, or over the latency objective).
    pub fn record(&mut self, tick: u64, bad: bool) {
        self.window.push_back((tick, bad));
        self.window_bad += u64::from(bad);
        self.completions_total += 1;
        self.bad_total += u64::from(bad);
    }

    /// Ages out expired completions and re-judges the window at `tick`,
    /// returning a transition when the healthy/breached state flipped.
    /// Call once per tick — recovery can happen on quiet ticks purely by
    /// bad completions aging out.
    pub fn evaluate(&mut self, tick: u64, policy: &SloPolicy) -> Option<SloTransition> {
        while let Some((t, bad)) = self.window.front().copied() {
            if t + WINDOW_TICKS > tick {
                break;
            }
            self.window.pop_front();
            self.window_bad -= u64::from(bad);
        }
        let window_jobs = self.window.len() as u64;
        let bad_bps = (self.window_bad * 10_000)
            .checked_div(window_jobs)
            .unwrap_or(0) as u32;
        self.burn_max_bps = self.burn_max_bps.max(bad_bps);
        let over = window_jobs >= MIN_SAMPLES && bad_bps > policy.bad_budget_bps;
        match (self.breached, over) {
            (false, true) => {
                self.breached = true;
                self.breaches += 1;
                Some(SloTransition::Breached {
                    window_jobs,
                    bad_jobs: self.window_bad,
                    bad_bps,
                })
            }
            (true, false) => {
                self.breached = false;
                Some(SloTransition::Recovered {
                    window_jobs,
                    bad_bps,
                })
            }
            _ => None,
        }
    }

    /// True while the objective is breached.
    pub fn breached(&self) -> bool {
        self.breached
    }

    /// Healthy→breached transitions so far.
    pub fn breaches(&self) -> u64 {
        self.breaches
    }

    /// Bad completions over the whole run.
    pub fn bad_total(&self) -> u64 {
        self.bad_total
    }

    /// Completions over the whole run.
    pub fn completions_total(&self) -> u64 {
        self.completions_total
    }

    /// Worst window bad rate ever observed, in basis points.
    pub fn burn_max_bps(&self) -> u32 {
        self.burn_max_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> SloPolicy {
        SloPolicy::default_on().with_bad_budget_bps(2_500)
    }

    #[test]
    fn breach_needs_min_samples() {
        let p = policy();
        let mut m = SloMonitor::new();
        m.record(0, true);
        assert_eq!(m.evaluate(0, &p), None, "1 of 1 bad, but below min_samples");
        m.record(1, true);
        m.record(1, false);
        m.record(2, false);
        let t = m.evaluate(2, &p).expect("4 samples, 50% > 25% budget");
        assert_eq!(
            t,
            SloTransition::Breached {
                window_jobs: 4,
                bad_jobs: 2,
                bad_bps: 5_000,
            }
        );
        assert!(m.breached());
        assert_eq!(m.breaches(), 1);
        // Still over budget: no duplicate event.
        assert_eq!(m.evaluate(3, &p), None);
    }

    #[test]
    fn recovery_happens_by_aging_out_on_quiet_ticks() {
        let p = policy();
        let mut m = SloMonitor::new();
        for i in 0..4 {
            m.record(0, i < 2);
        }
        assert!(matches!(
            m.evaluate(0, &p),
            Some(SloTransition::Breached { .. })
        ));
        // Nothing completes afterwards; at tick `WINDOW_TICKS` the window
        // empties.
        assert_eq!(
            m.evaluate(WINDOW_TICKS - 1, &p),
            None,
            "window still holds the bad jobs"
        );
        let t = m.evaluate(WINDOW_TICKS, &p).expect("window aged out");
        assert_eq!(
            t,
            SloTransition::Recovered {
                window_jobs: 0,
                bad_bps: 0,
            }
        );
        assert!(!m.breached());
        assert_eq!(m.breaches(), 1, "cumulative count survives recovery");
    }

    #[test]
    fn burn_tracking_is_cumulative_and_high_watermark() {
        let p = policy();
        let mut m = SloMonitor::new();
        for i in 0..4 {
            m.record(i, i == 0);
        }
        m.evaluate(3, &p);
        assert_eq!(m.burn_max_bps(), 2_500);
        assert_eq!(m.bad_total(), 1);
        assert_eq!(m.completions_total(), 4);
        for i in 4..8 {
            m.record(i, true);
        }
        m.evaluate(7, &p);
        assert_eq!(m.burn_max_bps(), 6_250, "5 bad of 8 in window");
    }

    #[test]
    fn evaluation_is_deterministic_under_replay() {
        // The same completion stream evaluated twice produces the same
        // transition sequence — the property resume relies on.
        let p = policy();
        let drive = || {
            let mut m = SloMonitor::new();
            let mut transitions = Vec::new();
            for tick in 0..4 * WINDOW_TICKS {
                if tick % 3 == 0 {
                    m.record(tick, tick % 6 == 0);
                }
                if let Some(t) = m.evaluate(tick, &p) {
                    transitions.push((tick, t));
                }
            }
            (transitions, m.breaches(), m.burn_max_bps())
        };
        assert_eq!(drive(), drive());
    }
}
