//! One max-finding job inside the service: a two-phase single-elimination
//! tournament expressed as an explicit state machine the scheduler can
//! interleave with other jobs, pair by pair.
//!
//! Phase 1 (the paper's naïve filter) plays knockout rounds on the cheap
//! crowd until at most `finalists` candidates remain; Phase 2 hands the
//! finalists to the expert shard. Each phase advances one *pair outcome*
//! at a time through [`ActiveJob::feed`], so the deficit-round-robin
//! dispatcher can give a slice of a round to one job, move on, and come
//! back — no job ever holds a shard hostage for a whole round.

use crate::serve::tenant::TenantId;
use crowd_core::element::ElementId;
use crowd_core::model::WorkerClass;
use crowd_core::trace::DegradedReason;
use crowd_obs::{Stage, StageAccum};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// Identifier the service assigns to every submission (shed ones
/// included, so arrival streams replay identically).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "j{}", self.0)
    }
}

/// A submitted max-finding job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// The tenant paying for the job.
    pub tenant: TenantId,
    /// The hidden values; the service sorts for `argmax`.
    pub values: Vec<f64>,
    /// Judgments per Phase-1 comparison.
    pub votes: u32,
    /// Judgments per Phase-2 (expert) comparison.
    pub expert_votes: u32,
    /// Ticks after admission before the job is force-completed
    /// degraded ([`DegradedReason::DeadlineLapsed`]).
    pub deadline_ticks: u64,
}

impl JobSpec {
    /// Worst-case comparisons the job can charge: a knockout tournament
    /// over `n` elements plays exactly `n − 1` pairs across both phases,
    /// each pair costs at most the largest vote requirement, and every
    /// vote may burn its full retry allowance. Admission reserves this.
    pub fn worst_cost(&self, fallback_votes: u32, max_retries: u32) -> u64 {
        let pairs = (self.values.len() as u64).saturating_sub(1);
        let votes = self.votes.max(self.expert_votes).max(fallback_votes) as u64;
        pairs * votes * (1 + max_retries as u64)
    }
}

/// Which stage of the two-phase protocol a job is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobPhase {
    /// Phase 1: knockout rounds on the naïve crowd.
    Filter,
    /// Phase 2: expert verification of the finalists.
    Expert,
    /// Finished; [`ActiveJob::winner`] is set.
    Done,
}

/// A job admitted into the service, mid-tournament.
#[derive(Debug, Clone)]
pub struct ActiveJob {
    /// The service-assigned id.
    pub id: JobId,
    /// The owning tenant.
    pub tenant: TenantId,
    /// The hidden values, indexed by `ElementId`.
    pub values: Vec<f64>,
    /// Judgments per Phase-1 pair.
    pub votes: u32,
    /// Judgments per Phase-2 pair.
    pub expert_votes: u32,
    /// Vote boost applied when the expert phase falls back to the crowd.
    pub fallback_votes: u32,
    /// Absolute tick the deadline lapses at.
    pub deadline: u64,
    /// Tokens reserved from the tenant bucket at admission.
    pub reserved: u64,
    /// Comparisons actually charged so far (usable + late answers).
    pub charged: u64,
    /// Worst-case cost of pairs already dispatched — the dispatch gate
    /// that keeps `charged ≤ reserved` provable.
    pub committed: u64,
    /// Tick the job was submitted.
    pub submitted: u64,
    /// Tick the job was admitted (equals `submitted` unless it queued).
    pub admitted: u64,
    /// Deficit-round-robin credit, in judgments.
    pub deficit: u64,
    /// Set when the dispatch gate found the reservation too small to fund
    /// the next pair; the job force-completes at the end of the tick.
    pub budget_stalled: bool,
    /// The first degradation the job suffered, if any.
    pub degraded: Option<DegradedReason>,
    /// The winner, once [`JobPhase::Done`].
    pub winner: Option<ElementId>,
    /// Per-stage tick attribution: the service records exactly one stage
    /// per tick the job stays alive, so the accumulated ticks partition
    /// the job's post-admission latency.
    pub stages: StageAccum,
    /// What the current tick did for the job, until the service records
    /// the tick's stage.
    pub(crate) marks: TickMarks,
    /// The owning tenant's position in the service's tenant table.
    pub(crate) tenant_slot: usize,
    phase: JobPhase,
    finalists: usize,
    pending: VecDeque<ElementId>,
    /// Survivors of the current round. Sized at admission for the first
    /// round's survivors; each round roll swaps it with the drained
    /// `pending`, so later rounds reuse the two buffers.
    next_round: VecDeque<ElementId>,
    in_flight: u32,
}

/// The facts one tick established about a job, set by dispatch and
/// execution and turned into the tick's [`Stage`] by
/// [`take_stage`](TickMarks::take_stage).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TickMarks {
    /// A pair ran on a shard.
    pub(crate) executed: bool,
    /// An executed pair needed re-assignments or dead-lettered.
    pub(crate) retried: bool,
    /// The judgment cache resolved a pair.
    pub(crate) cache_hit: bool,
    /// Dispatch stalled with every worker of the needed class quarantined.
    pub(crate) quarantined: bool,
}

impl TickMarks {
    /// The stage the tick is charged to, clearing the marks for the next
    /// tick. Execution facts beat cache hits beat quarantine stalls; a
    /// tick with none of those is dispatch wait (deficit, window
    /// backpressure, or reservation gates).
    pub(crate) fn take_stage(&mut self) -> Stage {
        let stage = if self.executed && self.retried {
            Stage::Retry
        } else if self.executed {
            Stage::ShardExec
        } else if self.cache_hit {
            Stage::CacheLookup
        } else if self.quarantined {
            Stage::BreakerQuarantine
        } else {
            Stage::DispatchWait
        };
        *self = TickMarks::default();
        stage
    }
}

impl ActiveJob {
    /// Builds the tournament over `spec`, admitted at `admitted` with
    /// `reserved` tokens. `finalists` is the Phase-1 survivor target.
    pub fn new(
        id: JobId,
        spec: JobSpec,
        submitted: u64,
        admitted: u64,
        reserved: u64,
        finalists: usize,
        fallback_votes: u32,
    ) -> Self {
        let n = spec.values.len();
        let mut job = ActiveJob {
            id,
            tenant: spec.tenant,
            values: spec.values,
            votes: spec.votes.max(1),
            expert_votes: spec.expert_votes.max(1),
            fallback_votes: fallback_votes.max(1),
            deadline: admitted.saturating_add(spec.deadline_ticks),
            reserved,
            charged: 0,
            committed: 0,
            submitted,
            admitted,
            deficit: 0,
            budget_stalled: false,
            degraded: None,
            winner: None,
            stages: StageAccum::new(),
            marks: TickMarks::default(),
            tenant_slot: 0,
            phase: JobPhase::Filter,
            finalists: finalists.max(2),
            pending: (0..n as u32).map(ElementId).collect(),
            next_round: VecDeque::with_capacity(n / 2 + 1),
            in_flight: 0,
        };
        if n <= job.finalists {
            job.phase = JobPhase::Expert;
        }
        if n == 1 {
            job.winner = Some(ElementId(0));
            job.phase = JobPhase::Done;
        }
        job
    }

    /// The current phase.
    pub fn phase(&self) -> JobPhase {
        self.phase
    }

    /// True once the job has a winner.
    pub fn is_done(&self) -> bool {
        matches!(self.phase, JobPhase::Done)
    }

    /// Candidates still alive (current round plus already-advanced).
    pub fn survivors(&self) -> usize {
        self.pending.len() + self.next_round.len() + self.in_flight as usize
    }

    /// The worker class and vote count the job's next pair needs. Expert
    /// pairs degrade to vote-boosted crowd pairs once the job is marked
    /// [`DegradedReason::ExpertExhausted`].
    pub fn class_and_votes(&self) -> (WorkerClass, u32) {
        match self.phase {
            JobPhase::Filter => (WorkerClass::Naive, self.votes),
            JobPhase::Expert | JobPhase::Done => {
                if self.degraded == Some(DegradedReason::ExpertExhausted) {
                    (WorkerClass::Naive, self.fallback_votes)
                } else {
                    (WorkerClass::Expert, self.expert_votes)
                }
            }
        }
    }

    /// True when the job has a pair ready to dispatch right now.
    pub fn has_ready_pair(&self) -> bool {
        self.pending.len() >= 2
    }

    /// The comparison [`next_pair`](Self::next_pair) would return,
    /// without committing it — what the dispatcher shows the judgment
    /// cache before deciding whether the pair needs a shard at all.
    pub fn peek_pair(&self) -> Option<(ElementId, ElementId)> {
        if self.pending.len() < 2 {
            return None;
        }
        Some((self.pending[0], self.pending[1]))
    }

    /// Pops the next comparison of the current round, marking it in
    /// flight. Returns `None` when the round is exhausted (in-flight
    /// outcomes must land before the next round forms).
    pub fn next_pair(&mut self) -> Option<(ElementId, ElementId)> {
        if self.pending.len() < 2 {
            return None;
        }
        let k = self.pending.pop_front().expect("len checked");
        let j = self.pending.pop_front().expect("len checked");
        self.in_flight += 1;
        Some((k, j))
    }

    /// Marks the job degraded (first reason wins; later reasons are not
    /// an upgrade, the contract only promises the *first* cause).
    pub fn mark_degraded(&mut self, reason: DegradedReason) {
        if self.degraded.is_none() {
            self.degraded = Some(reason);
        }
    }

    /// Applies one pair outcome. A dead-lettered pair (`winner` = `None`)
    /// advances the lexicographically lower element and marks the job
    /// degraded — deterministic, explicit, never a hang.
    pub fn feed(&mut self, pair: (ElementId, ElementId), winner: Option<ElementId>) {
        debug_assert!(self.in_flight > 0, "feed without a dispatched pair");
        self.in_flight = self.in_flight.saturating_sub(1);
        let advanced = match winner {
            Some(w) => w,
            None => {
                self.mark_degraded(DegradedReason::DeadLetters);
                pair.0.min(pair.1)
            }
        };
        self.next_round.push_back(advanced);
        self.maybe_roll();
    }

    /// Completes the job immediately with the current leader — the
    /// deadline / budget-stall path. Only call between rounds (no pair in
    /// flight), which tick boundaries guarantee.
    pub fn force_finish(&mut self, reason: DegradedReason) {
        if self.is_done() {
            return;
        }
        self.mark_degraded(reason);
        self.winner = Some(self.leader());
        self.phase = JobPhase::Done;
    }

    /// The best current guess at the winner: the earliest survivor of the
    /// most recent completed comparisons, falling back to the round queue.
    fn leader(&self) -> ElementId {
        self.next_round
            .front()
            .copied()
            .or_else(|| self.pending.front().copied())
            .unwrap_or(ElementId(0))
    }

    /// Rolls the round when every pair of the current one has resolved:
    /// byes advance, a lone survivor wins, and a Phase-1 round that
    /// reaches the finalist target hands over to Phase 2.
    fn maybe_roll(&mut self) {
        if self.in_flight > 0 || self.pending.len() >= 2 || self.is_done() {
            return;
        }
        if let Some(bye) = self.pending.pop_front() {
            self.next_round.push_back(bye);
        }
        match self.next_round.len() {
            0 => {
                // Unreachable for non-empty catalogs; finish defensively
                // rather than loop forever.
                self.winner = Some(ElementId(0));
                self.phase = JobPhase::Done;
            }
            1 => {
                self.winner = Some(self.next_round[0]);
                self.phase = JobPhase::Done;
            }
            survivors => {
                if matches!(self.phase, JobPhase::Filter) && survivors <= self.finalists {
                    self.phase = JobPhase::Expert;
                }
                std::mem::swap(&mut self.pending, &mut self.next_round);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(n: usize) -> JobSpec {
        JobSpec {
            tenant: TenantId(0),
            values: (0..n).map(|i| i as f64).collect(),
            votes: 1,
            expert_votes: 1,
            deadline_ticks: 100,
        }
    }

    fn job(n: usize) -> ActiveJob {
        ActiveJob::new(JobId(0), spec(n), 0, 0, u64::MAX, 2, 3)
    }

    /// Drives a job to completion feeding the true comparison outcome.
    fn run_honest(mut job: ActiveJob) -> (ElementId, u64, bool) {
        let mut pairs = 0u64;
        let mut saw_expert = false;
        while !job.is_done() {
            let (class, _) = job.class_and_votes();
            saw_expert |= class == WorkerClass::Expert;
            let (k, j) = job.next_pair().expect("active job must make progress");
            pairs += 1;
            let w = if job.values[k.0 as usize] >= job.values[j.0 as usize] {
                k
            } else {
                j
            };
            job.feed((k, j), Some(w));
        }
        (job.winner.unwrap(), pairs, saw_expert)
    }

    #[test]
    fn tournament_finds_the_max_and_plays_n_minus_1_pairs() {
        for n in 2..40 {
            let (winner, pairs, saw_expert) = run_honest(job(n));
            assert_eq!(winner, ElementId(n as u32 - 1), "n={n}");
            assert_eq!(pairs, n as u64 - 1, "knockout plays n-1 pairs, n={n}");
            assert!(saw_expert, "finalists must reach the expert phase, n={n}");
        }
    }

    #[test]
    fn singleton_job_is_born_done() {
        let j = job(1);
        assert!(j.is_done());
        assert_eq!(j.winner, Some(ElementId(0)));
    }

    #[test]
    fn worst_cost_covers_retries_and_boosts() {
        let s = spec(10);
        // 9 pairs × max(1,1,3) votes × (1+2) attempts.
        assert_eq!(s.worst_cost(3, 2), 9 * 3 * 3);
        assert_eq!(spec(1).worst_cost(3, 2), 0, "singletons compare nothing");
    }

    #[test]
    fn dead_pair_advances_lower_element_and_degrades() {
        let mut j = job(4);
        let (k, a) = j.next_pair().unwrap();
        j.feed((k, a), None);
        assert_eq!(j.degraded, Some(DegradedReason::DeadLetters));
        let (winner, _, _) = run_honest(j);
        // Element 3 is still alive in the other bracket and must win.
        assert_eq!(winner, ElementId(3));
    }

    #[test]
    fn force_finish_is_deterministic_and_sticky() {
        let mut j = job(8);
        let (k, a) = j.next_pair().unwrap();
        j.feed((k, a), Some(a));
        j.force_finish(DegradedReason::DeadlineLapsed);
        assert!(j.is_done());
        assert_eq!(j.degraded, Some(DegradedReason::DeadlineLapsed));
        assert_eq!(j.winner, Some(a), "leader = first advanced element");
        // A second degradation does not overwrite the first.
        j.mark_degraded(DegradedReason::BudgetExhausted);
        assert_eq!(j.degraded, Some(DegradedReason::DeadlineLapsed));
    }

    #[test]
    fn expert_exhaustion_reroutes_to_boosted_crowd() {
        let mut j = job(2);
        assert_eq!(j.phase(), JobPhase::Expert, "2 ≤ finalists skips Phase 1");
        assert_eq!(j.class_and_votes(), (WorkerClass::Expert, 1));
        j.mark_degraded(DegradedReason::ExpertExhausted);
        assert_eq!(j.class_and_votes(), (WorkerClass::Naive, 3));
    }

    #[test]
    fn rounds_wait_for_in_flight_pairs() {
        let mut j = job(4);
        let p1 = j.next_pair().unwrap();
        let p2 = j.next_pair().unwrap();
        assert!(j.next_pair().is_none(), "round exhausted");
        j.feed(p1, Some(p1.0));
        assert!(
            j.next_pair().is_none(),
            "next round must not form while a pair is in flight"
        );
        j.feed(p2, Some(p2.1));
        assert!(j.has_ready_pair(), "final round ready");
    }
}
