//! Worker shards: the execution units the service dispatches pairs onto.
//!
//! A shard is a small homogeneous worker pool (one [`WorkerClass`]) with
//! its own fault plan, per-worker circuit breakers, and a bounded
//! per-tick in-flight window. Dispatch routes around shards with no
//! healthy workers; inside a shard, [`WorkerShard::execute_pair`] runs
//! one comparison to completion — collecting the requested votes,
//! retrying faults on fresh workers, and reporting a typed
//! [`DeadLetterReason`] instead of hanging when the pool cannot deliver.
//!
//! Determinism: worker choice is a rotation scan over breaker state (all
//! integer state), judgment fates come from the stateless [`FaultPlan`],
//! and each usable judgment draws from a fresh `StdRng` seeded by
//! `mix(shard seed, worker, sequence)` — no shared RNG stream exists, so
//! outcomes are independent of job interleaving and thread count.
//!
//! The platform's executor ([`Platform`](crate::Platform)) shares the parts
//! of a judgment that do not differ: the votes go through
//! [`crowd_core::oracle::majority`] (ties to the lower id) and
//! every fault through the crate's one fault report (`report_fault`). The
//! loop itself stays separate: how a worker is picked, the retry budget,
//! the starvation reason, timed-out answers and the judge RNG all differ,
//! and each difference shows in the output bytes.

use crate::fault::{mix, report_fault, FateKeys, FaultConfig, FaultPlan, JudgeFate};
use crate::serve::breaker::{BreakerPolicy, CircuitBreaker};
use crate::worker::{Behavior, Worker, WorkerId, WorkerProfile};
use crowd_core::element::{ElementId, Value};
use crowd_core::model::{TiePolicy, WorkerClass};
use crowd_core::oracle::{majority, ComparisonCounts};
use crowd_core::trace::{DeadLetterReason, FaultCounts, FaultKind};
use crowd_obs::{emit, names, series, CounterId, Event};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// The tie policy every shard worker judges under. The judgment cache
/// keys verdicts on it: if shards ever gain per-spec tie policies, the
/// cache key must pick up the spec's policy instead of this constant.
pub const SHARD_TIE_POLICY: TiePolicy = TiePolicy::UniformRandom;

/// Static description of one shard, part of the service config digest.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// The worker class every member of the shard belongs to.
    pub class: WorkerClass,
    /// Workers hired into the shard.
    pub workers: u32,
    /// Discernment threshold `δ` of the shard's threshold-model workers.
    pub delta: f64,
    /// Residual error probability `ε` of the shard's workers.
    pub epsilon: f64,
    /// Judgments the shard accepts per tick (backpressure bound; retries
    /// within an already-dispatched pair may overflow it).
    pub window: u32,
    /// The fault environment the shard's workers live in.
    pub fault: FaultConfig,
}

impl ShardSpec {
    /// A fault-free shard of `workers` honest `class` workers: `δ = 0`
    /// (only exact ties are indistinguishable) and `ε = 0` (no residual
    /// error), so every distinguishable pair is judged correctly.
    pub fn honest(class: WorkerClass, workers: u32, window: u32) -> Self {
        ShardSpec {
            class,
            workers,
            delta: 0.0,
            epsilon: 0.0,
            window,
            fault: FaultConfig::none(),
        }
    }

    /// Sets the fault environment.
    pub fn with_fault(mut self, fault: FaultConfig) -> Self {
        self.fault = fault;
        self
    }

    /// Sets the worker error model.
    pub fn with_model(mut self, delta: f64, epsilon: f64) -> Self {
        self.delta = delta;
        self.epsilon = epsilon;
        self
    }
}

/// The outcome of executing one pair on a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairOutcome {
    /// The majority winner (lower [`ElementId`] breaks ties). `None` only
    /// when not a single usable judgment arrived.
    pub winner: Option<ElementId>,
    /// Usable judgments collected — what the tenant is charged.
    pub answers: u32,
    /// Judgment assignments made, including faulted ones.
    pub attempts: u32,
    /// `Some` when the shard could not collect the full vote count.
    pub dead: Option<DeadLetterReason>,
}

/// A live shard: workers, breakers, fault plan, and dispatch window.
#[derive(Debug, Clone)]
pub struct WorkerShard {
    id: u32,
    spec: ShardSpec,
    workers: Vec<Worker>,
    breakers: Vec<CircuitBreaker>,
    fault: FaultPlan,
    /// Each worker's fate keys on `fault`, by worker index.
    fate_keys: Vec<FateKeys>,
    judge_seed: u64,
    seq: u64,
    rotation: usize,
    used: u32,
    trips: u64,
    /// Usable judgments collected, by class.
    judged: ComparisonCounts,
    /// Faults observed on the shard's judgments, by class and kind.
    faults: FaultCounts,
    /// Per-pair distinct-workers marks, reused across pairs.
    tried: Vec<bool>,
    /// Per-pair usable latencies, flushed to their histogram once per
    /// pair; reused across pairs.
    latencies: Vec<u64>,
    /// `crowd_serve_breaker_trips_total{shard}` for this shard.
    trips_total: CounterId,
}

impl WorkerShard {
    /// Hires `spec.workers` honest threshold-model workers into shard
    /// `id`, faulted and judged under streams derived from `seed`.
    pub fn new(id: u32, spec: ShardSpec, seed: u64) -> Self {
        let shard_salt = mix(seed ^ u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let workers = (0..spec.workers)
            .map(|w| {
                Worker::new(WorkerProfile {
                    id: WorkerId(w),
                    class: spec.class,
                    channel: format!("serve-s{id}"),
                    behavior: Behavior::Threshold {
                        delta: spec.delta,
                        epsilon: spec.epsilon,
                        tie: SHARD_TIE_POLICY,
                    },
                })
            })
            .collect();
        let fault = FaultPlan::new(spec.fault, mix(shard_salt ^ 0xFA));
        WorkerShard {
            id,
            spec,
            workers,
            breakers: vec![CircuitBreaker::new(); spec.workers as usize],
            fate_keys: (0..spec.workers)
                .map(|w| fault.fate_keys(WorkerId(w)))
                .collect(),
            fault,
            judge_seed: mix(shard_salt ^ 0x1D),
            seq: 0,
            rotation: 0,
            used: 0,
            trips: 0,
            judged: ComparisonCounts::zero(),
            faults: FaultCounts::zero(),
            tried: vec![false; spec.workers as usize],
            latencies: Vec::new(),
            trips_total: CounterId::new(
                names::SERVE_BREAKER_TRIPS_TOTAL,
                &[("shard", &format!("s{id}"))],
            ),
        }
    }

    /// The shard's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The shard's static spec.
    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// The shard's worker class.
    pub fn class(&self) -> WorkerClass {
        self.spec.class
    }

    /// Monotone count of judgment assignments the shard has made — part
    /// of the journal audit trail, so resume can cross-check replay.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Total breaker trips on this shard.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Usable judgments the shard has collected — the work tenants are
    /// charged for.
    pub fn judged(&self) -> ComparisonCounts {
        self.judged
    }

    /// Faults observed on the shard's judgment attempts.
    pub fn fault_counts(&self) -> FaultCounts {
        self.faults
    }

    /// Resets the per-tick dispatch window.
    pub fn begin_tick(&mut self) {
        self.used = 0;
    }

    /// Judgments still admissible this tick.
    pub fn remaining_window(&self) -> u32 {
        self.spec.window.saturating_sub(self.used)
    }

    /// Reserves `votes` of the tick window for a dispatched pair.
    pub fn reserve_window(&mut self, votes: u32) {
        self.used = self.used.saturating_add(votes);
    }

    /// Workers that have not dropped out and whose breakers would admit
    /// work at `tick` (read-only: no half-open probes are spent).
    pub fn healthy_workers(&self, tick: u64) -> usize {
        self.breakers
            .iter()
            .enumerate()
            .filter(|(w, b)| !self.fault.dropped_out(WorkerId(*w as u32)) && b.would_admit(tick))
            .count()
    }

    /// Picks the next admissible worker after the rotation cursor,
    /// skipping `tried` (the pair's distinct-workers invariant), dropouts,
    /// and quarantined workers. Skipping `tried` *before* consulting the
    /// breaker keeps half-open probes unspent on ineligible workers.
    fn pick_worker(&mut self, tick: u64, tried: &[bool]) -> Option<usize> {
        let n = self.workers.len();
        for step in 0..n {
            let w = (self.rotation + step) % n;
            if tried[w] || self.fault.dropped_out(WorkerId(w as u32)) {
                continue;
            }
            if self.breakers[w].admits(tick) {
                self.rotation = (w + 1) % n;
                return Some(w);
            }
        }
        None
    }

    /// Why no worker could be picked: untried workers exist but are all
    /// quarantined (`NoHealthyWorkers` — the quarantine storm) versus the
    /// fresh-worker supply itself ran dry (`NoFreshWorkers`).
    fn starvation_reason(&self, tried: &[bool]) -> DeadLetterReason {
        let untried_alive = (0..self.workers.len())
            .any(|w| !tried[w] && !self.fault.dropped_out(WorkerId(w as u32)));
        if untried_alive {
            DeadLetterReason::NoHealthyWorkers
        } else {
            DeadLetterReason::NoFreshWorkers
        }
    }

    /// Runs one comparison of `k` vs `j` to completion: collects `votes`
    /// usable judgments from distinct workers, retrying faults up to
    /// `votes × (1 + max_retries)` total assignments, and drives every
    /// breaker transition (with its events) on the way. The pair's usable
    /// latencies reach their histogram in one batch.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_pair(
        &mut self,
        tick: u64,
        k: ElementId,
        vk: Value,
        j: ElementId,
        vj: Value,
        votes: u32,
        max_retries: u32,
        breaker: &BreakerPolicy,
    ) -> PairOutcome {
        let class = self.spec.class;
        let budget = votes.saturating_mul(1 + max_retries).max(1);
        let timeout = self.spec.fault.timeout_steps;
        let mut tried = std::mem::take(&mut self.tried);
        tried.fill(false);
        let mut latencies = std::mem::take(&mut self.latencies);
        latencies.clear();
        let mut votes_k = 0u32;
        let mut votes_j = 0u32;
        let mut answers = 0u32;
        let mut attempts = 0u32;
        let mut dead = None;

        while answers < votes && attempts < budget {
            let Some(w) = self.pick_worker(tick, &tried) else {
                dead = Some(self.starvation_reason(&tried));
                break;
            };
            tried[w] = true;
            attempts += 1;
            self.seq += 1;
            let fate = self.fault.keyed_fate(&self.fate_keys[w], self.seq);
            let fault_kind = match fate {
                JudgeFate::Answer { latency } if latency <= timeout => {
                    answers += 1;
                    latencies.push(latency);
                    if self.breakers[w].on_success() {
                        emit(Event::BreakerProbed {
                            shard: self.id,
                            worker: w as u32,
                            recovered: true,
                        });
                    }
                    let mut rng = StdRng::seed_from_u64(mix(self.judge_seed
                        ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ self.seq.rotate_left(17)));
                    if self.workers[w].judge(k, vk, j, vj, &mut rng) == k {
                        votes_k += 1;
                    } else {
                        votes_j += 1;
                    }
                    continue;
                }
                JudgeFate::Answer { .. } => FaultKind::Timeout,
                JudgeFate::Abandon => FaultKind::Abandon,
                JudgeFate::NoAnswer => FaultKind::NoAnswer,
            };
            report_fault(&mut self.faults, class, fault_kind);
            let verdict = self.breakers[w].on_failure(tick, breaker, self.judge_seed, w as u64);
            if verdict.was_probe {
                emit(Event::BreakerProbed {
                    shard: self.id,
                    worker: w as u32,
                    recovered: false,
                });
            }
            if let Some(cooldown) = verdict.tripped {
                self.trips += 1;
                let streak = if verdict.was_probe {
                    1
                } else {
                    breaker.trip_threshold
                };
                emit(Event::BreakerTripped {
                    shard: self.id,
                    worker: w as u32,
                    streak,
                    cooldown_ticks: cooldown,
                });
                self.trips_total.add(1);
            }
        }

        self.tried = tried;
        self.judged.record_many(class, u64::from(answers));
        series::latency_steps(class).observe_each(&latencies);
        self.latencies = latencies;
        if answers < votes && dead.is_none() {
            dead = Some(DeadLetterReason::RetriesExhausted);
        }
        PairOutcome {
            winner: (answers > 0).then(|| majority(k, j, votes_k, votes_j)),
            answers,
            attempts,
            dead,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_obs::{install_recorder, Recorder, RecorderGuard};
    use std::sync::Arc;

    fn quiet() -> (Arc<Recorder>, RecorderGuard) {
        let rec = Arc::new(Recorder::new());
        let guard = install_recorder(rec.clone());
        (rec, guard)
    }

    fn honest_shard(workers: u32) -> WorkerShard {
        WorkerShard::new(0, ShardSpec::honest(WorkerClass::Naive, workers, 64), 42)
    }

    #[test]
    fn honest_shard_returns_the_true_winner() {
        let (_rec, _g) = quiet();
        let mut shard = honest_shard(8);
        let out = shard.execute_pair(
            0,
            ElementId(0),
            1.0,
            ElementId(1),
            9.0,
            3,
            2,
            &BreakerPolicy::default_on(),
        );
        assert_eq!(out.winner, Some(ElementId(1)));
        assert_eq!(out.answers, 3);
        assert_eq!(out.attempts, 3);
        assert_eq!(out.dead, None);
    }

    #[test]
    fn small_pool_dead_letters_no_fresh_workers() {
        let (_rec, _g) = quiet();
        let mut shard = honest_shard(2);
        let out = shard.execute_pair(
            0,
            ElementId(0),
            1.0,
            ElementId(1),
            9.0,
            3,
            2,
            &BreakerPolicy::default_on(),
        );
        // Two distinct workers can supply at most two of three votes.
        assert_eq!(out.answers, 2);
        assert_eq!(out.dead, Some(DeadLetterReason::NoFreshWorkers));
        assert_eq!(
            out.winner,
            Some(ElementId(1)),
            "partial majority still counts"
        );
    }

    #[test]
    fn quarantine_storm_dead_letters_no_healthy_workers() {
        let (_rec, _g) = quiet();
        let spec = ShardSpec::honest(WorkerClass::Naive, 3, 64)
            .with_fault(FaultConfig::none().with_no_answer(1.0));
        let mut shard = WorkerShard::new(0, spec, 7);
        let policy = BreakerPolicy::default_on()
            .with_trip_threshold(1)
            .with_cooldown(100, 0);
        // Every judgment faults, every failure trips: the first pair
        // quarantines the whole shard and dies RetriesExhausted or
        // starves; the second finds nobody healthy.
        let _ = shard.execute_pair(0, ElementId(0), 1.0, ElementId(1), 2.0, 3, 3, &policy);
        let out = shard.execute_pair(1, ElementId(0), 1.0, ElementId(1), 2.0, 3, 3, &policy);
        assert_eq!(out.answers, 0);
        assert_eq!(out.winner, None);
        assert_eq!(out.dead, Some(DeadLetterReason::NoHealthyWorkers));
        assert_eq!(shard.healthy_workers(1), 0);
        assert!(shard.trips() >= 3, "every worker tripped at least once");
    }

    #[test]
    fn faulty_judgments_are_retried_on_fresh_workers() {
        let (rec, _g) = quiet();
        let spec = ShardSpec::honest(WorkerClass::Naive, 16, 64)
            .with_fault(FaultConfig::none().with_no_answer(0.4));
        let mut shard = WorkerShard::new(0, spec, 9);
        let out = shard.execute_pair(
            0,
            ElementId(0),
            1.0,
            ElementId(1),
            9.0,
            3,
            3,
            &BreakerPolicy::disabled(),
        );
        assert_eq!(out.answers, 3);
        assert_eq!(out.winner, Some(ElementId(1)));
        assert!(out.attempts >= 3);
        let faults = rec
            .events()
            .iter()
            .filter(|e| matches!(e, Event::FaultObserved { .. }))
            .count();
        assert_eq!(faults as u32, out.attempts - out.answers);
        assert_eq!(shard.judged().naive, u64::from(out.answers));
        assert_eq!(shard.fault_counts().naive.no_answers, faults as u64);
    }

    #[test]
    fn execution_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let (_rec, _g) = quiet();
            let spec = ShardSpec::honest(WorkerClass::Naive, 8, 64)
                .with_model(0.5, 0.3)
                .with_fault(FaultConfig::none().with_no_answer(0.2));
            let mut shard = WorkerShard::new(3, spec, seed);
            (0..20)
                .map(|t| {
                    shard.execute_pair(
                        t,
                        ElementId(0),
                        1.0,
                        ElementId(1),
                        1.2,
                        3,
                        2,
                        &BreakerPolicy::default_on(),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "seed must matter");
    }

    #[test]
    fn tie_breaks_to_lower_element_id() {
        let (_rec, _g) = quiet();
        let mut shard = honest_shard(8);
        let policy = BreakerPolicy::disabled();
        // Equal values: distance 0 ≤ δ, so every vote is a coin flip. A
        // clone asked for one vote at a time casts the same two votes
        // (same workers at the same sequence numbers), which shows the
        // split behind each two-vote outcome.
        let pair = |shard: &mut WorkerShard, votes| {
            shard.execute_pair(0, ElementId(4), 5.0, ElementId(2), 5.0, votes, 0, &policy)
        };
        let mut splits = 0;
        for _ in 0..32 {
            let mut single = shard.clone();
            let first = pair(&mut single, 1).winner;
            let second = pair(&mut single, 1).winner;
            let out = pair(&mut shard, 2);
            assert_eq!(out.answers, 2);
            if first == second {
                assert_eq!(out.winner, first, "a 2–0 vote decides");
            } else {
                splits += 1;
                assert_eq!(
                    out.winner,
                    Some(ElementId(2)),
                    "a 1–1 split goes to the lower id"
                );
            }
        }
        assert!(
            splits > 0,
            "32 pairs of coin flips must split at least once"
        );
    }
}
