//! The platform facade: jobs in, quality-controlled answers out.
//!
//! [`Platform`] plays the role CrowdFlower plays in the paper's
//! experiments: it owns the workforce, schedules batches over logical and
//! physical steps, interleaves gold questions (15% by default), scores
//! worker trust, discards responses of workers below the 70% gold-accuracy
//! bar, pays per judgment, and aggregates the surviving judgments per unit
//! by majority vote.
//!
//! [`PlatformOracle`] adapts a platform to `crowd-core`'s
//! [`ComparisonOracle`], so the Section 4 algorithms can run unmodified on
//! top of the full simulator — this is how the paper's CrowdFlower
//! experiments (Tables 1–2, Section 5.3) are reproduced.

use crate::billing::Ledger;
use crate::fault::{report_fault, FateKeys, FaultConfig, FaultPlan, JudgeFate};
use crate::pool::WorkerPool;
use crate::quality::TrustTracker;
use crate::retry::{backoff, report_dead_letter, DeadLetter, DeadLetterReason, RetryPolicy};
use crate::scheduler::{reassign, schedule_into, ScheduleError};
use crate::task::{Unit, UnitId};
use crate::worker::WorkerId;
use crowd_core::cost::CostModel;
use crowd_core::element::{ElementId, Instance};
use crowd_core::model::WorkerClass;
use crowd_core::oracle::{majority, ComparisonCounts, ComparisonOracle, OracleError};
use crowd_core::trace::{FaultCounts, FaultKind};
use crowd_obs::{series, Event};
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

/// Errors the platform can report to a requester.
#[derive(Debug, Clone, PartialEq)]
pub enum PlatformError {
    /// The scheduler could not plan the job.
    Schedule(ScheduleError),
    /// Regular units collected zero usable judgments despite retries; the
    /// job's partial results are recorded on the platform.
    UnitsUnanswered {
        /// The units that got no answer.
        units: Vec<UnitId>,
        /// Attempts made per judgment slot (initial + retries).
        attempts: u32,
    },
}

impl From<ScheduleError> for PlatformError {
    fn from(err: ScheduleError) -> Self {
        PlatformError::Schedule(err)
    }
}

impl std::fmt::Display for PlatformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlatformError::Schedule(err) => write!(f, "scheduling failed: {err}"),
            PlatformError::UnitsUnanswered { units, attempts } => write!(
                f,
                "{} unit(s) unanswered after {attempts} attempts each",
                units.len()
            ),
        }
    }
}

impl std::error::Error for PlatformError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlatformError::Schedule(err) => Some(err),
            _ => None,
        }
    }
}

impl PlatformError {
    /// Maps the platform failure onto the oracle-level error vocabulary,
    /// for surfacing through [`ComparisonOracle::try_compare`]. `class` is
    /// the worker class the failing comparison was posted to.
    pub fn to_oracle_error(&self, class: WorkerClass) -> OracleError {
        match self {
            PlatformError::Schedule(err) => match err {
                ScheduleError::NoEligibleWorkers { class } => {
                    OracleError::WorkforceDepleted { class: *class }
                }
                ScheduleError::NotEnoughWorkersForUnit { .. }
                | ScheduleError::NoFreshWorkerForUnit { .. }
                | ScheduleError::EmptyPool => OracleError::WorkforceDepleted { class },
            },
            PlatformError::UnitsUnanswered { attempts, .. } => OracleError::Unanswered {
                attempts: *attempts,
            },
        }
    }
}

/// Judgments [`Platform::submit_comparisons`] collects per unit: the
/// paper drives its algorithms with single judgments. Only the expert
/// fallback ([`PlatformConfig::expert_fallback_votes`]) asks for more.
pub const JUDGMENTS_PER_UNIT: u32 = 1;

/// Platform-wide configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformConfig {
    /// Fraction of gold units injected into each job (paper: 15%).
    pub gold_fraction: f64,
    /// Per-judgment pay for each class.
    pub payment: CostModel,
    /// Fault-injection knobs. [`FaultConfig::none`] (the default) keeps
    /// the platform byte-identical to a build without the fault layer.
    pub faults: FaultConfig,
    /// Seed of the campaign's [`FaultPlan`] — independent of the
    /// platform RNG so fault decisions never perturb worker behaviour.
    pub fault_seed: u64,
    /// Recovery policy for failed judgments.
    pub retry: RetryPolicy,
    /// Expert-depletion fallback: when an expert job cannot be scheduled
    /// because no eligible expert remains, re-run it as a naïve job with
    /// this (odd) vote-boost factor on [`JUDGMENTS_PER_UNIT`], flagging
    /// the campaign degraded. `0` disables the fallback.
    pub expert_fallback_votes: u32,
}

impl PlatformConfig {
    /// The paper's CrowdFlower-like setup: 15% gold, no faults. Single
    /// judgments ([`JUDGMENTS_PER_UNIT`]) and the 70% trust rule
    /// ([`crate::quality::TRUST_THRESHOLD`]) are fixed.
    pub fn paper_default() -> Self {
        PlatformConfig {
            gold_fraction: 0.15,
            payment: CostModel::with_ratio(10.0),
            faults: FaultConfig::none(),
            fault_seed: 0,
            retry: RetryPolicy::paper_default(),
            expert_fallback_votes: 0,
        }
    }

    /// Sets the per-judgment payments.
    pub fn with_payment(mut self, payment: CostModel) -> Self {
        self.payment = payment;
        self
    }

    /// Disables gold injection (for controlled experiments).
    pub fn without_gold(mut self) -> Self {
        self.gold_fraction = 0.0;
        self
    }

    /// Sets the fault-injection knobs and the fault plan's seed.
    pub fn with_faults(mut self, faults: FaultConfig, seed: u64) -> Self {
        self.faults = faults;
        self.fault_seed = seed;
        self
    }

    /// Sets the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Enables the expert-depletion fallback with an odd vote-boost
    /// factor.
    ///
    /// # Panics
    ///
    /// Panics if `votes` is even (majority voting needs an odd count) or
    /// zero.
    pub fn with_expert_fallback(mut self, votes: u32) -> Self {
        assert!(
            votes % 2 == 1,
            "the vote-boost factor must be odd for clean majorities, got {votes}"
        );
        self.expert_fallback_votes = votes;
        self
    }
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig::paper_default()
    }
}

/// The simulated crowdsourcing platform.
#[derive(Debug)]
pub struct Platform<R: RngCore> {
    instance: Instance,
    pool: WorkerPool,
    config: PlatformConfig,
    trust: TrustTracker,
    ledger: Ledger,
    rng: R,
    gold_pairs: Vec<(ElementId, ElementId)>,
    physical_clock: u64,
    logical_steps: u64,
    counts: ComparisonCounts,
    next_unit: u32,
    /// Rotating dealing offset so consecutive jobs spread across the pool.
    rotation: usize,
    /// The campaign's fault plan (stateless; decisions are hashes).
    fault_plan: FaultPlan,
    /// Each worker's fate keys on the plan, by [`WorkerId::index`]. The
    /// pool is fixed at [`Platform::new`], so they are computed there.
    fate_keys: Vec<FateKeys>,
    /// Monotone per-campaign judgment-attempt counter feeding the plan.
    fault_seq: u64,
    /// Faults injected and recovery actions taken, by class.
    fault_counts: FaultCounts,
    /// Each worker's dropout verdict by [`WorkerId::index`], decided once
    /// from the fault plan the first time she would otherwise be eligible
    /// (which is when a dropout is counted); `None` until then.
    dropouts: Vec<Option<bool>>,
    /// Units the campaign had to give up on.
    dead_letters: Vec<DeadLetter>,
    /// True once any result was produced in degraded mode.
    degraded: bool,
    /// Buffers every job reuses from the last.
    scratch: JobScratch,
}

impl<R: RngCore> Platform<R> {
    /// Builds a platform over the ground-truth `instance` with the given
    /// workforce.
    pub fn new(instance: Instance, pool: WorkerPool, config: PlatformConfig, rng: R) -> Self {
        let fault_plan = FaultPlan::new(config.faults, config.fault_seed);
        let fate_keys = (0..pool.len())
            .map(|i| fault_plan.fate_keys(WorkerId(i as u32)))
            .collect();
        Platform {
            instance,
            pool,
            config,
            trust: TrustTracker::default(),
            ledger: Ledger::new(),
            rng,
            gold_pairs: Vec::new(),
            physical_clock: 0,
            logical_steps: 0,
            counts: ComparisonCounts::zero(),
            next_unit: 0,
            rotation: 0,
            fault_plan,
            fate_keys,
            fault_seq: 0,
            fault_counts: FaultCounts::zero(),
            dropouts: Vec::new(),
            dead_letters: Vec::new(),
            degraded: false,
            scratch: JobScratch::default(),
        }
    }

    /// Registers gold pairs: comparisons whose correct answer the requester
    /// knows (answers are derived from the instance's ground truth, which
    /// is exactly what makes them gold).
    ///
    /// # Panics
    ///
    /// Panics if a pair repeats an element.
    pub fn set_gold_pairs(&mut self, pairs: Vec<(ElementId, ElementId)>) {
        for &(k, j) in &pairs {
            assert_ne!(k, j, "a gold pair must compare distinct elements");
        }
        self.gold_pairs = pairs;
    }

    /// The ground-truth instance.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The payment ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The trust tracker.
    pub fn trust(&self) -> &TrustTracker {
        &self.trust
    }

    /// The worker pool.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Physical steps elapsed across all jobs.
    pub fn physical_clock(&self) -> u64 {
        self.physical_clock
    }

    /// Logical steps (jobs) executed.
    pub fn logical_steps(&self) -> u64 {
        self.logical_steps
    }

    /// Total worker judgments by class.
    pub fn counts(&self) -> ComparisonCounts {
        self.counts
    }

    /// The platform configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// Faults injected and recovery actions taken so far, by class.
    pub fn fault_counts(&self) -> FaultCounts {
        self.fault_counts
    }

    /// Position of the campaign's fault-plan attempt counter — the
    /// SplitMix64 stream index the next judgment fate will be drawn at.
    /// Journaled at every checkpoint so a resumed campaign draws the same
    /// fates an uninterrupted one would.
    pub fn fault_seq(&self) -> u64 {
        self.fault_seq
    }

    /// The most recent job's schedule: the workers it asked, unit-major
    /// (empty before the first job and after a job the scheduler refused).
    /// Retries are not in it. Journaled per batch so a recovery audit can
    /// see who was asked, not only what they answered.
    pub fn last_assignments(&self) -> &[WorkerId] {
        &self.scratch.schedule
    }

    /// Units the campaign gave up on after exhausting retries.
    pub fn dead_letters(&self) -> &[DeadLetter] {
        &self.dead_letters
    }

    /// True once any result was produced in degraded mode (units short of
    /// judgments, or expert jobs answered by boosted naïve majorities).
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    fn fresh_unit_id(&mut self) -> UnitId {
        let id = UnitId(self.next_unit);
        self.next_unit += 1;
        id
    }

    /// How many gold units to inject alongside `regular` regular units so
    /// that roughly `gold_fraction` of all units are gold.
    fn gold_units_for(&mut self, regular: usize) -> usize {
        if self.gold_pairs.is_empty() || self.config.gold_fraction <= 0.0 {
            return 0;
        }
        // gold / (gold + regular) ≈ fraction  =>  gold ≈ regular·f/(1−f).
        let f = self.config.gold_fraction;
        let expected = regular as f64 * f / (1.0 - f);
        let base = expected.floor() as usize;
        let remainder = expected - base as f64;
        base + usize::from(remainder > 0.0 && self.rng.gen_bool(remainder))
    }

    /// Submits a batch of pairwise comparisons (one logical step) to
    /// workers of `class` and returns the majority answer per pair, in
    /// input order. Gold units are injected automatically.
    ///
    /// # Errors
    ///
    /// Fails if the pool cannot satisfy the schedule (no eligible workers,
    /// or fewer eligible workers than judgments required per unit).
    pub fn submit_comparisons(
        &mut self,
        pairs: &[(ElementId, ElementId)],
        class: WorkerClass,
    ) -> Result<Vec<ElementId>, PlatformError> {
        let mut answers = Vec::with_capacity(pairs.len());
        self.submit_into(pairs, class, &mut answers)?;
        Ok(answers)
    }

    /// [`submit_comparisons`](Self::submit_comparisons) into the caller's
    /// buffer: appends the answered prefix to `winners` (every pair's
    /// answer on `Ok`; on failure, the pairs in input order up to the
    /// first unresolved one) and returns the error, if any. The prefix
    /// was purchased (workers answered and were paid), so recovery and
    /// billing treat it as done rather than buy it again. The job's units
    /// and every per-job buffer are reused, so a warm platform allocates
    /// nothing here unless the job leaves units unanswered (that error
    /// owns its lists).
    pub(crate) fn submit_into(
        &mut self,
        pairs: &[(ElementId, ElementId)],
        class: WorkerClass,
        winners: &mut Vec<ElementId>,
    ) -> Result<(), PlatformError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut units = std::mem::take(&mut scratch.units);
        units.clear();
        // Regular units first, so their answers are the first
        // `pairs.len()` of the job's.
        let gold_n = self.gold_units_for(pairs.len());
        for &(k, j) in pairs {
            let id = self.fresh_unit_id();
            units.push(Unit::regular(id, k, j));
        }
        for _ in 0..gold_n {
            let &(k, j) = &self.gold_pairs[self.rng.gen_range(0..self.gold_pairs.len())];
            let answer = if self.instance.value(k) >= self.instance.value(j) {
                k
            } else {
                j
            };
            let id = self.fresh_unit_id();
            units.push(Unit::gold(id, k, j, answer));
        }
        assert!(!units.is_empty(), "a job needs at least one unit");
        let per_unit = JUDGMENTS_PER_UNIT;
        let result = match self.execute_job(&units, per_unit, class, &mut scratch) {
            Err(PlatformError::Schedule(ScheduleError::NoEligibleWorkers { class: missing }))
                if missing == WorkerClass::Expert
                    && class == WorkerClass::Expert
                    && self.config.expert_fallback_votes > 0 =>
            {
                // Graceful degradation: the expert pool is depleted. Fall
                // back to a boosted naïve majority over the same units —
                // the platform's per-unit majority aggregation realizes
                // the vote boost — and flag the campaign degraded.
                self.record_fault(WorkerClass::Expert, FaultKind::ExpertFallback);
                self.degraded = true;
                let boosted = per_unit.saturating_mul(self.config.expert_fallback_votes);
                self.execute_job(&units, boosted, WorkerClass::Naive, &mut scratch)
            }
            other => other,
        };
        // The answered prefix of the regular units: all of them on
        // success. A partially answered job stops at the first pair whose
        // unit stayed unanswered, so the prefix lines up with the scalar
        // loop. Any other error leaves no answers.
        if matches!(result, Ok(_) | Err(PlatformError::UnitsUnanswered { .. })) {
            winners.extend(scratch.answers[..pairs.len()].iter().map_while(|&a| a));
        }
        scratch.units = units;
        self.scratch = scratch;
        result.map(|_| ())
    }

    /// Records a fault in the campaign tally through the fault report the
    /// service shards share ([`report_fault`]), which also bumps its metric
    /// series and, for the plain kinds, emits [`Event::FaultObserved`].
    fn record_fault(&mut self, class: WorkerClass, kind: FaultKind) {
        report_fault(&mut self.fault_counts, class, kind);
    }

    /// The fate of the next judgment attempt handed to `worker`, drawn
    /// from the campaign's stateless fault plan.
    fn next_fate(&mut self, worker: WorkerId) -> JudgeFate {
        let seq = self.fault_seq;
        self.fault_seq += 1;
        self.fault_plan
            .keyed_fate(&self.fate_keys[worker.index()], seq)
    }

    /// One judgment attempt: `worker` is handed `units[pos]`. A worker who
    /// abandoned an earlier judgment of the batch has walked away from the
    /// rest of it and fails at once, with no fate drawn; retries never
    /// hand out such a worker. Otherwise the attempt draws the worker's
    /// fate and reports a fault, excluding a worker who abandons. On an
    /// answer the worker judges, gets paid, the tally advances, the
    /// judgment joins `judged` and, for a usable one on a gold unit, trust
    /// is scored. A timed-out answer is real work (paid
    /// and counted) but unusable: it stays out of trust scoring and
    /// aggregation. Returns a usable answer's latency (also pushed to
    /// `observed`), `None` when the attempt failed.
    /// [`execute_job`](Self::execute_job)'s planned assignments and retries
    /// both run through here; it is inlined into each.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn attempt(
        &mut self,
        units: &[Unit],
        pos: usize,
        worker: WorkerId,
        class: WorkerClass,
        excluded: &mut [bool],
        judged: &mut Vec<(usize, WorkerId, ElementId, bool)>,
        observed: &mut Vec<u64>,
    ) -> Option<u64> {
        if excluded[worker.index()] {
            self.record_fault(class, FaultKind::Abandon);
            return None;
        }
        let latency = match self.next_fate(worker) {
            JudgeFate::Answer { latency } => latency,
            JudgeFate::Abandon => {
                self.record_fault(class, FaultKind::Abandon);
                excluded[worker.index()] = true;
                return None;
            }
            JudgeFate::NoAnswer => {
                self.record_fault(class, FaultKind::NoAnswer);
                return None;
            }
        };
        let usable = latency <= self.fault_plan.config().timeout_steps;
        let unit = &units[pos];
        let (k, j) = unit.pair;
        let (vk, vj) = (self.instance.value(k), self.instance.value(j));
        let answer = self
            .pool
            .worker_mut(worker)
            .judge(k, vk, j, vj, &mut self.rng);
        self.ledger
            .pay(worker, class, self.config.payment.price(class));
        self.counts.record(class);
        if usable {
            if let Some(gold) = unit.gold_answer {
                self.trust.record(worker, answer == gold);
            }
        }
        judged.push((pos, worker, answer, usable));
        if usable {
            observed.push(latency);
            Some(latency)
        } else {
            self.record_fault(class, FaultKind::Timeout);
            None
        }
    }

    /// The worker's campaign dropout verdict: decided once by the fault
    /// plan, on her first call, which is the first time she would
    /// otherwise be eligible; that call counts the dropout.
    fn dropped_out(&mut self, worker: WorkerId, class: WorkerClass) -> bool {
        let idx = worker.index();
        if idx >= self.dropouts.len() {
            self.dropouts.resize(idx + 1, None);
        }
        if let Some(verdict) = self.dropouts[idx] {
            return verdict;
        }
        let verdict = self.fault_plan.dropped_out(worker);
        self.dropouts[idx] = Some(verdict);
        if verdict {
            self.record_fault(class, FaultKind::Dropout);
        }
        verdict
    }

    /// Runs `per_unit` judgments of each of `units` as one job (one
    /// logical step) of `class`: schedules it over the currently trusted
    /// workers, executes every judgment under the fault plan, pays for
    /// performed work, scores gold answers, retries failed judgments on
    /// fresh workers (capped exponential backoff), and aggregates regular
    /// units by majority over usable judgments from workers trusted
    /// *after* the job's gold scoring.
    ///
    /// Per-unit state (attempts, dead-letter reasons, vote buckets,
    /// answers) lives in vectors indexed by the unit's position in
    /// `units`, which every judgment carries along and every schedule slot
    /// implies, so nothing is looked up by [`UnitId`] and any ids work,
    /// contiguous or not. Per-worker state (the exclusion mask, trust,
    /// pay, dropout verdicts) is indexed by [`WorkerId::index`], so no
    /// judgment hashes.
    /// Latencies and attempt counts reach their histograms in one batch
    /// per job. The job runs in `scratch`, which the platform reuses from
    /// job to job: the answers stay in `scratch.answers`, the judgments in
    /// `scratch.judged` and the per-unit ledgers in `scratch.ledgers`, for
    /// the caller to read.
    ///
    /// Planned assignments and retries run the same
    /// [`attempt`](Self::attempt). The parts the service shards share go
    /// through one helper each: faults through [`report_fault`] (via
    /// [`record_fault`](Self::record_fault)), dead letters through
    /// [`report_dead_letter`] and each unit's votes through [`majority`].
    ///
    /// # Errors
    ///
    /// Fails if the pool cannot satisfy the schedule, or any regular unit
    /// ends with zero usable judgments after retries (the partial results
    /// stay recorded on the platform).
    fn execute_job(
        &mut self,
        units: &[Unit],
        per_unit: u32,
        class: WorkerClass,
        scratch: &mut JobScratch,
    ) -> Result<(), PlatformError> {
        let JobScratch {
            units: _,
            eligible,
            schedule,
            answers,
            excluded,
            failed_slots,
            tried,
            judged,
            ledgers,
            observed,
        } = scratch;

        // One exclusion mask over the pool, by worker index: untrusted
        // and (for this class) dropped-out workers.
        excluded.clear();
        excluded.resize(self.pool.len(), false);
        for w in self.trust.untrusted() {
            excluded[w.index()] = true;
        }
        // Campaign dropouts, checked in pool order among the otherwise
        // eligible workers of the class. A zero-rate plan never excludes
        // anyone (and does no hashing).
        if self.fault_plan.config().dropout > 0.0 {
            for (i, mask) in excluded.iter_mut().enumerate() {
                let w = WorkerId(i as u32);
                if !*mask && self.pool.worker(w).class() == class && self.dropped_out(w, class) {
                    *mask = true;
                }
            }
        }

        let plan_steps = schedule_into(
            &self.pool,
            units,
            per_unit,
            class,
            excluded,
            self.rotation,
            eligible,
            schedule,
        )?;
        self.rotation = self.rotation.wrapping_add(schedule.len().max(1));

        // Every per-unit ledger is indexed by the unit's position in
        // `units`; attempts count the initial assignments now and
        // retries later.
        ledgers.clear();
        ledgers.resize(
            units.len(),
            UnitLedger {
                attempts: per_unit,
                ..UnitLedger::default()
            },
        );
        let per_unit = per_unit as usize;

        // Execute the schedule: unit `pos` owns its `per_unit` slots.
        // `judged` carries the unit's position and a `usable` flag:
        // timed-out answers are paid but never aggregated. `observed`
        // collects the usable latencies, and later the per-unit attempts,
        // for one histogram flush per job.
        judged.clear();
        failed_slots.clear();
        observed.clear();
        for (pos, workers) in schedule.chunks_exact(per_unit).enumerate() {
            for &worker in workers {
                if self
                    .attempt(units, pos, worker, class, excluded, judged, observed)
                    .is_none()
                {
                    failed_slots.push(pos);
                }
            }
        }

        // Retry failed judgment slots on fresh workers with capped
        // exponential backoff. Slots retry independently (in parallel, in
        // the physical-time model), so the job's extra latency is the
        // slowest slot's, not the sum.
        let policy = self.config.retry;
        let mut extra_steps = 0u64;
        // The workers the current unit has been handed, across retries.
        // Failed slots come in schedule order, so one unit's slots are
        // adjacent and share the list.
        let mut tried_pos = None;
        for &pos in failed_slots.iter() {
            let unit = &units[pos];
            if tried_pos != Some(pos) {
                tried_pos = Some(pos);
                tried.clear();
                tried.extend_from_slice(&schedule[pos * per_unit..(pos + 1) * per_unit]);
            }
            let mut slot_delay = 0u64;
            let mut recovered = false;
            for attempt in 1..=policy.max_retries {
                let worker =
                    match reassign(&self.pool, class, excluded, tried, unit.id, self.rotation) {
                        Ok(worker) => worker,
                        Err(ScheduleError::NoEligibleWorkers { .. }) => {
                            // Every worker of the class is excluded — the
                            // quarantine-storm signature, not a small pool.
                            ledgers[pos].reason = Some(DeadLetterReason::NoHealthyWorkers);
                            break;
                        }
                        Err(_) => {
                            // Healthy workers exist but each already touched
                            // this unit: no fresh worker remains.
                            ledgers[pos].reason = Some(DeadLetterReason::NoFreshWorkers);
                            break;
                        }
                    };
                self.rotation = self.rotation.wrapping_add(1);
                tried.push(worker);
                ledgers[pos].attempts += 1;
                self.record_fault(class, FaultKind::Retry);
                crowd_obs::emit(Event::RetryScheduled {
                    class,
                    attempt,
                    backoff_steps: backoff(attempt),
                });
                series::retry_depth_max().set(i64::from(attempt));
                slot_delay += backoff(attempt);
                if let Some(latency) =
                    self.attempt(units, pos, worker, class, excluded, judged, observed)
                {
                    slot_delay += latency;
                    recovered = true;
                    break;
                }
            }
            if recovered {
                extra_steps = extra_steps.max(slot_delay);
            }
        }

        // Bucket the usable judgments by unit in one pass. Gold scoring is
        // over, so trust is final: the mask now marks exactly the
        // untrusted workers, and each bucket tallies its votes both among
        // workers still trusted and among all usable judgments (the
        // fallback when quality control discards everything).
        let untrusted = excluded;
        untrusted.fill(false);
        for w in self.trust.untrusted() {
            untrusted[w.index()] = true;
        }
        for &(pos, worker, answer, usable) in judged.iter() {
            if usable {
                let for_k = u32::from(answer == units[pos].pair.0);
                let votes = &mut ledgers[pos].votes;
                votes.all.add(for_k);
                if !untrusted[worker.index()] {
                    votes.trusted.add(for_k);
                }
            }
        }

        // Units still short of judgments after retries are degraded and
        // dead-lettered.
        let latencies = observed.len();
        for (unit, ledger) in units.iter().zip(ledgers.iter()) {
            let got = ledger.votes.all.total as usize;
            let attempts = ledger.attempts;
            observed.push(u64::from(attempts));
            if got < per_unit {
                let reason = ledger.reason.unwrap_or(DeadLetterReason::RetriesExhausted);
                self.degraded = true;
                self.record_fault(class, FaultKind::DeadLetter);
                report_dead_letter(class, attempts, reason);
                self.dead_letters.push(DeadLetter {
                    unit: unit.id,
                    pair: unit.pair,
                    class,
                    attempts,
                    logical_step: self.logical_steps,
                    reason,
                });
            }
        }
        series::latency_steps(class).observe_each(&observed[..latencies]);
        series::retry_depth(class).observe_each(&observed[latencies..]);

        // Aggregate regular units by majority over usable judgments.
        answers.clear();
        let mut unanswered = false;
        for (unit, ledger) in units.iter().zip(ledgers.iter()) {
            if unit.is_gold() {
                answers.push(None);
                continue;
            }
            // If quality control discarded everything, fall back to all
            // usable judgments — the requester still needs an answer.
            let votes = if ledger.votes.trusted.total > 0 {
                ledger.votes.trusted
            } else {
                ledger.votes.all
            };
            if votes.total == 0 {
                // Nothing usable at all: never fabricate an answer.
                unanswered = true;
                answers.push(None);
                continue;
            }
            let (k, j) = unit.pair;
            answers.push(Some(majority(k, j, votes.for_k, votes.total - votes.for_k)));
        }

        self.physical_clock += plan_steps + extra_steps;
        self.logical_steps += 1;
        if unanswered {
            // The job's partial results (payments, trust, dead letters)
            // stay recorded, and the resolved answers stay in `answers`.
            return Err(PlatformError::UnitsUnanswered {
                units: units
                    .iter()
                    .zip(answers.iter())
                    .filter(|(unit, answer)| !unit.is_gold() && answer.is_none())
                    .map(|(unit, _)| unit.id)
                    .collect(),
                attempts: 1 + policy.max_retries,
            });
        }
        Ok(())
    }
}

/// The buffers every job reuses from the last, so a warm platform runs a
/// batch without allocating: the units, the schedule, every per-judgment
/// and per-unit list and the answers, which the oracle batch path reads
/// in place.
#[derive(Debug, Default)]
struct JobScratch {
    /// The units [`Platform::submit_comparisons`] builds: regular, then
    /// gold.
    units: Vec<Unit>,
    /// The schedule's dealing order.
    eligible: Vec<WorkerId>,
    /// The schedule: the worker of each judgment slot, unit-major.
    schedule: Vec<WorkerId>,
    /// Majority answer per unit, by unit position (`None` for gold and
    /// unanswered units).
    answers: Vec<Option<ElementId>>,
    /// Exclusion mask by worker index; after execution, the untrusted
    /// mask aggregation reads.
    excluded: Vec<bool>,
    /// Unit positions of the judgment slots that failed, in schedule
    /// order.
    failed_slots: Vec<usize>,
    /// Workers the retried unit has been handed.
    tried: Vec<WorkerId>,
    /// Every judgment performed: its unit position, worker, answer and
    /// `usable` flag.
    judged: Vec<(usize, WorkerId, ElementId, bool)>,
    /// Per-unit ledgers, by unit position.
    ledgers: Vec<UnitLedger>,
    /// Usable latencies, then per-unit attempts: the job's histogram
    /// observations.
    observed: Vec<u64>,
}

/// One unit's ledger in [`Platform::execute_job`], at the unit's position
/// in the job.
#[derive(Debug, Clone, Copy, Default)]
struct UnitLedger {
    /// Judgments handed out: initial assignments plus retries.
    attempts: u32,
    /// Why the unit's last retry gave up, if one did.
    reason: Option<DeadLetterReason>,
    /// Usable votes, bucketed after gold scoring.
    votes: UnitVotes,
}

/// A unit's usable votes: how many there are and how many named the
/// unit's first element `k`.
#[derive(Debug, Clone, Copy, Default)]
struct VoteCount {
    total: u32,
    for_k: u32,
}

impl VoteCount {
    fn add(&mut self, for_k: u32) {
        self.total += 1;
        self.for_k += for_k;
    }
}

/// One unit's bucket in [`Platform::execute_job`]'s majority aggregation.
#[derive(Debug, Clone, Copy, Default)]
struct UnitVotes {
    /// Votes of workers still trusted after the job's gold scoring.
    trusted: VoteCount,
    /// Every usable vote.
    all: VoteCount,
}

/// Adapts a [`Platform`] to `crowd-core`'s [`ComparisonOracle`], so the
/// Section 4 algorithms can run on the full simulator.
///
/// Every oracle call is one logical step: a `compare` call submits a
/// one-unit job, a `compare_batch` call submits the whole batch as one job.
/// The Phase-1 filter batches each tournament row, so it pays one job per
/// row; Phase 2 compares adaptively (each comparison may depend on the
/// previous answer) and pays one job per comparison.
#[derive(Debug)]
pub struct PlatformOracle<R: RngCore> {
    platform: Platform<R>,
    /// The winners buffer a scalar comparison reuses.
    winner: Vec<ElementId>,
}

impl<R: RngCore> PlatformOracle<R> {
    /// Wraps a platform.
    pub fn new(platform: Platform<R>) -> Self {
        PlatformOracle {
            platform,
            winner: Vec::with_capacity(1),
        }
    }

    /// The wrapped platform (e.g. to inspect the ledger afterwards).
    pub fn platform(&self) -> &Platform<R> {
        &self.platform
    }

    /// Consumes the adapter, returning the platform.
    pub fn into_platform(self) -> Platform<R> {
        self.platform
    }
}

impl<R: RngCore> ComparisonOracle for PlatformOracle<R> {
    /// Infallible trait surface. Callers that must not panic on an
    /// undersized or exhausted pool use [`Self::try_compare`], which
    /// returns the typed [`OracleError`] instead.
    fn compare(&mut self, class: WorkerClass, k: ElementId, j: ElementId) -> ElementId {
        self.try_compare(class, k, j)
            .expect("the platform pool cannot satisfy a single comparison")
    }

    fn try_compare(
        &mut self,
        class: WorkerClass,
        k: ElementId,
        j: ElementId,
    ) -> Result<ElementId, OracleError> {
        self.winner.clear();
        self.platform
            .submit_into(&[(k, j)], class, &mut self.winner)
            .map_err(|err| err.to_oracle_error(class))?;
        Ok(self.winner[0])
    }

    /// Batch adapter for the billing layer: the whole batch becomes *one*
    /// [`Platform::submit_comparisons`] job, so the worker schedule, gold injection, and per-judgment billing run once per
    /// batch instead of once per comparison. Answers and tallies match the
    /// scalar loop for a fault-free workforce; the job structure
    /// necessarily differs (one logical step for the batch instead of one
    /// per pair — that is the amortization), and a faulting batch still
    /// yields the completed prefix of answers alongside the error.
    fn compare_batch(
        &mut self,
        class: WorkerClass,
        pairs: &[(ElementId, ElementId)],
        winners: &mut Vec<ElementId>,
    ) {
        self.try_compare_batch(class, pairs, winners)
            .expect("the platform pool cannot satisfy a comparison batch");
    }

    /// See [`compare_batch`](Self::compare_batch). On `Err` the completed
    /// *prefix* of answers is appended before the error is reported: those
    /// comparisons were purchased from real workers, so discarding them
    /// would make recovery (and billing) buy them a second time. Only the
    /// unresolved suffix is left to the caller's error handling.
    fn try_compare_batch(
        &mut self,
        class: WorkerClass,
        pairs: &[(ElementId, ElementId)],
        winners: &mut Vec<ElementId>,
    ) -> Result<(), OracleError> {
        if pairs.is_empty() {
            return Ok(());
        }
        self.platform
            .submit_into(pairs, class, winners)
            .map_err(|err| err.to_oracle_error(class))
    }

    fn counts(&self) -> ComparisonCounts {
        self.platform.counts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::{Behavior, SpamStrategy};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn instance() -> Instance {
        Instance::new(vec![10.0, 20.0, 30.0, 40.0, 50.0])
    }

    fn honest_pool(n: usize) -> WorkerPool {
        let mut p = WorkerPool::new();
        p.hire_naive_crowd(n, 0.0, 0.0); // perfect naïve workers
        p.hire_expert_panel(3, 0.0, 0.0);
        p
    }

    /// A noisy naïve crowd and a sharper expert panel.
    fn pool_with(naive: usize, experts: usize) -> WorkerPool {
        let mut p = WorkerPool::new();
        p.hire_naive_crowd(naive, 5.0, 0.05);
        p.hire_expert_panel(experts, 0.5, 0.0);
        p
    }

    fn platform(pool: WorkerPool, config: PlatformConfig, seed: u64) -> Platform<StdRng> {
        Platform::new(instance(), pool, config, StdRng::seed_from_u64(seed))
    }

    /// Regular units over `pairs`, with ids counting from 0.
    fn regular_units(pairs: &[(ElementId, ElementId)]) -> Vec<Unit> {
        pairs
            .iter()
            .enumerate()
            .map(|(i, &(k, j))| Unit::regular(UnitId(i as u32), k, j))
            .collect()
    }

    /// Runs `per_unit` judgments of each of `units` as one job of `class`
    /// in the platform's own scratch, as `submit_into` does. The answers
    /// and judgments stay in `p.scratch` for the test to read.
    fn run_units<R: RngCore>(
        p: &mut Platform<R>,
        units: &[Unit],
        per_unit: u32,
        class: WorkerClass,
    ) -> Result<(), PlatformError> {
        let mut scratch = std::mem::take(&mut p.scratch);
        let result = p.execute_job(units, per_unit, class, &mut scratch);
        p.scratch = scratch;
        result
    }

    /// Fails if one worker judged the same unit (by position) twice in
    /// `judged`.
    fn distinct_judges(judged: &[(usize, WorkerId, ElementId, bool)]) -> Result<(), String> {
        let mut seen = HashSet::new();
        for &(pos, worker, _, _) in judged {
            if !seen.insert((pos, worker)) {
                return Err(format!("unit {pos} judged twice by {worker}"));
            }
        }
        Ok(())
    }

    #[test]
    fn submit_returns_answers_in_order() {
        let mut p = platform(
            honest_pool(5),
            PlatformConfig::paper_default().without_gold(),
            1,
        );
        let answers = p
            .submit_comparisons(
                &[(ElementId(0), ElementId(4)), (ElementId(3), ElementId(1))],
                WorkerClass::Naive,
            )
            .unwrap();
        assert_eq!(answers, vec![ElementId(4), ElementId(3)]);
    }

    #[test]
    fn payments_match_judgments() {
        let cfg = PlatformConfig::paper_default()
            .without_gold()
            .with_payment(CostModel::new(2.0, 20.0));
        let mut p = platform(honest_pool(5), cfg, 2);
        let units = regular_units(&[(ElementId(0), ElementId(1))]);
        run_units(&mut p, &units, 3, WorkerClass::Naive).unwrap();
        assert_eq!(p.ledger().judgments(), 3);
        assert_eq!(p.ledger().total(), 6.0);
        assert_eq!(p.counts().naive, 3);
        run_units(&mut p, &units, 3, WorkerClass::Expert).unwrap();
        assert_eq!(p.ledger().total(), 6.0 + 3.0 * 20.0); // 3 expert judgments at 20 each
    }

    #[test]
    fn gold_units_are_injected_and_scored() {
        let mut cfg = PlatformConfig::paper_default();
        cfg.gold_fraction = 0.5;
        let mut p = platform(honest_pool(10), cfg, 3);
        p.set_gold_pairs(vec![(ElementId(0), ElementId(4))]);
        // Submit enough batches that gold questions certainly appear.
        for _ in 0..20 {
            p.submit_comparisons(&[(ElementId(1), ElementId(2))], WorkerClass::Naive)
                .unwrap();
        }
        let scored: u32 = (0..12u32)
            .map(|i| p.trust().record_of(WorkerId(i)).seen)
            .sum();
        assert!(scored > 0, "no gold judgments were recorded");
    }

    #[test]
    fn spammers_get_filtered_by_gold() {
        let mut pool = WorkerPool::new();
        pool.hire_naive_crowd(6, 0.0, 0.0);
        // A spammer who always picks the first element shown.
        let spammer = pool.hire(
            WorkerClass::Naive,
            "spam",
            Behavior::Spammer(SpamStrategy::AlwaysSecond),
        );
        let mut cfg = PlatformConfig::paper_default();
        cfg.gold_fraction = 0.6;
        let mut p = platform(pool, cfg, 4);
        // Gold pairs presented as (higher, lower): AlwaysSecond always fails.
        p.set_gold_pairs(vec![
            (ElementId(4), ElementId(0)),
            (ElementId(3), ElementId(0)),
            (ElementId(4), ElementId(1)),
        ]);
        for _ in 0..30 {
            p.submit_comparisons(&[(ElementId(2), ElementId(3))], WorkerClass::Naive)
                .unwrap();
        }
        assert!(
            !p.trust().is_trusted(spammer),
            "the spammer should have been flagged: {:?}",
            p.trust().record_of(spammer)
        );
    }

    #[test]
    fn logical_and_physical_clocks_advance() {
        let cfg = PlatformConfig::paper_default().without_gold();
        let mut p = platform(honest_pool(3), cfg, 5);
        // 2 units × 3 judgments over the pool's 3 naive workers.
        let units = regular_units(&[(ElementId(0), ElementId(1)), (ElementId(2), ElementId(3))]);
        run_units(&mut p, &units, 3, WorkerClass::Naive).unwrap();
        assert_eq!(p.logical_steps(), 1);
        assert_eq!(p.physical_clock(), 2); // ⌈6/3⌉
    }

    #[test]
    fn oracle_adapter_drives_core_algorithms() {
        use crowd_core::algorithms::{expert_max_find, ExpertMaxConfig};
        let inst = Instance::new((0..60).map(|i| i as f64 * 10.0).collect());
        let mut pool = WorkerPool::new();
        pool.hire_naive_crowd(10, 0.0, 0.0);
        pool.hire_expert_panel(3, 0.0, 0.0);
        let platform = Platform::new(
            inst.clone(),
            pool,
            PlatformConfig::paper_default().without_gold(),
            StdRng::seed_from_u64(6),
        );
        let mut oracle = PlatformOracle::new(platform);
        let mut rng = StdRng::seed_from_u64(7);
        let out = expert_max_find(&mut oracle, &inst.ids(), &ExpertMaxConfig::new(2), &mut rng);
        assert_eq!(out.winner, inst.max_element());
        let platform = oracle.into_platform();
        assert!(platform.ledger().total() > 0.0);
        assert_eq!(platform.ledger().judgments(), platform.counts().total());
    }

    #[test]
    fn schedule_failure_propagates() {
        let mut pool = WorkerPool::new();
        pool.hire_naive_crowd(2, 0.0, 0.0); // no experts at all
        let mut p = Platform::new(
            instance(),
            pool,
            PlatformConfig::paper_default().without_gold(),
            StdRng::seed_from_u64(8),
        );
        let err = p
            .submit_comparisons(&[(ElementId(0), ElementId(1))], WorkerClass::Expert)
            .unwrap_err();
        assert!(matches!(
            err,
            PlatformError::Schedule(ScheduleError::NoEligibleWorkers { .. })
        ));
        assert_eq!(
            err.to_oracle_error(WorkerClass::Expert),
            OracleError::WorkforceDepleted {
                class: WorkerClass::Expert
            }
        );
    }

    #[test]
    #[should_panic(expected = "distinct elements")]
    fn gold_pair_with_duplicate_panics() {
        let mut p = platform(honest_pool(3), PlatformConfig::paper_default(), 9);
        p.set_gold_pairs(vec![(ElementId(0), ElementId(0))]);
    }

    /// Replays the pre-fault-layer execution loop by hand: same
    /// scheduling, same judge/pay/count/gold order. A zero-fault platform
    /// must produce byte-identical answers, judgments, clocks, and ledger
    /// state — the fault layer is a strict superset.
    #[test]
    fn zero_fault_plan_is_invisible() {
        let inst = Instance::new((0..12).map(|i| i as f64).collect());
        let pairs: Vec<(ElementId, ElementId)> = (0..6)
            .map(|i| (ElementId(2 * i), ElementId(2 * i + 1)))
            .collect();
        let units = regular_units(&pairs);
        let cfg = PlatformConfig::paper_default().without_gold();

        // The faulty-capable platform under a zero-rate plan.
        let mut pool = WorkerPool::new();
        pool.hire_naive_crowd(5, 2.0, 0.1);
        let mut p = Platform::new(inst.clone(), pool, cfg, StdRng::seed_from_u64(77));
        run_units(&mut p, &units, 3, WorkerClass::Naive).unwrap();
        let result = &p.scratch.answers;

        // The same run replayed without any fault machinery.
        let mut pool = WorkerPool::new();
        pool.hire_naive_crowd(5, 2.0, 0.1);
        let mut rng = StdRng::seed_from_u64(77);
        let (mut eligible, mut plan) = (Vec::new(), Vec::new());
        let plan_steps = schedule_into(
            &pool,
            &units,
            3,
            WorkerClass::Naive,
            &[],
            0,
            &mut eligible,
            &mut plan,
        )
        .unwrap();
        let mut expected = vec![Vec::new(); units.len()];
        for (slot, &worker) in plan.iter().enumerate() {
            let (k, j) = units[slot / 3].pair;
            let answer =
                pool.worker_mut(worker)
                    .judge(k, inst.value(k), j, inst.value(j), &mut rng);
            expected[slot / 3].push(answer);
        }
        let reference: Vec<Option<ElementId>> = units
            .iter()
            .zip(&expected)
            .map(|(u, votes)| {
                let (k, j) = u.pair;
                let k_votes = votes.iter().filter(|&&a| a == k).count();
                Some(
                    if k_votes > votes.len() - k_votes || (2 * k_votes == votes.len() && k < j) {
                        k
                    } else {
                        j
                    },
                )
            })
            .collect();

        assert_eq!(result, &reference, "fault layer perturbed a zero-fault run");
        assert_eq!(p.fault_counts().total(), 0);
        assert!(p.dead_letters().is_empty());
        assert!(!p.degraded());
        assert_eq!(p.physical_clock(), plan_steps);
    }

    #[test]
    fn expert_depletion_falls_back_to_boosted_naive_majority() {
        let mut pool = WorkerPool::new();
        pool.hire_naive_crowd(5, 0.0, 0.0); // perfect naive workers, no experts
        let cfg = PlatformConfig::paper_default()
            .without_gold()
            .with_expert_fallback(3);
        let mut p = platform(pool, cfg, 31);
        let answers = p
            .submit_comparisons(&[(ElementId(1), ElementId(4))], WorkerClass::Expert)
            .unwrap();
        assert_eq!(answers, vec![ElementId(4)]);
        assert!(p.degraded(), "the fallback must flag the campaign degraded");
        assert_eq!(p.fault_counts().expert.expert_fallbacks, 1);
        // The boosted job collected 3 naive judgments (1 × 3 votes).
        assert_eq!(p.counts().naive, 3);
        assert_eq!(p.counts().expert, 0);
    }

    #[test]
    #[should_panic(expected = "must be odd")]
    fn even_fallback_votes_panic() {
        let _ = PlatformConfig::paper_default().with_expert_fallback(2);
    }

    #[test]
    fn transient_no_answer_faults_retry_on_fresh_workers() {
        use crate::fault::FaultConfig;
        let cfg = PlatformConfig::paper_default()
            .without_gold()
            .with_faults(FaultConfig::none().with_no_answer(0.4), 5);
        let mut p = platform(honest_pool(8), cfg, 41);
        let mut retries_seen = 0u64;
        for i in 0..20 {
            let pair = (ElementId(i % 4), ElementId(4));
            let answers = p.submit_comparisons(&[pair], WorkerClass::Naive);
            // Honest workers: when an answer arrives it is correct.
            if let Ok(answers) = answers {
                assert_eq!(answers, vec![ElementId(4)]);
            }
            retries_seen = p.fault_counts().naive.retries;
        }
        assert!(
            p.fault_counts().naive.no_answers > 0,
            "a 40% no-answer rate must fire in 20 jobs"
        );
        assert!(retries_seen > 0, "failed judgments must be retried");
        // Every paid judgment was performed: the billing invariant holds
        // under faults too.
        assert_eq!(p.ledger().judgments(), p.counts().total());
    }

    #[test]
    fn majority_aggregation_matches_a_per_unit_recount_under_faults() {
        use crate::fault::FaultConfig;
        // A 400-pair batch with 4 judgments per unit (even, so vote ties
        // occur), noisy honest workers, a spam channel that gold questions
        // catch, and no-answer faults that force retries. There are no
        // timeouts, so every judgment performed is usable.
        let n = 40u32;
        let instance = Instance::new((0..n).map(f64::from).collect());
        let mut pool = WorkerPool::new();
        pool.hire_naive_crowd(20, 4.0, 0.1);
        for _ in 0..4 {
            pool.hire(
                WorkerClass::Naive,
                "spam",
                Behavior::Spammer(SpamStrategy::AlwaysSecond),
            );
        }
        let cfg = PlatformConfig::paper_default()
            .with_faults(FaultConfig::none().with_no_answer(0.15), 17);
        let mut p = Platform::new(instance, pool, cfg, StdRng::seed_from_u64(71));

        let pairs: Vec<(ElementId, ElementId)> = (0..n)
            .flat_map(|a| ((a + 1)..n).map(move |b| (ElementId(a), ElementId(b))))
            .take(400)
            .collect();
        let mut units = regular_units(&pairs);
        for g in 0..80u32 {
            let (hi, lo) = (ElementId(n - 1 - g % 8), ElementId(g % 8));
            units.push(Unit::gold(UnitId(400 + g), hi, lo, hi));
        }
        run_units(&mut p, &units, 4, WorkerClass::Naive).unwrap();
        assert!(
            p.fault_counts().naive.retries > 0,
            "faults must force retries"
        );
        let excluded: Vec<WorkerId> = p.trust().untrusted().collect();
        assert!(!excluded.is_empty(), "gold must flag the spam channel");

        let judged = &p.scratch.judged;
        assert!(judged.iter().all(|&(_, _, _, usable)| usable));
        for (pos, unit) in units.iter().enumerate().filter(|(_, u)| !u.is_gold()) {
            let (k, j) = unit.pair;
            let usable: Vec<(WorkerId, ElementId)> = judged
                .iter()
                .filter(|&&(at, ..)| at == pos)
                .map(|&(_, worker, answer, _)| (worker, answer))
                .collect();
            let trusted: Vec<(WorkerId, ElementId)> = usable
                .iter()
                .copied()
                .filter(|(worker, _)| !excluded.contains(worker))
                .collect();
            let votes = if trusted.is_empty() { usable } else { trusted };
            let k_votes = votes.iter().filter(|&&(_, answer)| answer == k).count();
            let j_votes = votes.len() - k_votes;
            let want = if k_votes > j_votes || (k_votes == j_votes && k < j) {
                k
            } else {
                j
            };
            assert_eq!(p.scratch.answers[pos], Some(want), "unit {:?}", unit.id);
        }
    }

    /// A 60-pair job with 4 judgments per unit over 20 noisy workers and
    /// 4 spammers that 20 gold units catch, under no-answer faults.
    fn spam_flagging_job(first_id: impl Fn(u32) -> u32) -> (Platform<StdRng>, Vec<Unit>) {
        use crate::fault::FaultConfig;
        let n = 12u32;
        let instance = Instance::new((0..n).map(f64::from).collect());
        let mut pool = WorkerPool::new();
        pool.hire_naive_crowd(20, 2.0, 0.1);
        for _ in 0..4 {
            pool.hire(
                WorkerClass::Naive,
                "spam",
                Behavior::Spammer(SpamStrategy::AlwaysSecond),
            );
        }
        let cfg =
            PlatformConfig::paper_default().with_faults(FaultConfig::none().with_no_answer(0.1), 5);
        let p = Platform::new(instance, pool, cfg, StdRng::seed_from_u64(9));
        let mut units: Vec<Unit> = (0..n)
            .flat_map(|a| ((a + 1)..n).map(move |b| (ElementId(a), ElementId(b))))
            .take(60)
            .enumerate()
            .map(|(i, (k, j))| Unit::regular(UnitId(first_id(i as u32)), k, j))
            .collect();
        for g in 0..20u32 {
            let (hi, lo) = (ElementId(n - 1 - g % 4), ElementId(g % 4));
            units.push(Unit::gold(UnitId(first_id(60 + g)), hi, lo, hi));
        }
        (p, units)
    }

    #[test]
    fn excluded_workers_are_sorted_and_reproducible() {
        let run = || {
            let (mut p, units) = spam_flagging_job(|i| i);
            run_units(&mut p, &units, 4, WorkerClass::Naive).unwrap();
            p.trust().untrusted().collect::<Vec<_>>()
        };
        let (first, second) = (run(), run());
        assert!(first.len() >= 2, "gold must flag the spammers: {first:?}");
        assert_eq!(first, second);
        assert!(first.windows(2).all(|w| w[0] < w[1]), "{first:?}");
    }

    #[test]
    fn run_job_does_not_depend_on_unit_ids() {
        // Ledgers are indexed by position, so sparse, descending ids give
        // the same run as dense ascending ones.
        let (mut dense, dense_units) = spam_flagging_job(|i| i);
        let (mut sparse, sparse_units) = spam_flagging_job(|i| 1_000_000 - 7 * i);
        run_units(&mut dense, &dense_units, 4, WorkerClass::Naive).unwrap();
        run_units(&mut sparse, &sparse_units, 4, WorkerClass::Naive).unwrap();
        assert!(
            dense.fault_counts().naive.retries > 0,
            "faults must force retries"
        );
        assert_eq!(dense.scratch.answers, sparse.scratch.answers);
        assert_eq!(dense.scratch.judged, sparse.scratch.judged);
        assert!(dense.trust().untrusted().eq(sparse.trust().untrusted()));
        assert_eq!(dense.physical_clock(), sparse.physical_clock());
        assert_eq!(dense.fault_counts(), sparse.fault_counts());
    }

    #[test]
    fn exhausted_retries_dead_letter_instead_of_fabricating() {
        use crate::fault::FaultConfig;
        // Everyone refuses to answer: every unit must dead-letter and the
        // job must fail with UnitsUnanswered, not fabricate an answer.
        let cfg = PlatformConfig::paper_default()
            .without_gold()
            .with_faults(FaultConfig::none().with_no_answer(1.0), 6);
        let mut p = platform(honest_pool(6), cfg, 51);
        let err = p
            .submit_comparisons(&[(ElementId(0), ElementId(1))], WorkerClass::Naive)
            .unwrap_err();
        match &err {
            PlatformError::UnitsUnanswered { units, attempts } => {
                assert_eq!(units.len(), 1);
                assert_eq!(*attempts, 1 + p.config().retry.max_retries);
            }
            other => panic!("expected UnitsUnanswered, got {other:?}"),
        }
        assert!(matches!(
            err.to_oracle_error(WorkerClass::Naive),
            OracleError::Unanswered { .. }
        ));
        assert_eq!(p.dead_letters().len(), 1);
        assert_eq!(p.fault_counts().naive.dead_letters, 1);
        assert!(p.degraded());
        // Nothing was performed, so nothing was paid.
        assert_eq!(p.ledger().judgments(), 0);
    }

    #[test]
    fn retry_recovery_degrades_gracefully_when_the_fresh_pool_exhausts() {
        use crate::fault::FaultConfig;
        // Every judgment no-answers and the policy allows far more
        // retries than there are fresh workers. The recovery loop must
        // stop when `scheduler::reassign` runs out of workers that have
        // not touched the unit — degrading to a dead letter, not looping.
        let cfg = PlatformConfig::paper_default()
            .without_gold()
            .with_faults(FaultConfig::none().with_no_answer(1.0), 3)
            .with_retry(RetryPolicy::paper_default().with_max_retries(1000));
        let mut p = platform(honest_pool(3), cfg, 21);
        let err = p
            .submit_comparisons(&[(ElementId(0), ElementId(1))], WorkerClass::Naive)
            .unwrap_err();
        assert!(matches!(err, PlatformError::UnitsUnanswered { .. }));
        // Attempts are bounded by the pool (1 initial + 2 fresh workers),
        // not by the 1000-retry policy.
        assert_eq!(p.fault_counts().naive.retries, 2);
        assert_eq!(p.dead_letters().len(), 1);
        assert_eq!(p.dead_letters()[0].attempts, 3);
        assert!(p.degraded());
    }

    #[test]
    fn partial_batches_keep_their_answered_prefix() {
        use crate::fault::FaultConfig;
        let pairs = [
            (ElementId(0), ElementId(4)),
            (ElementId(1), ElementId(3)),
            (ElementId(2), ElementId(4)),
        ];
        // Ground-truth winners of those pairs, for honest workers.
        let expect = [ElementId(4), ElementId(3), ElementId(4)];
        let mut saw_partial = false;
        for fault_seed in 0..64 {
            let cfg = PlatformConfig::paper_default()
                .without_gold()
                .with_faults(FaultConfig::none().with_no_answer(0.5), fault_seed)
                .with_retry(RetryPolicy::paper_default().with_max_retries(0));
            let mut p = platform(honest_pool(3), cfg, 11);
            let mut answers = Vec::new();
            match p.submit_into(&pairs, WorkerClass::Naive, &mut answers) {
                Ok(()) => assert_eq!(answers, expect),
                Err(PlatformError::UnitsUnanswered { .. }) => {
                    // The prefix stops at the first unanswered pair, and
                    // everything in it is a real (purchased) answer.
                    assert!(answers.len() < pairs.len());
                    assert_eq!(answers[..], expect[..answers.len()]);
                    saw_partial |= !answers.is_empty();
                }
                Err(other) => panic!("unexpected platform error: {other:?}"),
            }
        }
        assert!(
            saw_partial,
            "64 fault seeds must produce at least one non-empty prefix"
        );
    }

    #[test]
    fn oracle_batches_append_the_prefix_before_the_error() {
        use crate::fault::FaultConfig;
        let pairs = [
            (ElementId(0), ElementId(4)),
            (ElementId(1), ElementId(3)),
            (ElementId(2), ElementId(4)),
        ];
        let expect = [ElementId(4), ElementId(3), ElementId(4)];
        let mut saw_partial = false;
        for fault_seed in 0..64 {
            let cfg = PlatformConfig::paper_default()
                .without_gold()
                .with_faults(FaultConfig::none().with_no_answer(0.5), fault_seed)
                .with_retry(RetryPolicy::paper_default().with_max_retries(0));
            let mut oracle = PlatformOracle::new(platform(honest_pool(3), cfg, 11));
            let mut winners = vec![ElementId(9)]; // pre-existing content survives
            match oracle.try_compare_batch(WorkerClass::Naive, &pairs, &mut winners) {
                Ok(()) => assert_eq!(winners[1..], expect[..]),
                Err(err) => {
                    assert!(matches!(err, OracleError::Unanswered { .. }));
                    assert_eq!(winners[1..], expect[..winners.len() - 1]);
                    saw_partial |= winners.len() > 1;
                }
            }
            assert_eq!(winners[0], ElementId(9));
        }
        assert!(
            saw_partial,
            "64 fault seeds must produce at least one non-empty prefix"
        );
    }

    #[test]
    fn dropped_out_workers_never_receive_assignments() {
        use crate::fault::FaultConfig;
        let mut pool = WorkerPool::new();
        pool.hire_naive_crowd(20, 0.0, 0.0);
        let cfg = PlatformConfig::paper_default()
            .without_gold()
            .with_faults(FaultConfig::none().with_dropout(0.4), 9);
        let mut p = platform(pool, cfg, 61);
        for _ in 0..10 {
            p.submit_comparisons(&[(ElementId(0), ElementId(4))], WorkerClass::Naive)
                .unwrap();
        }
        let dropped: Vec<WorkerId> = (0..20)
            .map(WorkerId)
            .filter(|w| p.fault_plan.dropped_out(*w))
            .collect();
        assert!(!dropped.is_empty(), "a 40% dropout rate must fire");
        for w in &dropped {
            assert_eq!(
                p.ledger().earned_by(*w),
                0.0,
                "dropout {w} must never be assigned work"
            );
        }
        assert_eq!(p.fault_counts().naive.dropouts, dropped.len() as u64);
    }

    #[test]
    fn retry_reassignment_preserves_distinct_workers_per_unit() {
        use crate::fault::{FaultConfig, LatencyModel};
        // High fault pressure: abandonment, no-answers and timeouts all on.
        let cfg = PlatformConfig::paper_default().without_gold().with_faults(
            FaultConfig::none()
                .with_abandon(0.15)
                .with_no_answer(0.25)
                .with_latency(LatencyModel::Geometric { p: 0.6, cap: 10 })
                .with_timeout_steps(3),
            13,
        );
        let mut p = platform(honest_pool(10), cfg, 71);
        for i in 0..15 {
            let units = regular_units(&[(ElementId(i % 4), ElementId(4))]);
            if run_units(&mut p, &units, 2, WorkerClass::Naive).is_ok() {
                // No unit of this job was judged twice by the same worker
                // — including judgments produced by retry re-assignment.
                distinct_judges(&p.scratch.judged).unwrap();
            }
        }
        assert!(
            p.fault_counts().naive.retries > 0,
            "fault pressure must trigger retries: {:?}",
            p.fault_counts().naive
        );
        assert_eq!(p.ledger().judgments(), p.counts().total());
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn empty_job_panics() {
        let mut p = platform(
            honest_pool(3),
            PlatformConfig::paper_default().without_gold(),
            10,
        );
        let _ = p.submit_comparisons(&[], WorkerClass::Naive);
    }

    #[test]
    fn a_refused_job_leaves_no_assignments() {
        let mut pool = WorkerPool::new();
        pool.hire_naive_crowd(3, 0.0, 0.0); // no experts
        let mut p = platform(pool, PlatformConfig::paper_default().without_gold(), 12);
        // The scheduler refuses the expert job, so nobody was asked,
        // whoever the previous job asked.
        let pair = [(ElementId(0), ElementId(1))];
        p.submit_comparisons(&pair, WorkerClass::Naive).unwrap();
        assert_eq!(p.last_assignments().len(), 1);
        let err = p.submit_comparisons(&pair, WorkerClass::Expert);
        assert!(matches!(err, Err(PlatformError::Schedule(_))), "{err:?}");
        assert_eq!(p.last_assignments(), &[]);
    }

    #[test]
    fn the_boosted_fallback_schedules_distinct_workers_per_unit() {
        let mut pool = WorkerPool::new();
        pool.hire_naive_crowd(7, 0.0, 0.0); // no experts
        let cfg = PlatformConfig::paper_default()
            .without_gold()
            .with_expert_fallback(3);
        let mut p = platform(pool, cfg, 32);
        let pairs = [
            (ElementId(0), ElementId(4)),
            (ElementId(1), ElementId(3)),
            (ElementId(2), ElementId(4)),
        ];
        let answers = p.submit_comparisons(&pairs, WorkerClass::Expert).unwrap();
        assert_eq!(answers, [ElementId(4), ElementId(3), ElementId(4)]);
        // The schedule is unit-major: each unit owns 3 consecutive slots,
        // dealt to 3 distinct workers.
        let schedule = p.last_assignments();
        assert_eq!(schedule.len(), 9);
        for slots in schedule.chunks(3) {
            assert_eq!(slots.iter().collect::<HashSet<_>>().len(), 3, "{slots:?}");
        }
        assert_eq!(p.counts().naive, 9);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Billing conservation: ledger total = naive judgments × cn + expert
        /// judgments × ce, and judgment counts match the oracle tally.
        #[test]
        fn billing_matches_judgments(
            n in 4usize..40,
            comparisons in 1usize..25,
            judgments_per_unit in 1u32..4,
            cn in 0.01f64..2.0,
            ce in 2.0f64..50.0,
            seed in any::<u64>(),
        ) {
            let instance = Instance::new((0..n).map(|i| i as f64 * 10.0).collect());
            let pool = pool_with(8, 4);
            let config = PlatformConfig::paper_default()
                .without_gold()
                .with_payment(CostModel::new(cn, ce));
            let mut platform = Platform::new(instance.clone(), pool, config, StdRng::seed_from_u64(seed));
            let pairs: Vec<_> = (0..comparisons)
                .map(|i| {
                    let a = (i % n) as u32;
                    let b = ((i + 1 + i / n) % n) as u32;
                    (ElementId(a), ElementId(if a == b { (b + 1) % n as u32 } else { b }))
                })
                .filter(|(a, b)| a != b)
                .collect();
            prop_assume!(!pairs.is_empty());
            let units = regular_units(&pairs);
            run_units(&mut platform, &units, judgments_per_unit, WorkerClass::Naive).unwrap();
            run_units(&mut platform, &units, judgments_per_unit, WorkerClass::Expert).unwrap();

            let counts = platform.counts();
            let expected = counts.naive as f64 * cn + counts.expert as f64 * ce;
            prop_assert!((platform.ledger().total() - expected).abs() < 1e-6);
            prop_assert_eq!(platform.ledger().judgments(), counts.total());
        }

        /// Under arbitrary fault pressure, retry re-assignment never hands a
        /// unit back to a worker who already judged it — the
        /// distinct-workers-per-unit invariant survives recovery — and every
        /// performed judgment is billed.
        #[test]
        fn retry_reassignment_never_repeats_a_worker(
            seed in any::<u64>(),
            fault_seed in any::<u64>(),
            abandon in 0.0f64..0.4,
            no_answer in 0.0f64..0.4,
            timeout_steps in 1u64..6,
            judgments in 1u32..3,
        ) {
            use crate::fault::LatencyModel;

            let instance = Instance::new((0..12).map(|i| i as f64 * 5.0).collect());
            let config = PlatformConfig::paper_default()
                .without_gold()
                .with_faults(
                    FaultConfig::none()
                        .with_abandon(abandon)
                        .with_no_answer(no_answer)
                        .with_latency(LatencyModel::Geometric { p: 0.5, cap: 12 })
                        .with_timeout_steps(timeout_steps),
                    fault_seed,
                )
                .with_retry(RetryPolicy::paper_default());
            let mut platform = Platform::new(
                instance,
                pool_with(10, 0),
                config,
                StdRng::seed_from_u64(seed),
            );
            for round in 0..8u32 {
                let units = regular_units(&[
                    (ElementId(round % 6), ElementId(6 + round % 6)),
                    (ElementId((round + 1) % 6), ElementId(11)),
                ]);
                if run_units(&mut platform, &units, judgments, WorkerClass::Naive).is_ok() {
                    let verdict = distinct_judges(&platform.scratch.judged);
                    prop_assert!(verdict.is_ok(), "{:?} (round {})", verdict, round);
                }
            }
            prop_assert_eq!(platform.ledger().judgments(), platform.counts().total());
        }
    }
}
