//! The crowd-serve service loop: admission, dispatch, execution,
//! journaling, and reporting.
//!
//! [`CrowdServe`] multiplexes concurrent max-finding jobs over sharded
//! worker pools on a logical clock. Each tick:
//!
//! 1. **Deadline sweep** — jobs past their deadline force-complete with
//!    [`DegradedReason::DeadlineLapsed`].
//! 2. **Admission** — the bounded FIFO queue drains head-of-line while
//!    tenant token buckets can fund each job's worst-case reservation.
//! 3. **Dispatch** — deficit-round-robin over active jobs hands pairs to
//!    shards, gated by per-shard windows (backpressure) and per-job
//!    reservations (budget).
//! 4. **WAL** — the tick's dispatch list is journaled and flushed
//!    *before* execution, so a crash can lose at most one tick of work.
//! 5. **Execution** — each dispatched pair runs on its shard; answers are
//!    charged to the owning tenant.
//! 6. **Completion** — finished jobs refund unused reservation and emit
//!    [`Event::JobCompleted`]; the tick's outcome record is journaled and
//!    flushed.
//!
//! Every decision is a pure function of `(config, arrival plan, seed,
//! logical clock)`: reruns are byte-identical, and
//! [`CrowdServe::resume`] replays a crashed run's journal as an audit
//! trail while rebuilding the exact same final state.
//!
//! The tick works on dense state:
//!
//! * **One tenant table.** Every per-tenant fact (token bucket, metric
//!   handles, SLO monitor, offered/admitted/shed counts, charges) lives in
//!   one `Vec` sorted by tenant id. `submit` finds the tenant's slot once;
//!   the queue entry and the admitted job carry it from there, so
//!   admission, execution and completion index instead of searching.
//! * **One pass per stage.** Dispatch visits the active jobs in id order
//!   every tick — the deficit-round-robin order, since admission is FIFO —
//!   and completion drops finished jobs in the same pass that attributes
//!   the survivors' tick.
//! * **Tick marks, not tick sets.** Dispatch and execution mark each job
//!   with what its tick did (ran a pair, needed a retry, hit the cache,
//!   stalled on quarantine); span attribution turns the marks into the
//!   tick's [`Stage`] and clears them.
//! * **Reused buffers.** The dispatch list, the cache hits and the lists
//!   of the tick's outcome record live in one scratch the service keeps
//!   across ticks, the journal encodes every record into a buffer of its
//!   own, and the tick's completions are the tail of the run's completion
//!   list. On a warm service a tick that admits and completes nothing
//!   makes no heap allocation (`tests/serve_alloc.rs`).

use crate::fault::{mix, report_fault};
use crate::journal::{fnv1a64, json_records, Journal, JOURNAL_VERSION};
use crate::retry::{report_dead_letter, RetryPolicy};
use crate::serve::arrival::ArrivalPlan;
use crate::serve::breaker::BreakerPolicy;
use crate::serve::cache::{CachePolicy, CacheStats, JudgmentCache};
use crate::serve::job::{ActiveJob, JobId, JobSpec};
use crate::serve::shard::{ShardSpec, WorkerShard, SHARD_TIE_POLICY};
use crate::serve::slo::{SloMonitor, SloPolicy, SloTransition};
use crate::serve::tenant::{TenantId, TenantPolicy, TokenBucket};
use crowd_core::element::ElementId;
use crowd_core::model::WorkerClass;
use crowd_core::trace::{DegradedReason, FaultCounts, FaultKind};
use crowd_obs::{
    emit, emit_span, names, series, stage_label, CounterId, Event, GaugeId, HistogramId, Stage,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Deficit-round-robin quantum, in judgments per job per tick.
pub const DRR_QUANTUM: u64 = 6;

/// Full configuration of a [`CrowdServe`] instance. Serialized into the
/// journal header as a digest so resume refuses mismatched configs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// The worker shards jobs dispatch onto.
    pub shards: Vec<ShardSpec>,
    /// The tenants allowed to submit, with their token buckets.
    pub tenants: Vec<TenantPolicy>,
    /// Bound on the admission queue; submissions beyond it are shed.
    pub queue_cap: usize,
    /// Retry allowance per pair (faults re-assign to fresh workers).
    pub retry: RetryPolicy,
    /// Circuit-breaker posture for every shard.
    pub breaker: BreakerPolicy,
    /// Phase-1 survivor target (jobs this small skip straight to Phase 2).
    pub finalists: usize,
    /// Vote boost when the expert phase falls back to the crowd.
    pub fallback_votes: u32,
    /// Percentage of a job's worst-case cost reserved at admission.
    /// `100` makes the budget gate unreachable (full prepayment);
    /// below 100 admits optimistically and jobs that outrun their
    /// reservation force-complete with [`DegradedReason::BudgetExhausted`].
    pub reserve_factor_percent: u64,
    /// The cross-job judgment cache posture: when a cached verdict may
    /// substitute for fresh judgments, and how much the store retains.
    pub cache: CachePolicy,
    /// Per-tenant SLO: sliding window, latency objective, error budget.
    pub slo: SloPolicy,
}

impl ServeConfig {
    /// A small two-shard (crowd + expert) service with one generous
    /// tenant — the starting point tests and experiments tune from.
    pub fn basic() -> Self {
        ServeConfig {
            shards: vec![
                ShardSpec::honest(WorkerClass::Naive, 16, 48),
                ShardSpec::honest(WorkerClass::Expert, 4, 12),
            ],
            tenants: vec![TenantPolicy::new(TenantId(0), 100_000, 1_000)],
            queue_cap: 32,
            retry: RetryPolicy::paper_default(),
            breaker: BreakerPolicy::default_on(),
            finalists: 2,
            fallback_votes: 5,
            reserve_factor_percent: 100,
            cache: CachePolicy::default_on(),
            slo: SloPolicy::default_on(),
        }
    }

    /// Replaces the tenant set.
    pub fn with_tenants(mut self, tenants: Vec<TenantPolicy>) -> Self {
        self.tenants = tenants;
        self
    }

    /// Replaces the shard set.
    pub fn with_shards(mut self, shards: Vec<ShardSpec>) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the admission-queue bound.
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap;
        self
    }

    /// Sets the breaker posture.
    pub fn with_breaker(mut self, breaker: BreakerPolicy) -> Self {
        self.breaker = breaker;
        self
    }

    /// Sets the admission reservation factor (clamped to ≥ 1).
    pub fn with_reserve_factor_percent(mut self, percent: u64) -> Self {
        self.reserve_factor_percent = percent.max(1);
        self
    }

    /// Sets the judgment-cache posture.
    pub fn with_cache(mut self, cache: CachePolicy) -> Self {
        self.cache = cache;
        self
    }

    /// Sets the per-tenant SLO posture.
    pub fn with_slo(mut self, slo: SloPolicy) -> Self {
        self.slo = slo;
        self
    }

    /// The config digest stamped into the journal header.
    pub fn digest(&self) -> u64 {
        let json = serde_json::to_string(self).expect("config serializes");
        fnv1a64(json.as_bytes())
    }
}

/// How a submission was received.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Admitted immediately; the tournament starts this tick.
    Admitted(JobId),
    /// Parked in the bounded admission queue.
    Queued(JobId),
    /// Shed. `retry_after` estimates the ticks until the tenant's bucket
    /// could fund the job (`u64::MAX`: the job can never fit the budget).
    Rejected {
        /// The id assigned to the shed submission.
        job: JobId,
        /// Earliest retry distance, in ticks.
        retry_after: u64,
    },
}

/// Why a resume attempt refused a journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeError {
    /// The journal has no intact `Started` header.
    MissingHeader,
    /// The journal was written by a different code version.
    VersionMismatch {
        /// Version found in the header.
        journal: u32,
        /// Version this code writes.
        code: u32,
    },
    /// The journal's config digest does not match the offered config.
    ConfigMismatch,
    /// The journal's seed does not match the offered seed.
    SeedMismatch {
        /// Seed found in the header.
        journal: u64,
        /// Seed offered to resume.
        code: u64,
    },
    /// The resumed run wrote a frame that differs from the journal's
    /// bytes at its offset, or ended before rewriting them — the journal
    /// lies or the environment changed.
    Diverged {
        /// The tick that wrote the first differing frame.
        tick: u64,
    },
}

/// Typed service errors. The service degrades rather than panics; these
/// are the conditions it cannot degrade through.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// A submission named a tenant the service has no bucket for.
    UnknownTenant(TenantId),
    /// A submission carried no elements.
    EmptyCatalog,
    /// The config has no shards to dispatch onto.
    NoShards,
    /// The config lists the same tenant twice.
    DuplicateTenant(TenantId),
    /// A resume attempt failed validation.
    Resume(ResumeError),
    /// A tick dispatched a pair for a job that is not active. Dispatch
    /// only lists active jobs, so this reports a broken invariant.
    JobNotActive(JobId),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownTenant(t) => write!(f, "unknown tenant {t}"),
            ServeError::EmptyCatalog => write!(f, "job carries no elements"),
            ServeError::NoShards => write!(f, "service configured with no shards"),
            ServeError::DuplicateTenant(t) => write!(f, "tenant {t} configured twice"),
            ServeError::Resume(e) => write!(f, "resume refused: {e:?}"),
            ServeError::JobNotActive(j) => write!(f, "dispatched job {j} is not active"),
        }
    }
}

impl std::error::Error for ServeError {}

json_records! {
    /// One dispatched pair, as journaled in the tick's WAL record.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
    pub struct DispatchRecord {
        /// The job the pair belongs to.
        pub job: u64,
        /// The shard it ran on.
        pub shard: u32,
        /// First element.
        pub k: u32,
        /// Second element.
        pub j: u32,
        /// Votes requested.
        pub votes: u32,
    }
}

json_records! {
    /// One pair served from the judgment cache instead of a shard, as
    /// journaled in the tick's `TickCached` audit record. Cached pairs
    /// consume no window slot and charge no tokens.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
    pub struct CacheHitRecord {
        /// The job the pair belongs to.
        pub job: u64,
        /// First element.
        pub k: u32,
        /// Second element.
        pub j: u32,
        /// Votes the cached verdict substituted for (the saving).
        pub votes: u32,
        /// The element the cached verdict advanced.
        pub winner: u32,
    }
}

json_records! {
    /// A finished job, as reported and journaled.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct CompletedJob {
        /// The job id.
        pub job: JobId,
        /// The owning tenant.
        pub tenant: TenantId,
        /// The winner the service returned.
        pub winner: ElementId,
        /// `None` for a full-protocol result.
        pub degraded: Option<DegradedReason>,
        /// Comparisons charged to the tenant.
        pub comparisons: u64,
        /// Tick the job was submitted.
        pub submitted: u64,
        /// Tick the job completed.
        pub completed: u64,
    }
}

impl CompletedJob {
    /// Submission-to-completion latency in ticks.
    pub fn latency_ticks(&self) -> u64 {
        self.completed.saturating_sub(self.submitted)
    }
}

json_records! {
    /// The service journal's record vocabulary, framed through the shared
    /// [`Journal`] so it shares the WAL torn-tail story. Its serde form is
    /// the reference: the tick writes each record through the encoders
    /// this declaration generates, byte for byte the same, and resume
    /// reads them back through `serde_json`.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    enum ServeRecord {
        /// The journal header.
        Started => started {
            version: u32,
            seed: u64,
            config_digest: u64,
        },
        /// The write-ahead half: what this tick is about to execute.
        TickScheduled => tick_scheduled {
            tick: u64,
            dispatches: Vec<DispatchRecord>,
        },
        /// Pairs this tick resolved from the judgment cache — an audit
        /// record (cache state is recomputed on replay, never read back),
        /// written only on ticks with at least one hit so cache-off and
        /// zero-overlap runs journal identical bytes.
        TickCached => tick_cached {
            tick: u64,
            hits: Vec<CacheHitRecord>,
        },
        /// The tick's outcome: shard stream positions, answers purchased,
        /// cumulative per-tenant charges, and completed jobs.
        TickCompleted => tick_completed {
            tick: u64,
            shard_seqs: Vec<u64>,
            answers: u64,
            charged: Vec<(u32, u64)>,
            completed: Vec<CompletedJob>,
        },
    }
}

/// Buffers the tick reuses from tick to tick: its dispatch list and cache
/// hits, and the lists its outcome record is built from, so a warm
/// service dispatches and journals without allocating.
#[derive(Debug, Default)]
struct TickScratch {
    dispatches: Vec<DispatchRecord>,
    hits: Vec<CacheHitRecord>,
    shard_seqs: Vec<u64>,
    charged: Vec<(u32, u64)>,
}

/// Per-tenant accounting, aggregated into the final report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantReport {
    /// The tenant.
    pub tenant: TenantId,
    /// Jobs submitted (admitted + queued + shed).
    pub offered: u64,
    /// Jobs admitted into execution.
    pub admitted: u64,
    /// Jobs shed by admission control.
    pub shed: u64,
    /// Jobs completed without degradation.
    pub completed_ok: u64,
    /// Jobs completed degraded, total.
    pub degraded: u64,
    /// Degradations by deadline lapse.
    pub degraded_deadline: u64,
    /// Degradations by expert exhaustion (crowd fallback).
    pub degraded_expert: u64,
    /// Degradations by reservation exhaustion.
    pub degraded_budget: u64,
    /// Degradations by dead-lettered pairs.
    pub degraded_dead_letters: u64,
    /// Comparisons charged to the tenant.
    pub comparisons: u64,
    /// Tokens the tenant's bucket ever dispensed.
    pub tokens_granted: u64,
    /// Tokens returned unused.
    pub tokens_refunded: u64,
    /// p99 completed-job latency, in ticks (0 when nothing completed).
    pub p99_latency_ticks: u64,
    /// Worst completed-job latency, in ticks.
    pub max_latency_ticks: u64,
    /// Healthy→breached SLO transitions over the run.
    pub slo_breaches: u64,
    /// Completions that violated the SLO (degraded, or over the latency
    /// objective), cumulative.
    pub slo_bad_jobs: u64,
    /// Worst sliding-window bad-completion rate seen, in basis points —
    /// the tenant's error-budget burn high watermark.
    pub slo_burn_max_bps: u32,
    /// True when the run ended with the SLO still breached.
    pub slo_breached_at_end: bool,
}

/// The final run report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Ticks the service ran.
    pub ticks: u64,
    /// Per-tenant accounting, sorted by tenant id.
    pub tenants: Vec<TenantReport>,
    /// Every completed job, in completion order.
    pub jobs: Vec<CompletedJob>,
    /// Circuit-breaker trips across all shards.
    pub breaker_trips: u64,
    /// Dead-lettered pairs across all jobs.
    pub dead_letters: u64,
    /// Jobs shed across all tenants.
    pub shed: u64,
    /// Comparisons charged across all tenants.
    pub comparisons: u64,
    /// Pairs served from the judgment cache instead of a shard.
    ///
    /// Only *hit-side* cache fields live in the report: zero at zero
    /// catalog overlap, so a cache-on zero-overlap report compares equal
    /// to a cache-off one (misses and evictions stay in
    /// [`CrowdServe::cache_stats`] and the obs counters).
    pub cache_hits: u64,
    /// Comparisons (votes) those hits avoided buying.
    pub cache_saved_comparisons: u64,
}

/// Which shard a dispatch attempt landed on, or why none could take it.
enum ShardPick {
    Ready(usize),
    NoHealthy,
    NoCapacity,
}

/// One tenant's metric handles, registered when the service is built.
#[derive(Debug, Clone, Copy)]
struct TenantMetrics {
    shed: CounterId,
    comparisons: CounterId,
    /// `crowd_serve_jobs_total` by outcome: `ok`, then `degraded`.
    jobs: [CounterId; 2],
    job_latency: HistogramId,
    /// `crowd_serve_stage_ticks`, indexed by [`Stage`] discriminant.
    stage_ticks: [HistogramId; Stage::ALL.len()],
    slo_breaches: CounterId,
    p99_latency: GaugeId,
    max_latency: GaugeId,
    slo_burn: GaugeId,
}

impl TenantMetrics {
    fn register(tenant: TenantId) -> Self {
        let label = tenant.to_string();
        let tenant = [("tenant", label.as_str())];
        TenantMetrics {
            shed: CounterId::new(names::SERVE_SHED_TOTAL, &tenant),
            comparisons: CounterId::new(names::SERVE_COMPARISONS_TOTAL, &tenant),
            jobs: ["ok", "degraded"].map(|outcome| {
                CounterId::new(names::SERVE_JOBS_TOTAL, &[tenant[0], ("outcome", outcome)])
            }),
            job_latency: HistogramId::new(names::SERVE_JOB_LATENCY_TICKS, &tenant),
            stage_ticks: Stage::ALL.map(|stage| {
                HistogramId::new(
                    names::SERVE_STAGE_TICKS,
                    &[tenant[0], ("stage", stage_label(stage))],
                )
            }),
            slo_breaches: CounterId::new(names::SERVE_SLO_BREACHES_TOTAL, &tenant),
            p99_latency: GaugeId::new(names::SERVE_P99_LATENCY_TICKS, &tenant),
            max_latency: GaugeId::new(names::SERVE_MAX_LATENCY_TICKS, &tenant),
            slo_burn: GaugeId::new(names::SERVE_SLO_BURN_BPS, &tenant),
        }
    }
}

/// One row of the service's tenant table.
#[derive(Debug)]
struct TenantState {
    tenant: TenantId,
    bucket: TokenBucket,
    metrics: TenantMetrics,
    slo: SloMonitor,
    /// Comparisons charged so far; `None` until the tenant's first pair
    /// executes, because the journal's `charged` list names only tenants
    /// that have been charged (a pair answered 0 times counts).
    charged: Option<u64>,
    /// Answers bought this tick, added to the comparisons counter once at
    /// the end of execution; `None` when no pair of the tenant ran.
    tick_charged: Option<u64>,
    offered: u64,
    admitted: u64,
    shed: u64,
}

/// A submission parked in the admission queue.
#[derive(Debug)]
struct Queued {
    job: JobId,
    spec: JobSpec,
    submitted: u64,
    /// The tenant's slot in the tenant table.
    slot: usize,
}

/// The overload-robust multi-tenant job service.
#[derive(Debug)]
pub struct CrowdServe {
    config: ServeConfig,
    seed: u64,
    tick: u64,
    next_job: u64,
    shards: Vec<WorkerShard>,
    cache: JudgmentCache,
    /// Per-tenant state, sorted by tenant id.
    tenants: Vec<TenantState>,
    queue: VecDeque<Queued>,
    active: BTreeMap<JobId, ActiveJob>,
    journal: Journal,
    scratch: TickScratch,
    completed: Vec<CompletedJob>,
    dead_letters: u64,
    /// Faults the service observed itself (expert fallbacks); the shards
    /// keep their own.
    faults: FaultCounts,
    queue_depth_max: usize,
}

impl CrowdServe {
    /// Builds a service at tick 0 and journals the `Started` header.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoShards`] on an empty shard set,
    /// [`ServeError::DuplicateTenant`] when a tenant is configured twice.
    pub fn new(config: ServeConfig, seed: u64) -> Result<Self, ServeError> {
        Self::journaling(config, seed, Journal::new())
    }

    /// [`new`](Self::new) over `journal`: a [`Journal::resuming`] one
    /// makes every frame the service writes an audit of a crashed run's.
    fn journaling(
        config: ServeConfig,
        seed: u64,
        mut journal: Journal,
    ) -> Result<Self, ServeError> {
        if config.shards.is_empty() {
            return Err(ServeError::NoShards);
        }
        let mut tenants: Vec<TenantState> = Vec::with_capacity(config.tenants.len());
        for policy in &config.tenants {
            let Err(slot) = tenants.binary_search_by_key(&policy.tenant, |t| t.tenant) else {
                return Err(ServeError::DuplicateTenant(policy.tenant));
            };
            tenants.insert(
                slot,
                TenantState {
                    tenant: policy.tenant,
                    bucket: TokenBucket::new(*policy),
                    metrics: TenantMetrics::register(policy.tenant),
                    slo: SloMonitor::new(),
                    charged: None,
                    tick_charged: None,
                    offered: 0,
                    admitted: 0,
                    shed: 0,
                },
            );
        }
        let shards = config
            .shards
            .iter()
            .enumerate()
            .map(|(i, spec)| WorkerShard::new(i as u32, *spec, mix(seed ^ 0x5E)))
            .collect();
        let header = ServeRecord::Started {
            version: JOURNAL_VERSION,
            seed,
            config_digest: config.digest(),
        };
        journal.append_with(|out| header.encode(out));
        journal.flush();
        let cache = JudgmentCache::new(config.cache);
        Ok(CrowdServe {
            config,
            seed,
            tick: 0,
            next_job: 0,
            shards,
            cache,
            tenants,
            queue: VecDeque::new(),
            active: BTreeMap::new(),
            journal,
            scratch: TickScratch::default(),
            completed: Vec::new(),
            dead_letters: 0,
            faults: FaultCounts::zero(),
            queue_depth_max: 0,
        })
    }

    /// The current logical clock.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// The seed the service was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The service journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Faults observed across all shards plus the service's own expert
    /// fallbacks, by class and kind.
    pub fn fault_counts(&self) -> FaultCounts {
        self.shards
            .iter()
            .fold(self.faults, |sum, s| sum + s.fault_counts())
    }

    /// The judgment cache's full counter set — including the miss and
    /// eviction counters deliberately kept out of [`ServeReport`].
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// A tenant's worst-case reservation for `spec` under this config.
    fn reservation(&self, spec: &JobSpec) -> u64 {
        let worst = spec.worst_cost(self.config.fallback_votes, self.config.retry.max_retries);
        worst.saturating_mul(self.config.reserve_factor_percent) / 100
    }

    /// Submits a job at the current tick.
    ///
    /// Shed submissions leave **no residue**: no journal bytes, no bucket
    /// movement, no active state — only the [`Event::JobShed`] event and
    /// shed counter, so a retried submission replays identically.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] / [`ServeError::EmptyCatalog`] on
    /// malformed submissions.
    pub fn submit(&mut self, spec: JobSpec) -> Result<Admission, ServeError> {
        if spec.values.is_empty() {
            return Err(ServeError::EmptyCatalog);
        }
        let slot = self
            .tenants
            .binary_search_by_key(&spec.tenant, |t| t.tenant)
            .map_err(|_| ServeError::UnknownTenant(spec.tenant))?;
        let job = JobId(self.next_job);
        self.next_job += 1;
        let reserved = self.reservation(&spec);
        let tick = self.tick;
        let tenant = &mut self.tenants[slot];
        tenant.offered += 1;

        if reserved > tenant.bucket.policy().capacity {
            return Ok(self.shed(job, slot, u64::MAX));
        }
        if self.queue.is_empty() && tenant.bucket.try_reserve(reserved, tick) {
            self.admit(job, spec, slot, tick, reserved, 0);
            return Ok(Admission::Admitted(job));
        }
        if self.queue.len() < self.config.queue_cap {
            self.queue.push_back(Queued {
                job,
                spec,
                submitted: tick,
                slot,
            });
            self.queue_depth_max = self.queue_depth_max.max(self.queue.len());
            series::queue_depth_max().set(self.queue.len() as i64);
            return Ok(Admission::Queued(job));
        }
        let retry_after = tenant.bucket.ticks_until(reserved, tick).max(1);
        Ok(self.shed(job, slot, retry_after))
    }

    fn shed(&mut self, job: JobId, slot: usize, retry_after: u64) -> Admission {
        let tenant = &mut self.tenants[slot];
        tenant.shed += 1;
        emit(Event::JobShed {
            tenant: tenant.tenant.0,
            job: job.0,
            retry_after,
        });
        tenant.metrics.shed.add(1);
        Admission::Rejected { job, retry_after }
    }

    fn admit(
        &mut self,
        job: JobId,
        spec: JobSpec,
        slot: usize,
        submitted: u64,
        reserved: u64,
        waited: u64,
    ) {
        self.tenants[slot].admitted += 1;
        emit(Event::JobAdmitted {
            tenant: spec.tenant.0,
            job: job.0,
            waited_ticks: waited,
        });
        let mut active = ActiveJob::new(
            job,
            spec,
            submitted,
            self.tick,
            reserved,
            self.config.finalists,
            self.config.fallback_votes,
        );
        active.tenant_slot = slot;
        self.active.insert(job, active);
    }

    /// Advances the service one tick.
    ///
    /// # Errors
    ///
    /// [`ResumeError::Diverged`] (as [`ServeError::Resume`]) when a
    /// resumed run's tick mismatches its journal;
    /// [`ServeError::JobNotActive`] on a broken dispatch invariant.
    pub fn step(&mut self) -> Result<(), ServeError> {
        let tick = self.tick;

        // 1. Deadline sweep. Jobs force-finish between rounds only: a
        // pair dispatched in an earlier tick has already resolved (ticks
        // execute synchronously), so no outcome can land after Done.
        for job in self.active.values_mut() {
            if !job.is_done() && tick >= job.deadline {
                job.force_finish(DegradedReason::DeadlineLapsed);
            }
        }

        // 2. Head-of-line admission: drain the queue while buckets allow.
        while let Some(head) = self.queue.front() {
            let reserved = self.reservation(&head.spec);
            if !self.tenants[head.slot].bucket.try_reserve(reserved, tick) {
                break;
            }
            let Queued {
                job,
                spec,
                submitted,
                slot,
            } = self.queue.pop_front().expect("the head was just read");
            self.admit(job, spec, slot, submitted, reserved, tick - submitted);
        }

        // 3. Dispatch. Cache lookups happen inside the dispatch pass,
        // before any shard is picked: a hit resolves its pair on the spot
        // and never consumes a window slot or a token.
        for shard in &mut self.shards {
            shard.begin_tick();
        }
        let cache_before = self.cache.stats();
        let mut dispatches = std::mem::take(&mut self.scratch.dispatches);
        let mut hits = std::mem::take(&mut self.scratch.hits);
        dispatches.clear();
        hits.clear();
        self.dispatch_tick(&mut dispatches, &mut hits);

        // 4. WAL: the dispatch list is durable before any worker is
        // asked. Cache hits are journaled alongside it (audit only: a
        // replay recomputes them; it never reads them back) — but only on
        // ticks that had one, so a run that never hits journals exactly
        // the bytes a cache-off run does.
        let wal_appended = !hits.is_empty() || !dispatches.is_empty();
        if !hits.is_empty() {
            self.journal
                .append_with(|out| tick_cached(out, tick, &hits));
        }
        if !dispatches.is_empty() {
            self.journal
                .append_with(|out| tick_scheduled(out, tick, &dispatches));
        }
        if wal_appended {
            self.journal.flush();
        }
        self.audit(tick)?;

        // 5. Execute, in dispatch order.
        let tick_answers = self.execute(tick, &dispatches)?;
        let dispatched = !dispatches.is_empty();
        self.scratch.dispatches = dispatches;
        self.scratch.hits = hits;

        // Cache observability: one delta per tick keeps counter traffic
        // bounded, and guarding on nonzero deltas keeps a cache that
        // never moves invisible in the metrics exposition.
        let cache_after = self.cache.stats();
        let deltas = [
            (series::cache_hits(), cache_after.hits - cache_before.hits),
            (
                series::cache_misses(),
                cache_after.misses - cache_before.misses,
            ),
            (
                series::cache_evictions(),
                cache_after.evictions - cache_before.evictions,
            ),
        ];
        for (counter, delta) in deltas {
            if delta > 0 {
                counter.add(delta);
            }
        }

        // 6. Completion: budget stalls finish degraded, done jobs leave,
        // in id order. Span attribution rides the same pass: each
        // surviving job charges this tick to exactly one active stage,
        // read off its tick marks. A job that completes here is gone —
        // its completion tick is, by definition, not part of its latency.
        let first_completion = self.completed.len();
        let (tenants, completed, slo) = (&mut self.tenants, &mut self.completed, &self.config.slo);
        self.active.retain(|_, job| {
            if job.budget_stalled && !job.is_done() {
                job.force_finish(DegradedReason::BudgetExhausted);
            }
            if job.is_done() {
                completed.push(Self::complete(
                    job,
                    tick,
                    &mut tenants[job.tenant_slot],
                    slo,
                ));
                return false;
            }
            job.stages.record(job.marks.take_stage(), tick);
            true
        });

        // SLO evaluation runs every tick — recovery can arrive on a
        // quiet tick purely by bad completions aging out of the window.
        for t in &mut self.tenants {
            match t.slo.evaluate(tick, &self.config.slo) {
                Some(SloTransition::Breached {
                    window_jobs,
                    bad_jobs,
                    bad_bps,
                }) => {
                    emit(Event::SloBreached {
                        tenant: t.tenant.0,
                        tick,
                        window_jobs,
                        bad_jobs,
                        bad_bps,
                    });
                    t.metrics.slo_breaches.add(1);
                }
                Some(SloTransition::Recovered {
                    window_jobs,
                    bad_bps,
                }) => {
                    emit(Event::SloRecovered {
                        tenant: t.tenant.0,
                        tick,
                        window_jobs,
                        bad_bps,
                    });
                }
                None => {}
            }
        }

        // 7. Journal the tick outcome and make it durable.
        let completions = &self.completed[first_completion..];
        if dispatched || !completions.is_empty() {
            let TickScratch {
                shard_seqs,
                charged,
                ..
            } = &mut self.scratch;
            shard_seqs.clear();
            shard_seqs.extend(self.shards.iter().map(WorkerShard::seq));
            charged.clear();
            charged.extend(
                self.tenants
                    .iter()
                    .filter_map(|t| t.charged.map(|c| (t.tenant.0, c))),
            );
            self.journal.append_with(|out| {
                tick_completed(out, tick, shard_seqs, tick_answers, charged, completions)
            });
            self.audit(tick)?;
            let bytes = self.journal.flush();
            emit(Event::CheckpointWritten {
                batches: tick + 1,
                bytes,
            });
            series::journal_bytes().add(bytes);
        }

        self.tick += 1;
        Ok(())
    }

    /// Closes a finished job at `tick`: refunds its unused reservation,
    /// emits its completion event, metrics and span tree, and feeds the
    /// tenant's SLO window. Returns the job's record.
    fn complete(
        job: &ActiveJob,
        tick: u64,
        tenant: &mut TenantState,
        slo: &SloPolicy,
    ) -> CompletedJob {
        tenant
            .bucket
            .refund(job.reserved.saturating_sub(job.charged), tick);
        let record = CompletedJob {
            job: job.id,
            tenant: job.tenant,
            winner: job.winner.expect("done jobs carry a winner"),
            degraded: job.degraded,
            comparisons: job.charged,
            submitted: job.submitted,
            completed: tick,
        };
        emit(Event::JobCompleted {
            tenant: job.tenant.0,
            job: job.id.0,
            latency_ticks: record.latency_ticks(),
            comparisons: job.charged,
            degraded: job.degraded,
        });
        let metrics = &tenant.metrics;
        metrics.jobs[usize::from(job.degraded.is_some())].add(1);
        metrics.job_latency.observe(record.latency_ticks());
        // Close the job's span tree. The accumulator recorded exactly
        // one stage per tick the job survived, so the spans partition
        // the latency — the accounting invariant `serve_trace` audits.
        let spans = job
            .stages
            .job_spans(job.tenant.0, job.id.0, job.submitted, job.admitted, tick);
        debug_assert_eq!(
            spans.iter().map(|s| s.ticks).sum::<u64>(),
            record.latency_ticks(),
            "stage spans must partition job {} latency",
            job.id
        );
        for span in &spans {
            emit_span(*span);
            if span.ticks > 0 {
                metrics.stage_ticks[span.stage as usize].observe(span.ticks);
            }
        }
        let bad = record.degraded.is_some() || record.latency_ticks() > slo.latency_objective_ticks;
        tenant.slo.record(tick, bad);
        record
    }

    /// [`ResumeError::Diverged`] at `tick` once a resumed run's journal
    /// has written a frame that differs from the crashed run's.
    fn audit(&self, tick: u64) -> Result<(), ServeError> {
        if self.journal.diverged() {
            return Err(ServeError::Resume(ResumeError::Diverged { tick }));
        }
        Ok(())
    }

    /// Runs the tick's dispatched pairs on their shards, in dispatch
    /// order: each outcome is charged to and fed into its job, and each
    /// clean verdict goes into the cache. Marks every job that ran a pair,
    /// and whether any of its pairs needed the retry layer — the facts
    /// span attribution classifies the tick by. Returns the answers
    /// bought.
    ///
    /// # Errors
    ///
    /// [`ServeError::JobNotActive`] when a dispatch names a job that is
    /// not active.
    fn execute(&mut self, tick: u64, dispatches: &[DispatchRecord]) -> Result<u64, ServeError> {
        let mut tick_answers = 0u64;
        for d in dispatches {
            let id = JobId(d.job);
            let job = self
                .active
                .get_mut(&id)
                .ok_or(ServeError::JobNotActive(id))?;
            let (vk, vj) = (job.values[d.k as usize], job.values[d.j as usize]);
            let shard = &mut self.shards[d.shard as usize];
            let out = shard.execute_pair(
                tick,
                ElementId(d.k),
                vk,
                ElementId(d.j),
                vj,
                d.votes,
                self.config.retry.max_retries,
                &self.config.breaker,
            );
            // A clean, fully-voted verdict becomes a cache asset for
            // every later job that compares the same two values.
            if out.dead.is_none() && out.answers >= d.votes {
                if let Some(w) = out.winner {
                    self.cache.insert(
                        vk,
                        vj,
                        shard.class(),
                        SHARD_TIE_POLICY,
                        w == ElementId(d.k),
                        d.votes,
                        tick,
                    );
                }
            }
            job.charged += u64::from(out.answers);
            tick_answers += u64::from(out.answers);
            job.marks.executed = true;
            job.marks.retried |= out.dead.is_some() || out.attempts > d.votes;
            let tenant = &mut self.tenants[job.tenant_slot];
            *tenant.charged.get_or_insert(0) += u64::from(out.answers);
            *tenant.tick_charged.get_or_insert(0) += u64::from(out.answers);
            if let Some(reason) = out.dead {
                self.dead_letters += 1;
                report_dead_letter(shard.class(), out.attempts, reason);
            }
            job.feed((ElementId(d.k), ElementId(d.j)), out.winner);
        }
        for tenant in &mut self.tenants {
            if let Some(answers) = tenant.tick_charged.take() {
                tenant.metrics.comparisons.add(answers);
            }
        }
        Ok(tick_answers)
    }

    /// One deficit-round-robin pass over the active jobs, in id order:
    /// every tick visits every job once, so the rotation never needs a
    /// queue of its own. Appends the pairs handed to shards to `out` and
    /// the pairs the judgment cache resolved without one to `hits`, and
    /// marks the jobs whose tick stalled because every worker of the
    /// needed class was quarantined (span attribution:
    /// [`Stage::BreakerQuarantine`]).
    fn dispatch_tick(&mut self, out: &mut Vec<DispatchRecord>, hits: &mut Vec<CacheHitRecord>) {
        let tick = self.tick;
        let max_retries = self.config.retry.max_retries;
        for job in self.active.values_mut() {
            if job.is_done() || job.budget_stalled {
                continue;
            }
            // Cap banked deficit so an idle job cannot burst unboundedly.
            job.deficit = (job.deficit + DRR_QUANTUM).min(4 * DRR_QUANTUM);
            loop {
                if job.is_done() || !job.has_ready_pair() {
                    break;
                }
                let (class, votes) = job.class_and_votes();
                // Cache first: a hit resolves the pair right here —
                // before the deficit, reservation, and window gates,
                // because a cached verdict consumes none of the three.
                // Nothing is charged, committed, or reserved for it.
                if let Some((pk, pj)) = job.peek_pair() {
                    let (vk, vj) = (job.values[pk.0 as usize], job.values[pj.0 as usize]);
                    if let Some(k_wins) =
                        self.cache
                            .lookup(vk, vj, class, SHARD_TIE_POLICY, votes, tick)
                    {
                        let (k, j) = job.next_pair().expect("peeked pair is ready");
                        let winner = if k_wins { k } else { j };
                        hits.push(CacheHitRecord {
                            job: job.id.0,
                            k: k.0,
                            j: j.0,
                            votes,
                            winner: winner.0,
                        });
                        job.marks.cache_hit = true;
                        job.feed((k, j), Some(winner));
                        continue;
                    }
                }
                if job.deficit < u64::from(votes) {
                    break;
                }
                let pair_worst = u64::from(votes) * u64::from(1 + max_retries);
                if job.reserved.saturating_sub(job.committed) < pair_worst {
                    // The reservation cannot fund another worst-case
                    // pair: stop dispatching, finish degraded at the end
                    // of the tick. This gate is what keeps per-tenant
                    // charges provably within the bucket's dispensed
                    // tokens — charges follow dispatches, never lead.
                    job.budget_stalled = true;
                    break;
                }
                match Self::pick_shard(&self.shards, class, votes, tick) {
                    ShardPick::Ready(sidx) => {
                        let (k, j) = job.next_pair().expect("ready pair checked");
                        self.shards[sidx].reserve_window(votes);
                        job.committed += pair_worst;
                        job.deficit -= u64::from(votes);
                        out.push(DispatchRecord {
                            job: job.id.0,
                            shard: sidx as u32,
                            k: k.0,
                            j: j.0,
                            votes,
                        });
                    }
                    ShardPick::NoHealthy => {
                        if class == WorkerClass::Expert {
                            // Graceful degradation: the expert pool is
                            // quarantined/dropped out, so finish the job
                            // on the crowd with boosted votes instead of
                            // hanging until the deadline.
                            job.mark_degraded(DegradedReason::ExpertExhausted);
                            report_fault(&mut self.faults, class, FaultKind::ExpertFallback);
                            continue;
                        }
                        // Crowd quarantine storm: the pair waits for a
                        // half-open probe to reopen capacity (or the
                        // deadline to lapse). Explicit, bounded waiting.
                        job.marks.quarantined = true;
                        break;
                    }
                    ShardPick::NoCapacity => break, // backpressure: next tick
                }
            }
        }
    }

    /// Routes a pair to the least-loaded shard of `class` with healthy
    /// workers and window room (ties: lowest shard id).
    fn pick_shard(shards: &[WorkerShard], class: WorkerClass, votes: u32, tick: u64) -> ShardPick {
        let mut any_healthy = false;
        let mut best: Option<(u32, usize)> = None;
        for (i, shard) in shards.iter().enumerate() {
            if shard.class() != class || shard.healthy_workers(tick) == 0 {
                continue;
            }
            any_healthy = true;
            let window = shard.remaining_window();
            if window < votes {
                continue;
            }
            if best.is_none_or(|(w, _)| window > w) {
                best = Some((window, i));
            }
        }
        match best {
            Some((_, i)) => ShardPick::Ready(i),
            None if any_healthy => ShardPick::NoCapacity,
            None => ShardPick::NoHealthy,
        }
    }

    /// Drives the service over an arrival plan until the offered load is
    /// fully resolved, or `max_ticks` is reached (any stragglers then
    /// force-finish degraded and the remaining queue is shed).
    ///
    /// # Errors
    ///
    /// Propagates submission errors from malformed arrival plans and the
    /// errors of [`CrowdServe::step`].
    pub fn run(&mut self, plan: &ArrivalPlan, max_ticks: u64) -> Result<ServeReport, ServeError> {
        loop {
            let t = self.tick;
            for spec in plan.arrivals_at(t) {
                self.submit(spec)?;
            }
            self.step()?;
            if plan.exhausted(t) && self.active.is_empty() && self.queue.is_empty() {
                break;
            }
            if self.tick >= max_ticks {
                // Safety drain: never hang. Stragglers complete degraded,
                // queued jobs shed.
                for job in self.active.values_mut() {
                    if !job.is_done() {
                        job.force_finish(DegradedReason::DeadlineLapsed);
                    }
                }
                while let Some(queued) = self.queue.pop_front() {
                    self.shed(queued.job, queued.slot, u64::MAX);
                }
                self.step()?;
                break;
            }
        }
        let bytes = self.journal.flush();
        if bytes > 0 {
            emit(Event::CheckpointWritten {
                batches: self.tick,
                bytes,
            });
            series::journal_bytes().add(bytes);
        }
        let report = self.report();
        // Flow the report's latency tails and SLO burn into the metrics
        // exposition as per-tenant high watermarks — skipping tenants
        // with no completions, matching the report's zero semantics.
        for (t, state) in report.tenants.iter().zip(&self.tenants) {
            if t.completed_ok + t.degraded == 0 {
                continue;
            }
            state.metrics.p99_latency.set(t.p99_latency_ticks as i64);
            state.metrics.max_latency.set(t.max_latency_ticks as i64);
            state.metrics.slo_burn.set(i64::from(t.slo_burn_max_bps));
        }
        Ok(report)
    }

    /// The report over everything completed so far.
    pub fn report(&self) -> ServeReport {
        let mut tenants = Vec::new();
        for t in &self.tenants {
            let jobs: Vec<&CompletedJob> = self
                .completed
                .iter()
                .filter(|j| j.tenant == t.tenant)
                .collect();
            let mut latencies: Vec<u64> = jobs.iter().map(|j| j.latency_ticks()).collect();
            latencies.sort_unstable();
            let p99 = if latencies.is_empty() {
                0
            } else {
                latencies[(latencies.len() - 1) * 99 / 100]
            };
            let count_degraded = |reason: DegradedReason| {
                jobs.iter().filter(|j| j.degraded == Some(reason)).count() as u64
            };
            tenants.push(TenantReport {
                tenant: t.tenant,
                offered: t.offered,
                admitted: t.admitted,
                shed: t.shed,
                completed_ok: jobs.iter().filter(|j| j.degraded.is_none()).count() as u64,
                degraded: jobs.iter().filter(|j| j.degraded.is_some()).count() as u64,
                degraded_deadline: count_degraded(DegradedReason::DeadlineLapsed),
                degraded_expert: count_degraded(DegradedReason::ExpertExhausted),
                degraded_budget: count_degraded(DegradedReason::BudgetExhausted),
                degraded_dead_letters: count_degraded(DegradedReason::DeadLetters),
                comparisons: t.charged.unwrap_or(0),
                tokens_granted: t.bucket.granted(),
                tokens_refunded: t.bucket.refunded(),
                p99_latency_ticks: p99,
                max_latency_ticks: latencies.last().copied().unwrap_or(0),
                slo_breaches: t.slo.breaches(),
                slo_bad_jobs: t.slo.bad_total(),
                slo_burn_max_bps: t.slo.burn_max_bps(),
                slo_breached_at_end: t.slo.breached(),
            });
        }
        ServeReport {
            ticks: self.tick,
            tenants,
            jobs: self.completed.clone(),
            breaker_trips: self.shards.iter().map(|s| s.trips()).sum(),
            dead_letters: self.dead_letters,
            shed: self.tenants.iter().map(|t| t.shed).sum(),
            comparisons: self.tenants.iter().filter_map(|t| t.charged).sum(),
            cache_hits: self.cache.stats().hits,
            cache_saved_comparisons: self.cache.stats().saved_comparisons,
        }
    }

    /// Resumes a crashed run from its durable journal bytes: validates
    /// the header, then re-runs the whole plan from tick 0 into a
    /// [`Journal::resuming`] journal. Every decision is deterministic, so
    /// the rerun rewrites the crashed run's intact frames byte for byte;
    /// the first frame of tick `t` that differs errors with
    /// [`ResumeError::Diverged`] `{ tick: t }`, before any shard is asked
    /// for the tick when it is a write-ahead record. The final journal is
    /// then byte-identical to an uninterrupted run's.
    ///
    /// Returns the report plus the finished service, whose journal's
    /// durable bytes callers can compare against an uninterrupted run.
    ///
    /// # Errors
    ///
    /// [`ServeError::Resume`] on validation or audit failure; the same
    /// errors as [`CrowdServe::run`] afterwards.
    pub fn resume(
        config: ServeConfig,
        seed: u64,
        plan: &ArrivalPlan,
        bytes: &[u8],
        max_ticks: u64,
    ) -> Result<(ServeReport, CrowdServe), ServeError> {
        let decoded = Journal::decode_json(bytes);
        let mut records = decoded
            .frames
            .iter()
            .map(|(json, _)| serde_json::from_str::<ServeRecord>(json));
        let Some(Ok(ServeRecord::Started {
            version,
            seed: jseed,
            config_digest,
        })) = records.next()
        else {
            return Err(ServeError::Resume(ResumeError::MissingHeader));
        };
        if version != JOURNAL_VERSION {
            return Err(ServeError::Resume(ResumeError::VersionMismatch {
                journal: version,
                code: JOURNAL_VERSION,
            }));
        }
        if jseed != seed {
            return Err(ServeError::Resume(ResumeError::SeedMismatch {
                journal: jseed,
                code: seed,
            }));
        }
        if config_digest != config.digest() {
            return Err(ServeError::Resume(ResumeError::ConfigMismatch));
        }
        let (mut ticks, mut answers) = (0u64, 0u64);
        for record in records.flatten() {
            if let ServeRecord::TickCompleted { answers: a, .. } = record {
                ticks += 1;
                answers += a;
            }
        }
        emit(Event::RecoveryStarted {
            batches: ticks,
            torn_tail: decoded.torn_tail,
        });
        let journal = Journal::resuming(&bytes[..decoded.valid_bytes]);
        let mut service = CrowdServe::journaling(config, seed, journal)?;
        let report = service.run(plan, max_ticks)?;
        if service.journal.auditing() {
            // The rerun ended without rewriting the crashed run's frames.
            return Err(ServeError::Resume(ResumeError::Diverged {
                tick: service.tick,
            }));
        }
        if ticks > 0 {
            series::replayed_comparisons().add(answers);
        }
        emit(Event::RecoveryCompleted {
            replayed_batches: ticks,
            replayed_comparisons: answers,
        });
        Ok((report, service))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A SplitMix64 stream of record fields.
    struct Fields(u64);

    impl Fields {
        fn word(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(1);
            mix(self.0)
        }

        /// 0, `max`, small, or anything up to `max`, a quarter of the
        /// time each.
        fn int(&mut self, max: u64) -> u64 {
            let w = self.word();
            match w & 3 {
                0 => 0,
                1 => max,
                2 => (w >> 2) % 100,
                _ => (w >> 2) & max,
            }
        }

        fn small(&mut self) -> u32 {
            self.int(u32::MAX.into()) as u32
        }

        fn big(&mut self) -> u64 {
            self.int(u64::MAX)
        }

        /// A list length in 0..=4.
        fn len(&mut self) -> usize {
            (self.word() % 5) as usize
        }
    }

    /// A random record drawn from a SplitMix64 stream over `seed`.
    fn arbitrary_record(seed: u64) -> ServeRecord {
        let mut f = Fields(seed);
        let tick = f.big();
        match f.word() % 4 {
            3 => ServeRecord::Started {
                version: f.small(),
                seed: tick,
                config_digest: f.big(),
            },
            0 => ServeRecord::TickScheduled {
                tick,
                dispatches: (0..f.len())
                    .map(|_| DispatchRecord {
                        job: f.big(),
                        shard: f.small(),
                        k: f.small(),
                        j: f.small(),
                        votes: f.small(),
                    })
                    .collect(),
            },
            1 => ServeRecord::TickCached {
                tick,
                hits: (0..f.len())
                    .map(|_| CacheHitRecord {
                        job: f.big(),
                        k: f.small(),
                        j: f.small(),
                        votes: f.small(),
                        winner: f.small(),
                    })
                    .collect(),
            },
            _ => ServeRecord::TickCompleted {
                tick,
                shard_seqs: (0..f.len()).map(|_| f.big()).collect(),
                answers: f.big(),
                charged: (0..f.len()).map(|_| (f.small(), f.big())).collect(),
                completed: (0..f.len())
                    .map(|_| CompletedJob {
                        job: JobId(f.big()),
                        tenant: TenantId(f.small()),
                        winner: ElementId(f.small()),
                        // Index 4 is past `ALL`: `None`.
                        degraded: DegradedReason::ALL.get((f.word() % 5) as usize).copied(),
                        comparisons: f.big(),
                        submitted: f.big(),
                        completed: f.big(),
                    })
                    .collect(),
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The generated encoders write exactly serde's bytes for every
        /// record, the `Started` header included, and they decode back to
        /// the record they came from.
        #[test]
        fn tick_records_encode_like_serde(seed in any::<u64>()) {
            let record = arbitrary_record(seed);
            let mut out = Vec::new();
            record.encode(&mut out);
            let json = String::from_utf8(out).expect("the encoder writes UTF-8");
            prop_assert_eq!(&json, &serde_json::to_string(&record).expect("record serializes"));
            let decoded: ServeRecord = serde_json::from_str(&json).expect("record decodes");
            prop_assert_eq!(decoded, record);
        }
    }

    #[test]
    fn arbitrary_records_cover_every_shape() {
        let records: Vec<ServeRecord> = (0..1024).map(arbitrary_record).collect();
        let completed = || {
            records.iter().flat_map(|r| match r {
                ServeRecord::TickCompleted { completed, .. } => completed.as_slice(),
                _ => &[],
            })
        };
        for reason in DegradedReason::ALL.map(Some).into_iter().chain([None]) {
            assert!(completed().any(|c| c.degraded == reason), "{reason:?}");
        }
        assert!(completed().any(|c| c.comparisons == u64::MAX && c.winner.0 == u32::MAX));
        let empty_lists = records.iter().filter(|r| match r {
            ServeRecord::TickScheduled { dispatches, .. } => dispatches.is_empty(),
            ServeRecord::TickCached { hits, .. } => hits.is_empty(),
            ServeRecord::TickCompleted { completed, .. } => completed.is_empty(),
            ServeRecord::Started { .. } => false,
        });
        assert!(empty_lists.count() > 0);
        assert!(records
            .iter()
            .any(|r| matches!(r, ServeRecord::Started { version, .. } if *version == u32::MAX)));
    }

    #[test]
    fn the_journal_header_is_encoded_like_serde() {
        let service = CrowdServe::new(ServeConfig::basic(), 7).expect("config is valid");
        let header = ServeRecord::Started {
            version: JOURNAL_VERSION,
            seed: 7,
            config_digest: ServeConfig::basic().digest(),
        };
        let frames = Journal::decode_json(&service.journal().durable().to_vec()).frames;
        assert_eq!(frames.len(), 1);
        assert_eq!(
            frames[0].0,
            serde_json::to_string(&header).expect("record serializes")
        );
    }

    #[test]
    fn every_byte_change_and_cut_of_a_service_frame_is_caught() {
        let mut journal = Journal::new();
        let mut json = Vec::new();
        arbitrary_record(3).encode(&mut json);
        journal.push_frame(&json);
        journal.flush();
        let prefix = journal.durable().to_vec();
        let completed = ServeRecord::TickCompleted {
            tick: 41,
            shard_seqs: vec![7, 19],
            answers: 3,
            charged: vec![(0, 12), (1, 5)],
            completed: vec![CompletedJob {
                job: JobId(8),
                tenant: TenantId(1),
                winner: ElementId(17),
                degraded: Some(DegradedReason::DeadLetters),
                comparisons: 11,
                submitted: 30,
                completed: 41,
            }],
        };
        json.clear();
        completed.encode(&mut json);
        journal.push_frame(&json);
        journal.flush();
        let frame = &journal.durable().to_vec()[prefix.len()..];
        crate::journal::assert_frame_corruptions_are_caught(&prefix, frame, |bytes| {
            let decoded = Journal::decode_json(bytes);
            (decoded.valid_bytes, decoded.torn_tail)
        });
    }

    /// The tick writes its records through the per-variant encoders, one
    /// positional argument per field. A faulty, cache-hitting run's
    /// frames must each re-encode byte for byte from the record they
    /// decode to, and the decoded fields must be the run's own: every
    /// record of a tick carries that tick, its completions carry it too,
    /// and the ticks' answers add up to the report's comparisons. A call
    /// site that swapped `tick` and `answers`, both `u64`, fails here.
    #[test]
    fn tick_frames_re_encode_through_the_owned_records() {
        use crate::fault::FaultConfig;
        let config = ServeConfig::basic().with_shards(vec![
            ShardSpec::honest(WorkerClass::Naive, 12, 36)
                .with_fault(FaultConfig::none().with_no_answer(0.1).with_abandon(0.05)),
            ShardSpec::honest(WorkerClass::Expert, 4, 12),
        ]);
        let plan = ArrivalPlan::new(29, 1, 2, 24, 1)
            .with_catalog(4, 9)
            .with_overlap(50, 5);
        let mut service = CrowdServe::new(config, 3).expect("config is valid");
        let report = service.run(&plan, 600).expect("the run completes");
        assert!(report.cache_hits > 0, "{report:?}");
        assert_ne!(service.shards[0].fault_counts(), FaultCounts::zero());

        let bytes = service.journal().durable().to_vec();
        let frames = Journal::decode_json(&bytes);
        assert_eq!(frames.valid_bytes, bytes.len());
        let (mut wal_ticks, mut answered, mut jobs) = (Vec::new(), 0, Vec::new());
        let mut seen = [0usize; 4];
        for (json, _) in &frames.frames {
            let record: ServeRecord = serde_json::from_str(json).expect("record decodes");
            let mut out = Vec::new();
            record.encode(&mut out);
            assert_eq!(String::from_utf8(out).expect("UTF-8"), *json);
            match record {
                ServeRecord::Started { seed, .. } => {
                    assert_eq!(seed, 3);
                    seen[0] += 1;
                }
                ServeRecord::TickScheduled { tick, .. } => {
                    wal_ticks.push(tick);
                    seen[1] += 1;
                }
                ServeRecord::TickCached { tick, .. } => {
                    wal_ticks.push(tick);
                    seen[2] += 1;
                }
                ServeRecord::TickCompleted {
                    tick,
                    answers,
                    completed,
                    ..
                } => {
                    assert!(wal_ticks.drain(..).all(|t| t == tick), "tick {tick}");
                    assert!(completed.iter().all(|c| c.completed == tick));
                    answered += answers;
                    jobs.extend(completed);
                    seen[3] += 1;
                }
            }
        }
        assert!(seen[0] == 1 && seen[1..].iter().all(|&n| n > 0), "{seen:?}");
        assert_eq!(answered, report.comparisons);
        assert_eq!(jobs, report.jobs);
    }

    #[test]
    fn a_dispatch_for_an_inactive_job_is_a_typed_error() {
        let mut service = CrowdServe::new(ServeConfig::basic(), 7).expect("config is valid");
        let stray = DispatchRecord {
            job: 99,
            shard: 0,
            k: 0,
            j: 1,
            votes: 3,
        };
        let err = service
            .execute(0, &[stray])
            .expect_err("job 99 was never admitted");
        assert_eq!(err, ServeError::JobNotActive(JobId(99)));
        assert_eq!(err.to_string(), "dispatched job j99 is not active");
    }
}
