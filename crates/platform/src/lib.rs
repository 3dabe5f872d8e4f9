//! # crowd-platform
//!
//! A crowdsourcing-platform simulator standing in for CrowdFlower in the
//! reproduction of *"The Importance of Being Expert"* (SIGMOD 2015).
//!
//! The paper's experiments ran on CrowdFlower, a paid platform providing
//! worker channels, per-judgment billing, and gold-question quality control
//! (workers below 70% gold accuracy are ignored). This crate implements
//! that machinery over the simulated worker behaviours of `crowd-core`:
//!
//! * [`worker`] — individual workers: honest threshold/probabilistic
//!   behaviour or spam strategies.
//! * [`pool`] — the workforce `W`, partitioned into naïve and expert
//!   classes and hired per channel.
//! * [`task`] — pairwise-comparison units, regular and gold.
//! * [`scheduler`] — the batch-latency rule: a logical step's judgments
//!   dealt to `w` workers take `⌈judgments / w⌉` physical steps, with
//!   distinct workers per unit.
//! * [`quality`] — gold-based trust tracking and the 70% exclusion rule.
//! * [`billing`] — the per-judgment payment ledger.
//! * [`platform`] — the facade, plus [`platform::PlatformOracle`] adapting
//!   it to `crowd-core`'s `ComparisonOracle` so the paper's algorithms run
//!   unmodified on the full simulator.
//! * [`batched`] — batched Phase 1: one job per filtering round, realizing
//!   the `⌈|B_s|/|W|⌉` physical-step parallelism of the paper's time
//!   model.
//! * [`report`] — the requester-facing campaign dashboard.
//! * [`fault`] — seedable fault injection: worker dropout, mid-batch
//!   abandonment, transient no-answers, and latency distributions.
//! * [`retry`] — timeout recovery: capped exponential backoff,
//!   re-assignment to fresh workers, and dead-letter records.
//! * [`journal`] — write-ahead, length-prefixed + checksummed journaling
//!   of every batch, with batch-aligned checkpoint cadence, and
//!   [`journal::crash_cuts`]: the prefixes a crash can leave durable.
//! * [`mod@recover`] — crash recovery: rerun the job on a fresh platform,
//!   which must rewrite the crashed journal's intact bytes frame for
//!   frame, then continue live.
//! * [`serve`] — crowd-serve: an overload-robust multi-tenant job
//!   service multiplexing concurrent max-finding jobs over sharded
//!   worker pools, with token-bucket admission control, bounded-queue
//!   load shedding, deficit-round-robin dispatch, per-worker circuit
//!   breakers, graceful degradation, and WAL-journaled crash recovery.
//!
//! Crashes are checked without a kill switch: a run is deterministic, so
//! resuming from [`journal::crash_cuts`] of one uninterrupted journal
//! covers every state a kill can leave.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod batched;
pub mod billing;
pub mod fault;
pub mod journal;
pub mod platform;
pub mod pool;
pub mod quality;
pub mod recover;
pub mod report;
pub mod retry;
pub mod scheduler;
pub mod serve;
pub mod task;
pub mod worker;

pub use batched::{batched_filter, BatchedFilterOutcome};
pub use billing::Ledger;
pub use fault::{FaultConfig, FaultPlan, JudgeFate, LatencyModel};
pub use journal::{
    crash_cuts, CheckpointPolicy, DecodedJournal, DurableBytes, Journal, JournalRecord,
    JournaledOracle, JOURNAL_VERSION, SEGMENT_BYTES,
};
pub use platform::{Platform, PlatformConfig, PlatformError, PlatformOracle};
pub use pool::WorkerPool;
pub use quality::{GoldRecord, TrustTracker};
pub use recover::{recover, resume_job, RecoverError, Recovered};
pub use report::{CampaignReport, WorkerLine};
pub use retry::{DeadLetter, DeadLetterReason, RetryPolicy};
pub use scheduler::{physical_steps, ScheduleError};
pub use serve::{
    Admission, ArrivalPlan, BreakerPolicy, CircuitBreaker, CompletedJob, CrowdServe, JobId,
    JobSpec, ServeConfig, ServeError, ServeReport, ShardSpec, TenantId, TenantPolicy, TenantReport,
};
pub use task::{Unit, UnitId};
pub use worker::{Behavior, SpamStrategy, Worker, WorkerId, WorkerProfile};
