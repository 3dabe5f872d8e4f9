//! crowd-serve: an overload-robust multi-tenant max-finding service.
//!
//! The paper runs one campaign at a time; a production crowdsourcing
//! platform runs *many*, for many requesters, against a worker supply
//! that fluctuates and fails. This module multiplexes concurrent
//! two-phase max-finding jobs over sharded worker pools with the
//! robustness machinery such a service needs:
//!
//! * **Admission control** ([`tenant`]) — per-tenant token buckets
//!   denominated in comparisons. A job's worst-case comparison cost is
//!   reserved up front, so the sum charged to a tenant provably never
//!   exceeds what its bucket dispensed; unused reservation is refunded
//!   at completion. A bounded FIFO queue absorbs bursts; beyond it,
//!   submissions are shed with a typed retry hint instead of queueing
//!   unboundedly.
//! * **Fair dispatch** ([`service`]) — deficit-round-robin over active
//!   jobs, with per-shard in-flight windows as the backpressure bound.
//! * **Worker quarantine** ([`breaker`]) — per-worker circuit breakers:
//!   failure streaks trip the breaker open, a seeded cooldown later a
//!   half-open probe decides recovery. Dispatch routes around shards
//!   with no healthy workers.
//! * **Graceful degradation** ([`job`]) — every admitted job terminates
//!   with a winner; anything less than the full protocol is labelled
//!   with an explicit [`DegradedReason`](crowd_core::trace::DegradedReason)
//!   (deadline lapsed, expert pool exhausted, budget exhausted, dead
//!   letters). The service never panics and never hangs.
//! * **Cross-job judgment reuse** ([`cache`]) — a deterministic,
//!   content-keyed verdict store consulted *before* shard dispatch, so
//!   overlapping catalogs stop re-buying identical judgments. A
//!   confidence/staleness policy decides when a cached verdict may
//!   substitute for fresh votes; hits are journaled, never charged, and
//!   never consume in-flight window slots.
//! * **Causal tracing & SLOs** ([`slo`]) — every tick an admitted job
//!   stays alive is attributed to exactly one pipeline stage
//!   (dispatch wait, cache lookup, shard execution, retry, breaker
//!   quarantine), emitted as deterministic `crowd_obs` spans whose tick
//!   sums reconcile exactly with the job's latency; per-tenant sliding-
//!   window SLO monitors emit breach/recovery events and error-budget
//!   burn rates into the run report.
//! * **Crash recovery** ([`service`]) — a write-ahead journal (framed
//!   through [`crate::journal::Journal`], sharing its torn-tail
//!   detection) makes every tick's dispatch durable before execution;
//!   [`CrowdServe::resume`] reruns the plan into a
//!   [`Journal::resuming`](crate::journal::Journal::resuming) journal,
//!   the batch stack's resume audit too: every frame must rewrite the
//!   crashed journal's intact bytes, so the interrupted run is reproduced
//!   byte-for-byte or the resume fails at the tick that differs.
//!
//! Everything runs on a logical clock with stateless seeded randomness
//! ([`arrival`] for load, `crate::fault` for worker behaviour), so any
//! run — overloaded, quarantined, killed and resumed — is deterministic
//! and replayable.

pub mod arrival;
pub mod breaker;
pub mod cache;
pub mod job;
pub mod service;
pub mod shard;
pub mod slo;
pub mod tenant;

pub use arrival::ArrivalPlan;
pub use breaker::{BreakerPolicy, BreakerState, CircuitBreaker, FailureVerdict};
pub use cache::{CachePolicy, CacheStats, JudgmentCache};
pub use job::{ActiveJob, JobId, JobPhase, JobSpec};
pub use service::{
    Admission, CacheHitRecord, CompletedJob, CrowdServe, DispatchRecord, ResumeError, ServeConfig,
    ServeError, ServeReport, TenantReport,
};
pub use shard::{PairOutcome, ShardSpec, WorkerShard, SHARD_TIE_POLICY};
pub use slo::{SloMonitor, SloPolicy, SloTransition};
pub use tenant::{TenantId, TenantPolicy, TokenBucket};
