//! Overload sweep of the crowd-serve service layer: offered load crossed
//! with the circuit-breaker layer, measuring what the service sheds, what
//! it degrades, and proving kill+resume equivalence in every cell.
//!
//! Each trial drives a two-tenant [`CrowdServe`] with a seeded arrival
//! process at one of two offered loads — *half* capacity (every job
//! admits and completes cleanly) and *double* capacity (the token buckets
//! and the bounded queue must shed) — with the per-worker circuit
//! breakers either enabled or disabled. A mildly faulty naive shard makes
//! the breaker column meaningful: with breakers on, failure streaks
//! quarantine workers and the `trips` column is nonzero.
//!
//! Every trial also resumes from cuts of its write-ahead journal: a run
//! is deterministic, so whatever a kill leaves durable is a prefix of the
//! uninterrupted run's journal. Each trial draws
//! [`CUTS_PER_CLASS`](crate::chaos_sweep::CUTS_PER_CLASS) frame-boundary
//! and as many torn-frame cuts with its seed; `resume identical` counts
//! cuts whose resumed run matched the uninterrupted one on the report,
//! the final journal bytes, the event stream (after dropping the recovery
//! bookkeeping events) *and* the span log. It must equal `cuts` in every
//! row.
//!
//! Expected shape: the half-load rows shed little or nothing and
//! complete almost everything cleanly; the double-load rows shed hard, and every admitted job
//! still terminates — either clean or labelled with an explicit
//! degradation reason. No row may hang, panic, or fail to resume.

use crate::chaos_sweep::{resume_from_cuts, without_recovery};
use crate::engine;
use crate::report::Table;
use crate::scale::Scale;
use crowd_core::model::WorkerClass;
use crowd_obs::{install_recorder, Event, Recorder, SpanLog};
use crowd_platform::fault::{FaultConfig, LatencyModel};
use crowd_platform::serve::{
    ArrivalPlan, BreakerPolicy, CachePolicy, CacheStats, CrowdServe, ServeConfig, ServeReport,
    ShardSpec, SloPolicy, TenantId, TenantPolicy,
};
use std::sync::Arc;

/// Offered-load labels, in sweep order: arrival rate as a fraction of
/// what the shard windows and token buckets can absorb.
pub const LOADS: [&str; 2] = ["0.5x", "2x"];

/// Breaker-layer labels, in sweep order.
pub const BREAKERS: [&str; 2] = ["on", "off"];

/// Arrival rate (jobs per tick, as `num/den`) for a load index.
pub(crate) fn rate_for(load: usize) -> (u64, u64) {
    match load {
        0 => (1, 2), // one job every other tick: well under capacity
        _ => (3, 1), // three jobs per tick: roughly double capacity
    }
}

/// The swept service config: two tenants with tight budgets, two naive
/// shards (one mildly faulty) and a small expert shard.
pub(crate) fn config_for(breakers: usize) -> ServeConfig {
    let policy = if breakers == 0 {
        BreakerPolicy::default_on()
    } else {
        BreakerPolicy::disabled()
    };
    ServeConfig::basic()
        .with_tenants(vec![
            TenantPolicy::new(TenantId(0), 400, 8),
            TenantPolicy::new(TenantId(1), 200, 4),
        ])
        .with_shards(vec![
            ShardSpec::honest(WorkerClass::Naive, 12, 36).with_fault(
                FaultConfig::none()
                    .with_no_answer(0.10)
                    .with_abandon(0.05)
                    .with_latency(LatencyModel::Geometric { p: 0.7, cap: 6 })
                    .with_timeout_steps(4),
            ),
            ShardSpec::honest(WorkerClass::Naive, 12, 36),
            ShardSpec::honest(WorkerClass::Expert, 4, 12),
        ])
        .with_queue_cap(4)
        .with_breaker(policy)
        // Tight enough that queue-driven latency shows up as SLO burn:
        // a completion slower than 10 ticks is bad, 20% of a 64-tick
        // window may be bad before the tenant's objective breaches.
        .with_slo(
            SloPolicy::default_on()
                .with_latency_objective(10)
                .with_bad_budget_bps(2_000),
        )
}

/// What one sweep trial established.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeTrialOutcome {
    /// The uninterrupted run's service-wide report.
    pub report: ServeReport,
    /// Jobs that completed with no degradation label.
    pub completed_ok: u64,
    /// Per-reason degradation tallies, summed over tenants:
    /// `(deadline, expert, budget, dead_letters)`.
    pub degraded: (u64, u64, u64, u64),
    /// Worst per-tenant p99 job latency, in ticks.
    pub p99_latency_ticks: u64,
    /// SLO breach transitions, summed over tenants.
    pub slo_breaches: u64,
    /// Worst per-tenant error-budget burn, in basis points.
    pub slo_burn_max_bps: u32,
    /// Journal cuts resumed from.
    pub cuts: u64,
    /// Cuts whose resumed run matched the uninterrupted one on the
    /// report, the final journal bytes, the event stream, and the span
    /// log.
    pub resume_identical: u64,
}

/// Ticks generous enough that every swept run drains naturally.
const MAX_TICKS: u64 = 600;

/// What one service run left on every compared channel.
#[derive(Debug, PartialEq)]
struct ServeLeg {
    report: ServeReport,
    journal: Vec<u8>,
    /// The run's events, minus the recovery bookkeeping only a resumed
    /// run emits.
    events: Vec<Event>,
    spans: SpanLog,
}

impl ServeLeg {
    fn new(report: ServeReport, service: &CrowdServe, rec: &Recorder) -> Self {
        ServeLeg {
            report,
            journal: service.journal().durable().to_vec(),
            events: without_recovery(rec.events()),
            spans: rec.span_log(),
        }
    }
}

/// Runs `plan` uninterrupted, recording into a fresh recorder on top of
/// the caller's.
fn uninterrupted(config: &ServeConfig, seed: u64, plan: &ArrivalPlan) -> (ServeLeg, CacheStats) {
    let rec = Arc::new(Recorder::new());
    let _guard = install_recorder(rec.clone());
    let mut service = CrowdServe::new(config.clone(), seed).expect("config is valid");
    let report = service
        .run(plan, MAX_TICKS)
        .expect("a valid arrival plan runs to the end");
    (ServeLeg::new(report, &service, &rec), service.cache_stats())
}

/// Resumes from the cuts of `base`'s journal that [`resume_from_cuts`]
/// draws with `seed`. Returns `(cuts, identical)`, counting the resumed
/// runs that match `base` on every channel.
fn resume_cuts(config: &ServeConfig, seed: u64, plan: &ArrivalPlan, base: &ServeLeg) -> (u64, u64) {
    let outcomes = resume_from_cuts(&base.journal, seed, |cut| {
        let rec = Arc::new(Recorder::new());
        let _guard = install_recorder(rec.clone());
        CrowdServe::resume(config.clone(), seed, plan, &base.journal[..cut], MAX_TICKS)
            .is_ok_and(|(report, resumed)| ServeLeg::new(report, &resumed, &rec) == *base)
    });
    let identical = outcomes.iter().filter(|(_, same)| *same).count();
    (outcomes.len() as u64, identical as u64)
}

/// Runs one trial: the uninterrupted baseline, then resumes from cuts of
/// its journal and the equivalence checks.
pub fn run_trial(load: usize, breakers: usize, base_seed: u64, t: u64) -> ServeTrialOutcome {
    let (num, den) = rate_for(load);
    let seed = base_seed ^ t.wrapping_mul(0x9E37_79B9);
    let plan = ArrivalPlan::new(seed ^ 0xA1, num, den, 48, 2)
        .with_catalog(4, 9)
        .with_deadline(40);
    let config = config_for(breakers);
    let (base, _) = uninterrupted(&config, seed, &plan);
    let (cuts, resume_identical) = resume_cuts(&config, seed, &plan, &base);
    let base_report = base.report;

    let completed_ok = base_report.tenants.iter().map(|t| t.completed_ok).sum();
    let degraded = base_report.tenants.iter().fold((0, 0, 0, 0), |acc, t| {
        (
            acc.0 + t.degraded_deadline,
            acc.1 + t.degraded_expert,
            acc.2 + t.degraded_budget,
            acc.3 + t.degraded_dead_letters,
        )
    });
    let p99_latency_ticks = base_report
        .tenants
        .iter()
        .map(|t| t.p99_latency_ticks)
        .max()
        .unwrap_or(0);
    let slo_breaches = base_report.tenants.iter().map(|t| t.slo_breaches).sum();
    let slo_burn_max_bps = base_report
        .tenants
        .iter()
        .map(|t| t.slo_burn_max_bps)
        .max()
        .unwrap_or(0);
    ServeTrialOutcome {
        report: base_report,
        completed_ok,
        degraded,
        p99_latency_ticks,
        slo_breaches,
        slo_burn_max_bps,
        cuts,
        resume_identical,
    }
}

/// One aggregated sweep cell: a load level with the breaker layer on or
/// off, summed over trials.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSweepRow {
    /// Index into [`LOADS`].
    pub load: usize,
    /// Index into [`BREAKERS`].
    pub breakers: usize,
    /// Trials run in this cell.
    pub trials: u64,
    /// Jobs offered (submitted) across trials.
    pub offered: u64,
    /// Jobs admitted (immediately or via the queue).
    pub admitted: u64,
    /// Jobs shed by admission control.
    pub shed: u64,
    /// Jobs completed with no degradation label.
    pub completed_ok: u64,
    /// Degradations: deadline lapsed.
    pub deg_deadline: u64,
    /// Degradations: expert pool exhausted (crowd fallback).
    pub deg_expert: u64,
    /// Degradations: reserved comparison budget exhausted.
    pub deg_budget: u64,
    /// Degradations: a pair dead-lettered mid-tournament.
    pub deg_dead_letters: u64,
    /// Circuit-breaker trips.
    pub trips: u64,
    /// Worst per-tenant p99 job latency seen in any trial, in ticks.
    pub p99_latency_ticks: u64,
    /// SLO breach transitions across trials and tenants.
    pub slo_breaches: u64,
    /// Worst per-tenant error-budget burn seen in any trial, in bps.
    pub slo_burn_max_bps: u32,
    /// Comparisons charged across tenants.
    pub comparisons: u64,
    /// Journal cuts resumed from across trials.
    pub cuts: u64,
    /// Cuts whose resumed run matched the uninterrupted one
    /// byte-for-byte (must equal `cuts`).
    pub resume_identical: u64,
}

/// Sweeps [`LOADS`] × [`BREAKERS`], `trials` trials per cell. Trials fan
/// out over the parallel engine; aggregation stays in
/// `(load, breakers, trial)` order, so rows are identical at any
/// `--jobs` count.
pub fn sweep(trials: u64, base_seed: u64) -> Vec<ServeSweepRow> {
    let items: Vec<(usize, usize, u64)> = (0..LOADS.len())
        .flat_map(|l| (0..BREAKERS.len()).flat_map(move |b| (0..trials).map(move |t| (l, b, t))))
        .collect();
    let outcomes = engine::parallel_map(items, |(l, b, t)| run_trial(l, b, base_seed, t));
    let per_cell = trials as usize;
    (0..LOADS.len())
        .flat_map(|l| (0..BREAKERS.len()).map(move |b| (l, b)))
        .enumerate()
        .map(|(cell, (l, b))| {
            let slice = &outcomes[cell * per_cell..(cell + 1) * per_cell];
            let mut row = ServeSweepRow {
                load: l,
                breakers: b,
                trials,
                offered: 0,
                admitted: 0,
                shed: 0,
                completed_ok: 0,
                deg_deadline: 0,
                deg_expert: 0,
                deg_budget: 0,
                deg_dead_letters: 0,
                trips: 0,
                p99_latency_ticks: 0,
                slo_breaches: 0,
                slo_burn_max_bps: 0,
                comparisons: 0,
                cuts: 0,
                resume_identical: 0,
            };
            for o in slice {
                for tenant in &o.report.tenants {
                    row.offered += tenant.offered;
                    row.admitted += tenant.admitted;
                }
                row.shed += o.report.shed;
                row.completed_ok += o.completed_ok;
                row.deg_deadline += o.degraded.0;
                row.deg_expert += o.degraded.1;
                row.deg_budget += o.degraded.2;
                row.deg_dead_letters += o.degraded.3;
                row.trips += o.report.breaker_trips;
                row.p99_latency_ticks = row.p99_latency_ticks.max(o.p99_latency_ticks);
                row.slo_breaches += o.slo_breaches;
                row.slo_burn_max_bps = row.slo_burn_max_bps.max(o.slo_burn_max_bps);
                row.comparisons += o.report.comparisons;
                row.cuts += o.cuts;
                row.resume_identical += o.resume_identical;
            }
            row
        })
        .collect()
}

/// Runs the sweep at experiment scale.
pub fn run(scale: &Scale) -> Table {
    // Each trial is five full service runs (the baseline and four
    // resumes); a handful per cell keeps the four-cell sweep in seconds.
    let trials = scale.trials.clamp(2, 6);
    let rows = sweep(trials, scale.seed ^ 0x5E);

    let mut t = Table::new(
        "serve_sweep",
        &format!(
            "crowd-serve overload sweep: offered load × circuit breakers, \
             {trials} trials per cell (48 jobs/trial, 2 tenants, \
             3 shards, queue cap 4)"
        ),
        &[
            "load",
            "breakers",
            "trials",
            "offered",
            "admitted",
            "shed",
            "completed ok",
            "deg deadline",
            "deg expert",
            "deg budget",
            "deg dead-letter",
            "breaker trips",
            "p99 ticks",
            "slo breaches",
            "slo burn bps",
            "comparisons",
            "cuts",
            "resume identical",
        ],
    )
    .with_notes(
        "Every offered job is either admitted or shed; every admitted job \
         terminates clean or with an explicit degradation label — \
         `admitted = completed ok + the four degradation columns` in every \
         row, and nothing hangs. The double-load rows must shed; the \
         half-load rows shed little or nothing. `cuts` counts the \
         write-ahead journal prefixes a kill could leave (frame boundaries \
         and torn frames, drawn per trial) that were resumed from; `resume \
         identical` counts those whose resumed run matched the \
         uninterrupted run on the report, the final journal bytes, the \
         event stream, and the causal span log — it must equal `cuts` \
         everywhere. \
         Breaker trips appear only in the `on` rows (the faulty shard \
         produces failure streaks); with breakers off the same faults are \
         retried blindly instead of quarantined. `slo breaches` counts \
         per-tenant SLO breach transitions (sliding-window bad-completion \
         rate over the error budget) and `slo burn bps` the worst window \
         burn observed; overload shows up here before it shows up in \
         averages.",
    );
    for row in &rows {
        t.push_row(vec![
            LOADS[row.load].to_string(),
            BREAKERS[row.breakers].to_string(),
            row.trials.to_string(),
            row.offered.to_string(),
            row.admitted.to_string(),
            row.shed.to_string(),
            row.completed_ok.to_string(),
            row.deg_deadline.to_string(),
            row.deg_expert.to_string(),
            row.deg_budget.to_string(),
            row.deg_dead_letters.to_string(),
            row.trips.to_string(),
            row.p99_latency_ticks.to_string(),
            row.slo_breaches.to_string(),
            row.slo_burn_max_bps.to_string(),
            row.comparisons.to_string(),
            row.cuts.to_string(),
            row.resume_identical.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// Overlap axis: the judgment cache against shared catalogs.
// ---------------------------------------------------------------------

/// Catalog-overlap percentages swept by [`run_overlap`], in sweep order.
pub const OVERLAPS: [u32; 3] = [0, 50, 100];

/// Shared-universe size for the overlap sweep. Small enough that a 48-job
/// trial at 50% overlap re-draws each universe item many times — the
/// regime where cross-job reuse pays.
const OVERLAP_UNIVERSE: u32 = 5;

/// The overlap-swept config: fault-free honest shards (so the true
/// winner is judged in every cell and recall comparisons are exact) and
/// budgets generous enough that nothing sheds — both cache legs then
/// admit the identical job set and winners compare one-to-one.
fn overlap_config(cache: CachePolicy) -> ServeConfig {
    ServeConfig::basic()
        .with_tenants(vec![
            TenantPolicy::new(TenantId(0), 100_000, 200),
            TenantPolicy::new(TenantId(1), 100_000, 200),
        ])
        .with_shards(vec![
            ShardSpec::honest(WorkerClass::Naive, 12, 36),
            ShardSpec::honest(WorkerClass::Naive, 12, 36),
            ShardSpec::honest(WorkerClass::Expert, 4, 12),
        ])
        .with_queue_cap(16)
        .with_cache(cache)
}

/// What one overlap trial established.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverlapTrialOutcome {
    /// Jobs completed (identical in both legs by construction).
    pub jobs: u64,
    /// Comparisons charged with the cache disabled.
    pub comparisons_off: u64,
    /// Comparisons charged with the cache enabled.
    pub comparisons_on: u64,
    /// Cache hits in the enabled leg.
    pub cache_hits: u64,
    /// Jobs whose winner matched between the two legs.
    pub winners_identical: u64,
    /// Jobs (summed over both legs) whose winner is the catalog's true
    /// maximum — recall, which the cache must not change.
    pub recall_ok: u64,
    /// At zero overlap only: the cache-on report equals the cache-off
    /// report *and* the journals are byte-identical after the config
    /// header. Vacuously true at nonzero overlap.
    pub off_on_identical: bool,
    /// Cuts of the cache-on run's journal resumed from.
    pub cuts: u64,
    /// Cuts whose resumed run — through a rebuilt, warm cache — matched
    /// the uninterrupted cache-on run.
    pub resume_identical: u64,
}

/// Runs one overlap trial: a cache-off leg, a cache-on leg, the
/// equivalence checks between them, and resumes of the cache-on leg from
/// cuts of its journal.
pub fn run_overlap_trial(overlap: usize, base_seed: u64, t: u64) -> OverlapTrialOutcome {
    let percent = OVERLAPS[overlap];
    let seed = base_seed ^ t.wrapping_mul(0x9E37_79B9);
    let plan = ArrivalPlan::new(seed ^ 0xC3, 1, 2, 48, 2)
        .with_catalog(4, 9)
        .with_deadline(64)
        .with_overlap(percent, OVERLAP_UNIVERSE);

    let on_config = overlap_config(CachePolicy::default_on());
    let (off, _) = uninterrupted(&overlap_config(CachePolicy::disabled()), seed, &plan);
    let (on, on_cache) = uninterrupted(&on_config, seed, &plan);
    let (off_report, on_report) = (&off.report, &on.report);

    // Winner equivalence, job by job. Nothing sheds at this load, so
    // both legs complete the same job ids in some order.
    let winners = |r: &ServeReport| {
        let mut w: Vec<(u64, u32)> = r.jobs.iter().map(|j| (j.job.0, j.winner.0)).collect();
        w.sort_unstable();
        w
    };
    let (off_w, on_w) = (winners(off_report), winners(on_report));
    let winners_identical = off_w.iter().zip(&on_w).filter(|(a, b)| a == b).count() as u64;

    // Recall: honest fault-free shards judge every distinguishable pair
    // correctly, so each leg's winner must be the catalog's true max.
    let recall = |r: &ServeReport| {
        r.jobs
            .iter()
            .filter(|j| {
                let spec = plan.spec(j.job.0);
                let best = (0..spec.values.len() as u32)
                    .max_by(|a, b| {
                        spec.values[*a as usize]
                            .partial_cmp(&spec.values[*b as usize])
                            .expect("catalog values are finite")
                    })
                    .expect("catalogs are non-empty");
                j.winner.0 == best
            })
            .count() as u64
    };
    let recall_ok = recall(off_report) + recall(on_report);

    // Zero overlap: turning the cache on must be invisible — same
    // report, and byte-identical journals after the `Started` header
    // (its config digest covers the cache policy, so the header frame
    // legitimately differs).
    let body = |journal: &[u8]| -> Vec<u8> {
        let header_end = journal.iter().position(|b| *b == b'\n').expect("framed") + 1;
        journal[header_end..].to_vec()
    };
    let off_on_identical = percent != 0
        || (off_report == on_report
            && body(&off.journal) == body(&on.journal)
            && off.events == on.events);

    // Resume the cache-on leg from cuts of its journal: the rebuilt
    // (warm) cache must reproduce every hit, so each resumed run matches
    // the uninterrupted one on report, journal bytes, events and spans.
    let (cuts, resume_identical) = resume_cuts(&on_config, seed, &plan, &on);

    OverlapTrialOutcome {
        jobs: off_report.jobs.len() as u64,
        comparisons_off: off_report.comparisons,
        comparisons_on: on_report.comparisons,
        cache_hits: on_cache.hits,
        winners_identical,
        recall_ok,
        off_on_identical,
        cuts,
        resume_identical,
    }
}

/// One aggregated overlap row, summed over trials.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverlapRow {
    /// Index into [`OVERLAPS`].
    pub overlap: usize,
    /// Trials run in this cell.
    pub trials: u64,
    /// Jobs completed per leg across trials.
    pub jobs: u64,
    /// Comparisons charged, cache off.
    pub comparisons_off: u64,
    /// Comparisons charged, cache on.
    pub comparisons_on: u64,
    /// Cache hits across trials.
    pub cache_hits: u64,
    /// Jobs whose winner matched between legs (must equal `jobs`).
    pub winners_identical: u64,
    /// Winner-is-true-max checks passed, both legs (must be `2·jobs`).
    pub recall_ok: u64,
    /// Trials passing the zero-overlap invisibility check (vacuous at
    /// nonzero overlap; must equal `trials`).
    pub off_on_identical: u64,
    /// Journal cuts resumed from across trials.
    pub cuts: u64,
    /// Cuts whose warm-cache resume matched (must equal `cuts`).
    pub resume_identical: u64,
}

/// Sweeps [`OVERLAPS`], `trials` trials per cell, cache-on vs cache-off.
pub fn overlap_sweep(trials: u64, base_seed: u64) -> Vec<OverlapRow> {
    let items: Vec<(usize, u64)> = (0..OVERLAPS.len())
        .flat_map(|o| (0..trials).map(move |t| (o, t)))
        .collect();
    let outcomes = engine::parallel_map(items, |(o, t)| run_overlap_trial(o, base_seed, t));
    let per_cell = trials as usize;
    (0..OVERLAPS.len())
        .map(|o| {
            let slice = &outcomes[o * per_cell..(o + 1) * per_cell];
            let mut row = OverlapRow {
                overlap: o,
                trials,
                jobs: 0,
                comparisons_off: 0,
                comparisons_on: 0,
                cache_hits: 0,
                winners_identical: 0,
                recall_ok: 0,
                off_on_identical: 0,
                cuts: 0,
                resume_identical: 0,
            };
            for o in slice {
                row.jobs += o.jobs;
                row.comparisons_off += o.comparisons_off;
                row.comparisons_on += o.comparisons_on;
                row.cache_hits += o.cache_hits;
                row.winners_identical += o.winners_identical;
                row.recall_ok += o.recall_ok;
                row.off_on_identical += u64::from(o.off_on_identical);
                row.cuts += o.cuts;
                row.resume_identical += o.resume_identical;
            }
            row
        })
        .collect()
}

/// Runs the overlap sweep at experiment scale.
pub fn run_overlap(scale: &Scale) -> Table {
    let trials = scale.trials.clamp(2, 6);
    let rows = overlap_sweep(trials, scale.seed ^ 0xCA);

    let mut t = Table::new(
        "serve_overlap",
        &format!(
            "crowd-serve judgment-cache sweep: catalog overlap × cache \
             on/off, {trials} trials per cell (48 jobs/trial, 2 tenants, \
             fault-free shards, shared universe of {OVERLAP_UNIVERSE} items)"
        ),
        &[
            "overlap %",
            "trials",
            "jobs",
            "comparisons off",
            "comparisons on",
            "saved bps",
            "cache hits",
            "winners identical",
            "recall ok",
            "off/on identical",
            "cuts",
            "resume identical",
        ],
    )
    .with_notes(
        "Cost falls monotonically with overlap while recall is unchanged: \
         `comparisons on` never exceeds `comparisons off`, shrinks as the \
         overlap percentage grows, and every job's winner is the \
         catalog's true maximum in both legs (`recall ok = 2 × jobs`, \
         `winners identical = jobs`). At 0% overlap the cache is \
         invisible — the cache-on run's report, journal body, and event \
         stream are byte-identical to the cache-off run's (`off/on \
         identical = trials`; the column is vacuously true elsewhere). \
         `resume identical` resumes the cache-on run from `cuts` prefixes \
         of its write-ahead journal (frame boundaries and torn frames, \
         drawn per trial) through a rebuilt, warm cache — it must equal \
         `cuts` in every row.",
    );
    for row in &rows {
        let saved_bps = if row.comparisons_off == 0 {
            "-".to_string()
        } else {
            let saved = row.comparisons_off - row.comparisons_on.min(row.comparisons_off);
            ((saved * 10_000 + row.comparisons_off / 2) / row.comparisons_off).to_string()
        };
        t.push_row(vec![
            OVERLAPS[row.overlap].to_string(),
            row.trials.to_string(),
            row.jobs.to_string(),
            row.comparisons_off.to_string(),
            row.comparisons_on.to_string(),
            saved_bps,
            row.cache_hits.to_string(),
            row.winners_identical.to_string(),
            row.recall_ok.to_string(),
            row.off_on_identical.to_string(),
            row.cuts.to_string(),
            row.resume_identical.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_resumes_identically_at_both_loads() {
        for (load, label) in LOADS.iter().enumerate() {
            let o = run_trial(load, 0, 41, 0);
            assert!(o.cuts > 0, "load {label}: {o:?}");
            assert_eq!(o.resume_identical, o.cuts, "load {label}: {o:?}");
        }
    }

    #[test]
    fn overload_sheds_and_underload_does_not() {
        let under = run_trial(0, 0, 43, 1);
        let over = run_trial(1, 0, 43, 1);
        assert_eq!(under.report.shed, 0, "half load must not shed: {under:?}");
        assert!(over.report.shed > 0, "double load must shed: {over:?}");
    }

    #[test]
    fn admitted_jobs_are_fully_accounted() {
        let o = run_trial(1, 0, 47, 2);
        let admitted: u64 = o.report.tenants.iter().map(|t| t.admitted).sum();
        let (d0, d1, d2, d3) = o.degraded;
        assert_eq!(
            admitted,
            o.completed_ok + d0 + d1 + d2 + d3,
            "every admitted job completes clean or labelled: {o:?}"
        );
    }

    #[test]
    fn zero_overlap_makes_the_cache_invisible() {
        let o = run_overlap_trial(0, 51, 0);
        assert!(o.off_on_identical, "{o:?}");
        assert_eq!(o.cache_hits, 0, "{o:?}");
        assert_eq!(o.comparisons_on, o.comparisons_off, "{o:?}");
        assert_eq!(o.winners_identical, o.jobs, "{o:?}");
        assert_eq!(o.recall_ok, 2 * o.jobs, "{o:?}");
        assert!(o.cuts > 0, "{o:?}");
        assert_eq!(o.resume_identical, o.cuts, "{o:?}");
    }

    #[test]
    fn high_overlap_cuts_cost_without_touching_recall() {
        let o = run_overlap_trial(1, 51, 0); // 50% overlap
        assert!(o.cache_hits > 0, "{o:?}");
        assert!(
            o.comparisons_on * 4 <= o.comparisons_off * 3,
            "50% overlap must save at least a quarter of the comparisons: {o:?}"
        );
        assert_eq!(o.winners_identical, o.jobs, "{o:?}");
        assert_eq!(o.recall_ok, 2 * o.jobs, "{o:?}");
        assert!(o.cuts > 0, "{o:?}");
        assert_eq!(
            o.resume_identical, o.cuts,
            "warm-cache resume must match: {o:?}"
        );
    }

    #[test]
    fn cost_falls_monotonically_with_overlap() {
        let rows = overlap_sweep(2, 53);
        assert_eq!(rows.len(), OVERLAPS.len());
        for pair in rows.windows(2) {
            assert!(
                pair[1].comparisons_on <= pair[0].comparisons_on,
                "more overlap must not cost more: {pair:?}"
            );
        }
        for row in &rows {
            assert_eq!(row.winners_identical, row.jobs, "{row:?}");
            assert_eq!(row.recall_ok, 2 * row.jobs, "{row:?}");
            assert_eq!(row.off_on_identical, row.trials, "{row:?}");
            assert_eq!(row.resume_identical, row.cuts, "{row:?}");
        }
    }

    #[test]
    fn overlap_table_shape() {
        let t = run_overlap(&Scale::quick());
        assert_eq!(t.rows.len(), OVERLAPS.len());
        for row in &t.rows {
            assert_ne!(row[10], "0", "every row resumes from cuts: {row:?}");
            assert_eq!(row[11], row[10], "resume must be identical: {row:?}");
            assert_eq!(row[9], row[1], "off/on gate must pass: {row:?}");
        }
        let md = t.to_markdown();
        assert!(md.contains("cache hits"), "{md}");
    }

    #[test]
    fn slo_monitoring_fires_deterministically_in_the_sweep() {
        let rows = sweep(3, Scale::quick().seed ^ 0x5E);
        for row in &rows {
            assert!(
                row.slo_breaches > 0,
                "every cell queues enough to breach the 10-tick objective: {row:?}"
            );
            assert!(
                row.slo_burn_max_bps > 2_000,
                "a breach implies burn above the error budget: {row:?}"
            );
        }
        // Double load burns at least as hot as half load (shedding keeps
        // admitted-job latency bounded, but the survivors run closer to
        // the edge), and the whole table is reproducible.
        let burn = |load: usize| {
            rows.iter()
                .filter(|r| r.load == load)
                .map(|r| r.slo_burn_max_bps)
                .max()
                .unwrap_or(0)
        };
        assert!(burn(1) >= burn(0), "{rows:?}");
        assert_eq!(rows, sweep(3, Scale::quick().seed ^ 0x5E));
    }

    #[test]
    fn table_shape() {
        let t = run(&Scale::quick());
        assert_eq!(t.rows.len(), LOADS.len() * BREAKERS.len());
        for row in &t.rows {
            // resume identical == cuts in every cell.
            assert_ne!(row[16], "0", "every cell resumes from cuts: {row:?}");
            assert_eq!(row[17], row[16], "resume must be identical: {row:?}");
            // offered == admitted + shed.
            let offered: u64 = row[3].parse().unwrap();
            let admitted: u64 = row[4].parse().unwrap();
            let shed: u64 = row[5].parse().unwrap();
            assert_eq!(offered, admitted + shed, "{row:?}");
        }
        let md = t.to_markdown();
        assert!(md.contains("breaker trips"), "{md}");
    }
}
