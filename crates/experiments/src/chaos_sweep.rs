//! Crash/resume equivalence sweep: kill Algorithm 1 at every seeded
//! injection point and prove the resumed run equals the uninterrupted one.
//!
//! Each trial runs the full two-phase algorithm three times on
//! identically-constructed platforms:
//!
//! 1. **uninterrupted** — a [`JournaledOracle`] baseline, run to the end;
//! 2. **doomed** — the same run with a [`ChaosPlan`] armed at one
//!    [`InjectionPoint`]; the crash freezes its durable journal;
//! 3. **resumed** — [`resume_job`] on the crash's durable bytes: the
//!    journaled batches replay on a fresh platform (audited against the
//!    checkpoints and the `crowd_core::replay` transcript), then the run
//!    continues live.
//!
//! The equivalence claim is checked at the byte level: the resumed run's
//! algorithm outcome, final journal bytes, comparison tally, ledger spend,
//! fault-stream position, and event stream (after dropping the
//! `RecoveryStarted`/`RecoveryCompleted` bookkeeping only it emits) must
//! all equal the uninterrupted run's; this sweep is the platform stack's
//! only kill/resume gate. The sweep crosses the four crash windows of
//! [`crate::chaos`](crowd_platform::chaos) with fault-free and faulty
//! platforms (faults exercise partial-batch journal records), and reports
//! what recovery cost: comparisons restored from the journal vs. re-bought
//! (the dangling `Scheduled` batch plus any completions a lazy checkpoint
//! cadence lost), and torn tails detected by checksum.
//!
//! Expected shape: every row's `identical` column equals its trial count
//! and `divergences` is zero — at any fault rate, any injection point, and
//! any `--jobs` count.

use crate::engine;
use crate::fault_sweep::{fault_config, EXPERT_POOL, NAIVE_POOL};
use crate::harness::planted_for;
use crate::report::{fmt_f64, Table};
use crate::scale::Scale;
use crowd_core::algorithms::{try_expert_max_find, ExpertMaxConfig, ExpertMaxOutcome};
use crowd_core::oracle::{ComparisonOracle, OracleError};
use crowd_obs::{install_recorder, Event, Recorder};
use crowd_platform::{
    recover, resume_job, ChaosPlan, CheckpointPolicy, InjectionPoint, JournaledOracle, Platform,
    PlatformConfig, RetryPolicy, WorkerPool,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Fault rates swept: fault-free (every batch completes whole) and a
/// moderate rate that produces retries and partial-batch journal records.
pub const RATES: [f64; 2] = [0.0, 0.05];

/// Display labels for the four crash windows, in sweep order.
pub const POINTS: [&str; 4] = [
    "mid_batch",
    "mid_journal_write",
    "between_rounds",
    "phase_transition",
];

/// Checkpoint cadence used by every leg of a trial: lazy enough that a
/// boundary crash genuinely loses pending completions (and must re-buy
/// them), tight enough that recovery still replays most of the run.
const CADENCE: u64 = 4;

/// The injection point for sweep row `kind` (an index into [`POINTS`]) at
/// trial `t` — the batch/round parameter varies with the trial so a sweep
/// kills runs at different depths.
pub fn point_for(kind: usize, t: u64) -> InjectionPoint {
    match kind {
        0 => InjectionPoint::MidBatch { batch: 1 + 2 * t },
        1 => InjectionPoint::MidJournalWrite { batch: 1 + 2 * t },
        2 => InjectionPoint::BetweenRounds {
            round: (t % 2) as u32,
        },
        _ => InjectionPoint::AtPhaseTransition,
    }
}

/// What one kill/resume trial established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosTrialOutcome {
    /// The chaos plan fired (a run can finish — or abort on a genuine
    /// fault — before reaching its injection point; resume is then
    /// exercised on the complete journal instead).
    pub crashed: bool,
    /// The durable journal ended in a torn frame, detected by checksum.
    pub torn_tail: bool,
    /// [`resume_job`] accepted the durable bytes.
    pub resumed: bool,
    /// The resumed run matched the uninterrupted one on every channel:
    /// algorithm outcome, final journal bytes, comparison tally, spend,
    /// fault-stream position, and event stream modulo recovery
    /// bookkeeping.
    pub identical: bool,
    /// Replay diverged from the journal's checkpoints (must never happen).
    pub diverged: bool,
    /// Comparisons restored from the journal instead of re-purchased.
    pub replayed: u64,
    /// Comparisons the crashed run had bought that recovery could not
    /// restore (unflushed completions, the dangling batch's partial work).
    pub re_bought: u64,
    /// Durable journal bytes the crash left behind for recovery.
    pub journal_bytes: u64,
}

/// The job label journaled by every trial.
const JOB: &str = "chaos_sweep";

fn build_platform(
    instance: &crowd_core::element::Instance,
    delta_n: f64,
    delta_e: f64,
    rate: f64,
    trial_seed: u64,
) -> Platform<StdRng> {
    let mut pool = WorkerPool::new();
    pool.hire_naive_crowd(NAIVE_POOL, delta_n, 0.0);
    pool.hire_expert_panel(EXPERT_POOL, delta_e, 0.0);
    let config = PlatformConfig::paper_default()
        .without_gold()
        .with_faults(fault_config(rate), trial_seed ^ 0xFA117)
        .with_retry(RetryPolicy::paper_default().with_max_retries(4))
        .with_expert_fallback(3);
    Platform::new(
        instance.clone(),
        pool,
        config,
        StdRng::seed_from_u64(trial_seed),
    )
}

fn drive<O: ComparisonOracle>(
    oracle: &mut O,
    ids: &[crowd_core::element::ElementId],
    un: usize,
    trial_seed: u64,
) -> Result<ExpertMaxOutcome, OracleError> {
    let mut rng = StdRng::seed_from_u64(trial_seed ^ 0x5eed);
    try_expert_max_find(oracle, ids, &ExpertMaxConfig::new(un), &mut rng)
}

/// True for the recovery-bookkeeping events only the resumed leg emits.
fn is_recovery_event(event: &Event) -> bool {
    matches!(
        event,
        Event::RecoveryStarted { .. } | Event::RecoveryCompleted { .. }
    )
}

/// Runs one kill/resume trial: uninterrupted baseline, chaos-killed run,
/// resume from the durable journal, and the byte-level comparison.
pub fn run_trial(
    n: usize,
    un: usize,
    rate: f64,
    point: InjectionPoint,
    base_seed: u64,
    t: u64,
) -> ChaosTrialOutcome {
    let planted = planted_for(n, un, (un / 4).max(1), base_seed ^ 0xCA, t);
    let instance = &planted.instance;
    let ids = instance.ids();
    let trial_seed = base_seed ^ (t.wrapping_mul(0x9E37) << 16) ^ (rate.to_bits() >> 12);
    let policy = CheckpointPolicy::every(CADENCE);
    let fresh = || build_platform(instance, planted.delta_n, planted.delta_e, rate, trial_seed);

    // Leg 1: the uninterrupted baseline every later channel is held to.
    let base_rec = Arc::new(Recorder::new());
    let (base_out, base_journal, base_platform) = {
        let _guard = install_recorder(base_rec.clone());
        let mut base = JournaledOracle::new(fresh(), JOB, trial_seed, policy);
        let out = drive(&mut base, &ids, un, trial_seed);
        base.finish();
        let (journal, platform) = base.into_parts();
        (out, journal, platform)
    };

    // Leg 2: the same run, killed at the injection point. No `finish()`
    // after a crash — the process is dead, only the durable bytes remain.
    let mut doomed =
        JournaledOracle::new(fresh(), JOB, trial_seed, policy).with_chaos(ChaosPlan::at(point));
    let _ = drive(&mut doomed, &ids, un, trial_seed);
    let crashed = doomed.crashed();
    if !crashed {
        doomed.finish();
    }
    let (doomed_journal, doomed_platform) = doomed.into_parts();
    let bytes = doomed_journal.durable().to_vec();

    let torn_tail = recover(&bytes).map(|r| r.torn_tail).unwrap_or(false);
    let mut outcome = ChaosTrialOutcome {
        crashed,
        torn_tail,
        resumed: false,
        identical: false,
        diverged: false,
        replayed: 0,
        re_bought: 0,
        journal_bytes: bytes.len() as u64,
    };

    // Leg 3: resume on a fresh, identically-constructed platform.
    let Ok(mut resumed) = resume_job(&bytes, fresh(), JOB, trial_seed, policy) else {
        return outcome;
    };
    let resumed_rec = Arc::new(Recorder::new());
    let (resumed_out, replayed, diverged, res_journal, res_platform) = {
        let _guard = install_recorder(resumed_rec.clone());
        let out = drive(&mut resumed, &ids, un, trial_seed);
        let replayed = resumed.replayed_comparisons();
        let diverged = resumed.diverged().is_some();
        let mut inner = resumed.into_inner();
        inner.finish();
        let (journal, platform) = inner.into_parts();
        (out, replayed, diverged, journal, platform)
    };
    let mut resumed_events = resumed_rec.events();
    resumed_events.retain(|e| !is_recovery_event(e));

    outcome.resumed = true;
    outcome.identical = !diverged
        && resumed_out == base_out
        && res_journal.durable() == base_journal.durable()
        && res_platform.counts() == base_platform.counts()
        && res_platform.ledger().total() == base_platform.ledger().total()
        && res_platform.fault_seq() == base_platform.fault_seq()
        && resumed_events == base_rec.events();
    outcome.diverged = diverged;
    outcome.replayed = replayed;
    outcome.re_bought = doomed_platform.counts().total().saturating_sub(replayed);
    outcome
}

/// One aggregated sweep point: an injection-point kind at one fault rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepRow {
    /// Index into [`POINTS`].
    pub kind: usize,
    /// Index into [`RATES`].
    pub rate_index: usize,
    /// Trials run at this point.
    pub trials: u64,
    /// Trials whose chaos plan actually fired.
    pub crashes: u64,
    /// Trials whose journal [`resume_job`] accepted.
    pub resumes: u64,
    /// Trials where the resumed run matched the uninterrupted one on
    /// every channel.
    pub identical: u64,
    /// Replay-audit divergences (must be 0).
    pub divergences: u64,
    /// Torn tails detected by checksum.
    pub torn_tails: u64,
    /// Summed comparisons restored from journals.
    pub replayed: u64,
    /// Summed comparisons re-bought after crashes.
    pub re_bought: u64,
    /// Summed durable journal bytes handed to recovery.
    pub journal_bytes: u64,
}

/// Sweeps every injection point in [`POINTS`] crossed with every rate in
/// [`RATES`], `trials` trials per cell. Trials fan out over the parallel
/// engine; aggregation stays in `(point, rate, trial)` order, so the rows
/// are identical at any `--jobs` count.
pub fn sweep(n: usize, un: usize, trials: u64, base_seed: u64) -> Vec<SweepRow> {
    let items: Vec<(usize, usize, u64)> = (0..POINTS.len())
        .flat_map(|pi| (0..RATES.len()).flat_map(move |ri| (0..trials).map(move |t| (pi, ri, t))))
        .collect();
    let outcomes = engine::parallel_map(items, |(pi, ri, t)| {
        run_trial(n, un, RATES[ri], point_for(pi, t), base_seed, t)
    });
    let per_cell = trials as usize;
    (0..POINTS.len())
        .flat_map(|pi| (0..RATES.len()).map(move |ri| (pi, ri)))
        .enumerate()
        .map(|(cell, (pi, ri))| {
            let slice = &outcomes[cell * per_cell..(cell + 1) * per_cell];
            let mut row = SweepRow {
                kind: pi,
                rate_index: ri,
                trials,
                crashes: 0,
                resumes: 0,
                identical: 0,
                divergences: 0,
                torn_tails: 0,
                replayed: 0,
                re_bought: 0,
                journal_bytes: 0,
            };
            for o in slice {
                row.crashes += u64::from(o.crashed);
                row.resumes += u64::from(o.resumed);
                row.identical += u64::from(o.identical);
                row.divergences += u64::from(o.diverged);
                row.torn_tails += u64::from(o.torn_tail);
                row.replayed += o.replayed;
                row.re_bought += o.re_bought;
                row.journal_bytes += o.journal_bytes;
            }
            row
        })
        .collect()
}

/// Runs the sweep at experiment scale.
pub fn run(scale: &Scale) -> Table {
    // Each trial is three full platform runs; keep n modest so the
    // eight-cell sweep stays in seconds.
    let n = (*scale.n_grid.first().unwrap_or(&300)).min(120);
    let un = (n / 50).max(3);
    let trials = scale.trials.max(2);
    let rows = sweep(n, un, trials, scale.seed ^ 0xC4A5);

    let mut t = Table::new(
        "chaos_sweep",
        &format!(
            "Crash/resume equivalence: Algorithm 1 killed at seeded injection points \
             and resumed from the write-ahead journal (n={n}, un={un}, {trials} trials \
             per cell, checkpoint cadence {CADENCE})"
        ),
        &[
            "injection point",
            "fault rate",
            "trials",
            "crashes",
            "resumes",
            "identical",
            "divergences",
            "torn tails",
            "replayed cmps",
            "re-bought cmps",
            "journal bytes",
        ],
    )
    .with_notes(
        "Each trial compares a chaos-killed-then-resumed run against an \
         uninterrupted baseline at the byte level: algorithm outcome, final \
         journal bytes, comparison tally, spend, fault-stream position, and \
         the event stream (minus the resumed run's recovery bookkeeping). \
         `identical` must equal `trials` and `divergences` must be 0 in \
         every row. Re-bought comparisons are the recovery floor: the \
         dangling scheduled batch plus completions the lazy checkpoint \
         cadence had not flushed. Torn tails appear only on the \
         mid_journal_write row, detected by the frame checksum.",
    );
    for row in &rows {
        t.push_row(vec![
            POINTS[row.kind].to_string(),
            fmt_f64(RATES[row.rate_index], 2),
            row.trials.to_string(),
            row.crashes.to_string(),
            row.resumes.to_string(),
            row.identical.to_string(),
            row.divergences.to_string(),
            row.torn_tails.to_string(),
            row.replayed.to_string(),
            row.re_bought.to_string(),
            row.journal_bytes.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_core::element::{ElementId, Instance};
    use crowd_core::equiv::{assert_oracles_equal, drive_until_error};
    use crowd_core::model::WorkerClass;

    #[test]
    fn mid_batch_kill_resumes_identically() {
        let o = run_trial(100, 3, 0.0, InjectionPoint::MidBatch { batch: 3 }, 31, 0);
        assert!(o.crashed, "the plan must fire at batch 3");
        assert!(o.resumed && o.identical && !o.diverged, "{o:?}");
        assert!(o.replayed > 0, "earlier batches replay from the journal");
        assert!(!o.torn_tail);
    }

    #[test]
    fn torn_write_is_detected_and_still_resumes_identically() {
        let o = run_trial(
            100,
            3,
            0.0,
            InjectionPoint::MidJournalWrite { batch: 3 },
            31,
            0,
        );
        assert!(o.crashed && o.torn_tail, "{o:?}");
        assert!(o.resumed && o.identical, "{o:?}");
    }

    #[test]
    fn boundary_kills_lose_only_unflushed_work() {
        for point in [
            InjectionPoint::BetweenRounds { round: 0 },
            InjectionPoint::AtPhaseTransition,
        ] {
            let o = run_trial(100, 3, 0.0, point, 33, 1);
            assert!(o.crashed, "{point:?} must fire during a real run");
            assert!(o.identical && !o.diverged, "{point:?}: {o:?}");
            assert!(
                o.re_bought > 0,
                "{point:?}: a lazy cadence loses pending completions"
            );
        }
    }

    #[test]
    fn faulty_trials_stay_identical_through_partial_batches() {
        let o = run_trial(100, 3, 0.05, InjectionPoint::MidBatch { batch: 5 }, 35, 2);
        assert!(o.resumed && o.identical && !o.diverged, "{o:?}");
    }

    #[test]
    fn resumed_event_log_equals_the_uninterrupted_one_modulo_recovery() {
        // `identical` covers the event stream; the outer recorder proves
        // the compared stream is not vacuously empty.
        let outer = Arc::new(Recorder::new());
        let o = {
            let _guard = install_recorder(outer.clone());
            run_trial(100, 3, 0.0, InjectionPoint::MidBatch { batch: 3 }, 31, 0)
        };
        assert!(
            outer
                .events()
                .iter()
                .any(|e| matches!(e, Event::CheckpointWritten { .. })),
            "the journaled legs emit checkpoint events"
        );
        assert!(o.resumed && o.identical, "{o:?}");
    }

    #[test]
    fn resume_is_byte_identical_under_the_equiv_harness() {
        // The promoted crash/resume driver: kill a journaled run mid-way,
        // resume it, and let `assert_oracles_equal` prove the resumed side
        // issues the byte-identical comparison sequence.
        let instance = Instance::new(vec![1.0, 5.0, 3.0, 9.0, 7.0, 2.0]);
        let pairs: Vec<(ElementId, ElementId)> = vec![
            (ElementId(0), ElementId(1)),
            (ElementId(2), ElementId(3)),
            (ElementId(4), ElementId(5)),
            (ElementId(1), ElementId(3)),
            (ElementId(3), ElementId(4)),
        ];
        let fresh = || {
            let mut pool = WorkerPool::new();
            pool.hire_naive_crowd(6, 0.1, 0.05);
            Platform::new(
                instance.clone(),
                pool,
                PlatformConfig::paper_default().without_gold(),
                StdRng::seed_from_u64(0xFEED),
            )
        };
        let policy = CheckpointPolicy::every_batch();
        let segments = [2usize, 1, 2];

        // Crash the journaled run at batch 1, outside the harness.
        let mut doomed = JournaledOracle::new(fresh(), "equiv", 0xFEED, policy)
            .with_chaos(ChaosPlan::at(InjectionPoint::MidBatch { batch: 1 }));
        let (prefix, err) = drive_until_error(&mut doomed, WorkerClass::Naive, &pairs, &segments);
        assert!(matches!(err, Some(OracleError::Interrupted)));
        assert_eq!(prefix.len(), 2, "batch 0 answered before the crash");
        let (journal, _) = doomed.into_parts();

        let resumed = resume_job(journal.durable(), fresh(), "equiv", 0xFEED, policy)
            .expect("the crash journal recovers");
        assert_oracles_equal(
            JournaledOracle::new(fresh(), "equiv", 0xFEED, policy),
            resumed,
            |o| drive_until_error(o, WorkerClass::Naive, &pairs, &segments),
            |o| drive_until_error(o, WorkerClass::Naive, &pairs, &segments),
        );
    }

    #[test]
    fn point_for_covers_all_kinds_and_varies_with_the_trial() {
        assert_eq!(
            point_for(0, 2),
            InjectionPoint::MidBatch { batch: 5 },
            "the kill depth varies with the trial"
        );
        let kinds: std::collections::HashSet<_> = (0..POINTS.len())
            .map(|k| std::mem::discriminant(&point_for(k, 0)))
            .collect();
        assert_eq!(kinds.len(), POINTS.len());
    }

    #[test]
    fn table_shape() {
        let t = run(&Scale::quick());
        assert_eq!(t.rows.len(), POINTS.len() * RATES.len());
        let md = t.to_markdown();
        assert!(md.contains("re-bought"), "{md}");
        // Every row proves equivalence: identical == trials, divergences == 0.
        for row in &t.rows {
            assert_eq!(row[5], row[2], "identical must equal trials: {row:?}");
            assert_eq!(row[6], "0", "divergences must be zero: {row:?}");
        }
    }
}
