//! Crash/resume equivalence sweep: resume Algorithm 1 from cuts of its
//! write-ahead journal and prove the resumed run equals the uninterrupted
//! one.
//!
//! A run is deterministic and a killed run's own output is thrown away,
//! so whatever a kill leaves durable is a prefix of the uninterrupted
//! run's journal: cut at a frame boundary, or inside the next frame for a
//! torn write ([`crash_cuts`]). Each trial therefore runs the full
//! two-phase algorithm once, uninterrupted, over a [`JournaledOracle`],
//! and then [`resume_job`]s from [`CUTS_PER_CLASS`] frame-boundary cuts
//! and as many torn-frame cuts of its journal, drawn with the trial seed:
//! the algorithm reruns on a fresh platform, whose journal must rewrite
//! the cut's intact frames byte for byte (the one resume audit,
//! [`Journal::resuming`]), then the run continues live.
//!
//! The equivalence claim is checked at the byte level: the resumed run's
//! algorithm outcome, final journal bytes, comparison tally, ledger spend,
//! fault-stream position, and event stream (after dropping the
//! `RecoveryStarted`/`RecoveryCompleted` bookkeeping only it emits) must
//! all equal the uninterrupted run's; this sweep is the platform stack's
//! only kill/resume gate. The sweep crosses the two cut classes with
//! fault-free and faulty platforms (faults exercise partial-batch journal
//! records), and reports what recovery cost: judgments restored from
//! the journal vs. bought live after replay, and torn tails detected by
//! checksum.
//!
//! Expected shape: every row's `identical` column equals its `cuts` and
//! `divergences` is zero — at any fault rate, either cut class, and any
//! `--jobs` count.

use crate::engine;
use crate::fault_sweep::{fault_config, EXPERT_POOL, NAIVE_POOL};
use crate::harness::planted_for;
use crate::report::{fmt_f64, Table};
use crate::scale::Scale;
use crowd_core::algorithms::{try_expert_max_find, ExpertMaxConfig, ExpertMaxOutcome};
use crowd_core::element::ElementId;
use crowd_core::oracle::{ComparisonCounts, ComparisonOracle, OracleError};
use crowd_core::trace::isolated;
use crowd_datasets::synthetic::PlantedInstance;
use crowd_obs::{install_recorder, record_segment, Event, Recorder};
use crowd_platform::{
    crash_cuts, recover, resume_job, CheckpointPolicy, Journal, JournaledOracle, Platform,
    PlatformConfig, RetryPolicy, WorkerPool,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Fault rates swept: fault-free (every batch completes whole) and a
/// moderate rate that produces retries and partial-batch journal records.
pub const RATES: [f64; 2] = [0.0, 0.05];

/// Display labels for the two cut classes, in sweep order: a cut at a
/// frame boundary (a crash between flushes), and a cut inside a frame (a
/// torn write).
pub const CLASSES: [&str; 2] = ["frame boundary", "torn frame"];

/// Cuts of each class every trial resumes from.
pub const CUTS_PER_CLASS: usize = 2;

/// Checkpoint cadence used by every leg of a trial: lazy enough that a
/// cut between checkpoints genuinely loses pending completions (and must
/// re-buy them), tight enough that recovery still replays most of the
/// run.
const CADENCE: u64 = 4;

/// Resumes from up to [`CUTS_PER_CLASS`] distinct frame-boundary cuts
/// of `journal`, then as many torn-frame cuts, drawn from [`crash_cuts`]
/// with `seed`. The first resume reports to the recorders the caller
/// installed and to the thread's work tally, as a real recovery would;
/// the others record into segments that are dropped, and their work
/// stays out of the tally ([`isolated`]). Returns `(class, resume(cut))`
/// per cut, in draw order, `class` indexing [`CLASSES`].
pub fn resume_from_cuts<T>(
    journal: &[u8],
    seed: u64,
    resume: impl Fn(usize) -> T,
) -> Vec<(usize, T)> {
    let mut end = 0;
    let ends: Vec<usize> = Journal::decode_json(journal)
        .frames
        .iter()
        .map(|(_, len)| {
            end += len;
            end
        })
        .collect();
    let mut pools = [Vec::new(), Vec::new()];
    for cut in crash_cuts(journal) {
        let torn = ends.binary_search(&cut).is_err();
        pools[usize::from(torn)].push(cut);
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC075);
    let mut outcomes = Vec::with_capacity(2 * CUTS_PER_CLASS);
    for (class, pool) in pools.iter_mut().enumerate() {
        for _ in 0..CUTS_PER_CLASS.min(pool.len()) {
            let cut = pool.swap_remove(rng.gen_range(0..pool.len()));
            let outcome = if outcomes.is_empty() {
                resume(cut)
            } else {
                record_segment(|| isolated(|| resume(cut)).0).0
            };
            outcomes.push((class, outcome));
        }
    }
    outcomes
}

/// What resuming from one cut established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CutOutcome {
    /// Recovery found a torn frame at the end of the cut, by checksum.
    pub torn_tail: bool,
    /// [`resume_job`] accepted the cut.
    pub resumed: bool,
    /// The resumed run matched the uninterrupted one on every channel:
    /// algorithm outcome, final journal bytes, comparison tally, spend,
    /// fault-stream position, and event stream modulo recovery
    /// bookkeeping.
    pub identical: bool,
    /// The resumed journal diverged from the cut's intact bytes (must
    /// never happen).
    pub diverged: bool,
    /// Judgments restored from the journal instead of re-purchased
    /// ([`Recovered::replayed_comparisons`](crowd_platform::Recovered)).
    pub replayed: u64,
    /// Judgments the resumed run bought once replay ended: its final
    /// tally minus `replayed`.
    pub live: u64,
    /// Journal bytes handed to recovery (the cut's length).
    pub journal_bytes: u64,
}

/// The job label journaled by every trial.
const JOB: &str = "chaos_sweep";

/// One trial's instance and platform recipe: every leg builds its
/// platform from it identically.
struct Trial {
    planted: PlantedInstance,
    ids: Vec<ElementId>,
    un: usize,
    rate: f64,
    seed: u64,
}

impl Trial {
    fn new(n: usize, un: usize, rate: f64, base_seed: u64, t: u64) -> Self {
        let planted = planted_for(n, un, (un / 4).max(1), base_seed ^ 0xCA, t);
        let ids = planted.instance.ids();
        let seed = base_seed ^ (t.wrapping_mul(0x9E37) << 16) ^ (rate.to_bits() >> 12);
        Trial {
            planted,
            ids,
            un,
            rate,
            seed,
        }
    }

    fn platform(&self) -> Platform<StdRng> {
        let mut pool = WorkerPool::new();
        pool.hire_naive_crowd(NAIVE_POOL, self.planted.delta_n, 0.0);
        pool.hire_expert_panel(EXPERT_POOL, self.planted.delta_e, 0.0);
        let config = PlatformConfig::paper_default()
            .without_gold()
            .with_faults(fault_config(self.rate), self.seed ^ 0xFA117)
            .with_retry(RetryPolicy::paper_default().with_max_retries(4))
            .with_expert_fallback(3);
        Platform::new(
            self.planted.instance.clone(),
            pool,
            config,
            StdRng::seed_from_u64(self.seed),
        )
    }

    fn drive<O: ComparisonOracle>(&self, oracle: &mut O) -> Result<ExpertMaxOutcome, OracleError> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5eed);
        try_expert_max_find(oracle, &self.ids, &ExpertMaxConfig::new(self.un), &mut rng)
    }

    /// Runs the trial uninterrupted: the leg every resumed one is held to.
    fn uninterrupted(&self) -> Leg {
        let rec = Arc::new(Recorder::new());
        let _guard = install_recorder(rec.clone());
        let mut oracle = JournaledOracle::new(
            self.platform(),
            JOB,
            self.seed,
            CheckpointPolicy::every(CADENCE),
        );
        let out = self.drive(&mut oracle);
        oracle.finish();
        Leg::new(out, oracle, rec.events())
    }

    /// Resumes from the first `cut` bytes of `base`'s journal and compares
    /// the resumed run with `base` on every channel.
    fn resume_from(&self, base: &Leg, cut: usize) -> CutOutcome {
        let bytes = &base.journal[..cut];
        let recovered = recover(bytes);
        let mut outcome = CutOutcome {
            torn_tail: recovered.as_ref().is_ok_and(|r| r.torn_tail),
            resumed: false,
            identical: false,
            diverged: false,
            replayed: 0,
            live: 0,
            journal_bytes: cut as u64,
        };
        let policy = CheckpointPolicy::every(CADENCE);
        let Ok(mut resumed) = resume_job(bytes, self.platform(), JOB, self.seed, policy) else {
            return outcome;
        };
        let rec = Arc::new(Recorder::new());
        let leg = {
            let _guard = install_recorder(rec.clone());
            let out = self.drive(&mut resumed);
            outcome.diverged = resumed.journal().diverged();
            resumed.finish();
            Leg::new(out, resumed, rec.events())
        };
        outcome.replayed = recovered.map_or(0, |r| r.replayed_comparisons);
        outcome.resumed = true;
        outcome.identical = !outcome.diverged && leg == *base;
        outcome.live = leg.counts.total().saturating_sub(outcome.replayed);
        outcome
    }
}

/// What one leg left on every compared channel.
#[derive(Debug, PartialEq)]
struct Leg {
    out: Result<ExpertMaxOutcome, OracleError>,
    journal: Vec<u8>,
    counts: ComparisonCounts,
    spent: f64,
    fault_seq: u64,
    /// The leg's events, minus the recovery bookkeeping only a resumed
    /// leg emits.
    events: Vec<Event>,
}

impl Leg {
    fn new(
        out: Result<ExpertMaxOutcome, OracleError>,
        oracle: JournaledOracle<StdRng>,
        events: Vec<Event>,
    ) -> Self {
        let (journal, platform) = oracle.into_parts();
        Leg {
            out,
            journal: journal.durable().to_vec(),
            counts: platform.counts(),
            spent: platform.ledger().total(),
            fault_seq: platform.fault_seq(),
            events: without_recovery(events),
        }
    }
}

/// `events` minus the `RecoveryStarted`/`RecoveryCompleted` bookkeeping
/// only a resumed run emits.
pub(crate) fn without_recovery(mut events: Vec<Event>) -> Vec<Event> {
    events.retain(|e| {
        !matches!(
            e,
            Event::RecoveryStarted { .. } | Event::RecoveryCompleted { .. }
        )
    });
    events
}

/// Runs one trial: the uninterrupted baseline, then a resume from each
/// cut [`resume_from_cuts`] draws. Returns `(class, outcome)` per cut.
pub fn run_trial(
    n: usize,
    un: usize,
    rate: f64,
    base_seed: u64,
    t: u64,
) -> Vec<(usize, CutOutcome)> {
    let trial = Trial::new(n, un, rate, base_seed, t);
    let base = trial.uninterrupted();
    resume_from_cuts(&base.journal, trial.seed, |cut| {
        trial.resume_from(&base, cut)
    })
}

/// One aggregated sweep point: a cut class at one fault rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepRow {
    /// Index into [`CLASSES`].
    pub class: usize,
    /// Index into [`RATES`].
    pub rate_index: usize,
    /// Trials run at this rate.
    pub trials: u64,
    /// Cuts of this class resumed from.
    pub cuts: u64,
    /// Cuts [`resume_job`] accepted.
    pub resumes: u64,
    /// Cuts whose resumed run matched the uninterrupted one on every
    /// channel.
    pub identical: u64,
    /// Replay-audit divergences (must be 0).
    pub divergences: u64,
    /// Torn tails detected by checksum.
    pub torn_tails: u64,
    /// Summed judgments restored from journals.
    pub replayed: u64,
    /// Summed judgments bought live after replay.
    pub live: u64,
    /// Summed journal bytes handed to recovery.
    pub journal_bytes: u64,
}

/// Sweeps every rate in [`RATES`], `trials` trials each, and aggregates
/// the resumed cuts by class. Trials fan out over the parallel engine;
/// aggregation stays in `(class, rate, trial, draw)` order, so the rows
/// are identical at any `--jobs` count.
pub fn sweep(n: usize, un: usize, trials: u64, base_seed: u64) -> Vec<SweepRow> {
    let items: Vec<(usize, u64)> = (0..RATES.len())
        .flat_map(|ri| (0..trials).map(move |t| (ri, t)))
        .collect();
    let outcomes = engine::parallel_map(items, |(ri, t)| run_trial(n, un, RATES[ri], base_seed, t));
    let per_rate = trials as usize;
    (0..CLASSES.len())
        .flat_map(|class| (0..RATES.len()).map(move |ri| (class, ri)))
        .map(|(class, ri)| {
            let mut row = SweepRow {
                class,
                rate_index: ri,
                trials,
                cuts: 0,
                resumes: 0,
                identical: 0,
                divergences: 0,
                torn_tails: 0,
                replayed: 0,
                live: 0,
                journal_bytes: 0,
            };
            let slice = &outcomes[ri * per_rate..(ri + 1) * per_rate];
            for (_, o) in slice.iter().flatten().filter(|(c, _)| *c == class) {
                row.cuts += 1;
                row.resumes += u64::from(o.resumed);
                row.identical += u64::from(o.identical);
                row.divergences += u64::from(o.diverged);
                row.torn_tails += u64::from(o.torn_tail);
                row.replayed += o.replayed;
                row.live += o.live;
                row.journal_bytes += o.journal_bytes;
            }
            row
        })
        .collect()
}

/// Runs the sweep at experiment scale.
pub fn run(scale: &Scale) -> Table {
    // Each trial is five full platform runs; keep n modest so the sweep
    // stays in seconds.
    let n = (*scale.n_grid.first().unwrap_or(&300)).min(120);
    let un = (n / 50).max(3);
    let trials = scale.trials.max(2);
    let rows = sweep(n, un, trials, scale.seed ^ 0xC4A5);

    let mut t = Table::new(
        "chaos_sweep",
        &format!(
            "Crash/resume equivalence: Algorithm 1 resumed from seeded cuts of its \
             write-ahead journal (n={n}, un={un}, {trials} trials per fault rate, \
             {CUTS_PER_CLASS} cuts per class per trial, checkpoint cadence {CADENCE})"
        ),
        &[
            "cut class",
            "fault rate",
            "trials",
            "cuts",
            "resumes",
            "identical",
            "divergences",
            "torn tails",
            "replayed cmps",
            "live cmps",
            "journal bytes",
        ],
    )
    .with_notes(
        "A kill leaves a prefix of the uninterrupted run's journal, so each \
         trial runs once uninterrupted and resumes from cuts of its journal: \
         at a frame boundary (a crash between flushes) or inside a frame (a \
         torn write). Each resumed run is compared with the uninterrupted one \
         at the byte level: algorithm outcome, final journal bytes, comparison \
         tally, spend, fault-stream position, and the event stream (minus the \
         resumed run's recovery bookkeeping). `identical` must equal `cuts` \
         and `divergences` must be 0 in every row. Replayed and live \
         comparisons count judgments, the unit of the comparison tally: \
         replayed ones are the tally of the last checkpoint the cut holds, \
         live ones the rest of the final tally, bought after replay ended \
         (the dangling scheduled batch, completions the lazy checkpoint \
         cadence had not flushed, and the rest of the run). Torn tails \
         appear only on the torn-frame rows, detected by the frame checksum.",
    );
    for row in &rows {
        t.push_row(vec![
            CLASSES[row.class].to_string(),
            fmt_f64(RATES[row.rate_index], 2),
            row.trials.to_string(),
            row.cuts.to_string(),
            row.resumes.to_string(),
            row.identical.to_string(),
            row.divergences.to_string(),
            row.torn_tails.to_string(),
            row.replayed.to_string(),
            row.live.to_string(),
            row.journal_bytes.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_core::element::Instance;
    use crowd_core::equiv::{assert_oracles_equal, drive_until_error};
    use crowd_core::model::WorkerClass;

    /// The end of the frame holding batch `batch`'s `Scheduled` record.
    fn scheduled_end(journal: &[u8], batch: u64) -> usize {
        let prefix = format!("{{\"Scheduled\":{{\"batch\":{batch},");
        let mut end = 0;
        for (json, len) in Journal::decode_json(journal).frames {
            end += len;
            if json.starts_with(&prefix) {
                return end;
            }
        }
        panic!("batch {batch} was never scheduled");
    }

    #[test]
    fn mid_batch_kill_resumes_identically() {
        // The cut a crash mid-batch leaves: batch 3's `Scheduled` record
        // is durable, no worker has answered it.
        let trial = Trial::new(100, 3, 0.0, 31, 0);
        let base = trial.uninterrupted();
        let o = trial.resume_from(&base, scheduled_end(&base.journal, 3));
        assert!(o.resumed && o.identical && !o.diverged, "{o:?}");
        assert!(o.replayed > 0, "earlier batches replay from the journal");
        assert!(o.live > 0, "the dangling batch runs live");
        assert!(!o.torn_tail);
    }

    #[test]
    fn torn_write_is_detected_and_still_resumes_identically() {
        let trial = Trial::new(100, 3, 0.0, 31, 0);
        let base = trial.uninterrupted();
        // The write of batch 3's `Scheduled` frame stopped one byte short.
        let o = trial.resume_from(&base, scheduled_end(&base.journal, 3) - 1);
        assert!(o.torn_tail, "{o:?}");
        assert!(o.resumed && o.identical, "{o:?}");
    }

    #[test]
    fn boundary_kills_lose_only_unflushed_work() {
        // A boundary cut replays exactly the judgments its last
        // `Completed` record tallies; everything after it is bought live.
        let trial = Trial::new(100, 3, 0.0, 33, 1);
        let base = trial.uninterrupted();
        let answered = |bytes: &[u8]| {
            recover(bytes)
                .expect("a boundary cut recovers")
                .replayed_comparisons
        };
        let total = answered(&base.journal);
        let boundaries = crash_cuts(&base.journal)
            .into_iter()
            .filter(|&cut| !Journal::decode_json(&base.journal[..cut]).torn_tail);
        for cut in boundaries.step_by(16) {
            let completed = answered(&base.journal[..cut]);
            let o = trial.resume_from(&base, cut);
            assert!(o.identical && !o.diverged, "cut {cut}: {o:?}");
            assert_eq!(o.replayed, completed, "cut {cut}");
            assert_eq!(o.live, total - completed, "cut {cut}");
        }
    }

    #[test]
    fn faulty_trials_stay_identical_through_partial_batches() {
        let outcomes = run_trial(100, 3, 0.05, 35, 2);
        assert_eq!(outcomes.len(), 2 * CUTS_PER_CLASS);
        for (class, o) in outcomes {
            assert!(o.resumed && o.identical && !o.diverged, "{class}: {o:?}");
            assert_eq!(o.torn_tail, class == 1, "{o:?}");
        }
    }

    #[test]
    fn resumed_event_log_equals_the_uninterrupted_one_modulo_recovery() {
        // `identical` covers the event stream; the outer recorder proves
        // the compared stream is not vacuously empty, and that exactly one
        // resume reports to it.
        let outer = Arc::new(Recorder::new());
        let outcomes = {
            let _guard = install_recorder(outer.clone());
            run_trial(100, 3, 0.0, 31, 0)
        };
        let events = outer.events();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::CheckpointWritten { .. })),
            "the journaled legs emit checkpoint events"
        );
        let recoveries = events
            .iter()
            .filter(|e| matches!(e, Event::RecoveryStarted { .. }))
            .count();
        assert_eq!(recoveries, 1, "only the first resume reports");
        assert!(outcomes.iter().all(|(_, o)| o.identical), "{outcomes:?}");
    }

    /// Resumes from every post-header cut of one small journal per fault
    /// rate and holds each resumed run to the uninterrupted one.
    #[test]
    fn every_cut_of_one_journal_resumes_identically() {
        let (mut dangling, mut torn) = (false, false);
        for rate in RATES {
            let trial = Trial::new(48, 3, rate, 37, 0);
            let base = trial.uninterrupted();
            let cuts = crash_cuts(&base.journal);
            assert!(cuts.len() > 20, "{} cuts", cuts.len());
            for cut in cuts {
                let o = trial.resume_from(&base, cut);
                assert!(
                    o.resumed && o.identical && !o.diverged,
                    "rate {rate}, cut {cut}: {o:?}"
                );
                let recovered = recover(&base.journal[..cut]).expect("the cut recovers");
                let dangles = recovered.scheduled_batches > recovered.completed_batches;
                dangling |= dangles && o.replayed > 0 && o.live > 0;
                torn |= o.torn_tail;
            }
        }
        assert!(
            dangling,
            "some cut must leave a dangling `Scheduled` mid-run"
        );
        assert!(torn, "some cut must tear a frame");
    }

    #[test]
    fn resume_is_byte_identical_under_the_equiv_harness() {
        // The promoted crash/resume driver: cut a journaled run where a
        // crash mid-batch leaves it, resume from the cut, and let
        // `assert_oracles_equal` prove the resumed side issues the
        // byte-identical comparison sequence.
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

        // The uninterrupted journal, cut at the end of batch 1's
        // `Scheduled` frame, outside the harness.
        let mut full = JournaledOracle::new(fresh(), "equiv", 0xFEED, policy);
        let (_, err) = drive_until_error(&mut full, WorkerClass::Naive, &pairs, &segments);
        assert_eq!(err, None);
        full.finish();
        let (journal, _) = full.into_parts();
        let bytes = journal.durable().to_vec();
        let cut = &bytes[..scheduled_end(&bytes, 1)];

        let resumed =
            resume_job(cut, fresh(), "equiv", 0xFEED, policy).expect("the cut journal recovers");
        assert_oracles_equal(
            JournaledOracle::new(fresh(), "equiv", 0xFEED, policy),
            resumed,
            |o| drive_until_error(o, WorkerClass::Naive, &pairs, &segments),
            |o| drive_until_error(o, WorkerClass::Naive, &pairs, &segments),
        );
    }

    #[test]
    fn table_shape() {
        let t = run(&Scale::quick());
        assert_eq!(t.rows.len(), CLASSES.len() * RATES.len());
        let md = t.to_markdown();
        assert!(md.contains("live cmps"), "{md}");
        // Every row proves equivalence: identical == cuts, divergences == 0,
        // and torn tails exactly on the torn-frame rows.
        for row in &t.rows {
            assert_ne!(row[3], "0", "every row resumes from cuts: {row:?}");
            assert_eq!(row[5], row[3], "identical must equal cuts: {row:?}");
            assert_eq!(row[6], "0", "divergences must be zero: {row:?}");
            let torn = if row[0] == CLASSES[1] { &row[3] } else { "0" };
            assert_eq!(row[7], torn, "torn tails: {row:?}");
        }
    }
}
