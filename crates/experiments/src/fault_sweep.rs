//! Robustness sweep: Algorithm 1 on the platform under rising fault
//! pressure.
//!
//! The paper's platform (CrowdFlower) is assumed reliable: every posted
//! unit comes back answered. Real crowd platforms are not — workers drop
//! out, answers stall past their deadline, judgments silently never
//! arrive. This experiment drives the full two-phase algorithm through the
//! platform simulator while a [`FaultPlan`](crowd_platform::FaultPlan)
//! injects dropout, transient no-answers, and geometric latencies that
//! overrun the timeout, with recovery handled by the platform's retry /
//! dead-letter machinery.
//!
//! Swept knob: one `rate` applied as the dropout probability, the
//! no-answer probability, *and* the per-judgment timeout probability (the
//! geometric latency parameter is solved so that
//! `P(latency > timeout) = rate`). Reported per rate: how often the run
//! still finds a `2·δe`-max (max recall), how much the recovered runs cost
//! relative to the fault-free baseline (cost inflation), and the raw
//! retry / timeout / dead-letter tallies.
//!
//! Expected shape: at rate 0 the sweep is byte-identical to a fault-free
//! platform run (zero tallies, recall 1.0, inflation 1.00x); as the rate
//! rises, retries first absorb the faults at a modest cost premium, then
//! dead letters and aborted runs appear and recall falls.

use crate::engine;
use crate::harness::planted_for;
use crate::report::{fmt_f64, Table};
use crate::scale::Scale;
use crowd_core::algorithms::{try_expert_max_find, ExpertMaxConfig};
use crowd_core::trace::FaultCounts;
use crowd_platform::{
    FaultConfig, LatencyModel, Platform, PlatformConfig, PlatformOracle, RetryPolicy, WorkerPool,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Fault rates swept (each is simultaneously the dropout, no-answer, and
/// timeout probability).
pub const RATES: [f64; 5] = [0.0, 0.02, 0.05, 0.1, 0.2];

/// Naïve workers hired per trial platform.
pub const NAIVE_POOL: usize = 25;
/// Experts hired per trial platform (scarce, per the paper's premise).
pub const EXPERT_POOL: usize = 4;

/// Extra steps a judgment may take before it is declared timed out.
const TIMEOUT_STEPS: u64 = 3;
/// Cap on geometric latency (must exceed [`TIMEOUT_STEPS`] so late answers
/// exist).
const LATENCY_CAP: u64 = 8;

/// The fault configuration for one sweep rate: dropout and no-answer at
/// `rate`, and a geometric latency solved so a judgment overruns the
/// timeout with probability `rate` too.
pub fn fault_config(rate: f64) -> FaultConfig {
    if rate <= 0.0 {
        return FaultConfig::none();
    }
    // P(latency > TIMEOUT_STEPS) = (1-p)^(TIMEOUT_STEPS+1) = rate.
    let p = 1.0 - rate.powf(1.0 / (TIMEOUT_STEPS + 1) as f64);
    FaultConfig::none()
        .with_dropout(rate)
        .with_no_answer(rate)
        .with_latency(LatencyModel::Geometric {
            p: p.max(1e-9),
            cap: LATENCY_CAP,
        })
        .with_timeout_steps(TIMEOUT_STEPS)
}

/// What one trial at one fault rate produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialOutcome {
    /// The run finished and its winner is within `2·δe` of the maximum —
    /// the paper's Theorem 2 success criterion.
    pub found_max: bool,
    /// The run aborted with an [`OracleError`](crowd_core::oracle::OracleError)
    /// (dead-lettered unit, depleted pool, …).
    pub failed: bool,
    /// The platform flagged degraded service at any point.
    pub degraded: bool,
    /// Money spent, including on the partial work of failed runs.
    pub cost: f64,
    /// Fault tallies the platform recorded.
    pub faults: FaultCounts,
    /// Units given up on after exhausting retries.
    pub dead_letters: u64,
}

/// Runs Algorithm 1 once through a fault-injected platform.
pub fn run_trial(n: usize, un: usize, rate: f64, base_seed: u64, t: u64) -> TrialOutcome {
    let planted = planted_for(n, un, (un / 4).max(1), base_seed ^ 0xFA, t);
    let instance = &planted.instance;

    let mut pool = WorkerPool::new();
    pool.hire_naive_crowd(NAIVE_POOL, planted.delta_n, 0.0);
    pool.hire_expert_panel(EXPERT_POOL, planted.delta_e, 0.0);

    let trial_seed = base_seed ^ (t.wrapping_mul(0x9E37) << 16) ^ (rate.to_bits() >> 12);
    let config = PlatformConfig::paper_default()
        .without_gold()
        .with_faults(fault_config(rate), trial_seed ^ 0xFA117)
        .with_retry(RetryPolicy::paper_default().with_max_retries(4))
        .with_expert_fallback(3);
    let platform = Platform::new(
        instance.clone(),
        pool,
        config,
        StdRng::seed_from_u64(trial_seed),
    );

    let mut oracle = PlatformOracle::new(platform);
    let mut rng = StdRng::seed_from_u64(trial_seed ^ 0x5eed);
    let result = try_expert_max_find(
        &mut oracle,
        &instance.ids(),
        &ExpertMaxConfig::new(un),
        &mut rng,
    );
    let platform = oracle.into_platform();

    TrialOutcome {
        found_max: result
            .as_ref()
            .map(|o| instance.max_value() - instance.value(o.winner) <= 2.0 * planted.delta_e)
            .unwrap_or(false),
        failed: result.is_err(),
        degraded: platform.degraded(),
        cost: platform.ledger().total(),
        faults: platform.fault_counts(),
        dead_letters: platform.dead_letters().len() as u64,
    }
}

/// One aggregated sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepRow {
    /// The injected fault rate.
    pub rate: f64,
    /// Fraction of trials whose winner met the `2·δe` criterion.
    pub recall: f64,
    /// Fraction of trials that aborted.
    pub failure_rate: f64,
    /// Fraction of trials flagged degraded.
    pub degraded_rate: f64,
    /// Trials that ran to completion (aborted runs spend only a fraction
    /// of the budget, so mixing them in would *understate* fault cost).
    pub completed: u64,
    /// Mean spend per completed trial; NaN when every trial aborted.
    pub avg_cost: f64,
    /// Summed fault tallies across the point's trials.
    pub faults: FaultCounts,
    /// Summed dead letters across the point's trials.
    pub dead_letters: u64,
}

/// Sweeps every rate in [`RATES`], `trials` trials per rate. Trials fan
/// out over the parallel engine; aggregation stays in `(rate, trial)`
/// order, so the rows are identical at any `--jobs` count.
pub fn sweep(n: usize, un: usize, trials: u64, base_seed: u64) -> Vec<SweepRow> {
    let items: Vec<(usize, u64)> = (0..RATES.len())
        .flat_map(|ri| (0..trials).map(move |t| (ri, t)))
        .collect();
    let outcomes = engine::parallel_map(items, |(ri, t)| run_trial(n, un, RATES[ri], base_seed, t));
    RATES
        .iter()
        .enumerate()
        .map(|(ri, &rate)| {
            let slice = &outcomes[ri * trials as usize..(ri + 1) * trials as usize];
            let mut faults = FaultCounts::zero();
            let mut dead_letters = 0;
            let mut cost = 0.0;
            let (mut found, mut failed, mut degraded) = (0u64, 0u64, 0u64);
            for o in slice {
                found += u64::from(o.found_max);
                failed += u64::from(o.failed);
                degraded += u64::from(o.degraded);
                if !o.failed {
                    cost += o.cost;
                }
                faults = faults + o.faults;
                dead_letters += o.dead_letters;
            }
            let completed = trials - failed;
            SweepRow {
                rate,
                recall: found as f64 / trials as f64,
                failure_rate: failed as f64 / trials as f64,
                degraded_rate: degraded as f64 / trials as f64,
                completed,
                avg_cost: cost / completed as f64,
                faults,
                dead_letters,
            }
        })
        .collect()
}

/// Runs the sweep at experiment scale.
pub fn run(scale: &Scale) -> Table {
    // Platform-driven runs submit one job per Phase-1 tournament row and
    // per Phase-2 comparison; keep n modest so the five-rate sweep, with
    // its retries, stays in seconds.
    let n = (*scale.n_grid.first().unwrap_or(&300)).min(300);
    let un = (n / 50).max(3);
    let trials = scale.trials.max(2);
    let rows = sweep(n, un, trials, scale.seed ^ 0xFA0);
    let base_cost = rows[0].avg_cost.max(f64::MIN_POSITIVE);

    let mut t = Table::new(
        "fault_sweep",
        &format!(
            "Algorithm 1 under platform faults: recall and cost inflation vs fault rate \
             (n={n}, un={un}, {trials} trials, {NAIVE_POOL}+{EXPERT_POOL} workers)"
        ),
        &[
            "fault rate",
            "max recall",
            "cost inflation",
            "avg cost",
            "failure rate",
            "degraded rate",
            "dropouts",
            "no-answers",
            "timeouts",
            "retries",
            "dead letters",
        ],
    )
    .with_notes(
        "One rate drives dropout, no-answer, and timeout probabilities at \
         once. Retries (capped exponential backoff, fresh worker per \
         attempt) absorb moderate fault rates at a small cost premium; \
         past that, dead letters appear, runs abort, and recall decays. \
         The rate-0 row is byte-identical to a fault-free platform run.",
    );
    for row in &rows {
        let total = row.faults.naive + row.faults.expert;
        let (inflation, avg_cost) = if row.completed > 0 {
            (
                format!("{:.2}x", row.avg_cost / base_cost),
                fmt_f64(row.avg_cost, 1),
            )
        } else {
            ("n/a".to_string(), "n/a".to_string())
        };
        t.push_row(vec![
            fmt_f64(row.rate, 2),
            fmt_f64(row.recall, 2),
            inflation,
            avg_cost,
            fmt_f64(row.failure_rate, 2),
            fmt_f64(row.degraded_rate, 2),
            total.dropouts.to_string(),
            total.no_answers.to_string(),
            total.timeouts.to_string(),
            total.retries.to_string(),
            row.dead_letters.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_trials_are_fault_free_and_succeed() {
        let o = run_trial(150, 3, 0.0, 11, 0);
        assert!(o.found_max, "fault-free Algorithm 1 must meet Theorem 2");
        assert!(!o.failed && !o.degraded);
        assert_eq!(o.faults.total(), 0);
        assert_eq!(o.dead_letters, 0);
    }

    #[test]
    fn faulty_trials_record_recovery_work() {
        let mut retries = 0;
        for t in 0..3 {
            let o = run_trial(150, 3, 0.1, 12, t);
            retries += o.faults.naive.retries + o.faults.expert.retries;
        }
        assert!(retries > 0, "a 10% fault rate must trigger retries");
    }

    #[test]
    fn fault_config_solves_the_timeout_rate() {
        let fc = fault_config(0.2);
        match fc.latency {
            LatencyModel::Geometric { p, cap } => {
                let overrun = (1.0 - p).powi(TIMEOUT_STEPS as i32 + 1);
                assert!((overrun - 0.2).abs() < 1e-9, "{overrun}");
                assert!(cap > TIMEOUT_STEPS);
            }
            LatencyModel::Instant => panic!("nonzero rate needs a latency model"),
        }
        assert!(fault_config(0.0).is_none());
    }

    #[test]
    fn cost_inflation_shows_up_in_completed_runs() {
        // Recovered faults cost money: timed-out judgments are paid and
        // then paid for again on retry, so a completed run under faults
        // out-spends the fault-free baseline.
        let rows = sweep(120, 3, 3, 21);
        assert_eq!(rows[0].faults.total(), 0);
        assert_eq!(rows[0].completed, 3, "rate 0 must never abort");
        let faulty = rows[1..]
            .iter()
            .rev()
            .find(|r| r.completed > 0)
            .expect("some faulty rate should still complete runs");
        assert!(
            faulty.avg_cost > rows[0].avg_cost,
            "rate {}: {} vs {}",
            faulty.rate,
            faulty.avg_cost,
            rows[0].avg_cost
        );
    }

    #[test]
    fn table_shape() {
        let t = run(&Scale::quick());
        assert_eq!(t.rows.len(), RATES.len());
        assert!(t.to_markdown().contains("cost inflation"));
    }
}
