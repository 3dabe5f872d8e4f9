//! The paper's time model (Section 3, Remark): the number of *logical*
//! steps is the time-complexity measure of Venetis et al., and each logical
//! step `s` spans `⌈|B_s| / |W|⌉` *physical* steps. This experiment runs
//! Phase 1 both ways on the platform — sequentially (one job per
//! comparison) and batched (one job per round) — across worker-pool sizes,
//! and reports the wall-clock (physical-step) speedup.
//!
//! Expected shape: identical comparison counts and identical survivors, but
//! the batched run's physical steps shrink roughly like `1/|W|` while the
//! sequential run's equal its comparison count regardless of pool size.

use crate::report::Table;
use crate::scale::Scale;
use crowd_core::algorithms::{filter_candidates, FilterConfig};
use crowd_core::element::{ElementId, Instance};
use crowd_core::model::{TiePolicy, WorkerClass};
use crowd_core::oracle::{ComparisonCounts, ComparisonOracle};
use crowd_platform::{
    batched_filter, Behavior, Platform, PlatformConfig, PlatformOracle, WorkerPool,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Pool sizes to sweep.
pub const POOL_SIZES: [usize; 3] = [10, 50, 200];

fn build_platform(instance: &Instance, workers: usize, delta: f64, seed: u64) -> Platform<StdRng> {
    let mut pool = WorkerPool::new();
    pool.hire_many(
        workers,
        WorkerClass::Naive,
        "crowd",
        Behavior::Threshold {
            delta,
            epsilon: 0.0,
            tie: TiePolicy::UniformRandom,
        },
    );
    Platform::new(
        instance.clone(),
        pool,
        PlatformConfig::paper_default().without_gold(),
        StdRng::seed_from_u64(seed),
    )
}

/// The sequential arm's adapter: it implements only `compare`, so the
/// trait's default `compare_batch` — the scalar loop — hands the filter's
/// row batches to the platform one pair, and one job, at a time. It tallies
/// nothing itself (unlike an `FnOracle`), so each platform judgment is
/// counted once in the run's comparison totals.
struct OneJobPerPair<O>(O);

impl<O: ComparisonOracle> ComparisonOracle for OneJobPerPair<O> {
    fn compare(&mut self, class: WorkerClass, k: ElementId, j: ElementId) -> ElementId {
        self.0.compare(class, k, j)
    }

    fn counts(&self) -> ComparisonCounts {
        self.0.counts()
    }
}

/// One measurement: sequential vs batched physical steps at one pool size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyRow {
    /// Worker-pool size `|W|`.
    pub workers: usize,
    /// Comparisons performed (identical in both drives).
    pub comparisons: u64,
    /// Physical steps of the sequential (one-unit-job) drive.
    pub sequential_steps: u64,
    /// Physical steps of the batched (one-job-per-round) drive.
    pub batched_steps: u64,
    /// Batched logical steps (rounds).
    pub batched_rounds: u64,
}

/// Measures one pool size.
///
/// # Errors
///
/// Propagates the [`PlatformError`](crowd_platform::PlatformError) of a batched run that the platform
/// could not schedule (an empty or depleted pool) — the caller decides
/// whether that pool size is skipped or fatal.
pub fn measure(
    n: usize,
    un: usize,
    workers: usize,
    seed: u64,
) -> Result<LatencyRow, crowd_platform::PlatformError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let planted = crowd_datasets::synthetic::planted_instance(n, un, un.div_ceil(2), &mut rng);
    let instance = &planted.instance;

    let sequential_platform = build_platform(instance, workers, planted.delta_n, seed ^ 1);
    let mut oracle = OneJobPerPair(PlatformOracle::new(sequential_platform));
    filter_candidates(&mut oracle, &instance.ids(), &FilterConfig::new(un));
    let sequential_platform = oracle.0.into_platform();

    let mut batched_platform = build_platform(instance, workers, planted.delta_n, seed ^ 1);
    let batched = batched_filter(
        &mut batched_platform,
        WorkerClass::Naive,
        &instance.ids(),
        &FilterConfig::new(un),
    )?;

    Ok(LatencyRow {
        workers,
        comparisons: batched_platform.counts().naive,
        sequential_steps: sequential_platform.physical_clock(),
        batched_steps: batched.physical_steps,
        batched_rounds: batched.logical_steps,
    })
}

/// Runs the sweep.
pub fn run(scale: &Scale) -> Table {
    // The time-model demonstration does not need the largest grid size:
    // sequential driving submits one platform job per comparison, so cap
    // the sweep at a size whose ~100k jobs run in seconds.
    let n = (*scale.n_grid.last().unwrap_or(&1000)).min(2000);
    let un = (n / 100).max(2);
    let mut t = Table::new(
        "latency",
        &format!("Physical-step latency of Phase 1, sequential vs batched (n={n}, un={un})"),
        &[
            "workers",
            "comparisons",
            "sequential physical steps",
            "batched physical steps",
            "batched rounds",
            "speedup",
        ],
    )
    .with_notes(
        "The paper's time model: a batch of m comparisons takes ceil(m/|W|) \
         physical steps. Sequential driving wastes the pool; batching each \
         filter round gives a ~|W|-fold wall-clock speedup at identical \
         comparison counts.",
    );
    for &w in &POOL_SIZES {
        // A pool the platform cannot schedule is a dead letter for that
        // sweep point, not a reason to abort the whole table.
        let row = match measure(n, un, w, scale.seed ^ 0x1a7) {
            Ok(row) => row,
            Err(e) => {
                eprintln!("latency: skipping pool of {w}: {e}");
                continue;
            }
        };
        t.push_row(vec![
            row.workers.to_string(),
            row.comparisons.to_string(),
            row.sequential_steps.to_string(),
            row.batched_steps.to_string(),
            row.batched_rounds.to_string(),
            format!(
                "{:.1}x",
                row.sequential_steps as f64 / row.batched_steps.max(1) as f64
            ),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_is_faster_and_scales_with_pool() {
        let small = measure(300, 5, 10, 1).expect("healthy pool of 10");
        let large = measure(300, 5, 100, 1).expect("healthy pool of 100");
        // Same workload either way.
        assert!(small.sequential_steps >= small.comparisons);
        // Batched beats sequential at any pool size.
        assert!(small.batched_steps < small.sequential_steps / 2);
        // More workers, fewer physical steps.
        assert!(large.batched_steps < small.batched_steps);
    }

    #[test]
    fn rounds_match_filter_rounds() {
        let row = measure(400, 5, 50, 2).expect("healthy pool of 50");
        // A handful of logical rounds, as in Lemma 3's log-style shrink.
        assert!(row.batched_rounds >= 1 && row.batched_rounds <= 10);
    }

    #[test]
    fn table_shape() {
        let t = run(&Scale::quick());
        assert_eq!(t.rows.len(), POOL_SIZES.len());
        assert!(t.to_markdown().contains("speedup"));
    }
}
