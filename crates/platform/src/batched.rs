//! Batched Phase 1: one platform job per filtering round.
//!
//! The paper's computation model (Section 3) runs algorithms in logical
//! steps: "in the s-th logical step, a batch `B_s` of pairwise comparisons
//! is sent to the crowdsourcing platform", and each logical step costs
//! `⌈|B_s| / |W_t|⌉` *physical* steps of wall-clock time. Within a round of
//! Algorithm 2 every group's tournament is independent of every other
//! comparison, so [`batched_filter`] submits all of a round's rows as a
//! single job: a round of `m` games takes `⌈m/w⌉` physical steps on a pool
//! of `w` workers — the parallel speedup the paper's time model is about
//! (and the measure Venetis et al. optimize). The rounds themselves are
//! [`FilterRounds`]'s.

use crate::platform::{Platform, PlatformError};
use crowd_core::algorithms::{FilterConfig, FilterRounds};
use crowd_core::element::ElementId;
use crowd_core::model::WorkerClass;
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// The outcome of a batched Phase-1 run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchedFilterOutcome {
    /// The candidate set.
    pub survivors: Vec<ElementId>,
    /// Logical steps (one per filtering round — all groups of a round
    /// share one job).
    pub logical_steps: u64,
    /// Physical steps consumed (wall-clock in the paper's time model).
    pub physical_steps: u64,
    /// True when the platform degraded service while this filter ran
    /// (dead-lettered units, expert-depletion fallback, …) — the survivor
    /// set may then be larger than Lemma 3's `2·un−1` bound.
    pub degraded: bool,
}

/// Algorithm 2 with one platform job per round: all groups' tournaments of
/// a round are batched together, so a round of `m` comparisons costs
/// `⌈m/w⌉` physical steps instead of `m`.
///
/// Semantically identical to
/// [`filter_candidates`](crowd_core::algorithms::filter_candidates); only
/// the batching differs.
///
/// # Errors
///
/// Propagates platform failures: scheduling errors, budget exhaustion, or
/// units left unanswered after the retry budget is spent.
///
/// # Panics
///
/// Panics if `config.un == 0`.
pub fn batched_filter<R: RngCore>(
    platform: &mut Platform<R>,
    class: WorkerClass,
    elements: &[ElementId],
    config: &FilterConfig,
) -> Result<BatchedFilterOutcome, PlatformError> {
    let physical_start = platform.physical_clock();
    let logical_start = platform.logical_steps();
    let counts_start = platform.counts();
    let was_degraded = platform.degraded();

    let mut rounds = FilterRounds::new(elements, config);
    let mut pairs = Vec::new();
    while rounds.next_round().is_some() {
        pairs.clear();
        for group in rounds.groups() {
            rounds.push_pairs(group, &mut pairs);
        }
        let answers = platform.submit_comparisons(&pairs, class)?;
        let (mut tally, mut rest) = (rounds.tally(), answers.as_slice());
        for group in rounds.groups() {
            rest = tally.score(group, rest);
        }
        rounds.absorb(&mut tally);
        rounds.end_round();
    }
    let outcome = rounds.finish(platform.counts().saturating_sub(counts_start));

    Ok(BatchedFilterOutcome {
        survivors: outcome.survivors,
        logical_steps: platform.logical_steps() - logical_start,
        physical_steps: platform.physical_clock() - physical_start,
        degraded: platform.degraded() && !was_degraded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PlatformConfig;
    use crate::pool::WorkerPool;
    use crowd_core::element::Instance;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn perfect_platform(n: usize, workers: usize, seed: u64) -> Platform<StdRng> {
        let instance = Instance::new((0..n).map(|i| i as f64).collect());
        let mut pool = WorkerPool::new();
        pool.hire_naive_crowd(workers, 0.0, 0.0);
        Platform::new(
            instance,
            pool,
            PlatformConfig::paper_default().without_gold(),
            StdRng::seed_from_u64(seed),
        )
    }

    #[test]
    fn batched_filter_keeps_max_and_parallelizes() {
        let n = 200;
        let workers = 25;
        let mut p = perfect_platform(n, workers, 2);
        let ids: Vec<ElementId> = (0..n as u32).map(ElementId).collect();
        let out = batched_filter(&mut p, WorkerClass::Naive, &ids, &FilterConfig::new(4)).unwrap();
        assert!(out.survivors.contains(&ElementId(n as u32 - 1)));
        assert!(out.survivors.len() <= 7);
        // Parallelism: far fewer physical steps than comparisons.
        let comparisons = p.counts().naive;
        assert!(
            out.physical_steps <= comparisons / (workers as u64 / 2),
            "{} physical steps for {} comparisons on {} workers",
            out.physical_steps,
            comparisons,
            workers
        );
        // One logical step (job) per round.
        assert!(
            out.logical_steps <= 8,
            "{} logical steps",
            out.logical_steps
        );
    }

    #[test]
    fn batched_and_sequential_agree_with_perfect_workers() {
        use crate::platform::PlatformOracle;
        use crowd_core::algorithms::filter_candidates;
        use crowd_core::oracle::{ComparisonOracle, FnOracle};

        let n = 150;
        let ids: Vec<ElementId> = (0..n as u32).map(ElementId).collect();

        let mut batched_p = perfect_platform(n, 10, 3);
        let batched = batched_filter(
            &mut batched_p,
            WorkerClass::Naive,
            &ids,
            &FilterConfig::new(3),
        )
        .unwrap();

        let sequential_p = perfect_platform(n, 10, 3);
        let mut oracle = PlatformOracle::new(sequential_p);
        // `FnOracle` answers a batch with the scalar loop: one job per pair.
        let sequential = filter_candidates(
            &mut FnOracle::new(|c, k, j| oracle.compare(c, k, j)),
            &ids,
            &FilterConfig::new(3),
        );

        assert_eq!(batched.survivors, sequential.survivors);
        // Same comparisons, radically different wall-clock.
        let seq_platform = oracle.into_platform();
        assert_eq!(batched_p.counts().naive, seq_platform.counts().naive);
        assert!(batched.physical_steps < seq_platform.physical_clock() / 5);
    }

    #[test]
    fn single_group_instances_work() {
        let mut p = perfect_platform(10, 3, 4);
        let ids: Vec<ElementId> = (0..10).map(ElementId).collect();
        let out = batched_filter(&mut p, WorkerClass::Naive, &ids, &FilterConfig::new(3)).unwrap();
        assert!(out.survivors.contains(&ElementId(9)));
    }

    /// A platform whose naïve pool mixes honest workers with a whole
    /// channel of spammers, with gold questions armed so quality control
    /// can catch them.
    fn spam_infested_platform(
        n: usize,
        honest: usize,
        spammers: usize,
        seed: u64,
    ) -> Platform<StdRng> {
        use crate::worker::{Behavior, SpamStrategy};
        use crowd_core::model::WorkerClass;

        let instance = Instance::new((0..n).map(|i| i as f64).collect());
        let mut pool = WorkerPool::new();
        pool.hire_naive_crowd(honest, 0.0, 0.0);
        for _ in 0..spammers {
            pool.hire(
                WorkerClass::Naive,
                "spamhaus",
                Behavior::Spammer(SpamStrategy::AlwaysSecond),
            );
        }
        let mut cfg = PlatformConfig::paper_default();
        cfg.gold_fraction = 0.25;
        let mut p = Platform::new(instance, pool, cfg, StdRng::seed_from_u64(seed));
        p.set_gold_pairs(vec![
            (ElementId(n as u32 - 1), ElementId(0)),
            (ElementId(n as u32 - 2), ElementId(1)),
        ]);
        p
    }

    #[test]
    fn batched_filter_survives_an_all_spammer_channel() {
        // Half the pool is one big spam channel. Gold questions flag the
        // spammers; the filter must either still honour Lemma 3's
        // |S| <= 2·un − 1 bound, or come back flagged degraded.
        let un = 3;
        let mut p = spam_infested_platform(120, 12, 12, 6);
        let ids: Vec<ElementId> = (0..120).map(ElementId).collect();
        let out = batched_filter(&mut p, WorkerClass::Naive, &ids, &FilterConfig::new(un)).unwrap();
        // |S| < 2·un is Lemma 3's |S| <= 2·un − 1.
        assert!(
            out.survivors.len() < 2 * un || out.degraded,
            "{} survivors with un = {un}, degraded = {}",
            out.survivors.len(),
            out.degraded
        );
        // Quality control earned its keep: the spam channel is flagged.
        assert!(
            p.trust().untrusted().next().is_some(),
            "gold questions should have caught at least one spammer"
        );
    }
}
