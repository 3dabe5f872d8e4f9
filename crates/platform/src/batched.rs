//! Batched algorithm execution: one job per logical step.
//!
//! The paper's computation model (Section 3) runs algorithms in logical
//! steps: "in the s-th logical step, a batch `B_s` of pairwise comparisons
//! is sent to the crowdsourcing platform", and each logical step costs
//! `⌈|B_s| / |W_t|⌉` *physical* steps of wall-clock time. Driving the
//! platform through the [`ComparisonOracle`](crowd_core::oracle::ComparisonOracle)
//! adapter submits one job per oracle call: the Phase-1 filter batches each
//! tournament row, so a group of `|G|` players takes `|G| − 1` jobs of at
//! most `|G| − 1` units each, and a scalar-only oracle in between takes one
//! job per comparison. The batched executors below submit every
//! independent comparison of a round as a single job, so a round of `m`
//! games takes `⌈m/w⌉` physical steps on a pool of `w` workers — the
//! parallel speedup the paper's time model is about (and the measure
//! Venetis et al. optimize).
//!
//! Algorithm 2 is embarrassingly batchable: within a round, every group's
//! entire all-play-all tournament is independent of every other
//! comparison. [`batched_filter`] exploits exactly that.

use crate::platform::{Platform, PlatformError};
use crowd_core::algorithms::FilterConfig;
use crowd_core::element::ElementId;
use crowd_core::model::WorkerClass;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Win counts from one batched all-play-all tournament.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchedTournament {
    players: Vec<ElementId>,
    wins: Vec<u32>,
}

impl BatchedTournament {
    /// The participants.
    pub fn players(&self) -> &[ElementId] {
        &self.players
    }

    /// Wins of the `i`-th participant.
    pub fn wins(&self, i: usize) -> u32 {
        self.wins[i]
    }

    /// Participants with at least `min_wins` wins, in input order.
    pub fn winners_with_at_least(&self, min_wins: u32) -> Vec<ElementId> {
        self.players
            .iter()
            .zip(&self.wins)
            .filter(|&(_, &w)| w >= min_wins)
            .map(|(&p, _)| p)
            .collect()
    }

    /// The participant with the most wins (ties: earliest).
    pub fn champion(&self) -> Option<ElementId> {
        let mut best: Option<(ElementId, u32)> = None;
        for (&p, &w) in self.players.iter().zip(&self.wins) {
            if best.is_none_or(|(_, top)| w > top) {
                best = Some((p, w));
            }
        }
        best.map(|(p, _)| p)
    }
}

/// Plays an all-play-all tournament as a *single* platform job: all
/// `|players|·(|players|−1)/2` comparisons go out in one batch.
///
/// # Errors
///
/// Propagates platform failures: scheduling errors, budget exhaustion, or
/// units left unanswered after the retry budget is spent.
pub fn batched_all_play_all<R: RngCore>(
    platform: &mut Platform<R>,
    class: WorkerClass,
    players: &[ElementId],
) -> Result<BatchedTournament, PlatformError> {
    let mut pairs = Vec::with_capacity(players.len() * players.len().saturating_sub(1) / 2);
    for i in 0..players.len() {
        for j in (i + 1)..players.len() {
            pairs.push((players[i], players[j]));
        }
    }
    let mut wins = vec![0u32; players.len()];
    if !pairs.is_empty() {
        let answers = platform.submit_comparisons(&pairs, class)?;
        let index: HashMap<ElementId, usize> =
            players.iter().enumerate().map(|(i, &p)| (p, i)).collect();
        for (&winner, &(k, j)) in answers.iter().zip(&pairs) {
            debug_assert!(winner == k || winner == j);
            wins[index[&winner]] += 1;
        }
    }
    Ok(BatchedTournament {
        players: players.to_vec(),
        wins,
    })
}

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
/// [`filter_candidates`](crowd_core::algorithms::filter_candidates)
/// (without the global-loss option); only the batching differs.
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
    assert!(
        config.un >= 1,
        "un(n) >= 1: the maximum is indistinguishable from itself"
    );
    let un = config.un;
    let g = 4 * un;
    let physical_start = platform.physical_clock();
    let logical_start = platform.logical_steps();
    let was_degraded = platform.degraded();

    let mut survivors: Vec<ElementId> = elements.to_vec();
    while survivors.len() >= 2 * un {
        // Build the round's batch: every pair of every group.
        let chunks: Vec<Vec<ElementId>> = survivors.chunks(g).map(<[_]>::to_vec).collect();
        let mut pairs = Vec::new();
        let mut skip_whole: Vec<bool> = Vec::with_capacity(chunks.len());
        for (ci, chunk) in chunks.iter().enumerate() {
            let keep_whole = ci == chunks.len() - 1 && chunk.len() <= un;
            skip_whole.push(keep_whole);
            if keep_whole {
                continue;
            }
            for i in 0..chunk.len() {
                for j in (i + 1)..chunk.len() {
                    pairs.push((chunk[i], chunk[j]));
                }
            }
        }
        let answers = platform.submit_comparisons(&pairs, class)?;
        let answer_of: HashMap<(ElementId, ElementId), ElementId> =
            pairs.iter().copied().zip(answers).collect();

        // Score each group from the shared answer map.
        let mut next = Vec::new();
        let mut champions = Vec::new();
        for (chunk, &keep_whole) in chunks.iter().zip(&skip_whole) {
            if keep_whole {
                next.extend_from_slice(chunk);
                champions.extend_from_slice(chunk);
                continue;
            }
            let mut wins = vec![0u32; chunk.len()];
            for i in 0..chunk.len() {
                for j in (i + 1)..chunk.len() {
                    let winner = answer_of[&(chunk[i], chunk[j])];
                    if winner == chunk[i] {
                        wins[i] += 1;
                    } else {
                        wins[j] += 1;
                    }
                }
            }
            let threshold = (chunk.len() - un) as u32;
            for (idx, &e) in chunk.iter().enumerate() {
                if wins[idx] >= threshold {
                    next.push(e);
                }
            }
            if let Some(best) = wins
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
                .map(|(i, _)| chunk[i])
            {
                champions.push(best);
            }
        }
        if next.is_empty() {
            next = champions; // same graceful degradation as the sequential filter
        }
        assert!(next.len() < survivors.len(), "round failed to shrink");
        survivors = next;
    }

    Ok(BatchedFilterOutcome {
        survivors,
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
    fn batched_tournament_matches_values() {
        let mut p = perfect_platform(5, 4, 1);
        let ids: Vec<ElementId> = (0..5).map(ElementId).collect();
        let t = batched_all_play_all(&mut p, WorkerClass::Naive, &ids).unwrap();
        assert_eq!(t.wins(4), 4);
        assert_eq!(t.wins(0), 0);
        assert_eq!(t.champion(), Some(ElementId(4)));
        assert_eq!(t.winners_with_at_least(3), vec![ElementId(3), ElementId(4)]);
        // 10 comparisons over 4 workers → 3 physical steps, 1 logical step.
        assert_eq!(p.logical_steps(), 1);
        assert_eq!(p.physical_clock(), 3);
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

    #[test]
    fn empty_tournament_is_fine() {
        let mut p = perfect_platform(3, 2, 5);
        let t = batched_all_play_all(&mut p, WorkerClass::Naive, &[]).unwrap();
        assert_eq!(t.champion(), None);
        assert_eq!(p.logical_steps(), 0);
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
        cfg.min_gold = 2;
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
        let untrusted = p.trust().untrusted();
        assert!(
            !untrusted.is_empty(),
            "gold questions should have caught at least one spammer"
        );
    }

    #[test]
    fn batched_tournament_survives_an_all_spammer_channel() {
        let mut p = spam_infested_platform(30, 8, 8, 7);
        let ids: Vec<ElementId> = (0..12).map(ElementId).collect();
        let t = batched_all_play_all(&mut p, WorkerClass::Naive, &ids).unwrap();
        // The tournament completes and crowns somebody; with honest
        // workers outvoting flagged spam, wins stay consistent.
        assert!(t.champion().is_some());
        let total_wins: u32 = (0..ids.len()).map(|i| t.wins(i)).sum();
        assert_eq!(total_wins as usize, ids.len() * (ids.len() - 1) / 2);
    }
}
