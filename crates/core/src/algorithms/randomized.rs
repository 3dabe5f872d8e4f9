//! Algorithm 5 — the randomized second-phase algorithm (Ajtai et al.
//! \[2, Section 3.2\]; paper Appendix B.3).
//!
//! Performs `Θ(s)` comparisons and returns, with high probability, an
//! element within `3δ` of the maximum:
//!
//! 1. while at least `s^{0.3}` elements survive: sample `⌈s^{0.3}⌉`
//!    survivors at random into a witness set `W`; randomly partition the
//!    survivors into sets of size `80(c + 2)`; play an all-play-all
//!    tournament in each set and remove its *minimal* element (fewest wins,
//!    ties broken arbitrarily);
//! 2. add the remaining survivors to `W` and play a final all-play-all
//!    tournament among `W`; return the element with the most wins.
//!
//! The paper keeps this algorithm for the theoretical analysis (it yields
//! the asymptotically optimal `Θ(un(n))` expert comparisons of Lemma 5) but
//! uses 2-MaxFind in the experiments, because "the constants are so high
//! that for the values of n of our interest they lead to a much higher
//! cost" — a claim our benchmarks reproduce.
//!
//! Implementation notes on the pseudocode's edge cases:
//!
//! * groups smaller than two cannot certify a minimal element, so nothing is
//!   removed from them (removing the sole member of a singleton group could
//!   silently discard the maximum);
//! * if a round removes nothing (possible only when every group is a
//!   singleton, i.e. `80(c+2) > |N_i|` and the partition degenerated), the
//!   loop exits — the survivors all go to `W` anyway.

use super::steps::{round_robin, run_infallible, tally, Games, Plan};
use crate::element::ElementId;
use crate::model::WorkerClass;
use crate::oracle::{ComparisonCounts, ComparisonOracle};
use rand::seq::SliceRandom;
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// Configuration for [`randomized_max_find`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RandomizedConfig {
    /// The confidence constant `c`: the failure probability is `|S|^{-c}`
    /// and the group size is `80(c + 2)`.
    pub c: u32,
    /// Optional replacement for the theoretical group size `80(c + 2)`.
    ///
    /// The theoretical constant targets asymptotically large inputs; at the
    /// problem sizes of the paper's experiments it makes every round a
    /// near-quadratic tournament (the very reason the paper uses 2-MaxFind
    /// in practice). A small override (e.g. 8–16) preserves the algorithm's
    /// *structure* — random groups, remove the weakest, witness sampling —
    /// at simulation-friendly cost, at the price of the formal whp constant.
    pub group_size_override: Option<usize>,
}

impl RandomizedConfig {
    /// The faithful configuration with confidence constant `c` (groups of
    /// `80(c + 2)`).
    pub fn new(c: u32) -> Self {
        RandomizedConfig {
            c,
            group_size_override: None,
        }
    }

    /// Replaces the group size (must be at least 2).
    ///
    /// # Panics
    ///
    /// Panics if `size < 2` — a group needs two members to certify a
    /// minimal element.
    pub fn with_group_size(mut self, size: usize) -> Self {
        assert!(size >= 2, "group size must be at least 2");
        self.group_size_override = Some(size);
        self
    }

    /// Group size used for the per-round tournaments: the override if set,
    /// else the theoretical `80(c + 2)`.
    pub fn group_size(&self) -> usize {
        self.group_size_override
            .unwrap_or(80 * (self.c as usize + 2))
    }
}

impl Default for RandomizedConfig {
    fn default() -> Self {
        RandomizedConfig::new(1)
    }
}

/// Result of a randomized max-find run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RandomizedOutcome {
    /// The returned element.
    pub winner: ElementId,
    /// Rounds of the elimination loop.
    pub rounds: usize,
    /// Size of the witness set `W` in the final tournament.
    pub witness_size: usize,
    /// Comparisons performed.
    pub comparisons: ComparisonCounts,
}

/// Algorithm 5 as a [`Plan`]: each round's group tournaments are one list.
/// It owns the RNG that draws the witnesses and the partitions.
#[derive(Debug, Clone)]
pub(crate) struct Randomized<R> {
    rng: R,
    sample_size: usize,
    group_size: usize,
    /// The survivors and the witnesses `W` (with repeats until the final
    /// tournament), by index into the input.
    survivors: Vec<u32>,
    witnesses: Vec<u32>,
    rounds: usize,
    /// Whether the last list was a round's group tournaments.
    in_round: bool,
}

impl<R: RngCore> Randomized<R> {
    pub(crate) fn new(s: usize, config: &RandomizedConfig, rng: R) -> Self {
        Randomized {
            rng,
            sample_size: (s as f64).powf(0.3).ceil() as usize,
            group_size: config.group_size(),
            survivors: (0..s as u32).collect(),
            witnesses: Vec::new(),
            rounds: 0,
            in_round: false,
        }
    }

    /// This round's groups that can certify a minimal element: those with
    /// at least two members.
    fn groups(&self) -> impl Iterator<Item = &[u32]> {
        self.survivors
            .chunks(self.group_size)
            .filter(|group| group.len() >= 2)
    }
}

impl<R: RngCore> Plan for Randomized<R> {
    fn plan(
        &mut self,
        ids: &[ElementId],
        a_won: &[bool],
        next: &mut Vec<(u32, u32)>,
    ) -> Option<Vec<u32>> {
        let mut go_on = true;
        if std::mem::take(&mut self.in_round) {
            // Step 5: each group's minimal element (fewest wins, ties to
            // the earliest) leaves.
            let mut removed = Vec::new();
            let mut rest = a_won;
            for group in self.groups() {
                let (won, tail) = rest.split_at(group.len() * (group.len() - 1) / 2);
                let wins = tally(group.len(), won);
                let weakest = wins.iter().enumerate().min_by_key(|&(_, &w)| w);
                removed.push(group[weakest.expect("two members").0]);
                rest = tail;
            }
            // A round that removes nothing sends the survivors to W.
            go_on = !removed.is_empty();
            self.survivors.retain(|e| !removed.contains(e));
            self.rounds += usize::from(go_on);
        }
        let n = self.survivors.len();
        if go_on && n >= self.sample_size.max(1) && n > 1 {
            // Step 3: sample witnesses from the survivors.
            let sampled = self
                .survivors
                .choose_multiple(&mut self.rng, self.sample_size.min(n));
            self.witnesses.extend(sampled);
            // Step 4: random partition into groups of 80(c + 2).
            self.survivors.shuffle(&mut self.rng);
            for group in self.groups() {
                round_robin(group, next);
            }
            self.in_round = true;
            return None;
        }
        // Step 9: W <- W ∪ N_i, then a final tournament.
        self.witnesses.extend_from_slice(&self.survivors);
        self.witnesses.sort_unstable_by_key(|&i| ids[i as usize]);
        self.witnesses.dedup();
        Some(self.witnesses.clone())
    }
}

/// Runs Algorithm 5 over `elements` with workers of `class`, one
/// comparison per [`compare_batch`](ComparisonOracle::compare_batch) call.
///
/// # Panics
///
/// Panics if `elements` is empty or contains duplicates.
pub fn randomized_max_find<O: ComparisonOracle, R: RngCore>(
    oracle: &mut O,
    class: WorkerClass,
    elements: &[ElementId],
    config: &RandomizedConfig,
    rng: &mut R,
) -> RandomizedOutcome {
    assert!(
        !elements.is_empty(),
        "randomized max-find needs at least one element"
    );
    let plan = Randomized::new(elements.len(), config, rng);
    let mut steps = Games::new(class, elements, plan);
    let start = oracle.counts();
    run_infallible(&mut steps, oracle);
    let comparisons = oracle.counts().delta_since(start);
    let rounds = steps.plan.rounds;
    let w = steps.finish();
    RandomizedOutcome {
        winner: w.champion().expect("W contains the survivors"),
        rounds,
        witness_size: w.len(),
        comparisons: comparisons.unwrap_or_else(|e| panic!("{e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Instance;
    use crate::model::{ExpertModel, TiePolicy};
    use crate::oracle::{PerfectOracle, SimulatedOracle};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn uniform_instance(n: usize, seed: u64) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        Instance::new((0..n).map(|_| rng.gen_range(0.0..1000.0)).collect())
    }

    #[test]
    fn perfect_oracle_finds_exact_max() {
        for n in [1, 2, 5, 50, 300] {
            let inst = uniform_instance(n, n as u64);
            let mut o = PerfectOracle::new(inst.clone());
            let mut rng = StdRng::seed_from_u64(42);
            let out = randomized_max_find(
                &mut o,
                WorkerClass::Expert,
                &inst.ids(),
                &RandomizedConfig::default().with_group_size(12),
                &mut rng,
            );
            assert_eq!(out.winner, inst.max_element(), "n = {n}");
        }
    }

    #[test]
    fn faithful_group_size_still_finds_max_on_small_input() {
        // Theoretical group size (240) larger than the input: the partition
        // degenerates to one group per round, removing one element per
        // round — slow, but correct.
        let inst = uniform_instance(60, 21);
        let mut o = PerfectOracle::new(inst.clone());
        let mut rng = StdRng::seed_from_u64(22);
        let out = randomized_max_find(
            &mut o,
            WorkerClass::Expert,
            &inst.ids(),
            &RandomizedConfig::default(),
            &mut rng,
        );
        assert_eq!(out.winner, inst.max_element());
    }

    #[test]
    fn within_three_delta_under_threshold_model() {
        let mut failures = 0;
        let trials = 30;
        for seed in 0..trials {
            let inst = uniform_instance(500, seed);
            let delta = 20.0;
            let model = ExpertModel::exact(delta, delta, TiePolicy::UniformRandom);
            let mut o = SimulatedOracle::new(inst.clone(), model, StdRng::seed_from_u64(seed + 1));
            let mut rng = StdRng::seed_from_u64(seed + 2);
            let out = randomized_max_find(
                &mut o,
                WorkerClass::Expert,
                &inst.ids(),
                &RandomizedConfig::default().with_group_size(8),
                &mut rng,
            );
            let gap = inst.max_value() - inst.value(out.winner);
            if gap > 3.0 * delta {
                failures += 1;
            }
        }
        // "whp" — allow a small number of failures over 30 trials.
        assert!(failures <= 1, "{failures}/{trials} runs exceeded 3δ");
    }

    #[test]
    fn linear_comparison_growth() {
        // Θ(s): comparisons grow roughly linearly (each element plays O(1)
        // group tournaments of constant size, plus a o(s) final tournament).
        let count = |n: usize| {
            let inst = uniform_instance(n, 9);
            let mut o = PerfectOracle::new(inst.clone());
            let mut rng = StdRng::seed_from_u64(10);
            randomized_max_find(
                &mut o,
                WorkerClass::Expert,
                &inst.ids(),
                &RandomizedConfig::default().with_group_size(16),
                &mut rng,
            )
            .comparisons
            .expert
        };
        let c1 = count(2000);
        let c2 = count(4000);
        let ratio = c2 as f64 / c1 as f64;
        assert!(
            ratio < 3.0,
            "doubling n multiplied comparisons by {ratio} — not linear"
        );
    }

    #[test]
    fn rounds_and_witnesses_reported() {
        let inst = uniform_instance(1000, 11);
        let mut o = PerfectOracle::new(inst.clone());
        let mut rng = StdRng::seed_from_u64(12);
        let out = randomized_max_find(
            &mut o,
            WorkerClass::Expert,
            &inst.ids(),
            &RandomizedConfig::default(),
            &mut rng,
        );
        assert!(out.rounds > 0);
        assert!(out.witness_size >= 1);
    }

    #[test]
    fn group_size_formula() {
        assert_eq!(RandomizedConfig::new(0).group_size(), 160);
        assert_eq!(RandomizedConfig::new(1).group_size(), 240);
        assert_eq!(RandomizedConfig::new(3).group_size(), 400);
        assert_eq!(RandomizedConfig::new(1).with_group_size(8).group_size(), 8);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn group_size_override_below_two_panics() {
        RandomizedConfig::new(1).with_group_size(1);
    }

    #[test]
    fn singleton_input() {
        let inst = Instance::new(vec![1.0]);
        let mut o = PerfectOracle::new(inst);
        let mut rng = StdRng::seed_from_u64(1);
        let out = randomized_max_find(
            &mut o,
            WorkerClass::Naive,
            &[ElementId(0)],
            &RandomizedConfig::default(),
            &mut rng,
        );
        assert_eq!(out.winner, ElementId(0));
        assert_eq!(out.comparisons.total(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one element")]
    fn empty_input_panics() {
        let mut o = PerfectOracle::new(Instance::new(vec![1.0]));
        let mut rng = StdRng::seed_from_u64(1);
        randomized_max_find(
            &mut o,
            WorkerClass::Naive,
            &[],
            &RandomizedConfig::default(),
            &mut rng,
        );
    }
}
