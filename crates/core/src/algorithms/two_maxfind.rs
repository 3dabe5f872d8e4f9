//! Algorithm 3 — 2-MaxFind (Ajtai et al. \[2, Section 3.1\]).
//!
//! Deterministic near-max selection under imprecise comparisons. Starting
//! from all `s` input elements as candidates:
//!
//! 1. while more than `⌈√s⌉` candidates remain: pick an arbitrary set of
//!    `⌈√s⌉` candidates, play an all-play-all tournament among them, let `x`
//!    be the element with the most wins; compare `x` against every candidate
//!    and eliminate all candidates that lose to `x`;
//! 2. play a final all-play-all tournament among the at most `⌈√s⌉`
//!    survivors and return the element with the most wins.
//!
//! Under `T(δ, 0)` with consistent answers it returns an element within
//! `2δ` of the maximum — the best achievable in the model \[2\] — using at
//! most `2·s^{3/2}` comparisons (paper Theorem 1).
//!
//! The implementation memoizes comparisons within the run (the paper:
//! "assuming that we memorize results and we do not repeat comparisons").
//! Besides saving cost, memoization guarantees termination even against an
//! oracle whose hard answers are inconsistent coin flips: the round's
//! champion `x` beat at least `⌈(√s − 1)/2⌉` group members in the
//! tournament, and the memo makes those eliminations stick.

use super::steps::{champion, round_robin, run_infallible, tally, Games, Plan};
use crate::element::ElementId;
use crate::model::WorkerClass;
use crate::oracle::{ComparisonCounts, ComparisonOracle};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Result of a 2-MaxFind run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TwoMaxFindOutcome {
    /// The returned element (the final tournament's champion).
    pub winner: ElementId,
    /// Elimination rounds executed before the final tournament.
    pub rounds: usize,
    /// Ranking of the final tournament, best first — the "ranking of the
    /// last round" the paper reports in Tables 1 and 2.
    pub final_ranking: Vec<(ElementId, u32)>,
    /// Comparisons performed (by the requested class only).
    pub comparisons: ComparisonCounts,
}

/// Candidate counts up to this size memoize into a flat `s × s` byte table
/// (one byte per unordered pair, ≤ 16 MiB); larger runs fall back to a
/// hash map so memory stays `O(comparisons)` rather than `O(s²)`.
const DENSE_MEMO_LIMIT: usize = 4096;

/// The answers of one run, by the dense indices of the two candidates, so
/// the common case is a single flat-table probe per comparison — no
/// hashing, no per-pair allocation.
#[derive(Debug, Clone)]
pub(crate) struct Memo {
    s: usize,
    /// Flat memo for small runs: cell `(lo, hi)` (with `lo < hi`) holds
    /// 0 = unknown, 1 = `lo` won, 2 = `hi` won.
    dense: Vec<u8>,
    /// Pair memo for runs past [`DENSE_MEMO_LIMIT`]: unordered index pair
    /// → winning index.
    sparse: HashMap<(u32, u32), u32>,
}

impl Memo {
    pub(crate) fn new(s: usize) -> Self {
        let dense = if s <= DENSE_MEMO_LIMIT {
            vec![0u8; s * s]
        } else {
            Vec::new()
        };
        Memo {
            s,
            dense,
            sparse: HashMap::new(),
        }
    }

    /// The winning index of `a` against `b`, if the run asked it.
    pub(crate) fn get(&self, a: u32, b: u32) -> Option<u32> {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        if self.dense.is_empty() {
            return self.sparse.get(&(lo, hi)).copied();
        }
        match self.dense[lo as usize * self.s + hi as usize] {
            1 => Some(lo),
            2 => Some(hi),
            _ => None,
        }
    }

    pub(crate) fn set(&mut self, a: u32, b: u32, winner: u32) {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        if self.dense.is_empty() {
            self.sparse.insert((lo, hi), winner);
        } else {
            self.dense[lo as usize * self.s + hi as usize] = if winner == lo { 1 } else { 2 };
        }
    }
}

/// What 2-MaxFind played last.
#[derive(Debug, Clone, Copy)]
enum Played {
    Nothing,
    /// A group's all-play-all.
    Group,
    /// Champion `x` against every other candidate.
    Scan(u32),
}

/// Algorithm 3 as a [`Plan`]: a group tournament and its champion's scan
/// per round, each comparison memoized for the run.
#[derive(Debug, Clone)]
pub(crate) struct TwoMaxFind {
    /// `⌈√s⌉`: the group size, and the candidate count the rounds stop at.
    t: usize,
    /// Surviving candidates, by index into the input.
    candidates: Vec<u32>,
    rounds: usize,
    played: Played,
}

impl TwoMaxFind {
    pub(crate) fn new(s: usize) -> Self {
        TwoMaxFind {
            t: (s as f64).sqrt().ceil() as usize,
            candidates: (0..s as u32).collect(),
            rounds: 0,
            played: Played::Nothing,
        }
    }
}

impl Plan for TwoMaxFind {
    fn plan(
        &mut self,
        _: &[ElementId],
        a_won: &[bool],
        next: &mut Vec<(u32, u32)>,
    ) -> Option<Vec<u32>> {
        match self.played {
            Played::Group => {
                // Compare the group's champion x against every candidate.
                let x = self.candidates[champion(&tally(self.t, a_won))];
                next.extend(self.candidates.iter().filter(|&&e| e != x).map(|&e| (x, e)));
                self.played = Played::Scan(x);
                return None;
            }
            Played::Scan(x) => {
                // Eliminate every candidate that loses to x (x keeps itself).
                let mut x_won = a_won.iter();
                self.candidates
                    .retain(|&e| e == x || !x_won.next().expect("one game per candidate"));
                self.rounds += 1;
            }
            Played::Nothing => {}
        }
        if self.candidates.len() <= self.t {
            return Some(self.candidates.clone());
        }
        // "Pick an arbitrary set of ⌈√s⌉ candidate elements": the first t.
        round_robin(&self.candidates[..self.t], next);
        self.played = Played::Group;
        None
    }

    fn memoizes(&self) -> bool {
        true
    }
}

/// Runs 2-MaxFind over `elements`, with all comparisons performed by
/// workers of `class`, one per [`compare_batch`](ComparisonOracle::compare_batch)
/// call.
///
/// ```
/// use crowd_core::prelude::*;
///
/// let instance = Instance::new(vec![3.0, 9.0, 1.0, 7.0, 5.0]);
/// let mut oracle = PerfectOracle::new(instance.clone());
/// let out = two_max_find(&mut oracle, WorkerClass::Expert, &instance.ids());
/// assert_eq!(out.winner, instance.max_element());
/// ```
///
/// # Panics
///
/// Panics if `elements` is empty or contains duplicates.
pub fn two_max_find<O: ComparisonOracle>(
    oracle: &mut O,
    class: WorkerClass,
    elements: &[ElementId],
) -> TwoMaxFindOutcome {
    assert!(!elements.is_empty(), "2-MaxFind needs at least one element");
    let mut steps = Games::new(class, elements, TwoMaxFind::new(elements.len()));
    let start = oracle.counts();
    run_infallible(&mut steps, oracle);
    let comparisons = oracle.counts().delta_since(start);
    let rounds = steps.plan.rounds;
    let final_ranking = steps.finish().ranking();
    TwoMaxFindOutcome {
        winner: final_ranking[0].0,
        rounds,
        final_ranking,
        comparisons: comparisons.unwrap_or_else(|e| panic!("{e}")),
    }
}

/// Worst-case comparison bound for [`two_max_find`] on `s` elements:
/// `2·s^{3/2}` (paper Theorem 1).
pub fn two_max_find_comparison_bound(s: usize) -> u64 {
    (2.0 * (s as f64).powf(1.5)).ceil() as u64
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
        for n in [1, 2, 3, 10, 50, 137] {
            let inst = uniform_instance(n, n as u64);
            let mut o = PerfectOracle::new(inst.clone());
            let out = two_max_find(&mut o, WorkerClass::Expert, &inst.ids());
            assert_eq!(out.winner, inst.max_element(), "n = {n}");
            assert_eq!(out.comparisons.naive, 0);
        }
    }

    #[test]
    fn within_two_delta_under_threshold_model() {
        for seed in 0..20 {
            let inst = uniform_instance(120, seed);
            let delta = 25.0;
            let model = ExpertModel::exact(delta, delta, TiePolicy::UniformRandom);
            let mut o =
                SimulatedOracle::new(inst.clone(), model, StdRng::seed_from_u64(seed + 1000));
            let out = two_max_find(&mut o, WorkerClass::Expert, &inst.ids());
            let gap = inst.max_value() - inst.value(out.winner);
            assert!(
                gap <= 2.0 * delta,
                "seed {seed}: returned {gap} below the max"
            );
        }
    }

    #[test]
    fn within_two_delta_under_adversarial_ties() {
        for seed in 0..20 {
            let inst = uniform_instance(100, seed + 40);
            let delta = 30.0;
            let model = ExpertModel::exact(delta, delta, TiePolicy::FavorLower);
            let mut o = SimulatedOracle::new(inst.clone(), model, StdRng::seed_from_u64(seed));
            let out = two_max_find(&mut o, WorkerClass::Expert, &inst.ids());
            let gap = inst.max_value() - inst.value(out.winner);
            assert!(gap <= 2.0 * delta, "seed {seed}: gap {gap} > 2δ");
        }
    }

    #[test]
    fn two_delta_holds_on_adversarial_tight_chains() {
        // Crafted worst-case geometry: a dense descending chain where every
        // √s-group lies entirely inside the threshold, with the adversarial
        // tie policy that always crowns the smallest element. The chained
        // eliminations could in principle walk the value down δ per round;
        // the group-span bound keeps the total within 2δ.
        let delta = 10.0;
        for (n, spacing) in [(100usize, 1.0), (500, 0.1), (1000, 0.05), (400, 0.2)] {
            let values: Vec<f64> = (0..n).map(|i| 1000.0 - i as f64 * spacing).collect();
            let inst = Instance::new(values);
            let model = ExpertModel::exact(delta, delta, TiePolicy::FavorLower);
            let mut o = SimulatedOracle::new(inst.clone(), model, StdRng::seed_from_u64(1));
            let out = two_max_find(&mut o, WorkerClass::Expert, &inst.ids());
            let gap = inst.max_value() - inst.value(out.winner);
            assert!(
                gap <= 2.0 * delta,
                "n={n} spacing={spacing}: gap {gap} > 2δ"
            );
        }
    }

    #[test]
    fn comparison_bound_theorem_1() {
        for n in [10, 50, 100, 400, 1000] {
            let inst = uniform_instance(n, n as u64 + 7);
            // Adversarial ties maximize work.
            let model = ExpertModel::exact(50.0, 50.0, TiePolicy::FavorLower);
            let mut o = SimulatedOracle::new(inst.clone(), model, StdRng::seed_from_u64(1));
            let out = two_max_find(&mut o, WorkerClass::Expert, &inst.ids());
            assert!(
                out.comparisons.expert <= two_max_find_comparison_bound(n),
                "n = {n}: {} > 2n^1.5",
                out.comparisons.expert
            );
        }
    }

    #[test]
    fn terminates_against_inconsistent_coin_flip_oracle() {
        // Every answer a fresh fair coin: memoization must still force
        // progress and termination.
        use crate::oracle::FnOracle;
        let mut rng = StdRng::seed_from_u64(99);
        let mut o = FnOracle::new(move |_, k, j| if rng.gen_bool(0.5) { k } else { j });
        let ids: Vec<ElementId> = (0..200).map(ElementId).collect();
        let out = two_max_find(&mut o, WorkerClass::Naive, &ids);
        assert!(ids.contains(&out.winner));
    }

    #[test]
    fn final_ranking_covers_survivors_and_leads_with_winner() {
        let inst = uniform_instance(64, 3);
        let mut o = PerfectOracle::new(inst.clone());
        let out = two_max_find(&mut o, WorkerClass::Expert, &inst.ids());
        assert_eq!(out.final_ranking[0].0, out.winner);
        assert!(out.final_ranking.len() <= (64f64).sqrt().ceil() as usize);
        for w in out.final_ranking.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn single_and_two_element_inputs() {
        let inst = Instance::new(vec![5.0, 9.0]);
        let mut o = PerfectOracle::new(inst.clone());
        let out = two_max_find(&mut o, WorkerClass::Naive, &inst.ids());
        assert_eq!(out.winner, ElementId(1));

        let one = Instance::new(vec![5.0]);
        let mut o1 = PerfectOracle::new(one);
        let out1 = two_max_find(&mut o1, WorkerClass::Naive, &[ElementId(0)]);
        assert_eq!(out1.winner, ElementId(0));
        assert_eq!(out1.comparisons.total(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one element")]
    fn empty_input_panics() {
        let mut o = PerfectOracle::new(Instance::new(vec![1.0]));
        two_max_find(&mut o, WorkerClass::Naive, &[]);
    }

    #[test]
    fn bound_function_values() {
        assert_eq!(two_max_find_comparison_bound(1), 2);
        assert_eq!(two_max_find_comparison_bound(4), 16);
        assert_eq!(two_max_find_comparison_bound(100), 2000);
    }
}
