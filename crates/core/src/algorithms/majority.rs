//! Majority voting over repeated comparisons (paper Sections 3.1–3.2).
//!
//! Under the probabilistic model with error `p < 1/2`, asking `k` workers
//! the same question and taking the majority drives the error below
//! `exp(-(1-2p)² k / (8(1-p)))` — the wisdom-of-crowds effect measured on
//! DOTS (Figure 2a). Under the threshold model, repetition does **not**
//! help below the threshold — the CARS plateau (Figure 2b). Both behaviours
//! are exercised by `crowd-experiments::fig2`.

use crate::element::ElementId;
use crate::model::WorkerClass;
use crate::oracle::{majority, ComparisonOracle};

/// Asks `votes` workers of `class` to compare `k` and `j` and returns the
/// majority answer (ties broken towards the element with the smaller id, so
/// the outcome is deterministic; use an odd `votes` to avoid ties).
///
/// Each vote is a *fresh* judgment: callers must not hand a memoizing
/// oracle to this function, or all votes collapse into one.
///
/// # Panics
///
/// Panics if `votes == 0`.
pub fn majority_compare<O: ComparisonOracle>(
    oracle: &mut O,
    class: WorkerClass,
    k: ElementId,
    j: ElementId,
    votes: u32,
) -> ElementId {
    assert!(votes > 0, "at least one vote is required");
    let mut k_wins = 0u32;
    for _ in 0..votes {
        if oracle.compare(class, k, j) == k {
            k_wins += 1;
        }
    }
    majority(k, j, k_wins, votes - k_wins)
}

/// Accuracy of incremental majority votes: asks `max_votes` workers once,
/// then reports, for every prefix `1..=max_votes` (the paper plots odd
/// prefixes), whether the majority over that prefix picks `truth`.
///
/// This mirrors the paper's Figure 2 methodology: "on the x-axis we vary
/// the number of workers whose (independent) responses we observe, ordered
/// by time of response, and on the y-axis the aggregate accuracy when we
/// take a majority vote".
pub fn majority_prefix_correct<O: ComparisonOracle>(
    oracle: &mut O,
    class: WorkerClass,
    k: ElementId,
    j: ElementId,
    truth: ElementId,
    max_votes: u32,
) -> Vec<bool> {
    assert!(
        truth == k || truth == j,
        "truth must be one of the compared elements"
    );
    let mut k_wins = 0u32;
    let mut out = Vec::with_capacity(max_votes as usize);
    for v in 1..=max_votes {
        if oracle.compare(class, k, j) == k {
            k_wins += 1;
        }
        out.push(majority(k, j, k_wins, v - k_wins) == truth);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Instance;
    use crate::model::{ExpertModel, TiePolicy};
    use crate::oracle::{PerfectOracle, SimulatedOracle};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const A: ElementId = ElementId(0);
    const B: ElementId = ElementId(1);

    fn probabilistic_oracle(p: f64, seed: u64) -> SimulatedOracle<StdRng> {
        // δ = 0 threshold model = probabilistic model with error ε = p.
        let model = ExpertModel::new(0.0, p, 0.0, p, TiePolicy::UniformRandom);
        SimulatedOracle::new(
            Instance::new(vec![1.0, 2.0]),
            model,
            StdRng::seed_from_u64(seed),
        )
    }

    #[test]
    fn majority_beats_single_vote_under_probabilistic_errors() {
        let trials = 400;
        let mut single_ok = 0;
        let mut majority_ok = 0;
        let mut o = probabilistic_oracle(0.35, 1);
        for _ in 0..trials {
            if o.compare(WorkerClass::Naive, A, B) == B {
                single_ok += 1;
            }
            if majority_compare(&mut o, WorkerClass::Naive, A, B, 21) == B {
                majority_ok += 1;
            }
        }
        assert!(
            majority_ok > single_ok,
            "majority {majority_ok} <= single {single_ok}"
        );
        assert!(majority_ok as f64 / trials as f64 > 0.85);
    }

    #[test]
    fn majority_does_not_help_below_threshold() {
        // δ = 10 with d(A, B) = 1: every vote is a coin flip; 21 votes give
        // ~50% accuracy — the CARS plateau.
        let model = ExpertModel::exact(10.0, 10.0, TiePolicy::UniformRandom);
        let mut o = SimulatedOracle::new(
            Instance::new(vec![1.0, 2.0]),
            model,
            StdRng::seed_from_u64(2),
        );
        let trials = 600;
        let ok = (0..trials)
            .filter(|_| majority_compare(&mut o, WorkerClass::Naive, A, B, 21) == B)
            .count();
        let acc = ok as f64 / trials as f64;
        assert!((acc - 0.5).abs() < 0.08, "plateau accuracy {acc}");
    }

    #[test]
    fn majority_counts_every_vote() {
        let mut o = probabilistic_oracle(0.0, 3);
        majority_compare(&mut o, WorkerClass::Naive, A, B, 7);
        assert_eq!(o.counts().naive, 7);
    }

    #[test]
    fn even_vote_ties_break_to_smaller_id() {
        // A deterministic oracle alternating answers produces a 1-1 tie.
        use crate::oracle::FnOracle;
        let mut flip = false;
        let mut o = FnOracle::new(move |_, k, j| {
            flip = !flip;
            if flip {
                k
            } else {
                j
            }
        });
        assert_eq!(majority_compare(&mut o, WorkerClass::Naive, A, B, 2), A);
        assert_eq!(majority_compare(&mut o, WorkerClass::Naive, B, A, 2), A);
    }

    #[test]
    fn prefix_accuracy_has_expected_length_and_truth() {
        let mut o = PerfectOracle::new(Instance::new(vec![1.0, 2.0]));
        let prefix = majority_prefix_correct(&mut o, WorkerClass::Naive, A, B, B, 9);
        assert_eq!(prefix.len(), 9);
        assert!(
            prefix.iter().all(|&ok| ok),
            "perfect workers are always right"
        );
    }

    #[test]
    #[should_panic(expected = "at least one vote")]
    fn zero_votes_panics() {
        let mut o = PerfectOracle::new(Instance::new(vec![1.0, 2.0]));
        majority_compare(&mut o, WorkerClass::Naive, A, B, 0);
    }

    #[test]
    #[should_panic(expected = "truth must be one")]
    fn prefix_rejects_foreign_truth() {
        let mut o = PerfectOracle::new(Instance::new(vec![1.0, 2.0, 3.0]));
        majority_prefix_correct(&mut o, WorkerClass::Naive, A, B, ElementId(2), 3);
    }
}
