//! The batch oracle contract: [`ComparisonOracle::compare_batch`] must be
//! observationally identical to the scalar `compare` loop — same answers,
//! same RNG consumption, same tallies — through every oracle and
//! decorator, and under any split of the comparison list into batches.
//!
//! All proofs go through the [`crowd_core::equiv`] harness.

use crowd_core::algorithms::{
    expert_max_find, try_expert_max_find, ExpertMaxConfig, Phase2, RandomizedConfig,
};
use crowd_core::element::{ElementId, Instance};
use crowd_core::equiv::{assert_oracles_equal, drive_batched, drive_scalar};
use crowd_core::model::{ExpertModel, TiePolicy, WorkerClass};
use crowd_core::oracle::{
    ComparisonOracle, MemoOracle, OracleError, PerfectOracle, SimulatedOracle, TryFnOracle,
};
use crowd_core::replay::RecordingOracle;
use crowd_core::trace::tallied;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn instance(n: usize) -> Instance {
    Instance::new((0..n).map(|i| ((i * 37) % n) as f64).collect())
}

fn simulated(inst: &Instance, seed: u64) -> SimulatedOracle<StdRng> {
    // δn wide enough that ties occur, so the RNG is actually consumed.
    let model = ExpertModel::exact(8.0, 1.0, TiePolicy::UniformRandom);
    SimulatedOracle::new(inst.clone(), model, StdRng::seed_from_u64(seed))
}

/// `(a, b)` index pairs with `a != b`, drawn over `n` elements — each
/// pair decoded from one raw draw (the shim has no tuple strategies).
fn pairs_strategy(n: u32) -> impl Strategy<Value = Vec<(ElementId, ElementId)>> {
    prop::collection::vec(0u32..n * (n - 1), 1..80).prop_map(move |raw| {
        raw.into_iter()
            .map(|v| {
                let a = v % n;
                let b = (v / n) % (n - 1);
                let b = if b >= a { b + 1 } else { b };
                (ElementId(a), ElementId(b))
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The unsplit batch equals the scalar loop on a same-seeded
    /// stochastic oracle: identical winners, tallies and RNG stream.
    #[test]
    fn one_batch_equals_the_scalar_loop(
        pairs in pairs_strategy(16u32),
        seed in any::<u64>(),
        class_bit in any::<bool>(),
    ) {
        let inst = instance(16);
        let class = if class_bit { WorkerClass::Expert } else { WorkerClass::Naive };
        assert_oracles_equal(
            simulated(&inst, seed),
            simulated(&inst, seed),
            |o| drive_scalar(o, class, &pairs),
            |o| drive_batched(o, class, &pairs, &[]),
        );
    }

    /// The equivalence holds under every tie policy and with residual
    /// error ε > 0 — i.e. on both sides of `compare_many`'s branchless
    /// fast path (which only covers ε = 0 fair-coin ties) and through the
    /// `tie_break` fallback, including the stateful Persistent policy.
    #[test]
    fn one_batch_equals_the_scalar_loop_under_every_tie_policy(
        pairs in pairs_strategy(16u32),
        seed in any::<u64>(),
        policy_raw in 0u8..5,
        noisy in any::<bool>(),
    ) {
        let policy = match policy_raw {
            0 => TiePolicy::UniformRandom,
            1 => TiePolicy::Persistent,
            2 => TiePolicy::FavorLower,
            3 => TiePolicy::FavorHigher,
            _ => TiePolicy::FavorSmallerId,
        };
        let epsilon = if noisy { 0.25 } else { 0.0 };
        let inst = instance(16);
        let oracle = || {
            let model = ExpertModel::new(8.0, epsilon, 4.0, epsilon, policy);
            SimulatedOracle::new(inst.clone(), model, StdRng::seed_from_u64(seed))
        };
        assert_oracles_equal(
            oracle(),
            oracle(),
            |o| drive_scalar(o, WorkerClass::Naive, &pairs),
            |o| drive_batched(o, WorkerClass::Naive, &pairs, &[]),
        );
    }

    /// Any split of the comparison list into consecutive batches equals
    /// the unsplit sequence — batching is associative.
    #[test]
    fn split_batches_equal_the_unsplit_sequence(
        pairs in pairs_strategy(16u32),
        segments in prop::collection::vec(0usize..12, 0..8),
        seed in any::<u64>(),
    ) {
        let inst = instance(16);
        assert_oracles_equal(
            simulated(&inst, seed),
            simulated(&inst, seed),
            |o| drive_batched(o, WorkerClass::Naive, &pairs, &[]),
            |o| drive_batched(o, WorkerClass::Naive, &pairs, &segments),
        );
    }

    /// The contract holds through a decorator: the recording layer's
    /// batch forwards reach the simulated oracle intact.
    #[test]
    fn batches_forward_through_decorator_stacks(
        pairs in pairs_strategy(12u32),
        segments in prop::collection::vec(1usize..9, 0..6),
        seed in any::<u64>(),
    ) {
        let inst = instance(12);
        let stack = |seed| RecordingOracle::new(simulated(&inst, seed));
        assert_oracles_equal(
            stack(seed),
            stack(seed),
            |o| drive_scalar(o, WorkerClass::Naive, &pairs),
            |o| drive_batched(o, WorkerClass::Naive, &pairs, &segments),
        );
    }
}

#[test]
fn batch_tallies_reach_the_thread_tally_with_the_same_totals() {
    let inst = instance(10);
    let pairs: Vec<(ElementId, ElementId)> =
        (1..10u32).map(|j| (ElementId(0), ElementId(j))).collect();
    let ((), tally) = tallied(|| {
        let mut o = PerfectOracle::new(inst.clone());
        let mut winners = Vec::new();
        o.compare_batch(WorkerClass::Naive, &pairs, &mut winners);
        o.compare_batch(WorkerClass::Expert, &pairs[..3], &mut winners);
        assert_eq!(winners.len(), pairs.len() + 3);
    });
    assert_eq!(tally.comparisons.naive, pairs.len() as u64);
    assert_eq!(tally.comparisons.expert, 3);
}

#[test]
fn memo_decorator_still_answers_within_batch_repeats_for_free() {
    // MemoOracle deliberately keeps the default per-pair batch loop: a
    // repeat *inside* one batch must hit the memo, which a forwarded
    // batch could not guarantee.
    let inst = instance(6);
    let mut o = MemoOracle::new(PerfectOracle::new(inst));
    let pairs = [
        (ElementId(0), ElementId(1)),
        (ElementId(1), ElementId(0)),
        (ElementId(0), ElementId(1)),
    ];
    let mut winners = Vec::new();
    o.compare_batch(WorkerClass::Naive, &pairs, &mut winners);
    assert_eq!(winners, vec![ElementId(1); 3]);
    assert_eq!(o.counts().naive, 1, "repeats answered from the memo");
    assert_eq!(o.hits(), 2);
}

/// A fallible oracle that answers `budget` comparisons, then fails.
fn flaky(
    budget: u64,
) -> TryFnOracle<impl FnMut(WorkerClass, ElementId, ElementId) -> Result<ElementId, OracleError>> {
    let mut remaining = budget;
    TryFnOracle::new(move |class, k, j| {
        if remaining == 0 {
            return Err(OracleError::WorkforceDepleted { class });
        }
        remaining -= 1;
        Ok(if k > j { k } else { j })
    })
}

#[test]
fn try_compare_batch_stops_at_the_first_error_with_partial_winners() {
    let pairs: Vec<(ElementId, ElementId)> = (0..5u32)
        .map(|i| (ElementId(i), ElementId(i + 5)))
        .collect();
    let mut o = flaky(2);
    let mut winners = Vec::new();
    let err = o
        .try_compare_batch(WorkerClass::Naive, &pairs, &mut winners)
        .unwrap_err();
    assert_eq!(
        err,
        OracleError::WorkforceDepleted {
            class: WorkerClass::Naive
        }
    );
    assert_eq!(winners, vec![ElementId(5), ElementId(6)]);
    assert_eq!(o.counts().naive, 2, "only answered comparisons are billed");
}

#[test]
fn empty_batches_are_free() {
    let inst = instance(4);
    let mut o = simulated(&inst, 1);
    let mut winners = Vec::new();
    o.compare_batch(WorkerClass::Naive, &[], &mut winners);
    o.try_compare_batch(WorkerClass::Expert, &[], &mut winners)
        .unwrap();
    assert!(winners.is_empty());
    assert_eq!(o.counts().total(), 0);
}

/// A simulated oracle's fallible batch is its infallible one: the same
/// answers and tallies per batch, and so the same run of Algorithm 1
/// through `try_expert_max_find` as through `expert_max_find`.
#[test]
fn a_simulated_oracle_answers_fallible_batches_as_infallible_ones() {
    let inst = instance(60);
    let (mut plain, mut fallible) = (simulated(&inst, 3), simulated(&inst, 3));
    let mut rng = StdRng::seed_from_u64(9);
    for len in 0..40 {
        let pairs = pairs_strategy(60).generate(&mut rng);
        let pairs = &pairs[..len.min(pairs.len())];
        let class = [WorkerClass::Naive, WorkerClass::Expert][len % 2];
        let (mut a, mut b) = (Vec::new(), Vec::new());
        plain.compare_batch(class, pairs, &mut a);
        fallible
            .try_compare_batch(class, pairs, &mut b)
            .expect("a simulated worker always answers");
        assert_eq!(a, b);
        assert_eq!(plain.counts(), fallible.counts());
    }

    for (n, un) in [(1, 1), (7, 2), (60, 3), (400, 5), (1500, 8)] {
        for phase2 in [
            Phase2::TwoMaxFind,
            Phase2::Randomized(RandomizedConfig::default().with_group_size(3)),
            Phase2::AllPlayAll,
        ] {
            let inst = instance(n);
            let ids = inst.ids();
            let config = ExpertMaxConfig::new(un).with_phase2(phase2);
            let (mut plain, mut fallible) =
                (simulated(&inst, n as u64), simulated(&inst, n as u64));
            let expected =
                expert_max_find(&mut plain, &ids, &config, &mut StdRng::seed_from_u64(1));
            let got =
                try_expert_max_find(&mut fallible, &ids, &config, &mut StdRng::seed_from_u64(1))
                    .expect("a simulated worker always answers");
            assert_eq!(got, expected, "n {n} un {un} {phase2:?}");
            assert_eq!(
                fallible.counts(),
                plain.counts(),
                "n {n} un {un} {phase2:?}"
            );
        }
    }
}
