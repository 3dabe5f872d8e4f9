//! The batch oracle contract: [`ComparisonOracle::compare_batch`] must be
//! observationally identical to the scalar `compare` loop — same answers,
//! same RNG consumption, same tallies — through every oracle and
//! decorator, and under any split of the comparison list into batches.
//!
//! It also pins [`FuseOracle`]'s answers, before and after it
//! blows, to a reference fuse that hashes every answer.
//!
//! All proofs go through the [`crowd_core::equiv`] harness.

use crowd_core::element::{ElementId, Instance};
use crowd_core::equiv::{assert_oracles_equal, drive_batched, drive_scalar};
use crowd_core::model::{ExpertModel, TiePolicy, WorkerClass};
use crowd_core::oracle::{
    ComparisonCounts, ComparisonOracle, FuseOracle, MemoOracle, OracleError, PerfectOracle,
    SimulatedOracle, TryFnOracle,
};
use crowd_core::replay::RecordingOracle;
use crowd_core::trace::tallied;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::collections::HashMap;

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

    /// The contract holds through a record → fault decorator stack: the
    /// batch forwards reach the simulated oracle intact.
    #[test]
    fn batches_forward_through_decorator_stacks(
        pairs in pairs_strategy(12u32),
        segments in prop::collection::vec(1usize..9, 0..6),
        seed in any::<u64>(),
    ) {
        let inst = instance(12);
        let stack = |seed| RecordingOracle::new(FuseOracle::new(simulated(&inst, seed)));
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
fn fuse_batch_blows_mid_batch_and_fabricates_the_remainder_like_scalar() {
    let pairs: Vec<(ElementId, ElementId)> = (0..6u32)
        .map(|i| (ElementId(2 * i), ElementId(2 * i + 1)))
        .collect();
    // The inner oracle answers 4 of the 6 pairs, then the pool dies. The
    // per-pair fallible default means the batch fuse sees exactly the
    // scalar fault point, so the two runs are observationally equal.
    let (_, winners) = assert_oracles_equal(
        FuseOracle::new(flaky(4)),
        FuseOracle::new(flaky(4)),
        |o| drive_scalar(o, WorkerClass::Naive, &pairs),
        |o| drive_batched(o, WorkerClass::Naive, &pairs, &[3]),
    );
    assert_eq!(winners.len(), pairs.len());
    // Fabricated tail: fresh pairs go to the smaller id.
    assert_eq!(winners[4], ElementId(8));
    assert_eq!(winners[5], ElementId(10));
    let mut fuse = FuseOracle::new(flaky(4));
    let mut out = Vec::new();
    fuse.compare_batch(WorkerClass::Naive, &pairs, &mut out);
    assert!(fuse.blown());
    assert_eq!(
        fuse.take_error(),
        Some(OracleError::WorkforceDepleted {
            class: WorkerClass::Naive
        })
    );
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

/// Reference fuse for the differential below: every answer, fabricated
/// ones included, goes straight into the map.
struct HashingFuse<O> {
    inner: O,
    error: Option<OracleError>,
    answered: HashMap<(WorkerClass, ElementId, ElementId), ElementId>,
}

impl<O: ComparisonOracle> ComparisonOracle for HashingFuse<O> {
    fn compare(&mut self, class: WorkerClass, k: ElementId, j: ElementId) -> ElementId {
        let key = if k < j { (class, k, j) } else { (class, j, k) };
        if self.error.is_none() {
            match self.inner.try_compare(class, k, j) {
                Ok(winner) => {
                    self.answered.insert(key, winner);
                    return winner;
                }
                Err(e) => self.error = Some(e),
            }
        }
        *self
            .answered
            .entry(key)
            .or_insert_with(|| if k < j { k } else { j })
    }

    fn compare_batch(
        &mut self,
        class: WorkerClass,
        pairs: &[(ElementId, ElementId)],
        winners: &mut Vec<ElementId>,
    ) {
        let start = winners.len();
        if self.error.is_none() {
            let outcome = self.inner.try_compare_batch(class, pairs, winners);
            for (&(k, j), &winner) in pairs.iter().zip(&winners[start..]) {
                let key = if k < j { (class, k, j) } else { (class, j, k) };
                self.answered.insert(key, winner);
            }
            match outcome {
                Ok(()) => return,
                Err(e) => self.error = Some(e),
            }
        }
        let done = winners.len() - start;
        for &(k, j) in &pairs[done..] {
            let key = if k < j { (class, k, j) } else { (class, j, k) };
            let winner = *self
                .answered
                .entry(key)
                .or_insert_with(|| if k < j { k } else { j });
            winners.push(winner);
        }
    }

    fn counts(&self) -> ComparisonCounts {
        self.inner.counts()
    }
}

/// What the differential reads of a fuse besides its answers.
trait Fuse: ComparisonOracle {
    fn error(&self) -> Option<OracleError>;
    fn take_error(&mut self) -> Option<OracleError>;
}

impl<O: ComparisonOracle> Fuse for HashingFuse<O> {
    fn error(&self) -> Option<OracleError> {
        self.error
    }
    fn take_error(&mut self) -> Option<OracleError> {
        self.error.take()
    }
}

impl<O: ComparisonOracle> Fuse for FuseOracle<O> {
    fn error(&self) -> Option<OracleError> {
        FuseOracle::error(self).copied()
    }
    fn take_error(&mut self) -> Option<OracleError> {
        FuseOracle::take_error(self)
    }
}

/// Lends a fuse to `assert_oracles_equal`'s recording wrapper while the
/// driver keeps a handle to reset it between calls.
struct Shared<'a, F>(&'a RefCell<F>);

impl<F: ComparisonOracle> ComparisonOracle for Shared<'_, F> {
    fn compare(&mut self, class: WorkerClass, k: ElementId, j: ElementId) -> ElementId {
        self.0.borrow_mut().compare(class, k, j)
    }
    fn compare_batch(
        &mut self,
        class: WorkerClass,
        pairs: &[(ElementId, ElementId)],
        winners: &mut Vec<ElementId>,
    ) {
        self.0.borrow_mut().compare_batch(class, pairs, winners);
    }
    fn counts(&self) -> ComparisonCounts {
        self.0.borrow().counts()
    }
}

/// A seeded fallible oracle: call `c` fails when it is one of `fails`,
/// and otherwise answers from a hash of `(seed, c)` — `k` or `j`, or
/// one time in sixteen an id outside the pair. With `atomic` set, a
/// batch holding a failing call is refused whole, before any answer.
struct Scripted {
    seed: u64,
    calls: u64,
    fails: [u64; 2],
    atomic: bool,
    counts: ComparisonCounts,
}

impl Scripted {
    fn new(seed: u64, fails: [u64; 2], atomic: bool) -> Self {
        Scripted {
            seed,
            calls: 0,
            fails,
            atomic,
            counts: ComparisonCounts::zero(),
        }
    }
}

impl ComparisonOracle for Scripted {
    fn compare(&mut self, class: WorkerClass, k: ElementId, j: ElementId) -> ElementId {
        self.try_compare(class, k, j).expect("scripted fault")
    }

    fn try_compare(
        &mut self,
        class: WorkerClass,
        k: ElementId,
        j: ElementId,
    ) -> Result<ElementId, OracleError> {
        let call = self.calls;
        self.calls += 1;
        if self.fails.contains(&call) {
            return Err(match call % 3 {
                0 => OracleError::WorkforceDepleted { class },
                1 => OracleError::Unanswered {
                    attempts: call as u32,
                },
                _ => OracleError::BudgetExhausted,
            });
        }
        let h = (self.seed ^ call)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29);
        self.counts.record(class);
        Ok(match h % 16 {
            0 => ElementId((h >> 8) as u32 % 10),
            r if r % 2 == 0 => k,
            _ => j,
        })
    }

    fn try_compare_batch(
        &mut self,
        class: WorkerClass,
        pairs: &[(ElementId, ElementId)],
        winners: &mut Vec<ElementId>,
    ) -> Result<(), OracleError> {
        let batch = self.calls..self.calls + pairs.len() as u64;
        if self.atomic && self.fails.iter().any(|c| batch.contains(c)) {
            self.calls = batch.end;
            return Err(OracleError::BudgetExhausted);
        }
        for &(k, j) in pairs {
            winners.push(self.try_compare(class, k, j)?);
        }
        Ok(())
    }

    fn counts(&self) -> ComparisonCounts {
        self.counts
    }
}

/// One step of a fuse stream.
#[derive(Debug, Clone)]
enum Op {
    Scalar(WorkerClass, ElementId, ElementId),
    Batch(WorkerClass, Vec<(ElementId, ElementId)>),
    TakeError,
}

/// A pair of distinct ids below 8 from six raw bits.
fn decode_pair(bits: u64) -> (ElementId, ElementId) {
    let a = (bits & 7) as u32;
    let b = (a + 1 + ((bits >> 3) % 7) as u32) % 8;
    (ElementId(a), ElementId(b))
}

/// Decodes one raw draw into a scalar call (4 in 8), a batch of 1–6
/// pairs (3 in 8) or a `take_error` (1 in 8), over ids below 8.
fn decode_op(raw: u64) -> Op {
    let class = if raw & 8 == 0 {
        WorkerClass::Naive
    } else {
        WorkerClass::Expert
    };
    match raw % 8 {
        0..=3 => {
            let (k, j) = decode_pair(raw >> 4);
            Op::Scalar(class, k, j)
        }
        4..=6 => {
            let len = 1 + (raw >> 4) % 6;
            let pairs = (0..len).map(|i| decode_pair(raw >> (7 + 6 * i))).collect();
            Op::Batch(class, pairs)
        }
        _ => Op::TakeError,
    }
}

/// Per op: the tally, the fuse's error and what `take_error` returned.
type Step = (ComparisonCounts, Option<OracleError>, Option<OracleError>);

/// Drives `ops` through the recorded fuse, one [`Step`] per op.
fn drive_fuse<F: Fuse>(
    fuse: &RefCell<F>,
    oracle: &mut RecordingOracle<Shared<'_, F>>,
    ops: &[Op],
) -> Vec<Step> {
    let mut winners = Vec::new();
    ops.iter()
        .map(|op| {
            let taken = match op {
                Op::Scalar(class, k, j) => {
                    oracle.compare(*class, *k, *j);
                    None
                }
                Op::Batch(class, pairs) => {
                    oracle.compare_batch(*class, pairs, &mut winners);
                    None
                }
                Op::TakeError => fuse.borrow_mut().take_error(),
            };
            (oracle.counts(), fuse.borrow().error(), taken)
        })
        .collect()
}

/// Asserts that the logging fuse and the hashing reference give the
/// same answers, tallies and errors on `ops` over `Scripted` inners.
fn assert_fuses_equal(ops: &[Op], seed: u64, fails: [u64; 2], atomic: bool) {
    let logging = RefCell::new(FuseOracle::new(Scripted::new(seed, fails, atomic)));
    let hashing = RefCell::new(HashingFuse {
        inner: Scripted::new(seed, fails, atomic),
        error: None,
        answered: HashMap::new(),
    });
    assert_oracles_equal(
        Shared(&hashing),
        Shared(&logging),
        |o| drive_fuse(&hashing, o, ops),
        |o| drive_fuse(&logging, o, ops),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The logging fuse answers every stream exactly as the fuse that
    /// hashed each answer did: scalar and batch calls on at most 8 ids,
    /// repeats, both argument orders and both classes, an inner oracle
    /// that fails at seeded calls (per pair or a whole batch at once) and
    /// sometimes names a winner outside the pair, and `take_error` resets
    /// that let the fuse blow a second time.
    #[test]
    fn the_logging_fuse_answers_like_the_hashing_fuse(
        raw in prop::collection::vec(any::<u64>(), 1..60),
        seed in any::<u64>(),
        first in 0u64..40,
        gap in 1u64..40,
        atomic in any::<bool>(),
    ) {
        let ops: Vec<Op> = raw.into_iter().map(decode_op).collect();
        assert_fuses_equal(&ops, seed, [first, first + gap], atomic);
    }
}

#[test]
fn a_second_blow_remembers_answers_from_both_sides_of_the_first() {
    let (n, e) = (WorkerClass::Naive, WorkerClass::Expert);
    let p = |a, b| (ElementId(a), ElementId(b));
    let ops = vec![
        Op::Batch(n, vec![p(0, 1), p(2, 1), p(3, 4)]),
        Op::Scalar(e, ElementId(5), ElementId(6)),
        // Call 4 fails: the fuse blows mid-batch.
        Op::Batch(n, vec![p(1, 0), p(6, 7), p(7, 6)]),
        Op::Scalar(n, ElementId(2), ElementId(1)),
        Op::TakeError,
        // Intact again: calls 5 and 6 answer, call 7 blows the fuse again.
        Op::Scalar(n, ElementId(0), ElementId(1)),
        Op::Batch(e, vec![p(6, 5), p(0, 7), p(5, 6)]),
        Op::Batch(n, vec![p(1, 0), p(2, 1), p(4, 3), p(0, 7)]),
        Op::Scalar(e, ElementId(6), ElementId(5)),
        Op::TakeError,
    ];
    for seed in 0..64 {
        for atomic in [false, true] {
            assert_fuses_equal(&ops, seed, [4, 7], atomic);
        }
    }
}
