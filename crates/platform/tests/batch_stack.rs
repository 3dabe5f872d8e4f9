//! The batch contract through the full decorator stack: trace → obs →
//! fault → billing. Scalar and batch drives of the same layered oracle
//! must produce the identical judgment sequence and tallies, with the
//! billing layer's per-batch amortization (one platform job per batch)
//! visible only in the job structure — never in the answers.

use crowd_core::algorithms::{filter_candidates, try_filter_candidates, FilterConfig};
use crowd_core::element::{ElementId, Instance};
use crowd_core::equiv::{assert_oracles_equal, drive_batched, drive_scalar};
use crowd_core::model::WorkerClass;
use crowd_core::oracle::{ComparisonCounts, ComparisonOracle, FuseOracle, OracleError};
use crowd_core::trace::InstrumentedOracle;
use crowd_obs::ObservedOracle;
use crowd_platform::{FaultConfig, Platform, PlatformConfig, PlatformOracle, WorkerPool};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn instance() -> Instance {
    Instance::new((0..12).map(|i| ((i * 53) % 12) as f64).collect())
}

/// The full stack over a fault-free platform with perfect workers and no
/// gold injection — the regime where scalar and batch drives are
/// observationally identical end to end.
fn full_stack(seed: u64) -> InstrumentedOracle<ObservedOracle<FuseOracle<PlatformOracle<StdRng>>>> {
    let mut pool = WorkerPool::new();
    pool.hire_naive_crowd(8, 0.0, 0.0);
    pool.hire_expert_panel(3, 0.0, 0.0);
    let config = PlatformConfig {
        gold_fraction: 0.0,
        ..PlatformConfig::paper_default()
    };
    let platform = Platform::new(instance(), pool, config, StdRng::seed_from_u64(seed));
    InstrumentedOracle::new(ObservedOracle::new(FuseOracle::new(PlatformOracle::new(
        platform,
    ))))
}

fn pairs() -> Vec<(ElementId, ElementId)> {
    let mut out = Vec::new();
    for a in 0..6u32 {
        for b in (a + 1)..6 {
            out.push((ElementId(a), ElementId(b)));
        }
    }
    out
}

#[test]
fn scalar_and_batch_drives_agree_through_the_full_stack() {
    for class in [WorkerClass::Naive, WorkerClass::Expert] {
        let (log, winners) = assert_oracles_equal(
            full_stack(17),
            full_stack(17),
            |o| drive_scalar(o, class, &pairs()),
            |o| drive_batched(o, class, &pairs(), &[4, 1, 7]),
        );
        assert_eq!(log.len(), pairs().len(), "class = {class}");
        // Perfect workers: every winner is the truly larger element.
        let inst = instance();
        for (&(k, j), &w) in pairs().iter().zip(&winners) {
            let best = if inst.value(k) >= inst.value(j) { k } else { j };
            assert_eq!(w, best, "class = {class}");
        }
    }
}

#[test]
fn the_billing_layer_amortizes_jobs_but_not_payments() {
    let run = |segments: &[usize]| {
        let mut stack = full_stack(5);
        let mut winners = Vec::new();
        let all = pairs();
        let mut rest: &[(ElementId, ElementId)] = &all;
        for &len in segments {
            let take = len.min(rest.len());
            let (batch, tail) = rest.split_at(take);
            stack.compare_batch(WorkerClass::Naive, batch, &mut winners);
            rest = tail;
        }
        if !rest.is_empty() {
            stack.compare_batch(WorkerClass::Naive, rest, &mut winners);
        }
        let platform = stack.into_inner().into_inner().into_inner().into_platform();
        (
            winners,
            platform.counts(),
            platform.ledger().total(),
            platform.ledger().judgments(),
            platform.logical_steps(),
        )
    };
    let scalar_shaped = run(&[1; 15]);
    let batched = run(&[15]);
    // Same answers, same tallies, same money and judgment count …
    assert_eq!(scalar_shaped.0, batched.0);
    assert_eq!(scalar_shaped.1, batched.1);
    assert_eq!(scalar_shaped.2, batched.2);
    assert_eq!(scalar_shaped.3, batched.3);
    // … but the batch ran as a single platform job (one logical step):
    // that is the budget-check/scheduling amortization.
    assert_eq!(scalar_shaped.4, 15);
    assert_eq!(batched.4, 1);
}

/// Records the size of every batch the wrapped oracle receives.
struct BatchSizes<O> {
    inner: O,
    sizes: Vec<usize>,
}

impl<O: ComparisonOracle> ComparisonOracle for BatchSizes<O> {
    fn compare(&mut self, class: WorkerClass, k: ElementId, j: ElementId) -> ElementId {
        self.sizes.push(1);
        self.inner.compare(class, k, j)
    }

    fn try_compare_batch(
        &mut self,
        class: WorkerClass,
        pairs: &[(ElementId, ElementId)],
        winners: &mut Vec<ElementId>,
    ) -> Result<(), OracleError> {
        self.sizes.push(pairs.len());
        self.inner.try_compare_batch(class, pairs, winners)
    }

    fn counts(&self) -> ComparisonCounts {
        self.inner.counts()
    }
}

#[test]
fn a_platform_that_dead_letters_mid_row_fails_the_filter_cleanly() {
    // Three perfect workers and frequent no-answers: a unit soon runs out
    // of fresh workers and dead-letters inside a tournament row.
    let build = || {
        let instance = Instance::new((0..60).map(f64::from).collect());
        let mut pool = WorkerPool::new();
        pool.hire_naive_crowd(3, 0.0, 0.0);
        let config = PlatformConfig::paper_default()
            .without_gold()
            .with_faults(FaultConfig::none().with_no_answer(0.5), 3);
        let platform = Platform::new(instance, pool, config, StdRng::seed_from_u64(8));
        BatchSizes {
            inner: PlatformOracle::new(platform),
            sizes: Vec::new(),
        }
    };
    let ids: Vec<ElementId> = (0..60).map(ElementId).collect();
    let config = FilterConfig::new(3);

    let err = try_filter_candidates(&mut build(), &ids, &config).unwrap_err();
    assert!(matches!(err, OracleError::Unanswered { .. }), "{err:?}");

    // The same run behind a bare fuse: it terminates on fabricated
    // answers, and the first row's answers bought before the outage stay
    // memoized — perfect workers name the larger id, the fuse's
    // fabricated order the smaller.
    let mut fuse = FuseOracle::new(build());
    let out = filter_candidates(&mut fuse, &ids, &config);
    assert!(fuse.blown());
    assert!(out.survivors.len() < 2 * 3);
    let first_row: Vec<ElementId> = (1..12)
        .map(|b| fuse.compare(WorkerClass::Naive, ElementId(0), ElementId(b)))
        .collect();

    let oracle = fuse.into_inner();
    let counts = oracle.counts();
    let platform = oracle.inner.into_platform();
    assert_eq!(
        oracle.sizes,
        vec![11],
        "nothing is forwarded after the failing row"
    );
    assert_eq!(platform.logical_steps(), 1, "one platform job per row");
    let dead = platform.dead_letters()[0].pair;
    assert_eq!(dead.0, ElementId(0));
    let bought = dead.1 .0 as usize - 1;
    assert!(bought > 0, "the outage hit mid-row");
    for (b, &winner) in (1..12).zip(&first_row) {
        let want = if b <= bought { b } else { 0 };
        assert_eq!(winner, ElementId(want as u32), "pair (0, {b})");
    }
    // The bought prefix was billed exactly once.
    assert_eq!(platform.ledger().judgments(), counts.total());
}

#[test]
fn a_budget_capped_batch_blows_the_fuse_as_a_unit() {
    let mut pool = WorkerPool::new();
    pool.hire_naive_crowd(8, 0.0, 0.0);
    pool.hire_expert_panel(3, 0.0, 0.0);
    let config = PlatformConfig {
        gold_fraction: 0.0,
        budget_cap: Some(5.0),
        ..PlatformConfig::paper_default()
    };
    let platform = Platform::new(instance(), pool, config, StdRng::seed_from_u64(2));
    let mut fuse = FuseOracle::new(PlatformOracle::new(platform));
    let mut winners = Vec::new();
    let all = pairs();
    // First batch fits the budget; the second is refused as a whole and
    // the fuse fabricates it consistently.
    fuse.compare_batch(WorkerClass::Naive, &all[..5], &mut winners);
    assert!(!fuse.blown());
    fuse.compare_batch(WorkerClass::Naive, &all[5..], &mut winners);
    assert!(fuse.blown());
    assert_eq!(winners.len(), all.len(), "the algorithm still terminates");
}
