//! Allocation guard for the platform's judgment path.
//!
//! Per-worker and per-unit state, the job's units, its schedule and its
//! answers live in dense vectors the platform reuses from job to job. So
//! on a warm platform an oracle batch allocates nothing, faults and
//! retries included: the answers go straight into the caller's buffer.
//! `submit_comparisons` makes a constant number of allocation calls,
//! whatever the job's pair count: the one answer vector it returns. A
//! journaled batch adds only the journal's segment opens. The same
//! per-thread counting allocator as `crowd-obs`'s `handles_alloc.rs`
//! counts allocation calls here.

use crowd_core::element::{ElementId, Instance};
use crowd_core::model::WorkerClass;
use crowd_core::oracle::{ComparisonOracle, OracleError};
use crowd_platform::{
    CheckpointPolicy, FaultConfig, JournaledOracle, LatencyModel, Platform, PlatformConfig,
    PlatformOracle, RetryPolicy, WorkerPool,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the wrapper only
// counts calls in a thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation calls made on this thread while `f` runs.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

const N: u32 = 600;

/// A fault-injected platform at the benchmark's 1% rates: dropouts,
/// no-answers and a geometric latency that overruns a 3-step timeout 1%
/// of the time, with 15% gold units over honest workers.
fn platform() -> Platform<StdRng> {
    let instance = Instance::new((0..N).map(|v| f64::from(v) * 10.0).collect());
    let mut pool = WorkerPool::new();
    pool.hire_naive_crowd(25, 1.0, 0.0);
    pool.hire_expert_panel(4, 0.5, 0.0);
    let timeout = 3;
    let rate: f64 = 0.01;
    let faults = FaultConfig::none()
        .with_dropout(rate)
        .with_no_answer(rate)
        .with_latency(LatencyModel::Geometric {
            p: 1.0 - rate.powf(1.0 / (timeout + 1) as f64),
            cap: 8,
        })
        .with_timeout_steps(timeout);
    let config = PlatformConfig::paper_default()
        .with_faults(faults, 0xFA117)
        .with_retry(RetryPolicy::paper_default().with_max_retries(4));
    let mut p = Platform::new(instance, pool, config, StdRng::seed_from_u64(23));
    p.set_gold_pairs(
        (0..8)
            .map(|g| (ElementId(N - 1 - g), ElementId(g)))
            .collect(),
    );
    p
}

/// `count` distinct pairs, shifted by `offset`.
fn pairs(count: u32, offset: u32) -> Vec<(ElementId, ElementId)> {
    (0..count)
        .map(|i| {
            let k = (i * 7 + offset) % N;
            (ElementId(k), ElementId((k + 1 + i % 13) % N))
        })
        .collect()
}

#[test]
fn a_warm_jobs_allocations_do_not_grow_with_its_pairs() {
    let mut p = platform();
    // Warm up at both sizes: the reused buffers reach their high-water
    // marks and every worker's dense slots exist.
    for round in 0..6 {
        for size in [256, 16] {
            p.submit_comparisons(&pairs(size, round), WorkerClass::Naive)
                .expect("retries absorb 1% faults");
        }
    }
    let retries_before = p.fault_counts().naive.retries;
    let mut counts = Vec::new();
    for round in 6..10 {
        for size in [16, 256] {
            let batch = pairs(size, round);
            let (allocations, answers) =
                allocations_of(|| p.submit_comparisons(&batch, WorkerClass::Naive));
            assert_eq!(
                answers.expect("retries absorb 1% faults").len(),
                batch.len()
            );
            counts.push((size, allocations));
        }
    }
    assert!(
        p.fault_counts().naive.retries > retries_before,
        "the measured jobs must retry faults: {:?}",
        p.fault_counts().naive
    );
    let (_, first) = counts[0];
    assert!(first > 0, "the counter must see a job's allocations");
    assert!(
        counts.iter().all(|&(_, n)| n == first),
        "allocations per job (pairs, calls): {counts:?}"
    );
}

/// Warms `oracle` at both batch sizes, so its buffers and `winners` reach
/// their high-water marks and every worker's dense slots exist.
fn warm(oracle: &mut impl ComparisonOracle, winners: &mut Vec<ElementId>) {
    for round in 0..6 {
        for size in [256, 16] {
            winners.clear();
            oracle
                .try_compare_batch(WorkerClass::Naive, &pairs(size, round), winners)
                .expect("retries absorb 1% faults");
        }
    }
}

/// Runs measured batches of 16 and 256 pairs through `oracle` into the
/// warmed `winners`. Returns, per answered batch, its size and its
/// allocation calls, with `extra(oracle)` read before and after.
/// A batch that leaves units unanswered is skipped: its error owns the
/// unanswered lists.
fn measured_batches<O: ComparisonOracle>(
    oracle: &mut O,
    winners: &mut Vec<ElementId>,
    extra: impl Fn(&O) -> usize,
) -> Vec<(u32, u64, usize)> {
    let mut measured = Vec::new();
    for round in 6..16 {
        for size in [16, 256] {
            let batch = pairs(size, round);
            winners.clear();
            let before = extra(oracle);
            let (allocations, outcome) =
                allocations_of(|| oracle.try_compare_batch(WorkerClass::Naive, &batch, winners));
            match outcome {
                Ok(()) => assert_eq!(winners.len(), batch.len()),
                Err(OracleError::Unanswered { .. }) => continue,
                Err(err) => panic!("a warm batch failed: {err}"),
            }
            measured.push((size, allocations, extra(oracle) - before));
        }
    }
    assert!(
        measured.len() >= 16,
        "too few batches answered: {measured:?}"
    );
    measured
}

#[test]
fn a_warm_oracle_batch_allocates_nothing() {
    let mut oracle = PlatformOracle::new(platform());
    let mut winners = Vec::new();
    warm(&mut oracle, &mut winners);
    let retries_before = oracle.platform().fault_counts().naive.retries;
    let measured = measured_batches(&mut oracle, &mut winners, |_| 0);
    assert!(
        oracle.platform().fault_counts().naive.retries > retries_before,
        "the measured batches must retry faults"
    );
    assert!(
        measured.iter().all(|&(_, allocations, _)| allocations == 0),
        "allocations per batch (pairs, calls, 0): {measured:?}"
    );
    let (allocations, winner) =
        allocations_of(|| oracle.try_compare(WorkerClass::Naive, ElementId(3), ElementId(500)));
    assert_eq!(winner, Ok(ElementId(500)));
    assert_eq!(allocations, 0, "a warm scalar comparison allocated");
}

#[test]
fn a_warm_journaled_batch_allocates_only_journal_segments() {
    let segments = |o: &JournaledOracle<StdRng>| o.journal().durable().chunks().count();
    let mut oracle = JournaledOracle::new(platform(), "alloc", 7, CheckpointPolicy::every(4));
    let mut winners = Vec::new();
    warm(&mut oracle, &mut winners);
    let retries_before = oracle.platform().fault_counts().naive.retries;
    let measured = measured_batches(&mut oracle, &mut winners, segments);
    assert!(
        oracle.platform().fault_counts().naive.retries > retries_before,
        "the measured batches must retry faults"
    );
    // A segment open allocates the segment and may grow the segment list.
    assert!(
        measured
            .iter()
            .all(|&(_, allocations, opened)| allocations <= 2 * opened as u64),
        "allocations per batch (pairs, calls, segments opened): {measured:?}"
    );
    assert!(
        measured.iter().any(|&(_, allocations, _)| allocations == 0),
        "most batches open no segment: {measured:?}"
    );
    let before = segments(&oracle);
    let (allocations, winner) =
        allocations_of(|| oracle.try_compare(WorkerClass::Naive, ElementId(3), ElementId(500)));
    assert_eq!(winner, Ok(ElementId(500)));
    assert!(allocations <= 2 * (segments(&oracle) - before) as u64);
}
