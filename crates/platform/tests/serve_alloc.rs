//! Allocation guard for the serve tick.
//!
//! `CrowdServe` keeps its per-tenant state in one table, marks jobs
//! instead of building per-tick sets, and reuses its dispatch, cache-hit
//! and journal buffers from tick to tick. So on a warm service, with no
//! recorder installed, a tick's heap allocations come only from the jobs
//! it admits (their round buffers) and completes (span tree, completion
//! record, SLO window): a tick that does neither allocates nothing, and
//! no tick allocates more than a constant per admission and completion,
//! however long the run has been going.
//!
//! Two stores legitimately grow for the whole run. The journal's durable
//! bytes fill fixed [`SEGMENT_BYTES`] segments, one new segment each time
//! the last fills, and its index of segments may grow in the same tick.
//! The list of completed jobs doubles, so it reallocates a logarithmic
//! number of times. The guard recognises those calls by their size (at
//! least [`LARGE`] bytes, which a segment is and the list passes during
//! the warm-up) and bounds how often they happen instead.

use crowd_core::model::WorkerClass;
use crowd_platform::fault::{FaultConfig, LatencyModel};
use crowd_platform::journal::SEGMENT_BYTES;
use crowd_platform::serve::{
    ArrivalPlan, CachePolicy, CrowdServe, ServeConfig, ShardSpec, TenantId, TenantPolicy,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Requests at least this large come from the run-long stores.
const LARGE: usize = SEGMENT_BYTES;

struct CountingAlloc;

thread_local! {
    /// Allocation calls below [`LARGE`] bytes, then at or above it.
    static CALLS: Cell<[u64; 2]> = const { Cell::new([0; 2]) };
}

fn count(size: usize) {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = CALLS.try_with(|c| {
        let mut calls = c.get();
        calls[usize::from(size >= LARGE)] += 1;
        c.set(calls);
    });
}

// SAFETY: every call forwards to `System` unchanged; the wrapper only
// counts calls in a thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(small, large)` allocation calls made on this thread while `f` runs.
fn allocations_of<T>(f: impl FnOnce() -> T) -> ([u64; 2], T) {
    let before = CALLS.with(Cell::get);
    let out = f();
    let after = CALLS.with(Cell::get);
    ([after[0] - before[0], after[1] - before[1]], out)
}

/// Two tenants, a faulty crowd shard (retries and dead letters), a small
/// judgment cache that hits and evicts, and a short queue that sheds.
fn config() -> ServeConfig {
    ServeConfig::basic()
        .with_tenants(vec![
            TenantPolicy::new(TenantId(1), 300, 6),
            TenantPolicy::new(TenantId(0), 600, 12),
        ])
        .with_shards(vec![
            ShardSpec::honest(WorkerClass::Naive, 12, 36).with_fault(
                FaultConfig::none()
                    .with_no_answer(0.10)
                    .with_abandon(0.05)
                    .with_latency(LatencyModel::Geometric { p: 0.7, cap: 6 })
                    .with_timeout_steps(4),
            ),
            ShardSpec::honest(WorkerClass::Naive, 12, 36),
            ShardSpec::honest(WorkerClass::Expert, 4, 12),
        ])
        .with_queue_cap(6)
        .with_cache(CachePolicy::default_on().with_capacity(128))
}

/// Admissions and completions so far, from the report.
fn progress(service: &CrowdServe) -> (u64, u64) {
    let report = service.report();
    let admitted = report.tenants.iter().map(|t| t.admitted).sum();
    (admitted, report.jobs.len() as u64)
}

/// Allocation calls a tick may make per job it admits: the job's two
/// round buffers, plus a node of the active-job map.
const PER_ADMISSION: u64 = 3;
/// Per job it completes: the span tree, plus growth of the completion
/// list and of the tenant's SLO window.
const PER_COMPLETION: u64 = 3;

#[test]
fn a_warm_tick_allocates_only_for_the_jobs_it_admits_and_completes() {
    // Long enough for every reused buffer to reach its high-water mark
    // and for the cache index's last resize: once the cache is full, its
    // hash table grows one more time, near tick 480, when evictions have
    // left it full of tombstones.
    const WARM_TICKS: u64 = 600;
    const TICKS: u64 = 1_600;
    let plan = ArrivalPlan::new(29, 2, 3, 2 * TICKS, 2)
        .with_catalog(4, 24)
        .with_overlap(50, 64)
        .with_deadline(48);
    let mut service = CrowdServe::new(config(), 5).expect("config is valid");
    for t in 0..WARM_TICKS {
        for spec in plan.arrivals_at(t) {
            service.submit(spec).expect("plan specs are valid");
        }
        service.step().expect("tick runs");
    }
    let segments = |service: &CrowdServe| service.journal().durable().len().div_ceil(SEGMENT_BYTES);
    let segments_start = segments(&service);
    let (mut admitted, mut completed) = progress(&service);
    let completed_start = completed;
    assert!(
        segments_start >= 2,
        "the warm-up must fill the journal's first segment"
    );

    let (mut quiet, mut busy, mut large_calls) = (0u64, 0u64, 0u64);
    let mut segments_before = segments_start;
    for t in WARM_TICKS..TICKS {
        let arrivals = plan.arrivals_at(t);
        let ([small, large], result) = allocations_of(|| {
            for spec in arrivals {
                service.submit(spec)?;
            }
            service.step()
        });
        result.expect("tick runs");
        let (now_admitted, now_completed) = progress(&service);
        let (admits, completes) = (now_admitted - admitted, now_completed - completed);
        (admitted, completed) = (now_admitted, now_completed);
        // A tick that opens a journal segment may also grow the index of
        // segments: one small call.
        let opened = (segments(&service) - segments_before) as u64;
        segments_before = segments(&service);
        assert!(opened <= 1, "tick {t} opened {opened} segments");
        if admits == 0 && completes == 0 {
            quiet += 1;
            assert!(
                small <= opened,
                "tick {t} admitted and completed nothing: {small} calls"
            );
            assert!(large <= 1, "tick {t}: {large} large calls");
        } else {
            busy += 1;
            assert!(
                small <= PER_ADMISSION * admits + PER_COMPLETION * completes + opened,
                "tick {t}: {small} calls for {admits} admissions, {completes} completions"
            );
            assert!(large <= 2, "tick {t}: {large} large calls");
        }
        large_calls += large;
    }

    // Each large call opens a journal segment or at least doubles the
    // completion list.
    let doublings = |start: usize, end: usize| (2 * end / start.max(1)).ilog2();
    let opened = segments(&service) - segments_start;
    let bound = opened as u64 + u64::from(doublings(completed_start as usize, completed as usize));
    assert!(
        large_calls <= bound,
        "{large_calls} large calls; {opened} segments opened and the completion list's \
         doublings allow {bound}"
    );
    assert!(
        opened >= 2,
        "the window must open journal segments: {opened}"
    );
    assert!(
        quiet > 100 && busy > 100,
        "the window must mix quiet and busy ticks: {quiet} quiet, {busy} busy"
    );
    let stats = service.cache_stats();
    assert!(
        stats.hits > 0 && stats.evictions > 0,
        "the cache must hit and evict: {stats:?}"
    );
    let faults = service.fault_counts();
    assert!(faults.naive.no_answers > 0, "workers must fail: {faults:?}");
    let report = service.report();
    assert!(report.shed > 0, "the queue must shed");
}
