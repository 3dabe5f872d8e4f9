//! Allocation guard for the serve tick with a recorder installed.
//!
//! `serve_alloc.rs` bounds a warm tick's allocations with nothing
//! installed. A recorder must not add to them: the tick's events, spans
//! and metric updates go to the thread's pending log and cells, which a
//! warm tick writes without allocating. The one exception is the pending
//! log opening a fresh segment when its tail fills, the same way the
//! journal does. So every large allocation call (at least
//! [`SEGMENT_BYTES`]) is a log or journal segment opening, or a doubling
//! of the completed-jobs list, and small calls stay within the
//! per-admission and per-completion budget of `serve_alloc.rs`.

use crowd_core::model::WorkerClass;
use crowd_obs::{install_recorder, Recorder};
use crowd_platform::fault::{FaultConfig, LatencyModel};
use crowd_platform::journal::SEGMENT_BYTES;
use crowd_platform::serve::{
    ArrivalPlan, CachePolicy, CrowdServe, ServeConfig, ShardSpec, TenantId, TenantPolicy,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAlloc;

thread_local! {
    /// Allocation calls below [`SEGMENT_BYTES`], then at or above it.
    static CALLS: Cell<[u64; 2]> = const { Cell::new([0; 2]) };
}

fn count(size: usize) {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = CALLS.try_with(|c| {
        let mut calls = c.get();
        calls[usize::from(size >= SEGMENT_BYTES)] += 1;
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

/// The workload of `serve_alloc.rs`: two tenants, a faulty crowd shard,
/// a small judgment cache that hits and evicts, a short queue that sheds.
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

fn progress(service: &CrowdServe) -> (u64, u64) {
    let report = service.report();
    let admitted = report.tenants.iter().map(|t| t.admitted).sum();
    (admitted, report.jobs.len() as u64)
}

/// Small allocation calls a tick may make per job it admits and per job
/// it completes, as in `serve_alloc.rs`.
const PER_ADMISSION: u64 = 3;
const PER_COMPLETION: u64 = 3;

#[test]
fn a_recorded_warm_tick_allocates_large_blocks_only_for_segments() {
    const WARM_TICKS: u64 = 600;
    const TICKS: u64 = 6_600;
    let plan = ArrivalPlan::new(29, 2, 3, 2 * TICKS, 2)
        .with_catalog(4, 24)
        .with_overlap(50, 64)
        .with_deadline(48);
    let recorder = Arc::new(Recorder::new());
    let _guard = install_recorder(recorder.clone());
    let mut service = CrowdServe::new(config(), 5).expect("config is valid");
    for t in 0..WARM_TICKS {
        for spec in plan.arrivals_at(t) {
            service.submit(spec).expect("plan specs are valid");
        }
        service.step().expect("tick runs");
    }
    let journal_segments =
        |service: &CrowdServe| service.journal().durable().len().div_ceil(SEGMENT_BYTES);
    // A read flushes the warm-up's writes; the window is measured from here.
    let log_start = recorder.log_bytes();
    let journal_start = journal_segments(&service);
    let (mut admitted, mut completed) = progress(&service);
    let completed_start = completed;

    let (mut small_calls, mut large_calls, mut budget) = (0u64, 0u64, 0u64);
    let mut journal_before = journal_start;
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
        let opened = (journal_segments(&service) - journal_before) as u64;
        journal_before = journal_segments(&service);
        // A tick writes far less than a segment of log: it opens at most
        // one log segment, one journal segment, and may double the list.
        assert!(large <= opened + 2, "tick {t}: {large} large calls");
        // Each segment opened, log or journal, may grow its store's index
        // of segments: one small call.
        let allowed = PER_ADMISSION * admits + PER_COMPLETION * completes + large;
        assert!(
            small <= allowed,
            "tick {t}: {small} small calls for {admits} admissions, {completes} completions"
        );
        small_calls += small;
        large_calls += large;
        budget += allowed;
    }

    let log_written = recorder.log_bytes() - log_start;
    let log_opened = log_written.div_ceil(SEGMENT_BYTES) as u64;
    let journal_opened = (journal_segments(&service) - journal_start) as u64;
    let doublings = u64::from((2 * completed / completed_start.max(1)).ilog2());
    assert!(
        large_calls <= log_opened + journal_opened + doublings,
        "{large_calls} large calls; {log_opened} log and {journal_opened} journal segments \
         opened, {doublings} doublings of the completion list"
    );
    assert!(
        log_opened >= 2,
        "the window must fill log segments: {log_written} bytes"
    );
    assert!(small_calls <= budget, "{small_calls} > {budget}");
    assert!(!recorder.events().is_empty() && !recorder.spans().is_empty());
}
