//! `HistogramId::observe_each` against a loop of `HistogramId::observe`.
//!
//! The platform and the service flush their per-judgment latencies and
//! per-unit attempt counts once per job or pair. A batch must land in the
//! same cells a loop of single observes fills, so the exposition cannot
//! tell the two apart, and after the series' first touch it must not
//! touch the heap. The allocation check uses the same per-thread counting
//! allocator as `handles_alloc.rs`.

use crowd_obs::{
    install_recorder, render_json, render_prometheus, HistogramId, Recorder, DEFAULT_BUCKETS,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = ALLOCATED.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every call forwards to `System` unchanged; the wrapper only
// counts bytes in a thread-local `Cell`, which never allocates.
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

/// Bytes allocated on this thread while `f` runs.
fn allocated_by(f: impl FnOnce()) -> u64 {
    let before = ALLOCATED.with(Cell::get);
    f();
    ALLOCATED.with(Cell::get) - before
}

/// Runs `update` under a fresh recorder and renders what it recorded.
fn exposition(update: impl FnOnce()) -> (String, String) {
    let recorder = Arc::new(Recorder::new());
    {
        let _guard = install_recorder(recorder.clone());
        update();
    }
    let samples = recorder.metrics().snapshot();
    (render_prometheus(&samples), render_json(&samples))
}

#[test]
fn a_batch_renders_like_a_loop_of_observes() {
    let last = *DEFAULT_BUCKETS.last().expect("the layout has buckets");
    let batches: [&[u64]; 5] = [
        &[],
        &[0, 1, 1, 2, 3, 1024, 1025],
        &[last, last + 1, u64::from(u32::MAX)],
        &[7],
        &[],
    ];
    let handles = [
        HistogramId::new("observe_each_steps", &[("class", "naive")]),
        HistogramId::new("observe_each_steps", &[("class", "expert")]),
        HistogramId::with_buckets("observe_each_depth", &[], &[1, 2, 4]),
    ];
    let (batched_prom, batched_json) = exposition(|| {
        for (i, values) in batches.iter().enumerate() {
            handles[i % handles.len()].observe_each(values);
        }
    });
    let (looped_prom, looped_json) = exposition(|| {
        for (i, values) in batches.iter().enumerate() {
            for &v in *values {
                handles[i % handles.len()].observe(v);
            }
        }
    });
    assert_eq!(batched_prom, looped_prom);
    assert_eq!(batched_json, looped_json);
    assert!(batched_prom.contains("le=\"+Inf\""), "{batched_prom}");

    // An empty batch touches nothing: the series stays out of the
    // snapshot, as it would after a loop that never runs.
    let untouched = HistogramId::new("observe_each_untouched", &[]);
    let (prom, json) = exposition(|| untouched.observe_each(&[]));
    assert!(!prom.contains("observe_each_untouched"), "{prom}");
    assert!(!json.contains("observe_each_untouched"), "{json}");
}

#[test]
fn a_batch_after_the_first_touch_allocates_nothing() {
    let handle = HistogramId::new("observe_each_alloc_steps", &[("class", "naive")]);
    let values: Vec<u64> = (0..64).map(|i| i * 37).collect();
    let recorder = Arc::new(Recorder::new());
    let _guard = install_recorder(recorder.clone());
    assert!(
        allocated_by(|| handle.observe_each(&values[..1])) > 0,
        "a first touch allocates"
    );
    let bytes = allocated_by(|| {
        for chunk in values.chunks(8).cycle().take(1000) {
            handle.observe_each(chunk);
        }
        handle.observe_each(&[]);
    });
    assert_eq!(bytes, 0, "batched observes allocated {bytes} bytes");
}
