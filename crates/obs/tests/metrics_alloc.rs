//! Allocation guard for the metrics hot path.
//!
//! The platform updates a metric per judgment and per unit, so an update
//! of an existing series must not touch the heap: the registry sorts the
//! borrowed labels on the stack and finds the series by binary search.
//! A counting global allocator (with a per-thread counter, so the test
//! harness's other threads do not interfere) checks that repeated
//! `counter_add`, `gauge_set` and `observe` calls through an installed
//! [`Recorder`] allocate zero bytes, for 0–3 labels passed in any order.

use crowd_obs::{counter_add, gauge_set, install_recorder, observe, Recorder};
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

/// Every order of up to three labels: the same series, however passed.
fn label_orders() -> Vec<Vec<(&'static str, &'static str)>> {
    let (a, b, c) = (("class", "naive"), ("kind", "retry"), ("reason", "budget"));
    vec![
        vec![],
        vec![a],
        vec![a, b],
        vec![b, a],
        vec![a, b, c],
        vec![a, c, b],
        vec![b, a, c],
        vec![b, c, a],
        vec![c, a, b],
        vec![c, b, a],
    ]
}

fn update_all(labels: &[(&str, &str)], v: u64) {
    counter_add("guard_total", labels, v);
    gauge_set("guard_depth", labels, v as i64);
    observe("guard_steps", labels, v);
}

#[test]
fn updates_of_existing_series_allocate_nothing() {
    let recorder = Arc::new(Recorder::new());
    let _guard = install_recorder(recorder.clone());
    let orders = label_orders();
    // First touch: each label set's series is created, which allocates —
    // and shows the counter sees allocations at all.
    let first_touch = allocated_by(|| {
        for labels in &orders {
            update_all(labels, 1);
        }
    });
    assert!(first_touch > 0, "a first touch builds owned keys");
    let series = recorder.metrics().snapshot().len();
    assert_eq!(series, 3 * 4, "three metrics over four distinct label sets");

    for labels in &orders {
        let bytes = allocated_by(|| {
            for v in 0..100 {
                update_all(labels, v);
            }
        });
        assert_eq!(bytes, 0, "updating {labels:?} allocated {bytes} bytes");
    }
    assert_eq!(recorder.metrics().snapshot().len(), series);
}
