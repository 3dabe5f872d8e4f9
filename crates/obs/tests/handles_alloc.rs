//! Allocation guard for the handle path.
//!
//! Hot sites update through pre-registered handles, once per judgment
//! and per unit, so an update of a series a registry has already touched
//! must not touch the heap. The same per-thread counting allocator as
//! `metrics_alloc.rs` checks that repeated `CounterId::add`,
//! `GaugeId::set` and `HistogramId::observe` calls through an installed
//! [`Recorder`] allocate zero bytes, and that registering a handle for a
//! series that already exists, in any label order, allocates nothing
//! either.

use crowd_obs::{install_recorder, CounterId, GaugeId, HistogramId, Recorder};
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

#[test]
fn handle_updates_after_the_first_touch_allocate_nothing() {
    let (a, b) = (("class", "naive"), ("kind", "retry"));
    let handles: Vec<(CounterId, GaugeId, HistogramId)> = [vec![], vec![a], vec![a, b]]
        .iter()
        .map(|labels| {
            (
                CounterId::new("handle_guard_total", labels),
                GaugeId::new("handle_guard_depth", labels),
                HistogramId::new("handle_guard_steps", labels),
            )
        })
        .collect();
    let update_all = |v: u64| {
        for (counter, gauge, hist) in &handles {
            counter.add(v);
            gauge.set(v as i64);
            hist.observe(v);
        }
    };

    let recorder = Arc::new(Recorder::new());
    let _guard = install_recorder(recorder.clone());
    // First touch: the registry grows its cells, which allocates — and
    // shows the counter sees allocations at all.
    assert!(
        allocated_by(|| update_all(1)) > 0,
        "a first touch allocates"
    );
    assert_eq!(recorder.metrics().snapshot().len(), 9);

    let bytes = allocated_by(|| {
        for v in 0..1000 {
            update_all(v);
        }
    });
    assert_eq!(bytes, 0, "handle updates allocated {bytes} bytes");

    // Re-registering existing series, labels reordered, finds them.
    let bytes = allocated_by(|| {
        let again = CounterId::new("handle_guard_total", &[b, a]);
        assert_eq!(again, handles[2].0);
        again.add(1);
    });
    assert_eq!(bytes, 0, "re-registering allocated {bytes} bytes");
    assert_eq!(recorder.metrics().snapshot().len(), 9);
}
