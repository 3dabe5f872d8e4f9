//! Allocation guard for the journal's durable bytes.
//!
//! A journal keeps its durable bytes in fixed [`SEGMENT_BYTES`] segments:
//! a flush copies the pending frames into the tail segment and opens a
//! new one when it fills. So flushing `N` bytes allocates at most
//! `⌈N / SEGMENT_BYTES⌉ + 1` segment-sized blocks, and no block that
//! large is ever reallocated (moved and copied) as the journal grows.

use crowd_platform::journal::{Journal, SEGMENT_BYTES};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations of at least [`SEGMENT_BYTES`], then reallocations from
    /// or to a block that large.
    static LARGE: Cell<[u64; 2]> = const { Cell::new([0; 2]) };
}

fn count(slot: usize) {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = LARGE.try_with(|c| {
        let mut calls = c.get();
        calls[slot] += 1;
        c.set(calls);
    });
}

// SAFETY: every call forwards to `System` unchanged; the wrapper only
// counts calls in a thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= SEGMENT_BYTES {
            count(0);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= SEGMENT_BYTES {
            count(0);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if layout.size().max(new_size) >= SEGMENT_BYTES {
            count(1);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn flushing_n_bytes_opens_at_most_one_segment_per_segment_of_bytes() {
    // Payloads of varied lengths up to a third of a segment, flushed
    // three frames at a time.
    let payloads: Vec<String> = (0..64)
        .map(|i| format!("[{}]", "1,".repeat(i * i * 7 % 10_000)))
        .collect();
    let mut journal = Journal::new();
    // Warm the pending buffer to three of the widest frames, outside the
    // count: only the durable bytes are under test.
    let widest = payloads.iter().max_by_key(|p| p.len()).expect("payloads");
    for _ in 0..3 {
        journal.append_json(widest);
    }
    journal.flush();
    let start = journal.durable().len();

    let before = LARGE.with(Cell::get);
    for round in 0..40 {
        for (i, payload) in payloads.iter().skip(round % 7).enumerate() {
            journal.append_json(payload);
            if i % 3 == 2 {
                journal.flush();
            }
        }
        journal.flush();
    }
    let after = LARGE.with(Cell::get);

    let flushed = journal.durable().len() - start;
    assert!(flushed > 20 * SEGMENT_BYTES, "{flushed} bytes flushed");
    let segments = (after[0] - before[0]) as usize;
    assert!(
        segments <= flushed.div_ceil(SEGMENT_BYTES) + 1,
        "{segments} large allocations for {flushed} bytes"
    );
    assert_eq!(after[1], before[1], "a large block was reallocated");
    assert_eq!(
        journal.durable().chunks().count(),
        journal.durable().len().div_ceil(SEGMENT_BYTES)
    );
}
