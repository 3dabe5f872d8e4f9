//! Peak live heap, counted by the global allocator.
//!
//! `VmHWM` moves with the allocator's own choices: glibc serves a large
//! block from the heap or from `mmap` depending on what the process freed
//! before, and on `serve_overload` that alone swings the peak between 27
//! and 38 MiB from one seed to the next. The bytes the program holds at
//! once are exact and repeat run to run, so the benchmark counts them: a
//! forwarding allocator adds every block's size on allocation and takes it
//! off on release.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Bytes allocated and not yet released. A statistic: `Relaxed`, because
/// it publishes no other data.
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// The most bytes [`LIVE`] has held.
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting the bytes it hands out.
struct Counting;

fn grown(by: usize) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    // A load and a store, not an atomic maximum: the measured code runs on
    // one thread, and this runs on every allocation.
    if live > PEAK.load(Relaxed) {
        PEAK.store(live, Relaxed);
    }
}

fn shrunk(by: usize) {
    LIVE.fetch_sub(by, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold for the blocks returned; the counters only
// read `Layout` sizes and never touch the blocks.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s contract, which
        // is `System.alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grown(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grown(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator, that is
        // `System`, returned with this layout.
        unsafe { System.dealloc(ptr, layout) };
        shrunk(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `dealloc`, and the caller meets `realloc`'s size
        // requirements.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grown(new_size - layout.size());
            } else {
                shrunk(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most heap this process has held at once so far, in MiB.
pub fn peak_mb() -> f64 {
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_peak_covers_a_block_after_it_is_freed() {
        let block = vec![1u8; 16 << 20];
        assert!(peak_mb() >= 16.0, "{}", peak_mb());
        drop(block);
        assert!(peak_mb() >= 16.0);
        let mut grown = Vec::<u8>::with_capacity(1);
        grown.resize(24 << 20, 0);
        assert!(peak_mb() >= 24.0);
    }
}
