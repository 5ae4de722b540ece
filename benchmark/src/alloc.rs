//! Counting global allocator with live and peak-live tracking.
//!
//! Wraps [`System`] and keeps per-thread counters: allocation calls,
//! bytes requested, bytes currently live and the peak of live bytes
//! since the last [`reset_peak`]. Per-thread counters cost a few plain
//! loads and stores per call (no atomic read-modify-write on the hot
//! path) and stay exact for the calling thread even when other threads
//! allocate, as they do under the multi-threaded test runner. The one
//! blind spot: memory freed on another thread than the one that
//! allocated it moves the freeing thread's live count. The benchmark
//! binary is single-threaded, so its numbers are exact.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counters {
    ops: Cell<u64>,
    bytes: Cell<u64>,
    live: Cell<i64>,
    peak: Cell<i64>,
}

thread_local! {
    // Const-initialised and drop-free, so access never allocates and never
    // fails, even during thread teardown: safe inside the allocator.
    static COUNTERS: Counters = const {
        Counters {
            ops: Cell::new(0),
            bytes: Cell::new(0),
            live: Cell::new(0),
            peak: Cell::new(0),
        }
    };
}

fn note(requested: usize, live_delta: i64) {
    COUNTERS.with(|c| {
        c.ops.set(c.ops.get() + 1);
        c.bytes.set(c.bytes.get() + requested as u64);
        let live = c.live.get() + live_delta;
        c.live.set(live);
        if live > c.peak.get() {
            c.peak.set(live);
        }
    });
}

/// [`System`] plus the per-thread counters above.
struct CountingAlloc;

// SAFETY: every operation defers verbatim to `System`; the counters are
// thread-local cells that never touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        COUNTERS.with(|c| c.live.set(c.live.get() - layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(
            new_size.saturating_sub(layout.size()),
            new_size as i64 - layout.size() as i64,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING_ALLOC: CountingAlloc = CountingAlloc;

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) made by this
/// thread so far.
pub(crate) fn ops() -> u64 {
    COUNTERS.with(|c| c.ops.get())
}

/// Bytes requested by this thread so far (the grow side of `realloc`).
pub(crate) fn bytes() -> u64 {
    COUNTERS.with(|c| c.bytes.get())
}

/// Bytes this thread currently holds live.
pub(crate) fn live() -> i64 {
    COUNTERS.with(|c| c.live.get())
}

/// Highest [`live`] value since the last [`reset_peak`].
pub(crate) fn peak() -> i64 {
    COUNTERS.with(|c| c.peak.get())
}

/// Restart peak tracking from the current live level.
pub(crate) fn reset_peak() {
    COUNTERS.with(|c| c.peak.set(c.live.get()));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lower bounds only: the counts must move with allocation, but an
    /// exact count could be perturbed by the test harness.
    #[test]
    fn peak_tracks_live_heap_and_resets() {
        reset_peak();
        let base = live();
        let (ops0, bytes0) = (ops(), bytes());
        let v = std::hint::black_box(vec![1u8; 1 << 20]);
        assert!(live() - base >= 1 << 20, "live must include the vec");
        drop(v);
        assert!(peak() - base >= 1 << 20, "peak must remember the vec");
        assert!(ops() > ops0);
        assert!(bytes() - bytes0 >= 1 << 20);
        reset_peak();
        assert!(
            peak() - base < 1 << 20,
            "reset must drop the peak to the live level"
        );
    }
}
