//! Counting global allocator for the bench crate.
//!
//! Wraps [`std::alloc::System`] with relaxed atomic counters so the
//! deterministic cost proxy (`repro substrate`, ratcheted by
//! `cost-baseline.txt`) can track heap traffic on the fixed fleet case
//! alongside events fired and heap ops: allocation calls, bytes
//! requested, and the peak of live bytes. Allocation counts are a pure
//! function of the code under test on a single-threaded run, so any
//! increase is an allocation regression on the hot path, and a higher
//! peak is memory the simulation retained — caught in review instead of
//! showing up as a mysteriously slower or larger campaign.
//!
//! The counters are process-global: a delta taken around a section is
//! only meaningful when no other thread allocates concurrently. The
//! `repro` binary is single-threaded, so [`section`] deltas there are
//! exact; unit tests (which run multi-threaded under `cargo test`) must
//! not assert on exact counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

static ALLOC_OPS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

/// Count one allocation call of `requested` new bytes that changes the
/// live heap by `live_delta`.
fn note(requested: usize, live_delta: i64) {
    ALLOC_OPS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(requested as u64, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(live_delta, Ordering::Relaxed) + live_delta;
    PEAK_LIVE_BYTES.fetch_max(live, Ordering::Relaxed);
}

/// [`System`] plus relaxed counters of allocation calls, bytes requested
/// (`alloc`, `alloc_zeroed`, and the grow side of `realloc`) and live
/// bytes with their peak.
pub struct CountingAlloc;

// SAFETY: defers every operation verbatim to `System`; the counters are
// plain relaxed atomics with no effect on the returned memory.
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
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
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

/// Cumulative `(allocation ops, bytes requested)` since process start.
pub fn totals() -> (u64, u64) {
    (
        ALLOC_OPS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Allocator traffic of one [`section`].
#[derive(Debug, Clone, Copy)]
pub struct SectionCost {
    /// Allocation calls.
    pub ops: u64,
    /// Bytes requested.
    pub bytes: u64,
    /// Peak of live bytes above the live level at entry.
    pub peak_live_bytes: u64,
}

/// Run `f` and return its result with the allocator traffic of the call.
/// Exact only when no other thread allocates concurrently (true in the
/// single-threaded `repro` binary). Peak tracking restarts at entry, so
/// sections must not nest.
pub fn section<T>(f: impl FnOnce() -> T) -> (T, SectionCost) {
    let (ops0, bytes0) = totals();
    let base = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_LIVE_BYTES.store(base, Ordering::Relaxed);
    let out = f();
    let (ops1, bytes1) = totals();
    let peak = PEAK_LIVE_BYTES.load(Ordering::Relaxed);
    let cost = SectionCost {
        ops: ops1 - ops0,
        bytes: bytes1 - bytes0,
        peak_live_bytes: (peak - base).max(0) as u64,
    };
    (out, cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_counts_move_on_allocation() {
        // Other test threads may allocate concurrently, so only assert
        // the lower bound the section itself guarantees.
        let (v, cost) = section(|| vec![0u8; 4096]);
        assert_eq!(v.len(), 4096);
        assert!(
            cost.ops >= 1,
            "vec allocation must be counted, got {cost:?}"
        );
        assert!(
            cost.bytes >= 4096,
            "at least 4096 bytes requested: {cost:?}"
        );
    }
}
