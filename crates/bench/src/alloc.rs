//! The counting allocator of the heap tests (`tests/shingle_heap.rs`,
//! `tests/index_heap.rs`): a shim over the system allocator that tracks
//! the bytes currently held and their high-water mark. A test binary that
//! wants byte figures declares
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: pfam_bench::alloc::CountingAlloc = pfam_bench::alloc::CountingAlloc;
//! ```
//!
//! and brackets what it measures with [`peak_reset`] / [`peak_since`].
//! The count is heap payload exactly (no allocator slack, no page
//! rounding), so it *underestimates* RSS but ranks strategies fairly; in
//! a binary that does not install the allocator every figure reads 0.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes currently held.
static LIVE: AtomicU64 = AtomicU64::new(0);
/// High-water mark of [`LIVE`] since the last [`peak_reset`].
static PEAK: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counted.
pub struct CountingAlloc;

fn grew(by: u64) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            let (old, new) = (layout.size() as u64, new_size as u64);
            if new >= old {
                grew(new - old);
            } else {
                LIVE.fetch_sub(old - new, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Bytes currently held.
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// Start a measurement: forget the high-water mark so far and return the
/// bytes held now, the baseline [`peak_since`] subtracts.
pub fn peak_reset() -> u64 {
    let live = live_bytes();
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// The most bytes held at once since [`peak_reset`], above `baseline`.
pub fn peak_since(baseline: u64) -> u64 {
    PEAK.load(Ordering::Relaxed).saturating_sub(baseline)
}
