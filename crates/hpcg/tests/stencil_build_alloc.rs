//! The colour-major operator is generated in place (a test binary of its
//! own: it installs a counting global allocator).
//!
//! `build_stencil_matrix` emits each row straight into the storage slot it
//! will occupy, so no index-order copy of the operator ever exists. Peak
//! live memory during the build is the result plus the generator's `27·n`
//! capacity hint and a few n-sized scratch vectors — about 1.1× the
//! result. Building in index order and regrouping would hold two copies
//! (≥ 1.9×) and show up as +30 % `peak_rss_mb` on the benchmark.

use hpcg::problem::build_stencil_matrix;
use hpcg::Grid3;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes currently allocated, and the most that ever were.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's contract is `System.dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Worst case: the new block exists before the old one is freed.
        grew(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's contract is `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn building_the_stencil_never_holds_a_second_copy_of_it() {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let a = build_stencil_matrix(Grid3::cube(32));
    let peak = PEAK.load(Ordering::Relaxed) - before;
    let result = a.storage_bytes();
    assert_ne!(a.storage_slot(1), 1, "the operator is stored reordered");
    assert!(
        peak as f64 <= 1.25 * result as f64,
        "peak {peak} B live during the build vs {result} B stored ({:.2}x)",
        peak as f64 / result as f64
    );
}
