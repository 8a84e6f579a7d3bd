//! A frame's length prefix is not an allocation size (a test binary of its
//! own: it installs a counting global allocator).
//!
//! `read_frame` accepts prefixes up to `MAX_FRAME_BYTES` (64 MiB). A peer
//! that declares the ceiling and then sends 16 bytes must cost the server
//! about 16 bytes of buffer, not 64 MiB reserved before the payload
//! arrives.

use serve::protocol::{read_frame, MAX_FRAME_BYTES};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::ErrorKind;
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
fn a_declared_ceiling_followed_by_eof_allocates_what_arrived() {
    let mut wire = format!("{MAX_FRAME_BYTES} ").into_bytes();
    wire.extend_from_slice(&[b'x'; 16]);
    let mut r = wire.as_slice();

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let err = read_frame(&mut r).expect_err("the payload is truncated");
    let peak = PEAK.load(Ordering::Relaxed) - before;

    assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "{err}");
    assert!(
        peak < 1 << 20,
        "peak {peak} B live reading a 16-byte payload declared as {MAX_FRAME_BYTES} B"
    );
}
