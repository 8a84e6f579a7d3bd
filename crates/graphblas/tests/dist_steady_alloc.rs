//! The sharded steady state allocates nothing that grows with the vectors
//! (a test binary of its own: it installs a counting global allocator).
//!
//! After a warm-up call has sized the runtime's arenas and mailboxes (and
//! built the matrix's shard plan), what a `dist:2` kernel call still
//! allocates is the cost recorder's O(p) per-node tallies and the growth
//! of its step list — the same bytes whether the vectors hold 4 096 or
//! 32 768 elements.

use graphblas::{CsrMatrix, Distributed, Exec, PlusTimes, Vector};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes requested from the allocator so far, by any thread.
static REQUESTED: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract is `System.dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(new_size, Ordering::Relaxed);
        // SAFETY: the caller's contract is `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const CALLS: usize = 16;

/// Bytes requested by [`CALLS`] calls of each kernel on a fresh `dist:2`
/// cluster over `n`-element operands, each kernel warmed up first.
fn steady_state_bytes(n: usize) -> Vec<(&'static str, usize)> {
    // Tridiagonal: every shard has interior rows and a boundary row.
    let mut entries = Vec::new();
    for i in 0..n {
        entries.push((i, i, 2.0));
        if i > 0 {
            entries.push((i, i - 1, -1.0));
        }
        if i + 1 < n {
            entries.push((i, i + 1, -1.0));
        }
    }
    let a = CsrMatrix::<f64>::from_triplets(n, n, &entries).unwrap();
    let x = Vector::from_dense((0..n).map(|i| (i % 7) as f64).collect());
    let mut y = Vector::zeros(n);
    let mut w = Vector::zeros(n);
    let every_eighth = (0..n as u32).step_by(8).collect();
    let mask = Vector::<bool>::sparse_filled(n, every_eighth, true).unwrap();
    let cluster = Distributed::new(2);
    let ctx = cluster.ctx();

    let mut measured = Vec::new();
    let mut measure = |name: &'static str, call: &mut dyn FnMut()| {
        for _ in 0..2 {
            call();
        }
        let before = REQUESTED.load(Ordering::Relaxed);
        for _ in 0..CALLS {
            call();
        }
        measured.push((name, REQUESTED.load(Ordering::Relaxed) - before));
    };
    measure("axpy", &mut || ctx.axpy(&mut w, 0.5, &x).unwrap());
    measure("dot", &mut || {
        std::hint::black_box(ctx.dot(&x, &w).compute().unwrap());
    });
    measure("masked ewise", &mut || {
        ctx.ewise(&x, &y)
            .mask(&mask)
            .structural()
            .into(&mut w)
            .unwrap()
    });
    measure("mxv", &mut || ctx.mxv(&a, &x).into(&mut y).unwrap());
    // The RBGS colour step; the matrix's shard plan is built in the warm-up.
    measure("masked mxv", &mut || {
        ctx.mxv(&a, &x)
            .mask(&mask)
            .structural()
            .into(&mut y)
            .unwrap()
    });
    measure("spmv_dot", &mut || {
        let dot = cluster.run_spmv_dot::<f64, PlusTimes>(&mut y, &a, &x, Some(&x), false);
        std::hint::black_box(dot.unwrap());
    });
    measured
}

#[test]
fn steady_state_allocation_does_not_grow_with_n() {
    let small = steady_state_bytes(4096);
    let large = steady_state_bytes(32768);
    assert_eq!(
        small, large,
        "bytes per {CALLS} calls at n = 4096 vs n = 32768"
    );
    // And it is bookkeeping, not buffers: far below one n-length vector.
    for (kernel, bytes) in &large {
        assert!(
            bytes / CALLS < 4096,
            "{kernel}: {} B per call",
            bytes / CALLS
        );
    }
}
