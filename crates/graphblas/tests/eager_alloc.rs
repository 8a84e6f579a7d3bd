//! Eager calls allocate nothing (a test binary of its own: it installs a
//! counting global allocator).
//!
//! A call on a [`Ctx`] runs its kernel at once: it must not build a node,
//! box its closure or grow a schedule on the way. On `Sequential` every
//! call below allocates nothing; on `Parallel` every call that writes a
//! vector allocates nothing (its folds keep one buffer of per-worker
//! partials, which this test does not pin).

use graphblas::algorithms::LorLand;
use graphblas::{
    ctx, AdditiveInverse, Backend, CsrMatrix, Ctx, Max, Parallel, Plus, Sequential, Times, Vector,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocation calls made so far, by any thread.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract is `System.dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract is `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const N: usize = 3_000;

/// Allocation calls made by `f`'s second run (the first warms up the
/// worker pool and any lazily built state).
fn allocs(mut f: impl FnMut()) -> usize {
    f();
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

struct Operands {
    a: CsrMatrix<f64>,
    x: Vector<f64>,
    z: Vector<f64>,
    mask: Vector<bool>,
}

fn operands() -> Operands {
    let mut entries = Vec::new();
    for i in 0..N {
        entries.push((i, i, 4.0));
        if i > 0 {
            entries.push((i, i - 1, -1.0));
        }
        if i + 1 < N {
            entries.push((i, i + 1, -1.0));
        }
    }
    Operands {
        a: CsrMatrix::from_triplets(N, N, &entries).unwrap(),
        x: Vector::from_dense((0..N).map(|i| (i % 7) as f64 - 3.0).collect()),
        z: Vector::from_dense((0..N).map(|i| (i % 5) as f64 + 1.0).collect()),
        mask: Vector::sparse_filled(N, (0..N as u32).step_by(3).collect(), true).unwrap(),
    }
}

/// Allocation calls of each write-shaped eager call on `exec`.
fn writes<B: Backend>(exec: Ctx<B>, o: &Operands) -> Vec<(&'static str, usize)> {
    let Operands { a, x, z, mask } = o;
    let mut y = Vector::zeros(N);
    let mut w = Vector::zeros(N);
    let zs = z.as_slice();
    vec![
        ("mxv", allocs(|| exec.mxv(a, x).into(&mut y).unwrap())),
        ("mxv structural mask", {
            allocs(|| exec.mxv(a, x).mask(mask).structural().into(&mut y).unwrap())
        }),
        ("mxv transpose accum", {
            allocs(|| exec.mxv(a, x).transpose().accum(Plus).into(&mut y).unwrap())
        }),
        ("mxv LorLand", {
            allocs(|| exec.mxv(a, x).ring(LorLand).into(&mut y).unwrap())
        }),
        ("ewise", allocs(|| exec.ewise(x, z).into(&mut w).unwrap())),
        ("ewise scaled", {
            allocs(|| exec.ewise(x, z).scaled(2.0, -0.5).into(&mut w).unwrap())
        }),
        ("ewise Times masked", {
            allocs(|| exec.ewise(x, z).op(Times).mask(mask).into(&mut w).unwrap())
        }),
        ("apply AdditiveInverse", {
            allocs(|| exec.apply(x).op(AdditiveInverse).into(&mut w).unwrap())
        }),
        ("transform", {
            allocs(|| {
                exec.transform(&mut w)
                    .apply(|i, wi| *wi = zs[i] + 0.5 * *wi)
                    .unwrap()
            })
        }),
        ("axpy", allocs(|| exec.axpy(&mut w, 0.25, z).unwrap())),
    ]
}

/// Allocation calls of each fold-shaped eager call on `exec`.
fn folds<B: Backend>(exec: Ctx<B>, o: &Operands) -> Vec<(&'static str, usize)> {
    let Operands { x, z, mask, .. } = o;
    vec![
        ("dot", allocs(|| keep(exec.dot(x, z).compute().unwrap()))),
        (
            "norm2_squared",
            allocs(|| keep(exec.norm2_squared(x).unwrap())),
        ),
        ("reduce Max", {
            allocs(|| keep(exec.reduce(x).monoid(Max).compute().unwrap()))
        }),
        ("reduce masked", {
            allocs(|| keep(exec.reduce(x).mask(mask).compute().unwrap()))
        }),
    ]
}

/// Keeps a fold's result alive so the call is not optimised away.
fn keep(v: f64) {
    std::hint::black_box(v);
}

fn assert_none(backend: &str, counts: &[(&'static str, usize)]) {
    let allocating: Vec<_> = counts.iter().filter(|(_, n)| *n > 0).collect();
    assert!(
        allocating.is_empty(),
        "eager calls on {backend} allocated: {allocating:?}"
    );
}

/// One test, so no other test of this binary allocates while a call is
/// being counted.
#[test]
fn eager_calls_allocate_nothing() {
    let o = operands();
    assert_none("seq", &writes(ctx::<Sequential>(), &o));
    assert_none("seq", &folds(ctx::<Sequential>(), &o));
    assert_none("par", &writes(ctx::<Parallel>(), &o));
}
