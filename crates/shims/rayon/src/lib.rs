//! Offline shim for the subset of [rayon](https://docs.rs/rayon) this
//! workspace uses.
//!
//! The build container has no registry access, so this crate provides the
//! rayon APIs the kernels rely on — `into_par_iter` over ranges,
//! `par_iter`/`par_chunks`/`par_chunks_mut` over slices, `with_min_len`,
//! `map`/`zip`/`enumerate`/`for_each`/`reduce`/`collect`, thread pools —
//! with genuine data parallelism on one persistent worker [`pool`]. Work is
//! split into at most `current_num_threads()` contiguous chunks
//! (respecting `with_min_len`), which preserves the fixed-chunking
//! determinism the HPCG reference implementation depends on.
//!
//! It is a shim, not a replacement: no work stealing, no splitting beyond
//! the initial partition, and `ThreadPool::install` only scopes the thread
//! *count* (every count runs on the same process-wide [`pool`], which
//! grows to the widest partition asked of it).

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

pub mod pool;

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelIterator, ParallelSlice, ParallelSliceMut};
}

/// Global thread-count override (0 = use available parallelism).
static NUM_THREADS: AtomicUsize = AtomicUsize::new(0);

/// The number of threads parallel operations will use.
pub fn current_num_threads() -> usize {
    /// Asking the OS reads the affinity mask and the cgroup files; once.
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    let n = NUM_THREADS.load(Ordering::Relaxed);
    if n != 0 {
        n
    } else {
        *AVAILABLE.get_or_init(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
    }
}

/// The fixed partition of `0..len` on `threads` threads: `(chunks, per)`,
/// meaning chunk `c < chunks` is `c * per .. min((c + 1) * per, len)`. At
/// most `threads` chunks, none empty, each of at least `min_len` items
/// when `len` allows. A pure function of its arguments — the reduction
/// order of every `Parallel` kernel, and so its result bits, hang on it.
fn partition(len: usize, min_len: usize, threads: usize) -> (usize, usize) {
    if len == 0 {
        return (0, 0);
    }
    let wanted = threads.min(len.div_ceil(min_len.max(1))).max(1);
    let per = len.div_ceil(wanted);
    (len.div_ceil(per), per)
}

/// Runs `f(chunk_index, start, end)` for every chunk of a [`partition`]
/// `(chunks, per)` of `0..len`, concurrently on the worker [`pool`]
/// (chunk 0 on the caller's thread).
fn run_chunked<F: Fn(usize, usize, usize) + Sync>(len: usize, chunks: usize, per: usize, f: F) {
    pool::run(chunks, |c| f(c, c * per, ((c + 1) * per).min(len)));
}

/// One result slot per chunk, each written by the one thread that runs
/// that chunk and read after the region has ended.
struct Slots<T>(Vec<UnsafeCell<Option<T>>>);

// SAFETY: threads only ever touch distinct slots (one chunk index each),
// and a slot's value moves to the writing thread and back: `T: Send`.
unsafe impl<T: Send> Sync for Slots<T> {}

impl<T> Slots<T> {
    /// # Safety
    /// No other thread may access slot `chunk` during the call.
    unsafe fn put(&self, chunk: usize, value: T) {
        // SAFETY: exclusive access to this slot is the caller's guarantee.
        unsafe { *self.0[chunk].get() = Some(value) };
    }
}

/// The parallel-iterator surface: indexed, fixed-partition.
///
/// # Contract
///
/// `item(i)` must be invoked at most once per index per consumption; the
/// combinators below uphold this, which is what makes `ParChunksMut` sound.
pub trait ParallelIterator: Sized + Sync {
    /// The element type.
    type Item;

    /// Number of elements.
    fn pi_len(&self) -> usize;

    /// Scheduling granularity floor.
    fn min_len_hint(&self) -> usize {
        1
    }

    /// Produces element `i`.
    ///
    /// # Safety
    ///
    /// Each index must be requested at most once per consumption, from at
    /// most one thread.
    unsafe fn item(&self, i: usize) -> Self::Item;

    /// Sets the minimum number of items each scheduled chunk processes.
    fn with_min_len(self, min: usize) -> MinLen<Self> {
        MinLen { base: self, min }
    }

    /// Element-wise transformation.
    fn map<R, F: Fn(Self::Item) -> R + Sync>(self, f: F) -> Map<Self, F> {
        Map { base: self, f }
    }

    /// Pairs this iterator with another, truncating to the shorter.
    fn zip<B: ParallelIterator>(self, other: B) -> Zip<Self, B> {
        Zip { a: self, b: other }
    }

    /// Pairs each element with its index.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }

    /// Consumes the iterator, invoking `f` on every element in parallel.
    fn for_each<F: Fn(Self::Item) + Sync>(self, f: F) {
        let this = &self;
        let len = self.pi_len();
        let (chunks, per) = partition(len, self.min_len_hint(), current_num_threads());
        run_chunked(len, chunks, per, |_, start, end| {
            for i in start..end {
                // SAFETY: chunks are disjoint, each index visited once.
                f(unsafe { this.item(i) });
            }
        });
    }

    /// Parallel fold: each chunk folds locally from `identity()`, then the
    /// per-chunk partials fold in chunk order (deterministic partitioning).
    fn reduce<ID, OP>(self, identity: ID, op: OP) -> Self::Item
    where
        Self::Item: Send,
        ID: Fn() -> Self::Item + Sync,
        OP: Fn(Self::Item, Self::Item) -> Self::Item + Sync,
    {
        let this = &self;
        let len = self.pi_len();
        let (chunks, per) = partition(len, self.min_len_hint(), current_num_threads());
        let partials = Slots((0..chunks).map(|_| UnsafeCell::new(None)).collect());
        run_chunked(len, chunks, per, |chunk, start, end| {
            let mut acc = identity();
            for i in start..end {
                // SAFETY: chunks are disjoint, each index visited once.
                acc = op(acc, unsafe { this.item(i) });
            }
            // SAFETY: slot `chunk` is this chunk's alone.
            unsafe { partials.put(chunk, acc) };
        });
        partials
            .0
            .into_iter()
            .map(|slot| slot.into_inner().expect("every chunk ran"))
            .fold(identity(), &op)
    }

    /// Collects into a container (sequential drain — used off the hot path).
    fn collect<C: From<Vec<Self::Item>>>(self) -> C {
        let mut out = Vec::with_capacity(self.pi_len());
        for i in 0..self.pi_len() {
            // SAFETY: each index visited exactly once.
            out.push(unsafe { self.item(i) });
        }
        C::from(out)
    }
}

/// Conversion into a [`ParallelIterator`] (`rayon::iter::IntoParallelIterator`).
pub trait IntoParallelIterator {
    /// The resulting iterator.
    type Iter: ParallelIterator;
    /// Converts `self`.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Iter = ParRange;
    fn into_par_iter(self) -> ParRange {
        ParRange {
            start: self.start,
            len: self.end.saturating_sub(self.start),
        }
    }
}

/// Parallel iterator over a `Range<usize>`.
pub struct ParRange {
    start: usize,
    len: usize,
}

impl ParallelIterator for ParRange {
    type Item = usize;
    fn pi_len(&self) -> usize {
        self.len
    }
    unsafe fn item(&self, i: usize) -> usize {
        self.start + i
    }
}

/// `par_iter` / `par_chunks` over shared slices.
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator of `&T`.
    fn par_iter(&self) -> ParSliceIter<'_, T>;
    /// Parallel iterator of `&[T]` chunks of length `chunk` (last may be short).
    fn par_chunks(&self, chunk: usize) -> ParChunks<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParSliceIter<'_, T> {
        ParSliceIter { slice: self }
    }
    fn par_chunks(&self, chunk: usize) -> ParChunks<'_, T> {
        assert!(chunk > 0, "chunk size must be positive");
        ParChunks { slice: self, chunk }
    }
}

/// `par_chunks_mut` over exclusive slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator of `&mut [T]` chunks of length `chunk`.
    fn par_chunks_mut(&mut self, chunk: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk: usize) -> ParChunksMut<'_, T> {
        assert!(chunk > 0, "chunk size must be positive");
        ParChunksMut {
            ptr: self.as_mut_ptr(),
            len: self.len(),
            chunk,
            _marker: std::marker::PhantomData,
        }
    }
}

/// Parallel `&T` iterator.
pub struct ParSliceIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for ParSliceIter<'a, T> {
    type Item = &'a T;
    fn pi_len(&self) -> usize {
        self.slice.len()
    }
    unsafe fn item(&self, i: usize) -> &'a T {
        // SAFETY: i < len by the driver contract.
        unsafe { self.slice.get_unchecked(i) }
    }
}

/// Parallel `&[T]` chunk iterator.
pub struct ParChunks<'a, T> {
    slice: &'a [T],
    chunk: usize,
}

impl<'a, T: Sync> ParallelIterator for ParChunks<'a, T> {
    type Item = &'a [T];
    fn pi_len(&self) -> usize {
        self.slice.len().div_ceil(self.chunk)
    }
    unsafe fn item(&self, i: usize) -> &'a [T] {
        let start = i * self.chunk;
        let end = (start + self.chunk).min(self.slice.len());
        &self.slice[start..end]
    }
}

/// Parallel `&mut [T]` chunk iterator.
///
/// Holds a raw pointer so disjoint chunks can be handed to different
/// threads; soundness comes from the at-most-once-per-index contract of
/// [`ParallelIterator::item`].
pub struct ParChunksMut<'a, T> {
    ptr: *mut T,
    len: usize,
    chunk: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: chunks are disjoint and each is accessed by exactly one thread.
unsafe impl<T: Send> Send for ParChunksMut<'_, T> {}
// SAFETY: `item` hands out non-overlapping subslices only.
unsafe impl<T: Send> Sync for ParChunksMut<'_, T> {}

impl<'a, T: Send> ParallelIterator for ParChunksMut<'a, T> {
    type Item = &'a mut [T];
    fn pi_len(&self) -> usize {
        self.len.div_ceil(self.chunk)
    }
    unsafe fn item(&self, i: usize) -> &'a mut [T] {
        let start = i * self.chunk;
        let end = (start + self.chunk).min(self.len);
        // SAFETY: [start, end) chunks are pairwise disjoint and in bounds;
        // the contract guarantees each index is taken once.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), end - start) }
    }
}

/// Adapter carrying a scheduling-granularity floor.
pub struct MinLen<I> {
    base: I,
    min: usize,
}

impl<I: ParallelIterator> ParallelIterator for MinLen<I> {
    type Item = I::Item;
    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }
    fn min_len_hint(&self) -> usize {
        self.min.max(self.base.min_len_hint())
    }
    unsafe fn item(&self, i: usize) -> I::Item {
        // SAFETY: forwarded contract.
        unsafe { self.base.item(i) }
    }
}

/// Mapping adapter.
pub struct Map<I, F> {
    base: I,
    f: F,
}

impl<I: ParallelIterator, R, F: Fn(I::Item) -> R + Sync> ParallelIterator for Map<I, F> {
    type Item = R;
    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }
    fn min_len_hint(&self) -> usize {
        self.base.min_len_hint()
    }
    unsafe fn item(&self, i: usize) -> R {
        // SAFETY: forwarded contract.
        (self.f)(unsafe { self.base.item(i) })
    }
}

/// Zipping adapter (truncates to the shorter side).
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: ParallelIterator, B: ParallelIterator> ParallelIterator for Zip<A, B> {
    type Item = (A::Item, B::Item);
    fn pi_len(&self) -> usize {
        self.a.pi_len().min(self.b.pi_len())
    }
    fn min_len_hint(&self) -> usize {
        self.a.min_len_hint().max(self.b.min_len_hint())
    }
    unsafe fn item(&self, i: usize) -> (A::Item, B::Item) {
        // SAFETY: forwarded contract on both sides.
        unsafe { (self.a.item(i), self.b.item(i)) }
    }
}

/// Enumerating adapter.
pub struct Enumerate<I> {
    base: I,
}

impl<I: ParallelIterator> ParallelIterator for Enumerate<I> {
    type Item = (usize, I::Item);
    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }
    fn min_len_hint(&self) -> usize {
        self.base.min_len_hint()
    }
    unsafe fn item(&self, i: usize) -> (usize, I::Item) {
        // SAFETY: forwarded contract.
        (i, unsafe { self.base.item(i) })
    }
}

/// Builder for thread pools (`rayon::ThreadPoolBuilder`).
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

/// Error type for pool construction (construction cannot fail in the shim).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    /// Creates a builder with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the thread count (0 = available parallelism).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = Some(n);
        self
    }

    /// Builds a "pool" (really: a thread-count setting for the one [`pool`]).
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            threads: self.num_threads.unwrap_or(0),
        })
    }

    /// Installs the thread count globally.
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        NUM_THREADS.store(self.num_threads.unwrap_or(0), Ordering::Relaxed);
        Ok(())
    }
}

/// A configured degree of parallelism. `install` scopes the global thread
/// count to the closure; the work runs on the process-wide [`pool`].
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Runs `f` with this pool's thread count as the global setting. The
    /// previous setting is restored even if `f` panics.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                NUM_THREADS.store(self.0, Ordering::Relaxed);
            }
        }
        let _restore = Restore(NUM_THREADS.swap(self.threads, Ordering::Relaxed));
        f()
    }

    /// The configured thread count.
    pub fn current_num_threads(&self) -> usize {
        if self.threads != 0 {
            self.threads
        } else {
            current_num_threads()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn range_for_each_visits_all() {
        let sum = AtomicUsize::new(0);
        (0..10_000usize)
            .into_par_iter()
            .with_min_len(64)
            .for_each(|i| {
                sum.fetch_add(i, Ordering::Relaxed);
            });
        assert_eq!(sum.load(Ordering::Relaxed), 9_999 * 10_000 / 2);
    }

    #[test]
    fn map_reduce_matches_sequential() {
        let total = (0..100_000usize)
            .into_par_iter()
            .with_min_len(512)
            .map(|i| (i % 97) as u64)
            .reduce(|| 0u64, |a, b| a + b);
        let expected: u64 = (0..100_000usize).map(|i| (i % 97) as u64).sum();
        assert_eq!(total, expected);
    }

    #[test]
    fn chunks_zip_collect() {
        let x: Vec<f64> = (0..5000).map(|i| i as f64).collect();
        let y: Vec<f64> = (0..5000).map(|i| 2.0 * i as f64).collect();
        let partials: Vec<f64> = x
            .par_chunks(512)
            .zip(y.par_chunks(512))
            .map(|(cx, cy)| cx.iter().zip(cy).map(|(&a, &b)| a * b).sum::<f64>())
            .collect();
        assert_eq!(partials.len(), 5000usize.div_ceil(512));
        let total: f64 = partials.iter().sum();
        let expected: f64 = x.iter().zip(&y).map(|(&a, &b)| a * b).sum();
        assert_eq!(total, expected);
    }

    #[test]
    fn chunks_mut_writes_disjoint() {
        let mut w = vec![0.0f64; 4096];
        let y: Vec<f64> = (0..4096).map(|i| i as f64).collect();
        w.par_chunks_mut(256)
            .zip(y.par_chunks(256))
            .for_each(|(cw, cy)| {
                for i in 0..cw.len() {
                    cw[i] = cy[i] + 1.0;
                }
            });
        assert!(w.iter().enumerate().all(|(i, &v)| v == i as f64 + 1.0));
    }

    #[test]
    fn enumerate_indices_align() {
        let mut w = vec![0usize; 1000];
        w.par_chunks_mut(128)
            .enumerate()
            .for_each(|(chunk, slots)| {
                for s in slots {
                    *s = chunk;
                }
            });
        for (i, &v) in w.iter().enumerate() {
            assert_eq!(v, i / 128);
        }
    }

    /// The partition decides the reduction order of every `Parallel`
    /// kernel; these rows are the boundaries the scoped-thread runtime
    /// this pool replaced produced for the same inputs.
    #[test]
    fn partition_is_pinned() {
        type Bounds = &'static [(usize, usize)];
        let table: [(usize, usize, usize, Bounds); 10] = [
            (0, 512, 4, &[]),
            (1, 1, 4, &[(0, 1)]),
            (511, 512, 2, &[(0, 511)]),
            (1024, 512, 2, &[(0, 512), (512, 1024)]),
            (1025, 512, 2, &[(0, 513), (513, 1025)]),
            (1025, 512, 4, &[(0, 342), (342, 684), (684, 1025)]),
            (9, 1, 4, &[(0, 3), (3, 6), (6, 9)]),
            (10, 0, 4, &[(0, 3), (3, 6), (6, 9), (9, 10)]),
            (32768, 512, 2, &[(0, 16384), (16384, 32768)]),
            (32768, 512, 3, &[(0, 10923), (10923, 21846), (21846, 32768)]),
        ];
        for (len, min_len, threads, expect) in table {
            let (chunks, per) = partition(len, min_len, threads);
            let got: Vec<_> = (0..chunks)
                .map(|c| (c * per, ((c + 1) * per).min(len)))
                .collect();
            assert_eq!(got, expect, "len={len} min_len={min_len} threads={threads}");
        }
    }

    #[test]
    fn pool_install_scopes_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let inside = pool.install(current_num_threads);
        assert_eq!(inside, 3);
    }
}
