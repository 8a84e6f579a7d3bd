//! The workspace's fork-join runtime, in the shape of the part of
//! [rayon](https://docs.rs/rayon) it once stood in for.
//!
//! Every parallel loop cuts `0..len` into at most `current_num_threads()`
//! fixed contiguous chunks — the one [`partition`] — and runs one chunk per
//! part of a [`pool::run`] region: [`for_chunks`] for loops that write,
//! [`map_chunks`] for per-chunk results (the partials of a fold, returned
//! in chunk order). The partition is a pure function of its arguments, so
//! every reduction's association order, and so its result bits, are fixed
//! by the thread count alone: the HPCG reference implementation and
//! `graphblas`'s `Parallel` backend both depend on that.
//!
//! No work stealing and no splitting beyond the initial partition.
//! `ThreadPoolBuilder`/`ThreadPool::install` only set or scope the thread
//! *count*: every count runs on the same process-wide [`pool`], which
//! grows to the widest region asked of it.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

pub mod pool;

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
pub fn partition(len: usize, min_len: usize, threads: usize) -> (usize, usize) {
    if len == 0 {
        return (0, 0);
    }
    let wanted = threads.min(len.div_ceil(min_len.max(1))).max(1);
    let per = len.div_ceil(wanted);
    (len.div_ceil(per), per)
}

/// Chunk `c` of the partition `(chunks, per)` of `0..len`.
fn chunk(c: usize, per: usize, len: usize) -> Range<usize> {
    c * per..((c + 1) * per).min(len)
}

/// Calls `f(range)` for every chunk of the [`partition`] of `0..len`
/// (chunks of at least `min_len` items where `len` allows), concurrently on
/// the worker [`pool`], chunk 0 on the caller's thread.
pub fn for_chunks(len: usize, min_len: usize, f: impl Fn(Range<usize>) + Sync) {
    let (chunks, per) = partition(len, min_len, current_num_threads());
    pool::run(chunks, |c| f(chunk(c, per, len)));
}

/// [`for_chunks`] that keeps each chunk's result: `f(range)` for every
/// chunk of the [`partition`] of `0..len`, returned in chunk order. One
/// allocation, the returned `Vec`.
pub fn map_chunks<T: Send>(
    len: usize,
    min_len: usize,
    f: impl Fn(Range<usize>) -> T + Sync,
) -> Vec<T> {
    /// The returned `Vec`'s buffer, each slot written by one part.
    struct Slots<T>(*mut T);
    // SAFETY: parts write distinct slots (one chunk index each) and the
    // values move to the caller's thread afterwards: `T: Send` suffices.
    unsafe impl<T: Send> Sync for Slots<T> {}
    impl<T> Slots<T> {
        /// # Safety
        /// `c` is within the buffer's capacity and no other part writes it.
        unsafe fn put(&self, c: usize, value: T) {
            // SAFETY: the caller's guarantee.
            unsafe { self.0.add(c).write(value) }
        }
    }

    let (chunks, per) = partition(len, min_len, current_num_threads());
    let mut out = Vec::with_capacity(chunks);
    let slots = Slots(out.as_mut_ptr());
    pool::run(chunks, |c| {
        let value = f(chunk(c, per, len));
        // SAFETY: `c < chunks`, the capacity, and part `c` is this one.
        unsafe { slots.put(c, value) };
    });
    // SAFETY: `run` returned, so every part did: slots `0..chunks` are
    // written. (Had one panicked, `run` would have resumed the panic and
    // `out`, still empty, would leak the written slots, not drop them.)
    unsafe { out.set_len(chunks) };
    out
}

/// Builder for thread pools (`rayon::ThreadPoolBuilder`).
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

/// Error type for pool construction (construction cannot fail in the shim).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// `install` sets the process-wide thread count; tests that set it
    /// take turns.
    static THREADS: Mutex<()> = Mutex::new(());

    fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        let _turn = THREADS.lock().unwrap_or_else(|e| e.into_inner());
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(f)
    }

    /// The chunks of `0..len` as [`partition`] cuts them on `threads`.
    fn chunks_of(len: usize, min_len: usize, threads: usize) -> Vec<Range<usize>> {
        let (chunks, per) = partition(len, min_len, threads);
        (0..chunks).map(|c| chunk(c, per, len)).collect()
    }

    #[test]
    fn range_for_each_visits_all() {
        let sum = AtomicUsize::new(0);
        let visits = AtomicUsize::new(0);
        for_chunks(10_000, 64, |range| {
            visits.fetch_add(range.len(), Ordering::Relaxed);
            sum.fetch_add(range.sum::<usize>(), Ordering::Relaxed);
        });
        assert_eq!(visits.into_inner(), 10_000);
        assert_eq!(sum.into_inner(), 9_999 * 10_000 / 2);
        for_chunks(0, 64, |_| panic!("an empty range has no chunks"));
    }

    #[test]
    fn map_reduce_matches_sequential() {
        let partials = map_chunks(100_000, 512, |range| {
            range.map(|i| (i % 97) as u64).sum::<u64>()
        });
        let total: u64 = partials.into_iter().sum();
        let expected: u64 = (0..100_000usize).map(|i| (i % 97) as u64).sum();
        assert_eq!(total, expected);
        assert!(map_chunks(0, 512, |_| 1u64).is_empty());
    }

    /// Per-chunk results come back in chunk order, one per chunk, at every
    /// thread count: a fold over them has a fixed association order.
    #[test]
    fn chunks_zip_collect() {
        let x: Vec<f64> = (0..5000).map(|i| 1.0 / (i + 1) as f64).collect();
        let y: Vec<f64> = (0..5000).map(|i| 2.0 * i as f64).collect();
        for threads in [1, 2, 3, 7] {
            let partials: Vec<(Range<usize>, f64)> = with_threads(threads, || {
                map_chunks(x.len(), 512, |range| {
                    let sum = x[range.clone()]
                        .iter()
                        .zip(&y[range.clone()])
                        .map(|(&a, &b)| a * b)
                        .sum();
                    (range, sum)
                })
            });
            let expect = chunks_of(x.len(), 512, threads);
            assert_eq!(
                partials.iter().map(|p| p.0.clone()).collect::<Vec<_>>(),
                expect
            );
            for (range, sum) in partials {
                let serial: f64 = range.map(|i| x[i] * y[i]).sum();
                assert_eq!(sum.to_bits(), serial.to_bits());
            }
        }
    }

    #[test]
    fn chunks_mut_writes_disjoint() {
        let w: Vec<AtomicU64> = (0..4096).map(|_| AtomicU64::new(0)).collect();
        let writes = AtomicUsize::new(0);
        let y: Vec<f64> = (0..4096).map(|i| i as f64).collect();
        with_threads(4, || {
            for_chunks(w.len(), 256, |range| {
                for i in range {
                    let old = w[i].swap((y[i] + 1.0).to_bits(), Ordering::Relaxed);
                    assert_eq!(old, 0, "index {i} written twice");
                    writes.fetch_add(1, Ordering::Relaxed);
                }
            });
        });
        assert_eq!(writes.into_inner(), 4096);
        assert!(w
            .iter()
            .enumerate()
            .all(|(i, v)| f64::from_bits(v.load(Ordering::Relaxed)) == i as f64 + 1.0));
    }

    /// `for_chunks` hands out exactly [`partition`]'s chunks.
    #[test]
    fn enumerate_indices_align() {
        for (len, min_len, threads) in [(1000, 128, 3), (1025, 512, 2), (9, 1, 4), (511, 512, 2)] {
            let seen = Mutex::new(Vec::new());
            with_threads(threads, || {
                for_chunks(len, min_len, |range| seen.lock().unwrap().push(range))
            });
            let mut seen = seen.into_inner().unwrap();
            seen.sort_by_key(|r| r.start);
            assert_eq!(
                seen,
                chunks_of(len, min_len, threads),
                "len={len} min_len={min_len} threads={threads}"
            );
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
        let _turn = THREADS.lock().unwrap_or_else(|e| e.into_inner());
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let inside = pool.install(current_num_threads);
        assert_eq!(inside, 3);
    }
}
