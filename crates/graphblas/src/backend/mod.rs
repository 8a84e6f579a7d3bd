//! Execution backends: the same algorithm text, different machines.
//!
//! ALP/GraphBLAS selects a backend (reference, shared-memory OpenMP, hybrid
//! LPF) at compile time; every primitive is written once against the backend
//! interface. This crate mirrors that: the primitives in [`crate::exec`] are
//! generic over [`Backend`], and callers pick [`Sequential`] or [`Parallel`]
//! (each loop is cut by `rayon::partition` into at most
//! `current_num_threads()` fixed contiguous chunks, one per thread of the
//! workspace's persistent worker pool — no work stealing).
//!
//! The distributed ("hybrid") backend of the paper lives in [`dist`]: an
//! [`Exec`](crate::context::Exec) dispatcher that runs every kernel as BSP
//! supersteps over sharded rows — one worker per node, shards exchanged
//! through `bsp::Exchange` — and bills each superstep to the `bsp` crate's
//! cost model. It is not a [`Backend`] — its parallelism lives across
//! nodes, not inside these data-parallel loops — but a `Ctx<Distributed>`
//! drives the exact same builder surface, and its supersteps run on the
//! same worker pool.

pub mod dist;

use crate::ops::monoid::Monoid;

/// Minimum items per chunk of a `Parallel` loop (the `min_len` of
/// `rayon::partition`); below this, splitting costs more than it buys.
const MIN_CHUNK: usize = 512;

/// An execution strategy for the data-parallel loops inside primitives.
///
/// All methods take `Fn` closures (not `FnMut`): parallel backends invoke
/// them concurrently, so any mutation must go through interior-mutability
/// wrappers whose disjointness the *kernel* (not the user) guarantees.
///
/// Every backend is also an [`Exec`](crate::context::Exec) dispatcher, so a
/// `B: Backend` bound suffices to build a `ctx::<B>()` execution context.
pub trait Backend: Copy + Default + Send + Sync + 'static + crate::context::Exec {
    /// Human-readable backend name, used by benchmark reports.
    const NAME: &'static str;

    /// Calls `f(i)` for every `i in 0..n`.
    fn for_n<F: Fn(usize) + Send + Sync>(n: usize, f: F);

    /// Calls `f(idx[k] as usize)` for every element of `idx`.
    fn for_indices<F: Fn(usize) + Send + Sync>(idx: &[u32], f: F);

    /// Folds `map(i)` for `i in 0..n` over monoid `M`.
    fn fold<T, M, F>(n: usize, map: F) -> T
    where
        T: Send,
        M: Monoid<T>,
        F: Fn(usize) -> T + Send + Sync;

    /// Folds `map(idx[k] as usize)` over monoid `M`.
    fn fold_indices<T, M, F>(idx: &[u32], map: F) -> T
    where
        T: Send,
        M: Monoid<T>,
        F: Fn(usize) -> T + Send + Sync;

    /// The degree of parallelism this backend will use.
    fn threads() -> usize;
}

/// Single-threaded reference backend: plain loops, deterministic order.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Sequential;

impl Backend for Sequential {
    const NAME: &'static str = "sequential";

    #[inline]
    fn for_n<F: Fn(usize) + Send + Sync>(n: usize, f: F) {
        for i in 0..n {
            f(i);
        }
    }

    #[inline]
    fn for_indices<F: Fn(usize) + Send + Sync>(idx: &[u32], f: F) {
        for &i in idx {
            f(i as usize);
        }
    }

    #[inline]
    fn fold<T, M, F>(n: usize, map: F) -> T
    where
        T: Send,
        M: Monoid<T>,
        F: Fn(usize) -> T + Send + Sync,
    {
        let mut acc = M::identity();
        for i in 0..n {
            acc = M::apply(acc, map(i));
        }
        acc
    }

    #[inline]
    fn fold_indices<T, M, F>(idx: &[u32], map: F) -> T
    where
        T: Send,
        M: Monoid<T>,
        F: Fn(usize) -> T + Send + Sync,
    {
        let mut acc = M::identity();
        for &i in idx {
            acc = M::apply(acc, map(i as usize));
        }
        acc
    }

    fn threads() -> usize {
        1
    }
}

/// Shared-memory data-parallel backend on the process-wide worker pool
/// (`rayon::pool`): parked threads woken per kernel, not spawned.
///
/// The analogue of ALP's OpenMP shared-memory backend (§IV). Work is split
/// with a minimum chunk size so fine-grained kernels (small coarse multigrid
/// levels) do not drown in scheduling overhead.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Parallel;

impl Backend for Parallel {
    const NAME: &'static str = "parallel(rayon)";

    #[inline]
    fn for_n<F: Fn(usize) + Send + Sync>(n: usize, f: F) {
        if n < MIN_CHUNK {
            for i in 0..n {
                f(i);
            }
        } else {
            rayon::for_chunks(n, MIN_CHUNK, |range| range.for_each(&f));
        }
    }

    #[inline]
    fn for_indices<F: Fn(usize) + Send + Sync>(idx: &[u32], f: F) {
        if idx.len() < MIN_CHUNK {
            for &i in idx {
                f(i as usize);
            }
        } else {
            rayon::for_chunks(idx.len(), MIN_CHUNK, |range| {
                for &i in &idx[range] {
                    f(i as usize);
                }
            });
        }
    }

    #[inline]
    fn fold<T, M, F>(n: usize, map: F) -> T
    where
        T: Send,
        M: Monoid<T>,
        F: Fn(usize) -> T + Send + Sync,
    {
        if n < MIN_CHUNK {
            return Sequential::fold::<T, M, F>(n, map);
        }
        let partials = rayon::map_chunks(n, MIN_CHUNK, |range| {
            range.fold(M::identity(), |acc, i| M::apply(acc, map(i)))
        });
        partials.into_iter().fold(M::identity(), M::apply)
    }

    #[inline]
    fn fold_indices<T, M, F>(idx: &[u32], map: F) -> T
    where
        T: Send,
        M: Monoid<T>,
        F: Fn(usize) -> T + Send + Sync,
    {
        if idx.len() < MIN_CHUNK {
            return Sequential::fold_indices::<T, M, F>(idx, map);
        }
        let partials = rayon::map_chunks(idx.len(), MIN_CHUNK, |range| {
            idx[range]
                .iter()
                .fold(M::identity(), |acc, &i| M::apply(acc, map(i as usize)))
        });
        partials.into_iter().fold(M::identity(), M::apply)
    }

    fn threads() -> usize {
        rayon::current_num_threads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::binary::{Max, Plus};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn check_for_n<B: Backend>() {
        let count = AtomicUsize::new(0);
        B::for_n(1000, |i| {
            count.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 999 * 1000 / 2);
    }

    fn check_for_indices<B: Backend>() {
        let idx: Vec<u32> = (0..2000).filter(|i| i % 3 == 0).collect();
        let count = AtomicUsize::new(0);
        B::for_indices(&idx, |i| {
            count.fetch_add(i, Ordering::Relaxed);
        });
        let expected: usize = idx.iter().map(|&i| i as usize).sum();
        assert_eq!(count.load(Ordering::Relaxed), expected);
    }

    fn check_fold<B: Backend>() {
        let sum = B::fold::<f64, Plus, _>(10_000, |i| i as f64);
        assert_eq!(sum, (0..10_000u64).sum::<u64>() as f64);
        let max = B::fold::<f64, Max, _>(10_000, |i| ((i * 37) % 101) as f64);
        assert_eq!(max, 100.0);
        // Empty fold yields the identity.
        assert_eq!(B::fold::<f64, Plus, _>(0, |_| 1.0), 0.0);
    }

    fn check_fold_indices<B: Backend>() {
        let idx: Vec<u32> = (0..5000).filter(|i| i % 7 == 0).collect();
        let sum = B::fold_indices::<f64, Plus, _>(&idx, |i| i as f64);
        let expected: f64 = idx.iter().map(|&i| i as f64).sum();
        assert_eq!(sum, expected);
    }

    #[test]
    fn sequential_backend() {
        check_for_n::<Sequential>();
        check_for_indices::<Sequential>();
        check_fold::<Sequential>();
        check_fold_indices::<Sequential>();
        assert_eq!(Sequential::threads(), 1);
    }

    #[test]
    fn parallel_backend() {
        check_for_n::<Parallel>();
        check_for_indices::<Parallel>();
        check_fold::<Parallel>();
        check_fold_indices::<Parallel>();
        assert!(Parallel::threads() >= 1);
    }

    #[test]
    fn parallel_matches_sequential_on_float_sum_of_integers() {
        // Integer-valued floats sum exactly in any association order, so the
        // two backends must agree bit-for-bit here.
        let a = Sequential::fold::<f64, Plus, _>(100_000, |i| (i % 97) as f64);
        let b = Parallel::fold::<f64, Plus, _>(100_000, |i| (i % 97) as f64);
        assert_eq!(a, b);
    }
}
