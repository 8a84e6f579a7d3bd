//! The GraphBLAS primitives.
//!
//! Every primitive is generic over the value domain `T` and an algebraic
//! structure. The row sweeps — [`mxv`], the sparse-frontier [`sparse`]
//! product, the fused `spmv`+`dot` in [`fused`] — and [`mxm`] are kernels
//! generic over a [`Backend`]. Every element-wise op is instead one of the
//! two element streams of [`Exec`](crate::Exec): a write,
//! `Exec::run_lambda` (`f(i, &mut out[i])` at each selected index), or a
//! fold, `Exec::run_fold` (`map(i)` over a monoid, `map` called exactly
//! once per selected index). [`ewise`], [`apply`], [`reduce`] and [`fused`]
//! hold one helper per op that checks the operands and hands its
//! per-element expression to one of the two; the run-now recorders on
//! [`Ctx`](crate::Ctx) and the plan interpreter behind
//! [`Ctx::pipeline`](crate::Ctx::pipeline) and
//! [`Ctx::plan`](crate::Ctx::plan) all call these helpers: a recorded
//! element-wise op is one helper call, as its eager call is, and only the
//! fused `axpy`+norm merges two ops into one stream.
//!
//! Masked variants follow the semantics of the paper's Listing 2/3: outputs
//! are computed **only at selected positions**; unselected positions of the
//! output are left untouched (no-replace semantics), which is what the RBGS
//! color sweep relies on.

pub mod apply;
pub mod ewise;
pub mod extract;
pub mod fused;
pub mod mxm;
pub mod mxv;
pub mod reduce;
pub mod sparse;

use crate::backend::Backend;
use crate::container::vector::Vector;
use crate::descriptor::Descriptor;
use crate::error::{check_dims, Result};
use crate::ops::monoid::Monoid;

/// Drives `f(i)` over every index selected by `mask` under `desc`.
///
/// Selection rules (GraphBLAS C API §3.7, restricted to boolean masks):
///
/// * no mask → all of `0..n`;
/// * structural → stored entries of the mask select (values ignored);
/// * non-structural → entries stored **and** true select;
/// * inverted → the complement of the above.
///
/// The common HPCG case — sparse structural mask, not inverted — takes the
/// fast path that iterates the pattern directly, so cost is `Θ(nnz(mask))`.
pub(crate) fn for_each_selected<B, F>(
    n: usize,
    mask: Option<&Vector<bool>>,
    desc: Descriptor,
    f: F,
) -> Result<()>
where
    B: Backend,
    F: Fn(usize) + Send + Sync,
{
    let Some(m) = mask else {
        B::for_n(n, f);
        return Ok(());
    };
    check_dims("mask", "mask length", n, m.len())?;
    let inverted = desc.is_mask_inverted();
    match (m.pattern(), desc.is_structural()) {
        (Some(idx), true) if !inverted => B::for_indices(idx, f),
        (None, true) if !inverted => B::for_n(n, f),
        (Some(idx), true) => {
            // Structural complement of a sparse pattern: merge-skip. The
            // pattern is sorted, so a linear merge suffices; this path is
            // outside HPCG's hot loop.
            let mut cursor = 0;
            for i in 0..n {
                if cursor < idx.len() && idx[cursor] as usize == i {
                    cursor += 1;
                } else {
                    f(i);
                }
            }
        }
        (None, true) => { /* complement of a dense structural mask is empty */ }
        (_, false) => {
            // Value-checked: unstored slots hold `false`, so the dense value
            // buffer answers both stored-ness and truth in one read.
            let vals = m.as_slice();
            B::for_n(n, |i| {
                if vals[i] != inverted {
                    f(i);
                }
            });
        }
    }
    Ok(())
}

/// Folds `map(i)` over monoid `M` across every selected index (same
/// selection rules as [`for_each_selected`]), calling `map` once per
/// selected index.
pub(crate) fn fold_selected<B, T, M, F>(
    n: usize,
    mask: Option<&Vector<bool>>,
    desc: Descriptor,
    map: F,
) -> Result<T>
where
    B: Backend,
    T: Send,
    M: Monoid<T>,
    F: Fn(usize) -> T + Send + Sync,
{
    let Some(m) = mask else {
        return Ok(B::fold::<T, M, F>(n, map));
    };
    check_dims("mask", "mask length", n, m.len())?;
    let inverted = desc.is_mask_inverted();
    Ok(match (m.pattern(), desc.is_structural()) {
        (Some(idx), true) if !inverted => B::fold_indices::<T, M, F>(idx, map),
        (None, true) if !inverted => B::fold::<T, M, F>(n, map),
        (Some(idx), true) => {
            let mut acc = M::identity();
            let mut cursor = 0;
            for i in 0..n {
                if cursor < idx.len() && idx[cursor] as usize == i {
                    cursor += 1;
                } else {
                    acc = M::apply(acc, map(i));
                }
            }
            acc
        }
        (None, true) => M::identity(),
        (_, false) => {
            let vals = m.as_slice();
            B::fold::<T, M, _>(n, |i| {
                if vals[i] != inverted {
                    map(i)
                } else {
                    M::identity()
                }
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Sequential;
    use crate::ops::binary::Plus;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn collect_selected(n: usize, mask: Option<&Vector<bool>>, desc: Descriptor) -> Vec<usize> {
        let hits = std::sync::Mutex::new(Vec::new());
        for_each_selected::<Sequential, _>(n, mask, desc, |i| hits.lock().unwrap().push(i))
            .unwrap();
        let mut v = hits.into_inner().unwrap();
        v.sort_unstable();
        v
    }

    #[test]
    fn no_mask_selects_all() {
        assert_eq!(
            collect_selected(4, None, Descriptor::DEFAULT),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn sparse_structural_fast_path() {
        let m = Vector::<bool>::sparse_filled(6, vec![1, 4], true).unwrap();
        assert_eq!(
            collect_selected(6, Some(&m), Descriptor::STRUCTURAL),
            vec![1, 4]
        );
    }

    #[test]
    fn sparse_structural_ignores_values() {
        // Stored-but-false entries still select under structural.
        let m = Vector::<bool>::from_entries(4, &[(0, false), (2, true)]).unwrap();
        assert_eq!(
            collect_selected(4, Some(&m), Descriptor::STRUCTURAL),
            vec![0, 2]
        );
        // ... but not under value semantics.
        assert_eq!(collect_selected(4, Some(&m), Descriptor::DEFAULT), vec![2]);
    }

    #[test]
    fn inverted_masks() {
        let m = Vector::<bool>::sparse_filled(5, vec![1, 3], true).unwrap();
        let inv_struct = Descriptor::STRUCTURAL.with(Descriptor::INVERT_MASK);
        assert_eq!(collect_selected(5, Some(&m), inv_struct), vec![0, 2, 4]);
        assert_eq!(
            collect_selected(5, Some(&m), Descriptor::INVERT_MASK),
            vec![0, 2, 4],
            "value-inverted: unstored entries read as false"
        );
    }

    #[test]
    fn dense_structural_complement_is_empty() {
        let m = Vector::<bool>::filled(4, true);
        let inv = Descriptor::STRUCTURAL.with(Descriptor::INVERT_MASK);
        assert_eq!(collect_selected(4, Some(&m), inv), Vec::<usize>::new());
    }

    #[test]
    fn mask_length_checked() {
        let m = Vector::<bool>::filled(3, true);
        let count = AtomicUsize::new(0);
        let err = for_each_selected::<Sequential, _>(5, Some(&m), Descriptor::DEFAULT, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert!(err.is_err());
        assert_eq!(count.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn fold_selected_matches_for_each() {
        let m = Vector::<bool>::sparse_filled(10, vec![2, 3, 7], true).unwrap();
        let s: usize = fold_selected::<Sequential, usize, Plus, _>(
            10,
            Some(&m),
            Descriptor::STRUCTURAL,
            |i| i,
        )
        .unwrap();
        assert_eq!(s, 2 + 3 + 7);
        let all: usize =
            fold_selected::<Sequential, usize, Plus, _>(10, None, Descriptor::DEFAULT, |i| i)
                .unwrap();
        assert_eq!(all, 45);
    }
}
