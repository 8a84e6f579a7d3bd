//! Sparse matrix–vector multiplication (`mxv`, `vxm`).
//!
//! `mxv` is HPCG's dominant kernel (paper §II-C): `y_i = ⊕_j A_ij ⊗ x_j`
//! over the caller's semiring. This module provides:
//!
//! * the row-parallel untransposed kernel (each output row is owned by one
//!   task, so no synchronization is needed);
//! * the transposed kernel honoring [`Descriptor::TRANSPOSE`], used by
//!   HPCG's refinement to reuse the restriction matrix without
//!   materializing its transpose (§IV). The transpose kernel scatters into
//!   the output, so it parallelizes only when the matrix's columns are
//!   conflict-free (at most one nonzero per column — true for straight
//!   injection); otherwise it falls back to a sequential scatter;
//! * masked variants computing only the selected output rows — the
//!   workhorse of the RBGS smoother (Listing 2, line 3). Masks compose
//!   with `TRANSPOSE` too: the product is computed once into a scratch
//!   vector and only the selected positions are written back (transpose
//!   output positions are scatter targets, so there is no cheaper
//!   mask-following path without a CSC view).
//!
//! All variants funnel into one kernel, `mxv_exec`, generic over an
//! [`AccumMode`]: `NoAccum` overwrites selected outputs, `AccumWith<Op>`
//! fuses `y = y ⊙ (A ⊕.⊗ x)` — the collapse of the historical
//! `mxv`/`mxv_accum` twin entry points. The public ways in are
//! [`Ctx::mxv`](crate::Ctx::mxv) (eager) and
//! [`PlanBuilder::mxv`](crate::PlanBuilder::mxv) (recorded); the pre-0.2
//! free functions were removed in 0.3.

use crate::backend::Backend;
use crate::container::matrix::CsrMatrix;
use crate::container::vector::Vector;
use crate::descriptor::Descriptor;
use crate::error::{check_dims, Result};
use crate::exec::for_each_selected;
use crate::ops::accum::{AccumMode, AccumWith};
use crate::ops::scalar::Scalar;
use crate::ops::semiring::Semiring;
use crate::util::UnsafeSlice;
use std::any::TypeId;

/// `y⟨mask⟩ = y ⊙? (A ⊕.⊗ x)` — the single mxv kernel behind the builder
/// API (or `Aᵀ` under [`Descriptor::TRANSPOSE`]).
///
/// Only masked output positions are written; others keep their prior
/// values (GraphBLAS no-replace semantics).
pub(crate) fn mxv_exec<T, R, A, B>(
    y: &mut Vector<T>,
    mask: Option<&Vector<bool>>,
    desc: Descriptor,
    a: &CsrMatrix<T>,
    x: &Vector<T>,
) -> Result<()>
where
    T: Scalar,
    R: Semiring<T>,
    A: AccumMode<T>,
    B: Backend,
{
    if desc.is_transposed() {
        check_dims("mxv^T", "x vs nrows", a.nrows(), x.len())?;
        check_dims("mxv^T", "y vs ncols", a.ncols(), y.len())?;
        return transpose_mxv_exec::<T, R, A, B>(y, mask, desc, a, x);
    }
    check_dims("mxv", "x vs ncols", a.ncols(), x.len())?;
    check_dims("mxv", "y vs nrows", a.nrows(), y.len())?;
    let xs = x.as_slice();
    let out = UnsafeSlice::new(y.as_mut_slice());
    for_each_selected::<B, _>(a.nrows(), mask, desc, |i| {
        let (cols, vals) = a.row(i);
        let mut acc = R::zero();
        for (&c, &v) in cols.iter().zip(vals) {
            acc = R::add(acc, R::mul(v, xs[c as usize]));
        }
        // SAFETY: selected indices are unique (mask patterns are strictly
        // increasing; the unmasked path covers each row once).
        unsafe { A::store(out.get_mut(i), acc) };
    })?;
    Ok(())
}

/// Transposed product `y⟨mask⟩ = y ⊙? (Aᵀ ⊕.⊗ x)`.
///
/// Three regimes:
///
/// * unmasked, no accumulator — zero-initialize and scatter (the classic
///   transpose kernel);
/// * unmasked, accumulator `⊙ = ⊕` — scatter straight onto `y`: each
///   contribution folds into the slot through the semiring's own monoid,
///   associativity makes the one-pass fusion exact (HPCG's refinement);
/// * anything else (a mask, or an accumulator other than `⊕`) — compute
///   the full product into a scratch vector, then combine only the
///   selected positions. Costs one `|cols(A)|` allocation; outside HPCG's
///   hot path.
fn transpose_mxv_exec<T, R, A, B>(
    y: &mut Vector<T>,
    mask: Option<&Vector<bool>>,
    desc: Descriptor,
    a: &CsrMatrix<T>,
    x: &Vector<T>,
) -> Result<()>
where
    T: Scalar,
    R: Semiring<T>,
    A: AccumMode<T>,
    B: Backend,
{
    let fuses_with_semiring_add = TypeId::of::<A>() == TypeId::of::<AccumWith<R::Add>>();
    if mask.is_none() {
        if !A::ACCUMULATES {
            return scatter_product::<T, R, B>(y, a, x, true);
        }
        if fuses_with_semiring_add {
            return scatter_product::<T, R, B>(y, a, x, false);
        }
    }
    // General case: full product once, then masked/accumulated write-back.
    let mut scratch = Vector::zeros(y.len());
    scatter_product::<T, R, B>(&mut scratch, a, x, true)?;
    let ss = scratch.as_slice();
    y.densify();
    let n = y.len();
    let out = UnsafeSlice::new(y.as_mut_slice());
    for_each_selected::<B, _>(n, mask, desc, |i| {
        // SAFETY: selected indices are unique per the mask contract.
        unsafe { A::store(out.get_mut(i), ss[i]) };
    })
}

/// Scatter kernel `y ⊕= Aᵀ x`, optionally zero-initializing `y` first.
///
/// Parallelizes only when the matrix's columns are conflict-free (each
/// output index owned by at most one row — true for straight injection);
/// otherwise falls back to a sequential scatter.
fn scatter_product<T, R, B>(
    y: &mut Vector<T>,
    a: &CsrMatrix<T>,
    x: &Vector<T>,
    zero_init: bool,
) -> Result<()>
where
    T: Scalar,
    R: Semiring<T>,
    B: Backend,
{
    y.densify();
    let xs = x.as_slice();
    let ys = y.as_mut_slice();
    if zero_init {
        ys.iter_mut().for_each(|v| *v = R::zero());
    }
    if a.columns_conflict_free() {
        // Each output index is written by at most one source row, so rows
        // may be processed in parallel without synchronization.
        let out = UnsafeSlice::new(ys);
        B::for_n(a.nrows(), |r| {
            let (cols, vals) = a.row(r);
            let xr = xs[r];
            for (&c, &v) in cols.iter().zip(vals) {
                // SAFETY: conflict-free columns → index c is unique across rows.
                unsafe {
                    let slot = out.get_mut(c as usize);
                    *slot = R::add(*slot, R::mul(v, xr));
                }
            }
        });
    } else {
        for (r, &xr) in xs.iter().enumerate() {
            let (cols, vals) = a.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let slot = &mut ys[c as usize];
                *slot = R::add(*slot, R::mul(v, xr));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Parallel, Sequential};
    use crate::context::ctx;
    use crate::ops::binary::Plus;
    use crate::ops::semiring::MinPlus;

    fn a3() -> CsrMatrix<f64> {
        // [[2, 0, 1],
        //  [0, 3, 0],
        //  [4, 0, 5]]
        CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 2.0),
                (0, 2, 1.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 2, 5.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn plain_mxv() {
        let a = a3();
        let x = Vector::from_dense(vec![1.0, 2.0, 3.0]);
        let mut y = Vector::zeros(3);
        ctx::<Sequential>().mxv(&a, &x).into(&mut y).unwrap();
        assert_eq!(y.as_slice(), &[5.0, 6.0, 19.0]);
    }

    #[test]
    fn parallel_matches_sequential() {
        let n = 500;
        let mut triplets = Vec::new();
        for i in 0..n {
            triplets.push((i, i, 2.0 + i as f64));
            if i + 1 < n {
                triplets.push((i, i + 1, -1.0));
                triplets.push((i + 1, i, -1.0));
            }
        }
        let a = CsrMatrix::from_triplets(n, n, &triplets).unwrap();
        let x = Vector::from_dense((0..n).map(|i| (i % 13) as f64 - 6.0).collect());
        let mut y1 = Vector::zeros(n);
        let mut y2 = Vector::zeros(n);
        ctx::<Sequential>().mxv(&a, &x).into(&mut y1).unwrap();
        ctx::<Parallel>().mxv(&a, &x).into(&mut y2).unwrap();
        assert_eq!(
            y1.as_slice(),
            y2.as_slice(),
            "row-parallel mxv is deterministic"
        );
    }

    #[test]
    fn masked_mxv_touches_only_selected_rows() {
        let a = a3();
        let x = Vector::from_dense(vec![1.0, 2.0, 3.0]);
        let mut y = Vector::from_dense(vec![-1.0, -1.0, -1.0]);
        let mask = Vector::<bool>::sparse_filled(3, vec![0, 2], true).unwrap();
        ctx::<Sequential>()
            .mxv(&a, &x)
            .mask(&mask)
            .structural()
            .into(&mut y)
            .unwrap();
        assert_eq!(y.as_slice(), &[5.0, -1.0, 19.0], "row 1 untouched");
    }

    #[test]
    fn transpose_mxv_equals_materialized_transpose() {
        let a =
            CsrMatrix::from_triplets(2, 4, &[(0, 0, 1.0), (0, 3, 2.0), (1, 1, 3.0), (1, 3, 4.0)])
                .unwrap();
        let x = Vector::from_dense(vec![10.0, 100.0]);
        let exec = ctx::<Sequential>();
        let mut via_desc = Vector::zeros(4);
        exec.mxv(&a, &x).transpose().into(&mut via_desc).unwrap();
        let at = a.transpose();
        let mut via_mat = Vector::zeros(4);
        exec.mxv(&at, &x).into(&mut via_mat).unwrap();
        assert_eq!(via_desc.as_slice(), via_mat.as_slice());
        assert_eq!(via_desc.as_slice(), &[10.0, 300.0, 0.0, 420.0]);
    }

    #[test]
    fn transpose_conflict_free_parallel_matches_sequential() {
        // Injection-style matrix: one nonzero per row, distinct columns.
        let n = 2000;
        let triplets: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, i * 4, 1.0)).collect();
        let a = CsrMatrix::from_triplets(n, 4 * n, &triplets).unwrap();
        assert!(a.columns_conflict_free());
        let x = Vector::from_dense((0..n).map(|i| i as f64).collect());
        let mut y1 = Vector::zeros(4 * n);
        let mut y2 = Vector::zeros(4 * n);
        ctx::<Sequential>()
            .mxv(&a, &x)
            .transpose()
            .into(&mut y1)
            .unwrap();
        ctx::<Parallel>()
            .mxv(&a, &x)
            .transpose()
            .into(&mut y2)
            .unwrap();
        assert_eq!(y1.as_slice(), y2.as_slice());
        assert_eq!(y1.get_or_zero(8), 2.0);
    }

    #[test]
    fn vxm_equals_transposed_mxv() {
        let a = a3();
        let x = Vector::from_dense(vec![1.0, 2.0, 3.0]);
        let exec = ctx::<Sequential>();
        let mut via_vxm = Vector::zeros(3);
        exec.vxm(&x, &a).into(&mut via_vxm).unwrap();
        let mut via_t = Vector::zeros(3);
        exec.mxv(&a, &x).transpose().into(&mut via_t).unwrap();
        assert_eq!(via_vxm.as_slice(), via_t.as_slice());
        // And vxm with a second transposition is plain mxv.
        let mut via_vxm_t = Vector::zeros(3);
        exec.vxm(&x, &a).transpose().into(&mut via_vxm_t).unwrap();
        let mut plain = Vector::zeros(3);
        exec.mxv(&a, &x).into(&mut plain).unwrap();
        assert_eq!(via_vxm_t.as_slice(), plain.as_slice());
    }

    #[test]
    fn dimension_errors() {
        let a = a3();
        let exec = ctx::<Sequential>();
        let x_bad = Vector::<f64>::zeros(2);
        let mut y = Vector::zeros(3);
        assert!(exec.mxv(&a, &x_bad).into(&mut y).is_err());
        let x = Vector::zeros(3);
        let mut y_bad = Vector::<f64>::zeros(5);
        assert!(exec.mxv(&a, &x).into(&mut y_bad).is_err());
    }

    #[test]
    fn masked_transpose_writes_only_selected() {
        // Previously `GrbError::Unsupported`; now the full descriptor/mask
        // matrix is supported.
        let a = a3();
        let x = Vector::from_dense(vec![1.0, 2.0, 3.0]);
        let mask = Vector::<bool>::sparse_filled(3, vec![0, 2], true).unwrap();
        let mut masked = Vector::from_dense(vec![-1.0, -1.0, -1.0]);
        ctx::<Sequential>()
            .mxv(&a, &x)
            .transpose()
            .mask(&mask)
            .structural()
            .into(&mut masked)
            .unwrap();
        let mut full = Vector::zeros(3);
        ctx::<Sequential>()
            .mxv(&a, &x)
            .transpose()
            .into(&mut full)
            .unwrap();
        assert_eq!(masked.as_slice()[0], full.as_slice()[0]);
        assert_eq!(masked.as_slice()[1], -1.0, "unselected position untouched");
        assert_eq!(masked.as_slice()[2], full.as_slice()[2]);
    }

    #[test]
    fn masked_transpose_accum_combines() {
        let a = a3();
        let x = Vector::from_dense(vec![1.0, 2.0, 3.0]);
        let mask = Vector::<bool>::sparse_filled(3, vec![1], true).unwrap();
        let mut y = Vector::from_dense(vec![10.0, 10.0, 10.0]);
        ctx::<Sequential>()
            .mxv(&a, &x)
            .transpose()
            .mask(&mask)
            .structural()
            .accum(Plus)
            .into(&mut y)
            .unwrap();
        // (Aᵀx)[1] = 3·2 = 6; only index 1 is selected.
        assert_eq!(y.as_slice(), &[10.0, 16.0, 10.0]);
    }

    #[test]
    fn min_plus_semiring_mxv() {
        // Tropical semiring: y_i = min_j (A_ij + x_j) — one shortest-path
        // relaxation step. Absent entries contribute +inf (the min identity).
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 2.0)]).unwrap();
        let x = Vector::from_dense(vec![0.0, 10.0]);
        let mut y = Vector::zeros(2);
        ctx::<Sequential>()
            .mxv(&a, &x)
            .ring(MinPlus)
            .into(&mut y)
            .unwrap();
        assert_eq!(y.as_slice(), &[11.0, 2.0]);
    }

    #[test]
    fn empty_rows_produce_semiring_zero() {
        let a = CsrMatrix::<f64>::from_triplets(2, 2, &[(0, 0, 3.0)]).unwrap();
        let x = Vector::from_dense(vec![1.0, 1.0]);
        let mut y = Vector::from_dense(vec![99.0, 99.0]);
        ctx::<Sequential>().mxv(&a, &x).into(&mut y).unwrap();
        assert_eq!(
            y.as_slice(),
            &[3.0, 0.0],
            "empty row yields additive identity"
        );
    }
}

#[cfg(test)]
mod accum_tests {
    use super::*;
    use crate::backend::Sequential;
    use crate::context::ctx;
    use crate::ops::binary::{Minus, Plus};

    #[test]
    fn accum_adds_to_existing_values() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (1, 1, 3.0)]).unwrap();
        let x = Vector::from_dense(vec![1.0, 1.0]);
        let mut y = Vector::from_dense(vec![10.0, 20.0]);
        ctx::<Sequential>()
            .mxv(&a, &x)
            .accum(Plus)
            .into(&mut y)
            .unwrap();
        assert_eq!(y.as_slice(), &[12.0, 23.0]);
    }

    #[test]
    fn transpose_accum_matches_manual() {
        // Injection-like rectangular matrix: y += A^T x.
        let a = CsrMatrix::from_triplets(2, 4, &[(0, 1, 1.0), (1, 3, 1.0)]).unwrap();
        let x = Vector::from_dense(vec![5.0, 7.0]);
        let mut y = Vector::from_dense(vec![1.0, 1.0, 1.0, 1.0]);
        ctx::<Sequential>()
            .mxv(&a, &x)
            .transpose()
            .accum(Plus)
            .into(&mut y)
            .unwrap();
        assert_eq!(y.as_slice(), &[1.0, 6.0, 1.0, 8.0]);
    }

    #[test]
    fn masked_accum_touches_only_selected() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (1, 1, 3.0)]).unwrap();
        let x = Vector::from_dense(vec![1.0, 1.0]);
        let mut y = Vector::from_dense(vec![10.0, 20.0]);
        let mask = Vector::<bool>::sparse_filled(2, vec![1], true).unwrap();
        ctx::<Sequential>()
            .mxv(&a, &x)
            .mask(&mask)
            .structural()
            .accum(Plus)
            .into(&mut y)
            .unwrap();
        assert_eq!(y.as_slice(), &[10.0, 23.0]);
    }

    #[test]
    fn non_additive_accumulator_on_transpose_uses_scratch_path() {
        // accum = Minus is not the semiring's ⊕, so the kernel must compute
        // the full product first: y = y − Aᵀx.
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (0, 1, 1.0), (1, 1, 3.0)]).unwrap();
        let x = Vector::from_dense(vec![1.0, 2.0]);
        let mut y = Vector::from_dense(vec![10.0, 10.0]);
        ctx::<Sequential>()
            .mxv(&a, &x)
            .transpose()
            .accum(Minus)
            .into(&mut y)
            .unwrap();
        // Aᵀx = [2·1, 1·1 + 3·2] = [2, 7].
        assert_eq!(y.as_slice(), &[8.0, 3.0]);
    }
}
