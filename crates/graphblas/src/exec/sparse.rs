//! Direction-optimizing sparse-frontier `mxv` (push/pull selection).
//!
//! Graph traversals spend most steps on frontiers that touch a tiny
//! fraction of the vertex set; the dense kernel still sweeps all `n` rows.
//! This module provides the sparse-input product
//! `y⟨mask⟩ = y ⊙? (A ⊕.⊗ x)` for a [`SparseVector`] frontier, choosing
//! between two orientations per call (Beamer et al.'s direction
//! optimization, as adopted by GraphBLAST / SuiteSparse:GraphBLAS):
//!
//! * **push** — scatter along the columns named by the frontier's stored
//!   entries, using the [`GraphMatrix`]'s column-major (CSC) view. Work is
//!   `Θ(Σ_{j ∈ frontier} nnz(A(:,j)))` — proportional to the frontier, not
//!   to `n`;
//! * **pull** — densify the frontier and run the ordinary dense kernel
//!   (`mxv_exec`), a full row sweep. This *is* the dense code path on the
//!   same data, so its results are bit-identical by construction.
//!
//! Push is selected only when it is both profitable (frontier density at
//! most [`PUSH_PULL_THRESHOLD`]) and **provably bit-identical** to the
//! dense sweep: the frontier must be compressed with `fill == R::zero()`
//! and the semiring must declare
//! [`ANNIHILATING_ZERO`](crate::Semiring::ANNIHILATING_ZERO), so every
//! column the scatter skips would have contributed a bitwise no-op
//! `add(acc, mul(a, zero))` to the dense accumulation. One further
//! carve-out: the transposed dense kernel fuses `accum = ⊕` scatters
//! directly onto `y` (a different float summation order than
//! scratch-then-store), so that regime also pulls. Everything else —
//! masks, accumulators, `TRANSPOSE` — is honored identically in both
//! modes, which is what keeps the fluent builder surface unchanged for
//! sparse callers.
//!
//! Sparse products are **eager-only**: they do not participate in
//! pipeline fusion or compiled plans, so a traversal mixing sparse `mxv`
//! with deferred dense stages simply falls through to these exact kernels
//! between pipeline runs.

use crate::backend::Backend;
use crate::container::matrix::GraphMatrix;
use crate::container::vector::{SparseVector, Vector};
use crate::descriptor::Descriptor;
use crate::error::{check_dims, Result};
use crate::exec::for_each_selected;
use crate::exec::mxv::mxv_exec;
use crate::ops::accum::{AccumMode, AccumWith};
use crate::ops::scalar::Scalar;
use crate::ops::semiring::Semiring;
use crate::util::UnsafeSlice;
use std::any::TypeId;

/// Frontier densities at or below this fraction run in push mode
/// (when push is otherwise legal); denser frontiers pull.
///
/// 1/16 is the classic direction-optimization break-even point: below it
/// the frontier-proportional scatter beats the `Θ(n)` row sweep.
pub const PUSH_PULL_THRESHOLD: f64 = 1.0 / 16.0;

/// Which orientation a sparse-frontier product actually ran in.
///
/// Returned by the sparse terminals so algorithms (and the serve meter)
/// can count direction-optimization decisions.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum FrontierMode {
    /// Column-oriented scatter over the frontier's stored entries.
    Push,
    /// Densified frontier through the ordinary dense row sweep.
    Pull,
}

/// `y⟨mask⟩ = y ⊙? (A ⊕.⊗ x)` for a sparse frontier `x` — the single
/// direction-optimizing kernel behind [`Ctx::mxv_sparse`](crate::Ctx::mxv_sparse).
///
/// Returns the [`FrontierMode`] the call executed in. Either mode is
/// bit-identical to densifying `x` and running the dense kernel.
pub(crate) fn mxv_sparse_exec<T, R, A, B>(
    y: &mut Vector<T>,
    mask: Option<&Vector<bool>>,
    desc: Descriptor,
    m: &GraphMatrix<T>,
    x: &SparseVector<T>,
) -> Result<FrontierMode>
where
    T: Scalar,
    R: Semiring<T>,
    A: AccumMode<T>,
    B: Backend,
{
    if desc.is_transposed() {
        check_dims("mxv_sparse^T", "x vs nrows", m.nrows(), x.len())?;
        check_dims("mxv_sparse^T", "y vs ncols", m.ncols(), y.len())?;
    } else {
        check_dims("mxv_sparse", "x vs ncols", m.ncols(), x.len())?;
        check_dims("mxv_sparse", "y vs nrows", m.nrows(), y.len())?;
    }

    // The transposed dense kernel fuses `accum = ⊕` scatters straight onto
    // `y` (see `transpose_mxv_exec`), a different summation order than our
    // scratch-then-store scatter; pull instead so results stay bit-exact.
    let transposed_fused_accum = desc.is_transposed()
        && mask.is_none()
        && TypeId::of::<A>() == TypeId::of::<AccumWith<R::Add>>();
    let push_legal = R::ANNIHILATING_ZERO
        && !x.is_promoted()
        && x.fill() == R::zero()
        && !transposed_fused_accum;

    if !push_legal || x.density() > PUSH_PULL_THRESHOLD {
        mxv_exec::<T, R, A, B>(y, mask, desc, m.csr(), &x.to_dense())?;
        return Ok(FrontierMode::Pull);
    }

    // Push: walk the stored frontier entries in ascending index order and
    // scatter each column of the effective matrix into a scratch
    // accumulator, then write the selected outputs through the accumulator
    // mode — the same `for_each_selected` + `A::store` tail as the dense
    // kernels, so mask/descriptor semantics match exactly.
    let col_major = if desc.is_transposed() {
        m.csr()
    } else {
        m.csc()
    };
    let out_len = y.len();
    let mut scratch = vec![R::zero(); out_len];
    for (j, xv) in x.iter_stored() {
        let (rows, vals) = col_major.row(j);
        for (&i, &a) in rows.iter().zip(vals) {
            let slot = &mut scratch[i as usize];
            *slot = R::add(*slot, R::mul(a, xv));
        }
    }
    let out = UnsafeSlice::new(y.as_mut_slice());
    for_each_selected::<B, _>(out_len, mask, desc, |i| {
        // SAFETY: selected indices are unique per the mask contract.
        unsafe { A::store(out.get_mut(i), scratch[i]) };
    })?;
    Ok(FrontierMode::Push)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Parallel, Sequential};
    use crate::container::matrix::CsrMatrix;
    use crate::ops::accum::NoAccum;
    use crate::ops::binary::Plus;
    use crate::ops::semiring::{MaxTimes, MinPlus, PlusTimes};

    fn graph() -> GraphMatrix<f64> {
        // 32×32 ring + chords: every column has a few nonzeroes, so push
        // and pull genuinely traverse different storage.
        let n = 32;
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, (i + 1) % n, 1.0 + i as f64));
            t.push(((i + 5) % n, i, 2.0 + (i % 7) as f64));
        }
        GraphMatrix::from_csr(CsrMatrix::from_triplets(n, n, &t).unwrap())
    }

    fn sparse_frontier(n: usize) -> SparseVector<f64> {
        SparseVector::from_entries(n, 0.0, &[(3, 1.0), (17, 2.0)]).unwrap()
    }

    fn dense_vs_sparse<R, A>(
        mask: Option<&Vector<bool>>,
        desc: Descriptor,
        y0: &[f64],
        want_mode: FrontierMode,
    ) where
        R: Semiring<f64>,
        A: AccumMode<f64>,
    {
        let m = graph();
        let x = sparse_frontier(m.ncols());
        let mut y_dense = Vector::from_dense(y0.to_vec());
        let mut y_sparse = Vector::from_dense(y0.to_vec());
        mxv_exec::<f64, R, A, Sequential>(&mut y_dense, mask, desc, m.csr(), &x.to_dense())
            .unwrap();
        let mode =
            mxv_sparse_exec::<f64, R, A, Sequential>(&mut y_sparse, mask, desc, &m, &x).unwrap();
        assert_eq!(mode, want_mode);
        assert_eq!(y_dense.as_slice(), y_sparse.as_slice());
        // And the parallel backend agrees bit-for-bit.
        let mut y_par = Vector::from_dense(y0.to_vec());
        mxv_sparse_exec::<f64, R, A, Parallel>(&mut y_par, mask, desc, &m, &x).unwrap();
        assert_eq!(y_dense.as_slice(), y_par.as_slice());
    }

    #[test]
    fn push_matches_dense_plain() {
        let y0 = vec![0.0; 32];
        dense_vs_sparse::<PlusTimes, NoAccum>(None, Descriptor::DEFAULT, &y0, FrontierMode::Push);
    }

    #[test]
    fn push_matches_dense_with_accum_and_prior_values() {
        let y0: Vec<f64> = (0..32).map(|i| i as f64 - 7.5).collect();
        dense_vs_sparse::<PlusTimes, AccumWith<Plus>>(
            None,
            Descriptor::DEFAULT,
            &y0,
            FrontierMode::Push,
        );
    }

    #[test]
    fn push_matches_dense_masked() {
        let mask = Vector::<bool>::sparse_filled(32, vec![0, 4, 18, 31], true).unwrap();
        let y0 = vec![-1.0; 32];
        dense_vs_sparse::<PlusTimes, NoAccum>(
            Some(&mask),
            Descriptor::STRUCTURAL,
            &y0,
            FrontierMode::Push,
        );
        dense_vs_sparse::<PlusTimes, NoAccum>(
            Some(&mask),
            Descriptor::STRUCTURAL.with(Descriptor::INVERT_MASK),
            &y0,
            FrontierMode::Push,
        );
    }

    #[test]
    fn push_matches_dense_transposed() {
        let y0 = vec![0.0; 32];
        dense_vs_sparse::<PlusTimes, NoAccum>(None, Descriptor::TRANSPOSE, &y0, FrontierMode::Push);
        // Masked transpose still pushes (the fused-accum carve-out is only
        // for the unmasked `accum = ⊕` regime).
        let mask = Vector::<bool>::sparse_filled(32, vec![2, 3, 30], true).unwrap();
        dense_vs_sparse::<PlusTimes, AccumWith<Plus>>(
            Some(&mask),
            Descriptor::TRANSPOSE.with(Descriptor::STRUCTURAL),
            &vec![5.0; 32],
            FrontierMode::Push,
        );
    }

    #[test]
    fn transposed_fused_accum_pulls_for_bit_exactness() {
        let y0: Vec<f64> = (0..32).map(|i| 0.125 * i as f64).collect();
        dense_vs_sparse::<PlusTimes, AccumWith<Plus>>(
            None,
            Descriptor::TRANSPOSE,
            &y0,
            FrontierMode::Pull,
        );
    }

    #[test]
    fn dense_frontier_pulls() {
        let m = graph();
        let n = m.ncols();
        let entries: Vec<(u32, f64)> = (0..n as u32 / 2).map(|i| (2 * i, 1.0)).collect();
        let x = SparseVector::from_entries(n, 0.0, &entries).unwrap();
        assert!(x.density() > PUSH_PULL_THRESHOLD);
        let mut y_sparse = Vector::zeros(n);
        let mode = mxv_sparse_exec::<f64, PlusTimes, NoAccum, Sequential>(
            &mut y_sparse,
            None,
            Descriptor::DEFAULT,
            &m,
            &x,
        )
        .unwrap();
        assert_eq!(mode, FrontierMode::Pull);
        let mut y_dense = Vector::zeros(n);
        mxv_exec::<f64, PlusTimes, NoAccum, Sequential>(
            &mut y_dense,
            None,
            Descriptor::DEFAULT,
            m.csr(),
            &x.to_dense(),
        )
        .unwrap();
        assert_eq!(y_dense.as_slice(), y_sparse.as_slice());
    }

    #[test]
    fn min_plus_frontier_pushes_with_infinite_fill_only_when_zero() {
        // A MinPlus frontier with fill == +∞ (the ring's zero) may push…
        let m = graph();
        let x = SparseVector::from_entries(32, f64::INFINITY, &[(3, 0.5), (17, 0.25)]).unwrap();
        let mut y_sparse = Vector::from_dense(vec![f64::INFINITY; 32]);
        let mode = mxv_sparse_exec::<f64, MinPlus, NoAccum, Sequential>(
            &mut y_sparse,
            None,
            Descriptor::DEFAULT,
            &m,
            &x,
        )
        .unwrap();
        assert_eq!(mode, FrontierMode::Push);
        let mut y_dense = Vector::from_dense(vec![f64::INFINITY; 32]);
        mxv_exec::<f64, MinPlus, NoAccum, Sequential>(
            &mut y_dense,
            None,
            Descriptor::DEFAULT,
            m.csr(),
            &x.to_dense(),
        )
        .unwrap();
        assert_eq!(y_dense.as_slice(), y_sparse.as_slice());

        // …but a frontier whose fill is NOT the ring's zero must pull:
        // skipped entries would not be no-ops.
        let x0 = SparseVector::from_entries(32, 0.0, &[(3, 0.5)]).unwrap();
        let mut y = Vector::from_dense(vec![f64::INFINITY; 32]);
        let mode = mxv_sparse_exec::<f64, MinPlus, NoAccum, Sequential>(
            &mut y,
            None,
            Descriptor::DEFAULT,
            &m,
            &x0,
        )
        .unwrap();
        assert_eq!(mode, FrontierMode::Pull);
    }

    #[test]
    fn non_annihilating_ring_always_pulls() {
        let m = graph();
        let x = SparseVector::from_entries(32, f64::NEG_INFINITY, &[(3, 1.0)]).unwrap();
        let mut y = Vector::from_dense(vec![f64::NEG_INFINITY; 32]);
        let mode = mxv_sparse_exec::<f64, MaxTimes, NoAccum, Sequential>(
            &mut y,
            None,
            Descriptor::DEFAULT,
            &m,
            &x,
        )
        .unwrap();
        assert_eq!(
            mode,
            FrontierMode::Pull,
            "MaxTimes zero does not annihilate"
        );
    }

    #[test]
    fn promoted_frontier_pulls() {
        let m = graph();
        let x = SparseVector::promoted(vec![1.0; 32], 0.0);
        let mut y = Vector::zeros(32);
        let mode = mxv_sparse_exec::<f64, PlusTimes, NoAccum, Sequential>(
            &mut y,
            None,
            Descriptor::DEFAULT,
            &m,
            &x,
        )
        .unwrap();
        assert_eq!(mode, FrontierMode::Pull);
    }

    #[test]
    fn sparse_dimension_errors() {
        let m = graph();
        let x_bad = SparseVector::<f64>::empty(7, 0.0);
        let mut y = Vector::zeros(32);
        assert!(mxv_sparse_exec::<f64, PlusTimes, NoAccum, Sequential>(
            &mut y,
            None,
            Descriptor::DEFAULT,
            &m,
            &x_bad,
        )
        .is_err());
        let x = sparse_frontier(32);
        let mut y_bad = Vector::<f64>::zeros(5);
        assert!(mxv_sparse_exec::<f64, PlusTimes, NoAccum, Sequential>(
            &mut y_bad,
            None,
            Descriptor::DEFAULT,
            &m,
            &x,
        )
        .is_err());
    }
}
