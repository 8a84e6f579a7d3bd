//! Fused kernels behind the pipeline fusion pass (nonblocking execution).
//!
//! The paper's related work singles out kernel fusion as the optimization
//! HPCG vendors hand-write and cites the ALP nonblocking extension as the
//! GraphBLAS answer: express the operations separately, let the runtime
//! merge them. These are the merge targets the generic pass in
//! [`crate::fusion`] lowers onto, reached through the plan interpreter of
//! [`Ctx::pipeline`](crate::Ctx::pipeline) / [`Ctx::plan`](crate::Ctx::plan):
//!
//! * `spmv_dot_exec` — `y = A ⊕.⊗ x` with a dot-product epilogue folded
//!   into the same row sweep (CG's `⟨p, Ap⟩` right after `Ap`);
//! * `axpy_norm` — `x ← x + α·y` with `⟨x, x⟩` accumulated in the same
//!   stream (CG's residual norm right after the residual update): one
//!   `Exec::run_fold` whose map also updates `x[i]`.
//!
//! # Bit-identity with the eager pair
//!
//! Both drive the reduction through the *same* fold the eager `dot` runs,
//! over the same length, with the row/element computation as a side effect
//! of the fold's map, which every backend calls exactly once per index.
//! Because the backends partition folds deterministically by length, the
//! fused result is bit-identical to running the unfused pair.
use crate::backend::Backend;
use crate::container::matrix::CsrMatrix;
use crate::container::vector::Vector;
use crate::context::{ElemOp, Exec};
use crate::descriptor::Descriptor;
use crate::error::{check_dims, Result};
use crate::ops::scalar::Scalar;
use crate::ops::semiring::Semiring;
use crate::util::UnsafeSlice;

/// `y = A ⊕.⊗ x`, returning a dot product over the freshly computed rows.
///
/// The epilogue is `⟨w, y⟩` (or `⟨y, w⟩` when `product_on_left`); with
/// `w = None` it is `⟨y, y⟩`. Each fold element multiplies exactly as the
/// eager `dot` kernel would, so the reduction is bit-identical to running
/// `mxv` then `dot` on the same backend.
pub(crate) fn spmv_dot_exec<T, R, B>(
    y: &mut Vector<T>,
    a: &CsrMatrix<T>,
    x: &Vector<T>,
    w: Option<&Vector<T>>,
    product_on_left: bool,
) -> Result<T>
where
    T: Scalar,
    R: Semiring<T>,
    B: Backend,
{
    check_dims("spmv_dot", "x vs ncols", a.ncols(), x.len())?;
    check_dims("spmv_dot", "y vs nrows", a.nrows(), y.len())?;
    if let Some(w) = w {
        check_dims("spmv_dot", "w vs nrows", a.nrows(), w.len())?;
    }
    let xs = x.as_slice();
    let out = UnsafeSlice::new(y.as_mut_slice());
    // The epilogue shape is selected once out here and monomorphized into
    // its own sweep — never branched on inside the hot loop.
    Ok(match (w.map(|v| v.as_slice()), product_on_left) {
        (Some(ws), true) => spmv_sweep::<T, R, B, _>(a, xs, &out, |i, acc| R::mul(acc, ws[i])),
        (Some(ws), false) => spmv_sweep::<T, R, B, _>(a, xs, &out, |i, acc| R::mul(ws[i], acc)),
        (None, _) => spmv_sweep::<T, R, B, _>(a, xs, &out, |_, acc| R::mul(acc, acc)),
    })
}

/// The shared row sweep of [`spmv_dot_exec`], monomorphized per epilogue.
fn spmv_sweep<T, R, B, F>(a: &CsrMatrix<T>, xs: &[T], out: &UnsafeSlice<'_, T>, epilogue: F) -> T
where
    T: Scalar,
    R: Semiring<T>,
    B: Backend,
    F: Fn(usize, T) -> T + Send + Sync,
{
    B::fold::<T, R::Add, _>(a.nrows(), |i| {
        let (cols, vals) = a.row(i);
        let mut acc = R::zero();
        for (&c, &v) in cols.iter().zip(vals) {
            acc = R::add(acc, R::mul(v, xs[c as usize]));
        }
        // SAFETY: each row index is visited exactly once by the fold.
        unsafe { *out.get_mut(i) = acc };
        epilogue(i, acc)
    })
}

/// `x ← x + α·y` on `exec`, returning `⟨x, x⟩` of the updated vector from
/// the same pass.
///
/// The update expression is the eager `axpy`'s and the norm folds through
/// the fold `dot(x, x)` runs, so the fused pair is bit-identical to running
/// them separately.
#[doc(hidden)]
pub fn axpy_norm<T, R, E>(exec: E, x: &mut Vector<T>, alpha: T, y: &Vector<T>) -> Result<T>
where
    T: Scalar,
    R: Semiring<T>,
    E: Exec,
{
    check_dims("axpy_norm", "y vs x", x.len(), y.len())?;
    let ys = y.as_slice();
    let n = x.len();
    let out = UnsafeSlice::new(x.as_mut_slice());
    exec.run_fold::<T, R::Add, _>(ElemOp::AxpyNorm, n, None, Descriptor::DEFAULT, |i| {
        // SAFETY: `run_fold` calls the map exactly once per index.
        let slot = unsafe { out.get_mut(i) };
        *slot = slot.add(alpha.mul(ys[i]));
        R::mul(*slot, *slot)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Parallel, Sequential};
    use crate::context::ctx;
    use crate::ops::semiring::PlusTimes;

    fn tridiag(n: usize) -> CsrMatrix<f64> {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0 + (i % 5) as f64));
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
                t.push((i + 1, i, -1.0));
            }
        }
        CsrMatrix::from_triplets(n, n, &t).unwrap()
    }

    fn vec_mod(n: usize, m: usize) -> Vector<f64> {
        Vector::from_dense((0..n).map(|i| (i % m) as f64 - (m / 2) as f64).collect())
    }

    fn check_spmv_dot<B: Backend>() {
        let n = 3000; // large enough that the parallel backend actually splits
        let a = tridiag(n);
        let x = vec_mod(n, 13);
        let w = vec_mod(n, 7);

        let mut y_eager = Vector::zeros(n);
        let exec = ctx::<B>();
        exec.mxv(&a, &x).into(&mut y_eager).unwrap();
        let d_eager = exec.dot(&w, &y_eager).compute().unwrap();

        let mut y_fused = Vector::zeros(n);
        let d_fused =
            spmv_dot_exec::<f64, PlusTimes, B>(&mut y_fused, &a, &x, Some(&w), false).unwrap();
        assert_eq!(y_eager.as_slice(), y_fused.as_slice());
        assert_eq!(
            d_eager.to_bits(),
            d_fused.to_bits(),
            "fused dot must be bit-identical"
        );

        // Self-product epilogue: ⟨y, y⟩.
        let norm_eager = exec.norm2_squared(&y_eager).unwrap();
        let mut y2 = Vector::zeros(n);
        let norm_fused = spmv_dot_exec::<f64, PlusTimes, B>(&mut y2, &a, &x, None, true).unwrap();
        assert_eq!(norm_eager.to_bits(), norm_fused.to_bits());
    }

    fn check_axpy_norm<B: Backend>() {
        let n = 3000;
        let x0 = vec_mod(n, 11);
        let y = vec_mod(n, 9);
        let alpha = -0.375; // exactly representable

        let exec = ctx::<B>();
        let mut x_eager = x0.clone();
        exec.axpy(&mut x_eager, alpha, &y).unwrap();
        let norm_eager = exec.norm2_squared(&x_eager).unwrap();

        let mut x_fused = x0.clone();
        let norm_fused =
            axpy_norm::<f64, PlusTimes, B>(B::default(), &mut x_fused, alpha, &y).unwrap();
        assert_eq!(x_eager.as_slice(), x_fused.as_slice());
        assert_eq!(norm_eager.to_bits(), norm_fused.to_bits());
    }

    #[test]
    fn fused_kernels_match_eager_pair_sequential() {
        check_spmv_dot::<Sequential>();
        check_axpy_norm::<Sequential>();
    }

    #[test]
    fn fused_kernels_match_eager_pair_parallel() {
        check_spmv_dot::<Parallel>();
        check_axpy_norm::<Parallel>();
    }

    #[test]
    fn dimension_errors() {
        let a = tridiag(4);
        let x_bad = Vector::<f64>::zeros(3);
        let mut y = Vector::zeros(4);
        assert!(
            spmv_dot_exec::<f64, PlusTimes, Sequential>(&mut y, &a, &x_bad, None, true).is_err()
        );
        let mut x = Vector::<f64>::zeros(4);
        assert!(axpy_norm::<f64, PlusTimes, _>(Sequential, &mut x, 1.0, &x_bad).is_err());
    }
}
