//! Element-wise binary operations on vectors: HPCG's `waxpby` kernel
//! (`w = α·x + β·y`, paper §II-C), the general GraphBLAS `eWiseApply` and
//! CG's in-place `axpy`. Each is one `Exec::run_lambda` call with a fixed
//! per-element body. `ewise` is generic over the operator, an optional
//! operand scaling (which turns `Plus` into `waxpby` — fusing the two
//! scalings with the addition halves memory traffic versus two passes) and
//! an [`AccumMode`] (which turns `Times` + `AccumWith<Plus>` into a
//! multiply-add). The ways in are [`Ctx::ewise`](crate::Ctx::ewise) /
//! [`Ctx::axpy`](crate::Ctx::axpy), and a recorded op's replay, which calls
//! the same `ewise::<T, Op, A, E>` through the pointer its node stores.

use crate::container::vector::Vector;
use crate::context::{ElemOp, Exec};
use crate::descriptor::Descriptor;
use crate::error::{check_dims, Result};
use crate::ops::accum::AccumMode;
use crate::ops::binary::BinaryOp;
use crate::ops::scalar::Scalar;

/// `w⟨mask⟩ = w ⊙? Op(α·x, β·y)` on `exec`. The `scale` branch sits outside
/// the loop, one closure per arm, so the unscaled form pays nothing for
/// the option.
pub(crate) fn ewise<T, Op, A, E>(
    exec: E,
    w: &mut Vector<T>,
    mask: Option<&Vector<bool>>,
    desc: Descriptor,
    x: &Vector<T>,
    y: &Vector<T>,
    scale: Option<(T, T)>,
) -> Result<()>
where
    T: Scalar,
    Op: BinaryOp<T>,
    A: AccumMode<T>,
    E: Exec,
{
    check_dims("ewise", "x vs output", w.len(), x.len())?;
    check_dims("ewise", "y vs output", w.len(), y.len())?;
    let xs = x.as_slice();
    let ys = y.as_slice();
    let op = ElemOp::Ewise {
        scaled: scale.is_some(),
    };
    match scale {
        None => exec.run_lambda(op, w, mask, desc, |i, wi| {
            A::store(wi, Op::apply(xs[i], ys[i]))
        }),
        Some((alpha, beta)) => exec.run_lambda(op, w, mask, desc, |i, wi| {
            A::store(wi, Op::apply(alpha.mul(xs[i]), beta.mul(ys[i])))
        }),
    }
}

/// `x = x + α·y` on `exec` — the in-place `axpy` CG uses for its vector
/// updates (see [`Ctx::axpy`](crate::Ctx::axpy)).
pub(crate) fn axpy<T: Scalar, E: Exec>(
    exec: E,
    x: &mut Vector<T>,
    alpha: T,
    y: &Vector<T>,
) -> Result<()> {
    check_dims("axpy", "y vs x", x.len(), y.len())?;
    let ys = y.as_slice();
    exec.run_lambda(ElemOp::Axpy, x, None, Descriptor::DEFAULT, |i, xi| {
        *xi = xi.add(alpha.mul(ys[i]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Parallel, Sequential};
    use crate::context::ctx;
    use crate::ops::binary::{Minus, Plus, Times};

    #[test]
    fn ewise_plus_and_minus() {
        let x = Vector::from_dense(vec![1.0, 2.0, 3.0]);
        let y = Vector::from_dense(vec![10.0, 20.0, 30.0]);
        let exec = ctx::<Sequential>();
        let mut w = Vector::zeros(3);
        exec.ewise(&x, &y).op(Plus).into(&mut w).unwrap();
        assert_eq!(w.as_slice(), &[11.0, 22.0, 33.0]);
        exec.ewise(&y, &x).op(Minus).into(&mut w).unwrap();
        assert_eq!(w.as_slice(), &[9.0, 18.0, 27.0]);
    }

    #[test]
    fn ewise_masked() {
        let x = Vector::from_dense(vec![1.0, 2.0]);
        let y = Vector::from_dense(vec![3.0, 4.0]);
        let mut w = Vector::from_dense(vec![0.5, 0.5]);
        let mask = Vector::<bool>::sparse_filled(2, vec![1], true).unwrap();
        ctx::<Sequential>()
            .ewise(&x, &y)
            .op(Times)
            .mask(&mask)
            .structural()
            .into(&mut w)
            .unwrap();
        assert_eq!(w.as_slice(), &[0.5, 8.0]);
    }

    #[test]
    fn waxpby_basic() {
        let x = Vector::from_dense(vec![1.0, 2.0]);
        let y = Vector::from_dense(vec![10.0, 20.0]);
        let mut w = Vector::zeros(2);
        ctx::<Sequential>()
            .ewise(&x, &y)
            .scaled(2.0, -1.0)
            .into(&mut w)
            .unwrap();
        assert_eq!(w.as_slice(), &[-8.0, -16.0]);
    }

    #[test]
    fn waxpby_parallel_matches_sequential() {
        let n = 20_000;
        let x = Vector::from_dense((0..n).map(|i| (i % 11) as f64).collect());
        let y = Vector::from_dense((0..n).map(|i| (i % 5) as f64).collect());
        let mut w1 = Vector::zeros(n);
        let mut w2 = Vector::zeros(n);
        ctx::<Sequential>()
            .ewise(&x, &y)
            .scaled(3.0, -2.0)
            .into(&mut w1)
            .unwrap();
        ctx::<Parallel>()
            .ewise(&x, &y)
            .scaled(3.0, -2.0)
            .into(&mut w2)
            .unwrap();
        assert_eq!(w1.as_slice(), w2.as_slice());
    }

    #[test]
    fn axpy_in_place_updates() {
        let mut x = Vector::from_dense(vec![1.0, 2.0, 3.0]);
        let y = Vector::from_dense(vec![1.0, 1.0, 1.0]);
        ctx::<Sequential>().axpy(&mut x, 0.5, &y).unwrap();
        assert_eq!(x.as_slice(), &[1.5, 2.5, 3.5]);
    }

    #[test]
    fn ewise_mul_add_accumulates() {
        let mut w = Vector::from_dense(vec![1.0, 1.0]);
        let x = Vector::from_dense(vec![2.0, 3.0]);
        let y = Vector::from_dense(vec![10.0, 10.0]);
        ctx::<Sequential>()
            .ewise(&x, &y)
            .op(Times)
            .accum(Plus)
            .into(&mut w)
            .unwrap();
        assert_eq!(w.as_slice(), &[21.0, 31.0]);
    }

    #[test]
    fn scaled_op_composes_with_accum() {
        // w = w ⊙ (αx + βy): the collapse the builder enables — previously
        // required a temporary plus two passes.
        let mut w = Vector::from_dense(vec![100.0, 200.0]);
        let x = Vector::from_dense(vec![1.0, 2.0]);
        let y = Vector::from_dense(vec![10.0, 20.0]);
        ctx::<Sequential>()
            .ewise(&x, &y)
            .scaled(2.0, 1.0)
            .accum(Minus)
            .into(&mut w)
            .unwrap();
        assert_eq!(w.as_slice(), &[100.0 - 12.0, 200.0 - 24.0]);
    }

    #[test]
    fn dim_mismatches_rejected() {
        let exec = ctx::<Sequential>();
        let short = Vector::<f64>::zeros(2);
        let long = Vector::<f64>::zeros(3);
        let mut w = Vector::<f64>::zeros(3);
        assert!(exec.ewise(&short, &long).op(Plus).into(&mut w).is_err());
        assert!(exec
            .ewise(&short, &long)
            .scaled(1.0, 1.0)
            .into(&mut w)
            .is_err());
        let mut x = Vector::<f64>::zeros(3);
        assert!(exec.axpy(&mut x, 1.0, &short).is_err());
    }
}
