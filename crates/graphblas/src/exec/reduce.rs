//! Reductions: `reduce` (vector → scalar over a monoid) and `dot`.
//!
//! `dot` is the second of CG's three hot kernels (paper §II-C). In BSP terms
//! it is also the kernel that forces a global synchronization per CG
//! iteration, which the distributed simulation accounts for. Both are one
//! `Exec::run_fold` with a fixed map (`x[i]`, `x[i] ⊗ y[i]`). The ways in
//! are [`Ctx::reduce`](crate::Ctx::reduce) / [`Ctx::dot`](crate::Ctx::dot),
//! and a recorded op's replay, which calls the same function through the
//! pointer its node stores.

use crate::container::vector::Vector;
use crate::context::{ElemOp, Exec};
use crate::descriptor::Descriptor;
use crate::error::{check_dims, Result};
use crate::ops::monoid::Monoid;
use crate::ops::scalar::Scalar;
use crate::ops::semiring::Semiring;

/// Folds the selected entries of `x` over monoid `M` on `exec`.
pub(crate) fn reduce<T, M, E>(
    exec: E,
    x: &Vector<T>,
    mask: Option<&Vector<bool>>,
    desc: Descriptor,
) -> Result<T>
where
    T: Scalar,
    M: Monoid<T>,
    E: Exec,
{
    let xs = x.as_slice();
    exec.run_fold::<T, M, _>(ElemOp::Reduce, x.len(), mask, desc, |i| xs[i])
}

/// `⟨x, y⟩ = ⊕_i x_i ⊗ y_i` over semiring `R` on `exec`.
pub(crate) fn dot<T, R, E>(exec: E, x: &Vector<T>, y: &Vector<T>) -> Result<T>
where
    T: Scalar,
    R: Semiring<T>,
    E: Exec,
{
    check_dims("dot", "y vs x", x.len(), y.len())?;
    let xs = x.as_slice();
    let ys = y.as_slice();
    exec.run_fold::<T, R::Add, _>(ElemOp::Dot, x.len(), None, Descriptor::DEFAULT, |i| {
        R::mul(xs[i], ys[i])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Parallel, Sequential};
    use crate::context::ctx;
    use crate::ops::binary::{Max, Min};
    use crate::ops::semiring::MinPlus;

    #[test]
    fn reduce_sum_min_max() {
        let x = Vector::from_dense(vec![3.0, -1.0, 4.0, 1.0, -5.0]);
        let exec = ctx::<Sequential>();
        let s = exec.reduce(&x).compute().unwrap();
        assert_eq!(s, 2.0);
        let mn = exec.reduce(&x).monoid(Min).compute().unwrap();
        assert_eq!(mn, -5.0);
        let mx = exec.reduce(&x).monoid(Max).compute().unwrap();
        assert_eq!(mx, 4.0);
    }

    #[test]
    fn reduce_masked() {
        let x = Vector::from_dense(vec![1.0, 2.0, 4.0, 8.0]);
        let mask = Vector::<bool>::sparse_filled(4, vec![0, 2], true).unwrap();
        let exec = ctx::<Sequential>();
        let s = exec.reduce(&x).mask(&mask).structural().compute().unwrap();
        assert_eq!(s, 5.0);
        let s = exec
            .reduce(&x)
            .mask(&mask)
            .structural()
            .invert_mask()
            .compute()
            .unwrap();
        assert_eq!(s, 10.0);
    }

    #[test]
    fn reduce_empty_is_identity() {
        let x = Vector::<f64>::zeros(0);
        let exec = ctx::<Sequential>();
        assert_eq!(exec.reduce(&x).compute().unwrap(), 0.0);
        assert_eq!(
            exec.reduce(&x).monoid(Min).compute().unwrap(),
            f64::INFINITY
        );
    }

    #[test]
    fn dot_basic() {
        let x = Vector::from_dense(vec![1.0, 2.0, 3.0]);
        let y = Vector::from_dense(vec![4.0, -5.0, 6.0]);
        assert_eq!(ctx::<Sequential>().dot(&x, &y).compute().unwrap(), 12.0);
    }

    #[test]
    fn dot_over_tropical_ring() {
        // min_i (x_i + y_i): the ring parameter stays fully generic.
        let x = Vector::from_dense(vec![3.0, 1.0, 9.0]);
        let y = Vector::from_dense(vec![2.0, 5.0, 1.0]);
        assert_eq!(
            ctx::<Sequential>()
                .dot(&x, &y)
                .ring(MinPlus)
                .compute()
                .unwrap(),
            5.0
        );
    }

    #[test]
    fn dot_dim_mismatch() {
        let x = Vector::<f64>::zeros(2);
        let y = Vector::<f64>::zeros(3);
        assert!(ctx::<Sequential>().dot(&x, &y).compute().is_err());
    }

    #[test]
    fn norm2() {
        let x = Vector::from_dense(vec![3.0, 4.0]);
        assert_eq!(ctx::<Sequential>().norm2_squared(&x).unwrap(), 25.0);
    }

    #[test]
    fn parallel_dot_matches_sequential_on_exact_values() {
        let n = 50_000;
        let x = Vector::from_dense((0..n).map(|i| ((i % 17) as f64) - 8.0).collect());
        let y = Vector::from_dense((0..n).map(|i| ((i % 13) as f64) - 6.0).collect());
        let a = ctx::<Sequential>().dot(&x, &y).compute().unwrap();
        let b = ctx::<Parallel>().dot(&x, &y).compute().unwrap();
        // Small-integer-valued products sum exactly in f64 at this size.
        assert_eq!(a, b);
    }
}
