//! Element-wise application: `apply` (unary operator) and `transform`
//! (`eWiseLambda`, a caller's lambda at masked positions).
//!
//! `eWiseLambda` is the primitive the paper's RBGS update step builds on
//! (Listing 3, lines 13-17): for every index of the current color, read
//! `r[i]`, `tmp[i]`, `A_diag[i]` and update `x[i]` in place. Rust renders
//! the C++ capture-by-reference lambda as a closure that borrows the read
//! vectors and receives `&mut` access to the one output slot — the
//! disjointness of masked indices makes the parallel version sound. It is
//! every backend's element write, `Exec::run_lambda`: `transform` hands it
//! the caller's closure, `apply` the body `out[i] ⊙?= Op(input[i])`. The
//! ways in are [`Ctx::apply`](crate::Ctx::apply) /
//! [`Ctx::transform`](crate::Ctx::transform), and a recorded op's replay,
//! which calls the same `apply::<T, Op, A, E>` through the pointer its node
//! stores.

use crate::container::vector::Vector;
use crate::context::{ElemOp, Exec};
use crate::descriptor::Descriptor;
use crate::error::{check_dims, Result};
use crate::ops::accum::AccumMode;
use crate::ops::scalar::Scalar;
use crate::ops::unary::UnaryOp;

/// `out⟨mask⟩ = out ⊙? Op(input)` on `exec`.
pub(crate) fn apply<T, Op, A, E>(
    exec: E,
    out: &mut Vector<T>,
    mask: Option<&Vector<bool>>,
    desc: Descriptor,
    input: &Vector<T>,
) -> Result<()>
where
    T: Scalar,
    Op: UnaryOp<T>,
    A: AccumMode<T>,
    E: Exec,
{
    check_dims("apply", "input vs output", out.len(), input.len())?;
    let xs = input.as_slice();
    exec.run_lambda(ElemOp::Apply, out, mask, desc, |i, o| {
        A::store(o, Op::apply(xs[i]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Parallel, Sequential};
    use crate::context::ctx;
    use crate::ops::binary::Plus;
    use crate::ops::unary::{Abs, AdditiveInverse, MultiplicativeInverse};

    #[test]
    fn apply_unmasked() {
        let x = Vector::from_dense(vec![1.0, -2.0, 3.0]);
        let mut y = Vector::zeros(3);
        ctx::<Sequential>()
            .apply(&x)
            .op(AdditiveInverse)
            .into(&mut y)
            .unwrap();
        assert_eq!(y.as_slice(), &[-1.0, 2.0, -3.0]);
    }

    #[test]
    fn apply_masked_leaves_rest() {
        let x = Vector::from_dense(vec![-1.0, -2.0, -3.0, -4.0]);
        let mut y = Vector::from_dense(vec![9.0; 4]);
        let mask = Vector::<bool>::sparse_filled(4, vec![1, 3], true).unwrap();
        ctx::<Sequential>()
            .apply(&x)
            .op(Abs)
            .mask(&mask)
            .structural()
            .into(&mut y)
            .unwrap();
        assert_eq!(y.as_slice(), &[9.0, 2.0, 9.0, 4.0]);
    }

    #[test]
    fn apply_accumulates() {
        let x = Vector::from_dense(vec![1.0, 2.0]);
        let mut y = Vector::from_dense(vec![10.0, 20.0]);
        ctx::<Sequential>()
            .apply(&x)
            .op(Abs)
            .accum(Plus)
            .into(&mut y)
            .unwrap();
        assert_eq!(y.as_slice(), &[11.0, 22.0]);
    }

    #[test]
    fn apply_dim_mismatch() {
        let x = Vector::<f64>::zeros(3);
        let mut y = Vector::<f64>::zeros(4);
        assert!(ctx::<Sequential>().apply(&x).op(Abs).into(&mut y).is_err());
    }

    #[test]
    fn apply_in_place_via_same_length() {
        let x = Vector::from_dense(vec![4.0, 0.5]);
        let mut y = Vector::zeros(2);
        ctx::<Sequential>()
            .apply(&x)
            .op(MultiplicativeInverse)
            .into(&mut y)
            .unwrap();
        assert_eq!(y.as_slice(), &[0.25, 2.0]);
    }

    #[test]
    fn transform_rbgs_update_shape() {
        // The exact update of Listing 3: x[i] = (r[i] - tmp[i] + x[i]*d)/d.
        let r = Vector::from_dense(vec![10.0, 20.0, 30.0]);
        let tmp = Vector::from_dense(vec![1.0, 2.0, 3.0]);
        let diag = Vector::from_dense(vec![2.0, 4.0, 5.0]);
        let mut x = Vector::from_dense(vec![1.0, 1.0, 1.0]);
        let mask = Vector::<bool>::sparse_filled(3, vec![0, 2], true).unwrap();
        let (rs, ts, ds) = (r.as_slice(), tmp.as_slice(), diag.as_slice());
        ctx::<Sequential>()
            .transform(&mut x)
            .mask(&mask)
            .structural()
            .apply(|i, xi| {
                let d = ds[i];
                *xi = (rs[i] - ts[i] + *xi * d) / d;
            })
            .unwrap();
        assert_eq!(x.as_slice()[0], (10.0 - 1.0 + 2.0) / 2.0);
        assert_eq!(x.as_slice()[1], 1.0, "unmasked slot untouched");
        assert_eq!(x.as_slice()[2], (30.0 - 3.0 + 5.0) / 5.0);
    }

    #[test]
    fn transform_parallel_matches_sequential() {
        let n = 10_000;
        let r: Vector<f64> = Vector::from_dense((0..n).map(|i| (i % 7) as f64).collect());
        let mut x1 = Vector::from_dense((0..n).map(|i| (i % 3) as f64).collect());
        let mut x2 = x1.clone();
        let rs = r.as_slice();
        ctx::<Sequential>()
            .transform(&mut x1)
            .apply(|i, xi| {
                *xi = *xi * 2.0 + rs[i];
            })
            .unwrap();
        ctx::<Parallel>()
            .transform(&mut x2)
            .apply(|i, xi| {
                *xi = *xi * 2.0 + rs[i];
            })
            .unwrap();
        assert_eq!(x1.as_slice(), x2.as_slice());
    }
}
