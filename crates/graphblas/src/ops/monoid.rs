//! Monoids: associative binary operators with an identity element.
//!
//! Reductions ([`Ctx::reduce`](crate::Ctx::reduce), the additive part of
//! [`Ctx::mxv`](crate::Ctx::mxv)) fold
//! over a monoid; the identity is what empty rows and masked-out elements
//! contribute. Associativity + identity is exactly what lets the parallel
//! backend split a fold into per-chunk partial folds — the algebraic
//! "performance semantics" the paper's §II-H describes.

use super::binary::{BinaryOp, Land, Lor, Max, Min, Plus, Times};
use super::scalar::Scalar;

/// A [`BinaryOp`] that is associative and has an identity element in `T`.
///
/// # Contract
///
/// `apply` must be associative and `apply(identity(), x) == x == apply(x,
/// identity())` for all `x`. The parallel backend relies on this to
/// re-associate folds; property tests in `tests/algebra.rs` check it on the
/// provided implementations.
pub trait Monoid<T>: BinaryOp<T> {
    /// The identity element of the operator.
    fn identity() -> T;
}

impl<T: Scalar> Monoid<T> for Plus {
    #[inline(always)]
    fn identity() -> T {
        T::ZERO
    }
}

impl<T: Scalar> Monoid<T> for Times {
    #[inline(always)]
    fn identity() -> T {
        T::ONE
    }
}

impl<T: Scalar> Monoid<T> for Min {
    #[inline(always)]
    fn identity() -> T {
        T::MAX_VALUE
    }
}

impl<T: Scalar> Monoid<T> for Max {
    #[inline(always)]
    fn identity() -> T {
        T::MIN_VALUE
    }
}

impl<T: Scalar> Monoid<T> for Lor {
    #[inline(always)]
    fn identity() -> T {
        T::ZERO
    }
}

impl<T: Scalar> Monoid<T> for Land {
    #[inline(always)]
    fn identity() -> T {
        T::ONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_identity<M: Monoid<f64>>(samples: &[f64]) -> bool {
        samples
            .iter()
            .all(|&x| M::apply(M::identity(), x) == x && M::apply(x, M::identity()) == x)
    }

    #[test]
    fn identities_hold_f64() {
        let samples = [-3.5, -1.0, 0.0, 0.25, 7.0];
        assert!(is_identity::<Plus>(&samples));
        assert!(is_identity::<Times>(&samples));
        assert!(is_identity::<Min>(&samples));
        assert!(is_identity::<Max>(&samples));
    }

    #[test]
    fn identities_hold_i32() {
        for x in [i32::MIN, -7, 0, 3, i32::MAX] {
            assert_eq!(
                <Plus as BinaryOp<i32>>::apply(<Plus as Monoid<i32>>::identity(), x),
                x
            );
            assert_eq!(
                <Min as BinaryOp<i32>>::apply(<Min as Monoid<i32>>::identity(), x),
                x
            );
            assert_eq!(
                <Max as BinaryOp<i32>>::apply(<Max as Monoid<i32>>::identity(), x),
                x
            );
        }
    }

    #[test]
    fn logical_monoids() {
        assert!(!<Lor as Monoid<bool>>::identity());
        assert!(<Land as Monoid<bool>>::identity());
        assert_eq!(<Lor as Monoid<f64>>::identity(), 0.0);
        assert_eq!(<Land as Monoid<f64>>::identity(), 1.0);
    }
}
