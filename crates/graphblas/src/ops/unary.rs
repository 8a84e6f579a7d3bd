//! Unary operators as zero-sized types, used by
//! [`Ctx::apply`](crate::Ctx::apply).

use super::scalar::Scalar;

/// A unary operator `T → T`.
pub trait UnaryOp<T>: Copy + Default + Send + Sync + 'static {
    /// Applies the operator.
    fn apply(a: T) -> T;
}

/// The identity function.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Identity;

/// Additive inverse (`-a`; on unsigned domains, `0 - a` wrapping).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct AdditiveInverse;

/// Multiplicative inverse (`1 / a`).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MultiplicativeInverse;

/// Absolute value.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Abs;

impl<T: Scalar> UnaryOp<T> for Identity {
    #[inline(always)]
    fn apply(a: T) -> T {
        a
    }
}

impl<T: Scalar> UnaryOp<T> for AdditiveInverse {
    #[inline(always)]
    fn apply(a: T) -> T {
        T::ZERO.sub(a)
    }
}

impl<T: Scalar> UnaryOp<T> for MultiplicativeInverse {
    #[inline(always)]
    fn apply(a: T) -> T {
        T::ONE.div(a)
    }
}

impl<T: Scalar> UnaryOp<T> for Abs {
    #[inline(always)]
    fn apply(a: T) -> T {
        a.abs_of()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity() {
        assert_eq!(<Identity as UnaryOp<f64>>::apply(3.5), 3.5);
    }

    #[test]
    fn additive_inverse() {
        assert_eq!(<AdditiveInverse as UnaryOp<f64>>::apply(3.5), -3.5);
        assert_eq!(<AdditiveInverse as UnaryOp<i32>>::apply(-4), 4);
    }

    #[test]
    fn multiplicative_inverse() {
        assert_eq!(<MultiplicativeInverse as UnaryOp<f64>>::apply(4.0), 0.25);
    }

    #[test]
    fn abs() {
        assert_eq!(<Abs as UnaryOp<f64>>::apply(-2.0), 2.0);
        assert_eq!(<Abs as UnaryOp<i64>>::apply(-2), 2);
    }
}
