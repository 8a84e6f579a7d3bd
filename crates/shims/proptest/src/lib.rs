//! Offline shim for the subset of [proptest](https://docs.rs/proptest) this
//! workspace uses.
//!
//! Provides the `proptest!` / `prop_assert*` macros, the [`Strategy`] trait
//! with `prop_map` / `prop_flat_map`, range and tuple strategies,
//! `collection::vec`, and `bool::ANY`. Generation is a deterministic
//! SplitMix64 stream seeded from the test name, so every run explores the
//! same cases (reproducible CI). Failing cases are reported with their case
//! number; there is **no shrinking** — the failing value itself is printed
//! via the assertion message.

use std::fmt;
use std::ops::{Range, RangeInclusive};

/// Per-test configuration (`ProptestConfig::with_cases`).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Failure value produced by `prop_assert!` and friends.
#[derive(Debug)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Creates a failure with a message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Deterministic SplitMix64 generator.
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds deterministically from a label (typically the test name).
    pub fn deterministic(label: &str) -> Self {
        let mut seed = 0xcbf2_9ce4_8422_2325u64;
        for b in label.bytes() {
            seed ^= b as u64;
            seed = seed.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng { state: seed }
    }

    /// Seeds from a label plus a per-process invocation counter, for the
    /// nested `proptest!` closure form: without the counter, every
    /// invocation inside an outer test's case loop would replay the same
    /// stream and re-test identical inner values.
    pub fn deterministic_nested(label: &str) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static INVOCATION: AtomicU64 = AtomicU64::new(0);
        let mut rng = TestRng::deterministic(label);
        rng.state = rng.state.wrapping_add(
            INVOCATION
                .fetch_add(1, Ordering::Relaxed)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        rng
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A generator of random values (`proptest::strategy::Strategy`, minus
/// shrinking).
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values.
    fn prop_map<R, F: Fn(Self::Value) -> R>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { base: self, f }
    }

    /// Derives a dependent strategy from each generated value.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { base: self, f }
    }
}

/// Mapping strategy.
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, R, F: Fn(S::Value) -> R> Strategy for Map<S, F> {
    type Value = R;
    fn generate(&self, rng: &mut TestRng) -> R {
        (self.f)(self.base.generate(rng))
    }
}

/// Dependent (flat-mapped) strategy.
pub struct FlatMap<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.base.generate(rng)).generate(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                assert!(lo <= hi, "empty range strategy");
                let span = (hi - lo + 1) as u64;
                (lo + rng.below(span) as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// Always-`value` strategy (`proptest::strategy::Just`).
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types generatable without an explicit strategy (bare `arg: Type`
/// parameters in `proptest!`).
pub trait Arbitrary {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

int_arbitrary!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Length specification for [`vec()`]: a fixed length or a range.
    pub trait SizeRange {
        /// Draws a length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            Strategy::generate(self, rng)
        }
    }

    /// Strategy producing `Vec`s of `element` with a length drawn from
    /// `size`.
    pub fn vec<S: Strategy, L: SizeRange>(element: S, size: L) -> VecStrategy<S, L> {
        VecStrategy { element, size }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S, L> {
        element: S,
        size: L,
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Boolean strategies (`proptest::bool`).
pub mod bool {
    use super::{Strategy, TestRng};

    /// Uniform boolean strategy.
    pub struct Any;

    /// The uniform boolean strategy value (`proptest::bool::ANY`).
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// The common imports.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, Just, ProptestConfig,
        Strategy, TestCaseError,
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current case unless the operands compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: {:?} != {:?} ({} != {})",
            left, right, stringify!($left), stringify!($right)
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(*left == *right, $($fmt)+);
    }};
}

/// Fails the current case unless the operands compare unequal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: both sides equal {:?} ({} == {})",
            left,
            stringify!($left),
            stringify!($right)
        );
    }};
}

/// Property-test entry point. Two forms:
///
/// * item form — a block of `#[test]` functions whose arguments are either
///   `pattern in strategy` bindings or plain `name: Type` parameters
///   (drawn via [`Arbitrary`]), optionally preceded by
///   `#![proptest_config(...)]`;
/// * closure form — `proptest!(|(pat in strategy)| { ... })`, runs
///   immediately (used to nest dependent generation inside a test body).
#[macro_export]
macro_rules! proptest {
    (|($p:pat in $s:expr)| $body:block) => {{
        let __strategy = $s;
        let mut __rng = $crate::TestRng::deterministic_nested(concat!(file!(), ":", line!()));
        for __case in 0..$crate::ProptestConfig::default().cases {
            let $p = $crate::Strategy::generate(&__strategy, &mut __rng);
            #[allow(clippy::redundant_closure_call)]
            let __result: ::std::result::Result<(), $crate::TestCaseError> =
                (|| { $body ::std::result::Result::Ok(()) })();
            if let ::std::result::Result::Err(e) = __result {
                panic!("nested proptest case #{} failed: {}", __case, e);
            }
        }
    }};
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { @cfg($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`] (item-form expansion).
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (@cfg($cfg:expr)) => {};
    // `pattern in strategy` parameters.
    (@cfg($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($p:pat in $s:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::TestRng::deterministic(stringify!($name));
            let __strategies = ($($s,)+);
            for __case in 0..__cfg.cases {
                let ($($p,)+) = $crate::Strategy::generate(&__strategies, &mut __rng);
                #[allow(clippy::redundant_closure_call)]
                let __result: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(e) = __result {
                    panic!("proptest case #{} of {} failed: {}", __case, stringify!($name), e);
                }
            }
        }
        $crate::__proptest_items! { @cfg($cfg) $($rest)* }
    };
    // Plain `name: Type` parameters drawn via `Arbitrary`.
    (@cfg($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($a:ident : $ty:ty),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::TestRng::deterministic(stringify!($name));
            for __case in 0..__cfg.cases {
                $(let $a: $ty = $crate::Arbitrary::arbitrary(&mut __rng);)+
                #[allow(clippy::redundant_closure_call)]
                let __result: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(e) = __result {
                    panic!("proptest case #{} of {} failed: {}", __case, stringify!($name), e);
                }
            }
        }
        $crate::__proptest_items! { @cfg($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::TestRng::deterministic("ranges");
        for _ in 0..1000 {
            let v = Strategy::generate(&(-5i64..7), &mut rng);
            assert!((-5..7).contains(&v));
            let u = Strategy::generate(&(3usize..=9), &mut rng);
            assert!((3..=9).contains(&u));
            let f = Strategy::generate(&(-1.0f64..2.0), &mut rng);
            assert!((-1.0..2.0).contains(&f));
        }
    }

    #[test]
    fn vec_strategy_lengths() {
        let mut rng = crate::TestRng::deterministic("vecs");
        let s = crate::collection::vec(0i64..10, 2usize..5);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|x| (0..10).contains(x)));
        }
        let fixed = crate::collection::vec(0i64..10, 3usize);
        assert_eq!(fixed.generate(&mut rng).len(), 3);
    }

    #[test]
    fn generation_is_deterministic() {
        let draw = || {
            let mut rng = crate::TestRng::deterministic("same-seed");
            (0..16)
                .map(|_| Strategy::generate(&(0u64..1000), &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(), draw());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn item_form_in_args(a in 0i64..100, b in 0i64..100) {
            prop_assert!(a + b <= 198);
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn item_form_typed_args(a: bool, b: bool) {
            prop_assert_eq!(a && b, b && a);
        }

        #[test]
        fn nested_closure_form(n in 1usize..8) {
            let strategy = crate::collection::vec(0i64..10, n);
            proptest!(|(v in strategy)| {
                prop_assert_eq!(v.len(), n);
            });
        }

        #[test]
        fn early_ok_return(n in 0usize..10) {
            if n > 4 {
                return Ok(());
            }
            prop_assert!(n <= 4);
        }
    }

    #[test]
    #[should_panic(expected = "proptest case")]
    fn failures_panic_with_case_number() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]
            #[allow(unused)]
            fn always_fails(a in 0i64..10) {
                prop_assert!(a < 0, "a = {}", a);
            }
        }
        always_fails();
    }
}
