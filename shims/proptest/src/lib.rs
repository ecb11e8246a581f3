//! Offline stand-in for [proptest](https://crates.io/crates/proptest).
//!
//! Implements the slice of the proptest API this workspace's property tests
//! use: the [`Strategy`] trait with `prop_map` / `prop_flat_map`, range and
//! tuple strategies, `proptest::collection::vec`, the [`proptest!`] macro,
//! and `prop_assert!` / `prop_assert_eq!`. Tests run a fixed number of
//! deterministic random cases (seeded per test from the test name, so runs
//! are reproducible); there is **no shrinking** — on failure the assert
//! reports the raw failing case. Swap in the real crate for shrinking and
//! persistence.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The deterministic case generator handed to strategies.
pub type TestRng = StdRng;

/// Run-time configuration accepted by `#![proptest_config(...)]`.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases per test.
    pub cases: u32,
    /// Accepted for compatibility; unused (no shrinking in the shim).
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 256,
            max_shrink_iters: 0,
        }
    }
}

/// A generator of random values of type `Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<R, F: Fn(Self::Value) -> R>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { base: self, f }
    }

    /// Feeds generated values into a strategy-producing `f` and draws from
    /// the produced strategy.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { base: self, f }
    }
}

/// `prop_map` adapter.
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

/// `prop_flat_map` adapter.
pub struct FlatMap<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;

    fn generate(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.base.generate(rng)).generate(rng)
    }
}

/// A strategy that always yields clones of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
range_strategy!(usize, u64, u32, i64, i32);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        rng.gen_range(self.clone())
    }
}

impl Strategy for std::ops::Range<f32> {
    type Value = f32;

    fn generate(&self, rng: &mut TestRng) -> f32 {
        rng.gen_range(self.clone())
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7)
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Element count for [`vec()`]: a fixed size or a range of sizes.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_exclusive: n + 1,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            SizeRange {
                lo: r.start,
                hi_exclusive: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi_exclusive: *r.end() + 1,
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with a size drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = if self.size.lo + 1 == self.size.hi_exclusive {
                self.size.lo
            } else {
                rng.gen_range(self.size.lo..self.size.hi_exclusive)
            };
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Seeds the per-test generator. Deterministic per test name; set
/// `PROPTEST_SEED` to explore a different stream.
pub fn rng_for_test(test_name: &str) -> TestRng {
    let base: u64 = std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x4D47_4449_4646);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    TestRng::seed_from_u64(base ^ h)
}

/// Asserts inside a property test (no shrinking; delegates to `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Equality assert inside a property test (delegates to `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Inequality assert inside a property test (delegates to `assert_ne!`).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Declares property tests: each `fn name(binding in strategy, ...)` body
/// runs for `cases` deterministic random draws.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_tests! { config = $config; $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_tests! {
            config = <$crate::ProptestConfig as ::std::default::Default>::default();
            $($rest)*
        }
    };
}

/// Internal expansion of [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (
        config = $config:expr;
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($binding:pat in $strategy:expr),* $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $config;
                let mut __rng = $crate::rng_for_test(concat!(module_path!(), "::", stringify!($name)));
                for __case in 0..__config.cases {
                    $(
                        let $binding = $crate::Strategy::generate(&($strategy), &mut __rng);
                    )*
                    $body
                }
            }
        )*
    };
}

/// One-stop imports mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    fn pair() -> impl Strategy<Value = (usize, usize)> {
        (1usize..10).prop_flat_map(|n| (1usize..n + 1, n..n + 1).prop_map(|(a, b)| (a, b)))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..17, y in -2.0..4.5f64) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-2.0..4.5).contains(&y));
        }

        #[test]
        fn vec_strategy_respects_size((n, v) in (1usize..20).prop_flat_map(|n| {
            (collection::vec(-1.0..1.0f64, n), n..n + 1).prop_map(|(v, n)| (n, v))
        })) {
            prop_assert_eq!(v.len(), n);
            prop_assert!(v.iter().all(|x| (-1.0..1.0).contains(x)));
        }

        #[test]
        fn flat_map_composes(p in pair()) {
            let (a, b) = p;
            prop_assert!(a <= b);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut r1 = crate::rng_for_test("some::test");
        let mut r2 = crate::rng_for_test("some::test");
        let s = 0.0..1.0f64;
        for _ in 0..16 {
            assert_eq!(
                crate::Strategy::generate(&s, &mut r1).to_bits(),
                crate::Strategy::generate(&s, &mut r2).to_bits()
            );
        }
    }
}
