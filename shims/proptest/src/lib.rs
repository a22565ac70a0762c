//! Offline stand-in for the subset of the
//! [`proptest`](https://docs.rs/proptest) crate API this workspace uses.
//!
//! The build container cannot reach crates.io, so property tests run on
//! this small, dependency-free harness instead: the [`proptest!`] macro
//! accepts the same `fn name(arg in strategy, ...) { body }` item syntax
//! (including `#![proptest_config(...)]`), generates inputs from seeded
//! [`rand::rngs::StdRng`] streams and reports the failing inputs on
//! panic. Unlike the real crate there is **no shrinking** — the first
//! failing case is reported as-is — and strategies are limited to the
//! ones the workspace uses: numeric ranges, [`arbitrary::any`], [`Just`]
//! and [`collection::vec`].
//!
//! Case generation is deterministic per test (seeded from the test's
//! module path and name), so failures reproduce across runs.
#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use strategy::{Just, Strategy};

/// Test-runner configuration and error types.
pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Configuration for a `proptest!` block.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ProptestConfig {
        /// Number of successful (non-rejected) cases each test must run.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 256 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` cases per test.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    /// Why a single generated case did not pass.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// The case was rejected by `prop_assume!` (not a failure).
        Reject(String),
        /// An assertion failed.
        Fail(String),
    }

    /// The deterministic per-case RNG: seeded from the test identity and
    /// the case index so every run generates the same input stream.
    pub fn case_rng(test_id: &str, case: u64) -> StdRng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in test_id.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        StdRng::seed_from_u64(h ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

/// Input-generation strategies.
pub mod strategy {
    use rand::rngs::StdRng;
    use rand::SampleRange;
    use std::fmt::Debug;
    use std::ops::{Range, RangeInclusive};

    /// A generator of test-case inputs.
    ///
    /// The real proptest `Strategy` produces shrinkable value trees; this
    /// stand-in just produces values.
    pub trait Strategy {
        /// The type of generated values.
        type Value: Debug;

        /// Generates one value.
        fn new_value(&self, rng: &mut StdRng) -> Self::Value;
    }

    impl<T: Copy + Debug> Strategy for Range<T>
    where
        Range<T>: SampleRange<T>,
    {
        type Value = T;

        fn new_value(&self, rng: &mut StdRng) -> T {
            self.clone().sample_single(rng)
        }
    }

    impl<T: Copy + Debug> Strategy for RangeInclusive<T>
    where
        RangeInclusive<T>: SampleRange<T>,
    {
        type Value = T;

        fn new_value(&self, rng: &mut StdRng) -> T {
            self.clone().sample_single(rng)
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone + Debug>(pub T);

    impl<T: Clone + Debug> Strategy for Just<T> {
        type Value = T;

        fn new_value(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;

        fn new_value(&self, rng: &mut StdRng) -> Self::Value {
            (**self).new_value(rng)
        }
    }
}

/// `any::<T>()` support.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::fmt::Debug;
    use std::marker::PhantomData;

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary: Sized + Debug {
        /// Generates an unconstrained value.
        fn arbitrary(rng: &mut StdRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),* $(,)?) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut StdRng) -> Self {
                    rng.gen::<$t>()
                }
            }
        )*};
    }

    impl_arbitrary_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut StdRng) -> Self {
            rng.gen::<bool>()
        }
    }

    /// The strategy returned by [`any`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(PhantomData<T>);

    /// The canonical full-range strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn new_value(&self, rng: &mut StdRng) -> T {
            T::arbitrary(rng)
        }
    }
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::ops::Range;

    /// Vector lengths: either an exact size or a half-open range.
    pub trait IntoSizeRange {
        /// Draws a concrete length.
        fn pick_len(&self, rng: &mut StdRng) -> usize;
    }

    impl IntoSizeRange for usize {
        fn pick_len(&self, _rng: &mut StdRng) -> usize {
            *self
        }
    }

    impl IntoSizeRange for Range<usize> {
        fn pick_len(&self, rng: &mut StdRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    /// Generates `Vec`s of `element` values with a length drawn from
    /// `len` (an exact `usize` or a `Range<usize>`).
    pub fn vec<S: Strategy, L: IntoSizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }

    impl<S: Strategy, L: IntoSizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;

        fn new_value(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = self.len.pick_len(rng);
            (0..n).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// The glob-import surface tests use (`use proptest::prelude::*`).
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};

    /// Alias module so `prop::collection::vec(..)` resolves.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Rejects the current case (it does not count towards the case budget)
/// unless the condition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                ::std::string::String::from(stringify!($cond)),
            ));
        }
    };
}

/// Fails the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                ::std::format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {} ({})\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            ::std::format!($($fmt)+),
            l,
            r
        );
    }};
}

/// Fails the current case if the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Declares property tests.
///
/// Accepts the same surface syntax as the real crate for the forms this
/// workspace uses:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(24))]
///
///     #[test]
///     fn my_property(x in 0usize..10, seed in any::<u64>()) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let test_id = concat!(module_path!(), "::", stringify!($name));
            let mut accepted: u32 = 0;
            let mut case: u64 = 0;
            while accepted < config.cases {
                if case > config.cases as u64 * 32 + 1024 {
                    panic!(
                        "proptest '{}': too many rejected cases ({} accepted of {} wanted)",
                        test_id, accepted, config.cases
                    );
                }
                let mut rng = $crate::test_runner::case_rng(test_id, case);
                case += 1;
                $(let $arg = $crate::strategy::Strategy::new_value(&($strat), &mut rng);)+
                let inputs = {
                    let mut s = ::std::string::String::new();
                    $(s.push_str(&::std::format!(
                        "  {} = {:?}\n", stringify!($arg), $arg
                    ));)+
                    s
                };
                let outcome: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                    (move || {
                        $body
                        ::core::result::Result::Ok(())
                    })();
                match outcome {
                    ::core::result::Result::Ok(()) => accepted += 1,
                    ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                    ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest '{}' failed at case {}:\n{}\ninputs:\n{}",
                            test_id,
                            case - 1,
                            msg,
                            inputs
                        );
                    }
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_respected(x in 3usize..9, y in 0.0f64..1.0, z in 1i8..=5) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((0.0..1.0).contains(&y));
            prop_assert!((1..=5).contains(&z));
        }

        #[test]
        fn vec_strategy_lengths(v in prop::collection::vec(any::<i8>(), 8..16), w in prop::collection::vec(any::<u64>(), 4)) {
            prop_assert!((8..16).contains(&v.len()));
            prop_assert_eq!(w.len(), 4);
        }

        #[test]
        fn assume_rejects_without_failing(a in 0usize..100) {
            prop_assume!(a % 2 == 0);
            prop_assert_eq!(a % 2, 0);
        }

        #[test]
        fn just_yields_value(v in Just(41usize)) {
            prop_assert_eq!(v, 41);
        }
    }

    #[test]
    fn any_u64_varies() {
        let mut rng = crate::test_runner::case_rng("t", 0);
        let s = any::<u64>();
        let a = s.new_value(&mut rng);
        let b = s.new_value(&mut rng);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_panics_with_inputs() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]
            #[allow(dead_code)]
            fn always_fails(x in 0usize..4) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        always_fails();
    }
}
