//! Offline, API-compatible subset of the `proptest` crate.
//!
//! Supports the surface this workspace's property tests use: the
//! [`proptest!`] macro (with `#![proptest_config(..)]`), assertion
//! macros, the [`Strategy`](strategy::Strategy) trait with `prop_map`,
//! range and tuple strategies, `prop::collection::vec` and
//! `prop::bool::ANY`.
//!
//! Differences from upstream: no shrinking (a failing case panics with
//! the assertion message and the generation seed), and case generation
//! is seeded deterministically from each test's module path and name.

#![forbid(unsafe_code)]

/// Test-runner configuration and failure plumbing.
pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The deterministic generator used to produce test cases.
    pub type TestRng = StdRng;

    /// Configuration accepted by `#![proptest_config(..)]`.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of accepted (non-rejected) cases to run per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A configuration running `cases` cases.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        /// 64 cases, overridable through the `PROPTEST_CASES`
        /// environment variable — the same knob upstream proptest
        /// honours, used by the scheduled CI run to sweep the kernel
        /// and streamed-pool equivalence properties much deeper than a
        /// per-PR run can afford. (Tests pinning an explicit
        /// `with_cases(..)` are unaffected.)
        fn default() -> ProptestConfig {
            let cases = std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(64);
            ProptestConfig { cases }
        }
    }

    /// Why a single generated case did not pass.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        /// The case was rejected by `prop_assume!` — try another.
        Reject(String),
        /// An assertion failed — the property does not hold.
        Fail(String),
    }

    impl TestCaseError {
        /// A rejection (from `prop_assume!`).
        pub fn reject(reason: impl Into<String>) -> TestCaseError {
            TestCaseError::Reject(reason.into())
        }

        /// A failure (from `prop_assert!` and friends).
        pub fn fail(reason: impl Into<String>) -> TestCaseError {
            TestCaseError::Fail(reason.into())
        }
    }

    /// Result type the body of each generated case evaluates to.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Deterministic per-test generator, seeded from the test's name.
    pub fn new_rng(test_path: &str) -> TestRng {
        // FNV-1a over the fully qualified test name.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_path.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng::seed_from_u64(h)
    }
}

/// Value-generation strategies.
pub mod strategy {
    use std::ops::{Range, RangeInclusive};

    use rand::Rng;

    use crate::test_runner::TestRng;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map {
                source: self,
                map: f,
            }
        }
    }

    /// The strategy returned by [`Strategy::prop_map`].
    #[derive(Clone, Debug)]
    pub struct Map<S, F> {
        source: S,
        map: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.map)(self.source.generate(rng))
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! range_strategies {
        ($($t:ty),* $(,)?) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    range_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    macro_rules! tuple_strategies {
        ($(($($name:ident),+))*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategies! {
        (A)
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
        (A, B, C, D, E, F)
    }
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use std::ops::Range;

    use rand::Rng;

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Admissible lengths for a generated collection.
    #[derive(Clone, Debug)]
    pub struct SizeRange(Range<usize>);

    impl From<usize> for SizeRange {
        fn from(len: usize) -> SizeRange {
            SizeRange(len..len + 1)
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(range: Range<usize>) -> SizeRange {
            SizeRange(range)
        }
    }

    /// The strategy returned by [`vec`](fn@self::vec).
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates `Vec`s whose length is drawn from `size` (a fixed
    /// `usize` or a `Range<usize>`) and whose elements come from
    /// `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.0.clone());
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Boolean strategies (`prop::bool`).
pub mod bool {
    use rand::Rng;

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// The strategy type of [`ANY`].
    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    /// Generates `true` and `false` with equal probability.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;

        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.gen_bool(0.5)
        }
    }
}

/// The `prop::` namespace used by call sites (`prop::collection::vec`,
/// `prop::bool::ANY`).
pub mod prop {
    pub use crate::bool;
    pub use crate::collection;
}

/// Everything a property test needs, importable in one line.
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (left, right) => {
                $crate::prop_assert!(
                    *left == *right,
                    "assertion failed: `{:?}` == `{:?}`",
                    left,
                    right
                );
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (left, right) => {
                $crate::prop_assert!(*left == *right, $($fmt)+);
            }
        }
    };
}

/// Fails the current case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (left, right) => {
                $crate::prop_assert!(
                    *left != *right,
                    "assertion failed: `{:?}` != `{:?}`",
                    left,
                    right
                );
            }
        }
    };
}

/// Rejects the current case (without failing the test) unless `cond`
/// holds; the runner draws a fresh case instead.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
}

/// Declares property tests: each `fn name(arg in strategy, ..) { body }`
/// becomes a `#[test]` running `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl $cfg; $($rest)*);
    };
    (@impl $cfg:expr; $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::test_runner::ProptestConfig = $cfg;
                let mut rng = $crate::test_runner::new_rng(concat!(
                    module_path!(), "::", stringify!($name)
                ));
                let mut accepted: u32 = 0;
                let mut attempts: u32 = 0;
                let max_attempts = cfg.cases.saturating_mul(20).max(1_000);
                while accepted < cfg.cases {
                    attempts += 1;
                    assert!(
                        attempts <= max_attempts,
                        "proptest: too many rejected cases ({} accepted of {} wanted)",
                        accepted,
                        cfg.cases,
                    );
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)*
                    let outcome: $crate::test_runner::TestCaseResult = (|| {
                        $body
                        ::core::result::Result::Ok(())
                    })();
                    match outcome {
                        ::core::result::Result::Ok(()) => accepted += 1,
                        ::core::result::Result::Err(
                            $crate::test_runner::TestCaseError::Reject(_),
                        ) => {}
                        ::core::result::Result::Err(
                            $crate::test_runner::TestCaseError::Fail(msg),
                        ) => {
                            panic!(
                                "proptest case {} of {} failed: {}\n(no shrinking in the offline compat shim)",
                                accepted + 1,
                                cfg.cases,
                                msg,
                            );
                        }
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@impl $crate::test_runner::ProptestConfig::default(); $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn addition_commutes(a in 0u32..1000, b in 0u32..1000) {
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn mapped_strategy_applies(v in (0u8..10).prop_map(|x| x as u32 * 2)) {
            prop_assert!(v % 2 == 0);
            prop_assert!(v < 20, "v was {}", v);
        }

        #[test]
        fn vec_respects_size(xs in prop::collection::vec((0u64..5, prop::bool::ANY), 1..8)) {
            prop_assert!(!xs.is_empty() && xs.len() < 8);
            for (n, _flag) in xs {
                prop_assert!(n < 5);
            }
        }

        #[test]
        fn assume_rejects(n in 0u32..10) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }
}
