//! Offline stand-in for the subset of the `proptest` 1.x API this
//! workspace uses. The build environment has no registry access, so the
//! workspace vendors a tiny property-testing core instead of the real
//! crate (see DESIGN.md §7).
//!
//! Differences from real proptest, by design:
//!
//! * **No shrinking.** A failing case panics with the generated inputs
//!   visible in the assertion message; cases are deterministic per
//!   (test name, case index), so a failure reproduces exactly.
//! * **No persistence.** `.proptest-regressions` files are ignored.
//! * Strategies are plain generators: `generate(rng) -> Value`.
//!
//! The supported surface — `proptest!`, `prop_assert!`/`_eq!`/`_ne!`,
//! `prop_oneof!`, `Just`, `any`, numeric-range and `&str`-regex
//! strategies, tuples, `prop::collection::vec`, `prop_map`,
//! `prop_flat_map` — is exactly what the workspace's test suites call.

pub mod strategy;

/// Test-runner configuration and deterministic RNG plumbing.
pub mod test_runner {
    use rand::prelude::*;

    /// Per-block configuration; only `cases` is honored.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases each test runs.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    impl ProptestConfig {
        /// Config running `cases` random cases per test.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// The RNG handed to strategies.
    pub type TestRng = StdRng;

    /// Deterministic RNG for one test case: seeded from the fully
    /// qualified test name and the case index, so runs are reproducible
    /// and independent of execution order.
    pub fn rng_for(test_name: &str, case: u64) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        StdRng::seed_from_u64(h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use core::ops::{Range, RangeInclusive};
    use rand::prelude::*;

    /// Inclusive length range for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange { min: r.start, max: r.end - 1 }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange { min: *r.start(), max: *r.end() }
        }
    }

    /// Strategy producing `Vec`s of `element` with length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = rng.gen_range(self.size.min..=self.size.max);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Common imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest};
}

/// Defines `#[test]` functions that run their body over many generated
/// inputs. Supports an optional `#![proptest_config(..)]` header and any
/// number of `fn name(pat in strategy, ..) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with ($cfg) $($rest)*);
    };
    (@with ($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::test_runner::ProptestConfig = $cfg;
                let __strategies = ($(&$strat,)+);
                for __case in 0..__config.cases as u64 {
                    let mut __rng = $crate::test_runner::rng_for(
                        concat!(module_path!(), "::", stringify!($name)),
                        __case,
                    );
                    let ($($pat,)+) =
                        $crate::strategy::Strategy::generate(&__strategies, &mut __rng);
                    // run the body in a Result-returning closure so
                    // `return Ok(())` skips a case, as in real proptest
                    let __outcome = (|| -> ::core::result::Result<(), ::core::convert::Infallible> {
                        $body
                        Ok(())
                    })();
                    if let Err(__never) = __outcome {
                        match __never {}
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Skips the current case when its precondition fails. Without
/// shrinking there is nothing to resume, so the case simply ends.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Ok(());
        }
    };
}

/// Strategy picking uniformly among the listed strategies (all must
/// yield the same value type).
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::strategy::Strategy::boxed($s)),+])
    };
}
