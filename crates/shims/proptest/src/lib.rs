//! Offline stand-in for the `proptest` property-testing crate.
//!
//! Implements the subset of the proptest API the workspace's test suites
//! use: the [`proptest!`] macro (with an optional
//! `#![proptest_config(...)]` header), range/tuple/`Just`/`prop_oneof!`
//! strategies, `prop_map`, `prop::collection::{vec, hash_set}`,
//! `any::<T>()`, `prop::sample::Index`, and the `prop_assert*` /
//! `prop_assume!` macros.
//!
//! Differences from real proptest, by design:
//!
//! - **Deterministic**: the RNG for every test case is seeded from the
//!   test's module path, name, and case number, so a failure reproduces
//!   exactly on re-run and across machines. (Real proptest persists
//!   failing seeds in a regressions file; the shim does not need one.)
//! - **No shrinking**: a failing case reports the case number and
//!   message. Failing inputs tend to be readable because the generators
//!   here draw uniformly rather than biasing toward extremes.
//! - **Case count**: 256 by default, as in real proptest, overridable per
//!   suite via `ProptestConfig::with_cases` or globally with the
//!   `PROPTEST_CASES` environment variable.

pub mod arbitrary;
pub mod collection;
pub mod sample;
pub mod strategy;
pub mod test_runner;

pub mod prelude {
    //! Mirror of `proptest::prelude`: glob-import to write property tests.
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    /// Real proptest re-exports the crate root as `prop` so tests can say
    /// `prop::collection::vec(...)` after a prelude glob import.
    pub use crate as prop;
}

/// Defines property tests: each `fn name(pat in strategy, ...) { body }`
/// item becomes a `#[test]` running `cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!(($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            let __cases = __config.effective_cases();
            let __test_path = concat!(module_path!(), "::", stringify!($name));
            for __case in 0..__cases {
                let mut __rng = $crate::test_runner::TestRng::for_case(__test_path, __case);
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                let __outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                match __outcome {
                    ::std::result::Result::Ok(()) => {}
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(__msg)) => {
                        panic!(
                            "property '{}' failed at case {}/{} (deterministic seed; \
                             rerun reproduces it): {}",
                            stringify!($name), __case, __cases, __msg
                        );
                    }
                }
            }
        }
        $crate::__proptest_items!(($cfg) $($rest)*);
    };
}

/// `prop_assert!(cond)` / `prop_assert!(cond, fmt...)`: fail the current
/// case (without panicking through user code) when `cond` is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)));
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// `prop_assert_eq!(a, b)`: fail the case when `a != b`, showing both.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (__l, __r) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($lhs), stringify!($rhs), __l, __r
        );
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$lhs, &$rhs);
        $crate::prop_assert!(*__l == *__r, $($fmt)+);
    }};
}

/// `prop_assert_ne!(a, b)`: fail the case when `a == b`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (__l, __r) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($lhs), stringify!($rhs), __l
        );
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$lhs, &$rhs);
        $crate::prop_assert!(*__l != *__r, $($fmt)+);
    }};
}

/// `prop_assume!(cond)`: silently discard the current case when `cond`
/// does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                concat!("assumption failed: ", stringify!($cond)),
            ));
        }
    };
}

/// `prop_oneof![s1, s2, ...]`: choose uniformly among strategies that all
/// yield the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}
