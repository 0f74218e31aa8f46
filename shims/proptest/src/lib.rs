//! Offline stand-in for `proptest`.
//!
//! A miniature property-testing harness exposing the API subset the
//! workspace uses: the [`proptest!`] macro, [`Strategy`] with
//! `prop_map`, range/tuple/`Just`/`prop_oneof!` strategies,
//! `any::<T>()`, `collection::vec`, and the `prop_assert*` macros.
//!
//! Differences from real proptest, deliberately accepted offline:
//! no shrinking (failures report the generated inputs via the panic
//! message instead), and a deterministic per-test RNG seeded from the
//! test name so failures reproduce exactly on re-run. Setting
//! `PROPTEST_RNG_SEED` to a `u64` folds it into every property's seed,
//! so a run explores another fixed set of cases; unset, the cases are
//! the name-seeded ones.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Test-runner plumbing: configuration and the per-test RNG.
pub mod test_runner {
    use super::*;

    /// Configuration accepted by `#![proptest_config(..)]`.
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Number of random cases each property runs.
        pub cases: u32,
        /// Maximum `prop_assume!` rejections tolerated before the test
        /// aborts (mirrors proptest's global rejection cap).
        pub max_global_rejects: u32,
    }

    impl Config {
        /// A config running `cases` random cases.
        pub fn with_cases(cases: u32) -> Self {
            Self {
                cases,
                ..Self::default()
            }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Self {
                cases: 64,
                max_global_rejects: 4096,
            }
        }
    }

    /// Deterministic RNG used to drive strategies.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        inner: SmallRng,
    }

    impl TestRng {
        /// Seeds the stream from the test's name so each property gets
        /// an independent but reproducible sequence — and, when the
        /// `PROPTEST_RNG_SEED` environment variable holds a `u64`, from
        /// that too.
        ///
        /// # Panics
        ///
        /// Panics if `PROPTEST_RNG_SEED` is set but is not a `u64`.
        pub fn deterministic(test_name: &str) -> Self {
            let mut h: u64 = 0xcbf29ce484222325;
            let mut fold = |bytes: &[u8]| {
                for &b in bytes {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x100000001b3);
                }
            };
            fold(test_name.as_bytes());
            if let Ok(seed) = std::env::var("PROPTEST_RNG_SEED") {
                let seed: u64 = seed
                    .trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("PROPTEST_RNG_SEED={seed:?} is not a u64"));
                fold(&seed.to_le_bytes());
            }
            Self {
                inner: SmallRng::seed_from_u64(h),
            }
        }

        pub(crate) fn next_u64(&mut self) -> u64 {
            use rand::RngCore;
            self.inner.next_u64()
        }

        pub(crate) fn gen_f64(&mut self) -> f64 {
            self.inner.gen::<f64>()
        }

        pub(crate) fn gen_usize(&mut self, range: Range<usize>) -> usize {
            if range.start >= range.end {
                return range.start;
            }
            self.inner.gen_range(range)
        }
    }
}

pub use test_runner::Config as ProptestConfig;

/// A generator of test-case values.
///
/// Object-safe so `prop_oneof!` can erase heterogeneous strategies with
/// the same `Value`.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut test_runner::TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Keeps only values for which `f` returns true, retrying up to a
    /// bounded number of times.
    fn prop_filter<F>(self, whence: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            f,
            whence,
        }
    }

    /// Boxes the strategy, erasing its concrete type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;
    fn generate(&self, rng: &mut test_runner::TestRng) -> T {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut test_runner::TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// Strategy produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut test_runner::TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy produced by [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    f: F,
    whence: &'static str,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;
    fn generate(&self, rng: &mut test_runner::TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.generate(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!("prop_filter rejected 1000 candidates: {}", self.whence);
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut test_runner::TestRng) -> T {
        self.0.clone()
    }
}

/// Weighted choice among boxed strategies (built by `prop_oneof!`).
pub struct Union<T> {
    options: Vec<(u32, BoxedStrategy<T>)>,
}

impl<T> Union<T> {
    /// Builds a union from `(weight, strategy)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty or all weights are zero.
    pub fn new_weighted(options: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        assert!(
            options.iter().any(|(w, _)| *w > 0),
            "prop_oneof! needs nonzero weight"
        );
        Self { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut test_runner::TestRng) -> T {
        let total: u64 = self.options.iter().map(|(w, _)| *w as u64).sum();
        let mut ticket = rng.next_u64() % total;
        for (w, s) in &self.options {
            let w = *w as u64;
            if ticket < w {
                return s.generate(rng);
            }
            ticket -= w;
        }
        unreachable!("weights exhausted")
    }
}

// ---- primitive strategies -------------------------------------------------

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut test_runner::TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                let v = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut test_runner::TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                if start == <$t>::MIN && end == <$t>::MAX {
                    return rng.next_u64() as $t;
                }
                let span = (end as i128 - start as i128 + 1) as u64;
                let v = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                (start as i128 + v as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut test_runner::TestRng) -> f64 {
        self.start + rng.gen_f64() * (self.end - self.start)
    }
}

/// Marker for `any::<T>()`: types with a canonical "arbitrary value"
/// distribution.
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut test_runner::TestRng) -> Self;
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut test_runner::TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut test_runner::TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut test_runner::TestRng) -> f64 {
        rng.gen_f64()
    }
}

impl Arbitrary for char {
    fn arbitrary(rng: &mut test_runner::TestRng) -> char {
        // Printable ASCII keeps generated identifiers/debug output tame.
        (0x20u8 + (rng.next_u64() % 95) as u8) as char
    }
}

impl<T: Arbitrary> Arbitrary for Option<T> {
    fn arbitrary(rng: &mut test_runner::TestRng) -> Option<T> {
        if rng.next_u64() & 1 == 1 {
            Some(T::arbitrary(rng))
        } else {
            None
        }
    }
}

impl<T: Arbitrary + Default + Copy, const N: usize> Arbitrary for [T; N] {
    fn arbitrary(rng: &mut test_runner::TestRng) -> [T; N] {
        let mut out = [T::default(); N];
        for slot in &mut out {
            *slot = T::arbitrary(rng);
        }
        out
    }
}

// ---- regex string strategies ----------------------------------------------

/// `&str` patterns act as string strategies, as in real proptest. The
/// shim understands the regex subset the workspace uses: literals,
/// `[a-z0-9_]`-style classes, `.`/`\PC`/`\p{..}`-style printable
/// classes, `\d`/`\w`, and the quantifiers `{n}`, `{n,m}`, `{n,}`,
/// `?`, `*`, `+`.
impl Strategy for str {
    type Value = String;
    fn generate(&self, rng: &mut test_runner::TestRng) -> String {
        generate_from_pattern(self, rng)
    }
}

fn generate_from_pattern(pattern: &str, rng: &mut test_runner::TestRng) -> String {
    const PRINTABLE: (char, char) = (' ', '~');
    let mut chars = pattern.chars().peekable();
    let mut out = String::new();
    while let Some(c) = chars.next() {
        // 1. Parse one atom into a set of inclusive char ranges.
        let set: Vec<(char, char)> = match c {
            '[' => {
                let mut set = Vec::new();
                let mut prev: Option<char> = None;
                loop {
                    match chars.next() {
                        Some(']') | None => break,
                        Some('-') if prev.is_some() && chars.peek() != Some(&']') => {
                            let lo = prev.take().expect("checked");
                            let hi = chars.next().expect("checked");
                            set.push((lo, hi));
                        }
                        Some(ch) => {
                            if let Some(p) = prev.replace(ch) {
                                set.push((p, p));
                            }
                        }
                    }
                }
                if let Some(p) = prev {
                    set.push((p, p));
                }
                set
            }
            '.' => vec![PRINTABLE],
            '\\' => match chars.next() {
                Some('d') => vec![('0', '9')],
                Some('w') => vec![('a', 'z'), ('A', 'Z'), ('0', '9'), ('_', '_')],
                Some('p') | Some('P') => {
                    // Unicode class (e.g. `\PC` = non-control): the shim
                    // approximates every such class as printable ASCII.
                    if chars.next() == Some('{') {
                        for ch in chars.by_ref() {
                            if ch == '}' {
                                break;
                            }
                        }
                    }
                    vec![PRINTABLE]
                }
                Some('n') => vec![('\n', '\n')],
                Some('t') => vec![('\t', '\t')],
                Some(other) => vec![(other, other)],
                None => break,
            },
            literal => vec![(literal, literal)],
        };
        // 2. Parse an optional quantifier.
        let (min, max) = match chars.peek() {
            Some('{') => {
                chars.next();
                let mut spec = String::new();
                for ch in chars.by_ref() {
                    if ch == '}' {
                        break;
                    }
                    spec.push(ch);
                }
                let parts: Vec<&str> = spec.splitn(2, ',').collect();
                let lo: usize = parts[0].trim().parse().unwrap_or(0);
                let hi = match parts.get(1) {
                    Some(s) if s.trim().is_empty() => lo + 8,
                    Some(s) => s.trim().parse().unwrap_or(lo),
                    None => lo,
                };
                (lo, hi)
            }
            Some('?') => {
                chars.next();
                (0, 1)
            }
            Some('*') => {
                chars.next();
                (0, 8)
            }
            Some('+') => {
                chars.next();
                (1, 8)
            }
            _ => (1, 1),
        };
        // 3. Emit.
        let reps = rng.gen_usize(min..max.max(min) + 1);
        let weight: u64 = set.iter().map(|(lo, hi)| *hi as u64 - *lo as u64 + 1).sum();
        for _ in 0..reps {
            let mut ticket = rng.next_u64() % weight.max(1);
            for (lo, hi) in &set {
                let span = *hi as u64 - *lo as u64 + 1;
                if ticket < span {
                    out.push(char::from_u32(*lo as u32 + ticket as u32).unwrap_or(*lo));
                    break;
                }
                ticket -= span;
            }
        }
    }
    out
}

/// Strategy returned by [`any`].
pub struct Any<T> {
    _marker: PhantomData<fn() -> T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut test_runner::TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The strategy of all values of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: PhantomData,
    }
}

// ---- tuple strategies -----------------------------------------------------

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut test_runner::TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);
tuple_strategy!(A, B, C, D, E, F, G);
tuple_strategy!(A, B, C, D, E, F, G, H);
tuple_strategy!(A, B, C, D, E, F, G, H, I);
tuple_strategy!(A, B, C, D, E, F, G, H, I, J);
tuple_strategy!(A, B, C, D, E, F, G, H, I, J, K);
tuple_strategy!(A, B, C, D, E, F, G, H, I, J, K, L);

// ---- collection strategies ------------------------------------------------

/// Collection strategies (`vec`).
pub mod collection {
    use super::*;

    /// Strategy for `Vec<T>` with a length drawn from `len`.
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max_exclusive: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut test_runner::TestRng) -> Vec<S::Value> {
            let len = rng.gen_usize(self.min..self.max_exclusive);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Ways of specifying a vec length.
    pub trait IntoLenRange {
        /// Converts to `(min, max_exclusive)`.
        fn bounds(self) -> (usize, usize);
    }

    impl IntoLenRange for Range<usize> {
        fn bounds(self) -> (usize, usize) {
            (self.start, self.end)
        }
    }

    impl IntoLenRange for RangeInclusive<usize> {
        fn bounds(self) -> (usize, usize) {
            (*self.start(), self.end().saturating_add(1))
        }
    }

    impl IntoLenRange for usize {
        fn bounds(self) -> (usize, usize) {
            (self, self + 1)
        }
    }

    /// The strategy of vectors whose elements come from `element` and
    /// whose length is drawn from `len`.
    pub fn vec<S: Strategy>(element: S, len: impl IntoLenRange) -> VecStrategy<S> {
        let (min, max_exclusive) = len.bounds();
        assert!(min < max_exclusive, "empty vec length range");
        VecStrategy {
            element,
            min,
            max_exclusive,
        }
    }
}

/// The glob-import surface mirrored from real proptest.
pub mod prelude {
    pub use crate::{
        any, collection, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof,
        proptest, BoxedStrategy, Just, ProptestConfig, Strategy,
    };
    /// Alias matching proptest's `prop` module re-export.
    pub mod prop {
        pub use crate::collection;
    }
}

// ---- macros ---------------------------------------------------------------

/// Defines property tests: each `fn name(arg in strategy, ..) { body }`
/// becomes a `#[test]` running `config.cases` random cases.
#[macro_export]
macro_rules! proptest {
    ( #![proptest_config($cfg:expr)] $($rest:tt)* ) => {
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Internal expansion helper for [`proptest!`]. Not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr); ) => {};
    ( ($cfg:expr);
      $(#[$meta:meta])*
      fn $name:ident ( $( $arg:pat in $strat:expr ),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::deterministic(concat!(
                module_path!(), "::", stringify!($name)
            ));
            for case in 0..config.cases {
                $( let $arg = $crate::Strategy::generate(&($strat), &mut rng); )+
                #[allow(clippy::redundant_closure_call)]
                let ran = (|| -> bool { $body true })();
                // `prop_assume!` exits the closure early returning false;
                // such cases are skipped, not counted as failures.
                let _ = (ran, case);
            }
        }
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
}

/// Asserts a condition inside a property (panics with context).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

/// Skips the current case when its precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return false;
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return false;
        }
    };
}

/// Chooses among strategies, optionally weighted (`w => strat`).
#[macro_export]
macro_rules! prop_oneof {
    ( $( $weight:expr => $strat:expr ),+ $(,)? ) => {
        $crate::Union::new_weighted(vec![
            $( ($weight as u32, $crate::Strategy::boxed($strat)) ),+
        ])
    };
    ( $( $strat:expr ),+ $(,)? ) => {
        $crate::Union::new_weighted(vec![
            $( (1u32, $crate::Strategy::boxed($strat)) ),+
        ])
    };
}

impl<T: fmt::Debug> fmt::Debug for Union<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Union({} options)", self.options.len())
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_in_bounds(x in 3u8..10, y in 0u16..=3) {
            prop_assert!((3..10).contains(&x));
            prop_assert!(y <= 3);
        }

        #[test]
        fn map_and_vec(v in collection::vec(any::<u8>(), 1..5)) {
            prop_assert!(!v.is_empty() && v.len() < 5);
        }

        #[test]
        fn assume_skips(x in any::<u8>()) {
            prop_assume!(x != 0);
            prop_assert_ne!(x, 0);
        }

        #[test]
        fn oneof_picks_member(x in prop_oneof![Just(1u8), Just(2u8)]) {
            prop_assert!(x == 1 || x == 2);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn configured_cases(pair in (any::<u8>(), any::<bool>()).prop_map(|(a, b)| (a, b))) {
            let (_a, _b) = pair;
        }
    }
}
