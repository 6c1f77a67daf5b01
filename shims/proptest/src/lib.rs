//! Offline drop-in subset of `proptest`.
//!
//! Random-input property testing without shrinking: the [`proptest!`]
//! macro runs each property for `ProptestConfig::cases` deterministic
//! cases (seeded from the test's module path and name), and
//! `prop_assert*` failures panic with the normal assertion message.
//! Strategies cover what the workspace uses: `any::<T>()`, integer and
//! float ranges, tuples, `prop_map`, `prop_oneof!`, collection
//! strategies, and simple `"[a-z0-9]{1,12}"`-style regex literals.

use std::collections::BTreeSet;
use std::marker::PhantomData;

// ---- Deterministic RNG --------------------------------------------------

/// Splitmix64-based generator; every test case gets an independent,
/// reproducible stream.
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn new(seed: u64, case: u64) -> Self {
        TestRng {
            state: seed ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a hash of the fully-qualified test name — the per-test seed.
#[doc(hidden)]
pub fn __fn_seed(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

// ---- Config -------------------------------------------------------------

#[derive(Clone, Debug)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

// ---- Strategy -----------------------------------------------------------

/// A generator of values of type `Value`. Object-safe so `prop_oneof!`
/// can mix heterogeneous strategy types behind `Box<dyn Strategy>`.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<O, F>(self, f: F) -> strategy::Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        strategy::Map { inner: self, f }
    }
}

impl<T> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

pub mod strategy {
    use super::{Strategy, TestRng};

    /// `s.prop_map(f)`.
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// `prop_oneof!`: uniform choice between boxed arms.
    pub struct Union<T> {
        arms: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T> Union<T> {
        pub fn new(arms: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            let idx = rng.below(self.arms.len() as u64) as usize;
            self.arms[idx].generate(rng)
        }
    }

    /// Helper for `prop_oneof!` — boxes an arm with inferred value type.
    pub fn boxed<T, S: Strategy<Value = T> + 'static>(s: S) -> Box<dyn Strategy<Value = T>> {
        Box::new(s)
    }
}

// ---- any::<T>() ---------------------------------------------------------

pub trait Arbitrary {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl<const N: usize> Arbitrary for [u8; N] {
    fn arbitrary(rng: &mut TestRng) -> Self {
        let mut out = [0u8; N];
        for b in &mut out {
            *b = rng.next_u64() as u8;
        }
        out
    }
}

pub struct Any<T>(PhantomData<T>);

pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

// ---- Ranges as strategies -----------------------------------------------

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + rng.below(span) as $t
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + rng.below(span + 1) as $t
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit() * (self.end - self.start)
    }
}

// ---- Tuples of strategies -----------------------------------------------

macro_rules! impl_tuple_strategy {
    ($(($($t:ident),+))*) => {$(
        #[expect(
            non_snake_case,
            reason = "the macro reuses the tuple type parameters (A, B, ...) as value binding names"
        )]
        impl<$($t: Strategy),+> Strategy for ($($t,)+) {
            type Value = ($($t::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($t,)+) = self;
                ($($t.generate(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
    (A, B, C, D, E, F, G)
}

// ---- Regex-literal strategies -------------------------------------------

/// Supports the subset `[class]{m,n}` / `[class]{n}` / plain characters,
/// where `class` is literal chars and `a-z`-style ranges.
impl Strategy for &'static str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let mut out = String::new();
        let chars: Vec<char> = self.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let alphabet: Vec<char> = if chars[i] == '[' {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == ']')
                    .expect("regex strategy: unterminated class")
                    + i;
                let mut set = Vec::new();
                let mut j = i + 1;
                while j < close {
                    if j + 2 < close && chars[j + 1] == '-' {
                        let (lo, hi) = (chars[j] as u32, chars[j + 2] as u32);
                        for c in lo..=hi {
                            set.push(char::from_u32(c).unwrap());
                        }
                        j += 3;
                    } else {
                        set.push(chars[j]);
                        j += 1;
                    }
                }
                i = close + 1;
                set
            } else {
                let c = chars[i];
                i += 1;
                vec![c]
            };
            let (lo, hi) = if i < chars.len() && chars[i] == '{' {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == '}')
                    .expect("regex strategy: unterminated repetition")
                    + i;
                let spec: String = chars[i + 1..close].iter().collect();
                i = close + 1;
                match spec.split_once(',') {
                    Some((a, b)) => (a.parse().unwrap(), b.parse().unwrap()),
                    None => {
                        let n: usize = spec.parse().unwrap();
                        (n, n)
                    }
                }
            } else {
                (1usize, 1usize)
            };
            let count = lo + rng.below((hi - lo + 1) as u64) as usize;
            for _ in 0..count {
                out.push(alphabet[rng.below(alphabet.len() as u64) as usize]);
            }
        }
        out
    }
}

// ---- Collections --------------------------------------------------------

pub mod collection {
    use super::{BTreeSet, Strategy, TestRng};

    /// Inclusive size bounds for collection strategies.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        min: usize,
        max: usize,
    }

    impl SizeRange {
        fn sample(&self, rng: &mut TestRng) -> usize {
            self.min + rng.below((self.max - self.min + 1) as u64) as usize
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let target = self.size.sample(rng);
            let mut out = BTreeSet::new();
            // Duplicate draws shrink the set; bound the retries so tiny
            // alphabets can't loop forever.
            for _ in 0..target.saturating_mul(8) {
                if out.len() >= target {
                    break;
                }
                out.insert(self.element.generate(rng));
            }
            out
        }
    }
}

// ---- Macros -------------------------------------------------------------

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!(($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident ($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let __seed = $crate::__fn_seed(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__cfg.cases {
                let mut __rng = $crate::TestRng::new(__seed, __case as u64);
                $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)+
                $body
            }
        }
        $crate::__proptest_items!(($cfg) $($rest)*);
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $( $crate::strategy::boxed($arm) ),+
        ])
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

pub mod prelude {
    pub use crate::{any, Arbitrary, ProptestConfig, Strategy, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn rng_determinism() {
        let mut a = TestRng::new(1, 2);
        let mut b = TestRng::new(1, 2);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn regex_literal_shape() {
        let strat = "[a-z0-9]{1,12}";
        let mut rng = TestRng::new(42, 0);
        for _ in 0..200 {
            let s = crate::Strategy::generate(&strat, &mut rng);
            assert!((1..=12).contains(&s.len()));
            assert!(s
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ranges_in_bounds(x in 3u64..10, y in 5u8..=6, f in 0.25f64..0.75) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((5..=6).contains(&y));
            prop_assert!((0.25..0.75).contains(&f));
        }

        #[test]
        fn oneof_and_map(v in prop_oneof![
            (0u32..5).prop_map(|n| n * 2),
            (10u32..15).prop_map(|n| n + 1),
        ]) {
            prop_assert!(v < 10 && v % 2 == 0 || (11..16).contains(&v));
        }

        #[test]
        fn collections_sized(
            xs in crate::collection::vec(any::<u8>(), 2..5),
            set in crate::collection::btree_set(0u8..4, 0..=3),
        ) {
            prop_assert!((2..5).contains(&xs.len()));
            prop_assert!(set.len() <= 3);
        }
    }
}
