//! Offline drop-in subset of the `rand` crate.
//!
//! The build environment has no registry access, so the workspace vendors
//! the tiny slice of the `rand` API it actually uses: [`RngCore`],
//! [`SeedableRng::seed_from_u64`], [`rngs::StdRng`], and the [`Rng`]
//! extension methods `gen`, `gen_range` and `gen_bool`.
//!
//! `StdRng` here is xoshiro256++ seeded via SplitMix64 — a different
//! stream than upstream `rand`'s ChaCha-based `StdRng`, but with the same
//! contract the workspace relies on: deterministic per seed, uniform, and
//! independent across seeds.

/// Core RNG interface (subset of `rand_core::RngCore`).
pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

/// Seedable construction (subset of `rand_core::SeedableRng`).
pub trait SeedableRng: Sized {
    fn seed_from_u64(state: u64) -> Self;
}

fn splitmix64(z: &mut u64) -> u64 {
    *z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut x = *z;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

pub mod rngs {
    use super::*;

    /// xoshiro256++ behind the name the workspace expects.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            let mut z = state;
            StdRng {
                s: [
                    splitmix64(&mut z),
                    splitmix64(&mut z),
                    splitmix64(&mut z),
                    splitmix64(&mut z),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }

        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let v = self.next_u64().to_le_bytes();
                chunk.copy_from_slice(&v[..chunk.len()]);
            }
        }
    }
}

/// Types `Rng::gen` can produce (stand-in for `Standard: Distribution<T>`).
pub trait SampleStandard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl SampleStandard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl SampleStandard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_standard_uint {
    ($($t:ty),*) => {$(
        impl SampleStandard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_uint!(u8, u16, u32, u64, usize);

/// Ranges `Rng::gen_range` accepts.
pub trait SampleRange {
    type Output;
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> Self::Output;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end - self.start) as u128;
                let v = (rng.next_u64() as u128 * span) >> 64;
                self.start + v as $t
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi - lo) as u128 + 1;
                let v = (rng.next_u64() as u128 * span) >> 64;
                lo + v as $t
            }
        }
    )*};
}
impl_sample_range!(u8, u16, u32, u64, usize);

/// Convenience extension methods (subset of `rand::Rng`).
pub trait Rng: RngCore {
    fn gen<T: SampleStandard>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<Rg: SampleRange>(&mut self, range: Rg) -> Rg::Output {
        range.sample_from(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p));
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(StdRng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut r = StdRng::seed_from_u64(1);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn gen_range_bounds() {
        let mut r = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = r.gen_range(5..10usize);
            assert!((5..10).contains(&v));
            let w: u8 = r.gen_range(1..=255u8);
            assert!(w >= 1);
        }
    }

    #[test]
    fn gen_f64_unit_interval() {
        let mut r = StdRng::seed_from_u64(4);
        let mut lo = 0;
        for _ in 0..1000 {
            let v: f64 = r.gen();
            assert!((0.0..1.0).contains(&v));
            if v < 0.5 {
                lo += 1;
            }
        }
        assert!((300..700).contains(&lo));
    }
}
