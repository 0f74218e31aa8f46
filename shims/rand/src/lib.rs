//! Offline stand-in for `rand`.
//!
//! Deterministic pseudo-random generation for simulation and testing:
//! a splitmix64/xoshiro256** core behind the `Rng`/`SeedableRng` API
//! subset the workspace uses (`gen`, `gen_range`, `gen_bool`,
//! `seed_from_u64`, `rngs::{SmallRng, StdRng}`). Not cryptographically
//! secure — neither caller in this workspace needs that.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Core of every generator: a source of uniform `u64`s.
pub trait RngCore {
    /// Returns the next uniform 64-bit value.
    fn next_u64(&mut self) -> u64;

    /// Returns the next uniform 32-bit value.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

/// User-facing convenience methods over [`RngCore`].
pub trait Rng: RngCore {
    /// Samples a value of type `T` from its standard distribution.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Samples uniformly from `range` (half-open or inclusive).
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        Self: Sized,
        R: SampleRange<T>,
    {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability out of range"
        );
        self.gen::<f64>() < p
    }
}

impl<R: RngCore> Rng for R {}

/// Types samplable from a generator's "standard" distribution.
pub trait Standard: Sized {
    /// Draws one value.
    fn sample<R: RngCore>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for u16 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        (rng.next_u64() >> 48) as u16
    }
}

impl Standard for u8 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl Standard for usize {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Standard for i64 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64() as i64
    }
}

impl Standard for i32 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u32() as i32
    }
}

impl Standard for i16 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        u16::sample(rng) as i16
    }
}

impl Standard for i8 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        u8::sample(rng) as i8
    }
}

impl Standard for isize {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64() as isize
    }
}

impl Standard for bool {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits → [0, 1).
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Standard for f32 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }
}

/// Ranges uniform sampling understands.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_from<R: RngCore>(self, rng: &mut R) -> T;
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end as u128).wrapping_sub(self.start as u128) as u64;
                // Multiply-shift rejection-free mapping; bias is
                // negligible for the span sizes simulation uses.
                let v = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range in gen_range");
                if start == <$t>::MIN && end == <$t>::MAX {
                    return <$t as Standard>::sample(rng) as $t;
                }
                let span = (end as i128 - start as i128 + 1) as u64;
                let v = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                (start as i128 + v as i128) as $t
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: RngCore>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range in gen_range");
        let u = f64::sample(rng);
        self.start + u * (self.end - self.start)
    }
}

impl SampleRange<f32> for Range<f32> {
    fn sample_from<R: RngCore>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "empty range in gen_range");
        let u = f32::sample(rng);
        self.start + u * (self.end - self.start)
    }
}

/// Generators constructible from a seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;

    /// Builds a generator from OS entropy — here, from the current
    /// time, since the offline shim has no OS RNG dependency.
    fn from_entropy() -> Self {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0xDEADBEEF);
        Self::seed_from_u64(nanos)
    }
}

/// The bundled generator types.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// Small, fast xoshiro256**-style generator.
    #[derive(Clone, Debug)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            // xoshiro256** step.
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            Self {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    /// "Standard" generator; in this shim, the same core as
    /// [`SmallRng`] with a differently tweaked seed schedule.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        inner: SmallRng,
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.inner.next_u64()
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            Self {
                inner: SmallRng::seed_from_u64(seed ^ 0xA5A5_A5A5_A5A5_A5A5),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SmallRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = r.gen_range(10u32..20);
            assert!((10..20).contains(&v));
            let w = r.gen_range(5i64..=5);
            assert_eq!(w, 5);
            let f = r.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn f64_unit_interval() {
        let mut r = SmallRng::seed_from_u64(3);
        for _ in 0..1000 {
            let f: f64 = r.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = SmallRng::seed_from_u64(9);
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
    }
}
