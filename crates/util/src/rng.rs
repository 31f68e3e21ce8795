//! Seedable, portable pseudo-random number generation.
//!
//! The generator is xoshiro256** (Blackman & Vigna) seeded through
//! SplitMix64 — the standard construction: fast, passes BigCrush, and
//! fully deterministic across platforms for a fixed seed, which the
//! reproducibility story of the experiments depends on.
//!
//! The trait layout mirrors the subset of `rand`'s API the workspace
//! uses (`Rng::gen_range` / `gen` / `gen_bool`, `SeedableRng`,
//! `SliceRandom::shuffle`) so call sites only swap their imports.

use std::ops::{Range, RangeInclusive};

/// Raw 64-bit generator interface; everything else is derived from it.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Construction from a 64-bit seed (the only seeding the workspace uses).
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// The workspace's standard generator: xoshiro256**.
#[derive(Clone, Debug)]
pub struct StdRng {
    s: [u64; 4],
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into the 256-bit state; its
        // output is equidistributed, so the all-zero state (the one state
        // xoshiro cannot leave) is unreachable in practice, but guard
        // anyway to keep the constructor total.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut s = [next(), next(), next(), next()];
        if s == [0, 0, 0, 0] {
            s = [0xDEAD_BEEF, 1, 2, 3];
        }
        StdRng { s }
    }
}

impl RngCore for StdRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
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

/// Uniform value in `[0, span)` by widening multiply (Lemire's method
/// without the rejection step: the bias is < 2⁻⁶⁴·span, irrelevant for
/// the spans used here, and keeping it branch-free keeps the stream
/// deterministic and cheap).
#[inline]
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    ((rng.next_u64() as u128 * span as u128) >> 64) as u64
}

/// Uniform `f64` in `[0, 1)` with 53 random bits.
#[inline]
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Uniform `f32` in `[0, 1)` with 24 random bits.
#[inline]
fn unit_f32<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
    (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
}

/// Types `gen::<T>()` can produce.
pub trait Standard: Sized {
    fn generate<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f32 {
    #[inline]
    fn generate<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f32(rng)
    }
}

impl Standard for f64 {
    #[inline]
    fn generate<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng)
    }
}

impl Standard for u32 {
    #[inline]
    fn generate<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for u64 {
    #[inline]
    fn generate<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for usize {
    #[inline]
    fn generate<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Standard for bool {
    #[inline]
    fn generate<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Types that can be drawn uniformly from a range.
pub trait SampleUniform: Copy + PartialOrd {
    fn sample_between<R: RngCore + ?Sized>(
        rng: &mut R,
        low: Self,
        high: Self,
        inclusive: bool,
    ) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_between<R: RngCore + ?Sized>(
                rng: &mut R,
                low: Self,
                high: Self,
                inclusive: bool,
            ) -> Self {
                // Work in u128 so `low..=high` spanning the full domain
                // cannot overflow the span computation.
                let lo = low as i128;
                let hi = high as i128;
                let span = (hi - lo) as u128 + if inclusive { 1 } else { 0 };
                if span == 0 || span > u64::MAX as u128 {
                    return (lo + rng.next_u64() as i128) as $t;
                }
                (lo + below(rng, span as u64) as i128) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f32 {
    #[inline]
    fn sample_between<R: RngCore + ?Sized>(
        rng: &mut R,
        low: Self,
        high: Self,
        _inclusive: bool,
    ) -> Self {
        low + (high - low) * unit_f32(rng)
    }
}

impl SampleUniform for f64 {
    #[inline]
    fn sample_between<R: RngCore + ?Sized>(
        rng: &mut R,
        low: Self,
        high: Self,
        _inclusive: bool,
    ) -> Self {
        low + (high - low) * unit_f64(rng)
    }
}

/// Range forms accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "gen_range on an empty range");
        T::sample_between(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "gen_range on an empty range");
        T::sample_between(rng, lo, hi, true)
    }
}

/// User-facing draw methods, blanket-implemented over any [`RngCore`].
pub trait Rng: RngCore {
    #[inline]
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::generate(self)
    }

    #[inline]
    fn gen_range<T: SampleUniform, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        unit_f64(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Standard normal `f32` via Box–Muller (used for Gaussian feature
/// synthesis; one of the two variates is discarded to keep the draw
/// count per call fixed, which keeps downstream streams aligned).
fn standard_normal<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
    let u1 = unit_f64(rng).max(f64::EPSILON);
    let u2 = unit_f64(rng);
    ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
}

/// Normal `f32` with the given mean and standard deviation.
pub fn normal<R: RngCore + ?Sized>(rng: &mut R, mean: f32, std_dev: f32) -> f32 {
    mean + std_dev * standard_normal(rng)
}

/// In-place Fisher–Yates shuffle, mirroring `rand::seq::SliceRandom`.
pub trait SliceRandom {
    type Item;

    fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

    /// Uniformly chosen element, or `None` if empty.
    fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
}

impl<T> SliceRandom for [T] {
    type Item = T;

    fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            let j = below(rng, (i + 1) as u64) as usize;
            self.swap(i, j);
        }
    }

    fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[below(rng, self.len() as u64) as usize])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = rng.gen_range(3..17u32);
            assert!((3..17).contains(&v));
            let w = rng.gen_range(-5..=5i64);
            assert!((-5..=5).contains(&w));
            let f = rng.gen_range(-2.0..2.0f32);
            assert!((-2.0..2.0).contains(&f));
        }
    }

    #[test]
    fn gen_range_covers_inclusive_endpoints() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[rng.gen_range(0..=2usize)] = true;
        }
        assert_eq!(seen, [true; 3]);
    }

    #[test]
    fn unit_floats_in_half_open_interval() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let f: f32 = rng.gen();
            assert!((0.0..1.0).contains(&f));
            let d: f64 = rng.gen();
            assert!((0.0..1.0).contains(&d));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            assert!(!rng.gen_bool(0.0));
            assert!(rng.gen_bool(1.0));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert_ne!(v, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn normal_has_plausible_moments() {
        let mut rng = StdRng::seed_from_u64(13);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
