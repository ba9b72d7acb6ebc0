//! Deterministic pseudo-random numbers for the whole workspace, with no
//! external dependencies.
//!
//! The suite previously pulled in the `rand` crate for a tiny API
//! surface: `StdRng::seed_from_u64`, `random_range`, `random::<f64>()`,
//! and slice shuffling. Builds must succeed on machines with no crates.io
//! access, so this crate re-implements exactly that surface and the
//! workspace aliases it as `rand` (`rand = { package = "tscout-rng" }`),
//! leaving every `use rand::...` import unchanged.
//!
//! The generator is xoshiro256++ (Blackman & Vigna), seeded by expanding
//! a single `u64` through splitmix64 — the standard seeding procedure
//! recommended by the xoshiro authors. It is fast, has a 2^256 − 1
//! period, and passes BigCrush; it is *not* cryptographic, which is fine
//! for workload generation and sampling-field shuffles.
//!
//! Determinism contract: for a fixed seed, every method here produces an
//! identical stream across platforms and releases of this workspace.
//! Benchmarks and tests rely on that for reproducible figures.
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

pub mod rngs;
pub mod seq;

pub use rngs::StdRng;

/// Seeding from a `u64`, mirroring `rand::SeedableRng::seed_from_u64`.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Core generator: everything derives from a stream of `u64`s.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// Types producible by [`RngExt::random`] (the `Standard` distribution).
pub trait StandardSample: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl StandardSample for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Integer types usable with [`RngExt::random_range`].
pub trait SampleUniform: Copy + PartialOrd {
    fn to_i128(self) -> i128;
    fn from_i128(v: i128) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn to_i128(self) -> i128 {
                self as i128
            }
            #[inline]
            // `v` is a bound of a `$t` range or a draw between the two.
            #[allow(clippy::cast_possible_truncation)]
            fn from_i128(v: i128) -> Self {
                v as $t
            }
        }
    )*};
}

impl_sample_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Range forms accepted by [`RngExt::random_range`]. `bounds` returns the
/// inclusive `[lo, hi]` pair.
pub trait SampleRange<T: SampleUniform> {
    fn bounds(self) -> (T, T);
}

impl<T: SampleUniform> SampleRange<T> for core::ops::Range<T> {
    fn bounds(self) -> (T, T) {
        let lo = self.start.to_i128();
        let hi = self.end.to_i128();
        assert!(lo < hi, "random_range: empty range");
        (T::from_i128(lo), T::from_i128(hi - 1))
    }
}

impl<T: SampleUniform> SampleRange<T> for core::ops::RangeInclusive<T> {
    fn bounds(self) -> (T, T) {
        let (lo, hi) = self.into_inner();
        assert!(lo.to_i128() <= hi.to_i128(), "random_range: empty range");
        (lo, hi)
    }
}

/// The user-facing sampling methods, mirroring `rand::Rng` (named
/// `RngExt` here to match the imports already in the tree).
pub trait RngExt: RngCore {
    /// Uniform sample from the `Standard` distribution of `T`.
    fn random<T: StandardSample>(&mut self) -> T {
        T::sample(self)
    }

    /// Uniform integer in the given range (`a..b` or `a..=b`).
    ///
    /// Uses Lemire's multiply-shift bounded sampling; the modulo bias is
    /// below 2^-64 per draw, which is far beneath anything the workloads
    /// or sampler could observe.
    fn random_range<T: SampleUniform, R: SampleRange<T>>(&mut self, range: R) -> T {
        let (lo, hi) = range.bounds();
        let (lo_i, hi_i) = (lo.to_i128(), hi.to_i128());
        // Span fits in u64 + 1 because every supported type is ≤ 64 bits.
        let span = (hi_i - lo_i) as u128 + 1;
        if span == 1u128 << 64 {
            return T::from_i128(lo_i + self.next_u64() as i128);
        }
        let x = (u128::from(self.next_u64()) * span) >> 64;
        T::from_i128(lo_i + x as i128)
    }

    /// Bernoulli draw with probability `p`.
    fn random_bool(&mut self, p: f64) -> bool {
        self.random::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> RngExt for R {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeding_is_deterministic() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn range_bounds_are_respected() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.random_range(10..20);
            assert!((10..20).contains(&v));
            let w: i64 = rng.random_range(-5..=5);
            assert!((-5..=5).contains(&w));
            let u: usize = rng.random_range(0..1);
            assert_eq!(u, 0);
        }
    }

    #[test]
    fn range_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[rng.random_range(0..8usize)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "skewed bucket: {counts:?}");
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = rng.random::<f64>();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        assert!((sum / 10_000.0 - 0.5).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = rng.random_range(5..5);
    }

    #[test]
    fn full_u64_range_works() {
        let mut rng = StdRng::seed_from_u64(9);
        // Must not panic or truncate the span.
        let _ = rng.random_range(0..=u64::MAX);
    }
}
