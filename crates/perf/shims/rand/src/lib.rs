//! Offline stand-in for `rand` 0.9: `StdRng::seed_from_u64` plus the `Rng`
//! methods mochi-rs calls. `StdRng` here is xoshiro256** seeded through
//! splitmix64 — deterministic per seed, which is all the workspace relies on
//! (it never depends on the real crate's exact stream).

use std::ops::Range;

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// Types that can be drawn uniformly with [`Rng::random`].
pub trait Random: Sized {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

/// Types that can be drawn uniformly from a half-open range.
pub trait RandomRange: Sized {
    fn random_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self;
}

/// Buffers that [`Rng::fill`] can fill.
pub trait Fill {
    fn fill<R: RngCore + ?Sized>(&mut self, rng: &mut R);
}

pub trait Rng: RngCore {
    fn random<T: Random>(&mut self) -> T {
        T::random(self)
    }

    fn random_range<T: RandomRange>(&mut self, range: Range<T>) -> T {
        T::random_range(self, range)
    }

    fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        f64::random(self) < p
    }

    fn fill<T: Fill + ?Sized>(&mut self, dest: &mut T) {
        dest.fill(self);
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

impl Random for u64 {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Random for u32 {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl Random for usize {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> usize {
        rng.next_u64() as usize
    }
}

impl Random for bool {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

impl Random for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Random for f32 {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Unbiased draw in `[0, span)` (Lemire's multiply-and-reject).
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    assert!(span > 0, "cannot sample empty range");
    let threshold = span.wrapping_neg() % span;
    loop {
        let wide = u128::from(rng.next_u64()) * u128::from(span);
        if (wide as u64) >= threshold {
            return (wide >> 64) as u64;
        }
    }
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl RandomRange for $t {
            fn random_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<$t>) -> $t {
                assert!(range.start < range.end, "cannot sample empty range");
                let span = (range.end as i128 - range.start as i128) as u64;
                (range.start as i128 + below(rng, span) as i128) as $t
            }
        }
    )*};
}

int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl RandomRange for f64 {
    fn random_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<f64>) -> f64 {
        assert!(range.start < range.end, "cannot sample empty range");
        let v = range.start + f64::random(rng) * (range.end - range.start);
        if v < range.end {
            v
        } else {
            range.start
        }
    }
}

impl Fill for [u8] {
    fn fill<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        for chunk in self.chunks_mut(8) {
            let word = rng.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

impl<const N: usize> Fill for [u8; N] {
    fn fill<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        Fill::fill(self.as_mut_slice(), rng);
    }
}

impl Fill for Vec<u8> {
    fn fill<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        Fill::fill(self.as_mut_slice(), rng);
    }
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256** (Blackman & Vigna), state expanded from the seed with
    /// splitmix64.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
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
}
