//! Workspace-local, std-only stand-in for the `rand` crate.
//!
//! The build environment resolves crates through a restricted registry with
//! no network access, so the workspace vendors the small slice of the
//! `rand 0.8` API it actually uses: [`RngCore`], [`Rng`], [`SeedableRng`],
//! [`rngs::StdRng`], and [`seq::SliceRandom`].
//!
//! `StdRng` here is xoshiro256++ seeded through SplitMix64 — a different
//! stream than upstream `rand`'s ChaCha-based `StdRng`, but every consumer
//! in this workspace only relies on *determinism* (same seed ⇒ same
//! stream), never on a specific stream.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The core random-number-generator interface: a source of `u64`s.
pub trait RngCore {
    /// Returns the next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

impl RngCore for Box<dyn RngCore> {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// Convenience extension methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// Samples a value uniformly from `range` (half-open or inclusive).
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
    {
        range.sample(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p = {p} is not a probability");
        unit_f64(self.next_u64()) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// A generator that can be constructed from a seed.
pub trait SeedableRng: Sized {
    /// The raw seed type.
    type Seed: Default + AsMut<[u8]>;

    /// Builds the generator from a raw seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a `u64`, expanding it into a full seed
    /// with SplitMix64 (deterministic, well-mixed).
    fn seed_from_u64(state: u64) -> Self {
        let mut sm = SplitMix64 { state };
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            let bytes = sm.next().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Maps 64 random bits to a float in `[0, 1)` with 53-bit precision.
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
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

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, chunk) in seed.chunks_exact(8).enumerate() {
                s[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            }
            // An all-zero state is a fixed point of xoshiro; nudge it.
            if s == [0, 0, 0, 0] {
                s = [
                    0x9E37_79B9_7F4A_7C15,
                    0xBF58_476D_1CE4_E5B9,
                    0x94D0_49BB_1331_11EB,
                    0x2545_F491_4F6C_DD1D,
                ];
            }
            StdRng { s }
        }
    }
}

/// Uniform sampling from range expressions, as used by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Types [`Rng::gen_range`] can sample uniformly.
///
/// The blanket `SampleRange` impls below are generic over this trait (rather
/// than one impl per concrete range type) so that type inference can unify a
/// range's element type with the sample type before float-literal fallback,
/// mirroring upstream rand.
pub trait SampleUniform: PartialOrd + Copy {
    /// Samples from `[low, high)`, or `[low, high]` when `inclusive`.
    fn sample_uniform<R: RngCore + ?Sized>(
        rng: &mut R,
        low: Self,
        high: Self,
        inclusive: bool,
    ) -> Self;
}

impl<T: SampleUniform> SampleRange<T> for core::ops::Range<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_uniform(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for core::ops::RangeInclusive<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (start, end) = self.into_inner();
        T::sample_uniform(rng, start, end, true)
    }
}

/// Draws a uniform integer in `[0, n)` via Lemire's widening-multiply
/// method with rejection (unbiased).
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
    assert!(n > 0, "cannot sample from an empty range");
    let threshold = n.wrapping_neg() % n;
    loop {
        let x = rng.next_u64();
        let m = (x as u128) * (n as u128);
        if (m as u64) >= threshold {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! impl_int_range {
    ($($t:ty => $wide:ty),* $(,)?) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_uniform<R: RngCore + ?Sized>(rng: &mut R, low: $t, high: $t, inclusive: bool) -> $t {
                if inclusive {
                    assert!(low <= high, "empty range");
                    let span = (high as $wide).wrapping_sub(low as $wide) as u64;
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    let off = uniform_below(rng, span + 1);
                    ((low as $wide).wrapping_add(off as $wide)) as $t
                } else {
                    assert!(low < high, "empty range");
                    let span = (high as $wide).wrapping_sub(low as $wide) as u64;
                    let off = uniform_below(rng, span);
                    ((low as $wide).wrapping_add(off as $wide)) as $t
                }
            }
        }
    )*};
}

impl_int_range!(
    u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
    i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64,
);

macro_rules! impl_float_range {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_uniform<R: RngCore + ?Sized>(rng: &mut R, low: $t, high: $t, inclusive: bool) -> $t {
                if inclusive {
                    assert!(low <= high, "empty range");
                    low + (high - low) * (unit_f64(rng.next_u64()) as $t)
                } else {
                    assert!(low < high, "empty range");
                    let u = unit_f64(rng.next_u64()) as $t;
                    let v = low + (high - low) * u;
                    // Floating rounding can land exactly on `high`; fold the
                    // (probability ~2⁻⁵³) overshoot back onto `low`.
                    if v >= high { low } else { v }
                }
            }
        }
    )*};
}

impl_float_range!(f32, f64);

/// Random operations on slices.
pub mod seq {
    use super::{uniform_below, RngCore};

    /// Shuffling and sampling on slices.
    pub trait SliceRandom {
        /// The element type.
        type Item;

        /// Shuffles the slice in place (Fisher–Yates).
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// Returns `amount` distinct elements sampled without replacement
        /// (all elements, in random order, if `amount >= len`).
        fn choose_multiple<'a, R: RngCore + ?Sized>(
            &'a self,
            rng: &mut R,
            amount: usize,
        ) -> std::vec::IntoIter<&'a Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = uniform_below(rng, i as u64 + 1) as usize;
                self.swap(i, j);
            }
        }

        fn choose_multiple<'a, R: RngCore + ?Sized>(
            &'a self,
            rng: &mut R,
            amount: usize,
        ) -> std::vec::IntoIter<&'a T> {
            let amount = amount.min(self.len());
            let mut indices: Vec<usize> = (0..self.len()).collect();
            for i in 0..amount {
                let j = i + uniform_below(rng, (indices.len() - i) as u64) as usize;
                indices.swap(i, j);
            }
            indices[..amount]
                .iter()
                .map(|&i| &self[i])
                .collect::<Vec<_>>()
                .into_iter()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(StdRng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x: usize = rng.gen_range(3..17);
            assert!((3..17).contains(&x));
            let y: f64 = rng.gen_range(-5.0..5.0);
            assert!((-5.0..5.0).contains(&y));
            let z: u64 = rng.gen_range(0..=3);
            assert!(z <= 3);
        }
    }

    #[test]
    fn gen_range_covers_the_range() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[rng.gen_range(0..10usize)] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "all 10 values appear in 1000 draws"
        );
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(3);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.3).abs() < 0.01, "frac = {frac}");
        let mut rng = StdRng::seed_from_u64(4);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements almost surely move");
    }

    #[test]
    fn choose_multiple_is_distinct_subset() {
        let mut rng = StdRng::seed_from_u64(6);
        let v: Vec<u32> = (0..20).collect();
        let picked: Vec<u32> = v.choose_multiple(&mut rng, 7).copied().collect();
        assert_eq!(picked.len(), 7);
        let mut d = picked.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 7, "samples are distinct");
        assert!(picked.iter().all(|x| *x < 20));
        // Oversampling returns everything.
        assert_eq!(v.choose_multiple(&mut rng, 99).count(), 20);
    }

    #[test]
    fn fill_bytes_fills_everything() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn trait_objects_work() {
        let mut rng = StdRng::seed_from_u64(10);
        let dynrng: &mut dyn RngCore = &mut rng;
        let x = dynrng.next_u64();
        let _ = x;
        // Rng methods on &mut dyn RngCore, as the model code uses them.
        let r: &mut dyn RngCore = &mut rng;
        assert!((0.0..1.0).contains(&r.gen_range(0.0..1.0)));
    }
}
