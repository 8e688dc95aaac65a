//! The workspace's seeded hashing: every pinned hash, stream seed, fault
//! draw and jitter value derives through this module.
//!
//! * [`Fnv`] is the one streaming xor-multiply hasher. [`Fnv1a`] (the FNV
//!   prime) checksums artifacts and journal records and fingerprints
//!   schemas and frames; [`BucketFnv`] sets the text hash buckets and the
//!   figure harness's named RNG streams.
//! * [`mix64`] is the one splitmix64 mixer and [`unit_draw`] the one
//!   `[0, 1)` draw from its output.
//! * [`derive_seed`] mixes a seed with two coordinates: the engine's
//!   per-task seeds, the fault plans' decisions and the retry backoff
//!   jitter all call it.

/// A streaming hasher with FNV-1a's structure and 64-bit offset basis:
/// each byte is XORed into the state, which is then multiplied by
/// `PRIME`. The multiplier is a type parameter, so every instance
/// compiles to its own monomorphic loop.
#[derive(Debug, Clone, Copy)]
pub struct Fnv<const PRIME: u64>(u64);

/// FNV-1a (64-bit): [`Fnv`] with the FNV prime.
pub type Fnv1a = Fnv<0x100_0000_01b3>;

/// [`Fnv`] with the multiplier `0x1000_0000_01b3`, not the FNV prime, so
/// not FNV-1a. Its values set every text hash bucket and every named RNG
/// stream of the figure harness, so the multiplier stays as it is.
pub type BucketFnv = Fnv<0x1000_0000_01b3>;

impl<const PRIME: u64> Fnv<PRIME> {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

    /// A hasher whose state is the offset basis XORed with `seed`; a zero
    /// seed gives the unseeded hash.
    pub fn new(seed: u64) -> Self {
        Self(Self::OFFSET_BASIS ^ seed)
    }

    /// The hash of `bytes` under `seed`.
    #[inline]
    pub fn hash(seed: u64, bytes: &[u8]) -> u64 {
        let mut hash = Self::new(seed);
        hash.write(bytes);
        hash.finish()
    }

    /// Hashes one byte.
    #[inline]
    pub fn write_u8(&mut self, byte: u8) {
        self.0 ^= u64::from(byte);
        self.0 = self.0.wrapping_mul(PRIME);
    }

    /// Hashes each byte of `bytes`, in order.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Mixes its input through two rounds of the splitmix64 finalizer.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    for _ in 0..2 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
    }
    z
}

/// A uniform draw in `[0, 1)` from a [`mix64`] output: its top 53 bits
/// as an `f64` mantissa.
#[inline]
pub fn unit_draw(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The seed at coordinates `(a, b)` under `seed`: each coordinate is
/// scaled by its own odd multiplier and XORed into `seed` before
/// [`mix64`], so neighbouring coordinates give unrelated values. A pure
/// function, so whatever keys on it replays identically on every run and
/// at any thread count.
#[inline]
pub fn derive_seed(seed: u64, a: u64, b: u64) -> u64 {
    mix64(seed ^ a.wrapping_mul(0xA24B_AED4_963E_E407) ^ b.wrapping_mul(0x9FB2_1C65_1E98_DF25))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each pinned value below sets seeded outputs across the workspace
    // (corruption streams, fault schedules, jitter, text buckets, figure
    // streams), so none of them may move.

    /// The engine's per-task seeds: changing them shifts every Algorithm 1
    /// corruption stream.
    #[test]
    fn derive_seed_is_pinned_at_run_coordinates() {
        assert_eq!(derive_seed(0, 0, 0), 0xa706_dd2f_4d19_7e6f);
        assert_eq!(derive_seed(42, 3, 17), 0x2426_460e_c23b_9f3d);
        assert_eq!(derive_seed(u64::MAX, 7, 1 << 40), 0x8ace_7363_7bec_6451);
    }

    /// The fault plans' `(seed, key, attempt)` draws and the retry
    /// backoff's `(key, JITTER_SEED, attempt)` jitter.
    #[test]
    fn derive_seed_is_pinned_in_the_fault_and_backoff_forms() {
        assert_eq!(
            derive_seed(7, 0x0123_4567_89ab_cdef, 3),
            0x414b_b724_a710_d9c6
        );
        assert_eq!(
            derive_seed(0xdead_beef, 0x5EED_1E55, 2),
            0xd825_8b4e_884e_20b2
        );
    }

    #[test]
    fn derived_seeds_are_distinct_across_coordinates() {
        let mut seen = std::collections::HashSet::new();
        for a in 0..8 {
            for b in 0..64 {
                assert!(seen.insert(derive_seed(42, a, b)), "collision at ({a},{b})");
            }
        }
        // And the seed actually matters.
        assert_ne!(derive_seed(1, 0, 0), derive_seed(2, 0, 0));
    }

    #[test]
    fn mix64_and_unit_draw_are_pinned() {
        assert_eq!(mix64(0), 0xa706_dd2f_4d19_7e6f);
        assert_eq!(mix64(0x0123_4567_89ab_cdef), 0x021c_88d0_a3fd_73b6);
        assert_eq!(unit_draw(u64::MAX).to_bits(), 0x3fef_ffff_ffff_ffff);
        assert_eq!(unit_draw(1 << 63), 0.5);
    }

    /// One multi-byte input under each multiplier, unseeded and seeded.
    #[test]
    fn fnv_multipliers_are_pinned() {
        let input = b"lvp seeding";
        assert_eq!(Fnv1a::hash(0, input), 0xb83c_ceac_5c82_98fe);
        assert_eq!(Fnv1a::hash(42, input), 0x2ca3_e981_355f_20dc);
        assert_eq!(BucketFnv::hash(0, input), 0xaab4_d7ac_5c82_98fe);
        assert_eq!(BucketFnv::hash(42, input), 0x0707_3c81_355f_20dc);
        // lvpd's tenant hash.
        assert_eq!(Fnv::<0x1_0000_01b3>::hash(0, input), 0xfd22_d613_5c82_98fe);
        assert_eq!(Fnv::<0x1_0000_01b3>::hash(42, input), 0x2123_50fe_355f_20dc);
    }
}
