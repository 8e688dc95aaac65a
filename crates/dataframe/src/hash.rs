//! FNV-1a, the workspace's one 64-bit non-cryptographic hash.

/// A streaming FNV-1a (64-bit) hasher. Schema fingerprints, the artifact
/// and journal checksums and frame content keys all hash through it.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;

    /// A hasher whose state is the offset basis XORed with `seed`; a zero
    /// seed gives plain FNV-1a.
    pub fn new(seed: u64) -> Self {
        Self(Self::OFFSET_BASIS ^ seed)
    }

    /// Hashes one byte.
    #[inline]
    pub fn write_u8(&mut self, byte: u8) {
        self.0 ^= u64::from(byte);
        self.0 = self.0.wrapping_mul(Self::PRIME);
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
