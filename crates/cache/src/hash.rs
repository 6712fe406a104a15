//! A vendored, word-oriented SipHash-style hasher with 128-bit output.
//!
//! The cache hashes fixed-width `u64` words only (counts, indices, and
//! `f64::to_bits` images), so the byte-tail handling of the reference
//! SipHash is unnecessary; this implementation absorbs whole words through
//! the standard SipRound permutation (2 compression rounds per word, 4
//! finalization rounds, the 2-4 schedule) and folds the word count into
//! the finalization in place of the byte-length block. It is *SipHash
//! style*, not bit-compatible with the reference vectors — the only
//! contract the cache needs is: deterministic, platform-independent,
//! keyed, and collision-resistant enough that an independent second key
//! pair makes silent collisions practically impossible.

use core::fmt;

/// A 128-bit content fingerprint.
///
/// Ordered and hashable so it can key maps and sort deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fingerprint {
    /// High 64 bits.
    pub hi: u64,
    /// Low 64 bits.
    pub lo: u64,
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// The SipHash-style streaming hasher behind [`Fingerprint`].
#[derive(Debug, Clone)]
pub struct SipHasher128 {
    v0: u64,
    v1: u64,
    v2: u64,
    v3: u64,
    words: u64,
}

#[inline]
fn sipround(v0: &mut u64, v1: &mut u64, v2: &mut u64, v3: &mut u64) {
    *v0 = v0.wrapping_add(*v1);
    *v1 = v1.rotate_left(13);
    *v1 ^= *v0;
    *v0 = v0.rotate_left(32);
    *v2 = v2.wrapping_add(*v3);
    *v3 = v3.rotate_left(16);
    *v3 ^= *v2;
    *v0 = v0.wrapping_add(*v3);
    *v3 = v3.rotate_left(21);
    *v3 ^= *v0;
    *v2 = v2.wrapping_add(*v1);
    *v1 = v1.rotate_left(17);
    *v1 ^= *v2;
    *v2 = v2.rotate_left(32);
}

impl SipHasher128 {
    /// Creates a hasher keyed by `(k0, k1)`. Different key pairs give
    /// statistically independent digests over the same input — the basis
    /// of the cache's primary/verify double-fingerprint scheme.
    pub fn new(k0: u64, k1: u64) -> Self {
        Self {
            // The classic "somepseudorandomlygeneratedbytes" constants,
            // with the 128-bit variant's v1 tweak.
            v0: k0 ^ 0x736f_6d65_7073_6575,
            v1: (k1 ^ 0x646f_7261_6e64_6f6d) ^ 0xee,
            v2: k0 ^ 0x6c79_6765_6e65_7261,
            v3: k1 ^ 0x7465_6462_7974_6573,
            words: 0,
        }
    }

    /// Absorbs one 64-bit word (two compression rounds).
    #[inline]
    pub fn write_u64(&mut self, m: u64) {
        self.v3 ^= m;
        sipround(&mut self.v0, &mut self.v1, &mut self.v2, &mut self.v3);
        sipround(&mut self.v0, &mut self.v1, &mut self.v2, &mut self.v3);
        self.v0 ^= m;
        self.words += 1;
    }

    /// Absorbs an `f64` by its exact bit pattern (no rounding, so the
    /// digest inherits f64 equality bit for bit).
    #[inline]
    pub fn write_f64(&mut self, x: f64) {
        self.write_u64(x.to_bits());
    }

    /// Absorbs a `usize` (as `u64`, platform-independently).
    #[inline]
    pub fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    /// Finalizes into a 128-bit [`Fingerprint`]. Consumes the hasher; the
    /// word count is folded in first, so prefix inputs cannot collide with
    /// their extensions.
    pub fn finish128(mut self) -> Fingerprint {
        let len = self.words;
        self.write_u64(len);
        let (mut v0, mut v1, mut v2, mut v3) = (self.v0, self.v1, self.v2, self.v3);
        v2 ^= 0xee;
        for _ in 0..4 {
            sipround(&mut v0, &mut v1, &mut v2, &mut v3);
        }
        let hi = v0 ^ v1 ^ v2 ^ v3;
        v1 ^= 0xdd;
        for _ in 0..4 {
            sipround(&mut v0, &mut v1, &mut v2, &mut v3);
        }
        let lo = v0 ^ v1 ^ v2 ^ v3;
        Fingerprint { hi, lo }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(keys: (u64, u64), words: &[u64]) -> Fingerprint {
        let mut h = SipHasher128::new(keys.0, keys.1);
        for &w in words {
            h.write_u64(w);
        }
        h.finish128()
    }

    #[test]
    fn deterministic_and_input_sensitive() {
        let a = digest((1, 2), &[10, 20, 30]);
        assert_eq!(a, digest((1, 2), &[10, 20, 30]));
        assert_ne!(a, digest((1, 2), &[10, 20, 31]));
        assert_ne!(a, digest((1, 2), &[30, 20, 10]), "order must matter");
    }

    #[test]
    fn key_separates_digests() {
        let words = [7u64, 8, 9];
        assert_ne!(digest((1, 2), &words), digest((3, 4), &words));
    }

    #[test]
    fn length_is_folded_in() {
        // A zero word appended must change the digest even though the
        // absorbed words XOR identically into an empty tail.
        let a = digest((1, 2), &[5]);
        let b = digest((1, 2), &[5, 0]);
        assert_ne!(a, b);
        assert_ne!(digest((1, 2), &[]), digest((1, 2), &[0]));
    }

    #[test]
    fn f64_bits_distinguish_negative_zero() {
        let mut h = SipHasher128::new(0, 0);
        h.write_f64(0.0);
        let pos = h.finish128();
        let mut h = SipHasher128::new(0, 0);
        h.write_f64(-0.0);
        assert_ne!(pos, h.finish128(), "bit-pattern hashing, not value");
    }

    #[test]
    fn single_bit_flips_avalanche() {
        // Crude avalanche sanity: flipping one input bit flips a healthy
        // fraction of output bits (exact counts are not part of the
        // contract; "roughly half" guards against a degenerate mixer).
        let base = digest((11, 13), &[0x0123_4567_89ab_cdef, 42]);
        for bit in [0u32, 17, 33, 63] {
            let flipped = digest((11, 13), &[0x0123_4567_89ab_cdef ^ (1u64 << bit), 42]);
            let dist = (base.hi ^ flipped.hi).count_ones() + (base.lo ^ flipped.lo).count_ones();
            assert!((30..=98).contains(&dist), "bit {bit}: distance {dist}");
        }
    }

    #[test]
    fn display_is_32_hex_chars() {
        let s = digest((1, 2), &[3]).to_string();
        assert_eq!(s.len(), 32);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(Fingerprint::default().to_string(), "0".repeat(32));
    }
}
