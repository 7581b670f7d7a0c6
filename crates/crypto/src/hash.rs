//! Fixed-size hash digests used throughout the workspace.
//!
//! [`Hash256`] is the 32-byte output of double-SHA-256 (transaction ids,
//! block hashes); [`Hash160`] is the 20-byte output of
//! RIPEMD-160∘SHA-256 (address payloads). [`DigestMap`] and [`DigestSet`]
//! are the hash tables keyed by them.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::BuildHasherDefault;

/// A 32-byte digest, displayed in the conventional reversed-hex form used by
/// Bitcoin for txids and block hashes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Hash256(pub [u8; 32]);

impl Hash256 {
    /// The all-zero digest, used as the previous-block reference of a genesis
    /// block and as the outpoint of a coin generation.
    pub const ZERO: Hash256 = Hash256([0u8; 32]);

    /// Returns the raw bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Builds a digest from raw bytes.
    pub fn from_bytes(b: [u8; 32]) -> Self {
        Hash256(b)
    }

    /// Parses from a 64-character hex string (byte order as written).
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Some(Hash256(out))
    }

    /// Lower-case hex of the bytes in natural (stored) order.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }
}

impl fmt::Debug for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hash256({})", self.to_hex())
    }
}

impl fmt::Display for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// A 20-byte digest (RIPEMD-160 of SHA-256), the payload of a
/// pay-to-pubkey-hash address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Hash160(pub [u8; 20]);

impl Hash160 {
    /// Returns the raw bytes.
    pub fn as_bytes(&self) -> &[u8; 20] {
        &self.0
    }

    /// Builds a digest from raw bytes.
    pub fn from_bytes(b: [u8; 20]) -> Self {
        Hash160(b)
    }

    /// Lower-case hex of the bytes.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(40);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }
}

impl fmt::Debug for Hash160 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hash160({})", self.to_hex())
    }
}

impl fmt::Display for Hash160 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// A [`Hasher`](std::hash::Hasher) for map keys built from digests
/// ([`Hash256`], [`Hash160`], and structs of them with small integers).
///
/// Digest bytes are already uniformly distributed, so a multiply-rotate
/// mix of their 64-bit words (FxHash's) spreads them over the table as well
/// as the standard library's SipHash does, at a fraction of its cost. It
/// resists no adversary: use it only where keys are digests nobody can
/// grind for collisions cheaply.
#[derive(Clone, Copy, Default)]
pub struct DigestHasher(u64);

impl DigestHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl std::hash::Hasher for DigestHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.mix(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        for &b in words.remainder() {
            self.mix(b as u64);
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.mix(i as u64);
    }

    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed by digests, hashed with [`DigestHasher`].
pub type DigestMap<K, V> = HashMap<K, V, BuildHasherDefault<DigestHasher>>;

/// A `HashSet` of digests, hashed with [`DigestHasher`].
pub type DigestSet<K> = HashSet<K, BuildHasherDefault<DigestHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_hasher_separates_words_and_order() {
        use std::hash::{BuildHasher, Hash};
        let hash = |key: &dyn Fn(&mut DigestHasher)| {
            let mut h = BuildHasherDefault::<DigestHasher>::default().build_hasher();
            key(&mut h);
            std::hash::Hasher::finish(&h)
        };
        let a = Hash256::from_hex(&"11".repeat(32)).unwrap();
        let b = Hash256::from_hex(&"22".repeat(32)).unwrap();
        assert_ne!(hash(&|h| a.hash(h)), hash(&|h| b.hash(h)));
        assert_ne!(hash(&|h| (a, 0u32).hash(h)), hash(&|h| (a, 1u32).hash(h)));
        assert_ne!(hash(&|h| (a, b).hash(h)), hash(&|h| (b, a).hash(h)));
        let mut map = DigestMap::default();
        map.insert(a, 1);
        map.insert(b, 2);
        assert_eq!((map[&a], map[&b]), (1, 2));
    }

    #[test]
    fn hex_round_trip() {
        let h = Hash256::from_hex(
            "00000000000000000000000000000000000000000000000000000000000000ff",
        )
        .unwrap();
        assert_eq!(h.0[31], 0xff);
        assert_eq!(
            h.to_hex(),
            "00000000000000000000000000000000000000000000000000000000000000ff"
        );
    }

    #[test]
    fn from_hex_rejects_bad_input() {
        assert!(Hash256::from_hex("abcd").is_none());
        assert!(Hash256::from_hex(&"zz".repeat(32)).is_none());
    }

    #[test]
    fn zero_constant() {
        assert_eq!(Hash256::ZERO.0, [0u8; 32]);
    }
}
