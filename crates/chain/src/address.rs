//! Pay-to-pubkey-hash addresses.
//!
//! An [`Address`] is the 20-byte `hash160` payload. The simulator mints
//! addresses directly from seeds: the analysis only ever compares and
//! groups payloads, so no key stands behind one (see ARCHITECTURE.md).

use fistful_crypto::base58;
use fistful_crypto::hash::Hash160;
use fistful_crypto::sha256::hash160;
use std::fmt;

/// The Base58Check version byte for pay-to-pubkey-hash addresses.
pub const ADDRESS_VERSION: u8 = 0x00;

/// A pay-to-pubkey-hash address: a 20-byte `hash160` payload.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Address(pub Hash160);

impl Address {
    /// Mints an address deterministically from a seed.
    pub fn from_seed(seed: u64) -> Address {
        let mut preimage = Vec::with_capacity(21);
        preimage.extend_from_slice(b"fistful-addr\x00");
        preimage.extend_from_slice(&seed.to_be_bytes());
        Address(hash160(&preimage))
    }

    /// Mints an address from a two-part seed (owner id, key index).
    pub fn from_seed2(owner: u64, index: u64) -> Address {
        let mut preimage = Vec::with_capacity(29);
        preimage.extend_from_slice(b"fistful-addr\x01");
        preimage.extend_from_slice(&owner.to_be_bytes());
        preimage.extend_from_slice(&index.to_be_bytes());
        Address(hash160(&preimage))
    }

    /// The raw 20-byte payload.
    pub fn payload(&self) -> &Hash160 {
        &self.0
    }

    /// The human-readable Base58Check form (version `0x00`, like mainnet).
    pub fn to_base58(&self) -> String {
        base58::check_encode(ADDRESS_VERSION, &self.0 .0)
    }

    /// Parses a Base58Check address string.
    pub fn from_base58(s: &str) -> Option<Address> {
        let (version, payload) = base58::check_decode(s).ok()?;
        if version != ADDRESS_VERSION || payload.len() != 20 {
            return None;
        }
        let mut bytes = [0u8; 20];
        bytes.copy_from_slice(&payload);
        Some(Address(Hash160(bytes)))
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_base58())
    }
}

impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Address({})", self.to_base58())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base58_round_trip() {
        let addr = Address::from_seed(7);
        let s = addr.to_base58();
        assert_eq!(Address::from_base58(&s), Some(addr));
        assert!(s.starts_with('1'));
    }

    #[test]
    fn from_base58_rejects_garbage() {
        assert!(Address::from_base58("not an address").is_none());
        assert!(Address::from_base58("").is_none());
        // Valid checksum but wrong version byte.
        let wrong_version = base58::check_encode(0x6f, &[0u8; 20]);
        assert!(Address::from_base58(&wrong_version).is_none());
    }

    #[test]
    fn seed_addresses_are_distinct() {
        let a = Address::from_seed(1);
        let b = Address::from_seed(2);
        let c = Address::from_seed2(1, 0);
        let d = Address::from_seed2(1, 1);
        assert_ne!(a, b);
        assert_ne!(c, d);
        assert_ne!(a, c);
    }
}
