//! From-scratch cryptographic primitives for the `fistful` workspace.
//!
//! This crate implements every primitive the block-chain substrate needs,
//! with no external dependencies:
//!
//! * [`sha256`] — SHA-256 and double-SHA-256 (`sha256d`), the hash used for
//!   transaction ids, block hashes and merkle trees.
//! * [`ripemd160`] — RIPEMD-160, combined with SHA-256 into `hash160` for
//!   address derivation.
//! * [`hmac`] — HMAC-SHA-256, used for deterministic (RFC-6979 style) ECDSA
//!   nonces.
//! * [`base58`] — Base58Check encoding for human-readable addresses.
//! * [`u256`] — fixed-width 256-bit unsigned arithmetic.
//! * [`field`] — arithmetic in the secp256k1 base field GF(p).
//! * [`scalar`] — arithmetic modulo the secp256k1 group order n.
//! * [`secp256k1`] — elliptic-curve group operations and ECDSA.
//! * [`keys`] — key pairs and pay-to-pubkey-hash address derivation.
//!
//! All implementations are validated against published test vectors in the
//! unit tests of each module.
//!
//! # Example
//!
//! ```
//! use fistful_crypto::keys::KeyPair;
//!
//! let kp = KeyPair::from_seed(42);
//! let msg = fistful_crypto::sha256::sha256d(b"a fistful of bitcoins");
//! let sig = kp.sign(&msg);
//! assert!(kp.public().verify(&msg, &sig));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod base58;
pub mod field;
pub mod hash;
pub mod hmac;
pub mod keys;
pub mod ripemd160;
pub mod scalar;
pub mod secp256k1;
pub mod sha256;
pub mod u256;

pub use hash::{Hash160, Hash256};
pub use keys::{KeyPair, PublicKey};
