//! From-scratch hash and encoding primitives for the `fistful` workspace.
//!
//! This crate implements every primitive the block-chain substrate needs,
//! with no external dependencies:
//!
//! * [`sha256`] — SHA-256 and double-SHA-256 (`sha256d`), the hash used for
//!   transaction ids, block hashes and merkle trees.
//! * [`ripemd160`] — RIPEMD-160, combined with SHA-256 into `hash160` for
//!   address payloads.
//! * [`base58`] — Base58Check encoding for human-readable addresses.
//!
//! All implementations are validated against published test vectors in the
//! unit tests of each module.
//!
//! # Example
//!
//! ```
//! use fistful_crypto::{base58, sha256};
//!
//! let payload = sha256::hash160(b"a fistful of bitcoins");
//! let text = base58::check_encode(0x00, payload.as_bytes());
//! let (version, bytes) = base58::check_decode(&text).unwrap();
//! assert_eq!(version, 0x00);
//! assert_eq!(bytes, payload.as_bytes());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod base58;
pub mod hash;
pub mod ripemd160;
pub mod sha256;

pub use hash::{Hash160, Hash256};
