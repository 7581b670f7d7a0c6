//! On-disk, page-aligned columnar artifact store.
//!
//! The workspace builds three artifact families that are expensive to
//! recompute but cheap to describe as flat arrays: the resolved chain's
//! columns, `TxGraph`'s CSR arrays, and `ClusterSnapshot`'s assignment
//! column. This crate gives all three one persistence substrate: a
//! versioned, checksummed container file holding named, 4096-aligned,
//! length-prefixed **column segments**, so a reader reconstructs each
//! artifact with bulk `read_exact` calls into pre-sized buffers — no
//! per-element decode on the open path.
//!
//! * [`container`] — the file format: [`StoreWriter`] builds a container,
//!   [`Store`] opens one with O(TOC) validation and lazy per-segment
//!   checksum verification, [`StoreError`] diagnoses each corruption
//!   class distinctly.
//! * [`chaincol`] — the chain codec: [`write_chain`]/[`read_chain`]
//!   persist a `ResolvedChain` via its `ChainColumns` projection and
//!   replay-validate on read.
//!
//! Higher artifacts ( `TxGraph`, `ClusterSnapshot`, delta snapshots, the
//! serve bundle) define their own segment schemas in their own crates on
//! top of [`StoreWriter`]/[`Store`]; this crate knows nothing about them
//! beyond the container contract.
//!
//! # Example
//!
//! ```
//! use fistful_store::{Store, StoreWriter};
//!
//! let mut w = StoreWriter::new();
//! w.segment("demo/ids", vec![1, 0, 0, 0, 2, 0, 0, 0]);
//! let file = w.to_bytes();
//!
//! let mut store = Store::open_bytes(file).unwrap();
//! assert_eq!(store.u32s("demo/ids").unwrap(), vec![1, 2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaincol;
pub mod container;

pub use chaincol::{read_chain, write_chain};
pub use container::{Store, StoreError, StoreWriter, PAGE, STORE_MAGIC, STORE_VERSION};
