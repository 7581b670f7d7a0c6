//! On-disk, page-aligned columnar artifact store.
//!
//! The serving artifacts are expensive to recompute but cheap to describe
//! as flat arrays: `TxGraph`'s CSR arrays, `ClusterSnapshot`'s assignment
//! column, the change labels. This crate gives them one persistence
//! substrate: a versioned, checksummed container file holding named,
//! 4096-aligned, length-prefixed **column segments**, so a reader
//! reconstructs each artifact with bulk `read_exact` calls into pre-sized
//! buffers — no per-element decode on the open path.
//!
//! * [`container`] — the file format: [`StoreWriter`] builds a container,
//!   [`Store`] opens one with O(TOC) validation and lazy per-segment
//!   checksum verification, [`StoreError`] diagnoses each corruption
//!   class distinctly.
//!
//! The artifacts (`TxGraph`, `ClusterSnapshot`, delta snapshots, the
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

pub mod container;

pub use container::{Store, StoreError, StoreWriter, PAGE, STORE_MAGIC, STORE_VERSION};
