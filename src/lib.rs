//! `fistful` — a reproduction of *A Fistful of Bitcoins: Characterizing
//! Payments Among Men with No Names* (Meiklejohn et al., IMC 2013).
//!
//! This facade crate re-exports the workspace's seven library crates:
//!
//! * [`crypto`] — from-scratch SHA-256 / RIPEMD-160 / Base58Check.
//! * [`chain`] — a Bitcoin-style block-chain substrate (transactions,
//!   blocks, value and structure validation, the resolved chain view).
//! * [`store`] — the versioned, checksummed columnar container every
//!   persistent artifact is written to.
//! * [`sim`] — a Bitcoin economy simulator with ground-truth ownership,
//!   modelling the service categories and idioms of use the paper studies.
//! * [`core`] — the paper's contribution: address clustering (Heuristics 1
//!   and 2 with all refinements), tagging, cluster naming, and scoring
//!   against the simulator's ground truth.
//! * [`flow`] — flow analysis: peeling chains, movement classification,
//!   balance time series and theft tracking.
//! * [`serve`] — the concurrent TCP query service (and its client) that
//!   answers address/cluster/taint/balance queries from the frozen
//!   snapshot and graph artifacts.
//!
//! See `examples/quickstart.rs` for an end-to-end tour.

#![forbid(unsafe_code)]

pub use fistful_chain as chain;
pub use fistful_core as core;
pub use fistful_crypto as crypto;
pub use fistful_flow as flow;
pub use fistful_serve as serve;
pub use fistful_sim as sim;
pub use fistful_store as store;
