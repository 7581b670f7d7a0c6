//! A Bitcoin economy simulator with complete ground truth.
//!
//! This crate substitutes for the real 2013 block chain (see DESIGN.md):
//! it drives the service categories of Table 1 — mining pools, wallet
//! services, bank and fixed-rate exchanges, vendors and payment gateways,
//! dice games, mixes, investment schemes — plus ordinary users, through
//! behavioural models that reproduce the *idioms of use* the paper's
//! heuristics exploit:
//!
//! * client-generated one-time change addresses (and 23% self-change);
//! * multi-input consolidation sweeps (Heuristic 1 evidence);
//! * per-account long-lived deposit addresses;
//! * Satoshi-Dice pay-back-to-sender with house self-change;
//! * peeling-chain withdrawals, with occasional sloppy change reuse
//!   (the super-cluster failure mode of §4.2);
//! * the Silk Road `1DkyBEKt` lifecycle (Table 2) and the seven thefts of
//!   Table 3 (aggregation / peeling / split / folding movements).
//!
//! Every address has a ground-truth owner and every transaction's true
//! change output is recorded, so the clustering heuristics can be scored
//! exactly — which the paper itself could not do.
//!
//! # Example
//!
//! ```
//! use fistful_sim::config::SimConfig;
//! use fistful_sim::engine::Economy;
//!
//! let eco = Economy::run(SimConfig::tiny());
//! assert!(eco.chain.resolved().tx_count() > 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod entity;
pub mod ground_truth;
pub mod roster;
pub mod scripts;
pub mod tags;
pub mod wallet;

pub use config::SimConfig;
pub use engine::Economy;
pub use entity::{Category, OwnerId, OwnerInfo};
pub use ground_truth::{GroundTruth, GroundTruthIds};
pub use tags::{generate_tags, RawTag, RawTagSource};
