//! A Bitcoin-style block-chain substrate.
//!
//! This crate implements the ledger the paper's analysis runs over:
//! transactions with multiple inputs and outputs, blocks with proof-of-work
//! headers and merkle roots, a UTXO set, full consensus validation
//! (including the 50 BTC → 25 BTC subsidy halving at block 210,000), and a
//! [`chainstate::ChainState`] that maintains an analysis-friendly
//! [`resolve::ResolvedChain`] view with interned address ids.
//!
//! # Example
//!
//! ```
//! use fistful_chain::address::Address;
//! use fistful_chain::builder::BlockBuilder;
//! use fistful_chain::chainstate::ChainState;
//! use fistful_chain::params::Params;
//!
//! let params = Params::regtest();
//! let mut chain = ChainState::new(params.clone());
//! let miner = Address::from_seed(1);
//! let block = BlockBuilder::new(&params)
//!     .coinbase_to(miner, chain.next_height(), chain.next_subsidy())
//!     .build_on(&chain);
//! chain.accept_block(block).unwrap();
//! assert_eq!(chain.height(), Some(0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
pub mod amount;
pub mod block;
pub mod builder;
pub mod chainstate;
pub mod columns;
pub mod encode;
pub mod merkle;
pub mod params;
pub mod resolve;
pub mod stats;
pub mod transaction;
pub mod utxo;
pub mod validate;

pub use address::Address;
pub use amount::Amount;
pub use block::{Block, BlockHeader};
pub use chainstate::ChainState;
pub use params::Params;
pub use resolve::{AddressId, ResolvedChain, ResolvedTx, TxId};
pub use transaction::{OutPoint, Transaction, TxIn, TxOut};
