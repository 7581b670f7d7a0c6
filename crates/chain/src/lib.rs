//! A Bitcoin-style block-chain substrate.
//!
//! This crate implements the ledger the paper's analysis runs over:
//! transactions with multiple inputs and outputs, blocks with merkle-rooted
//! headers, value and structure validation (including the 50 BTC → 25 BTC
//! subsidy halving at block 210,000), and a [`chainstate::ChainState`] that
//! validates blocks against, and appends them to, one analysis-friendly
//! [`resolve::ResolvedChain`] view with interned address ids.
//!
//! Like the chain the paper parsed, this one is taken as already
//! authorized: there are no signatures and no proof-of-work to check, only
//! who spends what (see ARCHITECTURE.md).
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
pub mod encode;
pub mod merkle;
pub mod params;
pub mod resolve;
pub mod stats;
pub mod transaction;
pub mod validate;

pub use address::Address;
pub use amount::Amount;
pub use block::{Block, BlockHeader};
pub use chainstate::ChainState;
pub use params::Params;
pub use resolve::{AddressId, ResolvedChain, ResolvedTx, TxId};
pub use transaction::{OutPoint, Transaction, TxIn, TxOut};
