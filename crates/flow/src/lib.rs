//! Flow analysis: following money through the transaction graph.
//!
//! Implements §5 of the paper:
//!
//! * [`graph`] — the columnar (CSR) transaction-graph index
//!   ([`graph::TxGraph`]): one sequential pass over the chain produces flat
//!   adjacency arrays that every multi-hop traversal below runs on,
//!   instead of re-resolving spenders hop by hop per query;
//! * [`peel`] — systematic traversal of *peeling chains* by following
//!   Heuristic-2 change links hop by hop;
//! * [`track`] — attributing the "peels" to named services
//!   (Table 2: tracking the Silk Road `1DkyBEKt` dissolution);
//! * [`movement`] — classifying how stolen money moves: aggregation,
//!   peeling, splits, folding (Table 3's A/P/S/F notation);
//! * [`theft`] — end-to-end theft tracking: did the loot reach an
//!   exchange? (Table 3), including the batch engine
//!   ([`theft::track_thefts_batch`]) that tracks N thefts concurrently
//!   over one shared graph with per-thread frontiers;
//! * [`balance`] — per-category balance time series as a percentage of
//!   active (non-sink) bitcoins (Figure 2).
//!
//! Every entry point that attributes addresses to services or categories
//! reads them from a frozen
//! [`ClusterSnapshot`](fistful_core::snapshot::ClusterSnapshot): the named
//! clustering, as the paper had to, whether built in process or reloaded
//! from its store container.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balance;
pub mod graph;
pub mod movement;
pub mod peel;
pub mod theft;
pub mod track;

// The unit tests compare the graph walks and the balance series against
// the resolver-walking oracles that the workspace's differential suites
// share; the oracles name this crate as `fistful_flow`.
#[cfg(test)]
extern crate self as fistful_flow;
#[cfg(test)]
#[path = "../../../tests/common/balance_oracle.rs"]
mod balance_oracle;
#[cfg(test)]
#[path = "../../../tests/common/flow_oracle.rs"]
mod flow_oracle;

pub use balance::{balance_series, balance_series_at, point_at, BalancePoint, BalanceSeries};
pub use graph::{TaintScratch, TxGraph};
pub use movement::{classify_movements_indexed, MovementKind};
pub use peel::{follow_chain_indexed, follow_chains_indexed, FollowStrategy, Hop, PeelChain};
pub use theft::{track_theft_indexed, track_thefts_batch, TheftTrace};
pub use track::{service_arrivals, ArrivalRow};
