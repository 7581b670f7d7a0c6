//! Online clustering over a growing chain.
//!
//! The batch [`Clusterer`](crate::cluster::Clusterer) derives the whole
//! partition in one pass, which is what the paper does and what every
//! online result is checked against. [`sharded`] holds the one online
//! engine: [`ShardedIngest`](sharded::ShardedIngest) ingests blocks as they
//! arrive, decides their Heuristic 2 labels through the batch pass's own
//! `change::decide` on parallel chunks of transactions, links them at
//! epoch boundaries through the batch pass's own Heuristic 1 and 2 steps,
//! and parks wait-to-label decisions until their window has elapsed. With
//! one shard and one-block epochs it runs one block at a time on one
//! thread.

pub mod sharded;
