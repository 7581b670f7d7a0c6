//! Online clustering over a growing chain.
//!
//! The batch [`Clusterer`](crate::cluster::Clusterer) derives the whole
//! partition in one pass, which is what the paper does and what every
//! online result is checked against. [`sharded`] holds the one online
//! engine: [`ShardedIngest`](sharded::ShardedIngest) ingests blocks as they
//! arrive, scans them on address shards, reconciles at epoch boundaries
//! and parks wait-to-label decisions until their window has elapsed. With
//! one shard and one-block epochs it runs one block at a time on one
//! thread.

pub mod sharded;
