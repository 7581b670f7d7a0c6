//! The paper's contribution: address clustering, tagging and naming.
//!
//! Two heuristics link Bitcoin addresses under shared control:
//!
//! * **Heuristic 1** ([`heuristic1`]): all input addresses of a transaction
//!   belong to one user — an inherent property of the protocol (inputs are
//!   signed by their owners).
//! * **Heuristic 2** ([`change`]): the *one-time change address* of a
//!   transaction belongs to the same user as the inputs — an idiom of use,
//!   identified by the paper's four conditions and hardened by its §4.2
//!   refinements (Satoshi-Dice exception, wait-to-label, change-reuse and
//!   prior-self-change exclusions).
//!
//! [`fp`] implements the paper's step-through-time false-positive estimator;
//! [`cluster`] drives both heuristics over a
//! [`ResolvedChain`](fistful_chain::resolve::ResolvedChain) with a
//! [`union_find::UnionFind`]; [`incremental`] maintains the same partition
//! online, block by block, for live chains; [`tagdb`] and [`naming`] turn
//! ground-truth interactions into cluster names (and detect the
//! super-cluster failure mode); [`snapshot`] freezes a finished clustering
//! plus its names and aggregates into an immutable, serializable artifact
//! served to concurrent readers; [`metrics`] scores everything against
//! simulator ground truth.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod change;
pub mod cluster;
pub mod fp;
pub mod heuristic1;
pub mod incremental;
pub mod metrics;
pub mod naming;
pub mod snapshot;
pub mod tagdb;
pub mod testutil;
pub mod union_find;

pub use change::{ChangeConfig, ChangeLabels, ChangeScanner};
pub use cluster::{Clusterer, Clustering};
pub use incremental::sharded::{IngestConfig, ShardedIngest};
pub use incremental::IncrementalClusterer;
pub use naming::{NamingReport, SuperCluster};
pub use snapshot::{ClusterInfo, ClusterSnapshot, SnapshotError};
pub use tagdb::{Tag, TagDb, TagSource};
pub use union_find::UnionFind;
