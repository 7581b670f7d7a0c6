//! A discrete-event simulator of the Bitcoin peer-to-peer gossip network.
//!
//! Reproduces the mechanism of Figure 1 in the paper: a user broadcasts a
//! transaction to their peers; inv/getdata gossip floods it across the
//! network; a miner incorporates it into a block; the block floods back,
//! and the merchant learns the payment is settled.
//!
//! Following the guidance for CPU-bound simulation (and smoltcp's design
//! ethos), the simulator is synchronous and deterministic: a single
//! [`event::EventQueue`] orders message deliveries by virtual time, nodes
//! are plain state machines, and everything derives from one RNG seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod message;
pub mod metrics;
pub mod miner;
pub mod network;
pub mod node;
pub mod topology;

pub use message::Message;
pub use metrics::PropagationReport;
pub use miner::{run_session, MiningReport};
pub use network::{Network, NetworkConfig};
pub use node::NodeId;
pub use topology::Topology;
