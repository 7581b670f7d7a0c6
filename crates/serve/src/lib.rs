//! `fistful-serve` — the concurrent analytics query service over frozen
//! cluster snapshots and the transaction-graph index.
//!
//! The paper's end product is not the clustering run itself but the
//! *queries it answers*: which service owns this address, where did the
//! stolen coins go, how much has this cluster received. The workspace
//! already freezes those answers into two immutable, `Arc`-shareable
//! artifacts — [`ClusterSnapshot`](fistful_core::snapshot::ClusterSnapshot)
//! (O(1) address → cluster → aggregates) and
//! [`TxGraph`](fistful_flow::graph::TxGraph) (indexed multi-hop
//! traversals). This crate puts a network front on them:
//!
//! * [`protocol`] — the versioned, length-prefixed binary wire format
//!   (requests `Ping`/`Stats`/`AddressInfo`/`ClusterSummary`/`TaintTrace`/
//!   `BalancePoint`), built on [`fistful_chain::encode`], with strict
//!   frame limits and typed [`ServeError`]s so arbitrary bytes can never
//!   panic a decoder or balloon an allocation;
//! * [`server`] — a std-only multithreaded TCP server: one acceptor, a
//!   fixed worker pool sharing the artifacts through an
//!   [`Arc`](std::sync::Arc), a
//!   per-worker reusable [`TaintScratch`](fistful_flow::graph::TaintScratch),
//!   a sharded LRU response [`cache`] keyed by request bytes, and graceful
//!   shutdown that drains in-flight requests;
//! * [`event`] — the event-driven serve loop over the same request core:
//!   a std-only poll(2)-based readiness loop ([`conn`] holds the shared
//!   deadline bookkeeping) with nonblocking accept, request pipelining,
//!   per-connection budgets, and queue-full backpressure, so thousands of
//!   mostly-idle keep-alive connections share a fixed worker pool;
//! * [`client`] — a blocking typed client speaking the same protocol
//!   (including coalesced pipelined batches);
//! * [`live`] — the background ingest pipeline that hot-swaps fresh
//!   artifact generations into a running server at every reconcile epoch
//!   (and persists per-epoch deltas through [`store`] so a restarted
//!   server resumes where it left off);
//! * [`metrics`] — the first-party observability layer: a lock-free
//!   registry of counters, gauges, and log₂ latency histograms that both
//!   engines and the live pipeline write into (one relaxed atomic add on
//!   the hot path), snapshotted as a [`MetricsDump`] and rendered as
//!   Prometheus text;
//! * [`httpexpo`] — a tiny std-only HTTP/1.1 exporter serving that text
//!   on a separate scrape port (`repro serve --metrics-port`), while the
//!   binary [`Request::MetricsDump`] exposes the identical snapshot over
//!   the FSRV protocol.
//!
//! `repro serve` runs the server over a simulated economy from the CLI.
//! `benchmark/` drives both engines closed-loop on its `serve_*`
//! workloads, reporting throughput and latency end to end and the codec
//! (`serve.protocol.*`), cache (`serve.cache.*`) and round-trip
//! (`serve.client.*`) costs per layer.
//!
//! # Example: start a server, query it, shut it down
//!
//! ```
//! use fistful_core::cluster::Clusterer;
//! use fistful_core::change::{self, ChangeConfig};
//! use fistful_core::naming::name_clusters;
//! use fistful_core::snapshot::ClusterSnapshot;
//! use fistful_core::tagdb::TagDb;
//! use fistful_core::testutil::TestChain;
//! use fistful_flow::graph::TxGraph;
//! use fistful_flow::balance_series;
//! use fistful_serve::{Client, ServeArtifacts, ServeConfig, Server};
//! use std::sync::Arc;
//!
//! // A two-user economy: addresses 1 and 2 co-spend, so Heuristic 1
//! // clusters them; address 3 stays separate.
//! let mut t = TestChain::new();
//! let cb1 = t.coinbase(1, 50);
//! let cb2 = t.coinbase(2, 50);
//! t.tx(&[(cb1, 0), (cb2, 0)], &[(3, 100)]);
//!
//! // Freeze the serving artifacts once.
//! let clustering = Clusterer::h1_only().run(&t.chain);
//! let names = name_clusters(&clustering, &TagDb::new());
//! let snapshot = ClusterSnapshot::build(&t.chain, &clustering, &names);
//! let labels = change::identify(&t.chain, &ChangeConfig::naive());
//! let balances = balance_series(&t.chain, &snapshot, 1);
//! let graph = TxGraph::build(&t.chain);
//! let artifacts = Arc::new(ServeArtifacts::new(snapshot, graph, labels, balances).unwrap());
//!
//! // Serve them on an ephemeral port and query over the socket.
//! let config = ServeConfig { workers: 2, ..ServeConfig::default() };
//! let server = Server::start(config, artifacts).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! client.ping().unwrap();
//! let one = client.address_info(t.id(1)).unwrap().expect("covered");
//! let two = client.address_info(t.id(2)).unwrap().expect("covered");
//! assert_eq!(one.cluster, two.cluster); // co-spenders share a cluster
//! assert_eq!(one.info.size, 2);
//! server.shutdown();
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod conn;
pub mod event;
pub mod httpexpo;
pub mod live;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod store;
// `sys` holds the crate's one `unsafe` block, around `poll(2)`.
#[allow(unsafe_code)]
pub(crate) mod sys;

pub use cache::{CacheClass, CacheFloors, CacheShardStats, ShardedCache};
pub use client::Client;
pub use conn::{Deadline, DeadlineVerdict};
pub use event::{EventServeConfig, EventServer};
pub use httpexpo::MetricsExporter;
pub use live::{LiveConfig, LiveHandle, LivePipeline, LiveReport};
pub use metrics::{
    render_prometheus, Counter, Gauge, HistogramDump, LatencyHistogram, MetricsDump, ServeMetrics,
};
pub use protocol::{
    AddressReport, BalanceReport, ClusterReport, ErrorCode, FramePrefix, Request, Response,
    ServeError, ServerStats, TaintReport, WireError, WireMovement, MAX_REQUEST_PAYLOAD,
    MAX_RESPONSE_PAYLOAD, PROTOCOL_MAGIC, PROTOCOL_VERSION, PROTOCOL_VERSION_V1,
};
pub use server::{MetricsHandle, Publisher, ServeArtifacts, ServeConfig, Server};
