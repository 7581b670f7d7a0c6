//! The multithreaded TCP query server: one acceptor thread, a fixed
//! worker pool, shared hot-swappable artifacts, and a sharded response
//! cache.
//!
//! # Threading model
//!
//! [`Server::start`] binds a [`TcpListener`] and spawns one acceptor
//! thread plus `workers` worker threads ([`Server::start_with_listener`]
//! accepts a pre-bound listener, so callers can bind — and report the
//! address — before the artifacts are even built). The acceptor pushes
//! accepted connections onto a condvar-guarded queue; each worker pops a
//! connection and serves it to completion (many requests per connection)
//! before taking the next — a deliberately simple thread-per-active-
//! connection model with a bounded thread count, the std-only shape of a
//! serving tier (no vendored async runtime; see `vendor/README.md` for
//! why the dependency set is closed). Connections that go quiet are
//! closed after a keep-alive timeout (~60 s) and connections that stall
//! mid-frame after a read deadline (~30 s), so silent or half-open peers
//! cannot pin workers and starve the queue.
//!
//! # Artifact hot swap
//!
//! Request handling reads from one *published* [`Arc<ServeArtifacts>`] —
//! the frozen [`ClusterSnapshot`], the columnar [`TxGraph`], the
//! [`ChangeLabels`], and the precomputed balance series are immutable and
//! `Send + Sync`, so workers share them with zero locks beyond a single
//! `Arc` clone per request. A live-ingest pipeline (see [`crate::live`])
//! obtains a [`Publisher`] handle and swaps in a fresh artifact bundle at
//! each epoch boundary: workers load the published pointer *once per
//! request*, so an in-flight request finishes on the artifact it started
//! with while the next request on the same connection sees the new one.
//! Each publication carries the artifact epoch — stamped into every
//! response frame — and raises the cache's staleness floors
//! ([`crate::cache::CacheFloors`]) instead of flushing it. Each worker
//! owns one reusable [`TaintScratch`], so steady-state taint walks
//! allocate nothing beyond their result records — the same memory model
//! as the batch taint engine.
//!
//! # Graceful shutdown
//!
//! [`Server::shutdown`] flips the shutdown flag, wakes the acceptor with
//! a loopback connection, and joins every thread. Workers notice the flag
//! only *between* requests (reads poll with a short timeout while idle),
//! so any request already being read or handled is answered in full
//! before its connection closes — in-flight requests drain, queued-but-
//! unserved connections are dropped.

use crate::cache::{CacheClass, CacheFloors, ShardedCache};
use crate::conn::{Deadline, DeadlineVerdict, TICK};
use crate::metrics::{kind_index, render_prometheus, MetricsDump, ServeMetrics, KIND_LABELS};
use crate::protocol::{
    frame_at, parse_frame_header, AddressReport, BalanceReport, ClusterReport, Request, Response,
    ServeError, ServerStats, TaintReport, WireError, FRAME_EPOCH_LEN, FRAME_HEADER_LEN,
    MAX_REQUEST_PAYLOAD,
};
use fistful_core::change::ChangeLabels;
use fistful_core::snapshot::ClusterSnapshot;
use fistful_flow::graph::{TaintScratch, TxGraph};
use fistful_flow::theft::track_theft_indexed;
use fistful_flow::{point_at, BalancePoint};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long an idle worker read waits before re-checking the shutdown
/// flag — one deadline tick ([`crate::conn::TICK`]). Bounds shutdown
/// latency without costing anything on busy connections.
const IDLE_POLL: Duration = TICK;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind, e.g. `"127.0.0.1:0"` for an ephemeral port.
    pub addr: String,
    /// Worker threads. `0` means one per available core.
    pub workers: usize,
    /// Total response-cache entries across all shards; `0` disables the
    /// cache entirely.
    pub cache_entries: usize,
    /// Server-side ceiling on a taint request's `max_txs` walk bound (the
    /// client's value is clamped to this).
    pub max_taint_txs: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            cache_entries: 4096,
            max_taint_txs: 5_000,
        }
    }
}

/// Everything the handlers read: the frozen artifacts of one finished
/// clustering run over one chain (or one live-ingest epoch of it).
///
/// Immutable after construction and shared across workers through an
/// [`Arc`]; [`ServeArtifacts::new`] refuses pairs that do not describe
/// the same chain (`ClusterSnapshot::pairs_with_chain` plus a labels
/// dimension check), so a server can never be started on — or hot-swapped
/// to — mismatched artifacts.
pub struct ServeArtifacts {
    /// The frozen clustering: address → cluster → aggregates + names.
    pub snapshot: ClusterSnapshot,
    /// The columnar transaction-graph index taint walks run on.
    pub graph: TxGraph,
    /// Heuristic-2 change labels steering peel-side taint propagation.
    pub labels: ChangeLabels,
    /// The precomputed balance series served by `BalancePoint` requests
    /// (height-sorted, as `balance_series` produces it).
    pub balances: Vec<BalancePoint>,
}

impl ServeArtifacts {
    /// Validates that the four artifacts describe the same chain and
    /// fuses them into the serving bundle.
    pub fn new(
        snapshot: ClusterSnapshot,
        graph: TxGraph,
        labels: ChangeLabels,
        balances: Vec<BalancePoint>,
    ) -> Result<ServeArtifacts, ServeError> {
        if !snapshot.pairs_with_chain(graph.address_count(), graph.tx_count() as u64) {
            return Err(ServeError::MismatchedArtifacts(
                "snapshot and graph disagree on address/transaction counts",
            ));
        }
        if labels.vout_of.len() != graph.tx_count() {
            return Err(ServeError::MismatchedArtifacts(
                "change labels and graph disagree on transaction count",
            ));
        }
        if balances.windows(2).any(|w| w[0].height > w[1].height) {
            return Err(ServeError::MismatchedArtifacts(
                "balance series is not height-sorted",
            ));
        }
        Ok(ServeArtifacts { snapshot, graph, labels, balances })
    }
}

/// One published artifact generation: the bundle, the epoch it was built
/// at, and the cache floors in force while it is current.
pub(crate) struct Published {
    pub(crate) epoch: u64,
    pub(crate) floors: CacheFloors,
    pub(crate) artifacts: Arc<ServeArtifacts>,
}

/// The request-serving half of a server, independent of how connections
/// are multiplexed: published artifacts, response cache, counters, and
/// the shutdown flag. Both serve loops — the threaded worker pool here
/// and the event loop in [`crate::event`] — answer requests through one
/// `Core` via [`process_request`], which is what makes their byte
/// streams identical by construction.
pub(crate) struct Core {
    /// The current artifact generation. Each request clones the inner
    /// `Arc` once (see [`process_request`]); the mutex is held only for
    /// that pointer copy, so a publish never blocks behind a long-running
    /// handler.
    pub(crate) published: Mutex<Arc<Published>>,
    pub(crate) cache: Option<ShardedCache>,
    pub(crate) max_taint_txs: usize,
    pub(crate) workers: u32,
    pub(crate) shutdown: AtomicBool,
    pub(crate) requests: AtomicU64,
    pub(crate) swaps: AtomicU64,
    /// The full lock-free metric registry (see [`crate::metrics`]):
    /// shared by the worker pool, the event loop, the live pipeline, and
    /// both scrape paths.
    pub(crate) metrics: ServeMetrics,
    /// When this core was created — the server's monotonic uptime clock.
    pub(crate) start: Instant,
}

impl Core {
    /// Fresh serving state at epoch zero around one artifact bundle.
    pub(crate) fn new(
        workers: u32,
        cache_entries: usize,
        max_taint_txs: usize,
        artifacts: Arc<ServeArtifacts>,
    ) -> Core {
        Core {
            published: Mutex::new(Arc::new(Published {
                epoch: 0,
                floors: CacheFloors::default(),
                artifacts,
            })),
            cache: (cache_entries > 0).then(|| ShardedCache::new(cache_entries)),
            max_taint_txs,
            workers,
            shutdown: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            metrics: ServeMetrics::new(),
            start: Instant::now(),
        }
    }

    /// The current artifact generation (one lock, one refcount bump).
    pub(crate) fn current(&self) -> Arc<Published> {
        Arc::clone(&self.published.lock().expect("published poisoned"))
    }

    /// A point-in-time copy of the served counters and artifact
    /// dimensions — the `Stats` answer.
    pub(crate) fn stats(&self) -> ServerStats {
        let published = self.current();
        ServerStats {
            requests: self.requests.load(Ordering::Relaxed),
            cache_hits: self.cache.as_ref().map(ShardedCache::hits).unwrap_or(0),
            cache_misses: self.cache.as_ref().map(ShardedCache::misses).unwrap_or(0),
            workers: self.workers,
            address_count: published.artifacts.snapshot.address_count() as u64,
            tx_count: published.artifacts.graph.tx_count() as u64,
            cluster_count: published.artifacts.snapshot.cluster_count() as u64,
            tip_height: published.artifacts.snapshot.tip_height(),
            epoch: published.epoch,
            swaps: self.swaps.load(Ordering::Relaxed),
            uptime_seconds: self.start.elapsed().as_secs(),
            requests_total: self.metrics.requests.iter().map(|c| c.get()).sum(),
        }
    }

    /// Snapshots the entire metric registry into the plain value both
    /// scrape paths serve — the binary `MetricsDump` response encodes
    /// exactly this, and the HTTP exporter renders exactly this, so the
    /// two views can never disagree about a counter.
    pub(crate) fn metrics_dump(&self) -> MetricsDump {
        let m = &self.metrics;
        let mut counters = Vec::new();
        for (i, label) in KIND_LABELS.iter().enumerate() {
            counters
                .push((format!("fistful_requests_total{{type=\"{label}\"}}"), m.requests[i].get()));
        }
        counters.push(("fistful_backpressure_stalls_total".to_string(), m.backpressure_stalls.get()));
        counters.push(("fistful_busy_sheds_total".to_string(), m.busy_sheds.get()));
        counters
            .push(("fistful_timer_stall_expirations_total".to_string(), m.stall_expirations.get()));
        counters.push(("fistful_timer_idle_expirations_total".to_string(), m.idle_expirations.get()));
        counters.push(("fistful_ingest_blocks_total".to_string(), m.ingest_blocks.get()));
        counters.push(("fistful_swaps_total".to_string(), self.swaps.load(Ordering::Relaxed)));
        if let Some(cache) = &self.cache {
            for (i, s) in cache.shard_stats().iter().enumerate() {
                counters.push((format!("fistful_cache_hits_total{{shard=\"{i}\"}}"), s.hits));
                counters.push((format!("fistful_cache_misses_total{{shard=\"{i}\"}}"), s.misses));
                counters
                    .push((format!("fistful_cache_evictions_total{{shard=\"{i}\"}}"), s.evictions));
            }
        }
        let gauges = vec![
            ("fistful_inflight_requests".to_string(), m.inflight.get()),
            ("fistful_connections".to_string(), m.connections.get()),
            ("fistful_queue_depth".to_string(), m.queue_depth.get()),
            ("fistful_live_epoch".to_string(), m.live_epoch.get()),
            ("fistful_uptime_seconds".to_string(), self.start.elapsed().as_secs()),
        ];
        let mut histograms = Vec::with_capacity(KIND_LABELS.len() + 2);
        for (i, label) in KIND_LABELS.iter().enumerate() {
            histograms.push(
                m.request_latency[i]
                    .dump(&format!("fistful_request_latency_seconds{{type=\"{label}\"}}")),
            );
        }
        histograms.push(m.dispatch_wait.dump("fistful_dispatch_wait_seconds"));
        histograms.push(m.swap_latency.dump("fistful_swap_latency_seconds"));
        MetricsDump { counters, gauges, histograms }
    }

    /// Whether shutdown has been signalled.
    pub(crate) fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// A cheap, cloneable handle onto a running server's metric registry —
/// what the HTTP exporter ([`crate::httpexpo`]) renders from, obtainable
/// from either serve engine
/// ([`Server::metrics_handle`] / [`crate::event::EventServer::metrics_handle`]).
#[derive(Clone)]
pub struct MetricsHandle {
    pub(crate) core: Arc<Core>,
}

impl MetricsHandle {
    /// Snapshots every metric into a plain [`MetricsDump`].
    pub fn dump(&self) -> MetricsDump {
        self.core.metrics_dump()
    }

    /// Renders the Prometheus text exposition of a fresh snapshot.
    pub fn render(&self) -> String {
        render_prometheus(&self.dump())
    }
}

/// State shared by the acceptor, the workers, and the [`Server`] handle.
struct Shared {
    core: Arc<Core>,
    queue: Mutex<VecDeque<TcpStream>>,
    available: Condvar,
}

/// A handle for hot-swapping the served artifacts. Cloneable and
/// independent of the [`Server`] handle's lifetime guarantees — but a
/// publish after shutdown is a harmless no-op-equivalent (no worker will
/// ever read it).
#[derive(Clone)]
pub struct Publisher {
    pub(crate) core: Arc<Core>,
}

impl Publisher {
    /// Publishes a fresh artifact generation built at `epoch`.
    ///
    /// Every subsequent request is answered from `artifacts` and stamped
    /// with `epoch`; requests already in flight finish on the generation
    /// they loaded. The cache's graph floor rises to `epoch`
    /// unconditionally; the snapshot floor rises too unless
    /// `ids_stable` — the caller attests that no *existing* address
    /// changed assignment and no existing cluster's aggregates changed
    /// (a non-merging, append-only epoch), so `Some`-bodied
    /// `AddressInfo`/`ClusterSummary` entries cached earlier are still
    /// byte-exact and survive.
    ///
    /// Epochs must be nondecreasing across publishes.
    pub fn publish(&self, artifacts: Arc<ServeArtifacts>, epoch: u64, ids_stable: bool) {
        let mut published = self.core.published.lock().expect("published poisoned");
        assert!(epoch >= published.epoch, "published epochs must be nondecreasing");
        let floors = CacheFloors {
            snapshot: if ids_stable { published.floors.snapshot } else { epoch },
            graph: epoch,
        };
        *published = Arc::new(Published { epoch, floors, artifacts });
        drop(published);
        self.core.swaps.fetch_add(1, Ordering::Relaxed);
        self.core.metrics.live_epoch.set(epoch);
    }

    /// The epoch of the currently published generation.
    pub fn current_epoch(&self) -> u64 {
        self.core.current().epoch
    }

    /// Number of publishes performed on this server so far.
    pub fn swaps(&self) -> u64 {
        self.core.swaps.load(Ordering::Relaxed)
    }
}

/// A running query server. Dropping the handle shuts the server down; call
/// [`Server::shutdown`] to do it explicitly and observe completion.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and spawns the acceptor and worker threads.
    pub fn start(config: ServeConfig, artifacts: Arc<ServeArtifacts>) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&config.addr)?;
        Server::start_with_listener(listener, config, artifacts)
    }

    /// Like [`Server::start`], but serves on an already-bound listener
    /// (`config.addr` is ignored). This is the bind-early path: callers
    /// can bind and announce the port, build the (possibly expensive)
    /// artifacts, then start serving — connections that arrive in
    /// between wait in the OS accept backlog instead of being refused.
    pub fn start_with_listener(
        listener: TcpListener,
        config: ServeConfig,
        artifacts: Arc<ServeArtifacts>,
    ) -> Result<Server, ServeError> {
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            config.workers
        };
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            core: Arc::new(Core::new(
                workers as u32,
                config.cache_entries,
                config.max_taint_txs,
                artifacts,
            )),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
        });

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if shared.core.shutdown_requested() {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    shared.queue.lock().expect("queue poisoned").push_back(stream);
                    shared.available.notify_one();
                }
            })
        };
        let worker_handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();

        Ok(Server { shared, local_addr, acceptor: Some(acceptor), workers: worker_handles })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Current counters and artifact dimensions, without a socket round
    /// trip.
    pub fn stats(&self) -> ServerStats {
        self.shared.core.stats()
    }

    /// A handle for hot-swapping the served artifacts (see
    /// [`Publisher::publish`]).
    pub fn publisher(&self) -> Publisher {
        Publisher { core: Arc::clone(&self.shared.core) }
    }

    /// A handle onto this server's metric registry, for the HTTP
    /// exporter or direct in-process scraping.
    pub fn metrics_handle(&self) -> MetricsHandle {
        MetricsHandle { core: Arc::clone(&self.shared.core) }
    }

    /// Signals shutdown, drains in-flight requests, and joins every
    /// thread. Idempotent through [`Drop`].
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.core.shutdown.store(true, Ordering::SeqCst);
        // Wake the acceptor out of accept(); it observes the flag first.
        let _ = TcpStream::connect(self.local_addr);
        self.shared.available.notify_all();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// One worker: pop connections until shutdown, serving each to
/// completion with a thread-local reusable taint scratch.
fn worker_loop(shared: &Shared) {
    let mut scratch = TaintScratch::for_graph(&shared.core.current().artifacts.graph);
    loop {
        let conn = {
            let mut queue = shared.queue.lock().expect("queue poisoned");
            loop {
                if let Some(conn) = queue.pop_front() {
                    break Some(conn);
                }
                if shared.core.shutdown_requested() {
                    break None;
                }
                queue = shared
                    .available
                    .wait_timeout(queue, IDLE_POLL)
                    .expect("queue poisoned")
                    .0;
            }
        };
        match conn {
            Some(stream) => {
                shared.core.metrics.connections.inc();
                serve_connection(stream, shared, &mut scratch);
                shared.core.metrics.connections.dec();
            }
            None => return,
        }
    }
}

/// What one attempt to read a request frame produced.
enum FrameRead {
    /// A complete payload.
    Payload(Vec<u8>),
    /// The peer closed at a frame boundary.
    Eof,
    /// Shutdown was signalled while the connection sat idle.
    Shutdown,
    /// The frame was unacceptable; tell the peer and close.
    Bad(ServeError),
}

/// The typed error a stalled partial frame is answered with — shared by
/// both serve loops so the byte streams match.
pub(crate) fn stalled_read_error() -> ServeError {
    ServeError::Io("mid-frame read stalled".into())
}

/// Reads one frame, with silence bounded by a [`Deadline`] (the shared
/// bookkeeping both serve loops use). While no byte of the frame has
/// arrived, idle polls check the shutdown flag (and the keep-alive
/// limit); once a frame has started, a fully delivered frame is always
/// read to completion (and later answered — that is what lets shutdown
/// drain in-flight work), but a *stalled* partial frame is abandoned on
/// shutdown, and at the mid-frame deadline even without one — a
/// half-received request was never being processed, so dropping it loses
/// nothing that was promised.
fn read_request_frame(stream: &mut TcpStream, core: &Core) -> FrameRead {
    let mut deadline = Deadline::new();
    let mut header = [0u8; FRAME_HEADER_LEN];
    let mut filled = 0usize;
    while filled < FRAME_HEADER_LEN {
        match stream.read(&mut header[filled..]) {
            Ok(0) => {
                return if filled == 0 { FrameRead::Eof } else { FrameRead::Bad(ServeError::Truncated) }
            }
            Ok(n) => {
                filled += n;
                deadline.progress();
            }
            Err(e) => match e.kind() {
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                    if core.shutdown_requested() {
                        return FrameRead::Shutdown;
                    }
                    match deadline.tick(filled > 0) {
                        DeadlineVerdict::Wait => {}
                        // Keep-alive expired; free the worker.
                        DeadlineVerdict::KeepAliveExpired => return FrameRead::Eof,
                        DeadlineVerdict::MidFrameStalled => {
                            return FrameRead::Bad(stalled_read_error())
                        }
                    }
                }
                std::io::ErrorKind::Interrupted => {}
                _ => return FrameRead::Bad(ServeError::Io(e.to_string())),
            },
        }
    }
    let parsed = match parse_frame_header(&header, MAX_REQUEST_PAYLOAD) {
        Ok(parsed) => parsed,
        Err(e) => return FrameRead::Bad(e),
    };
    // Request frames carry an epoch field after the header; the field is
    // reserved on requests (clients send zero), so the server reads and
    // ignores it. Reading it together with the payload keeps the stall
    // accounting in one loop.
    let len = parsed.payload_len as usize;
    let mut rest = vec![0u8; FRAME_EPOCH_LEN + len];
    let mut filled = 0usize;
    while filled < rest.len() {
        match stream.read(&mut rest[filled..]) {
            Ok(0) => return FrameRead::Bad(ServeError::Truncated),
            Ok(n) => {
                filled += n;
                deadline.progress();
            }
            Err(e) => match e.kind() {
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                    if core.shutdown_requested() {
                        return FrameRead::Shutdown;
                    }
                    // The body is always mid-frame: the header bytes that
                    // got us here already started the frame.
                    if deadline.tick(true) == DeadlineVerdict::MidFrameStalled {
                        return FrameRead::Bad(stalled_read_error());
                    }
                }
                std::io::ErrorKind::Interrupted => {}
                _ => return FrameRead::Bad(ServeError::Io(e.to_string())),
            },
        }
    }
    FrameRead::Payload(rest.split_off(FRAME_EPOCH_LEN))
}

/// The staleness class a response is cached under, decided from its
/// *content*: `Some`-bodied snapshot lookups are pure functions of an
/// existing cluster assignment (stable across non-merging epochs), while
/// not-found answers, taint traces, and balance points can all change
/// when the chain merely grows.
fn cache_class_of(response: &Response) -> CacheClass {
    match response {
        Response::AddressInfo(Some(_)) | Response::ClusterSummary(Some(_)) => CacheClass::Snapshot,
        _ => CacheClass::Graph,
    }
}

/// The complete error frame answering an unacceptable request frame,
/// stamped with the current epoch — shared by both serve loops so a
/// framing error's bytes are identical whichever loop caught it.
pub(crate) fn framing_error_frame(core: &Core, e: &ServeError) -> Vec<u8> {
    Response::Error(WireError::from_serve_error(e)).to_frame_at(core.current().epoch)
}

/// Answers one request payload end to end against the artifact
/// generation `published` the caller pinned for it: counter bump, cache
/// consult, decode, handle, oversize demotion, cache insert, and
/// epoch-stamped framing. Returns the complete response frame and whether
/// the connection must close after sending it.
///
/// Everything the request reads — cache floors, handlers, the epoch
/// stamped into the frame — comes from that one generation, so a
/// concurrent publish cannot tear a request across generations. Callers
/// pin in request order on each connection, so one connection's
/// responses never step back an epoch.
///
/// This is the single request path both serve loops share — the threaded
/// workers call it with the socket in hand, the event loop from its
/// worker pool with the frame already parsed — which is what makes the
/// two servers' byte streams identical by construction.
pub(crate) fn process_request(
    core: &Core,
    published: &Published,
    payload: Vec<u8>,
    scratch: &mut TaintScratch,
) -> (Vec<u8>, bool) {
    // Per-type count at entry, from the raw type byte — *before* the
    // cache consult, so cache hits count and a scraped per-type total
    // exactly matches what a load generator sent. Latency is observed at
    // exit, covering cache consult / decode / handle / encode / framing.
    let started = Instant::now();
    let kind = kind_index(payload.first().copied().unwrap_or(u8::MAX));
    core.metrics.requests[kind].inc();
    core.metrics.inflight.inc();
    let result = process_request_inner(core, published, payload, scratch);
    core.metrics.inflight.dec();
    core.metrics.request_latency[kind].observe(started.elapsed());
    result
}

fn process_request_inner(
    core: &Core,
    published: &Published,
    payload: Vec<u8>,
    scratch: &mut TaintScratch,
) -> (Vec<u8>, bool) {
    core.requests.fetch_add(1, Ordering::Relaxed);

    // Cache fast path: the key is the raw request payload, so a hit
    // skips decoding, handling, and re-encoding alike. Only consult it
    // for request types whose answers are pure functions of the
    // artifacts (never Ping/Stats). Values are stored as payload
    // bytes; framing stamps the pinned generation's epoch.
    let cacheable = payload
        .first()
        .is_some_and(|&t| Request::type_byte_is_cacheable(t));
    if cacheable {
        if let Some(cached) = core.cache.as_ref().and_then(|c| c.get(&payload, &published.floors))
        {
            return (frame_at(&cached, published.epoch), false);
        }
    }

    let (mut response, mut close_after) = match Request::decode_payload(&payload) {
        Ok(request) => handle(&request, core, published, scratch),
        Err(e) => (Response::Error(WireError::from_serve_error(&e)), true),
    };
    let mut encoded = fistful_chain::encode::Encodable::encode_to_vec(&response);
    // The client enforces MAX_RESPONSE_PAYLOAD on its side of the
    // protocol; a response beyond it (e.g. a taint trace under an
    // operator-raised `max_taint_txs` ceiling) must become a typed
    // error here, not a frame every conforming peer rejects.
    if encoded.len() > crate::protocol::MAX_RESPONSE_PAYLOAD as usize {
        let e = ServeError::InvalidRequest(format!(
            "response of {} bytes exceeds the {}-byte frame limit; lower the walk bounds",
            encoded.len(),
            crate::protocol::MAX_RESPONSE_PAYLOAD
        ));
        response = Response::Error(WireError::from_serve_error(&e));
        close_after = true;
        encoded = fistful_chain::encode::Encodable::encode_to_vec(&response);
    }
    if cacheable && !close_after {
        if let Some(cache) = core.cache.as_ref() {
            cache.insert(payload, encoded.clone(), published.epoch, cache_class_of(&response));
        }
    }
    (frame_at(&encoded, published.epoch), close_after)
}

/// Serves one connection until EOF, a protocol error, or shutdown.
fn serve_connection(mut stream: TcpStream, shared: &Shared, scratch: &mut TaintScratch) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(IDLE_POLL)).is_err() {
        return;
    }
    let core = &*shared.core;
    loop {
        // Between requests is the drain point: the previous request (if
        // any) was answered in full; if shutdown has been signalled, close
        // now instead of starting another read. Without this check a
        // client pumping requests back-to-back would keep the socket
        // readable forever and the idle-timeout path would never fire.
        if core.shutdown_requested() {
            return;
        }
        let payload = match read_request_frame(&mut stream, core) {
            FrameRead::Payload(payload) => payload,
            FrameRead::Eof | FrameRead::Shutdown => return,
            FrameRead::Bad(e) => {
                // Tell the peer what was wrong with its frame, then close:
                // after a framing error the stream cannot be resynced.
                let _ = stream.write_all(&framing_error_frame(core, &e));
                close_gracefully(stream);
                return;
            }
        };
        let (framed, close_after) = process_request(core, &core.current(), payload, scratch);
        if stream.write_all(&framed).is_err() {
            return;
        }
        if close_after {
            close_gracefully(stream);
            return;
        }
    }
}

/// Closes a connection without losing the response just written: half-
/// close the write side (FIN after the queued bytes) and briefly drain
/// whatever the peer still has in flight, so dropping the socket does not
/// turn into a RST that discards the error frame before the peer reads
/// it. The drain is bounded in both bytes and time, so a hostile peer
/// cannot pin the worker.
fn close_gracefully(mut stream: TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 4096];
    let mut drained = 0usize;
    let mut idle_rounds = 0u32;
    while drained <= MAX_REQUEST_PAYLOAD as usize && idle_rounds < 8 {
        match stream.read(&mut sink) {
            Ok(0) => return, // peer finished; fully clean close
            Ok(n) => drained += n,
            Err(e) => match e.kind() {
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => idle_rounds += 1,
                std::io::ErrorKind::Interrupted => {}
                _ => return,
            },
        }
    }
}

/// Answers one decoded request against one pinned artifact generation.
/// Returns the response and whether the connection must close afterwards
/// (semantic errors close, like framing errors do).
fn handle(
    request: &Request,
    core: &Core,
    published: &Published,
    scratch: &mut TaintScratch,
) -> (Response, bool) {
    let artifacts = &published.artifacts;
    let response = match request {
        Request::Ping => Response::Pong,
        Request::Stats => Response::Stats(core.stats()),
        Request::AddressInfo { address } => Response::AddressInfo(
            artifacts.snapshot.cluster_of(*address).map(|cluster| AddressReport {
                address: *address,
                cluster,
                info: artifacts.snapshot.info(cluster).expect("cluster_of implies info").clone(),
            }),
        ),
        Request::ClusterSummary { cluster } => Response::ClusterSummary(
            artifacts
                .snapshot
                .info(*cluster)
                .map(|info| ClusterReport { cluster: *cluster, info: info.clone() }),
        ),
        Request::TaintTrace { loot, max_txs } => {
            let graph = &artifacts.graph;
            for &(tx, vout) in loot {
                if tx as usize >= graph.tx_count() || vout as usize >= graph.num_outputs(tx) {
                    let e = ServeError::InvalidRequest(format!(
                        "loot outpoint ({tx}, {vout}) is beyond the graph"
                    ));
                    return (Response::Error(WireError::from_serve_error(&e)), true);
                }
            }
            let bound = (*max_txs as usize).min(core.max_taint_txs);
            let trace = track_theft_indexed(
                graph,
                loot,
                &artifacts.labels,
                &artifacts.snapshot,
                bound,
                scratch,
            );
            Response::TaintTrace(TaintReport::from_trace(&trace))
        }
        Request::BalancePoint { height } => {
            Response::BalancePoint(point_at(&artifacts.balances, *height).map(BalanceReport::from))
        }
        // The binary scrape path: the same snapshot function the HTTP
        // exporter renders, so both report identical counter values for
        // identical server state. Never cached (the type byte is not
        // cacheable): a scrape must always be computed fresh.
        Request::MetricsDump => Response::MetricsDump(core.metrics_dump()),
    };
    (response, false)
}
