//! The four serve workloads: closed-loop request/response traffic over
//! real sockets against a server in this process.
//!
//! Two connections, one client thread each (`nproc` on the box the
//! benchmark was sized on): the callers of this service are analyst
//! scripts that wait for each reply, so load is closed-loop. Every
//! response is compared, by length and hash, with the answer the same
//! server gave in an untimed reference pass, and a sample of those
//! answers with direct library calls.

use crate::economy::{prepare, setup_layers, Prepared};
use crate::procstat;
use crate::report::{Outcome, RunOpts};
use crate::stats::{median, median_u64, Histogram};
use crate::stream::{self, hash_bytes, Pool, Traffic, CONNECTIONS, MAX_TAINT_TXS};
use crate::trace::{self, span_cost_ns, Open, Span, Tracer};
use fistful_chain::encode::Encodable;
use fistful_flow::graph::TaintScratch;
use fistful_flow::{point_at, track_theft_indexed};
use fistful_serve::metrics::{kind_index, KIND_LABELS, REQUEST_KINDS};
use fistful_serve::server::MetricsHandle;
use fistful_serve::{
    AddressReport, BalanceReport, CacheClass, CacheFloors, Client, ClusterReport, EventServeConfig,
    EventServer, MetricsDump, Request, Response, ServeArtifacts, ServeConfig, ServeError, Server,
    ShardedCache, TaintReport,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CACHE_ENTRIES: usize = 4096;
/// First byte of an error response payload.
const ERROR_TYPE_BYTE: u8 = 0xEE;
/// Spans one client thread may record in the traced windows.
const CLIENT_SPAN_CAP: usize = 1 << 20;
/// Requests of each connection's traced stream the in-process replay
/// repeats; it also stops after a quarter of the run's timed length.
const REPLAY_CAP: usize = 25_000;
const PING_CALIBRATION: usize = 2_000;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    Threaded,
    Event,
}

/// The server configuration every workload runs.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: CONNECTIONS,
        cache_entries: CACHE_ENTRIES,
        max_taint_txs: MAX_TAINT_TXS as usize,
    }
}

/// A running server of either engine.
pub enum Engine {
    Threaded(Server),
    Event(EventServer),
}

impl Engine {
    fn start(kind: EngineKind, artifacts: Arc<ServeArtifacts>) -> Result<Engine, ServeError> {
        Ok(match kind {
            EngineKind::Threaded => Engine::Threaded(Server::start(serve_config(), artifacts)?),
            EngineKind::Event => Engine::Event(EventServer::start(
                EventServeConfig::from(serve_config()),
                artifacts,
            )?),
        })
    }

    fn addr(&self) -> std::net::SocketAddr {
        match self {
            Engine::Threaded(s) => s.local_addr(),
            Engine::Event(s) => s.local_addr(),
        }
    }

    fn metrics(&self) -> MetricsHandle {
        match self {
            Engine::Threaded(s) => s.metrics_handle(),
            Engine::Event(s) => s.metrics_handle(),
        }
    }

    fn shutdown(self) {
        match self {
            Engine::Threaded(s) => s.shutdown(),
            Engine::Event(s) => s.shutdown(),
        }
    }
}

/// One client connection that counts what it sends, per request type,
/// so the server's own per-type counters can be checked against it.
pub struct Conn {
    client: Client,
    pub sent: [u64; REQUEST_KINDS],
}

impl Conn {
    pub fn connect(addr: std::net::SocketAddr) -> Result<Conn, ServeError> {
        Ok(Conn {
            client: Client::connect(addr)?,
            sent: [0; REQUEST_KINDS],
        })
    }

    pub fn call(&mut self, payload: &[u8]) -> Result<Vec<u8>, ServeError> {
        self.sent[kind_index(payload[0])] += 1;
        self.client.call_raw(payload)
    }
}

/// The recorded answer to one pooled request.
type Expected = (usize, u64);

fn expected(bytes: &[u8]) -> Expected {
    (bytes.len(), hash_bytes(bytes))
}

/// Answers request payloads by calling the libraries directly, in the
/// order `process_request` (private to the serve crate) calls them:
/// cache get, decode, handler, encode, cache insert. With a tracer it is
/// the traced run's recomposition of a request; without a cache or a
/// tracer it is the oracle the reference answers are sampled against.
pub struct Replay<'a> {
    artifacts: &'a ServeArtifacts,
    cache: Option<ShardedCache>,
    scratch: TaintScratch,
    pub walks: u64,
    pub walk_txs: u64,
}

impl<'a> Replay<'a> {
    pub fn new(artifacts: &'a ServeArtifacts, cache_entries: usize) -> Replay<'a> {
        Replay {
            artifacts,
            cache: (cache_entries > 0).then(|| ShardedCache::new(cache_entries)),
            scratch: TaintScratch::for_graph(&artifacts.graph),
            walks: 0,
            walk_txs: 0,
        }
    }

    pub fn answer(&mut self, payload: &[u8], op: u32, t: &mut Tracer) -> Vec<u8> {
        let root = t.open("serve.request", op);
        if let Some(cache) = &self.cache {
            let get = t.open("serve.cache.get", op);
            let found = cache.get(payload, &CacheFloors::default());
            t.close_as(
                get,
                if found.is_some() {
                    "serve.cache.get_hit"
                } else {
                    "serve.cache.get_miss"
                },
            );
            if let Some(bytes) = found {
                let out = bytes.to_vec();
                t.close(root);
                return out;
            }
        }
        let request = t
            .scope("serve.protocol.decode", op, || {
                Request::decode_payload(payload)
            })
            .expect("the benchmark sends only well-formed requests");
        let a = self.artifacts;
        let response = match &request {
            Request::AddressInfo { address } => t.scope("core.snapshot.lookup", op, || {
                Response::AddressInfo(a.snapshot.cluster_of(*address).map(|cluster| {
                    AddressReport {
                        address: *address,
                        cluster,
                        info: a
                            .snapshot
                            .info(cluster)
                            .expect("cluster_of implies info")
                            .clone(),
                    }
                }))
            }),
            Request::ClusterSummary { cluster } => t.scope("core.snapshot.lookup", op, || {
                Response::ClusterSummary(a.snapshot.info(*cluster).map(|info| ClusterReport {
                    cluster: *cluster,
                    info: info.clone(),
                }))
            }),
            Request::TaintTrace { loot, max_txs } => {
                let bound = (*max_txs).min(MAX_TAINT_TXS) as usize;
                let scratch = &mut self.scratch;
                let trace = t.scope("flow.theft.walk", op, || {
                    track_theft_indexed(&a.graph, loot, &a.labels, &a.snapshot, bound, scratch)
                });
                self.walks += 1;
                self.walk_txs += trace.movements.len() as u64;
                Response::TaintTrace(TaintReport::from_trace(&trace))
            }
            Request::BalancePoint { height } => t.scope("flow.balance.point_at", op, || {
                Response::BalancePoint(point_at(&a.balances, *height).map(BalanceReport::from))
            }),
            other => panic!("{other:?} is not a request the benchmark sends"),
        };
        let encoded = t.scope("serve.protocol.encode", op, || response.encode_to_vec());
        if let Some(cache) = &self.cache {
            let class = match response {
                Response::AddressInfo(Some(_)) | Response::ClusterSummary(Some(_)) => {
                    CacheClass::Snapshot
                }
                _ => CacheClass::Graph,
            };
            t.scope("serve.cache.insert", op, || {
                cache.insert(payload.to_vec(), encoded.clone(), 0, class)
            });
        }
        t.close(root);
        encoded
    }
}

/// A complete set-up: artifacts built, server up, clients connected.
struct Ready {
    prep: Prepared,
    engine: Engine,
    conns: Vec<Conn>,
}

fn set_up(opts: &RunOpts, engine: EngineKind, t: &mut Tracer) -> Result<Ready, ServeError> {
    let prep = prepare(opts.seed, opts.scale(), t);
    let engine = Engine::start(engine, Arc::clone(&prep.artifacts))?;
    let mut conns = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        let mut conn = Conn::connect(engine.addr())?;
        conn.call(&Request::Ping.encode_to_vec())?;
        conns.push(conn);
    }
    Ok(Ready {
        prep,
        engine,
        conns,
    })
}

/// One client thread's record of one timed window.
struct WindowStat {
    ops: u64,
    latency: Histogram,
    latency_sum_ns: u64,
}

struct Driven {
    windows: Vec<WindowStat>,
    failed: u64,
    response_bytes: u64,
    /// Pool indices sent in the traced windows, in order.
    traced_order: Vec<u32>,
    spans: Vec<Span>,
    spans_dropped: u64,
    error: Option<String>,
}

/// When a connection's windows start, how long and how many they are,
/// and from which one on each round trip records a span.
#[derive(Clone, Copy)]
struct Schedule {
    start: Instant,
    window: Duration,
    windows: usize,
    traced_from: usize,
    /// The clock origin the run's tracers share.
    origin: Instant,
}

/// The closed loop of one connection: send, wait, check, record, until
/// the last window's deadline. Nothing here allocates after the first
/// two statements.
fn drive(conn: &mut Conn, pool: &mut Pool, reference: &[Expected], plan: Schedule) -> Driven {
    let Schedule {
        start,
        window,
        windows,
        traced_from,
        origin,
    } = plan;
    let traced = traced_from < windows;
    let mut tracer = if traced {
        Tracer::on(origin, CLIENT_SPAN_CAP)
    } else {
        Tracer::off()
    };
    let mut out = Driven {
        windows: (0..windows)
            .map(|_| WindowStat {
                ops: 0,
                latency: Histogram::new(),
                latency_sum_ns: 0,
            })
            .collect(),
        failed: 0,
        response_bytes: 0,
        traced_order: Vec::with_capacity(if traced { CLIENT_SPAN_CAP } else { 0 }),
        spans: Vec::new(),
        spans_dropped: 0,
        error: None,
    };
    while Instant::now() < start {
        std::hint::spin_loop();
    }
    let mut w = 0usize;
    let mut deadline = start + window;
    let mut op = 0u32;
    'run: loop {
        let i = pool.advance();
        let span = if w >= traced_from {
            if out.traced_order.len() < CLIENT_SPAN_CAP {
                out.traced_order.push(i as u32);
            }
            tracer.open("serve.client.roundtrip", op)
        } else {
            Open::NONE
        };
        let sent = Instant::now();
        let result = conn.call(&pool.payloads[i]);
        let done = Instant::now();
        tracer.close(span);
        op = op.wrapping_add(1);
        match result {
            Ok(bytes) => {
                out.response_bytes += bytes.len() as u64;
                if expected(&bytes) != reference[i] {
                    out.failed += 1;
                }
            }
            Err(e) => {
                out.failed += 1;
                out.error = Some(e.to_string());
                break 'run;
            }
        }
        let ns = (done - sent).as_nanos() as u64;
        out.windows[w].ops += 1;
        out.windows[w].latency.record(ns);
        out.windows[w].latency_sum_ns += ns;
        while done >= deadline {
            w += 1;
            if w == windows {
                break 'run;
            }
            deadline += window;
        }
    }
    out.spans_dropped = tracer.dropped();
    out.spans = tracer.into_spans();
    out
}

/// Sum over `counters` of every entry whose name starts with `prefix`.
fn counter_sum(dump: &MetricsDump, prefix: &str) -> u64 {
    dump.counters
        .iter()
        .filter(|(n, _)| n.starts_with(prefix))
        .map(|(_, v)| *v)
        .sum()
}

/// `(sum_micros, count)` over the histograms whose name starts with
/// `prefix`.
fn histogram_sum(dump: &MetricsDump, prefix: &str) -> (u64, u64) {
    dump.histograms
        .iter()
        .filter(|h| h.name.starts_with(prefix))
        .fold((0, 0), |(s, c), h| (s + h.sum_micros, c + h.count))
}

fn mean_micros(before: (u64, u64), after: (u64, u64)) -> f64 {
    let count = after.1 - before.1;
    if count == 0 {
        0.0
    } else {
        (after.0 - before.0) as f64 / count as f64
    }
}

/// The highest of some throughputs: the window least disturbed.
pub fn best(throughputs: &[f64]) -> f64 {
    throughputs.iter().copied().fold(0.0, f64::max)
}

/// The traced run's second half: repeats the traced windows' request
/// streams through [`Replay`] under a root span per request, rejects the
/// trace unless every answer equals the socket's, and reads the request
/// path's per-layer numbers off the spans. Returns the spans.
fn replay_and_attribute(
    out: &mut Outcome,
    prep: &Prepared,
    pools: &[Pool],
    reference: &[Vec<Expected>],
    driven: &[Driven],
    opts: &RunOpts,
    origin: Instant,
) -> Vec<Span> {
    let mut replay = Replay::new(&prep.artifacts, CACHE_ENTRIES);
    // Bring the replay's cache to the state the server's was in when the
    // traced windows began: it held the requests each connection had sent
    // most recently, which on a cycling pool are the ones just before the
    // first traced index, and on the hot pool the whole pool.
    let recent = CACHE_ENTRIES / CONNECTIONS;
    for k in 0..recent {
        for (pool, d) in pools.iter().zip(driven) {
            let n = pool.payloads.len();
            let warm = recent.min(n);
            if k < warm {
                let first = d.traced_order.first().copied().unwrap_or(0) as usize;
                let i = (first + n - warm + k) % n;
                replay.answer(&pool.payloads[i], 0, &mut Tracer::off());
            }
        }
    }
    replay.walks = 0;
    replay.walk_txs = 0;

    // The server saw the two connections' requests interleaved; so does
    // the replay, which keeps a pooled request as far from its last visit.
    let budget = Duration::from_secs_f64(opts.seconds / 4.0);
    let began = Instant::now();
    let mut t = Tracer::on(origin, REPLAY_CAP * CONNECTIONS * 6);
    let mut replayed = 0usize;
    let mut differ = 0usize;
    let longest = driven
        .iter()
        .map(|d| d.traced_order.len())
        .max()
        .unwrap_or(0);
    for k in 0..longest.min(REPLAY_CAP) {
        if k % 32 == 0 && began.elapsed() > budget {
            break;
        }
        for (c, d) in driven.iter().enumerate() {
            let Some(&i) = d.traced_order.get(k) else {
                continue;
            };
            let answer = replay.answer(&pools[c].payloads[i as usize], k as u32, &mut t);
            replayed += 1;
            differ += usize::from(expected(&answer) != reference[c][i as usize]);
        }
    }
    out.check(
        "trace_replay_matches_socket",
        replayed > 0 && differ == 0,
        format!("{replayed} traced requests replayed in process, {differ} answers differ from the socket's"),
    );

    let spans = t.into_spans();
    let by_name = trace::self_times_by_name(&spans);
    let ns = |name: &str| by_name.get(name).map(|v| median_u64(v)).unwrap_or(0.0);
    out.layer("serve.cache.get_hit_ns", ns("serve.cache.get_hit"));
    out.layer("serve.cache.get_miss_ns", ns("serve.cache.get_miss"));
    out.layer("serve.cache.insert_ns", ns("serve.cache.insert"));
    out.layer("serve.protocol.decode_ns", ns("serve.protocol.decode"));
    out.layer("serve.protocol.encode_ns", ns("serve.protocol.encode"));
    out.layer("core.snapshot.lookup_ns", ns("core.snapshot.lookup"));
    out.layer("flow.balance.point_at_ns", ns("flow.balance.point_at"));
    out.layer("flow.theft.walk_us", ns("flow.theft.walk") / 1e3);
    let walk_ns: u64 = by_name
        .get("flow.theft.walk")
        .map(|v| v.iter().sum())
        .unwrap_or(0);
    out.layer(
        "flow.theft.txs_per_walk",
        replay.walk_txs as f64 / replay.walks.max(1) as f64,
    );
    out.layer(
        "flow.theft.ns_per_tx",
        walk_ns as f64 / replay.walk_txs.max(1) as f64,
    );
    spans
}

pub fn run(
    workload: &'static str,
    traffic: Traffic,
    engine_kind: EngineKind,
    opts: RunOpts,
) -> Result<Outcome, ServeError> {
    let mut out = Outcome::new(workload, opts);
    let origin = opts.started;
    let mut setup_tracer = opts.setup_tracer();

    let Ready {
        prep,
        engine,
        mut conns,
    } = set_up(&opts, engine_kind, &mut setup_tracer)?;
    let first_setup_s = opts.started.elapsed().as_secs_f64();
    let metrics = engine.metrics();

    let mut pools = stream::pools(traffic, opts.seed, prep.key_space());
    out.notes.push(format!(
        "request stream {:016x}: {} connections, closed loop, {} requests pooled; {} txs, {} addresses, {} clusters",
        stream::fingerprint(traffic, opts.seed, prep.key_space()),
        CONNECTIONS,
        pools.iter().map(|p| p.payloads.len()).sum::<usize>(),
        prep.chain.tx_count(),
        prep.artifacts.snapshot.address_count(),
        prep.artifacts.snapshot.cluster_count(),
    ));

    // Reference pass: every pooled request once, over the socket. It also
    // leaves the cache as warm as the workload lets it get.
    let reference: Vec<Vec<Expected>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&pools)
            .map(|(conn, pool)| {
                s.spawn(move || -> Result<Vec<Expected>, ServeError> {
                    pool.payloads
                        .iter()
                        .map(|p| {
                            let bytes = conn.call(p)?;
                            if bytes.first() == Some(&ERROR_TYPE_BYTE) {
                                return Err(ServeError::UnexpectedResponse);
                            }
                            Ok(expected(&bytes))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect::<Result<_, _>>()
    })?;
    out.check(
        "reference_pass",
        true,
        format!(
            "{} answers recorded, none an error",
            reference.iter().map(Vec::len).sum::<usize>()
        ),
    );

    // A sample of the reference answers against direct library calls.
    let mut oracle = Replay::new(&prep.artifacts, 0);
    let mut sampled = 0usize;
    let mut disagreed = 0usize;
    for (pool, answers) in pools.iter().zip(&reference) {
        let step = (pool.payloads.len() / 128).max(1);
        for i in (0..pool.payloads.len()).step_by(step) {
            sampled += 1;
            let direct = oracle.answer(&pool.payloads[i], 0, &mut Tracer::off());
            disagreed += usize::from(expected(&direct) != answers[i]);
        }
    }
    out.check(
        "reference_matches_library",
        disagreed == 0,
        format!("{sampled} sampled answers recomputed by direct calls, {disagreed} differ"),
    );

    // Ping-only calibration: the transport floor (traced runs).
    let mut ping_spans = Vec::new();
    if opts.trace {
        let mut t = Tracer::on(origin, PING_CALIBRATION);
        let ping = Request::Ping.encode_to_vec();
        for i in 0..PING_CALIBRATION {
            let s = t.open("serve.client.ping", i as u32);
            conns[0].call(&ping)?;
            t.close(s);
        }
        ping_spans = t.into_spans();
    }

    // Timed phase: an untimed lead-in of one window, then the windows.
    let windows = opts.windows();
    let window = Duration::from_secs_f64(opts.seconds / windows as f64);
    let traced_from = if opts.trace { windows / 2 } else { windows };
    let lead_in = window.min(Duration::from_millis(500));
    let warm_start = Instant::now() + Duration::from_millis(5);
    let start = warm_start + lead_in;
    let lead_in_plan = Schedule {
        start: warm_start,
        window: lead_in,
        windows: 1,
        traced_from: 1,
        origin,
    };
    let timed_plan = Schedule {
        start,
        window,
        windows,
        traced_from,
        origin,
    };
    let before = metrics.dump();
    let mut cpu = Vec::with_capacity(windows + 1);
    let driven: Vec<Driven> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(pools.iter_mut())
            .zip(&reference)
            .map(|((conn, pool), reference)| {
                s.spawn(move || {
                    let warm = drive(conn, pool, reference, lead_in_plan);
                    if warm.error.is_some() {
                        return warm;
                    }
                    let mut timed = drive(conn, pool, reference, timed_plan);
                    timed.failed += warm.failed;
                    timed
                })
            })
            .collect();
        for k in 0..=windows {
            let at = start + window * k as u32;
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            cpu.push(procstat::cpu_seconds());
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let after = metrics.dump();

    // Per-window numbers; the reported value is the median over windows.
    let tail_p = out.tail_percentile();
    let mut thr = Vec::new();
    let mut p50 = Vec::new();
    let mut tail = Vec::new();
    let mut p99 = Vec::new();
    let mut cpu_per_op = Vec::new();
    let mut empty_windows = 0usize;
    let mut tail_samples = usize::MAX;
    for w in 0..windows {
        let mut latency = Histogram::new();
        let mut ops = 0u64;
        for d in &driven {
            latency.merge(&d.windows[w].latency);
            ops += d.windows[w].ops;
        }
        if ops == 0 {
            empty_windows += 1;
            continue;
        }
        thr.push(ops as f64 / window.as_secs_f64());
        p50.push(latency.percentile(50) as f64 / 1e3);
        tail.push(latency.percentile(tail_p) as f64 / 1e3);
        p99.push(latency.percentile(99) as f64 / 1e3);
        cpu_per_op.push((cpu[w + 1] - cpu[w]) * 1e6 / ops as f64);
        tail_samples = tail_samples.min(ops as usize);
    }
    out.attempted = driven
        .iter()
        .flat_map(|d| &d.windows)
        .map(|w| w.ops)
        .sum::<u64>()
        + driven.iter().filter(|d| d.error.is_some()).count() as u64;
    out.failed = driven.iter().map(|d| d.failed).sum();
    let errors: Vec<&str> = driven.iter().filter_map(|d| d.error.as_deref()).collect();
    out.check(
        "every_response_matches_reference",
        out.failed == 0 && errors.is_empty() && empty_windows == 0,
        format!(
            "{} round trips compared, {} wrong or failed, {} windows without a completed one{}",
            out.attempted,
            out.failed,
            empty_windows,
            errors
                .first()
                .map(|e| format!("; first error: {e}"))
                .unwrap_or_default()
        ),
    );
    if thr.is_empty() {
        engine.shutdown();
        return Err(ServeError::Io(
            "no timed window completed an operation".into(),
        ));
    }

    // The server's own per-type counters against what was sent.
    let mut sent = [0u64; REQUEST_KINDS];
    for conn in &conns {
        for (total, n) in sent.iter_mut().zip(conn.sent) {
            *total += n;
        }
    }
    let mismatched: Vec<String> = KIND_LABELS
        .iter()
        .zip(sent)
        .filter_map(|(label, sent)| {
            let name = format!("fistful_requests_total{{type=\"{label}\"}}");
            let served = after.counter(&name).unwrap_or(0);
            (served != sent).then(|| format!("{label}: sent {sent}, server counted {served}"))
        })
        .collect();
    out.check(
        "server_counters_match_generator",
        mismatched.is_empty(),
        if mismatched.is_empty() {
            format!(
                "{} requests, per type, as the server's MetricsDump counts them",
                sent.iter().sum::<u64>()
            )
        } else {
            mismatched.join("; ")
        },
    );

    if opts.trace {
        setup_layers(&mut out, &prep, &setup_tracer.into_spans());
        let replay_spans =
            replay_and_attribute(&mut out, &prep, &pools, &reference, &driven, &opts, origin);

        let split = traced_from.min(thr.len() - 1);
        out.layer(
            "trace.overhead_share",
            best(&thr[split..]) / best(&thr[..split.max(1)]),
        );
        out.layer("trace.span_cost_ns", span_cost_ns(origin));

        let request_latency = "fistful_request_latency_seconds";
        let handle_mean = mean_micros(
            histogram_sum(&before, request_latency),
            histogram_sum(&after, request_latency),
        );
        let ping_ns: Vec<u64> = ping_spans.iter().map(Span::duration_ns).collect();
        out.layer("serve.client.ping_rtt_us", median_u64(&ping_ns) / 1e3);
        out.layer("serve.server.handle_mean_us", handle_mean);
        out.layer("serve.client.rtt_p99_us", median(&p99[..split.max(1)]));
        let ops: u64 = driven.iter().flat_map(|d| &d.windows).map(|w| w.ops).sum();
        let rtt_ns: u64 = driven
            .iter()
            .flat_map(|d| &d.windows)
            .map(|w| w.latency_sum_ns)
            .sum();
        // Mean against mean: a taint walk's round trips are too skewed
        // for a median to be set against the server's mean.
        out.layer(
            "serve.client.transport_us",
            rtt_ns as f64 / 1e3 / ops.max(1) as f64 - handle_mean,
        );
        let bytes: u64 = driven.iter().map(|d| d.response_bytes).sum();
        out.layer(
            "serve.client.bytes_per_response",
            bytes as f64 / ops.max(1) as f64,
        );
        let wait = "fistful_dispatch_wait_seconds";
        out.layer(
            "serve.event.dispatch_wait_mean_us",
            mean_micros(histogram_sum(&before, wait), histogram_sum(&after, wait)),
        );
        let grown =
            |prefix: &str| (counter_sum(&after, prefix) - counter_sum(&before, prefix)) as f64;
        out.layer(
            "serve.event.backpressure_stalls",
            grown("fistful_backpressure_stalls_total"),
        );
        out.layer("serve.server.busy_sheds", grown("fistful_busy_sheds_total"));
        let hits = grown("fistful_cache_hits_total");
        let misses = grown("fistful_cache_misses_total");
        out.layer("serve.cache.hit_ratio", hits / (hits + misses).max(1.0));
        out.layer(
            "serve.cache.evictions",
            grown("fistful_cache_evictions_total"),
        );

        let dropped = driven.iter().map(|d| d.spans_dropped).sum();
        let mut parts = vec![ping_spans];
        parts.extend(driven.into_iter().map(|d| d.spans));
        parts.push(replay_spans);
        trace::write_jsonl(&trace::file_for(workload), &trace::merge(parts), dropped)?;
    } else {
        out.measure("throughput_ops_s", &thr);
        out.measure("latency_p50_us", &p50);
        out.measure("latency_tail_us", &tail);
        out.measure("cpu_us_per_op", &cpu_per_op);
        out.tail_samples = tail_samples;
    }

    drop(conns);
    engine.shutdown();
    drop(prep);
    if !opts.trace {
        out.measure("rss_peak_mb", &[procstat::rss_peak_mb()]);
        out.measure_setup(first_setup_s, || {
            let ready = set_up(&opts, engine_kind, &mut Tracer::off())?;
            drop(ready.conns);
            ready.engine.shutdown();
            Ok::<(), ServeError>(())
        })?;
    }
    Ok(out)
}
