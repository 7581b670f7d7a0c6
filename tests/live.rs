//! Differential soak tests of live artifact hot-swap: a server under
//! continuous concurrent query load while the background pipeline streams
//! blocks in and publishes fresh generations. After every swap, each
//! request type answered over the live socket must be byte-identical to a
//! freshly batch-built `ServeArtifacts` at that epoch; no torn frames, no
//! error frames, and per-connection response epochs must be monotonically
//! nondecreasing. A store-backed soak additionally proves the on-disk
//! base+delta trail reopens to the final published state and that a
//! restarted pipeline resumes (and re-publishes identically) from it.

#[path = "common/balance_oracle.rs"]
mod balance_oracle;
#[path = "common/frame.rs"]
mod frame_reader;

use fistful::core::tagdb::TagDb;
use fistful::core::{IngestConfig, ShardedIngest};
use fistful::flow::graph::TxGraph;
use fistful::flow::graph::TaintScratch;
use fistful::flow::theft::track_theft_indexed;
use fistful::flow::point_at;
use fistful::serve::store::read_live_meta;
use fistful::serve::{
    AddressReport, BalanceReport, Client, ClusterReport, EventServeConfig, EventServer,
    LiveConfig, LivePipeline, Publisher, Request, Response, ServeArtifacts, ServeConfig, Server,
    ServerStats, TaintReport,
};
use fistful::sim::SimConfig;
use fistful_bench::Workbench;
use fistful_chain::encode::Encodable;
use fistful_chain::resolve::{BlockId, ResolvedChain};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex, OnceLock};
use frame_reader::read_frame;

/// One tiny economy plus the batch-built baseline bundle for every epoch
/// the live pipeline will publish, shared by every soak variant.
struct Fixture {
    wb: Workbench,
    config: LiveConfig,
    baselines: HashMap<u64, Arc<ServeArtifacts>>,
    final_epoch: u64,
    /// Transactions reconciled at epoch 0 — taint loots are drawn from
    /// this prefix so they are valid against every generation.
    warm_cut: usize,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let wb = Workbench::build(SimConfig::tiny());
        let mut config = LiveConfig::new(wb.refined_config());
        config.shards = 3;
        config.epoch_blocks = 10;
        config.start_blocks = 20;
        config.balance_every = 5;
        // Pace the stream so clients observe intermediate generations.
        config.block_delay = std::time::Duration::from_millis(2);
        let chain = wb.eco.chain.resolved().clone();
        let (baselines, final_epoch, warm_cut) = baselines(&chain, &wb.tagdb, &config);
        Fixture { wb, config, baselines, final_epoch, warm_cut }
    })
}

/// Replays the chain through an *independent* `ShardedIngest` with the
/// soak configuration, batch-building a full artifact bundle at every
/// point the live pipeline publishes: the warm-up bootstrap (epoch 0),
/// each block whose ingest moves the reconciled cut, and the terminal
/// flush. This is the differential baseline — straight-line batch code
/// against the incremental delta/extend path the pipeline actually runs.
fn baselines(
    chain: &ResolvedChain,
    db: &TagDb,
    config: &LiveConfig,
) -> (HashMap<u64, Arc<ServeArtifacts>>, u64, usize) {
    let mut pipe = ShardedIngest::new(IngestConfig::with_h2(
        config.shards,
        config.epoch_blocks,
        config.change.clone(),
    ));
    let mut map = HashMap::new();
    let take = config.start_blocks.min(chain.block_count());
    for i in 0..take {
        pipe.ingest_block(&chain.block(i as BlockId));
    }
    let warm_cut = pipe.reconciled_txs() as usize;
    map.insert(0u64, bundle_at_cut(&mut pipe, chain, db, config.balance_every));
    let mut last_cut = warm_cut;
    let mut epoch = 0u64;
    for i in take..chain.block_count() {
        pipe.ingest_block(&chain.block(i as BlockId));
        if pipe.reconciled_txs() as usize != last_cut {
            epoch += 1;
            map.insert(epoch, bundle_at_cut(&mut pipe, chain, db, config.balance_every));
            last_cut = pipe.reconciled_txs() as usize;
        }
    }
    pipe.flush(chain);
    epoch += 1;
    map.insert(epoch, bundle_at_cut(&mut pipe, chain, db, config.balance_every));
    assert!(epoch >= 3, "soak needs several generations, got {epoch}");
    assert!(warm_cut >= 8, "warm-up prefix too thin for taint loots: {warm_cut}");
    (map, epoch, warm_cut)
}

/// Batch-builds the full serving bundle at the engine's current
/// reconciled cut, from scratch each time (no delta export, no graph
/// extension, and the oracle's balance series — deliberately *not* the
/// pipeline's code path).
fn bundle_at_cut(
    pipe: &mut ShardedIngest,
    chain: &ResolvedChain,
    db: &TagDb,
    every: u64,
) -> Arc<ServeArtifacts> {
    let cut = pipe.reconciled_txs() as usize;
    let snapshot = pipe.export_snapshot(chain, db);
    let labels = pipe.change_labels().expect("soak always runs Heuristic 2").clone();
    let graph = TxGraph::build_at(chain, cut);
    let balances = balance_oracle::balance_series_at(chain, cut, &snapshot, every);
    Arc::new(ServeArtifacts::new(snapshot, graph, labels, balances).expect("baseline pairs"))
}

/// The byte-exact payload a correct server must answer `request` with
/// when the pinned generation is `base` — mirrors the server's handlers
/// over the batch-built baseline.
fn expected_payload(base: &ServeArtifacts, request: &Request) -> Vec<u8> {
    let response = match request {
        Request::Ping => Response::Pong,
        Request::AddressInfo { address } => Response::AddressInfo(
            base.snapshot.cluster_of(*address).map(|cluster| AddressReport {
                address: *address,
                cluster,
                info: base.snapshot.info(cluster).expect("assigned cluster").clone(),
            }),
        ),
        Request::ClusterSummary { cluster } => Response::ClusterSummary(
            base.snapshot
                .info(*cluster)
                .map(|info| ClusterReport { cluster: *cluster, info: info.clone() }),
        ),
        Request::TaintTrace { loot, max_txs } => {
            let mut scratch = TaintScratch::for_graph(&base.graph);
            let trace = track_theft_indexed(
                &base.graph,
                loot,
                &base.labels,
                &base.snapshot,
                *max_txs as usize,
                &mut scratch,
            );
            Response::TaintTrace(TaintReport::from_trace(&trace))
        }
        Request::BalancePoint { height } => {
            Response::BalancePoint(point_at(&base.balances, *height).map(BalanceReport::from))
        }
        Request::Stats | Request::MetricsDump => {
            unreachable!("stats and metrics are counters, not differential material")
        }
    };
    response.encode_to_vec()
}

/// The per-round mixed request list client `t` replays each lap.
fn round_requests(t: u32, fx: &Fixture) -> Vec<Request> {
    let final_base = &fx.baselines[&fx.final_epoch];
    let n_addr = final_base.snapshot.address_count() as u32;
    let n_clusters = final_base.snapshot.cluster_count() as u32;
    let tip = final_base.snapshot.tip_height();
    let cut = fx.warm_cut as u32;

    let mut requests = Vec::new();
    for k in 0..6u32 {
        requests.push(Request::AddressInfo { address: (t * 131 + k * 37) % (n_addr + 3) });
    }
    for k in 0..4u32 {
        requests.push(Request::ClusterSummary { cluster: (t * 17 + k * 11) % (n_clusters + 2) });
    }
    for k in 0..4u64 {
        requests.push(Request::BalancePoint {
            height: (u64::from(t) * 13 + k * (tip / 4).max(1)) % (tip + 5),
        });
    }
    requests.push(Request::TaintTrace { loot: vec![(t % cut, 0)], max_txs: 64 });
    requests.push(Request::TaintTrace {
        loot: vec![((t * 5 + 1) % cut, 0), ((t * 5 + 4) % cut, 0)],
        max_txs: 48,
    });
    requests
}

/// One full round of mixed requests on an open connection, every answer
/// checked byte-for-byte against the baseline of the epoch the response
/// was stamped with, epochs checked nondecreasing along the connection.
fn round(
    client: &mut Client,
    t: u32,
    fx: &Fixture,
    prev_epoch: &mut u64,
    seen: &mut HashSet<u64>,
) {
    for request in &round_requests(t, fx) {
        let raw = client
            .call_raw(&request.encode_to_vec())
            .unwrap_or_else(|e| panic!("client {t}: {request:?} failed mid-soak: {e}"));
        let epoch = client.last_epoch();
        assert!(
            epoch >= *prev_epoch,
            "client {t}: response epoch regressed {} -> {epoch}",
            *prev_epoch
        );
        *prev_epoch = epoch;
        seen.insert(epoch);
        let base = fx
            .baselines
            .get(&epoch)
            .unwrap_or_else(|| panic!("client {t}: response stamped unknown epoch {epoch}"));
        assert_eq!(
            raw,
            expected_payload(base, request),
            "client {t}: answer diverged from the batch rebuild at epoch {epoch} for {request:?}"
        );
    }
    // Stats are not byte-comparable (live counters), but the epoch they
    // report must itself be a published generation.
    let stats = client.stats().unwrap_or_else(|e| panic!("client {t}: stats failed: {e}"));
    assert!(
        fx.baselines.contains_key(&stats.epoch),
        "client {t}: stats report unpublished epoch {}",
        stats.epoch
    );
}

/// The event-loop variant of [`round`]: the whole request list goes out
/// as one coalesced pipelined blob, and the in-order responses are each
/// checked byte-for-byte against the baseline of the epoch they are
/// stamped with — a hot swap mid-batch is fine (epochs may step up
/// between responses) but must never regress or tear a frame.
fn pipelined_round(
    stream: &mut std::net::TcpStream,
    t: u32,
    fx: &Fixture,
    prev_epoch: &mut u64,
    seen: &mut HashSet<u64>,
) {
    use std::io::Write;
    let requests = round_requests(t, fx);
    let mut blob = Vec::new();
    for request in &requests {
        blob.extend_from_slice(&request.to_frame());
    }
    stream.write_all(&blob).unwrap_or_else(|e| panic!("client {t}: pipelined write: {e}"));
    for request in &requests {
        let (epoch, payload) = read_frame(stream)
            .unwrap_or_else(|| panic!("client {t}: connection closed mid-soak"));
        assert!(
            epoch >= *prev_epoch,
            "client {t}: response epoch regressed {} -> {epoch}",
            *prev_epoch
        );
        *prev_epoch = epoch;
        seen.insert(epoch);
        let base = fx
            .baselines
            .get(&epoch)
            .unwrap_or_else(|| panic!("client {t}: response stamped unknown epoch {epoch}"));
        assert_eq!(
            payload,
            expected_payload(base, request),
            "client {t}: pipelined answer diverged at epoch {epoch} for {request:?}"
        );
    }
    // A stats probe rides the same connection; its epoch must be a
    // published generation.
    stream.write_all(&Request::Stats.to_frame()).unwrap_or_else(|e| panic!("client {t}: {e}"));
    let (epoch, payload) =
        read_frame(stream).unwrap_or_else(|| panic!("client {t}: connection closed mid-soak"));
    match Response::decode_payload(&payload) {
        Ok(Response::Stats(s)) => {
            assert!(
                fx.baselines.contains_key(&s.epoch),
                "client {t}: stats report unpublished epoch {}",
                s.epoch
            );
            assert!(fx.baselines.contains_key(&epoch));
        }
        other => panic!("client {t}: expected stats, got {other:?}"),
    }
}

/// Either serving loop, behind the handful of calls the soak needs —
/// both expose the same [`Publisher`], so the live pipeline cannot tell
/// them apart.
enum SoakServer {
    Threaded(Server),
    Event(EventServer),
}

impl SoakServer {
    fn local_addr(&self) -> std::net::SocketAddr {
        match self {
            SoakServer::Threaded(s) => s.local_addr(),
            SoakServer::Event(s) => s.local_addr(),
        }
    }

    fn publisher(&self) -> Publisher {
        match self {
            SoakServer::Threaded(s) => s.publisher(),
            SoakServer::Event(s) => s.publisher(),
        }
    }

    fn stats(&self) -> ServerStats {
        match self {
            SoakServer::Threaded(s) => s.stats(),
            SoakServer::Event(s) => s.stats(),
        }
    }

    fn shutdown(self) {
        match self {
            SoakServer::Threaded(s) => s.shutdown(),
            SoakServer::Event(s) => s.shutdown(),
        }
    }
}

/// The soak itself: 8 clients hammer the server from before the first
/// streamed block until after the terminal flush, checking every answer
/// differentially; returns after asserting the end state.
fn soak(cache_entries: usize, store_dir: Option<&Path>, event_loop: bool) {
    let fx = fixture();
    let chain = Arc::new(fx.wb.eco.chain.resolved().clone());
    let mut config = fx.config.clone();
    config.store_dir = store_dir.map(Path::to_path_buf);
    let mut live = LivePipeline::new(Arc::clone(&chain), fx.wb.tagdb.clone(), config);
    let artifacts = live.bootstrap().expect("bootstrap");
    assert_eq!(
        artifacts.snapshot, fx.baselines[&0].snapshot,
        "bootstrap bundle diverges from the epoch-0 batch rebuild"
    );
    let server = if event_loop {
        SoakServer::Event(
            EventServer::start(
                EventServeConfig { workers: 8, cache_entries, ..EventServeConfig::default() },
                artifacts,
            )
            .expect("start event server"),
        )
    } else {
        SoakServer::Threaded(
            Server::start(
                ServeConfig {
                    addr: "127.0.0.1:0".to_string(),
                    workers: 8,
                    cache_entries,
                    ..ServeConfig::default()
                },
                artifacts,
            )
            .expect("start server"),
        )
    };
    let addr = server.local_addr();

    let done = AtomicBool::new(false);
    let observed: Mutex<HashSet<u64>> = Mutex::new(HashSet::new());
    let start = Barrier::new(9);
    let report = std::thread::scope(|s| {
        for t in 0..8u32 {
            let (done, observed, start) = (&done, &observed, &start);
            s.spawn(move || {
                let mut prev_epoch = 0u64;
                let mut seen = HashSet::new();
                if event_loop {
                    // Pipelined raw connection against the event loop.
                    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
                    stream.set_nodelay(true).expect("nodelay");
                    start.wait();
                    loop {
                        let finished = done.load(Ordering::SeqCst);
                        pipelined_round(&mut stream, t, fx, &mut prev_epoch, &mut seen);
                        if finished {
                            break;
                        }
                    }
                } else {
                    let mut client = Client::connect(addr).expect("connect");
                    client.ping().expect("ping");
                    start.wait();
                    loop {
                        // Snapshot the flag *before* the round so every
                        // client completes one full round on the final
                        // generation.
                        let finished = done.load(Ordering::SeqCst);
                        round(&mut client, t, fx, &mut prev_epoch, &mut seen);
                        if finished {
                            break;
                        }
                    }
                }
                observed.lock().unwrap().extend(seen);
            });
        }
        // All clients are connected and querying before the first streamed
        // block goes in.
        start.wait();
        let handle = live.spawn(server.publisher());
        let report = handle.join();
        // Release the clients before failing on a broken run: a client
        // still looping would keep the scope, and the test, from ending.
        done.store(true, Ordering::SeqCst);
        report.expect("live run")
    });

    assert!(report.flushed, "soak must reach the terminal flush");
    assert_eq!(
        report.final_epoch, fx.final_epoch,
        "live publish sequence diverged from the batch replay"
    );
    let stats = server.stats();
    assert_eq!(stats.epoch, fx.final_epoch);
    assert_eq!(stats.swaps, report.publishes);
    assert_eq!(stats.tx_count, chain.tx_count() as u64);
    if cache_entries > 0 {
        assert!(stats.cache_hits > 0, "repeated rounds should hit the cache: {stats:?}");
    }
    let observed = observed.into_inner().unwrap();
    assert!(observed.contains(&fx.final_epoch), "no client saw the final generation");
    assert!(observed.len() >= 2, "soak finished without observing a swap: {observed:?}");
    server.shutdown();
}

#[test]
fn soak_with_cache_answers_byte_identically_across_hot_swaps() {
    soak(4096, None, false);
}

#[test]
fn soak_without_cache_answers_byte_identically_across_hot_swaps() {
    soak(0, None, false);
}

#[test]
fn event_soak_answers_pipelined_batches_byte_identically_across_hot_swaps() {
    // The event loop under continuous *pipelined* load while the live
    // pipeline hot-swaps generations underneath it: epochs monotone per
    // connection, every frame intact, every answer byte-identical to the
    // batch rebuild at its stamped epoch. Bounded exactly like the
    // threaded soaks — one pass of the streamed chain.
    soak(4096, None, true);
}

#[test]
fn soak_with_store_persists_and_a_restart_resumes_identically() {
    let dir = std::env::temp_dir()
        .join(format!("fistful-live-soak-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    soak(1024, Some(&dir), false);

    let fx = fixture();
    // The on-disk base + delta trail folds to the final published state.
    let disk = ServeArtifacts::open_dir(&dir).expect("reopen store");
    assert_eq!(disk.snapshot, fx.baselines[&fx.final_epoch].snapshot);
    let meta = read_live_meta(&dir).expect("meta readable").expect("live save carries meta");
    assert_eq!(meta.epoch, fx.final_epoch);
    assert!(meta.flushed);

    // A restarted pipeline resumes from disk at the recorded epoch and a
    // re-run republishes the same terminal state one epoch later (the
    // terminal flush is idempotent); answers over a fresh socket are
    // byte-identical to the final baseline.
    let chain = Arc::new(fx.wb.eco.chain.resolved().clone());
    let mut config = fx.config.clone();
    config.store_dir = Some(dir.clone());
    config.block_delay = std::time::Duration::ZERO;
    let mut resumed = LivePipeline::new(Arc::clone(&chain), fx.wb.tagdb.clone(), config);
    let restored = resumed.bootstrap().expect("resume bootstrap");
    assert_eq!(resumed.epoch(), fx.final_epoch, "resume must land on the recorded epoch");
    assert_eq!(restored.snapshot, fx.baselines[&fx.final_epoch].snapshot);

    let server = Server::start(
        ServeConfig { addr: "127.0.0.1:0".to_string(), workers: 2, ..ServeConfig::default() },
        restored,
    )
    .expect("start restarted server");
    let addr = server.local_addr();
    let report = resumed.spawn(server.publisher()).join().expect("resumed run");
    assert_eq!(report.final_epoch, fx.final_epoch + 1);
    assert_eq!(server.stats().epoch, fx.final_epoch + 1);

    let final_base = &fx.baselines[&fx.final_epoch];
    let mut client = Client::connect(addr).expect("connect to restarted server");
    for request in [
        Request::AddressInfo { address: 3 },
        Request::ClusterSummary { cluster: 0 },
        Request::BalancePoint { height: final_base.snapshot.tip_height() },
        Request::TaintTrace { loot: vec![(2, 0)], max_txs: 32 },
    ] {
        let raw = client.call_raw(&request.encode_to_vec()).expect("answer after restart");
        assert_eq!(
            raw,
            expected_payload(final_base, &request),
            "restarted server diverged on {request:?}"
        );
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}
