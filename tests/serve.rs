//! Socket-level integration tests of the query service: answers over TCP
//! must be byte-identical to direct in-process `ClusterSnapshot` /
//! `TxGraph` calls under concurrent clients; malformed, oversized, and
//! wrong-version frames must each be answered with the right typed error
//! and a clean close; graceful shutdown must drain in-flight requests.

#[path = "common/frame.rs"]
mod frame_reader;

use fistful::core::change;
use fistful::flow::graph::TaintScratch;
use fistful::flow::theft::track_theft_indexed;
use fistful::flow::point_at;
use fistful::serve::protocol::{frame, MAX_REQUEST_PAYLOAD};
use fistful::serve::{
    AddressReport, BalanceReport, Client, ErrorCode, Request, Response, ServeArtifacts,
    ServeConfig, ServeError, Server, TaintReport, PROTOCOL_MAGIC, PROTOCOL_VERSION,
};
use fistful::sim::SimConfig;
use fistful_bench::{serve_artifacts, theft_loots, Workbench};
use fistful_chain::encode::Encodable;
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use frame_reader::read_frame;

/// One tiny economy + serving artifacts, shared by every test (each test
/// starts its own server over them — servers are cheap, artifacts are
/// not).
fn fixtures() -> &'static (Workbench, Arc<ServeArtifacts>) {
    static FIX: OnceLock<(Workbench, Arc<ServeArtifacts>)> = OnceLock::new();
    FIX.get_or_init(|| {
        let wb = Workbench::build(SimConfig::tiny());
        let artifacts = Arc::new(serve_artifacts(&wb));
        (wb, artifacts)
    })
}

fn start_server(workers: usize, cache_entries: usize) -> Server {
    let (_, artifacts) = fixtures();
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        cache_entries,
        ..ServeConfig::default()
    };
    Server::start(config, Arc::clone(artifacts)).expect("start server")
}

#[test]
fn socket_answers_match_direct_calls_under_concurrent_clients() {
    let (wb, artifacts) = fixtures();
    let chain = wb.eco.chain.resolved();
    let labels = change::identify(chain, &wb.refined_config());
    let loots: Vec<Vec<(u32, u32)>> = theft_loots(chain, &wb.eco.script_report.thefts)
        .into_iter()
        .map(|(_, loot)| loot)
        .collect();
    assert!(loots.len() >= 3, "tiny scale scripts several thefts");
    let server = start_server(4, 4096);
    let addr = server.local_addr();
    let n_addr = artifacts.snapshot.address_count() as u32;
    let tip = artifacts.snapshot.tip_height();

    // Eight concurrent clients, each comparing every answer to the direct
    // in-process call on its own slice of the query space.
    std::thread::scope(|s| {
        for t in 0..8u32 {
            let loots = &loots;
            let labels = &labels;
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client.ping().expect("ping");

                // Address lookups (including one past the end).
                for a in (t..n_addr + t + 1).step_by(7) {
                    let got = client.address_info(a).expect("address_info");
                    let want = artifacts.snapshot.cluster_of(a).map(|cluster| AddressReport {
                        address: a,
                        cluster,
                        info: artifacts.snapshot.info(cluster).unwrap().clone(),
                    });
                    assert_eq!(got, want, "address {a}");
                }

                // Cluster lookups (including one past the end).
                let n_clusters = artifacts.snapshot.cluster_count() as u32;
                for c in (t..n_clusters + t + 1).step_by(5) {
                    let got = client.cluster_summary(c).expect("cluster_summary");
                    assert_eq!(
                        got.map(|r| r.info),
                        artifacts.snapshot.info(c).cloned(),
                        "cluster {c}"
                    );
                }

                // Balance samples across the whole height range, plus one
                // before the first sample.
                for height in (0..=tip + 10).step_by((tip as usize / 8).max(1)) {
                    let got = client.balance_point(height).expect("balance_point");
                    let want = point_at(&artifacts.balances, height).map(BalanceReport::from);
                    assert_eq!(got, want, "height {height}");
                }

                // Taint walks: every scripted theft, two walk bounds, each
                // compared to the direct indexed walk.
                let mut scratch = TaintScratch::for_graph(&artifacts.graph);
                for loot in loots.iter() {
                    for max_txs in [5u32, 5_000] {
                        let got = client.taint_trace(loot, max_txs).expect("taint_trace");
                        let direct = track_theft_indexed(
                            &artifacts.graph,
                            loot,
                            labels,
                            &artifacts.snapshot,
                            max_txs as usize,
                            &mut scratch,
                        );
                        let want = TaintReport::from_trace(&direct);
                        assert_eq!(got, want, "loot {loot:?} max_txs {max_txs}");
                        // Byte-identical, not merely equal after decoding:
                        // the raw response payload is exactly the direct
                        // trace's canonical encoding.
                        let raw = client
                            .call_raw(&Request::TaintTrace { loot: loot.clone(), max_txs }.encode_to_vec())
                            .expect("raw round trip");
                        assert_eq!(raw, Response::TaintTrace(want).encode_to_vec());
                    }
                }
            });
        }
    });

    let stats = server.stats();
    assert!(stats.requests > 0);
    assert_eq!(stats.workers, 4);
    assert_eq!(stats.address_count, artifacts.snapshot.address_count() as u64);
    server.shutdown();
}

/// Sends raw bytes and expects an error response with `code`, then EOF.
fn expect_error_then_close(addr: std::net::SocketAddr, bytes: &[u8], code: ErrorCode) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(bytes).expect("write");
    let payload = read_frame(&mut stream).expect("an error response before close").1;
    match Response::decode_payload(&payload) {
        Ok(Response::Error(e)) => assert_eq!(e.code, code, "message: {}", e.message),
        other => panic!("expected an error response, got {other:?}"),
    }
    // The server closes after a protocol error: next read is clean EOF.
    assert!(read_frame(&mut stream).is_none(), "connection should be closed");
}

#[test]
fn malformed_oversized_and_wrong_version_frames_close_cleanly() {
    let server = start_server(2, 0);
    let addr = server.local_addr();

    // Wrong magic.
    let mut bad_magic = Request::Ping.to_frame();
    bad_magic[0] = b'X';
    expect_error_then_close(addr, &bad_magic, ErrorCode::BadMagic);

    // Wrong version: the next one, and the retired version 1.
    for version in [PROTOCOL_VERSION + 1, 1] {
        let mut bad_version = Request::Ping.to_frame();
        bad_version[4] = version;
        expect_error_then_close(addr, &bad_version, ErrorCode::UnsupportedVersion);
    }

    // Oversized: the declared length alone must be rejected, before any
    // payload is sent (or allocated server-side).
    let mut oversized = Vec::new();
    oversized.extend_from_slice(&PROTOCOL_MAGIC);
    oversized.push(PROTOCOL_VERSION);
    oversized.extend_from_slice(&(MAX_REQUEST_PAYLOAD + 1).to_le_bytes());
    expect_error_then_close(addr, &oversized, ErrorCode::FrameTooLarge);

    // Malformed payload: valid frame, garbage body.
    expect_error_then_close(addr, &frame(&[0x07, 0x01, 0x02]), ErrorCode::UnknownRequest);
    expect_error_then_close(addr, &frame(&[]), ErrorCode::Malformed);
    // Structurally valid but semantically impossible: loot beyond the
    // graph.
    let bad_loot = Request::TaintTrace { loot: vec![(u32::MAX - 1, 0)], max_txs: 10 };
    expect_error_then_close(addr, &bad_loot.to_frame(), ErrorCode::InvalidRequest);

    // The server survives all of that and still answers a healthy client.
    let mut client = Client::connect(addr).expect("connect");
    client.ping().expect("ping after bad peers");
    server.shutdown();
}

#[test]
fn remote_errors_surface_through_the_client() {
    let server = start_server(1, 0);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let err = client.taint_trace(&[(u32::MAX - 1, 0)], 10).unwrap_err();
    match err {
        ServeError::Remote(e) => assert_eq!(e.code, ErrorCode::InvalidRequest),
        other => panic!("expected a remote error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn response_cache_serves_repeated_keys_identically() {
    let (_, artifacts) = fixtures();
    let server = start_server(2, 1024);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let probe = (artifacts.snapshot.address_count() / 2) as u32;
    let first = client.address_info(probe).expect("first lookup");
    for _ in 0..20 {
        assert_eq!(client.address_info(probe).expect("repeat lookup"), first);
    }
    let stats = client.stats().expect("stats");
    assert!(stats.cache_hits >= 20, "repeated key should hit: {stats:?}");
    assert!(stats.cache_misses >= 1);
    server.shutdown();
}

#[test]
fn shutdown_drains_in_flight_requests_and_stops_accepting() {
    let (_, artifacts) = fixtures();
    let server = start_server(2, 0);
    let addr = server.local_addr();

    // A client with traffic in flight while shutdown lands: every response
    // that arrives must be complete and correct — no torn frames.
    let probe = (artifacts.snapshot.address_count() / 3) as u32;
    let mut client = Client::connect(addr).expect("connect");
    let expected = client.address_info(probe).expect("lookup before shutdown");

    let stopper = std::thread::spawn(move || {
        // Let the client get back into its request loop first.
        std::thread::sleep(std::time::Duration::from_millis(5));
        server.shutdown();
    });
    let mut served = 0usize;
    loop {
        match client.address_info(probe) {
            Ok(got) => {
                assert_eq!(got, expected, "drained response must be intact");
                served += 1;
            }
            // Once the worker notices shutdown between requests, the
            // connection closes at a frame boundary.
            Err(ServeError::Closed | ServeError::Io(_)) => break,
            Err(other) => panic!("unexpected failure during shutdown: {other}"),
        }
        if served > 200_000 {
            panic!("server never shut down");
        }
    }

    // shutdown() returned only after every thread joined.
    stopper.join().expect("shutdown completed");
    // And the listener is gone: new connections are refused (or reset
    // immediately, on platforms that accept-then-close).
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut c) => assert!(c.ping().is_err(), "server should no longer answer"),
    }
}

#[test]
fn shutdown_is_not_hostage_to_a_stalled_partial_frame() {
    // A peer that sends half a frame and then goes silent must not pin a
    // worker: shutdown abandons the stalled read and completes promptly.
    let server = start_server(1, 0); // one worker — the stall would block everyone
    let addr = server.local_addr();
    let mut staller = TcpStream::connect(addr).expect("connect");
    staller.write_all(&PROTOCOL_MAGIC[..3]).expect("partial header");
    // Give the single worker time to pick the connection up and block on
    // the incomplete frame.
    std::thread::sleep(std::time::Duration::from_millis(60));

    let t0 = std::time::Instant::now();
    server.shutdown();
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(5),
        "shutdown took {:?} with a stalled peer",
        t0.elapsed()
    );
    drop(staller);
}

#[test]
fn sharded_ingest_feeds_the_server_byte_identically() {
    // The sharded pipeline must be a drop-in producer for the serving
    // layer: replaying the same chain through `ShardedIngest` with the
    // refined H2 configuration yields a `ClusterSnapshot` whose encoding
    // is byte-identical to the batch-built one the fixtures serve, and
    // the full artifact bundle passes the serving layer's pairing checks.
    use fistful::core::naming::name_clusters;
    use fistful::core::snapshot::ClusterSnapshot;
    use fistful::core::{IngestConfig, ShardedIngest};

    let (wb, artifacts) = fixtures();
    let chain = wb.eco.chain.resolved();
    let mut ingest = ShardedIngest::new(IngestConfig::with_h2(4, 8, wb.refined_config()));
    for block in chain.blocks() {
        ingest.ingest_block(&block);
    }
    ingest.flush(chain);
    let clustering = ingest.snapshot();

    let names = name_clusters(&clustering, &wb.tagdb);
    let snapshot = ClusterSnapshot::build(chain, &clustering, &names);
    assert!(snapshot.pairs_with_chain(chain.address_count(), chain.tx_count() as u64));
    assert_eq!(
        snapshot.to_bytes(),
        artifacts.snapshot.to_bytes(),
        "sharded snapshot encodes byte-identically to the batch one"
    );

    // The bundle is accepted end to end and answers like the fixture.
    let graph = fistful::flow::graph::TxGraph::build(chain);
    let labels = clustering.change_labels.clone().expect("refined config labels");
    let bundle =
        ServeArtifacts::new(snapshot, graph, labels, artifacts.balances.clone())
            .expect("sharded artifacts pair cleanly");
    let server = Server::start(
        ServeConfig { addr: "127.0.0.1:0".to_string(), ..ServeConfig::default() },
        Arc::new(bundle),
    )
    .expect("start server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let got = client.address_info(0).expect("address_info");
    let want = artifacts.snapshot.cluster_of(0).map(|cluster| AddressReport {
        address: 0,
        cluster,
        info: artifacts.snapshot.info(cluster).unwrap().clone(),
    });
    assert_eq!(got, want, "served answer matches the batch-built fixture");
    server.shutdown();
}

#[test]
fn artifact_mismatches_are_rejected_before_serving() {
    let (wb, artifacts) = fixtures();
    let chain = wb.eco.chain.resolved();
    // A graph from a *different* economy must not pair with the snapshot.
    let mut other_cfg = SimConfig::tiny();
    other_cfg.blocks = 60;
    other_cfg.users = 10;
    let other = Workbench::build(other_cfg);
    let other_graph = fistful::flow::graph::TxGraph::build(other.eco.chain.resolved());
    let labels = change::identify(chain, &wb.refined_config());
    let err = ServeArtifacts::new(
        artifacts.snapshot.clone(),
        other_graph,
        labels,
        artifacts.balances.clone(),
    )
    .err()
    .expect("mismatched graph rejected");
    assert!(matches!(err, ServeError::MismatchedArtifacts(_)), "{err}");
}
