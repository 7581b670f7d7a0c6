//! Adversarial socket tests of the event-driven serve loop: for every
//! request type and for every hostile peer shape — slow-loris writers,
//! mid-frame stalls, half-closes, oversized pipelines, thousand-strong
//! idle connection herds — the event server's byte stream must be exactly
//! what the threaded server produces (or the typed error the budget
//! promises), because both loops answer through the same request core.

use fistful::serve::protocol::{frame, FRAME_HEADER_LEN, MAX_REQUEST_PAYLOAD};
use fistful::serve::{
    Client, ErrorCode, EventServeConfig, EventServer, Request, Response, ServeArtifacts,
    ServeConfig, Server, PROTOCOL_MAGIC, PROTOCOL_VERSION,
};
use fistful::sim::SimConfig;
use fistful_bench::{serve_artifacts, theft_loots, Workbench};
use fistful_chain::encode::Encodable;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

fn fixtures() -> &'static (Workbench, Arc<ServeArtifacts>) {
    static FIX: OnceLock<(Workbench, Arc<ServeArtifacts>)> = OnceLock::new();
    FIX.get_or_init(|| {
        let wb = Workbench::build(SimConfig::tiny());
        let artifacts = Arc::new(serve_artifacts(&wb));
        (wb, artifacts)
    })
}

fn start_threaded(workers: usize, cache_entries: usize) -> Server {
    let (_, artifacts) = fixtures();
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        cache_entries,
        ..ServeConfig::default()
    };
    Server::start(config, Arc::clone(artifacts)).expect("start threaded server")
}

fn start_event(config: EventServeConfig) -> EventServer {
    let (_, artifacts) = fixtures();
    EventServer::start(config, Arc::clone(artifacts)).expect("start event server")
}

fn event_config(workers: usize, cache_entries: usize) -> EventServeConfig {
    EventServeConfig { workers, cache_entries, ..EventServeConfig::default() }
}

/// The full query sweep both servers must answer identically: every
/// request type, in-range and out-of-range arguments, stats checkpoints
/// interleaved so the counters themselves are compared too.
fn query_sweep() -> Vec<Request> {
    let (wb, artifacts) = fixtures();
    let chain = wb.eco.chain.resolved();
    let loots: Vec<Vec<(u32, u32)>> = theft_loots(chain, &wb.eco.script_report.thefts)
        .into_iter()
        .map(|(_, loot)| loot)
        .collect();
    let n_addr = artifacts.snapshot.address_count() as u32;
    let n_clusters = artifacts.snapshot.cluster_count() as u32;
    let tip = artifacts.snapshot.tip_height();

    let mut sweep = vec![Request::Ping, Request::Stats];
    for a in (0..n_addr + 1).step_by(7) {
        sweep.push(Request::AddressInfo { address: a });
    }
    for c in (0..n_clusters + 1).step_by(5) {
        sweep.push(Request::ClusterSummary { cluster: c });
    }
    sweep.push(Request::Stats);
    for height in (0..=tip + 10).step_by((tip as usize / 8).max(1)) {
        sweep.push(Request::BalancePoint { height });
    }
    for loot in &loots {
        for max_txs in [5u32, 5_000] {
            sweep.push(Request::TaintTrace { loot: loot.clone(), max_txs });
        }
    }
    // Repeat a cacheable prefix so hits diverge from misses, then compare
    // the hit counters as well.
    for a in (0..n_addr + 1).step_by(7) {
        sweep.push(Request::AddressInfo { address: a });
    }
    sweep.push(Request::Stats);
    sweep
}

#[test]
fn event_server_answers_the_whole_sweep_byte_identically_to_threaded() {
    // Fresh server pair, same config, same request sequence: every raw
    // response payload (and its epoch stamp) must match byte for byte —
    // including both Stats checkpoints, so the request/cache counters of
    // the two loops stay in lockstep too.
    let threaded = start_threaded(2, 1024);
    let event = start_event(event_config(2, 1024));
    let mut ct = Client::connect(threaded.local_addr()).expect("connect threaded");
    let mut ce = Client::connect(event.local_addr()).expect("connect event");

    for (i, request) in query_sweep().iter().enumerate() {
        let payload = request.encode_to_vec();
        let from_threaded = ct.call_raw(&payload).expect("threaded answer");
        let from_event = ce.call_raw(&payload).expect("event answer");
        assert_eq!(from_threaded, from_event, "request #{i} ({request:?}) diverged");
        assert_eq!(ct.last_epoch(), ce.last_epoch(), "epoch stamp diverged at #{i}");
    }

    let ts = threaded.stats();
    let es = event.stats();
    assert_eq!((ts.requests, ts.cache_hits, ts.cache_misses), (es.requests, es.cache_hits, es.cache_misses));
    event.shutdown();
    threaded.shutdown();
}

/// Reads one response frame, returning its payload; `None` on clean EOF.
fn read_raw_frame(stream: &mut TcpStream) -> Option<Vec<u8>> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    let mut filled = 0;
    while filled < FRAME_HEADER_LEN {
        match stream.read(&mut header[filled..]).expect("read header") {
            0 if filled == 0 => return None,
            0 => panic!("connection closed mid-frame"),
            n => filled += n,
        }
    }
    assert_eq!(header[..4], PROTOCOL_MAGIC);
    assert_eq!(header[4], PROTOCOL_VERSION);
    let len = u32::from_le_bytes(header[5..].try_into().unwrap()) as usize;
    let mut epoch = [0u8; 8];
    stream.read_exact(&mut epoch).expect("read epoch");
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).expect("read payload");
    Some(payload)
}

/// Collects every frame a server sends for `bytes` until it closes.
fn stream_response(addr: std::net::SocketAddr, bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(bytes).expect("write");
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut frames = Vec::new();
    while let Some(payload) = read_raw_frame(&mut stream) {
        frames.push(payload);
    }
    frames
}

#[test]
fn malformed_frames_get_identical_typed_errors_from_both_loops() {
    let threaded = start_threaded(2, 0);
    let event = start_event(event_config(2, 0));

    let mut bad_magic = Request::Ping.to_frame();
    bad_magic[0] = b'X';
    let mut bad_version = Request::Ping.to_frame();
    bad_version[4] = PROTOCOL_VERSION + 1;
    let mut retired_v1 = Request::Ping.to_frame();
    retired_v1[4] = 1;
    let mut oversized = Vec::new();
    oversized.extend_from_slice(&PROTOCOL_MAGIC);
    oversized.push(PROTOCOL_VERSION);
    oversized.extend_from_slice(&(MAX_REQUEST_PAYLOAD + 1).to_le_bytes());
    let bad_loot = Request::TaintTrace { loot: vec![(u32::MAX - 1, 0)], max_txs: 10 };

    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("bad magic", bad_magic),
        ("bad version", bad_version),
        ("retired version 1", retired_v1),
        ("oversized declared length", oversized),
        ("unknown request type", frame(&[0x07, 0x01, 0x02])),
        ("empty payload", frame(&[])),
        ("impossible loot", bad_loot.to_frame()),
        // A valid request pipelined *before* the poison: the answer must
        // arrive intact, then the error, then the close.
        ("good ping then bad magic", {
            let mut blob = Request::Ping.to_frame();
            let mut poison = Request::Ping.to_frame();
            poison[0] = b'X';
            blob.extend_from_slice(&poison);
            blob
        }),
    ];
    for (name, bytes) in cases {
        let from_threaded = stream_response(threaded.local_addr(), &bytes);
        let from_event = stream_response(event.local_addr(), &bytes);
        assert_eq!(from_threaded, from_event, "{name}: byte streams diverged");
        let last = from_event.last().expect("at least the error frame");
        match Response::decode_payload(last) {
            Ok(Response::Error(_)) => {}
            other => panic!("{name}: expected a trailing error frame, got {other:?}"),
        }
    }
    event.shutdown();
    threaded.shutdown();
}

#[test]
fn slow_loris_single_byte_writes_still_get_served() {
    // One byte per write with a pause between: the frame trickles in far
    // below any sane line rate, but each byte is progress, so the
    // mid-frame deadline never fires and both loops answer normally.
    let threaded = start_threaded(1, 0);
    let event = start_event(event_config(1, 0));
    for addr in [threaded.local_addr(), event.local_addr()] {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let request = Request::AddressInfo { address: 3 }.to_frame();
        for byte in &request {
            stream.write_all(std::slice::from_ref(byte)).expect("dribble");
            std::thread::sleep(Duration::from_millis(2));
        }
        let payload = read_raw_frame(&mut stream).expect("a response");
        match Response::decode_payload(&payload) {
            Ok(Response::AddressInfo(_)) => {}
            other => panic!("expected an address report, got {other:?}"),
        }
    }
    event.shutdown();
    threaded.shutdown();
}

#[test]
fn mid_frame_stall_hits_the_deadline_with_a_typed_error() {
    // Shrunk deadline: a peer that starts a frame and goes silent is
    // answered with the same typed error the threaded loop produces for a
    // stalled read (Malformed, "mid-frame read stalled"), then closed.
    let event = start_event(EventServeConfig {
        stalled_ticks: 4,
        ..event_config(1, 0)
    });
    let mut stream = TcpStream::connect(event.local_addr()).expect("connect");
    stream.write_all(&PROTOCOL_MAGIC[..3]).expect("partial header");
    let t0 = Instant::now();
    let payload = read_raw_frame(&mut stream).expect("a deadline error frame");
    match Response::decode_payload(&payload) {
        Ok(Response::Error(e)) => {
            assert_eq!(e.code, ErrorCode::Malformed, "message: {}", e.message);
            assert!(e.message.contains("stalled"), "message: {}", e.message);
        }
        other => panic!("expected the stall error, got {other:?}"),
    }
    assert!(read_raw_frame(&mut stream).is_none(), "connection should close");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "4-tick deadline took {:?}",
        t0.elapsed()
    );
    event.shutdown();
}

#[test]
fn idle_keep_alive_connections_expire_silently() {
    let event = start_event(EventServeConfig {
        keep_alive_ticks: 4,
        ..event_config(1, 0)
    });
    let mut stream = TcpStream::connect(event.local_addr()).expect("connect");
    // No bytes at all: the keep-alive clock runs out and the server
    // closes without an error frame (there is no frame to answer).
    assert!(read_raw_frame(&mut stream).is_none(), "silent close on expiry");
    event.shutdown();
}

#[test]
fn half_close_still_delivers_every_pipelined_response_in_order() {
    // The peer writes a coalesced pipeline and FINs immediately. Both
    // loops owe every response, in request order, byte-identical to each
    // other, then a clean close.
    let (_, artifacts) = fixtures();
    let n_addr = artifacts.snapshot.address_count() as u32;
    let mut requests = vec![Request::Ping];
    for a in (0..n_addr).step_by((n_addr as usize / 6).max(1)) {
        requests.push(Request::AddressInfo { address: a });
    }
    requests.push(Request::BalancePoint { height: artifacts.snapshot.tip_height() });
    let mut blob = Vec::new();
    for request in &requests {
        blob.extend_from_slice(&request.to_frame());
    }

    let threaded = start_threaded(2, 0);
    let event = start_event(event_config(2, 0));
    let from_threaded = stream_response(threaded.local_addr(), &blob);
    let from_event = stream_response(event.local_addr(), &blob);
    assert_eq!(from_event.len(), requests.len(), "every response owed is delivered");
    assert_eq!(from_threaded, from_event, "half-closed pipeline diverged");
    event.shutdown();
    threaded.shutdown();
}

#[test]
fn oversized_pipelines_are_rejected_with_a_typed_busy_error() {
    // A budget of 4 in-flight requests: a single 6-deep burst gets its 4
    // in-budget answers, then the typed Busy rejection, then the close.
    let event = start_event(EventServeConfig {
        max_pipelined: 4,
        ..event_config(1, 0)
    });
    let mut blob = Vec::new();
    for _ in 0..6 {
        blob.extend_from_slice(&Request::Ping.to_frame());
    }
    let mut stream = TcpStream::connect(event.local_addr()).expect("connect");
    stream.write_all(&blob).expect("write burst");
    for i in 0..4 {
        let payload = read_raw_frame(&mut stream).expect("in-budget response");
        assert!(
            matches!(Response::decode_payload(&payload), Ok(Response::Pong)),
            "response #{i} should be a pong"
        );
    }
    let payload = read_raw_frame(&mut stream).expect("the rejection frame");
    match Response::decode_payload(&payload) {
        Ok(Response::Error(e)) => {
            assert_eq!(e.code, ErrorCode::Busy, "message: {}", e.message);
            assert!(e.message.contains("pipelined"), "message: {}", e.message);
        }
        other => panic!("expected the Busy rejection, got {other:?}"),
    }
    assert!(read_raw_frame(&mut stream).is_none(), "closed after the rejection");
    event.shutdown();
}

#[test]
fn connection_cap_sheds_excess_accepts_with_a_typed_busy_error() {
    let event = start_event(EventServeConfig {
        max_connections: 2,
        ..event_config(1, 0)
    });
    let addr = event.local_addr();
    let mut first = Client::connect(addr).expect("connect #1");
    let mut second = Client::connect(addr).expect("connect #2");
    first.ping().expect("capacity for #1");
    second.ping().expect("capacity for #2");

    // The third connection is accepted just long enough to be told why
    // it cannot stay.
    let mut shed = TcpStream::connect(addr).expect("connect #3");
    let payload = read_raw_frame(&mut shed).expect("the shed frame");
    match Response::decode_payload(&payload) {
        Ok(Response::Error(e)) => {
            assert_eq!(e.code, ErrorCode::Busy, "message: {}", e.message);
            assert!(e.message.contains("connection limit"), "message: {}", e.message);
        }
        other => panic!("expected the Busy shed frame, got {other:?}"),
    }
    assert!(read_raw_frame(&mut shed).is_none(), "shed connection closes");
    // Close our half too: a shed socket counts against the cap until its
    // drain completes, and the FIN completes it immediately.
    drop(shed);

    // In-cap connections were untouched, and closing one frees a slot.
    first.ping().expect("#1 still served");
    drop(second);
    std::thread::sleep(Duration::from_millis(100));
    let mut third = Client::connect(addr).expect("connect after a slot freed");
    third.ping().expect("freed slot is served");
    event.shutdown();
}

#[test]
fn a_thousand_idle_connections_do_not_starve_four_workers() {
    // The threaded loop would need 1000 threads (and would starve request
    // 5 forever behind 4 pinned idlers); the event loop holds them all on
    // one poll set. Every sampled idler must still be live *after* fresh
    // connections were served through the same 4 workers.
    let event = start_event(EventServeConfig {
        max_connections: 2048,
        ..event_config(4, 0)
    });
    let addr = event.local_addr();
    let mut herd = Vec::with_capacity(1000);
    for i in 0..1000 {
        herd.push(TcpStream::connect(addr).unwrap_or_else(|e| panic!("idler #{i}: {e}")));
    }

    // Fresh work lands while the herd idles.
    let mut client = Client::connect(addr).expect("fresh connection");
    for request in query_sweep() {
        client.call(&request).expect("served while 1000 idle");
    }

    // Sampled idlers answer too — they were neither starved nor closed.
    for i in (0..herd.len()).step_by(97) {
        let stream = &mut herd[i];
        stream.write_all(&Request::Ping.to_frame()).expect("idler write");
        let payload = read_raw_frame(stream).unwrap_or_else(|| panic!("idler #{i} was dropped"));
        assert!(matches!(Response::decode_payload(&payload), Ok(Response::Pong)));
    }
    let stats = event.stats();
    assert_eq!(stats.workers, 4);
    event.shutdown();
}

#[test]
fn event_shutdown_drains_parsed_requests_and_then_closes() {
    let (_, artifacts) = fixtures();
    let probe = (artifacts.snapshot.address_count() / 3) as u32;
    let event = start_event(event_config(2, 0));
    let addr = event.local_addr();

    let mut client = Client::connect(addr).expect("connect");
    let expected = client.address_info(probe).expect("baseline answer");

    // Keep a pipeline in flight while shutdown lands: every frame that
    // arrives must be complete and correct, and the stream must end at a
    // frame boundary.
    let request = Request::AddressInfo { address: probe };
    let stopper = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(5));
        event.shutdown();
    });
    let mut served = 0usize;
    loop {
        match client.address_info(probe) {
            Ok(got) => {
                assert_eq!(got, expected, "drained answer intact");
                served += 1;
            }
            Err(fistful::serve::ServeError::Closed | fistful::serve::ServeError::Io(_)) => break,
            Err(other) => panic!("unexpected failure during shutdown: {other} (request {request:?})"),
        }
        if served > 200_000 {
            panic!("event server never shut down");
        }
    }
    stopper.join().expect("shutdown completed");
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut s) => {
            // Some platforms accept-then-reset; either way nothing answers.
            s.set_read_timeout(Some(Duration::from_millis(500))).unwrap();
            let _ = s.write_all(&Request::Ping.to_frame());
            let mut buf = [0u8; 1];
            match s.read(&mut buf) {
                Ok(0) | Err(_) => {}
                Ok(_) => panic!("server should no longer answer"),
            }
        }
    }
}

#[test]
fn backpressure_under_a_full_queue_keeps_every_response_correct() {
    // A dispatch queue of 1 behind 1 worker, hammered by pipelined
    // bursts from several connections at once: admission control must
    // slow readers down, never corrupt or reorder anyone's stream.
    let event = start_event(EventServeConfig {
        queue_depth: 1,
        max_pipelined: 8,
        ..event_config(1, 256)
    });
    let addr = event.local_addr();
    let (_, artifacts) = fixtures();
    let n_addr = artifacts.snapshot.address_count() as u32;

    std::thread::scope(|s| {
        for t in 0..4u32 {
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for round in 0..10u32 {
                    let batch: Vec<Request> = (0..8)
                        .map(|k| Request::AddressInfo { address: (t * 31 + round * 7 + k) % (n_addr + 2) })
                        .collect();
                    let responses = client.pipeline(&batch).expect("pipelined batch");
                    assert_eq!(responses.len(), batch.len());
                    for (request, response) in batch.iter().zip(&responses) {
                        let Request::AddressInfo { address } = request else { unreachable!() };
                        let want = artifacts.snapshot.cluster_of(*address);
                        match response {
                            Response::AddressInfo(report) => {
                                assert_eq!(report.as_ref().map(|r| r.cluster), want, "address {address}");
                            }
                            other => panic!("expected an address report, got {other:?}"),
                        }
                    }
                }
            });
        }
    });
    event.shutdown();
}

#[test]
fn write_timeouts_on_the_client_side_never_see_torn_frames() {
    // A reader that drains painfully slowly forces the server to buffer
    // its responses and wait for POLLOUT; the bytes that eventually
    // arrive must still be a perfectly framed, in-order stream.
    let event = start_event(event_config(1, 0));
    let mut stream = TcpStream::connect(event.local_addr()).expect("connect");
    let mut blob = Vec::new();
    let count = 32;
    for _ in 0..count {
        blob.extend_from_slice(&Request::Stats.to_frame());
    }
    stream.write_all(&blob).expect("burst");
    std::thread::sleep(Duration::from_millis(50));
    // Trickle-read the whole backlog a few bytes at a time.
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut received = Vec::new();
    let mut tiny = [0u8; 13];
    loop {
        match stream.read(&mut tiny) {
            Ok(0) => panic!("server closed mid-stream"),
            Ok(n) => {
                received.extend_from_slice(&tiny[..n]);
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                panic!("server stopped sending before the stream completed")
            }
            Err(e) => panic!("read failed: {e}"),
        }
        // Count complete frames received so far.
        let mut frames = 0;
        let mut at = 0;
        while received.len() >= at + FRAME_HEADER_LEN {
            let len = u32::from_le_bytes(received[at + 5..at + 9].try_into().unwrap()) as usize;
            let total = FRAME_HEADER_LEN + 8 + len;
            if received.len() < at + total {
                break;
            }
            assert_eq!(received[at..at + 4], PROTOCOL_MAGIC, "torn frame at offset {at}");
            at += total;
            frames += 1;
        }
        if frames == count {
            break;
        }
    }
    event.shutdown();
}
