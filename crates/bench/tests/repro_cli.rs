//! CLI-level tests of the `repro` binary: argument validation exit codes
//! and the dedupe behaviour, exercised against the real executable.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

#[test]
fn help_exits_zero_with_usage() {
    let out = repro(&["--help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage: repro"), "{stdout}");
}

#[test]
fn help_lists_every_experiment_and_snapshot_subcommands() {
    let out = repro(&["--help"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The usage text must not drift from what the parser accepts: every
    // experiment name, every scale, and the snapshot subcommands.
    for exp in fistful_bench::cli::EXPERIMENTS {
        assert!(stdout.contains(exp), "--help is missing experiment `{exp}`:\n{stdout}");
    }
    for scale in fistful_bench::cli::SCALES {
        assert!(stdout.contains(scale), "--help is missing scale `{scale}`:\n{stdout}");
    }
    assert!(stdout.contains("snapshot save"), "{stdout}");
    assert!(stdout.contains("snapshot query"), "{stdout}");
}

#[test]
fn all_mixed_with_named_is_a_usage_error() {
    for mix in [&["all", "h1"][..], &["h1", "all"]] {
        let out = repro(mix);
        assert_eq!(out.status.code(), Some(2), "args {mix:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: repro"), "{stderr}");
        assert!(stderr.contains("`all` cannot be combined"), "{stderr}");
    }
}

#[test]
fn unknown_experiment_is_a_usage_error() {
    let out = repro(&["tab9"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment"));
}

#[test]
fn bad_scale_is_a_usage_error() {
    let out = repro(&["--scale", "enormous"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid --scale"));
}

#[test]
fn snapshot_usage_errors_exit_two() {
    for bad in [
        &["snapshot"][..],
        &["snapshot", "frobnicate"],
        &["snapshot", "save"],
        &["snapshot", "query"],
        &["snapshot", "query", "file.snap", "notanumber"],
    ] {
        let out = repro(bad);
        assert_eq!(out.status.code(), Some(2), "args {bad:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage: repro"),
            "args {bad:?}"
        );
    }
}

#[test]
fn snapshot_query_on_missing_file_fails_cleanly() {
    let out = repro(&["snapshot", "query", "/nonexistent/no.snap"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn snapshot_save_then_query_round_trips_through_a_file() {
    let dir = std::env::temp_dir().join(format!("repro-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tiny.snap");
    let path_s = path.to_str().unwrap();

    let out = repro(&["snapshot", "save", "--scale", "tiny", path_s]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("wrote"), "{stdout}");
    assert!(path.exists());

    // Query the artifact back: summary plus an address lookup.
    let out = repro(&["snapshot", "query", path_s, "0", "--top", "3"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("top clusters by size"), "{stdout}");
    assert!(stdout.contains("address 0: cluster"), "{stdout}");
    // The query path must not rebuild the economy.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("building economy"), "{stderr}");

    // A corrupted artifact is rejected with the typed error's message.
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    let bad = dir.join("bad.snap");
    std::fs::write(&bad, &bytes).unwrap();
    let out = repro(&["snapshot", "query", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("not a valid snapshot"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn taint_usage_errors_exit_two() {
    for bad in [
        &["taint", "--thefts"][..],
        &["taint", "--thefts", "all,Betcoin"],
        &["taint", "--threads", "many"],
        &["taint", "--max-txs", "0"],
        &["taint", "--bogus"],
    ] {
        let out = repro(bad);
        assert_eq!(out.status.code(), Some(2), "args {bad:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage: repro"),
            "args {bad:?}"
        );
    }
}

#[test]
fn taint_tracks_thefts_over_the_graph_at_tiny_scale() {
    let out = repro(&["taint", "--scale", "tiny", "--threads", "2", "--max-txs", "500"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The graph was built and reported.
    assert!(stdout.contains("graph:"), "{stdout}");
    // The batch ran, was timed against the legacy walk, and agreed with it
    // (the binary asserts equality before printing this line).
    assert!(stdout.contains("results identical"), "{stdout}");
    assert!(stdout.contains("batch over index (2 threads)"), "{stdout}");
}

#[test]
fn taint_rejects_unknown_theft_names() {
    let out = repro(&["taint", "--scale", "tiny", "--thefts", "NotARealCase"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown theft"), "{stderr}");
    // The error names the known cases so the caller can fix the spelling.
    assert!(stderr.contains("known:"), "{stderr}");
}

#[test]
fn ingest_usage_errors_exit_two() {
    // The tentpole's typed usage errors: zero shards and a zero-block
    // epoch are rejected at parse time with exit code 2 and the usage
    // text, never a panic inside the pipeline.
    for bad in [
        &["ingest", "--shards", "0"][..],
        &["ingest", "--shards", "4,0"],
        &["ingest", "--shards", "x"],
        &["ingest", "--epoch", "0"],
        &["ingest", "--epoch", "soon"],
        &["ingest", "--bogus"],
    ] {
        let out = repro(bad);
        assert_eq!(out.status.code(), Some(2), "args {bad:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage: repro"),
            "args {bad:?}"
        );
    }
}

#[test]
fn ingest_sweeps_shard_counts_and_matches_batch_at_tiny_scale() {
    let out = repro(&["ingest", "--scale", "tiny", "--shards", "1,3", "--epoch", "8"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The binary asserts every engine's output equals the batch clustering
    // before printing this line.
    assert!(stdout.contains("reproduced the batch clustering exactly"), "{stdout}");
    assert!(stdout.contains("epoch = 8 block(s)"), "{stdout}");

    // One table row per engine: batch + incremental baselines, then one
    // per swept shard count, every one with the same cluster count.
    let rows: Vec<Vec<&str>> = stdout
        .lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .filter(|cols| cols.len() == 5 && cols[0] != "engine")
        .collect();
    let engines: Vec<(&str, &str)> = rows.iter().map(|cols| (cols[0], cols[1])).collect();
    assert_eq!(
        engines,
        [("batch", "0"), ("incremental", "0"), ("sharded", "1"), ("sharded", "3")],
        "{stdout}"
    );
    assert!(rows.iter().all(|cols| cols[4] == rows[0][4]), "{stdout}");
}

#[test]
fn store_usage_errors_exit_two() {
    for bad in [
        &["store"][..],
        &["store", "frobnicate"],
        &["store", "save"],
        &["store", "save", "--scale", "huge", "dir"],
        &["store", "open", "dir", "--scale", "tiny"],
        &["store", "append", "dir", "--epochs", "0"],
        &["store", "append", "dir", "--shards", "0"],
        &["store", "save", "dir", "--bogus"],
    ] {
        let out = repro(bad);
        assert_eq!(out.status.code(), Some(2), "args {bad:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage: repro"),
            "args {bad:?}"
        );
    }
}

#[test]
fn store_open_on_missing_directory_fails_cleanly() {
    let out = repro(&["store", "open", "/nonexistent/store-dir"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("repro:"));
}

#[test]
fn store_save_open_append_round_trip_at_tiny_scale() {
    let dir = std::env::temp_dir().join(format!("repro-store-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let dir_s = dir.to_str().unwrap();

    // save: all four container files land on disk.
    let out = repro(&["store", "save", "--scale", "tiny", dir_s]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("wrote"), "{stdout}");
    for file in ["chain.fst", "graph.fst", "snapshot.fst", "serve.fst"] {
        assert!(dir.join(file).exists(), "missing {file}:\n{stdout}");
    }

    // open with differential verification: the reopened bundle must be
    // byte-identical to an in-RAM rebuild (the binary asserts before
    // printing), and opening must not replay the chain.
    let out = repro(&["store", "open", dir_s, "--verify-scale", "tiny"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("verified byte-identical"), "{stdout}");

    // append: base + per-epoch deltas, materialized byte-for-byte.
    let out = repro(&["store", "append", "--scale", "tiny", dir_s, "--epochs", "3"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("materialize byte-for-byte"), "{stdout}");
    assert!(stdout.contains("3 epoch(s)"), "{stdout}");
    // One on-disk delta container per reported delta boundary, in
    // application order, with their sizes summing to the reported total.
    let mut delta_total = 0u64;
    let mut deltas = 0;
    for line in stdout.lines().filter(|l| l.contains(": delta ")) {
        deltas += 1;
        let name = format!("snapshot.delta.{deltas:06}.fst");
        assert!(line.contains(&name), "delta {deltas} out of order: {line}");
        delta_total += std::fs::metadata(dir.join(&name))
            .unwrap_or_else(|e| panic!("missing {name}: {e}\n{stdout}"))
            .len();
    }
    assert!(
        stdout.contains(&format!("append cost: {delta_total} delta bytes total")),
        "{stdout}"
    );

    // The refreshed snapshot + deltas still open as a serving bundle.
    let out = repro(&["store", "open", dir_s]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("delta(s) folded"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("building economy"), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_usage_errors_exit_two() {
    for bad in [
        &["serve", "--port", "notaport"][..],
        &["serve", "--metrics-port", "notaport"],
        // One explicit port cannot hold both the binary and the scrape
        // listener.
        &["serve", "--port", "9000", "--metrics-port", "9000"],
    ] {
        let out = repro(bad);
        assert_eq!(out.status.code(), Some(2), "args {bad:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage: repro"),
            "args {bad:?}"
        );
    }
}

#[test]
fn help_lists_the_serve_commands() {
    let out = repro(&["--help"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in ["repro serve", "--event-loop", "--live", "--metrics-port"] {
        assert!(stdout.contains(needle), "--help is missing `{needle}`:\n{stdout}");
    }
    // Timing is the `benchmark/` package's job: no load generator and no
    // machine-readable timing records here.
    for gone in ["bench", "--json", "--out"] {
        assert!(!stdout.contains(gone), "--help still mentions `{gone}`:\n{stdout}");
    }
}

#[test]
fn duplicated_experiment_runs_once() {
    // fig1 needs no simulated economy, so this stays fast.
    let out = repro(&["fig1", "fig1", "fig1"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let runs = stdout.matches("== Figure 1").count();
    assert_eq!(runs, 1, "fig1 should run exactly once:\n{stdout}");
    // No economy should have been built for a fig1-only invocation.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("building economy"), "{stderr}");
}

#[test]
fn serve_reports_the_bound_address_before_building_and_swaps_live() {
    use std::io::BufRead;
    // `--port 0` only makes sense if the bound address is reported, and
    // it is only useful if it is reported *before* the slow economy /
    // artifact build — that ordering is exactly what this test pins.
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["serve", "--scale", "tiny", "--port", "0", "--workers", "2", "--cache", "64", "--live"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn repro serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let first = lines.next().expect("a first stdout line").expect("readable line");
    let addr: std::net::SocketAddr = first
        .strip_prefix("listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("first stdout line is not the bound address: {first}"))
        .parse()
        .expect("parseable socket address");

    // The listener is already bound, so connecting succeeds immediately;
    // the kernel backlog parks us until the workers start post-build.
    let mut client = fistful_serve::Client::connect(addr).expect("connect to repro serve");
    client.ping().expect("ping");
    // Under --live the background ingest publishes fresh generations into
    // the running server: wait until a swap lands with real content.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    loop {
        let stats = client.stats().expect("stats");
        if stats.epoch >= 1 && stats.tx_count > 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no live hot swap observed within the deadline"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    child.kill().expect("kill repro serve");
    child.wait().expect("wait for repro serve");
}

#[test]
fn serve_metrics_port_announces_and_answers_http_scrapes() {
    use std::io::{BufRead, Read, Write};
    // Both listeners bind (and print) before the slow artifact build:
    // the binary address first, the scrape URL second.
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "serve",
            "--scale",
            "tiny",
            "--port",
            "0",
            "--metrics-port",
            "0",
            "--workers",
            "2",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn repro serve --metrics-port");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let first = lines.next().expect("a first stdout line").expect("readable line");
    let addr: std::net::SocketAddr = first
        .strip_prefix("listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("first stdout line is not the bound address: {first}"))
        .parse()
        .expect("parseable socket address");
    let second = lines.next().expect("a second stdout line").expect("readable line");
    let metrics_addr: std::net::SocketAddr = second
        .strip_prefix("metrics on http://")
        .and_then(|rest| rest.strip_suffix("/metrics"))
        .unwrap_or_else(|| panic!("second stdout line is not the metrics address: {second}"))
        .parse()
        .expect("parseable metrics socket address");
    assert_ne!(addr.port(), metrics_addr.port());

    // Issue a known mix over the binary port, then scrape over HTTP and
    // check the counters moved.
    let mut client = fistful_serve::Client::connect(addr).expect("connect to repro serve");
    for _ in 0..3 {
        client.ping().expect("ping");
    }
    let mut sock = std::net::TcpStream::connect(metrics_addr).expect("connect to metrics port");
    sock.write_all(b"GET /metrics HTTP/1.1\r\nHost: repro\r\n\r\n").expect("send scrape");
    let mut response = String::new();
    sock.read_to_string(&mut response).expect("read scrape");
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    assert!(response.contains("# TYPE fistful_requests_total counter"), "{response}");
    assert!(response.contains("fistful_requests_total{type=\"ping\"} 3"), "{response}");
    assert!(response.contains("fistful_request_latency_seconds_bucket"), "{response}");
    child.kill().expect("kill repro serve");
    child.wait().expect("wait for repro serve");
}

#[test]
fn serve_event_loop_binds_first_and_answers_pipelined_batches() {
    use std::io::BufRead;
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["serve", "--scale", "tiny", "--port", "0", "--workers", "2", "--event-loop"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn repro serve --event-loop");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let first = lines.next().expect("a first stdout line").expect("readable line");
    let addr: std::net::SocketAddr = first
        .strip_prefix("listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("first stdout line is not the bound address: {first}"))
        .parse()
        .expect("parseable socket address");

    // The event loop takes over the pre-bound listener after the build;
    // a pipelined batch comes back complete and in order.
    let mut client = fistful_serve::Client::connect(addr).expect("connect to repro serve");
    client.ping().expect("ping");
    let batch = vec![fistful_serve::Request::Ping, fistful_serve::Request::Stats];
    let responses = client.pipeline(&batch).expect("pipelined batch");
    assert_eq!(responses.len(), 2);
    assert!(matches!(responses[0], fistful_serve::Response::Pong));
    assert!(matches!(&responses[1], fistful_serve::Response::Stats(s) if s.workers == 2));
    child.kill().expect("kill repro serve");
    child.wait().expect("wait for repro serve");
}
