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
fn help_lists_every_experiment_and_scale() {
    let out = repro(&["--help"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The usage text must not drift from what the parser accepts: every
    // experiment name and every scale, and no subcommand besides `serve`.
    for exp in fistful_bench::cli::EXPERIMENTS {
        assert!(stdout.contains(exp), "--help is missing experiment `{exp}`:\n{stdout}");
    }
    for scale in fistful_bench::cli::SCALES {
        assert!(stdout.contains(scale), "--help is missing scale `{scale}`:\n{stdout}");
    }
    for gone in ["repro snapshot", "repro ingest", "repro store"] {
        assert!(!stdout.contains(gone), "--help still lists `{gone}`:\n{stdout}");
    }
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
    // `serve` is the only subcommand, so any other word reads as an
    // unknown experiment.
    for bad in [&["tab9"], &["fig1"], &["taint"], &["snapshot"], &["ingest"], &["store"]] {
        let out = repro(bad);
        assert_eq!(out.status.code(), Some(2), "args {bad:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment"), "args {bad:?}");
    }
}

#[test]
fn bad_scale_is_a_usage_error() {
    let out = repro(&["--scale", "enormous"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid --scale"));
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
    // The tiny economy builds in well under a second.
    let out = repro(&["--scale", "tiny", "tab1", "h1", "tab1"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let runs = stdout.matches("== Table 1").count();
    assert_eq!(runs, 1, "tab1 should run exactly once:\n{stdout}");
    // Every experiment shares one economy.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.matches("# building economy").count(), 1, "{stderr}");
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
