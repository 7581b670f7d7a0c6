//! `repro` — regenerates every table and figure of the paper, writes /
//! serves frozen cluster snapshots, batch-tracks thefts over the
//! transaction-graph index, and runs the TCP query service.
//!
//! Usage: `repro [--scale tiny|default|paper] [experiment...]` where each
//! `experiment` is one of `fig1 tab1 h1 fp super h2 fig2 tab2 tab3`
//! (default: `all`). Repeated experiments run once; `all` must stand
//! alone. Tables and figures go to stdout, timings to stderr. `repro
//! snapshot save <file>` clusters the simulated economy once and writes the
//! [`ClusterSnapshot`] artifact; `repro snapshot query <file>` reloads it
//! and answers address → cluster lookups without replaying the chain.
//! `repro taint` builds the columnar [`TxGraph`] once and tracks the
//! scripted thefts concurrently over it, cross-checking the batch result
//! against the legacy per-theft walk. `repro ingest` replays the economy
//! block by block through the sharded ingest pipeline across a sweep of
//! shard counts, asserting each sweep point reproduces the batch
//! clustering exactly and timing per-block cost. `repro serve` starts the
//! `fistful-serve` query server over the simulated economy. Parsing lives
//! in [`fistful_bench::cli`]. Throughput and latency are measured by the
//! separate `benchmark/` package, not here.

#![forbid(unsafe_code)]

use fistful_bench::cli::{self, CliOutcome, Command, RunPlan};
use fistful_bench::{btc_round, serve_artifacts, silk_road_starts, theft_loots, Workbench};
use fistful_chain::amount::Amount;
use fistful_core::change::{self, ChangeConfig, BLOCKS_PER_DAY, BLOCKS_PER_WEEK};
use fistful_core::cluster::{Clusterer, Clustering};
use fistful_core::fp;
use fistful_core::incremental::sharded::{IngestConfig, ShardedIngest};
use fistful_core::incremental::IncrementalClusterer;
use fistful_core::metrics::{amplification, score_change_labels, score_clustering};
use fistful_core::naming::name_clusters;
use fistful_core::snapshot::ClusterSnapshot;
use fistful_flow::graph::TxGraph;
use fistful_flow::{
    balance_series, service_arrivals_indexed, track_theft, track_thefts_batch, FollowStrategy,
};
use fistful_core::snapshot::SnapshotDelta;
use fistful_net::{Network, NetworkConfig};
use fistful_serve::store::{
    delta_file_name, delta_files, CHAIN_FILE, GRAPH_FILE, SERVE_FILE, SNAPSHOT_FILE,
};
use fistful_serve::ServeArtifacts;
use fistful_sim::{Category, SimConfig};
use fistful_store::{read_chain, write_chain, Store, StoreWriter};
use std::path::Path;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match cli::parse(&args) {
        Ok(command) => command,
        Err(CliOutcome::Help) => {
            println!("{}", cli::usage());
            return;
        }
        Err(CliOutcome::Error(msg)) => {
            eprintln!("repro: {msg}\n{}", cli::usage());
            std::process::exit(2);
        }
    };
    match command {
        Command::Run(plan) => run_experiments(&plan),
        Command::SnapshotSave { scale, path } => snapshot_save(&scale, &path),
        Command::SnapshotQuery { path, addresses, top } => snapshot_query(&path, &addresses, top),
        Command::Taint { scale, thefts, threads, max_txs } => {
            taint(&scale, &thefts, threads, max_txs)
        }
        Command::Ingest { scale, shards, epoch } => ingest(&scale, &shards, epoch),
        Command::StoreSave { scale, dir } => store_save(&scale, &dir),
        Command::StoreOpen { dir, verify_scale } => store_open(&dir, verify_scale.as_deref()),
        Command::StoreAppend { scale, dir, epochs, shards } => {
            store_append(&scale, &dir, epochs, shards)
        }
        Command::Serve {
            scale,
            port,
            metrics_port,
            workers,
            cache,
            live,
            store,
            epoch,
            shards,
            event_loop,
        } => serve(
            &scale,
            port,
            metrics_port,
            workers,
            cache,
            live,
            store.as_deref(),
            epoch,
            shards,
            event_loop,
        ),
    }
}

/// Maps a `--scale` name to its simulator configuration.
fn sim_config(scale: &str) -> SimConfig {
    match scale {
        "tiny" => SimConfig::tiny(),
        "paper" => SimConfig::paper_scale(),
        _ => SimConfig::default(),
    }
}

fn run_experiments(plan: &RunPlan) {
    let cfg = sim_config(&plan.scale);
    let want = |name: &str| plan.experiments.iter().any(|e| e == name);

    // Figure 1 needs no economy.
    if want("fig1") {
        fig1();
    }

    // Everything except fig1 runs over the simulated economy.
    if plan.experiments.iter().any(|e| e != "fig1") {
        eprintln!(
            "# building economy (scale={}, blocks={}, users={}) ...",
            plan.scale, cfg.blocks, cfg.users
        );
        let t0 = std::time::Instant::now();
        let wb = Workbench::build(cfg);
        eprintln!(
            "# economy ready in {:.1?}: {} txs, {} addresses",
            t0.elapsed(),
            wb.eco.chain.resolved().tx_count(),
            wb.eco.chain.resolved().address_count()
        );
        // The graph-backed experiments share one index, built once.
        let graph = plan
            .experiments
            .iter()
            .any(|e| e == "tab2" || e == "tab3")
            .then(|| TxGraph::build(wb.eco.chain.resolved()));
        for exp in &plan.experiments {
            match exp.as_str() {
                "fig1" => continue, // already ran, economy-free
                "tab1" => tab1(&wb),
                "h1" => h1_stats(&wb),
                "fp" => fp_ladder(&wb),
                "super" => super_cluster(&wb),
                "h2" => h2_stats(&wb),
                "fig2" => fig2(&wb),
                "tab2" => tab2(&wb, graph.as_ref().expect("graph built for tab2")),
                "tab3" => tab3(&wb, graph.as_ref().expect("graph built for tab3")),
                other => unreachable!("cli::parse admitted unknown experiment `{other}`"),
            }
        }
    }
}

/// Either serving engine behind one handle: the threaded
/// connection-per-worker loop or the poll(2) event loop. Both speak the
/// same wire protocol, expose the same stats, and accept the same
/// hot-swap publisher, so `serve` stays engine-agnostic past startup.
enum Engine {
    Threaded(fistful_serve::Server),
    Event(fistful_serve::EventServer),
}

impl Engine {
    fn name(&self) -> &'static str {
        match self {
            Engine::Threaded(_) => "threaded",
            Engine::Event(_) => "event",
        }
    }

    fn local_addr(&self) -> std::net::SocketAddr {
        match self {
            Engine::Threaded(s) => s.local_addr(),
            Engine::Event(s) => s.local_addr(),
        }
    }

    fn stats(&self) -> fistful_serve::ServerStats {
        match self {
            Engine::Threaded(s) => s.stats(),
            Engine::Event(s) => s.stats(),
        }
    }

    fn publisher(&self) -> fistful_serve::Publisher {
        match self {
            Engine::Threaded(s) => s.publisher(),
            Engine::Event(s) => s.publisher(),
        }
    }

    fn metrics_handle(&self) -> fistful_serve::MetricsHandle {
        match self {
            Engine::Threaded(s) => s.metrics_handle(),
            Engine::Event(s) => s.metrics_handle(),
        }
    }
}

/// `serve`: bind the port and report the address first, then build the
/// serving artifacts and answer the binary query protocol until the
/// process is killed. With `--live`, serve a warm-up prefix immediately
/// and stream the rest of the economy through the sharded ingest
/// pipeline in the background, hot-swapping fresh artifacts every epoch.
/// With `--event-loop`, all connection I/O runs on the poll(2) readiness
/// loop instead of a thread per worker. With `--metrics-port`, a second
/// listener answers `GET /metrics` with the Prometheus text exposition.
#[allow(clippy::too_many_arguments)]
fn serve(
    scale: &str,
    port: u16,
    metrics_port: Option<u16>,
    workers: usize,
    cache: usize,
    live: bool,
    store: Option<&str>,
    epoch: usize,
    shards: usize,
    event_loop: bool,
) {
    // Bind before the (potentially long) artifact build so callers can
    // learn the address — crucial with `--port 0` — and start connecting;
    // the kernel backlog holds their connections until workers spin up.
    let config = fistful_serve::ServeConfig {
        addr: format!("127.0.0.1:{port}"),
        workers,
        cache_entries: cache,
        max_taint_txs: cli::DEFAULT_TAINT_MAX_TXS,
    };
    let listener = match std::net::TcpListener::bind(&config.addr) {
        Ok(listener) => listener,
        Err(e) => {
            eprintln!("repro: cannot bind {}: {e}", config.addr);
            std::process::exit(1);
        }
    };
    let bound = listener.local_addr().expect("bound listener has an address");
    println!("listening on {bound} (building artifacts ...)");
    // The scrape listener binds (and is announced) before the artifact
    // build too, so monitoring can point at the port immediately; the
    // exporter itself starts once the engine exists.
    let metrics_listener = metrics_port.map(|mp| {
        let addr = format!("127.0.0.1:{mp}");
        match std::net::TcpListener::bind(&addr) {
            Ok(listener) => {
                let bound = listener.local_addr().expect("bound listener has an address");
                println!("metrics on http://{bound}/metrics");
                listener
            }
            Err(e) => {
                eprintln!("repro: cannot bind metrics port {addr}: {e}");
                std::process::exit(1);
            }
        }
    });

    let cfg = sim_config(scale);
    eprintln!(
        "# building economy (scale={scale}, blocks={}, users={}) ...",
        cfg.blocks, cfg.users
    );
    let t0 = std::time::Instant::now();
    let wb = Workbench::build(cfg);
    eprintln!("# economy ready in {:.1?}; clustering + indexing ...", t0.elapsed());
    let t1 = std::time::Instant::now();

    let start_server = |artifacts| {
        let started = if event_loop {
            fistful_serve::EventServer::start_with_listener(
                listener,
                fistful_serve::EventServeConfig::from(config),
                artifacts,
            )
            .map(Engine::Event)
        } else {
            fistful_serve::Server::start_with_listener(listener, config, artifacts)
                .map(Engine::Threaded)
        };
        match started {
            Ok(server) => server,
            Err(e) => {
                eprintln!("repro: cannot start server: {e}");
                std::process::exit(1);
            }
        }
    };
    // Kept alive for the life of the process: dropping the handle would
    // stop and join the background ingest thread.
    let mut _live_handle = None;
    let server = if live {
        let chain = std::sync::Arc::new(wb.eco.chain.resolved().clone());
        let mut live_config = fistful_serve::LiveConfig::new(wb.refined_config());
        live_config.shards = shards;
        live_config.epoch_blocks = epoch;
        // Match `serve_artifacts` so the final hot-swapped generation is
        // identical to what the batch path would have served.
        live_config.balance_every = (wb.eco.cfg.blocks / 24).max(1);
        live_config.store_dir = store.map(std::path::PathBuf::from);
        let mut pipeline =
            fistful_serve::LivePipeline::new(chain, wb.tagdb.clone(), live_config);
        let artifacts = match pipeline.bootstrap() {
            Ok(artifacts) => artifacts,
            Err(e) => {
                eprintln!("repro: cannot bootstrap live ingest: {e}");
                std::process::exit(1);
            }
        };
        eprintln!(
            "# live bootstrap ready in {:.1?} (epoch {}); ingesting in background ...",
            t1.elapsed(),
            pipeline.epoch()
        );
        let server = start_server(artifacts);
        _live_handle = Some(pipeline.spawn(server.publisher()));
        server
    } else {
        let artifacts = std::sync::Arc::new(serve_artifacts(&wb));
        eprintln!("# serving artifacts ready in {:.1?}", t1.elapsed());
        start_server(artifacts)
    };
    // Kept alive for the life of the process: dropping the exporter
    // would stop answering scrapes.
    let _metrics_exporter = metrics_listener.map(|ml| {
        match fistful_serve::MetricsExporter::start_with_listener(ml, server.metrics_handle()) {
            Ok(exporter) => exporter,
            Err(e) => {
                eprintln!("repro: cannot start metrics exporter: {e}");
                std::process::exit(1);
            }
        }
    });
    let stats = server.stats();
    println!(
        "serving {} addresses / {} clusters / {} txs on {} with {} {} workers (cache: {})",
        stats.address_count,
        stats.cluster_count,
        stats.tx_count,
        server.local_addr(),
        stats.workers,
        server.name(),
        if cache > 0 { format!("{cache} entries") } else { "off".to_string() }
    );
    println!("query it with fistful_serve::Client; stop with ctrl-c");
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// `snapshot save`: cluster once (refined H2 + naming), freeze, write.
fn snapshot_save(scale: &str, path: &str) {
    let cfg = sim_config(scale);
    eprintln!(
        "# building economy (scale={scale}, blocks={}, users={}) ...",
        cfg.blocks, cfg.users
    );
    let t0 = std::time::Instant::now();
    let wb = Workbench::build(cfg);
    eprintln!("# economy ready in {:.1?}; clustering ...", t0.elapsed());
    let t1 = std::time::Instant::now();
    let snapshot = wb.snapshot();
    eprintln!("# clustered + aggregated in {:.1?}; encoding ...", t1.elapsed());
    let t2 = std::time::Instant::now();
    let bytes = snapshot.to_bytes();
    if let Err(e) = std::fs::write(path, &bytes) {
        eprintln!("repro: cannot write `{path}`: {e}");
        std::process::exit(1);
    }
    println!(
        "wrote {path}: {} bytes, {} addresses, {} clusters ({} named), tip height {}, encoded in {:.1?}",
        bytes.len(),
        snapshot.address_count(),
        snapshot.cluster_count(),
        snapshot.named_cluster_count(),
        snapshot.tip_height(),
        t2.elapsed()
    );
}

/// `snapshot query`: reload the frozen artifact and serve lookups.
fn snapshot_query(path: &str, addresses: &[u32], top: usize) {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) => {
            eprintln!("repro: cannot read `{path}`: {e}");
            std::process::exit(1);
        }
    };
    let t0 = std::time::Instant::now();
    let snapshot = match ClusterSnapshot::from_bytes(&bytes) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("repro: `{path}` is not a valid snapshot: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "snapshot {path}: {} bytes, decoded + verified in {:.1?}",
        bytes.len(),
        t0.elapsed()
    );
    println!(
        "addresses: {}  clusters: {}  named: {} (covering {} addresses)  tip height: {}  txs: {}",
        snapshot.address_count(),
        snapshot.cluster_count(),
        snapshot.named_cluster_count(),
        snapshot.named_address_count(),
        snapshot.tip_height(),
        snapshot.tx_count()
    );

    println!("\ntop clusters by size:");
    println!(
        "{:<8} {:>8} {:>12} {:>12}  {:<20} category",
        "cluster", "size", "received", "spent", "service"
    );
    for &c in snapshot.clusters_by_size().iter().take(top) {
        let info = snapshot.info(c).expect("id from clusters_by_size");
        println!(
            "{:<8} {:>8} {:>12} {:>12}  {:<20} {}",
            c,
            info.size,
            btc_round(info.received),
            btc_round(info.spent),
            info.name.as_deref().unwrap_or("-"),
            info.category.as_deref().unwrap_or("-")
        );
    }

    for &addr in addresses {
        match snapshot.info_of_address(addr) {
            Some(info) => println!(
                "address {addr}: cluster {} (size {}, received {} BTC, spent {} BTC, service {}, category {})",
                snapshot.cluster_of(addr).expect("info implies cluster"),
                info.size,
                btc_round(info.received),
                btc_round(info.spent),
                info.name.as_deref().unwrap_or("-"),
                info.category.as_deref().unwrap_or("-")
            ),
            None => println!(
                "address {addr}: not covered (snapshot spans {} addresses)",
                snapshot.address_count()
            ),
        }
    }
}

/// `taint`: the batch multi-theft engine over the transaction-graph index,
/// cross-checked against (and timed versus) the legacy per-theft walks.
fn taint(scale: &str, names: &[String], threads: usize, max_txs: usize) {
    let cfg = sim_config(scale);
    eprintln!(
        "# building economy (scale={scale}, blocks={}, users={}) ...",
        cfg.blocks, cfg.users
    );
    let wb = Workbench::build(cfg);
    let chain = wb.eco.chain.resolved();
    let labels = change::identify(chain, &wb.refined_config());
    let snapshot = wb.snapshot();

    // Select the scripted thefts, by name when asked.
    let mut cases = theft_loots(chain, &wb.eco.script_report.thefts);
    if !names.is_empty() {
        for want in names {
            if !cases.iter().any(|(name, _)| name == want) {
                let known: Vec<&str> = cases.iter().map(|(n, _)| n.as_str()).collect();
                eprintln!("repro: unknown theft `{want}` (known: {})", known.join(", "));
                std::process::exit(2);
            }
        }
        cases.retain(|(name, _)| names.iter().any(|w| w == name));
    }
    if cases.is_empty() {
        eprintln!("repro: no scripted thefts on this chain (scale too small?)");
        std::process::exit(1);
    }

    let t0 = std::time::Instant::now();
    let graph = TxGraph::build(chain);
    let built = t0.elapsed();
    assert!(
        snapshot.pairs_with_chain(graph.address_count(), graph.tx_count() as u64),
        "snapshot and graph describe different chains"
    );
    println!(
        "graph: {} txs, {} outputs, {} inputs, built in {built:.1?}",
        graph.tx_count(),
        graph.output_count(),
        graph.input_count()
    );

    let workers = if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        threads
    };
    let loots: Vec<Vec<(u32, u32)>> = cases.iter().map(|(_, loot)| loot.clone()).collect();

    // Warm both paths once (first touches page in each structure cold),
    // then time the steady state the serving workload actually runs in.
    let legacy_walk = || -> Vec<_> {
        loots
            .iter()
            .map(|loot| track_theft(chain, loot, &labels, &snapshot, max_txs))
            .collect()
    };
    let traces = track_thefts_batch(&graph, &loots, &labels, &snapshot, max_txs, workers);
    let warm = legacy_walk();
    assert_eq!(traces, warm, "batch and legacy traces diverged");

    let t1 = std::time::Instant::now();
    let traces = track_thefts_batch(&graph, &loots, &labels, &snapshot, max_txs, workers);
    let batch = t1.elapsed();
    let t2 = std::time::Instant::now();
    let legacy = legacy_walk();
    let sequential = t2.elapsed();
    assert_eq!(traces, legacy, "batch and legacy traces diverged");

    println!(
        "{:<18} {:>6} {:<12} {:>14} {:>10}",
        "Theft", "Txs", "Pattern", "Exchanges?", "Dormant"
    );
    for ((name, _), trace) in cases.iter().zip(&traces) {
        println!(
            "{:<18} {:>6} {:<12} {:>14} {:>10}",
            name,
            trace.movements.len(),
            if trace.pattern.is_empty() { "-" } else { &trace.pattern },
            if trace.reached_exchange() {
                format!("Yes ({:.1} BTC)", trace.to_exchanges.to_btc())
            } else {
                "No".to_string()
            },
            btc_round(trace.dormant)
        );
    }
    println!(
        "tracked {} thefts: batch over index ({workers} threads) {batch:.1?} vs legacy \
         sequential {sequential:.1?} ({:.1}x); results identical",
        cases.len(),
        sequential.as_secs_f64() / batch.as_secs_f64().max(1e-9)
    );
}

/// `ingest`: the sharded ingest sweep. Replays the economy block by block
/// through [`ShardedIngest`] at every requested shard count (plus the
/// batch and per-block incremental engines as baselines), asserts each
/// sweep point lands on exactly the batch clustering, and reports
/// per-block ingest cost per engine.
fn ingest(scale: &str, shards: &[usize], epoch: usize) {
    let cfg = sim_config(scale);
    eprintln!(
        "# building economy (scale={scale}, blocks={}, users={}) ...",
        cfg.blocks, cfg.users
    );
    let wb = Workbench::build(cfg);
    let chain = wb.eco.chain.resolved();
    let h2 = wb.refined_config();
    let blocks = chain.block_count();
    let txs = chain.tx_count();
    println!(
        "chain: {} blocks, {} txs, {} addresses; epoch = {epoch} block(s)",
        blocks,
        txs,
        chain.address_count()
    );

    println!(
        "{:<14} {:>7} {:>10} {:>12} {:>10}",
        "engine", "shards", "seconds", "us/block", "clusters"
    );
    let row = |engine: &str, n_shards: u64, seconds: f64, clusters: usize| {
        println!(
            "{:<14} {:>7} {:>10.3} {:>12.1} {:>10}",
            engine,
            n_shards,
            seconds,
            seconds * 1e6 / blocks.max(1) as f64,
            clusters
        );
    };

    // Baseline 1: the one-pass batch clusterer (ground truth).
    let t = std::time::Instant::now();
    let batch = Clusterer::with_h2(h2.clone()).run(chain);
    let batch_secs = t.elapsed().as_secs_f64();
    row("batch", 0, batch_secs, batch.cluster_count());

    // Baseline 2: the single-threaded per-block incremental engine.
    let t = std::time::Instant::now();
    let mut inc = IncrementalClusterer::with_h2(h2.clone());
    for block in chain.blocks() {
        inc.ingest_block(&block);
    }
    inc.flush(chain);
    let inc_snapshot = inc.snapshot();
    let inc_secs = t.elapsed().as_secs_f64();
    assert_clusterings_match("incremental", &inc_snapshot, &batch);
    row("incremental", 0, inc_secs, inc_snapshot.cluster_count());

    // The sweep: the sharded pipeline at every requested shard count. On a
    // single-core box this proves correctness scaling (identical output at
    // every width), not wall-clock speedup.
    for &n in shards {
        let t = std::time::Instant::now();
        let mut pipe = ShardedIngest::new(IngestConfig::with_h2(n, epoch, h2.clone()));
        for block in chain.blocks() {
            pipe.ingest_block(&block);
        }
        pipe.flush(chain);
        let clustering = pipe.snapshot();
        let secs = t.elapsed().as_secs_f64();
        assert_clusterings_match(&format!("sharded x{n}"), &clustering, &batch);
        row("sharded", n as u64, secs, clustering.cluster_count());
    }
    println!(
        "every engine reproduced the batch clustering exactly ({} clusters)",
        batch.cluster_count()
    );
}

/// Hard equality between an ingest engine's output and the batch ground
/// truth: same partition, same H2 labels, same skip accounting.
fn assert_clusterings_match(engine: &str, got: &Clustering, batch: &Clustering) {
    assert_eq!(got.assignment, batch.assignment, "{engine}: assignment diverged");
    assert_eq!(got.sizes, batch.sizes, "{engine}: cluster sizes diverged");
    match (&got.change_labels, &batch.change_labels) {
        (Some(a), Some(b)) => {
            assert_eq!(a.vout_of, b.vout_of, "{engine}: change vouts diverged");
            assert_eq!(a.labels, b.labels, "{engine}: change label count diverged");
            assert_eq!(a.skip_counts, b.skip_counts, "{engine}: skip accounting diverged");
        }
        (None, None) => {}
        _ => panic!("{engine}: H2 ran on one side only"),
    }
}

/// Exits with the CLI's runtime-failure convention (exit 1, `repro:`
/// prefix) on a store error.
fn store_or_die<T>(what: &str, result: Result<T, fistful_store::StoreError>) -> T {
    match result {
        Ok(value) => value,
        Err(e) => {
            eprintln!("repro: {what}: {e}");
            std::process::exit(1);
        }
    }
}

/// `store save`: build every serving artifact once and write the columnar
/// store directory (`chain.fst` + the serving bundle).
fn store_save(scale: &str, dir: &str) {
    let cfg = sim_config(scale);
    eprintln!(
        "# building economy (scale={scale}, blocks={}, users={}) ...",
        cfg.blocks, cfg.users
    );
    let t0 = std::time::Instant::now();
    let wb = Workbench::build(cfg);
    eprintln!("# economy ready in {:.1?}; clustering + indexing ...", t0.elapsed());
    let artifacts = serve_artifacts(&wb);

    let dir_path = Path::new(dir);
    if let Err(e) = std::fs::create_dir_all(dir_path) {
        eprintln!("repro: cannot create `{dir}`: {e}");
        std::process::exit(1);
    }
    let t2 = std::time::Instant::now();
    let mut w = StoreWriter::new();
    write_chain(wb.eco.chain.resolved(), &mut w);
    let chain_bytes = store_or_die("cannot write chain.fst", w.write_to(&dir_path.join(CHAIN_FILE)));
    let bundle_bytes = store_or_die("cannot write serving bundle", artifacts.save_dir(dir_path));
    let encoded = t2.elapsed();

    println!(
        "wrote {dir}: {} bytes ({chain_bytes} chain + {bundle_bytes} serving bundle) in {encoded:.1?}",
        chain_bytes + bundle_bytes
    );
    for file in [CHAIN_FILE, GRAPH_FILE, SNAPSHOT_FILE, SERVE_FILE] {
        let len = std::fs::metadata(dir_path.join(file)).map(|m| m.len()).unwrap_or(0);
        println!("  {file:<14} {len:>12} bytes");
    }
    println!(
        "reopen it with `repro store open {dir}` — no chain replay, no re-clustering"
    );
}

/// `store open`: reopen a store directory without replaying the chain,
/// optionally differentially verified against an in-RAM rebuild.
fn store_open(dir: &str, verify_scale: Option<&str>) {
    let dir_path = Path::new(dir);
    let deltas = store_or_die("cannot list store directory", delta_files(dir_path)).len();
    let t0 = std::time::Instant::now();
    let mut store = store_or_die("cannot open chain.fst", Store::open(&dir_path.join(CHAIN_FILE)));
    let chain = store_or_die("chain.fst is not a valid chain container", read_chain(&mut store));
    let artifacts =
        store_or_die("cannot reopen serving bundle", ServeArtifacts::open_dir(dir_path));
    let opened = t0.elapsed();
    println!(
        "opened {dir} in {opened:.1?}: {} addresses, {} clusters, {} txs ({deltas} delta(s) folded)",
        artifacts.snapshot.address_count(),
        artifacts.snapshot.cluster_count(),
        artifacts.graph.tx_count(),
    );

    if let Some(scale) = verify_scale {
        let cfg = sim_config(scale);
        eprintln!(
            "# rebuilding in RAM for verification (scale={scale}, blocks={}, users={}) ...",
            cfg.blocks, cfg.users
        );
        let t1 = std::time::Instant::now();
        let wb = Workbench::build(cfg);
        let rebuilt = serve_artifacts(&wb);
        let rebuilt_secs = t1.elapsed();

        // Byte-identity, not just logical equality: both chains re-encoded
        // into containers, both snapshots into their wire frames.
        let mut a = StoreWriter::new();
        write_chain(&chain, &mut a);
        let mut b = StoreWriter::new();
        write_chain(wb.eco.chain.resolved(), &mut b);
        assert_eq!(a.to_bytes(), b.to_bytes(), "reopened chain diverged from rebuild");
        assert_eq!(
            artifacts.snapshot.to_bytes(),
            rebuilt.snapshot.to_bytes(),
            "reopened snapshot diverged from rebuild"
        );
        assert_eq!(artifacts.graph, rebuilt.graph, "reopened graph diverged from rebuild");
        assert_eq!(artifacts.labels.vout_of, rebuilt.labels.vout_of, "change labels diverged");
        assert_eq!(artifacts.labels.skip_counts, rebuilt.labels.skip_counts);
        assert_eq!(artifacts.labels.labels, rebuilt.labels.labels);
        assert_eq!(artifacts.balances, rebuilt.balances, "balance series diverged");
        let speedup = rebuilt_secs.as_secs_f64() / opened.as_secs_f64().max(1e-9);
        println!(
            "verified byte-identical to an in-RAM rebuild: open {opened:.1?} vs rebuild \
             {rebuilt_secs:.1?} ({speedup:.1}x)"
        );
    }
}

/// `store append`: replay the economy through the sharded ingest pipeline,
/// writing the base snapshot at the first epoch boundary and one delta
/// container per later boundary — then prove the on-disk base + deltas
/// materialize to exactly the full batch export, byte for byte.
fn store_append(scale: &str, dir: &str, epochs: usize, shards: usize) {
    let cfg = sim_config(scale);
    eprintln!(
        "# building economy (scale={scale}, blocks={}, users={}) ...",
        cfg.blocks, cfg.users
    );
    let wb = Workbench::build(cfg);
    let chain = wb.eco.chain.resolved();
    let blocks = chain.block_count();
    let epoch_blocks = (blocks.div_ceil(epochs)).max(1);
    println!(
        "chain: {blocks} blocks, {} txs; {epochs} epoch(s) of {epoch_blocks} block(s), \
         {shards} shard(s)",
        chain.tx_count()
    );
    let dir_path = Path::new(dir);
    if let Err(e) = std::fs::create_dir_all(dir_path) {
        eprintln!("repro: cannot create `{dir}`: {e}");
        std::process::exit(1);
    }
    // A fresh append resets the delta base, like ServeArtifacts::save_dir.
    for stale in store_or_die("cannot list store directory", delta_files(dir_path)) {
        if let Err(e) = std::fs::remove_file(&stale) {
            eprintln!("repro: cannot remove stale `{}`: {e}", stale.display());
            std::process::exit(1);
        }
    }

    let t0 = std::time::Instant::now();
    let mut pipe = ShardedIngest::new(IngestConfig::with_h2(shards, epoch_blocks, wb.refined_config()));
    let mut prev: Option<ClusterSnapshot> = None;
    let mut delta_bytes = 0u64;
    let mut delta_no = 0usize;
    let mut last_reconciled = 0;
    // At each epoch boundary (reconciled prefix advanced): the first export
    // is the on-disk base; every later one becomes a delta container whose
    // size is proportional to what the epoch changed, not to the chain.
    let mut on_boundary = |pipe: &mut ShardedIngest,
                           prev: &mut Option<ClusterSnapshot>,
                           delta_no: &mut usize| {
        match prev.take() {
            None => {
                let snap = pipe.export_snapshot(chain, &wb.tagdb);
                let mut w = StoreWriter::new();
                snap.write_store(&mut w);
                let base_bytes = store_or_die(
                    "cannot write base snapshot",
                    w.write_to(&dir_path.join(SNAPSHOT_FILE)),
                );
                println!(
                    "boundary 1: base {SNAPSHOT_FILE} at tx {} — {base_bytes} bytes",
                    pipe.reconciled_txs()
                );
                *prev = Some(snap);
            }
            Some(p) => {
                let (snap, delta) = pipe.export_delta(chain, &wb.tagdb, &p);
                // The final flush may resolve pending cross-shard merges
                // without advancing the reconciled prefix; only a boundary
                // that actually changed the snapshot earns a delta file.
                if snap.to_bytes() == p.to_bytes() {
                    *prev = Some(p);
                    return;
                }
                *delta_no += 1;
                let file = delta_file_name(*delta_no);
                let mut w = StoreWriter::new();
                delta.write_store(&mut w);
                let bytes =
                    store_or_die("cannot write delta", w.write_to(&dir_path.join(&file)));
                delta_bytes += bytes;
                println!(
                    "boundary {}: delta {file} at tx {} — {bytes} bytes ({} assignments, {} clusters)",
                    *delta_no + 1,
                    pipe.reconciled_txs(),
                    delta.assign.len(),
                    delta.clusters.len()
                );
                *prev = Some(snap);
            }
        }
    };
    for block in chain.blocks() {
        pipe.ingest_block(&block);
        if pipe.reconciled_txs() != last_reconciled {
            last_reconciled = pipe.reconciled_txs();
            on_boundary(&mut pipe, &mut prev, &mut delta_no);
        }
    }
    // The flush can both process a final partial epoch and resolve pending
    // cross-shard merges; either way the state may have moved past the last
    // export, so always offer one more boundary (it no-ops when nothing
    // changed).
    pipe.flush(chain);
    on_boundary(&mut pipe, &mut prev, &mut delta_no);
    let elapsed = t0.elapsed();
    let full = prev.expect("at least one epoch boundary on a non-empty chain");

    // Prove the persisted files are the snapshot: fold base + deltas back
    // from disk and compare byte-for-byte against both the pipeline's own
    // full export and the batch clusterer's (they must all agree).
    let mut store =
        store_or_die("cannot reopen base snapshot", Store::open(&dir_path.join(SNAPSHOT_FILE)));
    let mut materialized = store_or_die(
        "base snapshot is not a valid container",
        ClusterSnapshot::read_store(&mut store),
    );
    for path in store_or_die("cannot list deltas", delta_files(dir_path)) {
        let mut store = store_or_die("cannot open delta", Store::open(&path));
        let delta =
            store_or_die("delta is not a valid container", SnapshotDelta::read_store(&mut store));
        materialized = match materialized.apply_delta(&delta) {
            Ok(snap) => snap,
            Err(e) => {
                eprintln!("repro: delta `{}` failed to apply: {e}", path.display());
                std::process::exit(1);
            }
        };
    }
    assert_eq!(
        materialized.to_bytes(),
        full.to_bytes(),
        "base + deltas diverged from the full export"
    );
    assert_eq!(
        full.to_bytes(),
        wb.snapshot().to_bytes(),
        "incremental export diverged from the batch snapshot"
    );
    let mut w = StoreWriter::new();
    full.write_store(&mut w);
    let full_export_bytes = w.to_bytes().len() as u64;
    println!(
        "base + {delta_no} delta(s) materialize byte-for-byte to the batch snapshot \
         ({} addresses, {} clusters) in {elapsed:.1?}",
        full.address_count(),
        full.cluster_count()
    );
    println!(
        "append cost: {delta_bytes} delta bytes total vs {full_export_bytes} per full re-export \
         (deltas shrink toward O(new blocks) when epochs are merge-free; cross-epoch merges \
         cascade cluster renumbering and grow them)"
    );
}

/// Figure 1: how a transaction propagates, gets mined, and settles.
fn fig1() {
    println!("\n== Figure 1: transaction broadcast, mining, confirmation ==");
    let mut net = Network::new(NetworkConfig::default());
    let miners = net.miners();
    let user = 0u32;
    let merchant = 1u32;

    // (3)-(4): the user forms and broadcasts the payment (0.7 BTC, as in
    // the figure).
    let tx = fistful_chain::builder::TransactionBuilder::new()
        .input(fistful_chain::transaction::OutPoint::null())
        .output(
            fistful_chain::address::Address::from_seed(42),
            Amount::from_sat(70_000_000),
        )
        .build_unsigned();
    let txid = net.submit_tx(user, tx.clone());
    net.run_to_quiescence();
    let tx_prop = net.propagation(&txid).unwrap();

    // (5): the first miner to see it mines a block containing it.
    let miner = *miners.first().expect("some miners");
    let t_miner = tx_prop.node_times[miner as usize].unwrap();
    let mut block = fistful_chain::block::Block {
        header: fistful_chain::block::BlockHeader {
            version: 1,
            prev_hash: fistful_crypto::hash::Hash256::ZERO,
            merkle_root: fistful_crypto::hash::Hash256::ZERO,
            time: 1,
            nonce: 0,
        },
        transactions: vec![tx],
    };
    block.header.merkle_root = block.computed_merkle_root();
    // (6): the block floods; the merchant accepts the payment.
    let hash = net.submit_block(miner, block);
    net.run_to_quiescence();
    let block_prop = net.propagation(&hash).unwrap();
    let t_merchant = block_prop.node_times[merchant as usize].unwrap();

    println!(
        "nodes={} out_degree={} latency={}..{}ms",
        net.config.nodes,
        net.config.out_degree,
        net.config.latency_lo / 1000,
        net.config.latency_hi / 1000
    );
    println!("t=0.000s        user broadcasts tx {txid}");
    println!(
        "t={:.3}s        first miner (node {miner}) has the tx",
        t_miner as f64 / 1e6
    );
    for pct in [50, 90, 100] {
        let t = tx_prop.coverage_time(pct as f64 / 100.0).unwrap();
        println!("tx reaches {pct:>3}% of nodes after {:.3}s", t as f64 / 1e6);
    }
    for pct in [50, 90, 100] {
        let t = block_prop.coverage_time(pct as f64 / 100.0).unwrap();
        println!("block reaches {pct:>3}% of nodes after {:.3}s", t as f64 / 1e6);
    }
    println!(
        "t={:.3}s        merchant (node {merchant}) sees the confirming block",
        t_merchant as f64 / 1e6
    );
    println!("messages delivered: {}", net.messages_delivered);
}

/// Table 1: the service roster, by category, with probe interaction counts.
fn tab1(wb: &Workbench) {
    println!("\n== Table 1: services interacted with, by category ==");
    let mut per_cat: std::collections::BTreeMap<&str, Vec<&str>> = Default::default();
    for s in &wb.eco.services {
        per_cat.entry(s.category.label()).or_default().push(&s.name);
    }
    let probe_txs = wb.eco.probe_observations.len();
    for (cat, services) in &per_cat {
        println!("[{cat}] ({} services)", services.len());
        let mut line = String::new();
        for s in services {
            if line.len() + s.len() > 72 {
                println!("  {line}");
                line.clear();
            }
            if !line.is_empty() {
                line.push_str(", ");
            }
            line.push_str(s);
        }
        if !line.is_empty() {
            println!("  {line}");
        }
    }
    println!(
        "probe observations: {probe_txs} (hand-tagged addresses: {})",
        wb.hand_tagged()
    );
}

/// §4.1: Heuristic 1 statistics.
fn h1_stats(wb: &Workbench) {
    println!("\n== §4.1: Heuristic 1 (multi-input) clustering ==");
    let chain = wb.eco.chain.resolved();
    let cs = fistful_chain::stats::chain_stats(chain);
    println!(
        "self-change transactions: {:.1}% of spends (paper: 23% in H1 2013)",
        cs.self_change_rate() * 100.0
    );
    println!(
        "multi-input transactions: {} | address reuse: {:.1}%",
        cs.multi_input,
        cs.reuse_rate() * 100.0
    );
    let gt = wb.eco.gt.to_id_space(chain);
    let score = score_clustering(&wb.h1, &gt.owner_of);
    println!("addresses:                {}", chain.address_count());
    println!("H1 clusters:              {}", wb.h1.cluster_count());
    println!("  (paper: 5.5M clusters from 12M+ addresses)");
    println!("sink addresses:           {}", wb.h1.sink_count(chain));
    println!(
        "upper-bound users:        {} (paper: <=6,595,564)",
        wb.h1.cluster_count()
    );
    println!(
        "false merges (gt):        {} impure clusters (purity {:.4})",
        score.impure_clusters,
        score.purity()
    );
    let gox = wb.h1_names.clusters_of_service("Mt. Gox");
    println!("Mt. Gox spans:            {} H1 clusters (paper: ~20)", gox.len());
    println!("named clusters:           {}", wb.h1_names.named_clusters);
    println!("named addresses:          {}", wb.h1_names.named_addresses);
    println!(
        "amplification:            {:.0}x over {} hand-tagged (paper: ~1,600x)",
        amplification(wb.hand_tagged(), wb.h1_names.named_addresses),
        wb.hand_tagged()
    );
}

/// §4.2: the false-positive refinement ladder.
fn fp_ladder(wb: &Workbench) {
    println!("\n== §4.2: Heuristic 2 false-positive ladder ==");
    let chain = wb.eco.chain.resolved();
    let naive_labels = change::identify(chain, &ChangeConfig::naive());
    println!("naive H2 change labels:   {} (paper: >4M)", naive_labels.labels);

    let est_naive = fp::estimate(chain, &naive_labels, &ChangeConfig::naive());
    println!(
        "FP rate, naive:           {:.2}%  (paper: 13%)",
        est_naive.rate() * 100.0
    );

    let mut dice_cfg = ChangeConfig::naive();
    dice_cfg.dice_exception = true;
    dice_cfg.dice_addresses = wb.dice.clone();
    let est_dice = fp::estimate(chain, &naive_labels, &dice_cfg);
    println!(
        "FP rate, dice exception:  {:.2}%  (paper: 1%)",
        est_dice.rate() * 100.0
    );

    let mut day = dice_cfg.clone();
    day.wait_blocks = Some(BLOCKS_PER_DAY);
    let day_labels = change::identify(chain, &day);
    let est_day = fp::estimate(chain, &day_labels, &dice_cfg);
    println!(
        "FP rate, wait a day:      {:.2}%  (paper: 0.28%)",
        est_day.rate() * 100.0
    );

    let mut week = dice_cfg.clone();
    week.wait_blocks = Some(BLOCKS_PER_WEEK);
    let week_labels = change::identify(chain, &week);
    let est_week = fp::estimate(chain, &week_labels, &dice_cfg);
    println!(
        "FP rate, wait a week:     {:.2}%  (paper: 0.17%)",
        est_week.rate() * 100.0
    );

    // Ground truth (unavailable to the paper).
    let gt = wb.eco.gt.to_id_space(chain);
    let s_naive = score_change_labels(chain, &naive_labels, &gt.change_vout);
    let refined_labels = change::identify(chain, &wb.refined_config());
    let s_refined = score_change_labels(chain, &refined_labels, &gt.change_vout);
    println!(
        "ground-truth precision:   naive {:.4}, refined {:.4}",
        s_naive.precision(),
        s_refined.precision()
    );
    println!(
        "ground-truth recall:      naive {:.4}, refined {:.4}",
        s_naive.recall(),
        s_refined.recall()
    );
}

/// §4.2: the super-cluster failure mode and its resolution.
fn super_cluster(wb: &Workbench) {
    println!("\n== §4.2: super-cluster formation (naive) vs refined H2 ==");
    let naive = wb.cluster_with(ChangeConfig::naive());
    let naive_names = name_clusters(&naive, &wb.tagdb);
    println!(
        "naive H2:  {} clusters, {} super-clusters",
        naive.cluster_count(),
        naive_names.super_clusters.len()
    );
    if let Some(sc) = naive_names.super_clusters.first() {
        println!(
            "  largest super-cluster: {} addresses welding {} services",
            sc.size,
            sc.services.len()
        );
        let preview: Vec<&str> = sc.services.iter().take(6).map(String::as_str).collect();
        println!("  services include: {} ...", preview.join(", "));
        println!("  (paper: 1.6M addresses welding Mt. Gox, Instawallet, BitPay, Silk Road)");
    }
    let refined = wb.cluster_with(wb.refined_config());
    let refined_names = name_clusters(&refined, &wb.tagdb);
    println!(
        "refined H2: {} clusters, {} super-clusters",
        refined.cluster_count(),
        refined_names.super_clusters.len()
    );
    let gt = wb.eco.gt.to_id_space(wb.eco.chain.resolved());
    let s_naive = score_clustering(&naive, &gt.owner_of);
    let s_refined = score_clustering(&refined, &gt.owner_of);
    println!(
        "cluster purity: naive {:.4}, refined {:.4}",
        s_naive.purity(),
        s_refined.purity()
    );
}

/// §4.2: refined Heuristic 2 headline numbers.
fn h2_stats(wb: &Workbench) {
    println!("\n== §4.2: refined Heuristic 2 clustering ==");
    let refined = wb.cluster_with(wb.refined_config());
    let labels = refined.change_labels.as_ref().unwrap();
    println!("change addresses found:   {} (paper: 3,540,831)", labels.labels);
    println!("clusters:                 {} (paper: 3,384,179)", refined.cluster_count());
    let names = name_clusters(&refined, &wb.tagdb);
    println!(
        "after tag collapse:       {} (paper: 3,383,904)",
        names.collapsed_cluster_count(refined.cluster_count())
    );
    println!("named clusters:           {} (paper: 2,197)", names.named_clusters);
    println!("named addresses:          {} (paper: >1.8M)", names.named_addresses);
    println!(
        "amplification:            {:.0}x over {} hand-tagged (paper: ~1,600x)",
        amplification(wb.hand_tagged(), names.named_addresses),
        wb.hand_tagged()
    );
}

/// Figure 2: category balances over time (% of active bitcoins).
///
/// Runs against the frozen [`ClusterSnapshot`] — the paper's
/// cluster-once-then-interrogate workflow.
fn fig2(wb: &Workbench) {
    println!("\n== Figure 2: balance per category, % of active bitcoins ==");
    let chain = wb.eco.chain.resolved();
    let snapshot = wb.snapshot();
    let every = (wb.eco.cfg.blocks / 24).max(1);
    let series = balance_series(chain, &snapshot, every);
    let cats: Vec<&str> = Category::figure2_categories()
        .iter()
        .map(|c| c.label())
        .collect();
    print!("{:>8}", "height");
    for c in &cats {
        print!("{c:>12}");
    }
    println!("{:>12}", "active BTC");
    for point in &series {
        print!("{:>8}", point.height);
        for c in &cats {
            print!("{:>11.2}%", point.percent_of_active(c));
        }
        println!("{:>12}", point.active().to_sat() / 100_000_000);
    }
}

/// Table 2: tracking the Silk Road dissolution along three peeling chains.
fn tab2(wb: &Workbench, graph: &TxGraph) {
    println!("\n== Table 2: tracking the 1DkyBEKt (Silk Road) dissolution ==");
    let Some(sr) = &wb.eco.script_report.silk_road else {
        println!("(Silk Road script disabled)");
        return;
    };
    let chain = wb.eco.chain.resolved();
    println!("big address:         {}", sr.big_address);
    println!(
        "total received:      {} (paper: 613,326 BTC; scaled economy)",
        sr.total_received
    );
    println!(
        "dissolution txs:     {} withdrawals + final sweep",
        sr.dissolution_txids.len()
    );
    println!("peel hops per chain: {:?} (paper: 100 each)", sr.hops_done);

    let labels = change::identify(chain, &wb.refined_config());
    let snapshot = wb.snapshot();

    // Follow all three dissolution chains over the shared columnar index.
    let starts = silk_road_starts(chain, sr);
    let (chains, rows) = service_arrivals_indexed(
        graph,
        &labels,
        &starts,
        100,
        FollowStrategy::LargestFallback,
        &snapshot,
    );
    for (i, c) in chains.iter().enumerate() {
        println!(
            "chain {}: {} hops followed ({} via fallback), {} peeled",
            i + 1,
            c.hops.len(),
            c.fallback_hops(),
            c.total_peeled()
        );
    }
    println!(
        "{:<20} {:>6} {:>8} {:>6} {:>8} {:>6} {:>8}",
        "Service", "P1", "BTC1", "P2", "BTC2", "P3", "BTC3"
    );
    let mut exchange_peels = 0usize;
    let mut attributed = 0usize;
    for row in &rows {
        let p = |i: usize| row.peels.get(i).copied().unwrap_or(0);
        let v = |i: usize| row.value.get(i).copied().map(btc_round).unwrap_or(0);
        println!(
            "{:<20} {:>6} {:>8} {:>6} {:>8} {:>6} {:>8}",
            row.service,
            p(0),
            v(0),
            p(1),
            v(1),
            p(2),
            v(2)
        );
        attributed += row.total_peels();
        if row.category == "exchange" {
            exchange_peels += row.total_peels();
        }
    }
    let total_peels: usize = chains.iter().map(|c| c.hops.iter().map(|h| h.peels.len()).sum::<usize>()).sum();
    println!(
        "peels to exchanges: {exchange_peels} of {total_peels} total ({attributed} attributed; paper: 54 of 300)"
    );
}

/// Table 3: tracking thefts.
fn tab3(wb: &Workbench, graph: &TxGraph) {
    println!("\n== Table 3: tracking thefts ==");
    let chain = wb.eco.chain.resolved();
    let labels = change::identify(chain, &wb.refined_config());
    let snapshot = wb.snapshot();

    // All thefts tracked in one batch over the shared graph index.
    let cases = theft_loots(chain, &wb.eco.script_report.thefts);
    let loots: Vec<Vec<(u32, u32)>> = cases.iter().map(|(_, loot)| loot.clone()).collect();
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let traces = track_thefts_batch(graph, &loots, &labels, &snapshot, 5_000, threads);

    println!(
        "{:<18} {:>10} {:>8} {:<10} {:<10} {:>14}",
        "Theft", "BTC", "Height", "Scripted", "Observed", "Exchanges?"
    );
    for ((name, _), trace) in cases.iter().zip(&traces) {
        let theft = wb
            .eco
            .script_report
            .thefts
            .iter()
            .find(|t| &t.name == name)
            .expect("case name from report");
        println!(
            "{:<18} {:>10} {:>8} {:<10} {:<10} {:>14}",
            theft.name,
            btc_round(theft.stolen),
            theft.theft_height,
            theft.pattern,
            trace.pattern,
            if trace.reached_exchange() {
                format!("Yes ({:.1} BTC)", trace.to_exchanges.to_btc())
            } else {
                "No".to_string()
            }
        );
        if theft.name == "Trojan" {
            println!(
                "  trojan dormant loot: {} of {} never moved (paper: 2,857 of 3,257)",
                trace.dormant, theft.stolen
            );
        }
    }
}
