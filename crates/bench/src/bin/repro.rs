//! `repro` — regenerates the paper's tables, its §4 statistics and its
//! Figure 2, and runs the TCP query service over the same simulated
//! economy. Figure 1 is background on how a payment is broadcast and
//! confirmed, not a result, and is not reproduced.
//!
//! Usage: `repro [--scale tiny|default|paper] [experiment...]` where each
//! `experiment` is one of `tab1 h1 fp super h2 fig2 tab2 tab3`
//! (default: `all`). Repeated experiments run once; `all` must stand
//! alone. Tables and Figure 2 go to stdout, progress lines to stderr.
//! `repro serve` starts the `fistful-serve` query server over the
//! simulated economy, batch-built or (`--live`) streamed epoch by epoch,
//! optionally persisted to a store directory it resumes from. Parsing
//! lives in [`fistful_bench::cli`]. Throughput and latency are measured by
//! the separate `benchmark/` package, and every equivalence between
//! engines and formats is asserted by the test suites, not here.

#![forbid(unsafe_code)]

use fistful_bench::cli::{self, CliOutcome, Command, RunPlan};
use fistful_bench::{btc_round, serve_artifacts, silk_road_starts, theft_loots, Workbench};
use fistful_core::change::{self, ChangeConfig, BLOCKS_PER_DAY, BLOCKS_PER_WEEK};
use fistful_core::fp;
use fistful_core::score::{amplification, score_change_labels, score_clustering};
use fistful_core::naming::name_clusters;
use fistful_flow::graph::TxGraph;
use fistful_flow::{
    balance_series, follow_chains_indexed, service_arrivals, track_thefts_batch, FollowStrategy,
};
use fistful_sim::{Category, SimConfig};

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
/// Runs against the frozen [`fistful_core::snapshot::ClusterSnapshot`] —
/// the paper's cluster-once-then-interrogate workflow.
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
    let chains =
        follow_chains_indexed(graph, &labels, &starts, 100, FollowStrategy::LargestFallback);
    let rows = service_arrivals(&chains, &snapshot);
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
    let traces = track_thefts_batch(
        graph,
        &loots,
        &labels,
        &snapshot,
        cli::DEFAULT_TAINT_MAX_TXS,
        threads,
    );

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
