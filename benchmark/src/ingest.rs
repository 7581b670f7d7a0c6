//! The two ingest workloads: `LivePipeline` streaming the whole chain,
//! flat out, into a running threaded server with no query load. One
//! operation is one published epoch; a pass is one whole chain through a
//! fresh pipeline and server. `ingest_live_store` adds a store directory
//! and ends each pass by reopening it and resuming a second pipeline
//! from it.

use crate::economy::{prepare, setup_layers, Prepared};
use crate::procstat;
use crate::report::{Outcome, RunOpts};
use crate::serve::{best, serve_config, Conn, Replay};
use crate::stats::{chunked_ratio, median, median_u64, percentile_sorted};
use crate::stream::{hash_bytes, MAX_TAINT_TXS};
use crate::trace::{self, span_cost_ns, Span, Tracer};
use fistful_chain::encode::Encodable;
use fistful_chain::resolve::BlockId;
use fistful_core::incremental::sharded::{IngestConfig, ShardedIngest};
use fistful_core::snapshot::ClusterSnapshot;
use fistful_flow::balance_series_at;
use fistful_flow::graph::TxGraph;
use fistful_serve::store::{delta_file_name, LiveMeta, GRAPH_FILE};
use fistful_serve::{
    LiveConfig, LivePipeline, Publisher, Request, ServeArtifacts, ServeError, Server,
};
use fistful_store::{Store, StoreError, StoreWriter};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
const EPOCH_BLOCKS: usize = 16;
const START_BLOCKS: usize = 16;
/// How often the watcher reads the published epoch.
const WATCH_EVERY: Duration = Duration::from_micros(100);
/// Answers compared with the batch bundle over the socket after a pass.
const SAMPLED_ANSWERS: u32 = 96;

fn store_err(e: StoreError) -> ServeError {
    ServeError::Io(format!("artifact store: {e}"))
}

fn live_config(prep: &Prepared, store_dir: Option<PathBuf>) -> LiveConfig {
    LiveConfig {
        shards: SHARDS,
        epoch_blocks: EPOCH_BLOCKS,
        start_blocks: START_BLOCKS,
        balance_every: prep.scale.balance_every(),
        change: prep.refined.clone(),
        store_dir,
        block_delay: Duration::ZERO,
    }
}

/// A fresh, empty directory for one pass, inside the checkout.
fn fresh_dir(tag: &str) -> std::io::Result<PathBuf> {
    let dir = Path::new("benchmark/out").join(format!("store-{}-{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

/// What one untraced pass measured and whether its checks held.
struct Pass {
    epochs: u64,
    wall_s: f64,
    cpu_s: f64,
    /// Time between consecutive publishes as the watcher saw them.
    intervals_ns: Vec<u64>,
    swap_mean_ms: f64,
    dir_bytes: u64,
    open_dir_ms: f64,
    resume_ms: f64,
    problems: Vec<String>,
}

/// Requests whose answers from the live server must equal the batch
/// bundle's: a spread of every point kind plus a few taint walks.
fn sample_requests(prep: &Prepared) -> Vec<Vec<u8>> {
    let space = prep.key_space();
    let mut requests = Vec::new();
    for i in 0..SAMPLED_ANSWERS as u64 {
        let at = |n: u64| i * n.max(1) / SAMPLED_ANSWERS as u64;
        requests.push(Request::AddressInfo {
            address: at(space.addresses) as u32,
        });
        requests.push(Request::ClusterSummary {
            cluster: at(space.clusters) as u32,
        });
        requests.push(Request::BalancePoint {
            height: at(space.tip_height + 1),
        });
        if i % 12 == 0 {
            requests.push(Request::TaintTrace {
                loot: vec![(at(space.early_txs) as u32, 0)],
                max_txs: MAX_TAINT_TXS,
            });
        }
    }
    requests.iter().map(Encodable::encode_to_vec).collect()
}

/// One pass of the real `LivePipeline`, watched from this thread.
fn live_pass(prep: &Prepared, store: bool, tag: &str) -> Result<Pass, ServeError> {
    let dir = if store { Some(fresh_dir(tag)?) } else { None };
    let mut live = LivePipeline::new(
        Arc::clone(&prep.chain),
        prep.tagdb.clone(),
        live_config(prep, dir.clone()),
    );
    let server = Server::start(serve_config(), live.bootstrap()?)?;
    let mut problems = Vec::new();

    let cpu_before = procstat::cpu_seconds();
    let began = Instant::now();
    let handle = live.spawn(server.publisher());
    let mut intervals_ns = Vec::with_capacity(prep.chain.block_count() / EPOCH_BLOCKS + 2);
    let mut seen = 0u64;
    let mut last = began;
    loop {
        let finished = handle.is_finished();
        let epoch = handle.published_epoch();
        if epoch < seen {
            problems.push(format!("published epoch went back from {seen} to {epoch}"));
        } else if epoch > seen {
            let now = Instant::now();
            let each = (now - last).as_nanos() as u64 / (epoch - seen);
            intervals_ns.extend((seen..epoch).map(|_| each));
            last = now;
        }
        seen = epoch;
        if finished {
            break;
        }
        std::thread::sleep(WATCH_EVERY);
    }
    let report = handle.join()?;
    let streamed = Instant::now();

    // The store's read side ends the pass: reopen the directory, then
    // resume a second pipeline from it.
    let mut reopened = None;
    let (mut open_dir_ms, mut resume_ms) = (0.0, 0.0);
    if let Some(dir) = &dir {
        let bundle = ServeArtifacts::open_dir(dir).map_err(store_err)?;
        let opened = Instant::now();
        open_dir_ms = (opened - streamed).as_secs_f64() * 1e3;
        let mut resumed = LivePipeline::new(
            Arc::clone(&prep.chain),
            prep.tagdb.clone(),
            live_config(prep, Some(dir.clone())),
        );
        let resumed_bundle = resumed.bootstrap()?;
        resume_ms = opened.elapsed().as_secs_f64() * 1e3;
        reopened = Some((bundle, resumed, resumed_bundle));
    }
    let wall_s = began.elapsed().as_secs_f64();
    let cpu_s = procstat::cpu_seconds() - cpu_before;

    let oracle = &prep.artifacts;
    let mut bytes = 0;
    if let Some(dir) = &dir {
        bytes = dir_bytes(dir)?;
        std::fs::remove_dir_all(dir)?;
    }
    if let Some((bundle, resumed, resumed_bundle)) = reopened {
        if bundle.snapshot.to_bytes() != oracle.snapshot.to_bytes()
            || bundle.graph != oracle.graph
            || bundle.labels.vout_of != oracle.labels.vout_of
            || bundle.balances != oracle.balances
        {
            problems.push("the reopened store differs from the batch bundle".to_string());
        }
        if resumed.epoch() != report.final_epoch
            || resumed.blocks_fed() != prep.chain.block_count()
            || resumed_bundle.snapshot != oracle.snapshot
        {
            problems.push(format!(
                "resume landed at epoch {} after {} blocks, not at epoch {} after {}",
                resumed.epoch(),
                resumed.blocks_fed(),
                report.final_epoch,
                prep.chain.block_count()
            ));
        }
    }

    // The pipeline hands out no handle on its final bundle, so the served
    // state is checked from outside: dimensions, then sampled answers.
    if !report.flushed || report.publishes != intervals_ns.len() as u64 {
        problems.push(format!(
            "{} publishes reported, {} observed, flushed: {}",
            report.publishes,
            intervals_ns.len(),
            report.flushed
        ));
    }
    let stats = server.stats();
    if stats.epoch != report.final_epoch
        || stats.tx_count != oracle.graph.tx_count() as u64
        || stats.address_count != oracle.snapshot.address_count() as u64
        || stats.cluster_count != oracle.snapshot.cluster_count() as u64
        || stats.tip_height != oracle.snapshot.tip_height()
    {
        problems.push(format!(
            "the served dimensions differ from the batch build: {stats:?}"
        ));
    }
    let mut conn = Conn::connect(server.local_addr())?;
    let mut direct = Replay::new(oracle, 0);
    for request in sample_requests(prep) {
        let served = conn.call(&request)?;
        if hash_bytes(&served) != hash_bytes(&direct.answer(&request, 0, &mut Tracer::off())) {
            problems.push(format!(
                "request {request:02x?} is answered differently from the batch bundle"
            ));
            break;
        }
    }
    drop(conn);
    let swap = server.metrics_handle().dump();
    let swap = swap
        .histograms
        .iter()
        .find(|h| h.name == "fistful_swap_latency_seconds");
    let swap_mean_ms = swap
        .map(|h| h.sum_micros as f64 / h.count.max(1) as f64 / 1e3)
        .unwrap_or(0.0);
    server.shutdown();

    Ok(Pass {
        epochs: report.publishes,
        wall_s,
        cpu_s,
        intervals_ns,
        swap_mean_ms,
        dir_bytes: bytes,
        open_dir_ms,
        resume_ms,
        problems,
    })
}

/// The live pipeline recomposed from public calls, in the order
/// `LivePipeline::publish_epoch` (private) makes them, each inside a
/// span. It writes the delta and graph files as the pipeline does;
/// `serve.fst`, whose writer is private to the serve crate, it cannot.
struct Recomposer<'a> {
    prep: &'a Prepared,
    dir: Option<&'a Path>,
    t: Tracer,
    pipe: ShardedIngest,
    graph: TxGraph,
    base: ClusterSnapshot,
    cut: usize,
    epoch: u64,
    delta_seq: usize,
    bytes_written: u64,
}

impl Recomposer<'_> {
    /// `StoreWriter::write_to`, its two halves in a span each.
    fn write_container(&mut self, w: &StoreWriter, path: &Path) -> Result<(), ServeError> {
        let op = self.epoch as u32;
        let bytes = self.t.scope("store.container.encode", op, || w.to_bytes());
        self.t
            .scope("store.container.write", op, || std::fs::write(path, &bytes))?;
        self.bytes_written += bytes.len() as u64;
        Ok(())
    }

    fn publish_epoch(&mut self, publisher: &Publisher) -> Result<(), ServeError> {
        let prep = self.prep;
        let chain = &*prep.chain;
        let op = self.epoch as u32 + 1;
        let cut = self.pipe.reconciled_txs() as usize;
        let (pipe, base) = (&mut self.pipe, &self.base);
        let (snapshot, delta) = self.t.scope("core.sharded.export_delta", op, || {
            pipe.export_delta(chain, &prep.tagdb, base)
        });
        let ids_stable = delta
            .assign
            .iter()
            .all(|&(a, _)| (a as usize) >= self.base.address_count())
            && delta
                .clusters
                .iter()
                .all(|(c, _)| self.base.info(*c).is_none());
        let graph = &mut self.graph;
        self.t
            .scope("flow.graph.extend", op, || graph.extend_to(chain, cut));
        let pipe = &self.pipe;
        let labels = self.t.scope("core.change.labels_clone", op, || {
            pipe.change_labels()
                .expect("the ingest runs Heuristic 2")
                .clone()
        });
        let every = prep.scale.balance_every();
        let balances = self.t.scope("flow.balance.series_at", op, || {
            balance_series_at(chain, cut, &snapshot, every)
        });
        let graph = &self.graph;
        let graph_copy = self.t.scope("flow.graph.clone", op, || graph.clone());
        let artifacts = self.t.scope("serve.server.artifacts_new", op, || {
            ServeArtifacts::new(snapshot.clone(), graph_copy, labels, balances).map(Arc::new)
        })?;
        self.epoch += 1;
        if let Some(dir) = self.dir {
            if !delta.is_empty() {
                let span = self.t.open("core.snapshot.delta_write", op);
                let mut w = StoreWriter::new();
                delta.write_store(&mut w);
                self.write_container(&w, &dir.join(delta_file_name(self.delta_seq)))?;
                self.t.close(span);
                self.delta_seq += 1;
            }
            let span = self.t.open("serve.store.graph_write", op);
            let mut w = StoreWriter::new();
            artifacts.graph.write_store(&mut w);
            self.write_container(&w, &dir.join(GRAPH_FILE))?;
            self.t.close(span);
        }
        self.t.scope("serve.server.publish", op, || {
            publisher.publish(Arc::clone(&artifacts), self.epoch, ids_stable)
        });
        self.base = snapshot;
        self.cut = cut;
        Ok(())
    }
}

struct Recomposed {
    epochs: u64,
    wall_s: f64,
    bytes_written: u64,
    bytes_read: u64,
    final_matches: bool,
    spans: Vec<Span>,
}

fn recomposed_pass(
    prep: &Prepared,
    store: bool,
    origin: Instant,
    tag: &str,
) -> Result<Recomposed, ServeError> {
    let dir = if store { Some(fresh_dir(tag)?) } else { None };
    let chain = &*prep.chain;
    let mut t = Tracer::on(origin, 64 * 1024);

    // Bootstrap, as `LivePipeline::bootstrap` does it.
    let mut pipe = ShardedIngest::new(IngestConfig::with_h2(
        SHARDS,
        EPOCH_BLOCKS,
        prep.refined.clone(),
    ));
    let start = START_BLOCKS.min(chain.block_count());
    for i in 0..start {
        pipe.ingest_block(&chain.block(i as BlockId));
    }
    let cut = pipe.reconciled_txs() as usize;
    let base = pipe.export_snapshot(chain, &prep.tagdb);
    let graph = TxGraph::build_at(chain, cut);
    let labels = pipe
        .change_labels()
        .expect("the ingest runs Heuristic 2")
        .clone();
    let balances = balance_series_at(chain, cut, &base, prep.scale.balance_every());
    let boot = Arc::new(ServeArtifacts::new(
        base.clone(),
        graph.clone(),
        labels,
        balances,
    )?);
    if let Some(dir) = &dir {
        let meta = LiveMeta {
            epoch: 0,
            tx_count: cut as u64,
            block_count: start as u64,
            flushed: false,
        };
        t.scope("serve.store.save_dir", 0, || boot.save_dir_live(dir, &meta))
            .map_err(store_err)?;
    }
    let server = Server::start(serve_config(), boot)?;
    let publisher = server.publisher();

    let mut r = Recomposer {
        prep,
        dir: dir.as_deref(),
        t,
        pipe,
        graph,
        base,
        cut,
        epoch: 0,
        delta_seq: 1,
        bytes_written: 0,
    };
    let began = Instant::now();
    let mut root = r.t.open("serve.live.epoch", 1);
    for next in start..chain.block_count() {
        let span = r.t.open("core.sharded.ingest_block", r.epoch as u32 + 1);
        r.pipe.ingest_block(&chain.block(next as BlockId));
        let boundary = r.pipe.reconciled_txs() as usize != r.cut;
        r.t.close_as(
            span,
            if boundary {
                "core.sharded.reconcile"
            } else {
                "core.sharded.ingest_block"
            },
        );
        if boundary {
            r.publish_epoch(&publisher)?;
            r.t.close(root);
            root = r.t.open("serve.live.epoch", r.epoch as u32 + 1);
        }
    }
    let pipe = &mut r.pipe;
    r.t.scope("core.sharded.reconcile", r.epoch as u32 + 1, || {
        pipe.flush(chain)
    });
    r.publish_epoch(&publisher)?;
    r.t.close(root);
    let wall_s = began.elapsed().as_secs_f64();

    // The store's read side, segment by segment, while the files exist.
    if let Some(dir) = &dir {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
            .map(|e| e.map(|e| e.path()))
            .collect::<Result<_, _>>()?;
        entries.sort();
        for path in entries {
            let span = r.t.open("store.container.decode", 0);
            let mut store = Store::open(&path).map_err(store_err)?;
            let names: Vec<String> = store.segment_names().map(str::to_string).collect();
            for name in names {
                std::hint::black_box(store.bytes(&name).map_err(store_err)?);
            }
            r.t.close(span);
        }
    }
    let bytes_read = dir.as_deref().map(dir_bytes).transpose()?.unwrap_or(0);
    server.shutdown();
    if let Some(dir) = &dir {
        std::fs::remove_dir_all(dir)?;
    }

    let final_matches = r.base.to_bytes() == prep.artifacts.snapshot.to_bytes()
        && r.graph == prep.artifacts.graph
        && publisher.current_epoch() == r.epoch;
    Ok(Recomposed {
        epochs: r.epoch,
        wall_s,
        bytes_written: r.bytes_written,
        bytes_read,
        final_matches,
        spans: r.t.into_spans(),
    })
}

fn mean_of_last_over_first_tenth(intervals: &[u64]) -> f64 {
    let tenth = (intervals.len() / 10).max(1);
    let mean = |part: &[u64]| part.iter().sum::<u64>() as f64 / part.len() as f64;
    mean(&intervals[intervals.len() - tenth..]) / mean(&intervals[..tenth]).max(1.0)
}

pub fn run(workload: &'static str, store: bool, opts: RunOpts) -> Result<Outcome, ServeError> {
    let mut out = Outcome::new(workload, opts);
    let origin = opts.started;
    let mut setup_tracer = opts.setup_tracer();

    let prep = prepare(opts.seed, opts.scale(), &mut setup_tracer);
    let first_setup_s = opts.started.elapsed().as_secs_f64();
    out.notes.push(format!(
        "{} blocks, {} txs, {} addresses; {SHARDS} shards, {EPOCH_BLOCKS}-block epochs, no query load",
        prep.chain.block_count(),
        prep.chain.tx_count(),
        prep.chain.address_count()
    ));
    if store {
        out.notes.push(
            "store flush policy: whatever StoreWriter::write_to does, today a plain std::fs::write \
             with no fsync; the directory is under benchmark/out"
                .to_string(),
        );
    }

    // Untraced passes of the real pipeline: the whole timed phase, or its
    // first half when recomposed passes follow.
    let min_passes = if opts.smoke {
        1
    } else if store {
        3
    } else {
        5
    };
    let budget = Duration::from_secs_f64(if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    });
    let phase = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < min_passes || phase.elapsed() < budget {
        passes.push(live_pass(&prep, store, &format!("live-{}", passes.len()))?);
    }
    let problems: Vec<&String> = passes.iter().flat_map(|p| &p.problems).collect();
    out.check(
        "every_pass_converges_to_batch",
        problems.is_empty(),
        if problems.is_empty() {
            format!(
                "{} passes: monotone epochs, served dimensions and {} sampled answers equal the batch build{}",
                passes.len(),
                sample_requests(&prep).len(),
                if store { ", reopened store and resumed pipeline equal it in full" } else { "" }
            )
        } else {
            format!("{} problems, first: {}", problems.len(), problems[0])
        },
    );
    out.attempted = passes.iter().map(|p| p.epochs).sum();
    out.failed = passes
        .iter()
        .filter(|p| !p.problems.is_empty())
        .map(|p| p.epochs)
        .sum();

    let thr: Vec<f64> = passes.iter().map(|p| p.epochs as f64 / p.wall_s).collect();
    if opts.trace {
        setup_layers(&mut out, &prep, &setup_tracer.into_spans());
        let traced_phase = Instant::now();
        let mut recomposed = Vec::new();
        while recomposed.is_empty() || traced_phase.elapsed() < budget {
            recomposed.push(recomposed_pass(
                &prep,
                store,
                origin,
                &format!("trace-{}", recomposed.len()),
            )?);
        }
        let agree = recomposed
            .iter()
            .all(|r| r.final_matches && r.epochs == passes[0].epochs);
        out.check(
            "trace_recomposition_matches_pipeline",
            agree,
            format!(
                "{} recomposed passes of {} epochs; final snapshot bytes and graph equal the batch build: {agree}",
                recomposed.len(),
                recomposed[0].epochs
            ),
        );
        ingest_layers(&mut out, &passes, &recomposed);
        let traced_thr: Vec<f64> = recomposed
            .iter()
            .map(|r| r.epochs as f64 / r.wall_s)
            .collect();
        out.layer("trace.overhead_share", best(&traced_thr) / best(&thr));
        out.layer("trace.span_cost_ns", span_cost_ns(origin));
        let spans = trace::merge(recomposed.into_iter().map(|r| r.spans).collect());
        trace::write_jsonl(&trace::file_for(workload), &spans, 0)?;
    } else {
        let tail_p = out.tail_percentile();
        let sorted: Vec<Vec<u64>> = passes
            .iter()
            .map(|p| {
                let mut sorted = p.intervals_ns.clone();
                sorted.sort_unstable();
                sorted
            })
            .collect();
        let at = |p: u32| -> Vec<f64> {
            sorted
                .iter()
                .map(|s| percentile_sorted(s, p) as f64 / 1e3)
                .collect()
        };
        let cpu_us: Vec<f64> = passes.iter().map(|p| p.cpu_s * 1e6).collect();
        let epochs: Vec<f64> = passes.iter().map(|p| p.epochs as f64).collect();
        out.measure("throughput_ops_s", &thr);
        out.measure("latency_p50_us", &at(50));
        // Epoch cost climbs with chain height, so a pass's tail is a fixed
        // stretch of that climb; like every other metric it is read pass
        // by pass. The samples beyond the percentile are counted over all
        // passes together.
        out.measure("latency_tail_us", &at(tail_p));
        out.measure("cpu_us_per_op", &chunked_ratio(&cpu_us, &epochs, 5));
        out.measure("rss_peak_mb", &[procstat::rss_peak_mb()]);
        drop(prep);
        out.measure_setup(first_setup_s, || {
            drop(prepare(opts.seed, opts.scale(), &mut Tracer::off()));
            Ok::<(), ServeError>(())
        })?;
        out.tail_samples = sorted.iter().map(Vec::len).sum();
    }
    Ok(out)
}

/// Per-layer numbers of an epoch: each layer's self time summed over a
/// recomposed pass and divided by its epochs, then the median over
/// passes. Epoch cost grows with chain height, so a per-epoch mean adds
/// up to the pass where a per-call median would not.
fn ingest_layers(out: &mut Outcome, passes: &[Pass], recomposed: &[Recomposed]) {
    let per_pass: Vec<_> = recomposed
        .iter()
        .map(|r| trace::self_times_by_name(&r.spans))
        .collect();
    let per_epoch_ms = |name: &str| -> f64 {
        let values: Vec<f64> = per_pass
            .iter()
            .zip(recomposed)
            .map(|(by_name, r)| {
                by_name
                    .get(name)
                    .map(|v| v.iter().sum::<u64>())
                    .unwrap_or(0) as f64
                    / 1e6
                    / r.epochs as f64
            })
            .collect();
        median(&values)
    };
    let call_median_ns = |name: &str| -> f64 {
        let values: Vec<f64> = per_pass
            .iter()
            .filter_map(|by_name| by_name.get(name))
            .map(|v| median_u64(v))
            .collect();
        if values.is_empty() {
            0.0
        } else {
            median(&values)
        }
    };
    let buffered_ns = call_median_ns("core.sharded.ingest_block");
    out.layer("core.sharded.ingest_block_us", buffered_ns / 1e3);
    // A boundary call buffers its block like any other, then reconciles.
    out.layer(
        "core.sharded.reconcile_ms",
        (per_epoch_ms("core.sharded.reconcile") - buffered_ns / 1e6).max(0.0),
    );
    out.layer(
        "core.sharded.export_delta_ms",
        per_epoch_ms("core.sharded.export_delta"),
    );
    out.layer("flow.graph.extend_ms", per_epoch_ms("flow.graph.extend"));
    out.layer("flow.graph.clone_ms", per_epoch_ms("flow.graph.clone"));
    out.layer(
        "core.change.labels_clone_ms",
        per_epoch_ms("core.change.labels_clone"),
    );
    out.layer(
        "flow.balance.series_at_ms",
        per_epoch_ms("flow.balance.series_at"),
    );
    out.layer(
        "serve.server.artifacts_new_ms",
        per_epoch_ms("serve.server.artifacts_new"),
    );
    out.layer(
        "serve.server.publish_us",
        per_epoch_ms("serve.server.publish") * 1e3,
    );
    out.layer(
        "core.snapshot.delta_write_ms",
        per_epoch_ms("core.snapshot.delta_write"),
    );
    out.layer(
        "serve.store.graph_write_ms",
        per_epoch_ms("serve.store.graph_write"),
    );
    out.layer(
        "store.container.write_ms",
        per_epoch_ms("store.container.write"),
    );
    out.layer(
        "serve.store.save_dir_ms",
        call_median_ns("serve.store.save_dir") / 1e6,
    );

    let total = |name: &str| -> u64 {
        per_pass
            .iter()
            .filter_map(|by_name| by_name.get(name))
            .flatten()
            .sum()
    };
    let mb_per_s = |bytes: u64, ns: u64| {
        if ns == 0 {
            0.0
        } else {
            bytes as f64 / 1e6 / (ns as f64 / 1e9)
        }
    };
    let written: u64 = recomposed.iter().map(|r| r.bytes_written).sum();
    out.layer(
        "store.container.encode_mb_s",
        mb_per_s(written, total("store.container.encode")),
    );
    let read: u64 = recomposed.iter().map(|r| r.bytes_read).sum();
    out.layer(
        "store.container.decode_mb_s",
        mb_per_s(read, total("store.container.decode")),
    );
    let epochs: u64 = recomposed.iter().map(|r| r.epochs).sum();
    out.layer(
        "serve.store.bytes_per_epoch",
        written as f64 / epochs as f64,
    );

    // From the real pipeline's passes and its own instruments.
    let of = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    out.layer("serve.live.epochs", of(|p| p.epochs as f64));
    out.layer("serve.live.swap_mean_ms", of(|p| p.swap_mean_ms));
    out.layer(
        "serve.live.epoch_growth_ratio",
        of(|p| mean_of_last_over_first_tenth(&p.intervals_ns)),
    );
    out.layer("serve.store.dir_bytes", of(|p| p.dir_bytes as f64));
    out.layer("serve.store.open_dir_ms", of(|p| p.open_dir_ms));
    out.layer("serve.live.resume_ms", of(|p| p.resume_ms));
}
