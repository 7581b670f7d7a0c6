//! Live ingest: a background pipeline that feeds new blocks through the
//! sharded clustering engine and hot-swaps fresh artifacts into a running
//! [`Server`](crate::server::Server).
//!
//! # Pipeline
//!
//! [`LivePipeline`] wraps a [`ShardedIngest`] plus the three derived
//! artifacts the server needs next to the snapshot (transaction graph,
//! change labels, balance series). [`LivePipeline::bootstrap`] builds the
//! initial bundle — from disk when the store directory holds a live save
//! (see below), otherwise by ingesting the configured warm-up prefix —
//! and the caller starts the server on it. [`LivePipeline::run`] (or its
//! background form, [`LivePipeline::spawn`]) then streams the remaining
//! blocks:
//!
//! ```text
//!   ingest thread                          worker pool
//!   ─────────────                          ───────────
//!   ingest_block ──┐
//!   ingest_block   ├─ epoch reconcile ───▶ Publisher::publish ──▶ Arc swap
//!   ingest_block ──┘    │ (+ address totals, O(new blocks))      (workers
//!        ...            ├─ export_snapshot: partition, vote, fold  pin the
//!                       ├─ TxGraph::extend_to (O(new blocks))      old Arc
//!                       ├─ BalanceSeries::extend_to (O(new ...))   per
//!                       └─ with a store: delta + meta to disk      request)
//! ```
//!
//! The export walks no transaction: the reconcile extends the engine's
//! per-address received/spent totals over the epoch's new inputs and
//! outputs, and the export folds them through the fresh partition. The
//! [`SnapshotDelta`] against the previous bundle is built only when a
//! store directory will write it.
//!
//! Each publish increments the **publish epoch** — a sequence number, not
//! the engine's epoch counter, because a terminal
//! [`flush`](ShardedIngest::flush) can resolve pending wait-to-label
//! decisions (changing taint answers) without advancing the reconciled
//! transaction watermark; such a publish must still raise the cache's
//! graph floor. The snapshot floor is left in place only when the epoch
//! was purely additive ([`ClusterSnapshot::keeps_ids_of`]: no existing
//! address reassigned, no existing cluster row touched). That is rare:
//! a merge of two old clusters renumbers every later one, and a payment
//! to an old cluster rewrites its row, so cached
//! `AddressInfo`/`ClusterSummary` entries survive 1 of the 30 publishes
//! of the benchmark economy (16-block epochs) and 2 of 187 at
//! `paper_scale()`.
//!
//! [`ClusterSnapshot::keeps_ids_of`]: fistful_core::snapshot::ClusterSnapshot::keeps_ids_of
//!
//! # Persistence and resume
//!
//! With a store directory configured, the bootstrap writes a full base
//! save and every publish appends the epoch's [`SnapshotDelta`] file plus
//! a refreshed `graph.fst`/`serve.fst` carrying a [`LiveMeta`] watermark.
//! A restarted pipeline pointed at the same directory folds base + deltas
//! back ([`ServeArtifacts::open_dir`]), replays exactly the recorded
//! block prefix to rebuild its in-memory engine, and cross-checks the
//! replayed export against the disk snapshot byte-for-byte and the series
//! rebuilt at the configured `balance_every` against the disk series —
//! resuming at the recorded epoch on success and silently falling back to
//! a fresh build on any mismatch (a different chain or sampling interval,
//! a truncated file, a stale layout).

use crate::protocol::ServeError;
use crate::server::{Publisher, ServeArtifacts};
use crate::store::{delta_file_name, delta_files, read_live_meta, LiveMeta, SERVE_FILE};
use fistful_chain::resolve::{BlockId, ResolvedChain};
use fistful_core::change::ChangeConfig;
use fistful_core::incremental::sharded::{IngestConfig, ShardedIngest};
use fistful_core::snapshot::SnapshotDelta;
use fistful_core::tagdb::TagDb;
use fistful_flow::BalanceSeries;
use fistful_flow::graph::TxGraph;
use fistful_store::{StoreError, StoreWriter};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Persistence failures surface as serve-level I/O errors.
fn store_err(e: StoreError) -> ServeError {
    ServeError::Io(format!("artifact store: {e}"))
}

/// Configuration of a live ingest pipeline.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Threads deciding Heuristic 2 in the underlying [`ShardedIngest`]
    /// (the ingest thread included): each epoch's transactions split into
    /// this many contiguous chunks. Must be `>= 1`.
    pub shards: usize,
    /// Blocks per reconcile epoch. Must be `>= 1`.
    pub epoch_blocks: usize,
    /// Blocks ingested synchronously by [`LivePipeline::bootstrap`]
    /// before the server starts — the warm-up prefix. The rest stream in
    /// from the background thread.
    pub start_blocks: usize,
    /// Balance-series sampling interval in blocks.
    pub balance_every: u64,
    /// Heuristic 2 configuration. Live serving always runs H2: taint
    /// traces need change labels.
    pub change: ChangeConfig,
    /// Store directory for the base save + per-epoch deltas; `None`
    /// serves from RAM only (no resume after restart).
    pub store_dir: Option<PathBuf>,
    /// Artificial pause after each ingested block — lets tests and demos
    /// pace the stream; `Duration::ZERO` ingests flat out.
    pub block_delay: Duration,
}

impl LiveConfig {
    /// A pipeline configuration with serving-oriented defaults (4 shards,
    /// 16-block epochs, no warm-up prefix, per-block balance samples, no
    /// persistence, no pacing).
    pub fn new(change: ChangeConfig) -> LiveConfig {
        LiveConfig {
            shards: 4,
            epoch_blocks: 16,
            start_blocks: 0,
            balance_every: 1,
            change,
            store_dir: None,
            block_delay: Duration::ZERO,
        }
    }
}

/// What a completed (or stopped) live run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveReport {
    /// The last published epoch.
    pub final_epoch: u64,
    /// Publishes performed by [`LivePipeline::run`] (excluding the
    /// bootstrap bundle the server was started on).
    pub publishes: u64,
    /// Total blocks ingested over the pipeline's lifetime, including the
    /// warm-up prefix and any resumed-from-disk prefix.
    pub blocks_ingested: u64,
    /// Whether the run reached the end of the chain and terminally
    /// flushed (false when stopped early).
    pub flushed: bool,
}

/// The live ingest pipeline: chain in, published artifact generations
/// out.
///
/// Construct with [`LivePipeline::new`], obtain the initial bundle with
/// [`LivePipeline::bootstrap`], start a server on it, then hand the
/// pipeline the server's [`Publisher`] via [`LivePipeline::run`] (same
/// thread) or [`LivePipeline::spawn`] (background thread +
/// [`LiveHandle`]).
pub struct LivePipeline {
    chain: Arc<ResolvedChain>,
    db: TagDb,
    config: LiveConfig,
    pipe: ShardedIngest,
    graph: TxGraph,
    balances: BalanceSeries,
    current: Option<Arc<ServeArtifacts>>,
    blocks_fed: usize,
    epoch: u64,
    delta_seq: usize,
    publishes: u64,
    last_cut: usize,
}

impl LivePipeline {
    /// A pipeline over `chain` with tag database `db` for cluster naming.
    /// The chain is fixed: the pipeline does not see blocks appended
    /// after it starts, so re-run it to pick them up.
    pub fn new(chain: Arc<ResolvedChain>, db: TagDb, config: LiveConfig) -> LivePipeline {
        let ingest =
            IngestConfig::with_h2(config.shards, config.epoch_blocks, config.change.clone());
        LivePipeline {
            pipe: ShardedIngest::new(ingest),
            graph: TxGraph::build_at(&chain, 0),
            balances: BalanceSeries::new(config.balance_every),
            current: None,
            blocks_fed: 0,
            epoch: 0,
            delta_seq: 1,
            publishes: 0,
            last_cut: 0,
            chain,
            db,
            config,
        }
    }

    /// The current publish epoch (`0` until a resume or the first
    /// publish).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Blocks ingested so far (warm-up + resumed + streamed).
    pub fn blocks_fed(&self) -> usize {
        self.blocks_fed
    }

    /// Builds the initial artifact bundle the server should be started
    /// on.
    ///
    /// When a store directory is configured and holds a live save for
    /// this chain, the bundle is reopened from disk and the ingest engine
    /// rebuilt by replaying the recorded prefix — the pipeline resumes at
    /// the recorded epoch. Otherwise the configured warm-up prefix is
    /// ingested and exported fresh (and, with a store directory, written
    /// as the new base save).
    pub fn bootstrap(&mut self) -> Result<Arc<ServeArtifacts>, ServeError> {
        if let Some(resumed) = self.try_resume()? {
            return Ok(resumed);
        }
        let chain = Arc::clone(&self.chain);
        let take = self.config.start_blocks.min(chain.block_count());
        for i in 0..take {
            self.pipe.ingest_block(&chain.block(i as BlockId));
        }
        self.blocks_fed = take;
        let artifacts = self.build_current()?;
        if let Some(dir) = self.config.store_dir.clone() {
            artifacts.save_dir_live(&dir, &self.meta(false)).map_err(store_err)?;
            self.delta_seq = 1;
        }
        Ok(artifacts)
    }

    /// Attempts the resume-from-disk path; `Ok(None)` means "no usable
    /// live save — build fresh" (and leaves the pipeline reset).
    fn try_resume(&mut self) -> Result<Option<Arc<ServeArtifacts>>, ServeError> {
        let Some(dir) = self.config.store_dir.clone() else { return Ok(None) };
        if !dir.join(SERVE_FILE).exists() {
            return Ok(None);
        }
        // A batch save (no meta) or an unreadable bundle both mean a
        // fresh build, not a startup failure.
        let Some(meta) = read_live_meta(&dir).ok().flatten() else { return Ok(None) };
        let Ok(disk) = ServeArtifacts::open_dir(&dir) else { return Ok(None) };
        if meta.block_count as usize > self.chain.block_count() {
            return Ok(None);
        }
        for i in 0..meta.block_count as usize {
            self.pipe.ingest_block(&self.chain.block(i as BlockId));
        }
        if meta.flushed {
            self.pipe.flush(&self.chain);
        }
        // The replayed engine must land exactly where the disk bundle
        // says it did; the folded base+delta snapshot must equal a fresh
        // export, and the saved balances the series at this interval.
        // Anything else means the save belongs to another chain or config.
        let cut = self.pipe.reconciled_txs() as usize;
        if cut as u64 != meta.tx_count
            || disk.graph.tx_count() as u64 != meta.tx_count
            || self.pipe.export_snapshot(&self.chain, &self.db) != disk.snapshot
        {
            self.reset_engine();
            return Ok(None);
        }
        let mut balances = BalanceSeries::new(self.config.balance_every);
        balances.extend_to(&self.chain, cut, &disk.snapshot);
        if balances.points() != disk.balances {
            self.reset_engine();
            return Ok(None);
        }
        self.blocks_fed = meta.block_count as usize;
        self.epoch = meta.epoch;
        self.delta_seq = delta_files(&dir).map_err(store_err)?.len() + 1;
        self.balances = balances;
        self.graph = disk.graph.clone();
        self.last_cut = meta.tx_count as usize;
        let artifacts = Arc::new(disk);
        self.current = Some(Arc::clone(&artifacts));
        Ok(Some(artifacts))
    }

    /// Discards a partially-replayed engine after a failed resume.
    fn reset_engine(&mut self) {
        self.pipe = ShardedIngest::new(IngestConfig::with_h2(
            self.config.shards,
            self.config.epoch_blocks,
            self.config.change.clone(),
        ));
        self.blocks_fed = 0;
    }

    /// Exports the full bundle at the current reconciled cut (the
    /// bootstrap path — per-epoch publishes go through the delta path
    /// instead).
    fn build_current(&mut self) -> Result<Arc<ServeArtifacts>, ServeError> {
        let cut = self.pipe.reconciled_txs() as usize;
        let snapshot = self.pipe.export_snapshot(&self.chain, &self.db);
        let labels =
            self.pipe.change_labels().expect("live ingest always runs Heuristic 2").clone();
        self.graph = TxGraph::build_at(&self.chain, cut);
        self.balances = BalanceSeries::new(self.config.balance_every);
        self.balances.extend_to(&self.chain, cut, &snapshot);
        let artifacts = Arc::new(ServeArtifacts::new(
            snapshot,
            self.graph.clone(),
            labels,
            self.balances.points(),
        )?);
        self.last_cut = cut;
        self.current = Some(Arc::clone(&artifacts));
        Ok(artifacts)
    }

    /// The resume watermark describing the pipeline's present state.
    fn meta(&self, flushed: bool) -> LiveMeta {
        LiveMeta {
            epoch: self.epoch,
            tx_count: u64::from(self.pipe.reconciled_txs()),
            block_count: self.blocks_fed as u64,
            flushed,
        }
    }

    /// Builds and publishes one fresh artifact generation at the current
    /// reconciled cut: snapshot exported from the partition and the
    /// engine's per-address totals, graph and balance series extended in
    /// place, labels cloned. With a store directory, the snapshot's delta
    /// against the current bundle and the refreshed meta are appended to
    /// it before the swap, so a crash right after the publish still
    /// resumes here; without one, no delta is built.
    fn publish_epoch(&mut self, publisher: &Publisher, flushed: bool) -> Result<(), ServeError> {
        let swap_started = Instant::now();
        let cut = self.pipe.reconciled_txs() as usize;
        let base = &self.current.as_ref().expect("bootstrapped before publishing").snapshot;
        let snapshot = self.pipe.export_snapshot(&self.chain, &self.db);
        // Purely additive epoch? Then every cached Some-bodied snapshot
        // answer is still byte-exact and may outlive the swap.
        let ids_stable = snapshot.keeps_ids_of(base);
        let store = self
            .config
            .store_dir
            .clone()
            .map(|dir| (dir, SnapshotDelta::between(base, &snapshot)));
        self.graph.extend_to(&self.chain, cut);
        let labels =
            self.pipe.change_labels().expect("live ingest always runs Heuristic 2").clone();
        self.balances.extend_to(&self.chain, cut, &snapshot);
        let artifacts = Arc::new(ServeArtifacts::new(
            snapshot,
            self.graph.clone(),
            labels,
            self.balances.points(),
        )?);
        self.epoch += 1;
        if let Some((dir, delta)) = store {
            if !delta.is_empty() {
                let mut w = StoreWriter::new();
                delta.write_store(&mut w);
                w.write_to(&dir.join(delta_file_name(self.delta_seq))).map_err(store_err)?;
                self.delta_seq += 1;
            }
            artifacts.write_graph_file(&dir).map_err(store_err)?;
            artifacts.write_serve_file(&dir, Some(&self.meta(flushed))).map_err(store_err)?;
        }
        publisher.publish(Arc::clone(&artifacts), self.epoch, ids_stable);
        // The swap latency covers the whole rebuild — snapshot export, graph
        // and balance extension, store append — not just the pointer
        // swap, because that is the freshness lag a scraper cares about.
        publisher.core.metrics.swap_latency.observe(swap_started.elapsed());
        self.publishes += 1;
        self.last_cut = cut;
        self.current = Some(artifacts);
        Ok(())
    }

    /// Streams the rest of the chain into the engine, publishing at every
    /// reconcile, then terminally flushes and publishes the final
    /// generation. Blocks the calling thread until the chain is exhausted
    /// or `stop` is raised; the server (whose [`Publisher`] is passed in,
    /// and which must have been started on [`bootstrap`]'s bundle) keeps
    /// answering throughout.
    ///
    /// [`bootstrap`]: LivePipeline::bootstrap
    pub fn run(
        mut self,
        publisher: &Publisher,
        stop: &AtomicBool,
    ) -> Result<LiveReport, ServeError> {
        if self.current.is_none() {
            self.bootstrap()?;
        }
        // A resumed pipeline starts above the server's epoch-0 initial
        // publication: stamp the resumed epoch before serving continues.
        // The artifacts are the ones the server was started on, so the
        // snapshot floor may stay.
        if self.epoch > publisher.current_epoch() {
            let current = Arc::clone(self.current.as_ref().expect("bootstrapped"));
            publisher.publish(current, self.epoch, true);
            self.publishes += 1;
        }
        let chain = Arc::clone(&self.chain);
        let mut flushed = false;
        while self.blocks_fed < chain.block_count() {
            if stop.load(Ordering::Relaxed) {
                break;
            }
            let next = self.blocks_fed;
            self.pipe.ingest_block(&chain.block(next as BlockId));
            self.blocks_fed += 1;
            publisher.core.metrics.ingest_blocks.inc();
            if self.pipe.reconciled_txs() as usize != self.last_cut {
                self.publish_epoch(publisher, false)?;
            }
            if !self.config.block_delay.is_zero() {
                thread::sleep(self.config.block_delay);
            }
        }
        if !stop.load(Ordering::Relaxed) {
            self.pipe.flush(&chain);
            // Always publish after the flush even when the reconciled cut
            // did not move: resolving pending wait-to-label decisions can
            // relabel already-reconciled transactions, which must raise
            // the cache's graph floor.
            self.publish_epoch(publisher, true)?;
            flushed = true;
        }
        Ok(LiveReport {
            final_epoch: self.epoch,
            publishes: self.publishes,
            blocks_ingested: self.blocks_fed as u64,
            flushed,
        })
    }

    /// [`run`](LivePipeline::run) on a named background thread. The
    /// returned handle observes published epochs, can stop the stream,
    /// and joins for the report; dropping it stops and joins implicitly.
    pub fn spawn(self, publisher: Publisher) -> LiveHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let thread_publisher = publisher.clone();
        let thread = thread::Builder::new()
            .name("live-ingest".into())
            .spawn(move || self.run(&thread_publisher, &thread_stop))
            .expect("spawn live ingest thread");
        LiveHandle { stop, publisher, thread: Some(thread) }
    }
}

/// Handle to a background live ingest thread (see
/// [`LivePipeline::spawn`]).
pub struct LiveHandle {
    stop: Arc<AtomicBool>,
    publisher: Publisher,
    thread: Option<thread::JoinHandle<Result<LiveReport, ServeError>>>,
}

impl LiveHandle {
    /// The epoch of the most recent publish (the value `Stats` responses
    /// report once workers pick the generation up), read lock-free from
    /// the server's `live_epoch` gauge that [`Publisher::publish`] sets.
    pub fn published_epoch(&self) -> u64 {
        self.publisher.core.metrics.live_epoch.get()
    }

    /// Whether the ingest thread has finished (chain exhausted, stopped,
    /// or failed).
    pub fn is_finished(&self) -> bool {
        match &self.thread {
            Some(thread) => thread.is_finished(),
            None => true,
        }
    }

    /// Asks the ingest thread to stop after the block it is on. Safe to
    /// call any number of times; [`join`](LiveHandle::join) collects the
    /// report.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Waits for the ingest thread and returns its report.
    pub fn join(mut self) -> Result<LiveReport, ServeError> {
        let thread = self.thread.take().expect("live handle already joined");
        thread.join().map_err(|_| ServeError::Io("live ingest thread panicked".into()))?
    }
}

impl Drop for LiveHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ServeConfig, Server};
    use fistful_core::cluster::Clusterer;
    use fistful_core::naming::name_clusters;
    use fistful_core::snapshot::ClusterSnapshot;
    use fistful_core::testutil::TestChain;
    use fistful_flow::balance_series_at;
    use std::path::Path;

    /// A small multi-block economy: six coinbases, then a run of spends
    /// with co-spending (H1) and fresh change outputs (H2). One block per
    /// transaction, 12 blocks total.
    fn economy() -> TestChain {
        let mut t = TestChain::new();
        let cbs: Vec<usize> = (1..=6).map(|u| t.coinbase(u, 50)).collect();
        let a = t.tx(&[(cbs[0], 0), (cbs[1], 0)], &[(7, 60), (8, 40)]);
        let b = t.tx(&[(cbs[2], 0)], &[(9, 30), (10, 20)]);
        let c = t.tx(&[(a, 0), (b, 0)], &[(11, 70), (12, 20)]);
        t.tx(&[(cbs[3], 0), (cbs[4], 0)], &[(9, 90), (13, 10)]);
        t.tx(&[(c, 0)], &[(14, 35), (15, 35)]);
        t.tx(&[(cbs[5], 0)], &[(1, 25), (16, 25)]);
        t
    }

    fn config(store_dir: Option<&Path>) -> LiveConfig {
        LiveConfig {
            shards: 2,
            epoch_blocks: 3,
            start_blocks: 4,
            balance_every: 1,
            change: ChangeConfig::naive(),
            store_dir: store_dir.map(Path::to_path_buf),
            block_delay: Duration::ZERO,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fistful-live-{}-{}", tag, std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).unwrap();
        }
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The batch artifacts the pipeline must converge to.
    fn batch_snapshot(t: &TestChain) -> ClusterSnapshot {
        let clustering = Clusterer::with_h2(ChangeConfig::naive()).run(&t.chain);
        let names = name_clusters(&clustering, &TagDb::new());
        ClusterSnapshot::build(&t.chain, &clustering, &names)
    }

    #[test]
    fn bootstrap_exports_a_consistent_warm_up_prefix() {
        let t = economy();
        let mut live = LivePipeline::new(Arc::new(t.chain), TagDb::new(), config(None));
        let artifacts = live.bootstrap().unwrap();
        assert_eq!(live.epoch(), 0);
        assert_eq!(live.blocks_fed(), 4);
        // 4 blocks with a 3-block epoch: one reconcile, one buffered
        // block — the bundle covers exactly the reconciled 3-tx prefix.
        assert_eq!(artifacts.graph.tx_count(), 3);
        assert_eq!(artifacts.labels.vout_of.len(), 3);
    }

    #[test]
    fn run_converges_to_the_batch_clustering() {
        let t = economy();
        let expected = batch_snapshot(&t);
        let chain = Arc::new(t.chain);
        let mut live = LivePipeline::new(Arc::clone(&chain), TagDb::new(), config(None));
        let artifacts = live.bootstrap().unwrap();
        let server = Server::start(
            ServeConfig { workers: 1, cache_entries: 64, ..ServeConfig::default() },
            artifacts,
        )
        .unwrap();
        let publisher = server.publisher();
        let report = live.run(&publisher, &AtomicBool::new(false)).unwrap();
        assert!(report.flushed);
        assert!(report.publishes >= 2, "12 blocks / 3-block epochs must publish repeatedly");
        assert_eq!(publisher.current_epoch(), report.final_epoch);
        assert_eq!(report.blocks_ingested, chain.block_count() as u64);

        let stats = server.stats();
        assert_eq!(stats.epoch, report.final_epoch);
        assert_eq!(stats.tx_count, chain.tx_count() as u64);
        assert_eq!(stats.address_count, expected.address_count() as u64);
        assert_eq!(stats.cluster_count, expected.cluster_count() as u64);
        server.shutdown();
    }

    #[test]
    fn resume_restores_the_recorded_epoch_and_serves_identical_state() {
        let t = economy();
        let expected = batch_snapshot(&t);
        let chain = Arc::new(t.chain);
        let dir = temp_dir("resume");

        let mut live = LivePipeline::new(Arc::clone(&chain), TagDb::new(), config(Some(&dir)));
        let artifacts = live.bootstrap().unwrap();
        let server = Server::start(
            ServeConfig { workers: 1, cache_entries: 0, ..ServeConfig::default() },
            artifacts,
        )
        .unwrap();
        let report = live.run(&server.publisher(), &AtomicBool::new(false)).unwrap();
        server.shutdown();
        assert!(report.flushed);

        let meta = read_live_meta(&dir).unwrap().expect("live save carries meta");
        assert_eq!(meta.epoch, report.final_epoch);
        assert_eq!(meta.block_count, chain.block_count() as u64);
        assert!(meta.flushed);

        // A fresh pipeline over the same directory resumes instead of
        // rebuilding, at the recorded epoch, with the folded disk state
        // equal to the batch artifacts.
        let mut resumed = LivePipeline::new(Arc::clone(&chain), TagDb::new(), config(Some(&dir)));
        let restored = resumed.bootstrap().unwrap();
        assert_eq!(resumed.epoch(), report.final_epoch);
        assert_eq!(resumed.blocks_fed(), chain.block_count());
        assert_eq!(restored.snapshot, expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_falls_back_to_fresh_when_the_save_is_for_another_chain() {
        let t = economy();
        let chain = Arc::new(t.chain);
        let dir = temp_dir("mismatch");

        let mut live = LivePipeline::new(Arc::clone(&chain), TagDb::new(), config(Some(&dir)));
        let artifacts = live.bootstrap().unwrap();
        let server = Server::start(
            ServeConfig { workers: 1, cache_entries: 0, ..ServeConfig::default() },
            artifacts,
        )
        .unwrap();
        live.run(&server.publisher(), &AtomicBool::new(false)).unwrap();
        server.shutdown();

        // A different (smaller) chain cannot satisfy the recorded
        // watermark: bootstrap must rebuild from scratch at epoch 0.
        let mut other = TestChain::new();
        other.coinbase(1, 50);
        other.coinbase(2, 50);
        let mut fresh =
            LivePipeline::new(Arc::new(other.chain), TagDb::new(), config(Some(&dir)));
        let rebuilt = fresh.bootstrap().unwrap();
        assert_eq!(fresh.epoch(), 0);
        assert_eq!(fresh.blocks_fed(), 2);
        assert_eq!(rebuilt.graph.tx_count(), 0, "2 blocks never reach a 3-block epoch");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_falls_back_to_fresh_when_the_balance_interval_differs() {
        let t = economy();
        let chain = Arc::new(t.chain);
        let dir = temp_dir("interval");

        let mut live = LivePipeline::new(Arc::clone(&chain), TagDb::new(), config(Some(&dir)));
        let artifacts = live.bootstrap().unwrap();
        let server = Server::start(
            ServeConfig { workers: 1, cache_entries: 0, ..ServeConfig::default() },
            artifacts,
        )
        .unwrap();
        let report = live.run(&server.publisher(), &AtomicBool::new(false)).unwrap();
        server.shutdown();
        assert!(report.flushed);

        // The save holds per-block samples; a pipeline sampling every 2
        // blocks must not serve them, so it builds fresh at epoch 0.
        let mut every_two = config(Some(&dir));
        every_two.balance_every = 2;
        let mut fresh = LivePipeline::new(Arc::clone(&chain), TagDb::new(), every_two);
        let rebuilt = fresh.bootstrap().unwrap();
        assert_eq!(fresh.epoch(), 0);
        assert_eq!(fresh.blocks_fed(), 4);
        let cut = rebuilt.graph.tx_count();
        assert_eq!(rebuilt.balances, balance_series_at(&chain, cut, &rebuilt.snapshot, 2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spawned_pipeline_swaps_under_a_running_server_and_stops_on_demand() {
        let t = economy();
        let chain = Arc::new(t.chain);
        let mut live = LivePipeline::new(Arc::clone(&chain), TagDb::new(), config(None));
        let artifacts = live.bootstrap().unwrap();
        let server = Server::start(
            ServeConfig { workers: 2, cache_entries: 64, ..ServeConfig::default() },
            artifacts,
        )
        .unwrap();
        let handle = live.spawn(server.publisher());
        let report = handle.join().unwrap();
        assert!(report.flushed);
        assert_eq!(server.stats().epoch, report.final_epoch);
        assert_eq!(server.stats().swaps, report.publishes);
        server.shutdown();
    }
}
