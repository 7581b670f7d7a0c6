//! The sharded multicore ingest pipeline: the online clustering engine.
//!
//! Blocks arrive one at a time and are buffered; every `epoch_blocks`
//! blocks the span is linked into one [`UnionFind`], whose representatives
//! are cluster minima, and becomes visible to queries:
//!
//! * **Heuristic 1.** The calling thread links each transaction's inputs,
//!   in chain order, through the batch pass's own [`heuristic1::link_tx`].
//! * **Heuristic 2 decisions.** [`change::decide`] reads each
//!   transaction's "previous transactions" from the chain's per-address
//!   history, so transactions decide independently. The span splits into
//!   `shards` contiguous chunks of transactions: `shards - 1` scoped
//!   threads and the calling thread each fill their chunk of one reused
//!   buffer, allocating nothing. One shard, or an H1-only ingest, starts
//!   no thread.
//! * **Heuristic 2 links.** The calling thread then walks the decisions in
//!   chain order. Labels link at once through the batch pass's
//!   `cluster::link_change`, or park in the wait-to-label pending queue
//!   and link through it once their window has fully elapsed.
//!
//! **Equivalence guarantee.** Feeding every block of a chain through
//! [`ShardedIngest::ingest_block`] and then calling
//! [`flush`](ShardedIngest::flush) yields assignments, sizes and change
//! labels identical to batch `Clusterer::run` over the same chain with the
//! same configuration, for every shard count and epoch length — asserted by
//! the differential suites in `tests/incremental.rs` and
//! `tests/properties.rs`. Between epochs, queries reflect the last
//! reconciled epoch boundary (buffered blocks are not yet visible); with
//! `epoch_blocks: 1` that is the last ingested block.
//!
//! ```
//! use fistful_core::change::ChangeConfig;
//! use fistful_core::cluster::Clusterer;
//! use fistful_core::incremental::sharded::{IngestConfig, ShardedIngest};
//! use fistful_core::testutil::TestChain;
//!
//! let mut t = TestChain::new();
//! let cb1 = t.coinbase(1, 50);
//! let cb2 = t.coinbase(2, 50);
//! let _cb3 = t.coinbase(3, 50);
//! // Co-spend links 1+2; the fresh output 4 is the change address.
//! t.tx(&[(cb1, 0), (cb2, 0)], &[(3, 70), (4, 30)]);
//!
//! let mut ingest = ShardedIngest::new(IngestConfig::with_h2(4, 2, ChangeConfig::naive()));
//! for block in t.chain.blocks() {
//!     ingest.ingest_block(&block);
//! }
//! ingest.flush(&t.chain);
//! assert!(ingest.same_cluster(t.id(1), t.id(4)));
//!
//! // The final state is identical to a one-shot batch run.
//! let batch = Clusterer::with_h2(ChangeConfig::naive()).run(&t.chain);
//! assert_eq!(ingest.snapshot().assignment, batch.assignment);
//! ```

use crate::change::{self, receives_again_within, ChangeConfig, ChangeLabels, SkipReason};
use crate::cluster::{link_change, Clustering};
use crate::heuristic1::{self, H1Stats};
use crate::snapshot::{AddressTotals, ClusterSnapshot, SnapshotDelta};
use crate::union_find::UnionFind;
use fistful_chain::resolve::{AddressId, BlockId, ResolvedBlockView, ResolvedChain, TxId};
use std::collections::VecDeque;

/// Configuration of the sharded ingest pipeline.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Number of threads deciding Heuristic 2 (the calling thread
    /// included): each epoch's transactions split into this many
    /// contiguous chunks. Must be `>= 1`; unused without Heuristic 2.
    pub shards: usize,
    /// Blocks per epoch: how many ingested blocks are buffered before the
    /// epoch pass links them. Must be `>= 1`.
    pub epoch_blocks: usize,
    /// Heuristic 2 configuration; `None` runs Heuristic 1 only.
    pub h2: Option<ChangeConfig>,
}

impl IngestConfig {
    /// Heuristic 1 only: nothing is decided in parallel, so one shard.
    pub fn h1_only(epoch_blocks: usize) -> IngestConfig {
        IngestConfig { shards: 1, epoch_blocks, h2: None }
    }

    /// Heuristic 1 plus Heuristic 2 with the given configuration.
    pub fn with_h2(shards: usize, epoch_blocks: usize, config: ChangeConfig) -> IngestConfig {
        IngestConfig { shards, epoch_blocks, h2: Some(config) }
    }
}

/// A provisional change label waiting for its wait-window to elapse.
#[derive(Debug, Clone, Copy)]
struct PendingDecision {
    /// The labelling transaction.
    tx: TxId,
    /// The candidate change output.
    vout: u32,
    /// The candidate change address.
    addr: AddressId,
    /// Height of the labelling transaction's block.
    height: u64,
}

/// Online H1(+H2) clustering over a block-by-block feed, reconciled at
/// epoch boundaries, with the Heuristic 2 decisions split across threads.
///
/// Blocks must be ingested contiguously in chain order from block 0 (the
/// engine asserts it). All blocks must come from the same
/// [`ResolvedChain`], which may keep growing between calls — the engine
/// itself stores no chain reference.
#[derive(Debug)]
pub struct ShardedIngest {
    config: IngestConfig,
    uf: UnionFind,
    /// The epoch's Heuristic 2 decisions, one per transaction, kept between
    /// epochs so the deciding threads write into capacity already there.
    decisions: Vec<Result<(u32, AddressId), SkipReason>>,
    h1_stats: H1Stats,
    labels: ChangeLabels,
    pending: VecDeque<PendingDecision>,
    /// The next expected transaction id (contiguity check).
    next_tx: TxId,
    /// First block of the epoch currently being buffered.
    epoch_start_block: BlockId,
    blocks_ingested: usize,
    epochs_completed: usize,
    /// Transactions covered by the last reconcile — the prefix a
    /// mid-ingest snapshot export may aggregate over (buffered blocks are
    /// not yet visible to queries).
    reconciled_txs: TxId,
    /// Received and spent satoshis per address over exactly the reconciled
    /// prefix, which the export folds through the partition.
    totals: AddressTotals,
}

impl ShardedIngest {
    /// Creates the pipeline. Panics if `config.shards` or
    /// `config.epoch_blocks` is zero.
    pub fn new(config: IngestConfig) -> ShardedIngest {
        assert!(config.shards >= 1, "at least one shard is required");
        assert!(config.epoch_blocks >= 1, "epochs must span at least one block");
        ShardedIngest {
            uf: UnionFind::default(),
            decisions: Vec::new(),
            config,
            h1_stats: H1Stats::default(),
            labels: ChangeLabels::default(),
            pending: VecDeque::new(),
            next_tx: 0,
            epoch_start_block: 0,
            blocks_ingested: 0,
            epochs_completed: 0,
            reconciled_txs: 0,
            totals: AddressTotals::new(),
        }
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &IngestConfig {
        &self.config
    }

    /// Ingests the next block. The block is buffered; once
    /// `epoch_blocks` blocks have accumulated, the epoch pass runs
    /// and the buffered blocks become visible to queries.
    /// Panics if the block does not start at the next expected transaction
    /// (blocks must be replayed contiguously, in order, from block 0).
    pub fn ingest_block(&mut self, block: &ResolvedBlockView<'_>) {
        assert_eq!(
            block.tx_start(),
            self.next_tx,
            "blocks must be ingested contiguously in chain order"
        );
        self.next_tx = block.tx_end();
        self.blocks_ingested += 1;
        if self.blocks_ingested - self.epoch_start_block as usize >= self.config.epoch_blocks {
            self.process_epoch(block.chain());
        }
    }

    /// Processes any partial final epoch, then finalizes every still-pending
    /// wait-to-label decision against the history currently in `chain`,
    /// exactly as the batch pass would at the chain tip. Treat this as
    /// terminal: it accepts labels whose wait window extends past the tip,
    /// so ingesting further blocks afterwards can diverge from what a batch
    /// run over the longer chain would say.
    pub fn flush(&mut self, chain: &ResolvedChain) {
        if (self.epoch_start_block as usize) < self.blocks_ingested {
            self.process_epoch(chain);
        }
        self.resolve_pending(chain, None);
    }

    /// The epoch pass: link the buffered span's Heuristic 1 edges, decide
    /// its Heuristic 2 labels on `shards` threads, then link or park them
    /// in chain order.
    fn process_epoch(&mut self, chain: &ResolvedChain) {
        let span = chain.block_span(self.epoch_start_block..self.blocks_ingested as BlockId);
        self.epoch_start_block = self.blocks_ingested as BlockId;

        // Every input spends an earlier transaction's output, so growing
        // over the outputs in chain order covers every address.
        for (_, tx) in span.txs() {
            if let Some(max) = tx.outputs.iter().map(|o| o.address).max() {
                self.uf.grow(max as usize + 1);
            }
            heuristic1::link_tx(tx, &mut self.uf, &mut self.h1_stats);
        }

        if let Some(config) = self.config.h2.as_ref() {
            // Decide: one contiguous chunk per shard, the first on this
            // thread.
            let decide_chunk = |start: usize, out: &mut [Result<(u32, AddressId), SkipReason>]| {
                for (i, slot) in out.iter_mut().enumerate() {
                    let t = span.tx_start() + (start + i) as TxId;
                    *slot = change::decide(chain, t, &chain.txs[t as usize], config);
                }
            };
            self.decisions.clear();
            self.decisions.resize(span.tx_count(), Err(SkipReason::NoCandidate));
            let chunk = span.tx_count().div_ceil(self.config.shards).max(1);
            std::thread::scope(|s| {
                let mut chunks = self.decisions.chunks_mut(chunk).enumerate();
                let first = chunks.next();
                for (i, out) in chunks {
                    s.spawn(move || decide_chunk(i * chunk, out));
                }
                if let Some((_, out)) = first {
                    decide_chunk(0, out);
                }
            });

            for ((t, tx), &decision) in span.txs().zip(&self.decisions) {
                self.labels.vout_of.push(None);
                match decision {
                    Ok((vout, addr)) => match config.wait_blocks {
                        // Wait-to-label needs future blocks: park the
                        // decision until the window has fully elapsed.
                        Some(_) => self.pending.push_back(PendingDecision {
                            tx: t,
                            vout,
                            addr,
                            height: tx.height,
                        }),
                        None => {
                            self.labels.vout_of[t as usize] = Some(vout);
                            self.labels.labels += 1;
                            link_change(&mut self.uf, chain, t, addr);
                        }
                    },
                    Err(reason) => self.labels.note_skip(reason),
                }
            }
        }

        self.epochs_completed += 1;
        // The whole buffered span just reconciled, so the watermark is the
        // end of the last ingested block.
        self.reconciled_txs = self.next_tx;
        self.totals.extend_to(chain, self.reconciled_txs as usize);
        if let Some(tip) = span.last_height() {
            self.resolve_pending(chain, Some(tip));
        }
    }

    /// Resolves pending decisions whose wait-window is fully visible: with
    /// the tip at height `H`, every block at height `<= H` has been
    /// reconciled, so a decision from height `h` is decidable once
    /// `h + wait_blocks <= H`. `tip = None` finalizes everything.
    fn resolve_pending(&mut self, chain: &ResolvedChain, tip: Option<u64>) {
        let Some(config) = self.config.h2.as_ref() else { return };
        let Some(window) = config.wait_blocks else { return };
        while let Some(&p) = self.pending.front() {
            if let Some(h) = tip {
                if p.height.saturating_add(window) > h {
                    break; // the queue is height-sorted: nothing further is ready
                }
            }
            self.pending.pop_front();
            if receives_again_within(chain, p.addr, p.tx, window, config) {
                self.labels.note_skip(SkipReason::FailedWait);
            } else {
                self.labels.vout_of[p.tx as usize] = Some(p.vout);
                self.labels.labels += 1;
                link_change(&mut self.uf, chain, p.tx, p.addr);
            }
        }
    }

    // ----- queries (valid between blocks, current to the last reconcile) -----

    /// Number of addresses in the reconciled state.
    pub fn address_count(&self) -> usize {
        self.uf.len()
    }

    /// Number of transactions ingested so far (including buffered ones).
    pub fn tx_count(&self) -> usize {
        self.next_tx as usize
    }

    /// Number of blocks ingested so far (including buffered ones).
    pub fn block_count(&self) -> usize {
        self.blocks_ingested
    }

    /// Blocks buffered for the epoch in progress (not yet reconciled).
    pub fn buffered_blocks(&self) -> usize {
        self.blocks_ingested - self.epoch_start_block as usize
    }

    /// Number of epoch passes completed.
    pub fn epochs_completed(&self) -> usize {
        self.epochs_completed
    }

    /// Number of clusters in the reconciled state.
    pub fn cluster_count(&self) -> usize {
        self.uf.component_count()
    }

    /// The representative of `addr`'s cluster: always the cluster's minimum
    /// address id (the forest merges lowest root wins), so representatives
    /// agree across runs with different shard counts and epoch lengths.
    pub fn cluster_of(&self, addr: AddressId) -> u32 {
        self.uf.find_immutable(addr)
    }

    /// True if `a` and `b` are in the same reconciled cluster.
    pub fn same_cluster(&self, a: AddressId, b: AddressId) -> bool {
        self.uf.find_immutable(a) == self.uf.find_immutable(b)
    }

    /// Heuristic 1 statistics over the reconciled prefix. Identical to the
    /// batch numbers in H1-only mode; with Heuristic 2 enabled, `merges`
    /// can differ from a batch run (change links interleave with later
    /// epochs' multi-input links) even though the final partition is
    /// identical.
    pub fn h1_stats(&self) -> H1Stats {
        self.h1_stats
    }

    /// Change labels decided so far (absent in H1-only mode). Labels still
    /// in the pending queue are not yet visible here.
    pub fn change_labels(&self) -> Option<&ChangeLabels> {
        self.config.h2.as_ref().map(|_| &self.labels)
    }

    /// Number of wait-to-label decisions still parked.
    pub fn pending_decisions(&self) -> usize {
        self.pending.len()
    }

    /// A dense snapshot of the reconciled state, in the same form the batch
    /// `Clusterer` produces. Call [`flush`](Self::flush) first if buffered
    /// blocks should be included.
    pub fn snapshot(&mut self) -> Clustering {
        let (assignment, sizes) = self.uf.assignments();
        Clustering {
            assignment,
            sizes,
            h1_stats: self.h1_stats,
            change_labels: self.config.h2.as_ref().map(|_| self.labels.clone()),
        }
    }

    /// Transactions covered by the last reconcile: the aggregation prefix
    /// for [`export_snapshot`](Self::export_snapshot). Equals
    /// [`tx_count`](Self::tx_count) at every epoch boundary and after
    /// [`flush`](Self::flush); lags it while blocks are buffered.
    pub fn reconciled_txs(&self) -> TxId {
        self.reconciled_txs
    }

    /// Exports the reconciled state as a frozen [`ClusterSnapshot`]: the
    /// canonical clustering, tag-vote naming against `db`, and chain
    /// aggregates over exactly the reconciled transaction prefix.
    ///
    /// It walks no transaction: the partition comes from the union-find,
    /// and the aggregates fold the per-address received/spent totals the
    /// epoch pass keeps current, so it costs O(addresses + clusters +
    /// tags).
    ///
    /// Call at an epoch boundary or after [`flush`](Self::flush);
    /// buffered blocks are not included (they are not reconciled yet).
    /// After `flush`, the result is identical to
    /// [`ClusterSnapshot::build`] over a batch clustering with the same
    /// configuration — the pipeline's equivalence guarantee extended to
    /// the persisted artifact.
    pub fn export_snapshot(
        &mut self,
        chain: &ResolvedChain,
        db: &crate::tagdb::TagDb,
    ) -> ClusterSnapshot {
        let (assignment, sizes) = self.uf.assignments();
        let partition =
            Clustering { assignment, sizes, h1_stats: self.h1_stats, change_labels: None };
        let names = crate::naming::name_clusters(&partition, db);
        ClusterSnapshot::fold(chain, &self.totals, partition.assignment, &partition.sizes, &names)
    }

    /// Exports the reconciled state as a delta against `base` (an earlier
    /// export of this same run): the successor snapshot plus the
    /// [`SnapshotDelta`] that turns `base` into it, for a store that
    /// persists it; `ClusterSnapshot::from_base_and_deltas` folds the
    /// files back, byte-identical to a full export. Canonical ids renumber
    /// on merges, so the delta is usually O(chain), not O(new blocks)
    /// (see [`SnapshotDelta`]). Without a store, call
    /// [`export_snapshot`](Self::export_snapshot) and ask
    /// [`ClusterSnapshot::keeps_ids_of`] instead.
    pub fn export_delta(
        &mut self,
        chain: &ResolvedChain,
        db: &crate::tagdb::TagDb,
        base: &ClusterSnapshot,
    ) -> (ClusterSnapshot, SnapshotDelta) {
        let new = self.export_snapshot(chain, db);
        let delta = SnapshotDelta::between(base, &new);
        (new, delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::change::BLOCKS_PER_DAY;
    use crate::cluster::Clusterer;
    use crate::testutil::TestChain;

    /// Replays `chain` through the sharded pipeline, flushing at the end.
    fn replay(chain: &ResolvedChain, config: IngestConfig) -> (Clustering, ShardedIngest) {
        let mut ingest = ShardedIngest::new(config);
        for block in chain.blocks() {
            ingest.ingest_block(&block);
        }
        ingest.flush(chain);
        let snap = ingest.snapshot();
        (snap, ingest)
    }

    fn assert_equivalent(a: &Clustering, b: &Clustering) {
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.sizes, b.sizes);
        match (&a.change_labels, &b.change_labels) {
            (Some(la), Some(lb)) => {
                assert_eq!(la.vout_of, lb.vout_of);
                assert_eq!(la.labels, lb.labels);
                assert_eq!(la.skip_counts, lb.skip_counts);
            }
            (None, None) => {}
            _ => panic!("one side ran H2, the other did not"),
        }
    }

    /// A small economy: co-spends, canonical change, a wait-window reuse,
    /// spread over enough blocks that multi-block epochs see traffic.
    fn scenario() -> TestChain {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let cb2 = t.coinbase(2, 50);
        let cb3 = t.coinbase(3, 50);
        let _cb7 = t.coinbase(7, 50);
        let tx1 = t.tx(&[(cb1, 0), (cb2, 0)], &[(3, 70), (4, 30)]);
        let tx2 = t.tx(&[(cb3, 0)], &[(7, 30), (5, 20)]);
        let _re = t.tx(&[(tx1, 1)], &[(5, 10), (7, 19)]);
        let _spend5 = t.tx(&[(tx2, 1)], &[(7, 19)]);
        t
    }

    #[test]
    fn matches_batch_across_shard_counts_and_epochs() {
        let t = scenario();
        let h1 = Clusterer::h1_only().run(&t.chain);
        let naive = Clusterer::with_h2(ChangeConfig::naive()).run(&t.chain);
        let mut waitcfg = ChangeConfig::naive();
        waitcfg.wait_blocks = Some(BLOCKS_PER_DAY);
        waitcfg.skip_reused_change = true;
        waitcfg.skip_prior_self_change = true;
        let waited = Clusterer::with_h2(waitcfg.clone()).run(&t.chain);

        // An H1-only ingest has no shards to vary.
        for epoch in [1, 3, 100] {
            let (s, ingest) = replay(&t.chain, IngestConfig::h1_only(epoch));
            assert_equivalent(&s, &h1);
            // H1-only mode: the statistics coincide exactly.
            assert_eq!(s.h1_stats, h1.h1_stats, "epoch {epoch}");
            assert_eq!(ingest.address_count(), t.chain.address_count());
            assert_eq!(ingest.tx_count(), t.chain.tx_count());
            assert_eq!(ingest.block_count(), t.chain.block_count());
        }
        for shards in [1, 2, 4, 8] {
            for epoch in [1, 3, 100] {
                let (s, _) =
                    replay(&t.chain, IngestConfig::with_h2(shards, epoch, ChangeConfig::naive()));
                assert_equivalent(&s, &naive);

                let (s, ingest) =
                    replay(&t.chain, IngestConfig::with_h2(shards, epoch, waitcfg.clone()));
                assert_equivalent(&s, &waited);
                assert_eq!(ingest.pending_decisions(), 0, "flush resolves everything");
            }
        }
    }

    #[test]
    fn pending_queue_holds_tip_decisions_until_window_elapses() {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let _cb2 = t.coinbase(2, 50);
        // Height 2: change to fresh 4 — decidable only at height 2 + 3.
        let _tx = t.tx(&[(cb1, 0)], &[(2, 30), (4, 20)]);
        let mut cfg = ChangeConfig::naive();
        cfg.wait_blocks = Some(3);
        let mut ingest = ShardedIngest::new(IngestConfig::with_h2(1, 1, cfg));
        for block in t.chain.blocks() {
            ingest.ingest_block(&block);
        }
        // The window (heights 2..=5) is not fully visible at tip height 2.
        assert_eq!(ingest.pending_decisions(), 1);
        assert_eq!(ingest.change_labels().unwrap().labels, 0);
        assert!(!ingest.same_cluster(t.id(1), t.id(4)));

        // Grow the chain past the window; the decision finalizes on ingest.
        let _cb3 = t.coinbase(3, 50); // height 3
        let _cb5 = t.coinbase(5, 50); // height 4
        let _cb6 = t.coinbase(6, 50); // height 5
        for block in t.chain.blocks().skip(ingest.block_count()) {
            ingest.ingest_block(&block);
        }
        assert_eq!(ingest.pending_decisions(), 0);
        assert_eq!(ingest.change_labels().unwrap().labels, 1);
        assert!(ingest.same_cluster(t.id(1), t.id(4)));
    }

    #[test]
    fn cluster_representatives_are_shard_count_independent() {
        let t = scenario();
        let reps: Vec<Vec<u32>> = [1usize, 2, 4, 8]
            .into_iter()
            .map(|shards| {
                let (_, ingest) =
                    replay(&t.chain, IngestConfig::with_h2(shards, 2, ChangeConfig::naive()));
                (0..t.chain.address_count() as u32).map(|a| ingest.cluster_of(a)).collect()
            })
            .collect();
        for r in &reps[1..] {
            assert_eq!(r, &reps[0]);
        }
        // And each representative is its cluster's minimum address id.
        for (a, &rep) in reps[0].iter().enumerate() {
            assert!(rep as usize <= a);
        }
    }

    #[test]
    fn queries_reflect_epoch_boundaries() {
        let t = scenario();
        let mut ingest = ShardedIngest::new(IngestConfig::h1_only(3));
        let blocks: Vec<_> = t.chain.blocks().collect();
        ingest.ingest_block(&blocks[0]);
        ingest.ingest_block(&blocks[1]);
        // Two blocks buffered, no epoch yet: nothing reconciled.
        assert_eq!(ingest.buffered_blocks(), 2);
        assert_eq!(ingest.epochs_completed(), 0);
        assert_eq!(ingest.address_count(), 0);
        assert_eq!(ingest.block_count(), 2);
        ingest.ingest_block(&blocks[2]);
        // Third block completes the epoch: state catches up.
        assert_eq!(ingest.buffered_blocks(), 0);
        assert_eq!(ingest.epochs_completed(), 1);
        assert!(ingest.address_count() > 0);
        for block in &blocks[3..] {
            ingest.ingest_block(block);
        }
        // The tail is shorter than an epoch until flush picks it up.
        assert!(ingest.buffered_blocks() > 0);
        ingest.flush(&t.chain);
        assert_eq!(ingest.buffered_blocks(), 0);
        assert_eq!(ingest.address_count(), t.chain.address_count());
    }

    #[test]
    fn exported_snapshots_track_epoch_boundaries() {
        use crate::naming::name_clusters;
        use crate::tagdb::TagDb;

        let t = scenario();
        let db = TagDb::new();
        let blocks: Vec<_> = t.chain.blocks().collect();
        let mut ingest = ShardedIngest::new(IngestConfig::h1_only(3));

        // First epoch boundary: the export covers exactly the reconciled
        // prefix, no more.
        for block in &blocks[..3] {
            ingest.ingest_block(block);
        }
        assert_eq!(ingest.reconciled_txs(), ingest.tx_count() as TxId);
        let base = ingest.export_snapshot(&t.chain, &db);
        assert_eq!(base.tx_count(), ingest.reconciled_txs() as u64);
        assert!(base.tx_count() < t.chain.tx_count() as u64);

        // Rest of the chain, then flush: the delta folds the base forward
        // to a snapshot byte-identical to a from-scratch batch build.
        for block in &blocks[3..] {
            ingest.ingest_block(block);
        }
        ingest.flush(&t.chain);
        let (new, delta) = ingest.export_delta(&t.chain, &db, &base);
        assert_eq!(base.apply_delta(&delta).unwrap().to_bytes(), new.to_bytes());

        let batch = Clusterer::h1_only().run(&t.chain);
        let names = name_clusters(&batch, &db);
        let full = crate::snapshot::ClusterSnapshot::build(&t.chain, &batch, &names);
        assert_eq!(new.to_bytes(), full.to_bytes());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn rejects_zero_shards() {
        let _ = ShardedIngest::new(IngestConfig::with_h2(0, 4, ChangeConfig::naive()));
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn rejects_zero_epoch() {
        let _ = ShardedIngest::new(IngestConfig::h1_only(0));
    }

    #[test]
    #[should_panic(expected = "contiguously")]
    fn rejects_out_of_order_blocks() {
        let t = scenario();
        let mut ingest = ShardedIngest::new(IngestConfig::h1_only(1));
        ingest.ingest_block(&t.chain.block(1));
    }
}
