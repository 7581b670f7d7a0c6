//! End-to-end equivalence: the sharded ingest pipeline, fed a simulated
//! economy block by block, must land on exactly the partition (and
//! Heuristic 2 label set) the batch `Clusterer` derives in one pass, for
//! every shard count and epoch length. `IngestConfig { shards: 1,
//! epoch_blocks: 1 }` runs it one block at a time on one thread, so the
//! wait-to-label queue is resolved after every block.

use fistful::core::change::{ChangeConfig, BLOCKS_PER_DAY, BLOCKS_PER_WEEK};
use fistful::core::cluster::{Clusterer, Clustering};
use fistful::core::incremental::sharded::{IngestConfig, ShardedIngest};
use fistful::core::naming::name_clusters;
use fistful::sim::{Economy, SimConfig};
use fistful_bench::{build_tagdb, dice_addresses};
use std::sync::OnceLock;

/// One default-scale economy shared by the equivalence tests.
fn economy() -> &'static Economy {
    static ECO: OnceLock<Economy> = OnceLock::new();
    ECO.get_or_init(|| Economy::run(SimConfig::default()))
}

/// Full equivalence: same dense assignment (both sides label clusters by
/// first appearance, so equal partitions give equal vectors), same sizes,
/// same labels, same skip accounting.
fn assert_equivalent(got: &Clustering, batch: &Clustering) {
    assert_eq!(got.assignment, batch.assignment);
    assert_eq!(got.sizes, batch.sizes);
    assert_eq!(got.cluster_count(), batch.cluster_count());
    assert_eq!(got.size_histogram(), batch.size_histogram());
    match (&got.change_labels, &batch.change_labels) {
        (Some(a), Some(b)) => {
            assert_eq!(a.vout_of, b.vout_of);
            assert_eq!(a.labels, b.labels);
            assert_eq!(a.skip_counts, b.skip_counts);
        }
        (None, None) => {}
        _ => panic!("H2 ran on one side only"),
    }
}

/// Replays the whole chain through the sharded pipeline and snapshots.
/// Also returns the largest number of wait-to-label decisions parked
/// between blocks.
fn replay_sharded(
    chain: &fistful::chain::resolve::ResolvedChain,
    config: IngestConfig,
) -> (Clustering, usize) {
    let mut ingest = ShardedIngest::new(config);
    let mut max_pending = 0;
    for block in chain.blocks() {
        ingest.ingest_block(&block);
        max_pending = max_pending.max(ingest.pending_decisions());
    }
    ingest.flush(chain);
    assert_eq!(ingest.pending_decisions(), 0, "flush resolves every pending decision");
    assert_eq!(ingest.tx_count(), chain.tx_count());
    assert_eq!(ingest.block_count(), chain.block_count());
    assert_eq!(ingest.address_count(), chain.address_count());
    (ingest.snapshot(), max_pending)
}

#[test]
fn sharded_matches_batch_h1_only() {
    let chain = economy().chain.resolved();
    let batch = Clusterer::h1_only().run(chain);
    assert!(batch.cluster_count() > 100, "economy produced a real chain");
    // An H1-only ingest starts no thread, so only the epoch length varies.
    for epoch in [1, 4] {
        let (sharded, _) = replay_sharded(chain, IngestConfig::h1_only(epoch));
        assert_equivalent(&sharded, &batch);
        // In H1-only mode even the statistics coincide: reconcile counts
        // exactly the merges that reduce the global component count.
        assert_eq!(sharded.h1_stats, batch.h1_stats, "epoch {epoch}");
    }
}

#[test]
fn sharded_matches_batch_with_wait_window_and_refinements() {
    let chain = economy().chain.resolved();

    // Naive H2, one block at a time: no wait window, so nothing is parked.
    let naive = Clusterer::with_h2(ChangeConfig::naive()).run(chain);
    let (sharded, max_pending) =
        replay_sharded(chain, IngestConfig::with_h2(1, 1, ChangeConfig::naive()));
    assert_equivalent(&sharded, &naive);
    assert!(naive.change_labels.as_ref().unwrap().labels > 100);
    assert_eq!(max_pending, 0);

    // The refined-style configuration: wait window plus both exclusions,
    // so the pending-decision queue and every refinement all see
    // real traffic.
    let mut cfg = ChangeConfig::naive();
    cfg.wait_blocks = Some(BLOCKS_PER_DAY);
    cfg.skip_reused_change = true;
    cfg.skip_prior_self_change = true;
    let batch = Clusterer::with_h2(cfg.clone()).run(chain);
    for (shards, epoch) in [(1, 1), (4, 1), (4, 16), (8, 7)] {
        let (sharded, max_pending) =
            replay_sharded(chain, IngestConfig::with_h2(shards, epoch, cfg.clone()));
        assert_equivalent(&sharded, &batch);
        assert!(
            max_pending > 0,
            "a {BLOCKS_PER_DAY}-block wait must park decisions at the tip \
             ({shards} shards, epoch {epoch})"
        );
    }
    assert!(batch.change_labels.as_ref().unwrap().labels > 0);
}

#[test]
fn sharded_sweep_matches_batch_on_tiny_economy() {
    // The full sweep: shards × epochs × H2 modes.
    let eco = Economy::run(SimConfig::tiny());
    let chain = eco.chain.resolved();
    let mut wait = ChangeConfig::naive();
    wait.wait_blocks = Some(5);
    let configs: [Option<ChangeConfig>; 3] =
        [None, Some(ChangeConfig::naive()), Some(wait)];
    for h2 in &configs {
        let batch = match h2 {
            Some(cfg) => Clusterer::with_h2(cfg.clone()).run(chain),
            None => Clusterer::h1_only().run(chain),
        };
        // An H1-only ingest starts no thread: one shard count covers it.
        let shard_counts: &[usize] = if h2.is_some() { &[1, 2, 4, 8] } else { &[1] };
        for &shards in shard_counts {
            for epoch in [1, 4, 16] {
                let config = IngestConfig { shards, epoch_blocks: epoch, h2: h2.clone() };
                let (sharded, _) = replay_sharded(chain, config);
                assert_equivalent(&sharded, &batch);
            }
        }
    }
}

#[test]
fn sharded_cluster_ids_are_shard_count_independent() {
    // The forest merges lowest root wins, so the raw representative of
    // every cluster is its minimum address id however many shards scanned
    // for Heuristic 2 and however long the epochs were (and the dense
    // snapshot ids are identical too).
    let eco = Economy::run(SimConfig::tiny());
    let chain = eco.chain.resolved();
    let mut reference: Option<Vec<u32>> = None;
    for epoch in [1, 3, 16] {
        for shards in [1, 2, 4, 8] {
            let mut ingest =
                ShardedIngest::new(IngestConfig::with_h2(shards, epoch, ChangeConfig::naive()));
            for block in chain.blocks() {
                ingest.ingest_block(&block);
            }
            ingest.flush(chain);
            let reps: Vec<u32> =
                (0..chain.address_count() as u32).map(|a| ingest.cluster_of(a)).collect();
            for (a, &rep) in reps.iter().enumerate() {
                assert!(rep as usize <= a, "representative is the cluster minimum");
            }
            match &reference {
                Some(r) => assert_eq!(&reps, r, "{shards} shards, epoch {epoch} diverged"),
                None => reference = Some(reps),
            }
        }
    }
}

#[test]
fn sharded_matches_batch_with_short_wait_windows() {
    // A short window with one-block epochs exercises mid-stream
    // finalization (decisions both enter and leave the queue while blocks
    // are still arriving).
    let eco = Economy::run(SimConfig::tiny());
    let chain = eco.chain.resolved();
    for window in [0, 1, 5, 20] {
        let mut cfg = ChangeConfig::naive();
        cfg.wait_blocks = Some(window);
        let batch = Clusterer::with_h2(cfg.clone()).run(chain);
        let (sharded, _) = replay_sharded(chain, IngestConfig::with_h2(1, 1, cfg));
        assert_equivalent(&sharded, &batch);
    }
}

#[test]
fn refined_live_h2_labels_nothing_until_the_wait_window_elapses() {
    // The refined configuration (the H1-named dice set plus the one-week
    // wait) holds every label for a week. The default economy is shorter
    // than that, so no window closes before the tip: between epochs the
    // live pipeline has no H2 labels and its partition is Heuristic 1's.
    // Only `flush` decides them — and then, at every shard count, lands on
    // exactly the batch refined clustering.
    let eco = economy();
    let chain = eco.chain.resolved();
    assert!((chain.block_count() as u64) < BLOCKS_PER_WEEK);
    let h1 = Clusterer::h1_only().run(chain);
    let refined =
        ChangeConfig::refined(dice_addresses(&h1, &name_clusters(&h1, &build_tagdb(eco))));
    let batch = Clusterer::with_h2(refined.clone()).run(chain);
    assert!(batch.change_labels.as_ref().unwrap().labels > 0);

    for shards in [1, 2, 4, 8] {
        let mut ingest = ShardedIngest::new(IngestConfig::with_h2(shards, 16, refined.clone()));
        let mut epochs = 0;
        for block in chain.blocks() {
            ingest.ingest_block(&block);
            if ingest.epochs_completed() > epochs {
                epochs = ingest.epochs_completed();
                assert_eq!(
                    ingest.change_labels().unwrap().labels,
                    0,
                    "{shards} shards, epoch {epochs}"
                );
            }
        }
        assert!(epochs > 30, "{shards} shards, epochs: {epochs}");
        assert!(ingest.pending_decisions() > 0);

        ingest.flush(chain);
        assert_eq!(ingest.pending_decisions(), 0);
        assert_equivalent(&ingest.snapshot(), &batch);
    }
}
