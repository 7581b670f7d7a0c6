//! Property-based tests (proptest) over the core data structures and the
//! paper's invariants.

#[path = "common/flow_oracle.rs"]
mod flow_oracle;
#[path = "common/frame.rs"]
mod frame_reader;

use fistful::chain::address::Address;
use fistful::chain::amount::Amount;
use fistful::chain::encode::{Decodable, Encodable};
use fistful::chain::transaction::{OutPoint, Transaction, TxIn, TxOut};
use fistful::core::change::{self, ChangeConfig};
use fistful::core::cluster::Clusterer;
use fistful::core::score::score_clustering;
use fistful::core::union_find::UnionFind;
use fistful::crypto::base58;
use fistful::sim::{Economy, SimConfig};
use frame_reader::read_frame;
use proptest::prelude::*;

// ---------- crypto ----------

proptest! {
    #[test]
    fn base58_round_trips(data in proptest::collection::vec(any::<u8>(), 0..128)) {
        let encoded = base58::encode(&data);
        prop_assert_eq!(base58::decode(&encoded).unwrap(), data);
    }

    #[test]
    fn base58check_detects_any_version_payload(version in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64)) {
        let s = base58::check_encode(version, &payload);
        let (v, p) = base58::check_decode(&s).unwrap();
        prop_assert_eq!(v, version);
        prop_assert_eq!(p, payload);
    }
}

// ---------- chain encoding ----------

fn arb_txout() -> impl Strategy<Value = TxOut> {
    (any::<u64>(), any::<u64>()).prop_map(|(v, seed)| TxOut {
        value: Amount::from_sat(v % fistful::chain::amount::MAX_MONEY),
        address: Address::from_seed(seed),
    })
}

fn arb_txin() -> impl Strategy<Value = TxIn> {
    (any::<[u8; 32]>(), any::<u32>(), proptest::collection::vec(any::<u8>(), 0..100)).prop_map(
        |(txid, vout, witness)| TxIn {
            prevout: OutPoint { txid: fistful::crypto::hash::Hash256(txid), vout },
            witness,
        },
    )
}

fn arb_tx() -> impl Strategy<Value = Transaction> {
    (
        proptest::collection::vec(arb_txin(), 1..8),
        proptest::collection::vec(arb_txout(), 1..8),
        any::<u32>(),
    )
        .prop_map(|(inputs, outputs, lock_time)| Transaction {
            version: 1,
            inputs,
            outputs,
            lock_time,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transaction_encoding_round_trips(tx in arb_tx()) {
        let bytes = tx.encode_to_vec();
        let decoded = Transaction::decode_all(&bytes).unwrap();
        prop_assert_eq!(&decoded, &tx);
        prop_assert_eq!(decoded.txid(), tx.txid());
    }

    #[test]
    fn txid_is_injective_on_distinct_txs(a in arb_tx(), b in arb_tx()) {
        if a != b {
            prop_assert_ne!(a.txid(), b.txid());
        }
    }
}

// ---------- union-find invariants ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn union_find_is_an_equivalence(
        n in 2usize..200,
        unions in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..400),
    ) {
        let mut uf = UnionFind::new(n);
        for (a, b) in unions {
            let a = a % n as u32;
            let b = b % n as u32;
            uf.union(a, b);
            // Reflexive + symmetric + the union took effect.
            prop_assert!(uf.same(a, a));
            prop_assert!(uf.same(a, b));
            prop_assert!(uf.same(b, a));
        }
        // Component count matches the number of distinct roots.
        let (assignment, sizes) = uf.assignments();
        prop_assert_eq!(sizes.iter().map(|&s| s as usize).sum::<usize>(), n);
        prop_assert_eq!(uf.component_count(), sizes.len());
        // Transitivity sample: same assignment label == same set.
        for x in 0..n as u32 {
            for y in 0..n as u32 {
                prop_assert_eq!(
                    uf.same(x, y),
                    assignment[x as usize] == assignment[y as usize]
                );
            }
        }
    }
}

// ---------- random chains for the differentials below ----------

/// Builds a pseudo-random chain: seed coinbases, then `txs` spends of
/// random unspent outputs paying a mix of fresh and reused addresses, with
/// transactions sometimes sharing a block.
fn random_chain(seed: u64, txs: usize) -> fistful::core::testutil::TestChain {
    use fistful::core::testutil::TestChain;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = TestChain::new();
    // (tx handle, vout) of unspent outputs.
    let mut utxos: Vec<(usize, u32)> = Vec::new();
    let mut next_addr: u64 = 1;
    for _ in 0..6 {
        let h = t.coinbase(next_addr, 50);
        utxos.push((h, 0));
        next_addr += 1;
    }
    let mut last_height: u64 = 5;
    for i in 0..txs {
        if utxos.len() < 2 || rng.gen::<f64>() < 0.1 {
            let h = t.coinbase(next_addr, 50);
            utxos.push((h, 0));
            next_addr += 1;
            last_height = t.chain.txs[h].height;
            continue;
        }
        // Spend 1–3 distinct utxos.
        let k = 1 + rng.gen_range(0..3usize).min(utxos.len() - 1);
        let mut spends = Vec::with_capacity(k);
        for _ in 0..k {
            spends.push(utxos.swap_remove(rng.gen_range(0..utxos.len())));
        }
        // Pay 1–3 outputs to fresh or already-seen addresses.
        let n_out = 1 + rng.gen_range(0..3usize);
        let mut outs = Vec::with_capacity(n_out);
        for _ in 0..n_out {
            let addr = if rng.gen::<f64>() < 0.5 && next_addr > 1 {
                rng.gen_range(1..next_addr)
            } else {
                next_addr += 1;
                next_addr - 1
            };
            outs.push((addr, 1));
        }
        // ~30% of spends share the previous transaction's block.
        let height = if i > 0 && rng.gen::<f64>() < 0.3 { Some(last_height) } else { None };
        let h = t.tx_at(&spends, &outs, height);
        last_height = t.chain.txs[h].height;
        for v in 0..outs.len() as u32 {
            utxos.push((h, v));
        }
    }
    t
}

// ---------- sharded ingest differential: sharded vs batch ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On arbitrary chains, the sharded ingest pipeline must land on
    /// exactly the batch partition and label set for every shard count in
    /// {1,2,4,8} and epoch length in {1,4,16}, with and without Heuristic 2
    /// and the wait-to-label window.
    #[test]
    fn sharded_ingest_matches_batch(
        seed in any::<u64>(),
        txs in 20usize..120,
        shards_idx in 0usize..4,
        epoch_idx in 0usize..3,
        mode in 0usize..3,
        window in 0u64..12,
    ) {
        use fistful::core::incremental::sharded::{IngestConfig, ShardedIngest};

        let shards = [1usize, 2, 4, 8][shards_idx];
        let epoch = [1usize, 4, 16][epoch_idx];
        let h2 = match mode {
            0 => None,
            1 => Some(ChangeConfig::naive()),
            _ => {
                let mut cfg = ChangeConfig::naive();
                cfg.wait_blocks = Some(window);
                cfg.skip_reused_change = true;
                cfg.skip_prior_self_change = true;
                Some(cfg)
            }
        };

        let t = random_chain(seed, txs);
        let chain = &t.chain;
        let batch = match &h2 {
            Some(cfg) => Clusterer::with_h2(cfg.clone()).run(chain),
            None => Clusterer::h1_only().run(chain),
        };
        let mut sharded = ShardedIngest::new(IngestConfig {
            shards,
            epoch_blocks: epoch,
            h2,
        });
        for block in chain.blocks() {
            sharded.ingest_block(&block);
        }
        sharded.flush(chain);
        prop_assert_eq!(sharded.pending_decisions(), 0);

        let shard_snap = sharded.snapshot();
        prop_assert_eq!(&shard_snap.assignment, &batch.assignment);
        prop_assert_eq!(&shard_snap.sizes, &batch.sizes);
        match (&shard_snap.change_labels, &batch.change_labels) {
            (Some(a), Some(b)) => {
                prop_assert_eq!(&a.vout_of, &b.vout_of);
                prop_assert_eq!(a.labels, b.labels);
                prop_assert_eq!(a.skip_counts, b.skip_counts);
            }
            (None, None) => {
                // H1-only: merge accounting is order-independent, so even
                // the statistics must coincide.
                prop_assert_eq!(shard_snap.h1_stats, batch.h1_stats);
            }
            _ => prop_assert!(false, "H2 ran on one side only"),
        }
    }
}

// ---------- graph differential: indexed traversals vs the oracle ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On arbitrary chains, the columnar graph index must reproduce the
    /// resolver exactly, and the indexed peel / taint walks must agree
    /// with the oracle's resolver walks hop-for-hop — peel chains, movement
    /// records, and the `max_txs` walk bound included.
    #[test]
    fn graph_traversals_match_legacy(
        seed in any::<u64>(),
        txs in 20usize..120,
        max_txs in 0usize..40,
        max_hops in 1usize..60,
    ) {
        use fistful::flow::graph::{TaintScratch, TxGraph};
        use fistful::flow::movement::classify_movements_indexed;
        use fistful::flow::peel::{follow_chain_indexed, FollowStrategy};
        use flow_oracle::{classify_movements, follow_chain};

        let t = random_chain(seed, txs);
        let chain = &t.chain;
        let labels = change::identify(chain, &ChangeConfig::naive());
        let graph = TxGraph::build(chain);

        // Structure: the CSR arrays are a lossless view of the resolver.
        prop_assert_eq!(graph.tx_count(), chain.tx_count());
        prop_assert_eq!(graph.output_count(), chain.total_output_count());
        prop_assert_eq!(graph.input_count(), chain.total_input_count());
        for (tx_id, tx) in chain.txs.iter().enumerate() {
            for (v, o) in tx.outputs.iter().enumerate() {
                let flat = graph.flat(tx_id as u32, v as u32);
                prop_assert_eq!(graph.spender_of(flat), o.spent_by);
                prop_assert_eq!(graph.address_of(flat), o.address);
                prop_assert_eq!(graph.value_of(flat), o.value);
            }
        }

        // Peeling chains from a sample of starts, both strategies.
        for start in (0..chain.tx_count() as u32).step_by(5) {
            for strategy in [FollowStrategy::Strict, FollowStrategy::LargestFallback] {
                let oracle = follow_chain(chain, &labels, start, max_hops, strategy);
                let indexed = follow_chain_indexed(&graph, &labels, start, max_hops, strategy);
                prop_assert_eq!(indexed, oracle);
            }
        }

        // Taint walks from a seed-derived loot set (multi-source, so
        // frontiers can merge), under the given walk bound and a loose one.
        let mut loot = Vec::new();
        for (i, tx) in chain.txs.iter().enumerate() {
            if tx.outputs.is_empty() {
                continue;
            }
            if (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed) % 5 == 0 {
                loot.push((i as u32, (seed as usize % tx.outputs.len()) as u32));
            }
        }
        let mut scratch = TaintScratch::for_graph(&graph);
        for bound in [max_txs, 10_000] {
            let oracle = classify_movements(chain, &loot, &labels, bound);
            let indexed = classify_movements_indexed(&graph, &loot, &labels, bound, &mut scratch);
            prop_assert_eq!(indexed, oracle);
        }
    }
}

proptest! {
    // Economies are expensive; a handful of seeds suffices.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// On random simulated economies, the batch taint engine over the
    /// graph must agree with the oracle's per-theft walk on every scripted
    /// theft — verdicts, patterns, exchange arrivals, dormant totals — and
    /// the balance series with the oracle's.
    #[test]
    fn graph_theft_tracking_matches_legacy_on_economies(seed in 0u64..1000) {
        use fistful::flow::balance_series_at;
        use fistful::flow::graph::TxGraph;
        use fistful::flow::theft::track_thefts_batch;
        use fistful_bench::{theft_loots, Workbench};
        use flow_oracle::track_theft;

        let mut cfg = SimConfig::tiny();
        cfg.seed = seed;
        cfg.blocks = 100;
        cfg.users = 25;
        let wb = Workbench::build(cfg);
        let chain = wb.eco.chain.resolved();
        let labels = change::identify(chain, &wb.refined_config());
        let snapshot = wb.snapshot();
        let graph = TxGraph::build(chain);
        prop_assert!(snapshot.pairs_with_chain(graph.address_count(), graph.tx_count() as u64));

        let loots: Vec<Vec<(u32, u32)>> = theft_loots(chain, &wb.eco.script_report.thefts)
            .into_iter()
            .map(|(_, loot)| loot)
            .collect();
        let oracle: Vec<_> = loots
            .iter()
            .map(|loot| track_theft(chain, loot, &labels, &snapshot, 5_000))
            .collect();
        for threads in [1usize, 3] {
            let batch = track_thefts_batch(&graph, &loots, &labels, &snapshot, 5_000, threads);
            prop_assert_eq!(&batch, &oracle);
        }

        // The balance series over the same snapshot, at a seed-derived
        // prefix and at the tip.
        let n = chain.tx_count();
        let every = 1 + seed % 8;
        for tx_end in [(seed as usize * 7919) % (n + 1), n] {
            prop_assert_eq!(
                balance_series_at(chain, tx_end, &snapshot, every),
                flow_oracle::balance_series_at(chain, tx_end, &snapshot, every)
            );
        }
    }
}

// ---------- snapshot wire format ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Encode → decode of a snapshot built from an arbitrary chain, an
    /// arbitrary H2 configuration, and arbitrary tags is lossless, and any
    /// single-byte corruption of the frame is rejected with a typed error.
    #[test]
    fn snapshot_encoding_round_trips(
        seed in any::<u64>(),
        txs in 20usize..100,
        with_h2 in any::<bool>(),
        tags in proptest::collection::vec((any::<u32>(), 0usize..4), 0..12),
        flip in (any::<usize>(), 1u8..=255),
    ) {
        use fistful::core::cluster::Clusterer;
        use fistful::core::naming::name_clusters;
        use fistful::core::snapshot::ClusterSnapshot;
        use fistful::core::tagdb::{Tag, TagDb, TagSource};
        use fistful::store::Store;
        const HEADER_LEN: usize = fistful::store::container::HEADER_LEN as usize;
        const PAGE: usize = fistful::store::PAGE as usize;

        let t = random_chain(seed, txs);
        let chain = &t.chain;
        let clusterer = if with_h2 {
            Clusterer::with_h2(ChangeConfig::naive())
        } else {
            Clusterer::h1_only()
        };
        let clustering = clusterer.run(chain);

        // Arbitrary tags over the address space (some may repeat).
        const SERVICES: [(&str, &str); 4] = [
            ("Mt. Gox", "exchange"),
            ("Silk Road", "vendor"),
            ("Satoshi Dice", "gambling"),
            ("Instawallet", "wallet"),
        ];
        let mut db = TagDb::new();
        for (addr, which) in tags {
            let n = chain.address_count() as u32;
            if n == 0 { continue }
            let (service, category) = SERVICES[which % SERVICES.len()];
            db.add(Tag {
                address: addr % n,
                service: service.into(),
                category: category.into(),
                source: TagSource::OwnTransaction,
            });
        }
        let names = name_clusters(&clustering, &db);
        let snapshot = ClusterSnapshot::build(chain, &clustering, &names);

        // Store round trip: lossless and byte-stable.
        let bytes = snapshot.to_bytes();
        let mut store = Store::open_bytes(bytes.clone()).unwrap();
        let decoded = ClusterSnapshot::read_store(&mut store).unwrap();
        prop_assert_eq!(&decoded, &snapshot);
        prop_assert_eq!(decoded.to_bytes(), bytes.clone());

        // Any single-byte change in a checked region must be rejected,
        // by `open_bytes` or by `read_store`: the header's magic, version,
        // declared lengths and TOC checksum, the TOC, and the three
        // segments. The zero padding and the reserved header bytes 5..8
        // are not verified — checking them would make opening cost
        // O(file), not O(TOC) — so no flip is drawn there.
        let toc_len = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
        let mut regions = vec![0..5, 8..HEADER_LEN + toc_len];
        let mut offset = (HEADER_LEN + toc_len).div_ceil(PAGE) * PAGE;
        for name in store.segment_names() {
            let len = store.segment_len(name).unwrap() as usize;
            regions.push(offset..offset + len);
            offset += len.div_ceil(PAGE) * PAGE;
        }
        prop_assert_eq!(offset, bytes.len());
        let checked: Vec<usize> = regions.into_iter().flatten().collect();
        let (pick, xor) = flip;
        let pos = checked[pick % checked.len()];
        let mut bad = bytes.clone();
        bad[pos] ^= xor;
        let rejected = Store::open_bytes(bad)
            .and_then(|mut store| ClusterSnapshot::read_store(&mut store))
            .is_err();
        prop_assert!(rejected, "flip at byte {} of {} accepted", pos, bytes.len());
    }
}

// ---------- delta snapshots ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Delta snapshots over arbitrary chains and arbitrary epoch cuts:
    /// exporting at random block boundaries, diffing consecutive exports,
    /// and folding base + deltas must land byte-for-byte on the final
    /// export — which itself must be byte-identical to the batch
    /// snapshot. Every delta must also survive its store-container round
    /// trip losslessly.
    #[test]
    fn snapshot_deltas_fold_byte_identically_over_random_epoch_cuts(
        seed in any::<u64>(),
        txs in 30usize..100,
        shards in 1usize..5,
        with_h2 in any::<bool>(),
        raw_cuts in proptest::collection::vec(any::<u32>(), 1..6),
    ) {
        use fistful::core::incremental::sharded::{IngestConfig, ShardedIngest};
        use fistful::core::naming::name_clusters;
        use fistful::core::snapshot::{ClusterSnapshot, SnapshotDelta};
        use fistful::core::tagdb::TagDb;
        use fistful::store::{Store, StoreWriter};

        let t = random_chain(seed, txs);
        let chain = &t.chain;
        let db = TagDb::new();
        let mut cuts: Vec<usize> =
            raw_cuts.iter().map(|&c| c as usize % chain.block_count()).collect();
        cuts.sort_unstable();
        cuts.dedup();

        // Reconcile after every block so any block index is an epoch cut.
        let config = if with_h2 {
            IngestConfig::with_h2(shards, 1, ChangeConfig::naive())
        } else {
            IngestConfig::h1_only(shards, 1)
        };
        let mut pipe = ShardedIngest::new(config);
        let mut exports: Vec<ClusterSnapshot> = Vec::new();
        for (i, block) in chain.blocks().enumerate() {
            pipe.ingest_block(&block);
            if cuts.binary_search(&i).is_ok() {
                exports.push(pipe.export_snapshot(chain, &db));
            }
        }
        pipe.flush(chain);
        exports.push(pipe.export_snapshot(chain, &db));

        // Diff consecutive exports; each delta survives its container
        // round trip; the fold lands on the final export byte-for-byte.
        let mut deltas = Vec::new();
        for pair in exports.windows(2) {
            let delta = SnapshotDelta::between(&pair[0], &pair[1]);
            let mut w = StoreWriter::new();
            delta.write_store(&mut w);
            let mut store = Store::open_bytes(w.to_bytes()).unwrap();
            let reread = SnapshotDelta::read_store(&mut store).unwrap();
            prop_assert_eq!(&reread, &delta);
            deltas.push(delta);
        }
        let folded = ClusterSnapshot::from_base_and_deltas(&exports[0], &deltas).unwrap();
        let last = exports.last().unwrap();
        prop_assert_eq!(folded.to_bytes(), last.to_bytes());

        // The final export is the batch snapshot, byte for byte.
        let clusterer = if with_h2 {
            Clusterer::with_h2(ChangeConfig::naive())
        } else {
            Clusterer::h1_only()
        };
        let clustering = clusterer.run(chain);
        let names = name_clusters(&clustering, &db);
        let batch = ClusterSnapshot::build(chain, &clustering, &names);
        prop_assert_eq!(last.to_bytes(), batch.to_bytes());
    }
}

// ---------- live hot-swap differential ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random economies × random epoch cuts × shard counts: streaming the
    /// chain through a live pipeline that publishes into a real server
    /// must land on exactly the batch `Clusterer::run` artifact
    /// byte-for-byte, and the on-disk base + per-epoch-delta trail must
    /// fold back to the final published snapshot.
    #[test]
    fn live_hot_swap_converges_to_batch_over_random_cuts(
        seed in any::<u64>(),
        txs in 20usize..100,
        shards in 1usize..5,
        epoch_blocks in 1usize..20,
        start_blocks in 0usize..30,
        window in 0u64..8,
        windowed in any::<bool>(),
    ) {
        use fistful::core::naming::name_clusters;
        use fistful::core::snapshot::ClusterSnapshot;
        use fistful::core::tagdb::TagDb;
        use fistful::flow::graph::TxGraph;
        use fistful::serve::store::read_live_meta;
        use fistful::serve::{LiveConfig, LivePipeline, ServeArtifacts, ServeConfig, Server};
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let change_cfg = if windowed {
            let mut cfg = ChangeConfig::naive();
            cfg.wait_blocks = Some(window);
            cfg.skip_reused_change = true;
            cfg.skip_prior_self_change = true;
            cfg
        } else {
            ChangeConfig::naive()
        };
        let t = random_chain(seed, txs);
        let chain = Arc::new(t.chain);
        let db = TagDb::new();

        let dir = std::env::temp_dir().join(format!("fistful-live-prop-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).unwrap();
        }
        std::fs::create_dir_all(&dir).unwrap();

        let config = LiveConfig {
            shards,
            epoch_blocks,
            start_blocks,
            balance_every: 1,
            change: change_cfg.clone(),
            store_dir: Some(dir.clone()),
            block_delay: std::time::Duration::ZERO,
        };
        let mut live = LivePipeline::new(Arc::clone(&chain), db.clone(), config);
        let artifacts = live.bootstrap().unwrap();
        let server = Server::start(
            ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 1,
                cache_entries: 16,
                ..ServeConfig::default()
            },
            artifacts,
        )
        .unwrap();
        let report = live.run(&server.publisher(), &AtomicBool::new(false)).unwrap();
        prop_assert!(report.flushed);
        let stats = server.stats();
        prop_assert_eq!(stats.epoch, report.final_epoch);
        prop_assert_eq!(stats.tx_count, chain.tx_count() as u64);
        server.shutdown();

        // The on-disk base + delta fold is the final published bundle
        // (the serve file's watermark says so, and the fold reproduces
        // the snapshot it describes)...
        let disk = ServeArtifacts::open_dir(&dir).unwrap();
        let meta = read_live_meta(&dir).unwrap().expect("live save carries meta");
        prop_assert_eq!(meta.epoch, report.final_epoch);
        prop_assert!(meta.flushed);
        prop_assert_eq!(meta.tx_count, chain.tx_count() as u64);
        prop_assert_eq!(disk.snapshot.tip_height(), stats.tip_height);

        // ...and equals the batch artifact byte-for-byte: snapshot,
        // graph, and change labels alike.
        let clustering = Clusterer::with_h2(change_cfg.clone()).run(chain.as_ref());
        let names = name_clusters(&clustering, &db);
        let batch_snap = ClusterSnapshot::build(chain.as_ref(), &clustering, &names);
        prop_assert_eq!(disk.snapshot.to_bytes(), batch_snap.to_bytes());
        prop_assert_eq!(&disk.graph, &TxGraph::build(chain.as_ref()));
        let batch_labels = change::identify(chain.as_ref(), &change_cfg);
        prop_assert_eq!(&disk.labels.vout_of, &batch_labels.vout_of);
        prop_assert_eq!(disk.labels.labels, batch_labels.labels);
        prop_assert_eq!(disk.labels.skip_counts, batch_labels.skip_counts);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

// ---------- serve wire protocol ----------

/// Builds one of every [`Request`](fistful::serve::Request) variant from
/// drawn integers (the vendored proptest has no `prop_oneof`).
fn serve_request_from(
    sel: u8,
    a: u32,
    height: u64,
    loot: Vec<(u32, u32)>,
    max_txs: u32,
) -> fistful::serve::Request {
    use fistful::serve::Request;
    match sel % 6 {
        0 => Request::Ping,
        1 => Request::Stats,
        2 => Request::AddressInfo { address: a },
        3 => Request::ClusterSummary { cluster: a },
        4 => Request::TaintTrace { loot, max_txs },
        _ => Request::BalancePoint { height },
    }
}

/// Builds one of every [`Response`](fistful::serve::Response) variant
/// from drawn integers and strings.
fn serve_response_from(sel: u8, nums: &[u64], text: &str) -> fistful::serve::Response {
    use fistful::core::snapshot::ClusterInfo;
    use fistful::flow::movement::MovementKind;
    use fistful::serve::{
        AddressReport, BalanceReport, ClusterReport, ErrorCode, Response, ServerStats,
        TaintReport, WireError, WireMovement,
    };
    let n = |i: usize| nums[i % nums.len()];
    let info = ClusterInfo {
        size: n(0) as u32,
        received: Amount::from_sat(n(1)),
        spent: Amount::from_sat(n(2)),
        name: (n(3) % 2 == 0).then(|| text.to_string()),
        category: (n(4) % 3 == 0).then(|| format!("cat-{}", n(5) % 7)),
    };
    match sel % 9 {
        0 => Response::Pong,
        1 => Response::Stats(ServerStats {
            requests: n(0),
            cache_hits: n(1),
            cache_misses: n(2),
            workers: n(3) as u32,
            address_count: n(4),
            tx_count: n(5),
            cluster_count: n(6),
            tip_height: n(7),
            epoch: n(8),
            swaps: n(9),
            uptime_seconds: n(10),
            requests_total: n(11),
        }),
        2 => Response::AddressInfo(None),
        3 => Response::AddressInfo(Some(AddressReport {
            address: n(0) as u32,
            cluster: n(1) as u32,
            info,
        })),
        4 => Response::ClusterSummary(Some(ClusterReport { cluster: n(2) as u32, info })),
        5 => Response::TaintTrace(TaintReport {
            movements: (0..n(0) % 4)
                .map(|i| {
                    let i = i as usize;
                    WireMovement {
                        tx: n(i) as u32,
                        kind: match n(i + 1) % 5 {
                            0 => MovementKind::Aggregation,
                            1 => MovementKind::Peel,
                            2 => MovementKind::Split,
                            3 => MovementKind::Fold,
                            _ => MovementKind::Transfer,
                        },
                        tainted_inputs: n(i + 2) as u32,
                        total_inputs: n(i + 3) as u32,
                        departures: vec![(n(i + 4) as u32, Amount::from_sat(n(i + 5)))],
                    }
                })
                .collect(),
            pattern: text.chars().take(12).collect(),
            to_exchanges: Amount::from_sat(n(1)),
            exchanges_reached: n(2) as u32,
            dormant: Amount::from_sat(n(3)),
        }),
        6 => Response::BalancePoint(Some(BalanceReport {
            height: n(0),
            time: n(1),
            supply: Amount::from_sat(n(2)),
            sink_held: Amount::from_sat(n(3)),
            balances: (0..n(4) % 4)
                .map(|i| (format!("category-{i}"), Amount::from_sat(n(i as usize))))
                .collect(),
        })),
        7 => Response::BalancePoint(None),
        _ => Response::Error(WireError {
            code: match n(0) % 7 {
                0 => ErrorCode::BadMagic,
                1 => ErrorCode::UnsupportedVersion,
                2 => ErrorCode::FrameTooLarge,
                3 => ErrorCode::Malformed,
                4 => ErrorCode::UnknownRequest,
                5 => ErrorCode::InvalidRequest,
                _ => ErrorCode::Busy,
            },
            message: text.chars().take(40).collect(),
        }),
    }
}

proptest! {
    /// The wire decoders are total: arbitrary bytes produce a typed error
    /// or a value whose canonical re-encoding is exactly the input —
    /// never a panic, never an allocation blowup, never a non-canonical
    /// acceptance.
    #[test]
    fn serve_decoders_never_panic_on_arbitrary_frames(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        header in any::<[u8; 9]>(),
    ) {
        use fistful::serve::{Request, Response};
        if let Ok(request) = Request::decode_payload(&bytes) {
            prop_assert_eq!(request.encode_to_vec(), bytes.clone());
        }
        if let Ok(response) = Response::decode_payload(&bytes) {
            prop_assert_eq!(response.encode_to_vec(), bytes.clone());
        }
        // The frame-header check is total too, never admits a length
        // beyond the receiver's cap, and only ever accepts the one
        // protocol version.
        if let Ok(parsed) =
            fistful::serve::protocol::parse_frame_header(&header, fistful::serve::MAX_REQUEST_PAYLOAD)
        {
            prop_assert!(parsed.payload_len <= fistful::serve::MAX_REQUEST_PAYLOAD);
            prop_assert_eq!(header[4], fistful::serve::PROTOCOL_VERSION);
        }
    }

    /// Encode → decode round-trips every request and response variant.
    #[test]
    fn serve_messages_round_trip(
        sel in any::<u8>(),
        a in any::<u32>(),
        height in any::<u64>(),
        loot in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..12),
        max_txs in any::<u32>(),
        nums in proptest::collection::vec(any::<u64>(), 8..16),
        text_seed in any::<u64>(),
    ) {
        use fistful::serve::{Request, Response};
        let text = format!("svc-{text_seed} ☃ \"quoted\"");
        let request = serve_request_from(sel, a, height, loot, max_txs);
        let payload = request.encode_to_vec();
        prop_assert_eq!(Request::decode_payload(&payload).unwrap(), request);

        let response = serve_response_from(sel, &nums, &text);
        let payload = response.encode_to_vec();
        prop_assert_eq!(Response::decode_payload(&payload).unwrap(), response);
    }
}

// ---------- differential pipelining: event loop vs threaded ----------

/// One threaded and one event server over the same artifacts, plus one
/// persistent connection to each. Both see the identical cumulative
/// request stream (batches arrive in proptest case order on a single
/// runner thread), and both run one worker, so even the `Stats` counters
/// stay in lockstep.
struct PipePair {
    _threaded: fistful::serve::Server,
    _event: fistful::serve::EventServer,
    threaded_conn: std::net::TcpStream,
    event_conn: std::net::TcpStream,
    loots: Vec<Vec<(u32, u32)>>,
    address_count: u32,
    cluster_count: u32,
    tip_height: u64,
}

fn pipe_pair() -> &'static std::sync::Mutex<PipePair> {
    use fistful::serve::{EventServeConfig, EventServer, ServeConfig, Server};
    use fistful_bench::{serve_artifacts, theft_loots, Workbench};
    use std::sync::{Arc, Mutex, OnceLock};
    static PAIR: OnceLock<Mutex<PipePair>> = OnceLock::new();
    PAIR.get_or_init(|| {
        let wb = Workbench::build(SimConfig::tiny());
        let artifacts = Arc::new(serve_artifacts(&wb));
        let chain = wb.eco.chain.resolved();
        let loots = theft_loots(chain, &wb.eco.script_report.thefts)
            .into_iter()
            .map(|(_, loot)| loot)
            .collect();
        let threaded = Server::start(
            ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 1,
                cache_entries: 1024,
                ..ServeConfig::default()
            },
            Arc::clone(&artifacts),
        )
        .expect("start threaded server");
        let event = EventServer::start(
            EventServeConfig { workers: 1, cache_entries: 1024, ..EventServeConfig::default() },
            Arc::clone(&artifacts),
        )
        .expect("start event server");
        let threaded_conn = std::net::TcpStream::connect(threaded.local_addr()).expect("connect");
        let event_conn = std::net::TcpStream::connect(event.local_addr()).expect("connect");
        threaded_conn.set_nodelay(true).expect("nodelay");
        event_conn.set_nodelay(true).expect("nodelay");
        Mutex::new(PipePair {
            address_count: artifacts.snapshot.address_count() as u32,
            cluster_count: artifacts.snapshot.cluster_count() as u32,
            tip_height: artifacts.snapshot.tip_height(),
            _threaded: threaded,
            _event: event,
            threaded_conn,
            event_conn,
            loots,
        })
    })
}

proptest! {
    // Each case round-trips a whole batch against two live servers.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pipelining is a pure transport optimization: a random batch of
    /// requests, coalesced into one byte blob and written over a single
    /// connection at arbitrary chunk boundaries —
    /// yields in-order responses byte-identical to the same requests sent
    /// one at a time to the threaded server.
    #[test]
    fn pipelined_batches_match_sequential_threaded_answers(
        draws in proptest::collection::vec(
            (any::<u8>(), any::<u32>(), any::<u64>()),
            1..12,
        ),
        chunk_seed in any::<u64>(),
    ) {
        use fistful::serve::Request;
        use std::io::Write;

        let mut pair = pipe_pair().lock().expect("pair poisoned");
        // Only requests a server answers without closing: out-of-range
        // lookups get `None` bodies, but loot stays within the graph and
        // frames stay well-formed, so the two persistent connections
        // survive every case.
        let requests: Vec<Request> = draws
            .iter()
            .map(|&(sel, a, height)| match sel % 6 {
                0 => Request::Ping,
                1 => Request::Stats,
                2 => Request::AddressInfo { address: a % (pair.address_count + 3) },
                3 => Request::ClusterSummary { cluster: a % (pair.cluster_count + 3) },
                4 => Request::TaintTrace {
                    loot: pair.loots[a as usize % pair.loots.len()].clone(),
                    max_txs: (height % 50 + 1) as u32,
                },
                _ => Request::BalancePoint { height: height % (pair.tip_height + 5) },
            })
            .collect();

        // Sequential ground truth from the threaded server first, so the
        // cumulative streams (and thus Stats counters and cache state)
        // match request for request.
        let mut expected = Vec::with_capacity(requests.len());
        for request in &requests {
            pair.threaded_conn.write_all(&request.to_frame()).expect("threaded write");
            let conn = &mut pair.threaded_conn;
            expected.push(read_frame(conn).expect("threaded response"));
        }

        // The same batch as one coalesced blob, chopped at arbitrary
        // boundaries (with pauses, so the server genuinely sees partial
        // frames), pipelined over the event connection.
        let mut blob = Vec::new();
        for request in &requests {
            blob.extend_from_slice(&request.to_frame());
        }
        let mut lcg = chunk_seed | 1;
        let mut at = 0usize;
        let mut pauses = 0;
        while at < blob.len() {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let take = (1 + (lcg >> 33) as usize % 17).min(blob.len() - at);
            pair.event_conn.write_all(&blob[at..at + take]).expect("event write");
            at += take;
            if lcg % 5 == 0 && pauses < 3 && at < blob.len() {
                pauses += 1;
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        for (i, want) in expected.iter().enumerate() {
            let conn = &mut pair.event_conn;
            let got = read_frame(conn).expect("event response");
            assert_eq!(&got, want, "response #{} diverged (request {:?})", i, requests[i]);
        }
    }
}

// ---------- heuristic safety on simulated economies ----------

proptest! {
    // Economies are expensive; a handful of seeds suffices.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn h1_never_merges_owners_across_seeds(seed in 0u64..1000) {
        let mut cfg = SimConfig::tiny();
        cfg.seed = seed;
        cfg.blocks = 80;
        cfg.users = 25;
        let eco = Economy::run(cfg);
        let chain = eco.chain.resolved();
        let gt = eco.gt.to_id_space(chain);
        let clustering = Clusterer::h1_only().run(chain);
        let score = score_clustering(&clustering, &gt.owner_of);
        // Heuristic 1 is an inherent protocol property: always pure.
        prop_assert_eq!(score.impure_clusters, 0);
    }

    #[test]
    fn h2_conditions_hold_for_every_label(seed in 0u64..1000) {
        let mut cfg = SimConfig::tiny();
        cfg.seed = seed;
        cfg.blocks = 80;
        cfg.users = 25;
        let eco = Economy::run(cfg);
        let chain = eco.chain.resolved();
        let labels = change::identify(chain, &ChangeConfig::naive());
        for (t, vout, addr) in labels.iter(chain) {
            let tx = &chain.txs[t as usize];
            // Condition 2: never a coinbase.
            prop_assert!(!tx.is_coinbase);
            // Condition 1: first appearance is this transaction.
            prop_assert_eq!(chain.first_seen(addr), t);
            // Condition 3: not a self-change output.
            prop_assert!(tx.inputs.iter().all(|i| i.address != addr));
            // Condition 4: every other output appeared strictly earlier.
            for (v, o) in tx.outputs.iter().enumerate() {
                if v as u32 != vout {
                    prop_assert!(chain.first_seen(o.address) < t);
                }
            }
        }
    }

    #[test]
    fn supply_is_conserved_across_seeds(seed in 0u64..1000) {
        let mut cfg = SimConfig::tiny();
        cfg.seed = seed;
        cfg.blocks = 60;
        cfg.users = 20;
        let eco = Economy::run(cfg);
        let expected: Amount = (0..60u64)
            .map(|h| eco.chain.params().subsidy_at(h))
            .sum();
        prop_assert_eq!(eco.chain.utxos().total_value(), expected);
    }
}
