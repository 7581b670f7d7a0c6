//! Differential tests for the columnar transaction-graph index: the graph
//! over every prefix of a simulated economy must be the resolver's view of
//! that prefix, the graph-indexed traversals must be hop-for-hop and
//! record-for-record identical to the resolver walks of the test oracle
//! (`common/flow_oracle.rs`), on a whole simulated economy and on small
//! hand-built chains — and the batch taint engine must agree with both at
//! every thread count.

#[path = "common/balance_oracle.rs"]
mod balance_oracle;
#[path = "common/flow_oracle.rs"]
mod flow_oracle;

use fistful::chain::resolve::{ResolvedChain, TxId};
use fistful::core::change::{self, ChangeConfig, ChangeLabels};
use fistful::core::snapshot::ClusterSnapshot;
use fistful::core::testutil::{named_snapshot, TestChain};
use fistful::flow::balance_series_at;
use fistful::flow::graph::{TaintScratch, TxGraph};
use fistful::flow::movement::{classify_movements_indexed, pattern_string, TaintedTx};
use fistful::flow::peel::{follow_chain_indexed, follow_chains_indexed, FollowStrategy, PeelChain};
use fistful::flow::theft::{track_theft_indexed, track_thefts_batch};
use fistful::flow::track::service_arrivals;
use fistful::sim::SimConfig;
use fistful_bench::{silk_road_starts, theft_loots, Workbench};
use flow_oracle::{classify_movements, follow_chain, track_theft};
use std::sync::Arc;

fn workbench() -> &'static Workbench {
    static WB: std::sync::OnceLock<Workbench> = std::sync::OnceLock::new();
    WB.get_or_init(|| Workbench::build(SimConfig::tiny()))
}

fn naive_labels(t: &TestChain) -> ChangeLabels {
    change::identify(&t.chain, &ChangeConfig::naive())
}

/// A snapshot that names `t`'s address `n` as the exchange Mt. Gox.
fn gox_snapshot(t: &TestChain, n: u64) -> ClusterSnapshot {
    named_snapshot(&t.chain, &[(t.id(n), "Mt. Gox", "exchange")])
}

/// Asserts the graph peel walk equals the oracle's from every start, under
/// both strategies and every hop bound.
fn assert_peel_walks_match(
    chain: &ResolvedChain,
    labels: &ChangeLabels,
    graph: &TxGraph,
    starts: impl Iterator<Item = TxId>,
    bounds: &[usize],
) {
    for start in starts {
        for strategy in [FollowStrategy::Strict, FollowStrategy::LargestFallback] {
            for &max_hops in bounds {
                let oracle = follow_chain(chain, labels, start, max_hops, strategy);
                let indexed = follow_chain_indexed(graph, labels, start, max_hops, strategy);
                assert_eq!(indexed, oracle, "start {start} {strategy:?} {max_hops}");
            }
        }
    }
}

/// Asserts `follow_chains_indexed` equals the oracle chain by chain, and
/// returns the chains.
fn assert_chains_match(
    chain: &ResolvedChain,
    labels: &ChangeLabels,
    graph: &TxGraph,
    starts: &[TxId],
    strategy: FollowStrategy,
) -> Vec<PeelChain> {
    let chains = follow_chains_indexed(graph, labels, starts, 100, strategy);
    let oracle: Vec<_> =
        starts.iter().map(|&s| follow_chain(chain, labels, s, 100, strategy)).collect();
    assert_eq!(chains, oracle);
    chains
}

/// Asserts the graph taint walk equals the oracle's under every walk
/// bound, reusing one scratch across bounds; returns the last walk.
fn assert_movement_walks_match(
    chain: &ResolvedChain,
    labels: &ChangeLabels,
    graph: &TxGraph,
    loot: &[(TxId, u32)],
    bounds: &[usize],
) -> Vec<TaintedTx> {
    let mut scratch = TaintScratch::for_graph(graph);
    let mut last = Vec::new();
    for &max_txs in bounds {
        let oracle = classify_movements(chain, loot, labels, max_txs);
        last = classify_movements_indexed(graph, loot, labels, max_txs, &mut scratch);
        assert_eq!(last, oracle, "max_txs {max_txs}");
    }
    last
}

/// Asserts the per-theft graph walk (one shared scratch) and the batch
/// engine at 1, 2, 4 and 8 threads all equal the oracle's traces, under
/// every walk bound.
fn assert_theft_traces_match(
    chain: &ResolvedChain,
    labels: &ChangeLabels,
    graph: &TxGraph,
    snapshot: &ClusterSnapshot,
    loots: &[Vec<(TxId, u32)>],
    bounds: &[usize],
) {
    for &max_txs in bounds {
        let oracle: Vec<_> = loots
            .iter()
            .map(|loot| track_theft(chain, loot, labels, snapshot, max_txs))
            .collect();
        let mut scratch = TaintScratch::for_graph(graph);
        let indexed: Vec<_> = loots
            .iter()
            .map(|loot| track_theft_indexed(graph, loot, labels, snapshot, max_txs, &mut scratch))
            .collect();
        assert_eq!(indexed, oracle, "max_txs {max_txs}");
        for threads in [1, 2, 4, 8] {
            let batch = track_thefts_batch(graph, loots, labels, snapshot, max_txs, threads);
            assert_eq!(batch, oracle, "threads {threads} max_txs {max_txs}");
        }
    }
}

/// The graph and the snapshot over prefixes of the economy (every eighth
/// of the chain, and a cut inside a block) against the resolver: an output
/// reads spent only by a spender before the cut, `last_spent` counts only
/// spends before it, the graph covers exactly the addresses first seen
/// before it, and each cluster's totals are a naive sum over the prefix.
#[test]
fn graph_structure_matches_resolver() {
    let wb = workbench();
    let chain = wb.eco.chain.resolved();
    let n = chain.tx_count();
    let mid_block = chain
        .blocks()
        .find(|b| b.tx_end() - b.tx_start() > 1)
        .map(|b| b.tx_start() as usize + 1)
        .expect("a block with several transactions");
    for cut in (0..=8).map(|k| n * k / 8).chain([mid_block]) {
        let graph = TxGraph::build_at(chain, cut);
        let before = |t: &TxId| (*t as usize) < cut;
        let txs = &chain.txs[..cut];
        let born =
            (0..chain.address_count() as u32).filter(|&a| before(&chain.first_seen(a))).count();
        assert_eq!(graph.tx_count(), cut);
        assert_eq!(graph.address_count(), born, "cut {cut}");
        assert_eq!(graph.output_count(), txs.iter().map(|tx| tx.outputs.len()).sum::<usize>());
        assert_eq!(graph.input_count(), txs.iter().map(|tx| tx.inputs.len()).sum::<usize>());
        for (t, tx) in txs.iter().enumerate() {
            let t = t as u32;
            for (v, o) in tx.outputs.iter().enumerate() {
                let flat = graph.flat(t, v as u32);
                assert_eq!(graph.address_of(flat), o.address);
                assert_eq!(graph.value_of(flat), o.value);
                assert_eq!(graph.spender(t, v as u32), o.spent_by.filter(before), "cut {cut}");
                assert_eq!(graph.outpoint(flat), (t, v as u32));
            }
            for (slot, input) in tx.inputs.iter().enumerate() {
                assert_eq!(graph.inputs(t)[slot], graph.flat(input.prev_tx, input.prev_vout));
            }
        }
        for a in 0..graph.address_count() as u32 {
            assert_eq!(graph.first_seen(a), Some(chain.first_seen(a)));
            let last = chain.spent_in(a).iter().copied().rfind(before);
            assert_eq!(graph.last_spent(a), last, "cut {cut} address {a}");
        }

        let snapshot = ClusterSnapshot::build_at(chain, cut, &wb.h1, &wb.h1_names);
        let mut received = vec![0u64; wb.h1.cluster_count()];
        let mut spent = vec![0u64; wb.h1.cluster_count()];
        for tx in txs {
            for input in &tx.inputs {
                spent[wb.h1.cluster_of(input.address) as usize] += input.value.to_sat();
            }
            for o in &tx.outputs {
                received[wb.h1.cluster_of(o.address) as usize] += o.value.to_sat();
            }
        }
        for c in 0..wb.h1.cluster_count() {
            let info = snapshot.info(c as u32).expect("cluster in range");
            assert_eq!(info.received.to_sat(), received[c], "cut {cut} cluster {c}");
            assert_eq!(info.spent.to_sat(), spent[c], "cut {cut} cluster {c}");
        }
    }
}

#[test]
fn indexed_peel_identical_over_economy() {
    let wb = workbench();
    let chain = wb.eco.chain.resolved();
    let labels = change::identify(chain, &wb.refined_config());
    // Every 13th transaction as a start.
    let starts = (0..chain.tx_count() as u32).step_by(13);
    assert_peel_walks_match(chain, &labels, &TxGraph::build(chain), starts, &[1, 7, 100]);

    // A 3-hop peeling chain (1000 → peel 10 → peel 20 → peel 30) to seen
    // recipients, with change cascading through fresh addresses: every
    // start.
    let mut t = TestChain::new();
    let funding = t.coinbase(1, 1000);
    for recipient in [100, 101, 102] {
        t.coinbase(recipient, 5);
    }
    let hop1 = t.tx(&[(funding, 0)], &[(100, 10), (10, 990)]);
    let hop2 = t.tx(&[(hop1, 1)], &[(101, 20), (11, 970)]);
    let _hop3 = t.tx(&[(hop2, 1)], &[(102, 30), (12, 940)]);
    let graph = TxGraph::build(&t.chain);
    let starts = 0..t.chain.tx_count() as u32;
    assert_peel_walks_match(&t.chain, &naive_labels(&t), &graph, starts, &[0, 1, 2, 100]);
}

#[test]
fn silk_road_arrivals_identical_over_economy() {
    let wb = workbench();
    let chain = wb.eco.chain.resolved();
    let Some(sr) = &wb.eco.script_report.silk_road else {
        panic!("tiny scale scripts the Silk Road dissolution");
    };
    let labels = change::identify(chain, &wb.refined_config());
    let starts = silk_road_starts(chain, sr);
    assert!(!starts.is_empty(), "dissolution chains present");
    let graph = TxGraph::build(chain);
    assert_chains_match(chain, &labels, &graph, &starts, FollowStrategy::LargestFallback);

    // Two peels to a seen exchange address along one strictly labelled
    // chain: both are attributed to it.
    let mut t = TestChain::new();
    let funding = t.coinbase(1, 1000);
    let _gox = t.coinbase(100, 5);
    let hop1 = t.tx(&[(funding, 0)], &[(100, 10), (10, 990)]);
    let _hop2 = t.tx(&[(hop1, 1)], &[(100, 20), (11, 970)]);
    let graph = TxGraph::build(&t.chain);
    let starts = [hop1 as u32];
    let chains = assert_chains_match(&t.chain, &naive_labels(&t), &graph, &starts, FollowStrategy::Strict);
    let rows = service_arrivals(&chains, &gox_snapshot(&t, 100));
    assert_eq!(rows[0].service, "Mt. Gox");
    assert_eq!(rows[0].total_peels(), 2);
}

#[test]
fn theft_traces_identical_and_batch_agrees_at_every_thread_count() {
    let wb = workbench();
    let chain = wb.eco.chain.resolved();
    let labels = change::identify(chain, &wb.refined_config());
    let snapshot = wb.snapshot();
    let graph = TxGraph::build(chain);
    let cases = theft_loots(chain, &wb.eco.script_report.thefts);
    assert!(cases.len() >= 3, "tiny scale scripts several thefts");
    let loots: Vec<Vec<(u32, u32)>> = cases.into_iter().map(|(_, loot)| loot).collect();
    // Including under tight walk bounds.
    assert_theft_traces_match(chain, &labels, &graph, &snapshot, &loots, &[0, 1, 5, 5_000]);

    // Two thefts folded together with clean side funds, then a peel to an
    // exchange address; tracked jointly and one at a time.
    let mut t = TestChain::new();
    let c1 = t.coinbase(1, 100);
    let c2 = t.coinbase(2, 100);
    let c3 = t.coinbase(3, 100);
    let _gox = t.coinbase(50, 5);
    let theft = t.tx(&[(c1, 0)], &[(10, 80), (1, 20)]);
    let theft2 = t.tx(&[(c2, 0)], &[(11, 90), (2, 10)]);
    let agg = t.tx(&[(theft, 0), (theft2, 0), (c3, 0)], &[(12, 270)]);
    let _peel = t.tx(&[(agg, 0)], &[(50, 30), (13, 240)]);
    let (a, b) = ((theft as u32, 0), (theft2 as u32, 0));
    let graph = TxGraph::build(&t.chain);
    let loots = [vec![a, b], vec![a], vec![b]];
    let gox = gox_snapshot(&t, 50);
    assert_theft_traces_match(&t.chain, &naive_labels(&t), &graph, &gox, &loots, &[100]);
}

#[test]
fn movement_walks_identical_from_arbitrary_loot() {
    let wb = workbench();
    let chain = wb.eco.chain.resolved();
    let labels = change::identify(chain, &ChangeConfig::naive());
    let graph = TxGraph::build(chain);

    // Treat a deterministic sample of outputs as loot, including
    // multi-source sets that share downstream transactions.
    let mut loot = Vec::new();
    for (t, tx) in chain.txs.iter().enumerate() {
        if !tx.outputs.is_empty() && t % 97 == 0 {
            loot.push((t as u32, (t / 97 % tx.outputs.len()) as u32));
        }
    }
    assert!(loot.len() >= 2);
    assert_movement_walks_match(chain, &labels, &graph, &loot, &[0, 3, 50, 10_000]);

    // A theft folded with clean funds, split three ways, then peeled twice
    // from the largest split output.
    let mut t = TestChain::new();
    let c1 = t.coinbase(1, 50);
    let c2 = t.coinbase(2, 50);
    let c3 = t.coinbase(3, 50);
    let _r = t.coinbase(100, 5);
    let theft = t.tx(&[(c1, 0)], &[(10, 30), (1, 20)]);
    let agg = t.tx(&[(theft, 0), (c2, 0), (c3, 0)], &[(11, 130)]);
    let split = t.tx(&[(agg, 0)], &[(12, 40), (13, 40), (14, 50)]);
    let p1 = t.tx(&[(split, 2)], &[(100, 10), (15, 40)]);
    let _p2 = t.tx(&[(p1, 1)], &[(100, 10), (16, 30)]);
    let graph = TxGraph::build(&t.chain);
    let loot = [(theft as u32, 0)];
    let movements =
        assert_movement_walks_match(&t.chain, &naive_labels(&t), &graph, &loot, &[0, 1, 2, 3, 100]);
    assert_eq!(pattern_string(&movements), "F/S/P");
}

#[test]
fn snapshot_pairs_with_graph_from_the_same_chain() {
    let wb = workbench();
    let chain = wb.eco.chain.resolved();
    let snapshot = wb.snapshot();
    let graph = TxGraph::build(chain);
    assert!(snapshot.pairs_with_chain(graph.address_count(), graph.tx_count() as u64));

    // A graph over a different economy must be rejected.
    let mut other_cfg = SimConfig::tiny();
    other_cfg.blocks = 60;
    other_cfg.users = 10;
    let other = Workbench::build(other_cfg);
    let other_graph = TxGraph::build(other.eco.chain.resolved());
    assert!(!snapshot.pairs_with_chain(other_graph.address_count(), other_graph.tx_count() as u64));
}

#[test]
fn graph_is_shareable_across_reader_threads() {
    let wb = workbench();
    let chain = wb.eco.chain.resolved();
    let labels = change::identify(chain, &wb.refined_config());
    let graph = Arc::new(TxGraph::build(chain));
    let expected = follow_chain_indexed(&graph, &labels, 0, 100, FollowStrategy::LargestFallback);

    // One Arc<TxGraph>, eight readers, no locks: everyone sees the same
    // traversal.
    std::thread::scope(|s| {
        for _ in 0..8 {
            let graph = Arc::clone(&graph);
            let labels = &labels;
            let expected = &expected;
            s.spawn(move || {
                let got =
                    follow_chain_indexed(&graph, labels, 0, 100, FollowStrategy::LargestFallback);
                assert_eq!(&got, expected);
            });
        }
    });
}

#[test]
fn balance_series_identical_to_oracle_over_economy() {
    let wb = Workbench::build(SimConfig::default());
    let chain = wb.eco.chain.resolved();
    let snapshot = wb.snapshot();
    let n = chain.tx_count();
    let blocks = chain.block_count() as u64;
    for every in [1, 20, (blocks / 24).max(1)] {
        for tx_end in [0, 1, n / 2, n] {
            let got = balance_series_at(chain, tx_end, &snapshot, every);
            let oracle = balance_oracle::balance_series_at(chain, tx_end, &snapshot, every);
            // Whole points, so the key sets are compared too.
            assert_eq!(got, oracle, "every {every}, tx_end {tx_end}");
            if tx_end == n {
                let last = got.last().expect("samples");
                assert!(last.balances.len() > 3, "categories: {:?}", last.balances.keys());
            }
        }
        // A prefix's sinks include the full chain's: an address that spends
        // only after the cut is still a sink over the prefix. So a live
        // epoch's series agrees on supply but reads less active supply than
        // the finished chain will at the same heights. Its newest point is
        // sampled at the cut itself, part way into a block whose coinbase
        // already holds fees that the block's later transactions have not
        // paid yet, so it is left out.
        let prefix = balance_series_at(chain, n / 2, &snapshot, every);
        let full = balance_series_at(chain, n, &snapshot, every);
        assert!(prefix.len() > 1, "every {every}: no sample before the cut");
        let mut revised = 0;
        for p in &prefix[..prefix.len() - 1] {
            let f = full.iter().find(|f| f.height == p.height).expect("full series samples it");
            assert_eq!(p.supply, f.supply, "every {every}, height {}", p.height);
            assert!(p.active() <= f.active(), "every {every}, height {}", p.height);
            revised += usize::from(p.active() < f.active());
        }
        assert!(revised > 0, "every {every}: the prefix revises no sample");
    }
}
