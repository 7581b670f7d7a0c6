//! Differential tests for the columnar transaction-graph index: the
//! graph-indexed traversals must be hop-for-hop and record-for-record
//! identical to the resolver walks of the test oracle
//! (`common/flow_oracle.rs`), on a whole simulated economy and on small
//! hand-built chains — and the batch taint engine must agree with both at
//! every thread count.

#[path = "common/flow_oracle.rs"]
mod flow_oracle;

use fistful::chain::resolve::{ResolvedChain, TxId};
use fistful::core::change::{self, ChangeConfig, ChangeLabels};
use fistful::core::testutil::TestChain;
use fistful::flow::balance_series_at;
use fistful::flow::categories::{AddressDirectory, ServiceResolver};
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

/// A directory that names `t`'s address `n` as the exchange Mt. Gox.
fn gox_directory(t: &TestChain, n: u64) -> AddressDirectory {
    let mut pairs = vec![(None, None); t.chain.address_count()];
    pairs[t.id(n) as usize] = (Some("Mt. Gox".into()), Some("exchange".into()));
    AddressDirectory::from_pairs(pairs)
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
    directory: &(impl ServiceResolver + Sync),
    loots: &[Vec<(TxId, u32)>],
    bounds: &[usize],
) {
    for &max_txs in bounds {
        let oracle: Vec<_> = loots
            .iter()
            .map(|loot| track_theft(chain, loot, labels, directory, max_txs))
            .collect();
        let mut scratch = TaintScratch::for_graph(graph);
        let indexed: Vec<_> = loots
            .iter()
            .map(|loot| track_theft_indexed(graph, loot, labels, directory, max_txs, &mut scratch))
            .collect();
        assert_eq!(indexed, oracle, "max_txs {max_txs}");
        for threads in [1, 2, 4, 8] {
            let batch = track_thefts_batch(graph, loots, labels, directory, max_txs, threads);
            assert_eq!(batch, oracle, "threads {threads} max_txs {max_txs}");
        }
    }
}

#[test]
fn graph_structure_matches_resolver() {
    let wb = workbench();
    let chain = wb.eco.chain.resolved();
    let graph = TxGraph::build_with_threads(chain, 3);

    assert_eq!(graph.tx_count(), chain.tx_count());
    assert_eq!(graph.address_count(), chain.address_count());
    assert_eq!(graph.output_count(), chain.total_output_count());
    assert_eq!(graph.input_count(), chain.total_input_count());

    // Every output's address/value/spender and every input's source agree
    // with the resolver, and the thread count cannot change the result.
    for (t, tx) in chain.txs.iter().enumerate() {
        let t = t as u32;
        for (v, o) in tx.outputs.iter().enumerate() {
            let flat = graph.flat(t, v as u32);
            assert_eq!(graph.address_of(flat), o.address);
            assert_eq!(graph.value_of(flat), o.value);
            assert_eq!(graph.spender(t, v as u32), o.spent_by);
            assert_eq!(graph.outpoint(flat), (t, v as u32));
        }
        for (slot, input) in tx.inputs.iter().enumerate() {
            assert_eq!(graph.inputs(t)[slot], graph.flat(input.prev_tx, input.prev_vout));
        }
    }
    for a in 0..chain.address_count() as u32 {
        assert_eq!(graph.first_seen(a), Some(chain.first_seen(a)));
        assert_eq!(graph.last_spent(a), chain.last_spent_in(a));
    }
    assert_eq!(graph, TxGraph::build_with_threads(chain, 1));
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
    let graph = TxGraph::build_with_threads(&t.chain, 2);
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
    let rows = service_arrivals(&chains, &gox_directory(&t, 100));
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
    let graph = TxGraph::build_with_threads(&t.chain, 2);
    let loots = [vec![a, b], vec![a], vec![b]];
    let dir = gox_directory(&t, 50);
    assert_theft_traces_match(&t.chain, &naive_labels(&t), &graph, &dir, &loots, &[100]);
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
    let graph = TxGraph::build_with_threads(&t.chain, 2);
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
            let oracle = flow_oracle::balance_series_at(chain, tx_end, &snapshot, every);
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
