//! End-to-end theft tracking: Table 3 of the paper.
//!
//! For each theft, the paper reports how much was stolen, how the money
//! moved (A/P/S/F), and whether any of it reached a known exchange. This
//! module derives all three from the chain, the loot outputs, and an
//! address directory.

use crate::categories::ServiceResolver;
use crate::graph::{TaintScratch, TxGraph};
use crate::movement::{classify_movements_indexed, pattern_string, TaintedTx};
use fistful_chain::amount::Amount;
use fistful_chain::resolve::TxId;
use fistful_core::change::ChangeLabels;

/// The derived trace of one theft.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TheftTrace {
    /// Transactions the walk visited, classified.
    pub movements: Vec<TaintedTx>,
    /// The paper-style pattern string, e.g. "A/P/S".
    pub pattern: String,
    /// Total value that departed to exchange-category addresses.
    pub to_exchanges: Amount,
    /// Number of distinct exchange services reached.
    pub exchanges_reached: usize,
    /// Value still sitting unspent in the loot outputs themselves
    /// (never moved — the trojan case).
    pub dormant: Amount,
}

impl TheftTrace {
    /// Whether any loot reached an exchange (Table 3's last column).
    pub fn reached_exchange(&self) -> bool {
        self.exchanges_reached > 0
    }
}

/// Tracks a theft from its loot outputs (`(tx, vout)` pairs) over the
/// columnar [`TxGraph`] index: the movement walk
/// ([`classify_movements_indexed`], on the caller-supplied reusable
/// [`TaintScratch`]), the loot that never moved, and the value that
/// reached exchanges.
///
/// `directory` is any [`ServiceResolver`] — a live
/// [`AddressDirectory`](crate::categories::AddressDirectory) or a frozen
/// [`ClusterSnapshot`](fistful_core::snapshot::ClusterSnapshot).
pub fn track_theft_indexed(
    graph: &TxGraph,
    loot: &[(TxId, u32)],
    labels: &ChangeLabels,
    directory: &impl ServiceResolver,
    max_txs: usize,
    scratch: &mut TaintScratch,
) -> TheftTrace {
    let movements = classify_movements_indexed(graph, loot, labels, max_txs, scratch);
    let mut dormant = Amount::ZERO;
    for &(t, v) in loot {
        let flat = graph.flat(t, v);
        if graph.spender_of(flat).is_none() {
            dormant = dormant.checked_add(graph.value_of(flat)).expect("overflow");
        }
    }
    summarize(movements, dormant, directory)
}

/// The batch multi-source taint engine: tracks `thefts.len()` independent
/// thefts concurrently over one shared graph.
///
/// Workers are spawned with [`std::thread::scope`]; each owns one
/// [`TaintScratch`] (allocated once, reset per theft) and pulls theft
/// indices from a shared atomic counter, so an expensive case does not
/// stall the rest of the batch. Results land in input order. With
/// `threads <= 1` this degrades to a sequential loop that still reuses a
/// single scratch — the right mode on one core. `benchmark/` reports the
/// batch as `flow.theft.batch_track_us` on `batch_cluster`.
///
/// The graph, labels, and directory are shared immutably across workers —
/// wrap the graph in an [`Arc`](std::sync::Arc) if the caller also needs
/// it on `'static` threads elsewhere.
pub fn track_thefts_batch(
    graph: &TxGraph,
    thefts: &[Vec<(TxId, u32)>],
    labels: &ChangeLabels,
    directory: &(impl ServiceResolver + Sync),
    max_txs: usize,
    threads: usize,
) -> Vec<TheftTrace> {
    let workers = threads.max(1).min(thefts.len().max(1));
    if workers <= 1 {
        let mut scratch = TaintScratch::for_graph(graph);
        return thefts
            .iter()
            .map(|loot| track_theft_indexed(graph, loot, labels, directory, max_txs, &mut scratch))
            .collect();
    }

    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut done: Vec<(usize, TheftTrace)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut scratch = TaintScratch::for_graph(graph);
                    let mut produced = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(loot) = thefts.get(i) else { break };
                        let trace = track_theft_indexed(
                            graph, loot, labels, directory, max_txs, &mut scratch,
                        );
                        produced.push((i, trace));
                    }
                    produced
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("taint worker panicked"))
            .collect()
    });
    done.sort_by_key(|&(i, _)| i);
    debug_assert_eq!(done.len(), thefts.len());
    done.into_iter().map(|(_, trace)| trace).collect()
}

/// Folds a movement list plus the dormant total into a [`TheftTrace`],
/// summing the departures that land on exchange-category addresses.
fn summarize(
    movements: Vec<TaintedTx>,
    dormant: Amount,
    directory: &impl ServiceResolver,
) -> TheftTrace {
    let pattern = pattern_string(&movements);

    // Exchange arrivals: departures landing on exchange-category addresses.
    let mut to_exchanges = Amount::ZERO;
    let mut exchange_services = std::collections::HashSet::new();
    for m in &movements {
        for &(addr, value) in &m.departures {
            if directory.category(addr) == Some("exchange") {
                to_exchanges = to_exchanges.checked_add(value).expect("overflow");
                if let Some(s) = directory.service(addr) {
                    exchange_services.insert(s.to_string());
                }
            }
        }
    }

    TheftTrace {
        movements,
        pattern,
        to_exchanges,
        exchanges_reached: exchange_services.len(),
        dormant,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::categories::AddressDirectory;
    use fistful_core::change::{identify, ChangeConfig};
    use crate::flow_oracle::track_theft;
    use fistful_core::testutil::TestChain;

    /// Builds: two thefts → folding aggregation (one clean input) → a peel
    /// to an exchange address (when `with_peel`).
    fn theft_chain(with_peel: bool) -> (TestChain, (u32, u32), (u32, u32)) {
        let mut t = TestChain::new();
        let c1 = t.coinbase(1, 100);
        let c2 = t.coinbase(2, 100);
        let c3 = t.coinbase(3, 100); // thief's clean side funds
        let _gox = t.coinbase(50, 5); // exchange address, pre-seeded
        let theft = t.tx(&[(c1, 0)], &[(10, 80), (1, 20)]);
        let theft2 = t.tx(&[(c2, 0)], &[(11, 90), (2, 10)]);
        // Fold: both loots plus the clean funds.
        let agg = t.tx(&[(theft, 0), (theft2, 0), (c3, 0)], &[(12, 270)]);
        if with_peel {
            let _peel = t.tx(&[(agg, 0)], &[(50, 30), (13, 240)]);
        }
        (t, (theft as u32, 0), (theft2 as u32, 0))
    }

    fn exchange_dir(t: &TestChain) -> AddressDirectory {
        let n = t.chain.address_count();
        let mut pairs = vec![(None, None); n];
        pairs[t.id(50) as usize] = (Some("Mt. Gox".into()), Some("exchange".into()));
        AddressDirectory::from_pairs(pairs)
    }

    /// Tracks `loot` over `t`'s graph, with naive H2 labels.
    fn track(t: &TestChain, loot: &[(TxId, u32)], dir: &AddressDirectory) -> TheftTrace {
        let labels = identify(&t.chain, &ChangeConfig::naive());
        let graph = TxGraph::build(&t.chain);
        let mut scratch = TaintScratch::for_graph(&graph);
        track_theft_indexed(&graph, loot, &labels, dir, 100, &mut scratch)
    }

    #[test]
    fn traces_theft_to_exchange() {
        let (t, a, b) = theft_chain(true);
        let trace = track(&t, &[a, b], &exchange_dir(&t));
        assert!(trace.reached_exchange());
        assert_eq!(trace.to_exchanges, Amount::from_btc(30));
        assert_eq!(trace.exchanges_reached, 1);
        assert_eq!(trace.pattern, "F/P");
    }

    #[test]
    fn no_exchange_without_peel() {
        let (t, a, b) = theft_chain(false);
        let trace = track(&t, &[a, b], &exchange_dir(&t));
        assert!(!trace.reached_exchange());
        assert_eq!(trace.to_exchanges, Amount::ZERO);
        assert_eq!(trace.pattern, "F");
    }

    #[test]
    fn indexed_and_batch_match_legacy() {
        let (t, a, b) = theft_chain(true);
        let dir = exchange_dir(&t);
        let labels = identify(&t.chain, &ChangeConfig::naive());
        let graph = TxGraph::build_with_threads(&t.chain, 2);

        let legacy = track_theft(&t.chain, &[a, b], &labels, &dir, 100);
        let mut scratch = TaintScratch::for_graph(&graph);
        let indexed = track_theft_indexed(&graph, &[a, b], &labels, &dir, 100, &mut scratch);
        assert_eq!(legacy, indexed);

        // The batch engine agrees case-for-case at every thread count,
        // including more workers than thefts.
        let thefts = vec![vec![a, b], vec![a], vec![b]];
        let expected: Vec<TheftTrace> = thefts
            .iter()
            .map(|loot| track_theft(&t.chain, loot, &labels, &dir, 100))
            .collect();
        for threads in [1, 2, 4, 8] {
            let batch = track_thefts_batch(&graph, &thefts, &labels, &dir, 100, threads);
            assert_eq!(batch, expected, "threads {threads}");
        }
    }

    #[test]
    fn batch_handles_empty_input() {
        let (t, ..) = theft_chain(false);
        let dir = exchange_dir(&t);
        let labels = identify(&t.chain, &ChangeConfig::naive());
        let graph = TxGraph::build(&t.chain);
        assert!(track_thefts_batch(&graph, &[], &labels, &dir, 100, 4).is_empty());
    }

    #[test]
    fn dormant_loot_counted() {
        let mut t = TestChain::new();
        let c1 = t.coinbase(1, 100);
        let theft = t.tx(&[(c1, 0)], &[(10, 80), (1, 20)]);
        // Nothing moves.
        let dir = AddressDirectory::from_pairs(vec![(None, None); t.chain.address_count()]);
        let trace = track(&t, &[(theft as u32, 0)], &dir);
        assert_eq!(trace.movements.len(), 0);
        assert_eq!(trace.pattern, "");
        // Only the loot output (80) counts as dormant; the victim's change
        // is theirs.
        assert_eq!(trace.dormant, Amount::from_btc(80));
        assert!(!trace.reached_exchange());
    }
}
