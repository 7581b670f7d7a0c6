//! Peeling-chain traversal.
//!
//! §5 of the paper: "at each hop, we look at the two output addresses in
//! the transaction. If one of these output addresses is a change address,
//! we can follow the chain to the next hop by following the change address
//! (i.e., the next hop is the transaction in which this change address
//! spends its bitcoins), and can identify the meaningful recipient in the
//! transaction as the other output address (the 'peel')."

use crate::graph::TxGraph;
use fistful_chain::amount::Amount;
use fistful_chain::resolve::{AddressId, TxId};
use fistful_core::change::ChangeLabels;

/// How to pick the change output at each hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FollowStrategy {
    /// Only follow Heuristic-2 change labels; stop at unlabelled hops.
    Strict,
    /// Follow H2 labels; when a hop is unlabelled (e.g. both outputs
    /// fresh), fall back to the largest output — peels are small relative
    /// to the remainder. Among equal-value outputs the lowest vout wins
    /// (an explicit, deterministic tie-break). Fallback hops are flagged
    /// in the result.
    LargestFallback,
}

/// One hop of a peeling chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hop {
    /// The transaction at this hop.
    pub tx: TxId,
    /// The change output index followed to the next hop.
    pub change_vout: u32,
    /// The peel outputs: everything except the change.
    pub peels: Vec<(AddressId, Amount)>,
    /// True if this hop used the largest-output fallback.
    pub fallback: bool,
}

/// A traversed peeling chain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PeelChain {
    /// Hops in order.
    pub hops: Vec<Hop>,
    /// Why the traversal stopped.
    pub stopped: StopReason,
}

/// Why a chain traversal ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StopReason {
    /// The hop limit was reached.
    #[default]
    HopLimit,
    /// The change output is unspent (chain still live / parked).
    UnspentChange,
    /// No change output could be identified (strict mode).
    NoChangeIdentified,
    /// The transaction had no outputs to follow (should not happen on a
    /// validated chain).
    Malformed,
}

impl PeelChain {
    /// Total value peeled off across all hops.
    pub fn total_peeled(&self) -> Amount {
        self.hops
            .iter()
            .flat_map(|h| h.peels.iter().map(|(_, v)| *v))
            .sum()
    }

    /// Number of hops that needed the fallback.
    pub fn fallback_hops(&self) -> usize {
        self.hops.iter().filter(|h| h.fallback).count()
    }
}

/// Follows a peeling chain starting at transaction `start`, for at most
/// `max_hops` hops, over the columnar [`TxGraph`] index: every hop is a
/// handful of flat-array reads.
///
/// Build the graph once ([`TxGraph::build`]) and reuse it across queries;
/// this is the traversal `repro tab2` runs on.
pub fn follow_chain_indexed(
    graph: &TxGraph,
    labels: &ChangeLabels,
    start: TxId,
    max_hops: usize,
    strategy: FollowStrategy,
) -> PeelChain {
    let mut out = PeelChain::default();
    let mut tx_id = start;
    for _ in 0..max_hops {
        let outputs = graph.outputs(tx_id);
        if outputs.is_empty() {
            out.stopped = StopReason::Malformed;
            return out;
        }
        // Identify the change output.
        let (change_vout, fallback) = match labels.change_vout(tx_id) {
            Some(v) => (v, false),
            None => match strategy {
                FollowStrategy::Strict => {
                    out.stopped = StopReason::NoChangeIdentified;
                    return out;
                }
                FollowStrategy::LargestFallback => {
                    // `max_by_key` returns the *last* maximum, which would
                    // make the choice among equal-value outputs depend on
                    // output order. Tie-break explicitly: the lowest vout
                    // wins.
                    let flat = outputs
                        .clone()
                        .rev()
                        .max_by_key(|&f| graph.value_of(f))
                        .expect("non-empty outputs");
                    (flat - outputs.start, true)
                }
            },
        };
        let change_flat = outputs.start + change_vout;
        let peels = outputs
            .clone()
            .filter(|&f| f != change_flat)
            .map(|f| (graph.address_of(f), graph.value_of(f)))
            .collect();
        out.hops.push(Hop { tx: tx_id, change_vout, peels, fallback });

        // Next hop: the transaction in which the change is spent.
        match graph.spender_of(change_flat) {
            Some(next) => tx_id = next,
            None => {
                out.stopped = StopReason::UnspentChange;
                return out;
            }
        }
    }
    out.stopped = StopReason::HopLimit;
    out
}

/// Follows many peeling chains over one shared index — the multi-source
/// form `repro tab2` uses for the three Silk Road dissolution chains.
pub fn follow_chains_indexed(
    graph: &TxGraph,
    labels: &ChangeLabels,
    starts: &[TxId],
    max_hops: usize,
    strategy: FollowStrategy,
) -> Vec<PeelChain> {
    starts
        .iter()
        .map(|&s| follow_chain_indexed(graph, labels, s, max_hops, strategy))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fistful_core::change::{identify, ChangeConfig};
    use crate::flow_oracle::follow_chain;
    use fistful_core::testutil::TestChain;

    /// Builds a 3-hop peeling chain: 1000 → peel 10 → peel 20 → peel 30.
    /// Recipients are pre-seeded (seen) addresses 100-102; change cascades
    /// through fresh addresses.
    fn peeling_chain() -> (TestChain, usize) {
        let mut t = TestChain::new();
        let funding = t.coinbase(1, 1000);
        let _r0 = t.coinbase(100, 5);
        let _r1 = t.coinbase(101, 5);
        let _r2 = t.coinbase(102, 5);
        let hop1 = t.tx(&[(funding, 0)], &[(100, 10), (10, 990)]);
        let hop2 = t.tx(&[(hop1, 1)], &[(101, 20), (11, 970)]);
        let _hop3 = t.tx(&[(hop2, 1)], &[(102, 30), (12, 940)]);
        (t, hop1)
    }

    /// Follows the chain from `start` over `t`'s graph, with naive H2 labels.
    fn follow(t: &TestChain, start: usize, max_hops: usize, strategy: FollowStrategy) -> PeelChain {
        let labels = identify(&t.chain, &ChangeConfig::naive());
        follow_chain_indexed(&TxGraph::build(&t.chain), &labels, start as u32, max_hops, strategy)
    }

    #[test]
    fn follows_labelled_chain() {
        let (t, start) = peeling_chain();
        let chain = follow(&t, start, 100, FollowStrategy::Strict);
        assert_eq!(chain.hops.len(), 3);
        assert_eq!(chain.stopped, StopReason::UnspentChange);
        assert_eq!(chain.fallback_hops(), 0);
        // Peels: 10 + 20 + 30 BTC.
        assert_eq!(chain.total_peeled(), Amount::from_btc(60));
        // Each hop's peel recipient is the seen address.
        assert_eq!(chain.hops[0].peels[0].0, t.id(100));
        assert_eq!(chain.hops[1].peels[0].0, t.id(101));
        assert_eq!(chain.hops[2].peels[0].0, t.id(102));
    }

    #[test]
    fn hop_limit_respected() {
        let (t, start) = peeling_chain();
        let chain = follow(&t, start, 2, FollowStrategy::Strict);
        assert_eq!(chain.hops.len(), 2);
        assert_eq!(chain.stopped, StopReason::HopLimit);
    }

    #[test]
    fn strict_stops_at_ambiguous_hop() {
        let mut t = TestChain::new();
        let funding = t.coinbase(1, 1000);
        let _r0 = t.coinbase(100, 5);
        let hop1 = t.tx(&[(funding, 0)], &[(100, 10), (10, 990)]);
        // Ambiguous hop: both outputs fresh.
        let _hop2 = t.tx(&[(hop1, 1)], &[(200, 20), (11, 970)]);
        let chain = follow(&t, hop1, 100, FollowStrategy::Strict);
        assert_eq!(chain.hops.len(), 1);
        assert_eq!(chain.stopped, StopReason::NoChangeIdentified);
    }

    #[test]
    fn fallback_follows_largest_output() {
        let mut t = TestChain::new();
        let funding = t.coinbase(1, 1000);
        let _r0 = t.coinbase(100, 5);
        let hop1 = t.tx(&[(funding, 0)], &[(100, 10), (10, 990)]);
        // Ambiguous hop (both fresh), remainder is larger.
        let hop2 = t.tx(&[(hop1, 1)], &[(200, 20), (11, 970)]);
        // Chain continues from the remainder.
        let _hop3 = t.tx(&[(hop2, 1)], &[(100, 30), (12, 940)]);
        let chain = follow(&t, hop1, 100, FollowStrategy::LargestFallback);
        assert_eq!(chain.hops.len(), 3);
        assert_eq!(chain.fallback_hops(), 1);
        assert!(chain.hops[1].fallback);
        assert_eq!(chain.hops[1].peels[0].0, t.id(200));
    }

    #[test]
    fn fallback_tie_breaks_to_lowest_vout() {
        let mut t = TestChain::new();
        let funding = t.coinbase(1, 1000);
        // Both outputs fresh (no label) and equal-value: the fallback must
        // deterministically follow vout 0, not whichever sorts last.
        let hop1 = t.tx(&[(funding, 0)], &[(10, 495), (11, 495)]);
        let chain = follow(&t, hop1, 100, FollowStrategy::LargestFallback);
        assert_eq!(chain.hops.len(), 1);
        assert!(chain.hops[0].fallback);
        assert_eq!(chain.hops[0].change_vout, 0);
        assert_eq!(chain.hops[0].peels, vec![(t.id(11), Amount::from_btc(495))]);
    }

    #[test]
    fn indexed_matches_legacy_hop_for_hop() {
        let (t, _) = peeling_chain();
        let labels = identify(&t.chain, &ChangeConfig::naive());
        let graph = TxGraph::build_with_threads(&t.chain, 2);
        for start in 0..t.chain.tx_count() as u32 {
            for strategy in [FollowStrategy::Strict, FollowStrategy::LargestFallback] {
                for max_hops in [0, 1, 2, 100] {
                    let legacy = follow_chain(&t.chain, &labels, start, max_hops, strategy);
                    let indexed =
                        follow_chain_indexed(&graph, &labels, start, max_hops, strategy);
                    assert_eq!(legacy, indexed, "start {start} {strategy:?} {max_hops}");
                }
            }
        }
    }

    /// The oracle breaks the equal-value tie the same way: lowest vout.
    #[test]
    fn indexed_fallback_tie_breaks_to_lowest_vout() {
        let mut t = TestChain::new();
        let funding = t.coinbase(1, 1000);
        let hop1 = t.tx(&[(funding, 0)], &[(10, 495), (11, 495)]) as u32;
        let labels = identify(&t.chain, &ChangeConfig::naive());
        let strategy = FollowStrategy::LargestFallback;
        let legacy = follow_chain(&t.chain, &labels, hop1, 100, strategy);
        assert_eq!(legacy.hops[0].change_vout, 0);
        assert_eq!(legacy.hops[0].peels, vec![(t.id(11), Amount::from_btc(495))]);
        let graph = TxGraph::build(&t.chain);
        assert_eq!(follow_chain_indexed(&graph, &labels, hop1, 100, strategy), legacy);
    }

    #[test]
    fn follow_chains_indexed_covers_every_start() {
        let (t, start) = peeling_chain();
        let labels = identify(&t.chain, &ChangeConfig::naive());
        let graph = TxGraph::build(&t.chain);
        let starts = [start as u32, start as u32 + 1];
        let chains =
            follow_chains_indexed(&graph, &labels, &starts, 100, FollowStrategy::Strict);
        assert_eq!(chains.len(), 2);
        assert_eq!(chains[0].hops.len(), 3);
        assert_eq!(chains[1].hops.len(), 2);
    }

    #[test]
    fn multi_output_peel_collects_all_non_change() {
        let mut t = TestChain::new();
        let funding = t.coinbase(1, 1000);
        let _r0 = t.coinbase(100, 5);
        let _r1 = t.coinbase(101, 5);
        // One tx pays two seen recipients plus fresh change.
        let hop1 = t.tx(&[(funding, 0)], &[(100, 10), (101, 15), (10, 975)]);
        let chain = follow(&t, hop1, 100, FollowStrategy::Strict);
        assert_eq!(chain.hops[0].peels.len(), 2);
        assert_eq!(chain.total_peeled(), Amount::from_btc(25));
    }
}
