//! Movement classification for stolen funds (Table 3's A/P/S/F notation).
//!
//! The paper manually classified how loot moved after each theft:
//! *aggregations* (many addresses into one), *peeling chains*, *splits*
//! (one amount over several addresses), and *folding* (aggregations mixing
//! in coins not clearly associated with the theft). This module re-derives
//! the classification automatically by walking forward from the loot
//! outputs.
//!
//! Taint propagation follows the *thief-controlled* side of each
//! transaction, as the paper's manual analysis did: through every output
//! of aggregations and splits (the thief shuffling their own coins), but
//! only through the change side of a peeling hop — the peel itself has
//! left the thief's control and is recorded as a recipient, not followed.

use crate::graph::{TaintScratch, TxGraph};
use fistful_chain::amount::Amount;
use fistful_chain::resolve::{AddressId, TxId};
use fistful_core::change::ChangeLabels;

/// One movement kind, as in Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MovementKind {
    /// Aggregation: several tainted inputs into one or two outputs.
    Aggregation,
    /// Peeling chain: a run of small-fan-out hops spending prior change.
    Peel,
    /// Split: one or two inputs fanned out over ≥3 outputs.
    Split,
    /// Folding: an aggregation whose inputs are not all tainted.
    Fold,
    /// Anything else (simple transfers).
    Transfer,
}

impl MovementKind {
    /// The paper's single-letter notation.
    pub fn letter(self) -> &'static str {
        match self {
            MovementKind::Aggregation => "A",
            MovementKind::Peel => "P",
            MovementKind::Split => "S",
            MovementKind::Fold => "F",
            MovementKind::Transfer => "T",
        }
    }
}

/// The taint walk's per-transaction record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaintedTx {
    /// The transaction.
    pub tx: TxId,
    /// Classification.
    pub kind: MovementKind,
    /// Number of tainted inputs.
    pub tainted_inputs: usize,
    /// Total inputs.
    pub total_inputs: usize,
    /// Value that left the thief's control at this hop
    /// (peel outputs), as `(address, value)`.
    pub departures: Vec<(AddressId, Amount)>,
}

/// Classifies a transaction shape from its input/output counts and how
/// many of its inputs are tainted — the A/P/S/F decision table.
pub fn classify_counts(ins: usize, outs: usize, tainted_inputs: usize) -> MovementKind {
    if ins >= 3 && outs <= 2 {
        if tainted_inputs < ins {
            MovementKind::Fold
        } else {
            MovementKind::Aggregation
        }
    } else if ins <= 2 && outs >= 3 {
        MovementKind::Split
    } else if ins == 1 && outs == 2 {
        MovementKind::Peel
    } else {
        MovementKind::Transfer
    }
}

/// Walks forward from specific loot outputs (`(tx, vout)` pairs) for up to
/// `max_txs` transactions over the columnar [`TxGraph`] index, classifying
/// each and recording departures.
///
/// `labels` (Heuristic 2) picks the change side at peeling hops; when a hop
/// is unlabelled, the largest output is followed (the remainder). The
/// taint frontier is a bitmap over flat output ids in `scratch`, which is
/// reset on entry, so callers that run many walks over one graph (the
/// batch taint engine hands each worker thread its own [`TaintScratch`])
/// pay for its allocations once.
pub fn classify_movements_indexed(
    graph: &TxGraph,
    loot: &[(TxId, u32)],
    labels: &ChangeLabels,
    max_txs: usize,
    scratch: &mut TaintScratch,
) -> Vec<TaintedTx> {
    scratch.reset();
    for &(tx, vout) in loot {
        let flat = graph.flat(tx, vout);
        scratch.taint(flat);
        scratch.queue.push_back(flat);
    }
    let mut out = Vec::new();

    while let Some(flat) = scratch.queue.pop_front() {
        if out.len() >= max_txs {
            break;
        }
        // Who spends this tainted output?
        let Some(next) = graph.spender_of(flat) else {
            continue;
        };
        if !scratch.visit(next) {
            continue;
        }
        let tainted_inputs = graph
            .inputs(next)
            .iter()
            .filter(|&&src| scratch.tainted.contains(src))
            .count();
        let total_inputs = graph.num_inputs(next);
        let outputs = graph.outputs(next);
        let kind = classify_counts(total_inputs, outputs.len(), tainted_inputs);

        // Decide which outputs stay under the thief's control. The peel
        // fallback keeps the *last* maximum among equal-value outputs.
        let mut departures: Vec<(AddressId, Amount)> = Vec::new();
        match kind {
            MovementKind::Aggregation | MovementKind::Fold | MovementKind::Split
            | MovementKind::Transfer => {
                for f in outputs {
                    scratch.taint(f);
                    scratch.queue.push_back(f);
                }
            }
            MovementKind::Peel => {
                let change_flat = match labels.change_vout(next) {
                    Some(v) => outputs.start + v,
                    None => outputs
                        .clone()
                        .max_by_key(|&f| graph.value_of(f))
                        .unwrap_or(outputs.start),
                };
                for f in outputs {
                    if f == change_flat {
                        scratch.taint(f);
                        scratch.queue.push_back(f);
                    } else {
                        departures.push((graph.address_of(f), graph.value_of(f)));
                    }
                }
            }
        }
        out.push(TaintedTx {
            tx: next,
            kind,
            tainted_inputs,
            total_inputs,
            departures,
        });
    }
    // Chain order for a readable narrative.
    out.sort_by_key(|t| t.tx);
    out
}

/// Collapses a movement list into the paper's pattern string, e.g. "A/P/S".
/// Transfers are skipped; consecutive identical kinds collapse.
pub fn pattern_string(movements: &[TaintedTx]) -> String {
    let mut letters: Vec<&str> = Vec::new();
    for m in movements {
        if m.kind == MovementKind::Transfer {
            continue;
        }
        let l = m.kind.letter();
        if letters.last() != Some(&l) {
            letters.push(l);
        }
    }
    letters.join("/")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow_oracle::classify_movements;
    use fistful_core::change::{identify, ChangeConfig};
    use fistful_core::testutil::TestChain;

    /// The taint walk from `loot` over `t`'s graph, with naive H2 labels
    /// and a fresh scratch.
    fn walk(t: &TestChain, loot: &[(TxId, u32)], max_txs: usize) -> Vec<TaintedTx> {
        let labels = identify(&t.chain, &ChangeConfig::naive());
        let graph = TxGraph::build(&t.chain);
        let mut scratch = TaintScratch::for_graph(&graph);
        classify_movements_indexed(&graph, loot, &labels, max_txs, &mut scratch)
    }

    #[test]
    fn classify_shapes() {
        let mut t = TestChain::new();
        let c1 = t.coinbase(1, 50);
        let c2 = t.coinbase(2, 50);
        let c3 = t.coinbase(3, 50);
        // Aggregation: 3 inputs → 1 output.
        let agg = t.tx(&[(c1, 0), (c2, 0), (c3, 0)], &[(4, 150)]);
        // Split: 1 input → 3 outputs.
        let split = t.tx(&[(agg, 0)], &[(5, 50), (6, 50), (7, 50)]);
        // Peel: 1 input → 2 outputs.
        let peel = t.tx(&[(split, 0)], &[(8, 10), (9, 40)]);

        let graph = TxGraph::build(&t.chain);
        let shape = |tx: usize, tainted: usize| {
            let tx = tx as TxId;
            classify_counts(graph.num_inputs(tx), graph.outputs(tx).len(), tainted)
        };
        assert_eq!(shape(agg, 3), MovementKind::Aggregation);
        assert_eq!(shape(agg, 2), MovementKind::Fold);
        assert_eq!(shape(split, 1), MovementKind::Split);
        assert_eq!(shape(peel, 1), MovementKind::Peel);
    }

    #[test]
    fn taint_walk_follows_thief_side_only() {
        let mut t = TestChain::new();
        let c1 = t.coinbase(1, 50);
        let c2 = t.coinbase(2, 50);
        let c3 = t.coinbase(3, 50);
        let _r = t.coinbase(100, 5);
        // The "theft": victim pays the thief (vout 0), keeps change.
        let theft = t.tx(&[(c1, 0)], &[(10, 30), (1, 20)]);
        // Thief folds with other funds.
        let agg = t.tx(&[(theft, 0), (c2, 0), (c3, 0)], &[(11, 130)]);
        // Then peels: recipient 100 (seen), change cascades.
        let p1 = t.tx(&[(agg, 0)], &[(100, 10), (12, 120)]);
        let p2 = t.tx(&[(p1, 1)], &[(100, 10), (13, 110)]);
        // The VICTIM's change also moves — must NOT be followed.
        let victim_spend = t.tx(&[(theft, 1)], &[(100, 10), (14, 10)]) as u32;

        let movements = walk(&t, &[(theft as u32, 0)], 100);
        let txs: Vec<u32> = movements.iter().map(|m| m.tx).collect();
        assert!(txs.contains(&(agg as u32)));
        assert!(txs.contains(&(p1 as u32)));
        assert!(txs.contains(&(p2 as u32)));
        assert!(
            !txs.contains(&victim_spend),
            "victim change spend not followed: {txs:?}"
        );
        assert_eq!(movements.len(), 3);
        assert_eq!(pattern_string(&movements), "F/P");

        // Departures recorded at the peel hops.
        let p1_m = movements.iter().find(|m| m.tx == p1 as u32).unwrap();
        assert_eq!(p1_m.departures.len(), 1);
        assert_eq!(p1_m.departures[0].0, t.id(100));
    }

    #[test]
    fn peel_follows_change_label_not_peel() {
        let mut t = TestChain::new();
        let c1 = t.coinbase(1, 1000);
        let _r = t.coinbase(100, 5);
        let theft = t.tx(&[(c1, 0)], &[(10, 900), (1, 100)]);
        // Peel hop: recipient 100 seen, change fresh (labelled).
        let p1 = t.tx(&[(theft, 0)], &[(100, 10), (11, 890)]);
        // The recipient spends their peel — NOT part of the thief walk.
        let _recipient_spend = t.tx(&[(p1, 0)], &[(100, 10)]);
        // The thief continues from the change.
        let p2 = t.tx(&[(p1, 1)], &[(100, 10), (12, 880)]);

        let movements = walk(&t, &[(theft as u32, 0)], 100);
        let txs: Vec<u32> = movements.iter().map(|m| m.tx).collect();
        assert!(txs.contains(&(p1 as u32)));
        assert!(txs.contains(&(p2 as u32)));
        assert_eq!(movements.len(), 2, "recipient's spend excluded: {txs:?}");
    }

    /// An unlabelled peel hop with equal-value outputs follows the *last*
    /// maximum: vout 1 stays tainted and vout 0 departs. (The peel walk,
    /// `follow_chain_indexed`, breaks the same tie to the lowest vout.)
    #[test]
    fn unlabelled_equal_value_peel_follows_the_last_vout() {
        let mut t = TestChain::new();
        let c1 = t.coinbase(1, 100);
        let theft = t.tx(&[(c1, 0)], &[(10, 90), (1, 10)]);
        // Both outputs fresh, so H2 labels neither.
        let hop = t.tx(&[(theft, 0)], &[(11, 45), (12, 45)]);
        let next = t.tx(&[(hop, 1)], &[(13, 45)]);
        let _departed = t.tx(&[(hop, 0)], &[(14, 45)]);
        let labels = identify(&t.chain, &ChangeConfig::naive());
        assert_eq!(labels.change_vout(hop as u32), None);

        let movements = walk(&t, &[(theft as u32, 0)], 100);
        let txs: Vec<u32> = movements.iter().map(|m| m.tx).collect();
        assert_eq!(txs, vec![hop as u32, next as u32]);
        assert_eq!(movements[0].kind, MovementKind::Peel);
        assert_eq!(movements[0].departures, vec![(t.id(11), Amount::from_btc(45))]);
    }

    /// Hand-built shapes where the oracle and the graph walk must agree
    /// record for record, including the max_txs bound.
    #[test]
    fn indexed_matches_legacy_walk() {
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
        let labels = identify(&t.chain, &ChangeConfig::naive());
        let graph = TxGraph::build(&t.chain);
        let mut scratch = TaintScratch::for_graph(&graph);
        let loot = [(theft as u32, 0)];
        for max_txs in [0, 1, 2, 3, 100] {
            let legacy = classify_movements(&t.chain, &loot, &labels, max_txs);
            let indexed =
                classify_movements_indexed(&graph, &loot, &labels, max_txs, &mut scratch);
            assert_eq!(legacy, indexed, "max_txs {max_txs}");
        }
        let movements = classify_movements_indexed(&graph, &loot, &labels, 100, &mut scratch);
        assert_eq!(pattern_string(&movements), "F/S/P");
    }

    /// A reused scratch must leave no state behind between walks.
    #[test]
    fn scratch_reuse_is_stateless() {
        let mut t = TestChain::new();
        let c1 = t.coinbase(1, 100);
        let _r = t.coinbase(100, 5);
        let theft = t.tx(&[(c1, 0)], &[(10, 90), (1, 10)]);
        let p1 = t.tx(&[(theft, 0)], &[(100, 10), (11, 80)]);
        let _p2 = t.tx(&[(p1, 1)], &[(100, 10), (12, 70)]);
        let labels = identify(&t.chain, &ChangeConfig::naive());
        let graph = TxGraph::build(&t.chain);
        let mut scratch = TaintScratch::for_graph(&graph);
        let loot = [(theft as u32, 0)];
        let first = classify_movements_indexed(&graph, &loot, &labels, 100, &mut scratch);
        let second = classify_movements_indexed(&graph, &loot, &labels, 100, &mut scratch);
        assert_eq!(first, second);
        assert_eq!(first, walk(&t, &loot, 100));
    }

    #[test]
    fn pattern_collapses_runs() {
        let mut t = TestChain::new();
        let c1 = t.coinbase(1, 1000);
        let _r = t.coinbase(100, 5);
        let theft = t.tx(&[(c1, 0)], &[(10, 900), (1, 100)]);
        let mut prev = (theft, 0u32);
        let mut rem = 900;
        for _ in 0..5 {
            rem -= 10;
            let h = t.tx(&[(prev.0, prev.1)], &[(100, 10), (11, rem)]);
            prev = (h, 1);
        }
        let movements = walk(&t, &[(theft as u32, 0)], 100);
        assert_eq!(pattern_string(&movements), "P");
        assert_eq!(movements.len(), 5);
    }

    #[test]
    fn max_txs_bounds_walk() {
        let mut t = TestChain::new();
        let c1 = t.coinbase(1, 1000);
        let _r = t.coinbase(100, 5);
        let theft = t.tx(&[(c1, 0)], &[(10, 900), (1, 100)]);
        let mut prev = (theft, 0u32);
        let mut rem = 900;
        for _ in 0..10 {
            rem -= 10;
            let h = t.tx(&[(prev.0, prev.1)], &[(100, 10), (11, rem)]);
            prev = (h, 1);
        }
        let movements = walk(&t, &[(theft as u32, 0)], 3);
        assert!(movements.len() <= 4);
    }
}
