//! Heuristic 1: multi-input linking.
//!
//! "If two (or more) addresses are used as inputs to the same transaction,
//! then they are controlled by the same user." This is an inherent property
//! of the protocol — every input must be signed by its owner — and has been
//! used by all prior work the paper builds on.

use crate::union_find::UnionFind;
use fistful_chain::resolve::{ResolvedChain, ResolvedTx};

/// Statistics from a Heuristic 1 pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct H1Stats {
    /// Transactions examined (excluding coinbases).
    pub transactions: usize,
    /// Transactions with two or more distinct input addresses.
    pub multi_input_transactions: usize,
    /// Union operations that actually merged two sets.
    pub merges: usize,
}

/// Links one transaction's input addresses in `uf`, updating `stats`: the
/// Heuristic 1 step, shared by the batch [`apply`] pass and the online
/// ingest pipeline (`crate::incremental::sharded`), which calls it for each
/// transaction in chain order at every epoch's reconcile.
pub fn link_tx(tx: &ResolvedTx, uf: &mut UnionFind, stats: &mut H1Stats) {
    if tx.is_coinbase {
        return;
    }
    stats.transactions += 1;
    let mut it = tx.inputs.iter();
    let Some(first) = it.next() else { return };
    let mut multi = false;
    for input in it {
        if input.address != first.address {
            multi = true;
        }
        if uf.union(first.address, input.address) {
            stats.merges += 1;
        }
    }
    if multi {
        stats.multi_input_transactions += 1;
    }
}

/// Applies Heuristic 1 over the whole chain, linking every transaction's
/// input addresses in `uf` (which must be sized to
/// `chain.address_count()`).
pub fn apply(chain: &ResolvedChain, uf: &mut UnionFind) -> H1Stats {
    assert!(
        uf.len() >= chain.address_count(),
        "union-find too small for chain"
    );
    let mut stats = H1Stats::default();
    for tx in &chain.txs {
        link_tx(tx, uf, &mut stats);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use fistful_chain::address::Address;
    use fistful_chain::amount::Amount;
    use fistful_chain::transaction::{OutPoint, Transaction, TxIn, TxOut};

    /// Builds a tiny chain: coinbases to three addresses, then one tx that
    /// co-spends two of them.
    fn tiny_chain() -> ResolvedChain {
        let mut rc = ResolvedChain::new();
        let a = Address::from_seed(1);
        let b = Address::from_seed(2);
        let c = Address::from_seed(3);
        let mut fundings = Vec::new();
        for (i, addr) in [a, b, c].into_iter().enumerate() {
            let cb = Transaction {
                version: 1,
                inputs: vec![TxIn {
                    prevout: OutPoint::null(),
                    witness: (i as u64).to_le_bytes().to_vec(),
                }],
                outputs: vec![TxOut { value: Amount::from_btc(50), address: addr }],
                lock_time: 0,
            };
            rc.add_tx(&cb, cb.txid(), i as u64, i as u64 * 600);
            fundings.push(cb);
        }
        // Co-spend a and b.
        let spend = Transaction {
            version: 1,
            inputs: vec![
                TxIn::unsigned(OutPoint { txid: fundings[0].txid(), vout: 0 }),
                TxIn::unsigned(OutPoint { txid: fundings[1].txid(), vout: 0 }),
            ],
            outputs: vec![TxOut {
                value: Amount::from_btc(100),
                address: Address::from_seed(4),
            }],
            lock_time: 0,
        };
        rc.add_tx(&spend, spend.txid(), 3, 1800);
        rc
    }

    #[test]
    fn links_co_spent_inputs() {
        let rc = tiny_chain();
        let mut uf = UnionFind::new(rc.address_count());
        let stats = apply(&rc, &mut uf);
        let a = rc.address_id(&Address::from_seed(1)).unwrap();
        let b = rc.address_id(&Address::from_seed(2)).unwrap();
        let c = rc.address_id(&Address::from_seed(3)).unwrap();
        let d = rc.address_id(&Address::from_seed(4)).unwrap();
        assert!(uf.same(a, b));
        assert!(!uf.same(a, c));
        assert!(!uf.same(a, d));
        assert_eq!(stats.transactions, 1);
        assert_eq!(stats.multi_input_transactions, 1);
        assert_eq!(stats.merges, 1);
    }

    #[test]
    fn coinbases_do_not_link() {
        let rc = tiny_chain();
        let mut uf = UnionFind::new(rc.address_count());
        apply(&rc, &mut uf);
        // 4 addresses, one merge → 3 clusters.
        assert_eq!(uf.component_count(), 3);
    }
}
