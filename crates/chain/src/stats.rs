//! Descriptive statistics over a resolved chain.
//!
//! Backs the paper's in-text measurements: the share of self-change
//! transactions ("23% of all transactions in the first half of 2013 used
//! self-change addresses"), address reuse, and transaction fan-in/fan-out.

use crate::resolve::{AddressId, ResolvedChain};
use std::collections::HashSet;

/// Summary statistics for a chain.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChainStats {
    /// All transactions.
    pub transactions: usize,
    /// Coin generations.
    pub coinbases: usize,
    /// Non-coinbase transactions with ≥2 distinct input addresses
    /// (Heuristic 1 fodder).
    pub multi_input: usize,
    /// Non-coinbase transactions where an output address also appears
    /// among the inputs (self-change).
    pub self_change: usize,
    /// Distinct addresses.
    pub addresses: usize,
    /// Addresses that received more than once.
    pub reused_addresses: usize,
    /// Addresses that never spent.
    pub sinks: usize,
    /// Largest input count seen in one transaction.
    pub max_inputs: usize,
    /// Largest output count seen in one transaction.
    pub max_outputs: usize,
}

impl ChainStats {
    /// Self-change transactions as a fraction of spends (the paper's 23%).
    pub fn self_change_rate(&self) -> f64 {
        let spends = self.transactions - self.coinbases;
        if spends == 0 {
            0.0
        } else {
            self.self_change as f64 / spends as f64
        }
    }

    /// Fraction of addresses that received more than once.
    pub fn reuse_rate(&self) -> f64 {
        if self.addresses == 0 {
            0.0
        } else {
            self.reused_addresses as f64 / self.addresses as f64
        }
    }
}

/// Computes summary statistics in one pass.
pub fn chain_stats(chain: &ResolvedChain) -> ChainStats {
    let mut stats = ChainStats {
        transactions: chain.tx_count(),
        addresses: chain.address_count(),
        ..Default::default()
    };
    for tx in &chain.txs {
        if tx.is_coinbase {
            stats.coinbases += 1;
        } else {
            let inputs: HashSet<AddressId> = tx.inputs.iter().map(|i| i.address).collect();
            if inputs.len() >= 2 {
                stats.multi_input += 1;
            }
            if tx.outputs.iter().any(|o| inputs.contains(&o.address)) {
                stats.self_change += 1;
            }
        }
        stats.max_inputs = stats.max_inputs.max(tx.inputs.len());
        stats.max_outputs = stats.max_outputs.max(tx.outputs.len());
    }
    for a in 0..chain.address_count() as AddressId {
        if chain.received_in(a).len() > 1 {
            stats.reused_addresses += 1;
        }
        if chain.is_sink(a) {
            stats.sinks += 1;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::Address;
    use crate::amount::Amount;
    use crate::transaction::{OutPoint, Transaction, TxIn, TxOut};

    fn build() -> ResolvedChain {
        let mut rc = ResolvedChain::new();
        let push = |rc: &mut ResolvedChain, tx: &Transaction, h: u64| {
            rc.add_tx(tx, tx.txid(), h, h * 600);
        };
        let cb = |tag: u64, addr: u64| Transaction {
            version: 1,
            inputs: vec![TxIn { prevout: OutPoint::null(), witness: tag.to_le_bytes().to_vec() }],
            outputs: vec![TxOut { value: Amount::from_btc(50), address: Address::from_seed(addr) }],
            lock_time: 0,
        };
        let c1 = cb(1, 1);
        let c2 = cb(2, 2);
        push(&mut rc, &c1, 0);
        push(&mut rc, &c2, 1);
        // Multi-input self-change spend: inputs {1, 2}, change to 1.
        let spend = Transaction {
            version: 1,
            inputs: vec![
                TxIn::unsigned(OutPoint { txid: c1.txid(), vout: 0 }),
                TxIn::unsigned(OutPoint { txid: c2.txid(), vout: 0 }),
            ],
            outputs: vec![
                TxOut { value: Amount::from_btc(60), address: Address::from_seed(3) },
                TxOut { value: Amount::from_btc(40), address: Address::from_seed(1) },
            ],
            lock_time: 0,
        };
        push(&mut rc, &spend, 2);
        rc
    }

    #[test]
    fn counts_are_exact() {
        let rc = build();
        let s = chain_stats(&rc);
        assert_eq!(s.transactions, 3);
        assert_eq!(s.coinbases, 2);
        assert_eq!(s.multi_input, 1);
        assert_eq!(s.self_change, 1);
        assert_eq!(s.addresses, 3);
        // Address 1 received twice (coinbase + change).
        assert_eq!(s.reused_addresses, 1);
        // Addresses 1 and 2 both spent; only address 3 never did.
        assert_eq!(s.sinks, 1);
        assert_eq!(s.max_inputs, 2);
        assert_eq!(s.max_outputs, 2);
        assert!((s.self_change_rate() - 1.0).abs() < 1e-9);
    }
}
