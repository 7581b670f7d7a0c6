//! Test-only helper for building small hand-crafted chains.

use fistful_chain::address::Address;
use fistful_chain::amount::Amount;
use fistful_chain::resolve::ResolvedChain;
use fistful_chain::transaction::{OutPoint, Transaction, TxIn, TxOut};
use fistful_chain::utxo::UtxoSet;
use fistful_crypto::hash::Hash256;

/// Incrementally builds a [`ResolvedChain`] from abstract transactions.
///
/// Addresses are small integers (mapped through [`Address::from_seed`]);
/// outputs are referenced as `(tx_handle, vout)` where `tx_handle` is the
/// index returned by [`TestChain::coinbase`] / [`TestChain::tx`]. Each
/// transaction lands in its own block (height == tx handle) unless
/// [`TestChain::tx_at`] is used.
pub struct TestChain {
    /// The resolved chain built so far.
    pub chain: ResolvedChain,
    utxos: UtxoSet,
    txids: Vec<Hash256>,
    next_height: u64,
    cb_tag: u64,
}

impl Default for TestChain {
    fn default() -> TestChain {
        TestChain::new()
    }
}

impl TestChain {
    /// An empty test chain.
    pub fn new() -> TestChain {
        TestChain {
            chain: ResolvedChain::new(),
            utxos: UtxoSet::new(),
            txids: Vec::new(),
            next_height: 0,
            cb_tag: 0,
        }
    }

    /// The address for abstract id `n`.
    pub fn addr(n: u64) -> Address {
        Address::from_seed(n)
    }

    /// The interned id of abstract address `n` (must have appeared).
    pub fn id(&self, n: u64) -> u32 {
        self.chain
            .address_id(&Self::addr(n))
            .unwrap_or_else(|| panic!("address {n} never appeared"))
    }

    /// Adds a coinbase paying `btc` to abstract address `to`. Returns the
    /// transaction handle.
    pub fn coinbase(&mut self, to: u64, btc: u64) -> usize {
        self.cb_tag += 1;
        let tx = Transaction {
            version: 1,
            inputs: vec![TxIn {
                prevout: OutPoint::null(),
                witness: self.cb_tag.to_le_bytes().to_vec(),
            }],
            outputs: vec![TxOut { value: Amount::from_btc(btc), address: Self::addr(to) }],
            lock_time: 0,
        };
        self.push(tx, None)
    }

    /// Adds a transaction spending the given `(tx_handle, vout)` outpoints
    /// and paying each `(address, btc)` output. Returns the handle.
    pub fn tx(&mut self, spends: &[(usize, u32)], outs: &[(u64, u64)]) -> usize {
        self.tx_at(spends, outs, None)
    }

    /// Like [`tx`](Self::tx) but forcing a specific height.
    pub fn tx_at(
        &mut self,
        spends: &[(usize, u32)],
        outs: &[(u64, u64)],
        height: Option<u64>,
    ) -> usize {
        let inputs = spends
            .iter()
            .map(|&(h, vout)| TxIn::unsigned(OutPoint { txid: self.txids[h], vout }))
            .collect();
        let outputs = outs
            .iter()
            .map(|&(addr, btc)| TxOut { value: Amount::from_btc(btc), address: Self::addr(addr) })
            .collect();
        let tx = Transaction { version: 1, inputs, outputs, lock_time: 0 };
        self.push(tx, height)
    }

    fn push(&mut self, tx: Transaction, height: Option<u64>) -> usize {
        let h = height.unwrap_or(self.next_height);
        self.next_height = h + 1;
        let txid = tx.txid();
        self.chain.add_tx(&tx, txid, &self.utxos, h, h * 600);
        self.utxos.apply(&tx, txid, h);
        self.txids.push(txid);
        self.txids.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_consistent_chain() {
        let mut t = TestChain::new();
        let cb = t.coinbase(1, 50);
        let spend = t.tx(&[(cb, 0)], &[(2, 30), (3, 20)]);
        assert_eq!(t.chain.tx_count(), 2);
        assert_eq!(t.chain.txs[spend].inputs.len(), 1);
        assert_eq!(t.chain.txs[spend].outputs.len(), 2);
        assert_eq!(t.chain.txs[spend].inputs[0].address, t.id(1));
    }
}
