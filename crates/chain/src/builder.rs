//! Fluent builders for transactions and blocks.

use crate::address::Address;
use crate::amount::Amount;
use crate::block::{Block, BlockHeader};
use crate::chainstate::ChainState;
use crate::merkle::merkle_root;
use crate::params::Params;
use crate::transaction::{OutPoint, Transaction, TxIn, TxOut};
use fistful_crypto::hash::Hash256;

/// Builds a transaction input-by-input, output-by-output.
#[derive(Default)]
pub struct TransactionBuilder {
    inputs: Vec<OutPoint>,
    outputs: Vec<TxOut>,
    lock_time: u32,
}

impl TransactionBuilder {
    /// A fresh builder.
    pub fn new() -> TransactionBuilder {
        TransactionBuilder::default()
    }

    /// Adds an input spending `prevout`.
    pub fn input(mut self, prevout: OutPoint) -> Self {
        self.inputs.push(prevout);
        self
    }

    /// Adds an output paying `value` to `address`.
    pub fn output(mut self, address: Address, value: Amount) -> Self {
        self.outputs.push(TxOut { value, address });
        self
    }

    /// Sets the lock time.
    pub fn lock_time(mut self, lock_time: u32) -> Self {
        self.lock_time = lock_time;
        self
    }

    /// Builds the transaction, every input with an empty witness.
    pub fn build_unsigned(self) -> Transaction {
        Transaction {
            version: 1,
            inputs: self.inputs.into_iter().map(TxIn::unsigned).collect(),
            outputs: self.outputs,
            lock_time: self.lock_time,
        }
    }
}

/// Builds a block on top of a [`ChainState`] tip.
pub struct BlockBuilder<'a> {
    params: &'a Params,
    transactions: Vec<Transaction>,
    /// The id of each of `transactions`, which the merkle root is built from.
    txids: Vec<Hash256>,
}

impl<'a> BlockBuilder<'a> {
    /// A fresh builder.
    pub fn new(params: &'a Params) -> BlockBuilder<'a> {
        BlockBuilder { params, transactions: Vec::new(), txids: Vec::new() }
    }

    fn set_coinbase(&mut self, coinbase: Transaction) {
        self.txids.insert(0, coinbase.txid());
        self.transactions.insert(0, coinbase);
    }

    /// Adds the coinbase paying `value` to `address`; the witness encodes
    /// `height` (plus a tag) so coinbase txids are unique per block.
    pub fn coinbase_to(mut self, address: Address, height: u64, value: Amount) -> Self {
        let mut witness = Vec::with_capacity(16);
        witness.extend_from_slice(b"cb:");
        witness.extend_from_slice(&height.to_le_bytes());
        let coinbase = Transaction {
            version: 1,
            inputs: vec![TxIn { prevout: OutPoint::null(), witness }],
            outputs: vec![TxOut { value, address }],
            lock_time: 0,
        };
        self.set_coinbase(coinbase);
        self
    }

    /// Adds a coinbase with multiple outputs (e.g. a pool paying members
    /// straight from the generation transaction).
    pub fn coinbase_multi(mut self, height: u64, outputs: Vec<(Address, Amount)>) -> Self {
        let mut witness = Vec::with_capacity(16);
        witness.extend_from_slice(b"cb:");
        witness.extend_from_slice(&height.to_le_bytes());
        let coinbase = Transaction {
            version: 1,
            inputs: vec![TxIn { prevout: OutPoint::null(), witness }],
            outputs: outputs
                .into_iter()
                .map(|(address, value)| TxOut { value, address })
                .collect(),
            lock_time: 0,
        };
        self.set_coinbase(coinbase);
        self
    }

    /// Appends a non-coinbase transaction.
    pub fn tx(mut self, tx: Transaction) -> Self {
        self.txids.push(tx.txid());
        self.transactions.push(tx);
        self
    }

    /// Appends many transactions, each paired with its txid as its creator
    /// computed it, so the merkle root costs no rehashing. A wrong txid
    /// yields a block that [`ChainState::accept_block`] rejects with
    /// `BadMerkleRoot`, since validation recomputes every txid.
    pub fn txs(mut self, txs: impl IntoIterator<Item = (Transaction, Hash256)>) -> Self {
        for (tx, txid) in txs {
            self.transactions.push(tx);
            self.txids.push(txid);
        }
        self
    }

    /// Assembles the block on `chain`'s tip: sets the previous hash, merkle
    /// root and timestamp.
    pub fn build_on(self, chain: &ChainState) -> Block {
        let height = chain.next_height();
        Block {
            header: BlockHeader {
                version: 1,
                prev_hash: chain.tip_hash(),
                merkle_root: merkle_root(&self.txids),
                time: self.params.time_at(height),
                nonce: 0,
            },
            transactions: self.transactions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fistful_crypto::sha256::sha256d;

    #[test]
    fn transaction_builder_shapes() {
        let tx = TransactionBuilder::new()
            .input(OutPoint { txid: sha256d(b"a"), vout: 0 })
            .input(OutPoint { txid: sha256d(b"b"), vout: 3 })
            .output(Address::from_seed(1), Amount::from_btc(1))
            .lock_time(7)
            .build_unsigned();
        assert_eq!(tx.inputs.len(), 2);
        assert_eq!(tx.outputs.len(), 1);
        assert_eq!(tx.lock_time, 7);
        assert!(tx.inputs.iter().all(|i| i.witness.is_empty()));
    }

    #[test]
    fn coinbase_multi_outputs() {
        let params = Params::regtest();
        let chain = ChainState::new(params.clone());
        let outs = vec![
            (Address::from_seed(1), Amount::from_btc(30)),
            (Address::from_seed(2), Amount::from_btc(20)),
        ];
        let block = BlockBuilder::new(&params)
            .coinbase_multi(0, outs)
            .build_on(&chain);
        assert!(block.transactions[0].is_coinbase());
        assert_eq!(block.transactions[0].outputs.len(), 2);
    }

    #[test]
    fn coinbase_txids_unique_per_height() {
        let params = Params::regtest();
        let addr = Address::from_seed(1);
        let chain = ChainState::new(params.clone());
        let b0 = BlockBuilder::new(&params)
            .coinbase_to(addr, 0, Amount::from_btc(50))
            .build_on(&chain);
        let b1 = BlockBuilder::new(&params)
            .coinbase_to(addr, 1, Amount::from_btc(50))
            .build_on(&chain);
        assert_ne!(b0.transactions[0].txid(), b1.transactions[0].txid());
    }
}
