//! The chain manager: accepts blocks onto the resolved analysis view.

use crate::amount::Amount;
use crate::block::Block;
use crate::params::Params;
use crate::resolve::ResolvedChain;
use crate::transaction::Transaction;
use crate::validate::{check_block, ValidationError};
use fistful_crypto::hash::Hash256;

/// A validated, linear chain of blocks.
///
/// `ChainState` holds the consensus parameters, the tip and the
/// [`ResolvedChain`] that the clustering and flow crates consume; blocks
/// are validated against that same chain's unspent outputs. It models the
/// settled chain the paper's analysis downloads.
pub struct ChainState {
    params: Params,
    tip: Hash256,
    resolved: ResolvedChain,
}

impl ChainState {
    /// An empty chain with the given parameters.
    pub fn new(params: Params) -> ChainState {
        ChainState { params, tip: Hash256::ZERO, resolved: ResolvedChain::new() }
    }

    /// The consensus parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Height of the tip, or `None` before genesis.
    pub fn height(&self) -> Option<u64> {
        self.next_height().checked_sub(1)
    }

    /// The height the next block will occupy.
    pub fn next_height(&self) -> u64 {
        self.resolved.block_count() as u64
    }

    /// Subsidy for the next block.
    pub fn next_subsidy(&self) -> Amount {
        self.params.subsidy_at(self.next_height())
    }

    /// Hash of the tip block (all-zero before genesis).
    pub fn tip_hash(&self) -> Hash256 {
        self.tip
    }

    /// The resolved analysis view.
    pub fn resolved(&self) -> &ResolvedChain {
        &self.resolved
    }

    /// Consumes the chain state, returning the resolved view.
    pub fn into_resolved(self) -> ResolvedChain {
        self.resolved
    }

    /// Validates and applies a block on top of the current tip. Each
    /// transaction is hashed once, here; validation and the resolved view
    /// both take their txids from that one pass. A rejected block leaves
    /// the chain as it was.
    pub fn accept_block(&mut self, block: Block) -> Result<(), ValidationError> {
        let height = self.next_height();
        let txids: Vec<Hash256> = block.transactions.iter().map(Transaction::txid).collect();
        check_block(&block, &txids, &self.tip, &self.resolved, height, &self.params)?;
        for (tx, &txid) in block.transactions.iter().zip(&txids) {
            self.resolved.add_tx(tx, txid, height, block.header.time);
        }
        self.tip = block.hash();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::Address;
    use crate::builder::{BlockBuilder, TransactionBuilder};
    use crate::transaction::OutPoint;

    #[test]
    fn genesis_and_extension() {
        let params = Params::regtest();
        let mut chain = ChainState::new(params.clone());
        assert_eq!(chain.height(), None);
        assert_eq!(chain.tip_hash(), Hash256::ZERO);

        let miner = Address::from_seed(1);
        let b0 = BlockBuilder::new(&params)
            .coinbase_to(miner, 0, chain.next_subsidy())
            .build_on(&chain);
        chain.accept_block(b0).unwrap();
        assert_eq!(chain.height(), Some(0));
        assert_eq!(chain.resolved().unspent_value(), Amount::from_btc(50));

        let b1 = BlockBuilder::new(&params)
            .coinbase_to(miner, 1, chain.next_subsidy())
            .build_on(&chain);
        chain.accept_block(b1).unwrap();
        assert_eq!(chain.height(), Some(1));
        assert_eq!(chain.resolved().tx_count(), 2);
    }

    #[test]
    fn rejects_disconnected_block() {
        let params = Params::regtest();
        let mut chain = ChainState::new(params.clone());
        let miner = Address::from_seed(1);
        let b0 = BlockBuilder::new(&params)
            .coinbase_to(miner, 0, chain.next_subsidy())
            .build_on(&chain);
        let b0_again = b0.clone();
        chain.accept_block(b0).unwrap();
        // Re-submitting the same block no longer connects.
        assert!(chain.accept_block(b0_again).is_err());
    }

    #[test]
    fn full_spend_cycle_with_fees() {
        let params = Params::regtest();
        let mut chain = ChainState::new(params.clone());
        let miner = Address::from_seed(1);
        let user = Address::from_seed(2);

        let b0 = BlockBuilder::new(&params)
            .coinbase_to(miner, 0, chain.next_subsidy())
            .build_on(&chain);
        let cb_txid = b0.transactions[0].txid();
        chain.accept_block(b0).unwrap();

        // Miner pays user 30, takes 19.9 change, fee 0.1.
        let tx = TransactionBuilder::new()
            .input(OutPoint { txid: cb_txid, vout: 0 })
            .output(user, Amount::from_btc(30))
            .output(miner, Amount::from_sat(19_90000000))
            .build_unsigned();
        let fee_claim = chain
            .next_subsidy()
            .checked_add(Amount::from_sat(10000000))
            .unwrap();
        let b1 = BlockBuilder::new(&params)
            .coinbase_to(miner, 1, fee_claim)
            .tx(tx)
            .build_on(&chain);
        chain.accept_block(b1).unwrap();
        assert_eq!(chain.resolved().txs[2].fee(), Amount::from_sat(10000000));
        assert_eq!(chain.resolved().tx_count(), 3);
        // Total supply = 2 subsidies (fees recirculate to the miner).
        assert_eq!(chain.resolved().unspent_value(), Amount::from_btc(100));
    }
}
