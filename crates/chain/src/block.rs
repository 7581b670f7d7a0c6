//! Blocks and block headers. Headers keep Bitcoin's shape, nonce included,
//! but nothing mines or checks proof-of-work: the simulator appends blocks
//! to a chain the analysis takes as already validated (see ARCHITECTURE.md).

use crate::encode::{decode_vec, encode_vec, Decodable, DecodeError, Encodable, Reader, Writer};
use crate::merkle::merkle_root;
use crate::transaction::Transaction;
use fistful_crypto::hash::Hash256;
use fistful_crypto::sha256::sha256d;

/// A block header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BlockHeader {
    /// Format version.
    pub version: u32,
    /// Hash of the previous block (all-zero for genesis).
    pub prev_hash: Hash256,
    /// Merkle root of the block's txids.
    pub merkle_root: Hash256,
    /// Unix timestamp.
    pub time: u64,
    /// Nonce field (always 0 on blocks the builder assembles).
    pub nonce: u64,
}

impl BlockHeader {
    /// The block hash: double-SHA-256 of the header encoding.
    pub fn hash(&self) -> Hash256 {
        sha256d(&self.encode_to_vec())
    }
}

impl Encodable for BlockHeader {
    fn encode(&self, w: &mut Writer) {
        w.u32(self.version);
        w.hash256(&self.prev_hash);
        w.hash256(&self.merkle_root);
        w.u64(self.time);
        w.u64(self.nonce);
    }
}

impl Decodable for BlockHeader {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(BlockHeader {
            version: r.u32()?,
            prev_hash: r.hash256()?,
            merkle_root: r.hash256()?,
            time: r.u64()?,
            nonce: r.u64()?,
        })
    }
}

/// A block: header plus transactions (coinbase first).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Block {
    /// The header.
    pub header: BlockHeader,
    /// Transactions; index 0 must be the coinbase.
    pub transactions: Vec<Transaction>,
}

impl Block {
    /// The block hash.
    pub fn hash(&self) -> Hash256 {
        self.header.hash()
    }

    /// Recomputes the merkle root over the contained transactions.
    pub fn computed_merkle_root(&self) -> Hash256 {
        let txids: Vec<Hash256> = self.transactions.iter().map(|t| t.txid()).collect();
        merkle_root(&txids)
    }
}

impl Encodable for Block {
    fn encode(&self, w: &mut Writer) {
        self.header.encode(w);
        encode_vec(w, &self.transactions);
    }
}

impl Decodable for Block {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Block {
            header: BlockHeader::decode(r)?,
            transactions: decode_vec(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::Address;
    use crate::amount::Amount;
    use crate::transaction::{OutPoint, TxIn, TxOut};

    fn coinbase(height: u64) -> Transaction {
        Transaction {
            version: 1,
            inputs: vec![TxIn {
                prevout: OutPoint::null(),
                witness: height.to_le_bytes().to_vec(),
            }],
            outputs: vec![TxOut {
                value: Amount::from_btc(50),
                address: Address::from_seed(height),
            }],
            lock_time: 0,
        }
    }

    fn sample_block() -> Block {
        let txs = vec![coinbase(0)];
        let mut block = Block {
            header: BlockHeader {
                version: 1,
                prev_hash: Hash256::ZERO,
                merkle_root: Hash256::ZERO,
                time: 1_231_006_505,
                nonce: 0,
            },
            transactions: txs,
        };
        block.header.merkle_root = block.computed_merkle_root();
        block
    }

    #[test]
    fn encode_decode_round_trip() {
        let block = sample_block();
        let bytes = block.encode_to_vec();
        let decoded = Block::decode_all(&bytes).unwrap();
        assert_eq!(decoded, block);
        assert_eq!(decoded.hash(), block.hash());
    }

    #[test]
    fn hash_commits_to_transactions_via_merkle() {
        let mut block = sample_block();
        let h1 = block.hash();
        block.transactions.push(coinbase(1));
        block.header.merkle_root = block.computed_merkle_root();
        assert_ne!(block.hash(), h1);
    }

    #[test]
    fn nonce_changes_hash() {
        let mut block = sample_block();
        let h1 = block.hash();
        block.header.nonce += 1;
        assert_ne!(block.hash(), h1);
    }

    #[test]
    fn truncated_block_rejected() {
        let bytes = sample_block().encode_to_vec();
        assert!(Block::decode_all(&bytes[..bytes.len() - 1]).is_err());
    }
}
