//! Transactions: multi-input, multi-output transfers of value.
//!
//! Inputs spend previous outputs in full — the only way to make change is an
//! explicit change output, which is exactly the idiom Heuristic 2 of the
//! paper exploits. Like the chain the paper analysed, this one is taken as
//! already authorized: inputs carry no signatures and validation checks
//! value and structure only, since clustering reads who spends with whom,
//! never whether a signature verifies (see ARCHITECTURE.md).

use crate::address::Address;
use crate::amount::Amount;
use crate::encode::{decode_vec, encode_vec, Decodable, DecodeError, Encodable, Reader, Writer};
use fistful_crypto::hash::Hash256;
use fistful_crypto::sha256::sha256d;
use std::fmt;

/// A reference to a transaction output: `(txid, output index)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct OutPoint {
    /// The transaction that created the output.
    pub txid: Hash256,
    /// The index of the output within that transaction.
    pub vout: u32,
}

impl OutPoint {
    /// The null outpoint used by coin-generation (coinbase) inputs.
    pub fn null() -> OutPoint {
        OutPoint { txid: Hash256::ZERO, vout: u32::MAX }
    }

    /// True for the coinbase marker.
    pub fn is_null(&self) -> bool {
        self.txid == Hash256::ZERO && self.vout == u32::MAX
    }
}

impl Encodable for OutPoint {
    fn encode(&self, w: &mut Writer) {
        w.hash256(&self.txid);
        w.u32(self.vout);
    }
}

impl Decodable for OutPoint {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(OutPoint { txid: r.hash256()?, vout: r.u32()? })
    }
}

/// A transaction input.
///
/// `witness` carries arbitrary bytes for a coinbase (height + extra nonce)
/// and is empty for every other input.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TxIn {
    /// The output being spent (null for coinbase).
    pub prevout: OutPoint,
    /// Opaque input data; see type-level docs.
    pub witness: Vec<u8>,
}

impl TxIn {
    /// An input spending `prevout` with an empty witness.
    pub fn unsigned(prevout: OutPoint) -> TxIn {
        TxIn { prevout, witness: Vec::new() }
    }
}

impl Encodable for TxIn {
    fn encode(&self, w: &mut Writer) {
        self.prevout.encode(w);
        w.compact_size(self.witness.len() as u64);
        w.bytes(&self.witness);
    }
}

impl Decodable for TxIn {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let prevout = OutPoint::decode(r)?;
        let len = r.compact_size()?;
        if len > 1024 {
            return Err(DecodeError::OversizedCount(len));
        }
        let witness = r.take(len as usize)?.to_vec();
        Ok(TxIn { prevout, witness })
    }
}

/// A transaction output: a value bound to an address.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TxOut {
    /// The amount carried by this output.
    pub value: Amount,
    /// The address that may spend it.
    pub address: Address,
}

impl Encodable for TxOut {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.value.to_sat());
        w.bytes(&self.address.0 .0);
    }
}

impl Decodable for TxOut {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let value = Amount::from_sat(r.u64()?);
        let bytes = r.take(20)?;
        let mut payload = [0u8; 20];
        payload.copy_from_slice(bytes);
        Ok(TxOut {
            value,
            address: Address(fistful_crypto::hash::Hash160(payload)),
        })
    }
}

/// A transaction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Transaction {
    /// Format version (always 1 in this workspace).
    pub version: u32,
    /// Inputs spending previous outputs.
    pub inputs: Vec<TxIn>,
    /// Newly created outputs.
    pub outputs: Vec<TxOut>,
    /// Earliest block height at which the transaction may be mined
    /// (0 = immediately).
    pub lock_time: u32,
}

impl Transaction {
    /// The transaction id: double-SHA-256 of the canonical encoding.
    pub fn txid(&self) -> Hash256 {
        sha256d(&self.encode_to_vec())
    }

    /// True if this is a coin generation (single null-prevout input).
    pub fn is_coinbase(&self) -> bool {
        self.inputs.len() == 1 && self.inputs[0].prevout.is_null()
    }

    /// Total output value; `None` on overflow.
    pub fn output_value(&self) -> Option<Amount> {
        self.outputs
            .iter()
            .try_fold(Amount::ZERO, |acc, o| acc.checked_add(o.value))
    }
}

impl Encodable for Transaction {
    fn encode(&self, w: &mut Writer) {
        w.u32(self.version);
        encode_vec(w, &self.inputs);
        encode_vec(w, &self.outputs);
        w.u32(self.lock_time);
    }
}

impl Decodable for Transaction {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Transaction {
            version: r.u32()?,
            inputs: decode_vec(r)?,
            outputs: decode_vec(r)?,
            lock_time: r.u32()?,
        })
    }
}

impl fmt::Display for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tx {} ({} in, {} out)",
            self.txid(),
            self.inputs.len(),
            self.outputs.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::Decodable;

    fn sample_tx() -> Transaction {
        Transaction {
            version: 1,
            inputs: vec![TxIn::unsigned(OutPoint {
                txid: sha256d(b"prev"),
                vout: 0,
            })],
            outputs: vec![
                TxOut { value: Amount::from_btc(1), address: Address::from_seed(1) },
                TxOut { value: Amount::from_btc(2), address: Address::from_seed(2) },
            ],
            lock_time: 0,
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let tx = sample_tx();
        let bytes = tx.encode_to_vec();
        let decoded = Transaction::decode_all(&bytes).unwrap();
        assert_eq!(decoded, tx);
        assert_eq!(decoded.txid(), tx.txid());
    }

    #[test]
    fn txid_changes_with_content() {
        let tx = sample_tx();
        let mut tx2 = tx.clone();
        tx2.outputs[0].value = Amount::from_btc(3);
        assert_ne!(tx.txid(), tx2.txid());
    }

    #[test]
    fn coinbase_detection() {
        let mut cb = sample_tx();
        cb.inputs = vec![TxIn { prevout: OutPoint::null(), witness: vec![0, 1, 2] }];
        assert!(cb.is_coinbase());
        assert!(!sample_tx().is_coinbase());
        // Two inputs, one null: not a coinbase.
        let mut not_cb = cb.clone();
        not_cb.inputs.push(TxIn::unsigned(OutPoint { txid: sha256d(b"x"), vout: 1 }));
        assert!(!not_cb.is_coinbase());
    }

    #[test]
    fn output_value_sums() {
        assert_eq!(sample_tx().output_value(), Some(Amount::from_btc(3)));
    }

    #[test]
    fn null_outpoint() {
        assert!(OutPoint::null().is_null());
        assert!(!OutPoint { txid: sha256d(b"a"), vout: 0 }.is_null());
    }
}
