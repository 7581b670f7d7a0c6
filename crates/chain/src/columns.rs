//! The chain's resolved columns — [`ResolvedChain`] flattened into the
//! plain arrays the on-disk artifact store persists.
//!
//! A [`ResolvedChain`] is an object graph: per-transaction `Vec`s of
//! resolved inputs and outputs, interning hash maps, per-address event
//! lists. None of that belongs in a file. [`ChainColumns`] is the columnar
//! projection — one flat array per field, CSR prefix arrays
//! (`in_start`/`out_start`) delimiting each transaction's slice, exactly
//! the layout `fistful_flow::graph::TxGraph` uses in RAM — so the store
//! can write each column as one segment and a reader can load it back
//! with bulk reads instead of per-element decoding.
//!
//! The mapping is lossless in both directions:
//!
//! * [`ResolvedChain::to_columns`] flattens (pure reads, no hashing);
//! * [`ChainColumns::into_chain`] validates the columns against every
//!   structural invariant `ResolvedChain::add_tx` enforces (monotone
//!   heights, input/output cross-references, single-spend backlinks) and
//!   rebuilds the derived state — interning indexes, block spans,
//!   per-address event lists — in one replay pass.
//!
//! Redundant derived columns (`spent_by` backlinks, event lists) are *not*
//! stored: they are recomputed, so a corrupt file can desynchronize them
//! from the inputs that imply them only by failing validation.

use crate::address::Address;
use crate::amount::Amount;
use crate::resolve::{AddressId, ResolvedChain, ResolvedInput, ResolvedOutput, ResolvedTx, TxId};
use fistful_crypto::hash::{DigestMap, Hash160, Hash256};

/// Byte width of one address in the `address` column.
pub const ADDRESS_WIDTH: usize = 20;

/// Byte width of one txid in the `txid` column.
pub const TXID_WIDTH: usize = 32;

/// The columnar projection of a [`ResolvedChain`]: one flat array per
/// field, in [`TxId`] / flat-slot / [`AddressId`] order. See the
/// [module docs](self) for the layout contract.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChainColumns {
    /// Per transaction: containing block height.
    pub height: Vec<u64>,
    /// Per transaction: containing block timestamp.
    pub time: Vec<u64>,
    /// Per transaction: `1` for coin generations, `0` otherwise.
    pub coinbase: Vec<u8>,
    /// Per transaction: the 32-byte txid, concatenated
    /// ([`TXID_WIDTH`] bytes each).
    pub txid: Vec<u8>,
    /// Per transaction: first input slot; length `tx_count + 1`.
    pub in_start: Vec<u32>,
    /// Per input slot: the address that owned the spent output.
    pub in_addr: Vec<u32>,
    /// Per input slot: the value of the spent output, in satoshis.
    pub in_value: Vec<u64>,
    /// Per input slot: the transaction that created the spent output.
    pub in_prev_tx: Vec<u32>,
    /// Per input slot: the output index within `in_prev_tx`.
    pub in_prev_vout: Vec<u32>,
    /// Per transaction: first output slot; length `tx_count + 1`.
    pub out_start: Vec<u32>,
    /// Per output slot: the receiving address.
    pub out_addr: Vec<u32>,
    /// Per output slot: the value, in satoshis.
    pub out_value: Vec<u64>,
    /// Per address id: the 20-byte hash160 payload, concatenated
    /// ([`ADDRESS_WIDTH`] bytes each), in interning order.
    pub address: Vec<u8>,
}

impl ChainColumns {
    /// Number of transactions described.
    pub fn tx_count(&self) -> usize {
        self.height.len()
    }

    /// Number of addresses described.
    pub fn address_count(&self) -> usize {
        self.address.len() / ADDRESS_WIDTH
    }

    /// Validates every structural invariant and rebuilds the full
    /// [`ResolvedChain`], derived state included. The error string names
    /// the first violated invariant.
    pub fn into_chain(self) -> Result<ResolvedChain, &'static str> {
        let n_tx = self.height.len();
        if self.time.len() != n_tx || self.coinbase.len() != n_tx {
            return Err("per-transaction columns disagree on length");
        }
        if self.txid.len() != n_tx * TXID_WIDTH {
            return Err("txid column length is not 32 bytes per transaction");
        }
        if self.address.len() % ADDRESS_WIDTH != 0 {
            return Err("address column length is not 20 bytes per address");
        }
        let n_addr = self.address.len() / ADDRESS_WIDTH;
        check_prefix(&self.in_start, n_tx, self.in_addr.len(), "in_start")?;
        check_prefix(&self.out_start, n_tx, self.out_addr.len(), "out_start")?;
        if self.in_value.len() != self.in_addr.len()
            || self.in_prev_tx.len() != self.in_addr.len()
            || self.in_prev_vout.len() != self.in_addr.len()
        {
            return Err("per-input columns disagree on length");
        }
        if self.out_value.len() != self.out_addr.len() {
            return Err("per-output columns disagree on length");
        }
        if self.height.windows(2).any(|w| w[0] > w[1]) {
            return Err("heights are not monotone non-decreasing");
        }
        if self.coinbase.iter().any(|&c| c > 1) {
            return Err("coinbase flag is not 0 or 1");
        }
        if self.in_addr.iter().chain(&self.out_addr).any(|&a| a as usize >= n_addr) {
            return Err("address id out of range");
        }

        // Intern table: rebuild the index, rejecting duplicate addresses.
        let mut addresses = Vec::with_capacity(n_addr);
        let mut address_index = DigestMap::with_capacity_and_hasher(n_addr, Default::default());
        for (id, chunk) in self.address.chunks_exact(ADDRESS_WIDTH).enumerate() {
            let mut payload = [0u8; ADDRESS_WIDTH];
            payload.copy_from_slice(chunk);
            let addr = Address(Hash160(payload));
            if address_index.insert(addr, id as AddressId).is_some() {
                return Err("duplicate address in the intern table");
            }
            addresses.push(addr);
        }

        // Replay pass: rebuild transactions, spent-by backlinks, the txid
        // index, block spans and the per-address event lists in the exact
        // order `add_tx` produces them.
        let mut txs: Vec<ResolvedTx> = Vec::with_capacity(n_tx);
        let mut txid_index = DigestMap::with_capacity_and_hasher(n_tx, Default::default());
        let mut block_spans: Vec<(u64, TxId)> = Vec::new();
        let mut first_seen = vec![TxId::MAX; n_addr];
        let mut received_in: Vec<Vec<TxId>> = vec![Vec::new(); n_addr];
        let mut spent_in: Vec<Vec<TxId>> = vec![Vec::new(); n_addr];
        let note_seen = |first_seen: &mut Vec<TxId>, a: u32, t: TxId| {
            let slot = &mut first_seen[a as usize];
            if *slot == TxId::MAX {
                *slot = t;
            }
        };
        for t in 0..n_tx {
            let id = t as TxId;
            let height = self.height[t];
            match block_spans.last() {
                Some(&(h, _)) if height == h => {}
                _ => block_spans.push((height, id)),
            }
            let is_coinbase = self.coinbase[t] == 1;
            let ins = self.in_start[t] as usize..self.in_start[t + 1] as usize;
            if is_coinbase && !ins.is_empty() {
                return Err("coinbase transaction has resolved inputs");
            }
            let mut inputs = Vec::with_capacity(ins.len());
            for i in ins {
                let prev_tx = self.in_prev_tx[i];
                let prev_vout = self.in_prev_vout[i];
                if prev_tx >= id {
                    return Err("input references a non-prior transaction");
                }
                let prev: &mut ResolvedTx = &mut txs[prev_tx as usize];
                let out = prev
                    .outputs
                    .get_mut(prev_vout as usize)
                    .ok_or("input vout out of range for the referenced transaction")?;
                if out.address != self.in_addr[i] || out.value.to_sat() != self.in_value[i] {
                    return Err("input address/value disagree with the spent output");
                }
                if out.spent_by.is_some() {
                    return Err("output spent twice");
                }
                out.spent_by = Some(id);
                let address = self.in_addr[i];
                inputs.push(ResolvedInput {
                    address,
                    value: Amount::from_sat(self.in_value[i]),
                    prev_tx,
                    prev_vout,
                });
                spent_in[address as usize].push(id);
                note_seen(&mut first_seen, address, id);
            }
            let outs = self.out_start[t] as usize..self.out_start[t + 1] as usize;
            let mut outputs = Vec::with_capacity(outs.len());
            for o in outs {
                let address = self.out_addr[o];
                outputs.push(ResolvedOutput {
                    address,
                    value: Amount::from_sat(self.out_value[o]),
                    spent_by: None,
                });
                received_in[address as usize].push(id);
                note_seen(&mut first_seen, address, id);
            }
            let mut txid = [0u8; TXID_WIDTH];
            txid.copy_from_slice(&self.txid[t * TXID_WIDTH..(t + 1) * TXID_WIDTH]);
            let txid = Hash256(txid);
            if txid_index.insert(txid, id).is_some() {
                return Err("duplicate txid");
            }
            txs.push(ResolvedTx {
                txid,
                height,
                time: self.time[t],
                is_coinbase,
                inputs,
                outputs,
            });
        }
        if first_seen.contains(&TxId::MAX) {
            return Err("intern table lists an address no transaction touches");
        }

        Ok(ResolvedChain {
            txs,
            addresses,
            address_index,
            txid_index,
            block_spans,
            first_seen,
            received_in,
            spent_in,
        })
    }
}

/// A CSR prefix array must have `count + 1` entries, start at zero, be
/// monotone, and end at the flat array's length.
fn check_prefix(
    prefix: &[u32],
    count: usize,
    flat_len: usize,
    what: &'static str,
) -> Result<(), &'static str> {
    if prefix.len() != count + 1 || prefix[0] != 0 {
        return Err(match what {
            "in_start" => "in_start is not a tx_count+1 prefix array from zero",
            _ => "out_start is not a tx_count+1 prefix array from zero",
        });
    }
    if prefix.windows(2).any(|w| w[0] > w[1]) || *prefix.last().unwrap() as usize != flat_len {
        return Err(match what {
            "in_start" => "in_start does not delimit the input columns",
            _ => "out_start does not delimit the output columns",
        });
    }
    Ok(())
}

impl ResolvedChain {
    /// Flattens the chain into its columnar projection. Pure reads; the
    /// inverse is [`ChainColumns::into_chain`].
    pub fn to_columns(&self) -> ChainColumns {
        let n_tx = self.tx_count();
        let mut c = ChainColumns {
            height: Vec::with_capacity(n_tx),
            time: Vec::with_capacity(n_tx),
            coinbase: Vec::with_capacity(n_tx),
            txid: Vec::with_capacity(n_tx * TXID_WIDTH),
            in_start: Vec::with_capacity(n_tx + 1),
            out_start: Vec::with_capacity(n_tx + 1),
            address: Vec::with_capacity(self.address_count() * ADDRESS_WIDTH),
            ..Default::default()
        };
        c.in_start.push(0);
        c.out_start.push(0);
        for tx in &self.txs {
            c.height.push(tx.height);
            c.time.push(tx.time);
            c.coinbase.push(tx.is_coinbase as u8);
            c.txid.extend_from_slice(&tx.txid.0);
            for input in &tx.inputs {
                c.in_addr.push(input.address);
                c.in_value.push(input.value.to_sat());
                c.in_prev_tx.push(input.prev_tx);
                c.in_prev_vout.push(input.prev_vout);
            }
            for out in &tx.outputs {
                c.out_addr.push(out.address);
                c.out_value.push(out.value.to_sat());
            }
            c.in_start.push(c.in_addr.len() as u32);
            c.out_start.push(c.out_addr.len() as u32);
        }
        for addr in &self.addresses {
            c.address.extend_from_slice(&addr.0 .0);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::{OutPoint, Transaction, TxIn, TxOut};
    use crate::utxo::UtxoSet;

    /// A three-block chain with a co-spend, change, and an unspent tail.
    fn sample() -> ResolvedChain {
        let mut utxos = UtxoSet::new();
        let mut rc = ResolvedChain::new();
        let a = Address::from_seed(1);
        let b = Address::from_seed(2);
        let c = Address::from_seed(3);
        let cb = |tag: u64, addr| Transaction {
            version: 1,
            inputs: vec![TxIn {
                prevout: OutPoint::null(),
                witness: tag.to_le_bytes().to_vec(),
            }],
            outputs: vec![TxOut { value: Amount::from_btc(50), address: addr }],
            lock_time: 0,
        };
        let cb1 = cb(1, a);
        rc.add_tx(&cb1, cb1.txid(), &utxos, 0, 100);
        utxos.apply(&cb1, cb1.txid(), 0);
        let cb2 = cb(2, b);
        rc.add_tx(&cb2, cb2.txid(), &utxos, 1, 700);
        utxos.apply(&cb2, cb2.txid(), 1);
        let spend = Transaction {
            version: 1,
            inputs: vec![
                TxIn::unsigned(OutPoint { txid: cb1.txid(), vout: 0 }),
                TxIn::unsigned(OutPoint { txid: cb2.txid(), vout: 0 }),
            ],
            outputs: vec![
                TxOut { value: Amount::from_btc(70), address: c },
                TxOut { value: Amount::from_btc(29), address: a },
            ],
            lock_time: 0,
        };
        rc.add_tx(&spend, spend.txid(), &utxos, 2, 1300);
        utxos.apply(&spend, spend.txid(), 2);
        rc
    }

    /// Everything observable must survive the round trip: transactions,
    /// backlinks, interning, block spans, event lists.
    #[test]
    fn round_trip_preserves_all_derived_state() {
        let rc = sample();
        let restored = rc.to_columns().into_chain().expect("valid columns");
        assert_eq!(restored.tx_count(), rc.tx_count());
        assert_eq!(restored.address_count(), rc.address_count());
        assert_eq!(restored.block_count(), rc.block_count());
        for (a, b) in rc.txs.iter().zip(&restored.txs) {
            assert_eq!(a.txid, b.txid);
            assert_eq!((a.height, a.time, a.is_coinbase), (b.height, b.time, b.is_coinbase));
            assert_eq!(a.inputs, b.inputs);
            assert_eq!(a.outputs, b.outputs);
        }
        for id in 0..rc.address_count() as AddressId {
            let addr = rc.address(id);
            assert_eq!(restored.address(id), addr);
            assert_eq!(restored.address_id(&addr), Some(id));
            assert_eq!(restored.first_seen(id), rc.first_seen(id));
            assert_eq!(restored.received_in(id), rc.received_in(id));
            assert_eq!(restored.spent_in(id), rc.spent_in(id));
        }
        for (t, tx) in rc.txs.iter().enumerate() {
            assert_eq!(restored.tx_by_txid(&tx.txid).map(|(id, _)| id), Some(t as TxId));
        }
        let spans: Vec<_> = rc.blocks().map(|b| (b.height(), b.tx_start(), b.tx_end())).collect();
        let restored_spans: Vec<_> =
            restored.blocks().map(|b| (b.height(), b.tx_start(), b.tx_end())).collect();
        assert_eq!(spans, restored_spans);
        // And flattening again is the identity on columns.
        assert_eq!(restored.to_columns(), rc.to_columns());
    }

    #[test]
    fn empty_chain_round_trips() {
        let rc = ResolvedChain::new();
        let restored = rc.to_columns().into_chain().unwrap();
        assert_eq!(restored.tx_count(), 0);
        assert_eq!(restored.address_count(), 0);
        assert_eq!(restored.block_count(), 0);
    }

    /// Every class of corrupt column is rejected with a pointed error, not
    /// a panic or a silently wrong chain.
    #[test]
    fn corrupt_columns_are_rejected() {
        let good = sample().to_columns();
        type Corruption = (&'static str, Box<dyn Fn(&mut ChainColumns)>);
        let cases: Vec<Corruption> = vec![
            ("length", Box::new(|c| c.time.pop().map(|_| ()).unwrap())),
            ("txid column", Box::new(|c| c.txid.pop().map(|_| ()).unwrap())),
            ("20 bytes per address", Box::new(|c| c.address.pop().map(|_| ()).unwrap())),
            ("prefix array", Box::new(|c| c.in_start[0] = 1)),
            ("delimit", Box::new(|c| *c.out_start.last_mut().unwrap() += 1)),
            ("monotone", Box::new(|c| c.height[0] = 9)),
            ("coinbase flag", Box::new(|c| c.coinbase[0] = 2)),
            ("out of range", Box::new(|c| c.out_addr[0] = 999)),
            ("coinbase transaction has", Box::new(|c| {
                // Give the first coinbase an input slot.
                c.in_start[1] += 1;
                c.in_start[2] += 1;
                c.in_start[3] += 1;
                c.in_addr.insert(0, 0);
                c.in_value.insert(0, 1);
                c.in_prev_tx.insert(0, 0);
                c.in_prev_vout.insert(0, 0);
            })),
            ("non-prior", Box::new(|c| c.in_prev_tx[0] = 2)),
            ("vout out of range", Box::new(|c| c.in_prev_vout[0] = 7)),
            ("disagree with the spent output", Box::new(|c| c.in_value[0] += 1)),
            ("spent twice", Box::new(|c| {
                c.in_prev_tx[1] = c.in_prev_tx[0];
                c.in_prev_vout[1] = c.in_prev_vout[0];
                c.in_addr[1] = c.in_addr[0];
                c.in_value[1] = c.in_value[0];
            })),
            ("duplicate txid", Box::new(|c| {
                let first: Vec<u8> = c.txid[..TXID_WIDTH].to_vec();
                c.txid[TXID_WIDTH..2 * TXID_WIDTH].copy_from_slice(&first);
            })),
            ("duplicate address", Box::new(|c| {
                let first: Vec<u8> = c.address[..ADDRESS_WIDTH].to_vec();
                c.address[ADDRESS_WIDTH..2 * ADDRESS_WIDTH].copy_from_slice(&first);
            })),
            ("no transaction touches", Box::new(|c| {
                c.address.extend_from_slice(&[0xAB; ADDRESS_WIDTH]);
            })),
        ];
        for (needle, corrupt) in cases {
            let mut bad = good.clone();
            corrupt(&mut bad);
            let err = match bad.into_chain() {
                Ok(_) => panic!("corrupt columns accepted; expected {needle:?}"),
                Err(e) => e,
            };
            assert!(err.contains(needle), "expected {needle:?} in {err:?}");
        }
    }
}
