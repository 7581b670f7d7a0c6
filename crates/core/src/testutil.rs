//! Test-only helpers for building small hand-crafted chains and the
//! snapshots that name their addresses, plus naive Heuristic 1 and 2
//! oracles.

use crate::change::ChangeConfig;
use crate::cluster::Clustering;
use crate::naming::NamingReport;
use crate::snapshot::ClusterSnapshot;
use fistful_chain::address::Address;
use fistful_chain::amount::Amount;
use fistful_chain::resolve::{AddressId, ResolvedChain, ResolvedTx};
use fistful_chain::transaction::{OutPoint, Transaction, TxIn, TxOut};
use std::collections::VecDeque;

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
    /// Every transaction added, with its height, for [`prefix`](Self::prefix).
    log: Vec<(Transaction, u64)>,
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
            log: Vec::new(),
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
            .map(|&(h, vout)| TxIn::unsigned(OutPoint { txid: self.chain.txs[h].txid, vout }))
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
        let id = self.chain.add_tx(&tx, tx.txid(), h, h * 600);
        self.log.push((tx, h));
        id as usize
    }

    /// A fresh chain holding this chain's first `blocks` blocks, replayed
    /// transaction by transaction.
    pub fn prefix(&self, blocks: usize) -> ResolvedChain {
        let end = self.chain.blocks().nth(blocks).map_or(self.log.len(), |b| b.tx_start() as usize);
        let mut replay = TestChain::new();
        for (tx, height) in &self.log[..end] {
            replay.push(tx.clone(), Some(*height));
        }
        replay.chain
    }
}

/// A snapshot of `chain` in which every address is its own cluster and
/// each `(address, service, category)` entry names its address's cluster —
/// ground-truth-style attribution for the flow entry points, which resolve
/// services through a [`ClusterSnapshot`].
pub fn named_snapshot(
    chain: &ResolvedChain,
    named: &[(AddressId, &str, &str)],
) -> ClusterSnapshot {
    let n = chain.address_count();
    let clustering = Clustering {
        assignment: (0..n as u32).collect(),
        sizes: vec![1; n],
        h1_stats: Default::default(),
        change_labels: None,
    };
    let mut names = NamingReport::default();
    for &(addr, service, category) in named {
        names.names.insert(addr, service.to_string());
        names.categories.insert(addr, category.to_string());
    }
    ClusterSnapshot::build(chain, &clustering, &names)
}

/// Heuristic 1 as §4 states it — "if two (or more) addresses are used as
/// inputs to the same transaction, then they are controlled by the same
/// user" — transcribed with no union-find, as a check on the two engines,
/// which share `heuristic1::link_tx` and `UnionFind`.
///
/// Every pair of distinct input addresses of a non-coinbase transaction is
/// an edge; a cluster is a connected component of that graph, found by
/// breadth-first search. Returns, for each address, the smallest address
/// id in its component.
pub fn h1_oracle(chain: &ResolvedChain) -> Vec<AddressId> {
    let n = chain.address_count();
    let mut adjacent: Vec<Vec<AddressId>> = vec![Vec::new(); n];
    for tx in chain.txs.iter().filter(|tx| !tx.is_coinbase) {
        for a in &tx.inputs {
            for b in &tx.inputs {
                if a.address != b.address {
                    adjacent[a.address as usize].push(b.address);
                }
            }
        }
    }
    let mut label = vec![AddressId::MAX; n];
    // Starting from each unlabelled address in increasing order, the
    // start is the smallest address of the component it reaches.
    for start in 0..n as AddressId {
        if label[start as usize] != AddressId::MAX {
            continue;
        }
        label[start as usize] = start;
        let mut queue = VecDeque::from([start]);
        while let Some(a) = queue.pop_front() {
            for &b in &adjacent[a as usize] {
                if label[b as usize] == AddressId::MAX {
                    label[b as usize] = start;
                    queue.push_back(b);
                }
            }
        }
    }
    label
}

/// Heuristic 2 as §4.1 defines it and §4.2 refines it, transcribed with
/// no per-address history, as a check on the two engines, which share
/// `change::decide`. Each transaction rescans the transactions before it
/// (and, for the wait window, after it). Returns, per transaction, the
/// labelled change output.
pub fn h2_oracle(chain: &ResolvedChain, config: &ChangeConfig) -> Vec<Option<u32>> {
    let txs = &chain.txs;
    let pays = |tx: &ResolvedTx, a: AddressId| tx.outputs.iter().any(|o| o.address == a);
    let spends = |tx: &ResolvedTx, a: AddressId| tx.inputs.iter().any(|i| i.address == a);
    let label = |t: usize| -> Option<u32> {
        let tx = &txs[t];
        let earlier = &txs[..t];
        let appeared = |a| earlier.iter().any(|p| pays(p, a) || spends(p, a));
        // Condition 2: not a coin generation; and the output-count gate.
        if tx.is_coinbase || tx.outputs.len() < config.min_outputs.max(1) {
            return None;
        }
        // Condition 3: no output address is also an input address.
        if tx.outputs.iter().any(|o| spends(tx, o.address)) {
            return None;
        }
        // Change reuse: an output address has already received exactly once.
        let receives =
            |a| earlier.iter().flat_map(|p| &p.outputs).filter(|o| o.address == a).count();
        if config.skip_reused_change && tx.outputs.iter().any(|o| receives(o.address) == 1) {
            return None;
        }
        // Prior self-change: an earlier transaction spent from an output
        // address and paid it back.
        let self_changed = |a| earlier.iter().any(|p| spends(p, a) && pays(p, a));
        if config.skip_prior_self_change && tx.outputs.iter().any(|o| self_changed(o.address)) {
            return None;
        }
        // Conditions 1 and 4: the change address has not appeared before,
        // and every other output's address has.
        let n = tx.outputs.len();
        let change = (0..n).find(|&v| {
            !appeared(tx.outputs[v].address)
                && (0..n).all(|w| w == v || appeared(tx.outputs[w].address))
        })?;
        // Wait-to-label: the change address must not receive again within
        // the window, except from dice addresses alone under the exception.
        if let Some(window) = config.wait_blocks {
            let addr = tx.outputs[change].address;
            let from_dice = |p: &ResolvedTx| {
                config.dice_exception
                    && !p.inputs.is_empty()
                    && p.inputs.iter().all(|i| config.dice_addresses.contains(&i.address))
            };
            let again = |p: &ResolvedTx| pays(p, addr) && p.height - tx.height <= window;
            if txs[t + 1..].iter().any(|p| again(p) && !from_dice(p)) {
                return None;
            }
        }
        Some(change as u32)
    };
    (0..txs.len()).map(label).collect()
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

    #[test]
    fn h1_oracle_labels_components_by_their_smallest_address() {
        let mut t = TestChain::new();
        let (cb1, cb2, cb3, cb3_again) =
            (t.coinbase(1, 50), t.coinbase(2, 50), t.coinbase(3, 50), t.coinbase(3, 50));
        // 2 co-spends with 3, and 3 later with 1; outputs 4 and 5 stay apart.
        t.tx(&[(cb2, 0), (cb3, 0)], &[(4, 60), (5, 40)]);
        t.tx(&[(cb3_again, 0), (cb1, 0)], &[(4, 100)]);
        let label = h1_oracle(&t.chain);
        for (n, min) in [(1, 1), (2, 1), (3, 1), (4, 4), (5, 5)] {
            assert_eq!(label[t.id(n) as usize], t.id(min), "address {n}");
        }
    }
}
