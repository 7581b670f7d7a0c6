//! Columnar (CSR) transaction-graph index — every multi-hop flow question
//! answered from flat arrays.
//!
//! The paper's headline analyses (the Table 2 peeling chains, the §7 theft
//! case studies) are all multi-hop traversals of the transaction graph:
//! "who spends this output, and what does that transaction look like?".
//! Walking a [`ResolvedChain`] answers each hop by chasing per-transaction
//! `Vec`s and hashing `(tx, vout)` pairs into `HashSet`s — fine for one
//! query, wasteful when the same chain is interrogated thousands of times.
//!
//! [`TxGraph`] takes the graph-first formulation instead (the scalable one
//! in Reid & Harrigan's and Fleder et al.'s transaction-graph analyses):
//! one pass over the chain produces a compressed-sparse-row adjacency
//! structure —
//!
//! * `out_start` — per transaction, the range of its outputs within three
//!   flat arrays (`out_address`, `out_value`, `out_spender`). The *flat
//!   output id* `out_start[tx] + vout` names every outpoint with a single
//!   `u32`, so taint frontiers become bitmaps instead of hash sets;
//! * `in_start` / `in_source` — per transaction, the flat output ids its
//!   inputs spend, which makes "how many inputs are tainted?" a handful of
//!   array reads;
//! * per-address `first_seen` / `last_spent` — the liveness interval of
//!   every address: its first appearance, and the last input that spent
//!   from it.
//!
//! Construction is one sequential pass that appends each transaction's
//! outputs and inputs to the flat arrays ([`TxGraph::extend_to`]); a full
//! build is that pass from the empty graph to the chain's end, and the
//! live pipeline runs the same pass block range by block range. The result
//! is immutable, `Send + Sync`, and shareable via
//! [`Arc`](std::sync::Arc): the batch taint engine
//! ([`track_thefts_batch`](crate::theft::track_thefts_batch)) runs N theft
//! walks concurrently over one graph with per-thread frontiers.
//!
//! # Example: build once, batch-track thefts
//!
//! ```
//! use fistful_core::change::{identify, ChangeConfig};
//! use fistful_core::testutil::{named_snapshot, TestChain};
//! use fistful_flow::graph::TxGraph;
//! use fistful_flow::theft::track_thefts_batch;
//!
//! // Two thefts; the first aggregates its loot and peels 30 BTC to an
//! // exchange address, the second's loot never moves.
//! let mut t = TestChain::new();
//! let c1 = t.coinbase(1, 100);
//! let c2 = t.coinbase(2, 100);
//! let _gox = t.coinbase(50, 5); // exchange address, pre-seeded
//! let theft1 = t.tx(&[(c1, 0)], &[(10, 80), (1, 20)]);
//! let theft2 = t.tx(&[(c2, 0)], &[(11, 90), (2, 10)]);
//! let _peel = t.tx(&[(theft1, 0)], &[(50, 30), (12, 50)]);
//!
//! // One pass builds the index; it is reused for every query thereafter.
//! let graph = TxGraph::build(&t.chain);
//! assert_eq!(graph.tx_count(), t.chain.tx_count());
//!
//! let labels = identify(&t.chain, &ChangeConfig::naive());
//! let snapshot = named_snapshot(&t.chain, &[(t.id(50), "Mt. Gox", "exchange")]);
//!
//! // N thefts, one shared graph, per-thread frontiers.
//! let thefts = vec![vec![(theft1 as u32, 0)], vec![(theft2 as u32, 0)]];
//! let traces = track_thefts_batch(&graph, &thefts, &labels, &snapshot, 100, 2);
//! assert!(traces[0].reached_exchange());
//! assert_eq!(traces[0].pattern, "P");
//! assert!(!traces[1].reached_exchange());
//! ```

use fistful_chain::amount::Amount;
use fistful_chain::resolve::{AddressId, ResolvedChain, TxId};
use std::collections::VecDeque;
use std::ops::Range;

/// Sentinel flat value for "no transaction" in the spender / event arrays.
const NO_TX: TxId = TxId::MAX;

/// The columnar transaction-graph index. See the [module docs](self) for
/// the layout and the construction strategy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxGraph {
    /// Per transaction: first flat output id; length `tx_count + 1`.
    out_start: Vec<u32>,
    /// Per flat output: receiving address.
    out_address: Vec<AddressId>,
    /// Per flat output: value.
    out_value: Vec<Amount>,
    /// Per flat output: spending transaction, or [`NO_TX`] if unspent.
    out_spender: Vec<TxId>,
    /// Per transaction: first input slot; length `tx_count + 1`.
    in_start: Vec<u32>,
    /// Per input slot: the flat output id this input spends.
    in_source: Vec<u32>,
    /// Per address: first transaction it appeared in (input or output).
    first_seen: Vec<TxId>,
    /// Per address: last transaction it spent in, or [`NO_TX`].
    last_spent: Vec<TxId>,
}

impl TxGraph {
    /// Builds the index over the whole chain: [`TxGraph::build_at`] at
    /// `chain.tx_count()`.
    pub fn build(chain: &ResolvedChain) -> TxGraph {
        TxGraph::build_at(chain, chain.tx_count())
    }

    /// Builds the index over only the first `tx_end` transactions of
    /// `chain` — the graph the live hot-swap pipeline pairs with a
    /// mid-ingest `ClusterSnapshot::build_at` export
    /// (`fistful_core::snapshot`). Outputs whose spender sits at or past
    /// `tx_end` count as unspent, and the liveness arrays cover only the
    /// addresses the prefix has interned (addresses are interned in
    /// first-appearance order, so the prefix covers a dense id range).
    pub fn build_at(chain: &ResolvedChain, tx_end: usize) -> TxGraph {
        assert!(tx_end <= chain.tx_count(), "tx_end exceeds the chain");
        let mut graph = TxGraph {
            out_start: vec![0u32],
            out_address: Vec::new(),
            out_value: Vec::new(),
            out_spender: Vec::new(),
            in_start: vec![0u32],
            in_source: Vec::new(),
            first_seen: Vec::new(),
            last_spent: Vec::new(),
        };
        graph.extend_to(chain, tx_end);
        graph
    }

    /// Grows a prefix graph forward to cover the first `tx_end`
    /// transactions, reusing every already-filled array: new transactions
    /// append their outputs and inputs, previously-unspent outputs now
    /// spent get their `out_spender` patched in place, and the liveness
    /// arrays extend to the prefix's address range. The result is
    /// identical to [`TxGraph::build_at`] from scratch at `tx_end`, which
    /// the differential tests assert — this is the O(new blocks) path the
    /// live ingest thread takes at each epoch publish.
    ///
    /// Panics if `tx_end` exceeds the chain or precedes the graph's
    /// current coverage (graphs only extend forward), or if the graph was
    /// built over a different chain's prefix.
    pub fn extend_to(&mut self, chain: &ResolvedChain, tx_end: usize) {
        assert!(tx_end <= chain.tx_count(), "tx_end exceeds the chain");
        let old_end = self.tx_count();
        assert!(old_end <= tx_end, "graphs only extend forward");
        let tx_end_id = tx_end as TxId;

        let n_addr = chain.address_count_at(tx_end);
        for a in self.address_count() as AddressId..n_addr as AddressId {
            self.first_seen.push(chain.first_seen(a));
            self.last_spent.push(NO_TX);
        }

        for (off, tx) in chain.txs[old_end..tx_end].iter().enumerate() {
            let t = (old_end + off) as TxId;
            for out in &tx.outputs {
                self.out_address.push(out.address);
                self.out_value.push(out.value);
                // A spender at or past the prefix end is invisible here;
                // a later extend_to patches it in when it arrives.
                self.out_spender.push(match out.spent_by {
                    Some(s) if s < tx_end_id => s,
                    _ => NO_TX,
                });
            }
            for input in &tx.inputs {
                let src = self.out_start[input.prev_tx as usize] + input.prev_vout;
                self.in_source.push(src);
                // An output appended by this call already carries its
                // spender; only an older one needs the patch.
                if (input.prev_tx as usize) < old_end {
                    self.out_spender[src as usize] = t;
                }
                self.last_spent[input.address as usize] = t;
            }
            assert!(
                self.out_address.len() < u32::MAX as usize
                    && self.in_source.len() < u32::MAX as usize,
                "chain exceeds the u32 flat-index space of TxGraph"
            );
            self.out_start.push(self.out_address.len() as u32);
            self.in_start.push(self.in_source.len() as u32);
        }
    }

    /// Number of transactions indexed.
    pub fn tx_count(&self) -> usize {
        self.out_start.len() - 1
    }

    /// Number of addresses covered by the liveness arrays.
    pub fn address_count(&self) -> usize {
        self.first_seen.len()
    }

    /// Total number of outputs (the length of the flat output arrays).
    pub fn output_count(&self) -> usize {
        *self.out_start.last().expect("out_start never empty") as usize
    }

    /// Total number of inputs across all transactions.
    pub fn input_count(&self) -> usize {
        *self.in_start.last().expect("in_start never empty") as usize
    }

    /// The flat output ids of transaction `tx`, in vout order.
    pub fn outputs(&self, tx: TxId) -> Range<u32> {
        self.out_start[tx as usize]..self.out_start[tx as usize + 1]
    }

    /// Number of outputs of transaction `tx`.
    pub fn num_outputs(&self, tx: TxId) -> usize {
        self.outputs(tx).len()
    }

    /// Number of inputs of transaction `tx` (zero for coinbases).
    pub fn num_inputs(&self, tx: TxId) -> usize {
        (self.in_start[tx as usize + 1] - self.in_start[tx as usize]) as usize
    }

    /// The flat output ids spent by transaction `tx`'s inputs, in input
    /// order.
    pub fn inputs(&self, tx: TxId) -> &[u32] {
        &self.in_source[self.in_start[tx as usize] as usize..self.in_start[tx as usize + 1] as usize]
    }

    /// The flat output id of outpoint `(tx, vout)`.
    pub fn flat(&self, tx: TxId, vout: u32) -> u32 {
        debug_assert!((vout as usize) < self.num_outputs(tx), "vout out of range");
        self.out_start[tx as usize] + vout
    }

    /// The `(tx, vout)` outpoint of a flat output id (binary search over
    /// the prefix array; the forward mapping [`flat`](Self::flat) is O(1)).
    pub fn outpoint(&self, flat: u32) -> (TxId, u32) {
        let tx = self.out_start.partition_point(|&s| s <= flat) - 1;
        (tx as TxId, flat - self.out_start[tx])
    }

    /// The receiving address of a flat output.
    pub fn address_of(&self, flat: u32) -> AddressId {
        self.out_address[flat as usize]
    }

    /// The value of a flat output.
    pub fn value_of(&self, flat: u32) -> Amount {
        self.out_value[flat as usize]
    }

    /// The transaction spending a flat output, if any.
    pub fn spender_of(&self, flat: u32) -> Option<TxId> {
        match self.out_spender[flat as usize] {
            NO_TX => None,
            t => Some(t),
        }
    }

    /// The transaction spending outpoint `(tx, vout)`, if any — the
    /// columnar equivalent of `ResolvedOutput::spent_by`.
    pub fn spender(&self, tx: TxId, vout: u32) -> Option<TxId> {
        self.spender_of(self.flat(tx, vout))
    }

    /// The first transaction in which `addr` appeared (as input or
    /// output), or `None` for an address id the graph has never seen.
    pub fn first_seen(&self, addr: AddressId) -> Option<TxId> {
        match self.first_seen.get(addr as usize) {
            Some(&t) if t != NO_TX => Some(t),
            _ => None,
        }
    }

    /// The last transaction in which `addr` spent an input, or `None` if
    /// the address never spent (a *sink* in the paper's terminology).
    pub fn last_spent(&self, addr: AddressId) -> Option<TxId> {
        match self.last_spent.get(addr as usize) {
            Some(&t) if t != NO_TX => Some(t),
            _ => None,
        }
    }

    // ----- columnar store format -----

    /// Adds the graph to a columnar container, one segment per CSR array
    /// (`graph/out_start`, `graph/out_address`, …) plus a `graph/meta`
    /// segment of cross-check counts, so [`TxGraph::read_store`] can
    /// reconstruct the graph with bulk reads into pre-sized buffers — no
    /// per-element decode, and no rebuild pass over the chain.
    pub fn write_store(&self, out: &mut fistful_store::StoreWriter) {
        use fistful_chain::encode::Writer;
        let mut meta = Writer::new();
        meta.u64(self.tx_count() as u64);
        meta.u64(self.address_count() as u64);
        meta.u64(self.output_count() as u64);
        meta.u64(self.input_count() as u64);
        out.segment("graph/meta", meta.into_bytes());
        let col = |vs: &[u32]| {
            let mut w = Writer::new();
            w.u32_slice(vs);
            w.into_bytes()
        };
        out.segment("graph/out_start", col(&self.out_start));
        out.segment("graph/out_address", col(&self.out_address));
        let sats: Vec<u64> = self.out_value.iter().map(|a| a.to_sat()).collect();
        let mut w = Writer::new();
        w.u64_slice(&sats);
        out.segment("graph/out_value", w.into_bytes());
        out.segment("graph/out_spender", col(&self.out_spender));
        out.segment("graph/in_start", col(&self.in_start));
        out.segment("graph/in_source", col(&self.in_source));
        out.segment("graph/first_seen", col(&self.first_seen));
        out.segment("graph/last_spent", col(&self.last_spent));
    }

    /// Reads a graph back from a columnar container, validating the CSR
    /// invariants (monotone prefix arrays, cross-referencing flat ids and
    /// transaction ids in range) before exposing any accessor — the
    /// accessors index unchecked, so a corrupt file must fail here.
    pub fn read_store(
        store: &mut fistful_store::Store,
    ) -> Result<TxGraph, fistful_store::StoreError> {
        use fistful_store::StoreError;
        let (tx_count, addr_count, output_count, input_count) = store.decode("graph/meta", |r| {
            Ok((r.u64()? as usize, r.u64()? as usize, r.u64()? as usize, r.u64()? as usize))
        })?;

        let out_start = store.u32s("graph/out_start")?;
        let out_address = store.u32s("graph/out_address")?;
        let out_value: Vec<Amount> =
            store.u64s("graph/out_value")?.into_iter().map(Amount::from_sat).collect();
        let out_spender = store.u32s("graph/out_spender")?;
        let in_start = store.u32s("graph/in_start")?;
        let in_source = store.u32s("graph/in_source")?;
        let first_seen = store.u32s("graph/first_seen")?;
        let last_spent = store.u32s("graph/last_spent")?;

        let check_prefix = |starts: &[u32], flat_len: usize, what: &'static str| {
            if starts.len() != tx_count + 1 {
                return Err(StoreError::Inconsistent("graph prefix array has wrong length"));
            }
            if starts[0] != 0 || starts.windows(2).any(|w| w[0] > w[1]) {
                return Err(StoreError::Inconsistent(what));
            }
            if *starts.last().expect("non-empty") as usize != flat_len {
                return Err(StoreError::Inconsistent(
                    "graph prefix array disagrees with its flat column",
                ));
            }
            Ok(())
        };
        check_prefix(&out_start, output_count, "graph out_start is not monotone from zero")?;
        check_prefix(&in_start, input_count, "graph in_start is not monotone from zero")?;
        if out_address.len() != output_count
            || out_value.len() != output_count
            || out_spender.len() != output_count
        {
            return Err(StoreError::Inconsistent("graph output columns disagree on length"));
        }
        if in_source.len() != input_count {
            return Err(StoreError::Inconsistent("graph input column disagrees on length"));
        }
        if first_seen.len() != addr_count || last_spent.len() != addr_count {
            return Err(StoreError::Inconsistent("graph liveness columns disagree on length"));
        }
        if in_source.iter().any(|&f| f as usize >= output_count) {
            return Err(StoreError::Inconsistent("graph input references a flat id out of range"));
        }
        if out_address.iter().any(|&a| a as usize >= addr_count) {
            return Err(StoreError::Inconsistent(
                "graph output references an address id out of range",
            ));
        }
        let tx_ok = |&t: &u32| t == NO_TX || (t as usize) < tx_count;
        if !out_spender.iter().all(tx_ok)
            || !first_seen.iter().all(tx_ok)
            || !last_spent.iter().all(tx_ok)
        {
            return Err(StoreError::Inconsistent(
                "graph references a transaction id out of range",
            ));
        }
        Ok(TxGraph {
            out_start,
            out_address,
            out_value,
            out_spender,
            in_start,
            in_source,
            first_seen,
            last_spent,
        })
    }
}

/// An open-addressed set of `u32` keys with multiplicative (Fibonacci)
/// hashing — the taint frontier's working set.
///
/// Taint walks touch a few hundred outputs of a multi-million-output
/// graph, so the frontier must cost O(walk), not O(chain): a bitmap over
/// all flat ids would spend more time being allocated and zeroed than the
/// walk itself, and the standard library's `HashSet` pays SipHash on every
/// probe. This table hashes with one multiply, probes linearly, keeps a
/// power-of-two capacity, and clears in O(capacity) — where capacity is
/// proportional to the largest walk this scratch has seen, not to the
/// chain.
///
/// Keys must be below `u32::MAX` (the empty-slot sentinel); the graph
/// builder guarantees that for flat output ids and transaction ids alike.
#[derive(Debug, Clone)]
pub(crate) struct FlatSet {
    /// Power-of-two table of keys; `EMPTY` marks free slots.
    table: Vec<u32>,
    /// Number of keys present.
    len: usize,
}

/// Free-slot marker.
const EMPTY: u32 = u32::MAX;

impl FlatSet {
    /// A set with room for a small walk; grows on demand.
    pub(crate) fn new() -> FlatSet {
        FlatSet { table: vec![EMPTY; 64], len: 0 }
    }

    #[inline]
    fn slot(&self, key: u32) -> usize {
        // Fibonacci hashing: multiply by 2^32/φ and keep the HIGH bits —
        // the low bits of the product are just `key % len` (the odd
        // multiplier is invertible mod 2^32), which would cluster strided
        // keys into one probe chain. The table length is a power of two,
        // so the shift yields an in-range index.
        let h = key.wrapping_mul(0x9E37_79B9);
        (h >> (32 - self.table.len().trailing_zeros())) as usize
    }

    /// True if `key` is present.
    #[inline]
    pub(crate) fn contains(&self, key: u32) -> bool {
        let mut i = self.slot(key);
        loop {
            match self.table[i] {
                EMPTY => return false,
                k if k == key => return true,
                _ => i = (i + 1) & (self.table.len() - 1),
            }
        }
    }

    /// Inserts `key`; returns true if it was newly added.
    #[inline]
    pub(crate) fn insert(&mut self, key: u32) -> bool {
        debug_assert!(key != EMPTY, "u32::MAX is the empty sentinel");
        if self.len * 4 >= self.table.len() * 3 {
            self.grow();
        }
        let mut i = self.slot(key);
        loop {
            match self.table[i] {
                EMPTY => {
                    self.table[i] = key;
                    self.len += 1;
                    return true;
                }
                k if k == key => return false,
                _ => i = (i + 1) & (self.table.len() - 1),
            }
        }
    }

    /// Removes every key, keeping the capacity for the next walk.
    pub(crate) fn clear(&mut self) {
        if self.len > 0 {
            self.table.fill(EMPTY);
            self.len = 0;
        }
    }

    fn grow(&mut self) {
        let old = std::mem::replace(&mut self.table, vec![EMPTY; 0]);
        self.table = vec![EMPTY; old.len() * 2];
        self.len = 0;
        for key in old {
            if key != EMPTY {
                self.insert(key);
            }
        }
    }
}

/// Reusable per-thread walk state for taint traversals over a [`TxGraph`]:
/// the tainted-output and visited-transaction sets (sparse
/// open-addressed tables over flat ids — O(walk) memory regardless of
/// chain size) plus the FIFO work queue.
///
/// One scratch per worker thread is the memory model of the batch engine
/// ([`track_thefts_batch`](crate::theft::track_thefts_batch)): the tables
/// are allocated once per thread and reused across every theft that worker
/// picks up, so steady-state walks allocate nothing beyond their own
/// result records.
#[derive(Debug, Clone)]
pub struct TaintScratch {
    /// Tainted flat output ids.
    pub(crate) tainted: FlatSet,
    /// Visited transaction ids.
    pub(crate) visited: FlatSet,
    /// FIFO frontier of tainted flat output ids.
    pub(crate) queue: VecDeque<u32>,
}

impl TaintScratch {
    /// Allocates an empty scratch for walks over `graph`. The parameter
    /// only anchors the scratch to a graph conceptually — state is sized
    /// by the walks, not the chain, and grows on demand.
    pub fn for_graph(_graph: &TxGraph) -> TaintScratch {
        TaintScratch {
            tainted: FlatSet::new(),
            visited: FlatSet::new(),
            queue: VecDeque::new(),
        }
    }

    /// Clears all walk state, keeping capacity for the next walk.
    pub fn reset(&mut self) {
        self.tainted.clear();
        self.visited.clear();
        self.queue.clear();
    }

    /// Marks a flat output tainted; returns whether it was newly tainted.
    #[inline]
    pub(crate) fn taint(&mut self, flat: u32) -> bool {
        self.tainted.insert(flat)
    }

    /// Marks a transaction visited; returns whether it was newly visited.
    #[inline]
    pub(crate) fn visit(&mut self, tx: TxId) -> bool {
        self.visited.insert(tx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fistful_core::testutil::TestChain;

    /// A small chain exercising multi-block, multi-output shapes.
    fn sample() -> TestChain {
        let mut t = TestChain::new();
        let c1 = t.coinbase(1, 100);
        let c2 = t.coinbase(2, 50);
        let a = t.tx(&[(c1, 0)], &[(3, 60), (1, 40)]);
        let _b = t.tx(&[(a, 0), (c2, 0)], &[(4, 50), (5, 30), (6, 30)]);
        t
    }

    #[test]
    fn csr_shape_matches_chain() {
        let t = sample();
        let g = TxGraph::build(&t.chain);
        assert_eq!(g.tx_count(), t.chain.tx_count());
        assert_eq!(g.address_count(), t.chain.address_count());
        assert_eq!(g.output_count(), t.chain.total_output_count());
        assert_eq!(g.input_count(), t.chain.total_input_count());
        for (tx_id, tx) in t.chain.txs.iter().enumerate() {
            let tx_id = tx_id as TxId;
            assert_eq!(g.num_outputs(tx_id), tx.outputs.len());
            assert_eq!(g.num_inputs(tx_id), tx.inputs.len());
            for (v, o) in tx.outputs.iter().enumerate() {
                let flat = g.flat(tx_id, v as u32);
                assert_eq!(g.address_of(flat), o.address);
                assert_eq!(g.value_of(flat), o.value);
                assert_eq!(g.spender_of(flat), o.spent_by);
                assert_eq!(g.spender(tx_id, v as u32), o.spent_by);
                assert_eq!(g.outpoint(flat), (tx_id, v as u32));
            }
            for (slot, input) in tx.inputs.iter().enumerate() {
                assert_eq!(
                    g.inputs(tx_id)[slot],
                    g.flat(input.prev_tx, input.prev_vout)
                );
            }
        }
    }

    #[test]
    fn liveness_matches_resolver() {
        let t = sample();
        let g = TxGraph::build(&t.chain);
        for a in 0..t.chain.address_count() as AddressId {
            assert_eq!(g.first_seen(a), Some(t.chain.first_seen(a)));
            assert_eq!(g.last_spent(a), t.chain.last_spent_in(a));
        }
        // Out-of-range ids resolve to None, not a panic.
        assert_eq!(g.first_seen(u32::MAX), None);
        assert_eq!(g.last_spent(u32::MAX), None);
        // Address 1 spent in the first non-coinbase tx; address 4 never.
        assert_eq!(g.last_spent(t.id(1)), Some(2));
        assert_eq!(g.last_spent(t.id(4)), None);
    }

    #[test]
    fn store_round_trips_losslessly() {
        let t = sample();
        let g = TxGraph::build(&t.chain);
        let mut w = fistful_store::StoreWriter::new();
        g.write_store(&mut w);
        let mut store = fistful_store::Store::open_bytes(w.to_bytes()).unwrap();
        let restored = TxGraph::read_store(&mut store).unwrap();
        assert_eq!(restored, g);
        // And the empty graph.
        let g = TxGraph::build(&TestChain::new().chain);
        let mut w = fistful_store::StoreWriter::new();
        g.write_store(&mut w);
        let mut store = fistful_store::Store::open_bytes(w.to_bytes()).unwrap();
        assert_eq!(TxGraph::read_store(&mut store).unwrap(), g);
    }

    #[test]
    fn store_read_rejects_semantic_corruption() {
        let t = sample();
        let g = TxGraph::build(&t.chain);
        // Re-encode the container with one column replaced, for each
        // corruption that must be caught by the semantic validator (the
        // container layer cannot see it: checksums are recomputed).
        type Corruption = (&'static str, Box<dyn Fn(&mut TxGraph)>);
        let cases: Vec<Corruption> = vec![
            ("non-monotone out_start", Box::new(|g| g.out_start[1] = u32::MAX)),
            ("prefix/flat disagreement", Box::new(|g| *g.out_start.last_mut().unwrap() += 1)),
            ("in_source out of range", Box::new(|g| g.in_source[0] = u32::MAX - 1)),
            ("out_address out of range", Box::new(|g| g.out_address[0] = u32::MAX - 1)),
            ("out_spender out of range", Box::new(|g| g.out_spender[0] = 1 << 20)),
            ("short liveness", Box::new(|g| { g.first_seen.pop(); })),
            ("wrong prefix length", Box::new(|g| { g.out_start.pop(); })),
        ];
        for (what, corrupt) in cases {
            let mut bad = g.clone();
            corrupt(&mut bad);
            let mut w = fistful_store::StoreWriter::new();
            bad.write_store(&mut w);
            let mut store = fistful_store::Store::open_bytes(w.to_bytes()).unwrap();
            assert!(
                matches!(
                    TxGraph::read_store(&mut store),
                    Err(fistful_store::StoreError::Inconsistent(_))
                ),
                "corruption not caught: {what}"
            );
        }
    }

    #[test]
    fn build_at_full_prefix_equals_build() {
        let t = sample();
        let g = TxGraph::build(&t.chain);
        assert_eq!(TxGraph::build_at(&t.chain, t.chain.tx_count()), g);
    }

    #[test]
    fn build_at_prefix_clamps_future_spends() {
        let t = sample();
        // Prefix of 3 txs: the final co-spend (tx 3) is invisible, so the
        // outputs it spends (a's output 0 and c2's) must read unspent.
        let g = TxGraph::build_at(&t.chain, 3);
        assert_eq!(g.tx_count(), 3);
        assert_eq!(g.spender(2, 0), None);
        assert_eq!(g.spender(1, 0), None);
        // Within the prefix the spend of c1 by tx 2 is still visible.
        assert_eq!(g.spender(0, 0), Some(2));
        // Liveness stops at the prefix: address 2 only spends in tx 3.
        assert_eq!(g.last_spent(t.id(2)), None);
        assert_eq!(g.last_spent(t.id(1)), Some(2));
        // Addresses born by tx 3 (4, 5, 6) are not covered.
        assert!(g.address_count() < t.chain.address_count());
        assert_eq!(g.first_seen(t.id(4)), None);
    }

    #[test]
    fn extend_to_matches_build_at_at_every_cut() {
        let t = sample();
        let n = t.chain.tx_count();
        for start in 0..=n {
            let mut g = TxGraph::build_at(&t.chain, start);
            for end in start..=n {
                let mut step = g.clone();
                step.extend_to(&t.chain, end);
                assert_eq!(step, TxGraph::build_at(&t.chain, end), "{start}->{end}");
            }
            // And growing one cut at a time lands on the same arrays.
            for end in start..=n {
                g.extend_to(&t.chain, end);
            }
            assert_eq!(g, TxGraph::build(&t.chain), "{start}->full");
        }
    }

    #[test]
    fn empty_chain_builds() {
        let t = TestChain::new();
        let g = TxGraph::build(&t.chain);
        assert_eq!(g.tx_count(), 0);
        assert_eq!(g.output_count(), 0);
        assert_eq!(g.input_count(), 0);
        assert_eq!(g.address_count(), 0);
    }

    #[test]
    fn scratch_reset_is_complete() {
        let t = sample();
        let g = TxGraph::build(&t.chain);
        let mut s = TaintScratch::for_graph(&g);
        assert!(s.taint(0));
        assert!(!s.taint(0), "double taint reports false");
        assert!(s.visit(1));
        assert!(!s.visit(1), "double visit reports false");
        s.queue.push_back(0);
        s.reset();
        assert!(!s.tainted.contains(0));
        assert!(!s.visited.contains(1));
        assert!(s.queue.is_empty());
        // Reset state behaves like new: the same walk replays identically.
        assert!(s.taint(0) && s.visit(1));
    }

    /// The frontier set must behave exactly like a `HashSet<u32>` through
    /// growth, duplicate inserts, collisions and clears.
    #[test]
    fn flat_set_matches_std_hashset() {
        let mut ours = FlatSet::new();
        let mut std_set = std::collections::HashSet::new();
        // A mix of clustered and scattered keys, far beyond the initial
        // capacity so the table grows several times; many collide modulo
        // small powers of two.
        let keys: Vec<u32> = (0..2_000u32)
            .map(|i| i.wrapping_mul(64).wrapping_add(i % 3))
            .chain((0..500).map(|i| i * 7919))
            .collect();
        for &k in &keys {
            assert_eq!(ours.insert(k), std_set.insert(k), "insert {k}");
        }
        for k in 0..200_000u32 {
            assert_eq!(ours.contains(k), std_set.contains(&k), "contains {k}");
        }
        ours.clear();
        assert!(!ours.contains(keys[0]));
        assert!(ours.insert(keys[0]), "insert after clear");
    }
}
