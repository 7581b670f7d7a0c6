//! Frozen, queryable cluster snapshots — the paper's "cluster once, then
//! interrogate" artifact.
//!
//! Every table and figure of the paper is a *query* against a finished
//! clustering: "which cluster holds this address, what is it called, how
//! much has it received?" A [`ClusterSnapshot`] freezes the answer — the
//! canonically renumbered partition from a [`Clustering`], the
//! [`NamingReport`] labels, and per-cluster aggregates — into one immutable
//! structure with O(1) address → [`ClusterInfo`] lookup. It holds no locks
//! and no interior mutability, so wrapping it in an
//! [`Arc`](std::sync::Arc) shares it across any number of reader threads
//! with zero synchronization (`benchmark/` reports the per-lookup cost as
//! `core.snapshot.lookup_ns` on its `serve_point_cold` workload).
//!
//! # Byte form: three `snap/*` segments
//!
//! A snapshot has one persisted form: three named segments of a
//! `fistful_store` container ([`ClusterSnapshot::write_store`] /
//! [`ClusterSnapshot::read_store`]), which is what `snapshot.fst` in a
//! serve store directory holds. [`ClusterSnapshot::to_bytes`] returns the
//! container holding exactly those segments, so byte equality of two
//! `to_bytes()` results is byte equality of what the store would write.
//! The container supplies magic, version, declared length, and the TOC
//! and per-segment double-SHA-256 checksums; the segments are built on the
//! consensus-style primitives of [`fistful_chain::encode`] (little-endian
//! fixed-width integers, canonical Bitcoin `CompactSize` counts,
//! `CompactSize`-length-prefixed UTF-8 strings):
//!
//! | segment           | contents                                          |
//! |-------------------|---------------------------------------------------|
//! | `snap/meta`       | `tip_height`, `tx_count`, cluster count, address count — four u64s |
//! | `snap/assignment` | one u32 cluster id per address, indexed by [`AddressId`] |
//! | `snap/clusters`   | `CompactSize` count, then one [`ClusterInfo`] record per cluster in canonical id order |
//!
//! A [`ClusterInfo`] record is `size` (u32), `received` (u64 satoshis),
//! `spent` (u64 satoshis), `name` (optional string), `category` (optional
//! string); an optional string is a `0`/`1` presence byte followed, when
//! present, by the string — so a record is at least 22 bytes.
//!
//! [`ClusterSnapshot::read_store`] enforces: the meta counts equal the
//! column lengths, the cluster count is bounded by what the `snap/clusters`
//! bytes could hold (not by `MAX_VEC_LEN`: cluster count can legitimately
//! exceed it), every assignment entry is `< cluster count`, and each
//! cluster's `size` equals the number of addresses assigned to it.
//! Violations are [`StoreError::Inconsistent`] or [`StoreError::Decode`].

use crate::cluster::Clustering;
use crate::naming::NamingReport;
use fistful_chain::amount::Amount;
use fistful_chain::encode::{Decodable, DecodeError, Encodable, Reader, Writer};
use fistful_chain::resolve::{AddressId, ResolvedChain};
use fistful_store::{Store, StoreError, StoreWriter};

/// The smallest encoded [`ClusterInfo`]: u32 + 2×u64 + two presence bytes.
const MIN_CLUSTER_INFO_LEN: usize = 4 + 8 + 8 + 1 + 1;

/// Per-cluster aggregates: everything an address lookup should answer
/// without touching the chain.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClusterInfo {
    /// Number of addresses in the cluster.
    pub size: u32,
    /// Total value ever received by the cluster's addresses.
    pub received: Amount,
    /// Total value ever spent by the cluster's addresses.
    pub spent: Amount,
    /// The cluster's service name from tag-vote naming, if it was named.
    pub name: Option<String>,
    /// The category of the winning name, if the cluster was named.
    pub category: Option<String>,
}

impl Encodable for ClusterInfo {
    fn encode(&self, w: &mut Writer) {
        w.u32(self.size);
        w.u64(self.received.to_sat());
        w.u64(self.spent.to_sat());
        w.opt_string(self.name.as_deref());
        w.opt_string(self.category.as_deref());
    }
}

impl Decodable for ClusterInfo {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(ClusterInfo {
            size: r.u32()?,
            received: Amount::from_sat(r.u64()?),
            spent: Amount::from_sat(r.u64()?),
            name: r.opt_string()?,
            category: r.opt_string()?,
        })
    }
}

/// Received and spent satoshis per address over a transaction prefix:
/// the per-address half of a snapshot's aggregates, which a fold through
/// any assignment of the same addresses turns into per-cluster rows.
///
/// A forward-only builder, like `fistful_flow::graph::TxGraph` and
/// `fistful_flow::BalanceSeries`: [`AddressTotals::new`] covers no
/// transaction, and [`AddressTotals::extend_to`] adds the inputs and
/// outputs of the transactions up to a later cut, at O(new inputs and
/// outputs). `ShardedIngest` keeps one and extends it at every reconcile,
/// so its export never re-walks the prefix; [`ClusterSnapshot::build_at`]
/// extends a fresh one in a single step.
#[derive(Debug, Clone, Default)]
pub(crate) struct AddressTotals {
    /// Transactions covered: the prefix `txs[..tx_end]`.
    tx_end: usize,
    /// Satoshis received per address (indexed by [`AddressId`]).
    received: Vec<u64>,
    /// Satoshis spent per address (indexed by [`AddressId`]).
    spent: Vec<u64>,
}

impl AddressTotals {
    /// Totals over the empty prefix.
    pub(crate) fn new() -> AddressTotals {
        AddressTotals::default()
    }

    /// Transactions covered.
    pub(crate) fn tx_end(&self) -> usize {
        self.tx_end
    }

    /// Addresses the covered prefix references: ids `0..address_count()`.
    pub(crate) fn address_count(&self) -> usize {
        self.received.len()
    }

    /// Adds the transactions `txs[self.tx_end()..tx_end]` of `chain`.
    /// `tx_end` may equal the current cut.
    ///
    /// Panics if `tx_end` exceeds the chain or falls before the current
    /// cut.
    pub(crate) fn extend_to(&mut self, chain: &ResolvedChain, tx_end: usize) {
        assert!(tx_end <= chain.tx_count(), "tx_end exceeds the chain");
        assert!(tx_end >= self.tx_end, "address totals only extend forward");
        let n_addr = chain.address_count_at(tx_end);
        self.received.resize(n_addr, 0);
        self.spent.resize(n_addr, 0);
        for tx in &chain.txs[self.tx_end..tx_end] {
            for out in &tx.outputs {
                self.received[out.address as usize] += out.value.to_sat();
            }
            for input in &tx.inputs {
                self.spent[input.address as usize] += input.value.to_sat();
            }
        }
        self.tx_end = tx_end;
    }
}

/// A frozen, immutable clustering artifact with O(1) address lookups.
///
/// Built once by [`ClusterSnapshot::build`] from a finished [`Clustering`]
/// (whose `assignments()` renumbering is already canonical: dense ids in
/// order of first address appearance), the chain the clustering ran over,
/// and the [`NamingReport`] for its tags. After that the snapshot never
/// changes — it is plain owned data, `Send + Sync`, safe to share across
/// threads via [`Arc`](std::sync::Arc) with zero locks.
///
/// # Round-trip example
///
/// ```
/// use fistful_core::cluster::Clusterer;
/// use fistful_core::naming::name_clusters;
/// use fistful_core::snapshot::ClusterSnapshot;
/// use fistful_core::tagdb::TagDb;
/// use fistful_core::testutil::TestChain;
///
/// // A two-user economy: addresses 1 and 2 co-spend, so Heuristic 1
/// // links them; address 3 stays separate.
/// let mut t = TestChain::new();
/// let cb1 = t.coinbase(1, 50);
/// let cb2 = t.coinbase(2, 50);
/// t.tx(&[(cb1, 0), (cb2, 0)], &[(3, 100)]);
///
/// let clustering = Clusterer::h1_only().run(&t.chain);
/// let names = name_clusters(&clustering, &TagDb::new());
/// let snapshot = ClusterSnapshot::build(&t.chain, &clustering, &names);
///
/// // Encode to the store container and read it back.
/// let mut store = fistful_store::Store::open_bytes(snapshot.to_bytes()).unwrap();
/// let restored = ClusterSnapshot::read_store(&mut store).unwrap();
/// assert_eq!(restored, snapshot);
///
/// // O(1) queries against the frozen artifact.
/// assert_eq!(restored.cluster_of(t.id(1)), restored.cluster_of(t.id(2)));
/// let info = restored.info_of_address(t.id(3)).unwrap();
/// assert_eq!(info.size, 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClusterSnapshot {
    /// Cluster id per address (indexed by [`AddressId`]); dense canonical
    /// ids in `0..clusters.len()`.
    assignment: Vec<u32>,
    /// Aggregates per cluster (indexed by cluster id).
    clusters: Vec<ClusterInfo>,
    /// Height of the last block the clustering saw.
    tip_height: u64,
    /// Number of transactions aggregated into `received`/`spent`.
    tx_count: u64,
}

impl ClusterSnapshot {
    /// Fuses a clustering, its naming, and chain aggregates into a frozen
    /// snapshot: [`ClusterSnapshot::build_at`] over the whole chain.
    ///
    /// Panics if `clustering` does not cover exactly the addresses of
    /// `chain` (they must come from the same run).
    pub fn build(
        chain: &ResolvedChain,
        clustering: &Clustering,
        names: &NamingReport,
    ) -> ClusterSnapshot {
        assert_eq!(
            clustering.assignment.len(),
            chain.address_count(),
            "clustering and chain disagree on address count"
        );
        ClusterSnapshot::build_at(chain, chain.tx_count(), clustering, names)
    }

    /// [`ClusterSnapshot::build`] for a clustering that has only seen the
    /// first `tx_end` transactions of `chain` — the batch form of the
    /// mid-ingest export `ShardedIngest` makes at epoch boundaries.
    ///
    /// It sums received and spent satoshis per address over the prefix,
    /// then folds those totals through the clustering's assignment in one
    /// pass: the same fold the online export runs over the totals it
    /// keeps. Addresses are interned in order of first appearance, so
    /// the prefix references exactly the address ids
    /// `0..totals.address_count()`; the clustering may cover more (a full
    /// run's clustering at a shorter cut).
    ///
    /// Panics if `tx_end` exceeds the chain or the prefix references an
    /// address the clustering does not cover (the clustering came from a
    /// different run).
    pub fn build_at(
        chain: &ResolvedChain,
        tx_end: usize,
        clustering: &Clustering,
        names: &NamingReport,
    ) -> ClusterSnapshot {
        let mut totals = AddressTotals::new();
        totals.extend_to(chain, tx_end);
        ClusterSnapshot::fold(
            chain,
            &totals,
            clustering.assignment.clone(),
            &clustering.sizes,
            names,
        )
    }

    /// Folds per-address `totals` into per-cluster rows under `assignment`
    /// (dense cluster ids, `sizes` per id) and `names`: one sequential
    /// pass over the addresses, no walk of the transactions.
    ///
    /// Panics if the totals cover an address the assignment does not.
    pub(crate) fn fold(
        chain: &ResolvedChain,
        totals: &AddressTotals,
        assignment: Vec<u32>,
        sizes: &[u32],
        names: &NamingReport,
    ) -> ClusterSnapshot {
        assert!(
            totals.address_count() <= assignment.len(),
            "clustering does not cover the transaction prefix"
        );
        let mut clusters: Vec<ClusterInfo> =
            sizes.iter().map(|&size| ClusterInfo { size, ..Default::default() }).collect();
        for (cluster, name) in &names.names {
            let slot = &mut clusters[*cluster as usize];
            slot.name = Some(name.clone());
            slot.category = names.categories.get(cluster).cloned();
        }
        for ((&c, &r), &s) in assignment.iter().zip(&totals.received).zip(&totals.spent) {
            let row = &mut clusters[c as usize];
            row.received = Amount::from_sat(row.received.to_sat() + r);
            row.spent = Amount::from_sat(row.spent.to_sat() + s);
        }
        let tx_end = totals.tx_end();
        let tip_height = tx_end.checked_sub(1).map(|i| chain.txs[i].height).unwrap_or(0);
        ClusterSnapshot { assignment, clusters, tip_height, tx_count: tx_end as u64 }
    }

    // ----- O(1) queries -----

    /// Number of addresses covered.
    pub fn address_count(&self) -> usize {
        self.assignment.len()
    }

    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Height of the last block the clustering saw.
    pub fn tip_height(&self) -> u64 {
        self.tip_height
    }

    /// Number of transactions aggregated into the received/spent totals.
    pub fn tx_count(&self) -> u64 {
        self.tx_count
    }

    /// The cluster containing `addr`, if the address is covered.
    pub fn cluster_of(&self, addr: AddressId) -> Option<u32> {
        self.assignment.get(addr as usize).copied()
    }

    /// True if this snapshot's dimensions match an index with the given
    /// address and transaction counts — the cheap sanity check run before
    /// pairing the frozen resolver with a transaction-graph index built
    /// from the same [`ResolvedChain`] (`fistful_flow::graph::TxGraph`
    /// exposes matching `address_count()` / `tx_count()` accessors).
    ///
    /// This is a dimension check, not a content fingerprint: two
    /// different chains can coincidentally agree on both counts, so it
    /// reliably *rejects* mismatched artifacts but cannot *prove*
    /// provenance. Pair artifacts you derived from the same chain; use
    /// this to catch wiring mistakes early.
    pub fn pairs_with_chain(&self, address_count: usize, tx_count: u64) -> bool {
        self.address_count() == address_count && self.tx_count() == tx_count
    }

    /// Aggregates of cluster `cluster`, if it exists.
    pub fn info(&self, cluster: u32) -> Option<&ClusterInfo> {
        self.clusters.get(cluster as usize)
    }

    /// Aggregates of the cluster containing `addr` — the serving-path
    /// lookup: two array reads, no hashing, no locks.
    pub fn info_of_address(&self, addr: AddressId) -> Option<&ClusterInfo> {
        let c = self.cluster_of(addr)?;
        Some(&self.clusters[c as usize])
    }

    /// The service name `addr` resolves to (its cluster's name), if any.
    pub fn service_of(&self, addr: AddressId) -> Option<&str> {
        self.info_of_address(addr)?.name.as_deref()
    }

    /// The category `addr` resolves to (its cluster's category), if any.
    pub fn category_of(&self, addr: AddressId) -> Option<&str> {
        self.info_of_address(addr)?.category.as_deref()
    }

    /// Clusters that carry a name.
    pub fn named_cluster_count(&self) -> usize {
        self.clusters.iter().filter(|c| c.name.is_some()).count()
    }

    /// Addresses covered by named clusters.
    pub fn named_address_count(&self) -> u64 {
        self.clusters
            .iter()
            .filter(|c| c.name.is_some())
            .map(|c| c.size as u64)
            .sum()
    }

    /// The largest cluster as `(cluster id, info)`, if any.
    pub fn largest_cluster(&self) -> Option<(u32, &ClusterInfo)> {
        self.clusters
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| c.size)
            .map(|(i, c)| (i as u32, c))
    }

    /// True if this snapshot only appends to `base`: every address of
    /// `base` keeps its cluster id, and every cluster row both hold is
    /// unchanged. Exactly when [`SnapshotDelta::between`]`(base, self)`
    /// would touch only new addresses and new clusters, without building
    /// it; it stops at the first difference.
    pub fn keeps_ids_of(&self, base: &ClusterSnapshot) -> bool {
        self.assignment.get(..base.assignment.len()) == Some(&base.assignment[..])
            && self.clusters.iter().zip(&base.clusters).all(|(new, old)| new == old)
    }

    // ----- store format -----

    /// The snapshot's one canonical byte form: a store container holding
    /// exactly the segments [`write_store`](Self::write_store) adds.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = StoreWriter::new();
        self.write_store(&mut w);
        w.to_bytes()
    }

    /// Semantic invariants structurally valid segments must still satisfy.
    fn validate(&self) -> Result<(), StoreError> {
        let k = self.clusters.len() as u32;
        let mut counts = vec![0u32; self.clusters.len()];
        for &c in &self.assignment {
            if c >= k {
                return Err(StoreError::Inconsistent(
                    "assignment references a cluster id out of range",
                ));
            }
            counts[c as usize] += 1;
        }
        for (count, info) in counts.iter().zip(&self.clusters) {
            if *count != info.size {
                return Err(StoreError::Inconsistent(
                    "cluster size disagrees with assignment",
                ));
            }
        }
        Ok(())
    }

    /// Adds the snapshot to a columnar container: the assignment column as
    /// one bulk-readable u32 segment (`snap/assignment`), the cluster
    /// table as one encoded segment (`snap/clusters`), and a `snap/meta`
    /// segment carrying the scalars and cross-check counts.
    pub fn write_store(&self, out: &mut StoreWriter) {
        let mut meta = Writer::new();
        meta.u64(self.tip_height);
        meta.u64(self.tx_count);
        meta.u64(self.clusters.len() as u64);
        meta.u64(self.assignment.len() as u64);
        out.segment("snap/meta", meta.into_bytes());
        let mut assign = Writer::new();
        assign.u32_slice(&self.assignment);
        out.segment("snap/assignment", assign.into_bytes());
        let mut clusters = Writer::new();
        fistful_chain::encode::encode_vec(&mut clusters, &self.clusters);
        out.segment("snap/clusters", clusters.into_bytes());
    }

    /// Reads a snapshot back from a columnar container, enforcing the
    /// invariants listed in the [module docs](self).
    pub fn read_store(store: &mut Store) -> Result<ClusterSnapshot, StoreError> {
        let (tip_height, tx_count, cluster_count, address_count) =
            store.decode("snap/meta", |r| {
                Ok((r.u64()?, r.u64()?, r.u64()? as usize, r.u64()? as usize))
            })?;
        let assignment = store.u32s("snap/assignment")?;
        let clusters = store.decode("snap/clusters", |r| {
            // Bounded by the bytes left, not by `decode_vec`'s
            // `MAX_VEC_LEN`: when few addresses co-spend there are nearly
            // as many clusters as addresses, and the paper's own partition
            // has millions.
            let k = r.compact_size()?;
            if k > (r.remaining() / MIN_CLUSTER_INFO_LEN) as u64 {
                return Err(DecodeError::OversizedCount(k));
            }
            let mut clusters = Vec::with_capacity(k as usize);
            for _ in 0..k {
                clusters.push(ClusterInfo::decode(r)?);
            }
            Ok(clusters)
        })?;
        if assignment.len() != address_count || clusters.len() != cluster_count {
            return Err(StoreError::Inconsistent("snapshot meta counts disagree with columns"));
        }
        let snapshot = ClusterSnapshot { assignment, clusters, tip_height, tx_count };
        snapshot.validate()?;
        Ok(snapshot)
    }

    // ----- delta snapshots -----

    /// Applies one epoch's [`SnapshotDelta`] to this base, producing the
    /// snapshot the delta was diffed against. Fails with
    /// [`StoreError::Inconsistent`] if the delta does not cover every
    /// new address or the result violates snapshot invariants.
    pub fn apply_delta(&self, delta: &SnapshotDelta) -> Result<ClusterSnapshot, StoreError> {
        let new_addrs = delta.address_count as usize;
        if new_addrs < self.assignment.len() {
            return Err(StoreError::Inconsistent("delta shrinks the address space"));
        }
        let mut assignment = self.assignment.clone();
        let base_len = assignment.len();
        // New slots start as a sentinel the delta must overwrite: a gap
        // means the delta and base disagree about what "new" means.
        assignment.resize(new_addrs, u32::MAX);
        let mut last = None;
        for &(addr, cluster) in &delta.assign {
            if last.is_some_and(|p| p >= addr) {
                return Err(StoreError::Inconsistent(
                    "delta assignment entries are not strictly ascending",
                ));
            }
            last = Some(addr);
            if (addr as usize) >= new_addrs {
                return Err(StoreError::Inconsistent(
                    "delta assigns an address past its declared count",
                ));
            }
            assignment[addr as usize] = cluster;
        }
        if assignment[base_len..].contains(&u32::MAX) {
            return Err(StoreError::Inconsistent(
                "delta does not cover every new address",
            ));
        }
        let mut clusters = self.clusters.clone();
        clusters.resize(delta.cluster_count as usize, ClusterInfo::default());
        let mut last = None;
        for (id, info) in &delta.clusters {
            if last.is_some_and(|p| p >= *id) {
                return Err(StoreError::Inconsistent(
                    "delta cluster entries are not strictly ascending",
                ));
            }
            last = Some(*id);
            let slot = clusters.get_mut(*id as usize).ok_or(StoreError::Inconsistent(
                "delta updates a cluster past its declared count",
            ))?;
            *slot = info.clone();
        }
        let snapshot = ClusterSnapshot {
            assignment,
            clusters,
            tip_height: delta.tip_height,
            tx_count: delta.tx_count,
        };
        snapshot.validate()?;
        Ok(snapshot)
    }

    /// Folds a base snapshot and its per-epoch deltas back into the full
    /// snapshot — the fast-restart path. The result is **byte-identical**
    /// (same `to_bytes`, same store segments) to rebuilding the snapshot
    /// from scratch at the final epoch, which the differential tests
    /// assert.
    pub fn from_base_and_deltas(
        base: &ClusterSnapshot,
        deltas: &[SnapshotDelta],
    ) -> Result<ClusterSnapshot, StoreError> {
        let mut snap = base.clone();
        for delta in deltas {
            snap = snap.apply_delta(delta)?;
        }
        Ok(snap)
    }
}

/// One epoch's worth of snapshot change: everything that differs between
/// a base [`ClusterSnapshot`] and its successor.
///
/// Persisting after an incremental ingest epoch writes one of these — the
/// new and changed assignments and cluster rows — instead of re-exporting
/// the whole snapshot. [`ClusterSnapshot::from_base_and_deltas`] folds
/// the sequence back, byte-identical to a full export.
///
/// **Renumbering makes most deltas O(chain).** Canonical cluster ids are
/// the ranks of the cluster minima, so a merge of two old clusters
/// renumbers every later cluster, and a payment to an old cluster
/// rewrites its row. Only a purely additive epoch (no such merge, no old
/// cluster touched) yields a delta proportional to its new blocks, and
/// those are rare. Streaming the benchmark economy (480 blocks, 16-block
/// epochs, refined Heuristic 2) publishes 30 deltas: 1 is additive, and
/// the mean one rewrites 23 639 assignments and 17 088 cluster rows of
/// 55 776 addresses. At `paper_scale()` 2 of 187 are additive, and the
/// mean delta rewrites 824 892 assignments and 448 048 rows. The fold
/// stays byte-identical to a full export either way.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SnapshotDelta {
    /// Tip height of the successor snapshot.
    pub tip_height: u64,
    /// Transaction count of the successor snapshot.
    pub tx_count: u64,
    /// Address count of the successor snapshot (the assignment array
    /// grows to this length).
    pub address_count: u64,
    /// Cluster count of the successor snapshot.
    pub cluster_count: u32,
    /// `(address id, new cluster id)` pairs, strictly ascending by
    /// address: every new address plus every existing address whose
    /// cluster changed.
    pub assign: Vec<(u32, u32)>,
    /// `(cluster id, full new row)` pairs, strictly ascending by id:
    /// every new cluster plus every existing cluster whose aggregates,
    /// size, or naming changed.
    pub clusters: Vec<(u32, ClusterInfo)>,
}

impl SnapshotDelta {
    /// Diffs two snapshots of the same growing chain (`new` must cover at
    /// least the addresses of `base`).
    ///
    /// Panics if `new` has fewer addresses than `base` — deltas only move
    /// forward.
    pub fn between(base: &ClusterSnapshot, new: &ClusterSnapshot) -> SnapshotDelta {
        assert!(
            new.assignment.len() >= base.assignment.len(),
            "delta target has fewer addresses than its base"
        );
        let mut assign = Vec::new();
        for (addr, &cluster) in new.assignment.iter().enumerate() {
            if base.assignment.get(addr) != Some(&cluster) {
                assign.push((addr as u32, cluster));
            }
        }
        let mut clusters = Vec::new();
        for (id, info) in new.clusters.iter().enumerate() {
            if base.clusters.get(id) != Some(info) {
                clusters.push((id as u32, info.clone()));
            }
        }
        SnapshotDelta {
            tip_height: new.tip_height,
            tx_count: new.tx_count,
            address_count: new.assignment.len() as u64,
            cluster_count: new.clusters.len() as u32,
            assign,
            clusters,
        }
    }

    /// True if the delta changes nothing but the scalars.
    pub fn is_empty(&self) -> bool {
        self.assign.is_empty() && self.clusters.is_empty()
    }

    /// Adds the delta to a columnar container: changed assignments as two
    /// parallel u32 columns plus the changed cluster rows.
    pub fn write_store(&self, out: &mut StoreWriter) {
        let mut meta = Writer::new();
        meta.u64(self.tip_height);
        meta.u64(self.tx_count);
        meta.u64(self.address_count);
        meta.u32(self.cluster_count);
        out.segment("delta/meta", meta.into_bytes());
        let addrs: Vec<u32> = self.assign.iter().map(|&(a, _)| a).collect();
        let ids: Vec<u32> = self.assign.iter().map(|&(_, c)| c).collect();
        let mut w = Writer::new();
        w.u32_slice(&addrs);
        out.segment("delta/assign_addr", w.into_bytes());
        let mut w = Writer::new();
        w.u32_slice(&ids);
        out.segment("delta/assign_cluster", w.into_bytes());
        let cids: Vec<u32> = self.clusters.iter().map(|&(id, _)| id).collect();
        let mut w = Writer::new();
        w.u32_slice(&cids);
        out.segment("delta/cluster_ids", w.into_bytes());
        let mut w = Writer::new();
        for (_, info) in &self.clusters {
            info.encode(&mut w);
        }
        out.segment("delta/cluster_infos", w.into_bytes());
    }

    /// Reads a delta back from a columnar container. Ordering and range
    /// invariants are enforced later by [`ClusterSnapshot::apply_delta`],
    /// which sees base and delta together.
    pub fn read_store(store: &mut Store) -> Result<SnapshotDelta, StoreError> {
        let (tip_height, tx_count, address_count, cluster_count) =
            store.decode("delta/meta", |r| Ok((r.u64()?, r.u64()?, r.u64()?, r.u32()?)))?;
        let addrs = store.u32s("delta/assign_addr")?;
        let ids = store.u32s("delta/assign_cluster")?;
        if addrs.len() != ids.len() {
            return Err(StoreError::Inconsistent("delta assignment columns disagree on length"));
        }
        let assign = addrs.into_iter().zip(ids).collect();
        let cids = store.u32s("delta/cluster_ids")?;
        let clusters = store.decode("delta/cluster_infos", |r| {
            let mut clusters = Vec::with_capacity(cids.len());
            for id in cids {
                clusters.push((id, ClusterInfo::decode(r)?));
            }
            Ok(clusters)
        })?;
        Ok(SnapshotDelta { tip_height, tx_count, address_count, cluster_count, assign, clusters })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::change::ChangeConfig;
    use crate::cluster::Clusterer;
    use crate::naming::name_clusters;
    use crate::tagdb::{Tag, TagDb, TagSource};
    use crate::testutil::TestChain;

    /// Two users: {1,2,4} via co-spend + change, {3} alone; 1 is tagged.
    fn snapshot_fixture() -> (TestChain, ClusterSnapshot) {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let cb2 = t.coinbase(2, 50);
        let _cb3 = t.coinbase(3, 50);
        t.tx(&[(cb1, 0), (cb2, 0)], &[(3, 70), (4, 30)]);
        let clustering = Clusterer::with_h2(ChangeConfig::naive()).run(&t.chain);
        let mut db = TagDb::new();
        db.add(Tag {
            address: t.id(1),
            service: "Mt. Gox".into(),
            category: "exchange".into(),
            source: TagSource::OwnTransaction,
        });
        let names = name_clusters(&clustering, &db);
        let snap = ClusterSnapshot::build(&t.chain, &clustering, &names);
        (t, snap)
    }

    #[test]
    fn pairs_with_chain_checks_both_dimensions() {
        let (t, snap) = snapshot_fixture();
        let addrs = t.chain.address_count();
        let txs = t.chain.tx_count() as u64;
        assert!(snap.pairs_with_chain(addrs, txs));
        // An index over a different chain (more addresses or more
        // transactions) must be rejected in either dimension.
        assert!(!snap.pairs_with_chain(addrs + 1, txs));
        assert!(!snap.pairs_with_chain(addrs, txs + 1));
        assert!(!snap.pairs_with_chain(0, 0));
    }

    #[test]
    fn build_fuses_partition_names_and_aggregates() {
        let (t, snap) = snapshot_fixture();
        assert_eq!(snap.address_count(), t.chain.address_count());
        assert_eq!(snap.cluster_count(), 2); // {1,2,4}, {3}
        assert_eq!(snap.cluster_of(t.id(1)), snap.cluster_of(t.id(4)));
        assert_ne!(snap.cluster_of(t.id(1)), snap.cluster_of(t.id(3)));
        assert_eq!(snap.service_of(t.id(4)), Some("Mt. Gox"));
        assert_eq!(snap.category_of(t.id(2)), Some("exchange"));
        assert_eq!(snap.service_of(t.id(3)), None);
        assert_eq!(snap.named_cluster_count(), 1);
        assert_eq!(snap.named_address_count(), 3);

        // Aggregates: cluster {1,2,4} received 50+50 (coinbases) + 30
        // (change), spent 100 (the co-spend inputs).
        let gox = snap.info_of_address(t.id(1)).unwrap();
        assert_eq!(gox.size, 3);
        assert_eq!(gox.received, Amount::from_btc(130));
        assert_eq!(gox.spent, Amount::from_btc(100));
        // Cluster {3}: coinbase 50 + payment 70, never spent.
        let three = snap.info_of_address(t.id(3)).unwrap();
        assert_eq!(three.received, Amount::from_btc(120));
        assert_eq!(three.spent, Amount::ZERO);

        let (largest, info) = snap.largest_cluster().unwrap();
        assert_eq!(info.size, 3);
        assert_eq!(snap.cluster_of(t.id(1)), Some(largest));
        assert_eq!(snap.tip_height(), 3);
        assert_eq!(snap.tx_count(), 4);
    }

    #[test]
    fn out_of_range_address_is_none_not_panic() {
        let (_, snap) = snapshot_fixture();
        assert_eq!(snap.cluster_of(10_000), None);
        assert!(snap.info_of_address(10_000).is_none());
        assert_eq!(snap.service_of(10_000), None);
        assert!(snap.info(10_000).is_none());
    }

    /// Wraps hand-written segment bytes in a container, so tests can
    /// forge segments the writer would never produce.
    fn forged_store(meta: [u64; 4], assignment: &[u32], clusters: Vec<u8>) -> Store {
        let mut w = StoreWriter::new();
        let mut m = Writer::new();
        for v in meta {
            m.u64(v);
        }
        w.segment("snap/meta", m.into_bytes());
        let mut a = Writer::new();
        a.u32_slice(assignment);
        w.segment("snap/assignment", a.into_bytes());
        w.segment("snap/clusters", clusters);
        Store::open_bytes(w.to_bytes()).unwrap()
    }

    #[test]
    fn declared_counts_are_bounded_by_actual_input() {
        // A `snap/clusters` segment declaring more records than its bytes
        // could hold is rejected before any large allocation: an absurd
        // count, and a count one past what the bytes hold.
        let mut w = Writer::new();
        w.compact_size(1 << 40);
        let mut store = forged_store([0, 0, 1 << 40, 0], &[], w.into_bytes());
        assert_eq!(
            ClusterSnapshot::read_store(&mut store),
            Err(StoreError::Decode("snap/clusters".into(), DecodeError::OversizedCount(1 << 40)))
        );
        let mut w = Writer::new();
        w.compact_size(2);
        ClusterInfo::default().encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 1 + MIN_CLUSTER_INFO_LEN);
        let mut store = forged_store([0, 0, 2, 0], &[], bytes);
        let err = ClusterSnapshot::read_store(&mut store).unwrap_err();
        assert_eq!(err, StoreError::Decode("snap/clusters".into(), DecodeError::OversizedCount(2)));
        // The operator-facing message names the corrupt segment.
        assert!(err.to_string().contains("snap/clusters"), "{err}");
        // Meta counts that disagree with the columns.
        let mut w = Writer::new();
        w.compact_size(0);
        let mut store = forged_store([0, 0, 0, 1], &[], w.into_bytes());
        assert!(matches!(
            ClusterSnapshot::read_store(&mut store),
            Err(StoreError::Inconsistent(_))
        ));
    }

    #[test]
    fn cluster_count_past_max_vec_len_round_trips() {
        // Cluster count is bounded by the segment's bytes, not by the
        // generic `MAX_VEC_LEN` cap. Zero-size clusters need no addresses,
        // so the snapshot stays valid with an empty assignment.
        let k = fistful_chain::encode::MAX_VEC_LEN as usize + 1;
        let snap = ClusterSnapshot {
            clusters: vec![ClusterInfo::default(); k],
            ..ClusterSnapshot::default()
        };
        let bytes = snap.to_bytes();
        drop(snap);
        let mut store = Store::open_bytes(bytes).unwrap();
        let restored = ClusterSnapshot::read_store(&mut store).unwrap();
        assert_eq!(restored.cluster_count(), k);
        assert_eq!(restored.address_count(), 0);
        assert!(restored.clusters.iter().all(|c| *c == ClusterInfo::default()));
    }

    #[test]
    fn shared_across_threads_without_locks() {
        use std::sync::Arc;
        let (_, snap) = snapshot_fixture();
        let snap = Arc::new(snap);
        let n = snap.address_count() as u32;
        let expected: Vec<Option<u32>> = (0..n).map(|a| snap.cluster_of(a)).collect();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let snap = Arc::clone(&snap);
                let expected = expected.clone();
                std::thread::spawn(move || {
                    for round in 0..100 {
                        for a in 0..n {
                            assert_eq!(snap.cluster_of(a), expected[a as usize], "round {round}");
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn store_round_trips_losslessly() {
        let (_, snap) = snapshot_fixture();
        for snap in [snap, ClusterSnapshot::default()] {
            let bytes = snap.to_bytes();
            let mut store = Store::open_bytes(bytes.clone()).unwrap();
            let restored = ClusterSnapshot::read_store(&mut store).unwrap();
            assert_eq!(restored, snap);
            assert_eq!(restored.to_bytes(), bytes, "the byte form is canonical");
            assert_eq!(restored.largest_cluster().is_none(), snap.cluster_count() == 0);
        }
    }

    #[test]
    fn store_read_rejects_semantic_lies() {
        // Honest containers around dishonest snapshots: an assignment that
        // points past the cluster table, and sizes that disagree with it.
        let (_, snap) = snapshot_fixture();
        let mut out_of_range = snap.clone();
        out_of_range.assignment[0] = 99;
        let mut wrong_size = snap.clone();
        wrong_size.clusters[0].size += 1;
        for lying in [out_of_range, wrong_size] {
            let mut store = Store::open_bytes(lying.to_bytes()).unwrap();
            assert!(matches!(
                ClusterSnapshot::read_store(&mut store),
                Err(StoreError::Inconsistent(_))
            ));
        }
    }

    /// Grows the fixture chain by one more user and re-snapshots, giving a
    /// (base, successor) pair whose delta has both new addresses and a
    /// changed existing cluster.
    fn delta_fixture() -> (ClusterSnapshot, ClusterSnapshot) {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let cb2 = t.coinbase(2, 50);
        t.tx(&[(cb1, 0), (cb2, 0)], &[(3, 100)]);
        let clustering = Clusterer::h1_only().run(&t.chain);
        let names = name_clusters(&clustering, &TagDb::new());
        let base = ClusterSnapshot::build(&t.chain, &clustering, &names);

        let cb4 = t.coinbase(4, 25);
        t.tx(&[(cb4, 0)], &[(3, 25)]); // address 3's cluster aggregates change
        let clustering = Clusterer::h1_only().run(&t.chain);
        let names = name_clusters(&clustering, &TagDb::new());
        let new = ClusterSnapshot::build(&t.chain, &clustering, &names);
        (base, new)
    }

    #[test]
    fn delta_round_trips_to_the_successor() {
        let (base, new) = delta_fixture();
        let delta = SnapshotDelta::between(&base, &new);
        assert!(!delta.is_empty());
        // New addresses (4 and its coinbase interning) appear; unchanged
        // assignments do not.
        assert!(delta.assign.len() < new.address_count());
        let applied = base.apply_delta(&delta).unwrap();
        assert_eq!(applied, new);
        // Byte-identical, not merely equal.
        assert_eq!(applied.to_bytes(), new.to_bytes());
        // Identity delta.
        let id = SnapshotDelta::between(&new, &new);
        assert!(id.is_empty());
        assert_eq!(new.apply_delta(&id).unwrap(), new);
        // Folding from the base over both steps.
        let folded = ClusterSnapshot::from_base_and_deltas(&base, &[delta, id]).unwrap();
        assert_eq!(folded.to_bytes(), new.to_bytes());
    }

    #[test]
    fn delta_store_round_trips() {
        let (base, new) = delta_fixture();
        let delta = SnapshotDelta::between(&base, &new);
        let mut w = StoreWriter::new();
        delta.write_store(&mut w);
        let mut store = Store::open_bytes(w.to_bytes()).unwrap();
        let restored = SnapshotDelta::read_store(&mut store).unwrap();
        assert_eq!(restored, delta);
        assert_eq!(base.apply_delta(&restored).unwrap().to_bytes(), new.to_bytes());
    }

    #[test]
    fn apply_delta_rejects_malformed_deltas() {
        let (base, new) = delta_fixture();
        let good = SnapshotDelta::between(&base, &new);

        // A gap: a new address the delta does not cover.
        let mut bad = good.clone();
        bad.assign.retain(|&(a, _)| (a as usize) < base.address_count());
        assert!(matches!(
            base.apply_delta(&bad),
            Err(StoreError::Inconsistent("delta does not cover every new address"))
        ));

        // Shrinking the address space.
        let mut bad = good.clone();
        bad.address_count = base.address_count() as u64 - 1;
        assert!(matches!(base.apply_delta(&bad), Err(StoreError::Inconsistent(_))));

        // Out-of-order (here: duplicate) assignment entries.
        let mut bad = good.clone();
        bad.assign.push(*bad.assign.last().unwrap());
        assert!(matches!(
            base.apply_delta(&bad),
            Err(StoreError::Inconsistent(
                "delta assignment entries are not strictly ascending"
            ))
        ));

        // An assignment past the declared address count.
        let mut bad = good.clone();
        bad.assign.push((bad.address_count as u32 + 7, 0));
        assert!(matches!(base.apply_delta(&bad), Err(StoreError::Inconsistent(_))));

        // A cluster row past the declared cluster count.
        let mut bad = good.clone();
        bad.clusters.push((bad.cluster_count + 7, ClusterInfo::default()));
        assert!(matches!(base.apply_delta(&bad), Err(StoreError::Inconsistent(_))));

        // Sizes that stop matching the assignment after application.
        let mut bad = good.clone();
        for (_, info) in &mut bad.clusters {
            info.size += 1;
        }
        assert!(matches!(base.apply_delta(&bad), Err(StoreError::Inconsistent(_))));
    }

    #[test]
    fn build_at_full_prefix_equals_build() {
        let (t, snap) = snapshot_fixture();
        let clustering = Clusterer::with_h2(ChangeConfig::naive()).run(&t.chain);
        let mut db = TagDb::new();
        db.add(Tag {
            address: t.id(1),
            service: "Mt. Gox".into(),
            category: "exchange".into(),
            source: TagSource::OwnTransaction,
        });
        let names = name_clusters(&clustering, &db);
        let at = ClusterSnapshot::build_at(&t.chain, t.chain.tx_count(), &clustering, &names);
        assert_eq!(at.to_bytes(), snap.to_bytes());
    }
}
