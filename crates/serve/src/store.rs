//! Persisting and reopening the serving bundle: a store *directory* of
//! columnar container files, the `repro serve` fast-restart path.
//!
//! # Directory layout
//!
//! ```text
//! <dir>/
//!   graph.fst                 TxGraph CSR arrays, segment per array
//!   snapshot.fst              base ClusterSnapshot
//!   snapshot.delta.000001.fst per-epoch delta containers, folded onto the
//!   snapshot.delta.000002.fst base in lexical (= epoch) order on open
//!   serve.fst                 change labels + balance series
//! ```
//!
//! [`ServeArtifacts::save_dir`] writes `graph.fst`, `snapshot.fst`, and
//! `serve.fst`; [`ServeArtifacts::open_dir`] reads them back — folding any
//! `snapshot.delta.*.fst` files present — runs every artifact's semantic
//! validation, and re-runs the [`ServeArtifacts::new`] pairing checks, so
//! a server restarted from disk serves answers **byte-identical** to one
//! built from the chain in RAM (asserted over a live socket in
//! `tests/store.rs`). Opening costs bulk segment reads, not a chain
//! replay: no chain is stored, and serving never needs one.

use crate::protocol::ServeError;
use crate::server::ServeArtifacts;
use fistful_chain::encode::Writer;
use fistful_core::change::ChangeLabels;
use fistful_core::snapshot::{ClusterSnapshot, SnapshotDelta};
use fistful_flow::graph::TxGraph;
use fistful_flow::BalancePoint;
use fistful_store::{Store, StoreError, StoreWriter};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// File name of the transaction-graph container.
pub const GRAPH_FILE: &str = "graph.fst";

/// File name of the base snapshot container.
pub const SNAPSHOT_FILE: &str = "snapshot.fst";

/// File name of the labels + balances container.
pub const SERVE_FILE: &str = "serve.fst";

/// File name of the `n`-th per-epoch snapshot delta. Zero-padded so the
/// lexical order of a directory listing is the application order.
pub fn delta_file_name(n: usize) -> String {
    format!("snapshot.delta.{n:06}.fst")
}

/// The `snapshot.delta.*.fst` files in `dir`, sorted into application
/// order. Missing directory entries are an error; an empty list is not.
pub fn delta_files(dir: &Path) -> Result<Vec<PathBuf>, StoreError> {
    let mut deltas: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("snapshot.delta.") && n.ends_with(".fst"))
        })
        .collect();
    deltas.sort();
    Ok(deltas)
}

/// Live-ingest resume metadata, carried as an optional `serve/live_meta`
/// segment of `serve.fst`: the publish epoch, the reconciled transaction
/// watermark, and how many blocks had been ingested when the segment was
/// written — everything a restarted live server needs to rebuild its
/// ingest state by replaying exactly the already-published prefix (see
/// [`crate::live`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveMeta {
    /// Publish epoch of the artifacts on disk.
    pub epoch: u64,
    /// Reconciled transaction count the artifacts were built at.
    pub tx_count: u64,
    /// Blocks ingested when this state was persisted.
    pub block_count: u64,
    /// Whether the ingest had been terminally flushed (pending
    /// wait-to-label decisions all resolved).
    pub flushed: bool,
}

impl LiveMeta {
    fn write(&self, out: &mut StoreWriter) {
        let mut w = Writer::new();
        w.u64(self.epoch);
        w.u64(self.tx_count);
        w.u64(self.block_count);
        w.u8(self.flushed as u8);
        out.segment("serve/live_meta", w.into_bytes());
    }

    fn read(store: &mut Store) -> Result<LiveMeta, StoreError> {
        let (epoch, tx_count, block_count, flushed) =
            store.decode("serve/live_meta", |r| Ok((r.u64()?, r.u64()?, r.u64()?, r.u8()?)))?;
        let flushed = match flushed {
            0 => false,
            1 => true,
            _ => return Err(StoreError::Inconsistent("live_meta flushed flag is not 0/1")),
        };
        Ok(LiveMeta { epoch, tx_count, block_count, flushed })
    }
}

/// Reads the live-ingest resume metadata from a store directory's
/// `serve.fst`, or `None` when the bundle was saved without one (a frozen
/// batch save).
pub fn read_live_meta(dir: &Path) -> Result<Option<LiveMeta>, StoreError> {
    let mut store = Store::open(&dir.join(SERVE_FILE))?;
    if !store.has("serve/live_meta") {
        return Ok(None);
    }
    LiveMeta::read(&mut store).map(Some)
}

/// Serializes the change labels into `serve/labels_*` segments: the
/// per-transaction vout column (`u32::MAX` = unlabelled) plus the counters.
fn write_labels(labels: &ChangeLabels, out: &mut StoreWriter) {
    let vout: Vec<u32> = labels.vout_of.iter().map(|v| v.unwrap_or(u32::MAX)).collect();
    let mut w = Writer::new();
    w.u32_slice(&vout);
    out.segment("serve/labels_vout", w.into_bytes());
    let mut meta = Writer::new();
    meta.u64(labels.labels as u64);
    for &c in &labels.skip_counts {
        meta.u64(c as u64);
    }
    out.segment("serve/labels_meta", meta.into_bytes());
}

fn read_labels(store: &mut Store) -> Result<ChangeLabels, StoreError> {
    let vout_of: Vec<Option<u32>> = store
        .u32s("serve/labels_vout")?
        .into_iter()
        .map(|v| if v == u32::MAX { None } else { Some(v) })
        .collect();
    let (labels, skip_counts) = store.decode("serve/labels_meta", |r| {
        let labels = r.u64()? as usize;
        let mut skip_counts = [0usize; 8];
        for slot in &mut skip_counts {
            *slot = r.u64()? as usize;
        }
        Ok((labels, skip_counts))
    })?;
    Ok(ChangeLabels { vout_of, skip_counts, labels })
}

/// Serializes the balance series into one `serve/balances` segment.
fn write_balances(balances: &[BalancePoint], out: &mut StoreWriter) {
    let mut w = Writer::new();
    w.compact_size(balances.len() as u64);
    for p in balances {
        w.u64(p.height);
        w.u64(p.time);
        w.u64(p.supply.to_sat());
        w.u64(p.sink_held.to_sat());
        w.compact_size(p.balances.len() as u64);
        for (category, amount) in &p.balances {
            w.string(category);
            w.u64(amount.to_sat());
        }
    }
    out.segment("serve/balances", w.into_bytes());
}

fn read_balances(store: &mut Store) -> Result<Vec<BalancePoint>, StoreError> {
    use fistful_chain::amount::Amount;
    let mut repeated = false;
    let balances = store.decode("serve/balances", |r| {
        let count = r.compact_size()?;
        // Each point is at least 33 bytes (4 u64s + 1 CompactSize byte).
        if count > r.remaining() as u64 / 33 {
            return Err(fistful_chain::encode::DecodeError::OversizedCount(count));
        }
        let mut balances = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let height = r.u64()?;
            let time = r.u64()?;
            let supply = Amount::from_sat(r.u64()?);
            let sink_held = Amount::from_sat(r.u64()?);
            let entries = r.compact_size()?;
            let mut map = BTreeMap::new();
            for _ in 0..entries {
                let category = r.string()?;
                let amount = Amount::from_sat(r.u64()?);
                repeated |= map.insert(category, amount).is_some();
            }
            balances.push(BalancePoint { height, time, balances: map, supply, sink_held });
        }
        Ok(balances)
    })?;
    if repeated {
        return Err(StoreError::Inconsistent("balance point repeats a category"));
    }
    Ok(balances)
}

impl ServeArtifacts {
    /// Writes the serving bundle into `dir` as three container files
    /// (`graph.fst`, `snapshot.fst`, `serve.fst`), creating the directory
    /// if needed. Returns total bytes written.
    ///
    /// Any existing delta files in `dir` are removed: a fresh full save
    /// resets the base the deltas were diffed against.
    pub fn save_dir(&self, dir: &Path) -> Result<u64, StoreError> {
        self.save_dir_inner(dir, None)
    }

    /// [`save_dir`](Self::save_dir) plus a `serve/live_meta` segment, the
    /// live-ingest pipeline's base save: a restarted server can resume
    /// from the resulting directory at the recorded epoch.
    pub fn save_dir_live(&self, dir: &Path, meta: &LiveMeta) -> Result<u64, StoreError> {
        self.save_dir_inner(dir, Some(meta))
    }

    fn save_dir_inner(&self, dir: &Path, meta: Option<&LiveMeta>) -> Result<u64, StoreError> {
        std::fs::create_dir_all(dir)?;
        for stale in delta_files(dir)? {
            std::fs::remove_file(stale)?;
        }
        let mut total = 0u64;
        total += self.write_graph_file(dir)?;
        let mut w = StoreWriter::new();
        self.snapshot.write_store(&mut w);
        total += w.write_to(&dir.join(SNAPSHOT_FILE))?;
        total += self.write_serve_file(dir, meta)?;
        Ok(total)
    }

    /// Rewrites just `graph.fst` — the per-epoch refresh of the one
    /// artifact that has no delta representation.
    pub(crate) fn write_graph_file(&self, dir: &Path) -> Result<u64, StoreError> {
        let mut w = StoreWriter::new();
        self.graph.write_store(&mut w);
        w.write_to(&dir.join(GRAPH_FILE))
    }

    /// Rewrites just `serve.fst` (labels + balances, plus the live resume
    /// metadata when given).
    pub(crate) fn write_serve_file(
        &self,
        dir: &Path,
        meta: Option<&LiveMeta>,
    ) -> Result<u64, StoreError> {
        let mut w = StoreWriter::new();
        write_labels(&self.labels, &mut w);
        write_balances(&self.balances, &mut w);
        if let Some(meta) = meta {
            meta.write(&mut w);
        }
        w.write_to(&dir.join(SERVE_FILE))
    }

    /// Reopens a serving bundle saved by [`save_dir`](Self::save_dir):
    /// bulk-reads `graph.fst`, folds `snapshot.fst` with any
    /// `snapshot.delta.*.fst` files in lexical order, reads `serve.fst`,
    /// and re-runs the artifact pairing checks — so a restarted server is
    /// indistinguishable from one built in RAM, without replaying the
    /// chain.
    pub fn open_dir(dir: &Path) -> Result<ServeArtifacts, StoreError> {
        let mut store = Store::open(&dir.join(GRAPH_FILE))?;
        let graph = TxGraph::read_store(&mut store)?;
        let mut store = Store::open(&dir.join(SNAPSHOT_FILE))?;
        let mut snapshot = ClusterSnapshot::read_store(&mut store)?;
        for path in delta_files(dir)? {
            let mut store = Store::open(&path)?;
            let delta = SnapshotDelta::read_store(&mut store)?;
            snapshot = snapshot.apply_delta(&delta)?;
        }
        let mut store = Store::open(&dir.join(SERVE_FILE))?;
        let labels = read_labels(&mut store)?;
        let balances = read_balances(&mut store)?;
        ServeArtifacts::new(snapshot, graph, labels, balances).map_err(|e| match e {
            ServeError::MismatchedArtifacts(what) => StoreError::Inconsistent(what),
            _ => StoreError::Inconsistent("artifact pairing failed"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fistful_core::change::{self, ChangeConfig};
    use fistful_core::cluster::Clusterer;
    use fistful_core::naming::name_clusters;
    use fistful_core::tagdb::TagDb;
    use fistful_core::testutil::TestChain;
    use fistful_flow::balance_series;

    fn bundle() -> ServeArtifacts {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let cb2 = t.coinbase(2, 50);
        t.tx(&[(cb1, 0), (cb2, 0)], &[(3, 70), (4, 30)]);
        let clustering = Clusterer::h1_only().run(&t.chain);
        let names = name_clusters(&clustering, &TagDb::new());
        let snapshot = ClusterSnapshot::build(&t.chain, &clustering, &names);
        let labels = change::identify(&t.chain, &ChangeConfig::naive());
        let balances = balance_series(&t.chain, &snapshot, 1);
        let graph = TxGraph::build(&t.chain);
        ServeArtifacts::new(snapshot, graph, labels, balances).unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fstc-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_open_round_trips_every_artifact() {
        let a = bundle();
        let dir = temp_dir("roundtrip");
        let written = a.save_dir(&dir).unwrap();
        assert!(written > 0);
        let b = ServeArtifacts::open_dir(&dir).unwrap();
        assert_eq!(b.snapshot, a.snapshot);
        assert_eq!(b.graph, a.graph);
        assert_eq!(b.labels.vout_of, a.labels.vout_of);
        assert_eq!(b.labels.skip_counts, a.labels.skip_counts);
        assert_eq!(b.labels.labels, a.labels.labels);
        assert_eq!(b.balances, a.balances);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_dir_folds_deltas_in_order() {
        // Save a *stale* base plus the delta bringing it current; open_dir
        // must serve the current snapshot.
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let cb2 = t.coinbase(2, 50);
        t.tx(&[(cb1, 0), (cb2, 0)], &[(3, 100)]);
        let clustering = Clusterer::h1_only().run(&t.chain);
        let names = name_clusters(&clustering, &TagDb::new());
        let stale = ClusterSnapshot::build(&t.chain, &clustering, &names);

        let cb4 = t.coinbase(4, 25);
        t.tx(&[(cb4, 0)], &[(3, 25)]);
        let clustering = Clusterer::h1_only().run(&t.chain);
        let names = name_clusters(&clustering, &TagDb::new());
        let current = ClusterSnapshot::build(&t.chain, &clustering, &names);
        let delta = SnapshotDelta::between(&stale, &current);

        let labels = change::identify(&t.chain, &ChangeConfig::naive());
        let balances = balance_series(&t.chain, &current, 1);
        let graph = TxGraph::build(&t.chain);
        let live =
            ServeArtifacts::new(current.clone(), graph, labels, balances).unwrap();

        let dir = temp_dir("deltas");
        live.save_dir(&dir).unwrap();
        // Replace the saved (current) base with the stale one + its delta.
        let mut w = StoreWriter::new();
        stale.write_store(&mut w);
        w.write_to(&dir.join(SNAPSHOT_FILE)).unwrap();
        let mut w = StoreWriter::new();
        delta.write_store(&mut w);
        w.write_to(&dir.join(delta_file_name(1))).unwrap();

        let reopened = ServeArtifacts::open_dir(&dir).unwrap();
        assert_eq!(reopened.snapshot.to_bytes(), current.to_bytes());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_dir_clears_stale_deltas() {
        let a = bundle();
        let dir = temp_dir("stale");
        std::fs::create_dir_all(&dir).unwrap();
        // A leftover delta from an older base must not survive a full save
        // (it would corrupt the next open).
        let mut w = StoreWriter::new();
        SnapshotDelta::default().write_store(&mut w);
        w.write_to(&dir.join(delta_file_name(7))).unwrap();
        a.save_dir(&dir).unwrap();
        assert!(delta_files(&dir).unwrap().is_empty());
        assert_eq!(ServeArtifacts::open_dir(&dir).unwrap().snapshot, a.snapshot);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_dir_rejects_mismatched_artifacts() {
        let a = bundle();
        let dir = temp_dir("mismatch");
        a.save_dir(&dir).unwrap();
        // Overwrite the snapshot with one from a different (smaller) chain:
        // the pairing check must refuse, same as ServeArtifacts::new.
        let t = TestChain::new();
        let clustering = Clusterer::h1_only().run(&t.chain);
        let names = name_clusters(&clustering, &TagDb::new());
        let other = ClusterSnapshot::build(&t.chain, &clustering, &names);
        let mut w = StoreWriter::new();
        other.write_store(&mut w);
        w.write_to(&dir.join(SNAPSHOT_FILE)).unwrap();
        assert!(matches!(
            ServeArtifacts::open_dir(&dir),
            Err(StoreError::Inconsistent(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn live_meta_round_trips_and_is_absent_on_batch_saves() {
        let a = bundle();
        let dir = temp_dir("livemeta");
        a.save_dir(&dir).unwrap();
        assert_eq!(read_live_meta(&dir).unwrap(), None, "batch saves carry no live meta");

        let meta = LiveMeta { epoch: 7, tx_count: 42, block_count: 9, flushed: true };
        a.save_dir_live(&dir, &meta).unwrap();
        assert_eq!(read_live_meta(&dir).unwrap(), Some(meta));
        // The extra segment does not disturb a normal reopen.
        let b = ServeArtifacts::open_dir(&dir).unwrap();
        assert_eq!(b.snapshot, a.snapshot);

        // Rewriting serve.fst without meta (a demotion back to frozen)
        // removes it again.
        a.write_serve_file(&dir, None).unwrap();
        assert_eq!(read_live_meta(&dir).unwrap(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn forged_balance_count_names_its_segment() {
        // Two points declared over the bytes of none.
        let mut w = Writer::new();
        w.compact_size(2);
        let mut out = StoreWriter::new();
        out.segment("serve/balances", w.into_bytes());
        let mut store = Store::open_bytes(out.to_bytes()).unwrap();
        let err = read_balances(&mut store).unwrap_err();
        assert!(err.to_string().contains("serve/balances"), "{err}");
    }

    #[test]
    fn open_dir_reports_missing_files() {
        let dir = temp_dir("missing");
        std::fs::create_dir_all(&dir).unwrap();
        // An empty directory: the first missing container surfaces as an
        // I/O error, not a panic.
        assert!(matches!(
            ServeArtifacts::open_dir(&dir),
            Err(StoreError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
