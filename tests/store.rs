//! Differential tests of the on-disk columnar artifact store: a saved
//! store directory reopened with `ServeArtifacts::open_dir` must be
//! byte-identical to the in-RAM build — asserted structurally, and then
//! over a live socket by comparing every request type's raw response
//! frames between a server on the reopened bundle and a server on the
//! original. A controlled merge-free chain additionally pins the delta
//! snapshot cost claim: per-epoch delta files stay O(new blocks) while
//! the full export grows with the chain.

use fistful::chain::address::Address;
use fistful::chain::amount::Amount;
use fistful::chain::builder::BlockBuilder;
use fistful::chain::chainstate::ChainState;
use fistful::chain::params::Params;
use fistful::core::cluster::Clusterer;
use fistful::core::incremental::sharded::{IngestConfig, ShardedIngest};
use fistful::core::naming::name_clusters;
use fistful::core::snapshot::{ClusterSnapshot, SnapshotDelta};
use fistful::core::tagdb::TagDb;
use fistful::serve::store::{delta_file_name, delta_files, GRAPH_FILE, SERVE_FILE, SNAPSHOT_FILE};
use fistful::serve::{Client, Request, ServeArtifacts, ServeConfig, Server};
use fistful::sim::SimConfig;
use fistful::store::{Store, StoreWriter};
use fistful_bench::{serve_artifacts, theft_loots, Workbench};
use fistful_chain::encode::Encodable;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// One tiny economy plus its serving bundle, shared by the round-trip
/// tests (artifacts are expensive; directories and servers are not).
fn fixtures() -> &'static (Workbench, Arc<ServeArtifacts>) {
    static FIX: OnceLock<(Workbench, Arc<ServeArtifacts>)> = OnceLock::new();
    FIX.get_or_init(|| {
        let wb = Workbench::build(SimConfig::tiny());
        let artifacts = Arc::new(serve_artifacts(&wb));
        (wb, artifacts)
    })
}

/// A fresh scratch directory under the target dir (kept out of `/tmp` so
/// parallel checkouts never collide).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("store-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn start_server(artifacts: &Arc<ServeArtifacts>) -> Server {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServeConfig::default()
    };
    Server::start(config, Arc::clone(artifacts)).expect("start server")
}

/// Saving the bundle and reopening it must reproduce every artifact
/// byte-for-byte, and a server started from the reopened bundle must
/// answer every request type with frames identical to a server on the
/// original — the fast-restart guarantee.
#[test]
fn reopened_bundle_is_byte_identical_and_serves_identically() {
    let (wb, artifacts) = fixtures();
    let chain = wb.eco.chain.resolved();
    let dir = scratch_dir("roundtrip");
    let written = artifacts.save_dir(&dir).expect("save serving bundle");
    assert!(written > 0);
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("list store directory")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    assert_eq!(files, [GRAPH_FILE, SERVE_FILE, SNAPSHOT_FILE], "no chain file is written");

    // The serving bundle reopens byte-identical, artifact by artifact.
    let reopened = ServeArtifacts::open_dir(&dir).expect("open bundle");
    assert_eq!(reopened.snapshot.to_bytes(), artifacts.snapshot.to_bytes());
    assert_eq!(reopened.graph, artifacts.graph);
    assert_eq!(reopened.labels.vout_of, artifacts.labels.vout_of);
    assert_eq!(reopened.labels.labels, artifacts.labels.labels);
    assert_eq!(reopened.labels.skip_counts, artifacts.labels.skip_counts);
    assert_eq!(reopened.balances, artifacts.balances);

    // Live-socket differential: one server over each bundle, every
    // request type, raw frames compared byte-for-byte.
    let ram_server = start_server(artifacts);
    let disk_server = start_server(&Arc::new(reopened));
    let mut ram = Client::connect(ram_server.local_addr()).expect("connect ram");
    let mut disk = Client::connect(disk_server.local_addr()).expect("connect disk");

    let mut requests = vec![Request::Ping];
    let n_addr = artifacts.snapshot.address_count() as u32;
    for address in (0..n_addr + 1).step_by((n_addr as usize / 16).max(1)) {
        requests.push(Request::AddressInfo { address });
    }
    let n_clusters = artifacts.snapshot.cluster_count() as u32;
    for cluster in (0..n_clusters + 1).step_by((n_clusters as usize / 16).max(1)) {
        requests.push(Request::ClusterSummary { cluster });
    }
    let tip = artifacts.snapshot.tip_height();
    for height in (0..=tip + 5).step_by((tip as usize / 8).max(1)) {
        requests.push(Request::BalancePoint { height });
    }
    for (_, loot) in theft_loots(chain, &wb.eco.script_report.thefts) {
        requests.push(Request::TaintTrace { loot, max_txs: 5_000 });
    }
    assert!(requests.len() > 30, "request matrix covers the query space");
    for request in &requests {
        let payload = request.encode_to_vec();
        let from_ram = ram.call_raw(&payload).expect("ram response");
        let from_disk = disk.call_raw(&payload).expect("disk response");
        assert_eq!(from_ram, from_disk, "response frames diverge for {request:?}");
    }

    ram_server.shutdown();
    disk_server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A chain where every epoch only mints fresh singleton addresses — no
/// multi-input spends, so no cluster merges, ever. This is the store's
/// best case and the shape the delta cost claim is stated for.
fn merge_free_chain(epochs: usize, epoch_blocks: usize, outputs_per_block: usize) -> ChainState {
    let params = Params::regtest();
    let mut chain = ChainState::new(params.clone());
    let mut next_seed = 1u64;
    for height in 0..(epochs * epoch_blocks) as u64 {
        let subsidy = chain.next_subsidy();
        let each = Amount::from_sat(subsidy.to_sat() / outputs_per_block as u64);
        let outputs: Vec<(Address, Amount)> = (0..outputs_per_block)
            .map(|_| {
                let addr = Address::from_seed(next_seed);
                next_seed += 1;
                (addr, each)
            })
            .collect();
        let block = BlockBuilder::new(&params)
            .coinbase_multi(height, outputs)
            .build_on(&chain);
        chain.accept_block(block).expect("accept merge-free block");
    }
    chain
}

/// On merge-free epochs the per-epoch delta files are O(new blocks): each
/// delta stays the same size as the chain grows, and is a small fraction
/// of the ever-growing full export — asserted against real file sizes.
/// Folding base + deltas back from disk is byte-identical to the full
/// export, which itself is byte-identical to the batch snapshot.
#[test]
fn merge_free_delta_files_stay_o_new_blocks() {
    const EPOCHS: usize = 6;
    const EPOCH_BLOCKS: usize = 50;
    const OUTPUTS: usize = 16;
    let state = merge_free_chain(EPOCHS, EPOCH_BLOCKS, OUTPUTS);
    let chain = state.resolved();
    let db = TagDb::new();
    let dir = scratch_dir("merge-free");

    // Ingest block by block, persisting a base at the first epoch
    // boundary and one delta file per later boundary.
    let mut pipe = ShardedIngest::new(IngestConfig::h1_only(EPOCH_BLOCKS));
    let mut prev: Option<ClusterSnapshot> = None;
    let mut delta_sizes: Vec<u64> = Vec::new();
    let mut last_reconciled = 0;
    let boundary = |pipe: &mut ShardedIngest, prev: &mut Option<ClusterSnapshot>,
                        delta_sizes: &mut Vec<u64>| {
        match prev.take() {
            None => {
                let snap = pipe.export_snapshot(chain, &db);
                let mut w = StoreWriter::new();
                snap.write_store(&mut w);
                w.write_to(&dir.join(SNAPSHOT_FILE)).expect("write base");
                *prev = Some(snap);
            }
            Some(p) => {
                let (snap, delta) = pipe.export_delta(chain, &db, &p);
                if delta.is_empty() {
                    *prev = Some(snap);
                    return;
                }
                let mut w = StoreWriter::new();
                delta.write_store(&mut w);
                let path = dir.join(delta_file_name(delta_sizes.len()));
                delta_sizes.push(w.write_to(&path).expect("write delta"));
                *prev = Some(snap);
            }
        }
    };
    for block in chain.blocks() {
        pipe.ingest_block(&block);
        if pipe.reconciled_txs() != last_reconciled {
            last_reconciled = pipe.reconciled_txs();
            boundary(&mut pipe, &mut prev, &mut delta_sizes);
        }
    }
    pipe.flush(chain);
    boundary(&mut pipe, &mut prev, &mut delta_sizes);
    let full = pipe.export_snapshot(chain, &db);

    // Fold the files back: base + deltas from disk == full export ==
    // the batch snapshot, all byte-identical.
    let mut store = Store::open(&dir.join(SNAPSHOT_FILE)).expect("open base");
    let base = ClusterSnapshot::read_store(&mut store).expect("decode base");
    let deltas: Vec<SnapshotDelta> = delta_files(&dir)
        .expect("list deltas")
        .iter()
        .map(|path| {
            let mut store = Store::open(path).expect("open delta");
            SnapshotDelta::read_store(&mut store).expect("decode delta")
        })
        .collect();
    assert_eq!(deltas.len(), delta_sizes.len());
    assert!(deltas.len() >= EPOCHS - 1, "one delta per epoch after the base");
    let folded = ClusterSnapshot::from_base_and_deltas(&base, &deltas).expect("fold");
    assert_eq!(folded.to_bytes(), full.to_bytes(), "base + deltas == full export");
    let batch = Clusterer::h1_only().run(chain);
    let names = name_clusters(&batch, &db);
    let rebuilt = ClusterSnapshot::build(chain, &batch, &names);
    assert_eq!(full.to_bytes(), rebuilt.to_bytes(), "incremental == batch");

    // The cost claim, against real file sizes. A full export re-written
    // at the tip:
    let mut w = StoreWriter::new();
    full.write_store(&mut w);
    let full_len = w.write_to(&dir.join("full.fst")).expect("write full export");

    // (a) every delta is a small fraction of the full export;
    for &len in &delta_sizes {
        assert!(
            len * 2 < full_len,
            "delta file ({len} bytes) is not small next to the full export ({full_len} bytes)"
        );
    }
    // (b) deltas do not grow with the chain: the chain grew ~6x between
    // the first and last epoch, yet every delta file is the same size to
    // within container page alignment — the append cost tracks the
    // epoch's new blocks, not the chain.
    let min = *delta_sizes.iter().min().unwrap();
    let max = *delta_sizes.iter().max().unwrap();
    assert!(
        max - min <= 2 * 4096,
        "delta file sizes spread beyond page alignment: min {min}, max {max}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
