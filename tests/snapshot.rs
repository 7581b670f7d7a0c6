//! End-to-end snapshot integration: a default-scale simulated economy is
//! clustered, named, frozen into a `ClusterSnapshot`, pushed through its
//! store container (`to_bytes` → `Store::open_bytes` → `read_store`), and
//! then interrogated — the paper's "cluster once, then query" workflow —
//! asserting the round trip is lossless and flow analysis over the
//! reloaded artifact matches flow analysis over the live pipeline. The
//! container's corruption matrix lives with the container
//! (`fistful_store::container`'s unit tests) and the snapshot segments'
//! with `ClusterSnapshot`'s.

use fistful::core::change::ChangeConfig;
use fistful::core::cluster::{Clusterer, Clustering};
use fistful::core::naming::{name_clusters, NamingReport};
use fistful::core::snapshot::ClusterSnapshot;
use fistful::core::tagdb::{Tag, TagDb, TagSource};
use fistful::flow::{balance_series, AddressDirectory, ServiceResolver};
use fistful::sim::{generate_tags, Economy, RawTagSource, SimConfig};
use fistful::store::Store;
use std::sync::OnceLock;

struct Frozen {
    eco: Economy,
    clustering: Clustering,
    names: NamingReport,
    snapshot: ClusterSnapshot,
}

/// Reloads a snapshot from its one byte form, the store container.
fn reload(snapshot: &ClusterSnapshot) -> ClusterSnapshot {
    let mut store = Store::open_bytes(snapshot.to_bytes()).expect("open snapshot container");
    ClusterSnapshot::read_store(&mut store).expect("read snapshot segments")
}

/// Economy + refined clustering + naming + snapshot, built once.
fn frozen() -> &'static Frozen {
    static FROZEN: OnceLock<Frozen> = OnceLock::new();
    FROZEN.get_or_init(|| {
        let eco = Economy::run(SimConfig::default());
        let chain = eco.chain.resolved();
        let mut db = TagDb::new();
        for raw in generate_tags(&eco) {
            let Some(address) = chain.address_id(&raw.address) else { continue };
            let source = match raw.source {
                RawTagSource::OwnTransaction => TagSource::OwnTransaction,
                RawTagSource::SelfSubmitted => TagSource::SelfSubmitted,
                RawTagSource::Forum => TagSource::Forum,
            };
            db.add(Tag { address, service: raw.service, category: raw.category, source });
        }
        let clustering = Clusterer::with_h2(ChangeConfig::naive()).run(chain);
        let names = name_clusters(&clustering, &db);
        let snapshot = ClusterSnapshot::build(chain, &clustering, &names);
        Frozen { eco, clustering, names, snapshot }
    })
}

#[test]
fn round_trip_reproduces_assignments_names_and_aggregates() {
    let f = frozen();
    let chain = f.eco.chain.resolved();
    let restored = reload(&f.snapshot);

    // Lossless: the decoded artifact is structurally identical, and its
    // byte form is canonical.
    assert_eq!(restored, f.snapshot);
    assert_eq!(restored.to_bytes(), f.snapshot.to_bytes());
    assert_eq!(restored.address_count(), chain.address_count());
    assert_eq!(restored.cluster_count(), f.clustering.cluster_count());

    // Cluster assignments match the live clustering, address by address.
    for addr in 0..chain.address_count() as u32 {
        assert_eq!(
            restored.cluster_of(addr),
            Some(f.clustering.cluster_of(addr)),
            "address {addr}"
        );
    }

    // Names and categories match the naming report, cluster by cluster.
    assert_eq!(restored.named_cluster_count(), f.names.named_clusters);
    assert_eq!(restored.named_address_count(), f.names.named_addresses);
    for cluster in 0..restored.cluster_count() as u32 {
        let info = restored.info(cluster).unwrap();
        assert_eq!(info.name.as_deref(), f.names.name_of_cluster(cluster), "cluster {cluster}");
        assert_eq!(
            info.category.as_deref(),
            f.names.categories.get(&cluster).map(String::as_str),
            "cluster {cluster}"
        );
        assert_eq!(info.size, f.clustering.sizes[cluster as usize], "cluster {cluster}");
    }

    // Aggregates match an independent recount from the chain.
    let k = restored.cluster_count();
    let mut received = vec![0u64; k];
    let mut spent = vec![0u64; k];
    for tx in &chain.txs {
        for input in &tx.inputs {
            spent[f.clustering.cluster_of(input.address) as usize] += input.value.to_sat();
        }
        for out in &tx.outputs {
            received[f.clustering.cluster_of(out.address) as usize] += out.value.to_sat();
        }
    }
    for cluster in 0..k {
        let info = restored.info(cluster as u32).unwrap();
        assert_eq!(info.received.to_sat(), received[cluster], "cluster {cluster} received");
        assert_eq!(info.spent.to_sat(), spent[cluster], "cluster {cluster} spent");
    }
}

#[test]
fn flow_over_the_reloaded_artifact_matches_the_live_pipeline() {
    let f = frozen();
    let chain = f.eco.chain.resolved();
    let restored = reload(&f.snapshot);
    let live_dir = AddressDirectory::from_naming(&f.clustering, &f.names);

    // The reloaded snapshot resolves every address exactly as the live
    // naming-built directory does ...
    for addr in 0..chain.address_count() as u32 {
        assert_eq!(
            ServiceResolver::service(&restored, addr),
            live_dir.service(addr),
            "address {addr}"
        );
        assert_eq!(
            ServiceResolver::category(&restored, addr),
            live_dir.category(addr),
            "address {addr}"
        );
    }

    // ... so a flow entry point produces identical output from either.
    let every = (f.eco.cfg.blocks / 8).max(1);
    let from_live = balance_series(chain, &live_dir, every);
    let from_artifact = balance_series(chain, &restored, every);
    assert_eq!(from_live.len(), from_artifact.len());
    for (a, b) in from_live.iter().zip(&from_artifact) {
        assert_eq!(a.height, b.height);
        assert_eq!(a.balances, b.balances);
        assert_eq!(a.supply, b.supply);
        assert_eq!(a.sink_held, b.sink_held);
    }
}

#[test]
fn concurrent_readers_share_one_decoded_snapshot() {
    use std::sync::Arc;
    let f = frozen();
    let snapshot = Arc::new(reload(&f.snapshot));
    let n = snapshot.address_count() as u32;
    // 8 readers hammer the same Arc, each starting at a different offset;
    // every lookup must agree with the live clustering, and each full pass
    // must see the same named-address coverage.
    let handles: Vec<_> = (0..8u32)
        .map(|t| {
            let snapshot = Arc::clone(&snapshot);
            let start = t * (n / 8);
            std::thread::spawn(move || {
                let mut hits = 0usize;
                for addr in (0..n).map(|i| (start + i) % n) {
                    let c = snapshot.cluster_of(addr).expect("covered");
                    assert_eq!(c, frozen().clustering.cluster_of(addr));
                    if snapshot.service_of(addr).is_some() {
                        hits += 1;
                    }
                }
                hits
            })
        })
        .collect();
    let named_hits: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(named_hits as u64, 8 * f.snapshot.named_address_count());
}
