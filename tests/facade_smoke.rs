//! Smoke tests for the `fistful` facade crate: every re-exported layer is
//! reachable through the facade paths, and a minimal end-to-end pipeline
//! (simulate → Heuristic-1 cluster → name) produces a non-empty clustering.

use fistful::core::cluster::Clusterer;
use fistful::core::naming::name_clusters;
use fistful::core::tagdb::{Tag, TagDb, TagSource};
use fistful::core::union_find::UnionFind;
use fistful::flow::{AddressDirectory, FollowStrategy};
use fistful::sim::{generate_tags, Economy, RawTagSource, SimConfig};

#[test]
fn crypto_layer_is_reachable() {
    let digest = fistful::crypto::sha256::sha256d(b"a fistful of bitcoins");
    assert_ne!(digest.0, [0u8; 32]);
    let text = fistful::crypto::base58::check_encode(0x00, digest.as_bytes());
    let (version, payload) = fistful::crypto::base58::check_decode(&text).unwrap();
    assert_eq!(version, 0x00);
    assert_eq!(payload, digest.as_bytes());
}

#[test]
fn chain_layer_is_reachable() {
    let params = fistful::chain::params::Params::regtest();
    assert!(params.subsidy_at(0) > fistful::chain::amount::Amount::from_sat(0));
    let addr = fistful::chain::address::Address::from_seed(7);
    assert_eq!(addr, fistful::chain::address::Address::from_seed(7));
}

#[test]
fn core_layer_is_reachable() {
    let mut uf = UnionFind::new(4);
    uf.union(0, 1);
    assert!(uf.same(0, 1));
    assert!(!uf.same(0, 2));
    assert_eq!(uf.component_count(), 3);
}

#[test]
fn flow_layer_is_reachable() {
    // The flow API is exercised end to end below; here just pin the
    // strategy enum the peeling traversal is parameterized by.
    let strategies = [FollowStrategy::Strict, FollowStrategy::LargestFallback];
    assert_eq!(strategies.len(), 2);
}

#[test]
fn minimal_pipeline_sim_h1_naming() {
    // Simulate a small economy...
    let eco = Economy::run(SimConfig::tiny());
    let chain = eco.chain.resolved();
    assert!(chain.tx_count() > 0, "economy produced transactions");

    // ...cluster it with Heuristic 1...
    let clustering = Clusterer::h1_only().run(chain);
    assert!(clustering.cluster_count() > 0, "non-empty clustering");
    assert_eq!(clustering.assignment.len(), chain.address_count());
    assert!(
        clustering.cluster_count() < chain.address_count(),
        "H1 merged at least one multi-input spend"
    );

    // ...and name the clusters from the simulator's tags.
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
    assert!(!db.is_empty(), "simulator produced tags");
    let names = name_clusters(&clustering, &db);
    assert!(!names.names.is_empty(), "naming labelled at least one cluster");

    // The directory derived from naming resolves at least one address.
    let directory = AddressDirectory::from_naming(&clustering, &names);
    assert!(directory.resolved_count() > 0, "directory resolves addresses to services");
}
