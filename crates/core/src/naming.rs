//! Cluster naming: propagating tags to whole clusters.
//!
//! Tagging one address names the entire cluster containing it — the
//! amplification at the heart of the paper (1,070 hand-tagged addresses
//! named clusters covering 1.8 M addresses, a ~1,600× gain). Naming also
//! reveals two phenomena the paper reports:
//!
//! * **collapse** — one service may span several Heuristic-1 clusters
//!   (Mt. Gox spanned ~20), which shared names re-merge;
//! * **super-clusters** — an over-eager Heuristic 2 can weld *different*
//!   services into one giant cluster (the paper's 1.6 M-address
//!   Mt. Gox + Instawallet + BitPay + Silk Road cluster), which
//!   [`NamingReport::super_clusters`] detects.

use crate::cluster::Clustering;
use crate::tagdb::{TagDb, TagSource};
use std::collections::HashMap;

/// A cluster identified as containing several distinct first-party-tagged
/// services — the paper's super-cluster failure mode.
#[derive(Debug, Clone, PartialEq)]
pub struct SuperCluster {
    /// The cluster id.
    pub cluster: u32,
    /// Addresses in the cluster.
    pub size: u32,
    /// The distinct services welded together.
    pub services: Vec<String>,
}

/// The outcome of naming every cluster that contains tagged addresses.
#[derive(Debug, Clone, Default)]
pub struct NamingReport {
    /// Winning name per cluster id.
    pub names: HashMap<u32, String>,
    /// Category of the winning name per cluster id.
    pub categories: HashMap<u32, String>,
    /// Clusters that received a name.
    pub named_clusters: usize,
    /// Total addresses covered by named clusters.
    pub named_addresses: u64,
    /// Distinct service names applied.
    pub distinct_services: usize,
    /// How many cluster merges shared names imply (service spanning k
    /// clusters contributes k−1). The paper's "collapsed slightly".
    pub collapsed_by_names: usize,
    /// Clusters containing ≥ 2 distinct own-transaction services.
    pub super_clusters: Vec<SuperCluster>,
}

impl NamingReport {
    /// The name of the cluster containing `addr`, if any.
    pub fn name_of_cluster(&self, cluster: u32) -> Option<&str> {
        self.names.get(&cluster).map(String::as_str)
    }

    /// Cluster ids carrying a given service name.
    pub fn clusters_of_service(&self, service: &str) -> Vec<u32> {
        let mut ids: Vec<u32> = self
            .names
            .iter()
            .filter(|(_, n)| n.as_str() == service)
            .map(|(&c, _)| c)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// The effective user count after collapsing same-named clusters
    /// (the paper's 3,384,179 → 3,383,904 step).
    pub fn collapsed_cluster_count(&self, total_clusters: usize) -> usize {
        total_clusters - self.collapsed_by_names
    }
}

/// Names clusters by reliability-weighted tag vote.
///
/// Each in-range tag votes its source's [`TagSource::reliability`] for its
/// service in its address's cluster; a cluster takes the service with the
/// largest total, equal totals going to the lexicographically smaller
/// name. A service's category is that of its last in-range tag. Tags on
/// addresses the clustering does not cover are ignored.
///
/// One sort does the grouping: the in-range tags, keyed by (cluster,
/// service rank, tag index), sorted once, then summed and decided run by
/// run. Each (cluster, service) total is summed in tag order, so float
/// ties (0.6 + 0.4 against 1.0; 0.4 × 3 against 0.6 × 2, which is not a
/// tie) come out as a sum in that order says. Super-clusters are listed
/// largest first, equal sizes by cluster id.
pub fn name_clusters(clustering: &Clustering, tags: &TagDb) -> NamingReport {
    let tags = tags.tags();

    // Services numbered in order of first in-range sight, one vote
    // (cluster, service, tag index) per in-range tag; the last in-range
    // tag of a service names its category.
    let mut ids: HashMap<&str, u32> = HashMap::new();
    let mut services: Vec<&str> = Vec::new();
    let mut category_of: Vec<&str> = Vec::new();
    let mut votes: Vec<(u32, u32, u32)> = Vec::with_capacity(tags.len());
    for (i, tag) in tags.iter().enumerate() {
        if tag.address as usize >= clustering.assignment.len() {
            continue; // tag for an address outside this chain view
        }
        let id = *ids.entry(&tag.service).or_insert_with(|| {
            services.push(&tag.service);
            category_of.push("");
            services.len() as u32 - 1
        });
        category_of[id as usize] = &tag.category;
        votes.push((clustering.cluster_of(tag.address), id, i as u32));
    }
    // Renumber services by name, so rank order is the tie-break order.
    let mut by_name: Vec<u32> = (0..services.len() as u32).collect();
    by_name.sort_unstable_by_key(|&id| services[id as usize]);
    let mut rank_of = vec![0u32; services.len()];
    for (rank, &id) in by_name.iter().enumerate() {
        rank_of[id as usize] = rank as u32;
    }
    let services: Vec<&str> = by_name.iter().map(|&id| services[id as usize]).collect();
    let category_of: Vec<&str> = by_name.iter().map(|&id| category_of[id as usize]).collect();
    for vote in &mut votes {
        vote.1 = rank_of[vote.1 as usize];
    }
    votes.sort_unstable();

    let mut report = NamingReport::default();
    let named = runs(&votes, |v| v.0).count();
    report.names.reserve(named);
    report.categories.reserve(named);
    let mut clusters_per_service = vec![0usize; services.len()];
    let mut strong: Vec<u32> = Vec::new();
    for cluster_run in runs(&votes, |v| v.0) {
        let cluster = cluster_run[0].0;
        let mut winner = (0u32, f64::NEG_INFINITY);
        strong.clear();
        for service_run in runs(cluster_run, |v| v.1) {
            let rank = service_run[0].1;
            let mut weight = 0.0;
            let mut own = false;
            for &(_, _, i) in service_run {
                let source = tags[i as usize].source;
                weight += source.reliability();
                own |= source == TagSource::OwnTransaction;
            }
            // Strictly greater: on equal weights the smaller rank stays.
            if weight > winner.1 {
                winner = (rank, weight);
            }
            // ≥ 1.0 of vote weight (an own-transaction tag, or several
            // public tags), or own-transaction evidence at all.
            if weight >= 1.0 || own {
                strong.push(rank);
            }
        }
        let (rank, _) = winner;
        report.names.insert(cluster, services[rank as usize].to_string());
        report.categories.insert(cluster, category_of[rank as usize].to_string());
        clusters_per_service[rank as usize] += 1;
        let size = clustering.sizes[cluster as usize];
        report.named_addresses += size as u64;

        // Super-cluster detection: ≥2 distinct services with substantial
        // vote weight in one cluster is strong evidence of a false merge.
        if strong.len() >= 2 {
            let services = strong.iter().map(|&r| services[r as usize].to_string()).collect();
            report.super_clusters.push(SuperCluster { cluster, size, services });
        }
    }

    report.named_clusters = report.names.len();
    let applied = clusters_per_service.iter().filter(|&&k| k > 0);
    report.distinct_services = applied.clone().count();
    report.collapsed_by_names = applied.map(|k| k - 1).sum();
    // Pushed in cluster order, so the stable sort breaks size ties by id.
    report.super_clusters.sort_by_key(|s| std::cmp::Reverse(s.size));
    report
}

/// The maximal runs of `items` that agree on `key` (what `slice::chunk_by`
/// does, which is newer than the workspace's minimum Rust version).
fn runs<'a, T, K: PartialEq>(
    items: &'a [T],
    key: impl Fn(&T) -> K + 'a,
) -> impl Iterator<Item = &'a [T]> + 'a {
    let mut rest = items;
    std::iter::from_fn(move || {
        let first = key(rest.first()?);
        let len = rest.iter().take_while(|x| key(x) == first).count();
        let (run, tail) = rest.split_at(len);
        rest = tail;
        Some(run)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::change::ChangeConfig;
    use crate::cluster::Clusterer;
    use crate::tagdb::Tag;
    use crate::testutil::TestChain;

    fn tag(addr: u32, service: &str, source: TagSource) -> Tag {
        Tag {
            address: addr,
            service: service.into(),
            category: "exchange".into(),
            source,
        }
    }

    /// Two disjoint co-spend clusters {1,2} and {3,4}; address 5 alone.
    fn two_cluster_chain() -> TestChain {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let cb2 = t.coinbase(2, 50);
        let cb3 = t.coinbase(3, 50);
        let cb4 = t.coinbase(4, 50);
        let _cb5 = t.coinbase(5, 50);
        t.tx(&[(cb1, 0), (cb2, 0)], &[(5, 100)]);
        t.tx(&[(cb3, 0), (cb4, 0)], &[(5, 100)]);
        t
    }

    #[test]
    fn tags_name_whole_clusters() {
        let t = two_cluster_chain();
        let clustering = Clusterer::h1_only().run(&t.chain);
        let mut db = TagDb::new();
        db.add(tag(t.id(1), "Mt. Gox", TagSource::OwnTransaction));
        let report = name_clusters(&clustering, &db);
        assert_eq!(report.named_clusters, 1);
        let c = clustering.cluster_of(t.id(2));
        assert_eq!(report.name_of_cluster(c), Some("Mt. Gox"));
        // Cluster {1,2} has 2 addresses.
        assert_eq!(report.named_addresses, 2);
    }

    #[test]
    fn same_service_spanning_clusters_collapses() {
        let t = two_cluster_chain();
        let clustering = Clusterer::h1_only().run(&t.chain);
        let mut db = TagDb::new();
        db.add(tag(t.id(1), "Mt. Gox", TagSource::OwnTransaction));
        db.add(tag(t.id(3), "Mt. Gox", TagSource::OwnTransaction));
        let report = name_clusters(&clustering, &db);
        assert_eq!(report.named_clusters, 2);
        assert_eq!(report.collapsed_by_names, 1);
        assert_eq!(
            report.collapsed_cluster_count(clustering.cluster_count()),
            clustering.cluster_count() - 1
        );
        assert_eq!(report.clusters_of_service("Mt. Gox").len(), 2);
    }

    #[test]
    fn reliability_weighting_beats_count() {
        let t = two_cluster_chain();
        let clustering = Clusterer::h1_only().run(&t.chain);
        let mut db = TagDb::new();
        // Two low-reliability forum tags vs one own-transaction tag.
        db.add(tag(t.id(1), "Imposter Exchange", TagSource::Forum));
        db.add(tag(t.id(2), "Imposter Exchange", TagSource::Forum));
        db.add(tag(t.id(1), "Mt. Gox", TagSource::OwnTransaction));
        let report = name_clusters(&clustering, &db);
        let c = clustering.cluster_of(t.id(1));
        assert_eq!(report.name_of_cluster(c), Some("Mt. Gox"));
    }

    #[test]
    fn super_cluster_detected_when_h2_over_merges() {
        // Build the paper's failure: service A's change-address reuse makes
        // naive H2 label service B's fresh deposit address as A's change.
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50); // A's funds
        let cb2 = t.coinbase(2, 50); // A's funds
        let _cb5 = t.coinbase(5, 50);
        // A: tx1 pays seen 5, change to fresh 4 (legit label).
        let _tx1 = t.tx(&[(cb1, 0)], &[(5, 30), (4, 20)]);
        // A: tx2 REUSES change address 4; other output 6 is B's fresh
        // deposit address → naive H2 labels 6 as A's change.
        let tx2 = t.tx(&[(cb2, 0)], &[(6, 30), (4, 20)]);
        // B sweeps its deposit 6 together with its other address 7.
        let cb7 = t.coinbase(7, 50);
        let _sweep = t.tx(&[(tx2, 0), (cb7, 0)], &[(8, 80)]);

        let naive = Clusterer::with_h2(ChangeConfig::naive()).run(&t.chain);
        let mut db = TagDb::new();
        db.add(tag(t.id(1), "Service A", TagSource::OwnTransaction));
        db.add(tag(t.id(2), "Service A", TagSource::OwnTransaction));
        db.add(tag(t.id(7), "Service B", TagSource::OwnTransaction));
        let report = name_clusters(&naive, &db);
        assert_eq!(report.super_clusters.len(), 1, "naive H2 welds A and B");
        assert_eq!(
            report.super_clusters[0].services,
            vec!["Service A".to_string(), "Service B".to_string()]
        );

        // The refined heuristic (reuse exclusion) avoids the merge.
        let mut cfg = ChangeConfig::naive();
        cfg.skip_reused_change = true;
        let refined = Clusterer::with_h2(cfg).run(&t.chain);
        let report = name_clusters(&refined, &db);
        assert!(report.super_clusters.is_empty(), "refined H2 keeps A and B apart");
    }

    #[test]
    fn super_clusters_tie_break_by_cluster_id() {
        // Two equal-size clusters, each welding two services: the order
        // must not depend on hash-map iteration, so build the report many
        // times over fresh maps and expect cluster 0 first every time.
        let clustering = Clustering {
            assignment: vec![0, 0, 1, 1, 2],
            sizes: vec![2, 2, 1],
            h1_stats: Default::default(),
            change_labels: None,
        };
        let mut db = TagDb::new();
        for (addr, service) in [(3, "C"), (0, "A"), (2, "D"), (1, "B")] {
            db.add(tag(addr, service, TagSource::OwnTransaction));
        }
        for round in 0..64 {
            let report = name_clusters(&clustering, &db);
            let order: Vec<u32> = report.super_clusters.iter().map(|s| s.cluster).collect();
            assert_eq!(order, vec![0, 1], "round {round}");
            assert_eq!(report.super_clusters[1].services, vec!["C".to_string(), "D".to_string()]);
        }
    }

    #[test]
    fn empty_tagdb_names_nothing() {
        let t = two_cluster_chain();
        let clustering = Clusterer::h1_only().run(&t.chain);
        let report = name_clusters(&clustering, &TagDb::new());
        assert_eq!(report.named_clusters, 0);
        assert_eq!(report.named_addresses, 0);
        assert!(report.super_clusters.is_empty());
    }

    #[test]
    fn out_of_range_tags_ignored() {
        let t = two_cluster_chain();
        let clustering = Clusterer::h1_only().run(&t.chain);
        let mut db = TagDb::new();
        db.add(tag(10_000, "Ghost", TagSource::OwnTransaction));
        let report = name_clusters(&clustering, &db);
        assert_eq!(report.named_clusters, 0);
    }
}
