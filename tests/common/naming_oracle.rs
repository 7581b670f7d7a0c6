//! The tag vote `fistful_core::naming::name_clusters` ran before it became
//! one sort over the tags, kept as the oracle the sort-based vote is
//! checked against: nested `HashMap`s, one per cluster, summing each
//! (cluster, service) weight in tag order. Its super-cluster order on
//! equal sizes is `HashMap` iteration order; compare after ordering ties
//! by cluster id.
//!
//! Not a test target: suites include it with `#[path]`.

use fistful_core::cluster::Clustering;
use fistful_core::naming::{NamingReport, SuperCluster};
use fistful_core::tagdb::{TagDb, TagSource};
use std::collections::{HashMap, HashSet};

/// Names clusters by reliability-weighted tag vote.
pub fn name_clusters(clustering: &Clustering, tags: &TagDb) -> NamingReport {
    // Accumulate votes per (cluster, service).
    let mut votes: HashMap<u32, HashMap<&str, f64>> = HashMap::new();
    let mut categories: HashMap<&str, &str> = HashMap::new();
    let mut own_services: HashMap<u32, HashSet<&str>> = HashMap::new();

    for tag in tags.tags() {
        if tag.address as usize >= clustering.assignment.len() {
            continue; // tag for an address outside this chain view
        }
        let cluster = clustering.cluster_of(tag.address);
        *votes
            .entry(cluster)
            .or_default()
            .entry(tag.service.as_str())
            .or_default() += tag.source.reliability();
        categories.insert(tag.service.as_str(), tag.category.as_str());
        if tag.source == TagSource::OwnTransaction {
            own_services
                .entry(cluster)
                .or_default()
                .insert(tag.service.as_str());
        }
    }

    let mut report = NamingReport::default();
    let mut clusters_per_service: HashMap<&str, usize> = HashMap::new();

    for (cluster, tally) in &votes {
        // Winner by weight, ties broken by name for determinism.
        let winner = tally
            .iter()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(b.0.cmp(a.0)))
            .map(|(name, _)| *name)
            .expect("non-empty tally");
        report.names.insert(*cluster, winner.to_string());
        report
            .categories
            .insert(*cluster, categories[winner].to_string());
        *clusters_per_service.entry(winner).or_default() += 1;
        report.named_addresses += clustering.sizes[*cluster as usize] as u64;
    }

    report.named_clusters = report.names.len();
    report.distinct_services = clusters_per_service.len();
    report.collapsed_by_names = clusters_per_service.values().map(|k| k - 1).sum();

    // Super-cluster detection: ≥2 distinct services with substantial vote
    // weight (an own-transaction tag, or several public tags) in one
    // cluster is strong evidence of a false merge.
    for (cluster, tally) in &votes {
        let mut strong: Vec<&str> = tally
            .iter()
            .filter(|(_, &w)| w >= 1.0)
            .map(|(name, _)| *name)
            .collect();
        // Own-transaction evidence always counts.
        if let Some(own) = own_services.get(cluster) {
            for s in own {
                if !strong.contains(s) {
                    strong.push(s);
                }
            }
        }
        if strong.len() >= 2 {
            let mut names: Vec<String> = strong.into_iter().map(String::from).collect();
            names.sort();
            report.super_clusters.push(SuperCluster {
                cluster: *cluster,
                size: clustering.sizes[*cluster as usize],
                services: names,
            });
        }
    }
    report.super_clusters.sort_by_key(|s| std::cmp::Reverse(s.size));
    report
}
