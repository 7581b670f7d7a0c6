//! The clustering driver: Heuristic 1, optionally amplified by Heuristic 2.

use crate::change::{identify, ChangeConfig, ChangeLabels};
use crate::heuristic1::{self, H1Stats};
use crate::union_find::UnionFind;
use fistful_chain::resolve::{AddressId, ResolvedChain, TxId};

/// The Heuristic 2 amplification rule: a labelled change address joins the
/// transaction's input user (whose addresses Heuristic 1 already linked).
/// The batch [`Clusterer`] and the online
/// [`ShardedIngest`](crate::incremental::sharded::ShardedIngest) both link
/// every change label through this one step.
pub(crate) fn link_change(
    uf: &mut UnionFind,
    chain: &ResolvedChain,
    tx: TxId,
    change_addr: AddressId,
) {
    if let Some(first_input) = chain.txs[tx as usize].inputs.first() {
        uf.union(first_input.address, change_addr);
    }
}

/// Configures and runs the clustering pipeline.
#[derive(Debug, Clone, Default)]
pub struct Clusterer {
    /// Heuristic 2 configuration; `None` runs Heuristic 1 only.
    pub h2: Option<ChangeConfig>,
}

impl Clusterer {
    /// Heuristic 1 only (the prior-work baseline).
    pub fn h1_only() -> Clusterer {
        Clusterer { h2: None }
    }

    /// Heuristic 1 plus Heuristic 2 with the given configuration.
    pub fn with_h2(config: ChangeConfig) -> Clusterer {
        Clusterer { h2: Some(config) }
    }

    /// Runs the pipeline over a resolved chain.
    ///
    /// ```
    /// use fistful_core::change::ChangeConfig;
    /// use fistful_core::cluster::Clusterer;
    /// use fistful_core::testutil::TestChain;
    ///
    /// // Addresses 1 and 2 co-spend (Heuristic 1 links them), paying the
    /// // already-seen address 3 and the fresh change address 4.
    /// let mut t = TestChain::new();
    /// let cb1 = t.coinbase(1, 50);
    /// let cb2 = t.coinbase(2, 50);
    /// let _cb3 = t.coinbase(3, 50);
    /// t.tx(&[(cb1, 0), (cb2, 0)], &[(3, 70), (4, 30)]);
    ///
    /// // Heuristic 1 only: {1,2}, {3}, {4}.
    /// let h1 = Clusterer::h1_only().run(&t.chain);
    /// assert_eq!(h1.cluster_count(), 3);
    /// assert_eq!(h1.cluster_of(t.id(1)), h1.cluster_of(t.id(2)));
    ///
    /// // Adding Heuristic 2 folds the change address in: {1,2,4}, {3}.
    /// let h2 = Clusterer::with_h2(ChangeConfig::naive()).run(&t.chain);
    /// assert_eq!(h2.cluster_count(), 2);
    /// assert_eq!(h2.cluster_of(t.id(1)), h2.cluster_of(t.id(4)));
    /// ```
    pub fn run(&self, chain: &ResolvedChain) -> Clustering {
        let mut uf = UnionFind::new(chain.address_count());
        let h1_stats = heuristic1::apply(chain, &mut uf);

        let change_labels = self.h2.as_ref().map(|cfg| {
            let labels = identify(chain, cfg);
            for (t, _vout, addr) in labels.iter(chain) {
                link_change(&mut uf, chain, t, addr);
            }
            labels
        });

        let (assignment, sizes) = uf.assignments();
        Clustering { assignment, sizes, h1_stats, change_labels }
    }
}

/// The result of clustering: a dense address → cluster assignment.
#[derive(Debug, Clone)]
pub struct Clustering {
    /// Cluster id for each address (indexed by [`AddressId`]).
    pub assignment: Vec<u32>,
    /// Size of each cluster (indexed by cluster id).
    pub sizes: Vec<u32>,
    /// Heuristic 1 statistics.
    pub h1_stats: H1Stats,
    /// Heuristic 2 labels, when it ran.
    pub change_labels: Option<ChangeLabels>,
}

impl Clustering {
    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.sizes.len()
    }

    /// The cluster containing `addr`.
    pub fn cluster_of(&self, addr: AddressId) -> u32 {
        self.assignment[addr as usize]
    }

    /// The largest cluster as `(cluster id, size)`.
    pub fn largest_cluster(&self) -> Option<(u32, u32)> {
        self.sizes
            .iter()
            .enumerate()
            .max_by_key(|(_, &s)| s)
            .map(|(i, &s)| (i as u32, s))
    }

    /// Counts "sink" addresses — addresses that never spent — which the
    /// paper folds into its distinct-user upper bound.
    pub fn sink_count(&self, chain: &ResolvedChain) -> usize {
        (0..chain.address_count() as AddressId)
            .filter(|&a| chain.is_sink(a))
            .count()
    }

    /// Histogram of cluster sizes: `(size, how many clusters)` sorted by
    /// size ascending.
    pub fn size_histogram(&self) -> Vec<(u32, usize)> {
        use std::collections::BTreeMap;
        let mut hist: BTreeMap<u32, usize> = BTreeMap::new();
        for &s in &self.sizes {
            *hist.entry(s).or_default() += 1;
        }
        hist.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TestChain;

    /// Two users: user A (addrs 1, 2) co-spends; user B (addr 3) pays A's
    /// fresh change address 4 scenario, plus a canonical change tx by A.
    fn scenario() -> TestChain {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let cb2 = t.coinbase(2, 50);
        let _cb3 = t.coinbase(3, 50);
        // A co-spends 1+2 (H1 links 1-2), paying seen addr 3 and fresh 4.
        let _tx = t.tx(&[(cb1, 0), (cb2, 0)], &[(3, 70), (4, 30)]);
        t
    }

    #[test]
    fn h1_only_links_inputs_not_change() {
        let t = scenario();
        let clustering = Clusterer::h1_only().run(&t.chain);
        assert_eq!(
            clustering.cluster_of(t.id(1)),
            clustering.cluster_of(t.id(2))
        );
        assert_ne!(
            clustering.cluster_of(t.id(1)),
            clustering.cluster_of(t.id(4))
        );
        // Clusters: {1,2}, {3}, {4} → 3.
        assert_eq!(clustering.cluster_count(), 3);
        assert!(clustering.change_labels.is_none());
    }

    #[test]
    fn h2_adds_change_link() {
        let t = scenario();
        let clustering = Clusterer::with_h2(ChangeConfig::naive()).run(&t.chain);
        assert_eq!(
            clustering.cluster_of(t.id(1)),
            clustering.cluster_of(t.id(4)),
            "change address joins the spender"
        );
        assert_eq!(clustering.cluster_count(), 2); // {1,2,4}, {3}
        assert_eq!(clustering.change_labels.as_ref().unwrap().labels, 1);
    }

    #[test]
    fn sizes_sum_to_address_count() {
        let t = scenario();
        let clustering = Clusterer::with_h2(ChangeConfig::naive()).run(&t.chain);
        let total: u32 = clustering.sizes.iter().sum();
        assert_eq!(total as usize, t.chain.address_count());
    }

    #[test]
    fn largest_cluster_and_histogram() {
        let t = scenario();
        let clustering = Clusterer::with_h2(ChangeConfig::naive()).run(&t.chain);
        let (_, size) = clustering.largest_cluster().unwrap();
        assert_eq!(size, 3);
        let hist = clustering.size_histogram();
        assert_eq!(hist, vec![(1, 1), (3, 1)]);
    }

    #[test]
    fn sink_counting() {
        let t = scenario();
        let clustering = Clusterer::h1_only().run(&t.chain);
        // Addresses 3 and 4 never spend.
        assert_eq!(clustering.sink_count(&t.chain), 2);
    }

    #[test]
    fn empty_chain() {
        let t = TestChain::new();
        let clustering = Clusterer::h1_only().run(&t.chain);
        assert_eq!(clustering.cluster_count(), 0);
        assert!(clustering.largest_cluster().is_none());
    }
}
