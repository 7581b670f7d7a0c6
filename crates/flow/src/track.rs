//! Attributing peels to named services — the machinery behind Table 2.

use crate::categories::ServiceResolver;
use crate::peel::PeelChain;
use fistful_chain::amount::Amount;
use std::collections::BTreeMap;

/// One row of a Table-2-style report: peels seen to one service along one
/// or more chains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrivalRow {
    /// Service name.
    pub service: String,
    /// Service category.
    pub category: String,
    /// Number of peels per chain (indexed like the input chains).
    pub peels: Vec<usize>,
    /// Total value per chain.
    pub value: Vec<Amount>,
}

impl ArrivalRow {
    /// Total peels across all chains.
    pub fn total_peels(&self) -> usize {
        self.peels.iter().sum()
    }

    /// Total value across all chains.
    pub fn total_value(&self) -> Amount {
        self.value.iter().copied().sum()
    }
}

/// Summarizes where the peels of several chains (as
/// [`follow_chains_indexed`](crate::peel::follow_chains_indexed) returns
/// them) went, per service.
///
/// `directory` is any [`ServiceResolver`] — a live
/// [`AddressDirectory`](crate::categories::AddressDirectory) or a frozen
/// [`ClusterSnapshot`](fistful_core::snapshot::ClusterSnapshot).
/// Unattributed peels (addresses with no resolved service) are not listed —
/// exactly like the paper, which could only report flows to *known*
/// services.
pub fn service_arrivals(
    chains: &[PeelChain],
    directory: &impl ServiceResolver,
) -> Vec<ArrivalRow> {
    let mut rows: BTreeMap<String, ArrivalRow> = BTreeMap::new();
    for (ci, chain) in chains.iter().enumerate() {
        for hop in &chain.hops {
            for &(addr, value) in &hop.peels {
                let Some(service) = directory.service(addr) else {
                    continue;
                };
                let category = directory.category(addr).unwrap_or("unknown").to_string();
                let row = rows.entry(service.to_string()).or_insert_with(|| ArrivalRow {
                    service: service.to_string(),
                    category,
                    peels: vec![0; chains.len()],
                    value: vec![Amount::ZERO; chains.len()],
                });
                row.peels[ci] += 1;
                row.value[ci] = row.value[ci].checked_add(value).expect("value overflow");
            }
        }
    }
    let mut out: Vec<ArrivalRow> = rows.into_values().collect();
    // Category first (exchanges, then the rest), then by total value
    // descending — the shape of Table 2.
    out.sort_by(|a, b| {
        let rank = |c: &str| match c {
            "exchange" => 0,
            "wallet" => 1,
            "gambling" => 2,
            "vendor" => 3,
            _ => 4,
        };
        rank(&a.category)
            .cmp(&rank(&b.category))
            .then(b.total_value().cmp(&a.total_value()))
    });
    out
}

/// Fraction of attributed peels that went to a given category.
pub fn category_share(rows: &[ArrivalRow], category: &str) -> f64 {
    let total: usize = rows.iter().map(|r| r.total_peels()).sum();
    if total == 0 {
        return 0.0;
    }
    let hits: usize = rows
        .iter()
        .filter(|r| r.category == category)
        .map(|r| r.total_peels())
        .sum();
    hits as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::categories::AddressDirectory;
    use crate::peel::{Hop, StopReason};

    fn chain_with_peels(peels: Vec<Vec<(u32, u64)>>) -> PeelChain {
        PeelChain {
            hops: peels
                .into_iter()
                .enumerate()
                .map(|(i, p)| Hop {
                    tx: i as u32,
                    change_vout: 0,
                    peels: p
                        .into_iter()
                        .map(|(a, v)| (a, Amount::from_sat(v)))
                        .collect(),
                    fallback: false,
                })
                .collect(),
            stopped: StopReason::HopLimit,
        }
    }

    fn directory() -> AddressDirectory {
        AddressDirectory::from_pairs(vec![
            (Some("Mt. Gox".into()), Some("exchange".into())), // addr 0
            (Some("Instawallet".into()), Some("wallet".into())), // addr 1
            (None, None),                                      // addr 2 (a user)
            (Some("Bitzino".into()), Some("gambling".into())), // addr 3
        ])
    }

    #[test]
    fn arrivals_grouped_per_service_and_chain() {
        let c1 = chain_with_peels(vec![vec![(0, 100)], vec![(1, 50)], vec![(2, 10)]]);
        let c2 = chain_with_peels(vec![vec![(0, 200), (0, 25)], vec![(3, 5)]]);
        let rows = service_arrivals(&[c1, c2], &directory());
        assert_eq!(rows.len(), 3); // user peel unattributed

        let gox = rows.iter().find(|r| r.service == "Mt. Gox").unwrap();
        assert_eq!(gox.peels, vec![1, 2]);
        assert_eq!(gox.value[0], Amount::from_sat(100));
        assert_eq!(gox.value[1], Amount::from_sat(225));
        assert_eq!(gox.total_peels(), 3);

        // Exchanges sort first.
        assert_eq!(rows[0].service, "Mt. Gox");
    }

    #[test]
    fn indexed_pipeline_matches_manual_composition() {
        use crate::flow_oracle::follow_chain;
        use crate::graph::TxGraph;
        use crate::peel::{follow_chains_indexed, FollowStrategy};
        use fistful_core::change::{identify, ChangeConfig};
        use fistful_core::testutil::TestChain;

        let mut t = TestChain::new();
        let funding = t.coinbase(1, 1000);
        let _gox = t.coinbase(100, 5);
        let hop1 = t.tx(&[(funding, 0)], &[(100, 10), (10, 990)]);
        let _hop2 = t.tx(&[(hop1, 1)], &[(100, 20), (11, 970)]);
        let labels = identify(&t.chain, &ChangeConfig::naive());
        let graph = TxGraph::build(&t.chain);
        let mut pairs = vec![(None, None); t.chain.address_count()];
        pairs[t.id(100) as usize] = (Some("Mt. Gox".into()), Some("exchange".into()));
        let dir = AddressDirectory::from_pairs(pairs);

        let chains =
            follow_chains_indexed(&graph, &labels, &[hop1 as u32], 100, FollowStrategy::Strict);
        let rows = service_arrivals(&chains, &dir);
        let legacy = follow_chain(&t.chain, &labels, hop1 as u32, 100, FollowStrategy::Strict);
        assert_eq!(chains, vec![legacy.clone()]);
        assert_eq!(rows, service_arrivals(&[legacy], &dir));
        assert_eq!(rows[0].service, "Mt. Gox");
        assert_eq!(rows[0].total_peels(), 2);
    }

    #[test]
    fn category_share_counts_peels() {
        let c1 = chain_with_peels(vec![vec![(0, 100)], vec![(1, 50)], vec![(3, 10)]]);
        let rows = service_arrivals(&[c1], &directory());
        let share = category_share(&rows, "exchange");
        assert!((share - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(category_share(&[], "exchange"), 0.0);
    }
}
