//! Shared experiment harness: builds the simulated economy once and
//! derives everything the paper's tables and Figure 2 need. Figure 1, a
//! payment's broadcast and confirmation, is background and has no
//! experiment.

#![forbid(unsafe_code)]

pub mod cli;

use fistful_chain::resolve::AddressId;
use fistful_core::change::ChangeConfig;
use fistful_core::cluster::{Clusterer, Clustering};
use fistful_core::naming::{name_clusters, NamingReport};
use fistful_core::snapshot::ClusterSnapshot;
use fistful_core::tagdb::{Tag, TagDb, TagSource};
use fistful_sim::{generate_tags, Economy, RawTagSource, SimConfig};
use std::collections::HashSet;

/// A fully prepared experiment context.
pub struct Workbench {
    /// The finished economy (chain + ground truth + script reports).
    pub eco: Economy,
    /// All tags (own-transaction + public).
    pub tagdb: TagDb,
    /// Gambling-cluster addresses (for the Satoshi-Dice exception).
    pub dice: HashSet<AddressId>,
    /// Heuristic 1 clustering.
    pub h1: Clustering,
    /// Naming of the H1 clustering.
    pub h1_names: NamingReport,
}

impl Workbench {
    /// Runs the economy and prepares clustering + tags.
    pub fn build(cfg: SimConfig) -> Workbench {
        let eco = Economy::run(cfg);
        let tagdb = build_tagdb(&eco);
        let h1 = Clusterer::h1_only().run(eco.chain.resolved());
        let h1_names = name_clusters(&h1, &tagdb);
        let dice = dice_addresses(&h1, &h1_names);
        Workbench { eco, tagdb, dice, h1, h1_names }
    }

    /// The refined Heuristic-2 configuration for this chain.
    pub fn refined_config(&self) -> ChangeConfig {
        ChangeConfig::refined(self.dice.clone())
    }

    /// Runs H1+H2 clustering with a given H2 configuration.
    pub fn cluster_with(&self, cfg: ChangeConfig) -> Clustering {
        Clusterer::with_h2(cfg).run(self.eco.chain.resolved())
    }

    /// The frozen serving artifact: refined H1+H2 clustering, tag naming,
    /// and per-cluster aggregates fused into a [`ClusterSnapshot`].
    pub fn snapshot(&self) -> ClusterSnapshot {
        let refined = self.cluster_with(self.refined_config());
        let names = name_clusters(&refined, &self.tagdb);
        ClusterSnapshot::build(self.eco.chain.resolved(), &refined, &names)
    }

    /// Count of distinct hand-tagged (own-transaction) addresses.
    pub fn hand_tagged(&self) -> usize {
        self.tagdb
            .tags_from(TagSource::OwnTransaction)
            .map(|t| t.address)
            .collect::<HashSet<_>>()
            .len()
    }
}

/// Derives the query service's full serving bundle from a finished
/// workbench: the frozen snapshot, the transaction-graph index, the
/// refined Heuristic-2 change labels, and the precomputed balance series
/// (sampled like `repro fig2`). Shared by `repro serve` and the socket
/// integration suites. `benchmark/` builds the same bundle
/// from the library crates and times its stages as
/// `core.snapshot.build_ms`, `flow.balance.series_ms` and
/// `flow.graph.build_ms`.
///
/// The refined clustering is run once and its own change labels
/// (`Clustering::change_labels`) are reused for the taint handlers —
/// identical to a fresh `change::identify` pass with the same
/// configuration, without paying the O(chain) scan twice.
pub fn serve_artifacts(wb: &Workbench) -> fistful_serve::ServeArtifacts {
    let chain = wb.eco.chain.resolved();
    let mut refined = wb.cluster_with(wb.refined_config());
    let labels = refined
        .change_labels
        .take()
        .expect("with_h2 clustering keeps its change labels");
    let names = name_clusters(&refined, &wb.tagdb);
    let snapshot = ClusterSnapshot::build(chain, &refined, &names);
    let every = (wb.eco.cfg.blocks / 24).max(1);
    let balances = fistful_flow::balance_series(chain, &snapshot, every);
    let graph = fistful_flow::graph::TxGraph::build(chain);
    fistful_serve::ServeArtifacts::new(snapshot, graph, labels, balances)
        .expect("artifacts all derive from one chain")
}

/// Converts the simulator's raw tags into an interned [`TagDb`].
pub fn build_tagdb(eco: &Economy) -> TagDb {
    let chain = eco.chain.resolved();
    let mut db = TagDb::new();
    for raw in generate_tags(eco) {
        let Some(address) = chain.address_id(&raw.address) else { continue };
        let source = match raw.source {
            RawTagSource::OwnTransaction => TagSource::OwnTransaction,
            RawTagSource::SelfSubmitted => TagSource::SelfSubmitted,
            RawTagSource::Forum => TagSource::Forum,
        };
        db.add(Tag { address, service: raw.service, category: raw.category, source });
    }
    db
}

/// Addresses in clusters named with the gambling category — the paper's
/// route to the Satoshi-Dice exception set.
pub fn dice_addresses(clustering: &Clustering, names: &NamingReport) -> HashSet<AddressId> {
    let mut dice = HashSet::new();
    for (addr, &cluster) in clustering.assignment.iter().enumerate() {
        if names.categories.get(&cluster).map(String::as_str) == Some("gambling") {
            dice.insert(addr as AddressId);
        }
    }
    dice
}

/// Formats a satoshi amount as whole bitcoins (rounded), Table-2 style.
pub fn btc_round(amount: fistful_chain::amount::Amount) -> u64 {
    (amount.to_sat() + 50_000_000) / 100_000_000
}

/// Resolves each scripted theft's loot outputs to `(name, [(tx, vout)])`
/// pairs — the input shape of the batch taint engine. Thefts whose loot
/// cannot be located on the chain (script disabled at tiny scales) are
/// omitted. Shared by `repro tab3`, the `serve_roundtrip` and
/// `theft_tracking` examples, and the integration suites.
pub fn theft_loots(
    chain: &fistful_chain::resolve::ResolvedChain,
    thefts: &[fistful_sim::scripts::TheftReport],
) -> Vec<(String, Vec<(fistful_chain::resolve::TxId, u32)>)> {
    let mut out = Vec::new();
    for theft in thefts {
        let loot_ids: Vec<AddressId> = theft
            .loot_addresses
            .iter()
            .filter_map(|a| chain.address_id(a))
            .collect();
        let mut loot = Vec::new();
        for txid in &theft.theft_txids {
            let Some((t, rtx)) = chain.tx_by_txid(txid) else { continue };
            for (v, o) in rtx.outputs.iter().enumerate() {
                if loot_ids.contains(&o.address) {
                    loot.push((t, v as u32));
                }
            }
        }
        if !loot.is_empty() {
            out.push((theft.name.clone(), loot));
        }
    }
    out
}

/// Resolves the Silk Road dissolution's peeling-chain first hops to
/// transaction ids — the start set for Table 2's multi-chain traversal.
pub fn silk_road_starts(
    chain: &fistful_chain::resolve::ResolvedChain,
    report: &fistful_sim::scripts::SilkRoadReport,
) -> Vec<fistful_chain::resolve::TxId> {
    report
        .chain_first_hops
        .iter()
        .filter_map(|txid| chain.tx_by_txid(txid).map(|(id, _)| id))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workbench_builds_and_is_consistent() {
        let wb = Workbench::build(SimConfig::tiny());
        assert!(wb.tagdb.len() > 100);
        assert!(!wb.dice.is_empty(), "dice clusters identified");
        assert!(wb.h1.cluster_count() > 100);
        assert!(wb.hand_tagged() > 50);
        let refined = wb.cluster_with(wb.refined_config());
        assert!(refined.cluster_count() <= wb.h1.cluster_count());
    }
}
