//! Set-up shared by every workload: simulate the economy from the seed,
//! tag it, and build the batch artifacts — the bundle the serve workloads
//! serve and the oracle the ingest and batch workloads are checked
//! against. Each stage runs inside a span, recorded when tracing is on.

use crate::report::Outcome;
use crate::stats::median_u64;
use crate::stream::KeySpace;
use crate::trace::{self, Span, Tracer};
use fistful_chain::resolve::{AddressId, ResolvedChain, TxId};
use fistful_core::change::ChangeConfig;
use fistful_core::cluster::Clusterer;
use fistful_core::naming::name_clusters;
use fistful_core::snapshot::ClusterSnapshot;
use fistful_core::tagdb::{Tag, TagDb, TagSource};
use fistful_flow::balance_series;
use fistful_flow::graph::TxGraph;
use fistful_serve::ServeArtifacts;
use fistful_sim::{generate_tags, Economy, RawTagSource, SimConfig};
use std::collections::HashSet;
use std::sync::Arc;

/// Size of the simulated economy.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub blocks: u64,
    pub users: usize,
    pub public_tags: usize,
}

impl Scale {
    /// About 63 000 transactions and 59 000 addresses in 30 epochs of 16
    /// blocks: large enough that the 4096-entry cache holds a fifteenth of
    /// the keys and an epoch costs milliseconds, small enough to simulate
    /// in about a second, which a run does three times over.
    pub const FULL: Scale = Scale {
        blocks: 480,
        users: 150,
        public_tags: 750,
    };
    /// `SimConfig::tiny()`: enough to enter every code path in well under
    /// a second.
    pub const SMOKE: Scale = Scale {
        blocks: 120,
        users: 30,
        public_tags: 60,
    };

    /// Balance samples every `blocks / 24`, as `repro serve` takes them.
    pub fn balance_every(self) -> u64 {
        (self.blocks / 24).max(1)
    }
}

/// Everything a workload starts from.
pub struct Prepared {
    pub scale: Scale,
    pub chain: Arc<ResolvedChain>,
    pub tagdb: TagDb,
    /// The refined Heuristic-2 configuration (dice exception included).
    pub refined: ChangeConfig,
    /// The batch-built serving bundle.
    pub artifacts: Arc<ServeArtifacts>,
    /// Loot outpoints of each scripted theft found on the chain.
    pub loots: Vec<Vec<(TxId, u32)>>,
    /// First hops of the Silk Road dissolution's peeling chains.
    pub peel_starts: Vec<TxId>,
    pub clusters_h1: usize,
    pub clusters_h2: usize,
}

impl Prepared {
    pub fn key_space(&self) -> KeySpace {
        KeySpace {
            addresses: self.artifacts.snapshot.address_count() as u64,
            clusters: self.artifacts.snapshot.cluster_count() as u64,
            tip_height: self.artifacts.snapshot.tip_height(),
            early_txs: (self.chain.tx_count() / 2).max(1) as u64,
        }
    }
}

/// Runs the whole set-up for `seed`.
pub fn prepare(seed: u64, scale: Scale, t: &mut Tracer) -> Prepared {
    let cfg = SimConfig {
        seed,
        blocks: scale.blocks,
        users: scale.users,
        public_tags: scale.public_tags,
        ..SimConfig::default()
    };
    let eco = t.scope("sim.economy_run", 0, || Economy::run(cfg));

    let chain = eco.chain.resolved();
    let mut tagdb = TagDb::new();
    for raw in generate_tags(&eco) {
        let Some(address) = chain.address_id(&raw.address) else {
            continue;
        };
        let source = match raw.source {
            RawTagSource::OwnTransaction => TagSource::OwnTransaction,
            RawTagSource::SelfSubmitted => TagSource::SelfSubmitted,
            RawTagSource::Forum => TagSource::Forum,
        };
        tagdb.add(Tag {
            address,
            service: raw.service,
            category: raw.category,
            source,
        });
    }
    let loots = theft_loots(chain, &eco.script_report.thefts);
    let peel_starts: Vec<TxId> = eco
        .script_report
        .silk_road
        .iter()
        .flat_map(|sr| &sr.chain_first_hops)
        .filter_map(|txid| chain.tx_by_txid(txid).map(|(id, _)| id))
        .collect();

    // The paper's route to the Satoshi-Dice exception: cluster with H1,
    // name the clusters, take the addresses of the gambling ones.
    let h1 = t.scope("core.cluster.h1_run", 0, || Clusterer::h1_only().run(chain));
    let h1_names = name_clusters(&h1, &tagdb);
    let dice: HashSet<AddressId> = (0..h1.assignment.len() as AddressId)
        .filter(|&a| {
            h1_names
                .categories
                .get(&h1.cluster_of(a))
                .map(String::as_str)
                == Some("gambling")
        })
        .collect();
    let refined = ChangeConfig::refined(dice);

    let mut h2 = t.scope("core.cluster.h2_refined_run", 0, || {
        Clusterer::with_h2(refined.clone()).run(chain)
    });
    let labels = h2
        .change_labels
        .take()
        .expect("an H2 clustering keeps its change labels");
    let names = t.scope("core.naming.name_clusters", 0, || {
        name_clusters(&h2, &tagdb)
    });
    let snapshot = t.scope("core.snapshot.build", 0, || {
        ClusterSnapshot::build(chain, &h2, &names)
    });
    let balances = t.scope("flow.balance.series", 0, || {
        balance_series(chain, &snapshot, scale.balance_every())
    });
    let graph = t.scope("flow.graph.build", 0, || TxGraph::build(chain));
    let artifacts = ServeArtifacts::new(snapshot, graph, labels, balances)
        .expect("artifacts built from one chain pair with each other");

    Prepared {
        scale,
        clusters_h1: h1.cluster_count(),
        clusters_h2: h2.cluster_count(),
        chain: Arc::new(eco.chain.into_resolved()),
        tagdb,
        refined,
        artifacts: Arc::new(artifacts),
        loots,
        peel_starts,
    }
}

/// Reads the per-layer metrics of the set-up's stages off `spans`: each
/// stage's median self time. (`batch_cluster` passes its traced passes'
/// spans along, which repeat every stage but the simulation.)
pub fn setup_layers(out: &mut Outcome, prep: &Prepared, spans: &[Span]) {
    let by_name = trace::self_times_by_name(spans);
    let ms = |name: &str| {
        by_name
            .get(name)
            .map(|v| median_u64(v) / 1e6)
            .unwrap_or(0.0)
    };
    out.layer("sim.economy_run_s", ms("sim.economy_run") / 1e3);
    out.layer("chain.resolve.txs", prep.chain.tx_count() as f64);
    out.layer("chain.resolve.addresses", prep.chain.address_count() as f64);
    out.layer("core.cluster.h1_run_ms", ms("core.cluster.h1_run"));
    out.layer(
        "core.cluster.h2_refined_run_ms",
        ms("core.cluster.h2_refined_run"),
    );
    out.layer(
        "core.naming.name_clusters_ms",
        ms("core.naming.name_clusters"),
    );
    out.layer("core.snapshot.build_ms", ms("core.snapshot.build"));
    out.layer("flow.graph.build_ms", ms("flow.graph.build"));
    out.layer("flow.balance.series_ms", ms("flow.balance.series"));
    out.layer("core.cluster.clusters_h1", prep.clusters_h1 as f64);
    out.layer("core.cluster.clusters_h2", prep.clusters_h2 as f64);
}

/// The `(tx, vout)` loot outputs of each scripted theft that can be
/// located on the chain.
fn theft_loots(
    chain: &ResolvedChain,
    thefts: &[fistful_sim::scripts::TheftReport],
) -> Vec<Vec<(TxId, u32)>> {
    let mut out = Vec::new();
    for theft in thefts {
        let loot_ids: Vec<AddressId> = theft
            .loot_addresses
            .iter()
            .filter_map(|a| chain.address_id(a))
            .collect();
        let mut loot = Vec::new();
        for txid in &theft.theft_txids {
            let Some((t, rtx)) = chain.tx_by_txid(txid) else {
                continue;
            };
            for (v, o) in rtx.outputs.iter().enumerate() {
                if loot_ids.contains(&o.address) {
                    loot.push((t, v as u32));
                }
            }
        }
        if !loot.is_empty() {
            out.push(loot);
        }
    }
    out
}
