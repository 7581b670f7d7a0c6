//! Silk Road trace: simulate the economy, then follow the `1DkyBEKt`
//! dissolution through its three peeling chains and report which services
//! the peels reached — Table 2 of the paper.
//!
//! Run with: `cargo run --release --example silkroad_trace`

use fistful::core::change::{self, ChangeConfig};
use fistful::core::cluster::Clusterer;
use fistful::core::naming::name_clusters;
use fistful::core::snapshot::ClusterSnapshot;
use fistful::flow::graph::TxGraph;
use fistful::flow::{follow_chains_indexed, service_arrivals, FollowStrategy};
use fistful::sim::{Economy, SimConfig};
use fistful_bench::{build_tagdb, silk_road_starts};

fn main() {
    println!("simulating the economy ...");
    let eco = Economy::run(SimConfig::default());
    let chain = eco.chain.resolved();

    let sr = eco
        .script_report
        .silk_road
        .as_ref()
        .expect("Silk Road script enabled by default");
    println!("big address {} received {}", sr.big_address, sr.total_received);
    println!(
        "dissolved via {} withdrawals, split into 3 chains, {:?} hops each",
        sr.dissolution_txids.len(),
        sr.hops_done
    );

    // Build the analysis exactly as the paper would: tags → clusters →
    // names (frozen into a snapshot) → change labels → chain traversal
    // over the graph index.
    let db = build_tagdb(&eco);
    let clustering = Clusterer::with_h2(ChangeConfig::naive()).run(chain);
    let names = name_clusters(&clustering, &db);
    let snapshot = ClusterSnapshot::build(chain, &clustering, &names);
    let labels = change::identify(chain, &ChangeConfig::naive());
    let graph = TxGraph::build(chain);

    let starts = silk_road_starts(chain, sr);
    let chains =
        follow_chains_indexed(&graph, &labels, &starts, 100, FollowStrategy::LargestFallback);

    println!("\npeels to known services:");
    for row in service_arrivals(&chains, &snapshot) {
        println!(
            "  {:<20} [{:<9}] {:>3} peels, {}",
            row.service,
            row.category,
            row.total_peels(),
            row.total_value()
        );
    }
}
