//! Theft tracking: simulate the economy with its seven scripted thefts,
//! then re-derive Table 3 — how the loot moved (A/P/S/F) and whether it
//! reached an exchange.
//!
//! Run with: `cargo run --release --example theft_tracking`

use fistful::core::change::{self, ChangeConfig};
use fistful::core::cluster::Clusterer;
use fistful::core::naming::name_clusters;
use fistful::flow::graph::{TaintScratch, TxGraph};
use fistful::flow::{track_theft_indexed, AddressDirectory};
use fistful::sim::{Economy, SimConfig};
use fistful_bench::{build_tagdb, theft_loots};

fn main() {
    println!("simulating the economy ...");
    let eco = Economy::run(SimConfig::default());
    let chain = eco.chain.resolved();

    let db = build_tagdb(&eco);
    let clustering = Clusterer::with_h2(ChangeConfig::naive()).run(chain);
    let names = name_clusters(&clustering, &db);
    let directory = AddressDirectory::from_naming(&clustering, &names);
    let labels = change::identify(chain, &ChangeConfig::naive());

    // One index and one reusable walk scratch serve every theft.
    let graph = TxGraph::build(chain);
    let mut scratch = TaintScratch::for_graph(&graph);
    let thefts = &eco.script_report.thefts;
    for (name, loot) in theft_loots(chain, thefts) {
        let theft = thefts.iter().find(|t| t.name == name).expect("a scripted theft");
        let trace = track_theft_indexed(&graph, &loot, &labels, &directory, 5_000, &mut scratch);
        println!(
            "{:<18} stole {:>14}  moved {:<8} reached exchanges: {}",
            theft.name,
            theft.stolen.to_string(),
            trace.pattern,
            if trace.reached_exchange() {
                format!("yes, {} services ({})", trace.exchanges_reached, trace.to_exchanges)
            } else {
                format!("no ({} still dormant)", trace.dormant)
            }
        );
    }
}
