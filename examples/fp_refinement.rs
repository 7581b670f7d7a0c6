//! The §4.2 refinement ladder: how each safety refinement drives the
//! change-heuristic false-positive estimate down — and what the *true*
//! error rates are, which the paper could not measure.
//!
//! Run with: `cargo run --release --example fp_refinement`

use fistful::core::change::{self, ChangeConfig, BLOCKS_PER_DAY, BLOCKS_PER_WEEK};
use fistful::core::cluster::Clusterer;
use fistful::core::score::score_change_labels;
use fistful::core::naming::name_clusters;
use fistful::core::tagdb::{Tag, TagDb, TagSource};
use fistful::core::fp;
use fistful::sim::{generate_tags, Economy, RawTagSource, SimConfig};
use std::collections::HashSet;

fn main() {
    println!("simulating the economy ...");
    let eco = Economy::run(SimConfig::default());
    let chain = eco.chain.resolved();
    let gt = eco.gt.to_id_space(chain);

    // Identify gambling addresses the way the paper did: H1 clusters named
    // by tags, take every address in gambling-category clusters.
    let mut db = TagDb::new();
    for raw in generate_tags(&eco) {
        if let Some(address) = chain.address_id(&raw.address) {
            let source = match raw.source {
                RawTagSource::OwnTransaction => TagSource::OwnTransaction,
                RawTagSource::SelfSubmitted => TagSource::SelfSubmitted,
                RawTagSource::Forum => TagSource::Forum,
            };
            db.add(Tag { address, service: raw.service, category: raw.category, source });
        }
    }
    let h1 = Clusterer::h1_only().run(chain);
    let names = name_clusters(&h1, &db);
    let mut dice = HashSet::new();
    for (addr, &c) in h1.assignment.iter().enumerate() {
        if names.categories.get(&c).map(String::as_str) == Some("gambling") {
            dice.insert(addr as u32);
        }
    }
    println!("{} addresses sit in gambling-named clusters", dice.len());

    let mut dice_cfg = ChangeConfig::naive();
    dice_cfg.dice_exception = true;
    dice_cfg.dice_addresses = dice;

    println!("\n{:<28} {:>10} {:>10} {:>12}", "configuration", "labels", "est. FP%", "true prec.");
    let show = |name: &str, cfg: &ChangeConfig, estimator: &ChangeConfig| {
        let labels = change::identify(chain, cfg);
        let est = fp::estimate(chain, &labels, estimator);
        let truth = score_change_labels(chain, &labels, &gt.change_vout);
        println!(
            "{:<28} {:>10} {:>9.2}% {:>11.4}",
            name,
            labels.labels,
            est.rate() * 100.0,
            truth.precision()
        );
    };

    let naive = ChangeConfig::naive();
    show("naive (conditions 1-4)", &naive, &naive);
    show("+ dice exception", &naive, &dice_cfg);
    let mut day = dice_cfg.clone();
    day.wait_blocks = Some(BLOCKS_PER_DAY);
    show("+ wait one day", &day, &dice_cfg);
    let mut week = dice_cfg.clone();
    week.wait_blocks = Some(BLOCKS_PER_WEEK);
    show("+ wait one week", &week, &dice_cfg);
    let refined = ChangeConfig::refined(dice_cfg.dice_addresses.clone());
    show("fully refined (paper §4.2)", &refined, &dice_cfg);

    println!("\n(the paper's ladder: 13% -> 1% -> 0.28% -> 0.17%)");
}
