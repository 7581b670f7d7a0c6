//! End-to-end integration: economy → clustering → tagging → naming →
//! ground-truth scoring. This is the paper's whole §3–§4 pipeline.

use fistful::core::change::{ChangeConfig, BLOCKS_PER_DAY, BLOCKS_PER_WEEK};
use fistful::core::cluster::Clusterer;
use fistful::core::score::{score_change_labels, score_clustering};
use fistful::core::naming::name_clusters;
use fistful::core::tagdb::TagSource;
use fistful::core::{change, fp};
use fistful::sim::{Economy, SimConfig};
use fistful_bench::{build_tagdb, dice_addresses};
use std::collections::HashSet;
use std::sync::OnceLock;

/// The `SimConfig::default()` economy, built once and shared by the tests
/// that read it.
fn default_economy() -> &'static Economy {
    static ECO: OnceLock<Economy> = OnceLock::new();
    ECO.get_or_init(|| Economy::run(SimConfig::default()))
}

/// The benchmark's full-scale economy (`benchmark/`, default seed), built
/// once and shared by the tests that read it.
fn benchmark_economy() -> &'static Economy {
    static ECO: OnceLock<Economy> = OnceLock::new();
    ECO.get_or_init(|| {
        Economy::run(SimConfig {
            blocks: 480,
            users: 150,
            public_tags: 750,
            ..SimConfig::default()
        })
    })
}

/// Dice addresses via H1 clusters named as gambling — the paper's route.
fn h1_dice(eco: &Economy) -> HashSet<u32> {
    let h1 = Clusterer::h1_only().run(eco.chain.resolved());
    dice_addresses(&h1, &name_clusters(&h1, &build_tagdb(eco)))
}

#[test]
fn h1_clusters_are_pure_and_tags_amplify() {
    let eco = default_economy();
    let chain = eco.chain.resolved();
    let gt = eco.gt.to_id_space(chain);

    let clustering = Clusterer::h1_only().run(chain);
    let score = score_clustering(&clustering, &gt.owner_of);
    // H1 is an inherent protocol property: zero false merges.
    assert_eq!(score.impure_clusters, 0, "H1 must never merge two owners");
    assert_eq!(score.purity(), 1.0);

    // Tag amplification: named clusters cover far more addresses than the
    // hand-tagged set (the paper: 1,070 addresses → 1.8 M, ≈1,600×).
    let db = build_tagdb(eco);
    let own_tagged: HashSet<u32> = db
        .tags_from(TagSource::OwnTransaction)
        .map(|t| t.address)
        .collect();
    let names = name_clusters(&clustering, &db);
    assert!(own_tagged.len() > 50);
    assert!(
        names.named_addresses as usize > own_tagged.len() * 3,
        "clustering amplifies {} tagged addresses to {}",
        own_tagged.len(),
        names.named_addresses
    );
}

#[test]
fn fp_ladder_descends_as_in_the_paper() {
    let eco = Economy::run(SimConfig::tiny());
    let chain = eco.chain.resolved();
    let dice = h1_dice(&eco);

    // Label naively, then walk the paper's estimator ladder.
    let naive_labels = change::identify(chain, &ChangeConfig::naive());
    assert!(naive_labels.labels > 100, "labels: {}", naive_labels.labels);

    let naive_est = fp::estimate(chain, &naive_labels, &ChangeConfig::naive());
    let mut dice_cfg = ChangeConfig::naive();
    dice_cfg.dice_exception = true;
    dice_cfg.dice_addresses = dice.clone();
    let dice_est = fp::estimate(chain, &naive_labels, &dice_cfg);

    // Waiting configs re-label (wait-to-label), then estimate with the
    // dice exception, mirroring §4.2.
    let mut day_cfg = dice_cfg.clone();
    day_cfg.wait_blocks = Some(BLOCKS_PER_DAY);
    let day_labels = change::identify(chain, &day_cfg);
    let day_est = fp::estimate(chain, &day_labels, &dice_cfg);

    let mut week_cfg = dice_cfg.clone();
    week_cfg.wait_blocks = Some(BLOCKS_PER_WEEK);
    let week_labels = change::identify(chain, &week_cfg);
    let week_est = fp::estimate(chain, &week_labels, &dice_cfg);

    // The ladder must descend: naive > dice-exception ≥ wait-a-day ≥ week.
    assert!(
        naive_est.rate() > dice_est.rate(),
        "dice exception lowers FP: {} -> {}",
        naive_est.rate(),
        dice_est.rate()
    );
    assert!(
        dice_est.rate() >= day_est.rate(),
        "waiting a day lowers FP: {} -> {}",
        dice_est.rate(),
        day_est.rate()
    );
    assert!(
        day_est.rate() >= week_est.rate(),
        "waiting a week lowers FP: {} -> {}",
        day_est.rate(),
        week_est.rate()
    );
    // And the naive rate should be substantial (the paper saw 13%).
    assert!(naive_est.rate() > 0.02, "naive rate {}", naive_est.rate());
}

#[test]
fn refined_h2_has_high_ground_truth_precision() {
    let eco = default_economy();
    let chain = eco.chain.resolved();
    let gt = eco.gt.to_id_space(chain);
    let dice = h1_dice(eco);

    let refined = change::identify(chain, &ChangeConfig::refined(dice));
    let score = score_change_labels(chain, &refined, &gt.change_vout);
    assert!(score.scored_labels > 20, "labels {}", score.scored_labels);
    assert!(
        score.precision() > 0.95,
        "refined H2 precision {} ({} / {})",
        score.precision(),
        score.correct,
        score.scored_labels
    );

    // Naive precision should be visibly lower.
    let naive = change::identify(chain, &ChangeConfig::naive());
    let naive_score = score_change_labels(chain, &naive, &gt.change_vout);
    assert!(
        naive_score.precision() < score.precision(),
        "naive {} vs refined {}",
        naive_score.precision(),
        score.precision()
    );
}

#[test]
fn naive_h2_forms_super_cluster_refined_does_not() {
    // Sloppier services make the failure mode reliable.
    let cfg = SimConfig { service_sloppy_change_rate: 0.10, ..SimConfig::default() };
    let eco = Economy::run(cfg);
    let chain = eco.chain.resolved();
    let db = build_tagdb(&eco);
    let dice = h1_dice(&eco);

    let naive = Clusterer::with_h2(ChangeConfig::naive()).run(chain);
    let naive_names = name_clusters(&naive, &db);

    let refined = Clusterer::with_h2(ChangeConfig::refined(dice)).run(chain);
    let refined_names = name_clusters(&refined, &db);

    let naive_max = naive_names
        .super_clusters
        .first()
        .map(|s| s.services.len())
        .unwrap_or(0);
    let refined_max = refined_names
        .super_clusters
        .first()
        .map(|s| s.services.len())
        .unwrap_or(0);
    assert!(
        naive_max >= 2,
        "naive H2 should weld services together (max merge {naive_max})"
    );
    assert!(
        refined_max < naive_max,
        "refinements shrink the super-cluster: naive {naive_max}, refined {refined_max}"
    );
}

#[test]
fn h1_splits_big_services_tags_remerge_them() {
    let eco = default_economy();
    let chain = eco.chain.resolved();
    let db = build_tagdb(eco);
    let clustering = Clusterer::h1_only().run(chain);
    let names = name_clusters(&clustering, &db);
    // Mt. Gox runs 20 internally disjoint subwallets; H1 must see several
    // clusters for it, which shared tags then collapse (the paper saw 20).
    let gox_clusters = names.clusters_of_service("Mt. Gox");
    assert!(
        gox_clusters.len() >= 2,
        "Mt. Gox spans {} clusters under H1",
        gox_clusters.len()
    );
    assert!(names.collapsed_by_names >= gox_clusters.len() - 1);
}

/// Tip hash, transaction count and address count of `eco`'s chain.
fn chain_pin(eco: &Economy) -> (String, usize, usize) {
    let chain = eco.chain.resolved();
    (eco.chain.tip_hash().to_hex(), chain.tx_count(), chain.address_count())
}

#[test]
fn default_and_benchmark_scale_chains_are_pinned() {
    // The tip hash commits to every header and, through the merkle roots,
    // to every transaction byte, so these pins fail on any change to the
    // simulated chain, not just to its size.
    assert_eq!(
        chain_pin(default_economy()),
        ("b106c93ed63064c462f8f81ca190ef9f329d5509ccad3258505f5125a812cf40".to_string(), 65_005, 61_298)
    );
    // The benchmark's full scale (`benchmark/`, default seed).
    assert_eq!(
        chain_pin(benchmark_economy()),
        ("bb491c708acb2a70a73cc71102b3c24fae320fe56e6fb902829dce7f102c9ad4".to_string(), 59_906, 55_776)
    );
}

/// Label count and per-reason skip counts of refined Heuristic 2 over
/// `eco`'s chain, with the paper's H1-named dice set.
fn refined_h2_pin(eco: &Economy) -> (usize, [usize; 8]) {
    let labels = change::identify(eco.chain.resolved(), &ChangeConfig::refined(h1_dice(eco)));
    (labels.labels, labels.skip_counts)
}

#[test]
fn refined_h2_labels_and_skip_counts_are_pinned() {
    // Exact figures, not bounds: any change to H2's per-transaction
    // decisions (conditions 1–4 or a §4.2 refinement) moves at least one.
    // Skip counts are in `SkipReason` order: Coinbase, TooFewOutputs,
    // SelfChange, NoCandidate, Ambiguous, ReusedChange, PriorSelfChange,
    // FailedWait.
    assert_eq!(
        refined_h2_pin(default_economy()),
        (17_103, [600, 0, 20_876, 629, 12_888, 358, 12_337, 214])
    );
    assert_eq!(
        refined_h2_pin(benchmark_economy()),
        (14_527, [480, 0, 20_207, 490, 12_129, 403, 11_431, 239])
    );
}
