//! Heuristic 2: one-time change address identification.
//!
//! The paper's definition (§4.1): an address is a *one-time change address*
//! for a transaction if
//!
//! 1. the address has not appeared in any previous transaction;
//! 2. the transaction is not a coin generation;
//! 3. there is no self-change address (no output address also appears among
//!    the inputs);
//! 4. all the other output addresses have appeared in previous transactions.
//!
//! and the §4.2 refinements, each individually switchable so the
//! experiments can walk the paper's false-positive ladder:
//!
//! * **Satoshi-Dice exception** — receives that come *solely from* tagged
//!   gambling addresses do not invalidate one-timeness (dice sites pay
//!   winnings back to the betting address);
//! * **wait-to-label** — a provisional label is discarded if the address
//!   receives again within a waiting window (one day / one week);
//! * **change-reuse exclusion** — if any output address of the transaction
//!   has already received exactly one input, nothing is tagged;
//! * **prior-self-change exclusion** — if any output address was previously
//!   used as a self-change address, nothing is tagged.
//!
//! "Previous transactions" are a read of the chain, not running state:
//! [`ResolvedChain`] keeps each address's history (first appearance,
//! receives, first self-change), and [`decide`] consults only the entries
//! before the transaction it labels. Both clustering engines call it —
//! [`identify`] over the whole chain, the sharded ingest pipeline over
//! contiguous chunks of each epoch on parallel threads — so they share
//! every line of the decision. `testutil::h2_oracle` is the independent
//! check: this definition transcribed as rescans of earlier transactions.

use fistful_chain::resolve::{AddressId, ResolvedChain, ResolvedTx, TxId};
use std::collections::HashSet;

/// Blocks per day at the 10-minute target.
pub const BLOCKS_PER_DAY: u64 = 144;
/// Blocks per week.
pub const BLOCKS_PER_WEEK: u64 = 1008;

/// Configuration of Heuristic 2. `Default` is the *naive* heuristic
/// (conditions 1–4 only); [`ChangeConfig::refined`] enables everything the
/// paper settled on.
#[derive(Debug, Clone, Default)]
pub struct ChangeConfig {
    /// Addresses known (via tags) to belong to dice-style gambling services.
    pub dice_addresses: HashSet<AddressId>,
    /// Enable the Satoshi-Dice exception.
    pub dice_exception: bool,
    /// Discard labels whose address receives again within this many blocks
    /// (see [`receives_again_within`] for the exact boundary semantics:
    /// inclusive, so `Some(0)` is *not* a no-op — it still discards labels
    /// whose address receives again later in the same block).
    pub wait_blocks: Option<u64>,
    /// Skip transactions where an output address already received exactly
    /// one input ("same change address used twice" mitigation).
    pub skip_reused_change: bool,
    /// Skip transactions where an output address was previously used as a
    /// self-change address.
    pub skip_prior_self_change: bool,
    /// Minimum number of outputs for a transaction to be considered.
    /// The paper's definition has no output-count requirement (condition 4
    /// is vacuous for single-output sweeps), so the default is 1; set to 2
    /// to ablate the effect of labelling sweeps.
    pub min_outputs: usize,
}

impl ChangeConfig {
    /// The naive heuristic: conditions 1–4 only.
    pub fn naive() -> ChangeConfig {
        ChangeConfig { min_outputs: 1, ..Default::default() }
    }

    /// The fully refined heuristic the paper uses for its analysis
    /// (§4.2): dice exception, one-week wait, reuse and self-change
    /// exclusions.
    pub fn refined(dice_addresses: HashSet<AddressId>) -> ChangeConfig {
        ChangeConfig {
            dice_addresses,
            dice_exception: true,
            wait_blocks: Some(BLOCKS_PER_WEEK),
            skip_reused_change: true,
            skip_prior_self_change: true,
            min_outputs: 1,
        }
    }
}

/// Why a transaction received no change label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// Coin generations have no change (condition 2).
    Coinbase,
    /// Fewer outputs than `min_outputs`.
    TooFewOutputs,
    /// An output address also appears among the inputs (condition 3).
    SelfChange,
    /// No output is fresh (condition 1 never met).
    NoCandidate,
    /// More than one fresh output (condition 4 violated).
    Ambiguous,
    /// Refinement: an output address had already received exactly one input.
    ReusedChange,
    /// Refinement: an output address was previously a self-change address.
    PriorSelfChange,
    /// Refinement: the candidate received again within the wait window.
    FailedWait,
}

/// Per-transaction change labels plus bookkeeping statistics.
#[derive(Debug, Clone, Default)]
pub struct ChangeLabels {
    /// For each transaction (by [`TxId`]): the labelled change output index.
    pub vout_of: Vec<Option<u32>>,
    /// Count of transactions skipped per reason (indexed by discriminant
    /// order of [`SkipReason`]).
    pub skip_counts: [usize; 8],
    /// Total labels assigned.
    pub labels: usize,
}

impl ChangeLabels {
    /// The labelled change output of transaction `tx`, if any.
    pub fn change_vout(&self, tx: TxId) -> Option<u32> {
        self.vout_of.get(tx as usize).copied().flatten()
    }

    /// Iterates `(tx, vout, address)` over all labels.
    pub fn iter<'a>(
        &'a self,
        chain: &'a ResolvedChain,
    ) -> impl Iterator<Item = (TxId, u32, AddressId)> + 'a {
        self.vout_of.iter().enumerate().filter_map(move |(t, v)| {
            v.map(|vout| {
                let addr = chain.txs[t].outputs[vout as usize].address;
                (t as TxId, vout, addr)
            })
        })
    }

    pub(crate) fn note_skip(&mut self, reason: SkipReason) {
        self.skip_counts[reason as usize] += 1;
    }

    /// Count of transactions skipped for `reason`.
    pub fn skipped(&self, reason: SkipReason) -> usize {
        self.skip_counts[reason as usize]
    }
}

/// True if every input of `tx` is a tagged dice address.
fn all_inputs_dice(chain: &ResolvedChain, tx: TxId, dice: &HashSet<AddressId>) -> bool {
    let t = &chain.txs[tx as usize];
    !t.inputs.is_empty() && t.inputs.iter().all(|i| dice.contains(&i.address))
}

/// True if `addr` receives again after `tx` within `window` blocks
/// (receives coming solely from dice addresses are ignored when the
/// exception is enabled).
///
/// The paper's "receives again within *d*" is pinned down as: there exists a
/// transaction strictly later in chain order whose outputs pay `addr` at a
/// height `h2` with `h2 - base_height <= window` — an **inclusive** window
/// boundary, measured in blocks from the labelling transaction's block.
/// Consequences worth spelling out:
///
/// * a receive at exactly `base_height + window` still discards the label;
///   one block past the window does not;
/// * `window = 0` covers only later receives in the *same block* — it is
///   not equivalent to disabling the wait (`wait_blocks: None`);
/// * `window = u64::MAX` checks all later receives (the false-positive
///   estimator's "used again at any later time").
///
/// The scan early-exits once past the window, which is sound because
/// [`ResolvedChain::received_in`] is height-sorted — an invariant
/// `ResolvedChain::add_tx` now enforces rather than silently assumes.
pub fn receives_again_within(
    chain: &ResolvedChain,
    addr: AddressId,
    tx: TxId,
    window: u64,
    config: &ChangeConfig,
) -> bool {
    let base_height = chain.txs[tx as usize].height;
    for &t2 in chain.received_in(addr) {
        if t2 <= tx {
            continue;
        }
        let h2 = chain.txs[t2 as usize].height;
        // Later in chain order ⟹ h2 >= base_height (enforced by add_tx).
        if h2 - base_height > window {
            break; // received_in is height-sorted; later entries only recede
        }
        if config.dice_exception && all_inputs_dice(chain, t2, &config.dice_addresses) {
            continue;
        }
        return true;
    }
    false
}

/// True if `tx` spends from `addr`: the self-change test of condition 3.
/// A linear scan of the inputs, so testing every output costs
/// O(inputs · outputs) comparisons and allocates nothing. That product
/// averages 3.12 per transaction on the benchmark-scale economy and 3.55
/// at `paper_scale()` (largest 192 and 286), well under the cost of
/// hashing the inputs into a set first.
fn spends_from(tx: &ResolvedTx, addr: AddressId) -> bool {
    tx.inputs.iter().any(|i| i.address == addr)
}

/// True if exactly one output paid `addr` before transaction `t`: the
/// change-reuse refinement's test. O(1), because
/// [`ResolvedChain::received_in`] is sorted by transaction.
fn received_once_before(chain: &ResolvedChain, addr: AddressId, t: TxId) -> bool {
    let receives = chain.received_in(addr);
    receives.first().is_some_and(|&first| first < t)
        && receives.get(1).map_or(true, |&second| second >= t)
}

/// Conditions 1 + 4: exactly one output pays an address making its first
/// appearance in this transaction, so every other output's address
/// appeared before. A new address paid twice is two fresh outputs.
fn fresh_candidate(
    chain: &ResolvedChain,
    t_id: TxId,
    tx: &ResolvedTx,
) -> Result<(u32, AddressId), SkipReason> {
    let mut fresh =
        tx.outputs.iter().enumerate().filter(|(_, o)| chain.first_seen(o.address) == t_id);
    match (fresh.next(), fresh.next()) {
        (None, _) => Err(SkipReason::NoCandidate),
        (Some((vout, out)), None) => Ok((vout as u32, out.address)),
        _ => Err(SkipReason::Ambiguous),
    }
}

/// The labelling decision for transaction `t_id` (conditions 1–4 plus the
/// non-temporal refinements), in the precedence the skip counts report:
/// preconditions (coinbase, output count, self-change), then the reuse
/// veto, then the prior-self-change veto, then the fresh-candidate search.
///
/// Pure: every "previous transaction" is read from `chain`'s per-address
/// history strictly before `t_id` ([`ResolvedChain::first_seen`],
/// [`ResolvedChain::received_in`], [`ResolvedChain::first_self_change`]),
/// so transactions decide independently and in any order, and history
/// appended after `t_id` never changes the answer. The temporal
/// wait-to-label refinement is the caller's concern: batch labelling
/// looks ahead with [`receives_again_within`]; the sharded pipeline parks
/// the decision in its pending queue.
pub fn decide(
    chain: &ResolvedChain,
    t_id: TxId,
    tx: &ResolvedTx,
    config: &ChangeConfig,
) -> Result<(u32, AddressId), SkipReason> {
    // Condition 2: not a coin generation.
    if tx.is_coinbase {
        return Err(SkipReason::Coinbase);
    }
    if tx.outputs.len() < config.min_outputs.max(1) {
        return Err(SkipReason::TooFewOutputs);
    }
    // Condition 3: no self-change address.
    if tx.outputs.iter().any(|o| spends_from(tx, o.address)) {
        return Err(SkipReason::SelfChange);
    }

    // Refinements that veto the whole transaction.
    if config.skip_reused_change
        && tx.outputs.iter().any(|o| received_once_before(chain, o.address, t_id))
    {
        return Err(SkipReason::ReusedChange);
    }
    if config.skip_prior_self_change
        && tx.outputs.iter().any(|o| chain.first_self_change(o.address) < t_id)
    {
        return Err(SkipReason::PriorSelfChange);
    }

    fresh_candidate(chain, t_id, tx)
}

/// Runs Heuristic 2 over the chain with the given configuration.
pub fn identify(chain: &ResolvedChain, config: &ChangeConfig) -> ChangeLabels {
    let mut labels = ChangeLabels {
        vout_of: vec![None; chain.tx_count()],
        ..Default::default()
    };

    for (t, tx) in chain.txs.iter().enumerate() {
        let t_id = t as TxId;
        match decide(chain, t_id, tx, config) {
            Ok((vout, addr)) => {
                // Wait-to-label: discard if the address receives again within
                // the window (dice-sourced receives excepted).
                let failed_wait = match config.wait_blocks {
                    Some(w) => receives_again_within(chain, addr, t_id, w, config),
                    None => false,
                };
                if failed_wait {
                    labels.note_skip(SkipReason::FailedWait);
                } else {
                    labels.vout_of[t] = Some(vout);
                    labels.labels += 1;
                }
            }
            Err(reason) => labels.note_skip(reason),
        }
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TestChain;

    /// cb(1) → tx[(2, fresh), (1-seen? no...)] — canonical change shape:
    /// input from addr 1, pays previously-seen addr 2, change to fresh 3.
    fn canonical() -> (TestChain, usize) {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let cb2 = t.coinbase(2, 50);
        let _ = cb2;
        // addr 2 has appeared (coinbase); addr 3 is fresh.
        let spend = t.tx(&[(cb1, 0)], &[(2, 30), (3, 20)]);
        (t, spend)
    }

    #[test]
    fn labels_canonical_change() {
        let (t, spend) = canonical();
        let labels = identify(&t.chain, &ChangeConfig::naive());
        assert_eq!(labels.change_vout(spend as u32), Some(1));
        assert_eq!(labels.labels, 1);
    }

    #[test]
    fn coinbase_never_labelled() {
        let (t, _) = canonical();
        let labels = identify(&t.chain, &ChangeConfig::naive());
        assert_eq!(labels.change_vout(0), None);
        assert!(labels.skipped(SkipReason::Coinbase) >= 2);
    }

    #[test]
    fn ambiguous_two_fresh_outputs() {
        let mut t = TestChain::new();
        let cb = t.coinbase(1, 50);
        // Both 2 and 3 are fresh → ambiguous.
        let spend = t.tx(&[(cb, 0)], &[(2, 30), (3, 20)]);
        let labels = identify(&t.chain, &ChangeConfig::naive());
        assert_eq!(labels.change_vout(spend as u32), None);
        assert_eq!(labels.skipped(SkipReason::Ambiguous), 1);
    }

    #[test]
    fn no_candidate_when_all_outputs_seen() {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let _cb2 = t.coinbase(2, 50);
        let _cb3 = t.coinbase(3, 50);
        let spend = t.tx(&[(cb1, 0)], &[(2, 30), (3, 20)]);
        let labels = identify(&t.chain, &ChangeConfig::naive());
        assert_eq!(labels.change_vout(spend as u32), None);
        assert_eq!(labels.skipped(SkipReason::NoCandidate), 1);
    }

    #[test]
    fn self_change_blocks_labelling() {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let _cb2 = t.coinbase(2, 50);
        // Change back to input address 1; fresh addr 3 must NOT be labelled.
        let spend = t.tx(&[(cb1, 0)], &[(3, 30), (1, 20)]);
        let labels = identify(&t.chain, &ChangeConfig::naive());
        assert_eq!(labels.change_vout(spend as u32), None);
        assert_eq!(labels.skipped(SkipReason::SelfChange), 1);
    }

    /// Labels `t`'s chain with `identify` and with `ShardedIngest` at one
    /// and two shards, asserts the three agree, and returns the batch labels.
    fn labels_on_every_engine(t: &TestChain, cfg: &ChangeConfig) -> ChangeLabels {
        use crate::incremental::sharded::{IngestConfig, ShardedIngest};
        let batch = identify(&t.chain, cfg);
        for shards in [1, 2] {
            let mut ingest = ShardedIngest::new(IngestConfig::with_h2(shards, 1, cfg.clone()));
            for block in t.chain.blocks() {
                ingest.ingest_block(&block);
            }
            ingest.flush(&t.chain);
            let sharded = ingest.change_labels().expect("H2 is on");
            assert_eq!(sharded.vout_of, batch.vout_of, "{shards} shards");
            assert_eq!(sharded.skip_counts, batch.skip_counts, "{shards} shards");
        }
        batch
    }

    /// Naive H2 plus the prior-self-change exclusion.
    fn prior_self_change_config() -> ChangeConfig {
        ChangeConfig { skip_prior_self_change: true, ..ChangeConfig::naive() }
    }

    #[test]
    fn self_change_to_the_last_of_several_inputs() {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let cb2 = t.coinbase(2, 50);
        let cb3 = t.coinbase(3, 50);
        let cb4 = t.coinbase(4, 50);
        // Inputs from 1, 2 and 3; change back to 3, the last of them.
        let spend = t.tx(&[(cb1, 0), (cb2, 0), (cb3, 0)], &[(5, 100), (3, 49)]);
        // Later, 4 pays fresh 6 with "change" to 3, a prior self-change.
        let later = t.tx(&[(cb4, 0)], &[(6, 30), (3, 20)]);

        let naive = identify(&t.chain, &ChangeConfig::naive());
        assert_eq!(naive.change_vout(later as TxId), Some(0));
        let labels = labels_on_every_engine(&t, &prior_self_change_config());
        assert_eq!(labels.change_vout(spend as TxId), None);
        assert_eq!(labels.change_vout(later as TxId), None);
        // Four coinbases, one SelfChange, one PriorSelfChange.
        assert_eq!(labels.skip_counts, [4, 0, 1, 0, 0, 0, 1, 0]);
    }

    #[test]
    fn self_change_to_a_repeated_input_address() {
        let mut t = TestChain::new();
        let cb1a = t.coinbase(1, 50);
        let cb1b = t.coinbase(1, 50);
        let cb4 = t.coinbase(4, 50);
        // Both inputs spend from 1, and the change goes back to 1.
        let spend = t.tx(&[(cb1a, 0), (cb1b, 0)], &[(5, 60), (1, 39)]);
        let later = t.tx(&[(cb4, 0)], &[(6, 30), (1, 20)]);

        let naive = identify(&t.chain, &ChangeConfig::naive());
        assert_eq!(naive.change_vout(later as TxId), Some(0));
        let labels = labels_on_every_engine(&t, &prior_self_change_config());
        assert_eq!(labels.change_vout(spend as TxId), None);
        assert_eq!(labels.change_vout(later as TxId), None);
        assert_eq!(labels.skip_counts, [3, 0, 1, 0, 0, 0, 1, 0]);
    }

    #[test]
    fn single_output_sweep_labelled_by_default() {
        let mut t = TestChain::new();
        let cb = t.coinbase(1, 50);
        let sweep = t.tx(&[(cb, 0)], &[(2, 50)]);
        // The paper's conditions are vacuously met by a sweep to a fresh
        // address, so the default config labels it.
        let labels = identify(&t.chain, &ChangeConfig::naive());
        assert_eq!(labels.change_vout(sweep as u32), Some(0));

        // min_outputs = 2 ablates sweep labelling.
        let mut cfg = ChangeConfig::naive();
        cfg.min_outputs = 2;
        let labels = identify(&t.chain, &cfg);
        assert_eq!(labels.change_vout(sweep as u32), None);
        assert_eq!(labels.skipped(SkipReason::TooFewOutputs), 1);
    }

    #[test]
    fn duplicate_fresh_output_addresses_are_ambiguous_not_candidates() {
        let mut t = TestChain::new();
        let cb = t.coinbase(1, 50);
        let _cb2 = t.coinbase(2, 50);
        // Outputs: [3, 3] — address 3 fresh but duplicated; [2] seen.
        let spend = t.tx(&[(cb, 0)], &[(3, 20), (3, 10), (2, 20)]);
        // Outputs: [4] fresh once, [5, 5] fresh twice: 5 has not appeared
        // before, so condition 4 fails for 4 too.
        let cb3 = t.coinbase(6, 50);
        let beside = t.tx(&[(cb3, 0)], &[(4, 20), (5, 10), (5, 19)]);
        let labels = labels_on_every_engine(&t, &ChangeConfig::naive());
        assert_eq!(labels.change_vout(spend as u32), None);
        assert_eq!(labels.change_vout(beside as u32), None);
        assert_eq!(labels.skipped(SkipReason::Ambiguous), 2);
    }

    #[test]
    fn reused_change_refinement_skips_second_use() {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let cb2 = t.coinbase(2, 50);
        // Recipient 5 receives twice up front so that paying it does not
        // itself trigger the (deliberately ultra-conservative) reuse veto.
        let _cb5a = t.coinbase(5, 50);
        let _cb5b = t.coinbase(5, 50);
        // tx1: change to fresh 4 (labelled). Pays seen addr 5.
        let tx1 = t.tx(&[(cb1, 0)], &[(5, 30), (4, 20)]);
        // tx2 (different user, addr 2): SAME address 4 used as change again,
        // recipient 6 is fresh. Naive H2 mislabels 6; refined skips.
        let tx2 = t.tx(&[(cb2, 0)], &[(6, 30), (4, 20)]);

        let naive = identify(&t.chain, &ChangeConfig::naive());
        assert_eq!(naive.change_vout(tx1 as u32), Some(1));
        // Naive: output 4 has appeared (tx1), 6 is fresh → labels 6. Wrong!
        assert_eq!(naive.change_vout(tx2 as u32), Some(0));

        let mut cfg = ChangeConfig::naive();
        cfg.skip_reused_change = true;
        let refined = identify(&t.chain, &cfg);
        assert_eq!(refined.change_vout(tx1 as u32), Some(1));
        assert_eq!(refined.change_vout(tx2 as u32), None);
        assert_eq!(refined.skipped(SkipReason::ReusedChange), 1);
    }

    #[test]
    fn prior_self_change_refinement() {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let cb2 = t.coinbase(2, 50);
        // tx1: self-change on address 1 (pays seen addr 2).
        let tx1 = t.tx(&[(cb1, 0)], &[(2, 30), (1, 20)]);
        // tx2: addr 2 spends, paying fresh 6 and "change" to addr 1 (which
        // was previously a self-change address).
        let tx2 = t.tx(&[(cb2, 0)], &[(6, 30), (1, 20)]);

        let naive = identify(&t.chain, &ChangeConfig::naive());
        assert_eq!(naive.change_vout(tx1 as u32), None); // self-change
        assert_eq!(naive.change_vout(tx2 as u32), Some(0)); // mislabels 6

        let mut cfg = ChangeConfig::naive();
        cfg.skip_prior_self_change = true;
        let refined = identify(&t.chain, &cfg);
        assert_eq!(refined.change_vout(tx2 as u32), None);
        assert_eq!(refined.skipped(SkipReason::PriorSelfChange), 1);
    }

    #[test]
    fn wait_to_label_discards_soon_reused_address() {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let cb2 = t.coinbase(2, 50);
        let _cb5 = t.coinbase(5, 50);
        // tx at height 3: change to fresh 4.
        let tx1 = t.tx(&[(cb1, 0)], &[(5, 30), (4, 20)]);
        // Address 4 receives again at height 4 (within a day).
        let _pay = t.tx(&[(cb2, 0)], &[(4, 30), (5, 20)]);

        let no_wait = identify(&t.chain, &ChangeConfig::naive());
        assert_eq!(no_wait.change_vout(tx1 as u32), Some(1));

        let mut cfg = ChangeConfig::naive();
        cfg.wait_blocks = Some(BLOCKS_PER_DAY);
        let waited = identify(&t.chain, &cfg);
        assert_eq!(waited.change_vout(tx1 as u32), None);
        assert_eq!(waited.skipped(SkipReason::FailedWait), 1);
    }

    #[test]
    fn wait_window_is_bounded() {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let cb2 = t.coinbase(2, 50);
        let _cb5 = t.coinbase(5, 50);
        let tx1 = t.tx(&[(cb1, 0)], &[(5, 30), (4, 20)]);
        // Reuse far beyond the window (height 5000).
        let _pay = t.tx_at(&[(cb2, 0)], &[(4, 30), (5, 20)], Some(5000));

        let mut cfg = ChangeConfig::naive();
        cfg.wait_blocks = Some(BLOCKS_PER_DAY);
        let labels = identify(&t.chain, &cfg);
        // The reuse is outside the window, so the label stands.
        assert_eq!(labels.change_vout(tx1 as u32), Some(1));
    }

    /// Canonical change at height 3 (change to fresh addr 4), with the
    /// reuse receive placed at `reuse_height`.
    fn chain_with_reuse_at(reuse_height: u64) -> (TestChain, usize) {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50); // height 0
        let cb2 = t.coinbase(2, 50); // height 1
        let _cb5 = t.coinbase(5, 50); // height 2
        let tx1 = t.tx(&[(cb1, 0)], &[(5, 30), (4, 20)]); // height 3
        let _pay = t.tx_at(&[(cb2, 0)], &[(4, 30), (5, 19)], Some(reuse_height));
        (t, tx1)
    }

    fn labelled_with_window(t: &TestChain, tx1: usize, window: u64) -> bool {
        let mut cfg = ChangeConfig::naive();
        cfg.wait_blocks = Some(window);
        identify(&t.chain, &cfg).change_vout(tx1 as u32).is_some()
    }

    #[test]
    fn window_zero_discards_same_block_reuse_only() {
        // Reuse later in the same block (height 3): window 0 discards.
        let (t, tx1) = chain_with_reuse_at(3);
        assert!(!labelled_with_window(&t, tx1, 0));
        // `Some(0)` is not `None`: without the wait the label stands.
        let no_wait = identify(&t.chain, &ChangeConfig::naive());
        assert_eq!(no_wait.change_vout(tx1 as u32), Some(1));

        // Reuse one block later (height 4): outside a zero window.
        let (t, tx1) = chain_with_reuse_at(4);
        assert!(labelled_with_window(&t, tx1, 0));
        assert!(!labelled_with_window(&t, tx1, 1));
    }

    #[test]
    fn window_boundary_is_inclusive() {
        // Reuse at exactly base_height + window (3 + 5 = 8): discarded.
        let (t, tx1) = chain_with_reuse_at(8);
        assert!(!labelled_with_window(&t, tx1, 5));
        let mut cfg = ChangeConfig::naive();
        cfg.wait_blocks = Some(5);
        assert_eq!(identify(&t.chain, &cfg).skipped(SkipReason::FailedWait), 1);

        // Reuse one block past the window (3 + 5 + 1 = 9): label stands.
        let (t, tx1) = chain_with_reuse_at(9);
        assert!(!labelled_with_window(&t, tx1, 6));
        assert!(labelled_with_window(&t, tx1, 5));
    }

    #[test]
    fn unbounded_window_checks_all_later_receives() {
        let (t, tx1) = chain_with_reuse_at(5000);
        assert!(labelled_with_window(&t, tx1, 4996)); // 3 + 4996 < 5000
        assert!(!labelled_with_window(&t, tx1, 4997)); // inclusive boundary
        assert!(!labelled_with_window(&t, tx1, u64::MAX));
    }

    #[test]
    fn dice_exception_spares_dice_paybacks() {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let dice_funding = t.coinbase(9, 50); // address 9 = the dice house
        let _cb5 = t.coinbase(5, 50);
        // tx: change to fresh 4.
        let tx1 = t.tx(&[(cb1, 0)], &[(5, 30), (4, 20)]);
        // User bets from address 4 (spends it)...
        let bet = t.tx(&[(tx1, 1)], &[(9, 10), (6, 10)]);
        let _ = bet;
        // ...and the dice house pays winnings BACK to address 4.
        let _payout = t.tx(&[(dice_funding, 0)], &[(4, 19), (9, 31)]);

        // Without the exception + with waiting: label discarded.
        let mut cfg = ChangeConfig::naive();
        cfg.wait_blocks = Some(BLOCKS_PER_WEEK);
        let strict = identify(&t.chain, &cfg);
        assert_eq!(strict.change_vout(tx1 as u32), None);

        // With the dice exception the payback is ignored.
        let mut cfg = ChangeConfig::naive();
        cfg.wait_blocks = Some(BLOCKS_PER_WEEK);
        cfg.dice_exception = true;
        cfg.dice_addresses.insert(t.id(9));
        let lenient = identify(&t.chain, &cfg);
        assert_eq!(lenient.change_vout(tx1 as u32), Some(1));
    }

    #[test]
    fn refined_config_composition() {
        let cfg = ChangeConfig::refined(HashSet::new());
        assert!(cfg.dice_exception);
        assert!(cfg.skip_reused_change);
        assert!(cfg.skip_prior_self_change);
        assert_eq!(cfg.wait_blocks, Some(BLOCKS_PER_WEEK));
        assert_eq!(cfg.min_outputs, 1);
    }
}
