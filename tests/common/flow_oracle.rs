//! The flow walks written directly against the resolver: the peel
//! traversal, the taint walk and the theft trace, each reading
//! `ResolvedChain::txs` hop by hop. They are the test oracle for the
//! graph-indexed walks in `fistful_flow`, which must match them record for
//! record. The Figure 2 balance series is here too, kept by name in a
//! string-keyed map, as the oracle for `fistful_flow::balance_series_at`'s
//! slot-indexed pass. Included by `tests/graph.rs`, `tests/properties.rs`
//! and the `fistful-flow` unit tests, so it names the member crates
//! directly.

use fistful_chain::amount::Amount;
use fistful_chain::resolve::{AddressId, ResolvedChain, TxId};
use fistful_core::change::ChangeLabels;
use fistful_core::snapshot::ClusterSnapshot;
use fistful_flow::balance::BalancePoint;
use fistful_flow::movement::{classify_counts, pattern_string, MovementKind, TaintedTx};
use fistful_flow::peel::{FollowStrategy, Hop, PeelChain, StopReason};
use fistful_flow::theft::TheftTrace;
use std::collections::{BTreeMap, HashSet, VecDeque};

/// Follows a peeling chain starting at transaction `start`, for at most
/// `max_hops` hops.
pub(super) fn follow_chain(
    chain: &ResolvedChain,
    labels: &ChangeLabels,
    start: TxId,
    max_hops: usize,
    strategy: FollowStrategy,
) -> PeelChain {
    let mut out = PeelChain::default();
    let mut tx_id = start;
    for _ in 0..max_hops {
        let tx = &chain.txs[tx_id as usize];
        if tx.outputs.is_empty() {
            out.stopped = StopReason::Malformed;
            return out;
        }
        // Identify the change output.
        let (change_vout, fallback) = match labels.change_vout(tx_id) {
            Some(v) => (v, false),
            None => match strategy {
                FollowStrategy::Strict => {
                    out.stopped = StopReason::NoChangeIdentified;
                    return out;
                }
                FollowStrategy::LargestFallback => {
                    // `max_by_key` would return the *last* maximum, making
                    // the choice among equal-value outputs depend on output
                    // order. Tie-break explicitly: the lowest vout wins.
                    let (v, _) = tx
                        .outputs
                        .iter()
                        .enumerate()
                        .rev()
                        .max_by_key(|(_, o)| o.value)
                        .expect("non-empty outputs");
                    (v as u32, true)
                }
            },
        };
        let peels = tx
            .outputs
            .iter()
            .enumerate()
            .filter(|(v, _)| *v as u32 != change_vout)
            .map(|(_, o)| (o.address, o.value))
            .collect();
        out.hops.push(Hop { tx: tx_id, change_vout, peels, fallback });

        // Next hop: the transaction in which the change is spent.
        match tx.outputs[change_vout as usize].spent_by {
            Some(next) => tx_id = next,
            None => {
                out.stopped = StopReason::UnspentChange;
                return out;
            }
        }
    }
    out.stopped = StopReason::HopLimit;
    out
}

/// Walks forward from specific loot outputs (`(tx, vout)` pairs) for up to
/// `max_txs` transactions, classifying each and recording departures.
///
/// `labels` (Heuristic 2) picks the change side at peeling hops; when a hop
/// is unlabelled, the largest output is followed (the remainder).
pub(super) fn classify_movements(
    chain: &ResolvedChain,
    loot: &[(TxId, u32)],
    labels: &ChangeLabels,
    max_txs: usize,
) -> Vec<TaintedTx> {
    // Tainted outpoints, as (tx, vout).
    let mut tainted: HashSet<(TxId, u32)> = loot.iter().copied().collect();
    let mut queue: VecDeque<(TxId, u32)> = loot.iter().copied().collect();
    let mut visited_txs: HashSet<TxId> = HashSet::new();
    let mut out = Vec::new();

    while let Some((tx, vout)) = queue.pop_front() {
        if out.len() >= max_txs {
            break;
        }
        // Who spends this tainted output?
        let Some(next) = chain.txs[tx as usize].outputs[vout as usize].spent_by else {
            continue;
        };
        if !visited_txs.insert(next) {
            continue;
        }
        let t = &chain.txs[next as usize];
        let tainted_inputs = t
            .inputs
            .iter()
            .filter(|i| tainted.contains(&(i.prev_tx, i.prev_vout)))
            .count();
        let kind = classify_counts(t.inputs.len(), t.outputs.len(), tainted_inputs);

        // Decide which outputs stay under the thief's control.
        let followed: Vec<u32> = match kind {
            MovementKind::Aggregation | MovementKind::Fold | MovementKind::Split
            | MovementKind::Transfer => (0..t.outputs.len() as u32).collect(),
            MovementKind::Peel => {
                let change = labels.change_vout(next).unwrap_or_else(|| {
                    // Fall back to the largest output (the remainder).
                    t.outputs
                        .iter()
                        .enumerate()
                        .max_by_key(|(_, o)| o.value)
                        .map(|(v, _)| v as u32)
                        .unwrap_or(0)
                });
                vec![change]
            }
        };
        let departures: Vec<(AddressId, Amount)> = (0..t.outputs.len() as u32)
            .filter(|v| !followed.contains(v))
            .map(|v| {
                let o = &t.outputs[v as usize];
                (o.address, o.value)
            })
            .collect();

        for v in followed {
            tainted.insert((next, v));
            queue.push_back((next, v));
        }
        out.push(TaintedTx {
            tx: next,
            kind,
            tainted_inputs,
            total_inputs: t.inputs.len(),
            departures,
        });
    }
    // Chain order for a readable narrative.
    out.sort_by_key(|t| t.tx);
    out
}

/// Tracks a theft from its loot outputs (`(tx, vout)` pairs): the movement
/// walk, the loot that never moved, and the value that reached exchanges.
pub(super) fn track_theft(
    chain: &ResolvedChain,
    loot: &[(TxId, u32)],
    labels: &ChangeLabels,
    snapshot: &ClusterSnapshot,
    max_txs: usize,
) -> TheftTrace {
    let movements = classify_movements(chain, loot, labels, max_txs);
    let mut dormant = Amount::ZERO;
    for &(t, v) in loot {
        let out = &chain.txs[t as usize].outputs[v as usize];
        if out.spent_by.is_none() {
            dormant = dormant.checked_add(out.value).expect("overflow");
        }
    }
    let pattern = pattern_string(&movements);

    // Exchange arrivals: departures landing on exchange-category addresses.
    let mut to_exchanges = Amount::ZERO;
    let mut exchange_services = HashSet::new();
    for m in &movements {
        for &(addr, value) in &m.departures {
            if snapshot.category_of(addr) == Some("exchange") {
                to_exchanges = to_exchanges.checked_add(value).expect("overflow");
                if let Some(s) = snapshot.service_of(addr) {
                    exchange_services.insert(s.to_string());
                }
            }
        }
    }

    TheftTrace {
        movements,
        pattern,
        to_exchanges,
        exchanges_reached: exchange_services.len(),
        dormant,
    }
}

/// The balance series over the first `tx_end` transactions, sampled every
/// `every` blocks: a running total per category name, looked up by name
/// for every input and output.
pub(super) fn balance_series_at(
    chain: &ResolvedChain,
    tx_end: usize,
    snapshot: &ClusterSnapshot,
    every: u64,
) -> Vec<BalancePoint> {
    let sink: Vec<bool> = (0..chain.address_count() as AddressId)
        .map(|a| chain.spent_in(a).partition_point(|&t| (t as usize) < tx_end) == 0)
        .collect();
    let mut per_category: BTreeMap<String, u64> = BTreeMap::new();
    let mut supply: u64 = 0;
    let mut sink_held: u64 = 0;
    let mut out = Vec::new();
    let mut last_height: Option<u64> = None;

    let mut push_sample = |height: u64,
                           time: u64,
                           per_category: &BTreeMap<String, u64>,
                           supply: u64,
                           sink_held: u64| {
        out.push(BalancePoint {
            height,
            time,
            balances: per_category
                .iter()
                .map(|(k, &v)| (k.clone(), Amount::from_sat(v)))
                .collect(),
            supply: Amount::from_sat(supply),
            sink_held: Amount::from_sat(sink_held),
        });
    };

    for tx in &chain.txs[..tx_end] {
        if let Some(prev) = last_height {
            if tx.height / every != prev / every {
                push_sample(prev, tx.time, &per_category, supply, sink_held);
            }
        }
        last_height = Some(tx.height);

        for input in &tx.inputs {
            let v = input.value.to_sat();
            supply -= v;
            if let Some(cat) = snapshot.category_of(input.address) {
                *per_category.get_mut(cat).expect("category seen before") -= v;
            }
        }
        for o in &tx.outputs {
            let v = o.value.to_sat();
            supply += v;
            if sink[o.address as usize] {
                sink_held += v;
            } else if let Some(cat) = snapshot.category_of(o.address) {
                *per_category.entry(cat.to_string()).or_insert(0) += v;
            }
        }
    }
    if let Some(h) = last_height {
        let t = chain.txs[..tx_end].last().map(|t| t.time).unwrap_or(0);
        push_sample(h, t, &per_category, supply, sink_held);
    }
    out
}
