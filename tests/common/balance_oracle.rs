//! The Figure 2 balance series written directly against the resolver: a
//! running total per category name, looked up by name for every input and
//! output, rebuilt from genesis at every call. It is the test oracle for
//! `fistful_flow::balance::BalanceSeries`, whose points must equal it at
//! every cut and snapshot. Included by `tests/graph.rs`,
//! `tests/properties.rs`, `tests/live.rs` and the `fistful-flow` unit
//! tests, so it names the member crates directly.

use fistful_chain::amount::Amount;
use fistful_chain::resolve::{AddressId, ResolvedChain};
use fistful_core::snapshot::ClusterSnapshot;
use fistful_flow::balance::BalancePoint;
use std::collections::BTreeMap;

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
