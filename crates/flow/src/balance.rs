//! Per-category balance time series — Figure 2 of the paper.
//!
//! "The balance of each major category, represented as a percentage of
//! total active bitcoins; i.e., the bitcoins that are not held in sink
//! addresses." A *sink* address is one that has never spent (over the
//! whole observation window).

use fistful_chain::amount::Amount;
use fistful_chain::resolve::{AddressId, ResolvedChain};
use fistful_core::snapshot::ClusterSnapshot;
use std::collections::BTreeMap;

/// One sampled point of the balance series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BalancePoint {
    /// Block height of the sample.
    pub height: u64,
    /// Unix time of the sample.
    pub time: u64,
    /// Balance per category (absolute).
    pub balances: BTreeMap<String, Amount>,
    /// Total supply at the sample.
    pub supply: Amount,
    /// Supply held by sink addresses at the sample.
    pub sink_held: Amount,
}

impl BalancePoint {
    /// Active supply: total minus sink-held.
    pub fn active(&self) -> Amount {
        self.supply.saturating_sub(self.sink_held)
    }

    /// A category's balance as a percentage of active supply.
    pub fn percent_of_active(&self, category: &str) -> f64 {
        let active = self.active().to_sat();
        if active == 0 {
            return 0.0;
        }
        let bal = self
            .balances
            .get(category)
            .copied()
            .unwrap_or(Amount::ZERO)
            .to_sat();
        bal as f64 * 100.0 / active as f64
    }
}

/// The last sampled point at or before `height`, or `None` when `height`
/// precedes the first sample.
///
/// `series` must be height-sorted, which [`balance_series`] guarantees
/// (it samples in chain order). This is the serving-path lookup behind the
/// query service's `BalancePoint` request: one binary search over the
/// precomputed series, no chain access.
pub fn point_at(series: &[BalancePoint], height: u64) -> Option<&BalancePoint> {
    let idx = series.partition_point(|p| p.height <= height);
    idx.checked_sub(1).map(|i| &series[i])
}

/// Computes the balance series, sampling every `every` blocks.
///
/// `snapshot` assigns addresses to categories through their named
/// clusters, as the paper did. Category balances count only *active*
/// coins — coins on addresses that spend at some point in the window —
/// making them directly comparable to the active-supply denominator
/// (sink-held coins are excluded from both).
pub fn balance_series(
    chain: &ResolvedChain,
    snapshot: &ClusterSnapshot,
    every: u64,
) -> Vec<BalancePoint> {
    balance_series_at(chain, chain.tx_count(), snapshot, every)
}

/// [`balance_series`] over only the first `tx_end` transactions of the
/// chain — the mid-ingest rebuild the live hot-swap pipeline runs at each
/// epoch publish.
///
/// Sink flags are scanned over the *prefix* window: an address whose only
/// spends sit at or past `tx_end` has never spent as far as this window
/// knows, exactly as if the chain ended there. With
/// `tx_end == chain.tx_count()` the result is identical to
/// [`balance_series`].
///
/// Cost: one pass over the addresses resolves each address once into a
/// `u32` slot (sink, no category, or the dense index of its category);
/// the pass over the transactions then does one slot read and one add per
/// input and output, into per-category running totals. No string is
/// looked up or cloned per input or output: category names are cloned
/// only when a sample is emitted.
pub fn balance_series_at(
    chain: &ResolvedChain,
    tx_end: usize,
    snapshot: &ClusterSnapshot,
    every: u64,
) -> Vec<BalancePoint> {
    assert!(every > 0, "sampling interval must be positive");
    assert!(tx_end <= chain.tx_count(), "tx_end exceeds the chain");

    // One slot per address. A sink (never spends within the window; the
    // per-address spend lists are chain-ordered, so that is "no first
    // spend before tx_end") gets SINK: its receives count as sink-held and
    // it never spends. Every other address gets its category's index in
    // `slot_of`, or NO_CATEGORY. One array keeps the per-I/O work to a
    // single read of per-address state.
    const SINK: u32 = u32::MAX;
    const NO_CATEGORY: u32 = u32::MAX - 1;
    let mut slot_of: BTreeMap<&str, u32> = BTreeMap::new();
    let slot: Vec<u32> = (0..chain.address_count() as AddressId)
        .map(|a| {
            if chain.spent_in(a).first().map_or(true, |&t| t as usize >= tx_end) {
                return SINK;
            }
            let next = slot_of.len() as u32;
            snapshot.category_of(a).map_or(NO_CATEGORY, |c| *slot_of.entry(c).or_insert(next))
        })
        .collect();

    // Per category: the running total in satoshis, `None` until its first
    // receive — a category joins the samples then and stays, even when
    // its total falls back to zero.
    let mut totals: Vec<Option<u64>> = vec![None; slot_of.len()];
    let mut supply: u64 = 0;
    let mut sink_held: u64 = 0;

    let sample = |height: u64, time: u64, totals: &[Option<u64>], supply: u64, sink_held: u64| {
        BalancePoint {
            height,
            time,
            balances: slot_of
                .iter()
                .filter_map(|(&name, &s)| {
                    totals[s as usize].map(|v| (name.to_string(), Amount::from_sat(v)))
                })
                .collect(),
            supply: Amount::from_sat(supply),
            sink_held: Amount::from_sat(sink_held),
        }
    };

    let mut out = Vec::new();
    let mut last_height: Option<u64> = None;
    for tx in &chain.txs[..tx_end] {
        // Sample boundary crossings before applying this tx.
        if let Some(prev) = last_height {
            if tx.height / every != prev / every {
                out.push(sample(prev, tx.time, &totals, supply, sink_held));
            }
        }
        last_height = Some(tx.height);

        for input in &tx.inputs {
            let v = input.value.to_sat();
            supply -= v;
            let s = slot[input.address as usize];
            debug_assert_ne!(s, SINK, "sinks never spend");
            if s < NO_CATEGORY {
                *totals[s as usize].as_mut().expect("category received before") -= v;
            }
        }
        for out_ in &tx.outputs {
            let v = out_.value.to_sat();
            supply += v;
            match slot[out_.address as usize] {
                SINK => sink_held += v,
                NO_CATEGORY => {}
                s => *totals[s as usize].get_or_insert(0) += v,
            }
        }
    }
    if let Some(h) = last_height {
        let t = chain.txs[..tx_end].last().map(|t| t.time).unwrap_or(0);
        out.push(sample(h, t, &totals, supply, sink_held));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fistful_core::testutil::{named_snapshot, TestChain};

    #[test]
    fn tracks_category_balances_over_time() {
        let mut t = TestChain::new();
        // addr 1 = "Mt. Gox" (exchange), addr 2 = user (uncategorized).
        let cb = t.coinbase(1, 50);
        let _cb2 = t.coinbase(2, 50);
        // Exchange pays 20 to the user at height 2, keeps 29 change at
        // address 3 (also Mt. Gox's).
        t.tx(&[(cb, 0)], &[(2, 20), (3, 29)]);

        let dir = named_snapshot(
            &t.chain,
            &[(t.id(1), "Mt. Gox", "exchange"), (t.id(3), "Mt. Gox", "exchange")],
        );

        let series = balance_series(&t.chain, &dir, 1);
        assert!(!series.is_empty());
        let last = series.last().unwrap();
        // Address 3 never spends, so its 29 BTC is sink-held and excluded
        // from the category balance (consistent with the active-supply
        // denominator).
        assert_eq!(
            last.balances.get("exchange").copied().unwrap_or(Amount::ZERO),
            Amount::ZERO
        );
        assert!(last.sink_held >= Amount::from_btc(29));
        // Outputs sum to 49 vs 50 input: 1 BTC went to fees → supply 99.
        assert_eq!(last.supply, Amount::from_btc(99));
    }

    #[test]
    fn sink_exclusion() {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let _cb2 = t.coinbase(2, 50); // addr 2 never spends → sink
        t.tx(&[(cb1, 0)], &[(3, 50)]); // addr 3 never spends → sink too

        let dir = named_snapshot(&t.chain, &[]);
        let series = balance_series(&t.chain, &dir, 1);
        let last = series.last().unwrap();
        // addr 1 spent (not a sink); addrs 2, 3 are sinks holding 100.
        assert_eq!(last.sink_held, Amount::from_btc(100));
        assert_eq!(last.active(), Amount::ZERO);
    }

    #[test]
    fn percent_of_active() {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let cb2 = t.coinbase(2, 50);
        // Both spend so neither is a sink; addr 1's funds move to 4 (gox),
        // addr 2's to 5 (user). 4 and 5 then churn once so they are not
        // sinks either.
        let t1 = t.tx(&[(cb1, 0)], &[(4, 50)]);
        let t2 = t.tx(&[(cb2, 0)], &[(5, 50)]);
        let _t3 = t.tx(&[(t1, 0)], &[(4, 25), (5, 25)]);
        let _t4 = t.tx(&[(t2, 0)], &[(5, 50)]);

        let dir = named_snapshot(&t.chain, &[(t.id(4), "Mt. Gox", "exchange")]);
        let series = balance_series(&t.chain, &dir, 1);
        let last = series.last().unwrap();
        // Every address spent at least once, so nothing is a sink: active
        // supply is the full 100 BTC, of which Mt. Gox (addr 4) holds 25.
        assert_eq!(last.active(), Amount::from_btc(100));
        assert!((last.percent_of_active("exchange") - 25.0).abs() < 1e-9);
    }

    #[test]
    fn point_at_finds_the_sample_at_or_before_a_height() {
        let mut t = TestChain::new();
        let cb = t.coinbase(1, 50);
        t.tx(&[(cb, 0)], &[(2, 20), (3, 29)]);
        let dir = named_snapshot(&t.chain, &[]);
        let series = balance_series(&t.chain, &dir, 1);
        assert!(series.len() >= 2);

        let first = series.first().unwrap().height;
        let last = series.last().unwrap().height;
        assert!(point_at(&series, first.wrapping_sub(1)).is_none() || first == 0);
        assert_eq!(point_at(&series, first).unwrap().height, first);
        // Past the end clamps to the last sample.
        assert_eq!(point_at(&series, last + 1_000).unwrap().height, last);
        // Every sampled height finds exactly itself.
        for p in &series {
            assert_eq!(point_at(&series, p.height).unwrap().height, p.height);
        }
        assert!(point_at(&[], 5).is_none());
    }

    #[test]
    fn balance_series_at_prefix_rescans_sinks() {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let _cb2 = t.coinbase(2, 50);
        t.tx(&[(cb1, 0)], &[(3, 50)]); // addr 1 spends only in tx 2
        let dir = named_snapshot(&t.chain, &[]);

        // Full prefix is byte-for-byte the whole-chain series.
        let full = balance_series(&t.chain, &dir, 1);
        assert_eq!(balance_series_at(&t.chain, t.chain.tx_count(), &dir, 1), full);

        // At the 2-tx prefix, address 1 has not spent yet: within that
        // window it is a sink holding its coinbase, unlike the whole-chain
        // view where its later spend disqualifies it.
        let prefix = balance_series_at(&t.chain, 2, &dir, 1);
        let last = prefix.last().unwrap();
        assert_eq!(last.sink_held, Amount::from_btc(100));
        assert_eq!(last.active(), Amount::ZERO);
        assert_eq!(last.supply, Amount::from_btc(100));

        // The empty prefix yields no samples at all.
        assert!(balance_series_at(&t.chain, 0, &dir, 1).is_empty());
    }

    #[test]
    fn category_joins_at_first_receive_and_stays_at_zero() {
        let mut t = TestChain::new();
        // addr 1 = exchange, addr 3 = gambling (a sink: never spends),
        // addr 5 = vendor (first receives at height 2, spends at 3).
        let cb = t.coinbase(1, 50);
        let t1 = t.tx(&[(cb, 0)], &[(2, 30), (3, 20)]);
        let t2 = t.tx(&[(t1, 0)], &[(4, 10), (5, 20)]);
        t.tx(&[(t2, 1)], &[(4, 19)]);

        let dir = named_snapshot(
            &t.chain,
            &[
                (t.id(1), "Mt. Gox", "exchange"),
                (t.id(3), "SatoshiDice", "gambling"),
                (t.id(5), "Silk Road", "vendor"),
            ],
        );

        let series = balance_series(&t.chain, &dir, 1);
        assert_eq!(series.len(), 4);
        let get = |p: &BalancePoint, c: &str| p.balances.get(c).copied();
        assert_eq!(get(&series[0], "exchange"), Some(Amount::from_btc(50)));
        // The exchange spent everything: its key stays, at zero.
        for p in &series[1..] {
            assert_eq!(get(p, "exchange"), Some(Amount::ZERO));
        }
        // The vendor key appears at its first receive and stays at zero.
        let vendor: Vec<_> = series.iter().map(|p| get(p, "vendor")).collect();
        assert_eq!(vendor, [None, None, Some(Amount::from_btc(20)), Some(Amount::ZERO)]);
        // Receives by a sink never create a key.
        assert!(series.iter().all(|p| !p.balances.contains_key("gambling")));
        // Within the one-tx prefix the exchange address has not spent, so
        // it is a sink there and no category appears at all.
        let prefix = balance_series_at(&t.chain, 1, &dir, 1);
        assert!(prefix.iter().all(|p| p.balances.is_empty()));

        for tx_end in 0..=t.chain.tx_count() {
            assert_eq!(
                balance_series_at(&t.chain, tx_end, &dir, 1),
                crate::flow_oracle::balance_series_at(&t.chain, tx_end, &dir, 1),
                "tx_end {tx_end}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "sampling interval")]
    fn zero_interval_rejected() {
        let t = TestChain::new();
        let dir = ClusterSnapshot::default();
        balance_series(&t.chain, &dir, 0);
    }
}
