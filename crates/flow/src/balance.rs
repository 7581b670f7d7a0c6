//! Per-category balance time series — Figure 2 of the paper.
//!
//! "The balance of each major category, represented as a percentage of
//! total active bitcoins; i.e., the bitcoins that are not held in sink
//! addresses." A *sink* address is one that has never spent (over the
//! whole observation window).
//!
//! One production path computes the series: [`BalanceSeries`], a
//! forward-only builder that the live pipeline extends once per epoch in
//! O(new blocks), and that [`balance_series_at`] extends once from empty
//! for the batch paths. A later spend revises the past (a sink that spends
//! stops being one over the whole window), so the builder keeps per-bucket
//! changes rather than finished samples, and takes prefix sums only when
//! the points are read.

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
/// chain: a [`BalanceSeries`] extended once from empty.
///
/// Sink flags are scanned over the *prefix* window: an address whose only
/// spends sit at or past `tx_end` has never spent as far as this window
/// knows, exactly as if the chain ended there. With
/// `tx_end == chain.tx_count()` the result is identical to
/// [`balance_series`].
pub fn balance_series_at(
    chain: &ResolvedChain,
    tx_end: usize,
    snapshot: &ClusterSnapshot,
    every: u64,
) -> Vec<BalancePoint> {
    let mut series = BalanceSeries::new(every);
    series.extend_to(chain, tx_end, snapshot);
    series.points()
}

/// Slot of an address that has not spent within the window.
const SINK: u32 = u32::MAX;
/// Slot of a spender whose cluster has no category.
const NO_CATEGORY: u32 = u32::MAX - 1;

/// One sample bucket: a run of transactions, in chain order, with equal
/// `height / every`. Heights may skip, so buckets are not a dense range.
#[derive(Debug, Clone)]
struct Bucket {
    /// `height / every` of the run.
    key: u64,
    /// The run's first transaction.
    first_tx: usize,
    /// Time of the run's first transaction: the previous sample's time.
    first_time: u64,
    /// Height of the run's last transaction: the sample's height.
    last_height: u64,
    /// Change of the total supply over the run, in satoshis.
    supply: i64,
    /// Change of the sink-held supply over the run, in satoshis.
    sink_held: i64,
}

/// One category's change over one bucket.
#[derive(Debug, Clone, Copy, Default)]
struct Cell {
    /// Balance change in satoshis.
    value: i64,
    /// Outputs received by the category's spenders.
    receives: i64,
}

/// The Figure 2 series as a forward-only builder: [`new`](Self::new),
/// then [`extend_to`](Self::extend_to) any number of times with a growing
/// `tx_end` and that cut's snapshot, then [`points`](Self::points). The
/// points always equal [`balance_series_at`] at the last cut and snapshot;
/// the live pipeline extends one builder per epoch instead of rebuilding
/// the series from genesis.
///
/// # State
///
/// * a slot per address seen in the prefix: sink (no spend before the
///   cut), no category, or the index of its category in `names`;
/// * per bucket, the change of the supply and of the sink-held supply;
/// * per (category, bucket), the change of the balance and a count of
///   receives. A category appears in the points from the first bucket
///   holding one of its receives, and stays.
///
/// [`points`](Self::points) takes prefix sums over the buckets.
///
/// # Cost of one `extend_to`
///
/// * one pass over the snapshot's clusters, mapping each to a category
///   index, and one `u32` compare per spender already in the prefix; a
///   spender whose category changed (a cluster merge, a new name) moves
///   its receives and spends before the old cut to the new slot;
/// * one slot per address new to the prefix: a category when it spends
///   before the new cut, else a sink;
/// * one pass over the new transactions' inputs and outputs. A sink that
///   spends there for the first time moves its earlier receives from
///   sink-held to its category.
///
/// So an epoch costs O(new inputs and outputs + clusters + addresses +
/// the history of the addresses that moved): no transaction before the
/// old cut is read unless an address in it moved. Extended once from
/// empty it is the batch pass.
#[derive(Debug, Clone)]
pub struct BalanceSeries {
    every: u64,
    tx_end: usize,
    /// Time of the prefix's last transaction: the last sample's time.
    last_time: u64,
    slot: Vec<u32>,
    /// Category names by index, in order of first sight.
    names: Vec<String>,
    buckets: Vec<Bucket>,
    /// `cells[category][bucket]`.
    cells: Vec<Vec<Cell>>,
}

impl BalanceSeries {
    /// An empty series sampling every `every` blocks. Panics when `every`
    /// is zero.
    pub fn new(every: u64) -> BalanceSeries {
        assert!(every > 0, "sampling interval must be positive");
        BalanceSeries {
            every,
            tx_end: 0,
            last_time: 0,
            slot: Vec::new(),
            names: Vec::new(),
            buckets: Vec::new(),
            cells: Vec::new(),
        }
    }

    /// Extends the series to the first `tx_end` transactions of `chain`,
    /// with categories read from `snapshot`. `tx_end` may equal the
    /// current cut (a new snapshot over the same prefix). Panics when
    /// `tx_end` exceeds the chain or falls before the current cut.
    pub fn extend_to(&mut self, chain: &ResolvedChain, tx_end: usize, snapshot: &ClusterSnapshot) {
        assert!(tx_end <= chain.tx_count(), "tx_end exceeds the chain");
        assert!(tx_end >= self.tx_end, "a balance series only extends forward");
        let old_end = self.tx_end;

        let category_of_cluster: Vec<u32> = (0..snapshot.cluster_count() as u32)
            .map(|c| match snapshot.info(c).and_then(|info| info.category.as_deref()) {
                Some(name) => self.category_index(name),
                None => NO_CATEGORY,
            })
            .collect();
        let category = |a: AddressId| {
            snapshot.cluster_of(a).map_or(NO_CATEGORY, |c| category_of_cluster[c as usize])
        };

        // Spenders whose category moved carry their history along. A sink
        // has no history to re-read until it spends (below).
        for a in 0..self.slot.len() {
            let old = self.slot[a];
            if old == SINK {
                continue;
            }
            let new = category(a as AddressId);
            if new != old {
                self.move_history(chain, a as AddressId, old, new, old_end);
                self.slot[a] = new;
            }
        }

        // Addresses are interned in order of first appearance, so the
        // prefix's addresses are a leading range of ids.
        let mut seen = self.slot.len();
        while seen < chain.address_count()
            && (chain.first_seen(seen as AddressId) as usize) < tx_end
        {
            seen += 1;
        }
        for a in self.slot.len() as AddressId..seen as AddressId {
            let spends = chain.spent_in(a).first().is_some_and(|&t| (t as usize) < tx_end);
            self.slot.push(if spends { category(a) } else { SINK });
        }

        // A sink's first spend gives it its category at once; its earlier
        // receives move after the pass, since bucket changes add up in any
        // order.
        let mut first_spends = Vec::new();
        let (slot, buckets, cells) = (&mut self.slot[..], &mut self.buckets, &mut self.cells);
        for (i, tx) in (old_end..).zip(&chain.txs[old_end..tx_end]) {
            let key = tx.height / self.every;
            if buckets.last().map_or(true, |b| b.key != key) {
                buckets.push(Bucket {
                    key,
                    first_tx: i,
                    first_time: tx.time,
                    last_height: tx.height,
                    supply: 0,
                    sink_held: 0,
                });
                for cells in cells.iter_mut() {
                    cells.push(Cell::default());
                }
            }
            let b = buckets.len() - 1;
            buckets[b].last_height = tx.height;
            for input in &tx.inputs {
                let v = input.value.to_sat() as i64;
                buckets[b].supply -= v;
                let mut s = slot[input.address as usize];
                if s == SINK {
                    s = category(input.address);
                    slot[input.address as usize] = s;
                    first_spends.push((input.address, s, i));
                }
                add(buckets, cells, s, b, -v, 0);
            }
            for out in &tx.outputs {
                let v = out.value.to_sat() as i64;
                buckets[b].supply += v;
                add(buckets, cells, slot[out.address as usize], b, v, 1);
            }
        }
        for (a, s, i) in first_spends {
            self.move_history(chain, a, SINK, s, i);
        }
        self.tx_end = tx_end;
        if let Some(last) = tx_end.checked_sub(1) {
            self.last_time = chain.txs[last].time;
        }
    }

    /// The sampled points: one per bucket, at its last transaction's
    /// height and its successor's first transaction's time (the last
    /// transaction's time for the last bucket).
    pub fn points(&self) -> Vec<BalancePoint> {
        let (mut supply, mut sink_held) = (0i64, 0i64);
        let mut running = vec![Cell::default(); self.names.len()];
        let mut out = Vec::with_capacity(self.buckets.len());
        for (b, bucket) in self.buckets.iter().enumerate() {
            supply += bucket.supply;
            sink_held += bucket.sink_held;
            for (total, cells) in running.iter_mut().zip(&self.cells) {
                total.value += cells[b].value;
                total.receives += cells[b].receives;
            }
            out.push(BalancePoint {
                height: bucket.last_height,
                time: self.buckets.get(b + 1).map_or(self.last_time, |next| next.first_time),
                balances: self
                    .names
                    .iter()
                    .zip(&running)
                    .filter(|(_, total)| total.receives > 0)
                    .map(|(name, total)| (name.clone(), sat(total.value)))
                    .collect(),
                supply: sat(supply),
                sink_held: sat(sink_held),
            });
        }
        out
    }

    /// The index of category `name`, adding it on first sight.
    fn category_index(&mut self, name: &str) -> u32 {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return i as u32;
        }
        self.names.push(name.to_string());
        self.cells.push(vec![Cell::default(); self.buckets.len()]);
        (self.names.len() - 1) as u32
    }

    /// Moves `a`'s receives and spends in transactions before `before`
    /// from slot `from` to slot `to`. The per-address lists name a
    /// transaction once per output or input, so repeats are skipped: each
    /// visit moves every output or input of `a` in that transaction.
    fn move_history(
        &mut self,
        chain: &ResolvedChain,
        a: AddressId,
        from: u32,
        to: u32,
        before: usize,
    ) {
        let mut last = None;
        for &t in chain.received_in(a).iter().take_while(|&&t| (t as usize) < before) {
            if last.replace(t) == Some(t) {
                continue;
            }
            let b = self.bucket_of(t as usize);
            for out in chain.txs[t as usize].outputs.iter().filter(|o| o.address == a) {
                let v = out.value.to_sat() as i64;
                add(&mut self.buckets, &mut self.cells, from, b, -v, -1);
                add(&mut self.buckets, &mut self.cells, to, b, v, 1);
            }
        }
        let mut last = None;
        for &t in chain.spent_in(a).iter().take_while(|&&t| (t as usize) < before) {
            if last.replace(t) == Some(t) {
                continue;
            }
            let b = self.bucket_of(t as usize);
            for input in chain.txs[t as usize].inputs.iter().filter(|i| i.address == a) {
                let v = input.value.to_sat() as i64;
                add(&mut self.buckets, &mut self.cells, from, b, v, 0);
                add(&mut self.buckets, &mut self.cells, to, b, -v, 0);
            }
        }
    }

    /// The bucket holding transaction `t` of the prefix.
    fn bucket_of(&self, t: usize) -> usize {
        self.buckets.partition_point(|b| b.first_tx <= t) - 1
    }
}

/// Adds `value` satoshis and `receives` receives to slot `s` in bucket
/// `b`.
fn add(buckets: &mut [Bucket], cells: &mut [Vec<Cell>], s: u32, b: usize, value: i64, receives: i64) {
    match s {
        SINK => buckets[b].sink_held += value,
        NO_CATEGORY => {}
        c => {
            let cell = &mut cells[c as usize][b];
            cell.value += value;
            cell.receives += receives;
        }
    }
}

/// A running total as an amount; totals never go negative.
fn sat(v: i64) -> Amount {
    Amount::from_sat(u64::try_from(v).expect("running totals stay non-negative"))
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
                crate::balance_oracle::balance_series_at(&t.chain, tx_end, &dir, 1),
                "tx_end {tx_end}"
            );
        }
    }

    /// Extends one builder through `steps` of (cut, snapshot), checking
    /// its points against the oracle after every step.
    fn check_steps(chain: &ResolvedChain, every: u64, steps: &[(usize, &ClusterSnapshot)]) {
        let mut series = BalanceSeries::new(every);
        for &(cut, snapshot) in steps {
            series.extend_to(chain, cut, snapshot);
            assert_eq!(
                series.points(),
                crate::balance_oracle::balance_series_at(chain, cut, snapshot, every),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn extended_sink_that_spends_later_moves_its_receives() {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let cb2 = t.coinbase(2, 50);
        let a = t.tx(&[(cb1, 0)], &[(3, 20), (4, 30)]);
        t.tx(&[(cb2, 0)], &[(3, 50)]);
        // Address 3 spends for the first time in the fifth transaction.
        t.tx(&[(a, 0)], &[(5, 20)]);
        let dir = named_snapshot(
            &t.chain,
            &[(t.id(1), "Mt. Gox", "exchange"), (t.id(3), "Mt. Gox", "exchange")],
        );
        check_steps(&t.chain, 1, &[(1, &dir), (3, &dir), (4, &dir), (5, &dir)]);

        // The spend revises the past: address 3's receive at height 2 now
        // counts for the exchange, which it did not at the 4-tx cut.
        let mut series = BalanceSeries::new(1);
        series.extend_to(&t.chain, 4, &dir);
        let exchange_at_2 = |s: &BalanceSeries| s.points()[2].balances.get("exchange").copied();
        assert_eq!(exchange_at_2(&series), Some(Amount::ZERO));
        series.extend_to(&t.chain, 5, &dir);
        assert_eq!(exchange_at_2(&series), Some(Amount::from_btc(20)));
    }

    #[test]
    fn extended_cluster_gains_and_changes_its_category() {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let cb2 = t.coinbase(2, 50);
        let a = t.tx(&[(cb1, 0)], &[(3, 20), (4, 30)]);
        let b = t.tx(&[(cb2, 0), (a, 0)], &[(3, 60), (5, 10)]);
        t.tx(&[(b, 0), (a, 1)], &[(6, 90)]);
        let unnamed = named_snapshot(&t.chain, &[]);
        let exchange = named_snapshot(&t.chain, &[(t.id(3), "Mt. Gox", "exchange")]);
        let vendor = named_snapshot(
            &t.chain,
            &[(t.id(3), "Silk Road", "vendor"), (t.id(4), "Mt. Gox", "exchange")],
        );
        let steps: [(usize, &ClusterSnapshot); 6] = [
            (2, &unnamed),
            (4, &unnamed),
            (4, &exchange),
            (4, &vendor),
            (5, &exchange),
            (5, &unnamed),
        ];
        check_steps(&t.chain, 1, &steps);
        check_steps(&t.chain, 2, &steps);
    }

    #[test]
    fn extended_address_paid_twice_in_one_transaction_moves_once() {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let cb2 = t.coinbase(2, 50);
        // Address 3 is paid twice by one transaction and spends both
        // outputs in one transaction, so it is listed twice in each of its
        // receive and spend lists.
        let p = t.tx(&[(cb1, 0)], &[(3, 10), (3, 40)]);
        t.tx(&[(p, 0), (p, 1)], &[(4, 50)]);
        t.tx(&[(cb2, 0)], &[(3, 30), (3, 20)]);
        let unnamed = named_snapshot(&t.chain, &[]);
        let exchange = named_snapshot(&t.chain, &[(t.id(3), "Mt. Gox", "exchange")]);
        let vendor = named_snapshot(&t.chain, &[(t.id(3), "Silk Road", "vendor")]);
        check_steps(
            &t.chain,
            1,
            &[(3, &exchange), (4, &unnamed), (4, &exchange), (5, &vendor), (5, &exchange)],
        );
    }

    #[test]
    fn extended_over_skipped_heights_keeps_sparse_buckets() {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let cb2 = t.coinbase(2, 50);
        // Heights 0, 1, 7, 7, 8, 15, 22 with every = 3: buckets 0, 2, 5
        // and 7, none for the heights skipped between them.
        let a = t.tx_at(&[(cb1, 0)], &[(3, 20), (4, 30)], Some(7));
        let b = t.tx_at(&[(cb2, 0)], &[(5, 50)], Some(7));
        let c = t.tx_at(&[(a, 1)], &[(6, 30)], Some(8));
        t.tx_at(&[(a, 0), (b, 0)], &[(4, 70)], Some(15));
        t.tx_at(&[(c, 0)], &[(3, 30)], Some(22));
        let dir = named_snapshot(
            &t.chain,
            &[(t.id(3), "Mt. Gox", "exchange"), (t.id(4), "Silk Road", "vendor")],
        );
        let n = t.chain.tx_count();
        for every in [1, 3, 10] {
            let each: Vec<(usize, &ClusterSnapshot)> = (0..=n).map(|k| (k, &dir)).collect();
            check_steps(&t.chain, every, &each);
            check_steps(&t.chain, every, &[(3, &dir), (6, &dir), (n, &dir)]);
        }
        assert_eq!(balance_series_at(&t.chain, n, &dir, 3).len(), 4);
    }

    #[test]
    #[should_panic(expected = "only extends forward")]
    fn extending_backwards_is_rejected() {
        let mut t = TestChain::new();
        t.coinbase(1, 50);
        t.coinbase(2, 50);
        let dir = named_snapshot(&t.chain, &[]);
        let mut series = BalanceSeries::new(1);
        series.extend_to(&t.chain, 2, &dir);
        series.extend_to(&t.chain, 1, &dir);
    }

    #[test]
    #[should_panic(expected = "sampling interval")]
    fn zero_interval_rejected() {
        let t = TestChain::new();
        let dir = ClusterSnapshot::default();
        balance_series(&t.chain, &dir, 0);
    }
}
