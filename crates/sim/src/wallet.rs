//! Simulated wallets: UTXO tracking and coin selection.

use crate::entity::OwnerId;
use fistful_chain::address::Address;
use fistful_chain::amount::Amount;
use fistful_chain::transaction::OutPoint;
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// An unspent output a wallet controls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OwnedUtxo {
    /// The outpoint.
    pub outpoint: OutPoint,
    /// The value.
    pub value: Amount,
    /// The receiving address (one of the wallet's).
    pub address: Address,
}

/// The order of a whole-list sort; see [`SimWallet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Order {
    /// By value, largest first (what [`SimWallet::select`] sorts by).
    LargestFirst,
    /// By value, smallest first (what [`SimWallet::take_small`] sorts by).
    SmallestFirst,
}

/// A wallet: a set of spendable outputs plus key-derivation state.
///
/// Wallets are deliberately dumb; the engine (which owns the RNG, ground
/// truth and address routing) drives them.
///
/// Coin selection is defined on a list of outputs: a credit appends,
/// [`select`](Self::select) stable-sorts it largest first and takes from the
/// front, [`take_small`](Self::take_small) stable-sorts it smallest first
/// and takes from the front, and [`take_largest`](Self::take_largest)
/// removes the last of the largest outputs by moving the list's last output
/// into its slot. A stable sort never reorders equal values, so among equal
/// values the list keeps the order of a per-output *rank*, handed out in
/// credit order. Keyed by `(value, rank)`, the outputs answer `select` and
/// `take_small` in O(log n) per output taken. Only `take_largest`'s move can
/// put an output ahead of equal-valued ones, and only it and
/// [`take_all`](Self::take_all) need the list itself: they rebuild it from
/// the last sort's order, with later credits after it in rank order.
#[derive(Debug, Clone)]
pub struct SimWallet {
    /// The ground-truth owner.
    pub owner: OwnerId,
    /// Next key-derivation index.
    next_key: u64,
    /// Spendable outputs, keyed by `(value, rank)`.
    utxos: BTreeMap<(Amount, u64), OwnedUtxo>,
    /// Total value of `utxos`.
    balance: Amount,
    /// The rank the next credit gets.
    next_rank: u64,
    /// The last whole-list sort: its order, and the rank bound below which
    /// outputs were present for it. `None` before any sort and after
    /// `take_largest` re-ranks the outputs in list order.
    last_sort: Option<(Order, u64)>,
    /// The last change address handed out (for modelling sloppy reuse).
    pub last_change: Option<Address>,
    /// A stable receiving address for owners that reuse one.
    pub reused_receive: Option<Address>,
}

impl SimWallet {
    /// An empty wallet for `owner`.
    pub fn new(owner: OwnerId) -> SimWallet {
        SimWallet {
            owner,
            next_key: 0,
            utxos: BTreeMap::new(),
            balance: Amount::ZERO,
            next_rank: 0,
            last_sort: None,
            last_change: None,
            reused_receive: None,
        }
    }

    /// Derives the next address (deterministic in owner and index). The
    /// caller must register it with ground truth and routing tables.
    pub fn derive_address(&mut self, wallet_salt: u64) -> Address {
        let a = Address::from_seed2(((self.owner as u64) << 20) | wallet_salt, self.next_key);
        self.next_key += 1;
        a
    }

    /// Total spendable balance.
    pub fn balance(&self) -> Amount {
        self.balance
    }

    /// Number of spendable outputs.
    pub fn utxo_count(&self) -> usize {
        self.utxos.len()
    }

    /// The spendable outputs, smallest value first.
    pub fn utxos(&self) -> impl Iterator<Item = &OwnedUtxo> {
        self.utxos.values()
    }

    /// Adds a confirmed (or same-block) output.
    pub fn credit(&mut self, utxo: OwnedUtxo) {
        self.balance = self.balance.checked_add(utxo.value).expect("wallet balance overflow");
        self.utxos.insert((utxo.value, self.next_rank), utxo);
        self.next_rank += 1;
    }

    /// Selects outputs worth at least `target`, largest-first (fewest
    /// inputs). Returns `None` if the balance is insufficient; on success
    /// the selected outputs are removed from the wallet.
    pub fn select(&mut self, target: Amount) -> Option<Vec<OwnedUtxo>> {
        if self.balance < target {
            return None;
        }
        self.last_sort = Some((Order::LargestFirst, self.next_rank));
        let mut picked = Vec::new();
        let mut total = Amount::ZERO;
        while total < target {
            let (&(value, _), _) = self.utxos.last_key_value().expect("balance covers target");
            // The lowest rank of the largest value comes first in the list.
            let (&key, _) = self.utxos.range((value, 0)..).next().expect("key just seen");
            let u = self.remove(key);
            total = total.checked_add(u.value).expect("wallet balance overflow");
            picked.push(u);
        }
        Some(picked)
    }

    /// Removes and returns the single largest output, if any.
    pub fn take_largest(&mut self) -> Option<OwnedUtxo> {
        // The last of the largest in the list has the highest rank.
        let (&key, _) = self.utxos.last_key_value()?;
        let mut list = self.list();
        let i = list.iter().position(|(k, _)| *k == key).expect("key is listed");
        list.swap_remove(i);
        let taken = self.remove(key);
        // The swap may have moved the last output ahead of equal values:
        // rank every output by its new list position.
        self.utxos = list
            .into_iter()
            .enumerate()
            .map(|(rank, ((value, _), u))| ((value, rank as u64), u))
            .collect();
        self.next_rank = self.utxos.len() as u64;
        self.last_sort = None;
        Some(taken)
    }

    /// Removes and returns up to `max` smallest outputs (for consolidation
    /// sweeps). Returns an empty vec if fewer than `min` are available.
    pub fn take_small(&mut self, min: usize, max: usize) -> Vec<OwnedUtxo> {
        if self.utxos.len() < min {
            return Vec::new();
        }
        self.last_sort = Some((Order::SmallestFirst, self.next_rank));
        let k = max.min(self.utxos.len());
        (0..k)
            .map(|_| {
                let (&key, _) = self.utxos.first_key_value().expect("k outputs held");
                self.remove(key)
            })
            .collect()
    }

    /// Removes and returns every output, in list order.
    pub fn take_all(&mut self) -> Vec<OwnedUtxo> {
        let list = self.list();
        self.utxos.clear();
        self.balance = Amount::ZERO;
        list.into_iter().map(|(_, u)| u).collect()
    }

    fn remove(&mut self, key: (Amount, u64)) -> OwnedUtxo {
        let u = self.utxos.remove(&key).expect("wallet holds the output");
        self.balance = self.balance.checked_sub(u.value).expect("balance covers its outputs");
        u
    }

    /// The outputs in list order: those present at the last sort in that
    /// sort's order, then later credits in rank order.
    fn list(&self) -> Vec<((Amount, u64), OwnedUtxo)> {
        let sorted_below = self.last_sort.map_or(0, |(_, bound)| bound);
        let (mut sorted, mut later): (Vec<_>, Vec<_>) = self
            .utxos
            .iter()
            .map(|(&k, &u)| (k, u))
            .partition(|((_, rank), _)| *rank < sorted_below);
        // Map order is (value, rank) ascending: already smallest first.
        if let Some((Order::LargestFirst, _)) = self.last_sort {
            sorted.sort_by_key(|((v, rank), _)| (Reverse(*v), *rank));
        }
        later.sort_by_key(|((_, rank), _)| *rank);
        sorted.extend(later);
        sorted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fistful_crypto::hash::Hash256;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The list semantics `SimWallet` implements, kept as its oracle.
    #[derive(Default)]
    struct ListWallet(Vec<OwnedUtxo>);

    impl ListWallet {
        fn select(&mut self, target: Amount) -> Option<Vec<OwnedUtxo>> {
            if self.0.iter().map(|u| u.value).sum::<Amount>() < target {
                return None;
            }
            self.0.sort_by_key(|u| Reverse(u.value));
            let mut picked = Vec::new();
            let mut total = Amount::ZERO;
            while total < target {
                let u = self.0.remove(0);
                total = total.checked_add(u.value).unwrap();
                picked.push(u);
            }
            Some(picked)
        }

        fn take_largest(&mut self) -> Option<OwnedUtxo> {
            let (i, _) = self.0.iter().enumerate().max_by_key(|(_, u)| u.value)?;
            Some(self.0.swap_remove(i))
        }

        fn take_small(&mut self, min: usize, max: usize) -> Vec<OwnedUtxo> {
            if self.0.len() < min {
                return Vec::new();
            }
            self.0.sort_by_key(|u| u.value);
            let k = max.min(self.0.len());
            self.0.drain(..k).collect()
        }
    }

    #[test]
    fn picks_what_the_list_semantics_pick_under_ties() {
        for seed in 0..32 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut w = SimWallet::new(1);
            let mut list = ListWallet::default();
            let mut n = 0u32;
            for _ in 0..300 {
                match rng.gen_range(0..12) {
                    0..=4 => {
                        // Few distinct values, so ties are the common case.
                        let u = OwnedUtxo {
                            outpoint: OutPoint { txid: Hash256::ZERO, vout: n },
                            value: Amount::from_sat(100 * rng.gen_range(1..5u64)),
                            address: Address::from_seed(n as u64),
                        };
                        n += 1;
                        w.credit(u);
                        list.0.push(u);
                    }
                    5..=7 => {
                        let target = Amount::from_sat(rng.gen_range(0..900));
                        assert_eq!(w.select(target), list.select(target));
                    }
                    8 => assert_eq!(w.take_largest(), list.take_largest()),
                    9 | 10 => {
                        let (min, max) = (rng.gen_range(0..4), rng.gen_range(0..5));
                        assert_eq!(w.take_small(min, max), list.take_small(min, max));
                    }
                    _ => {
                        if rng.gen_range(0..8) == 0 {
                            assert_eq!(w.take_all(), std::mem::take(&mut list.0));
                        }
                    }
                }
                let listed: Vec<OwnedUtxo> = w.list().into_iter().map(|(_, u)| u).collect();
                assert_eq!(listed, list.0, "seed {seed}");
                assert_eq!(w.balance(), list.0.iter().map(|u| u.value).sum::<Amount>());
                assert_eq!(w.utxo_count(), list.0.len());
            }
        }
    }

    fn utxo(tag: u8, sat: u64) -> OwnedUtxo {
        OwnedUtxo {
            outpoint: OutPoint { txid: Hash256([tag; 32]), vout: 0 },
            value: Amount::from_sat(sat),
            address: Address::from_seed(tag as u64),
        }
    }

    #[test]
    fn balance_and_credit() {
        let mut w = SimWallet::new(1);
        assert_eq!(w.balance(), Amount::ZERO);
        w.credit(utxo(1, 100));
        w.credit(utxo(2, 250));
        assert_eq!(w.balance(), Amount::from_sat(350));
        assert_eq!(w.utxo_count(), 2);
    }

    #[test]
    fn select_largest_first() {
        let mut w = SimWallet::new(1);
        w.credit(utxo(1, 100));
        w.credit(utxo(2, 500));
        w.credit(utxo(3, 50));
        let picked = w.select(Amount::from_sat(450)).unwrap();
        assert_eq!(picked.len(), 1);
        assert_eq!(picked[0].value, Amount::from_sat(500));
        assert_eq!(w.utxo_count(), 2);
    }

    #[test]
    fn select_insufficient_returns_none_and_keeps_utxos() {
        let mut w = SimWallet::new(1);
        w.credit(utxo(1, 100));
        assert!(w.select(Amount::from_sat(200)).is_none());
        assert_eq!(w.utxo_count(), 1);
    }

    #[test]
    fn select_accumulates_multiple() {
        let mut w = SimWallet::new(1);
        w.credit(utxo(1, 100));
        w.credit(utxo(2, 100));
        w.credit(utxo(3, 100));
        let picked = w.select(Amount::from_sat(250)).unwrap();
        assert_eq!(picked.len(), 3);
        assert_eq!(w.utxo_count(), 0);
    }

    #[test]
    fn take_small_respects_min() {
        let mut w = SimWallet::new(1);
        w.credit(utxo(1, 100));
        assert!(w.take_small(2, 5).is_empty());
        w.credit(utxo(2, 50));
        w.credit(utxo(3, 70));
        let taken = w.take_small(2, 2);
        assert_eq!(taken.len(), 2);
        // Smallest first: 50, 70.
        assert_eq!(taken[0].value, Amount::from_sat(50));
        assert_eq!(w.utxo_count(), 1);
    }

    #[test]
    fn derive_addresses_unique() {
        let mut w = SimWallet::new(7);
        let a = w.derive_address(0);
        let b = w.derive_address(0);
        assert_ne!(a, b);
        let mut w2 = SimWallet::new(8);
        assert_ne!(w2.derive_address(0), a);
    }

    #[test]
    fn take_largest() {
        let mut w = SimWallet::new(1);
        assert!(w.take_largest().is_none());
        w.credit(utxo(1, 10));
        w.credit(utxo(2, 99));
        assert_eq!(w.take_largest().unwrap().value, Amount::from_sat(99));
        assert_eq!(w.utxo_count(), 1);
    }
}
