//! Scripted storylines: the Silk Road `1DkyBEKt` lifecycle (§5, Table 2)
//! and the seven thefts of Table 3.
//!
//! Each script is a state machine advanced once per block by the engine.
//! Amounts are scaled from the paper's values by the size of the simulated
//! economy, but the *structure* — aggregate deposits with up to 128 inputs,
//! the 20k/19k/60k/100k/100k/150k/158k dissolution, the three peeling
//! chains, the A/P/S/F theft movements — matches the paper.

use crate::engine::{ChangeTarget, Economy, WalletId};
use crate::entity::{Category, OwnerId};
use fistful_chain::address::Address;
use fistful_chain::amount::Amount;
use fistful_crypto::hash::Hash256;

/// What the scripts produced, for the flow experiments.
#[derive(Debug, Clone, Default)]
pub struct ScriptReport {
    /// The Silk Road storyline, if enabled.
    pub silk_road: Option<SilkRoadReport>,
    /// One report per theft.
    pub thefts: Vec<TheftReport>,
}

/// Ground truth about the Silk Road storyline.
#[derive(Debug, Clone)]
pub struct SilkRoadReport {
    /// The big aggregation address (the `1DkyBEKt` analogue).
    pub big_address: Address,
    /// Total deposited into it.
    pub total_received: Amount,
    /// Txids of the dissolution withdrawals (20k/19k/60k/100k/100k/150k).
    pub dissolution_txids: Vec<Hash256>,
    /// The final withdrawal (158,336-analogue) txid.
    pub final_withdrawal: Option<Hash256>,
    /// The 3-way split transaction that seeds the peeling chains.
    pub split_txid: Option<Hash256>,
    /// First hop txid of each peeling chain.
    pub chain_first_hops: Vec<Hash256>,
    /// Hops actually executed per chain.
    pub hops_done: [u32; 3],
}

/// Ground truth about one theft.
#[derive(Debug, Clone)]
pub struct TheftReport {
    /// Case name (Table 3 row).
    pub name: String,
    /// Victim service name.
    pub victim: String,
    /// Amount stolen.
    pub stolen: Amount,
    /// Height of the theft transaction.
    pub theft_height: u64,
    /// The theft transaction(s) — several for the trojan's many victims.
    pub theft_txids: Vec<Hash256>,
    /// The addresses the loot was paid to.
    pub loot_addresses: Vec<Address>,
    /// The thief's owner id (ground truth).
    pub thief_owner: OwnerId,
    /// Movement pattern in the paper's notation (e.g. "A/P/S").
    pub pattern: String,
    /// Whether the paper saw funds reach exchanges for this case.
    pub expect_exchange: bool,
}

/// One movement of stolen money (Table 3 notation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Movement {
    /// Aggregation: many addresses into one.
    Aggregate,
    /// Peeling chain with this many hops.
    Peel(u32),
    /// Split into several addresses.
    Split,
    /// Folding: aggregation mixing in coins not from the theft.
    Fold,
}

impl Movement {
    fn letter(self) -> &'static str {
        match self {
            Movement::Aggregate => "A",
            Movement::Peel(_) => "P",
            Movement::Split => "S",
            Movement::Fold => "F",
        }
    }
}

/// Phases of the Silk Road storyline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SrPhase {
    Accumulating,
    Dissolving(usize),
    Splitting,
    Peeling,
    Done,
}

struct SilkRoadScript {
    hot_wallet: Option<WalletId>,
    big_address: Option<Address>,
    phase: SrPhase,
    /// Per-chain wallets (each chain's change cascades within one wallet).
    chain_wallets: Vec<WalletId>,
    report: SilkRoadReport,
    max_hops: u32,
}

/// A theft storyline.
struct TheftScript {
    name: &'static str,
    victim: &'static str,
    /// Height (fraction of the run) at which the hack happens.
    steal_frac: f64,
    /// Fraction of the victim's balance taken.
    take_frac: f64,
    /// Blocks the loot sits before moving (Betcoin waited ~a year).
    dormancy: u64,
    movements: Vec<Movement>,
    expect_exchange: bool,
    /// `true` for the trojan: most of the loot never moves.
    mostly_dormant: bool,
    // runtime state
    thief: Option<(OwnerId, WalletId)>,
    stage: usize,
    peel_hops_left: u32,
    started_moving: bool,
    done: bool,
    theft_txids: Vec<Hash256>,
    loot_addresses: Vec<Address>,
    stolen: Amount,
    theft_height: u64,
}

/// All scripts, stepped once per block.
pub struct Scripts {
    silk_road: Option<SilkRoadScript>,
    thefts: Vec<TheftScript>,
    total_blocks: u64,
}

impl Scripts {
    /// Configures scripts per the simulation config.
    pub fn new(cfg: &crate::config::SimConfig) -> Scripts {
        let silk_road = cfg.enable_silk_road.then(|| SilkRoadScript {
            hot_wallet: None,
            big_address: None,
            phase: SrPhase::Accumulating,
            chain_wallets: Vec::new(),
            report: SilkRoadReport {
                big_address: Address::default(),
                total_received: Amount::ZERO,
                dissolution_txids: Vec::new(),
                final_withdrawal: None,
                split_txid: None,
                chain_first_hops: Vec::new(),
                hops_done: [0; 3],
            },
            max_hops: 100,
        });
        let thefts = if cfg.enable_thefts {
            vec![
                TheftScript::new("MyBitcoin", "MyBitcoin", 0.45, 0.8, 2,
                    vec![Movement::Aggregate, Movement::Peel(12), Movement::Split], true, false),
                TheftScript::new("Linode", "Bitcoinica", 0.35, 0.7, 2,
                    vec![Movement::Aggregate, Movement::Peel(15), Movement::Fold], true, false),
                TheftScript::new("Betcoin", "Betcoin", 0.30, 0.9, 0,
                    vec![Movement::Fold, Movement::Aggregate, Movement::Peel(20)], true, false),
                TheftScript::new("Bitcoinica (May)", "Bitcoinica", 0.45, 0.5, 2,
                    vec![Movement::Peel(12), Movement::Aggregate], true, false),
                TheftScript::new("Bitcoinica (Jul)", "Bitcoinica", 0.55, 0.6, 2,
                    vec![Movement::Peel(10), Movement::Aggregate, Movement::Split], true, false),
                TheftScript::new("Bitfloor", "Bitfloor", 0.60, 0.6, 2,
                    vec![Movement::Peel(10), Movement::Aggregate, Movement::Peel(12)], true, false),
                TheftScript::new("Trojan", "", 0.50, 0.0, 4,
                    vec![Movement::Fold, Movement::Aggregate], false, true),
            ]
        } else {
            Vec::new()
        };
        Scripts { silk_road, thefts, total_blocks: cfg.blocks }
    }

    /// Advances every script by one block.
    pub fn step(&mut self, eco: &mut Economy) {
        let total = self.total_blocks;
        if let Some(sr) = &mut self.silk_road {
            sr.step(eco, total);
            eco.script_report.silk_road = Some(sr.report.clone());
        }
        for theft in &mut self.thefts {
            theft.step(eco, total);
        }
        // Publish theft reports (refresh each block; cheap).
        eco.script_report.thefts = self
            .thefts
            .iter()
            .filter_map(|t| t.report())
            .collect();
    }
}

impl SilkRoadScript {
    fn ensure_setup(&mut self, eco: &mut Economy) {
        if self.hot_wallet.is_some() {
            return;
        }
        let sr = eco.service_index("Silk Road").expect("Silk Road in roster");
        let owner = eco.services[sr].owner;
        let hot = eco.new_wallet_for(owner);
        self.hot_wallet = Some(hot);
        let big = eco.fresh_address(hot);
        self.big_address = Some(big);
        self.report.big_address = big;
    }

    fn step(&mut self, eco: &mut Economy, total_blocks: u64) {
        self.ensure_setup(eco);
        let h = eco.current_height();
        let hot = self.hot_wallet.unwrap();
        let big = self.big_address.unwrap();
        let sr = eco.service_index("Silk Road").unwrap();
        let revenue_wallet = eco.service_wallet(sr);

        let acc_start = total_blocks * 15 / 100;
        let dissolve_at = total_blocks * 60 / 100;

        match self.phase {
            SrPhase::Accumulating => {
                if h >= dissolve_at {
                    self.phase = SrPhase::Dissolving(0);
                    return;
                }
                if h >= acc_start && h % 4 == 0 {
                    // Aggregate sale revenue into the big address ("the
                    // funds of 128 addresses were combined").
                    if let Some(_txid) = eco.aggregate(revenue_wallet, 2, 128, big) {
                        self.report.total_received = eco
                            .wallet(hot)
                            .utxos()
                            .filter(|u| u.address == big)
                            .map(|u| u.value)
                            .sum();
                    }
                }
            }
            SrPhase::Dissolving(step) => {
                // Withdraw the paper's proportions of the big balance:
                // 20k/19k/60k/100k/100k/150k out of 613,326, then the
                // remaining ≈158,336 to the chain seed.
                const FRACTIONS: [(u64, u64); 6] = [
                    (20_000, 613_326),
                    (19_000, 613_326),
                    (60_000, 613_326),
                    (100_000, 613_326),
                    (100_000, 613_326),
                    (150_000, 613_326),
                ];
                let balance = eco.wallet(hot).balance();
                if step < FRACTIONS.len() {
                    let (num, den) = FRACTIONS[step];
                    let amount =
                        Amount::from_sat((self.report.total_received.to_sat() / den) * num);
                    let to = eco.fresh_address(hot);
                    if amount > Amount::ZERO && balance > amount {
                        if let Some(txid) =
                            eco.pay(hot, &[(to, amount)], ChangeTarget::Fresh)
                        {
                            self.report.dissolution_txids.push(txid);
                        }
                    }
                    self.phase = SrPhase::Dissolving(step + 1);
                } else {
                    // Final: sweep what's left of the big address into the
                    // chain-seed wallet.
                    let seed_wallet = eco.new_wallet_for(eco.services[sr].owner);
                    let to = eco.fresh_address(seed_wallet);
                    if let Some(txid) = eco.aggregate(hot, 1, 256, to) {
                        self.report.final_withdrawal = Some(txid);
                        self.chain_wallets.push(seed_wallet);
                        self.phase = SrPhase::Splitting;
                    } else {
                        self.phase = SrPhase::Done;
                    }
                }
            }
            SrPhase::Splitting => {
                // 50,000 / 50,000 / 58,336 proportions.
                let seed = self.chain_wallets[0];
                if let Some(txid) = eco.split_weighted(seed, &[50_000, 50_000, 58_336]) {
                    self.report.split_txid = Some(txid);
                    // Move each piece into its own chain wallet.
                    let owner = eco.wallet(seed).owner;
                    let utxos = eco.wallet_mut(seed).take_all();
                    self.chain_wallets.clear();
                    for u in utxos {
                        let w = eco.new_wallet_for(owner);
                        eco.wallet_mut(w).credit(u);
                        self.chain_wallets.push(w);
                    }
                    self.phase = SrPhase::Peeling;
                } else {
                    self.phase = SrPhase::Done;
                }
            }
            SrPhase::Peeling => {
                let mut all_done = true;
                for ci in 0..self.chain_wallets.len().min(3) {
                    if self.report.hops_done[ci] >= self.max_hops {
                        continue;
                    }
                    all_done = false;
                    let w = self.chain_wallets[ci];
                    if let Some(txid) = peel_hop(eco, w, true) {
                        if self.report.hops_done[ci] == 0 {
                            self.report.chain_first_hops.push(txid);
                        }
                        self.report.hops_done[ci] += 1;
                    } else {
                        self.report.hops_done[ci] = self.max_hops; // exhausted
                    }
                }
                if all_done {
                    self.phase = SrPhase::Done;
                }
            }
            SrPhase::Done => {}
        }
    }
}

/// One hop of a peeling chain from `wallet`: peel a small amount to a
/// sampled recipient, remainder to a fresh change address. Returns the hop
/// txid, or `None` when the chain is exhausted.
///
/// Recipient mix (matching Table 2's shape): mostly exchanges (Mt. Gox
/// heaviest), some wallet services, occasional gambling/vendors, and
/// ordinary users.
pub fn peel_hop(eco: &mut Economy, wallet: WalletId, service_heavy: bool) -> Option<Hash256> {
    let balance = eco.wallet(wallet).balance();
    if balance.to_sat() < 1_000_000 {
        return None;
    }
    // Peel 0.5%–2% of the remainder.
    let basis = balance.to_sat();
    let peel = Amount::from_sat((basis / 200).max(200_000) + (basis % 97) * 1_000);
    let peel = peel.min(Amount::from_sat(basis / 10).max(Amount::from_sat(200_000)));

    let owner = eco.wallet(wallet).owner;
    let roll = eco.roll(100);
    let to = if service_heavy {
        // Mix matching Table 2's shape: exchanges dominate the *attributed*
        // peels (Mt. Gox heaviest) but most peels go to unknown users.
        match roll {
            0..=11 => bank_recipient(eco, "Mt. Gox", owner, peel),
            12..=19 => bank_recipient_any(eco, owner, peel),
            20..=24 => bank_recipient(eco, "Instawallet", owner, peel),
            25..=26 => service_recipient(eco, "Satoshi Dice"),
            27..=28 => service_recipient(eco, "Coinabul"),
            29..=30 => service_recipient(eco, "Medsforbitcoin"),
            _ => user_recipient(eco, roll),
        }
    } else {
        match roll {
            0..=14 => bank_recipient_any(eco, owner, peel),
            _ => user_recipient(eco, roll),
        }
    };
    let to = to?;
    eco.pay(wallet, &[(to, peel)], ChangeTarget::Fresh)
}

fn bank_recipient(eco: &mut Economy, name: &str, owner: OwnerId, amount: Amount) -> Option<Address> {
    let si = eco.service_index(name)?;
    eco.bank_deposit_address(si, owner, amount)
}

fn bank_recipient_any(eco: &mut Economy, owner: OwnerId, amount: Amount) -> Option<Address> {
    // Rotate over a fixed set of popular exchanges (Table 2's roster).
    const BANKS: [&str; 8] = [
        "Bitstamp",
        "BTC-e",
        "Bitcoin 24",
        "CA VirtEx",
        "Bitcoin Central",
        "Mercado Bitcoin",
        "OKPay",
        "Bitcoin.de",
    ];
    let i = (eco.current_height() as usize) % BANKS.len();
    let name = BANKS[i];
    // OKPay is a fixed exchange in our roster; fall back to a plain
    // service address when the name is not bank-like.
    let si = eco.service_index(name)?;
    match eco.bank_deposit_address(si, owner, amount) {
        Some(a) => Some(a),
        None => {
            let w = eco.service_wallet(si);
            Some(eco.fresh_address(w))
        }
    }
}

fn service_recipient(eco: &mut Economy, name: &str) -> Option<Address> {
    let si = eco.service_index(name)?;
    let w = eco.service_wallet(si);
    Some(eco.fresh_address(w))
}

fn user_recipient(eco: &mut Economy, salt: usize) -> Option<Address> {
    // A pseudo-random user's receive address; reuse their habits.
    let ui = salt % eco.user_count();
    Some(eco.user_receive_address(ui))
}

impl TheftScript {
    #[allow(clippy::too_many_arguments)]
    fn new(
        name: &'static str,
        victim: &'static str,
        steal_frac: f64,
        take_frac: f64,
        dormancy: u64,
        movements: Vec<Movement>,
        expect_exchange: bool,
        mostly_dormant: bool,
    ) -> TheftScript {
        TheftScript {
            name,
            victim,
            steal_frac,
            take_frac,
            dormancy,
            movements,
            expect_exchange,
            mostly_dormant,
            thief: None,
            stage: 0,
            peel_hops_left: 0,
            started_moving: false,
            done: false,
            theft_txids: Vec::new(),
            loot_addresses: Vec::new(),
            stolen: Amount::ZERO,
            theft_height: 0,
        }
    }

    fn pattern_string(&self) -> String {
        self.movements
            .iter()
            .map(|m| m.letter())
            .collect::<Vec<_>>()
            .join("/")
    }

    fn report(&self) -> Option<TheftReport> {
        let (owner, _) = self.thief?;
        Some(TheftReport {
            name: self.name.to_string(),
            victim: self.victim.to_string(),
            stolen: self.stolen,
            theft_height: self.theft_height,
            theft_txids: self.theft_txids.clone(),
            loot_addresses: self.loot_addresses.clone(),
            thief_owner: owner,
            pattern: self.pattern_string(),
            expect_exchange: self.expect_exchange,
        })
    }

    fn step(&mut self, eco: &mut Economy, total_blocks: u64) {
        if self.done {
            return;
        }
        let h = eco.current_height();
        let steal_at = (total_blocks as f64 * self.steal_frac) as u64;

        // Phase 0: the hack.
        if self.thief.is_none() {
            if h < steal_at {
                return;
            }
            let (owner, wallet) = eco.new_actor(&format!("thief-{}", self.name), Category::Thief);
            self.thief = Some((owner, wallet));
            self.theft_height = h;

            if self.mostly_dormant {
                // Trojan: steal small amounts from many users directly.
                let mut total = Amount::ZERO;
                let loot_addr = eco.fresh_address(wallet);
                self.loot_addresses.push(loot_addr);
                for ui in 0..eco.user_count().min(12) {
                    let uw = eco.user_wallet_id(ui);
                    let bal = eco.wallet(uw).balance();
                    if bal.to_sat() < 50_000_000 {
                        continue;
                    }
                    let amt = Amount::from_sat(bal.to_sat() / 3);
                    if let Some(txid) = eco.pay(uw, &[(loot_addr, amt)], ChangeTarget::Fresh) {
                        total = total.checked_add(amt).unwrap();
                        self.theft_txids.push(txid);
                    }
                }
                self.stolen = total;
            } else {
                let vi = eco.service_index(self.victim).unwrap_or(0);
                let vw = eco.service_wallet(vi);
                let bal = eco.wallet(vw).balance();
                let amt = Amount::from_sat((bal.to_sat() as f64 * self.take_frac) as u64);
                if amt.to_sat() < 1_000_000 {
                    // Victim too poor this block; retry later.
                    self.thief = None;
                    return;
                }
                // Loot lands across three thief addresses (hot-wallet
                // drains hit several addresses), so aggregations later are
                // true multi-input movements.
                let loot_addr = eco.fresh_address(wallet);
                let loot2 = eco.fresh_address(wallet);
                let loot3 = eco.fresh_address(wallet);
                self.loot_addresses.extend([loot_addr, loot2, loot3]);
                let third = Amount::from_sat(amt.to_sat() / 3);
                let rest = amt.checked_sub(third).unwrap().checked_sub(third).unwrap();
                let Some(txid) = eco.pay(
                    vw,
                    &[(loot_addr, rest), (loot2, third), (loot3, third)],
                    ChangeTarget::Fresh,
                ) else {
                    self.thief = None;
                    return;
                };
                self.theft_txids.push(txid);
                self.stolen = amt;
            }
            return;
        }

        // Dormancy.
        if !self.started_moving {
            if h < self.theft_height + self.dormancy {
                return;
            }
            self.started_moving = true;
        }

        // Trojan: most of the loot never moves — stop after the first fold.
        let (_, wallet) = self.thief.unwrap();
        if self.stage >= self.movements.len() {
            self.done = true;
            return;
        }
        match self.movements[self.stage] {
            Movement::Aggregate => {
                let to = eco.fresh_address(wallet);
                eco.aggregate(wallet, 2, 64, to);
                self.stage += 1;
            }
            Movement::Fold => {
                // Acquire small clean side funds, then aggregate them with
                // part of the loot ("addresses not clearly associated with
                // the theft").
                for k in 0..2 {
                    let ui = (10 + k) % eco.user_count();
                    let uw = eco.user_wallet_id(ui);
                    let side = eco.fresh_address(wallet);
                    if eco.wallet(uw).balance().to_sat() > 100_000_000 {
                        eco.pay(uw, &[(side, Amount::from_sat(30_000_000))],
                            ChangeTarget::Fresh);
                    }
                }
                let to = eco.fresh_address(wallet);
                eco.aggregate(wallet, 2, 6, to);
                if self.mostly_dormant {
                    // The trojan folds only this slice; the rest sits
                    // ("2,857 of 3,257 BTC never moved").
                    self.stage = self.movements.len(); // stop here
                } else {
                    self.stage += 1;
                }
            }
            Movement::Split => {
                eco.split(wallet, 3);
                self.stage += 1;
            }
            Movement::Peel(hops) => {
                if self.peel_hops_left == 0 {
                    self.peel_hops_left = hops;
                }
                let heavy = self.expect_exchange;
                if peel_hop(eco, wallet, heavy).is_none() {
                    self.peel_hops_left = 1; // chain exhausted
                }
                self.peel_hops_left -= 1;
                if self.peel_hops_left == 0 {
                    self.stage += 1;
                }
            }
        }
    }
}
