//! The economy engine: drives users, services and scripts block by block,
//! producing a validated chain with complete ground truth.

use crate::config::SimConfig;
use crate::entity::{Category, OwnerId};
use crate::ground_truth::GroundTruth;
use crate::roster::{full_roster, KindSpec};
use crate::scripts::{ScriptReport, Scripts};
use crate::wallet::{OwnedUtxo, SimWallet};
use fistful_chain::address::Address;
use fistful_chain::amount::Amount;
use fistful_chain::builder::BlockBuilder;
use fistful_chain::chainstate::ChainState;
use fistful_chain::params::Params;
use fistful_chain::transaction::{OutPoint, Transaction, TxIn, TxOut};
use fistful_crypto::hash::{DigestMap, Hash256};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};

/// Index into the engine's wallet table.
pub type WalletId = usize;

/// Outputs below this are folded into the fee instead of creating change.
const DUST: u64 = 5_000;

/// Where a transaction's change should go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChangeTarget {
    /// A fresh, never-seen address of the spending wallet (the idiom
    /// Heuristic 2 exploits).
    Fresh,
    /// Back to the first input address (self-change).
    SelfChange,
    /// A specific address (sloppy reuse, scripted behaviour).
    Explicit(Address),
}

/// A pending withdrawal from a bank-like service.
#[derive(Debug, Clone)]
pub struct Withdrawal {
    user: OwnerId,
    amount: Amount,
    due: u64,
    /// Marks researcher withdrawals so their inputs get probe-tagged.
    probe: bool,
}

/// Behavioural state of one service.
pub struct Service {
    /// Ground-truth owner id.
    pub owner: OwnerId,
    /// Display name.
    pub name: String,
    /// Category.
    pub category: Category,
    /// Behaviour-specific state.
    pub kind: Kind,
}

/// Behaviour-specific service state.
pub enum Kind {
    /// Mining pool.
    Pool {
        /// Wallet receiving coinbases.
        wallet: WalletId,
        /// Pool members (paid at payouts).
        members: Vec<OwnerId>,
        /// Relative mining power.
        weight: u32,
        /// Blocks between payout batches.
        payout_every: u64,
    },
    /// Deposit-taking service (exchange / wallet service / casino).
    Bank {
        /// Internally disjoint key groups.
        subwallets: Vec<WalletId>,
        /// Round-robin cursor for assigning new accounts to subwallets.
        rr: usize,
        /// Account balances.
        balances: HashMap<OwnerId, Amount>,
        /// Per-account deposit addresses (the 2013-era idiom: one
        /// long-lived deposit address per account, as Mt. Gox used).
        deposit_addrs: HashMap<OwnerId, Address>,
        /// Pending withdrawals.
        queue: VecDeque<Withdrawal>,
        /// Pending bill payments the service makes on users' behalf:
        /// (account owner, vendor service index, amount, due height).
        bills: VecDeque<(OwnerId, usize, Amount, u64)>,
    },
    /// Fixed-rate exchange: immediate conversions from a pot.
    Fixed {
        /// The working pot.
        wallet: WalletId,
    },
    /// Vendor; `gateway` is the roster index of its payment processor.
    Vendor {
        /// Revenue wallet.
        wallet: WalletId,
        /// Gateway service index, if payments go through one.
        gateway: Option<usize>,
        /// The exchange this vendor settles revenue to (fixed, like a real
        /// merchant's single exchange account).
        settle_bank: usize,
    },
    /// Payment gateway: receives for vendors, settles in batches.
    Gateway {
        /// Float wallet.
        wallet: WalletId,
        /// Vendors settled to (service indices).
        vendors: Vec<usize>,
    },
    /// Dice game with pay-back-to-sender behaviour.
    Dice {
        /// Bankroll wallet.
        wallet: WalletId,
        /// The heavily reused bet-target address.
        bet_address: Address,
        /// Scheduled payouts: (bettor's address, amount, due height, probe).
        pending: Vec<(Address, Amount, u64, bool)>,
    },
    /// Mix / laundry.
    Mix {
        /// Pool wallet.
        wallet: WalletId,
        /// Whether deposits are ever returned.
        honest: bool,
        /// Scheduled payouts: (recipient, amount, due height).
        pending: Vec<(Address, Amount, u64)>,
    },
    /// Ponzi-style investment scheme.
    Investment {
        /// Scheme wallet.
        wallet: WalletId,
        /// Investors and their principal.
        investors: Vec<(OwnerId, Amount)>,
    },
    /// Miscellaneous (donation targets etc.).
    Misc {
        /// Receiving wallet.
        wallet: WalletId,
    },
}

/// Per-user behavioural traits.
#[derive(Debug, Clone, Copy)]
struct UserTraits {
    /// Wallet mints fresh receive addresses (vs reusing one).
    fresh_receive: bool,
    /// This user's client uses self-change rather than fresh change.
    self_change: bool,
    /// This user's wallet sends change to an already-used receive address.
    reuse_change: bool,
}

/// A probe observation: an address positively identified as belonging to a
/// service by transacting with it (§3.1).
#[derive(Debug, Clone)]
pub struct ProbeObservation {
    /// The observed address.
    pub address: Address,
    /// Index into [`Economy::services`].
    pub service: usize,
}

/// The running economy.
pub struct Economy {
    /// Configuration.
    pub cfg: SimConfig,
    rng: StdRng,
    /// The validated chain.
    pub chain: ChainState,
    /// Ground truth.
    pub gt: GroundTruth,
    wallets: Vec<SimWallet>,
    wallet_of_addr: DigestMap<Address, WalletId>,
    /// All services, in roster order.
    pub services: Vec<Service>,
    users: Vec<OwnerId>,
    user_wallet: Vec<WalletId>,
    user_traits: Vec<UserTraits>,
    user_banks: Vec<[usize; 2]>,
    /// Transactions queued for the next block, each with its txid (computed
    /// once, when the transaction is made).
    pending: Vec<(Transaction, Hash256)>,
    /// Position in `pending` of each queued txid.
    pending_index: DigestMap<Hash256, usize>,
    pending_fees: Amount,
    height: u64,
    // Cached service-index lists.
    pool_idx: Vec<usize>,
    bank_idx: Vec<usize>,
    dice_idx: Vec<usize>,
    mix_idx: Vec<usize>,
    vendor_idx: Vec<usize>,
    fixed_idx: Vec<usize>,
    invest_idx: Vec<usize>,
    /// The researcher's owner id and wallet (when probing is on).
    pub probe_owner: Option<OwnerId>,
    probe_wallet: Option<WalletId>,
    probe_cursor: usize,
    /// Addresses positively identified by transacting (§3.1).
    pub probe_observations: Vec<ProbeObservation>,
    /// Script (Silk Road / theft) machinery.
    scripts: Option<Scripts>,
    /// Report produced by scripts for the flow experiments.
    pub script_report: ScriptReport,
}

impl Economy {
    /// Builds the economy: roster, users, researcher — no blocks yet.
    pub fn new(cfg: SimConfig) -> Economy {
        let rng = StdRng::seed_from_u64(cfg.seed);
        let mut eco = Economy {
            rng,
            chain: ChainState::new(Params::regtest()),
            gt: GroundTruth::new(),
            wallets: Vec::new(),
            wallet_of_addr: DigestMap::default(),
            services: Vec::new(),
            users: Vec::new(),
            user_wallet: Vec::new(),
            user_traits: Vec::new(),
            user_banks: Vec::new(),
            pending: Vec::new(),
            pending_index: DigestMap::default(),
            pending_fees: Amount::ZERO,
            height: 0,
            pool_idx: Vec::new(),
            bank_idx: Vec::new(),
            dice_idx: Vec::new(),
            mix_idx: Vec::new(),
            vendor_idx: Vec::new(),
            fixed_idx: Vec::new(),
            invest_idx: Vec::new(),
            probe_owner: None,
            probe_wallet: None,
            probe_cursor: 0,
            probe_observations: Vec::new(),
            scripts: None,
            script_report: ScriptReport::default(),
            cfg,
        };
        eco.setup_services();
        eco.setup_users();
        if eco.cfg.enable_probe {
            eco.setup_probe();
        }
        eco.scripts = Some(Scripts::new(&eco.cfg));
        eco
    }

    /// Runs the configured number of blocks and returns self for analysis.
    pub fn run(cfg: SimConfig) -> Economy {
        let mut eco = Economy::new(cfg);
        for _ in 0..eco.cfg.blocks {
            eco.step_block();
        }
        eco
    }

    // ----- construction helpers -----

    fn new_wallet(&mut self, owner: OwnerId) -> WalletId {
        let id = self.wallets.len();
        self.wallets.push(SimWallet::new(owner));
        id
    }

    fn setup_services(&mut self) {
        let roster = full_roster();
        // Gateways must be resolvable by roster index for vendors.
        let gateway_indices: Vec<usize> = roster
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s.kind, KindSpec::Gateway))
            .map(|(i, _)| i)
            .collect();

        for (idx, spec) in roster.iter().enumerate() {
            let owner = self.gt.new_owner(spec.name, spec.category);
            let kind = match spec.kind {
                KindSpec::Pool => {
                    let wallet = self.new_wallet(owner);
                    Kind::Pool {
                        wallet,
                        members: Vec::new(),
                        weight: 1 + (idx as u32 % 5),
                        payout_every: 4 + (idx as u64 % 4),
                    }
                }
                KindSpec::Bank { subwallets } => {
                    let subs = (0..subwallets).map(|_| self.new_wallet(owner)).collect();
                    Kind::Bank {
                        subwallets: subs,
                        rr: 0,
                        balances: HashMap::new(),
                        deposit_addrs: HashMap::new(),
                        queue: VecDeque::new(),
                        bills: VecDeque::new(),
                    }
                }
                KindSpec::FixedExchange => Kind::Fixed { wallet: self.new_wallet(owner) },
                KindSpec::Vendor { uses_gateway } => {
                    let gateway = if uses_gateway && !gateway_indices.is_empty() {
                        Some(gateway_indices[idx % gateway_indices.len()])
                    } else {
                        None
                    };
                    Kind::Vendor { wallet: self.new_wallet(owner), gateway, settle_bank: idx % 7 }
                }
                KindSpec::Gateway => Kind::Gateway { wallet: self.new_wallet(owner), vendors: Vec::new() },
                KindSpec::Dice => {
                    let wallet = self.new_wallet(owner);
                    let bet_address = self.fresh_address(wallet);
                    Kind::Dice { wallet, bet_address, pending: Vec::new() }
                }
                KindSpec::Casino => {
                    let sub = self.new_wallet(owner);
                    Kind::Bank {
                        subwallets: vec![sub],
                        rr: 0,
                        balances: HashMap::new(),
                        deposit_addrs: HashMap::new(),
                        queue: VecDeque::new(),
                        bills: VecDeque::new(),
                    }
                }
                KindSpec::Mix { honest } => Kind::Mix {
                    wallet: self.new_wallet(owner),
                    honest,
                    pending: Vec::new(),
                },
                KindSpec::Investment => Kind::Investment {
                    wallet: self.new_wallet(owner),
                    investors: Vec::new(),
                },
                KindSpec::Misc => Kind::Misc { wallet: self.new_wallet(owner) },
            };
            self.services.push(Service {
                owner,
                name: spec.name.to_string(),
                category: spec.category,
                kind,
            });
        }

        // Wire gateways to the vendors they settle for.
        let vendor_links: Vec<(usize, usize)> = self
            .services
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s.kind {
                Kind::Vendor { gateway: Some(g), .. } => Some((g, i)),
                _ => None,
            })
            .collect();
        for (g, v) in vendor_links {
            if let Kind::Gateway { vendors, .. } = &mut self.services[g].kind {
                vendors.push(v);
            }
        }

        // Index caches.
        for (i, s) in self.services.iter().enumerate() {
            match s.kind {
                Kind::Pool { .. } => self.pool_idx.push(i),
                Kind::Bank { .. } => self.bank_idx.push(i),
                Kind::Dice { .. } => self.dice_idx.push(i),
                Kind::Mix { .. } => self.mix_idx.push(i),
                Kind::Vendor { .. } => self.vendor_idx.push(i),
                Kind::Fixed { .. } => self.fixed_idx.push(i),
                Kind::Investment { .. } => self.invest_idx.push(i),
                _ => {}
            }
        }
    }

    fn setup_users(&mut self) {
        for i in 0..self.cfg.users {
            let owner = self.gt.new_owner(format!("user-{i}"), Category::User);
            let wallet = self.new_wallet(owner);
            self.users.push(owner);
            self.user_wallet.push(wallet);
            let fresh_receive = self.rng.gen::<f64>() >= self.cfg.reuse_receive_rate;
            let self_change = self.rng.gen::<f64>() < self.cfg.self_change_rate;
            let reuse_change =
                !self_change && self.rng.gen::<f64>() < self.cfg.reuse_change_rate;
            self.user_traits.push(UserTraits { fresh_receive, self_change, reuse_change });
            let b1 = self.pick_bank();
            let b2 = self.pick_bank();
            self.user_banks.push([b1, b2]);
        }
        // Distribute users among pools as members.
        let pool_count = self.pool_idx.len().max(1);
        for (i, &owner) in self.users.iter().enumerate() {
            let p = self.pool_idx[i % pool_count];
            if let Kind::Pool { members, .. } = &mut self.services[p].kind {
                members.push(owner);
            }
        }
    }

    /// Picks a bank with market-share weighting: Mt. Gox dominated the
    /// era's exchange volume, followed by Bitstamp and BTC-e.
    fn pick_bank(&mut self) -> usize {
        let roll = self.rng.gen::<f64>();
        let named = |eco: &Self, name: &str| {
            eco.services.iter().position(|s| s.name == name)
        };
        if roll < 0.35 {
            if let Some(i) = named(self, "Mt. Gox") {
                return i;
            }
        } else if roll < 0.45 {
            if let Some(i) = named(self, "Bitstamp") {
                return i;
            }
        } else if roll < 0.55 {
            if let Some(i) = named(self, "BTC-e") {
                return i;
            }
        }
        self.bank_idx[self.rng.gen_range(0..self.bank_idx.len())]
    }

    fn setup_probe(&mut self) {
        let owner = self.gt.new_owner("researcher", Category::User);
        let wallet = self.new_wallet(owner);
        self.probe_owner = Some(owner);
        self.probe_wallet = Some(wallet);
        // The researcher joins every pool ("we mined with 11 pools").
        for &p in &self.pool_idx.clone() {
            if let Kind::Pool { members, .. } = &mut self.services[p].kind {
                members.push(owner);
            }
        }
    }

    // ----- address & payment primitives -----

    /// Mints a fresh address for `wallet`, registering ownership/routing.
    pub fn fresh_address(&mut self, wallet: WalletId) -> Address {
        let owner = self.wallets[wallet].owner;
        let a = self.wallets[wallet].derive_address(wallet as u64);
        self.gt.register(a, owner);
        self.wallet_of_addr.insert(a, wallet);
        a
    }

    /// The address a wallet hands out for receiving, honouring reuse
    /// habits: `fresh == false` reuses a stable receive address.
    pub fn receive_address(&mut self, wallet: WalletId, fresh: bool) -> Address {
        if !fresh {
            if let Some(a) = self.wallets[wallet].reused_receive {
                return a;
            }
        }
        let a = self.fresh_address(wallet);
        if !fresh {
            self.wallets[wallet].reused_receive = Some(a);
        }
        a
    }

    /// Builds, records and queues a payment from `from`. Returns the txid,
    /// or `None` if the wallet cannot cover `outputs` + fee.
    ///
    /// Outputs are credited to recipient wallets immediately (spending
    /// unconfirmed outputs within the same block is allowed, as in
    /// Bitcoin); the transaction lands in the block under construction.
    pub fn pay(
        &mut self,
        from: WalletId,
        outputs: &[(Address, Amount)],
        change: ChangeTarget,
    ) -> Option<Hash256> {
        let fee = Amount::from_sat(self.cfg.fee_sat);
        let needed = outputs
            .iter()
            .map(|(_, v)| *v)
            .try_fold(fee, |a, v| a.checked_add(v))?;
        let selected = self.wallets[from].select(needed)?;
        let selected_total: Amount = selected.iter().map(|u| u.value).sum();
        let mut change_amt = selected_total
            .checked_sub(needed)
            .expect("selection shortfall");

        let mut outs: Vec<(Address, Amount)> = outputs.to_vec();
        let mut change_vout: Option<usize> = None;
        if change_amt.to_sat() < DUST {
            // Fold dust into the fee.
            change_amt = Amount::ZERO;
        }
        if change_amt > Amount::ZERO {
            let change_addr = match change {
                ChangeTarget::Fresh => self.fresh_address(from),
                ChangeTarget::SelfChange => selected[0].address,
                ChangeTarget::Explicit(a) => a,
            };
            // Clients of the era placed change at a random output position.
            let pos = self.rng.gen_range(0..=outs.len());
            outs.insert(pos, (change_addr, change_amt));
            change_vout = Some(pos);
            self.wallets[from].last_change = Some(change_addr);
        }

        let tx = Transaction {
            version: 1,
            inputs: selected
                .iter()
                .map(|u| TxIn::unsigned(u.outpoint))
                .collect(),
            outputs: outs
                .iter()
                .map(|&(address, value)| TxOut { value, address })
                .collect(),
            lock_time: 0,
        };
        let txid = tx.txid();

        // Ground truth + credit recipients (0-conf).
        if let Some(v) = change_vout {
            self.gt.note_change(txid, v as u32);
        }
        for (vout, &(address, value)) in outs.iter().enumerate() {
            let Some(&w) = self.wallet_of_addr.get(&address) else {
                continue;
            };
            self.wallets[w].credit(OwnedUtxo {
                outpoint: OutPoint { txid, vout: vout as u32 },
                value,
                address,
            });
        }

        self.pending_fees = self
            .pending_fees
            .checked_add(selected_total.checked_sub(outs.iter().map(|o| o.1).sum()).unwrap())
            .unwrap();
        self.queue(tx, txid);
        Some(txid)
    }

    /// Aggregates up to `max_inputs` of `from`'s smallest outputs into a
    /// single destination address (no change). Returns the txid if at least
    /// `min_inputs` outputs were available.
    pub fn aggregate(
        &mut self,
        from: WalletId,
        min_inputs: usize,
        max_inputs: usize,
        to: Address,
    ) -> Option<Hash256> {
        let taken = self.wallets[from].take_small(min_inputs, max_inputs);
        if taken.is_empty() {
            return None;
        }
        let total: Amount = taken.iter().map(|u| u.value).sum();
        let fee = Amount::from_sat(self.cfg.fee_sat.min(total.to_sat() / 2));
        let value = total.checked_sub(fee).unwrap();
        let tx = Transaction {
            version: 1,
            inputs: taken.iter().map(|u| TxIn::unsigned(u.outpoint)).collect(),
            outputs: vec![TxOut { value, address: to }],
            lock_time: 0,
        };
        let txid = tx.txid();
        // A self-sweep's output is ground-truth "change": it stays with the
        // owner of the inputs (vault consolidations, loot aggregation).
        let from_owner = self.wallets[from].owner;
        if self.gt.owner_of(&to) == Some(from_owner) {
            self.gt.note_change(txid, 0);
        }
        if let Some(&w) = self.wallet_of_addr.get(&to) {
            self.wallets[w].credit(OwnedUtxo {
                outpoint: OutPoint { txid, vout: 0 },
                value,
                address: to,
            });
        }
        self.pending_fees = self.pending_fees.checked_add(fee).unwrap();
        self.queue(tx, txid);
        Some(txid)
    }

    /// Queues `tx`, whose id is `txid`, for the block under construction.
    fn queue(&mut self, tx: Transaction, txid: Hash256) {
        self.pending_index.insert(txid, self.pending.len());
        self.pending.push((tx, txid));
    }

    // ----- block production -----

    /// Runs one block: users act, services process, scripts advance, the
    /// block is mined and accepted.
    pub fn step_block(&mut self) {
        self.step_users();
        self.step_services();
        if self.cfg.enable_probe {
            self.step_probe();
        }
        // Scripts are taken out to allow &mut Economy access.
        if let Some(mut scripts) = self.scripts.take() {
            scripts.step(self);
            self.scripts = Some(scripts);
        }
        self.finish_block();
    }

    fn finish_block(&mut self) {
        let height = self.chain.next_height();
        let reward = self
            .chain
            .next_subsidy()
            .checked_add(self.pending_fees)
            .unwrap();

        // Choose the miner: early blocks are seeded round-robin to services
        // that need working capital (dice, mixes, fixed exchanges, misc,
        // investment) and the researcher; afterwards, weighted pools.
        let coinbase_wallet = self.choose_miner(height);
        let coinbase_addr = self.fresh_address(coinbase_wallet);

        let txs = std::mem::take(&mut self.pending);
        self.pending_index.clear();
        let block = BlockBuilder::new(&Params::regtest())
            .coinbase_to(coinbase_addr, height, reward)
            .txs(txs)
            .build_on(&self.chain);
        let cb_txid = block.transactions[0].txid();

        self.chain
            .accept_block(block)
            .unwrap_or_else(|e| panic!("engine produced invalid block at {height}: {e}"));

        self.wallets[coinbase_wallet].credit(OwnedUtxo {
            outpoint: OutPoint { txid: cb_txid, vout: 0 },
            value: reward,
            address: coinbase_addr,
        });
        self.pending_fees = Amount::ZERO;
        self.height = self.chain.next_height();
    }

    fn choose_miner(&mut self, height: u64) -> WalletId {
        // Seed round: dice/mix/fixed/invest/misc services and the
        // researcher each mine a couple of early blocks.
        let mut seed_wallets: Vec<WalletId> = Vec::new();
        for s in &self.services {
            match s.kind {
                Kind::Dice { wallet, .. }
                | Kind::Mix { wallet, .. }
                | Kind::Fixed { wallet }
                | Kind::Investment { wallet, .. }
                | Kind::Misc { wallet } => seed_wallets.push(wallet),
                _ => {}
            }
        }
        if let Some(w) = self.probe_wallet {
            seed_wallets.push(w);
            seed_wallets.push(w); // "we mined with an AMD Radeon HD 7970"
        }
        let seed_rounds = seed_wallets.len() as u64 * 2;
        if height < seed_rounds {
            return seed_wallets[(height % seed_wallets.len() as u64) as usize];
        }

        // Weighted pool choice.
        let total: u32 = self
            .pool_idx
            .iter()
            .map(|&p| match self.services[p].kind {
                Kind::Pool { weight, .. } => weight,
                _ => 0,
            })
            .sum();
        let mut pick = self.rng.gen_range(0..total.max(1));
        for &p in &self.pool_idx {
            if let Kind::Pool { weight, wallet, .. } = self.services[p].kind {
                if pick < weight {
                    return wallet;
                }
                pick -= weight;
            }
        }
        unreachable!("weighted choice exhausted");
    }

    // ----- user behaviour -----

    fn user_change(&mut self, ui: usize) -> ChangeTarget {
        if self.user_traits[ui].self_change {
            ChangeTarget::SelfChange
        } else if self.user_traits[ui].reuse_change {
            // Change parked on the wallet's (already-seen) receive address.
            let w = self.user_wallet[ui];
            let a = self.receive_address(w, false);
            ChangeTarget::Explicit(a)
        } else {
            ChangeTarget::Fresh
        }
    }

    fn step_users(&mut self) {
        let n = self.users.len();
        for ui in 0..n {
            if self.rng.gen::<f64>() >= self.cfg.user_activity {
                continue;
            }
            let wallet = self.user_wallet[ui];
            let balance = self.wallets[wallet].balance();
            if balance.to_sat() < 2_000_000 {
                continue; // below 0.02 BTC, sit tight
            }
            let roll = self.rng.gen::<f64>();
            let dice_w = self.cfg.dice_weight;
            if roll < dice_w {
                self.user_bet(ui, false);
            } else if roll < dice_w + 0.20 {
                self.user_p2p(ui);
            } else if roll < dice_w + 0.32 {
                self.user_deposit(ui, false);
            } else if roll < dice_w + 0.42 {
                self.user_withdraw(ui, false);
            } else if roll < dice_w + 0.52 {
                self.user_purchase(ui, false);
            } else if roll < dice_w + 0.56 {
                self.user_mix(ui);
            } else if roll < dice_w + 0.59 {
                self.user_invest(ui);
            } else if roll < dice_w + 0.62 {
                self.user_fixed_cashout(ui);
            } else if roll < dice_w + 0.62 + self.cfg.bill_pay_weight {
                self.user_bill_pay(ui);
            }
            // otherwise: hodl this block
        }
    }

    fn rand_amount(&mut self, lo_sat: u64, hi_sat: u64, cap: Amount) -> Amount {
        let hi = hi_sat.min(cap.to_sat());
        if hi <= lo_sat {
            return Amount::from_sat(hi.max(1));
        }
        Amount::from_sat(self.rng.gen_range(lo_sat..hi))
    }

    fn user_bet(&mut self, ui: usize, probe: bool) {
        if self.dice_idx.is_empty() {
            return;
        }
        let wallet = if probe { self.probe_wallet.unwrap() } else { self.user_wallet[ui] };
        let d = self.dice_idx[self.rng.gen_range(0..self.dice_idx.len())];
        let balance = self.wallets[wallet].balance();
        let amount = self.rand_amount(1_000_000, 100_000_000, balance / 3);
        let bet_address = match &self.services[d].kind {
            Kind::Dice { bet_address, .. } => *bet_address,
            // Casinos take deposits instead of instant bets.
            Kind::Bank { .. } => return self.user_deposit_into(ui, d, probe),
            _ => return,
        };
        let change = if probe { ChangeTarget::Fresh } else { self.user_change(ui) };
        // Remember which address "sent" the bet: the first selected input.
        // We must know it to pay winnings back; peek by doing the payment
        // and reading the transaction we just queued.
        let before = self.pending.len();
        let Some(_txid) = self.pay(wallet, &[(bet_address, amount)], change) else {
            return;
        };
        // The bet was sent from the first input's address.
        let op = self.pending[before].0.inputs[0].prevout;
        let Some(bettor_addr) = self.outpoint_addr(&op) else { return };
        // Schedule the payout: SatoshiDice paid even losers a token amount.
        let win = self.rng.gen::<f64>() < 0.485;
        let payout = if win {
            Amount::from_sat((amount.to_sat() as f64 * 1.92) as u64)
        } else {
            Amount::from_sat((amount.to_sat() / 200).max(DUST * 2))
        };
        let due = self.height + 1;
        if let Kind::Dice { pending, .. } = &mut self.services[d].kind {
            pending.push((bettor_addr, payout, due, probe));
        }
    }

    /// The address that a mined or queued (not yet mined) outpoint pays to.
    fn outpoint_addr(&self, op: &OutPoint) -> Option<Address> {
        let rc = self.chain.resolved();
        if let Some((_, rtx)) = rc.tx_by_txid(&op.txid) {
            return rtx.outputs.get(op.vout as usize).map(|o| rc.address(o.address));
        }
        let &i = self.pending_index.get(&op.txid)?;
        self.pending[i].0.outputs.get(op.vout as usize).map(|o| o.address)
    }

    fn user_p2p(&mut self, ui: usize) {
        let n = self.users.len();
        if n < 2 {
            return;
        }
        let mut vi = self.rng.gen_range(0..n);
        if vi == ui {
            vi = (vi + 1) % n;
        }
        let to_wallet = self.user_wallet[vi];
        let fresh = self.user_traits[vi].fresh_receive;
        let to = self.receive_address(to_wallet, fresh);
        let wallet = self.user_wallet[ui];
        let balance = self.wallets[wallet].balance();
        let amount = self.rand_amount(5_000_000, 500_000_000, balance / 2);
        let change = self.user_change(ui);
        self.pay(wallet, &[(to, amount)], change);
    }

    fn user_deposit(&mut self, ui: usize, probe: bool) {
        if self.bank_idx.is_empty() {
            return;
        }
        let b = if probe {
            self.bank_idx[self.rng.gen_range(0..self.bank_idx.len())]
        } else {
            self.user_banks[ui][self.rng.gen_range(0..2)]
        };
        self.user_deposit_into(ui, b, probe);
    }

    fn user_deposit_into(&mut self, ui: usize, b: usize, probe: bool) {
        let (wallet, owner) = if probe {
            (self.probe_wallet.unwrap(), self.probe_owner.unwrap())
        } else {
            (self.user_wallet[ui], self.users[ui])
        };
        let balance = self.wallets[wallet].balance();
        let amount = self.rand_amount(10_000_000, 2_000_000_000, balance / 2);
        let Some(deposit_addr) = self.bank_deposit_address(b, owner, amount) else {
            return;
        };
        let change = if probe { ChangeTarget::Fresh } else { self.user_change(ui) };
        if self.pay(wallet, &[(deposit_addr, amount)], change).is_none() {
            // Roll the account credit back; the wallet couldn't cover it.
            if let Kind::Bank { balances, .. } = &mut self.services[b].kind {
                if let Some(bal) = balances.get_mut(&owner) {
                    *bal = bal.saturating_sub(amount);
                }
            }
        } else if probe {
            self.probe_observations.push(ProbeObservation { address: deposit_addr, service: b });
        }
    }

    fn user_withdraw(&mut self, ui: usize, probe: bool) {
        let owner = if probe { self.probe_owner.unwrap() } else { self.users[ui] };
        let height = self.height;
        let mut candidates: Vec<usize> = Vec::new();
        for &b in &self.bank_idx {
            if let Kind::Bank { balances, .. } = &self.services[b].kind {
                if balances.get(&owner).copied().unwrap_or(Amount::ZERO).to_sat() > DUST * 10 {
                    candidates.push(b);
                }
            }
        }
        if candidates.is_empty() {
            return;
        }
        let b = candidates[self.rng.gen_range(0..candidates.len())];
        if let Kind::Bank { balances, queue, .. } = &mut self.services[b].kind {
            let bal = balances[&owner];
            let amount = Amount::from_sat(bal.to_sat() / 2).max(Amount::from_sat(DUST * 10));
            *balances.get_mut(&owner).unwrap() = bal.saturating_sub(amount);
            queue.push_back(Withdrawal { user: owner, amount, due: height + 1, probe });
        }
    }

    fn user_purchase(&mut self, ui: usize, probe: bool) {
        if self.vendor_idx.is_empty() {
            return;
        }
        let v = self.vendor_idx[self.rng.gen_range(0..self.vendor_idx.len())];
        let wallet = if probe { self.probe_wallet.unwrap() } else { self.user_wallet[ui] };
        let balance = self.wallets[wallet].balance();
        let amount = self.rand_amount(5_000_000, 300_000_000, balance / 2);
        // Payment goes to the vendor or to its gateway.
        let (pay_service, pay_wallet) = match self.services[v].kind {
            Kind::Vendor { wallet: vw, gateway: Some(g), .. } => match self.services[g].kind {
                Kind::Gateway { wallet: gw, .. } => (g, gw),
                _ => (v, vw),
            },
            Kind::Vendor { wallet: vw, gateway: None, .. } => (v, vw),
            _ => return,
        };
        let to = self.fresh_address(pay_wallet);
        let change = if probe { ChangeTarget::Fresh } else { self.user_change(ui) };
        if self.pay(wallet, &[(to, amount)], change).is_some() && probe {
            self.probe_observations.push(ProbeObservation { address: to, service: pay_service });
        }
    }

    fn user_mix(&mut self, ui: usize) {
        if self.mix_idx.is_empty() {
            return;
        }
        let m = self.mix_idx[self.rng.gen_range(0..self.mix_idx.len())];
        let wallet = self.user_wallet[ui];
        let balance = self.wallets[wallet].balance();
        let amount = self.rand_amount(20_000_000, 1_000_000_000, balance / 2);
        let (mix_wallet, honest) = match self.services[m].kind {
            Kind::Mix { wallet, honest, .. } => (wallet, honest),
            _ => return,
        };
        let to = self.fresh_address(mix_wallet);
        let change = self.user_change(ui);
        if self.pay(wallet, &[(to, amount)], change).is_some() && honest {
            let back = self.fresh_address(wallet);
            let due = self.height + self.rng.gen_range(3..10);
            let out = Amount::from_sat(amount.to_sat() * 97 / 100);
            if let Kind::Mix { pending, .. } = &mut self.services[m].kind {
                pending.push((back, out, due));
            }
        }
        // Dishonest mixes (BitMix) simply keep the coins.
    }

    fn user_invest(&mut self, ui: usize) {
        if self.invest_idx.is_empty() {
            return;
        }
        let s = self.invest_idx[self.rng.gen_range(0..self.invest_idx.len())];
        let wallet = self.user_wallet[ui];
        let balance = self.wallets[wallet].balance();
        let amount = self.rand_amount(50_000_000, 2_000_000_000, balance / 2);
        let (inv_wallet, owner) = match self.services[s].kind {
            Kind::Investment { wallet, .. } => (wallet, self.users[ui]),
            _ => return,
        };
        let to = self.fresh_address(inv_wallet);
        let change = self.user_change(ui);
        if self.pay(wallet, &[(to, amount)], change).is_some() {
            if let Kind::Investment { investors, .. } = &mut self.services[s].kind {
                investors.push((owner, amount));
            }
        }
    }

    /// Asks a wallet service to pay a vendor from the user's account (the
    /// service spends its own coins on the user's behalf).
    fn user_bill_pay(&mut self, ui: usize) {
        if self.bank_idx.is_empty() || self.vendor_idx.is_empty() {
            return;
        }
        let owner = self.users[ui];
        let height = self.height;
        let mut candidates: Vec<usize> = Vec::new();
        for &b in &self.bank_idx {
            if let Kind::Bank { balances, .. } = &self.services[b].kind {
                if balances.get(&owner).copied().unwrap_or(Amount::ZERO).to_sat() > 50_000_000 {
                    candidates.push(b);
                }
            }
        }
        if candidates.is_empty() {
            return;
        }
        let b = candidates[self.rng.gen_range(0..candidates.len())];
        let v = self.vendor_idx[self.rng.gen_range(0..self.vendor_idx.len())];
        if let Kind::Bank { balances, bills, .. } = &mut self.services[b].kind {
            let bal = balances[&owner];
            let amount = Amount::from_sat((bal.to_sat() / 3).clamp(10_000_000, 500_000_000));
            if bal < amount {
                return;
            }
            *balances.get_mut(&owner).unwrap() = bal.saturating_sub(amount);
            bills.push_back((owner, v, amount, height + 1));
        }
    }

    fn user_fixed_cashout(&mut self, ui: usize) {
        if self.fixed_idx.is_empty() {
            return;
        }
        let f = self.fixed_idx[self.rng.gen_range(0..self.fixed_idx.len())];
        let wallet = self.user_wallet[ui];
        let balance = self.wallets[wallet].balance();
        let amount = self.rand_amount(10_000_000, 1_000_000_000, balance / 2);
        let fw = match self.services[f].kind {
            Kind::Fixed { wallet } => wallet,
            _ => return,
        };
        let to = self.fresh_address(fw);
        let change = self.user_change(ui);
        self.pay(wallet, &[(to, amount)], change);
    }

    // ----- service behaviour -----

    fn step_services(&mut self) {
        let height = self.height;
        for si in 0..self.services.len() {
            match &self.services[si].kind {
                Kind::Pool { .. } => self.step_pool(si, height),
                Kind::Bank { .. } => self.step_bank(si, height),
                Kind::Dice { .. } => self.step_dice(si, height),
                Kind::Mix { .. } => self.step_mix(si, height),
                Kind::Gateway { .. } => self.step_gateway(si, height),
                Kind::Vendor { .. } => self.step_vendor(si, height),
                Kind::Investment { .. } => self.step_investment(si, height),
                Kind::Fixed { .. } | Kind::Misc { .. } => {}
            }
        }
    }

    fn step_pool(&mut self, si: usize, height: u64) {
        let (wallet, members, payout_every) = match &self.services[si].kind {
            Kind::Pool { wallet, members, payout_every, .. } => {
                (*wallet, members.clone(), *payout_every)
            }
            _ => unreachable!(),
        };
        if members.is_empty() || height % payout_every != si as u64 % payout_every {
            return;
        }
        let balance = self.wallets[wallet].balance();
        if balance.to_sat() < 1_000_000_000 {
            return; // accumulate at least 10 BTC before paying out
        }
        // Sweep accumulated coinbases together first (Heuristic 1 links
        // the pool's reward addresses).
        if self.wallets[wallet].utxo_count() >= 2 {
            let staging = self.fresh_address(wallet);
            self.aggregate(wallet, 2, 48, staging);
        }
        // Pay a batch of members proportional shares (one multi-output tx —
        // the pool-payout idiom the paper calls out for Heuristic 2's
        // predecessor work).
        let distributable = Amount::from_sat(balance.to_sat() * 8 / 10);
        let k = members.len().min(12);
        let share = distributable / (k as u64);
        if share.to_sat() < DUST * 4 {
            return;
        }
        let mut outs = Vec::with_capacity(k);
        let start = self.rng.gen_range(0..members.len());
        let probe_owner = self.probe_owner;
        let mut probe_in_batch = false;
        for j in 0..k {
            let m = members[(start + j) % members.len()];
            if Some(m) == probe_owner {
                probe_in_batch = true;
            }
            let to = self.owner_receive_address(m);
            outs.push((to, share));
        }
        let before = self.pending.len();
        if self.pay(wallet, &outs, ChangeTarget::Fresh).is_some() && probe_in_batch {
            // "For each payout transaction, we labeled the input addresses
            // as belonging to the pool."
            let inputs: Vec<OutPoint> =
                self.pending[before].0.inputs.iter().map(|i| i.prevout).collect();
            for op in inputs {
                if let Some(addr) = self.outpoint_addr(&op) {
                    self.probe_observations.push(ProbeObservation { address: addr, service: si });
                }
            }
        }
    }

    /// A receive address for any owner, honouring user reuse habits
    /// (services and the researcher always hand out fresh addresses).
    fn owner_receive_address(&mut self, owner: OwnerId) -> Address {
        if let Some(pos) = self.users.iter().position(|&u| u == owner) {
            return self.user_receive_address(pos);
        }
        let w = self.wallet_of_owner(owner);
        self.fresh_address(w)
    }

    fn wallet_of_owner(&self, owner: OwnerId) -> WalletId {
        if Some(owner) == self.probe_owner {
            return self.probe_wallet.unwrap();
        }
        // Users are created contiguously; services store their own wallets.
        if let Some(pos) = self.users.iter().position(|&u| u == owner) {
            return self.user_wallet[pos];
        }
        // Fall back to a service's first wallet.
        for s in &self.services {
            if s.owner == owner {
                return match &s.kind {
                    Kind::Pool { wallet, .. }
                    | Kind::Fixed { wallet }
                    | Kind::Vendor { wallet, .. }
                    | Kind::Gateway { wallet, .. }
                    | Kind::Dice { wallet, .. }
                    | Kind::Mix { wallet, .. }
                    | Kind::Investment { wallet, .. }
                    | Kind::Misc { wallet } => *wallet,
                    Kind::Bank { subwallets, .. } => subwallets[0],
                };
            }
        }
        panic!("unknown owner {owner}");
    }

    fn step_bank(&mut self, si: usize, height: u64) {
        // 1. Consolidation sweeps: each subwallet with many small outputs
        //    aggregates them (Heuristic 1 evidence linking deposit addrs).
        let subwallets = match &self.services[si].kind {
            Kind::Bank { subwallets, .. } => subwallets.clone(),
            _ => unreachable!(),
        };
        // Busy exchanges swept continuously; sweep whenever a few outputs
        // have accumulated so deposits join the hot-wallet cluster quickly.
        for &sub in &subwallets {
            if self.wallets[sub].utxo_count() >= 3 {
                let vault = self.fresh_address(sub);
                self.aggregate(sub, 2, 64, vault);
            }
        }

        // 2. Bill payments: the service pays a vendor's fresh invoice
        //    address from its own coins. Combined with sloppy change reuse
        //    this is the §4.2 super-cluster mechanism: the fresh invoice
        //    address gets mislabelled as the service's change.
        loop {
            let job = match &mut self.services[si].kind {
                Kind::Bank { bills, .. } => {
                    if bills.front().map(|b| b.3 <= height).unwrap_or(false) {
                        bills.pop_front()
                    } else {
                        None
                    }
                }
                _ => None,
            };
            let Some((_owner, vendor_si, amount, _)) = job else { break };
            let pay_wallet = match self.services[vendor_si].kind {
                Kind::Vendor { wallet: vw, gateway: Some(g), .. } => match self.services[g].kind {
                    Kind::Gateway { wallet: gw, .. } => gw,
                    _ => vw,
                },
                Kind::Vendor { wallet: vw, gateway: None, .. } => vw,
                _ => break,
            };
            let invoice = self.fresh_address(pay_wallet);
            let sub = subwallets[self.rng.gen_range(0..subwallets.len())];
            let sloppy = self.rng.gen::<f64>() < self.cfg.service_sloppy_change_rate;
            let change = match (sloppy, self.wallets[sub].last_change) {
                (true, Some(prev)) => ChangeTarget::Explicit(prev),
                _ => ChangeTarget::Fresh,
            };
            self.pay(sub, &[(invoice, amount)], change);
        }

        // 3. Withdrawals due this block, paid as peels off the subwallet's
        //    largest output: [user, change]. Sloppy processors occasionally
        //    reuse the previous change address — the super-cluster source.
        loop {
            let job = match &mut self.services[si].kind {
                Kind::Bank { queue, .. } => {
                    if queue.front().map(|w| w.due <= height).unwrap_or(false) {
                        queue.pop_front()
                    } else {
                        None
                    }
                }
                _ => None,
            };
            let Some(job) = job else { break };
            let sub = subwallets[self.rng.gen_range(0..subwallets.len())];
            let to = self.owner_receive_address(job.user);
            let sloppy = self.rng.gen::<f64>() < self.cfg.service_sloppy_change_rate;
            let change = match (sloppy, self.wallets[sub].last_change) {
                (true, Some(prev)) => ChangeTarget::Explicit(prev),
                _ => ChangeTarget::Fresh,
            };
            let before = self.pending.len();
            if self.pay(sub, &[(to, job.amount)], change).is_some() && job.probe {
                // Withdrawal observed: the inputs belong to the service,
                // and so does the non-researcher output (its change).
                let inputs: Vec<OutPoint> =
                    self.pending[before].0.inputs.iter().map(|i| i.prevout).collect();
                for op in inputs {
                    if let Some(addr) = self.outpoint_addr(&op) {
                        self.probe_observations.push(ProbeObservation { address: addr, service: si });
                    }
                }
                let change_addrs: Vec<Address> = self.pending[before]
                    .0
                    .outputs
                    .iter()
                    .map(|o| o.address)
                    .filter(|a| *a != to)
                    .collect();
                for addr in change_addrs {
                    self.probe_observations.push(ProbeObservation { address: addr, service: si });
                }
            }
        }
    }

    fn step_dice(&mut self, si: usize, height: u64) {
        let (wallet, due): (WalletId, Vec<(Address, Amount, u64, bool)>) =
            match &mut self.services[si].kind {
                Kind::Dice { wallet, pending, .. } => {
                    let w = *wallet;
                    let (ready, later): (Vec<_>, Vec<_>) =
                        pending.drain(..).partition(|(_, _, d, _)| *d <= height);
                    *pending = later;
                    (w, ready)
                }
                _ => unreachable!(),
            };
        for (bettor, amount, _, probe) in due {
            // Payout straight back to the bettor's sending address, change
            // back to the house's own (input) address — Satoshi Dice's
            // self-change idiom.
            let before = self.pending.len();
            if self.pay(wallet, &[(bettor, amount)], ChangeTarget::SelfChange).is_some() && probe {
                let inputs: Vec<OutPoint> =
                    self.pending[before].0.inputs.iter().map(|i| i.prevout).collect();
                for op in inputs {
                    if let Some(addr) = self.outpoint_addr(&op) {
                        self.probe_observations.push(ProbeObservation { address: addr, service: si });
                    }
                }
                let change_addrs: Vec<Address> = self.pending[before]
                    .0
                    .outputs
                    .iter()
                    .map(|o| o.address)
                    .filter(|a| *a != bettor)
                    .collect();
                for addr in change_addrs {
                    self.probe_observations.push(ProbeObservation { address: addr, service: si });
                }
            }
        }
    }

    fn step_mix(&mut self, si: usize, height: u64) {
        let (wallet, due): (WalletId, Vec<(Address, Amount, u64)>) =
            match &mut self.services[si].kind {
                Kind::Mix { wallet, pending, .. } => {
                    let w = *wallet;
                    let (ready, later): (Vec<_>, Vec<_>) =
                        pending.drain(..).partition(|(_, _, d)| *d <= height);
                    *pending = later;
                    (w, ready)
                }
                _ => unreachable!(),
            };
        for (to, amount, _) in due {
            // Best effort: if the pool can't cover it, retry next block.
            if self.pay(wallet, &[(to, amount)], ChangeTarget::Fresh).is_none() {
                if let Kind::Mix { pending, .. } = &mut self.services[si].kind {
                    pending.push((to, amount, height + 2));
                }
            }
        }
    }

    fn step_gateway(&mut self, si: usize, height: u64) {
        if height % 6 != 0 {
            return;
        }
        let (wallet, vendors) = match &self.services[si].kind {
            Kind::Gateway { wallet, vendors } => (*wallet, vendors.clone()),
            _ => unreachable!(),
        };
        if vendors.is_empty() {
            return;
        }
        let balance = self.wallets[wallet].balance();
        if balance.to_sat() < 100_000_000 {
            return;
        }
        // Settle the float to a vendor by sweeping received invoice
        // outputs together — the aggregation is what hands Heuristic 1 the
        // evidence linking the gateway's invoice addresses. Settlement goes
        // to the vendor's *stable* settlement address (merchants configured
        // a fixed payout address with their gateway).
        let v = vendors[self.rng.gen_range(0..vendors.len())];
        let vw = match self.services[v].kind {
            Kind::Vendor { wallet, .. } => wallet,
            _ => return,
        };
        let to = self.receive_address(vw, false);
        self.aggregate(wallet, 2, 64, to);
    }

    fn step_vendor(&mut self, si: usize, height: u64) {
        if height % 12 != si as u64 % 12 {
            return;
        }
        let (wallet, settle_bank) = match self.services[si].kind {
            Kind::Vendor { wallet, settle_bank, .. } => (wallet, settle_bank),
            _ => unreachable!(),
        };
        let balance = self.wallets[wallet].balance();
        if balance.to_sat() < 200_000_000 || self.bank_idx.is_empty() {
            return;
        }
        // Settle revenue into the vendor's fixed exchange account by
        // sweeping invoice outputs together — Heuristic 1 evidence for the
        // vendor, and a stable (re-used) deposit destination.
        let b = self.bank_idx[settle_bank % self.bank_idx.len()];
        let owner = self.services[si].owner;
        let Some(deposit_addr) = self.bank_deposit_address(b, owner, Amount::ZERO) else {
            return;
        };
        let before = self.wallets[wallet].balance();
        if self.aggregate(wallet, 2, 64, deposit_addr).is_some() {
            let moved = before.saturating_sub(self.wallets[wallet].balance());
            if let Kind::Bank { balances, .. } = &mut self.services[b].kind {
                let e = balances.entry(owner).or_insert(Amount::ZERO);
                *e = e.checked_add(moved).unwrap();
            }
        }
    }

    fn step_investment(&mut self, si: usize, height: u64) {
        // Ponzi: pay 5% "interest" every 12 blocks until the collapse point
        // (70% of the run), then go silent.
        if height % 12 != 0 || height > self.cfg.blocks * 7 / 10 {
            return;
        }
        let (wallet, investors) = match &self.services[si].kind {
            Kind::Investment { wallet, investors } => (*wallet, investors.clone()),
            _ => unreachable!(),
        };
        for (owner, principal) in investors {
            let interest = Amount::from_sat(principal.to_sat() / 20);
            if interest.to_sat() < DUST * 2 {
                continue;
            }
            let to = self.owner_receive_address(owner);
            // Best effort: Ponzis fail to pay when reserves run dry.
            self.pay(wallet, &[(to, interest)], ChangeTarget::Fresh);
        }
    }

    // ----- researcher probe -----

    fn step_probe(&mut self) {
        // Spread `probe_quota` round-robin visits per service across the
        // whole run (the paper's 344 transactions over §3.1's roster).
        let total_visits = self.services.len() * self.cfg.probe_quota;
        if self.probe_cursor >= total_visits {
            return;
        }
        let interval = (self.cfg.blocks as usize / total_visits.max(1)).max(1);
        let per_block = (total_visits / self.cfg.blocks as usize).max(1);
        if self.height as usize % interval != 0 {
            return;
        }
        let wallet = self.probe_wallet.unwrap();
        for _ in 0..per_block {
            if self.wallets[wallet].balance().to_sat() < 50_000_000 {
                return;
            }
            let si = self.probe_cursor % self.services.len();
            self.probe_cursor += 1;
            self.probe_one(si);
        }
    }

    fn probe_one(&mut self, si: usize) {
        let wallet = self.probe_wallet.unwrap();
        match self.services[si].kind {
            Kind::Pool { .. } => {
                // Mining probes happen passively via payout observation.
            }
            Kind::Bank { .. } => {
                self.user_deposit_into(0, si, true);
                self.user_withdraw(0, true); // queues a probe withdrawal
            }
            Kind::Dice { .. } => self.probe_bet(si),
            Kind::Vendor { .. } => self.probe_purchase(si),
            Kind::Gateway { .. } => {} // observed via vendors that use it
            Kind::Fixed { wallet: fw } => {
                let to = self.fresh_address(fw);
                let amount = Amount::from_sat(30_000_000);
                if self.pay(wallet, &[(to, amount)], ChangeTarget::Fresh).is_some() {
                    self.probe_observations.push(ProbeObservation { address: to, service: si });
                }
            }
            Kind::Mix { wallet: mw, honest, .. } => {
                let to = self.fresh_address(mw);
                let amount = Amount::from_sat(40_000_000);
                if self.pay(wallet, &[(to, amount)], ChangeTarget::Fresh).is_some() {
                    self.probe_observations.push(ProbeObservation { address: to, service: si });
                    if honest {
                        let back = self.fresh_address(wallet);
                        let due = self.height + 4;
                        if let Kind::Mix { pending, .. } = &mut self.services[si].kind {
                            pending.push((back, Amount::from_sat(38_000_000), due));
                        }
                    }
                }
            }
            Kind::Investment { wallet: iw, .. } => {
                let to = self.fresh_address(iw);
                let amount = Amount::from_sat(50_000_000);
                let owner = self.probe_owner.unwrap();
                if self.pay(wallet, &[(to, amount)], ChangeTarget::Fresh).is_some() {
                    self.probe_observations.push(ProbeObservation { address: to, service: si });
                    if let Kind::Investment { investors, .. } = &mut self.services[si].kind {
                        investors.push((owner, amount));
                    }
                }
            }
            Kind::Misc { wallet: ow } => {
                let to = self.fresh_address(ow);
                let amount = Amount::from_sat(10_000_000);
                if self.pay(wallet, &[(to, amount)], ChangeTarget::Fresh).is_some() {
                    self.probe_observations.push(ProbeObservation { address: to, service: si });
                }
            }
        }
    }

    fn probe_bet(&mut self, si: usize) {
        let wallet = self.probe_wallet.unwrap();
        let (bet_address, _) = match &self.services[si].kind {
            Kind::Dice { bet_address, wallet, .. } => (*bet_address, *wallet),
            _ => return,
        };
        let amount = Amount::from_sat(20_000_000);
        let before = self.pending.len();
        if self.pay(wallet, &[(bet_address, amount)], ChangeTarget::Fresh).is_some() {
            self.probe_observations.push(ProbeObservation { address: bet_address, service: si });
            let op = self.pending[before].0.inputs[0].prevout;
            if let Some(bettor) = self.outpoint_addr(&op) {
                let due = self.height + 1;
                if let Kind::Dice { pending, .. } = &mut self.services[si].kind {
                    pending.push((bettor, Amount::from_sat(10_000_000), due, true));
                }
            }
        }
    }

    fn probe_purchase(&mut self, si: usize) {
        let wallet = self.probe_wallet.unwrap();
        let (pay_service, pay_wallet) = match self.services[si].kind {
            Kind::Vendor { wallet: vw, gateway: Some(g), .. } => match self.services[g].kind {
                Kind::Gateway { wallet: gw, .. } => (g, gw),
                _ => (si, vw),
            },
            Kind::Vendor { wallet: vw, gateway: None, .. } => (si, vw),
            _ => return,
        };
        let to = self.fresh_address(pay_wallet);
        let amount = Amount::from_sat(25_000_000);
        if self.pay(wallet, &[(to, amount)], ChangeTarget::Fresh).is_some() {
            self.probe_observations.push(ProbeObservation { address: to, service: pay_service });
        }
    }

    // ----- accessors for scripts and analysis -----

    /// Current block height being constructed.
    pub fn current_height(&self) -> u64 {
        self.height
    }

    /// The wallet id of a service's primary wallet.
    pub fn service_wallet(&self, si: usize) -> WalletId {
        match &self.services[si].kind {
            Kind::Pool { wallet, .. }
            | Kind::Fixed { wallet }
            | Kind::Vendor { wallet, .. }
            | Kind::Gateway { wallet, .. }
            | Kind::Dice { wallet, .. }
            | Kind::Mix { wallet, .. }
            | Kind::Investment { wallet, .. }
            | Kind::Misc { wallet } => *wallet,
            Kind::Bank { subwallets, .. } => subwallets[0],
        }
    }

    /// Looks up a service by name.
    pub fn service_index(&self, name: &str) -> Option<usize> {
        self.services.iter().position(|s| s.name == name)
    }

    /// Number of ordinary users.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// The wallet id of user `ui`.
    pub fn user_wallet_id(&self, ui: usize) -> WalletId {
        self.user_wallet[ui]
    }

    /// A receive address for user `ui`, honouring their reuse habits.
    pub fn user_receive_address(&mut self, ui: usize) -> Address {
        let fresh = self.user_traits[ui].fresh_receive;
        let w = self.user_wallet[ui];
        self.receive_address(w, fresh)
    }

    /// A uniform random draw in `0..n` from the engine's seeded RNG
    /// (used by scripts so their choices stay deterministic per seed).
    pub fn roll(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }

    /// Registers a brand-new owner with a wallet (used by theft scripts).
    pub fn new_actor(&mut self, name: &str, category: Category) -> (OwnerId, WalletId) {
        let owner = self.gt.new_owner(name, category);
        let wallet = self.new_wallet(owner);
        (owner, wallet)
    }

    /// Read access to a wallet.
    pub fn wallet(&self, id: WalletId) -> &SimWallet {
        &self.wallets[id]
    }

    /// Mutable access to a wallet (scripts move funds around).
    pub fn wallet_mut(&mut self, id: WalletId) -> &mut SimWallet {
        &mut self.wallets[id]
    }

    /// The deposit address for `owner`'s account at a bank, crediting the
    /// account by `amount`. Accounts keep one long-lived deposit address
    /// (the 2013-era idiom); the first deposit mints it.
    pub fn bank_deposit_address(
        &mut self,
        bank_si: usize,
        owner: OwnerId,
        amount: Amount,
    ) -> Option<Address> {
        let existing = match &mut self.services[bank_si].kind {
            Kind::Bank { balances, deposit_addrs, .. } => {
                let e = balances.entry(owner).or_insert(Amount::ZERO);
                *e = e.checked_add(amount).unwrap();
                deposit_addrs.get(&owner).copied()
            }
            _ => return None,
        };
        if let Some(a) = existing {
            return Some(a);
        }
        // New account: assign a subwallet round-robin and mint the address.
        let sub = match &mut self.services[bank_si].kind {
            Kind::Bank { subwallets, rr, .. } => {
                let w = subwallets[*rr % subwallets.len()];
                *rr += 1;
                w
            }
            _ => unreachable!(),
        };
        let a = self.fresh_address(sub);
        if let Kind::Bank { deposit_addrs, .. } = &mut self.services[bank_si].kind {
            deposit_addrs.insert(owner, a);
        }
        Some(a)
    }

    /// Creates an additional wallet for an existing owner (e.g. the Silk
    /// Road hot wallet, separate from its vendor revenue wallet).
    pub fn new_wallet_for(&mut self, owner: OwnerId) -> WalletId {
        self.new_wallet(owner)
    }

    /// Splits the wallet's largest output into `k` equal fresh outputs
    /// (scripted "split" movement). Returns the txid.
    pub fn split(&mut self, from: WalletId, k: usize) -> Option<Hash256> {
        self.split_weighted(from, &vec![1; k.max(1)])
    }

    /// Splits the wallet's largest output into outputs proportional to
    /// `weights`, each to a fresh address of the same wallet.
    pub fn split_weighted(&mut self, from: WalletId, weights: &[u64]) -> Option<Hash256> {
        assert!(!weights.is_empty());
        let utxo = self.wallets[from].take_largest()?;
        let fee = Amount::from_sat(self.cfg.fee_sat.min(utxo.value.to_sat() / 2));
        let pot = utxo.value.checked_sub(fee)?.to_sat();
        let total_w: u64 = weights.iter().sum();
        if total_w == 0 || pot / total_w == 0 {
            // Not splittable; put it back.
            self.wallets[from].credit(utxo);
            return None;
        }
        let mut outs: Vec<(Address, Amount)> = Vec::with_capacity(weights.len());
        let mut assigned = 0u64;
        for (i, &w) in weights.iter().enumerate() {
            let v = if i + 1 == weights.len() {
                pot - assigned
            } else {
                pot * w / total_w
            };
            assigned += v;
            let a = self.fresh_address(from);
            outs.push((a, Amount::from_sat(v)));
        }
        let tx = Transaction {
            version: 1,
            inputs: vec![TxIn::unsigned(utxo.outpoint)],
            outputs: outs
                .iter()
                .map(|&(address, value)| TxOut { value, address })
                .collect(),
            lock_time: 0,
        };
        let txid = tx.txid();
        for (vout, &(address, value)) in outs.iter().enumerate() {
            self.wallets[from].credit(OwnedUtxo {
                outpoint: OutPoint { txid, vout: vout as u32 },
                value,
                address,
            });
        }
        self.pending_fees = self.pending_fees.checked_add(fee).unwrap();
        self.queue(tx, txid);
        Some(txid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_economy_runs_and_validates() {
        let eco = Economy::run(SimConfig::tiny());
        let rc = eco.chain.resolved();
        assert_eq!(eco.chain.height(), Some(SimConfig::tiny().blocks - 1));
        assert!(rc.tx_count() > SimConfig::tiny().blocks as usize, "has non-coinbase txs");
        assert!(rc.address_count() > 100);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = Economy::run(SimConfig::tiny());
        let b = Economy::run(SimConfig::tiny());
        assert_eq!(a.chain.tip_hash(), b.chain.tip_hash());
        // The tip hash commits to every header and, through the merkle
        // roots, to every transaction byte (witnesses included): a change
        // that moves any encoded byte of the chain moves this pin.
        assert_eq!(
            a.chain.tip_hash().to_hex(),
            "c67a5c0a9e9871887d6aa4346c18ecdf76e72d8af0c0714e2fd6256de9a18b1f"
        );
        let mut cfg = SimConfig::tiny();
        cfg.seed ^= 1;
        let c = Economy::run(cfg);
        assert_ne!(a.chain.tip_hash(), c.chain.tip_hash());
    }

    #[test]
    fn sha256_compressions_per_tx_are_bounded() {
        // Per transaction: its txid when the engine makes it and again when
        // the chain accepts it, its share of two merkle roots (`BlockBuilder`'s
        // and validation's), and the addresses it pays. The tiny economy
        // costs exactly 32,057 compressions for 2,280 transactions (14.06
        // each); hashing every txid at each use cost 64,554 (28.31).
        let before = fistful_crypto::sha256::compressions();
        let eco = Economy::run(SimConfig::tiny());
        let used = fistful_crypto::sha256::compressions() - before;
        let per_tx = used as f64 / eco.chain.resolved().tx_count() as f64;
        assert!(per_tx <= 14.1, "{used} compressions, {per_tx:.2} per tx");
    }

    #[test]
    fn every_address_has_ground_truth_owner() {
        let eco = Economy::run(SimConfig::tiny());
        let rc = eco.chain.resolved();
        for id in 0..rc.address_count() as u32 {
            let addr = rc.address(id);
            assert!(
                eco.gt.owner_of(&addr).is_some(),
                "address {addr} lacks an owner"
            );
        }
    }

    #[test]
    fn supply_conservation() {
        let eco = Economy::run(SimConfig::tiny());
        // Total unspent value == sum of claimed coinbase values (subsidy+fees
        // recirculate; nothing is created or destroyed beyond that).
        let expected: Amount = (0..SimConfig::tiny().blocks)
            .map(|h| eco.chain.params().subsidy_at(h))
            .sum::<Amount>()
            .checked_add(Amount::ZERO)
            .unwrap();
        let total = eco.chain.resolved().unspent_value();
        // Fees recirculate into coinbases, so totals match subsidies exactly.
        assert_eq!(total, expected);
    }

    #[test]
    fn ground_truth_change_outputs_are_real() {
        let eco = Economy::run(SimConfig::tiny());
        let rc = eco.chain.resolved();
        let gt = eco.gt.to_id_space(rc);
        let mut with_change = 0;
        for (t, tx) in rc.txs.iter().enumerate() {
            if let Some(v) = gt.change_vout[t] {
                with_change += 1;
                assert!((v as usize) < tx.outputs.len(), "change vout in range");
                // The change output's owner equals the first input's owner.
                let change_owner = gt.owner_of[tx.outputs[v as usize].address as usize];
                let input_owner = gt.owner_of[tx.inputs[0].address as usize];
                assert_eq!(change_owner, input_owner, "change stays with the spender");
            }
        }
        assert!(with_change > 50, "enough change outputs to analyze");
    }

    #[test]
    fn probe_observations_point_at_right_owner() {
        let eco = Economy::run(SimConfig::tiny());
        assert!(!eco.probe_observations.is_empty());
        for obs in &eco.probe_observations {
            let owner = eco.gt.owner_of(&obs.address).unwrap();
            assert_eq!(
                owner, eco.services[obs.service].owner,
                "probe tag for {} points at the wrong owner",
                eco.services[obs.service].name
            );
        }
    }

    #[test]
    fn self_change_rate_visible_in_chain() {
        let eco = Economy::run(SimConfig::tiny());
        let rc = eco.chain.resolved();
        let mut self_change = 0usize;
        let mut spends = 0usize;
        for tx in &rc.txs {
            if tx.is_coinbase {
                continue;
            }
            spends += 1;
            let ins: std::collections::HashSet<_> =
                tx.inputs.iter().map(|i| i.address).collect();
            if tx.outputs.iter().any(|o| ins.contains(&o.address)) {
                self_change += 1;
            }
        }
        let rate = self_change as f64 / spends as f64;
        assert!(rate > 0.05, "self-change present (rate {rate:.3})");
        assert!(rate < 0.6, "self-change not dominant (rate {rate:.3})");
    }
}
