//! Simulation configuration.

/// Tunable parameters of the simulated economy.
///
/// Defaults produce a chain of 65,005 transactions in about 0.5–0.6 s of a
/// release build on a 2-core x86-64 VM — big enough for every experiment's
/// shape to emerge, small enough for tests. The `repro` harness scales
/// `blocks` and `users` up; [`SimConfig::paper_scale`] (1.87 M
/// transactions) takes about 21 s on the same machine.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// RNG seed; everything downstream is deterministic in this.
    pub seed: u64,
    /// Number of blocks to simulate.
    pub blocks: u64,
    /// Number of ordinary users.
    pub users: usize,
    /// Probability a user acts in a given block.
    pub user_activity: f64,
    /// Fraction of user-created transactions that use a self-change address
    /// (the paper measures 23% in the first half of 2013).
    pub self_change_rate: f64,
    /// Fraction of users whose wallet reuses a receiving address instead of
    /// minting fresh ones. High by default: 2012-13 clients displayed one
    /// static receive address (fresh-per-receive arrived with HD wallets).
    pub reuse_receive_rate: f64,
    /// Fraction of users whose wallet sends change to an already-used
    /// receiving address (bad hygiene; a genuine Heuristic 2 error source
    /// the paper's refinements cannot fully remove).
    pub reuse_change_rate: f64,
    /// Probability that a service's withdrawal processor sloppily reuses
    /// the previous change address (the super-cluster generator, §4.2).
    pub service_sloppy_change_rate: f64,
    /// Probability a user pays a vendor *from their wallet-service account*
    /// (the service spends on their behalf — the paper-era Instawallet /
    /// My Wallet pattern that welds service clusters when combined with
    /// sloppy change).
    pub bill_pay_weight: f64,
    /// Relative weight of dice bets among user actions (Satoshi Dice
    /// dominated 2012-13 transaction volume).
    pub dice_weight: f64,
    /// Whether to run the Silk Road `1DkyBEKt` lifecycle script.
    pub enable_silk_road: bool,
    /// Whether to run the Table 3 theft scripts.
    pub enable_thefts: bool,
    /// Whether the researcher probe user transacts with every service
    /// (produces the own-transaction tags of §3.1).
    pub enable_probe: bool,
    /// Probe interactions per service (the paper's 344 transactions over
    /// ~70 services ≈ 4-5 each).
    pub probe_quota: usize,
    /// Number of noisy public tags (§3.2) to synthesize.
    pub public_tags: usize,
    /// Fraction of public tags that are wrong.
    pub public_tag_error_rate: f64,
    /// Fee per transaction, in satoshis.
    pub fee_sat: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0xF157F01,
            blocks: 600,
            users: 120,
            user_activity: 0.55,
            self_change_rate: 0.23,
            reuse_receive_rate: 0.70,
            reuse_change_rate: 0.06,
            service_sloppy_change_rate: 0.05,
            bill_pay_weight: 0.05,
            dice_weight: 0.35,
            enable_silk_road: true,
            enable_thefts: true,
            enable_probe: true,
            probe_quota: 5,
            public_tags: 600,
            public_tag_error_rate: 0.05,
            fee_sat: 10_000,
        }
    }
}

impl SimConfig {
    /// A small, fast configuration for unit tests.
    pub fn tiny() -> SimConfig {
        SimConfig {
            blocks: 120,
            users: 30,
            public_tags: 60,
            ..Default::default()
        }
    }

    /// The full-scale configuration used by the `repro` harness.
    pub fn paper_scale() -> SimConfig {
        SimConfig {
            blocks: 3000,
            users: 600,
            public_tags: 2500,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = SimConfig::default();
        assert!(c.blocks > 0);
        assert!(c.users > 0);
        assert!((0.0..=1.0).contains(&c.user_activity));
        assert!((0.0..=1.0).contains(&c.self_change_rate));
        assert!((0.0..=1.0).contains(&c.public_tag_error_rate));
    }

    #[test]
    fn presets_scale() {
        assert!(SimConfig::tiny().blocks < SimConfig::default().blocks);
        assert!(SimConfig::paper_scale().blocks > SimConfig::default().blocks);
    }
}
