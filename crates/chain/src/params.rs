//! Consensus parameters.
//!
//! [`Params::regtest`] keeps mainnet's money schedule as the paper saw it
//! (50 BTC subsidy halving to 25 BTC at height 210,000) with no coinbase
//! maturity wait, for fast simulation.

use crate::amount::Amount;

/// Chain-wide consensus parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Params {
    /// Initial block subsidy.
    pub initial_subsidy: Amount,
    /// Blocks between subsidy halvings (210,000 on mainnet).
    pub halving_interval: u64,
    /// Blocks a coinbase output must wait before being spent
    /// (100 on mainnet).
    pub coinbase_maturity: u64,
    /// Seconds between blocks (for timestamp synthesis).
    pub block_interval_secs: u64,
    /// Unix timestamp of the genesis block.
    pub genesis_time: u64,
}

impl Params {
    /// Fast parameters for tests and large simulations.
    pub fn regtest() -> Params {
        Params {
            initial_subsidy: Amount::from_btc(50),
            halving_interval: 210_000,
            coinbase_maturity: 0,
            block_interval_secs: 600,
            // 2009-01-03, the real genesis date.
            genesis_time: 1_231_006_505,
        }
    }

    /// The block subsidy at `height`, following the halving schedule.
    pub fn subsidy_at(&self, height: u64) -> Amount {
        let halvings = height / self.halving_interval;
        if halvings >= 64 {
            return Amount::ZERO;
        }
        Amount::from_sat(self.initial_subsidy.to_sat() >> halvings)
    }

    /// Synthesized timestamp for a block at `height`.
    pub fn time_at(&self, height: u64) -> u64 {
        self.genesis_time + height * self.block_interval_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subsidy_halving_schedule() {
        let p = Params::regtest();
        assert_eq!(p.subsidy_at(0), Amount::from_btc(50));
        assert_eq!(p.subsidy_at(209_999), Amount::from_btc(50));
        // The halving the paper mentions: 28 Nov 2012, height 210,000.
        assert_eq!(p.subsidy_at(210_000), Amount::from_btc(25));
        assert_eq!(p.subsidy_at(420_000), Amount::from_sat(1_250_000_000)); // 12.5 BTC
        assert_eq!(p.subsidy_at(210_000 * 64), Amount::ZERO);
    }

    #[test]
    fn total_supply_below_cap() {
        let p = Params::regtest();
        let mut total: u128 = 0;
        for halving in 0..64u64 {
            total += (p.subsidy_at(halving * 210_000).to_sat() as u128) * 210_000;
        }
        assert!(total <= crate::amount::MAX_MONEY as u128);
        // And it should be close to the cap (within one subsidy interval).
        assert!(total > (crate::amount::MAX_MONEY as u128) * 99 / 100);
    }

    #[test]
    fn time_advances_per_block() {
        let p = Params::regtest();
        assert_eq!(p.time_at(0), p.genesis_time);
        assert_eq!(p.time_at(10), p.genesis_time + 6000);
    }
}
