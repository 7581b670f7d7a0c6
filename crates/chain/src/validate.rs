//! Consensus validation of transactions and blocks.

use crate::amount::{Amount, MAX_MONEY};
use crate::block::Block;
use crate::merkle::merkle_root;
use crate::params::Params;
use crate::resolve::ResolvedChain;
use crate::transaction::{OutPoint, Transaction};
use fistful_crypto::hash::{DigestMap, DigestSet, Hash256};

/// What validation reads of an unspent output: its value, and the height
/// and kind of the transaction that created it (for coinbase maturity).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Coin {
    /// The value of the output.
    pub value: Amount,
    /// The height of the block that created it.
    pub height: u64,
    /// True if created by a coinbase.
    pub coinbase: bool,
}

/// Reasons a transaction or block is rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// A transaction has no inputs.
    NoInputs,
    /// A transaction has no outputs.
    NoOutputs,
    /// An output value exceeds `MAX_MONEY` or the outputs overflow.
    OutputValueOutOfRange,
    /// The same outpoint is spent twice within one transaction.
    DuplicateInput(OutPoint),
    /// A non-coinbase transaction has a null-prevout input.
    UnexpectedNullPrevout,
    /// An input spends an outpoint that does not exist or is already spent.
    MissingInput(OutPoint),
    /// Inputs are worth less than outputs.
    InsufficientInputValue {
        /// Total value of the spent inputs.
        inputs: Amount,
        /// Total value of the created outputs.
        outputs: Amount,
    },
    /// A coinbase output is spent before maturity.
    ImmatureCoinbaseSpend {
        /// Height at which the coinbase was created.
        created: u64,
        /// Height at which the spend was attempted.
        spent: u64,
    },
    /// The block has no transactions.
    EmptyBlock,
    /// The first transaction is not a coinbase.
    FirstNotCoinbase,
    /// A non-first transaction is a coinbase.
    ExtraCoinbase,
    /// The header's merkle root does not match the transactions.
    BadMerkleRoot,
    /// The header does not connect to the current tip.
    BadPrevHash {
        /// The tip hash the header was required to reference.
        expected: Hash256,
        /// The previous-block hash the header actually carried.
        got: Hash256,
    },
    /// The coinbase claims more than subsidy + fees.
    ExcessiveCoinbase {
        /// Value the coinbase outputs claimed.
        claimed: Amount,
        /// Maximum allowed: block subsidy plus collected fees.
        allowed: Amount,
    },
    /// Two transactions in the same block spend the same outpoint.
    DoubleSpendInBlock(OutPoint),
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::NoInputs => write!(f, "transaction has no inputs"),
            ValidationError::NoOutputs => write!(f, "transaction has no outputs"),
            ValidationError::OutputValueOutOfRange => write!(f, "output value out of range"),
            ValidationError::DuplicateInput(op) => write!(f, "duplicate input {op:?}"),
            ValidationError::UnexpectedNullPrevout => write!(f, "null prevout outside coinbase"),
            ValidationError::MissingInput(op) => write!(f, "missing input {op:?}"),
            ValidationError::InsufficientInputValue { inputs, outputs } => {
                write!(f, "inputs {inputs} < outputs {outputs}")
            }
            ValidationError::ImmatureCoinbaseSpend { created, spent } => {
                write!(f, "coinbase from height {created} spent at {spent}")
            }
            ValidationError::EmptyBlock => write!(f, "block has no transactions"),
            ValidationError::FirstNotCoinbase => write!(f, "first tx is not a coinbase"),
            ValidationError::ExtraCoinbase => write!(f, "unexpected extra coinbase"),
            ValidationError::BadMerkleRoot => write!(f, "merkle root mismatch"),
            ValidationError::BadPrevHash { expected, got } => {
                write!(f, "prev hash {got} does not match tip {expected}")
            }
            ValidationError::ExcessiveCoinbase { claimed, allowed } => {
                write!(f, "coinbase claims {claimed}, allowed {allowed}")
            }
            ValidationError::DoubleSpendInBlock(op) => {
                write!(f, "double spend within block: {op:?}")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Context-free ("syntactic") transaction checks.
pub fn check_transaction(tx: &Transaction) -> Result<(), ValidationError> {
    if tx.inputs.is_empty() {
        return Err(ValidationError::NoInputs);
    }
    if tx.outputs.is_empty() {
        return Err(ValidationError::NoOutputs);
    }
    let mut total = Amount::ZERO;
    for out in &tx.outputs {
        if out.value.to_sat() > MAX_MONEY {
            return Err(ValidationError::OutputValueOutOfRange);
        }
        total = total
            .checked_add(out.value)
            .filter(|t| t.to_sat() <= MAX_MONEY)
            .ok_or(ValidationError::OutputValueOutOfRange)?;
    }
    let mut seen = DigestSet::with_capacity_and_hasher(tx.inputs.len(), Default::default());
    for input in &tx.inputs {
        if !tx.is_coinbase() {
            if input.prevout.is_null() {
                return Err(ValidationError::UnexpectedNullPrevout);
            }
            if !seen.insert(input.prevout) {
                return Err(ValidationError::DuplicateInput(input.prevout));
            }
        }
    }
    Ok(())
}

/// Contextual transaction checks against the unspent outputs `lookup`
/// finds. Returns the fee.
pub(crate) fn check_tx_inputs(
    tx: &Transaction,
    lookup: impl Fn(&OutPoint) -> Option<Coin>,
    height: u64,
    params: &Params,
) -> Result<Amount, ValidationError> {
    if tx.is_coinbase() {
        return Ok(Amount::ZERO);
    }
    let mut input_value = Amount::ZERO;
    for input in &tx.inputs {
        let entry =
            lookup(&input.prevout).ok_or(ValidationError::MissingInput(input.prevout))?;
        if entry.coinbase && height < entry.height + params.coinbase_maturity {
            return Err(ValidationError::ImmatureCoinbaseSpend {
                created: entry.height,
                spent: height,
            });
        }
        input_value = input_value
            .checked_add(entry.value)
            .ok_or(ValidationError::OutputValueOutOfRange)?;
    }
    let output_value = tx
        .output_value()
        .ok_or(ValidationError::OutputValueOutOfRange)?;
    if input_value < output_value {
        return Err(ValidationError::InsufficientInputValue {
            inputs: input_value,
            outputs: output_value,
        });
    }
    Ok(input_value.checked_sub(output_value).unwrap())
}

/// Full block validation against the current tip and the chain's unspent
/// outputs.
///
/// `txids` holds the id of each of `block.transactions`, in order; the
/// merkle root is recomputed from them. Checks structure, merkle
/// commitment, connection to `prev_hash`, per-transaction rules, in-block
/// double spends and the coinbase value ceiling. Returns total fees.
pub fn check_block(
    block: &Block,
    txids: &[Hash256],
    prev_hash: &Hash256,
    chain: &ResolvedChain,
    height: u64,
    params: &Params,
) -> Result<Amount, ValidationError> {
    assert_eq!(txids.len(), block.transactions.len(), "one txid per transaction");
    if block.transactions.is_empty() {
        return Err(ValidationError::EmptyBlock);
    }
    if !block.transactions[0].is_coinbase() {
        return Err(ValidationError::FirstNotCoinbase);
    }
    if block.transactions[1..].iter().any(|t| t.is_coinbase()) {
        return Err(ValidationError::ExtraCoinbase);
    }
    if block.header.merkle_root != merkle_root(txids) {
        return Err(ValidationError::BadMerkleRoot);
    }
    if block.header.prev_hash != *prev_hash {
        return Err(ValidationError::BadPrevHash {
            expected: *prev_hash,
            got: block.header.prev_hash,
        });
    }

    // Per-transaction checks. Later transactions may spend outputs created
    // earlier in the same block, so inputs are looked up in those first and
    // then among the chain's unspent outputs. An outpoint already spent in
    // this block never gets that far: `spent_in_block` rejects the second
    // spend before the lookup.
    let mut created: DigestMap<OutPoint, Coin> = DigestMap::default();
    let mut spent_in_block: DigestSet<OutPoint> = DigestSet::default();
    let mut total_fees = Amount::ZERO;
    for (tx, &txid) in block.transactions.iter().zip(txids) {
        check_transaction(tx)?;
        if !tx.is_coinbase() {
            for input in &tx.inputs {
                if !spent_in_block.insert(input.prevout) {
                    return Err(ValidationError::DoubleSpendInBlock(input.prevout));
                }
            }
        }
        let lookup = |op: &OutPoint| {
            created.get(op).copied().or_else(|| {
                let (t, out) = chain.unspent(op)?;
                let prev = &chain.txs[t as usize];
                Some(Coin { value: out.value, height: prev.height, coinbase: prev.is_coinbase })
            })
        };
        let fee = check_tx_inputs(tx, lookup, height, params)?;
        total_fees = total_fees
            .checked_add(fee)
            .ok_or(ValidationError::OutputValueOutOfRange)?;
        let coinbase = tx.is_coinbase();
        created.extend(tx.outputs.iter().enumerate().map(|(vout, out)| {
            let coin = Coin { value: out.value, height, coinbase };
            (OutPoint { txid, vout: vout as u32 }, coin)
        }));
    }

    // Coinbase value ceiling: subsidy + fees.
    let allowed = params
        .subsidy_at(height)
        .checked_add(total_fees)
        .ok_or(ValidationError::OutputValueOutOfRange)?;
    let claimed = block.transactions[0]
        .output_value()
        .ok_or(ValidationError::OutputValueOutOfRange)?;
    if claimed > allowed {
        return Err(ValidationError::ExcessiveCoinbase { claimed, allowed });
    }
    Ok(total_fees)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::Address;
    use crate::block::BlockHeader;
    use crate::transaction::{TxIn, TxOut};
    use fistful_crypto::sha256::sha256d;

    fn cb(height: u64, value: Amount) -> Transaction {
        Transaction {
            version: 1,
            inputs: vec![TxIn {
                prevout: OutPoint::null(),
                witness: height.to_le_bytes().to_vec(),
            }],
            outputs: vec![TxOut { value, address: Address::from_seed(height) }],
            lock_time: 0,
        }
    }

    fn block_with(txs: Vec<Transaction>, prev: Hash256, time: u64) -> Block {
        let mut b = Block {
            header: BlockHeader {
                version: 1,
                prev_hash: prev,
                merkle_root: Hash256::ZERO,
                time,
                nonce: 0,
            },
            transactions: txs,
        };
        b.header.merkle_root = b.computed_merkle_root();
        b
    }

    fn params() -> Params {
        Params::regtest()
    }

    fn txids(block: &Block) -> Vec<Hash256> {
        block.transactions.iter().map(Transaction::txid).collect()
    }

    #[test]
    fn syntactic_rules() {
        let mut tx = cb(0, Amount::from_btc(50));
        assert!(check_transaction(&tx).is_ok());
        tx.outputs.clear();
        assert_eq!(check_transaction(&tx), Err(ValidationError::NoOutputs));
        let no_inputs = Transaction { version: 1, inputs: vec![], outputs: vec![], lock_time: 0 };
        assert_eq!(check_transaction(&no_inputs), Err(ValidationError::NoInputs));
    }

    #[test]
    fn rejects_duplicate_inputs() {
        let op = OutPoint { txid: sha256d(b"x"), vout: 0 };
        let tx = Transaction {
            version: 1,
            inputs: vec![TxIn::unsigned(op), TxIn::unsigned(op)],
            outputs: vec![TxOut { value: Amount(1), address: Address::from_seed(1) }],
            lock_time: 0,
        };
        assert_eq!(check_transaction(&tx), Err(ValidationError::DuplicateInput(op)));
    }

    #[test]
    fn rejects_oversized_output() {
        let tx = Transaction {
            version: 1,
            inputs: vec![TxIn::unsigned(OutPoint { txid: sha256d(b"x"), vout: 0 })],
            outputs: vec![TxOut { value: Amount(MAX_MONEY + 1), address: Address::from_seed(1) }],
            lock_time: 0,
        };
        assert_eq!(check_transaction(&tx), Err(ValidationError::OutputValueOutOfRange));
    }

    #[test]
    fn good_block_accepted() {
        let p = params();
        let chain = ResolvedChain::new();
        let b = block_with(vec![cb(0, Amount::from_btc(50))], Hash256::ZERO, p.time_at(0));
        assert_eq!(check_block(&b, &txids(&b), &Hash256::ZERO, &chain, 0, &p), Ok(Amount::ZERO));
    }

    #[test]
    fn rejects_bad_merkle() {
        let p = params();
        let mut b = block_with(vec![cb(0, Amount::from_btc(50))], Hash256::ZERO, p.time_at(0));
        b.header.merkle_root = sha256d(b"wrong");
        assert_eq!(
            check_block(&b, &txids(&b), &Hash256::ZERO, &ResolvedChain::new(), 0, &p),
            Err(ValidationError::BadMerkleRoot)
        );
    }

    #[test]
    fn rejects_excessive_coinbase() {
        let p = params();
        let b = block_with(vec![cb(0, Amount::from_btc(51))], Hash256::ZERO, p.time_at(0));
        assert!(matches!(
            check_block(&b, &txids(&b), &Hash256::ZERO, &ResolvedChain::new(), 0, &p),
            Err(ValidationError::ExcessiveCoinbase { .. })
        ));
    }

    #[test]
    fn rejects_wrong_prev_hash() {
        let p = params();
        let b = block_with(vec![cb(0, Amount::from_btc(50))], sha256d(b"fork"), p.time_at(0));
        assert!(matches!(
            check_block(&b, &txids(&b), &Hash256::ZERO, &ResolvedChain::new(), 0, &p),
            Err(ValidationError::BadPrevHash { .. })
        ));
    }

    #[test]
    fn rejects_first_not_coinbase_and_extra_coinbase() {
        let p = params();
        let mut chain = ResolvedChain::new();
        let funding = cb(0, Amount::from_btc(50));
        chain.add_tx(&funding, funding.txid(), 0, 0);
        let spend = Transaction {
            version: 1,
            inputs: vec![TxIn::unsigned(OutPoint { txid: funding.txid(), vout: 0 })],
            outputs: vec![TxOut { value: Amount::from_btc(50), address: Address::from_seed(9) }],
            lock_time: 0,
        };
        let b = block_with(vec![spend.clone()], Hash256::ZERO, p.time_at(1));
        assert_eq!(
            check_block(&b, &txids(&b), &Hash256::ZERO, &chain, 1, &p),
            Err(ValidationError::FirstNotCoinbase)
        );
        let b2 = block_with(vec![cb(1, Amount::from_btc(50)), cb(2, Amount::from_btc(50))],
                            Hash256::ZERO, p.time_at(1));
        assert_eq!(
            check_block(&b2, &txids(&b2), &Hash256::ZERO, &chain, 1, &p),
            Err(ValidationError::ExtraCoinbase)
        );
    }

    #[test]
    fn spend_within_block_allowed_double_spend_rejected() {
        let p = params();
        let mut chain = ResolvedChain::new();
        let funding = cb(0, Amount::from_btc(50));
        chain.add_tx(&funding, funding.txid(), 0, 0);
        let op = OutPoint { txid: funding.txid(), vout: 0 };
        let spend1 = Transaction {
            version: 1,
            inputs: vec![TxIn::unsigned(op)],
            outputs: vec![TxOut { value: Amount::from_btc(50), address: Address::from_seed(2) }],
            lock_time: 0,
        };
        // Chained spend of spend1's output inside the same block: allowed.
        let spend2 = Transaction {
            version: 1,
            inputs: vec![TxIn::unsigned(OutPoint { txid: spend1.txid(), vout: 0 })],
            outputs: vec![TxOut { value: Amount::from_btc(50), address: Address::from_seed(3) }],
            lock_time: 0,
        };
        let good = block_with(
            vec![cb(1, Amount::from_btc(50)), spend1.clone(), spend2],
            Hash256::ZERO,
            p.time_at(1),
        );
        assert!(check_block(&good, &txids(&good), &Hash256::ZERO, &chain, 1, &p).is_ok());

        // Same outpoint spent by two txs: rejected.
        let conflict = Transaction {
            version: 1,
            inputs: vec![TxIn::unsigned(op)],
            outputs: vec![TxOut { value: Amount::from_btc(50), address: Address::from_seed(4) }],
            lock_time: 0,
        };
        let bad = block_with(
            vec![cb(1, Amount::from_btc(50)), spend1, conflict],
            Hash256::ZERO,
            p.time_at(1),
        );
        assert_eq!(
            check_block(&bad, &txids(&bad), &Hash256::ZERO, &chain, 1, &p),
            Err(ValidationError::DoubleSpendInBlock(op))
        );
    }

    #[test]
    fn fees_flow_to_coinbase_ceiling() {
        let p = params();
        let mut chain = ResolvedChain::new();
        let funding = cb(0, Amount::from_btc(50));
        chain.add_tx(&funding, funding.txid(), 0, 0);
        // Spend 50, output 49 → fee 1.
        let spend = Transaction {
            version: 1,
            inputs: vec![TxIn::unsigned(OutPoint { txid: funding.txid(), vout: 0 })],
            outputs: vec![TxOut { value: Amount::from_btc(49), address: Address::from_seed(2) }],
            lock_time: 0,
        };
        // Coinbase claims subsidy + fee = 51: allowed.
        let b = block_with(vec![cb(1, Amount::from_btc(51)), spend.clone()], Hash256::ZERO,
                           p.time_at(1));
        assert_eq!(check_block(&b, &txids(&b), &Hash256::ZERO, &chain, 1, &p), Ok(Amount::from_btc(1)));
        // Claiming 52 is rejected.
        let b2 = block_with(vec![cb(1, Amount::from_btc(52)), spend], Hash256::ZERO, p.time_at(1));
        assert!(matches!(
            check_block(&b2, &txids(&b2), &Hash256::ZERO, &chain, 1, &p),
            Err(ValidationError::ExcessiveCoinbase { .. })
        ));
    }

    #[test]
    fn coinbase_maturity_enforced() {
        let mut p = params();
        p.coinbase_maturity = 100;
        let funding = cb(0, Amount::from_btc(50));
        let coin = Coin { value: Amount::from_btc(50), height: 0, coinbase: true };
        let spend = Transaction {
            version: 1,
            inputs: vec![TxIn::unsigned(OutPoint { txid: funding.txid(), vout: 0 })],
            outputs: vec![TxOut { value: Amount::from_btc(50), address: Address::from_seed(2) }],
            lock_time: 0,
        };
        assert!(matches!(
            check_tx_inputs(&spend, |_| Some(coin), 50, &p),
            Err(ValidationError::ImmatureCoinbaseSpend { .. })
        ));
        assert!(check_tx_inputs(&spend, |_| Some(coin), 100, &p).is_ok());
    }

    fn spend_of(prevout: OutPoint, value: Amount, to: u64) -> Transaction {
        Transaction {
            version: 1,
            inputs: vec![TxIn::unsigned(prevout)],
            outputs: vec![TxOut { value, address: Address::from_seed(to) }],
            lock_time: 0,
        }
    }

    #[test]
    fn output_created_later_in_the_block_is_missing() {
        let p = params();
        let mut chain = ResolvedChain::new();
        let funding = cb(0, Amount::from_btc(50));
        chain.add_tx(&funding, funding.txid(), 0, 0);
        let first = spend_of(OutPoint { txid: funding.txid(), vout: 0 }, Amount::from_btc(50), 2);
        let later = OutPoint { txid: first.txid(), vout: 0 };
        let second = spend_of(later, Amount::from_btc(50), 3);
        // In order, the second spend finds the first's output...
        let ordered = block_with(
            vec![cb(1, Amount::from_btc(50)), first.clone(), second.clone()],
            Hash256::ZERO,
            p.time_at(1),
        );
        assert!(check_block(&ordered, &txids(&ordered), &Hash256::ZERO, &chain, 1, &p).is_ok());
        // ...but ahead of it, the output does not exist yet.
        let reversed =
            block_with(vec![cb(1, Amount::from_btc(50)), second, first], Hash256::ZERO, p.time_at(1));
        assert_eq!(
            check_block(&reversed, &txids(&reversed), &Hash256::ZERO, &chain, 1, &p),
            Err(ValidationError::MissingInput(later))
        );
    }

    #[test]
    fn same_block_coinbase_spend_respects_maturity() {
        let mut p = params();
        let coinbase = cb(1, Amount::from_btc(50));
        let spend = spend_of(OutPoint { txid: coinbase.txid(), vout: 0 }, Amount::from_btc(50), 2);
        let b = block_with(vec![coinbase, spend], Hash256::ZERO, p.time_at(1));
        assert!(check_block(&b, &txids(&b), &Hash256::ZERO, &ResolvedChain::new(), 1, &p).is_ok());
        p.coinbase_maturity = 1;
        assert_eq!(
            check_block(&b, &txids(&b), &Hash256::ZERO, &ResolvedChain::new(), 1, &p),
            Err(ValidationError::ImmatureCoinbaseSpend { created: 1, spent: 1 })
        );
    }

    #[test]
    fn rejected_block_leaves_chain_state_unchanged() {
        use crate::builder::BlockBuilder;
        use crate::chainstate::ChainState;

        let p = params();
        let mut chain = ChainState::new(p.clone());
        let b0 = BlockBuilder::new(&p).coinbase_to(Address::from_seed(1), 0, chain.next_subsidy());
        let b0 = b0.build_on(&chain);
        let funding = OutPoint { txid: b0.transactions[0].txid(), vout: 0 };
        chain.accept_block(b0).unwrap();
        let (tip, txs, supply) =
            (chain.tip_hash(), chain.resolved().tx_count(), chain.resolved().unspent_value());

        // A valid spend (and its in-block child) ahead of an input that does
        // not exist: validation fails only after the overlay has grown.
        let first = spend_of(funding, Amount::from_btc(50), 2);
        let child = spend_of(OutPoint { txid: first.txid(), vout: 0 }, Amount::from_btc(50), 3);
        let orphan = spend_of(OutPoint { txid: Hash256::ZERO, vout: 7 }, Amount::from_btc(1), 4);
        let bad = BlockBuilder::new(&p)
            .coinbase_to(Address::from_seed(1), 1, chain.next_subsidy())
            .tx(first)
            .tx(child)
            .tx(orphan)
            .build_on(&chain);
        assert_eq!(
            chain.accept_block(bad),
            Err(ValidationError::MissingInput(OutPoint { txid: Hash256::ZERO, vout: 7 }))
        );
        assert_eq!(chain.tip_hash(), tip);
        assert_eq!(chain.height(), Some(0));
        assert_eq!(chain.resolved().tx_count(), txs);
        assert_eq!(chain.resolved().unspent_value(), supply);
        assert!(chain.resolved().unspent(&funding).is_some());
    }

    #[test]
    fn output_spent_in_an_earlier_block_is_missing() {
        use crate::builder::BlockBuilder;
        use crate::chainstate::ChainState;

        let p = params();
        let mut chain = ChainState::new(p.clone());
        let miner = Address::from_seed(1);
        let b0 = BlockBuilder::new(&p).coinbase_to(miner, 0, chain.next_subsidy()).build_on(&chain);
        let funding = OutPoint { txid: b0.transactions[0].txid(), vout: 0 };
        chain.accept_block(b0).unwrap();
        let b1 = BlockBuilder::new(&p)
            .coinbase_to(miner, 1, chain.next_subsidy())
            .tx(spend_of(funding, Amount::from_btc(50), 2))
            .build_on(&chain);
        chain.accept_block(b1).unwrap();
        let (tip, txs, supply) =
            (chain.tip_hash(), chain.resolved().tx_count(), chain.resolved().unspent_value());
        assert_eq!(supply, Amount::from_btc(100));

        // A later block spends the same output again.
        let again = BlockBuilder::new(&p)
            .coinbase_to(miner, 2, chain.next_subsidy())
            .tx(spend_of(funding, Amount::from_btc(50), 3))
            .build_on(&chain);
        assert_eq!(chain.accept_block(again), Err(ValidationError::MissingInput(funding)));
        assert_eq!(chain.tip_hash(), tip);
        assert_eq!(chain.height(), Some(1));
        assert_eq!(chain.resolved().tx_count(), txs);
        assert_eq!(chain.resolved().unspent_value(), supply);
    }
}
