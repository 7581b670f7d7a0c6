//! Ground truth: who really owns every address, and which output of every
//! transaction is really the change.
//!
//! This is the simulator's superpower over the real 2013 block chain: the
//! paper could only estimate error rates by watching behaviour over time,
//! while we can score the heuristics exactly.

use crate::entity::{Category, OwnerId, OwnerInfo};
use fistful_chain::address::Address;
use fistful_chain::resolve::ResolvedChain;
use fistful_crypto::hash::{DigestMap, Hash256};

/// Ground-truth registry, keyed by concrete addresses and txids while the
/// simulation runs; convert to dense id space with
/// [`GroundTruth::to_id_space`] afterwards.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// All owners.
    pub owners: Vec<OwnerInfo>,
    owner_of_addr: DigestMap<Address, OwnerId>,
    true_change: DigestMap<Hash256, u32>,
}

impl GroundTruth {
    /// An empty registry.
    pub fn new() -> GroundTruth {
        GroundTruth::default()
    }

    /// Registers a new owner and returns its id.
    pub fn new_owner(&mut self, name: impl Into<String>, category: Category) -> OwnerId {
        let id = self.owners.len() as OwnerId;
        self.owners.push(OwnerInfo { name: name.into(), category });
        id
    }

    /// Records that `addr` belongs to `owner`. Panics if the address is
    /// already claimed by a different owner (addresses are never shared).
    pub fn register(&mut self, addr: Address, owner: OwnerId) {
        if let Some(prev) = self.owner_of_addr.insert(addr, owner) {
            assert_eq!(prev, owner, "address registered to two owners");
        }
    }

    /// The true owner of an address, if known.
    pub fn owner_of(&self, addr: &Address) -> Option<OwnerId> {
        self.owner_of_addr.get(addr).copied()
    }

    /// Metadata for an owner.
    pub fn owner(&self, id: OwnerId) -> &OwnerInfo {
        &self.owners[id as usize]
    }

    /// Records the true change output of a transaction.
    pub fn note_change(&mut self, txid: Hash256, vout: u32) {
        self.true_change.insert(txid, vout);
    }

    /// The true change output of a transaction, if it has one.
    pub fn change_of(&self, txid: &Hash256) -> Option<u32> {
        self.true_change.get(txid).copied()
    }

    /// Number of registered addresses.
    pub fn address_count(&self) -> usize {
        self.owner_of_addr.len()
    }

    /// Owners of a given category.
    pub fn owners_in(&self, category: Category) -> Vec<OwnerId> {
        (0..self.owners.len() as OwnerId)
            .filter(|&o| self.owners[o as usize].category == category)
            .collect()
    }

    /// Converts to dense id space aligned with a resolved chain.
    pub fn to_id_space(&self, chain: &ResolvedChain) -> GroundTruthIds {
        let mut owner_of = vec![None; chain.address_count()];
        for (addr, owner) in &self.owner_of_addr {
            if let Some(id) = chain.address_id(addr) {
                owner_of[id as usize] = Some(*owner);
            }
        }
        let mut change_vout = vec![None; chain.tx_count()];
        for (t, tx) in chain.txs.iter().enumerate() {
            change_vout[t] = self.true_change.get(&tx.txid).copied();
        }
        GroundTruthIds { owner_of, change_vout, owners: self.owners.clone() }
    }
}

/// Ground truth in dense id space (aligned with a [`ResolvedChain`]).
#[derive(Debug, Clone)]
pub struct GroundTruthIds {
    /// True owner per [`AddressId`](fistful_chain::resolve::AddressId).
    pub owner_of: Vec<Option<OwnerId>>,
    /// True change vout per [`TxId`](fistful_chain::resolve::TxId).
    pub change_vout: Vec<Option<u32>>,
    /// Owner metadata (indexed by `OwnerId`).
    pub owners: Vec<OwnerInfo>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_registry() {
        let mut gt = GroundTruth::new();
        let gox = gt.new_owner("Mt. Gox", Category::Exchange);
        let user = gt.new_owner("user-0", Category::User);
        assert_eq!(gt.owner(gox).name, "Mt. Gox");
        let a = Address::from_seed(1);
        gt.register(a, gox);
        gt.register(a, gox); // idempotent
        assert_eq!(gt.owner_of(&a), Some(gox));
        assert_eq!(gt.owner_of(&Address::from_seed(2)), None);
        assert_eq!(gt.owners_in(Category::Exchange), vec![gox]);
        assert_eq!(gt.owners_in(Category::User), vec![user]);
    }

    #[test]
    #[should_panic(expected = "two owners")]
    fn double_registration_panics() {
        let mut gt = GroundTruth::new();
        let a = gt.new_owner("a", Category::User);
        let b = gt.new_owner("b", Category::User);
        let addr = Address::from_seed(1);
        gt.register(addr, a);
        gt.register(addr, b);
    }

    #[test]
    fn change_notes() {
        let mut gt = GroundTruth::new();
        let txid = Hash256::from_hex(&"ab".repeat(32)).unwrap();
        assert_eq!(gt.change_of(&txid), None);
        gt.note_change(txid, 1);
        assert_eq!(gt.change_of(&txid), Some(1));
    }
}
