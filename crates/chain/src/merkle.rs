//! Merkle trees over transaction ids, with Bitcoin's duplicate-last-node
//! rule for odd levels.

use fistful_crypto::hash::Hash256;
use fistful_crypto::sha256::sha256d;

/// Computes the merkle root of a list of txids.
///
/// An empty list yields the all-zero hash (only a malformed block has no
/// transactions; validation rejects it separately). A single txid is its own
/// root, as in Bitcoin.
pub fn merkle_root(txids: &[Hash256]) -> Hash256 {
    if txids.is_empty() {
        return Hash256::ZERO;
    }
    let mut level: Vec<Hash256> = txids.to_vec();
    while level.len() > 1 {
        if level.len() % 2 == 1 {
            // Bitcoin duplicates the last node at odd levels.
            level.push(*level.last().unwrap());
        }
        let mut next = Vec::with_capacity(level.len() / 2);
        for pair in level.chunks(2) {
            next.push(hash_pair(&pair[0], &pair[1]));
        }
        level = next;
    }
    level[0]
}

/// Hashes two merkle nodes into their parent.
pub fn hash_pair(left: &Hash256, right: &Hash256) -> Hash256 {
    let mut buf = [0u8; 64];
    buf[..32].copy_from_slice(&left.0);
    buf[32..].copy_from_slice(&right.0);
    sha256d(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Hash256> {
        (0..n).map(|i| sha256d(&(i as u64).to_be_bytes())).collect()
    }

    #[test]
    fn empty_list_is_zero() {
        assert_eq!(merkle_root(&[]), Hash256::ZERO);
    }

    #[test]
    fn single_leaf_is_root() {
        let l = leaves(1);
        assert_eq!(merkle_root(&l), l[0]);
    }

    #[test]
    fn two_leaves() {
        let l = leaves(2);
        assert_eq!(merkle_root(&l), hash_pair(&l[0], &l[1]));
    }

    #[test]
    fn odd_level_duplicates_last() {
        let l = leaves(3);
        let left = hash_pair(&l[0], &l[1]);
        let right = hash_pair(&l[2], &l[2]);
        assert_eq!(merkle_root(&l), hash_pair(&left, &right));
    }

    #[test]
    fn root_depends_on_order() {
        let l = leaves(4);
        let mut swapped = l.clone();
        swapped.swap(0, 1);
        assert_ne!(merkle_root(&l), merkle_root(&swapped));
    }
}
