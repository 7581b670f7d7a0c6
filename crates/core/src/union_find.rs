//! The disjoint-set (union-find) forest both clustering engines link
//! addresses in: the batch [`Clusterer`](crate::cluster::Clusterer) and the
//! online [`ShardedIngest`](crate::incremental::sharded::ShardedIngest).

/// Disjoint-set forest with path halving and a lowest-root-wins merge:
/// every set's representative is its minimum element, whatever order the
/// merges arrive in. `Default` is the empty structure (grow it with
/// [`UnionFind::grow`]).
#[derive(Clone, Debug, Default)]
pub struct UnionFind {
    parent: Vec<u32>,
    components: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> UnionFind {
        UnionFind { parent: (0..n as u32).collect(), components: n }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets.
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// Grows the structure to `n` elements, adding singletons. A no-op when
    /// `n` is not larger than the current length. The online engine grows
    /// it as new addresses appear epoch by epoch.
    pub fn grow(&mut self, n: usize) {
        let old = self.parent.len();
        if n <= old {
            return;
        }
        self.parent.extend(old as u32..n as u32);
        self.components += n - old;
    }

    /// Finds the representative of `x`, halving the path as it goes.
    pub fn find(&mut self, x: u32) -> u32 {
        let mut x = x;
        loop {
            let p = self.parent[x as usize];
            if p == x {
                return x;
            }
            let gp = self.parent[p as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
    }

    /// Finds without mutating (no compression); useful behind `&self`.
    pub fn find_immutable(&self, mut x: u32) -> u32 {
        loop {
            let p = self.parent[x as usize];
            if p == x {
                return x;
            }
            x = p;
        }
    }

    /// Merges the sets containing `a` and `b`, the smaller root becoming
    /// the parent. Returns `true` if they were previously disjoint.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        let (hi, lo) = if ra > rb { (ra, rb) } else { (rb, ra) };
        self.parent[hi as usize] = lo;
        self.components -= 1;
        true
    }

    /// True if `a` and `b` are in the same set.
    pub fn same(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Produces a dense labelling: element → cluster id in `0..k`, plus the
    /// size of each cluster.
    pub fn assignments(&mut self) -> (Vec<u32>, Vec<u32>) {
        let n = self.parent.len();
        let mut label = vec![u32::MAX; n];
        let mut assignment = vec![0u32; n];
        let mut sizes: Vec<u32> = Vec::new();
        for x in 0..n as u32 {
            let root = self.find(x);
            let slot = &mut label[root as usize];
            if *slot == u32::MAX {
                *slot = sizes.len() as u32;
                sizes.push(0);
            }
            assignment[x as usize] = *slot;
            sizes[*slot as usize] += 1;
        }
        (assignment, sizes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_initially() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.component_count(), 5);
        for i in 0..5 {
            assert_eq!(uf.find(i), i);
        }
    }

    #[test]
    fn union_merges_and_counts() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.union(2, 3));
        assert_eq!(uf.component_count(), 3);
        assert!(uf.same(0, 1));
        assert!(!uf.same(0, 2));
        assert!(uf.union(1, 3));
        assert!(uf.same(0, 2));
        assert_eq!(uf.component_count(), 2);
    }

    #[test]
    fn transitivity_over_long_chain() {
        let n = 10_000;
        let mut uf = UnionFind::new(n);
        for i in 0..n as u32 - 1 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.component_count(), 1);
        assert!(uf.same(0, n as u32 - 1));
    }

    #[test]
    fn assignments_are_dense_and_consistent() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 3);
        uf.union(1, 4);
        let (assign, sizes) = uf.assignments();
        assert_eq!(assign.len(), 6);
        assert_eq!(sizes.iter().sum::<u32>(), 6);
        assert_eq!(assign[0], assign[3]);
        assert_eq!(assign[1], assign[4]);
        assert_ne!(assign[0], assign[1]);
        assert_eq!(sizes.len(), 4); // {0,3} {1,4} {2} {5}
        // Labels are dense 0..k.
        let max = *assign.iter().max().unwrap();
        assert_eq!(max as usize + 1, sizes.len());
    }

    #[test]
    fn grow_adds_singletons_preserving_merges() {
        let mut uf = UnionFind::new(3);
        uf.union(0, 1);
        assert_eq!(uf.component_count(), 2);
        uf.grow(6);
        assert_eq!(uf.len(), 6);
        assert_eq!(uf.component_count(), 5);
        assert!(uf.same(0, 1));
        for x in 3..6 {
            assert_eq!(uf.find(x), x);
        }
        // Growing smaller or equal is a no-op.
        uf.grow(2);
        assert_eq!(uf.len(), 6);
        // New elements merge normally.
        assert!(uf.union(1, 5));
        assert!(uf.same(0, 5));
    }

    #[test]
    fn union_representative_is_set_minimum() {
        // Same edges in three different orders: the representative of every
        // element must come out as its set's minimum each time.
        let edge_orders: [&[(u32, u32)]; 3] = [
            &[(5, 2), (2, 7), (1, 9), (9, 3)],
            &[(9, 3), (1, 9), (2, 7), (5, 2)],
            &[(2, 7), (9, 3), (5, 2), (1, 9)],
        ];
        for edges in edge_orders {
            let mut uf = UnionFind::new(10);
            for &(a, b) in edges {
                uf.union(a, b);
            }
            for x in [2, 5, 7] {
                assert_eq!(uf.find(x), 2);
            }
            for x in [1, 3, 9] {
                assert_eq!(uf.find(x), 1);
            }
            assert_eq!(uf.component_count(), 10 - 4);
        }
    }
}
