//! Disjoint-set (union-find) structures.
//!
//! [`UnionFind`] is the sequential workhorse (path halving + union by rank).
//! [`ShardedUnionFind`] partitions elements round-robin across shard-local
//! forests for the sharded ingest pipeline
//! (`crate::incremental::sharded`), reconciling local and cross-shard
//! merges into a canonical global forest at epoch boundaries.

use std::sync::Mutex;

/// Sequential disjoint-set forest with path halving and union by rank.
/// `Default` is the empty structure (grow it with [`UnionFind::grow`]).
#[derive(Clone, Debug, Default)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            components: n,
        }
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
    /// `n` is not larger than the current length. Used by
    /// [`ShardedUnionFind`] as new addresses appear epoch by epoch.
    pub fn grow(&mut self, n: usize) {
        let old = self.parent.len();
        if n <= old {
            return;
        }
        self.parent.extend(old as u32..n as u32);
        self.rank.resize(n, 0);
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

    /// Merges the sets containing `a` and `b`. Returns `true` if they were
    /// previously disjoint.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        self.components -= 1;
        true
    }

    /// Merges like [`union`](Self::union), but with a **lowest-root-wins**
    /// tie-break instead of union by rank: the smaller root becomes the
    /// parent. A forest built exclusively with `union_min` therefore has a
    /// canonical shape property — the representative of every set is its
    /// minimum element — regardless of the order merges arrive in. The
    /// sharded ingest reconcile step relies on this to make cluster
    /// representatives independent of shard count and thread scheduling.
    pub fn union_min(&mut self, a: u32, b: u32) -> bool {
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

/// The cross-shard merge queue: pairs of global element ids whose endpoints
/// live on different shards, batched behind one mutex. Shard workers buffer
/// cross-shard edges locally during a scan and flush them here once per
/// shard per epoch ([`UnionFindShard::flush_outbox`]), so the lock is taken
/// O(shards) times per epoch, not once per edge.
#[derive(Debug, Default)]
pub struct MergeQueue {
    edges: Mutex<Vec<(u32, u32)>>,
}

impl MergeQueue {
    /// Appends a batch of edges, draining `edges`.
    pub fn push_batch(&self, edges: &mut Vec<(u32, u32)>) {
        if !edges.is_empty() {
            self.edges.lock().expect("merge queue poisoned").append(edges);
        }
    }

    fn drain(&self) -> Vec<(u32, u32)> {
        std::mem::take(&mut *self.edges.lock().expect("merge queue poisoned"))
    }
}

/// One shard of a [`ShardedUnionFind`]: the local forest over the elements
/// it owns (`x % shard_count == shard`), a log of successful local merges,
/// and an outbox of cross-shard edges awaiting the merge queue.
///
/// Local elements are stored at index `x / shard_count`, so each shard's
/// memory is proportional to its own share of the element space.
#[derive(Debug, Default)]
pub struct UnionFindShard {
    shard: u32,
    stride: u32,
    local: UnionFind,
    /// Successful local merges since the last reconcile, as global-id pairs.
    /// They form a spanning forest of the shard's own connectivity, which is
    /// all the reconcile step needs to replay it globally.
    merged: Vec<(u32, u32)>,
    /// Cross-shard edges not yet flushed to the merge queue.
    outbox: Vec<(u32, u32)>,
}

impl UnionFindShard {
    /// This shard's index.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// True if this shard owns element `x`.
    pub fn owns(&self, x: u32) -> bool {
        x % self.stride == self.shard
    }

    /// Records the edge `(a, b)`, which must originate from an element this
    /// shard owns (`a`). Both endpoints owned: merged locally (and logged if
    /// the merge succeeded). Endpoint on another shard: buffered in the
    /// outbox for the cross-shard merge queue. The local forest grows on
    /// demand as new elements appear.
    pub fn link(&mut self, a: u32, b: u32) {
        debug_assert!(self.owns(a), "edge must start on its owning shard");
        if a == b {
            return;
        }
        if self.owns(b) {
            let (la, lb) = (a / self.stride, b / self.stride);
            self.local.grow(la.max(lb) as usize + 1);
            if self.local.union(la, lb) {
                self.merged.push((a, b));
            }
        } else {
            self.outbox.push((a, b));
        }
    }

    /// Flushes buffered cross-shard edges into `queue` (one lock
    /// acquisition; a no-op when the outbox is empty). Call at the end of an
    /// epoch scan.
    pub fn flush_outbox(&mut self, queue: &MergeQueue) {
        queue.push_batch(&mut self.outbox);
    }
}

/// A union-find partitioned round-robin across `N` shard-local forests,
/// reconciled into a canonical global forest at epoch boundaries.
///
/// Built for the sharded ingest pipeline (`crate::incremental::sharded`):
/// shard workers run concurrently over disjoint [`UnionFindShard`]s
/// (obtained from [`scan_parts`](Self::scan_parts)), then a single
/// [`reconcile`](Self::reconcile) replays every shard's merge log plus the
/// queued cross-shard edges into the global forest with
/// [`UnionFind::union_min`]. Because a partition is determined by the *set*
/// of edges, not their order, and `union_min` makes every representative
/// the minimum member of its set, the reconciled state is identical for any
/// shard count and any thread interleaving.
#[derive(Debug)]
pub struct ShardedUnionFind {
    locals: Vec<UnionFindShard>,
    global: UnionFind,
    queue: MergeQueue,
}

impl ShardedUnionFind {
    /// Creates an empty structure with `shards` shard-local forests.
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> ShardedUnionFind {
        assert!(shards >= 1, "at least one shard is required");
        ShardedUnionFind {
            locals: (0..shards)
                .map(|s| UnionFindShard {
                    shard: s as u32,
                    stride: shards as u32,
                    ..Default::default()
                })
                .collect(),
            global: UnionFind::default(),
            queue: MergeQueue::default(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.locals.len()
    }

    /// The shard owning element `x`.
    pub fn shard_of(&self, x: u32) -> usize {
        (x as usize) % self.locals.len()
    }

    /// Number of elements in the reconciled global forest.
    pub fn len(&self) -> usize {
        self.global.len()
    }

    /// True if the global forest is empty.
    pub fn is_empty(&self) -> bool {
        self.global.is_empty()
    }

    /// Grows the global forest to `n` elements (shard-local forests grow on
    /// demand as edges touch them).
    pub fn grow(&mut self, n: usize) {
        self.global.grow(n);
    }

    /// Splits into the per-shard forests plus the shared merge queue, for a
    /// concurrent scan: hand each worker one `&mut UnionFindShard` and the
    /// `&MergeQueue`, then call [`reconcile`](Self::reconcile) when all
    /// workers have finished (and flushed their outboxes).
    pub fn scan_parts(&mut self) -> (&mut [UnionFindShard], &MergeQueue) {
        (&mut self.locals, &self.queue)
    }

    /// Replays every shard's merge log and the queued cross-shard edges into
    /// the global forest, returning how many merges actually joined two
    /// global sets. In an H1-only ingest that count telescopes to
    /// `elements − components` over a full run, matching the batch pass
    /// exactly (order-independence of the partition).
    pub fn reconcile(&mut self) -> usize {
        let global = &mut self.global;
        let mut merges = 0;
        let mut apply = |a: u32, b: u32| {
            global.grow(a.max(b) as usize + 1);
            if global.union_min(a, b) {
                merges += 1;
            }
        };
        for shard in &mut self.locals {
            for (a, b) in shard.merged.drain(..) {
                apply(a, b);
            }
        }
        for (a, b) in self.queue.drain() {
            apply(a, b);
        }
        merges
    }

    /// Merges directly in the global forest (lowest-root-wins), growing it
    /// if needed. Used for Heuristic 2 change links, which are decided at
    /// reconcile time and never pass through the shard scan.
    pub fn union_global(&mut self, a: u32, b: u32) -> bool {
        self.global.grow(a.max(b) as usize + 1);
        self.global.union_min(a, b)
    }

    /// The representative of `x` in the reconciled global forest — always
    /// the minimum element of its set, so representatives are comparable
    /// across runs with different shard counts.
    pub fn find(&self, x: u32) -> u32 {
        self.global.find_immutable(x)
    }

    /// True if `a` and `b` are reconciled into the same set.
    pub fn same(&self, a: u32, b: u32) -> bool {
        self.global.find_immutable(a) == self.global.find_immutable(b)
    }

    /// Number of disjoint sets in the global forest.
    pub fn component_count(&self) -> usize {
        self.global.component_count()
    }

    /// Dense labelling of the global forest (see
    /// [`UnionFind::assignments`]).
    pub fn assignments(&mut self) -> (Vec<u32>, Vec<u32>) {
        self.global.assignments()
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
    fn union_min_representative_is_set_minimum() {
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
                uf.union_min(a, b);
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

    #[test]
    fn sharded_matches_sequential_for_every_shard_count() {
        let n = 500usize;
        let edges: Vec<(u32, u32)> = (0..n as u32)
            .map(|i| (i, i.wrapping_mul(6151) % n as u32))
            .collect();
        let mut seq = UnionFind::new(n);
        for &(a, b) in &edges {
            seq.union(a, b);
        }
        let (seq_assign, seq_sizes) = seq.assignments();

        let mut reps: Vec<Vec<u32>> = Vec::new();
        for shards in [1usize, 2, 4, 8] {
            let mut sh = ShardedUnionFind::new(shards);
            sh.grow(n);
            {
                let (locals, queue) = sh.scan_parts();
                for &(a, b) in &edges {
                    // Route each edge through the shard owning its origin.
                    let owner = (a as usize) % shards;
                    locals[owner].link(a, b);
                }
                for shard in locals {
                    shard.flush_outbox(queue);
                }
            }
            sh.reconcile();
            assert_eq!(sh.len(), n);
            // Identical partition ⟹ identical dense assignment.
            let (assign, sizes) = sh.assignments();
            assert_eq!(assign, seq_assign, "{shards} shards");
            assert_eq!(sizes, seq_sizes);
            // And identical raw representatives (the set minimum), because
            // reconcile merges lowest-root-wins.
            let r: Vec<u32> = (0..n as u32).map(|x| sh.find(x)).collect();
            for (x, &rep) in r.iter().enumerate() {
                assert!(rep as usize <= x, "representative is the set minimum");
            }
            reps.push(r);
        }
        for r in &reps[1..] {
            assert_eq!(r, &reps[0], "representatives are shard-count-independent");
        }
    }

    #[test]
    fn sharded_reconcile_counts_each_global_merge_once() {
        // A chain 0-1-2-...-9 built from edges scattered across shards:
        // total successful merges must be n-1 no matter how they arrive.
        let n = 10u32;
        let mut sh = ShardedUnionFind::new(3);
        sh.grow(n as usize);
        {
            let (locals, queue) = sh.scan_parts();
            for i in 0..n - 1 {
                locals[(i as usize) % 3].link(i, i + 1);
            }
            for shard in locals {
                shard.flush_outbox(queue);
            }
        }
        assert_eq!(sh.reconcile(), n as usize - 1);
        assert_eq!(sh.component_count(), 1);
        // Everything reconciled: a second pass merges nothing.
        assert_eq!(sh.reconcile(), 0);
        for x in 0..n {
            assert_eq!(sh.find(x), 0, "minimum element is the representative");
        }
    }
}
