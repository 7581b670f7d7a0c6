//! A sharded LRU cache for encoded responses, keyed by request bytes.
//!
//! With frozen artifacts every cacheable request maps to exactly one
//! response payload for the lifetime of the server. Under live ingest
//! (see [`crate::live`]) the artifacts are hot-swapped at epoch
//! boundaries, so each entry is tagged with the artifact epoch it was
//! computed at plus a *staleness class*, and lookups carry the current
//! [`CacheFloors`]: an entry answers only while its epoch is at or above
//! the floor for its class. Publishing a new artifact raises the floors
//! instead of walking the cache — stale entries die wholesale, lazily,
//! at their next lookup or eviction.
//!
//! Two classes keep still-valid entries alive across swaps:
//!
//! * [`CacheClass::Snapshot`] — answers derived from an existing cluster
//!   assignment (`AddressInfo`/`ClusterSummary` with a `Some` body).
//!   Cluster ids are stable across *non-merging* epochs (the delta only
//!   appends new addresses and new clusters), so the publisher keeps the
//!   snapshot floor unchanged for those swaps and such entries survive.
//! * [`CacheClass::Graph`] — everything whose answer can change whenever
//!   the chain merely grows: taint traces, balance points, and any
//!   `None`/not-found answer (coverage growth turns a miss into a hit).
//!   The graph floor rises on every publish, so these never outlive a
//!   swap.
//!
//! The class is chosen at *insert* time from the response content, not at
//! lookup time from the request type — a cached "address unknown" for an
//! id past the current end must not be pinned by the request's type byte.
//!
//! Keys are the raw request payload bytes (canonical encodings, so equal
//! requests have equal keys); values are the encoded response *payloads*
//! (framing is per-connection: protocol version and current epoch are
//! applied at send time), stored ready to frame so a hit skips decode,
//! handling, *and* re-encode.
//!
//! Contention is kept off the hot path by sharding: the key is hashed
//! (FNV-1a) to one of [`ShardedCache::SHARDS`] independent mutexes, so
//! concurrent workers only collide when they touch the same shard. Each
//! shard is a classic O(1) LRU — a hash map into a slab of entries linked
//! into a recency list — evicting the least-recently-used entry when full.
//! Hit/miss counters are process-wide atomics, surfaced through the
//! `Stats` request (`benchmark/` reports them as `serve.cache.hit_ratio`
//! on its `serve_*` workloads). Each shard additionally
//! keeps its own hit/miss/eviction tallies — plain integers bumped
//! under the shard lock the operation already holds, so they cost
//! nothing extra — surfaced per shard through the metrics layer
//! ([`ShardedCache::shard_stats`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Shared immutable byte buffer: keys and values live in one allocation
/// each, referenced from both the map and the recency slab, and a cache
/// hit hands the caller a refcount bump instead of a copy of the
/// response body (which would otherwise be memcpy'd while holding the
/// shard lock).
type Bytes = Arc<[u8]>;

/// Staleness class of a cached response, chosen at insert time from the
/// response *content*. See the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheClass {
    /// Derived from an existing cluster assignment; survives swaps whose
    /// delta leaves existing ids untouched (non-merging epochs).
    Snapshot,
    /// Depends on the full graph/series (or is a not-found answer);
    /// invalidated by every swap.
    Graph,
}

/// Minimum entry epochs per class for a lookup to count as fresh. The
/// publisher raises these on each artifact swap; a frozen server keeps
/// the zero default, under which every entry is always fresh.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheFloors {
    /// Floor for [`CacheClass::Snapshot`] entries.
    pub snapshot: u64,
    /// Floor for [`CacheClass::Graph`] entries.
    pub graph: u64,
}

impl CacheFloors {
    /// The floor an entry of `class` must meet.
    pub fn floor(&self, class: CacheClass) -> u64 {
        match class {
            CacheClass::Snapshot => self.snapshot,
            CacheClass::Graph => self.graph,
        }
    }
}

/// Slot sentinel for "no entry" in the recency links.
const NIL: usize = usize::MAX;

/// One LRU shard: a slab of entries doubly linked in recency order, plus a
/// map from key to slab slot.
struct LruShard {
    /// Maximum entries this shard may hold.
    cap: usize,
    /// Key → slab slot (the key allocation is shared with the slab entry).
    map: HashMap<Bytes, usize>,
    /// Entry slab; freed slots are recycled via `free`.
    slab: Vec<Entry>,
    /// Recycled slots.
    free: Vec<usize>,
    /// Most recently used slot, or [`NIL`].
    head: usize,
    /// Least recently used slot, or [`NIL`].
    tail: usize,
    /// Lookups this shard answered. Bumped under the shard lock the
    /// lookup already holds (same for the two tallies below).
    hits: u64,
    /// Lookups this shard could not answer (absent or stale-reaped).
    misses: u64,
    /// Entries this shard removed: capacity evictions plus stale reaps.
    evictions: u64,
}

struct Entry {
    key: Bytes,
    value: Bytes,
    /// Artifact epoch the value was computed at.
    epoch: u64,
    /// Staleness class (see [`CacheClass`]).
    class: CacheClass,
    prev: usize,
    next: usize,
}

impl LruShard {
    fn new(cap: usize) -> LruShard {
        LruShard {
            cap,
            map: HashMap::with_capacity(cap),
            slab: Vec::with_capacity(cap),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Unlinks `slot` from the recency list (it must be linked).
    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slab[slot].prev, self.slab[slot].next);
        match prev {
            NIL => self.head = next,
            p => self.slab[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n].prev = prev,
        }
    }

    /// Links `slot` at the head (most recently used).
    fn link_front(&mut self, slot: usize) {
        self.slab[slot].prev = NIL;
        self.slab[slot].next = self.head;
        match self.head {
            NIL => self.tail = slot,
            h => self.slab[h].prev = slot,
        }
        self.head = slot;
    }

    /// Removes `slot` entirely, recycling it.
    fn remove(&mut self, slot: usize) {
        self.unlink(slot);
        let old_key = Arc::clone(&self.slab[slot].key);
        self.map.remove(&old_key);
        self.free.push(slot);
    }

    fn get(&mut self, key: &[u8], floors: &CacheFloors) -> Option<Bytes> {
        let Some(&slot) = self.map.get(key) else {
            self.misses += 1;
            return None;
        };
        if self.slab[slot].epoch < floors.floor(self.slab[slot].class) {
            // Stale under the current floors: reap it now so the slot is
            // reusable and a racing re-insert lands on an empty key.
            self.remove(slot);
            self.evictions += 1;
            self.misses += 1;
            return None;
        }
        self.unlink(slot);
        self.link_front(slot);
        self.hits += 1;
        Some(Arc::clone(&self.slab[slot].value))
    }

    fn insert(&mut self, key: Bytes, value: Bytes, epoch: u64, class: CacheClass) {
        if self.cap == 0 {
            return;
        }
        if let Some(&slot) = self.map.get(&key) {
            // Same request raced in twice (or is being refreshed after a
            // swap); keep whichever value carries the later epoch — a
            // worker still finishing on the pre-swap artifact must not
            // clobber a fresher answer.
            if epoch >= self.slab[slot].epoch {
                self.slab[slot].value = value;
                self.slab[slot].epoch = epoch;
                self.slab[slot].class = class;
            }
            self.unlink(slot);
            self.link_front(slot);
            return;
        }
        if self.map.len() == self.cap {
            // Evict the least recently used entry, recycling its slot.
            let victim = self.tail;
            self.remove(victim);
            self.evictions += 1;
        }
        let entry = Entry { key: Arc::clone(&key), value, epoch, class, prev: NIL, next: NIL };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = entry;
                slot
            }
            None => {
                self.slab.push(entry);
                self.slab.len() - 1
            }
        };
        self.map.insert(key, slot);
        self.link_front(slot);
    }
}

/// One shard's lookup and removal tallies ([`ShardedCache::shard_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheShardStats {
    /// Lookups this shard answered.
    pub hits: u64,
    /// Lookups this shard could not answer (absent or stale-reaped).
    pub misses: u64,
    /// Entries this shard removed — capacity evictions plus stale reaps.
    pub evictions: u64,
}

/// The sharded response cache. See the [module docs](self).
pub struct ShardedCache {
    shards: Vec<Mutex<LruShard>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ShardedCache {
    /// Number of independent shards (and mutexes).
    pub const SHARDS: usize = 8;

    /// A cache holding at most `total_entries` responses across all
    /// shards (rounded up to a multiple of [`Self::SHARDS`]).
    pub fn new(total_entries: usize) -> ShardedCache {
        let per_shard = total_entries.div_ceil(Self::SHARDS);
        ShardedCache {
            shards: (0..Self::SHARDS).map(|_| Mutex::new(LruShard::new(per_shard))).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// FNV-1a over the key bytes, reduced to a shard index.
    fn shard_of(&self, key: &[u8]) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in key {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % Self::SHARDS as u64) as usize
    }

    /// Looks up the response for a request key under the current floors,
    /// refreshing its recency and counting the hit or miss. An entry
    /// whose epoch sits below its class floor is reaped and reported as
    /// a miss. A hit is a refcount bump, not a copy — nothing large is
    /// cloned while the shard lock is held.
    pub fn get(&self, key: &[u8], floors: &CacheFloors) -> Option<Bytes> {
        let found =
            self.shards[self.shard_of(key)].lock().expect("cache shard poisoned").get(key, floors);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Stores a response computed at `epoch` with staleness `class`,
    /// evicting the shard's least-recently-used entry when it is full.
    pub fn insert(&self, key: Vec<u8>, value: Vec<u8>, epoch: u64, class: CacheClass) {
        let key: Bytes = key.into();
        let shard = self.shard_of(&key);
        self.shards[shard].lock().expect("cache shard poisoned").insert(
            key,
            value.into(),
            epoch,
            class,
        );
    }

    /// Lookups answered from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Per-shard hit/miss/eviction tallies, in shard order — the
    /// metrics layer's `{shard="i"}` series. Sum of per-shard hits and
    /// misses equals the global [`ShardedCache::hits`] and
    /// [`ShardedCache::misses`].
    pub fn shard_stats(&self) -> Vec<CacheShardStats> {
        self.shards
            .iter()
            .map(|s| {
                let shard = s.lock().expect("cache shard poisoned");
                CacheShardStats {
                    hits: shard.hits,
                    misses: shard.misses,
                    evictions: shard.evictions,
                }
            })
            .collect()
    }

    /// Entries currently cached across all shards (stale entries not yet
    /// reaped still count — they are reclaimed lazily).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("cache shard poisoned").map.len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u32) -> Vec<u8> {
        n.to_le_bytes().to_vec()
    }

    /// Zero floors: the frozen-server behaviour, everything always fresh.
    const FROZEN: CacheFloors = CacheFloors { snapshot: 0, graph: 0 };

    #[test]
    fn hit_and_miss_counters_track_lookups() {
        let cache = ShardedCache::new(16);
        assert_eq!(cache.get(&key(1), &FROZEN), None);
        cache.insert(key(1), vec![0xAA], 0, CacheClass::Snapshot);
        assert_eq!(cache.get(&key(1), &FROZEN).as_deref(), Some(&[0xAAu8][..]));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used_per_shard() {
        // One shard so recency order is fully observable.
        let mut shard = LruShard::new(3);
        for n in 0..3u32 {
            shard.insert(key(n).into(), vec![n as u8].into(), 0, CacheClass::Snapshot);
        }
        // Touch 0 so 1 becomes the LRU victim.
        assert!(shard.get(&key(0), &FROZEN).is_some());
        shard.insert(key(3).into(), vec![3u8].into(), 0, CacheClass::Snapshot);
        assert_eq!(shard.get(&key(1), &FROZEN), None, "LRU entry evicted");
        for n in [0u32, 2, 3] {
            assert_eq!(
                shard.get(&key(n), &FROZEN).as_deref(),
                Some(&[n as u8][..]),
                "key {n} survives"
            );
        }
        assert_eq!(shard.map.len(), 3);
    }

    #[test]
    fn eviction_churn_recycles_slots() {
        let mut shard = LruShard::new(4);
        for n in 0..100u32 {
            shard.insert(key(n).into(), vec![n as u8].into(), 0, CacheClass::Graph);
        }
        // Only the last 4 remain, and the slab never outgrew the capacity
        // (evicted slots are recycled, not leaked).
        assert_eq!(shard.map.len(), 4);
        assert!(shard.slab.len() <= 5, "slab grew to {}", shard.slab.len());
        for n in 96..100u32 {
            assert_eq!(shard.get(&key(n), &FROZEN).as_deref(), Some(&[n as u8][..]));
        }
        assert_eq!(shard.get(&key(0), &FROZEN), None);
    }

    #[test]
    fn reinsert_refreshes_value_and_recency() {
        let mut shard = LruShard::new(2);
        shard.insert(key(1).into(), vec![1u8].into(), 0, CacheClass::Snapshot);
        shard.insert(key(2).into(), vec![2u8].into(), 0, CacheClass::Snapshot);
        // Refresh: 2 is now the LRU.
        shard.insert(key(1).into(), vec![9u8].into(), 0, CacheClass::Snapshot);
        shard.insert(key(3).into(), vec![3u8].into(), 0, CacheClass::Snapshot);
        assert_eq!(shard.get(&key(1), &FROZEN).as_deref(), Some(&[9u8][..]));
        assert_eq!(shard.get(&key(2), &FROZEN), None);
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let cache = ShardedCache::new(0);
        cache.insert(key(1), vec![1], 0, CacheClass::Snapshot);
        assert_eq!(cache.get(&key(1), &FROZEN), None);
        assert!(cache.is_empty());
    }

    #[test]
    fn floors_expire_entries_by_class() {
        let cache = ShardedCache::new(16);
        cache.insert(key(1), vec![1], 3, CacheClass::Snapshot);
        cache.insert(key(2), vec![2], 3, CacheClass::Graph);

        // A swap that only appended (non-merging): snapshot floor stays,
        // graph floor rises to the new epoch.
        let floors = CacheFloors { snapshot: 0, graph: 4 };
        assert_eq!(cache.get(&key(1), &floors).as_deref(), Some(&[1u8][..]), "snapshot survives");
        assert_eq!(cache.get(&key(2), &floors), None, "graph entry expired");
        // The stale entry was reaped, not just hidden.
        assert_eq!(cache.len(), 1);

        // A merging swap raises both floors: now the snapshot entry dies
        // too.
        let floors = CacheFloors { snapshot: 4, graph: 4 };
        assert_eq!(cache.get(&key(1), &floors), None, "merge expires snapshot entries");
        assert!(cache.is_empty());

        // Re-inserted at the new epoch, both answer again.
        cache.insert(key(1), vec![11], 4, CacheClass::Snapshot);
        cache.insert(key(2), vec![12], 4, CacheClass::Graph);
        assert_eq!(cache.get(&key(1), &floors).as_deref(), Some(&[11u8][..]));
        assert_eq!(cache.get(&key(2), &floors).as_deref(), Some(&[12u8][..]));
    }

    #[test]
    fn stale_reap_counts_as_miss_and_counters_stay_consistent() {
        let cache = ShardedCache::new(16);
        cache.insert(key(7), vec![7], 1, CacheClass::Graph);
        let floors = CacheFloors { snapshot: 0, graph: 2 };
        assert_eq!(cache.get(&key(7), &floors), None);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        // A fresh insert after the miss hits normally.
        cache.insert(key(7), vec![8], 2, CacheClass::Graph);
        assert_eq!(cache.get(&key(7), &floors).as_deref(), Some(&[8u8][..]));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn late_worker_cannot_clobber_a_fresher_entry() {
        // A worker that started before a swap finishes after it and
        // re-inserts its pre-swap answer; the newer value must win.
        let mut shard = LruShard::new(4);
        shard.insert(key(1).into(), vec![2u8].into(), 2, CacheClass::Snapshot);
        shard.insert(key(1).into(), vec![1u8].into(), 1, CacheClass::Snapshot);
        let floors = CacheFloors { snapshot: 2, graph: 2 };
        assert_eq!(shard.get(&key(1), &floors).as_deref(), Some(&[2u8][..]));
    }

    #[test]
    fn reaped_slots_are_recycled() {
        let mut shard = LruShard::new(4);
        for n in 0..4u32 {
            shard.insert(key(n).into(), vec![n as u8].into(), 1, CacheClass::Graph);
        }
        let floors = CacheFloors { snapshot: 0, graph: 2 };
        for n in 0..4u32 {
            assert_eq!(shard.get(&key(n), &floors), None);
        }
        // All four slots came back through the free list.
        for n in 10..14u32 {
            shard.insert(key(n).into(), vec![n as u8].into(), 2, CacheClass::Graph);
        }
        assert_eq!(shard.map.len(), 4);
        assert!(shard.slab.len() <= 4, "slab grew to {}", shard.slab.len());
    }

    #[test]
    fn shard_stats_sum_to_global_counters_and_count_evictions() {
        // One entry per shard, so insert churn forces capacity evictions.
        let cache = ShardedCache::new(ShardedCache::SHARDS);
        for n in 0..32u32 {
            cache.get(&key(n), &FROZEN);
            cache.insert(key(n), vec![n as u8], 1, CacheClass::Graph);
        }
        for n in 0..32u32 {
            cache.get(&key(n), &FROZEN);
        }
        let stats = cache.shard_stats();
        assert_eq!(stats.len(), ShardedCache::SHARDS);
        assert_eq!(stats.iter().map(|s| s.hits).sum::<u64>(), cache.hits());
        assert_eq!(stats.iter().map(|s| s.misses).sum::<u64>(), cache.misses());
        let evictions: u64 = stats.iter().map(|s| s.evictions).sum();
        assert!(
            evictions >= 32 - ShardedCache::SHARDS as u64,
            "32 inserts into {} one-entry shards must evict, saw {evictions}",
            ShardedCache::SHARDS
        );
        // Stale reaps count as evictions too: every surviving Graph entry
        // dies at its next lookup under a raised floor.
        let survivors = cache.len() as u64;
        let floors = CacheFloors { snapshot: 0, graph: 2 };
        for n in 0..32u32 {
            assert_eq!(cache.get(&key(n), &floors), None);
        }
        let after: u64 = cache.shard_stats().iter().map(|s| s.evictions).sum();
        assert_eq!(after, evictions + survivors);
    }

    #[test]
    fn concurrent_mixed_load_is_consistent() {
        use std::sync::Arc;
        let cache = Arc::new(ShardedCache::new(64));
        std::thread::scope(|s| {
            for t in 0..4 {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    for i in 0..1000u32 {
                        let k = key(i % 97);
                        if let Some(v) = cache.get(&k, &FROZEN) {
                            // A hit must return what some thread inserted
                            // for this key.
                            assert_eq!(&*v, &k[..], "thread {t}");
                        } else {
                            cache.insert(k.clone(), k, 0, CacheClass::Graph);
                        }
                    }
                });
            }
        });
        assert!(cache.len() <= 64 + ShardedCache::SHARDS);
        assert!(cache.hits() + cache.misses() >= 4000);
    }
}
