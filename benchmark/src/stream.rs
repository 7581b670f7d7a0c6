//! Request streams, generated from the seed alone. The program under
//! test only ever sees the request bytes built here.

use fistful_chain::encode::Encodable;
use fistful_serve::Request;

/// SplitMix64: the benchmark's own generator, so a request stream never
/// depends on the vendored `rand` stand-in the simulator uses.
#[derive(Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-32 for the
    /// key spaces used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The dimensions of the served artifacts that keys are drawn over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeySpace {
    pub addresses: u64,
    pub clusters: u64,
    /// Heights `0..=tip`.
    pub tip_height: u64,
    /// Transactions a taint walk may start from: the first half of the
    /// chain, so every walk has a second half to spread into.
    pub early_txs: u64,
}

/// Which traffic a serve workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// `AddressInfo` / `ClusterSummary` / `BalancePoint` over a hot set of
    /// [`HOT_KEYS`] keys each, drawn at random: all cache hits.
    PointHot,
    /// The same mix over keys spread across the whole space, each
    /// connection cycling through its own pool: all cache misses.
    PointCold,
    /// One `TaintTrace` per request from distinct early outpoints, each
    /// connection cycling through its own pool: all cache misses.
    Taint,
}

pub const HOT_KEYS: u64 = 256;
pub const CONNECTIONS: usize = 2;
/// Distinct requests per connection on the cycling workloads. Two pools
/// hold four times (point) or twice (taint) the 4096 cache entries, so a
/// request has been evicted long before its pool comes round again.
const COLD_POOL: usize = 8192;
const TAINT_POOL: usize = 4096;
pub const MAX_TAINT_TXS: u32 = 5_000;

/// `count` distinct keys in `0..space`, spread by a seed-chosen start and
/// a stride coprime to the space (all of `0..space` when it is smaller).
fn distinct_keys(rng: &mut SplitMix, space: u64, count: u64) -> Vec<u64> {
    let space = space.max(1);
    let start = rng.below(space);
    let stride = loop {
        let s = rng.below(space).max(1);
        if gcd(s, space) == 1 {
            break s;
        }
    };
    (0..count.min(space))
        .map(|i| (start + i * stride) % space)
        .collect()
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// One connection's pre-encoded request payloads and how it walks them.
pub struct Pool {
    pub payloads: Vec<Vec<u8>>,
    /// Draws an index at random when set; otherwise cycles in order.
    random: Option<SplitMix>,
    next: usize,
}

impl Pool {
    fn new(requests: Vec<Request>, random: Option<SplitMix>) -> Pool {
        Pool {
            payloads: requests.iter().map(Encodable::encode_to_vec).collect(),
            random,
            next: 0,
        }
    }

    /// Index of the next request to send.
    pub fn advance(&mut self) -> usize {
        match &mut self.random {
            Some(rng) => rng.below(self.payloads.len() as u64) as usize,
            None => {
                let i = self.next;
                self.next = (i + 1) % self.payloads.len();
                i
            }
        }
    }
}

/// The three point kinds in rotation over three key lists of equal length.
fn point_mix(addresses: &[u64], clusters: &[u64], heights: &[u64]) -> Vec<Request> {
    let mut out = Vec::with_capacity(addresses.len() + clusters.len() + heights.len());
    for i in 0..addresses.len().max(clusters.len()).max(heights.len()) {
        if let Some(&a) = addresses.get(i) {
            out.push(Request::AddressInfo { address: a as u32 });
        }
        if let Some(&c) = clusters.get(i) {
            out.push(Request::ClusterSummary { cluster: c as u32 });
        }
        if let Some(&h) = heights.get(i) {
            out.push(Request::BalancePoint { height: h });
        }
    }
    out
}

/// The request pools of one workload, one per connection.
pub fn pools(traffic: Traffic, seed: u64, space: KeySpace) -> Vec<Pool> {
    let mut rng = SplitMix::new(seed ^ 0x5EED_7AFF_1C00_0001);
    match traffic {
        Traffic::PointHot => {
            let addresses = distinct_keys(&mut rng, space.addresses, HOT_KEYS);
            let clusters = distinct_keys(&mut rng, space.clusters, HOT_KEYS);
            let heights = distinct_keys(&mut rng, space.tip_height + 1, HOT_KEYS);
            (0..CONNECTIONS)
                .map(|c| {
                    let draws = SplitMix::new(rng.next_u64() ^ c as u64);
                    Pool::new(point_mix(&addresses, &clusters, &heights), Some(draws))
                })
                .collect()
        }
        Traffic::PointCold => {
            let per_kind = (COLD_POOL / 3) as u64;
            let all = per_kind * CONNECTIONS as u64;
            let addresses = distinct_keys(&mut rng, space.addresses, all);
            let clusters = distinct_keys(&mut rng, space.clusters, all);
            // A chain has only a few hundred heights, which would all fit
            // in the cache. Heights past the tip answer with the last
            // sample through the same binary search, so the height keys
            // range as wide as the address keys.
            let heights = distinct_keys(&mut rng, space.addresses.max(space.tip_height + 1), all);
            let share = |keys: &[u64], c: usize| -> Vec<u64> {
                keys.iter().copied().skip(c).step_by(CONNECTIONS).collect()
            };
            (0..CONNECTIONS)
                .map(|c| {
                    let requests = point_mix(
                        &share(&addresses, c),
                        &share(&clusters, c),
                        &share(&heights, c),
                    );
                    Pool::new(requests, None)
                })
                .collect()
        }
        Traffic::Taint => {
            let txs = distinct_keys(&mut rng, space.early_txs, (TAINT_POOL * CONNECTIONS) as u64);
            (0..CONNECTIONS)
                .map(|c| {
                    let requests = txs
                        .iter()
                        .skip(c)
                        .step_by(CONNECTIONS)
                        .map(|&tx| Request::TaintTrace {
                            loot: vec![(tx as u32, 0)],
                            max_txs: MAX_TAINT_TXS,
                        })
                        .collect();
                    Pool::new(requests, None)
                })
                .collect()
        }
    }
}

/// A word-at-a-time multiplicative hash: fast enough to check a 40 KB
/// taint response inside the timed loop without moving the measurement.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h = bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        h = (h.rotate_left(5) ^ word).wrapping_mul(K);
    }
    for &b in chunks.remainder() {
        h = (h.rotate_left(5) ^ b as u64).wrapping_mul(K);
    }
    h
}

/// A hash of everything a workload will send: every pool's payloads and
/// the first 4096 indices each connection draws.
pub fn fingerprint(traffic: Traffic, seed: u64, space: KeySpace) -> u64 {
    let mut h = 0u64;
    for mut pool in pools(traffic, seed, space) {
        for payload in &pool.payloads {
            h = h.rotate_left(7) ^ hash_bytes(payload);
        }
        for _ in 0..4096 {
            h = (h.rotate_left(3) ^ pool.advance() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPACE: KeySpace = KeySpace {
        addresses: 60_000,
        clusters: 21_000,
        tip_height: 479,
        early_txs: 31_000,
    };

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for traffic in [Traffic::PointHot, Traffic::PointCold, Traffic::Taint] {
            let a = fingerprint(traffic, 42, SPACE);
            assert_eq!(a, fingerprint(traffic, 42, SPACE), "{traffic:?} repeats");
            assert_ne!(
                a,
                fingerprint(traffic, 43, SPACE),
                "{traffic:?} follows the seed"
            );
        }
    }

    #[test]
    fn hot_pools_hold_256_distinct_keys_per_kind_and_draw_at_random() {
        let mut pools = pools(Traffic::PointHot, 7, SPACE);
        assert_eq!(pools.len(), CONNECTIONS);
        let mut payloads = pools[0].payloads.clone();
        assert_eq!(
            payloads, pools[1].payloads,
            "both connections share the hot set"
        );
        payloads.sort();
        payloads.dedup();
        assert_eq!(payloads.len(), 3 * HOT_KEYS as usize);
        let a: Vec<usize> = (0..64).map(|_| pools[0].advance()).collect();
        let b: Vec<usize> = (0..64).map(|_| pools[1].advance()).collect();
        assert_ne!(a, b, "connections draw independently");
    }

    #[test]
    fn cycling_pools_are_distinct_across_connections_and_outnumber_the_cache() {
        for traffic in [Traffic::PointCold, Traffic::Taint] {
            let mut pools = pools(traffic, 7, SPACE);
            let mut all: Vec<Vec<u8>> = pools.iter().flat_map(|p| p.payloads.clone()).collect();
            let total = all.len();
            assert!(total >= 2 * 4096, "{traffic:?}: {total} requests");
            all.sort();
            all.dedup();
            assert_eq!(
                all.len(),
                total,
                "{traffic:?}: no request repeats within a cycle"
            );
            let n = pools[0].payloads.len();
            let walk: Vec<usize> = (0..n + 2).map(|_| pools[0].advance()).collect();
            assert_eq!(walk[..3], [0, 1, 2]);
            assert_eq!(walk[n..], [0, 1]);
        }
    }

    #[test]
    fn small_spaces_yield_every_key_once() {
        let mut rng = SplitMix::new(1);
        let mut keys = distinct_keys(&mut rng, 10, 256);
        keys.sort_unstable();
        assert_eq!(keys, (0..10).collect::<Vec<_>>());
        assert_eq!(distinct_keys(&mut rng, 0, 4), vec![0]);
    }

    #[test]
    fn hash_depends_on_length_and_every_byte() {
        let base = hash_bytes(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_ne!(base, hash_bytes(&[1, 2, 3, 4, 5, 6, 7, 8]));
        assert_ne!(base, hash_bytes(&[1, 2, 3, 4, 5, 6, 7, 8, 10]));
        assert_ne!(base, hash_bytes(&[0, 2, 3, 4, 5, 6, 7, 8, 9]));
        assert_ne!(hash_bytes(&[]), hash_bytes(&[0]));
    }
}
