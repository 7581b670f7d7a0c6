//! Medians, percentiles, the tail-percentile rule, and the fixed
//! log-linear latency histogram the timed loops record into.

/// Percentiles a tail may be reported at, highest first.
pub const TAIL_LADDER: [u32; 5] = [99, 95, 90, 75, 50];

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has at least one window.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of integer samples (nanoseconds, mostly); 0 when there are none,
/// as for a layer the workload never entered.
pub fn median_u64(values: &[u64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
    }
}

/// The `p`-th percentile (nearest rank) of an ascending-sorted slice.
pub fn percentile_sorted(sorted: &[u64], p: u32) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (sorted.len() * p as usize).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Samples strictly beyond the `p`-th percentile's rank among `n`.
pub fn beyond(n: usize, p: u32) -> usize {
    n - (n * p as usize).div_ceil(100).max(1).min(n)
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even the median has fewer.
pub fn highest_supported_tail(n: usize) -> Option<u32> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// One metric's per-window (or per-pass) values, summed up. The reported
/// `value` is their best quartile: the value a quarter of the way from
/// the best window to the worst (the third best of ten, the best of
/// three). On a shared machine other tenants slow windows down, often
/// most windows of a run, so the median of windows follows the
/// neighbours' load; the single best window instead follows any rare
/// lucky one (the event engine now and then runs a window 2.5 times
/// faster than its usual). The best quartile shrugs off both.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64], lower_is_better: bool) -> Summary {
        assert!(!values.is_empty(), "summary of no samples");
        let mut best_first = values.to_vec();
        best_first.sort_by(f64::total_cmp);
        if !lower_is_better {
            best_first.reverse();
        }
        let (first, last) = (best_first[0], best_first[values.len() - 1]);
        Summary {
            value: best_first[(values.len() - 1) / 4],
            median: median(values),
            min: first.min(last),
            max: first.max(last),
            n: values.len(),
        }
    }
}

/// `sum(num) / sum(den)` over at most `groups` contiguous chunks of the
/// samples: for a ratio whose numerator is too coarse to read sample by
/// sample, like the 10 ms CPU ticks spent by a pass of a few milliseconds.
pub fn chunked_ratio(num: &[f64], den: &[f64], groups: usize) -> Vec<f64> {
    assert_eq!(num.len(), den.len());
    let size = num.len().div_ceil(groups.max(1)).max(1);
    num.chunks(size)
        .zip(den.chunks(size))
        .map(|(n, d)| n.iter().sum::<f64>() / d.iter().sum::<f64>())
        .collect()
}

/// Sub-buckets per power of two: bucket width is at most 1/128 of its
/// lower edge, so a reported percentile is within 0.8 % of the sample.
const SUB: usize = 128;
const SUB_BITS: u32 = 7;
/// Values up to 2^40 ns (18 minutes) are resolved; larger ones clamp.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = SUB * (MAX_EXP - SUB_BITS + 2) as usize;

/// A fixed-size log-linear histogram of nanosecond latencies. `record`
/// is one index computation and one add: no allocation in a timed loop.
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    fn index(ns: u64) -> usize {
        if ns < SUB as u64 {
            return ns as usize;
        }
        let exp = (63 - ns.leading_zeros()).min(MAX_EXP);
        let sub = if exp == MAX_EXP && ns >> MAX_EXP > 1 {
            SUB - 1
        } else {
            ((ns >> (exp - SUB_BITS)) as usize) & (SUB - 1)
        };
        (exp - SUB_BITS + 1) as usize * SUB + sub
    }

    /// Midpoint of bucket `i`, the value a percentile in it reads as.
    fn value(i: usize) -> u64 {
        if i < SUB {
            return i as u64;
        }
        let exp = (i / SUB) as u32 + SUB_BITS - 1;
        let width = 1u64 << (exp - SUB_BITS);
        (1u64 << exp) + (i % SUB) as u64 * width + width / 2
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Histogram::index(ns)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `p`-th percentile (nearest rank), in nanoseconds.
    pub fn percentile(&self, p: u32) -> u64 {
        assert!(self.total > 0, "percentile of an empty histogram");
        let rank = (self.total * p as u64).div_ceil(100).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c as u64;
            if seen >= rank {
                return Histogram::value(i);
            }
        }
        unreachable!("rank lies within the total count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&sorted, 50), 50);
        assert_eq!(percentile_sorted(&sorted, 99), 99);
        assert_eq!(percentile_sorted(&[5], 99), 5);
        assert_eq!(percentile_sorted(&[1, 2, 3], 50), 2);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples leaves exactly 10 beyond; of 999, only 9.
        assert_eq!(beyond(1000, 99), 10);
        assert_eq!(highest_supported_tail(1000), Some(99));
        assert_eq!(highest_supported_tail(999), Some(95));
        assert_eq!(highest_supported_tail(200), Some(95));
        assert_eq!(highest_supported_tail(199), Some(90));
        assert_eq!(highest_supported_tail(100), Some(90));
        assert_eq!(highest_supported_tail(99), Some(75));
        assert_eq!(highest_supported_tail(40), Some(75));
        assert_eq!(highest_supported_tail(39), Some(50));
        assert_eq!(highest_supported_tail(20), Some(50));
        assert_eq!(highest_supported_tail(19), None);
    }

    #[test]
    fn summary_reports_the_best_quartile_with_median_and_range() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let low = Summary::of(&ten, true);
        assert_eq!(
            (low.value, low.median, low.min, low.max, low.n),
            (3.0, 5.5, 1.0, 10.0, 10)
        );
        assert_eq!(Summary::of(&ten, false).value, 8.0);
        // Fewer than five values: the best one.
        assert_eq!(Summary::of(&[5.0, 1.0, 9.0], true).value, 1.0);
        assert_eq!(Summary::of(&[5.0, 1.0, 9.0], false).value, 9.0);
        assert_eq!(Summary::of(&[5.0, 1.0, 9.0, 3.0, 7.0], true).value, 3.0);
        assert_eq!(Summary::of(&[4.0], false).value, 4.0);
    }

    #[test]
    fn chunked_ratio_sums_within_contiguous_chunks() {
        let num = [0.0, 10.0, 0.0, 10.0, 10.0, 0.0, 10.0];
        let den = [1.0; 7];
        assert_eq!(
            chunked_ratio(&num, &den, 3),
            vec![10.0 / 3.0, 20.0 / 3.0, 10.0]
        );
        assert_eq!(chunked_ratio(&num[..2], &den[..2], 5), vec![0.0, 10.0]);
    }

    #[test]
    fn histogram_is_exact_below_128_and_within_one_percent_above() {
        for ns in [
            0u64,
            1,
            127,
            128,
            129,
            1_000,
            7_531,
            123_456,
            9_999_999,
            1 << 39,
        ] {
            let mut h = Histogram::new();
            h.record(ns);
            let got = h.percentile(50) as f64;
            let err = (got - ns as f64).abs() / (ns.max(1) as f64);
            assert!(err <= 0.01, "{ns} read back as {got}");
        }
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert!(
            h.percentile(50) >= 1 << 40,
            "oversized values clamp to the top bucket"
        );
    }

    #[test]
    fn histogram_percentiles_match_the_exact_ones() {
        let mut h = Histogram::new();
        let mut exact: Vec<u64> = (0..10_000u64).map(|i| 5_000 + i * 37).collect();
        for &v in &exact {
            h.record(v);
        }
        exact.sort_unstable();
        for p in [50, 90, 99] {
            let want = percentile_sorted(&exact, p) as f64;
            let got = h.percentile(p) as f64;
            assert!((got - want).abs() / want <= 0.01, "p{p}: {got} vs {want}");
        }
        let mut twice = Histogram::new();
        twice.merge(&h);
        twice.merge(&h);
        assert_eq!(twice.total, 20_000);
        assert_eq!(twice.percentile(50), h.percentile(50));
    }
}
