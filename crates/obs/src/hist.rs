//! Log₂-bucketed histograms and the workspace's shared nearest-rank
//! percentile.
//!
//! A [`Histogram`] is a fixed 65-slot array — bucket `i` counts values
//! whose bit length is `i` (bucket 0 holds only the value 0, bucket `i`
//! holds `[2^(i-1), 2^i)`). Recording is a few instructions and never
//! allocates, so histograms are cheap enough to update per event; the
//! price is that quantiles are resolved to bucket granularity (a factor
//! of 2), which is the right trade for latency-style distributions.

/// Number of buckets: one per possible bit length of a `u64`, plus the
/// zero bucket.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Exact nearest-rank quantile over an **already sorted** slice: the
/// smallest element such that at least `⌈q·n⌉` elements are `<=` it.
/// Returns `None` on an empty slice.
///
/// # Panics
///
/// Panics when `q` is outside `[0, 1]`.
pub fn nearest_rank(sorted: &[u64], q: f64) -> Option<u64> {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// A log₂-bucketed histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index a value lands in (its bit length).
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// The largest value bucket `index` can hold.
    pub fn bucket_high(index: usize) -> u64 {
        assert!(index < HISTOGRAM_BUCKETS, "bucket index out of range");
        if index == 0 {
            0
        } else if index == 64 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded sample, when any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, when any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The raw bucket counts (index = bit length of the sample).
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Nearest-rank quantile at bucket resolution: the upper bound of the
    /// bucket containing the `⌈q·count⌉`-th smallest sample, clamped to
    /// the observed `[min, max]`. The extremes are exact: any `q` that
    /// resolves to rank 1 returns the observed minimum and any `q` that
    /// resolves to the last rank returns the observed maximum, so
    /// `quantile(0.0)` and `quantile(1.0)` never suffer bucket rounding.
    /// `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics when `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank == 1 {
            return Some(self.min);
        }
        if rank == self.count {
            return Some(self.max);
        }
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_high(i).clamp(self.min, self.max));
            }
        }
        unreachable!("bucket counts sum to self.count");
    }

    /// Median (bucket resolution).
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 95th percentile (bucket resolution).
    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// 99th percentile (bucket resolution).
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// 99.9th percentile (bucket resolution).
    pub fn p999(&self) -> Option<u64> {
        self.quantile(0.999)
    }

    /// The buckets that can hold a sample: every recorded value lies in
    /// `[min, max]`, so every bucket outside their bit lengths is zero.
    /// Only meaningful when `count > 0`.
    #[inline]
    fn populated(&self) -> std::ops::RangeInclusive<usize> {
        Self::bucket_of(self.min)..=Self::bucket_of(self.max)
    }

    /// Fold another histogram into this one. The result is exactly the
    /// histogram of the concatenated sample streams. Costs what `other`
    /// holds: nothing when it is empty, otherwise one add per bucket
    /// between its smallest and its largest sample.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        let span = other.populated();
        for (mine, theirs) in self.buckets[span.clone()]
            .iter_mut()
            .zip(&other.buckets[span])
        {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Forget every sample: afterwards the histogram equals
    /// [`Histogram::new`], having zeroed only the buckets it had filled.
    pub fn clear(&mut self) {
        if self.count == 0 {
            return;
        }
        let span = self.populated();
        self.buckets[span].fill(0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_bit_lengths() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::bucket_high(0), 0);
        assert_eq!(Histogram::bucket_high(3), 7);
        assert_eq!(Histogram::bucket_high(64), u64::MAX);
    }

    #[test]
    fn counts_and_moments() {
        let mut h = Histogram::new();
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
        for v in [1, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 106);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
        assert!((h.mean() - 26.5).abs() < 1e-12);
    }

    #[test]
    fn quantiles_at_bucket_resolution() {
        let mut h = Histogram::new();
        // 90 samples at ~10 (bucket 4: 8..=15), 10 at ~1000 (bucket 10).
        for _ in 0..90 {
            h.record(10);
        }
        for _ in 0..10 {
            h.record(1000);
        }
        assert_eq!(h.p50(), Some(15)); // upper edge of bucket 4
        assert_eq!(h.p95(), Some(1000)); // bucket 10 edge clamped to max
        assert_eq!(h.p999(), Some(1000));
        assert_eq!(h.quantile(0.0), Some(10)); // rank 1 is the exact min
        assert_eq!(h.quantile(1.0), Some(1000)); // last rank is the exact max
                                                 // The bucket edge never strays more than 2x from the true value.
        let mut exact: Vec<u64> = [10u64; 90].into_iter().chain([1000u64; 10]).collect();
        exact.sort_unstable();
        for q in [0.5, 0.9, 0.95, 0.99, 0.999] {
            let approx = h.quantile(q).unwrap();
            let truth = nearest_rank(&exact, q).unwrap();
            assert!(
                approx >= truth && approx < truth.saturating_mul(2),
                "q={q}: approx {approx} vs exact {truth}"
            );
        }
    }

    #[test]
    fn empty_quantile_is_none() {
        assert_eq!(Histogram::new().quantile(0.5), None);
        assert_eq!(Histogram::new().quantile(0.0), None);
        assert_eq!(Histogram::new().quantile(1.0), None);
        assert_eq!(Histogram::new().p999(), None);
    }

    #[test]
    fn extreme_quantiles_are_exact() {
        let mut h = Histogram::new();
        h.record(100); // bucket 7 (64..=127): the edge would be 127
        assert_eq!(h.quantile(0.0), Some(100));
        assert_eq!(h.quantile(0.5), Some(100));
        assert_eq!(h.quantile(1.0), Some(100));
        h.record(9000); // bucket 14: the edge would be 16383
        assert_eq!(h.quantile(0.0), Some(100));
        assert_eq!(h.quantile(1.0), Some(9000));
        // q small enough to resolve to rank 1 stays exact too.
        assert_eq!(h.quantile(0.4), Some(100));
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0, 1]")]
    fn quantile_range_checked() {
        let _ = Histogram::new().quantile(1.5);
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0, 1]")]
    fn nearest_rank_range_checked() {
        let _ = nearest_rank(&[], -0.1);
    }

    #[test]
    fn nearest_rank_matches_definition() {
        let sorted = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(nearest_rank(&sorted, 0.50), Some(50));
        assert_eq!(nearest_rank(&sorted, 0.95), Some(100));
        assert_eq!(nearest_rank(&sorted, 0.0), Some(10));
        assert_eq!(nearest_rank(&sorted, 1.0), Some(100));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn merge_equals_concatenation() {
        let mut all = Histogram::new();
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut x = 1u64;
        for i in 0..1000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = x >> (x % 50);
            all.record(v);
            if i % 3 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    /// Sample sets whose populated bucket ranges are empty, one bucket
    /// (at either end of the array and in the middle), disjoint from one
    /// another, nested and overlapping.
    fn sample_sets() -> Vec<Vec<u64>> {
        let mut sets: Vec<Vec<u64>> = vec![
            vec![],
            vec![0],
            vec![0, 0, 0],
            vec![1],
            vec![u64::MAX],
            vec![u64::MAX, u64::MAX - 1],
            vec![0, u64::MAX],
            vec![12_345],
            vec![3, 5, 7, 2, 6],
            vec![1 << 40, (1 << 41) + 9, 1 << 43],
        ];
        let mut x = 20040330u64;
        for (lo, width) in [(0u32, 64u32), (0, 8), (20, 3), (50, 14), (63, 1)] {
            let mut set = Vec::new();
            for _ in 0..200 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Bit length `shift + 1`, so bucket `shift + 1`.
                let shift = lo + (x >> 58) as u32 % width;
                set.push((x | 1 << 63) >> (63 - shift));
            }
            sets.push(set);
        }
        sets
    }

    fn of(samples: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        samples.iter().for_each(|&v| h.record(v));
        h
    }

    #[test]
    fn bounded_merge_and_clear_match_the_dense_loops() {
        let sets = sample_sets();
        for a in &sets {
            for b in &sets {
                let what = format!("{a:?} + {b:?}");
                let (ha, hb) = (of(a), of(b));
                // The definition: every bucket added, whatever it holds.
                let mut dense = ha.clone();
                for (mine, theirs) in dense.buckets.iter_mut().zip(hb.buckets.iter()) {
                    *mine += theirs;
                }
                dense.count += hb.count;
                dense.sum += hb.sum;
                dense.min = dense.min.min(hb.min);
                dense.max = dense.max.max(hb.max);
                let mut merged = ha.clone();
                merged.merge(&hb);
                assert_eq!(merged, dense, "{what}");
                let both: Vec<u64> = a.iter().chain(b).copied().collect();
                assert_eq!(merged, of(&both), "{what}");
                // Cleared is new — all 65 buckets compared — and stays so
                // through reuse.
                merged.clear();
                assert_eq!(merged, Histogram::new(), "{what}");
                b.iter().for_each(|&v| merged.record(v));
                assert_eq!(merged, hb, "{what}");
                merged.clear();
                merged.merge(&ha);
                assert_eq!(merged, ha, "{what}");
            }
        }
    }
}
