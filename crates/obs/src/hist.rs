//! Log₂-bucketed histograms and the workspace's shared nearest-rank
//! percentile.
//!
//! A [`Histogram`] has 65 buckets — bucket `i` counts values whose bit
//! length is `i` (bucket 0 holds only the value 0, bucket `i` holds
//! `[2^(i-1), 2^i)`) — but stores only the span of them between its
//! smallest and its largest sample, a handful on latency-style data.
//! Recording inside the span is a subtract, a compare and an increment;
//! a sample outside it widens the span out of line, and `clear` keeps
//! the span, so a histogram that is cleared and refilled over a similar
//! range stops allocating. The price of the log₂ buckets is that
//! quantiles are resolved to bucket granularity (a factor of 2), which
//! is the right trade for latency-style distributions.

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
///
/// Only the buckets between the smallest and the largest sample are
/// stored: `span[i]` counts bucket `lo + i`, and every bucket outside the
/// span is zero. Equality is logical — two histograms of the same samples
/// are equal whatever span each has kept.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: usize,
    span: Vec<u64>,
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

impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        // Equal extremes mean equal populated ranges; every bucket
        // outside them is zero on both sides.
        (self.count, self.sum, self.min, self.max) == (other.count, other.sum, other.min, other.max)
            && (self.count == 0 || self.populated() == other.populated())
    }
}

impl Eq for Histogram {}

impl Histogram {
    /// An empty histogram. Holds no buckets, so it does not allocate.
    pub const fn new() -> Self {
        Histogram {
            lo: 0,
            span: Vec::new(),
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
        let bucket = Self::bucket_of(value);
        match self.span.get_mut(bucket.wrapping_sub(self.lo)) {
            Some(c) => *c += 1,
            None => self.record_outside(bucket),
        }
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Out-of-line slow path of [`Histogram::record`]: a sample whose
    /// bucket lies outside the span.
    #[cold]
    #[inline(never)]
    fn record_outside(&mut self, bucket: usize) {
        self.widen(bucket, bucket);
        self.span[bucket - self.lo] += 1;
    }

    /// Grow the span, with zeroes, until it covers buckets `lo..=hi`.
    #[cold]
    #[inline(never)]
    fn widen(&mut self, lo: usize, hi: usize) {
        if self.span.is_empty() {
            self.lo = lo;
        } else if lo < self.lo {
            let pad = self.lo - lo;
            self.span.resize(self.span.len() + pad, 0);
            self.span.rotate_right(pad);
            self.lo = lo;
        }
        let len = (hi + 1 - self.lo).max(self.span.len());
        self.span.resize(len, 0);
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

    /// The bucket counts, all 65 of them (index = bit length of the
    /// sample).
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut dense = [0; HISTOGRAM_BUCKETS];
        dense[self.lo..self.lo + self.span.len()].copy_from_slice(&self.span);
        dense
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
        for (i, &c) in self.span.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_high(self.lo + i).clamp(self.min, self.max));
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

    /// Where in the span the buckets that can hold a sample lie: every
    /// recorded value is in `[min, max]`, so every bucket outside their
    /// bit lengths is zero. Only meaningful when `count > 0`.
    #[inline]
    fn populated_at(&self) -> std::ops::RangeInclusive<usize> {
        Self::bucket_of(self.min) - self.lo..=Self::bucket_of(self.max) - self.lo
    }

    /// The counts of the populated buckets ([`Histogram::populated_at`]).
    #[inline]
    fn populated(&self) -> &[u64] {
        &self.span[self.populated_at()]
    }

    /// Fold another histogram into this one. The result is exactly the
    /// histogram of the concatenated sample streams. Costs what `other`
    /// holds: nothing when it is empty, otherwise one add per bucket
    /// between its smallest and its largest sample, after widening the
    /// span to cover them.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        let lo = Self::bucket_of(other.min);
        let hi = Self::bucket_of(other.max);
        if lo < self.lo || hi >= self.lo + self.span.len() {
            self.widen(lo, hi);
        }
        let at = lo - self.lo;
        let theirs = other.populated();
        for (mine, theirs) in self.span[at..at + theirs.len()].iter_mut().zip(theirs) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Forget every sample: afterwards the histogram equals
    /// [`Histogram::new`], having zeroed only the buckets it had filled.
    /// The span is kept, so refilling it over the same range neither
    /// widens nor allocates.
    pub fn clear(&mut self) {
        if self.count == 0 {
            return;
        }
        let at = self.populated_at();
        self.span[at].fill(0);
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
    fn a_histogram_holds_only_the_buckets_between_its_extremes() {
        for set in sample_sets() {
            let h = of(&set);
            match (set.iter().min(), set.iter().max()) {
                (Some(&min), Some(&max)) => {
                    let (lo, hi) = (Histogram::bucket_of(min), Histogram::bucket_of(max));
                    assert_eq!((h.lo, h.span.len()), (lo, hi - lo + 1), "{set:?}");
                }
                _ => assert_eq!(h.span.capacity(), 0, "{set:?}"),
            }
        }
        // A cleared histogram refilled inside the span it kept reuses
        // that span as it is: no widening and no reallocation.
        let mut h = of(&[100, 1 << 20]);
        let kept = (h.lo, h.span.len(), h.span.as_ptr(), h.span.capacity());
        let inside = of(&[1 << 10, 1 << 15, 1 << 20]);
        for _ in 0..3 {
            h.clear();
            [1000, 1 << 12, 100, 1 << 20]
                .iter()
                .for_each(|&v| h.record(v));
            h.merge(&inside);
            let now = (h.lo, h.span.len(), h.span.as_ptr(), h.span.capacity());
            assert_eq!(now, kept);
        }
    }

    #[test]
    fn bounded_merge_and_clear_match_the_dense_loops() {
        // Every pair of sets: among them a wider histogram merged into a
        // narrower one and the reverse, disjoint ones, and a set whose
        // samples lie below what was recorded before them.
        let sets = sample_sets();
        let mut different_spans = 0;
        for a in &sets {
            for b in &sets {
                let what = format!("{a:?} + {b:?}");
                let (ha, hb) = (of(a), of(b));
                // The definition: all 65 buckets added, whatever each
                // holds.
                let mut dense = ha.buckets();
                for (mine, theirs) in dense.iter_mut().zip(hb.buckets()) {
                    *mine += theirs;
                }
                let moments = (
                    ha.count + hb.count,
                    ha.sum + hb.sum,
                    ha.min.min(hb.min),
                    ha.max.max(hb.max),
                );
                let mut merged = ha.clone();
                merged.merge(&hb);
                assert_eq!(merged.buckets(), dense, "{what}");
                assert_eq!(
                    (merged.count, merged.sum, merged.min, merged.max),
                    moments,
                    "{what}"
                );
                let both: Vec<u64> = a.iter().chain(b).copied().collect();
                assert_eq!(merged, of(&both), "{what}");
                // Recording `b` after `a` one sample at a time widens the
                // span at either end and lands on the same buckets.
                let mut sequential = ha.clone();
                b.iter().for_each(|&v| sequential.record(v));
                assert_eq!(sequential.buckets(), dense, "{what}");
                assert_eq!(sequential, merged, "{what}");
                // Cleared is new — all 65 buckets compared — and stays so
                // through reuse.
                merged.clear();
                assert_eq!(merged, Histogram::new(), "{what}");
                assert_eq!(merged.buckets(), [0; HISTOGRAM_BUCKETS], "{what}");
                b.iter().for_each(|&v| merged.record(v));
                assert_eq!(merged, hb, "{what}");
                assert_eq!(merged.buckets(), hb.buckets(), "{what}");
                merged.clear();
                merged.merge(&ha);
                assert_eq!(merged, ha, "{what}");
                assert_eq!(merged.buckets(), ha.buckets(), "{what}");
                // A histogram cleared after `a` and refilled with `b`,
                // disjoint or not, equals one that only ever saw `b`,
                // whatever span each kept.
                let mut reused = ha.clone();
                reused.clear();
                b.iter().for_each(|&v| reused.record(v));
                assert_eq!(reused, hb, "{what}");
                assert_eq!(reused.buckets(), hb.buckets(), "{what}");
                if (reused.lo, reused.span.len()) != (hb.lo, hb.span.len()) {
                    different_spans += 1;
                }
            }
        }
        assert!(different_spans > 0, "no pair kept a different span");
        // The smallest case of prepending: a small sample after a large
        // one.
        let mut h = of(&[1 << 30]);
        h.record(3);
        assert_eq!((h.lo, h.span.len()), (2, 30));
        assert_eq!(h, of(&[3, 1 << 30]));
        // Same samples, different spans: equal.
        let mut wide = of(&[0, u64::MAX]);
        wide.clear();
        wide.record(12_345);
        assert_ne!(wide.span.len(), of(&[12_345]).span.len());
        assert_eq!(wide, of(&[12_345]));
        wide.record(12_346);
        assert_ne!(wide, of(&[12_345]));
    }
}
