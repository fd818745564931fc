//! Order statistics for the harness: medians and quartiles over a
//! handful of repetitions, and quantiles read off the telemetry plane's
//! log2 histograms.

use obs::Histogram;

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
/// On an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a sample"));
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(q1, q2, q3)` exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) computes them, so the spread the
/// harness prints is the spread the acceptance procedure measures. A
/// single value is its own three quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a sample"));
    let ld = v.len();
    assert!(ld > 0, "quartiles of an empty sample");
    if ld == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// `num / den`, or 0 when there is nothing to divide by (a layer that
/// made no calls, an empty capture).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Interquartile range as a share of the median — the steadiness figure
/// printed as `host.rep_spread`.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    ratio(q3 - q1, q2)
}

/// Quantile `q` of a log2 histogram, interpolated linearly inside the
/// bucket the rank falls in and clamped to the exact recorded extrema.
/// The telemetry plane keeps one bucket per power of two, so this is
/// coarse by construction: inside a bucket the true distribution is
/// unknown and the estimate assumes it flat.
pub fn hist_quantile(h: &Histogram, q: f64) -> Option<f64> {
    let (min, max) = (h.min()? as f64, h.max()? as f64);
    let rank = q * h.count() as f64;
    let mut seen = 0.0;
    for (i, &c) in h.buckets().iter().enumerate() {
        if c == 0 {
            continue;
        }
        let c = c as f64;
        if seen + c >= rank {
            let lo = if i == 0 {
                0.0
            } else {
                (1u128 << (i - 1)) as f64
            };
            let hi = (1u128 << i) as f64;
            let inside = ((rank - seen) / c).clamp(0.0, 1.0);
            return Some((lo + (hi - lo) * inside).clamp(min, max));
        }
        seen += c;
    }
    Some(max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), (10.0, 20.0, 30.0));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(spread(&ten), 1.0);
        assert_eq!(spread(&[4.0]), 0.0);
    }

    #[test]
    fn nearest_rank_is_the_shared_obs_helper() {
        // Percentiles of the per-iteration gaps go through the repo's own
        // nearest-rank definition; pin the convention the README quotes.
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(obs::nearest_rank(&sorted, 0.5), Some(500));
        assert_eq!(obs::nearest_rank(&sorted, 0.999), Some(999));
        assert_eq!(obs::nearest_rank(&sorted, 1.0), Some(1000));
        assert_eq!(obs::nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn histogram_quantiles_interpolate_inside_the_bucket() {
        let mut h = Histogram::new();
        for v in 1024..2048u64 {
            h.record(v); // one full bucket, uniformly filled
        }
        let p50 = hist_quantile(&h, 0.5).unwrap();
        assert!((p50 - 1536.0).abs() < 1.0, "{p50}");
        let p999 = hist_quantile(&h, 0.999).unwrap();
        assert!((p999 - 2047.0).abs() < 2.0, "{p999}");
        // Clamped to the recorded extrema, never past them.
        assert_eq!(hist_quantile(&h, 0.0), Some(1024.0));
        assert_eq!(hist_quantile(&h, 1.0), Some(2047.0));
        assert_eq!(hist_quantile(&Histogram::new(), 0.5), None);
    }
}
