//! Log-linear bucketed histograms with percentile estimation.
//!
//! Layout follows the classic HDR-style compromise: values are bucketed
//! by octave (power of two) with [`SUB_BUCKETS`] linear sub-buckets per
//! octave, giving a worst-case relative error of 1/SUB_BUCKETS (12.5%)
//! on percentile estimates across the full `f64` latency range we care
//! about (1 ns .. ~2^63 ns), at a fixed 513-slot memory cost.

/// Linear sub-buckets per power-of-two octave.
pub(crate) const SUB_BUCKETS: usize = 8;
/// Octaves covered (values ≥ 2^OCTAVES saturate into the last bucket).
pub(crate) const OCTAVES: usize = 64;
/// Total bucket count: one underflow bucket for values < 1, then
/// OCTAVES × SUB_BUCKETS log-linear buckets.
pub(crate) const BUCKETS: usize = 1 + OCTAVES * SUB_BUCKETS;

/// A log-linear histogram of non-negative observations.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

/// Bucket index for a value. Values below 1.0 (including negatives,
/// which latency paths never produce) land in the underflow bucket 0.
/// Shared with the lock-free `Hist` cells (`handles.rs`), which bucket
/// identically.
pub(crate) fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v < 1.0 || v.is_infinite() {
        return 0;
    }
    let bits = v as u64; // v ≥ 1, truncation is fine for bucketing
    let octave = 63 - bits.leading_zeros() as usize; // floor(log2)
    if octave >= OCTAVES {
        return BUCKETS - 1;
    }
    // Position within the octave: [2^octave, 2^(octave+1)) split into
    // SUB_BUCKETS equal linear slices.
    let lo = 1u64 << octave;
    let sub = if octave == 0 {
        // Octave [1,2) has span 1 — everything is sub-bucket 0.
        0
    } else {
        (((bits - lo) as u128 * SUB_BUCKETS as u128) >> octave) as usize
    };
    1 + octave * SUB_BUCKETS + sub.min(SUB_BUCKETS - 1)
}

/// Representative (upper-bound) value for a bucket, used when
/// interpolating percentiles and as the exposition's `le` bound.
pub(crate) fn bucket_upper(idx: usize) -> f64 {
    if idx == 0 {
        return 1.0;
    }
    let i = idx - 1;
    let octave = i / SUB_BUCKETS;
    let sub = i % SUB_BUCKETS;
    if octave == 0 {
        // Octave [1,2) is a single sub-bucket (see bucket_index).
        return 2.0;
    }
    let lo = (1u128 << octave) as f64;
    lo + lo * (sub as f64 + 1.0) / SUB_BUCKETS as f64
}

impl Histogram {
    /// `(bucket counts, sum, min, max)` — the state a
    /// [`crate::Hist`] cell mirrors.
    pub(crate) fn parts(&self) -> (&[u64], f64, f64, f64) {
        (&self.counts, self.sum, self.min, self.max)
    }

    /// Rebuild from [`Histogram::parts`]; the observation count is the
    /// sum of the buckets.
    pub(crate) fn from_parts(counts: Vec<u64>, sum: f64, min: f64, max: f64) -> Self {
        Histogram {
            count: counts.iter().sum(),
            counts,
            sum,
            min,
            max,
        }
    }

    pub fn record(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observation (0.0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0.0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Per-bucket counts, which the drift sketches (`sketch.rs`) compare
    /// bucket by bucket.
    pub(crate) fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Estimate the `q`-quantile from the buckets. `q` outside `[0,1]`
    /// is clamped and a NaN `q` is treated as 0.0; an empty histogram
    /// always reports 0.0. The estimate is clamped to the observed
    /// min/max so tails of sparse histograms stay honest.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        // Rank of the target observation, 1-based.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merge another histogram into this one.
    pub fn merge_from(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Occupied buckets as `(upper_bound, cumulative_count)` pairs in
    /// ascending order — the OpenMetrics `_bucket{le="..."}` series.
    /// Empty buckets are skipped (cumulative counts make them
    /// redundant); the final `+Inf` bucket is the renderer's job since
    /// its value is just [`Histogram::count`].
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                cum += c;
                out.push((bucket_upper(i), cum));
            }
        }
        out
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            mean: self.mean(),
            min: self.min(),
            max: self.max(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// Point-in-time summary of a histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: f64,
    pub mean: f64,
    pub min: f64,
    pub max: f64,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_monotone_and_in_range() {
        let mut last = 0usize;
        let mut v = 1.0f64;
        while v < 1e18 {
            let i = bucket_index(v);
            assert!(i < BUCKETS);
            assert!(i >= last, "bucket index regressed at {v}: {i} < {last}");
            last = i;
            v *= 1.07;
        }
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(0.5), 0);
        assert_eq!(bucket_index(-3.0), 0);
        assert_eq!(bucket_index(f64::INFINITY), 0);
    }

    #[test]
    fn bucket_upper_bounds_the_bucket() {
        for v in [1.0, 1.9, 2.0, 3.0, 5.0, 100.0, 1023.0, 1e6, 1e12] {
            let i = bucket_index(v);
            assert!(
                bucket_upper(i) >= v,
                "upper({i}) = {} < value {v}",
                bucket_upper(i)
            );
        }
    }

    #[test]
    fn exact_octave_boundaries() {
        // 2^k must land at the start of octave k, sub-bucket 0.
        for k in 1..40usize {
            let idx = bucket_index((1u64 << k) as f64);
            assert_eq!(idx, 1 + k * SUB_BUCKETS, "2^{k} in wrong bucket");
        }
    }

    #[test]
    fn percentiles_of_uniform_ramp() {
        let mut h = Histogram::default();
        for i in 1..=10_000 {
            h.record(i as f64);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10_000);
        // Log-linear buckets guarantee ≤ 1/SUB_BUCKETS relative error.
        assert!((s.p50 - 5_000.0).abs() / 5_000.0 < 0.15, "p50={}", s.p50);
        assert!((s.p95 - 9_500.0).abs() / 9_500.0 < 0.15, "p95={}", s.p95);
        assert!((s.p99 - 9_900.0).abs() / 9_900.0 < 0.15, "p99={}", s.p99);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 10_000.0);
        assert!((s.mean - 5_000.5).abs() < 1e-6);
    }

    #[test]
    fn single_observation_percentiles_are_exact() {
        let mut h = Histogram::default();
        h.record(777.0);
        let s = h.snapshot();
        assert_eq!(s.p50, 777.0);
        assert_eq!(s.p99, 777.0);
        assert_eq!(s.min, 777.0);
        assert_eq!(s.max, 777.0);
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let s = Histogram::default().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50, 0.0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn empty_quantiles_are_zero_for_any_q() {
        let h = Histogram::default();
        for q in [0.0, 0.5, 1.0, -3.0, 42.0, f64::NAN, f64::INFINITY] {
            assert_eq!(h.quantile(q), 0.0, "q={q}");
        }
    }

    #[test]
    fn out_of_range_and_nan_q_are_clamped() {
        let mut h = Histogram::default();
        h.record(10.0);
        h.record(20.0);
        h.record(30.0);
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
        assert_eq!(h.quantile(f64::NAN), h.quantile(0.0));
        assert!(h.quantile(1.5).is_finite());
    }

    #[test]
    fn single_sample_quantiles_all_collapse() {
        let mut h = Histogram::default();
        h.record(123.0);
        for q in [-0.5, 0.0, 0.25, 0.5, 0.99, 1.0, 7.0] {
            assert_eq!(h.quantile(q), 123.0, "q={q}");
        }
    }

    #[test]
    fn post_merge_quantiles_cover_both_sources() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for i in 1..=1_000 {
            a.record(i as f64); // [1, 1000]
            b.record(9_000.0 + i as f64); // [9001, 10000]
        }
        a.merge_from(&b);
        // Median sits at the seam between the two sources; p99 must come
        // from b's range, p0/p100 from the union's extremes.
        // q=0 lands in the first occupied bucket (upper bound 2.0 for
        // values starting at 1); q=1 is clamped to the exact max.
        assert!(a.quantile(0.0) <= 2.0, "p0={}", a.quantile(0.0));
        assert_eq!(a.quantile(1.0), 10_000.0);
        let p50 = a.quantile(0.5);
        assert!((500.0..=1_100.0).contains(&p50), "p50={p50}");
        let p99 = a.quantile(0.99);
        assert!((9_900.0f64 - p99).abs() / 9_900.0 < 0.15, "p99={p99}");
        // Merging into an empty histogram preserves quantiles too.
        let mut c = Histogram::default();
        c.merge_from(&b);
        assert!((c.quantile(0.5) - 9_500.0).abs() / 9_500.0 < 0.15);
    }

    #[test]
    fn merge_adds_observations() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for i in 0..100 {
            a.record(i as f64);
            b.record((i + 100) as f64);
        }
        a.merge_from(&b);
        assert_eq!(a.count(), 200);
        assert_eq!(a.snapshot().max, 199.0);
        assert_eq!(a.snapshot().min, 0.0);
    }

    #[test]
    fn cumulative_buckets_are_monotone_and_close() {
        let mut h = Histogram::default();
        for v in [0.5, 1.5, 3.0, 3.5, 100.0, 100.0, 1e6] {
            h.record(v);
        }
        let buckets = h.cumulative_buckets();
        assert!(!buckets.is_empty());
        let mut last_upper = f64::NEG_INFINITY;
        let mut last_cum = 0u64;
        for &(upper, cum) in &buckets {
            assert!(upper > last_upper, "upper bounds must ascend");
            assert!(cum > last_cum, "cumulative counts must strictly grow");
            last_upper = upper;
            last_cum = cum;
        }
        // The last cumulative count is the total observation count —
        // the renderer's +Inf bucket equals it.
        assert_eq!(last_cum, h.count());
        // Empty histogram renders no buckets.
        assert!(Histogram::default().cumulative_buckets().is_empty());
    }

    #[test]
    fn saturating_bucket_for_huge_values() {
        let mut h = Histogram::default();
        h.record(f64::MAX);
        // Infinity is ignored by bucket 0 routing but still counted there;
        // f64::MAX routes to the saturating last bucket without panicking.
        assert_eq!(h.count(), 1);
    }
}
