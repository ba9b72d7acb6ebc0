//! Mergeable streaming distribution sketches.
//!
//! A [`Sketch`] summarizes one stream of non-negative observations — an
//! OU's elapsed-time targets, a feature-vector norm — in bounded memory:
//! a latency [`Histogram`] (513 log-linear buckets, exact sum and
//! extremes).
//! Two sketches over the *same* fixed bucketing are directly comparable,
//! which is what the drift detectors in `drift.rs` exploit: PSI and
//! KS-distance reduce to a single pass over aligned bucket counts.
//!
//! Error bounds (documented so the health rules can be calibrated):
//!
//! - **Quantiles**: values ≥ 1 land in log-linear buckets with
//!   `SUB_BUCKETS = 8` linear slices per octave, so a quantile estimate
//!   is off by at most one sub-bucket span — a worst-case *relative*
//!   error of `1/SUB_BUCKETS = 12.5%`. Values in `[0, 1)` share one
//!   underflow bucket and report 1.0; the estimate is clamped to the
//!   observed min/max so sparse tails stay honest.
//! - **Mean**: exact (running sum, no bucketing error), up to f64
//!   rounding.
//! - **KS**: computed on full-resolution bucket proportions, so it is
//!   exact for the bucketed distributions; shifts smaller than one
//!   sub-bucket (< 12.5% relative) are invisible by construction.
//! - **PSI**: computed on *octave-coarsened* bins (underflow + one bin
//!   per power-of-two octave, 65 bins). Fine bins make PSI explode on
//!   noise — a few percent of jitter pushing boundary-straddling mass
//!   into a sub-bucket the reference left empty contributes
//!   `p·ln(p/ε)`, which alone can exceed every alert threshold. Octave
//!   bins give PSI a deliberate noise floor (multiplicative shifts
//!   confined to one octave, < 2×, may be invisible) while real
//!   regime changes still light up; pair with KS when sub-octave
//!   sensitivity matters.

use crate::histogram::{Histogram, OCTAVES, SUB_BUCKETS};

/// Bucket-proportion floor used when a PSI term's numerator or
/// denominator would otherwise be zero (standard epsilon smoothing; keeps
/// PSI finite when one side has an empty bucket the other populates).
const PSI_EPSILON: f64 = 1e-4;

/// A bounded-memory summary of one observation stream.
#[derive(Debug, Clone, Default)]
pub struct Sketch {
    hist: Histogram,
}

impl Sketch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation. NaN is ignored; negative and sub-1 values
    /// land in the shared underflow bucket (the mean stays exact).
    pub fn insert(&mut self, v: f64) {
        if !v.is_nan() {
            self.hist.record(v);
        }
    }

    pub fn count(&self) -> u64 {
        self.hist.count()
    }

    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Exact mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        self.hist.mean()
    }

    /// Quantile estimate with ≤ 12.5% relative error (see module docs).
    /// `q` is clamped to `[0,1]`; NaN is treated as 0; empty reports 0.0.
    pub fn quantile(&self, q: f64) -> f64 {
        self.hist.quantile(q)
    }

    /// Clear all state (the drift detector resets its live window after
    /// each evaluation).
    pub fn reset(&mut self) {
        *self = Sketch::default();
    }

    /// Proportion of mass per octave-coarsened bin: bin 0 is the
    /// underflow bucket, bins 1..=OCTAVES aggregate each octave's
    /// sub-buckets. PSI's working resolution (see module docs).
    fn octave_proportions(&self) -> Vec<f64> {
        let n = self.count() as f64;
        let mut bins = vec![0.0; 1 + OCTAVES];
        for (i, &c) in self.hist.counts().iter().enumerate() {
            if c == 0 {
                continue;
            }
            let bin = if i == 0 { 0 } else { 1 + (i - 1) / SUB_BUCKETS };
            bins[bin] += c as f64 / n;
        }
        bins
    }

    /// Population Stability Index of `self` (live) against `other`
    /// (reference): `Σ (p_i − q_i) · ln(p_i / q_i)` over octave-bin
    /// proportions, with epsilon smoothing for one-sided empty bins and
    /// both-empty bins skipped. 0 when either side is empty.
    ///
    /// Conventional reading: < 0.1 stable, 0.1–0.25 moderate shift,
    /// > 0.25 significant shift.
    pub fn psi(&self, other: &Sketch) -> f64 {
        if self.is_empty() || other.is_empty() {
            return 0.0;
        }
        let ps = self.octave_proportions();
        let qs = other.octave_proportions();
        let mut psi = 0.0;
        for (p, q) in ps.iter().zip(&qs) {
            if *p == 0.0 && *q == 0.0 {
                continue;
            }
            let p = p.max(PSI_EPSILON);
            let q = q.max(PSI_EPSILON);
            psi += (p - q) * (p / q).ln();
        }
        psi
    }

    /// Kolmogorov–Smirnov distance against `other`: the maximum absolute
    /// difference between the two bucketed CDFs, in [0, 1]. 0 when
    /// either side is empty.
    pub fn ks_distance(&self, other: &Sketch) -> f64 {
        if self.is_empty() || other.is_empty() {
            return 0.0;
        }
        let n_p = self.count() as f64;
        let n_q = other.count() as f64;
        let (mut cdf_p, mut cdf_q, mut ks) = (0.0f64, 0.0f64, 0.0f64);
        for (cp, cq) in self.hist.counts().iter().zip(other.hist.counts()) {
            cdf_p += *cp as f64 / n_p;
            cdf_q += *cq as f64 / n_q;
            ks = ks.max((cdf_p - cdf_q).abs());
        }
        ks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(lo: u64, hi: u64) -> Sketch {
        let mut s = Sketch::new();
        for v in lo..hi {
            s.insert(v as f64);
        }
        s
    }

    #[test]
    fn mean_is_exact() {
        let mut s = Sketch::new();
        for v in [2.0, 4.0, 6.0, 8.0] {
            s.insert(v);
        }
        assert_eq!(s.count(), 4);
        assert_eq!(s.mean(), 5.0);
    }

    #[test]
    fn quantile_error_within_documented_bound() {
        let s = filled(1, 10_001);
        for (q, exact) in [(0.5, 5_000.0), (0.95, 9_500.0), (0.99, 9_900.0)] {
            let est = s.quantile(q);
            assert!(
                (est - exact).abs() / exact <= 0.125 + 1e-9,
                "q={q}: est={est} exact={exact}"
            );
        }
    }

    #[test]
    fn empty_sketch_is_zeroed_and_safe() {
        let s = Sketch::new();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.psi(&filled(1, 100)), 0.0);
        assert_eq!(filled(1, 100).psi(&s), 0.0);
        assert_eq!(s.ks_distance(&s), 0.0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut s = filled(1, 100);
        s.reset();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.quantile(0.9), 0.0);
    }

    #[test]
    fn psi_zero_for_identical_and_large_for_shifted() {
        let a = filled(1_000, 2_000);
        let b = filled(1_000, 2_000);
        assert!(a.psi(&b).abs() < 1e-12);
        // 16x shift moves every observation several octaves.
        let shifted = filled(16_000, 32_000);
        assert!(shifted.psi(&a) > 1.0, "psi={}", shifted.psi(&a));
        assert!(shifted.ks_distance(&a) > 0.99);
    }

    #[test]
    fn psi_detects_partial_mixture_shift() {
        // Reference: pure [1000, 2000). Live: half the mass moved 8x up.
        let reference = filled(1_000, 2_000);
        let mut live = filled(1_000, 1_500);
        for v in 8_000..8_500 {
            live.insert(v as f64);
        }
        let psi = live.psi(&reference);
        assert!(psi > 0.25, "half-mass shift should be significant: {psi}");
        let ks = live.ks_distance(&reference);
        assert!((0.4..=0.6).contains(&ks), "ks={ks}");
    }

    #[test]
    fn small_jitter_stays_below_alert_band() {
        // ±3% multiplicative jitter around the same center must not read
        // as drift (intra-octave shifts are invisible to PSI by design).
        let mut a = Sketch::new();
        let mut b = Sketch::new();
        for i in 0..2_000u64 {
            let base = 5_000.0 + (i % 97) as f64;
            a.insert(base);
            b.insert(base * (1.0 + 0.03 * ((i % 7) as f64 - 3.0) / 3.0));
        }
        assert!(b.psi(&a) < 0.1, "psi={}", b.psi(&a));
    }

    #[test]
    fn nan_ignored_negative_goes_to_underflow() {
        let mut s = Sketch::new();
        s.insert(f64::NAN);
        assert!(s.is_empty());
        s.insert(-5.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), -5.0);
        assert!(s.quantile(0.5).is_finite());
    }
}
