//! Online per-OU distribution-drift detection.
//!
//! The training-data pipeline is only as good as the distributions it
//! samples from: if an OU's elapsed-time (target) or feature
//! distribution shifts, previously trained behavior models silently go
//! stale. The [`DriftRegistry`] watches for that, per OU, with two
//! [`Sketch`]-backed channels:
//!
//! - **target** — the OU's `elapsed_ns` stream,
//! - **feature** — the L2 norm of the OU's feature vector (a scalar
//!   proxy that moves whenever any input feature's scale moves).
//!
//! Each channel freezes a *reference* sketch once it has seen
//! [`DriftRegistry::reference_samples`] observations; everything after
//! accumulates into a *live* window. At every evaluation (the driver's
//! pump cadence) a live window with at least
//! [`DriftRegistry::min_live_samples`] observations is scored against
//! the frozen reference — PSI and KS distance — and then reset, so
//! scores always describe the most recent window, not an ever-growing
//! average that would dilute a shift. Scores are *sticky* between
//! evaluations (gauges hold the last computed value).
//!
//! The registry also tracks live model residuals: the model lifecycle
//! feeds `(predicted, actual)` pairs, and each evaluation folds them
//! into a windowed MAPE — the online counterpart of the holdout MAPE
//! the swap gate uses.

use std::collections::BTreeMap;

use crate::sketch::Sketch;

/// Default observations frozen into a channel's reference window.
pub const DEFAULT_REFERENCE_SAMPLES: u64 = 256;
/// Default minimum live-window size before a channel is scored.
pub const DEFAULT_MIN_LIVE_SAMPLES: u64 = 64;

/// One observation stream compared against its own frozen past.
#[derive(Debug, Clone, Default)]
pub struct DriftChannel {
    /// Frozen once it reaches the registry's `reference_samples`.
    reference: Sketch,
    frozen: bool,
    /// Live window, reset after each scoring.
    live: Sketch,
    /// Last computed scores (sticky between evaluations).
    psi: f64,
    ks: f64,
    /// Evaluations that actually scored this channel.
    evaluations: u64,
}

impl DriftChannel {
    fn observe(&mut self, v: f64, reference_samples: u64) {
        if self.frozen {
            self.live.insert(v);
        } else {
            self.reference.insert(v);
            if self.reference.count() >= reference_samples {
                self.frozen = true;
            }
        }
    }

    /// Score live vs reference if both windows qualify; returns whether
    /// a new score was computed. The live window resets either way once
    /// scored.
    fn evaluate(&mut self, min_live_samples: u64) -> bool {
        if !self.frozen || self.live.count() < min_live_samples {
            return false;
        }
        self.psi = self.live.psi(&self.reference);
        self.ks = self.live.ks_distance(&self.reference);
        self.evaluations += 1;
        self.live.reset();
        true
    }

    pub fn psi(&self) -> f64 {
        self.psi
    }

    pub fn ks(&self) -> f64 {
        self.ks
    }

    pub fn reference(&self) -> &Sketch {
        &self.reference
    }

    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    pub fn live_count(&self) -> u64 {
        self.live.count()
    }

    /// Forget the frozen reference and the sticky scores: the next
    /// observations rebuild the reference from scratch. Used after an
    /// *intentional* distribution change (an actuated retrain), where
    /// continuing to score against the pre-change reference would hold
    /// the drift alarm raised forever.
    fn rebaseline(&mut self) {
        self.reference.reset();
        self.live.reset();
        self.frozen = false;
        self.psi = 0.0;
        self.ks = 0.0;
    }
}

/// Per-OU drift state: the two channels plus lifetime statistics and the
/// residual accumulator.
#[derive(Debug, Clone)]
pub struct OuDrift {
    pub subsystem: String,
    pub target: DriftChannel,
    pub feature: DriftChannel,
    /// Every target observation ever seen (reference + all live
    /// windows); serves the `ts_stat_ou` summary columns.
    pub lifetime: Sketch,
    /// Total samples observed.
    pub samples: u64,
    /// Residual window: Σ absolute-percentage-error and its count.
    residual_ape_sum: f64,
    residual_n: u64,
    /// Last evaluated residual MAPE, percent (sticky; NaN-free, 0 until
    /// the first residual evaluation).
    residual_mape_pct: f64,
    /// Residual pairs ever folded into an evaluation.
    pub residual_points: u64,
}

impl OuDrift {
    fn new(subsystem: &str) -> Self {
        OuDrift {
            subsystem: subsystem.to_string(),
            target: DriftChannel::default(),
            feature: DriftChannel::default(),
            lifetime: Sketch::new(),
            samples: 0,
            residual_ape_sum: 0.0,
            residual_n: 0,
            residual_mape_pct: 0.0,
            residual_points: 0,
        }
    }

    /// Headline score: the worst PSI across channels.
    pub fn drift_score(&self) -> f64 {
        self.target.psi().max(self.feature.psi())
    }

    pub fn residual_mape_pct(&self) -> f64 {
        self.residual_mape_pct
    }
}

/// Sticky per-OU scores produced by one [`DriftRegistry::evaluate`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftScore {
    pub ou: String,
    pub subsystem: String,
    pub drift_score: f64,
    pub psi_target: f64,
    pub psi_feature: f64,
    pub ks_target: f64,
    pub ks_feature: f64,
    pub residual_mape_pct: f64,
    /// Whether this evaluation produced any fresh number (vs all-sticky).
    pub updated: bool,
}

/// All OUs' drift state, keyed by OU name.
#[derive(Debug, Clone)]
pub struct DriftRegistry {
    /// Observations frozen into each channel's reference window.
    pub reference_samples: u64,
    /// Minimum live-window observations before a channel is scored.
    pub min_live_samples: u64,
    ous: BTreeMap<String, OuDrift>,
}

impl Default for DriftRegistry {
    fn default() -> Self {
        DriftRegistry {
            reference_samples: DEFAULT_REFERENCE_SAMPLES,
            min_live_samples: DEFAULT_MIN_LIVE_SAMPLES,
            ous: BTreeMap::new(),
        }
    }
}

impl DriftRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.ous.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ous.is_empty()
    }

    pub fn ou(&self, name: &str) -> Option<&OuDrift> {
        self.ous.get(name)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &OuDrift)> {
        self.ous.iter()
    }

    /// Feed one decoded training sample into the OU's channels.
    /// `feature_norm` is the caller-computed L2 norm of the feature
    /// vector (computed outside so this stays allocation-free).
    pub fn observe_sample(&mut self, ou: &str, subsystem: &str, target_ns: f64, feature_norm: f64) {
        // Borrowed-key lookup first: the steady state allocates nothing.
        if !self.ous.contains_key(ou) {
            self.ous.insert(ou.to_string(), OuDrift::new(subsystem));
        }
        let d = self.ous.get_mut(ou).expect("inserted above");
        d.samples += 1;
        d.lifetime.insert(target_ns);
        d.target.observe(target_ns, self.reference_samples);
        d.feature.observe(feature_norm, self.reference_samples);
    }

    /// Feed one live-model residual pair. Zero/negative actuals are
    /// skipped (APE undefined).
    pub fn observe_residual(&mut self, ou: &str, predicted_ns: f64, actual_ns: f64) {
        if !actual_ns.is_finite() || actual_ns <= 0.0 || !predicted_ns.is_finite() {
            return;
        }
        // Residuals can arrive for OUs whose samples were lost upstream;
        // subsystem stays unknown until a sample shows up.
        let d = self
            .ous
            .entry(ou.to_string())
            .or_insert_with(|| OuDrift::new(""));
        d.residual_ape_sum += ((predicted_ns - actual_ns) / actual_ns).abs() * 100.0;
        d.residual_n += 1;
    }

    /// Rebaseline every OU's channels (see [`DriftChannel`]): references
    /// unfreeze and rebuild from the post-change stream, sticky scores
    /// reset to zero. Lifetime statistics, sample counts, and residual
    /// state are kept — only the *comparison baseline* is discarded.
    /// Returns how many OUs were rebaselined.
    pub fn rebaseline_all(&mut self) -> usize {
        for d in self.ous.values_mut() {
            d.target.rebaseline();
            d.feature.rebaseline();
        }
        self.ous.len()
    }

    /// Score every OU's live windows against its references and fold the
    /// residual window into its MAPE. Returns the (sticky) scores for
    /// all OUs so the caller can publish gauges in one pass.
    pub fn evaluate(&mut self) -> Vec<DriftScore> {
        let min_live = self.min_live_samples;
        self.ous
            .iter_mut()
            .map(|(name, d)| {
                let mut updated = d.target.evaluate(min_live);
                updated |= d.feature.evaluate(min_live);
                if d.residual_n > 0 {
                    d.residual_mape_pct = d.residual_ape_sum / d.residual_n as f64;
                    d.residual_points += d.residual_n;
                    d.residual_ape_sum = 0.0;
                    d.residual_n = 0;
                    updated = true;
                }
                DriftScore {
                    ou: name.clone(),
                    subsystem: d.subsystem.clone(),
                    drift_score: d.drift_score(),
                    psi_target: d.target.psi(),
                    psi_feature: d.feature.psi(),
                    ks_target: d.target.ks(),
                    ks_feature: d.feature.ks(),
                    residual_mape_pct: d.residual_mape_pct,
                    updated,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feed `hi - lo` samples covering `[lo, hi)` in a stride
    /// permutation, so the frozen reference prefix and the live suffix
    /// draw from the same distribution (a sequential ramp would make
    /// the reference a biased early slice and read as drift).
    fn feed(r: &mut DriftRegistry, ou: &str, lo: u64, hi: u64) {
        let span = hi - lo;
        for i in 0..span {
            let v = lo + (i * 7919) % span;
            r.observe_sample(ou, "execution_engine", v as f64, 10.0);
        }
    }

    #[test]
    fn reference_freezes_then_live_accumulates() {
        let mut r = DriftRegistry::new();
        feed(&mut r, "scan", 1_000, 1_000 + DEFAULT_REFERENCE_SAMPLES);
        let d = r.ou("scan").unwrap();
        assert!(d.target.is_frozen());
        assert_eq!(d.target.live_count(), 0);
        feed(&mut r, "scan", 1_000, 1_010);
        assert_eq!(r.ou("scan").unwrap().target.live_count(), 10);
    }

    #[test]
    fn no_score_before_min_live_window() {
        let mut r = DriftRegistry::new();
        feed(&mut r, "scan", 1_000, 1_300); // reference + 44 live
        let scores = r.evaluate();
        assert_eq!(scores.len(), 1);
        assert!(!scores[0].updated);
        assert_eq!(scores[0].drift_score, 0.0);
    }

    #[test]
    fn stable_stream_scores_near_zero_shift_scores_high() {
        let mut r = DriftRegistry::new();
        feed(&mut r, "scan", 1_000, 2_000);
        let scores = r.evaluate();
        assert!(scores[0].updated);
        assert!(
            scores[0].drift_score < 0.1,
            "stable: {}",
            scores[0].drift_score
        );
        // Inject a 16x target shift; the next window must flag it.
        feed(&mut r, "scan", 16_000, 17_000);
        let scores = r.evaluate();
        assert!(
            scores[0].psi_target > 1.0,
            "shifted: {}",
            scores[0].psi_target
        );
        assert!(scores[0].ks_target > 0.9);
        assert_eq!(
            scores[0].drift_score,
            scores[0].psi_target.max(scores[0].psi_feature)
        );
    }

    #[test]
    fn scores_are_sticky_across_idle_evaluations() {
        let mut r = DriftRegistry::new();
        feed(&mut r, "scan", 1_000, 2_000);
        feed(&mut r, "scan", 16_000, 17_000);
        let high = r.evaluate()[0].drift_score;
        assert!(high > 1.0);
        // No new samples: the score must hold, not decay to zero.
        let again = r.evaluate();
        assert!(!again[0].updated);
        assert_eq!(again[0].drift_score, high);
    }

    #[test]
    fn feature_channel_flags_feature_only_shift() {
        let mut r = DriftRegistry::new();
        for _ in 0..1_000 {
            r.observe_sample("scan", "execution_engine", 5_000.0, 64.0);
        }
        r.evaluate();
        for _ in 0..200 {
            // Same target, 32x feature norm.
            r.observe_sample("scan", "execution_engine", 5_000.0, 2_048.0);
        }
        let s = &r.evaluate()[0];
        assert!(s.psi_feature > 1.0, "feature psi={}", s.psi_feature);
        assert!(s.psi_target < 0.1, "target psi={}", s.psi_target);
        assert_eq!(s.drift_score, s.psi_feature);
    }

    #[test]
    fn residual_mape_windows_and_accumulates() {
        let mut r = DriftRegistry::new();
        r.observe_residual("scan", 1_100.0, 1_000.0); // 10%
        r.observe_residual("scan", 900.0, 1_000.0); // 10%
        r.observe_residual("scan", 1_000.0, 0.0); // skipped
        let s = &r.evaluate()[0];
        assert!((s.residual_mape_pct - 10.0).abs() < 1e-9);
        assert_eq!(r.ou("scan").unwrap().residual_points, 2);
        // Next window replaces, not averages-with, the old one.
        r.observe_residual("scan", 2_000.0, 1_000.0); // 100%
        let s = &r.evaluate()[0];
        assert!((s.residual_mape_pct - 100.0).abs() < 1e-9);
    }

    #[test]
    fn rebaseline_unfreezes_and_clears_sticky_scores() {
        let mut r = DriftRegistry::new();
        feed(&mut r, "scan", 1_000, 2_000);
        feed(&mut r, "scan", 16_000, 17_000);
        assert!(r.evaluate()[0].drift_score > 1.0);
        assert_eq!(r.rebaseline_all(), 1);
        let d = r.ou("scan").unwrap();
        assert!(!d.target.is_frozen());
        assert_eq!(d.drift_score(), 0.0);
        // Lifetime statistics survive the rebaseline.
        assert_eq!(d.samples, 2_000);
        // The post-change stream becomes the new reference; a stable
        // stream at the *new* level scores clean.
        feed(&mut r, "scan", 16_000, 17_000);
        let s = &r.evaluate()[0];
        assert!(s.updated);
        assert!(s.drift_score < 0.1, "post-rebaseline: {}", s.drift_score);
    }

    #[test]
    fn lifetime_sketch_covers_all_samples() {
        let mut r = DriftRegistry::new();
        feed(&mut r, "scan", 1_000, 1_500);
        r.evaluate();
        feed(&mut r, "scan", 1_000, 1_500);
        let d = r.ou("scan").unwrap();
        assert_eq!(d.samples, 1_000);
        assert_eq!(d.lifetime.count(), 1_000);
        assert!(d.lifetime.quantile(0.5) >= 1_000.0);
    }
}
