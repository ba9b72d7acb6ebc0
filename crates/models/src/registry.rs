//! Model lifecycle: generation-counted, accuracy-gated hot swap.
//!
//! The paper's pipeline ends with behavior models trained offline from
//! collected data; a self-driving DBMS must *refresh* those models as new
//! training data arrives without ever serving a worse model than the one
//! currently live. [`ModelRegistry`] implements that contract:
//!
//! 1. a candidate [`OuModelSet`] is trained from archived data,
//! 2. both the candidate and the live set are evaluated on the same
//!    holdout (MAPE, scale-free across OUs),
//! 3. the candidate is installed — atomically, under a bumped generation
//!    counter — only if it does not regress beyond the configured
//!    tolerance. Rejected candidates leave the live model and its
//!    generation untouched.
//!
//! Readers take cheap [`Arc`] snapshots ([`ModelRegistry::live`]), so a
//! swap never invalidates an in-flight prediction pass.

use std::sync::Arc;

use tscout_telemetry::decls::{
    MODEL_GENERATION, MODEL_HOLDOUT_MAPE_PCT, MODEL_SWAP_ACCEPTED, MODEL_SWAP_REJECTED,
    MODEL_TRAINED_POINTS,
};
use tscout_telemetry::{CounterSite, GaugeSite, Telemetry};

use crate::dataset::{OuData, OuSubset, PointSet};
use crate::eval::{mape_pct, OuModelSet};
use crate::ModelKind;

/// The currently-installed model set plus its provenance.
#[derive(Debug, Clone)]
pub struct LiveModel {
    /// Monotonic install counter; bumps only on an accepted swap.
    pub generation: u64,
    /// The trained per-OU models (shared snapshot).
    pub models: Arc<OuModelSet>,
    /// Holdout MAPE measured when this model was installed, in percent.
    pub holdout_mape_pct: f64,
    /// Number of training points the model was fit on.
    pub trained_points: usize,
}

/// Outcome of one retraining attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SwapDecision {
    /// Candidate installed; the new generation and its holdout MAPE.
    Accepted {
        generation: u64,
        candidate_mape_pct: f64,
    },
    /// Candidate discarded; live model and generation unchanged.
    Rejected {
        candidate_mape_pct: f64,
        live_mape_pct: f64,
    },
    /// Not enough data to train or evaluate — nothing changed.
    Skipped,
}

/// The registry's metrics, declared beside the `ts_stat_model` table that
/// reads them ([`tscout_telemetry::decls`]).
#[derive(Debug)]
struct ModelMetrics {
    generation: GaugeSite,
    holdout_mape_pct: GaugeSite,
    trained_points: GaugeSite,
    swap_accepted: CounterSite,
    swap_rejected: CounterSite,
}

/// Generation-counted model registry with an accuracy gate.
#[derive(Debug)]
pub struct ModelRegistry {
    kind: ModelKind,
    seed: u64,
    /// A candidate may be at most this many percentage points worse than
    /// the live model on the shared holdout and still be accepted
    /// (absorbs evaluation noise; 0.0 = strict no-regression).
    pub tolerance_pct: f64,
    live: Option<LiveModel>,
    telemetry: Telemetry,
    metrics: ModelMetrics,
}

impl ModelRegistry {
    pub fn new(kind: ModelKind, seed: u64, telemetry: Telemetry) -> Self {
        let metrics = ModelMetrics {
            generation: MODEL_GENERATION.site(&[]),
            holdout_mape_pct: MODEL_HOLDOUT_MAPE_PCT.site(&[]),
            trained_points: MODEL_TRAINED_POINTS.site(&[]),
            swap_accepted: MODEL_SWAP_ACCEPTED.site(&[]),
            swap_rejected: MODEL_SWAP_REJECTED.site(&[]),
        };
        // Generation 0 is exported from construction on.
        metrics.generation.get(&telemetry).set(0.0);
        ModelRegistry {
            kind,
            seed,
            tolerance_pct: 0.0,
            live: None,
            telemetry,
            metrics,
        }
    }

    /// Snapshot of the live model, if one has been installed.
    pub fn live(&self) -> Option<LiveModel> {
        self.live.clone()
    }

    /// Current generation (0 until the first accepted swap).
    pub fn generation(&self) -> u64 {
        self.live.as_ref().map_or(0, |l| l.generation)
    }

    /// Predict via the live model; `None` when no model is installed or
    /// the OU has never been seen.
    pub fn predict_ns(&self, ou: &str, features: &[f64]) -> Option<f64> {
        self.live.as_ref()?.models.predict_ns(ou, features)
    }

    /// Train a candidate on `train`, gate it on `holdout`, and hot-swap
    /// if it does not regress beyond `tolerance_pct`.
    ///
    /// The live model is re-evaluated on the *same* holdout so the
    /// comparison tracks the current data distribution, not the one the
    /// live model happened to be installed under.
    pub fn retrain_from<D: PointSet + Sync>(&mut self, train: &[D], holdout: &[D]) -> SwapDecision {
        let count = |side: &[D]| side.iter().map(|d| d.points().count()).sum::<usize>();
        let (trained_points, holdout_points) = (count(train), count(holdout));
        if trained_points == 0 || holdout_points == 0 {
            return SwapDecision::Skipped;
        }
        let candidate = OuModelSet::train(self.kind, self.seed, train);
        let candidate_mape = mape_pct(&candidate, holdout);
        let live_mape = self.live.as_ref().map(|l| mape_pct(&l.models, holdout));
        let accept = match live_mape {
            None => true, // first model: nothing to regress against
            Some(live) => candidate_mape <= live + self.tolerance_pct,
        };
        if !accept {
            self.metrics.swap_rejected.get(&self.telemetry).inc();
            return SwapDecision::Rejected {
                candidate_mape_pct: candidate_mape,
                live_mape_pct: live_mape.unwrap_or(f64::INFINITY),
            };
        }
        let generation = self.generation() + 1;
        self.live = Some(LiveModel {
            generation,
            models: Arc::new(candidate),
            holdout_mape_pct: candidate_mape,
            trained_points,
        });
        let (t, m) = (&self.telemetry, &self.metrics);
        m.swap_accepted.get(t).inc();
        m.generation.get(t).set(generation as f64);
        m.holdout_mape_pct.get(t).set(candidate_mape);
        m.trained_points.get(t).set(trained_points as f64);
        SwapDecision::Accepted {
            generation,
            candidate_mape_pct: candidate_mape,
        }
    }

    /// Convenience: split each OU's data into train/holdout by position
    /// (every `holdout_every`-th point held out, deterministic — no
    /// shuffle, so the holdout leans recent the way arrival order does)
    /// and retrain as [`Self::retrain_from`] does. The two sides index
    /// `data`'s points; nothing is copied.
    pub fn retrain_split(&mut self, data: &[OuData], holdout_every: usize) -> SwapDecision {
        let every = holdout_every.max(2);
        let side = |held_out: bool| -> Vec<OuSubset<'_>> {
            data.iter()
                .map(|d| OuSubset {
                    data: d,
                    rows: if held_out {
                        (every - 1..d.len()).step_by(every).collect()
                    } else {
                        (0..d.len()).filter(|i| (i + 1) % every != 0).collect()
                    },
                })
                .collect()
        };
        self.retrain_from(&side(false), &side(true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear_ou;

    #[test]
    fn first_retrain_installs_generation_one() {
        let t = Telemetry::new();
        let mut reg = ModelRegistry::new(ModelKind::Ridge, 1, t.clone());
        assert_eq!(reg.generation(), 0);
        assert!(reg.predict_ns("scan", &[1.0]).is_none());
        let d = vec![linear_ou("scan", 200, 0.0)];
        let decision = reg.retrain_split(&d, 5);
        assert!(matches!(
            decision,
            SwapDecision::Accepted { generation: 1, .. }
        ));
        assert_eq!(reg.generation(), 1);
        assert!(reg.predict_ns("scan", &[10.0]).is_some());
        assert_eq!(t.counter_value("model_swap_accepted_total", &[]), 1);
        assert_eq!(t.gauge_value("model_generation", &[]), 1.0);
    }

    #[test]
    fn regressed_candidate_is_rejected_and_generation_unchanged() {
        let t = Telemetry::new();
        let mut reg = ModelRegistry::new(ModelKind::Ridge, 1, t.clone());
        let good = vec![linear_ou("scan", 200, 0.0)];
        reg.retrain_split(&good, 5);
        let live_before = reg.live().unwrap();

        // Candidate trained on garbage labels, gated on a clean holdout.
        let mut garbage = linear_ou("scan", 200, 0.0);
        garbage.points.targets_ns_mut().fill(1.0);
        let holdout = vec![linear_ou("scan", 60, 0.0)];
        let decision = reg.retrain_from(&[garbage], &holdout);
        assert!(matches!(decision, SwapDecision::Rejected { .. }));
        assert_eq!(reg.generation(), 1);
        assert_eq!(t.counter_value("model_swap_rejected_total", &[]), 1);
        assert_eq!(t.gauge_value("model_generation", &[]), 1.0);
        // Live snapshot is the same installed model.
        assert!(Arc::ptr_eq(
            &reg.live().unwrap().models,
            &live_before.models
        ));

        // A good candidate still gets through afterwards.
        let decision = reg.retrain_from(&good, &holdout);
        assert!(matches!(
            decision,
            SwapDecision::Accepted { generation: 2, .. }
        ));
        assert_eq!(reg.generation(), 2);
    }

    #[test]
    fn empty_data_is_skipped() {
        let mut reg = ModelRegistry::new(ModelKind::Ridge, 1, Telemetry::new());
        assert_eq!(reg.retrain_from::<OuData>(&[], &[]), SwapDecision::Skipped);
        let empty = vec![OuData::new("scan")];
        assert_eq!(reg.retrain_split(&empty, 5), SwapDecision::Skipped);
        assert_eq!(reg.generation(), 0);
    }

    #[test]
    fn tolerance_admits_small_regressions() {
        let t = Telemetry::new();
        let mut reg = ModelRegistry::new(ModelKind::Ridge, 1, t);
        reg.tolerance_pct = 200.0; // absurdly lax gate
        let good = vec![linear_ou("scan", 200, 0.0)];
        reg.retrain_split(&good, 5);
        let mut noisy = linear_ou("scan", 200, 0.0);
        for t in noisy.points.targets_ns_mut() {
            *t *= 1.5; // consistently off, but within tolerance
        }
        let holdout = vec![linear_ou("scan", 60, 0.0)];
        let decision = reg.retrain_from(&[noisy], &holdout);
        assert!(matches!(
            decision,
            SwapDecision::Accepted { generation: 2, .. }
        ));
    }
}
