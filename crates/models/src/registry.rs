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

use crate::dataset::{OuData, OuSubset, PointSet, Rows};
use crate::eval::{mape_pct, mape_pcts, OuModelSet};
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
        let count = |side: &[D]| side.iter().map(|d| d.view().len()).sum::<usize>();
        let (trained_points, holdout_points) = (count(train), count(holdout));
        if trained_points == 0 || holdout_points == 0 {
            return SwapDecision::Skipped;
        }
        let candidate = OuModelSet::train(self.kind, self.seed, train);
        // Both sets are scored in one sweep of the holdout.
        let (candidate_mape, live_mape) = match &self.live {
            None => (mape_pct(&candidate, holdout), None),
            Some(live) => {
                let [candidate_mape, live_mape] = mape_pcts([&candidate, &live.models], holdout);
                (candidate_mape, Some(live_mape))
            }
        };
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
    /// and retrain as [`Self::retrain_from`] does. The two sides are
    /// strides over `data`'s points; nothing is copied or listed.
    pub fn retrain_split(&mut self, data: &[OuData], holdout_every: usize) -> SwapDecision {
        let every = holdout_every.max(2);
        let side = |rows: Rows| -> Vec<OuSubset<'_>> {
            let subset = |data| OuSubset {
                data,
                rows: rows.clone(),
            };
            data.iter().map(subset).collect()
        };
        self.retrain_from(&side(Rows::AllButKth(every)), &side(Rows::EveryKth(every)))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    use super::*;
    use crate::eval::reference_mape_pct;
    use crate::linear_ou;
    use crate::linreg::reference_ridge;
    use crate::Regressor;

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

    /// The gate as every earlier build ran it: each side an index list,
    /// each OU's Ridge from `reference_fit`, the candidate and the live
    /// set scored one after the other by `reference_mape_pct`.
    #[derive(Default)]
    struct ReferenceGate {
        live: Option<(u64, OuModelSet)>,
    }

    impl ReferenceGate {
        fn retrain(&mut self, train: &[OuSubset<'_>], holdout: &[OuSubset<'_>]) -> SwapDecision {
            let count = |side: &[OuSubset<'_>]| side.iter().map(|s| s.view().len()).sum::<usize>();
            if count(train) == 0 || count(holdout) == 0 {
                return SwapDecision::Skipped;
            }
            let mut models: BTreeMap<String, Box<dyn Regressor>> = BTreeMap::new();
            for side in train {
                let (x, y) = crate::matrices(side.view());
                if !x.is_empty() {
                    let ridge = reference_ridge(RIDGE_LAMBDA, &x, &y);
                    models.insert(side.name().to_string(), Box::new(ridge));
                }
            }
            let candidate = OuModelSet::from_fitted(ModelKind::Ridge, SEED, models);
            let candidate_mape_pct = reference_mape_pct(&candidate, holdout);
            let live = self.live.as_ref();
            let live_mape = live.map(|(_, set)| reference_mape_pct(set, holdout));
            if !live_mape.is_none_or(|live| candidate_mape_pct <= live) {
                return SwapDecision::Rejected {
                    candidate_mape_pct,
                    live_mape_pct: live_mape.unwrap_or(f64::INFINITY),
                };
            }
            let generation = live.map_or(0, |(generation, _)| *generation) + 1;
            self.live = Some((generation, candidate));
            SwapDecision::Accepted {
                generation,
                candidate_mape_pct,
            }
        }
    }

    /// What `ModelKind::Ridge` builds with.
    const RIDGE_LAMBDA: f64 = 1e-3;
    const SEED: u64 = 11;

    /// Each OU's rows that `rows` picks.
    fn strided(data: &[OuData], rows: Rows) -> Vec<OuSubset<'_>> {
        let side = |data| OuSubset {
            data,
            rows: rows.clone(),
        };
        data.iter().map(side).collect()
    }

    /// Each OU's rows that `keep` names, as an index list.
    fn listed(data: &[OuData], keep: impl Fn(usize) -> bool) -> Vec<OuSubset<'_>> {
        let side = |data: &OuData| (0..data.len()).filter(|&i| keep(i)).collect();
        (data.iter())
            .map(|d| OuSubset {
                data: d,
                rows: Rows::Listed(side(d)),
            })
            .collect()
    }

    /// `n` seeded points: the first row `width` features wide, the rest as
    /// wide or, when `ragged`, 0 to `width + 3`; targets linear in the
    /// features with noise, every ninth one zero.
    fn seeded_ou(name: &str, n: usize, width: usize, ragged: bool, rng: &mut StdRng) -> OuData {
        let mut d = OuData::new(name);
        for i in 0..n {
            let w = if i > 0 && ragged {
                rng.random_range(0..=width + 3)
            } else {
                width
            };
            // Sevenths round, so a sum taken in another order moves bits.
            let row: Vec<f64> = (0..w)
                .map(|_| rng.random_range(0..7_000) as f64 / 7.0)
                .collect();
            let linear: f64 = row
                .iter()
                .enumerate()
                .map(|(k, v)| v * (k + 1) as f64)
                .sum();
            let target = if i % 9 == 4 {
                0.0
            } else {
                500.0 + linear + rng.random_range(0..400) as f64
            };
            d.points.push_row(row, target, 0);
        }
        d
    }

    /// The installed set is the reference's: every model under `Debug`
    /// (each weight printed exactly) and every prediction's bits, on
    /// every point and on an OU no set has.
    fn assert_same_live(
        reg: &ModelRegistry,
        reference: &ReferenceGate,
        data: &[OuData],
        case: &str,
    ) {
        let (live, want) = (reg.live(), reference.live.as_ref());
        assert_eq!(live.is_some(), want.is_some(), "{case}");
        let (Some(live), Some((generation, want))) = (live, want) else {
            return;
        };
        assert_eq!(live.generation, *generation, "{case}");
        assert_eq!(format!("{:?}", live.models), format!("{want:?}"), "{case}");
        for d in data {
            for name in [d.name.as_str(), "mystery"] {
                for p in d.points.iter() {
                    let got = live.models.predict_ns(name, p.features).map(f64::to_bits);
                    let expect = want.predict_ns(name, p.features).map(f64::to_bits);
                    assert_eq!(got, expect, "{case}: {name}");
                }
            }
        }
    }

    fn assert_same_decision(got: SwapDecision, want: SwapDecision, case: &str) {
        let bits = |d: SwapDecision| match d {
            SwapDecision::Accepted {
                generation,
                candidate_mape_pct,
            } => (1, generation, candidate_mape_pct.to_bits(), 0),
            SwapDecision::Rejected {
                candidate_mape_pct,
                live_mape_pct,
            } => (2, 0, candidate_mape_pct.to_bits(), live_mape_pct.to_bits()),
            SwapDecision::Skipped => (3, 0, 0, 0),
        };
        assert_eq!(bits(got), bits(want), "{case}: {got:?} vs {want:?}");
    }

    /// Strided sides, the column-view fit and the one-sweep gate against
    /// [`ReferenceGate`]: every augmented width from 1 to 21 (past the 16
    /// the fit fixes at compile time), square and ragged rows, an OU
    /// shorter than the stride, zero targets, a duplicate OU name, an
    /// empty OU, the gate without a live model and with one (accepting and
    /// rejecting), and holdout OUs the candidate or the live set has no
    /// model for.
    #[test]
    fn the_gate_and_the_fit_match_the_index_list_reference_bit_for_bit() {
        let rng = &mut StdRng::seed_from_u64(46);
        let mut data: Vec<OuData> = (0..=20)
            .map(|w| seeded_ou(&format!("w{w}"), 20 + 6 * w, w, w % 2 == 1, rng))
            .collect();
        data.push(seeded_ou("short", 3, 2, false, rng));
        data.push(seeded_ou("w4", 57, 4, true, rng));
        data.push(OuData::new("empty"));
        let half: Vec<OuData> = (data.iter())
            .map(|d| {
                let mut h = OuData::new(&d.name);
                h.points.extend(d.points.iter().take(d.len() / 2));
                h
            })
            .collect();

        let mut seen = Vec::new();
        for every in [1, 2, 5, 7] {
            let k = every.max(2);
            // Training rows off by 3x, the holdout intact: a regression.
            let mut skewed = data.clone();
            for d in &mut skewed {
                let targets = d.points.targets_ns_mut().iter_mut();
                targets
                    .enumerate()
                    .filter(|(i, _)| (i + 1) % k != 0)
                    .for_each(|(_, t)| *t *= 3.0);
            }
            let (mut reg, mut reference) = (registry(), ReferenceGate::default());
            // No live model, then one to beat, then a skewed candidate.
            for (round, data) in [&half, &data, &skewed, &data].into_iter().enumerate() {
                let case = format!("split every {every}, round {round}");
                let got = reg.retrain_split(data, every);
                let want = reference.retrain(
                    &listed(data, |i| (i + 1) % k != 0),
                    &listed(data, |i| (i + 1) % k == 0),
                );
                assert_same_decision(got, want, &case);
                assert_same_live(&reg, &reference, data, &case);
                seen.push(got);
            }
        }

        // A candidate trained on the first OUs only, gated on all of them
        // and on a name no set has: no live model, then one that lacks the
        // OUs the later candidate adds.
        let mystery = [seeded_ou("mystery", 40, 3, false, rng)];
        let holdout_of = |data: &[OuData]| data.iter().chain(&mystery).cloned().collect::<Vec<_>>();
        let (mut reg, mut reference) = (registry(), ReferenceGate::default());
        for (round, trained) in [4, 12, data.len()].into_iter().enumerate() {
            let case = format!("retrain_from, round {round}");
            let held = holdout_of(&data);
            let got = reg.retrain_from(
                &strided(&data[..trained], Rows::AllButKth(3)),
                &strided(&held, Rows::EveryKth(3)),
            );
            let want = reference.retrain(
                &listed(&data[..trained], |i| (i + 1) % 3 != 0),
                &listed(&held, |i| (i + 1) % 3 == 0),
            );
            assert_same_decision(got, want, &case);
            assert_same_live(&reg, &reference, &held, &case);
            seen.push(got);
        }
        // The cases reach both verdicts with a live model to beat.
        let replaced = |d: &SwapDecision| matches!(d, SwapDecision::Accepted { generation, .. } if *generation > 1);
        let rejected = |d: &SwapDecision| matches!(d, SwapDecision::Rejected { .. });
        assert!(
            seen.iter().any(replaced) && seen.iter().any(rejected),
            "{seen:?}"
        );
    }

    fn registry() -> ModelRegistry {
        ModelRegistry::new(ModelKind::Ridge, SEED, Telemetry::new())
    }
}
