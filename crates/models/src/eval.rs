//! Model evaluation: the paper's accuracy statistics.
//!
//! "OLTP transactions are short-lived and result in noisy runtime
//! measurements, so we measure the absolute error (|Actual − Predict|)
//! for each query template and then compute the average" (§6). All
//! errors are reported in microseconds, matching the paper's figures.

use std::collections::BTreeMap;

use crate::dataset::{kfold, OuData, OuSubset, PointSet};
use crate::{largest_first, ModelKind, Regressor};

/// One trained model per OU.
#[derive(Debug)]
pub struct OuModelSet {
    models: BTreeMap<String, Box<dyn Regressor>>,
    kind: ModelKind,
    seed: u64,
}

/// One OU's model, fitted alone; `None` for an empty dataset. Every fit
/// of [`OuModelSet::train`]'s pool runs under this frame, whichever
/// thread it is on (`tools/pcprof`: `--under fit_ou`).
fn fit_ou<D: PointSet>(kind: ModelKind, seed: u64, data: &D) -> Option<Box<dyn Regressor>> {
    let points = data.view();
    if points.is_empty() {
        return None;
    }
    let mut m = kind.build(seed);
    m.fit(points);
    Some(m)
}

impl OuModelSet {
    /// Train one model per (non-empty) OU dataset.
    ///
    /// The OUs are independent fits, so they run side by side on
    /// `largest_first`'s pool, the largest OU first. Every fit is the
    /// same call on the same data and seed as a one-at-a-time loop's, and
    /// models are installed in input order, so the set is the same bit
    /// for bit: a repeated OU name keeps its last dataset's model.
    pub fn train<D: PointSet + Sync>(kind: ModelKind, seed: u64, data: &[D]) -> OuModelSet {
        let fitted = largest_first(
            data.iter().collect(),
            |d| d.view().len(),
            |d| fit_ou(kind, seed, d),
        );
        let mut models = BTreeMap::new();
        for (d, model) in data.iter().zip(fitted) {
            if let Some(m) = model {
                models.insert(d.name().to_string(), m);
            }
        }
        OuModelSet { models, kind, seed }
    }

    /// Predict elapsed ns for one OU invocation; `None` when no model
    /// exists for that OU (no training data seen).
    pub fn predict_ns(&self, ou: &str, features: &[f64]) -> Option<f64> {
        self.models.get(ou).map(|m| m.predict(features).max(0.0))
    }

    pub fn ou_names(&self) -> Vec<&str> {
        self.models.keys().map(String::as_str).collect()
    }

    /// Retrain this set's OU model on augmented data (online
    /// refinement); empty data leaves the set as it is.
    pub fn retrain_ou<D: PointSet>(&mut self, data: &D) {
        if let Some(m) = fit_ou(self.kind, self.seed, data) {
            self.models.insert(data.name().to_string(), m);
        }
    }
}

/// Average absolute error per query template, in microseconds.
///
/// Groups the test set by template, computes each template's mean
/// absolute prediction error summed over the OUs in the template, and
/// averages across templates. Test points whose OU has no model
/// contribute their full actual time as error (the model predicts 0).
pub fn avg_abs_error_per_template_us<D: PointSet>(models: &OuModelSet, test: &[D]) -> f64 {
    // template -> (sum of |err| in ns, count)
    let mut by_template: BTreeMap<u32, (f64, u64)> = BTreeMap::new();
    for d in test {
        for p in d.view().iter() {
            let predicted = models.predict_ns(d.name(), p.features).unwrap_or(0.0);
            let err = (p.target_ns - predicted).abs();
            let e = by_template.entry(p.template).or_insert((0.0, 0));
            e.0 += err;
            e.1 += 1;
        }
    }
    if by_template.is_empty() {
        return 0.0;
    }
    let per_template: Vec<f64> = by_template
        .values()
        .map(|(sum, n)| sum / *n as f64)
        .collect();
    per_template.iter().sum::<f64>() / per_template.len() as f64 / 1000.0
}

/// K-fold cross-validated error for a set of OU datasets: trains on each
/// fold's training split and evaluates on its test split, averaging.
pub fn cross_validated_error_us(kind: ModelKind, seed: u64, data: &[OuData], k: usize) -> f64 {
    // Each OU is split once; fold `f` is every OU's `f`-th pair.
    let mut folds: Vec<(Vec<OuSubset<'_>>, Vec<OuSubset<'_>>)> = vec![Default::default(); k];
    for d in data {
        for (fold, (train, test)) in folds.iter_mut().zip(kfold(d, k, seed)) {
            fold.0.push(train);
            fold.1.push(test);
        }
    }
    let mut total = 0.0;
    for (train, test) in &folds {
        let models = OuModelSet::train(kind, seed, train);
        total += avg_abs_error_per_template_us(&models, test);
    }
    total / k as f64
}

/// Mean absolute percentage error over a test set, in percent.
///
/// The model-lifecycle accuracy gate uses this relative statistic so the
/// decision is scale-free across OUs with very different runtimes.
/// Points with a zero/negative actual time are skipped (a percentage of
/// nothing is undefined); points whose OU has no model count the model's
/// implicit 0 prediction as 100% error.
pub fn mape_pct<D: PointSet + Sync>(models: &OuModelSet, test: &[D]) -> f64 {
    let [mape] = mape_pcts([models], test);
    mape
}

/// [`mape_pct`] of each of `sets` over one test set, in one sweep of it.
/// Each OU's error terms, one per set, are computed on `largest_first`'s
/// pool, then summed point by point in test order, so every MAPE has the
/// bits of a loop over one set on one thread.
pub(crate) fn mape_pcts<const N: usize, D: PointSet + Sync>(
    sets: [&OuModelSet; N],
    test: &[D],
) -> [f64; N] {
    let per_ou = largest_first(
        test.iter().collect(),
        |d| d.view().len(),
        |d| {
            let models = sets.map(|set| set.models.get(d.name()));
            let points = d.view();
            let mut terms = Vec::with_capacity(points.len());
            for p in points.iter().filter(|p| p.target_ns > 0.0) {
                terms.push(models.map(|model| {
                    let predicted = model.map_or(0.0, |m| m.predict(p.features).max(0.0));
                    (p.target_ns - predicted).abs() / p.target_ns * 100.0
                }));
            }
            terms
        },
    );
    let (mut sums, mut n) = ([0.0; N], 0u64);
    for terms in per_ou.iter().flatten() {
        for (sum, term) in sums.iter_mut().zip(terms) {
            *sum += term;
        }
        n += 1;
    }
    if n == 0 {
        [0.0; N]
    } else {
        sums.map(|sum| sum / n as f64)
    }
}

/// Percentage reduction in error from `baseline` to `improved`
/// (the statistic of Figs. 2 and 11). Positive = improvement.
pub fn error_reduction_pct(baseline_us: f64, improved_us: f64) -> f64 {
    if baseline_us <= 0.0 {
        return 0.0;
    }
    (baseline_us - improved_us) / baseline_us * 100.0
}

/// A set of models fitted elsewhere, as the reference gate builds it.
#[cfg(test)]
impl OuModelSet {
    pub(crate) fn from_fitted(
        kind: ModelKind,
        seed: u64,
        models: BTreeMap<String, Box<dyn Regressor>>,
    ) -> OuModelSet {
        OuModelSet { models, kind, seed }
    }
}

/// [`mape_pct`] as every earlier build computed it, one model lookup per
/// point; the shipped one must give the same value, bit for bit.
#[cfg(test)]
pub(crate) fn reference_mape_pct<D: PointSet>(models: &OuModelSet, test: &[D]) -> f64 {
    let mut sum = 0.0;
    let mut n = 0u64;
    for d in test {
        for p in d.view().iter() {
            if p.target_ns <= 0.0 {
                continue;
            }
            let predicted = models.predict_ns(d.name(), p.features).unwrap_or(0.0);
            sum += (p.target_ns - predicted).abs() / p.target_ns * 100.0;
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::LabeledPoint;
    use crate::linear_ou;

    #[test]
    fn trained_models_predict_well() {
        let data = vec![linear_ou("scan", 500, 0.0), linear_ou("filter", 300, 0.0)];
        let models = OuModelSet::train(ModelKind::Forest, 1, &data);
        assert_eq!(models.ou_names(), vec!["filter", "scan"]);
        let err = avg_abs_error_per_template_us(&models, &data);
        assert!(err < 1.0, "training error should be tiny: {err} us");
    }

    #[test]
    fn unknown_ou_counts_full_error() {
        let train = vec![linear_ou("scan", 100, 0.0)];
        let models = OuModelSet::train(ModelKind::Ridge, 1, &train);
        let test = vec![linear_ou("mystery", 10, 0.0)];
        let err = avg_abs_error_per_template_us(&models, &test);
        assert!(err > 1.0, "no model → predicts 0 → large error");
    }

    #[test]
    fn per_template_averaging_weights_templates_equally() {
        // Template 0: huge errors, 1 point. Template 1: zero error, 99 pts.
        let mut d = OuData::new("x");
        d.points.push(LabeledPoint {
            features: &[0.0],
            target_ns: 1_000_000.0,
            template: 0,
        });
        for _ in 0..99 {
            d.points.push(LabeledPoint {
                features: &[1.0],
                target_ns: 0.0,
                template: 1,
            });
        }
        // Model that always predicts 0: train on empty-ish... use unknown OU.
        let models = OuModelSet::train::<OuData>(ModelKind::Ridge, 1, &[]);
        let err = avg_abs_error_per_template_us(&models, &[d]);
        // Per-template: (1e6 ns, 0 ns) → mean 5e5 ns = 500 µs.
        assert!((err - 500.0).abs() < 1e-6, "{err}");
    }

    #[test]
    fn cross_validation_runs_and_is_reasonable() {
        let data = vec![linear_ou("scan", 400, 1.0)];
        let err = cross_validated_error_us(ModelKind::Forest, 2, &data, 5);
        assert!(err < 2.0, "cv error {err} us");
        // Folds are built once per OU, not once per (OU, fold): the value
        // is the one the k²-clone loop returned, to the bit.
        assert_eq!(err, 0.06503623015620151);
    }

    #[test]
    fn mape_is_scale_free_and_skips_zero_targets() {
        let train = vec![linear_ou("scan", 200, 0.0)];
        let models = OuModelSet::train(ModelKind::Ridge, 1, &train);
        let err = mape_pct(&models, &train);
        assert!(err < 1.0, "training MAPE should be tiny: {err}%");
        // No model for this OU → predicts 0 → 100% error per point.
        let unknown = vec![linear_ou("mystery", 10, 0.0)];
        let err = mape_pct(&models, &unknown);
        assert!((err - 100.0).abs() < 1e-9, "{err}");
        // Zero-target points are skipped, not divided by.
        let mut zeros = OuData::new("scan");
        zeros.points.push(LabeledPoint {
            features: &[1.0],
            target_ns: 0.0,
            template: 0,
        });
        assert_eq!(mape_pct(&models, &[zeros]), 0.0);
    }

    /// One lookup per OU gives the per-point lookup's MAPE to the bit:
    /// known and unknown OUs, zero targets, ragged rows, both kinds.
    #[test]
    fn mape_matches_the_per_point_reference_bit_for_bit() {
        let mut ragged = linear_ou("join", 90, 1.0);
        ragged.points.push(LabeledPoint {
            features: &[],
            target_ns: 700.0,
            template: 1,
        });
        ragged.points.push(LabeledPoint {
            features: &[3.0, 9.0, 27.0],
            target_ns: 0.0,
            template: 2,
        });
        let test = vec![
            linear_ou("scan", 300, 2.0),
            ragged,
            linear_ou("mystery", 20, 0.0),
            OuData::new("empty"),
        ];
        for kind in [ModelKind::Ridge, ModelKind::Forest] {
            let train = [linear_ou("scan", 400, 3.0), linear_ou("join", 120, 0.5)];
            let models = OuModelSet::train(kind, 7, &train);
            let (got, want) = (mape_pct(&models, &test), reference_mape_pct(&models, &test));
            assert_eq!(got.to_bits(), want.to_bits(), "{kind:?}");
        }
    }

    #[test]
    fn error_reduction_math() {
        assert!((error_reduction_pct(100.0, 2.0) - 98.0).abs() < 1e-9);
        assert!(error_reduction_pct(100.0, 150.0) < 0.0);
        assert_eq!(error_reduction_pct(0.0, 5.0), 0.0);
    }

    /// The pool changes when each OU is fitted, never what: every model is
    /// the one its dataset gets fitted alone, and a repeated name keeps
    /// its later dataset's model.
    fn parallel_training_matches_one_at_a_time(kind: ModelKind) {
        let seed = 5;
        let mut data = vec![
            linear_ou("scan", 70, 4.0),
            linear_ou("huge", 3_000, 2.0),
            linear_ou("filter", 150, 0.5),
            linear_ou("single", 1, 0.0),
            OuData::new("empty"),
            linear_ou("join", 90, 3.0),
            linear_ou("sort", 40, 1.5),
            // Larger than the first "scan", so it is fitted before it.
            linear_ou("scan", 120, 1.0),
        ];
        for t in data[7].points.targets_ns_mut() {
            *t *= 3.0;
        }
        let set = OuModelSet::train(kind, seed, &data);
        let alone = |d: &OuData| {
            let mut m = kind.build(seed);
            m.fit(d.view());
            format!("{m:?}")
        };
        let names = ["filter", "huge", "join", "scan", "single", "sort"];
        assert_eq!(set.ou_names(), names);
        for d in &data[1..] {
            if !d.is_empty() {
                assert_eq!(format!("{:?}", set.models[&d.name]), alone(d), "{}", d.name);
            }
        }
        assert_ne!(alone(&data[0]), alone(&data[7]), "the two scans differ");
    }

    #[test]
    fn parallel_forest_training_matches_one_at_a_time() {
        parallel_training_matches_one_at_a_time(ModelKind::Forest);
    }

    #[test]
    fn parallel_ridge_training_matches_one_at_a_time() {
        parallel_training_matches_one_at_a_time(ModelKind::Ridge);
    }

    #[test]
    fn retrain_ou_replaces_model() {
        let mut models = OuModelSet::train(ModelKind::Ridge, 1, &[linear_ou("scan", 50, 0.0)]);
        let before = models.predict_ns("scan", &[10.0]).unwrap();
        // Retrain with doubled targets.
        let mut d = linear_ou("scan", 50, 0.0);
        d.points.targets_ns_mut().iter_mut().for_each(|t| *t *= 2.0);
        models.retrain_ou(&d);
        let after = models.predict_ns("scan", &[10.0]).unwrap();
        assert!(after > 1.5 * before);
    }
}
