//! # tscout-models — OU behavior models
//!
//! The paper's behavior models (ModelBot2-style, \[29\]) map an operating
//! unit's *input features* to its *output metrics* — primarily elapsed
//! execution time. This crate provides the model substrate the
//! reproduction's accuracy experiments (Figs. 2, 7, 9–12) run on:
//!
//! * [`forest::RandomForest`] — the default regressor: bagged CART trees
//!   with variance-reduction splits and feature subsampling;
//! * [`linreg::Ridge`] — ridge regression via normal equations;
//! * [`dataset`] — labeled per-OU datasets with query-template tags, as
//!   columns;
//! * [`eval`] — the paper's accuracy statistic: **average absolute error
//!   per query template**, plus error-reduction percentages and MAPE;
//! * [`ingest`] — streaming dataset construction from the training-data
//!   archive (`tscout-archive`);
//! * [`registry`] — generation-counted, accuracy-gated model hot-swap.
//!
//! Models are deterministic for a fixed seed.
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

pub mod dataset;
pub mod eval;
pub mod forest;
pub mod ingest;
pub mod linreg;
pub mod registry;

use std::cmp::Reverse;
use std::num::NonZeroUsize;
use std::sync::{Mutex, OnceLock, PoisonError};
use std::{panic, thread};

pub use dataset::{kfold, LabeledPoint, OuData, OuSubset, PointSet, Points, PointsView, Rows};
pub use eval::{avg_abs_error_per_template_us, error_reduction_pct, mape_pct, OuModelSet};
pub use forest::RandomForest;
pub use ingest::{datasets_from_archive, ou_data_from_archive};
pub use linreg::Ridge;
pub use registry::{LiveModel, ModelRegistry, SwapDecision};

/// A trained regression model.
pub trait Regressor: std::fmt::Debug + Send + Sync {
    /// Fit on `points`' `(features, target)` pairs, read in place from
    /// the dataset's columns: a model copies what it keeps, the caller's
    /// dataset is never cloned or gathered into rows to be handed over.
    fn fit(&mut self, points: PointsView<'_>);
    /// Predict one target.
    fn predict(&self, x: &[f64]) -> f64;
    /// Model family name (reporting).
    fn name(&self) -> &'static str;
}

/// The one rule for row width, in every regressor's `fit` and `predict`:
/// a model is as wide as the first row it was fitted on, a row missing
/// feature `i` reads it as `0.0`, extra values are ignored — an OU whose
/// feature list changed between runs panics neither.
#[inline]
pub(crate) fn feature(row: &[f64], i: usize) -> f64 {
    row.get(i).copied().unwrap_or(0.0)
}

/// The one rule for a model's input row, at training and at prediction
/// alike: the OU's own features, then the two context columns (paper
/// §2.2) — the CPU clock in GHz, the only hardware descriptor (§6.4),
/// and the number of concurrent workers. Training pushes it into a
/// dataset's columns, prediction into a scratch row.
pub fn input_values(
    features: impl Iterator<Item = f64>,
    clock_ghz: f64,
    concurrency: f64,
) -> impl Iterator<Item = f64> {
    features.chain([clock_ghz, concurrency])
}

/// `job` on every item on one scoped worker per CPU (the caller among
/// them), each taking the heaviest item not yet started, so the workers
/// finish close together. Results come back in input order; a job's panic
/// is re-raised here with its payload. A job must not touch shared
/// mutable state, or its result would depend on what ran beside it.
pub(crate) fn largest_first<T: Send, R: Send, W: Ord>(
    items: Vec<T>,
    weight: impl Fn(&T) -> W,
    job: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let mut queue: Vec<(usize, T)> = items.into_iter().enumerate().collect();
    queue.sort_by_key(|(_, item)| Reverse(weight(item)));
    let n = queue.len();
    // Held only to take the next item, never while a job runs.
    let queue = Mutex::new(queue.into_iter());
    let next = || queue.lock().unwrap_or_else(PoisonError::into_inner).next();
    let work = || {
        let mut done = Vec::new();
        while let Some((i, item)) = next() {
            done.push((i, job(item)));
        }
        done
    };
    let mut done = thread::scope(|s| {
        // A worker that cannot be spawned leaves its share to the caller.
        let pool: Vec<_> = (1..cpus().min(n))
            .filter_map(|_| thread::Builder::new().spawn_scoped(s, work).ok())
            .collect();
        let mut done = work();
        for worker in pool {
            done.extend(worker.join().unwrap_or_else(|p| panic::resume_unwind(p)));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// The CPUs `largest_first` runs on, asked once per process: on Linux
/// `available_parallelism` reads the cgroup quota files on every call,
/// which took a tenth of a small Ridge retrain.
fn cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Model families available to the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    Forest,
    Ridge,
}

impl ModelKind {
    /// Instantiate with default hyperparameters.
    pub fn build(self, seed: u64) -> Box<dyn Regressor> {
        match self {
            ModelKind::Forest => Box::new(RandomForest::new(24, 10, 4, seed)),
            ModelKind::Ridge => Box::new(Ridge::new(1e-3)),
        }
    }
}

/// Borrow a `Vec`-of-rows test matrix the way the reference fits take it.
#[cfg(test)]
pub(crate) fn rows(x: &[Vec<f64>]) -> Vec<&[f64]> {
    x.iter().map(Vec::as_slice).collect()
}

/// A test matrix and its targets as the columns [`Regressor::fit`] reads.
#[cfg(test)]
pub(crate) fn points(x: &[Vec<f64>], y: &[f64]) -> Points {
    let mut points = Points::default();
    for (row, &target) in x.iter().zip(y) {
        points.push_row(row.iter().copied(), target, 0);
    }
    points
}

/// `points` gathered into rows and targets, as the reference fits take
/// them.
#[cfg(test)]
pub(crate) fn matrices(points: PointsView<'_>) -> (Vec<&[f64]>, Vec<f64>) {
    points.iter().map(|p| (p.features, p.target_ns)).unzip()
}

/// `n` points of one OU whose elapsed time is linear in its one feature,
/// plus `noise` times a fixed jitter.
#[cfg(test)]
pub(crate) fn linear_ou(name: &str, n: usize, noise: f64) -> OuData {
    let mut d = OuData::new(name);
    for i in 0..n {
        let f = (i % 64) as f64;
        let jitter = ((i * 37) % 11) as f64 * noise;
        d.points.push(LabeledPoint {
            features: &[f],
            target_ns: 1000.0 + 500.0 * f + jitter,
            template: (i % 3) as u32,
        });
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The archive may hold an OU whose feature list changed between
    /// runs: `fit` pads and truncates rows the way `predict` always has,
    /// so the ragged fit is the fit on the rows squared to the first
    /// row's width.
    fn ragged_fit_is_the_padded_fit(kind: ModelKind) {
        let ragged: Vec<Vec<f64>> = (0..60)
            .map(|i| {
                let full = [(i % 7) as f64, (i % 5) as f64 * 3.0, 99.0];
                full[..[2, 1, 3, 0][i % 4]].to_vec()
            })
            .collect();
        let squared: Vec<Vec<f64>> = (ragged.iter())
            .map(|r| (0..2).map(|i| feature(r, i)).collect())
            .collect();
        let y: Vec<f64> = (0..60).map(|i| 100.0 + (i % 7) as f64 * 10.0).collect();
        let (mut a, mut b) = (kind.build(3), kind.build(3));
        a.fit(points(&ragged, &y).view());
        b.fit(points(&squared, &y).view());
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        for query in [&[][..], &[3.0], &[3.0, 6.0], &[3.0, 6.0, 1e9]] {
            let p = a.predict(query);
            assert!(p.is_finite(), "{kind:?} predicts {p} for {query:?}");
            assert_eq!(p, b.predict(&[feature(query, 0), feature(query, 1)]));
        }
    }

    #[test]
    fn forest_fit_pads_short_rows() {
        ragged_fit_is_the_padded_fit(ModelKind::Forest);
    }

    #[test]
    fn ridge_fit_pads_short_rows() {
        ragged_fit_is_the_padded_fit(ModelKind::Ridge);
    }

    /// The pool changes when each job runs, never what comes back: input
    /// order, whatever the weights, and a job's panic with its payload.
    #[test]
    fn the_pool_returns_in_input_order_and_reraises_a_panic() {
        let weights = vec![3usize, 90, 0, 7, 90, 41, 1, 2];
        let got = largest_first(weights.clone(), |&w| w, |w| w * 10);
        assert_eq!(got, weights.iter().map(|w| w * 10).collect::<Vec<_>>());
        assert!(largest_first(Vec::<u8>::new(), |&w| w, |w| w).is_empty());
        for bad in [90, 0] {
            let run = || largest_first(weights.clone(), |&w| w, |w| assert_ne!(w, bad, "job {w}"));
            let payload = panic::catch_unwind(run).expect_err("the panic comes back");
            let message = payload
                .downcast_ref::<String>()
                .expect("assert_ne! formats");
            assert!(message.contains(&format!("job {bad}")), "{message}");
        }
    }
}
