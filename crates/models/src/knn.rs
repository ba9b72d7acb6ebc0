//! k-nearest-neighbor regression.
//!
//! Features are min-max normalized per dimension so distances are
//! comparable across feature scales (tuple counts vs. byte counts).
//! Predictions average the k nearest training targets.

use crate::{feature, Regressor};

/// kNN regressor.
#[derive(Debug)]
pub struct Knn {
    k: usize,
    x: Vec<Vec<f64>>,
    y: Vec<f64>,
    lo: Vec<f64>,
    span: Vec<f64>,
}

impl Knn {
    pub fn new(k: usize) -> Self {
        assert!(k >= 1);
        Knn {
            k,
            x: Vec::new(),
            y: Vec::new(),
            lo: Vec::new(),
            span: Vec::new(),
        }
    }

    fn normalize(&self, x: &[f64]) -> Vec<f64> {
        (self.lo.iter().zip(&self.span).enumerate())
            .map(|(i, (lo, span))| (feature(x, i) - lo) / span)
            .collect()
    }
}

impl Regressor for Knn {
    fn fit(&mut self, x: &[&[f64]], y: &[f64]) {
        self.x.clear();
        self.y = y.to_vec();
        if x.is_empty() {
            return;
        }
        let d = x[0].len();
        self.lo = vec![f64::INFINITY; d];
        let mut hi = vec![f64::NEG_INFINITY; d];
        for row in x {
            for (i, (lo, hi)) in self.lo.iter_mut().zip(&mut hi).enumerate() {
                *lo = lo.min(feature(row, i));
                *hi = hi.max(feature(row, i));
            }
        }
        self.span = (0..d)
            .map(|i| {
                let s = hi[i] - self.lo[i];
                if s.abs() < 1e-12 {
                    1.0
                } else {
                    s
                }
            })
            .collect();
        self.x = x.iter().map(|r| self.normalize(r)).collect();
    }

    fn predict(&self, x: &[f64]) -> f64 {
        if self.x.is_empty() {
            return 0.0;
        }
        let q = self.normalize(x);
        // Track the k smallest distances with a simple bounded insertion —
        // k is tiny (≤ 10), so this beats a heap in practice.
        let mut best: Vec<(f64, f64)> = Vec::with_capacity(self.k + 1);
        for (row, &target) in self.x.iter().zip(&self.y) {
            let d2: f64 = row.iter().zip(&q).map(|(a, b)| (a - b) * (a - b)).sum();
            let pos = best.partition_point(|(d, _)| *d <= d2);
            if pos < self.k {
                best.insert(pos, (d2, target));
                best.truncate(self.k);
            }
        }
        best.iter().map(|(_, t)| t).sum::<f64>() / best.len() as f64
    }

    fn name(&self) -> &'static str {
        "knn"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_neighbors_dominate() {
        let x: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..100).map(|i| (i * 10) as f64).collect();
        let mut m = Knn::new(3);
        m.fit(&crate::rows(&x), &y);
        // Near x=50 the 3 neighbors are 49,50,51 → mean 500.
        assert!((m.predict(&[50.0]) - 500.0).abs() < 1e-9);
        // Extrapolation clamps to the boundary neighborhood.
        assert!((m.predict(&[1000.0]) - 980.0).abs() < 1e-9);
    }

    #[test]
    fn normalization_balances_feature_scales() {
        // Feature 0 in [0,1], feature 1 in [0, 1e6]; target depends only
        // on feature 0. Without normalization, feature 1 would dominate.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..200 {
            let a = (i % 2) as f64;
            let b = ((i * 977) % 1_000_000) as f64;
            x.push(vec![a, b]);
            y.push(a * 100.0);
        }
        let mut m = Knn::new(5);
        m.fit(&crate::rows(&x), &y);
        assert!((m.predict(&[1.0, 500.0]) - 100.0).abs() < 1.0);
        assert!((m.predict(&[0.0, 999_000.0])).abs() < 1.0);
    }

    #[test]
    fn k_larger_than_dataset_is_fine() {
        let mut m = Knn::new(10);
        m.fit(&[&[1.0], &[2.0]], &[10.0, 20.0]);
        assert!((m.predict(&[1.5]) - 15.0).abs() < 1e-9);
    }

    #[test]
    fn empty_fit_predicts_zero() {
        let mut m = Knn::new(3);
        m.fit(&[], &[]);
        assert_eq!(m.predict(&[5.0]), 0.0);
    }
}
