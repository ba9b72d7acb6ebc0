//! Ridge regression via the normal equations.
//!
//! Solves `(XᵀX + λI) w = Xᵀy` with Gaussian elimination (partial
//! pivoting) on the small `(d+1)×(d+1)` system — feature counts here are
//! single digits, so dense is exact and cheap. A bias column is appended
//! automatically.

use crate::{feature, Regressor};

/// Ridge linear regression.
#[derive(Debug)]
pub struct Ridge {
    lambda: f64,
    /// Learned weights, bias last. Empty until fitted.
    pub weights: Vec<f64>,
}

impl Ridge {
    pub fn new(lambda: f64) -> Self {
        Ridge {
            lambda,
            weights: Vec::new(),
        }
    }
}

/// Solve `A x = b` in place; returns `None` for singular systems.
#[allow(clippy::needless_range_loop)] // index symmetry is clearer here
fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        // Partial pivot.
        let pivot = (col..n).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        let diag = a[col][col];
        for row in col + 1..n {
            let factor = a[row][col] / diag;
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in row + 1..n {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    Some(x)
}

impl Regressor for Ridge {
    #[allow(clippy::needless_range_loop)] // symmetric matrix fill
    fn fit(&mut self, x: &[&[f64]], y: &[f64]) {
        self.weights.clear();
        if x.is_empty() {
            return;
        }
        let d = x[0].len() + 1; // + bias
                                // Build XᵀX + λI and Xᵀy.
        let mut xtx = vec![vec![0.0; d]; d];
        let mut xty = vec![0.0; d];
        for (row, &target) in x.iter().zip(y) {
            let aug = |i: usize| if i + 1 == d { 1.0 } else { feature(row, i) };
            for i in 0..d {
                for j in i..d {
                    xtx[i][j] += aug(i) * aug(j);
                }
                xty[i] += aug(i) * target;
            }
        }
        for i in 0..d {
            for j in 0..i {
                xtx[i][j] = xtx[j][i];
            }
            xtx[i][i] += self.lambda;
        }
        if let Some(w) = solve(xtx, xty) {
            self.weights = w;
        }
    }

    fn predict(&self, x: &[f64]) -> f64 {
        if self.weights.is_empty() {
            return 0.0;
        }
        let d = self.weights.len();
        let mut acc = self.weights[d - 1]; // bias
        for i in 0..d - 1 {
            acc += self.weights[i] * feature(x, i);
        }
        acc
    }

    fn name(&self) -> &'static str {
        "ridge"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_linear_model() {
        let x: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![(i % 10) as f64, (i / 10) as f64])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| 3.0 + 2.0 * r[0] - 5.0 * r[1]).collect();
        let mut m = Ridge::new(1e-9);
        m.fit(&crate::rows(&x), &y);
        assert!((m.weights[0] - 2.0).abs() < 1e-6);
        assert!((m.weights[1] + 5.0).abs() < 1e-6);
        assert!((m.weights[2] - 3.0).abs() < 1e-6);
        assert!((m.predict(&[4.0, 7.0]) - (3.0 + 8.0 - 35.0)).abs() < 1e-6);
    }

    #[test]
    fn regularization_shrinks_weights() {
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| 10.0 * r[0]).collect();
        let mut tight = Ridge::new(1e-9);
        tight.fit(&crate::rows(&x), &y);
        let mut loose = Ridge::new(1e6);
        loose.fit(&crate::rows(&x), &y);
        assert!(loose.weights[0].abs() < tight.weights[0].abs());
    }

    #[test]
    fn singular_system_degrades_gracefully() {
        // Duplicate feature columns with zero lambda would be singular;
        // ridge regularization keeps it solvable.
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, i as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] * 2.0).collect();
        let mut m = Ridge::new(1e-6);
        m.fit(&crate::rows(&x), &y);
        assert!((m.predict(&[5.0, 5.0]) - 10.0).abs() < 0.1);
    }

    #[test]
    fn empty_fit_predicts_zero() {
        let mut m = Ridge::new(1.0);
        m.fit(&[], &[]);
        assert_eq!(m.predict(&[1.0, 2.0]), 0.0);
    }

    #[test]
    fn solver_rejects_truly_singular() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert!(solve(a, vec![1.0, 2.0]).is_none());
    }
}
