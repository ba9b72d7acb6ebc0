//! Ridge regression via the normal equations.
//!
//! Solves `(XᵀX + λI) w = Xᵀy` with Gaussian elimination (partial
//! pivoting) on the small `(d+1)×(d+1)` system — feature counts here are
//! single digits, so dense is exact and cheap. A bias column is appended
//! automatically.

use crate::dataset::PointsView;
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

/// `XᵀX` (its upper triangle, row-major `d × d`) and `Xᵀy` over
/// `points`, each row padded or cut to `d - 1` features and the bias
/// appended: one pass, every entry summed in row order. An augmented
/// width of 1 to 16 is fixed at compile time; a wider fit runs the same
/// body at a width known only at run time.
fn normal_equations(d: usize, points: PointsView<'_>) -> (Vec<f64>, Vec<f64>) {
    /// The same sums in stack arrays at a width the compiler knows, so the
    /// loops unroll and no entry's index is checked.
    fn fixed<const D: usize>(points: PointsView<'_>) -> (Vec<f64>, Vec<f64>) {
        let (mut xtx, mut xty, mut aug) = ([[0.0; D]; D], [0.0; D], [0.0; D]);
        accumulate(points, xtx.as_flattened_mut(), &mut xty, &mut aug);
        (xtx.as_flattened().to_vec(), xty.to_vec())
    }
    macro_rules! by_width {
        ($($w:literal)*) => {
            match d {
                $($w => fixed::<$w>(points),)*
                _ => {
                    let (mut xtx, mut xty) = (vec![0.0; d * d], vec![0.0; d]);
                    accumulate(points, &mut xtx, &mut xty, &mut vec![0.0; d]);
                    (xtx, xty)
                }
            }
        };
    }
    by_width!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16)
}

/// The one body of [`normal_equations`], inlined into each width so that
/// a fixed `d` reaches every loop bound.
#[inline(always)]
fn accumulate(points: PointsView<'_>, xtx: &mut [f64], xty: &mut [f64], aug: &mut [f64]) {
    let d = xty.len();
    let (xtx, aug) = (&mut xtx[..d * d], &mut aug[..d]);
    aug[d - 1] = 1.0;
    for p in points.iter() {
        for (k, a) in aug[..d - 1].iter_mut().enumerate() {
            *a = feature(p.features, k);
        }
        for (i, (&ai, row)) in aug.iter().zip(xtx.chunks_exact_mut(d)).enumerate() {
            for (entry, &aj) in row[i..].iter_mut().zip(&aug[i..]) {
                *entry += ai * aj;
            }
            xty[i] += ai * p.target_ns;
        }
    }
}

impl Regressor for Ridge {
    #[allow(clippy::needless_range_loop)] // symmetric matrix fill
    fn fit(&mut self, points: PointsView<'_>) {
        self.weights.clear();
        let Some(first) = points.iter().next() else {
            return;
        };
        let d = first.features.len() + 1;
        let (xtx, xty) = normal_equations(d, points);
        // The lower triangle mirrors the upper; λ on the diagonal.
        let mut a: Vec<Vec<f64>> = xtx.chunks_exact(d).map(<[f64]>::to_vec).collect();
        for i in 0..d {
            for j in 0..i {
                a[i][j] = a[j][i];
            }
            a[i][i] += self.lambda;
        }
        if let Some(w) = solve(a, xty) {
            self.weights = w;
        }
    }

    fn predict(&self, x: &[f64]) -> f64 {
        let Some((&bias, weights)) = self.weights.split_last() else {
            return 0.0;
        };
        // `feature`'s width rule without a check per value: a missing
        // feature still adds `w * 0.0`, which a NaN or infinite `w` shows.
        let (present, missing) = weights.split_at(weights.len().min(x.len()));
        let acc = present.iter().zip(x).fold(bias, |acc, (w, v)| acc + w * v);
        missing.iter().fold(acc, |acc, w| acc + w * 0.0)
    }

    fn name(&self) -> &'static str {
        "ridge"
    }
}

/// `Ridge::fit` as every earlier build computed it: `XᵀX` as nested
/// `Vec`s, each entry read through [`feature`]. The shipped fit must give
/// the same weights, bit for bit.
#[cfg(test)]
#[allow(clippy::needless_range_loop)] // symmetric matrix fill
pub(crate) fn reference_fit(lambda: f64, x: &[&[f64]], y: &[f64]) -> Vec<f64> {
    if x.is_empty() {
        return Vec::new();
    }
    let d = x[0].len() + 1;
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
        xtx[i][i] += lambda;
    }
    solve(xtx, xty).unwrap_or_default()
}

/// A Ridge holding [`reference_fit`]'s weights.
#[cfg(test)]
pub(crate) fn reference_ridge(lambda: f64, x: &[&[f64]], y: &[f64]) -> Ridge {
    Ridge {
        lambda,
        weights: reference_fit(lambda, x, y),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(w: &[f64]) -> Vec<u64> {
        w.iter().map(|v| v.to_bits()).collect()
    }

    /// The column-view fit against the per-entry [`feature`] reference:
    /// every augmented width from 1 to 21, past the 16 fixed ones, with
    /// square rows and with ragged ones (short, long and empty), and the
    /// `linear_ou` data the gate tests use.
    #[test]
    fn fit_gives_the_reference_weights_bit_for_bit() {
        let mut state = 0x2DCA_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Every pairing of a size, a first-row width of 0 to 20 features
        // and square or ragged rows.
        for case in 0..210 {
            let n = [1, 2, 5, 40, 300][case % 5];
            let (first, ragged) = (case % 21, case % 2 == 0);
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|r| {
                    let width = if r > 0 && ragged {
                        (next() % 24) as usize
                    } else {
                        first
                    };
                    (0..width)
                        .map(|_| (next() % 20_000) as f64 / 7.0 - 900.0)
                        .collect()
                })
                .collect();
            let y: Vec<f64> = (0..n).map(|_| (next() % 1_000_000) as f64 / 3.0).collect();
            let mut m = Ridge::new(1e-3);
            m.fit(crate::points(&rows, &y).view());
            assert_eq!(
                bits(&m.weights),
                bits(&reference_fit(1e-3, &crate::rows(&rows), &y)),
                "case {case}"
            );
        }
        for noise in [0.0, 2.5] {
            let data = crate::linear_ou("scan", 2_000, noise);
            let (x, y) = crate::matrices(data.points.view());
            let mut m = Ridge::new(1e-3);
            m.fit(data.points.view());
            assert!(!m.weights.is_empty());
            assert_eq!(bits(&m.weights), bits(&reference_fit(1e-3, &x, &y)));
        }
    }

    /// `predict` without a bounds check per value gives what the loop
    /// over [`feature`] gave, bit for bit: short, long and empty queries,
    /// signed zeros, infinities and NaN among the weights. (A NaN result
    /// only has to be NaN: Rust leaves a NaN's sign and payload open.)
    #[test]
    #[allow(clippy::needless_range_loop)] // the loop as it was
    fn predict_gives_the_per_feature_loop_bit_for_bit() {
        let per_feature = |w: &[f64], x: &[f64]| {
            let d = w.len();
            let mut acc = w[d - 1];
            for i in 0..d - 1 {
                acc += w[i] * feature(x, i);
            }
            acc
        };
        let values = [
            -0.0,
            0.0,
            1.5,
            -3.25,
            1e300,
            f64::INFINITY,
            f64::NAN,
            7e-310,
        ];
        let pick = |seed: usize, len: usize| -> Vec<f64> {
            (0..len)
                .map(|i| values[(seed * 7 + i * 3) % values.len()])
                .collect()
        };
        for case in 0..400 {
            let weights = pick(case, 1 + case % 9);
            let query = pick(case / 3, case % 11);
            let m = Ridge {
                lambda: 1e-3,
                weights: weights.clone(),
            };
            let (got, want) = (m.predict(&query), per_feature(&weights, &query));
            let same = got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan());
            assert!(same, "case {case}: {got:?} vs {want:?}");
        }
    }

    #[test]
    fn recovers_exact_linear_model() {
        let x: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![(i % 10) as f64, (i / 10) as f64])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| 3.0 + 2.0 * r[0] - 5.0 * r[1]).collect();
        let mut m = Ridge::new(1e-9);
        m.fit(crate::points(&x, &y).view());
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
        tight.fit(crate::points(&x, &y).view());
        let mut loose = Ridge::new(1e6);
        loose.fit(crate::points(&x, &y).view());
        assert!(loose.weights[0].abs() < tight.weights[0].abs());
    }

    #[test]
    fn singular_system_degrades_gracefully() {
        // Duplicate feature columns with zero lambda would be singular;
        // ridge regularization keeps it solvable.
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, i as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] * 2.0).collect();
        let mut m = Ridge::new(1e-6);
        m.fit(crate::points(&x, &y).view());
        assert!((m.predict(&[5.0, 5.0]) - 10.0).abs() < 0.1);
    }

    #[test]
    fn empty_fit_predicts_zero() {
        let mut m = Ridge::new(1.0);
        m.fit(crate::Points::default().view());
        assert_eq!(m.predict(&[1.0, 2.0]), 0.0);
    }

    #[test]
    fn solver_rejects_truly_singular() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert!(solve(a, vec![1.0, 2.0]).is_none());
    }
}
