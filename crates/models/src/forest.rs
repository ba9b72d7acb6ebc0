//! Random-forest regression from scratch.
//!
//! Bagged CART trees: each tree trains on a bootstrap sample, splits
//! greedily on the (feature, threshold) that minimizes weighted child
//! variance, considers a random subset of features per split, and stops
//! at `max_depth` or `min_leaf`. Prediction averages tree outputs.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::Regressor;

#[derive(Debug, Clone)]
enum Node {
    Leaf(f64),
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

impl Node {
    fn predict(&self, x: &[f64]) -> f64 {
        match self {
            Node::Leaf(v) => *v,
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                if x.get(*feature).copied().unwrap_or(0.0) <= *threshold {
                    left.predict(x)
                } else {
                    right.predict(x)
                }
            }
        }
    }
}

/// The forest.
#[derive(Debug)]
pub struct RandomForest {
    n_trees: usize,
    max_depth: usize,
    min_leaf: usize,
    seed: u64,
    trees: Vec<Node>,
}

impl RandomForest {
    pub fn new(n_trees: usize, max_depth: usize, min_leaf: usize, seed: u64) -> Self {
        RandomForest {
            n_trees,
            max_depth,
            min_leaf,
            seed,
            trees: Vec::new(),
        }
    }

    pub fn is_fitted(&self) -> bool {
        !self.trees.is_empty()
    }
}

fn mean(idx: &[usize], y: &[f64]) -> f64 {
    if idx.is_empty() {
        0.0
    } else {
        idx.iter().map(|&i| y[i]).sum::<f64>() / idx.len() as f64
    }
}

fn sse(idx: &[usize], y: &[f64]) -> f64 {
    let m = mean(idx, y);
    idx.iter().map(|&i| (y[i] - m).powi(2)).sum()
}

fn build(
    idx: &[usize],
    x: &[&[f64]],
    y: &[f64],
    depth: usize,
    max_depth: usize,
    min_leaf: usize,
    rng: &mut StdRng,
) -> Node {
    if depth >= max_depth || idx.len() < 2 * min_leaf {
        return Node::Leaf(mean(idx, y));
    }
    let n_features = x[idx[0]].len();
    if n_features == 0 {
        return Node::Leaf(mean(idx, y));
    }
    // Feature subsample: ~sqrt(d), at least 1.
    let m = ((n_features as f64).sqrt().ceil() as usize).clamp(1, n_features);
    let mut candidates: Vec<usize> = (0..n_features).collect();
    for i in 0..m {
        let j = rng.random_range(i..n_features);
        candidates.swap(i, j);
    }
    candidates.truncate(m);

    let parent_sse = sse(idx, y);
    let mut best = best_split(idx, x, y, &candidates, parent_sse, min_leaf);
    if best.is_none() && m < n_features {
        // The sampled features may all be constant on this node (e.g. a
        // clock-speed context feature); falling back to the full feature
        // set prevents the tree from collapsing into a global-mean leaf.
        let all: Vec<usize> = (0..n_features).collect();
        best = best_split(idx, x, y, &all, parent_sse, min_leaf);
    }
    let Some((feature, threshold, _)) = best else {
        return Node::Leaf(mean(idx, y));
    };
    let (mut li, mut ri): (Vec<usize>, Vec<usize>) = (Vec::new(), Vec::new());
    for &i in idx {
        if x[i][feature] <= threshold {
            li.push(i);
        } else {
            ri.push(i);
        }
    }
    Node::Split {
        feature,
        threshold,
        left: Box::new(build(&li, x, y, depth + 1, max_depth, min_leaf, rng)),
        right: Box::new(build(&ri, x, y, depth + 1, max_depth, min_leaf, rng)),
    }
}

/// Best (feature, threshold, gain) over the candidate features, or `None`
/// when no split beats the parent.
fn best_split(
    idx: &[usize],
    x: &[&[f64]],
    y: &[f64],
    candidates: &[usize],
    parent_sse: f64,
    min_leaf: usize,
) -> Option<(usize, f64, f64)> {
    let mut best: Option<(usize, f64, f64)> = None;
    for &f in candidates {
        // Candidate thresholds: midpoints of sorted unique values
        // (subsampled for speed on large leaves).
        let mut vals: Vec<f64> = idx.iter().map(|&i| x[i][f]).collect();
        vals.sort_by(f64::total_cmp);
        vals.dedup();
        if vals.len() < 2 {
            continue;
        }
        let stride = (vals.len() / 16).max(1);
        for w in vals.windows(2).step_by(stride) {
            let t = (w[0] + w[1]) / 2.0;
            let (mut ln, mut ls, mut lss, mut rn, mut rs, mut rss) =
                (0usize, 0.0f64, 0.0f64, 0usize, 0.0f64, 0.0f64);
            for &i in idx {
                if x[i][f] <= t {
                    ln += 1;
                    ls += y[i];
                    lss += y[i] * y[i];
                } else {
                    rn += 1;
                    rs += y[i];
                    rss += y[i] * y[i];
                }
            }
            if ln < min_leaf || rn < min_leaf {
                continue;
            }
            let child_sse = (lss - ls * ls / ln as f64) + (rss - rs * rs / rn as f64);
            let gain = parent_sse - child_sse;
            if best.map(|(_, _, g)| gain > g).unwrap_or(gain > 1e-12) {
                best = Some((f, t, gain));
            }
        }
    }
    best
}

impl Regressor for RandomForest {
    fn fit(&mut self, x: &[&[f64]], y: &[f64]) {
        self.trees.clear();
        if x.is_empty() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        for _ in 0..self.n_trees {
            // Bootstrap sample.
            let idx: Vec<usize> = (0..x.len()).map(|_| rng.random_range(0..x.len())).collect();
            self.trees.push(build(
                &idx,
                x,
                y,
                0,
                self.max_depth,
                self.min_leaf,
                &mut rng,
            ));
        }
    }

    fn predict(&self, x: &[f64]) -> f64 {
        if self.trees.is_empty() {
            return 0.0;
        }
        self.trees.iter().map(|t| t.predict(x)).sum::<f64>() / self.trees.len() as f64
    }

    fn name(&self) -> &'static str {
        "random_forest"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(n: usize, f: impl Fn(f64, f64) -> f64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let a = (i % 50) as f64;
            let b = ((i * 7) % 31) as f64;
            x.push(vec![a, b]);
            y.push(f(a, b));
        }
        (x, y)
    }

    #[test]
    fn learns_linear_function() {
        let (x, y) = gen(600, |a, b| 100.0 + 12.0 * a + 3.0 * b);
        let mut rf = RandomForest::new(16, 10, 2, 7);
        rf.fit(&crate::rows(&x), &y);
        let mut max_rel = 0.0f64;
        for (xi, yi) in x.iter().zip(&y).step_by(17) {
            let p = rf.predict(xi);
            max_rel = max_rel.max((p - yi).abs() / yi.abs().max(1.0));
        }
        assert!(max_rel < 0.12, "relative error {max_rel}");
    }

    #[test]
    fn learns_nonlinear_interaction() {
        let (x, y) = gen(800, |a, b| a * b + 5.0 * a);
        let mut rf = RandomForest::new(24, 12, 2, 3);
        rf.fit(&crate::rows(&x), &y);
        let mean_y = y.iter().sum::<f64>() / y.len() as f64;
        let sse_model: f64 = x
            .iter()
            .zip(&y)
            .map(|(xi, yi)| (rf.predict(xi) - yi).powi(2))
            .sum();
        let sse_mean: f64 = y.iter().map(|yi| (yi - mean_y).powi(2)).sum();
        assert!(
            sse_model < 0.1 * sse_mean,
            "R^2 too low: {}",
            1.0 - sse_model / sse_mean
        );
    }

    #[test]
    fn deterministic_for_seed() {
        let (x, y) = gen(200, |a, b| a + b);
        let mut a = RandomForest::new(8, 8, 2, 42);
        let mut b = RandomForest::new(8, 8, 2, 42);
        a.fit(&crate::rows(&x), &y);
        b.fit(&crate::rows(&x), &y);
        for xi in x.iter().step_by(13) {
            assert_eq!(a.predict(xi), b.predict(xi));
        }
    }

    #[test]
    fn constant_target_yields_constant_prediction() {
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let y = vec![7.0; 50];
        let mut rf = RandomForest::new(4, 6, 2, 1);
        rf.fit(&crate::rows(&x), &y);
        assert!((rf.predict(&[25.0]) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn empty_fit_predicts_zero() {
        let mut rf = RandomForest::new(4, 6, 2, 1);
        rf.fit(&[], &[]);
        assert_eq!(rf.predict(&[1.0]), 0.0);
        assert!(!rf.is_fitted());
    }
}

#[cfg(test)]
mod regression_tests {
    use super::*;
    use crate::Regressor;

    /// Regression test for a real bug: when the per-node feature subsample
    /// landed only on constant features (e.g. a hardware-context column),
    /// the whole tree collapsed into a single global-mean leaf, inflating
    /// predictions for small inputs by orders of magnitude.
    #[test]
    fn constant_features_do_not_collapse_trees() {
        // Two informative features + two constant context features,
        // heavily skewed targets (like OU datasets: most points small,
        // a few sweep points huge).
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..80 {
            let rows = if i % 8 == 0 { 2048.0 } else { 1.0 };
            x.push(vec![rows, rows * 88.0, 1.0, 2.1]);
            y.push(rows * 13_000.0);
        }
        let mut rf = RandomForest::new(24, 10, 4, 42);
        rf.fit(&crate::rows(&x), &y);
        let small = rf.predict(&[1.0, 88.0, 1.0, 2.1]);
        assert!(
            (small - 13_000.0).abs() / 13_000.0 < 0.25,
            "prediction at the small cluster must not drift toward the \
             global mean: got {small}"
        );
    }
}
