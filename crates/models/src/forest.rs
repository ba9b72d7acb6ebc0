//! Random-forest regression from scratch.
//!
//! Bagged CART trees: each tree trains on a bootstrap sample, splits
//! greedily on the (feature, threshold) that minimizes weighted child
//! variance, considers a random subset of features per split, and stops
//! at `max_depth` or `min_leaf`. Prediction averages tree outputs.
//!
//! Training sorts no float below `fit`: each feature is rank-coded once
//! ([`Column`]), a node finds its distinct values by counting codes, and
//! every threshold of a feature is scored from one pass over the node
//! ([`Trainer::score`]) — building, bit for bit, the trees of the
//! sort-per-node trainer kept as `reference` under `#[cfg(test)]`.
//!
//! That pass also sums `y` and `y²` per code. When every sum a fit can
//! form is exact ([`exactly_summable`]: integer targets, as elapsed
//! nanoseconds are, with `n · max|y|² ≤ 2^53`), every summation order
//! gives the same bits, and prefix sums over the codes score each
//! threshold. Otherwise each threshold gets an accumulator lane that
//! adds the node's rows in bootstrap order, as the reference does.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::dataset::PointsView;
use crate::{feature, Regressor};

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
                if crate::feature(x, *feature) <= *threshold {
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

/// Most thresholds one feature can offer a node: `len - 1` windows
/// taken at stride `max(len / 16, 1)` peak at `len = 31`.
const MAX_LANES: usize = 30;

/// One feature, rank-coded once per fit — the only place floats are
/// sorted.
struct Column {
    /// Distinct non-NaN values, ascending; `-0.0 == 0.0` is one value.
    values: Vec<f64>,
    /// Per row, the rank of its value in `values`. NaN rows rank above
    /// every number (`NaN <= t` is never true): `values.len()` with the
    /// sign bit set, one more without.
    codes: Vec<u32>,
}

impl Column {
    /// Rank-code one feature's value on each of the fit's `rows` rows.
    fn code(value: &[f64], rows: u32) -> Column {
        let mut order: Vec<u32> = (0..rows).collect();
        order.sort_unstable_by(|&a, &b| {
            let (a, b) = (value[a as usize], value[b as usize]);
            a.is_nan().cmp(&b.is_nan()).then(a.total_cmp(&b))
        });
        // `distinct` is `values.len()`, which never passes `rows`.
        let (mut values, mut codes, mut distinct) = (Vec::new(), vec![0; value.len()], 0u32);
        for r in order {
            let v = value[r as usize];
            codes[r as usize] = if v.is_nan() {
                distinct + u32::from(v.is_sign_positive())
            } else {
                if values.last() != Some(&v) {
                    values.push(v);
                    distinct += 1;
                }
                distinct - 1
            };
        }
        Column { values, codes }
    }
}

/// `(feature, threshold, gain, left Σy)` of the best split seen so far;
/// the sum is read only when exact ([`Trainer::exact`]).
type Best = Option<(usize, f64, f64, f64)>;

/// One tree under construction: its bootstrap sample, partitioned in
/// place down the tree so that every node is a range `lo..hi` of `rows`
/// / `ys` still in bootstrap order, and the buffers every node reuses.
#[derive(Default)]
struct Trainer<'a> {
    cols: &'a [Column],
    max_depth: usize,
    min_leaf: usize,
    rows: Vec<u32>,
    ys: Vec<f64>,
    candidates: Vec<usize>,
    /// Whether every sum of `ys` and `ys²` is exact ([`exactly_summable`]).
    exact: bool,
    /// Per code: rows of the node carrying it, and their `[Σy, Σy²]`;
    /// all zero between calls.
    count: Vec<u32>,
    sums: Vec<[f64; 2]>,
    /// The codes on the node, ascending, and the rows and `[Σy, Σy²]`
    /// below each (one more entry each: the node's totals).
    present: Vec<u32>,
    below: Vec<usize>,
    below_sums: Vec<[f64; 2]>,
    /// The right side of a partition while the left is compacted.
    spill: (Vec<u32>, Vec<f64>),
}

impl Trainer<'_> {
    /// The tree below node `lo..hi`, whose targets sum to `sum` (bit for
    /// bit their `iter().sum()`).
    fn build(&mut self, lo: usize, hi: usize, depth: usize, sum: f64, rng: &mut StdRng) -> Node {
        // Never empty: a fit has a row, a split a row on either side.
        let ys = &self.ys[lo..hi];
        let mean = sum / ys.len() as f64;
        let d = self.cols.len();
        if depth >= self.max_depth || ys.len() < 2 * self.min_leaf || d == 0 {
            return Node::Leaf(mean);
        }
        // Feature subsample: ⌈√d⌉ (1 ≤ m ≤ d, as d ≥ 1 here).
        let root = d.isqrt();
        let m = if root * root < d { root + 1 } else { root };
        self.candidates.clear();
        self.candidates.extend(0..d);
        for i in 0..m {
            let j = rng.random_range(i..d);
            self.candidates.swap(i, j);
        }
        let parent_sse: f64 = ys.iter().map(|y| (y - mean).powi(2)).sum();
        let mut best = None;
        for i in 0..m {
            self.score(self.candidates[i], lo, hi, parent_sse, &mut best);
        }
        if best.is_none() && m < d {
            // The sampled features may all be constant on this node (e.g. a
            // clock-speed context feature); falling back to the full feature
            // set prevents the tree from collapsing into a global-mean leaf.
            for f in 0..d {
                self.score(f, lo, hi, parent_sse, &mut best);
            }
        }
        let Some((feature, threshold, _, left_sum)) = best else {
            return Node::Leaf(mean);
        };
        let mid = self.partition(lo, hi, feature, threshold);
        // Exact sums carry over from the split. An exact zero could stand
        // for a pass's `-0.0` (every term `-0.0`), so it takes the pass.
        let carried = |s: f64| (self.exact && s != 0.0).then_some(s);
        let [left_sum, right_sum] = [(lo, mid, left_sum), (mid, hi, sum - left_sum)]
            .map(|(lo, hi, s)| carried(s).unwrap_or_else(|| self.ys[lo..hi].iter().sum()));
        Node::Split {
            feature,
            threshold,
            left: Box::new(self.build(lo, mid, depth + 1, left_sum, rng)),
            right: Box::new(self.build(mid, hi, depth + 1, right_sum, rng)),
        }
    }

    /// Offer `best` every threshold feature `f` has on node `lo..hi`:
    /// midpoints of the node's sorted distinct values (subsampled for
    /// speed on large nodes). One pass over the node counts and sums its
    /// rows per code; with exact sums, each threshold is scored from
    /// their prefix sums, otherwise in a second pass with one
    /// accumulator lane per threshold.
    fn score(&mut self, f: usize, lo: usize, hi: usize, parent_sse: f64, best: &mut Best) {
        let Column { values, codes } = &self.cols[f];
        // A midpoint needs two numbers on the fit (and on the node: one
        // code there leaves no window below).
        if values.len() < 2 {
            return;
        }
        let node = &self.rows[lo..hi];
        self.present.clear();
        for (&r, &y) in node.iter().zip(&self.ys[lo..hi]) {
            let c = codes[r as usize];
            if self.count[c as usize] == 0 {
                self.present.push(c);
            }
            self.count[c as usize] += 1;
            let sums = &mut self.sums[c as usize];
            sums[0] += y;
            sums[1] += y * y;
        }
        self.present.sort_unstable();
        self.below.clear();
        self.below_sums.clear();
        let (mut seen, mut sum, mut nans) = (0, [0.0; 2], [0; 2]);
        for &c in &self.present {
            self.below.push(seen);
            self.below_sums.push(sum);
            let rows = std::mem::take(&mut self.count[c as usize]) as usize;
            let [s, ss] = std::mem::take(&mut self.sums[c as usize]);
            (seen, sum) = (seen + rows, [sum[0] + s, sum[1] + ss]);
            if let Some(sign) = (c as usize).checked_sub(values.len()) {
                nans[sign] = rows;
            }
        }
        self.below.push(seen);
        self.below_sums.push(sum);
        let present = &self.present[..];
        let numeric = present.len() - nans.iter().filter(|&&rows| rows > 0).count();
        let offer =
            |best: &mut Best, t: f64, ln: usize, [ls, lss]: [f64; 2], [rs, rss]: [f64; 2]| {
                let rn = seen - ln;
                let child_sse = (lss - ls * ls / ln as f64) + (rss - rs * rs / rn as f64);
                let gain = parent_sse - child_sse;
                if best.map(|(_, _, g, _)| gain > g).unwrap_or(gain > 1e-12) {
                    *best = Some((f, t, gain, ls));
                }
            };

        // The sorted, `==`-deduplicated values of the node: every NaN
        // row is its own entry (NaN != NaN), sign-bit NaNs first.
        let len = nans[0] + numeric + nans[1];
        let stride = (len / 16).max(1);
        let (mut threshold, mut cut, mut left) = ([0.0; MAX_LANES], [0; MAX_LANES], [0; MAX_LANES]);
        let mut lanes = 0;
        for k in (0..len - 1).step_by(stride) {
            if k < nans[0] || k + 1 >= nans[0] + numeric {
                continue; // a NaN midpoint sends every row right
            }
            let w = &present[k - nans[0]..];
            let t = (values[w[0] as usize] + values[w[1] as usize]) / 2.0;
            // `value <= t` in f64: the midpoint may round onto the upper
            // value, overflow to an infinity, or be NaN (-inf, +inf).
            let p = present[..numeric].partition_point(|&c| values[c as usize] <= t);
            let ln = self.below[p];
            // An empty side scores NaN (0/0), which is never a gain.
            if ln.min(seen - ln) < self.min_leaf.max(1) {
                continue;
            }
            if self.exact {
                // Exact sums: any order, and so the prefix, is the scan's.
                let [ls, lss] = self.below_sums[p];
                let [ts, tss] = sum;
                offer(best, t, ln, [ls, lss], [ts - ls, tss - lss]);
            } else {
                // `present[p]`: the lowest code on the lane's right side.
                (threshold[lanes], cut[lanes], left[lanes]) = (t, present[p], ln);
                lanes += 1;
            }
        }
        if lanes == 0 {
            return;
        }
        // Each lane's four sums see exactly the additions a scan of
        // their own would make, in bootstrap order, so gains are
        // bit-identical. (Prefix sums would reassociate inexact sums.)
        let (mut l, mut r) = ([[0.0f64; 2]; MAX_LANES], [[0.0f64; 2]; MAX_LANES]);
        for (&row, &y) in node.iter().zip(&self.ys[lo..hi]) {
            let c = codes[row as usize];
            for ((l, r), &cut) in l[..lanes].iter_mut().zip(&mut r[..lanes]).zip(&cut) {
                let side = if c < cut { l } else { r };
                side[0] += y;
                side[1] += y * y;
            }
        }
        for lane in 0..lanes {
            offer(best, threshold[lane], left[lane], l[lane], r[lane]);
        }
    }

    /// Stable partition of node `lo..hi` on `value <= threshold`, free
    /// of branches: every row is written to both sides' next slot and
    /// one slot advances. Returns where the right side starts.
    fn partition(&mut self, lo: usize, hi: usize, f: usize, threshold: f64) -> usize {
        let Column { values, codes } = &self.cols[f];
        let cut = values.partition_point(|&v| v <= threshold);
        let (mut mid, mut spilled) = (lo, 0);
        for i in lo..hi {
            let (row, y) = (self.rows[i], self.ys[i]);
            (self.rows[mid], self.ys[mid]) = (row, y);
            (self.spill.0[spilled], self.spill.1[spilled]) = (row, y);
            let left = (codes[row as usize] as usize) < cut;
            mid += usize::from(left);
            spilled += usize::from(!left);
        }
        self.rows[mid..hi].copy_from_slice(&self.spill.0[..spilled]);
        self.ys[mid..hi].copy_from_slice(&self.spill.1[..spilled]);
        mid
    }
}

/// Whether every sum [`Trainer::score`] forms is exact: of the targets
/// and of their squares, over any bootstrap draw of `y.len()` of them,
/// in any order. True when every target is an integer and `n · M² ≤
/// 2^53` (`M = max|y|`): then each term and each partial sum is an
/// integer of magnitude at most 2^53, which an `f64` holds exactly.
fn exactly_summable(y: &[f64]) -> bool {
    let mut max = 0.0f64;
    for &v in y {
        // `fract` is NaN for ±∞ and NaN, so those fail too.
        if v.fract() != 0.0 {
            return false;
        }
        max = max.max(v.abs());
    }
    // An integer: exact below 2^64, saturating above, where
    // `fits_exactly` fails for any `n ≥ 1` all the same.
    #[allow(clippy::cast_possible_truncation)]
    fits_exactly(y.len(), max as u64)
}

/// `n · m² ≤ 2^53`, in integers: `f64` would round the product.
fn fits_exactly(n: usize, m: u64) -> bool {
    let m = u128::from(m);
    (n as u128).checked_mul(m * m).is_some_and(|s| s <= 1 << 53)
}

impl Regressor for RandomForest {
    fn fit(&mut self, points: PointsView<'_>) {
        self.trees.clear();
        let Some(first) = points.iter().next() else {
            return;
        };
        let n = points.len();
        // Rank codes are `u32`: a fit of 2^32 rows would hold 32 GiB of
        // targets alone, past any dataset this system collects.
        #[allow(clippy::expect_used)]
        let rows = u32::try_from(n).expect("rank codes are u32: a fit takes at most u32::MAX rows");
        let y: Vec<f64> = points.iter().map(|p| p.target_ns).collect();
        // One feature at a time, gathered into a reused column to be coded.
        let mut value = Vec::with_capacity(n);
        let code = |f| {
            value.clear();
            value.extend(points.iter().map(|p| feature(p.features, f)));
            Column::code(&value, rows)
        };
        let cols: Vec<Column> = (0..first.features.len()).map(code).collect();
        let codes = cols.iter().map(|c| c.values.len() + 2).max();
        let mut trainer = Trainer {
            cols: &cols,
            max_depth: self.max_depth,
            min_leaf: self.min_leaf,
            exact: exactly_summable(&y),
            count: vec![0; codes.unwrap_or(0)],
            sums: vec![[0.0; 2]; codes.unwrap_or(0)],
            spill: (vec![0; n], vec![0.0; n]),
            ..Trainer::default()
        };
        let mut rng = StdRng::seed_from_u64(self.seed);
        for _ in 0..self.n_trees {
            // Bootstrap sample.
            trainer.rows.clear();
            trainer.ys.clear();
            for _ in 0..n {
                let row = rng.random_range(0..n);
                // `row < n`, which fits `u32` (checked above).
                #[allow(clippy::cast_possible_truncation)]
                let code_row = row as u32;
                trainer.rows.push(code_row);
                trainer.ys.push(y[row]);
            }
            let sum = trainer.ys.iter().sum();
            self.trees.push(trainer.build(0, n, 0, sum, &mut rng));
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
mod reference {
    //! The training core as it was before rank coding, verbatim: every
    //! node collects, sorts and dedups each candidate feature's values
    //! and walks the node once per threshold. It is the executable
    //! specification the differential tests hold [`Trainer`] to, tree
    //! for tree.
    use super::*;

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

    /// `RandomForest::fit` as it was: the trees of `forest` on `(x, y)`.
    pub(super) fn fit(forest: &RandomForest, x: &[&[f64]], y: &[f64]) -> Vec<Node> {
        let mut trees = Vec::new();
        if x.is_empty() {
            return trees;
        }
        let mut rng = StdRng::seed_from_u64(forest.seed);
        for _ in 0..forest.n_trees {
            // Bootstrap sample.
            let idx: Vec<usize> = (0..x.len()).map(|_| rng.random_range(0..x.len())).collect();
            trees.push(build(
                &idx,
                x,
                y,
                0,
                forest.max_depth,
                forest.min_leaf,
                &mut rng,
            ));
        }
        trees
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
        rf.fit(crate::points(&x, &y).view());
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
        rf.fit(crate::points(&x, &y).view());
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
        a.fit(crate::points(&x, &y).view());
        b.fit(crate::points(&x, &y).view());
        for xi in x.iter().step_by(13) {
            assert_eq!(a.predict(xi), b.predict(xi));
        }
    }

    #[test]
    fn constant_target_yields_constant_prediction() {
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let y = vec![7.0; 50];
        let mut rf = RandomForest::new(4, 6, 2, 1);
        rf.fit(crate::points(&x, &y).view());
        assert!((rf.predict(&[25.0]) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn the_exact_bound_is_n_times_m_squared_at_most_2_53_in_integers() {
        assert!(fits_exactly(8, 1 << 25));
        assert!(!fits_exactly(8, (1 << 25) + 1));
        assert!(!fits_exactly(9, 1 << 25));
        assert!(fits_exactly(1 << 53, 1));
        // 2^53 + 1 rounds onto 2^53 in `f64`.
        assert!(!fits_exactly((1 << 53) + 1, 1));
        assert!(fits_exactly(usize::MAX, 0));
        assert!(!fits_exactly(2, u64::MAX));
    }

    #[test]
    fn exactly_summable_wants_integers_within_the_bound() {
        assert!(exactly_summable(&[]));
        assert!(exactly_summable(&[-0.0, 0.0, -3.0, 1e7]));
        assert!(exactly_summable(&[-33_554_432.0; 8])); // 8 · (2^25)² = 2^53
        assert!(!exactly_summable(&[-33_554_433.0; 8]));
        for bad in [
            0.5,
            -1e-3,
            1e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert!(!exactly_summable(&[1.0, bad]), "{bad}");
        }
    }

    #[test]
    fn empty_fit_predicts_zero() {
        let mut rf = RandomForest::new(4, 6, 2, 1);
        rf.fit(crate::Points::default().view());
        assert_eq!(rf.predict(&[1.0]), 0.0);
        assert!(!rf.is_fitted());
    }
}

#[cfg(test)]
mod regression_tests {
    use super::*;
    use crate::Regressor;

    /// Two informative features + two constant context features,
    /// heavily skewed targets (like OU datasets: most points small,
    /// a few sweep points huge).
    pub(super) fn skewed_with_constant_context() -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..80 {
            let rows = if i % 8 == 0 { 2048.0 } else { 1.0 };
            x.push(vec![rows, rows * 88.0, 1.0, 2.1]);
            y.push(rows * 13_000.0);
        }
        (x, y)
    }

    /// Regression test for a real bug: when the per-node feature subsample
    /// landed only on constant features (e.g. a hardware-context column),
    /// the whole tree collapsed into a single global-mean leaf, inflating
    /// predictions for small inputs by orders of magnitude.
    #[test]
    fn constant_features_do_not_collapse_trees() {
        let (x, y) = skewed_with_constant_context();
        let mut rf = RandomForest::new(24, 10, 4, 42);
        rf.fit(crate::points(&x, &y).view());
        let small = rf.predict(&[1.0, 88.0, 1.0, 2.1]);
        assert!(
            (small - 13_000.0).abs() / 13_000.0 < 0.25,
            "prediction at the small cluster must not drift toward the \
             global mean: got {small}"
        );
    }
}

/// The oracle: the rank-coded fit must build the trees [`reference`]
/// builds — same features, thresholds, leaf means and RNG draws —
/// compared under `Debug`, which prints every float exactly.
#[cfg(test)]
mod differential {
    use super::*;
    use rand::seq::SliceRandom;

    fn assert_same_trees(case: &str, mut forest: RandomForest, x: &[Vec<f64>], y: &[f64]) {
        let want = reference::fit(&forest, &crate::rows(x), y);
        forest.fit(crate::points(x, y).view());
        assert!(
            format!("{:?}", forest.trees) == format!("{want:?}"),
            "{case}: trees differ from the reference fit"
        );
    }

    const FEATURE_SHAPES: usize = 6;
    const TARGET_SHAPES: usize = 5;

    fn feature_value(shape: usize, rng: &mut StdRng) -> f64 {
        match shape {
            // All-unique continuous.
            0 => rng.random::<f64>() * 1e4 - 5e3,
            // A handful of distinct values.
            1 => [0.5, 1.0, 2.0, 88.0, 2048.0][rng.random_range(0..5)],
            // Fit-wide constant.
            2 => 2.1,
            // Adjacent floats: midpoints round onto a neighbour.
            3 => f64::from_bits(1.0f64.to_bits() + rng.random_range(0..4u64)),
            // Signed zeros, infinities, midpoints that overflow.
            4 => {
                let v = [0.0, f64::INFINITY, 1e308, 1.7e308, 3.0][rng.random_range(0..5)];
                if rng.random() {
                    -v
                } else {
                    v
                }
            }
            // NaN of both signs among a few numbers.
            _ => [f64::NAN, -f64::NAN, -1.0, 0.0, 1.0, 7.5][rng.random_range(0..6)],
        }
    }

    fn target_value(shape: usize, x0: f64, rng: &mut StdRng) -> f64 {
        let u = rng.random::<f64>();
        match shape {
            // Order-sensitive on purpose: at 1e15 an ulp is 0.125, so a
            // reassociated sum lands on a different float.
            0 => 1e15 + u,
            1 => (u - 0.5) * 2e-3,
            // Heavy tail: a few points carry most of the variance.
            2 => 1e3 / (u * u * u + 1e-9),
            3 if u < 0.02 => f64::NAN,
            // Small integers, tied to a feature so splits pay.
            _ => (u * 4.0).floor() + if x0 > 1.0 { 10.0 } else { 0.0 },
        }
    }

    const INTEGER_SHAPES: usize = 4;

    /// Integer targets, the shapes elapsed nanoseconds take, each at most
    /// `cap` in magnitude.
    fn integer_value(shape: usize, x0: f64, cap: f64, rng: &mut StdRng) -> f64 {
        let (u, tied) = (rng.random::<f64>(), x0 > 1.0);
        match shape {
            // Small integers.
            0 => (u * 4.0).floor() + if tied { 10.0 } else { 0.0 },
            // Elapsed-ns-like: mostly small, a tail up to `cap`.
            1 => (cap * (u * u * u + f64::from(u8::from(tied))) / 2.0).floor(),
            // Negative.
            2 => (u * 2e3).floor() - if tied { 3e3 } else { 1e3 },
            // Signed zeros among a few integers.
            _ => [-0.0, 0.0, if tied { 3.0 } else { -1.0 }][rng.random_range(0..3)],
        }
    }

    /// One seeded case: `n` rows of `d` features, every column and the
    /// target an independently drawn shape, a tenth of the rows
    /// duplicated over others. `integer` draws an [`integer_value`]
    /// shape sized to stay exactly summable.
    fn run_case(seed: u64, n: usize, integer: bool) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let d = rng.random_range(1..=6usize);
        let min_leaf = rng.random_range(1..=4usize);
        let max_depth = rng.random_range(1..=12usize);
        let shapes: Vec<usize> = (0..d)
            .map(|_| rng.random_range(0..FEATURE_SHAPES))
            .collect();
        let target = rng.random_range(
            0..if integer {
                INTEGER_SHAPES
            } else {
                TARGET_SHAPES
            },
        );
        let mut x: Vec<Vec<f64>> = (0..n)
            .map(|_| shapes.iter().map(|&s| feature_value(s, rng)).collect())
            .collect();
        // n · cap² ≤ 2^53, one below the rounded root.
        let cap = ((1u64 << 53) as f64 / n.max(1) as f64)
            .sqrt()
            .floor()
            .min(1e7)
            - 1.0;
        let mut y: Vec<f64> = (x.iter())
            .map(|r| match integer {
                true => integer_value(target, r[0], cap, rng),
                false => target_value(target, r[0], rng),
            })
            .collect();
        for _ in 0..n / 10 {
            let (from, to) = (rng.random_range(0..n), rng.random_range(0..n));
            x[to] = x[from].clone();
            y[to] = y[from];
        }
        let case = format!(
            "seed {seed} n {n} d {d} min_leaf {min_leaf} max_depth {max_depth} \
             features {shapes:?} target {target} integer {integer}"
        );
        assert!(
            !integer || exactly_summable(&y),
            "{case}: not exactly summable"
        );
        let forest = RandomForest::new(3, max_depth, min_leaf, seed ^ 0x5eed);
        assert_same_trees(&case, forest, &x, &y);
    }

    fn sweep(sizes: &[usize], cases_per_size: u64, integer: bool) {
        for &n in sizes {
            for case in 0..cases_per_size {
                run_case(1_000 * n as u64 + case, n, integer);
            }
        }
    }

    /// Tier-1 size: every shape is reached, debug-build wall time stays
    /// within a second.
    #[test]
    fn coded_fit_builds_the_reference_trees() {
        sweep(&[0, 1, 2, 7, 33, 200], 12, false);
        sweep(&[1_500], 2, false);
    }

    /// The same on exactly summable targets, where prefix sums score
    /// every threshold.
    #[test]
    fn coded_fit_builds_the_reference_trees_on_integer_targets() {
        sweep(&[0, 1, 2, 7, 33, 200], 12, true);
        sweep(&[1_500], 2, true);
    }

    /// Both sides of the bound at n = 8: at `M = 2^25` every sum is
    /// exact; near 2^27 each square takes 55 bits and sums round, so
    /// prefix sums would pick other thresholds than the lanes, which
    /// hold the reference's order.
    #[test]
    fn targets_past_the_bound_keep_the_lane_scan() {
        let x: Vec<Vec<f64>> = (0..8)
            .map(|i| vec![f64::from(i), f64::from(i % 3)])
            .collect();
        for (top, exact) in [(1u64 << 25, true), ((1 << 25) + 1, false), (1 << 27, false)] {
            for seed in 0..16 {
                let rng = &mut StdRng::seed_from_u64(seed);
                let mut y: Vec<f64> = (0..8)
                    .map(|_| (top - rng.random_range(0..64u64) * 2 - 1) as f64)
                    .collect();
                y[0] = top as f64;
                assert_eq!(exactly_summable(&y), exact, "top {top}");
                let case = format!("top {top} seed {seed}");
                assert_same_trees(&case, RandomForest::new(8, 4, 1, seed), &x, &y);
            }
        }
    }

    /// The full sweep (`ci.sh` runs it in release): 280 cases up to
    /// n = 20 000.
    #[test]
    #[ignore = "seconds in release, minutes in a debug build"]
    fn coded_fit_builds_the_reference_trees_full_sweep() {
        sweep(&[0, 1, 2, 7, 33, 200, 1_500], 38, false);
        sweep(&[20_000], 14, false);
    }

    /// Every combination of one feature shape with one target shape, so
    /// no pairing is left to the seeded draw.
    #[test]
    fn every_feature_shape_meets_every_target_shape() {
        for shape in 0..FEATURE_SHAPES {
            for target in 0..TARGET_SHAPES {
                let rng = &mut StdRng::seed_from_u64((shape * TARGET_SHAPES + target) as u64);
                let x: Vec<Vec<f64>> = (0..120)
                    .map(|_| vec![feature_value(shape, rng), feature_value(1, rng)])
                    .collect();
                let y: Vec<f64> = x.iter().map(|r| target_value(target, r[0], rng)).collect();
                for min_leaf in 1..=4 {
                    let case = format!("feature shape {shape} target {target} min_leaf {min_leaf}");
                    assert_same_trees(&case, RandomForest::new(4, 10, min_leaf, 9), &x, &y);
                }
            }
        }
    }

    #[test]
    fn constant_context_columns_take_the_same_fallback() {
        let (x, y) = regression_tests::skewed_with_constant_context();
        assert_same_trees("constant context", RandomForest::new(24, 10, 4, 42), &x, &y);
    }

    /// NaN rows count once each toward a node's distinct values (and so
    /// toward the threshold stride), and sign-bit NaNs sort first: with
    /// enough of them the stride changes and the numeric windows shift.
    #[test]
    fn nan_occurrences_move_the_stride_as_dedup_counts_them() {
        let mut x: Vec<Vec<f64>> = (0..40).map(|i| vec![(i % 20) as f64]).collect();
        x.extend((0..25).map(|i| vec![if i % 3 == 0 { f64::NAN } else { -f64::NAN }]));
        let mut y: Vec<f64> = (0..65).map(|i| ((i * 37) % 23) as f64).collect();
        let mut order: Vec<usize> = (0..65).collect();
        order.shuffle(&mut StdRng::seed_from_u64(3));
        x = order.iter().map(|&i| x[i].clone()).collect();
        y = order.iter().map(|&i| y[i]).collect();
        for min_leaf in 0..=4 {
            assert_same_trees("nan stride", RandomForest::new(8, 8, min_leaf, 11), &x, &y);
        }
    }
}
