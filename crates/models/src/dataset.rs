//! Labeled per-OU datasets.
//!
//! Each training point pairs an OU's input features with its measured
//! elapsed time, tagged with the *query template* that produced it. The
//! paper evaluates accuracy per template ("we measure the absolute error
//! for each query template and then compute the average", §6), holds out
//! templates for the new-queries scenario (§6.6), and uses 5-fold
//! cross-validation throughout.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One labeled sample.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledPoint {
    pub features: Vec<f64>,
    /// Target: elapsed nanoseconds.
    pub target_ns: f64,
    /// Query template that generated the sample (0 = background work).
    pub template: u32,
}

/// All samples for one OU.
#[derive(Debug, Clone, Default)]
pub struct OuData {
    pub name: String,
    pub points: Vec<LabeledPoint>,
}

/// One OU's points as training and evaluation read them: an owned
/// [`OuData`], or a borrowed selection of one ([`OuSubset`]) — so
/// splitting a dataset never clones it.
pub trait PointSet {
    /// The OU's name.
    fn name(&self) -> &str;

    /// The points, in dataset order.
    fn points(&self) -> impl Iterator<Item = &LabeledPoint>;

    /// Feature/target matrices for fitting; rows borrow the points.
    fn matrices(&self) -> (Vec<&[f64]>, Vec<f64>) {
        self.points()
            .map(|p| (p.features.as_slice(), p.target_ns))
            .unzip()
    }
}

impl PointSet for OuData {
    fn name(&self) -> &str {
        &self.name
    }

    fn points(&self) -> impl Iterator<Item = &LabeledPoint> {
        self.points.iter()
    }
}

/// A borrowed selection of one OU's points (one side of a split).
#[derive(Debug, Clone)]
pub struct OuSubset<'a> {
    pub name: &'a str,
    pub points: Vec<&'a LabeledPoint>,
}

impl PointSet for OuSubset<'_> {
    fn name(&self) -> &str {
        self.name
    }

    fn points(&self) -> impl Iterator<Item = &LabeledPoint> {
        self.points.iter().copied()
    }
}

impl OuData {
    pub fn new(name: &str) -> Self {
        OuData {
            name: name.to_string(),
            points: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Distinct templates present.
    pub fn templates(&self) -> Vec<u32> {
        let mut t: Vec<u32> = self.points.iter().map(|p| p.template).collect();
        t.sort_unstable();
        t.dedup();
        t
    }

    /// Split by template membership: `(in_set, out_of_set)`.
    pub fn split_by_templates(&self, holdout: &[u32]) -> (OuData, OuData) {
        let mut kept = OuData::new(&self.name);
        let mut held = OuData::new(&self.name);
        for p in &self.points {
            if holdout.contains(&p.template) {
                held.points.push(p.clone());
            } else {
                kept.points.push(p.clone());
            }
        }
        (kept, held)
    }

    /// Deterministic subsample of at most `n` points.
    pub fn sample(&self, n: usize, seed: u64) -> OuData {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut idx: Vec<usize> = (0..self.points.len()).collect();
        idx.shuffle(&mut rng);
        idx.truncate(n);
        OuData {
            name: self.name.clone(),
            points: idx.into_iter().map(|i| self.points[i].clone()).collect(),
        }
    }

    /// Merge another dataset of the same OU into this one.
    pub fn extend_from(&mut self, other: &OuData) {
        debug_assert_eq!(self.name, other.name);
        self.points.extend(other.points.iter().cloned());
    }
}

/// K-fold split: returns `k` (train, test) pairs.
pub fn kfold(data: &OuData, k: usize, seed: u64) -> Vec<(OuData, OuData)> {
    assert!(k >= 2, "k-fold needs k >= 2");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..data.points.len()).collect();
    idx.shuffle(&mut rng);
    let mut folds = Vec::with_capacity(k);
    for f in 0..k {
        let mut train = OuData::new(&data.name);
        let mut test = OuData::new(&data.name);
        for (i, &p) in idx.iter().enumerate() {
            if i % k == f {
                test.points.push(data.points[p].clone());
            } else {
                train.points.push(data.points[p].clone());
            }
        }
        folds.push((train, test));
    }
    folds
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize) -> OuData {
        let mut d = OuData::new("scan");
        for i in 0..n {
            d.points.push(LabeledPoint {
                features: vec![i as f64],
                target_ns: (i * 10) as f64,
                template: (i % 4) as u32,
            });
        }
        d
    }

    #[test]
    fn kfold_partitions_everything_exactly_once() {
        let d = data(103);
        let folds = kfold(&d, 5, 1);
        assert_eq!(folds.len(), 5);
        let total_test: usize = folds.iter().map(|(_, t)| t.len()).sum();
        assert_eq!(total_test, 103);
        for (train, test) in &folds {
            assert_eq!(train.len() + test.len(), 103);
            assert!(test.len() >= 20);
        }
    }

    #[test]
    fn kfold_is_deterministic() {
        let d = data(50);
        let a = kfold(&d, 5, 9);
        let b = kfold(&d, 5, 9);
        assert_eq!(a[0].1.points, b[0].1.points);
    }

    #[test]
    fn template_split() {
        let d = data(40);
        assert_eq!(d.templates(), vec![0, 1, 2, 3]);
        let (train, held) = d.split_by_templates(&[3]);
        assert_eq!(held.len(), 10);
        assert_eq!(train.len(), 30);
        assert!(held.points.iter().all(|p| p.template == 3));
    }

    #[test]
    fn sample_bounds_and_determinism() {
        let d = data(100);
        let s = d.sample(10, 3);
        assert_eq!(s.len(), 10);
        assert_eq!(s.points, d.sample(10, 3).points);
        assert_eq!(d.sample(1000, 3).len(), 100);
    }

    #[test]
    fn matrices_shape() {
        let d = data(7);
        let (x, y) = d.matrices();
        assert_eq!(x.len(), 7);
        assert_eq!(y.len(), 7);
        assert_eq!(x[3], vec![3.0]);
        assert_eq!(y[3], 30.0);
    }
}
