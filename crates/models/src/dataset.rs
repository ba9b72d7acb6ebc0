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
use tscout_archive::ColumnBatch;

/// One labeled sample, borrowed from its dataset's columns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabeledPoint<'a> {
    /// The model's input row ([`crate::input_values`]).
    pub features: &'a [f64],
    /// Target: elapsed nanoseconds.
    pub target_ns: f64,
    /// Query template that generated the sample (0 = background work).
    pub template: u32,
}

/// One OU's points as columns: every input row back to back, where each
/// row ends, the targets and the templates — four allocations for any
/// number of points. Rows may differ in width (an OU whose feature list
/// changed between runs); a model pads or truncates them as it reads.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Points {
    values: Vec<f64>,
    ends: Vec<usize>,
    targets_ns: Vec<f64>,
    templates: Vec<u32>,
}

impl Points {
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Point `i`; panics when out of range, like indexing.
    pub fn at(&self, i: usize) -> LabeledPoint<'_> {
        let start = i.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        LabeledPoint {
            features: &self.values[start..self.ends[i]],
            target_ns: self.targets_ns[i],
            template: self.templates[i],
        }
    }

    pub fn first(&self) -> Option<LabeledPoint<'_>> {
        (!self.is_empty()).then(|| self.at(0))
    }

    /// The points, in dataset order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = LabeledPoint<'_>> {
        (0..self.len()).map(|i| self.at(i))
    }

    /// Every point, as a fit reads them.
    pub fn view(&self) -> PointsView<'_> {
        PointsView {
            points: self,
            rows: &Rows::All,
        }
    }

    /// Every point's target, in dataset order, to relabel in place.
    pub fn targets_ns_mut(&mut self) -> &mut [f64] {
        &mut self.targets_ns
    }

    /// Room for `rows` more points holding `values` input values between
    /// them. Either may be an estimate: a request the allocator refuses is
    /// left to growth.
    pub(crate) fn reserve(&mut self, rows: usize, values: usize) {
        let _ = self.values.try_reserve(values);
        let _ = self.ends.try_reserve(rows);
        let _ = self.targets_ns.try_reserve(rows);
        let _ = self.templates.try_reserve(rows);
    }

    /// Append a point whose input row is `row`.
    pub fn push_row(&mut self, row: impl IntoIterator<Item = f64>, target_ns: f64, template: u32) {
        self.values.extend(row);
        self.ends.push(self.values.len());
        self.targets_ns.push(target_ns);
        self.templates.push(template);
    }

    /// Append one point per row of an archived `batch`, its input row the
    /// features then `context` as [`crate::input_values`] lays it out.
    pub(crate) fn push_archived(&mut self, batch: &ColumnBatch, context: [f64; 2]) {
        let (features, values) = (batch.features(), &mut self.values);
        values.reserve(features.flat().len() + context.len() * batch.len());
        self.ends.reserve(batch.len());
        for row in features.rows() {
            values.extend(row.iter().map(|&v| f64::from_bits(v)));
            values.extend_from_slice(&context);
            self.ends.push(values.len());
        }
        self.targets_ns
            .extend(batch.elapsed_ns().iter().map(|&ns| ns as f64));
        // The block decoder rejects a template past `u32::MAX`.
        #[allow(clippy::cast_possible_truncation)]
        let templates = batch.template().iter().map(|&t| t as u32);
        self.templates.extend(templates);
    }

    /// Append a copy of `p`.
    pub fn push(&mut self, p: LabeledPoint<'_>) {
        self.push_row(p.features.iter().copied(), p.target_ns, p.template);
    }
}

impl<'a> Extend<LabeledPoint<'a>> for Points {
    fn extend<I: IntoIterator<Item = LabeledPoint<'a>>>(&mut self, points: I) {
        points.into_iter().for_each(|p| self.push(p));
    }
}

/// All samples for one OU.
#[derive(Debug, Clone, Default)]
pub struct OuData {
    pub name: String,
    pub points: Points,
}

/// One OU's points as training and evaluation read them: an owned
/// [`OuData`], or a selection of one ([`OuSubset`]) — so splitting a
/// dataset never copies it.
pub trait PointSet {
    /// The OU's name.
    fn name(&self) -> &str;

    /// The points, borrowed from the OU's columns.
    fn view(&self) -> PointsView<'_>;
}

impl PointSet for OuData {
    fn name(&self) -> &str {
        &self.name
    }

    fn view(&self) -> PointsView<'_> {
        self.points.view()
    }
}

/// Which of an OU's rows a subset reads, in the order it reads them.
/// The strided forms take `k >= 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rows {
    /// Every row.
    All,
    /// Rows `k - 1, 2k - 1, …`: every `k`-th, a positional holdout.
    EveryKth(usize),
    /// Every row `EveryKth(k)` leaves out.
    AllButKth(usize),
    /// These rows, in this order (a shuffled `kfold` side).
    Listed(Vec<usize>),
}

impl Rows {
    /// How many of `n` rows this picks.
    fn count(&self, n: usize) -> usize {
        match self {
            Rows::All => n,
            Rows::EveryKth(k) => n / k,
            Rows::AllButKth(k) => n - n / k,
            Rows::Listed(rows) => rows.len(),
        }
    }
}

/// Some of one OU's points, borrowed: its columns and which rows to read.
/// This is what [`crate::Regressor::fit`] and the error statistics read.
#[derive(Debug, Clone, Copy)]
pub struct PointsView<'a> {
    points: &'a Points,
    rows: &'a Rows,
}

impl<'a> PointsView<'a> {
    pub fn len(&self) -> usize {
        self.rows.count(self.points.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The points, in the order the view reads them.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = LabeledPoint<'a>> {
        let (at, run) = match *self.rows {
            Rows::EveryKth(k) => (k - 1, 0),
            Rows::AllButKth(k) => (0, k - 1),
            _ => (0, 0),
        };
        Picked {
            points: self.points,
            rows: self.rows,
            left: self.len(),
            at,
            run,
        }
    }
}

/// [`PointsView::iter`]: a strided view steps through the rows by
/// counting, with no division per point.
#[derive(Debug, Clone)]
struct Picked<'a> {
    points: &'a Points,
    rows: &'a Rows,
    left: usize,
    /// The next row, or for `Listed` the next index into the list.
    at: usize,
    /// `AllButKth`: rows left before the next one skipped.
    run: usize,
}

impl<'a> Iterator for Picked<'a> {
    type Item = LabeledPoint<'a>;

    fn next(&mut self) -> Option<LabeledPoint<'a>> {
        self.left = self.left.checked_sub(1)?;
        let at = self.at;
        let row = match *self.rows {
            Rows::All => at,
            Rows::EveryKth(k) => {
                self.at += k - 1;
                at
            }
            Rows::AllButKth(k) => {
                self.run -= 1;
                if self.run == 0 {
                    (self.at, self.run) = (self.at + 1, k - 1);
                }
                at
            }
            Rows::Listed(ref rows) => rows[at],
        };
        self.at += 1;
        Some(self.points.at(row))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Picked<'_> {}

/// A selection of one OU's points (one side of a split).
#[derive(Debug, Clone)]
pub struct OuSubset<'a> {
    pub data: &'a OuData,
    pub rows: Rows,
}

impl PointSet for OuSubset<'_> {
    fn name(&self) -> &str {
        &self.data.name
    }

    fn view(&self) -> PointsView<'_> {
        PointsView {
            points: &self.data.points,
            rows: &self.rows,
        }
    }
}

impl OuData {
    pub fn new(name: &str) -> Self {
        let name = name.to_string();
        OuData {
            name,
            ..Self::default()
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
        let mut t: Vec<u32> = self.points.templates.clone();
        t.sort_unstable();
        t.dedup();
        t
    }

    /// Split by template membership: `(in_set, out_of_set)`.
    pub fn split_by_templates(&self, holdout: &[u32]) -> (OuData, OuData) {
        let mut kept = OuData::new(&self.name);
        let mut held = OuData::new(&self.name);
        for p in self.points.iter() {
            let side = if holdout.contains(&p.template) {
                &mut held
            } else {
                &mut kept
            };
            side.points.push(p);
        }
        (kept, held)
    }

    /// Deterministic subsample of at most `n` points.
    pub fn sample(&self, n: usize, seed: u64) -> OuData {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut idx: Vec<usize> = (0..self.points.len()).collect();
        idx.shuffle(&mut rng);
        idx.truncate(n);
        let mut out = OuData::new(&self.name);
        out.points
            .extend(idx.into_iter().map(|i| self.points.at(i)));
        out
    }

    /// Merge another dataset of the same OU into this one.
    pub fn extend_from(&mut self, other: &OuData) {
        debug_assert_eq!(self.name, other.name);
        self.points.extend(other.points.iter());
    }
}

/// K-fold split: `k` (train, test) pairs of shuffled row lists of `data`.
pub fn kfold(data: &OuData, k: usize, seed: u64) -> Vec<(OuSubset<'_>, OuSubset<'_>)> {
    assert!(k >= 2, "k-fold needs k >= 2");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..data.len()).collect();
    idx.shuffle(&mut rng);
    let fold = |f: usize| {
        let (mut train, mut test) = (Vec::new(), Vec::new());
        for (i, &p) in idx.iter().enumerate() {
            if i % k == f {
                test.push(p);
            } else {
                train.push(p);
            }
        }
        let side = |rows| OuSubset {
            data,
            rows: Rows::Listed(rows),
        };
        (side(train), side(test))
    };
    (0..k).map(fold).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear_ou;

    #[test]
    fn ragged_rows_read_back_as_pushed() {
        let rows: [&[f64]; 4] = [&[1.0, 2.0], &[], &[3.0], &[4.0, 5.0, 6.0]];
        let mut points = Points::default();
        for (i, row) in rows.iter().enumerate() {
            points.push_row(row.iter().copied(), i as f64, i as u32);
        }
        assert_eq!(points.iter().map(|p| p.features).collect::<Vec<_>>(), rows);
        assert_eq!((points.at(3).target_ns, points.at(3).template), (3.0, 3));
        assert_eq!(points.first().unwrap().features, [1.0, 2.0]);
    }

    fn listed<'a>(side: &'a OuSubset<'_>) -> &'a [usize] {
        match &side.rows {
            Rows::Listed(rows) => rows,
            other => panic!("kfold lists its rows: {other:?}"),
        }
    }

    #[test]
    fn kfold_partitions_everything_exactly_once() {
        let d = linear_ou("scan", 103, 0.0);
        let folds = kfold(&d, 5, 1);
        assert_eq!(folds.len(), 5);
        let mut tested: Vec<usize> = folds.iter().flat_map(|(_, t)| listed(t)).copied().collect();
        tested.sort_unstable();
        assert_eq!(tested, (0..103).collect::<Vec<_>>());
        for (train, test) in &folds {
            assert_eq!(train.view().len() + test.view().len(), 103);
            assert!(test.view().len() >= 20);
        }
    }

    /// A strided view reads the rows an index list of the same stride
    /// names, in order, and says how many up front.
    #[test]
    fn strided_views_read_the_rows_an_index_list_names() {
        for n in 0..40 {
            let mut points = Points::default();
            for i in 0..n {
                points.push_row([i as f64], i as f64, 0);
            }
            let data = OuData {
                name: "scan".into(),
                points,
            };
            let read = |rows: Rows| -> Vec<f64> {
                let side = OuSubset { data: &data, rows };
                let view = side.view();
                let got: Vec<f64> = view.iter().map(|p| p.target_ns).collect();
                assert_eq!((view.len(), view.iter().len()), (got.len(), got.len()));
                got
            };
            let as_f64 = |rows: Vec<usize>| rows.into_iter().map(|i| i as f64).collect::<Vec<_>>();
            assert_eq!(read(Rows::All), as_f64((0..n).collect()));
            for k in 1..8 {
                let held = as_f64((k - 1..n).step_by(k).collect());
                let kept = as_f64((0..n).filter(|i| (i + 1) % k != 0).collect());
                assert_eq!(read(Rows::EveryKth(k)), held, "n {n} k {k}");
                assert_eq!(read(Rows::AllButKth(k)), kept, "n {n} k {k}");
            }
            let shuffled: Vec<usize> = (0..n).rev().step_by(3).collect();
            assert_eq!(read(Rows::Listed(shuffled.clone())), as_f64(shuffled));
        }
    }

    #[test]
    fn kfold_is_deterministic() {
        let d = linear_ou("scan", 50, 0.0);
        let a = kfold(&d, 5, 9);
        let b = kfold(&d, 5, 9);
        assert_eq!(listed(&a[0].1), listed(&b[0].1));
    }

    #[test]
    fn template_split() {
        let d = linear_ou("scan", 39, 0.0);
        assert_eq!(d.templates(), vec![0, 1, 2]);
        let (train, held) = d.split_by_templates(&[2]);
        assert_eq!((train.len(), held.len()), (26, 13));
        assert!(held.points.iter().all(|p| p.template == 2));
    }

    #[test]
    fn sample_bounds_and_determinism() {
        let d = linear_ou("scan", 100, 0.0);
        let s = d.sample(10, 3);
        assert_eq!(s.len(), 10);
        assert_eq!(s.points, d.sample(10, 3).points);
        assert_eq!(d.sample(1000, 3).len(), 100);
    }
}
