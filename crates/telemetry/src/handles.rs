//! Metric handles: the cells a series' value lives in.
//!
//! The registry maps `name{labels}` to a cell; a *handle* is a clone of
//! the `Arc` around that cell. Resolving a handle takes the registry lock
//! once ([`crate::Telemetry::counter`] and friends); every update through
//! it afterwards is a few atomic operations — no lock, no key, no
//! allocation — and lands in the same series the string-keyed
//! `counter_inc(name, labels)` calls address.
//!
//! Hot metrics are declared where they are used as a [`Site`] (fixed
//! label set) or a [`SiteVec`] (one label whose values are indexed, e.g.
//! by OU id): name and labels are written down once, next to the cached
//! handle, and the series is registered on *first use* — so a metric that
//! never fires is never exported, exactly as with the string-keyed calls.
//!
//! All cells are statistics: updates use relaxed atomics and publish no
//! other data. `Registry::clone()` copies the *values* into fresh cells,
//! so a snapshot never moves after it is taken; replacing a registry
//! wholesale (`*r = snapshot`) likewise leaves earlier handles counting
//! into the cells of the registry they were resolved against.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};

use crate::histogram::{bucket_index, Histogram, BUCKETS};
use crate::Telemetry;

/// A cell kind the registry can store and snapshot.
pub(crate) trait Cell: Clone + Default {
    /// A new cell holding this cell's current value.
    fn detached(&self) -> Self;
}

/// Handle to a monotone counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

impl Cell for Counter {
    fn detached(&self) -> Self {
        Counter(Arc::new(AtomicU64::new(self.get())))
    }
}

/// Handle to a gauge (an `f64` stored as its bits).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Gauge::starting_at(0.0)
    }
}

impl Gauge {
    pub(crate) fn starting_at(v: f64) -> Self {
        Gauge(Arc::new(AtomicU64::new(v.to_bits())))
    }

    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Relaxed))
    }

    /// Add `delta` (possibly negative).
    pub fn add(&self, delta: f64) {
        update_f64(&self.0, |v| v + delta);
    }

    /// Raise the gauge to `v` if `v` is larger (high-water marks).
    pub fn set_max(&self, v: f64) {
        update_f64(&self.0, |cur| if v > cur { v } else { cur });
    }
}

impl Cell for Gauge {
    fn detached(&self) -> Self {
        Gauge::starting_at(self.get())
    }
}

/// Atomically replace the `f64` in `bits` by `f` of it.
fn update_f64(bits: &AtomicU64, f: impl Fn(f64) -> f64) {
    // `fetch_update` only fails when the closure declines; ours never does.
    let _ = bits.fetch_update(Relaxed, Relaxed, |b| Some(f(f64::from_bits(b)).to_bits()));
}

#[derive(Debug)]
struct HistCells {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// Handle to a log-linear latency histogram (see [`Histogram`] for the
/// bucket layout). The observation count is the sum of the buckets, so a
/// snapshot taken while another thread records is always self-consistent
/// in its counts; its `sum`/`min`/`max` may trail by that one observation.
#[derive(Debug, Clone)]
pub struct Hist(Arc<HistCells>);

impl Default for Hist {
    fn default() -> Self {
        Hist::of(&Histogram::default())
    }
}

impl Hist {
    fn of(h: &Histogram) -> Self {
        let (counts, sum, min, max) = h.parts();
        Hist(Arc::new(HistCells {
            buckets: counts.iter().map(|c| AtomicU64::new(*c)).collect(),
            sum: AtomicU64::new(sum.to_bits()),
            min: AtomicU64::new(min.to_bits()),
            max: AtomicU64::new(max.to_bits()),
        }))
    }

    /// Record one observation (NaN is ignored).
    pub fn record(&self, v: f64) {
        if v.is_nan() {
            return;
        }
        let c = &*self.0;
        c.buckets[bucket_index(v)].fetch_add(1, Relaxed);
        update_f64(&c.sum, |s| s + v);
        update_f64(&c.min, |m| m.min(v));
        update_f64(&c.max, |m| m.max(v));
    }

    /// The histogram's current value.
    pub fn load(&self) -> Histogram {
        let c = &*self.0;
        let counts: Vec<u64> = c.buckets.iter().map(|b| b.load(Relaxed)).collect();
        debug_assert_eq!(counts.len(), BUCKETS);
        Histogram::from_parts(
            counts,
            f64::from_bits(c.sum.load(Relaxed)),
            f64::from_bits(c.min.load(Relaxed)),
            f64::from_bits(c.max.load(Relaxed)),
        )
    }

    /// Fold `other` into this histogram bucket-wise.
    pub(crate) fn merge_from(&self, other: &Histogram) {
        let (counts, sum, min, max) = other.parts();
        let c = &*self.0;
        for (mine, theirs) in c.buckets.iter().zip(counts) {
            mine.fetch_add(*theirs, Relaxed);
        }
        update_f64(&c.sum, |s| s + sum);
        update_f64(&c.min, |m| m.min(min));
        update_f64(&c.max, |m| m.max(max));
    }
}

impl Cell for Hist {
    fn detached(&self) -> Self {
        Hist::of(&self.load())
    }
}

/// Fixed label set of a [`Site`].
pub type StaticLabels = &'static [(&'static str, &'static str)];

/// A handle kind [`Site`]s can resolve.
pub trait Resolve: Sized {
    fn resolve(t: &Telemetry, name: &str, labels: &[(&str, &str)]) -> Self;
}

impl Resolve for Counter {
    fn resolve(t: &Telemetry, name: &str, labels: &[(&str, &str)]) -> Self {
        t.counter(name, labels)
    }
}

impl Resolve for Gauge {
    fn resolve(t: &Telemetry, name: &str, labels: &[(&str, &str)]) -> Self {
        t.gauge(name, labels)
    }
}

impl Resolve for Hist {
    fn resolve(t: &Telemetry, name: &str, labels: &[(&str, &str)]) -> Self {
        t.hist(name, labels)
    }
}

/// The declaration site of one hot series: its name and fixed labels,
/// and the handle cached from the first use on.
#[derive(Debug)]
pub struct Site<C> {
    name: &'static str,
    labels: StaticLabels,
    cell: OnceLock<C>,
}

pub type CounterSite = Site<Counter>;
pub type GaugeSite = Site<Gauge>;
pub type HistSite = Site<Hist>;

impl<C: Resolve> Site<C> {
    pub const fn new(name: &'static str, labels: StaticLabels) -> Self {
        Site {
            name,
            labels,
            cell: OnceLock::new(),
        }
    }

    /// The series' handle, registering it in `t`'s registry on first use.
    pub fn get(&self, t: &Telemetry) -> &C {
        self.cell
            .get_or_init(|| C::resolve(t, self.name, self.labels))
    }
}

/// The declaration site of a one-label family whose label values are
/// numbered by the caller (subsystem index, OU id, ...): one cached
/// handle per value, each registered on its first use.
#[derive(Debug)]
pub struct SiteVec<C> {
    name: &'static str,
    label: &'static str,
    cells: Vec<Option<C>>,
}

pub type CounterVec = SiteVec<Counter>;

impl<C: Resolve> SiteVec<C> {
    pub const fn new(name: &'static str, label: &'static str) -> Self {
        SiteVec {
            name,
            label,
            cells: Vec::new(),
        }
    }

    /// The handle for label value number `idx`; `value` names it the
    /// first time it is asked for.
    pub fn at<V: AsRef<str>>(
        &mut self,
        t: &Telemetry,
        idx: usize,
        value: impl FnOnce() -> V,
    ) -> &C {
        if idx >= self.cells.len() {
            self.cells.resize_with(idx + 1, || None);
        }
        self.cells[idx]
            .get_or_insert_with(|| C::resolve(t, self.name, &[(self.label, value().as_ref())]))
    }
}
