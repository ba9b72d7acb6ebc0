//! Metric declarations and handles.
//!
//! A metric exists in exactly one place: a [`Decl`] row of a
//! [`declare_metrics!`](crate::declare_metrics) table, which fixes its
//! name, its kind (the type parameter: [`Counter`], [`Gauge`] or
//! [`Hist`]) and its `# HELP` text. Everything else is derived from the
//! declaration: a [`Site`] (fixed label set, handle cached), a
//! [`SiteVec`] (one label whose values the caller numbers, e.g. by OU
//! id, one cached handle per value), an uncached [`Decl::with`] resolve
//! for label sets only known at run time, the help line of the
//! exposition, and the README metric table.
//!
//! The registry maps `name{labels}` to a cell; a *handle* is a clone of
//! the `Arc` around that cell. Resolving takes the registry lock once;
//! every update through the handle afterwards is a few atomic operations
//! — no lock, no key, no allocation. A series is registered on *first
//! use* of its site, so a metric that never fires is never exported.
//! [`crate::Telemetry::counter`] and friends resolve a handle by bare
//! name for signals that have no declaration (tests, user-named health
//! inputs); families registered only that way export `(undocumented)`.
//!
//! All cells are statistics: updates use relaxed atomics and publish no
//! other data. `Registry::clone()` copies the *values* into fresh cells,
//! so a snapshot never moves after it is taken; replacing a registry
//! wholesale (`*r = snapshot`) likewise leaves earlier handles counting
//! into the cells of the registry they were resolved against.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};

use crate::histogram::{bucket_index, Histogram, BUCKETS};
use crate::metrics::Registry;
use crate::Telemetry;

/// A cell kind the registry can store and snapshot.
pub(crate) trait Cell: Clone + Default {
    /// A new cell holding this cell's current value.
    fn detached(&self) -> Self;

    /// Whether `other` is a handle to this very cell.
    fn same_cell(&self, other: &Self) -> bool;
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

    fn same_cell(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
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

    fn same_cell(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// Atomically replace the `f64` in `bits` by `f` of it. A value that
/// would not change is not written, so a histogram's min and max cost a
/// load, not a locked exchange, unless a new extreme arrives.
#[allow(clippy::let_underscore_must_use)]
fn update_f64(bits: &AtomicU64, f: impl Fn(f64) -> f64) {
    // ignored: `fetch_update` fails only when the closure declines, which
    // it does exactly when the bits would stay as they are.
    let _ = bits.fetch_update(Relaxed, Relaxed, |b| {
        let new = f(f64::from_bits(b)).to_bits();
        (new != b).then_some(new)
    });
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
        let mut counts = vec![0; BUCKETS];
        let sum = self.load_into(&mut counts);
        let c = &*self.0;
        Histogram::from_parts(
            counts,
            sum,
            f64::from_bits(c.min.load(Relaxed)),
            f64::from_bits(c.max.load(Relaxed)),
        )
    }

    /// [`Hist::load`] into the caller's `buckets` (one slot per bucket),
    /// allocating nothing: copies the bucket counts and returns the sum.
    pub(crate) fn load_into(&self, buckets: &mut [u64]) -> f64 {
        let c = &*self.0;
        debug_assert_eq!(buckets.len(), c.buckets.len());
        for (out, b) in buckets.iter_mut().zip(c.buckets.iter()) {
            *out = b.load(Relaxed);
        }
        f64::from_bits(c.sum.load(Relaxed))
    }

    /// Fold `other` into this histogram bucket-wise.
    #[cfg(test)]
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

    fn same_cell(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// Fixed label set of a [`Site`].
pub type StaticLabels = &'static [(&'static str, &'static str)];

/// A metric kind: the cell type a [`Decl`] is parameterized by.
pub trait Kind: Clone {
    /// `counter`, `gauge` or `histogram`: the `# TYPE` of the family.
    const KIND: &'static str;

    /// The cell of `decl{labels}` in `reg`, registering the series (and
    /// the family's help) if new.
    #[doc(hidden)]
    fn resolve<'r>(reg: &'r mut Registry, decl: &Decl<Self>, labels: &[(&str, &str)]) -> &'r Self;
}

/// One metric, declared once: its name and help text, its kind in the
/// type. Build these with [`declare_metrics!`](crate::declare_metrics)
/// so the row also lands in the crate's table.
#[derive(Debug)]
pub struct Decl<C> {
    pub name: &'static str,
    pub help: &'static str,
    kind: PhantomData<fn() -> C>,
}

/// A [`Decl`] with its kind as data: one row of a crate's metric table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeclRow {
    pub name: &'static str,
    pub kind: &'static str,
    pub help: &'static str,
}

impl<C: Kind> Decl<C> {
    #[doc(hidden)]
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Decl {
            name,
            help,
            kind: PhantomData,
        }
    }

    /// This declaration as a table row.
    pub const fn row(&self) -> DeclRow {
        DeclRow {
            name: self.name,
            kind: C::KIND,
            help: self.help,
        }
    }

    /// The series of this metric with the fixed label set `labels`.
    pub const fn site(&self, labels: StaticLabels) -> Site<C> {
        Site {
            decl: Decl::new(self.name, self.help),
            labels,
            cell: OnceLock::new(),
        }
    }

    /// This metric's series over the values of `label`.
    pub const fn vec(&self, label: &'static str) -> SiteVec<C> {
        SiteVec {
            decl: Decl::new(self.name, self.help),
            label,
            cells: Vec::new(),
        }
    }

    /// Resolve `name{labels}` against `t` without caching: for label
    /// sets only known at run time. Takes the registry lock.
    pub fn with(&self, t: &Telemetry, labels: &[(&str, &str)]) -> C {
        C::resolve(&mut t.lock(), self, labels).clone()
    }
}

/// Declare a crate's metrics: one `const` [`Decl`] per row plus the
/// table of all of them (what `tscout-bench metrics_doc` renders).
///
/// ```
/// tscout_telemetry::declare_metrics! {
///     /// This crate's metrics.
///     pub METRICS:
///     pub REQUESTS: Counter = "demo_requests_total", "Requests served";
///     LATENCY_NS: Hist = "demo_latency_ns", "Request latency";
/// }
/// assert_eq!(METRICS[1].kind, "histogram");
/// let t = tscout_telemetry::Telemetry::new();
/// REQUESTS.with(&t, &[("code", "200")]).inc();
/// LATENCY_NS.site(&[]).get(&t).record(125.0);
/// assert!(t.to_prometheus().contains("# HELP demo_requests_total Requests served"));
/// ```
#[macro_export]
macro_rules! declare_metrics {
    (
        $(#[$meta:meta])* $tvis:vis $table:ident:
        $($vis:vis $id:ident: $kind:ident = $name:literal, $help:literal;)+
    ) => {
        $(
            #[doc = $help]
            $vis const $id: $crate::Decl<$crate::$kind> = $crate::Decl::new($name, $help);
        )+
        $(#[$meta])*
        $tvis const $table: &[$crate::DeclRow] = &[$($id.row()),+];
    };
}

/// One series of a declared metric: its fixed labels, and the handle
/// cached from the first use on.
#[derive(Debug)]
pub struct Site<C> {
    decl: Decl<C>,
    labels: StaticLabels,
    cell: OnceLock<C>,
}

pub type CounterSite = Site<Counter>;
pub type GaugeSite = Site<Gauge>;
pub type HistSite = Site<Hist>;

impl<C: Kind> Site<C> {
    /// The series' handle, registering it in `t`'s registry on first use.
    pub fn get(&self, t: &Telemetry) -> &C {
        self.cell.get_or_init(|| self.decl.with(t, self.labels))
    }
}

/// A declared one-label family whose label values are numbered by the
/// caller (subsystem index, OU id, ...): one cached handle per value,
/// each registered on its first use.
#[derive(Debug)]
pub struct SiteVec<C> {
    decl: Decl<C>,
    label: &'static str,
    cells: Vec<Option<C>>,
}

pub type CounterVec = SiteVec<Counter>;

impl<C: Kind> SiteVec<C> {
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
        self.cells[idx].get_or_insert_with(|| self.decl.with(t, &[(self.label, value().as_ref())]))
    }
}
