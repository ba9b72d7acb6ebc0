//! Self-telemetry for the TScout reproduction.
//!
//! TScout's accuracy story (paper §5.3, §6) depends on *accounting for
//! every sample*: how many collections began, how many records survived
//! the ring buffer, how many were lost and where. This crate is the
//! shared language every layer uses to report that — a dependency-free
//! metrics registry (counters, gauges, log-bucketed latency histograms
//! with percentile estimation).
//!
//! Design points:
//!
//! - **Zero dependencies.** Only `std`. The whole workspace must build
//!   offline; telemetry cannot be the thing that breaks that.
//! - **Virtual-time native.** The simulation has its own clocks, so
//!   nothing here reads wall time: all durations and timestamps are
//!   passed in by the caller in (virtual) nanoseconds.
//! - **One registry per simulated world.** `Telemetry` is a cheap-clone
//!   handle to a shared, mutex-guarded [`Registry`]. The `Kernel` owns
//!   the canonical handle and every component attached to it (TScout,
//!   Processor, Database) clones it, so a whole simulation aggregates
//!   into one registry while parallel tests stay isolated.
//! - **A metric is declared once.** A [`declare_metrics!`] row fixes a
//!   metric's name, kind and help; [`Site`] / [`SiteVec`] / [`Decl::with`]
//!   derive its series from that row, `# HELP` and the README table its
//!   documentation. A series' value lives in an atomic cell, so updates
//!   through the resolved [`Counter`] / [`Gauge`] / [`Hist`] handle take
//!   no registry mutex, key or allocation. [`Telemetry::counter`] and
//!   friends resolve by bare name for signals without a declaration.
//! - **One way out.** Everything stateful here is a row source of a
//!   `ts_*` table ([`tables::TABLES`]; `ts_metrics` is the metrics
//!   themselves) and rows become JSON in [`tables::rows_json`] only;
//!   the two external formats are the Prometheus text exposition
//!   ([`Exposition`]) and flamegraph folded stacks
//!   ([`Profiler::folded_text`]).
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
// No `as` cast narrows a value outside tests; test fixtures cast freely.
// A panic is an error path, or an `expect` under an `allow` whose message
// states the invariant; a discarded result says `// ignored: <reason>`.
#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::let_underscore_must_use
    )
)]

mod actions;
pub mod decls;
mod drift;
mod handles;
mod health;
mod histogram;
mod metrics;
mod profile;
mod sketch;
mod stmt;
pub mod tables;
mod timeseries;
mod trace;

pub use actions::{ActionLog, ActionRecord, ActionState, ACTION_LOG_CAPACITY};
pub use drift::{
    DriftChannel, DriftRegistry, DriftScore, OuDrift, DEFAULT_MIN_LIVE_SAMPLES,
    DEFAULT_REFERENCE_SAMPLES,
};
pub use handles::{
    Counter, CounterSite, CounterVec, Decl, DeclRow, Gauge, GaugeSite, Hist, HistSite, Kind, Site,
    SiteVec, StaticLabels,
};
pub use health::{
    default_rules, Alert, HealthEngine, HealthState, Rule, Selector, Signals, ALERT_CAPACITY,
};
pub use histogram::{Histogram, HistogramSnapshot};
pub use metrics::{Exposition, Registry};
pub use profile::{
    Attribution, FoldedEntry, Frame, FrameGuard, FrameId, Profiler, TaskFrames, WallLayer, DBMS,
    DEFAULT_PROFILE_PERIOD_NS, OTHER_STACK, TSCOUT, WALL_EVERY,
};
pub use sketch::Sketch;
pub use stmt::{OuNs, StmtEntry, StmtId, StmtStats, DEFAULT_STMT_CAP};
pub use tables::{Cell, ColType, Table, TABLES};
pub use timeseries::{TimeSeries, Window};
pub use trace::{
    FlightRecorderArm, Stage, StageAgg, StageRecord, Trace, TraceId, TraceKey, TraceOutcome,
    TraceStats, Tracer, ALL_STAGES, DEFAULT_ACTIVE_TRACE_CAPACITY, DEFAULT_TRACE_CAPACITY,
};

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Arc, Mutex, PoisonError};

#[derive(Default)]
struct Shared {
    registry: Mutex<Registry>,
    /// Whether the lineage tracer could have anything to do: it samples
    /// (`every > 0`) or has started a trace before. While false, the
    /// per-sample tracer calls return without taking the lock.
    tracing: AtomicBool,
}

/// Cheap-clone handle to a shared [`Registry`].
///
/// Metrics are written through handles resolved from their declaration
/// (see [`Decl`]); the methods here lock internally and cover the
/// by-name door, reads, and the registry's stateful subsystems.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Arc<Shared>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let reg = self.lock();
        f.debug_struct("Telemetry")
            .field("metrics", &reg.len())
            .finish()
    }
}

impl Telemetry {
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Registry> {
        // A panic while holding the lock only loses telemetry, never
        // correctness; recover rather than propagate poisoning.
        self.inner
            .registry
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Re-derive the lock-free tracing flag after `reg`'s tracer may
    /// have been reconfigured or replaced.
    fn sync_tracing(&self, reg: &Registry) {
        let tracer = reg.tracer();
        self.inner
            .tracing
            .store(tracer.every() > 0 || !tracer.is_idle(), Relaxed);
    }

    /// Handle to the counter `name{labels}` (registered at 0 if new).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.lock().counter(name, labels)
    }

    /// Handle to the gauge `name{labels}` (registered at 0 if new).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        self.lock().gauge(name, labels)
    }

    /// Handle to the histogram `name{labels}` (registered empty if new).
    pub fn hist(&self, name: &str, labels: &[(&str, &str)]) -> Hist {
        self.lock().hist(name, labels)
    }

    /// Increment the counter `name{labels}` by one — [`Telemetry::counter`]
    /// then `inc`; kept as a name of its own only for the frozen caller
    /// `benchmark/src/kernels.rs` (`telemetry.counter_inc_ns`).
    pub fn counter_inc(&self, name: &str, labels: &[(&str, &str)]) {
        self.counter(name, labels).inc();
    }

    /// Read a counter back (0 if never written).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.lock().counter_value(name, labels)
    }

    /// Sum of all counters sharing `name`, across label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.lock().counter_total(name)
    }

    /// Read a gauge back (0.0 if never written).
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.lock().gauge_value(name, labels)
    }

    /// Record one observation into the histogram `name{labels}` —
    /// [`Telemetry::hist`] then `record`; kept only for the frozen caller
    /// `benchmark/src/kernels.rs` (`telemetry.hist_record_ns`).
    pub fn hist_record(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.hist(name, labels).record(v);
    }

    /// Snapshot a histogram (None if never written).
    pub fn hist_snapshot(&self, name: &str, labels: &[(&str, &str)]) -> Option<HistogramSnapshot> {
        self.lock().hist_snapshot(name, labels)
    }

    /// Run the closure with the registry locked (bulk export/merge).
    pub fn with_registry<T>(&self, f: impl FnOnce(&mut Registry) -> T) -> T {
        let mut reg = self.lock();
        let out = f(&mut reg);
        self.sync_tracing(&reg);
        out
    }

    /// Prometheus text exposition of all metrics: captured under the
    /// registry lock, rendered after it is released.
    pub fn to_prometheus(&self) -> String {
        let mut exposition = Exposition::default();
        exposition.capture(&self.lock());
        let mut out = String::new();
        exposition.render(&mut out);
        out
    }

    /// Number of counter scrapes currently retained (at most two).
    pub fn timeseries_len(&self) -> usize {
        self.lock().timeseries().len()
    }

    /// Feed one decoded training sample into the per-OU drift channels
    /// (see [`DriftRegistry::observe_sample`]).
    pub fn observe_ou_sample(&self, ou: &str, subsystem: &str, target_ns: f64, feature_norm: f64) {
        self.lock()
            .observe_ou_sample(ou, subsystem, target_ns, feature_norm);
    }

    /// Feed one live-model residual pair for an OU (see
    /// [`DriftRegistry::observe_residual`]).
    pub fn observe_residual(&self, ou: &str, predicted_ns: f64, actual_ns: f64) {
        self.lock().observe_residual(ou, predicted_ns, actual_ns);
    }

    /// One full observability turn: evaluate drift, scrape a counter
    /// window, run the health rules. Returns this tick's health
    /// transitions (see [`Registry::observability_tick`]).
    pub fn observability_tick(&self, now_ns: f64) -> Vec<Alert> {
        self.lock().observability_tick(now_ns)
    }

    /// Fold one executed statement into the statement-stats registry
    /// (see [`Registry::stmt_record`]).
    pub fn stmt_record(
        &self,
        id: StmtId,
        actual_ns: f64,
        rows: u64,
        ou_ns: OuNs<'_>,
        predicted_ns: Option<f64>,
    ) {
        self.lock()
            .stmt_record(id, actual_ns, rows, ou_ns, predicted_ns);
    }

    /// Total statements folded into the stats registry (drives the
    /// driver's pump-cadence accounting charge).
    pub fn stmt_recorded(&self) -> u64 {
        self.lock().stmts().recorded()
    }

    /// Enable lineage tracing: trace 1 in `every` collected markers
    /// (0 disables). The id travels out of band, so record bytes are
    /// bit-identical with tracing on or off.
    pub fn trace_set_every(&self, every: u64) {
        let mut reg = self.lock();
        reg.tracer_mut().set_every(every);
        self.sync_tracing(&reg);
    }

    /// Run one event on the lineage tracer, then settle: what the event
    /// completed becomes metrics (see `Registry::trace_settle`).
    fn traced<T>(&self, event: impl FnOnce(&mut Tracer) -> T) -> T {
        let mut reg = self.lock();
        let out = event(reg.tracer_mut());
        reg.trace_settle();
        out
    }

    /// Sampling decision at marker fire time (see
    /// [`Tracer::maybe_begin`]).
    pub fn trace_begin(&self, ou: u16, subsystem: u8, tid: u64, now_ns: f64) -> Option<TraceId> {
        if !self.inner.tracing.load(Relaxed) {
            return None;
        }
        let mut reg = self.lock();
        // An unsampled marker leaves the tracer as it was: nothing to settle.
        let id = reg.tracer_mut().maybe_begin(ou, subsystem, tid, now_ns)?;
        reg.trace_settle();
        Some(id)
    }

    /// The traced marker's record was published at ring position `pos`.
    pub fn trace_publish(&self, id: TraceId, pos: u64, now_ns: f64, ring_depth: u64) {
        self.lock()
            .tracer_mut()
            .on_publish(id, pos, now_ns, ring_depth);
    }

    /// A traced sample was lost (see [`Tracer::on_lost`]).
    pub fn trace_lost(&self, key: TraceKey, now_ns: f64, reason: &str) {
        self.traced(|t| t.on_lost(key, now_ns, reason));
    }

    /// Processor-side drain + sink stamp of the record at ring position
    /// `pos` (see [`Tracer::on_consume`]). Returns whether a trace
    /// matched, so the caller charges tracing cost only for traced
    /// records.
    pub fn trace_consume(
        &self,
        pos: u64,
        drain_ns: f64,
        sink_enter_ns: f64,
        sink_exit_ns: f64,
        queue_depth: u64,
        terminal: bool,
    ) -> bool {
        if !self.inner.tracing.load(Relaxed) {
            return false;
        }
        let mut reg = self.lock();
        let hit = reg.tracer_mut().on_consume(
            pos,
            drain_ns,
            sink_enter_ns,
            sink_exit_ns,
            queue_depth,
            terminal,
        );
        if hit {
            reg.trace_settle();
        }
        hit
    }

    /// Collective lifecycle stamp for parked traces (archive memtable,
    /// segment seal, dataset stages).
    pub fn trace_lifecycle_stamp(&self, stage: Stage, enter_ns: f64, exit_ns: f64, depth: u64) {
        self.lock()
            .tracer_mut()
            .lifecycle_stamp(stage, enter_ns, exit_ns, depth);
    }

    /// Retrain completion: parked traces terminate delivered at model
    /// `generation`. Returns how many completed.
    pub fn trace_lifecycle_complete(&self, now_ns: f64, generation: u64) -> usize {
        self.traced(|t| t.lifecycle_complete(now_ns, generation))
    }

    /// Exact trace accounting (see [`TraceStats`]).
    pub fn trace_stats(&self) -> TraceStats {
        self.lock().tracer().stats()
    }

    /// Arm the on-CRITICAL flight recorder: [`Registry::flight_record`]
    /// writes its evidence bundles under `dir`.
    pub fn arm_flight_recorder(&self, dir: std::path::PathBuf, fig: &str) {
        let mut reg = self.lock();
        let arm = reg.flight_recorder_mut();
        arm.dir = Some(dir);
        arm.fig = fig.to_string();
    }

    /// Whether a flight-recorder output directory is armed.
    pub fn flight_recorder_armed(&self) -> bool {
        self.lock().flight_recorder().dir.is_some()
    }

    /// Armed flight-recorder directory and fig name, if armed — the obsd
    /// operator plane lists/fetches bundles from here.
    pub fn flight_recorder_target(&self) -> Option<(std::path::PathBuf, String)> {
        let reg = self.lock();
        let arm = reg.flight_recorder();
        arm.dir.clone().map(|dir| (dir, arm.fig.clone()))
    }

    /// Write a flight-recorder bundle if `alerts` contains a fired
    /// CRITICAL transition (see [`Registry::flight_record`]).
    pub fn flight_record(
        &self,
        now_ns: f64,
        alerts: &[Alert],
        profile_folded: &str,
    ) -> Option<std::path::PathBuf> {
        self.lock().flight_record(now_ns, alerts, profile_folded)
    }

    /// Write a flight-recorder bundle for a regressed action-engine
    /// intervention (see [`Registry::flight_record_action`]).
    pub fn flight_record_action(
        &self,
        now_ns: f64,
        action_id: u64,
        profile_folded: &str,
    ) -> Option<std::path::PathBuf> {
        self.lock()
            .flight_record_action(now_ns, action_id, profile_folded)
    }

    /// Append one action record to the action log; returns its assigned
    /// id (see [`ActionLog::append`]).
    pub fn action_append(&self, record: ActionRecord) -> u64 {
        self.lock().actions_mut().append(record)
    }

    /// Close a pending action record with its observed outcome; returns
    /// the updated record (see [`ActionLog::observe`]).
    pub fn action_observe(
        &self,
        id: u64,
        observed: f64,
        observed_at_ns: f64,
        err_pct: f64,
        regressed: bool,
    ) -> Option<ActionRecord> {
        self.lock()
            .actions_mut()
            .observe(id, observed, observed_at_ns, err_pct, regressed)
    }

    /// Snapshot of all retained action records (oldest first).
    pub fn actions_snapshot(&self) -> Vec<ActionRecord> {
        self.lock().actions().iter().cloned().collect()
    }

    /// Rebaseline every OU's drift channels and zero the sticky score
    /// gauges (see [`Registry::drift_rebaseline_all`]).
    pub fn drift_rebaseline_all(&self) -> usize {
        self.lock().drift_rebaseline_all()
    }
}

/// Escape a string for embedding in a JSON document (without quotes).
/// The one JSON escaper of the workspace: every export path here and
/// `tscout_obsd::json::escape` are this function.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Format an f64 as a JSON number (`null` for NaN/Inf, which JSON
/// cannot represent) — the same answer on every surface.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            #[allow(clippy::cast_possible_truncation)] // whole and below 1e15: exact in an i64
            let whole = v as i64;
            format!("{whole}")
        } else {
            format!("{v}")
        }
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_counters_round_trip() {
        let t = Telemetry::new();
        t.counter_inc("events", &[("sub", "ee")]);
        t.counter("events", &[("sub", "ee")]).add(4);
        t.counter_inc("events", &[("sub", "net")]);
        assert_eq!(t.counter_value("events", &[("sub", "ee")]), 5);
        assert_eq!(t.counter_value("events", &[("sub", "net")]), 1);
        assert_eq!(t.counter_value("events", &[("sub", "wal")]), 0);
        assert_eq!(t.counter_total("events"), 6);
    }

    #[test]
    fn clones_share_the_registry() {
        let t = Telemetry::new();
        let u = t.clone();
        u.counter_inc("x", &[]);
        assert_eq!(t.counter_value("x", &[]), 1);
    }

    #[test]
    fn gauges_set_and_max() {
        let t = Telemetry::new();
        t.gauge("depth", &[]).set(3.0);
        t.gauge("depth", &[]).set_max(2.0);
        assert_eq!(t.gauge_value("depth", &[]), 3.0);
        t.gauge("depth", &[]).set_max(9.0);
        assert_eq!(t.gauge_value("depth", &[]), 9.0);
    }

    #[test]
    fn gauge_add_accumulates_and_goes_negative() {
        let t = Telemetry::new();
        t.gauge("buffered", &[]).add(5.0);
        t.gauge("buffered", &[]).add(2.0);
        t.gauge("buffered", &[]).add(-6.0);
        assert_eq!(t.gauge_value("buffered", &[]), 1.0);
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
