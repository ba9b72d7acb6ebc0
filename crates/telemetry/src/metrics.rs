//! The metric registry: named, labeled counters / gauges / histograms,
//! with Prometheus text and JSON snapshot export.

use std::collections::BTreeMap;

use crate::actions::ActionLog;
use crate::drift::DriftRegistry;
use crate::handles::{Cell, Counter, Gauge, Hist};
use crate::health::{Alert, HealthEngine, HealthState, Selector, Signals};
use crate::histogram::HistogramSnapshot;
use crate::spans::{Span, SpanRing};
use crate::stmt::StmtStats;
use crate::timeseries::{TimeSeries, Window};
use crate::trace::{FlightRecorderArm, Stage, TraceId, TraceStats, Tracer};
use crate::{json_escape, json_num};

/// Sorted `label=value` pairs.
type Labels = Vec<(String, String)>;

/// A metric identity: name plus sorted `label=value` pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey {
    pub name: String,
    pub labels: Labels,
}

impl MetricKey {
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Labels = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }
}

/// Prometheus-style rendering: `name{k="v",k2="v2"}`, optionally with
/// one extra label inserted in sorted position (`le` for histogram
/// buckets). Label values are escaped per the text exposition format:
/// backslash, double quote, and line feed (in that order, so the
/// backslash introduced by `\n` is not re-escaped).
fn render(name: &str, labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    fn escape(v: &str) -> String {
        v.replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n")
    }
    let mut pairs: Vec<(&str, String)> = labels
        .iter()
        .map(|(k, v)| (k.as_str(), escape(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push((k, escape(v)));
        pairs.sort();
    }
    if pairs.is_empty() {
        return name.to_string();
    }
    let inner: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{name}{{{}}}", inner.join(","))
}

/// Label sets up to this size are sorted on the stack when a series is
/// looked up by `&[(&str, &str)]`.
const INLINE_LABELS: usize = 4;

/// Run `f` on `labels` in sorted order (the order series are stored in).
fn with_sorted<R>(labels: &[(&str, &str)], f: impl FnOnce(&[(&str, &str)]) -> R) -> R {
    if labels.len() <= INLINE_LABELS {
        let mut buf = [("", ""); INLINE_LABELS];
        let sorted = &mut buf[..labels.len()];
        sorted.copy_from_slice(labels);
        sorted.sort_unstable();
        f(sorted)
    } else {
        let mut sorted = labels.to_vec();
        sorted.sort_unstable();
        f(&sorted)
    }
}

/// All series of one kind: metric name → its label sets (sorted) → the
/// cell holding the value. Iteration is in `(name, labels)` order; a
/// lookup by borrowed name and labels allocates nothing.
#[derive(Debug, Default)]
struct Series<C> {
    families: BTreeMap<String, Vec<(Labels, C)>>,
}

/// A deep copy: every value lands in a fresh cell, so the clone is a
/// snapshot that handles into the original no longer move.
impl<C: Cell> Clone for Series<C> {
    fn clone(&self) -> Self {
        Series {
            families: self
                .families
                .iter()
                .map(|(name, family)| {
                    let family = family
                        .iter()
                        .map(|(labels, cell)| (labels.clone(), cell.detached()))
                        .collect();
                    (name.clone(), family)
                })
                .collect(),
        }
    }
}

impl<C: Cell> Series<C> {
    /// Position of `sorted` labels in `family`.
    fn position(family: &[(Labels, C)], sorted: &[(&str, &str)]) -> Result<usize, usize> {
        family.binary_search_by(|(have, _)| {
            have.iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .cmp(sorted.iter().copied())
        })
    }

    fn family(&self, name: &str) -> &[(Labels, C)] {
        self.families.get(name).map_or(&[], Vec::as_slice)
    }

    fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&C> {
        let family = self.families.get(name)?;
        with_sorted(labels, |sorted| {
            Self::position(family, sorted).ok().map(|i| &family[i].1)
        })
    }

    /// The series' cell, created by `init` if it does not exist yet.
    fn get_or_insert_with(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        init: impl FnOnce() -> C,
    ) -> &C {
        if !self.families.contains_key(name) {
            self.families.insert(name.to_string(), Vec::new());
        }
        let family = self.families.get_mut(name).expect("inserted above");
        with_sorted(labels, |sorted| {
            let at = match Self::position(family, sorted) {
                Ok(at) => at,
                Err(at) => {
                    let owned = sorted
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.to_string()))
                        .collect();
                    family.insert(at, (owned, init()));
                    at
                }
            };
            &family[at].1
        })
    }

    fn cell(&mut self, name: &str, labels: &[(&str, &str)]) -> &C {
        self.get_or_insert_with(name, labels, C::default)
    }

    fn len(&self) -> usize {
        self.families.values().map(Vec::len).sum()
    }

    /// Every series as `(name, labels, cell)`, in `(name, labels)` order.
    fn iter(&self) -> impl Iterator<Item = (&str, &Labels, &C)> {
        self.families.iter().flat_map(|(name, family)| {
            family
                .iter()
                .map(move |(labels, cell)| (name.as_str(), labels, cell))
        })
    }
}

/// The registry proper. Usually accessed through the cheap-clone
/// [`crate::Telemetry`] handle rather than directly. `clone()` is a deep
/// value snapshot (see [`crate::handles`]).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: Series<Counter>,
    gauges: Series<Gauge>,
    histograms: Series<Hist>,
    spans: SpanRing,
    timeseries: TimeSeries,
    drift: DriftRegistry,
    health: HealthEngine,
    tracer: Tracer,
    flightrec: FlightRecorderArm,
    stmts: StmtStats,
    actions: ActionLog,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered metric series (all kinds).
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Handle to the counter `name{labels}`, registering it (at 0) if new.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.counters.cell(name, labels).clone()
    }

    /// Handle to the gauge `name{labels}`, registering it (at 0) if new.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        self.gauges.cell(name, labels).clone()
    }

    /// Handle to the histogram `name{labels}`, registering it (empty) if
    /// new.
    pub fn hist(&mut self, name: &str, labels: &[(&str, &str)]) -> Hist {
        self.histograms.cell(name, labels).clone()
    }

    pub fn counter_add(&mut self, name: &str, labels: &[(&str, &str)], v: u64) {
        self.counters.cell(name, labels).add(v);
    }

    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.counters.get(name, labels).map_or(0, Counter::get)
    }

    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .family(name)
            .iter()
            .map(|(_, c)| c.get())
            .sum()
    }

    /// Distinct metric *names* (labels stripped) across all kinds, sorted.
    /// This is what the docs cross-check compares against
    /// [`crate::docs::METRIC_DOCS`].
    pub fn metric_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .counters
            .families
            .keys()
            .chain(self.gauges.families.keys())
            .chain(self.histograms.families.keys())
            .cloned()
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// All `(key, value)` counter pairs for a name, across label sets.
    pub fn counters_named(&self, name: &str) -> Vec<(MetricKey, u64)> {
        self.counters
            .family(name)
            .iter()
            .map(|(labels, c)| {
                let key = MetricKey {
                    name: name.to_string(),
                    labels: labels.clone(),
                };
                (key, c.get())
            })
            .collect()
    }

    pub fn gauge_set(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.gauges.cell(name, labels).set(v);
    }

    /// Add `delta` (possibly negative) to a gauge, creating it at 0.
    /// Occupancy-style gauges (buffered samples, open segments) use this
    /// so concurrent owners sharing a registry aggregate instead of
    /// overwriting each other.
    pub fn gauge_add(&mut self, name: &str, labels: &[(&str, &str)], delta: f64) {
        self.gauges.cell(name, labels).add(delta);
    }

    pub fn gauge_max(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.gauges
            .get_or_insert_with(name, labels, || Gauge::starting_at(f64::NEG_INFINITY))
            .set_max(v);
    }

    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.gauges.get(name, labels).map_or(0.0, Gauge::get)
    }

    pub fn hist_record(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.histograms.cell(name, labels).record(v);
    }

    /// Register the histogram `name{labels}` without recording an
    /// observation — pre-declaration for surfaces (the obsd operator
    /// plane) whose metric names must exist from startup so the docs
    /// cross-check sees them, without polluting the distribution.
    pub fn hist_declare(&mut self, name: &str, labels: &[(&str, &str)]) {
        self.histograms.cell(name, labels);
    }

    pub fn hist_snapshot(&self, name: &str, labels: &[(&str, &str)]) -> Option<HistogramSnapshot> {
        self.histograms
            .get(name, labels)
            .map(|h| h.load().snapshot())
    }

    pub fn record_span(
        &mut self,
        name: &'static str,
        category: &'static str,
        start_ns: f64,
        dur_ns: f64,
    ) {
        self.spans.record(Span {
            name,
            category,
            start_ns,
            dur_ns,
        });
    }

    pub fn spans(&self) -> &SpanRing {
        &self.spans
    }

    /// Scrape the current cumulative counter values into the embedded
    /// [`TimeSeries`] as a window ending at virtual time `now_ns`.
    pub fn scrape_window(&mut self, now_ns: f64) {
        let counters = self
            .counters
            .iter()
            .map(|(name, labels, c)| (render(name, labels, None), c.get()))
            .collect();
        self.timeseries.push(Window {
            end_ns: now_ns,
            counters,
        });
    }

    pub fn timeseries(&self) -> &TimeSeries {
        &self.timeseries
    }

    /// JSON export of the scraped time series (see
    /// [`TimeSeries::to_json`]).
    pub fn timeseries_json(&self) -> String {
        self.timeseries.to_json()
    }

    pub fn drift(&self) -> &DriftRegistry {
        &self.drift
    }

    pub fn drift_mut(&mut self) -> &mut DriftRegistry {
        &mut self.drift
    }

    pub fn health(&self) -> &HealthEngine {
        &self.health
    }

    pub fn health_mut(&mut self) -> &mut HealthEngine {
        &mut self.health
    }

    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    pub fn stmts(&self) -> &StmtStats {
        &self.stmts
    }

    pub fn stmts_mut(&mut self) -> &mut StmtStats {
        &mut self.stmts
    }

    pub fn actions(&self) -> &ActionLog {
        &self.actions
    }

    pub fn actions_mut(&mut self) -> &mut ActionLog {
        &mut self.actions
    }

    /// Fold one executed statement into the statement-stats registry and
    /// sync its internal counters into registry metrics
    /// (`db_stmt_recorded_total`, `db_stmt_evicted_total`,
    /// `db_stmt_fingerprints`). A zero value still registers the
    /// eviction counter, so all three exist from the first recorded
    /// statement on — `metrics_doc --check` relies on that. This runs
    /// once per executed statement: the steady state is one borrowed-key
    /// lookup (no allocation), and the eviction counter / fingerprint
    /// gauge are only touched when their values actually moved.
    pub fn stmt_record(
        &mut self,
        fingerprint: &str,
        actual_ns: f64,
        rows: u64,
        ou_ns: &[(&str, f64)],
        predicted_ns: Option<f64>,
    ) {
        let evicted_before = self.stmts.evicted();
        let len_before = self.stmts.len();
        self.stmts
            .record(fingerprint, actual_ns, rows, ou_ns, predicted_ns);
        let Some(recorded) = self.counters.get("db_stmt_recorded_total", &[]) else {
            // First record (or a registry reset): register all three
            // series at their authoritative values.
            self.counter_add("db_stmt_recorded_total", &[], self.stmts.recorded());
            self.counter_add("db_stmt_evicted_total", &[], self.stmts.evicted());
            self.gauge_set("db_stmt_fingerprints", &[], self.stmts.len() as f64);
            return;
        };
        recorded.inc();
        if self.stmts.evicted() != evicted_before {
            self.counter_add(
                "db_stmt_evicted_total",
                &[],
                self.stmts.evicted() - evicted_before,
            );
        }
        if self.stmts.len() != len_before {
            self.gauge_set("db_stmt_fingerprints", &[], self.stmts.len() as f64);
        }
    }

    /// Turn every trace completion the tracer produced since the last
    /// flush into metrics: per-stage latency histograms
    /// (`tscout_trace_stage_ns{stage}`; the TraceId behind each stage's
    /// worst visit is `ts_stat_pipeline.exemplar_trace_id`), outcome
    /// counters, and the critical-path counter.
    fn trace_flush_completions(&mut self) {
        for c in self.tracer.take_pending() {
            self.counter_add(
                "tscout_traces_completed_total",
                &[("outcome", c.outcome.name())],
                1,
            );
            if let Some(s) = c.critical {
                self.counter_add(
                    "tscout_trace_critical_stage_total",
                    &[("stage", s.name())],
                    1,
                );
            }
            for (stage, dur) in c.stage_durs {
                self.hist_record("tscout_trace_stage_ns", &[("stage", stage.name())], dur);
            }
        }
    }

    /// Sync the tracer's drop/eviction counters into registry counters
    /// (they originate inside the tracer's bounded structures).
    fn trace_sync_counters(&mut self) {
        let st = self.tracer.stats();
        for (name, v) in [
            ("tscout_traces_started_total", st.started),
            ("tscout_traces_dropped_total", st.dropped),
            ("tscout_trace_ring_evicted_total", st.ring_evicted),
        ] {
            let have = self.counter_value(name, &[]);
            // A zero add still registers the name, so the counters exist
            // (at 0) from the first sampled marker on — `metrics_doc
            // --check` relies on a traced run registering all of them.
            self.counter_add(name, &[], v.saturating_sub(have));
        }
    }

    /// Sampling decision at marker fire time (see [`Tracer::maybe_begin`]).
    pub fn trace_begin(
        &mut self,
        ou: u16,
        subsystem: u8,
        tid: u64,
        now_ns: f64,
    ) -> Option<TraceId> {
        let id = self.tracer.maybe_begin(ou, subsystem, tid, now_ns);
        if id.is_some() {
            self.trace_sync_counters();
            self.trace_flush_completions();
        }
        id
    }

    pub fn trace_publish(&mut self, id: TraceId, now_ns: f64, ring_depth: u64) {
        self.tracer.on_publish(id, now_ns, ring_depth);
    }

    pub fn trace_marker_abort(&mut self, id: TraceId, now_ns: f64, reason: &str) {
        self.tracer.on_marker_abort(id, now_ns, reason);
        self.trace_flush_completions();
        self.trace_sync_counters();
    }

    pub fn trace_ring_evict(&mut self, ou: u16, tid: u64, now_ns: f64) {
        self.tracer.on_ring_evict(ou, tid, now_ns);
        self.trace_flush_completions();
        self.trace_sync_counters();
    }

    /// Processor-side stamp (see [`Tracer::on_consume`]). Returns
    /// whether a trace matched, so the caller charges tracing cost only
    /// for traced records.
    #[allow(clippy::too_many_arguments)]
    pub fn trace_consume(
        &mut self,
        ou: u16,
        tid: u64,
        drain_ns: f64,
        sink_enter_ns: f64,
        sink_exit_ns: f64,
        queue_depth: u64,
        terminal: bool,
    ) -> bool {
        let hit = self.tracer.on_consume(
            ou,
            tid,
            drain_ns,
            sink_enter_ns,
            sink_exit_ns,
            queue_depth,
            terminal,
        );
        if hit {
            self.trace_flush_completions();
            self.trace_sync_counters();
        }
        hit
    }

    pub fn trace_decode_error(&mut self, ou: u16, tid: u64, now_ns: f64) {
        self.tracer.on_decode_error(ou, tid, now_ns);
        self.trace_flush_completions();
        self.trace_sync_counters();
    }

    /// Collective lifecycle stamp for parked traces.
    pub fn trace_lifecycle_stamp(&mut self, stage: Stage, enter_ns: f64, exit_ns: f64, depth: u64) {
        self.tracer.lifecycle_stamp(stage, enter_ns, exit_ns, depth);
    }

    /// Retrain completion: parked traces terminate delivered at model
    /// `generation`. Returns how many completed.
    pub fn trace_lifecycle_complete(&mut self, now_ns: f64, generation: u64) -> usize {
        let n = self.tracer.lifecycle_complete(now_ns, generation);
        self.trace_flush_completions();
        self.trace_sync_counters();
        n
    }

    pub fn trace_compacted(&mut self, n: u64, now_ns: f64) {
        self.tracer.on_compacted(n, now_ns);
        self.trace_flush_completions();
        self.trace_sync_counters();
    }

    pub fn trace_stats(&self) -> TraceStats {
        self.tracer.stats()
    }

    /// Arm the flight recorder: [`Registry::flight_record`] writes its
    /// evidence bundles under `dir`.
    pub fn arm_flight_recorder(&mut self, dir: std::path::PathBuf, fig: &str) {
        self.flightrec.dir = Some(dir);
        self.flightrec.fig = fig.to_string();
    }

    pub fn flight_recorder_armed(&self) -> bool {
        self.flightrec.dir.is_some()
    }

    /// Armed flight-recorder output directory and fig name, if armed —
    /// the obsd operator plane lists/fetches bundles from here.
    pub fn flight_recorder_target(&self) -> Option<(std::path::PathBuf, String)> {
        self.flightrec
            .dir
            .clone()
            .map(|d| (d, self.flightrec.fig.clone()))
    }

    /// If armed and `alerts` contains a fired CRITICAL transition, write
    /// a flight-recorder bundle whose trigger names those alerts by
    /// `ts_alerts.seq` and rule. Returns the bundle path when one was
    /// written.
    pub fn flight_record(
        &mut self,
        now_ns: f64,
        alerts: &[Alert],
        profile_folded: &str,
    ) -> Option<std::path::PathBuf> {
        let critical: Vec<String> = alerts
            .iter()
            .filter(|a| a.fired() && a.to == HealthState::Critical)
            .map(|a| {
                format!(
                    "{{\"seq\": {}, \"rule\": \"{}\"}}",
                    a.seq,
                    json_escape(&a.rule)
                )
            })
            .collect();
        if critical.is_empty() {
            return None;
        }
        let trigger = format!("{{\"alerts\": [{}]}}", critical.join(", "));
        self.write_flight_bundle(now_ns, &trigger, profile_folded)
    }

    /// If armed, write a flight-recorder bundle for an action-engine
    /// intervention whose observed outcome regressed its target metric;
    /// the trigger names the action by `ts_actions.id`.
    pub fn flight_record_action(
        &mut self,
        now_ns: f64,
        action_id: u64,
        profile_folded: &str,
    ) -> Option<std::path::PathBuf> {
        self.actions.get(action_id)?;
        let trigger = format!("{{\"action_id\": {action_id}}}");
        self.write_flight_bundle(now_ns, &trigger, profile_folded)
    }

    /// `flightrec_<fig>_<seq>.json`: the trigger (join keys only — the
    /// evidence is in the tables), every `ts_*` table (see
    /// [`crate::tables::all_tables_json`]), the full metrics snapshot
    /// and the active (folded) profile.
    fn write_flight_bundle(
        &mut self,
        now_ns: f64,
        trigger: &str,
        profile_folded: &str,
    ) -> Option<std::path::PathBuf> {
        let dir = self.flightrec.dir.clone()?;
        self.flightrec.seq += 1;
        let path = dir.join(format!(
            "flightrec_{}_{}.json",
            self.flightrec.fig, self.flightrec.seq
        ));
        let bundle = format!(
            "{{\n  \"at_ns\": {},\n  \"fig\": \"{}\",\n  \"seq\": {},\n  \
             \"trigger\": {trigger},\n  \"tables\": {},\n  \"metrics\": {},\n  \
             \"profile_folded\": \"{}\"\n}}\n",
            json_num(now_ns),
            json_escape(&self.flightrec.fig),
            self.flightrec.seq,
            crate::tables::all_tables_json(self).trim_end(),
            self.snapshot_json().trim_end(),
            json_escape(profile_folded),
        );
        std::fs::create_dir_all(&dir).ok();
        if std::fs::write(&path, bundle).is_err() {
            return None;
        }
        self.counter_add("ts_flightrec_bundles_total", &[], 1);
        Some(path)
    }

    /// Feed one decoded training sample into the OU's drift channels
    /// (the Processor calls this per point).
    pub fn observe_ou_sample(
        &mut self,
        ou: &str,
        subsystem: &str,
        target_ns: f64,
        feature_norm: f64,
    ) {
        self.drift
            .observe_sample(ou, subsystem, target_ns, feature_norm);
    }

    /// Feed one live-model residual pair (the model lifecycle calls
    /// this at its retrain cadence).
    pub fn observe_residual(&mut self, ou: &str, predicted_ns: f64, actual_ns: f64) {
        self.drift.observe_residual(ou, predicted_ns, actual_ns);
    }

    /// Score every OU's drift windows and publish the (sticky) scores
    /// as gauges: `ts_drift_psi{channel,ou}`, `ts_drift_ks{channel,ou}`,
    /// `ts_drift_score{ou}`, `ts_residual_mape_pct{ou}`.
    pub fn drift_evaluate(&mut self) {
        let scores = self.drift.evaluate();
        self.counter_add("ts_drift_evaluations_total", &[], 1);
        for s in scores {
            let ou = s.ou.as_str();
            self.gauge_set("ts_drift_score", &[("ou", ou)], s.drift_score);
            for (channel, psi, ks) in [
                ("target", s.psi_target, s.ks_target),
                ("feature", s.psi_feature, s.ks_feature),
            ] {
                self.gauge_set("ts_drift_psi", &[("channel", channel), ("ou", ou)], psi);
                self.gauge_set("ts_drift_ks", &[("channel", channel), ("ou", ou)], ks);
            }
            if s.residual_mape_pct > 0.0 || self.drift.ou(ou).is_some_and(|d| d.residual_points > 0)
            {
                self.gauge_set("ts_residual_mape_pct", &[("ou", ou)], s.residual_mape_pct);
            }
        }
    }

    /// Rebaseline every OU's drift channels after an intentional
    /// distribution change (an accepted retrain actuated by the action
    /// engine): the frozen references re-learn from the post-change
    /// stream, and the sticky score gauges are zeroed so the health
    /// rules read recovery instead of the stale pre-change scores.
    /// Returns how many OUs were rebaselined.
    pub fn drift_rebaseline_all(&mut self) -> usize {
        let n = self.drift.rebaseline_all();
        let ous: Vec<String> = self.drift.iter().map(|(name, _)| name.clone()).collect();
        for ou in &ous {
            self.gauge_set("ts_drift_score", &[("ou", ou)], 0.0);
            for channel in ["target", "feature"] {
                self.gauge_set("ts_drift_psi", &[("channel", channel), ("ou", ou)], 0.0);
                self.gauge_set("ts_drift_ks", &[("channel", channel), ("ou", ou)], 0.0);
            }
        }
        self.counter_add("ts_drift_rebaselines_total", &[], 1);
        n
    }

    /// Run the health engine over the current gauges and counter rates,
    /// count transitions into `alerts_fired_total` /
    /// `alerts_recovered_total`, and publish `ts_health_state` per
    /// subsystem. Returns this tick's transitions.
    pub fn health_tick(&mut self, now_ns: f64) -> Vec<Alert> {
        // Resolve only the signals the rules actually reference.
        let mut signals = Signals::default();
        for rule in self.health.rules() {
            match &rule.selector {
                Selector::Gauge(name) => {
                    if signals.gauges.contains_key(name) {
                        continue;
                    }
                    let series: Vec<(Labels, f64)> = self
                        .gauges
                        .family(name)
                        .iter()
                        .map(|(labels, g)| (labels.clone(), g.get()))
                        .collect();
                    if !series.is_empty() {
                        signals.gauges.insert(name.clone(), series);
                    }
                }
                Selector::CounterRate(name) => {
                    if let Some(rate) = self.timeseries.latest_rate_per_sec(name) {
                        signals.rates.insert(name.clone(), rate);
                    }
                }
            }
        }
        let transitions = self.health.tick(now_ns, &signals);
        for t in &transitions {
            let name = if t.fired() {
                "alerts_fired_total"
            } else {
                "alerts_recovered_total"
            };
            self.counter_add(
                name,
                &[
                    ("rule", t.rule.as_str()),
                    ("subsystem", t.subsystem.as_str()),
                ],
                1,
            );
        }
        for (subsystem, state) in self.health.subsystem_states() {
            self.gauge_set(
                "ts_health_state",
                &[("subsystem", subsystem.as_str())],
                state.as_f64(),
            );
        }
        transitions
    }

    /// One combined observability turn, in dependency order: score drift
    /// (updates gauges), scrape the counters into the time series (the
    /// rates health rules read), then run the health rules.
    pub fn observability_tick(&mut self, now_ns: f64) -> Vec<Alert> {
        self.drift_evaluate();
        self.scrape_window(now_ns);
        self.health_tick(now_ns)
    }

    /// Merge `other` into `self`: counters add, gauges take the max
    /// (every gauge we export is a level or high-water mark, for which
    /// max is the meaningful union), histograms merge bucket-wise, and
    /// spans append subject to ring capacity.
    pub fn merge_from(&mut self, other: &Registry) {
        fn borrowed(labels: &Labels) -> Vec<(&str, &str)> {
            labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect()
        }
        for (name, labels, c) in other.counters.iter() {
            self.counter_add(name, &borrowed(labels), c.get());
        }
        for (name, labels, g) in other.gauges.iter() {
            self.gauge_max(name, &borrowed(labels), g.get());
        }
        for (name, labels, h) in other.histograms.iter() {
            self.histograms
                .cell(name, &borrowed(labels))
                .merge_from(&h.load());
        }
        for s in other.spans.iter() {
            self.spans.record(*s);
        }
        // Time series from different registries cover different
        // (overlapping) virtual timelines and cannot be concatenated
        // meaningfully; keep ours and adopt the other's only if we have
        // none (so a fold into an empty accumulator preserves one
        // representative run's dynamics).
        if self.timeseries.is_empty() && !other.timeseries.is_empty() {
            self.timeseries = other.timeseries.clone();
        }
        // Same reasoning for the drift windows and health state machine:
        // reference/live windows and hysteresis streaks from different
        // runs don't compose, so an empty (never-fed / never-ticked)
        // accumulator adopts the other side wholesale and an active one
        // keeps its own.
        if self.drift.is_empty() && !other.drift.is_empty() {
            self.drift = other.drift.clone();
        }
        if self.health.ticks == 0 && other.health.ticks > 0 {
            self.health = other.health.clone();
        }
        // Trace lineage from a different run doesn't interleave with
        // ours either: adopt wholesale into an idle accumulator only.
        if self.tracer.is_idle() && !other.tracer.is_idle() {
            self.tracer = other.tracer.clone();
        }
        // Statement stats carry LRU stamps from their own run's record
        // order, which don't compose across runs: same idle-adoption rule.
        if self.stmts.is_idle() && !other.stmts.is_idle() {
            self.stmts = other.stmts.clone();
        }
        // Action ids are per-run monotonic and don't compose either:
        // idle adoption, like the other stateful subsystems.
        if self.actions.is_empty() && !other.actions.is_empty() {
            self.actions = other.actions.clone();
        }
    }

    /// OpenMetrics-flavored text exposition: every family gets a
    /// `# HELP` (from [`crate::docs::METRIC_DOCS`] when documented) and
    /// `# TYPE` line, counters are normalized to a `_total` suffix, and
    /// histograms export their cumulative `_bucket{le="..."}` series
    /// with the mandatory `+Inf` bucket plus `_sum`/`_count`.
    pub fn to_prometheus(&self) -> String {
        fn header(out: &mut String, family: &str, kind: &str, doc_name: &str) {
            let help = crate::docs::metric_help(doc_name)
                .or_else(|| crate::docs::metric_help(family))
                .unwrap_or("(undocumented)");
            let help = help.replace('\\', "\\\\").replace('\n', "\\n");
            out.push_str(&format!("# HELP {family} {help}\n# TYPE {family} {kind}\n"));
        }
        let mut out = String::new();
        for (name, family_series) in &self.counters.families {
            let family = if name.ends_with("_total") {
                name.clone()
            } else {
                format!("{name}_total")
            };
            header(&mut out, &family, "counter", name);
            for (labels, c) in family_series {
                out.push_str(&format!("{} {}\n", render(&family, labels, None), c.get()));
            }
        }
        // Span-ring loss is bookkeeping the ring keeps internally, not a
        // registry counter; surface it so span loss is never silent.
        header(
            &mut out,
            "telemetry_spans_dropped_total",
            "counter",
            "telemetry_spans_dropped_total",
        );
        out.push_str(&format!(
            "telemetry_spans_dropped_total {}\n",
            self.spans.dropped()
        ));
        for (name, family_series) in &self.gauges.families {
            header(&mut out, name, "gauge", name);
            for (labels, g) in family_series {
                out.push_str(&format!("{} {}\n", render(name, labels, None), g.get()));
            }
        }
        for (name, family_series) in &self.histograms.families {
            header(&mut out, name, "histogram", name);
            let bucket = format!("{name}_bucket");
            for (labels, cell) in family_series {
                let h = cell.load();
                for (upper, cum) in h.cumulative_buckets() {
                    out.push_str(&format!(
                        "{} {cum}\n",
                        render(&bucket, labels, Some(("le", &format!("{upper}"))))
                    ));
                }
                out.push_str(&format!(
                    "{} {}\n",
                    render(&bucket, labels, Some(("le", "+Inf"))),
                    h.count()
                ));
                out.push_str(&format!(
                    "{} {}\n",
                    render(&format!("{name}_sum"), labels, None),
                    h.sum()
                ));
                out.push_str(&format!(
                    "{} {}\n",
                    render(&format!("{name}_count"), labels, None),
                    h.count()
                ));
            }
        }
        out
    }

    /// chrome://tracing trace-event JSON (`ph: "X"` complete events,
    /// microsecond timestamps as the format requires).
    pub fn spans_to_chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{}}}",
                    json_escape(s.name),
                    json_escape(s.category),
                    json_num(s.start_ns / 1000.0),
                    json_num(s.dur_ns / 1000.0),
                )
            })
            .collect();
        format!("{{\"traceEvents\":[{}]}}", events.join(","))
    }

    /// The combined snapshot the bench binaries persist as
    /// `results/telemetry_<fig>.json`: counters and gauges keyed by
    /// rendered metric name, histogram summaries, and per-(name,category)
    /// span aggregates (the raw span ring would dwarf the metrics).
    pub fn snapshot_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        let mut counters: Vec<String> = self
            .counters
            .iter()
            .map(|(name, labels, c)| {
                format!(
                    "\n    \"{}\": {}",
                    json_escape(&render(name, labels, None)),
                    c.get()
                )
            })
            .collect();
        counters.push(format!(
            "\n    \"telemetry_spans_dropped_total\": {}",
            self.spans.dropped()
        ));
        out.push_str(&counters.join(","));
        out.push_str("\n  },\n  \"gauges\": {");
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|(name, labels, g)| {
                format!(
                    "\n    \"{}\": {}",
                    json_escape(&render(name, labels, None)),
                    json_num(g.get())
                )
            })
            .collect();
        out.push_str(&gauges.join(","));
        out.push_str("\n  },\n  \"histograms\": {");
        let hists: Vec<String> = self
            .histograms
            .iter()
            .map(|(name, labels, h)| {
                let s = h.load().snapshot();
                format!(
                    "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"mean\": {}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                    json_escape(&render(name, labels, None)),
                    s.count,
                    json_num(s.sum),
                    json_num(s.mean),
                    json_num(s.min),
                    json_num(s.max),
                    json_num(s.p50),
                    json_num(s.p95),
                    json_num(s.p99),
                )
            })
            .collect();
        out.push_str(&hists.join(","));
        out.push_str("\n  },\n  \"spans\": {");
        let mut agg: BTreeMap<(&str, &str), (u64, f64)> = BTreeMap::new();
        for s in self.spans.iter() {
            let e = agg.entry((s.name, s.category)).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += s.dur_ns;
        }
        let spans: Vec<String> = agg
            .into_iter()
            .map(|((name, cat), (count, total))| {
                format!(
                    "\n    \"{}[{}]\": {{\"count\": {count}, \"total_ns\": {}, \"dropped\": {}}}",
                    json_escape(name),
                    json_escape(cat),
                    json_num(total),
                    self.spans.dropped(),
                )
            })
            .collect();
        out.push_str(&spans.join(","));
        out.push_str("\n  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_labels_are_order_insensitive() {
        let a = MetricKey::new("m", &[("a", "1"), ("b", "2")]);
        let b = MetricKey::new("m", &[("b", "2"), ("a", "1")]);
        assert_eq!(a, b);
    }

    #[test]
    fn prometheus_format_shape() {
        let mut r = Registry::new();
        r.counter_add("req_total", &[("code", "200")], 7);
        r.gauge_set("depth", &[], 2.5);
        r.hist_record("lat_ns", &[], 100.0);
        let text = r.to_prometheus();
        assert!(text.contains("# TYPE req_total counter"));
        assert!(text.contains("req_total{code=\"200\"} 7"));
        assert!(text.contains("# TYPE depth gauge"));
        assert!(text.contains("depth 2.5"));
        assert!(text.contains("# TYPE lat_ns histogram"));
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("lat_ns_sum 100"));
        assert!(text.contains("lat_ns_count 1"));
    }

    #[test]
    fn every_family_has_help_and_type() {
        // Satellite regression: each exported family must carry # HELP
        // and # TYPE lines, with documented metrics pulling their
        // meaning from METRIC_DOCS.
        let mut r = Registry::new();
        r.counter_add("tscout_samples_begun_total", &[("subsystem", "ee")], 3);
        r.gauge_set("tscout_overhead_ratio", &[], 0.01);
        r.hist_record("workload_txn_ns", &[("outcome", "committed")], 5e4);
        r.counter_add("some_novel_counter_total", &[], 1);
        let text = r.to_prometheus();
        for family in [
            "tscout_samples_begun_total",
            "tscout_overhead_ratio",
            "workload_txn_ns",
            "telemetry_spans_dropped_total",
            "some_novel_counter_total",
        ] {
            assert!(
                text.contains(&format!("# HELP {family} ")),
                "missing HELP for {family}:\n{text}"
            );
            assert!(
                text.contains(&format!("# TYPE {family} ")),
                "missing TYPE for {family}:\n{text}"
            );
        }
        // Documented help text comes from the dictionary.
        let help = crate::docs::metric_help("tscout_samples_begun_total").unwrap();
        assert!(text.contains(help));
        // Undocumented metrics still get a placeholder HELP.
        assert!(text.contains("# HELP some_novel_counter_total (undocumented)"));
        // HELP/TYPE are emitted once per family, not per label set.
        r.counter_add("tscout_samples_begun_total", &[("subsystem", "net")], 1);
        let text = r.to_prometheus();
        let headers = text
            .lines()
            .filter(|l| *l == "# TYPE tscout_samples_begun_total counter")
            .count();
        assert_eq!(headers, 1, "one TYPE header per family:\n{text}");
    }

    #[test]
    fn counters_are_normalized_to_total_suffix() {
        // Satellite regression: a counter registered without the
        // conventional suffix is exposed with `_total` appended.
        let mut r = Registry::new();
        r.counter_add("odd_counter", &[("k", "v")], 4);
        let text = r.to_prometheus();
        assert!(text.contains("# TYPE odd_counter_total counter"));
        assert!(text.contains("odd_counter_total{k=\"v\"} 4"));
        assert!(
            !text
                .lines()
                .any(|l| l.starts_with("odd_counter ") || l.starts_with("odd_counter{")),
            "unsuffixed sample leaked:\n{text}"
        );
        // Already-suffixed names are untouched (no `_total_total`).
        r.counter_add("fine_total", &[], 1);
        let text = r.to_prometheus();
        assert!(text.contains("fine_total 1"));
        assert!(!text.contains("fine_total_total"));
    }

    #[test]
    fn histograms_expose_cumulative_buckets_with_inf_sum_count() {
        // Satellite regression: histogram families are `histogram` (not
        // summary) with a cumulative bucket series ending at +Inf, and
        // labeled families keep their labels on every sample line.
        let mut r = Registry::new();
        for v in [10.0, 20.0, 20.0, 5_000.0] {
            r.hist_record("lat_ns", &[("op", "read")], v);
        }
        let text = r.to_prometheus();
        assert!(text.contains("# TYPE lat_ns histogram"));
        assert!(!text.contains("summary"));
        assert!(!text.contains("quantile"));
        // Cumulative: the +Inf bucket equals _count, and bucket counts
        // never decrease as le grows.
        assert!(text.contains("le=\"+Inf\""), "{text}");
        let buckets: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("lat_ns_bucket{"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(buckets.len() >= 3, "expected several buckets: {text}");
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "not cumulative");
        assert_eq!(*buckets.last().unwrap(), 4, "+Inf must equal count");
        assert!(text.contains("lat_ns_sum{op=\"read\"} 5050"));
        assert!(text.contains("lat_ns_count{op=\"read\"} 4"));
        // le sorts into the label set alphabetically.
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\",op=\"read\"} 4"));
    }

    #[test]
    fn chrome_json_shape() {
        let mut r = Registry::new();
        r.record_span("flush", "wal", 2_000.0, 500.0);
        let j = r.spans_to_chrome_json();
        assert!(j.contains("\"traceEvents\""));
        assert!(j.contains("\"name\":\"flush\""));
        assert!(j.contains("\"ts\":2"));
        assert!(j.contains("\"dur\":0.5"));
    }

    #[test]
    fn spans_dropped_is_exported_as_counter() {
        let mut r = Registry::new();
        r.counter_add("x_total", &[], 1);
        let prom = r.to_prometheus();
        assert!(prom.contains("# TYPE telemetry_spans_dropped_total counter"));
        assert!(prom.contains("telemetry_spans_dropped_total 0"));
        let json = r.snapshot_json();
        assert!(json.contains("\"telemetry_spans_dropped_total\": 0"));
        // Overflow the span ring and watch the counter move.
        for i in 0..(crate::DEFAULT_SPAN_CAPACITY + 3) {
            r.record_span("s", "c", i as f64, 1.0);
        }
        assert!(r
            .to_prometheus()
            .contains("telemetry_spans_dropped_total 3"));
        assert!(r
            .snapshot_json()
            .contains("\"telemetry_spans_dropped_total\": 3"));
    }

    #[test]
    fn scrape_builds_timeseries_windows() {
        let mut r = Registry::new();
        r.counter_add("d", &[("sub", "ee")], 5);
        r.scrape_window(1_000.0);
        r.counter_add("d", &[("sub", "ee")], 7);
        r.counter_add("d", &[("sub", "net")], 2);
        r.scrape_window(2_000.0);
        assert_eq!(r.timeseries().len(), 2);
        assert_eq!(r.timeseries().total_in_window("d", 0), 5);
        assert_eq!(r.timeseries().total_in_window("d", 1), 14);
        assert_eq!(r.timeseries().delta("d", 1), 9);
        assert!(r.timeseries_json().contains("\"windows\""));
    }

    #[test]
    fn merge_adopts_timeseries_only_when_empty() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        b.counter_add("c", &[], 1);
        b.scrape_window(10.0);
        a.merge_from(&b);
        assert_eq!(a.timeseries().len(), 1);
        // A second merge from a different run must not concatenate.
        let mut c = Registry::new();
        c.counter_add("c", &[], 9);
        c.scrape_window(5.0);
        c.scrape_window(6.0);
        a.merge_from(&c);
        assert_eq!(a.timeseries().len(), 1);
    }

    #[test]
    fn label_values_are_escaped_in_exposition() {
        // Regression: newline in a label value used to split the
        // exposition line in two (backslash and quote were already
        // escaped, line feed was not).
        let mut r = Registry::new();
        r.counter_add("weird_total", &[("q", "a\\b\"c\nd")], 1);
        let prom = r.to_prometheus();
        assert!(
            prom.contains("weird_total{q=\"a\\\\b\\\"c\\nd\"} 1"),
            "got: {prom}"
        );
        // The rendered sample must stay a single line.
        let line = prom
            .lines()
            .find(|l| l.starts_with("weird_total"))
            .expect("sample line present");
        assert!(line.ends_with(" 1"));
    }

    #[test]
    fn drift_feeding_and_evaluation_publish_gauges() {
        let mut r = Registry::new();
        for i in 0..300 {
            r.observe_ou_sample(
                "ExecSeqScan",
                "execution_engine",
                1_000.0 + (i % 7) as f64,
                3.0,
            );
        }
        // Reference frozen at 256; the remaining 44 live samples are
        // below min_live, so scores stay at their initial zero.
        r.drift_evaluate();
        assert_eq!(r.counter_value("ts_drift_evaluations_total", &[]), 1);
        assert_eq!(
            r.gauge_value("ts_drift_score", &[("ou", "ExecSeqScan")]),
            0.0
        );
        // Shift the live window far above the reference and re-evaluate.
        for _ in 0..64 {
            r.observe_ou_sample("ExecSeqScan", "execution_engine", 64_000.0, 3.0);
        }
        r.drift_evaluate();
        let score = r.gauge_value("ts_drift_score", &[("ou", "ExecSeqScan")]);
        assert!(score > 0.25, "score={score}");
        assert!(
            r.gauge_value(
                "ts_drift_psi",
                &[("channel", "target"), ("ou", "ExecSeqScan")]
            ) > 0.25
        );
    }

    #[test]
    fn observability_tick_fires_and_recovers_alerts() {
        let mut r = Registry::new();
        // Freeze a reference then shift the live window hard.
        for i in 0..256 {
            r.observe_ou_sample("ExecAgg", "execution_engine", 2_000.0 + (i % 5) as f64, 1.0);
        }
        for _ in 0..64 {
            r.observe_ou_sample("ExecAgg", "execution_engine", 90_000.0, 1.0);
        }
        let fired = r.observability_tick(1_000_000.0);
        assert!(
            fired.iter().any(super::super::health::Alert::fired),
            "expected a fired alert"
        );
        assert!(r.counter_total("alerts_fired_total") >= 1);
        assert!(r.gauge_value("ts_health_state", &[("subsystem", "data")]) >= 1.0);
        // Back to the reference distribution: hysteresis needs two clear
        // evaluations before stepping down.
        for tick in 0..4u32 {
            for i in 0..64 {
                r.observe_ou_sample("ExecAgg", "execution_engine", 2_000.0 + (i % 5) as f64, 1.0);
            }
            r.observability_tick(2_000_000.0 + tick as f64);
        }
        assert_eq!(
            r.gauge_value("ts_health_state", &[("subsystem", "data")]),
            0.0
        );
        assert!(r.counter_total("alerts_recovered_total") >= 1);
    }

    #[test]
    fn merge_adopts_drift_and_health_only_when_idle() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        b.observe_ou_sample("OuX", "s", 1.0, 1.0);
        b.observability_tick(10.0);
        a.merge_from(&b);
        assert_eq!(a.drift().len(), 1);
        assert_eq!(a.health().ticks, 1);
        // An active accumulator keeps its own windows.
        let mut c = Registry::new();
        c.observe_ou_sample("OuY", "s", 1.0, 1.0);
        c.observe_ou_sample("OuZ", "s", 1.0, 1.0);
        a.merge_from(&c);
        assert_eq!(a.drift().len(), 1);
        assert!(a.drift().ou("OuX").is_some());
    }

    #[test]
    fn stmt_record_syncs_metrics() {
        let mut r = Registry::new();
        r.stmt_record("select ?", 100.0, 1, &[("seq_scan", 80.0)], None);
        r.stmt_record("select ?", 200.0, 1, &[("seq_scan", 150.0)], Some(140.0));
        assert_eq!(r.counter_value("db_stmt_recorded_total", &[]), 2);
        // The eviction counter registers at zero from the first record.
        assert_eq!(r.counter_value("db_stmt_evicted_total", &[]), 0);
        assert!(r
            .metric_names()
            .iter()
            .any(|n| n == "db_stmt_evicted_total"));
        assert_eq!(r.gauge_value("db_stmt_fingerprints", &[]), 1.0);
        let e = r.stmts().get("select ?").unwrap();
        assert_eq!(e.calls, 2);
    }

    #[test]
    fn merge_adopts_stmt_stats_only_when_idle() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        b.stmt_record("q1", 10.0, 0, &[], None);
        a.merge_from(&b);
        assert!(a.stmts().get("q1").is_some());
        // An active accumulator keeps its own entries.
        let mut c = Registry::new();
        c.stmt_record("q2", 10.0, 0, &[], None);
        a.merge_from(&c);
        assert!(a.stmts().get("q2").is_none());
    }

    #[test]
    fn merge_semantics() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        a.counter_add("c", &[], 1);
        b.counter_add("c", &[], 2);
        a.gauge_set("hwm", &[], 5.0);
        b.gauge_set("hwm", &[], 3.0);
        b.hist_record("h", &[], 10.0);
        a.merge_from(&b);
        assert_eq!(a.counter_value("c", &[]), 3);
        assert_eq!(a.gauge_value("hwm", &[]), 5.0);
        assert_eq!(a.hist_snapshot("h", &[]).unwrap().count, 1);
    }
}
