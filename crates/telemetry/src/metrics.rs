//! The metric registry: named, labeled counters / gauges / histograms,
//! exported as Prometheus text (see [`Exposition`]) and as the rows of
//! `ts_metrics`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use crate::actions::ActionLog;
use crate::decls;
use crate::drift::DriftRegistry;
use crate::handles::{Cell, Counter, Decl, Gauge, Hist, Kind};
use crate::health::{Alert, HealthEngine, HealthState, Selector, Signals};
use crate::histogram::HistogramSnapshot;
use crate::stmt::{OuNs, StmtId, StmtStats};
use crate::tables::Cell as Col;
use crate::timeseries::{TimeSeries, Window};
use crate::trace::{FlightRecorderArm, Tracer};
use crate::{json_escape, json_num};

mod exposition;

pub use exposition::Exposition;

/// Sorted `label=value` pairs.
type Labels = Vec<(String, String)>;

/// `write!` into a `String`.
#[allow(clippy::let_underscore_must_use)]
fn put(out: &mut String, args: std::fmt::Arguments<'_>) {
    // ignored: writing into a `String` cannot fail.
    let _ = out.write_fmt(args);
}

/// Append `s` escaped per the text exposition format: backslash and line
/// feed always, double quote too inside a label value.
fn push_escaped(out: &mut String, s: &str, in_label: bool) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '"' if in_label => out.push_str("\\\""),
            c => out.push(c),
        }
    }
}

/// Append the Prometheus-style series name `name suffix {k="v",k2="v2"}`
/// to `out`, optionally with an `le` label (histogram buckets) inserted
/// in sorted position. Label values are escaped in place. Returns the
/// offset in `out` at which the `le` value was written (`out.len()`
/// without one).
fn write_series(
    out: &mut String,
    name: &str,
    suffix: &str,
    labels: &[(String, String)],
    mut le: Option<std::fmt::Arguments<'_>>,
) -> usize {
    out.push_str(name);
    out.push_str(suffix);
    if labels.is_empty() && le.is_none() {
        return out.len();
    }
    let mut sep = '{';
    let mut pair = |out: &mut String, k: &str| {
        out.push(sep);
        sep = ',';
        out.push_str(k);
        out.push_str("=\"");
    };
    let mut le_at = None;
    for (k, v) in labels {
        if k.as_str() > "le" {
            if let Some(le) = le.take() {
                pair(out, "le");
                le_at = Some(out.len());
                put(out, format_args!("{le}\""));
            }
        }
        pair(out, k);
        push_escaped(out, v, true);
        out.push('"');
    }
    if let Some(le) = le {
        pair(out, "le");
        le_at = Some(out.len());
        put(out, format_args!("{le}\""));
    }
    out.push('}');
    le_at.unwrap_or(out.len())
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

/// A registry's structural version: a fresh draw from one process-wide
/// counter whenever a family or series is inserted or a family's help
/// goes from empty to declared. A new or cloned registry draws one too,
/// so no two registries, and no two shapes of one registry, share a
/// generation. Series are never removed, so an unchanged generation
/// means an unchanged series set ([`Exposition`] keys its layouts on it).
#[derive(Debug, PartialEq, Eq)]
struct Generation(u64);

/// The next generation to draw. Only uniqueness matters, which every
/// `fetch_add` gives whatever its ordering; the value publishes nothing.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

impl Default for Generation {
    fn default() -> Self {
        Generation(NEXT_GENERATION.fetch_add(1, Relaxed))
    }
}

/// A clone is another registry, so it draws a generation of its own.
impl Clone for Generation {
    fn clone(&self) -> Self {
        Generation::default()
    }
}

/// One metric family: the help text it was registered with (empty when
/// only ever resolved by bare name) and its label sets, sorted.
#[derive(Debug)]
struct Family<C> {
    help: &'static str,
    series: Vec<(Labels, C)>,
}

/// All series of one kind: metric name → family → the cell holding each
/// value. Iteration is in `(name, labels)` order; a lookup by borrowed
/// name and labels allocates nothing.
#[derive(Debug, Default)]
struct Series<C> {
    families: BTreeMap<String, Family<C>>,
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
                    let series = family
                        .series
                        .iter()
                        .map(|(labels, cell)| (labels.clone(), cell.detached()))
                        .collect();
                    let help = family.help;
                    (name.clone(), Family { help, series })
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
        self.families.get(name).map_or(&[], |f| &f.series)
    }

    fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&C> {
        let family = self.family(name);
        with_sorted(labels, |sorted| {
            Self::position(family, sorted).ok().map(|i| &family[i].1)
        })
    }

    /// The series' cell, created by `init` if it does not exist yet. A
    /// non-empty `help` documents a family that had none. Either change
    /// draws a new `generation`.
    fn get_or_insert_with(
        &mut self,
        generation: &mut Generation,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
        init: impl FnOnce() -> C,
    ) -> &C {
        if !self.families.contains_key(name) {
            let series = Vec::new();
            self.families
                .insert(name.to_string(), Family { help, series });
        }
        // A borrowed-name lookup, so that a known family costs no key; a
        // map hands out no entry by borrowed key, hence the second lookup.
        #[allow(clippy::expect_used)]
        let family = self.families.get_mut(name).expect("inserted above");
        if family.help.is_empty() && !help.is_empty() {
            family.help = help;
            *generation = Generation::default();
        }
        let family = &mut family.series;
        with_sorted(labels, |sorted| {
            let at = match Self::position(family, sorted) {
                Ok(at) => at,
                Err(at) => {
                    let owned = sorted
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.to_string()))
                        .collect();
                    family.insert(at, (owned, init()));
                    *generation = Generation::default();
                    at
                }
            };
            &family[at].1
        })
    }

    fn cell(
        &mut self,
        generation: &mut Generation,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> &C {
        self.get_or_insert_with(generation, name, help, labels, C::default)
    }

    fn len(&self) -> usize {
        self.families.values().map(|f| f.series.len()).sum()
    }

    /// Every series as `(name, labels, cell)`, in `(name, labels)` order.
    fn iter(&self) -> impl Iterator<Item = (&str, &Labels, &C)> {
        self.families.iter().flat_map(|(name, family)| {
            family
                .series
                .iter()
                .map(move |(labels, cell)| (name.as_str(), labels, cell))
        })
    }
}

impl Kind for Counter {
    const KIND: &'static str = "counter";
    fn resolve<'r>(reg: &'r mut Registry, decl: &Decl<Self>, labels: &[(&str, &str)]) -> &'r Self {
        reg.counters
            .cell(&mut reg.generation, decl.name, decl.help, labels)
    }
}

impl Kind for Gauge {
    const KIND: &'static str = "gauge";
    fn resolve<'r>(reg: &'r mut Registry, decl: &Decl<Self>, labels: &[(&str, &str)]) -> &'r Self {
        reg.gauges
            .cell(&mut reg.generation, decl.name, decl.help, labels)
    }
}

impl Kind for Hist {
    const KIND: &'static str = "histogram";
    fn resolve<'r>(reg: &'r mut Registry, decl: &Decl<Self>, labels: &[(&str, &str)]) -> &'r Self {
        reg.histograms
            .cell(&mut reg.generation, decl.name, decl.help, labels)
    }
}

/// The registry proper. Usually accessed through the cheap-clone
/// [`crate::Telemetry`] handle rather than directly. `clone()` is a deep
/// value snapshot (see [`crate::handles`]). Every read surface reads the
/// registry in place, so no code under `crates/` clones it (`ci.sh`
/// checks); `Clone` stays because the frozen benchmark's telemetry
/// kernels (`benchmark/src/kernels.rs`) clone it.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    generation: Generation,
    counters: Series<Counter>,
    gauges: Series<Gauge>,
    histograms: Series<Hist>,
    timeseries: TimeSeries,
    drift: DriftRegistry,
    health: HealthEngine,
    tracer: Tracer,
    flightrec: FlightRecorderArm,
    stmts: StmtStats,
    stmt_series: Held<StmtSeries>,
    actions: ActionLog,
}

/// The statement-stats series, held so that a record looks no family up.
#[derive(Debug)]
struct StmtSeries {
    recorded: Counter,
    evicted: Counter,
    fingerprints: Gauge,
}

/// Handles into this registry's own cells, resolved on first use. A
/// clone is another registry with cells of its own, so it starts with
/// none and resolves its own.
#[derive(Debug)]
struct Held<T>(Option<T>);

impl<T> Default for Held<T> {
    fn default() -> Self {
        Held(None)
    }
}

impl<T> Clone for Held<T> {
    fn clone(&self) -> Self {
        Held(None)
    }
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
    /// This and its two siblings are the by-name door for signals without
    /// a declaration; declared metrics resolve through their
    /// [`Decl`](crate::Decl) and bring their help text along.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.counters
            .cell(&mut self.generation, name, "", labels)
            .clone()
    }

    /// Handle to the gauge `name{labels}`, registering it (at 0) if new.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        self.gauges
            .cell(&mut self.generation, name, "", labels)
            .clone()
    }

    /// Handle to the histogram `name{labels}`, registering it (empty) if
    /// new.
    pub fn hist(&mut self, name: &str, labels: &[(&str, &str)]) -> Hist {
        self.histograms
            .cell(&mut self.generation, name, "", labels)
            .clone()
    }

    /// The cell of `decl{labels}`, for the registry's own bookkeeping.
    fn at<C: Kind>(&mut self, decl: &Decl<C>, labels: &[(&str, &str)]) -> &C {
        C::resolve(self, decl, labels)
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

    /// Every counter series of `name` as `(sorted labels, value)`, in
    /// label order.
    pub fn counter_family(&self, name: &str) -> impl Iterator<Item = (&[(String, String)], u64)> {
        let family = self.counters.family(name).iter();
        family.map(|(labels, c)| (labels.as_slice(), c.get()))
    }

    /// Sum of the counters of `name` whose label `key` is `value`.
    pub fn counter_sum_where(&self, name: &str, key: &str, value: &str) -> u64 {
        self.counter_family(name)
            .filter(|(labels, _)| labels.iter().any(|(k, v)| k == key && v == value))
            .map(|(_, n)| n)
            .sum()
    }

    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.gauges.get(name, labels).map_or(0.0, Gauge::get)
    }

    pub fn hist_snapshot(&self, name: &str, labels: &[(&str, &str)]) -> Option<HistogramSnapshot> {
        self.histograms
            .get(name, labels)
            .map(|h| h.load().snapshot())
    }

    /// Scrape the current cumulative counter totals into the embedded
    /// [`TimeSeries`] as a window ending at virtual time `now_ns`.
    pub fn scrape_window(&mut self, now_ns: f64) {
        let counters = self
            .counters
            .families
            .iter()
            .map(|(name, f)| (name.clone(), f.series.iter().map(|(_, c)| c.get()).sum()))
            .collect();
        self.timeseries.push(Window {
            end_ns: now_ns,
            counters,
        });
    }

    pub fn timeseries(&self) -> &TimeSeries {
        &self.timeseries
    }

    pub fn drift(&self) -> &DriftRegistry {
        &self.drift
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

    pub fn actions(&self) -> &ActionLog {
        &self.actions
    }

    pub fn actions_mut(&mut self) -> &mut ActionLog {
        &mut self.actions
    }

    /// Fold one executed statement into the statement-stats registry and
    /// sync its internal counters into registry metrics
    /// (`db_stmt_recorded_total`, `db_stmt_evicted_total`,
    /// `db_stmt_fingerprints`), all three registered from the first
    /// recorded statement on. This runs once per executed statement: the
    /// steady state finds its entry by id and bumps a held handle, and
    /// the eviction counter / fingerprint gauge are only touched when
    /// their values actually moved.
    pub fn stmt_record(
        &mut self,
        id: StmtId,
        actual_ns: f64,
        rows: u64,
        ou_ns: OuNs<'_>,
        predicted_ns: Option<f64>,
    ) {
        let evicted_before = self.stmts.evicted();
        let len_before = self.stmts.len();
        self.stmts.record(id, actual_ns, rows, ou_ns, predicted_ns);
        let series = match self.stmt_series.0.take() {
            Some(series) => series,
            None => {
                // First record, a registry reset or a snapshot: a fresh
                // registry registers all three series at their
                // authoritative values, a snapshot resolves its own.
                let fresh = self.counters.get(decls::STMT_RECORDED.name, &[]).is_none();
                let series = StmtSeries {
                    recorded: self.at(&decls::STMT_RECORDED, &[]).clone(),
                    evicted: self.at(&decls::STMT_EVICTED, &[]).clone(),
                    fingerprints: self.at(&decls::STMT_FINGERPRINTS, &[]).clone(),
                };
                if fresh {
                    series.recorded.add(self.stmts.recorded());
                    series.evicted.add(self.stmts.evicted());
                    series.fingerprints.set(self.stmts.len() as f64);
                    self.stmt_series.0 = Some(series);
                    return;
                }
                series
            }
        };
        series.recorded.inc();
        if self.stmts.evicted() != evicted_before {
            series.evicted.add(self.stmts.evicted() - evicted_before);
        }
        if self.stmts.len() != len_before {
            series.fingerprints.set(self.stmts.len() as f64);
        }
        self.stmt_series.0 = Some(series);
    }

    /// The epilogue of every tracer event that can complete a trace (see
    /// `Telemetry::traced`). Each completion since the last call becomes
    /// metrics: per-stage latency histograms (`tscout_trace_stage_ns{stage}`;
    /// the TraceId behind each stage's worst visit is
    /// `ts_stat_pipeline.exemplar_trace_id`), outcome counters and the
    /// critical-path counter. The tracer's own started/dropped/evicted
    /// counts are then synced into registry counters, all three
    /// registered from the first call on.
    pub(crate) fn trace_settle(&mut self) {
        for c in self.tracer.take_pending() {
            self.at(&decls::TRACES_COMPLETED, &[("outcome", c.outcome.name())])
                .inc();
            if let Some(s) = c.critical {
                self.at(&decls::TRACE_CRITICAL_STAGE, &[("stage", s.name())])
                    .inc();
            }
            for (stage, dur) in c.stage_durs {
                self.at(&decls::TRACE_STAGE_NS, &[("stage", stage.name())])
                    .record(dur);
            }
        }
        let st = self.tracer.stats();
        for (decl, v) in [
            (&decls::TRACES_STARTED, st.started),
            (&decls::TRACES_DROPPED, st.dropped),
            (&decls::TRACE_RING_EVICTED, st.ring_evicted),
        ] {
            let counter = self.at(decl, &[]);
            counter.add(v.saturating_sub(counter.get()));
        }
    }

    /// The flight recorder's arming state (see [`Registry::flight_record`]).
    pub fn flight_recorder(&self) -> &FlightRecorderArm {
        &self.flightrec
    }

    pub fn flight_recorder_mut(&mut self) -> &mut FlightRecorderArm {
        &mut self.flightrec
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
    /// [`crate::tables::all_tables_json`]; `ts_metrics` is the full
    /// metric snapshot) and the active (folded) profile.
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
             \"trigger\": {trigger},\n  \"tables\": {},\n  \
             \"profile_folded\": \"{}\"\n}}\n",
            json_num(now_ns),
            json_escape(&self.flightrec.fig),
            self.flightrec.seq,
            crate::tables::all_tables_json(self).trim_end(),
            json_escape(profile_folded),
        );
        std::fs::create_dir_all(&dir).ok();
        if std::fs::write(&path, bundle).is_err() {
            return None;
        }
        self.at(&decls::FLIGHTREC_BUNDLES, &[]).inc();
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
        self.at(&decls::DRIFT_EVALUATIONS, &[]).inc();
        for s in scores {
            let ou = s.ou.as_str();
            self.at(&decls::DRIFT_SCORE, &[("ou", ou)])
                .set(s.drift_score);
            for (channel, psi, ks) in [
                ("target", s.psi_target, s.ks_target),
                ("feature", s.psi_feature, s.ks_feature),
            ] {
                let labels = [("channel", channel), ("ou", ou)];
                self.at(&decls::DRIFT_PSI, &labels).set(psi);
                self.at(&decls::DRIFT_KS, &labels).set(ks);
            }
            if s.residual_mape_pct > 0.0 || self.drift.ou(ou).is_some_and(|d| d.residual_points > 0)
            {
                self.at(&decls::RESIDUAL_MAPE_PCT, &[("ou", ou)])
                    .set(s.residual_mape_pct);
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
            self.at(&decls::DRIFT_SCORE, &[("ou", ou)]).set(0.0);
            for channel in ["target", "feature"] {
                let labels = [("channel", channel), ("ou", ou.as_str())];
                self.at(&decls::DRIFT_PSI, &labels).set(0.0);
                self.at(&decls::DRIFT_KS, &labels).set(0.0);
            }
        }
        self.at(&decls::DRIFT_REBASELINES, &[]).inc();
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
            let decl = if t.fired() {
                &decls::ALERTS_FIRED
            } else {
                &decls::ALERTS_RECOVERED
            };
            let labels = [
                ("rule", t.rule.as_str()),
                ("subsystem", t.subsystem.as_str()),
            ];
            self.at(decl, &labels).inc();
        }
        for (subsystem, state) in self.health.subsystem_states() {
            self.at(&decls::HEALTH_STATE, &[("subsystem", subsystem.as_str())])
                .set(state.as_f64());
        }
        transitions
    }

    /// One combined observability turn, in dependency order: score drift
    /// (updates gauges), scrape the counters (the latest two scrapes give the
    /// rates health rules read), then run the health rules.
    pub fn observability_tick(&mut self, now_ns: f64) -> Vec<Alert> {
        self.drift_evaluate();
        self.scrape_window(now_ns);
        self.health_tick(now_ns)
    }

    /// The text exposition of this registry alone: one [`Exposition`]
    /// capture and render (the format is described there).
    pub fn to_prometheus(&self) -> String {
        let mut exposition = Exposition::default();
        exposition.capture(self);
        let mut out = String::new();
        exposition.render(&mut out);
        out
    }

    /// Every series as one `ts_metrics` row `(name, labels, kind, value,
    /// count, sum, p50, p95, p99)`: counters, gauges, then histograms,
    /// each in `(name, labels)` order — the order of the exposition.
    /// `labels` is the rendered `{k="v",...}` block (empty without
    /// labels), so `name || labels` is the series as `/metrics` spells it.
    pub(crate) fn metric_rows(&self) -> Vec<Vec<Col>> {
        fn row(
            name: &str,
            labels: &Labels,
            kind: &'static str,
            value: Col,
            summary: [Col; 5],
        ) -> Vec<Col> {
            let mut rendered = String::new();
            write_series(&mut rendered, "", "", labels, None);
            let mut row = vec![
                Col::Text(name.to_owned().into()),
                Col::Text(rendered.into()),
                Col::Text(kind.into()),
                value,
            ];
            row.extend(summary);
            row
        }
        const NO_SUMMARY: [Col; 5] = [Col::Null, Col::Null, Col::Null, Col::Null, Col::Null];
        let counters = self.counters.iter().map(|(name, labels, c)| {
            let value = Col::Float(c.get() as f64);
            row(name, labels, Counter::KIND, value, NO_SUMMARY)
        });
        let gauges = self.gauges.iter().map(|(name, labels, g)| {
            row(name, labels, Gauge::KIND, Col::Float(g.get()), NO_SUMMARY)
        });
        let histograms = self.histograms.iter().map(|(name, labels, h)| {
            let s = h.load().snapshot();
            let summary = [
                Col::Int(s.count as i64),
                Col::Float(s.sum),
                Col::Float(s.p50),
                Col::Float(s.p95),
                Col::Float(s.p99),
            ];
            row(name, labels, Hist::KIND, Col::Null, summary)
        });
        counters.chain(gauges).chain(histograms).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_labels_are_order_insensitive_and_summed_by_one_label() {
        let mut r = Registry::new();
        r.counter("m", &[("a", "1"), ("b", "2")]).inc();
        r.counter("m", &[("b", "2"), ("a", "1")]).inc();
        r.counter("m", &[("a", "1"), ("b", "3")]).add(5);
        r.counter("m", &[("a", "2")]).add(100);
        assert_eq!(r.len(), 3);
        assert_eq!(r.counter_value("m", &[("b", "2"), ("a", "1")]), 2);
        assert_eq!(r.counter_sum_where("m", "a", "1"), 7);
        assert_eq!(r.counter_sum_where("m", "b", "2"), 2);
        assert_eq!(r.counter_sum_where("m", "c", "1"), 0);
        assert_eq!(r.counter_sum_where("other", "a", "1"), 0);
        let family: Vec<_> = r.counter_family("m").map(|(l, n)| (l.len(), n)).collect();
        assert_eq!(family, [(2, 2), (2, 5), (1, 100)]);
    }

    #[test]
    fn prometheus_format_shape() {
        let mut r = Registry::new();
        r.counter("req_total", &[("code", "200")]).add(7);
        r.gauge("depth", &[]).set(2.5);
        r.hist("lat_ns", &[]).record(100.0);
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

    /// `parts` captured into one exposition and rendered together.
    fn merged_render(parts: &[&Registry]) -> String {
        let mut exposition = Exposition::default();
        for part in parts {
            exposition.capture(part);
        }
        let mut out = String::new();
        exposition.render(&mut out);
        out
    }

    #[test]
    fn every_family_has_help_and_type() {
        // Each exported family carries # HELP and # TYPE lines; a
        // declared metric's help is its declaration's, and travels with
        // the family through clone() and into a render merged with
        // another registry.
        let mut r = Registry::new();
        let fired = [("rule", "r"), ("subsystem", "data")];
        r.at(&decls::ALERTS_FIRED, &fired).add(3);
        r.at(&decls::HEALTH_STATE, &[("subsystem", "data")])
            .set(1.0);
        r.at(&decls::TRACE_STAGE_NS, &[("stage", "ring")])
            .record(5e4);
        r.counter("some_novel_counter_total", &[]).inc();
        for text in [
            r.to_prometheus(),
            r.clone().to_prometheus(),
            merged_render(&[&Registry::new(), &r]),
        ] {
            for (name, kind, help) in [
                decls::ALERTS_FIRED.row(),
                decls::HEALTH_STATE.row(),
                decls::TRACE_STAGE_NS.row(),
            ]
            .map(|d| (d.name, d.kind, d.help))
            .into_iter()
            .chain([("some_novel_counter_total", "counter", "(undocumented)")])
            {
                assert!(
                    text.contains(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n")),
                    "missing HELP/TYPE for {name}:\n{text}"
                );
            }
        }
        // A family first resolved by bare name is documented as soon as
        // its declaration resolves it.
        r.gauge(decls::DRIFT_SCORE.name, &[("ou", "a")]).set(0.5);
        assert!(r
            .to_prometheus()
            .contains("# HELP ts_drift_score (undocumented)"));
        r.at(&decls::DRIFT_SCORE, &[("ou", "b")]);
        assert!(!r
            .to_prometheus()
            .contains("(undocumented)\n# TYPE ts_drift"));
        // HELP/TYPE are emitted once per family, not per label set.
        r.at(
            &decls::ALERTS_FIRED,
            &[("rule", "q"), ("subsystem", "data")],
        )
        .inc();
        let text = r.to_prometheus();
        let headers = text
            .lines()
            .filter(|l| *l == "# TYPE alerts_fired_total counter")
            .count();
        assert_eq!(headers, 1, "one TYPE header per family:\n{text}");
    }

    #[test]
    fn counters_are_normalized_to_total_suffix() {
        // Satellite regression: a counter registered without the
        // conventional suffix is exposed with `_total` appended.
        let mut r = Registry::new();
        r.counter("odd_counter", &[("k", "v")]).add(4);
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
        r.counter("fine_total", &[]).inc();
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
            r.hist("lat_ns", &[("op", "read")]).record(v);
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
    fn scrape_builds_timeseries_windows() {
        let mut r = Registry::new();
        r.counter("d", &[("sub", "ee")]).add(5);
        r.scrape_window(1_000.0);
        r.counter("d", &[("sub", "ee")]).add(7);
        r.counter("d", &[("sub", "net")]).add(2);
        r.scrape_window(2_000.0);
        assert_eq!(r.timeseries().len(), 2);
        assert_eq!(r.timeseries().total_in_window("d", 0), 5);
        assert_eq!(r.timeseries().total_in_window("d", 1), 14);
        assert_eq!(r.timeseries().latest_rate_per_sec("d"), Some(9e6));
    }

    #[test]
    fn label_values_are_escaped_in_exposition() {
        // Regression: newline in a label value used to split the
        // exposition line in two (backslash and quote were already
        // escaped, line feed was not).
        let mut r = Registry::new();
        r.counter("weird_total", &[("q", "a\\b\"c\nd")]).inc();
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
    fn stmt_record_syncs_metrics() {
        static OUS: [&str; 1] = ["seq_scan"];
        let mut r = Registry::new();
        let id = StmtId::intern("select ?");
        r.stmt_record(id, 100.0, 1, OuNs::new(&OUS, &[(0, 80.0)]), None);
        r.stmt_record(id, 200.0, 1, OuNs::new(&OUS, &[(0, 150.0)]), Some(140.0));
        assert_eq!(r.counter_value("db_stmt_recorded_total", &[]), 2);
        // The eviction counter registers at zero from the first record.
        assert_eq!(r.counter_value("db_stmt_evicted_total", &[]), 0);
        assert!(r.counters.get("db_stmt_evicted_total", &[]).is_some());
        assert_eq!(r.gauge_value("db_stmt_fingerprints", &[]), 1.0);
        let e = r.stmts().get("select ?").unwrap();
        assert_eq!(e.calls, 2);
    }

    /// The statement series are held per registry: a snapshot put in
    /// the registry's place counts on in its own cells, the registry it
    /// replaced stays where it was, and a reset registers them afresh.
    #[test]
    fn stmt_series_follow_a_replaced_registry() {
        let (a, b) = (StmtId::intern("select a"), StmtId::intern("select b"));
        let mut r = Registry::new();
        r.stmts = StmtStats::new(1);
        r.stmt_record(a, 1.0, 0, OuNs::new(&[], &[]), None);
        let before = r.counter("db_stmt_recorded_total", &[]);
        r = r.clone();
        r.stmt_record(b, 1.0, 0, OuNs::new(&[], &[]), None);
        assert_eq!(before.get(), 1);
        assert_eq!(r.counter_value("db_stmt_recorded_total", &[]), 2);
        assert_eq!(r.counter_value("db_stmt_evicted_total", &[]), 1);
        assert_eq!(r.gauge_value("db_stmt_fingerprints", &[]), 1.0);
        r = Registry::new();
        r.stmt_record(a, 1.0, 0, OuNs::new(&[], &[]), None);
        assert_eq!(r.counter_value("db_stmt_recorded_total", &[]), 1);
        assert_eq!(r.counter_value("db_stmt_evicted_total", &[]), 0);
    }

    #[test]
    fn a_merged_render_interleaves_both_registries_by_name() {
        // Two registries rendered as one exposition: every family of
        // both appears once, each kind in name order across the two,
        // with its help and both its header lines.
        let mut a = Registry::new();
        let mut b = Registry::new();
        a.counter("c_a", &[]).inc();
        b.at(&decls::ALERTS_FIRED, &[("rule", "r")]).add(2);
        a.gauge("hwm", &[]).set(5.0);
        b.gauge("depth", &[]).set(3.0);
        b.hist("h", &[]).record(10.0);
        a.at(&decls::TRACE_STAGE_NS, &[("stage", "ring")])
            .record(5e4);
        b.observe_ou_sample("OuX", "s", 1.0, 1.0);
        b.stmt_record(StmtId::intern("q1"), 10.0, 0, OuNs::new(&[], &[]), None);
        let text = merged_render(&[&a, &b]);
        let headers: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .collect();
        assert_eq!(
            headers,
            [
                "alerts_fired_total counter",
                "c_a_total counter",
                "db_stmt_evicted_total counter",
                "db_stmt_recorded_total counter",
                "db_stmt_fingerprints gauge",
                "depth gauge",
                "hwm gauge",
                "h histogram",
                "tscout_trace_stage_ns histogram",
            ]
        );
        for (name, help) in [
            (decls::ALERTS_FIRED.name, decls::ALERTS_FIRED.help),
            (decls::TRACE_STAGE_NS.name, decls::TRACE_STAGE_NS.help),
            ("hwm", "(undocumented)"),
        ] {
            let kind = text
                .lines()
                .find_map(|l| l.strip_prefix(&format!("# TYPE {name} ")));
            let kind = kind.unwrap_or_else(|| panic!("no TYPE for {name}:\n{text}"));
            assert!(
                text.contains(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n")),
                "{name}:\n{text}"
            );
        }
        assert!(text.contains("c_a_total 1\n") && text.contains("h_count 1\n"));
    }
}
