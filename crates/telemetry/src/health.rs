//! Declarative health rules with hysteresis over the metric registry.
//!
//! A [`Rule`] watches one signal — a gauge (optionally fanned out per
//! label value, e.g. one target per OU) or a counter's rate over the
//! latest scrape window — against warn/crit thresholds. Each
//! (rule, target) pair runs a small hysteresis state machine through
//! OK → DEGRADED → CRITICAL:
//!
//! - the state *raises* (possibly jumping straight to CRITICAL) only
//!   after [`Rule::raise_ticks`] consecutive evaluations above the
//!   current state's band, and
//! - *clears* one level at a time after [`Rule::clear_ticks`]
//!   consecutive evaluations below it,
//!
//! so a single noisy window neither fires nor silences an alert. Every
//! upward transition is an *alert* (recorded in a capped ring and
//! counted by the caller into `alerts_fired_total`); downward
//! transitions are recorded as recoveries. A subsystem's health is the
//! worst state across its rules' targets.
//!
//! The engine is deliberately passive: it never reads the registry
//! itself. The registry resolves each rule's signal values and calls
//! [`HealthEngine::tick`], which keeps borrow flow simple and makes the
//! engine trivially testable.

use std::collections::{BTreeMap, VecDeque};

use crate::decls;

/// Alerts retained for `ts_alerts` (oldest evicted beyond this).
pub const ALERT_CAPACITY: usize = 256;

/// Subsystem / target health, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum HealthState {
    #[default]
    Ok,
    Degraded,
    Critical,
}

impl HealthState {
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Ok => "OK",
            HealthState::Degraded => "DEGRADED",
            HealthState::Critical => "CRITICAL",
        }
    }

    /// Numeric encoding for gauges: OK=0, DEGRADED=1, CRITICAL=2.
    pub fn as_f64(self) -> f64 {
        match self {
            HealthState::Ok => 0.0,
            HealthState::Degraded => 1.0,
            HealthState::Critical => 2.0,
        }
    }

    fn step_down(self) -> HealthState {
        match self {
            HealthState::Critical => HealthState::Degraded,
            _ => HealthState::Ok,
        }
    }
}

/// What a rule watches.
#[derive(Debug, Clone)]
pub enum Selector {
    /// The named gauge's current value.
    Gauge(String),
    /// The named counter's events-per-virtual-second rate over the
    /// latest scrape window (summed across label sets).
    CounterRate(String),
}

/// One declarative alert rule.
#[derive(Debug, Clone)]
pub struct Rule {
    pub name: String,
    /// Subsystem this rule's state rolls up into.
    pub subsystem: String,
    pub selector: Selector,
    /// For gauge selectors: fan out one hysteresis target per distinct
    /// value of this label (e.g. `Some("ou")` → one state per OU).
    /// `None` aggregates all label sets (max) into a single target.
    pub per_label: Option<String>,
    /// Value ≥ warn → DEGRADED band; ≥ crit → CRITICAL band.
    pub warn: f64,
    pub crit: f64,
    /// Consecutive above-band evaluations before the state raises.
    pub raise_ticks: u32,
    /// Consecutive below-band evaluations before it steps down a level.
    pub clear_ticks: u32,
}

impl Rule {
    fn band(&self, v: f64) -> HealthState {
        if v >= self.crit {
            HealthState::Critical
        } else if v >= self.warn {
            HealthState::Degraded
        } else {
            HealthState::Ok
        }
    }
}

/// One recorded state transition.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Monotonic id (also the lifetime transition count).
    pub seq: u64,
    pub at_ns: f64,
    pub rule: String,
    pub subsystem: String,
    /// Fan-out target ("" for aggregate rules).
    pub target: String,
    pub from: HealthState,
    pub to: HealthState,
    /// Signal value that drove the transition.
    pub value: f64,
    /// The threshold of the band entered (warn for DEGRADED/recovery,
    /// crit for CRITICAL).
    pub threshold: f64,
}

impl Alert {
    /// True for upward (alerting) transitions, false for recoveries.
    pub fn fired(&self) -> bool {
        self.to > self.from
    }
}

/// One gauge reading: the label set carrying it, with its value.
pub(crate) type LabeledGauge = (Vec<(String, String)>, f64);

/// Signal values the registry resolved for one tick.
#[derive(Debug, Clone, Default)]
pub struct Signals {
    /// Gauge name → every label set carrying it, with its value.
    pub gauges: BTreeMap<String, Vec<LabeledGauge>>,
    /// Counter name → events per virtual second over the latest window.
    pub rates: BTreeMap<String, f64>,
}

#[derive(Debug, Clone, Copy, Default)]
struct TargetState {
    state: HealthState,
    breach_streak: u32,
    clear_streak: u32,
}

/// The rule engine: rules, per-(rule, target) hysteresis state, and the
/// alert ring.
#[derive(Debug, Clone)]
pub struct HealthEngine {
    rules: Vec<Rule>,
    states: BTreeMap<(String, String), TargetState>,
    alerts: VecDeque<Alert>,
    alerts_dropped: u64,
    seq: u64,
    fired_total: u64,
    fired_by_subsystem: BTreeMap<String, u64>,
}

impl Default for HealthEngine {
    fn default() -> Self {
        let mut e = HealthEngine::empty();
        for r in default_rules() {
            e.add_rule(r);
        }
        e
    }
}

/// The stock rule set wired into every registry: data drift per OU,
/// live-model residual error per OU, sample loss, and decode errors.
/// Thresholds follow the conventional PSI bands (0.25 significant) and
/// the loss rates at which the Fig. 6 overload regime operates.
pub fn default_rules() -> Vec<Rule> {
    vec![
        Rule {
            name: "ou_drift".into(),
            subsystem: "data".into(),
            selector: Selector::Gauge(decls::DRIFT_SCORE.name.into()),
            per_label: Some("ou".into()),
            warn: 0.25,
            crit: 0.5,
            raise_ticks: 1,
            clear_ticks: 2,
        },
        Rule {
            name: "model_residual".into(),
            subsystem: "models".into(),
            selector: Selector::Gauge(decls::RESIDUAL_MAPE_PCT.name.into()),
            per_label: Some("ou".into()),
            warn: 50.0,
            crit: 100.0,
            raise_ticks: 2,
            clear_ticks: 2,
        },
        Rule {
            name: "sample_loss".into(),
            subsystem: "collector".into(),
            selector: Selector::CounterRate(decls::OU_SAMPLES_LOST.name.into()),
            per_label: None,
            warn: 5_000.0,
            crit: 50_000.0,
            raise_ticks: 2,
            clear_ticks: 2,
        },
        Rule {
            name: "decode_errors".into(),
            subsystem: "processor".into(),
            selector: Selector::CounterRate(decls::PROCESSOR_DECODE_ERRORS.name.into()),
            per_label: None,
            warn: 1.0,
            crit: 100.0,
            raise_ticks: 1,
            clear_ticks: 2,
        },
    ]
}

impl HealthEngine {
    /// An engine with no rules (tests, custom setups).
    pub fn empty() -> Self {
        HealthEngine {
            rules: Vec::new(),
            states: BTreeMap::new(),
            alerts: VecDeque::new(),
            alerts_dropped: 0,
            seq: 0,
            fired_total: 0,
            fired_by_subsystem: BTreeMap::new(),
        }
    }

    pub fn add_rule(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Recorded transitions, oldest first (capped at [`ALERT_CAPACITY`]).
    pub fn alerts(&self) -> impl Iterator<Item = &Alert> {
        self.alerts.iter()
    }

    pub fn alerts_dropped(&self) -> u64 {
        self.alerts_dropped
    }

    /// Lifetime count of upward (alerting) transitions.
    pub fn fired_total(&self) -> u64 {
        self.fired_total
    }

    pub fn fired_for_subsystem(&self, subsystem: &str) -> u64 {
        self.fired_by_subsystem.get(subsystem).copied().unwrap_or(0)
    }

    /// Worst state across every rule targeting `target` (e.g. an OU
    /// name). OK when nothing tracks it.
    pub fn state_for_target(&self, target: &str) -> HealthState {
        self.states
            .iter()
            .filter(|((_, t), _)| t == target)
            .map(|(_, s)| s.state)
            .max()
            .unwrap_or(HealthState::Ok)
    }

    /// Every subsystem with at least one rule, mapped to its worst
    /// current state.
    pub fn subsystem_states(&self) -> BTreeMap<String, HealthState> {
        let mut out: BTreeMap<String, HealthState> = BTreeMap::new();
        for r in &self.rules {
            out.entry(r.subsystem.clone()).or_default();
        }
        for ((rule_name, _), st) in &self.states {
            if let Some(r) = self.rules.iter().find(|r| &r.name == rule_name) {
                let e = out.entry(r.subsystem.clone()).or_default();
                *e = (*e).max(st.state);
            }
        }
        out
    }

    pub fn rules_for_subsystem(&self, subsystem: &str) -> usize {
        self.rules
            .iter()
            .filter(|r| r.subsystem == subsystem)
            .count()
    }

    /// Evaluate every rule against the resolved signals. Absent signals
    /// (a gauge never set, a rate with no window yet) are skipped —
    /// they neither advance nor reset hysteresis streaks. Returns this
    /// tick's transitions, upward ones flagged via [`Alert::fired`].
    pub fn tick(&mut self, now_ns: f64, signals: &Signals) -> Vec<Alert> {
        let mut transitions = Vec::new();
        // Rules are evaluated against resolved (target, value) pairs.
        let mut work: Vec<(usize, String, f64)> = Vec::new();
        for (ri, rule) in self.rules.iter().enumerate() {
            match &rule.selector {
                Selector::Gauge(name) => {
                    let Some(series) = signals.gauges.get(name) else {
                        continue;
                    };
                    match &rule.per_label {
                        Some(label) => {
                            // One target per distinct label value; max
                            // wins if several series share it.
                            let mut by_target: BTreeMap<&str, f64> = BTreeMap::new();
                            for (labels, v) in series {
                                if let Some((_, t)) = labels.iter().find(|(k, _)| k == label) {
                                    let e = by_target.entry(t).or_insert(f64::NEG_INFINITY);
                                    *e = e.max(*v);
                                }
                            }
                            for (t, v) in by_target {
                                work.push((ri, t.to_string(), v));
                            }
                        }
                        None => {
                            let v = series
                                .iter()
                                .map(|(_, v)| *v)
                                .fold(f64::NEG_INFINITY, f64::max);
                            if v.is_finite() {
                                work.push((ri, String::new(), v));
                            }
                        }
                    }
                }
                Selector::CounterRate(name) => {
                    if let Some(&v) = signals.rates.get(name) {
                        work.push((ri, String::new(), v));
                    }
                }
            }
        }
        for (ri, target, value) in work {
            let rule = self.rules[ri].clone();
            let band = rule.band(value);
            let key = (rule.name.clone(), target);
            // Run the hysteresis machine; borrow of `states` ends before
            // the alert is recorded.
            let moved: Option<(HealthState, HealthState, f64)> = {
                let st = self.states.entry(key.clone()).or_default();
                if band > st.state {
                    st.breach_streak += 1;
                    st.clear_streak = 0;
                    if st.breach_streak >= rule.raise_ticks {
                        let from = st.state;
                        st.state = band;
                        st.breach_streak = 0;
                        let threshold = if band == HealthState::Critical {
                            rule.crit
                        } else {
                            rule.warn
                        };
                        Some((from, band, threshold))
                    } else {
                        None
                    }
                } else if band < st.state {
                    st.clear_streak += 1;
                    st.breach_streak = 0;
                    if st.clear_streak >= rule.clear_ticks {
                        let from = st.state;
                        st.state = from.step_down();
                        st.clear_streak = 0;
                        Some((from, st.state, rule.warn))
                    } else {
                        None
                    }
                } else {
                    st.breach_streak = 0;
                    st.clear_streak = 0;
                    None
                }
            };
            if let Some((from, to, threshold)) = moved {
                transitions.push(self.record(Alert {
                    seq: 0, // assigned in record()
                    at_ns: now_ns,
                    rule: key.0,
                    subsystem: rule.subsystem.clone(),
                    target: key.1,
                    from,
                    to,
                    value,
                    threshold,
                }));
            }
        }
        transitions
    }

    fn record(&mut self, mut alert: Alert) -> Alert {
        alert.seq = self.seq;
        self.seq += 1;
        if alert.fired() {
            self.fired_total += 1;
            *self
                .fired_by_subsystem
                .entry(alert.subsystem.clone())
                .or_insert(0) += 1;
        }
        if self.alerts.len() == ALERT_CAPACITY {
            self.alerts.pop_front();
            self.alerts_dropped += 1;
        }
        self.alerts.push_back(alert.clone());
        alert
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gauge_rule(raise: u32, clear: u32) -> Rule {
        Rule {
            name: "r".into(),
            subsystem: "sub".into(),
            selector: Selector::Gauge("g".into()),
            per_label: Some("ou".into()),
            warn: 1.0,
            crit: 2.0,
            raise_ticks: raise,
            clear_ticks: clear,
        }
    }

    fn sig(pairs: &[(&str, f64)]) -> Signals {
        let mut s = Signals::default();
        s.gauges.insert(
            "g".into(),
            pairs
                .iter()
                .map(|(t, v)| (vec![("ou".to_string(), t.to_string())], *v))
                .collect(),
        );
        s
    }

    #[test]
    fn raise_needs_consecutive_breaches() {
        let mut e = HealthEngine::empty();
        e.add_rule(gauge_rule(2, 1));
        assert!(e.tick(1.0, &sig(&[("scan", 1.5)])).is_empty());
        // A clean tick resets the streak.
        assert!(e.tick(2.0, &sig(&[("scan", 0.0)])).is_empty());
        assert!(e.tick(3.0, &sig(&[("scan", 1.5)])).is_empty());
        let t = e.tick(4.0, &sig(&[("scan", 1.5)]));
        assert_eq!(t.len(), 1);
        assert!(t[0].fired());
        assert_eq!(t[0].to, HealthState::Degraded);
        assert_eq!(e.state_for_target("scan"), HealthState::Degraded);
        assert_eq!(e.fired_total(), 1);
        assert_eq!(e.fired_for_subsystem("sub"), 1);
    }

    #[test]
    fn jumps_straight_to_critical_and_steps_down_one_level() {
        let mut e = HealthEngine::empty();
        e.add_rule(gauge_rule(1, 2));
        let t = e.tick(1.0, &sig(&[("scan", 9.0)]));
        assert_eq!(t[0].to, HealthState::Critical);
        assert_eq!(t[0].from, HealthState::Ok);
        assert_eq!(t[0].threshold, 2.0);
        // Two clean ticks step down exactly one level per clear window.
        assert!(e.tick(2.0, &sig(&[("scan", 0.0)])).is_empty());
        let t = e.tick(3.0, &sig(&[("scan", 0.0)]));
        assert_eq!(t[0].to, HealthState::Degraded);
        assert!(!t[0].fired());
        assert!(e.tick(4.0, &sig(&[("scan", 0.0)])).is_empty());
        let t = e.tick(5.0, &sig(&[("scan", 0.0)]));
        assert_eq!(t[0].to, HealthState::Ok);
        assert_eq!(e.state_for_target("scan"), HealthState::Ok);
        // Only the initial raise counted as fired.
        assert_eq!(e.fired_total(), 1);
    }

    #[test]
    fn per_label_targets_are_independent() {
        let mut e = HealthEngine::empty();
        e.add_rule(gauge_rule(1, 1));
        e.tick(1.0, &sig(&[("scan", 1.5), ("probe", 0.1)]));
        assert_eq!(e.state_for_target("scan"), HealthState::Degraded);
        assert_eq!(e.state_for_target("probe"), HealthState::Ok);
        let states = e.subsystem_states();
        assert_eq!(states["sub"], HealthState::Degraded);
    }

    #[test]
    fn absent_signals_do_not_touch_streaks() {
        let mut e = HealthEngine::empty();
        e.add_rule(gauge_rule(2, 1));
        e.tick(1.0, &sig(&[("scan", 1.5)]));
        // Gauge disappears for a tick: streak must survive.
        e.tick(2.0, &Signals::default());
        let t = e.tick(3.0, &sig(&[("scan", 1.5)]));
        assert_eq!(t.len(), 1, "streak survived the gap");
    }

    #[test]
    fn counter_rate_rules_use_aggregate_rate() {
        let mut e = HealthEngine::empty();
        e.add_rule(Rule {
            name: "loss".into(),
            subsystem: "collector".into(),
            selector: Selector::CounterRate("lost_total".into()),
            per_label: None,
            warn: 100.0,
            crit: 1_000.0,
            raise_ticks: 1,
            clear_ticks: 1,
        });
        let mut s = Signals::default();
        s.rates.insert("lost_total".into(), 500.0);
        let t = e.tick(1.0, &s);
        assert_eq!(t[0].to, HealthState::Degraded);
        assert_eq!(t[0].target, "");
        assert_eq!(e.subsystem_states()["collector"], HealthState::Degraded);
    }

    #[test]
    fn alert_ring_caps_and_counts_drops() {
        let mut e = HealthEngine::empty();
        e.add_rule(gauge_rule(1, 1));
        for i in 0..(ALERT_CAPACITY as u64 + 10) {
            // Alternate breach/clear so every tick transitions.
            let v = if i % 2 == 0 { 1.5 } else { 0.0 };
            e.tick(i as f64, &sig(&[("scan", v)]));
        }
        assert_eq!(e.alerts().count(), ALERT_CAPACITY);
        assert!(e.alerts_dropped() > 0);
        // Seq stays monotonic across eviction.
        let seqs: Vec<u64> = e.alerts().map(|a| a.seq).collect();
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1));
    }

    #[test]
    fn default_rules_cover_the_documented_subsystems() {
        let e = HealthEngine::default();
        let states = e.subsystem_states();
        for sub in ["data", "models", "collector", "processor"] {
            assert_eq!(states[sub], HealthState::Ok, "{sub}");
        }
        assert_eq!(e.rules_for_subsystem("data"), 1);
    }
}
