//! The autonomous action engine: the piece that closes the self-driving
//! loop the paper's collection pipeline exists to feed.
//!
//! Eight layers of this reproduction collect, archive, train, trace,
//! and alert — but none of them *act*. [`ActionEngine`] does: on every
//! pump tick it evaluates a fixed, ordered policy set over signals the
//! system already publishes (per-OU model predictions via the
//! generation-counted registry, drift/health state, the profiler's
//! tscout/dbms overhead ratio, archive pressure) and emits typed
//! actions through the [`DbmsActuator`] trait.
//!
//! **Policy evaluation order** (documented in DESIGN.md §2.13; fixed so
//! runs are reproducible and policies can assume their predecessors ran
//! first this tick):
//!
//! 1. `retrain_on_drift` — data health CRITICAL triggers a model
//!    retrain (and, on an accepted swap, a drift-reference rebaseline).
//! 2. `overhead_budget` — the tscout/dbms ratio above budget halves the
//!    hottest subsystem's sampling rate; back under the restore
//!    watermark, rates climb back toward their baselines.
//! 3. `loss_backoff` — per-subsystem loss feedback (the Processor's
//!    [`recommended_rates`] hook) lowers exactly the losing subsystem.
//! 4. `archive_pressure` — too many on-disk segments schedules a
//!    compaction; an overhead breach *deprioritizes* (holds) it.
//! 5. `pipeline_mode` — mean predicted execution-OU cost toggles fused
//!    vs per-operator collection pipelines.
//!
//! **Every action carries a prediction**: the metric it expects to
//! move, the value now, and the value expected after a configurable
//! observation window. The follow-up re-reads the metric, computes the
//! prediction error, flags regressions (metric moved the wrong way
//! beyond tolerance), and the outcome becomes an *action-efficacy*
//! sample ([`EfficacyOutcome::to_sample`]) in the training archive plus
//! a closed `ts_actions` row.
//!
//! **Guardrails are first-class**, evaluated in this order per
//! candidate: one in-flight action per (kind, target); a per-
//! (kind, target) rate limit; direction-reversal hysteresis so the
//! engine never flip-flops against the health engine's own hysteresis.
//! A dry-run mode that plans and follows up but never actuates sits
//! above all policies; an engine that should not act is not built.
//! Planner cost is charged to the virtual clock by the driver
//! (`action_plan_ns` / `action_followup_ns`, on the Processor's task)
//! so collected samples stay bit-identical with the engine on or off.
//!
//! [`recommended_rates`]: PlannerInputs::rates
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod decls;

use std::collections::BTreeMap;

use tscout_archive::Sample;
use tscout_telemetry::decls::{ARCHIVE_SEGMENTS, HEALTH_STATE, SAMPLES_LOST};
use tscout_telemetry::{
    ActionRecord, ActionState, CounterSite, CounterVec, Gauge, GaugeSite, SiteVec, Telemetry,
};

/// Number of policies one planning pass evaluates (drives the driver's
/// `action_plan_ns` charge).
pub const POLICY_COUNT: usize = 5;

/// Reserved OU id for action-efficacy samples in the archive.
pub const EFFICACY_OU: u16 = 0xFFFE;
/// OU family name efficacy samples are archived under.
pub const EFFICACY_OU_NAME: &str = "action_efficacy";

/// The action kinds the engine can plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionKind {
    AdjustSamplingRate,
    TriggerRetrain,
    ScheduleCompaction,
    DeprioritizeCompaction,
    TogglePipeline,
}

/// All kinds, for metric pre-declaration.
pub const ALL_KINDS: [ActionKind; 5] = [
    ActionKind::AdjustSamplingRate,
    ActionKind::TriggerRetrain,
    ActionKind::ScheduleCompaction,
    ActionKind::DeprioritizeCompaction,
    ActionKind::TogglePipeline,
];

impl ActionKind {
    pub fn name(self) -> &'static str {
        match self {
            ActionKind::AdjustSamplingRate => "adjust_sampling_rate",
            ActionKind::TriggerRetrain => "trigger_retrain",
            ActionKind::ScheduleCompaction => "schedule_compaction",
            ActionKind::DeprioritizeCompaction => "deprioritize_compaction",
            ActionKind::TogglePipeline => "toggle_pipeline",
        }
    }

    /// Stable numeric code, the first efficacy-sample feature.
    pub fn code(self) -> u16 {
        match self {
            ActionKind::AdjustSamplingRate => 1,
            ActionKind::TriggerRetrain => 2,
            ActionKind::ScheduleCompaction => 3,
            ActionKind::DeprioritizeCompaction => 4,
            ActionKind::TogglePipeline => 5,
        }
    }
}

/// A typed command the engine hands to the actuator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActionCommand {
    SetSamplingRate { subsystem: String, rate: u8 },
    TriggerRetrain,
    ScheduleCompaction,
    HoldCompaction { hold: bool },
    SetPipelineMode { fused: bool },
}

/// What the engine can do to the DBMS. The driver implements this over
/// the live collector / lifecycle / engine-mode handles; tests plug in
/// recording fakes.
pub trait DbmsActuator {
    fn set_sampling_rate(&mut self, subsystem: &str, rate: u8);
    fn trigger_retrain(&mut self);
    fn schedule_compaction(&mut self);
    fn hold_compaction(&mut self, hold: bool);
    fn set_pipeline_mode(&mut self, fused: bool);
}

/// The metric a prediction names, re-read at follow-up time.
#[derive(Debug, Clone)]
pub enum Watch {
    /// A gauge's current value.
    Gauge {
        name: String,
        labels: Vec<(String, String)>,
    },
    /// Growth of a labeled counter family since plan time: the sum of
    /// all series whose `label_key` equals `label_value`, minus `base`.
    CounterSum {
        name: String,
        label_key: String,
        label_value: String,
        base: u64,
    },
}

impl Watch {
    /// Current value of the watched metric.
    pub fn read(&self, telemetry: &Telemetry) -> f64 {
        match self {
            Watch::Gauge { name, labels } => {
                let l: Vec<(&str, &str)> = labels
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect();
                telemetry.gauge_value(name, &l)
            }
            Watch::CounterSum {
                name,
                label_key,
                label_value,
                base,
            } => {
                let total =
                    telemetry.with_registry(|r| r.counter_sum_where(name, label_key, label_value));
                total.saturating_sub(*base) as f64
            }
        }
    }

    /// Rendered metric name for the action record.
    fn metric_name(&self) -> String {
        match self {
            Watch::Gauge { name, labels } => {
                if labels.is_empty() {
                    name.clone()
                } else {
                    let inner: Vec<String> =
                        labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
                    format!("{name}{{{}}}", inner.join(","))
                }
            }
            Watch::CounterSum {
                name,
                label_key,
                label_value,
                ..
            } => format!("delta({name}{{{label_key}=\"{label_value}\"}})"),
        }
    }
}

/// Engine configuration: dry-run, the observation window, guardrail
/// knobs, and the overhead budget.
#[derive(Debug, Clone)]
pub struct ActionConfig {
    /// Plan and follow up, but never call the actuator.
    pub dry_run: bool,
    /// Virtual ns between planning an action and observing its outcome.
    pub observation_window_ns: f64,
    /// Minimum virtual ns between two actions of the same (kind, target).
    pub min_interval_ns: f64,
    /// Minimum virtual ns before a direction-reversing action on the
    /// same target (anti-flip-flop, mirrors the health hysteresis).
    pub hysteresis_ns: f64,
    /// tscout/dbms ratio above which sampling rates are lowered.
    pub overhead_budget: f64,
}

/// tscout/dbms ratio below which lowered rates are restored toward
/// baseline (and a compaction hold is released).
const OVERHEAD_RESTORE: f64 = 0.03;
/// Floor for any rate the engine sets.
const MIN_RATE: u8 = 1;
/// `archive_segments` above which a compaction is scheduled.
const ARCHIVE_SEGMENTS_HI: f64 = 48.0;
/// Mean predicted execution-OU ns below which pipelines fuse.
const FUSE_BELOW_NS: f64 = 2_000.0;
/// Mean predicted execution-OU ns above which pipelines unfuse.
const UNFUSE_ABOVE_NS: f64 = 20_000.0;
/// Fractional tolerance before an observed move against the
/// prediction's direction counts as a regression.
const REGRESSION_TOLERANCE: f64 = 0.10;

impl Default for ActionConfig {
    fn default() -> Self {
        ActionConfig {
            dry_run: false,
            observation_window_ns: 40e6,
            min_interval_ns: 80e6,
            hysteresis_ns: 160e6,
            overhead_budget: 0.05,
        }
    }
}

/// Per-subsystem sampling state the driver feeds each tick.
#[derive(Debug, Clone)]
pub struct SubsystemRate {
    pub subsystem: String,
    /// Current sampling rate (0-255).
    pub current: u8,
    /// The Processor's per-subsystem loss-feedback recommendation
    /// (equals `current` when the subsystem saw no new losses).
    pub recommended: u8,
    /// New losses in that subsystem since the last tick.
    pub loss_delta: u64,
}

/// Everything one planning pass reads that does not live in telemetry
/// gauges (health / drift / archive state is read from the shared
/// registry directly).
#[derive(Debug, Clone, Default)]
pub struct PlannerInputs {
    pub now_ns: f64,
    /// Profiler-attributed tscout/dbms ratio (None until both sides
    /// have profile samples).
    pub overhead_ratio: Option<f64>,
    pub rates: Vec<SubsystemRate>,
    /// Mean live-model predicted cost of execution-engine OUs over the
    /// last retrain batch.
    pub predicted_exec_ou_ns: Option<f64>,
    /// Whether the collector currently runs fused pipelines.
    pub pipeline_fused: bool,
    /// Live model generation at plan time.
    pub model_generation: u64,
}

/// A closed follow-up: the predicted-vs-observed outcome of one action.
#[derive(Debug, Clone)]
pub struct EfficacyOutcome {
    pub id: u64,
    pub kind: ActionKind,
    pub target: String,
    pub planned_at_ns: f64,
    pub observed_at_ns: f64,
    pub value_before: f64,
    pub predicted: f64,
    pub observed: f64,
    /// `|observed - predicted| / max(|predicted|, 1) * 100`.
    pub err_pct: f64,
    /// The metric moved the wrong way beyond tolerance.
    pub regressed: bool,
    pub dry_run: bool,
    pub model_generation: u64,
}

impl EfficacyOutcome {
    /// Encode as an archive sample under the reserved
    /// [`EFFICACY_OU_NAME`] family, so the planner's own effect model
    /// can be retrained from its history. Fixed-point encodings (the
    /// archive's target and user metrics are integral ns):
    /// `elapsed_ns` carries the observed metric value in micro-units,
    /// `user_metrics[0]` the error in milli-percent.
    pub fn to_sample(&self) -> Sample {
        Sample {
            ou: EFFICACY_OU,
            ou_name: EFFICACY_OU_NAME.to_string(),
            subsystem: u8::MAX,
            tid: 0,
            template: 0,
            start_ns: self.planned_at_ns.max(0.0) as u64,
            elapsed_ns: (self.observed.max(0.0) * 1e6).round() as u64,
            metrics: vec![u64::from(self.regressed), u64::from(self.dry_run)],
            features: vec![
                f64::from(self.kind.code()),
                self.value_before,
                self.predicted,
                self.model_generation as f64,
            ],
            user_metrics: vec![(self.err_pct.max(0.0) * 1_000.0).round() as u64],
        }
    }
}

/// What one [`ActionEngine::tick`] did.
#[derive(Debug, Clone, Default)]
pub struct TickReport {
    /// Action-log ids planned this tick (actuated unless dry-run).
    pub planned: Vec<u64>,
    /// Commands actually handed to the actuator this tick.
    pub actuated: Vec<ActionCommand>,
    /// Candidates a guardrail suppressed this tick.
    pub suppressed: usize,
    /// Follow-ups that closed this tick.
    pub observed: Vec<EfficacyOutcome>,
}

/// Follow-up state for one planned action (the log holds the record of
/// truth; this is only what the engine needs to close it).
#[derive(Debug, Clone)]
struct Pending {
    id: u64,
    kind: ActionKind,
    target: String,
    watch: Watch,
    value_before: f64,
    predicted: f64,
    /// Observed above this bound ⇒ regression.
    regress_above: f64,
    planned_at_ns: f64,
    observe_at_ns: f64,
    dry_run: bool,
    model_generation: u64,
}

/// A candidate action a policy proposed this tick, before guardrails.
#[derive(Debug, Clone)]
struct Candidate {
    kind: ActionKind,
    policy: &'static str,
    target: String,
    detail: String,
    command: ActionCommand,
    watch: Watch,
    value_before: f64,
    predicted: f64,
    regress_above: f64,
    /// +1 raise/fuse, -1 lower/unfuse, 0 directionless — the
    /// hysteresis guardrail only applies to directional actions.
    direction: i8,
}

/// Guardrail outcomes: the `reason` label of
/// `tscout_action_suppressed_total`, in index order.
const SUPPRESS_REASONS: [&str; 4] = ["rate_limit", "in_flight", "hysteresis", "dry_run"];
const RATE_LIMIT: usize = 0;
const IN_FLIGHT: usize = 1;
const HYSTERESIS: usize = 2;
const DRY_RUN: usize = 3;

/// The engine's metrics (declared in [`decls`]). The per-kind families
/// are indexed by `ActionKind as usize`.
#[derive(Debug)]
struct ActionMetrics {
    planned: CounterVec,
    actuated: CounterVec,
    observed: CounterVec,
    regressed: CounterVec,
    efficacy_err_pct: SiteVec<Gauge>,
    /// Indexed like [`SUPPRESS_REASONS`].
    suppressed: CounterVec,
    log_dropped: CounterSite,
    pending: GaugeSite,
}

impl ActionMetrics {
    /// Every `tscout_action_*` series is registered (at zero) here, so a
    /// run that attaches an engine exports the full set even before any
    /// action fires.
    fn new(t: &Telemetry) -> Self {
        let mut m = ActionMetrics {
            planned: decls::PLANNED.vec("kind"),
            actuated: decls::ACTUATED.vec("kind"),
            observed: decls::OBSERVED.vec("kind"),
            regressed: decls::REGRESSED.vec("kind"),
            efficacy_err_pct: decls::EFFICACY_ERR_PCT.vec("kind"),
            suppressed: decls::SUPPRESSED.vec("reason"),
            log_dropped: decls::LOG_DROPPED.site(&[]),
            pending: decls::PENDING.site(&[]),
        };
        for kind in ALL_KINDS {
            for family in [
                &mut m.planned,
                &mut m.actuated,
                &mut m.observed,
                &mut m.regressed,
            ] {
                family.at(t, kind as usize, || kind.name());
            }
            m.efficacy_err_pct.at(t, kind as usize, || kind.name());
        }
        for (i, reason) in SUPPRESS_REASONS.iter().enumerate() {
            m.suppressed.at(t, i, || reason);
        }
        m.log_dropped.get(t);
        m.pending.get(t);
        m
    }
}

/// The planner/executor. One per driver run; ticked at pump cadence.
#[derive(Debug)]
pub struct ActionEngine {
    pub cfg: ActionConfig,
    telemetry: Telemetry,
    metrics: ActionMetrics,
    pending: Vec<Pending>,
    /// (kind name, target) → last planned_at_ns, for the rate limit.
    last_fire: BTreeMap<(String, String), f64>,
    /// target → (direction, at_ns) of the last directional action.
    last_move: BTreeMap<String, (i8, f64)>,
    /// First-seen rate per subsystem: the restore target.
    baseline_rates: BTreeMap<String, u8>,
    compaction_held: bool,
    /// Planning passes run.
    pub ticks: u64,
}

impl ActionEngine {
    /// Build an engine over the world's shared telemetry.
    pub fn new(cfg: ActionConfig, telemetry: Telemetry) -> Self {
        ActionEngine {
            cfg,
            metrics: ActionMetrics::new(&telemetry),
            telemetry,
            pending: Vec::new(),
            last_fire: BTreeMap::new(),
            last_move: BTreeMap::new(),
            baseline_rates: BTreeMap::new(),
            compaction_held: false,
            ticks: 0,
        }
    }

    /// Follow-ups whose observation window has closed (drives the
    /// driver's `action_followup_ns` charge before the tick runs).
    pub fn due_followups(&self, now_ns: f64) -> usize {
        self.pending
            .iter()
            .filter(|p| now_ns >= p.observe_at_ns)
            .count()
    }

    /// Whether the engine currently holds (deprioritizes) compaction.
    pub fn compaction_held(&self) -> bool {
        self.compaction_held
    }

    /// One planning pass: close due follow-ups, evaluate the policies
    /// in order, run guardrails, log + actuate survivors.
    pub fn tick(&mut self, inputs: &PlannerInputs, actuator: &mut dyn DbmsActuator) -> TickReport {
        let mut report = TickReport::default();
        self.ticks += 1;
        let now = inputs.now_ns;

        // Restore targets are the rates first seen for each subsystem.
        for r in &inputs.rates {
            self.baseline_rates
                .entry(r.subsystem.clone())
                .or_insert(r.current);
        }

        report.observed = self.close_due_followups(now);

        let candidates = self.plan(inputs);
        for c in candidates {
            self.admit(c, now, inputs.model_generation, actuator, &mut report);
        }
        self.metrics
            .pending
            .get(&self.telemetry)
            .set(self.pending.len() as f64);
        report
    }

    /// Re-read every due watch, compute the outcome, close the record.
    fn close_due_followups(&mut self, now: f64) -> Vec<EfficacyOutcome> {
        let mut outcomes = Vec::new();
        let mut still_pending = Vec::with_capacity(self.pending.len());
        for p in self.pending.drain(..) {
            if now < p.observe_at_ns {
                still_pending.push(p);
                continue;
            }
            let observed = p.watch.read(&self.telemetry);
            let err_pct = (observed - p.predicted).abs() / p.predicted.abs().max(1.0) * 100.0;
            let regressed = observed > p.regress_above;
            self.telemetry
                .action_observe(p.id, observed, now, err_pct, regressed);
            let (t, m, kind) = (&self.telemetry, &mut self.metrics, p.kind);
            m.observed.at(t, kind as usize, || kind.name()).inc();
            if regressed {
                m.regressed.at(t, kind as usize, || kind.name()).inc();
            }
            m.efficacy_err_pct
                .at(t, kind as usize, || kind.name())
                .set(err_pct);
            outcomes.push(EfficacyOutcome {
                id: p.id,
                kind: p.kind,
                target: p.target,
                planned_at_ns: p.planned_at_ns,
                observed_at_ns: now,
                value_before: p.value_before,
                predicted: p.predicted,
                observed,
                err_pct,
                regressed,
                dry_run: p.dry_run,
                model_generation: p.model_generation,
            });
        }
        self.pending = still_pending;
        outcomes
    }

    /// Evaluate the five policies in their fixed order.
    fn plan(&self, inputs: &PlannerInputs) -> Vec<Candidate> {
        let mut out = Vec::new();

        // 1. retrain_on_drift: data health CRITICAL ⇒ retrain. The
        //    prediction is full recovery (health back to OK) by the end
        //    of the window; still-CRITICAL at follow-up is a regression.
        let data_health = self
            .telemetry
            .gauge_value(HEALTH_STATE.name, &[("subsystem", "data")]);
        if data_health >= 2.0 {
            out.push(Candidate {
                kind: ActionKind::TriggerRetrain,
                policy: "retrain_on_drift",
                target: "data".to_string(),
                detail: "data health CRITICAL: retrain + rebaseline drift references".to_string(),
                command: ActionCommand::TriggerRetrain,
                watch: Watch::Gauge {
                    name: HEALTH_STATE.name.to_string(),
                    labels: vec![("subsystem".to_string(), "data".to_string())],
                },
                value_before: data_health,
                predicted: 0.0,
                regress_above: 1.5,
                direction: 0,
            });
        }

        // 2. overhead_budget: lower the hottest rate over budget,
        //    restore toward baseline under the restore watermark.
        let mut rate_targeted: Option<String> = None;
        if let Some(ratio) = inputs.overhead_ratio {
            if ratio > self.cfg.overhead_budget {
                let hottest = inputs
                    .rates
                    .iter()
                    .filter(|r| r.current > MIN_RATE)
                    .max_by_key(|r| r.current);
                if let Some(r) = hottest {
                    let new_rate = (r.current / 2).max(MIN_RATE);
                    rate_targeted = Some(r.subsystem.clone());
                    out.push(Candidate {
                        kind: ActionKind::AdjustSamplingRate,
                        policy: "overhead_budget",
                        target: r.subsystem.clone(),
                        detail: format!(
                            "ratio {ratio:.4} > budget {:.4}: rate {} -> {new_rate}",
                            self.cfg.overhead_budget, r.current
                        ),
                        command: ActionCommand::SetSamplingRate {
                            subsystem: r.subsystem.clone(),
                            rate: new_rate,
                        },
                        watch: overhead_watch(),
                        value_before: ratio,
                        predicted: ratio * 0.5,
                        regress_above: ratio * (1.0 + REGRESSION_TOLERANCE),
                        direction: -1,
                    });
                }
            } else if ratio < OVERHEAD_RESTORE {
                let lowered = inputs.rates.iter().find(|r| {
                    self.baseline_rates
                        .get(&r.subsystem)
                        .is_some_and(|b| r.current < *b)
                });
                if let Some(r) = lowered {
                    let base = self.baseline_rates[&r.subsystem];
                    let new_rate = r.current.saturating_mul(2).min(base).max(MIN_RATE);
                    rate_targeted = Some(r.subsystem.clone());
                    out.push(Candidate {
                        kind: ActionKind::AdjustSamplingRate,
                        policy: "overhead_budget",
                        target: r.subsystem.clone(),
                        detail: format!(
                            "ratio {ratio:.4} < restore {:.4}: rate {} -> {new_rate} (baseline {base})",
                            OVERHEAD_RESTORE, r.current
                        ),
                        command: ActionCommand::SetSamplingRate {
                            subsystem: r.subsystem.clone(),
                            rate: new_rate,
                        },
                        watch: overhead_watch(),
                        value_before: ratio,
                        // Rates climb back: the ratio may rise but must
                        // stay within budget.
                        predicted: (ratio * 2.0).min(self.cfg.overhead_budget),
                        regress_above: self.cfg.overhead_budget * (1.0 + REGRESSION_TOLERANCE),
                        direction: 1,
                    });
                }
            }
        }

        // 3. loss_backoff: actuate the Processor's per-subsystem
        //    loss-feedback recommendation. Prediction: the triggering
        //    loss window does not repeat.
        for r in &inputs.rates {
            if r.recommended >= r.current || rate_targeted.as_deref() == Some(&r.subsystem) {
                continue;
            }
            let lost_base = self.telemetry.with_registry(|reg| {
                reg.counter_sum_where(SAMPLES_LOST.name, "subsystem", &r.subsystem)
            });
            out.push(Candidate {
                kind: ActionKind::AdjustSamplingRate,
                policy: "loss_backoff",
                target: r.subsystem.clone(),
                detail: format!(
                    "{} new losses: rate {} -> {}",
                    r.loss_delta, r.current, r.recommended
                ),
                command: ActionCommand::SetSamplingRate {
                    subsystem: r.subsystem.clone(),
                    rate: r.recommended.max(MIN_RATE),
                },
                watch: Watch::CounterSum {
                    name: SAMPLES_LOST.name.to_string(),
                    label_key: "subsystem".to_string(),
                    label_value: r.subsystem.clone(),
                    base: lost_base,
                },
                value_before: r.loss_delta as f64,
                predicted: 0.0,
                regress_above: r.loss_delta as f64,
                direction: -1,
            });
        }

        // 4. archive_pressure: segment pileup schedules a compaction;
        //    an overhead breach holds (deprioritizes) it instead, and
        //    recovery below the restore watermark releases the hold.
        let segments = self.telemetry.gauge_value(ARCHIVE_SEGMENTS.name, &[]);
        if !self.compaction_held && segments > ARCHIVE_SEGMENTS_HI {
            out.push(Candidate {
                kind: ActionKind::ScheduleCompaction,
                policy: "archive_pressure",
                target: "archive".to_string(),
                detail: format!(
                    "{segments} segments > {}: compact sealed head run",
                    ARCHIVE_SEGMENTS_HI
                ),
                command: ActionCommand::ScheduleCompaction,
                watch: Watch::Gauge {
                    name: ARCHIVE_SEGMENTS.name.to_string(),
                    labels: Vec::new(),
                },
                value_before: segments,
                predicted: segments * 0.5,
                regress_above: segments * (1.0 + REGRESSION_TOLERANCE),
                direction: 0,
            });
        }
        if let Some(ratio) = inputs.overhead_ratio {
            let hold = if !self.compaction_held && ratio > self.cfg.overhead_budget {
                Some(true)
            } else if self.compaction_held && ratio < OVERHEAD_RESTORE {
                Some(false)
            } else {
                None
            };
            if let Some(hold) = hold {
                out.push(Candidate {
                    kind: ActionKind::DeprioritizeCompaction,
                    policy: "archive_pressure",
                    target: "archive".to_string(),
                    detail: if hold {
                        format!("ratio {ratio:.4} over budget: hold compaction")
                    } else {
                        format!("ratio {ratio:.4} recovered: release compaction hold")
                    },
                    command: ActionCommand::HoldCompaction { hold },
                    watch: overhead_watch(),
                    value_before: ratio,
                    predicted: ratio,
                    regress_above: ratio.max(self.cfg.overhead_budget)
                        * (1.0 + REGRESSION_TOLERANCE),
                    direction: 0,
                });
            }
        }

        // 5. pipeline_mode: cheap execution OUs fuse (marker overhead
        //    dominates), expensive ones unfuse (granularity is worth
        //    the markers). Needs both a live-model prediction and an
        //    overhead ratio to predict against.
        if let (Some(cost), Some(ratio)) = (inputs.predicted_exec_ou_ns, inputs.overhead_ratio) {
            if !inputs.pipeline_fused && cost < FUSE_BELOW_NS {
                out.push(Candidate {
                    kind: ActionKind::TogglePipeline,
                    policy: "pipeline_mode",
                    target: "pipeline".to_string(),
                    detail: format!(
                        "mean predicted exec OU {cost:.0}ns < {:.0}: fuse pipelines",
                        FUSE_BELOW_NS
                    ),
                    command: ActionCommand::SetPipelineMode { fused: true },
                    watch: overhead_watch(),
                    value_before: ratio,
                    predicted: ratio * 0.8,
                    regress_above: ratio * (1.0 + REGRESSION_TOLERANCE),
                    direction: 1,
                });
            } else if inputs.pipeline_fused && cost > UNFUSE_ABOVE_NS {
                out.push(Candidate {
                    kind: ActionKind::TogglePipeline,
                    policy: "pipeline_mode",
                    target: "pipeline".to_string(),
                    detail: format!(
                        "mean predicted exec OU {cost:.0}ns > {:.0}: per-operator pipelines",
                        UNFUSE_ABOVE_NS
                    ),
                    command: ActionCommand::SetPipelineMode { fused: false },
                    watch: overhead_watch(),
                    value_before: ratio,
                    predicted: self.cfg.overhead_budget.min(ratio * 1.5),
                    regress_above: self.cfg.overhead_budget * (1.0 + REGRESSION_TOLERANCE),
                    direction: -1,
                });
            }
        }

        out
    }

    /// Guardrails, log, actuate: the per-candidate admission pipeline.
    fn admit(
        &mut self,
        c: Candidate,
        now: f64,
        model_generation: u64,
        actuator: &mut dyn DbmsActuator,
        report: &mut TickReport,
    ) {
        let suppress = |m: &mut ActionMetrics, reason: usize, report: &mut TickReport| {
            m.suppressed
                .at(&self.telemetry, reason, || SUPPRESS_REASONS[reason])
                .inc();
            report.suppressed += 1;
        };
        // One action in flight per (kind, target).
        if self
            .pending
            .iter()
            .any(|p| p.kind == c.kind && p.target == c.target)
        {
            suppress(&mut self.metrics, IN_FLIGHT, report);
            return;
        }
        // Per-(kind, target) rate limit.
        let key = (c.kind.name().to_string(), c.target.clone());
        if let Some(&t0) = self.last_fire.get(&key) {
            if now - t0 < self.cfg.min_interval_ns {
                suppress(&mut self.metrics, RATE_LIMIT, report);
                return;
            }
        }
        // Direction-reversal hysteresis.
        if c.direction != 0 {
            if let Some(&(dir, at)) = self.last_move.get(&c.target) {
                if dir != 0 && dir != c.direction && now - at < self.cfg.hysteresis_ns {
                    suppress(&mut self.metrics, HYSTERESIS, report);
                    return;
                }
            }
        }

        let dropped_before = self.telemetry.with_registry(|r| r.actions().dropped());
        let id = self.telemetry.action_append(ActionRecord {
            id: 0,
            kind: c.kind.name().to_string(),
            policy: c.policy.to_string(),
            target: c.target.clone(),
            detail: c.detail,
            state: ActionState::Pending,
            dry_run: self.cfg.dry_run,
            planned_at_ns: now,
            observe_at_ns: now + self.cfg.observation_window_ns,
            metric: c.watch.metric_name(),
            value_before: c.value_before,
            predicted: c.predicted,
            observed: None,
            observed_at_ns: None,
            err_pct: None,
            regressed: false,
            model_generation,
        });
        let dropped_now = self.telemetry.with_registry(|r| r.actions().dropped());
        if dropped_now > dropped_before {
            self.metrics
                .log_dropped
                .get(&self.telemetry)
                .add(dropped_now - dropped_before);
        }
        self.metrics
            .planned
            .at(&self.telemetry, c.kind as usize, || c.kind.name())
            .inc();

        if self.cfg.dry_run {
            suppress(&mut self.metrics, DRY_RUN, report);
        } else {
            match &c.command {
                ActionCommand::SetSamplingRate { subsystem, rate } => {
                    actuator.set_sampling_rate(subsystem, *rate);
                }
                ActionCommand::TriggerRetrain => actuator.trigger_retrain(),
                ActionCommand::ScheduleCompaction => actuator.schedule_compaction(),
                ActionCommand::HoldCompaction { hold } => {
                    actuator.hold_compaction(*hold);
                    self.compaction_held = *hold;
                }
                ActionCommand::SetPipelineMode { fused } => actuator.set_pipeline_mode(*fused),
            }
            self.metrics
                .actuated
                .at(&self.telemetry, c.kind as usize, || c.kind.name())
                .inc();
            report.actuated.push(c.command.clone());
        }
        self.last_fire.insert(key, now);
        if c.direction != 0 {
            self.last_move.insert(c.target.clone(), (c.direction, now));
        }
        self.pending.push(Pending {
            id,
            kind: c.kind,
            target: c.target,
            watch: c.watch,
            value_before: c.value_before,
            predicted: c.predicted,
            regress_above: c.regress_above,
            planned_at_ns: now,
            observe_at_ns: now + self.cfg.observation_window_ns,
            dry_run: self.cfg.dry_run,
            model_generation,
        });
        report.planned.push(id);
    }
}

/// The watch every overhead-driven prediction names.
fn overhead_watch() -> Watch {
    Watch::Gauge {
        name: decls::OVERHEAD_RATIO.name.to_string(),
        labels: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every actuator call; actuates nothing real.
    #[derive(Debug, Default)]
    struct Recorder {
        calls: Vec<ActionCommand>,
    }

    impl DbmsActuator for Recorder {
        fn set_sampling_rate(&mut self, subsystem: &str, rate: u8) {
            self.calls.push(ActionCommand::SetSamplingRate {
                subsystem: subsystem.to_string(),
                rate,
            });
        }
        fn trigger_retrain(&mut self) {
            self.calls.push(ActionCommand::TriggerRetrain);
        }
        fn schedule_compaction(&mut self) {
            self.calls.push(ActionCommand::ScheduleCompaction);
        }
        fn hold_compaction(&mut self, hold: bool) {
            self.calls.push(ActionCommand::HoldCompaction { hold });
        }
        fn set_pipeline_mode(&mut self, fused: bool) {
            self.calls.push(ActionCommand::SetPipelineMode { fused });
        }
    }

    fn rates(current: u8, recommended: u8, loss: u64) -> Vec<SubsystemRate> {
        vec![SubsystemRate {
            subsystem: "execution_engine".to_string(),
            current,
            recommended,
            loss_delta: loss,
        }]
    }

    #[test]
    fn drift_critical_plans_retrain_and_rate_limit_holds() {
        let t = Telemetry::new();
        t.gauge("ts_health_state", &[("subsystem", "data")])
            .set(2.0);
        let mut e = ActionEngine::new(ActionConfig::default(), t.clone());
        let mut a = Recorder::default();
        let r = e.tick(
            &PlannerInputs {
                now_ns: 1e6,
                ..Default::default()
            },
            &mut a,
        );
        assert_eq!(r.planned.len(), 1);
        assert_eq!(a.calls, vec![ActionCommand::TriggerRetrain]);
        let recs = t.actions_snapshot();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].kind, "trigger_retrain");
        assert_eq!(recs[0].policy, "retrain_on_drift");
        assert_eq!(recs[0].value_before, 2.0);
        // Next tick: still CRITICAL, but one is in flight.
        let r = e.tick(
            &PlannerInputs {
                now_ns: 3e6,
                ..Default::default()
            },
            &mut a,
        );
        assert!(r.planned.is_empty());
        assert_eq!(r.suppressed, 1);
        assert_eq!(
            t.counter_value("tscout_action_suppressed_total", &[("reason", "in_flight")]),
            1
        );
        // Past the window the follow-up closes; the rate limit then
        // suppresses an immediate refire.
        t.gauge("ts_health_state", &[("subsystem", "data")])
            .set(2.0);
        let r = e.tick(
            &PlannerInputs {
                now_ns: 1e6 + e.cfg.observation_window_ns + 1.0,
                ..Default::default()
            },
            &mut a,
        );
        assert_eq!(r.observed.len(), 1);
        assert!(r.observed[0].regressed, "still CRITICAL at follow-up");
        assert_eq!(
            t.counter_value(
                "tscout_action_suppressed_total",
                &[("reason", "rate_limit")]
            ),
            1
        );
    }

    #[test]
    fn follow_up_success_when_health_recovers() {
        let t = Telemetry::new();
        t.gauge("ts_health_state", &[("subsystem", "data")])
            .set(2.0);
        let mut e = ActionEngine::new(ActionConfig::default(), t.clone());
        let mut a = Recorder::default();
        e.tick(
            &PlannerInputs {
                now_ns: 1e6,
                ..Default::default()
            },
            &mut a,
        );
        t.gauge("ts_health_state", &[("subsystem", "data")])
            .set(0.0);
        let r = e.tick(
            &PlannerInputs {
                now_ns: 1e6 + e.cfg.observation_window_ns + 1.0,
                ..Default::default()
            },
            &mut a,
        );
        assert_eq!(r.observed.len(), 1);
        let o = &r.observed[0];
        assert!(!o.regressed);
        assert_eq!(o.observed, 0.0);
        assert_eq!(o.err_pct, 0.0);
        assert_eq!(
            t.counter_value(
                "tscout_action_observed_total",
                &[("kind", "trigger_retrain")]
            ),
            1
        );
        assert_eq!(
            t.counter_value(
                "tscout_action_regressed_total",
                &[("kind", "trigger_retrain")]
            ),
            0
        );
        // The log record is closed.
        let rec = &t.actions_snapshot()[0];
        assert_eq!(rec.state, ActionState::Observed);
        assert_eq!(rec.observed, Some(0.0));
        // Efficacy sample encoding.
        let s = o.to_sample();
        assert_eq!(s.ou, EFFICACY_OU);
        assert_eq!(s.ou_name, EFFICACY_OU_NAME);
        assert_eq!(s.features[0], f64::from(ActionKind::TriggerRetrain.code()));
        assert_eq!(s.metrics, vec![0, 0]);
    }

    #[test]
    fn overhead_breach_lowers_hottest_then_restores_with_hysteresis() {
        let t = Telemetry::new();
        let mut e = ActionEngine::new(
            ActionConfig {
                observation_window_ns: 10e6,
                min_interval_ns: 15e6,
                hysteresis_ns: 100e6,
                ..Default::default()
            },
            t.clone(),
        );
        let mut a = Recorder::default();
        t.gauge("tscout_overhead_ratio", &[]).set(0.09);
        let r = e.tick(
            &PlannerInputs {
                now_ns: 1e6,
                overhead_ratio: Some(0.09),
                rates: rates(40, 40, 0),
                ..Default::default()
            },
            &mut a,
        );
        assert_eq!(
            r.actuated,
            vec![
                ActionCommand::SetSamplingRate {
                    subsystem: "execution_engine".to_string(),
                    rate: 20,
                },
                // Overhead breach also holds compaction.
                ActionCommand::HoldCompaction { hold: true },
            ]
        );
        assert!(e.compaction_held());
        // Ratio recovers below the restore watermark, but the raise
        // reverses the lower: hysteresis holds it back...
        t.gauge("tscout_overhead_ratio", &[]).set(0.02);
        let r = e.tick(
            &PlannerInputs {
                now_ns: 20e6,
                overhead_ratio: Some(0.02),
                rates: rates(20, 20, 0),
                ..Default::default()
            },
            &mut a,
        );
        assert!(!r
            .actuated
            .iter()
            .any(|c| matches!(c, ActionCommand::SetSamplingRate { .. })));
        assert!(
            t.counter_value(
                "tscout_action_suppressed_total",
                &[("reason", "hysteresis")]
            ) >= 1
        );
        // ...but the compaction hold (directionless) releases.
        assert!(r
            .actuated
            .contains(&ActionCommand::HoldCompaction { hold: false }));
        assert!(!e.compaction_held());
        // Past the hysteresis window the restore goes through, back
        // toward the first-seen baseline (40).
        let r = e.tick(
            &PlannerInputs {
                now_ns: 200e6,
                overhead_ratio: Some(0.02),
                rates: rates(20, 20, 0),
                ..Default::default()
            },
            &mut a,
        );
        assert!(r.actuated.contains(&ActionCommand::SetSamplingRate {
            subsystem: "execution_engine".to_string(),
            rate: 40,
        }));
    }

    #[test]
    fn loss_backoff_follows_processor_recommendation() {
        let t = Telemetry::new();
        t.counter(
            "tscout_samples_lost_total",
            &[("subsystem", "execution_engine"), ("reason", "overwrite")],
        )
        .add(12);
        let mut e = ActionEngine::new(ActionConfig::default(), t.clone());
        let mut a = Recorder::default();
        let r = e.tick(
            &PlannerInputs {
                now_ns: 1e6,
                rates: rates(40, 20, 12),
                ..Default::default()
            },
            &mut a,
        );
        assert_eq!(
            r.actuated,
            vec![ActionCommand::SetSamplingRate {
                subsystem: "execution_engine".to_string(),
                rate: 20,
            }]
        );
        let rec = &t.actions_snapshot()[0];
        assert_eq!(rec.policy, "loss_backoff");
        assert!(rec.metric.contains("tscout_samples_lost_total"));
        // No further losses: the follow-up observes a zero delta.
        let r = e.tick(
            &PlannerInputs {
                now_ns: 1e6 + e.cfg.observation_window_ns + 1.0,
                rates: rates(20, 20, 0),
                ..Default::default()
            },
            &mut a,
        );
        assert_eq!(r.observed.len(), 1);
        assert_eq!(r.observed[0].observed, 0.0);
        assert!(!r.observed[0].regressed);
    }

    #[test]
    fn archive_pressure_schedules_compaction() {
        let t = Telemetry::new();
        t.gauge("archive_segments", &[]).set(100.0);
        let mut e = ActionEngine::new(ActionConfig::default(), t.clone());
        let mut a = Recorder::default();
        let r = e.tick(
            &PlannerInputs {
                now_ns: 1e6,
                ..Default::default()
            },
            &mut a,
        );
        assert_eq!(r.actuated, vec![ActionCommand::ScheduleCompaction]);
        let rec = &t.actions_snapshot()[0];
        assert_eq!(rec.metric, "archive_segments");
        assert_eq!(rec.predicted, 50.0);
    }

    #[test]
    fn pipeline_toggles_on_predicted_cost() {
        let t = Telemetry::new();
        let mut e = ActionEngine::new(ActionConfig::default(), t.clone());
        let mut a = Recorder::default();
        // Cheap OUs + interpreted pipelines ⇒ fuse.
        let r = e.tick(
            &PlannerInputs {
                now_ns: 1e6,
                overhead_ratio: Some(0.01),
                predicted_exec_ou_ns: Some(800.0),
                pipeline_fused: false,
                ..Default::default()
            },
            &mut a,
        );
        assert_eq!(
            r.actuated,
            vec![ActionCommand::SetPipelineMode { fused: true }]
        );
        // Expensive OUs + fused ⇒ unfuse, but hysteresis blocks the
        // immediate reversal.
        let r = e.tick(
            &PlannerInputs {
                now_ns: 2e6,
                overhead_ratio: Some(0.01),
                predicted_exec_ou_ns: Some(50_000.0),
                pipeline_fused: true,
                ..Default::default()
            },
            &mut a,
        );
        assert!(r.planned.is_empty());
        assert_eq!(r.suppressed, 1);
        // After the hysteresis window it goes through.
        let r = e.tick(
            &PlannerInputs {
                now_ns: 2e6 + e.cfg.hysteresis_ns,
                overhead_ratio: Some(0.01),
                predicted_exec_ou_ns: Some(50_000.0),
                pipeline_fused: true,
                ..Default::default()
            },
            &mut a,
        );
        assert!(r
            .actuated
            .contains(&ActionCommand::SetPipelineMode { fused: false }));
    }

    #[test]
    fn dry_run_plans_identically_but_actuates_nothing() {
        let mk_inputs = || PlannerInputs {
            now_ns: 1e6,
            overhead_ratio: Some(0.09),
            rates: rates(40, 40, 0),
            ..Default::default()
        };
        let t_live = Telemetry::new();
        t_live
            .gauge("ts_health_state", &[("subsystem", "data")])
            .set(2.0);
        let t_dry = Telemetry::new();
        t_dry
            .gauge("ts_health_state", &[("subsystem", "data")])
            .set(2.0);
        let mut live = ActionEngine::new(ActionConfig::default(), t_live.clone());
        let mut dry = ActionEngine::new(
            ActionConfig {
                dry_run: true,
                ..Default::default()
            },
            t_dry.clone(),
        );
        let mut a_live = Recorder::default();
        let mut a_dry = Recorder::default();
        let r_live = live.tick(&mk_inputs(), &mut a_live);
        let r_dry = dry.tick(&mk_inputs(), &mut a_dry);
        // Identical plans...
        assert_eq!(r_live.planned.len(), r_dry.planned.len());
        let recs_live = t_live.actions_snapshot();
        let recs_dry = t_dry.actions_snapshot();
        assert_eq!(recs_live.len(), recs_dry.len());
        for (l, d) in recs_live.iter().zip(&recs_dry) {
            assert_eq!(l.kind, d.kind);
            assert_eq!(l.target, d.target);
            assert_eq!(l.predicted, d.predicted);
            assert!(!l.dry_run);
            assert!(d.dry_run);
        }
        // ...zero actuation.
        assert!(!a_live.calls.is_empty());
        assert!(a_dry.calls.is_empty());
        assert!(r_dry.actuated.is_empty());
        assert_eq!(
            t_dry.counter_value("tscout_action_suppressed_total", &[("reason", "dry_run")]),
            recs_dry.len() as u64
        );
        // Dry-run follow-ups still close.
        let r = dry.tick(
            &PlannerInputs {
                now_ns: 1e6 + dry.cfg.observation_window_ns + 1.0,
                ..Default::default()
            },
            &mut a_dry,
        );
        assert_eq!(r.observed.len(), recs_dry.len());
        assert!(r.observed.iter().all(|o| o.dry_run));
    }

    #[test]
    fn constructor_predeclares_all_metrics() {
        // Every `tscout_action_*` family is pre-registered at zero with
        // non-empty help, before any action fires.
        let t = Telemetry::new();
        let _e = ActionEngine::new(ActionConfig::default(), t.clone());
        let prom = t.to_prometheus();
        for d in decls::DECLS
            .iter()
            .filter(|d| d.name != "tscout_overhead_ratio")
        {
            assert!(d.name.starts_with("tscout_action_") && !d.help.is_empty());
            let header = format!(
                "# HELP {} {}\n# TYPE {} {}\n",
                d.name, d.help, d.name, d.kind
            );
            assert!(prom.contains(&header), "missing {header}");
            let samples: Vec<&str> = prom
                .lines()
                .filter(|l| l.starts_with(d.name) && !l.contains("_bucket"))
                .collect();
            assert!(!samples.is_empty(), "{} has no series", d.name);
            assert!(samples.iter().all(|l| l.ends_with(" 0")), "{samples:?}");
        }
    }
}
