//! Metric declarations of this crate (see
//! [`tscout_telemetry::declare_metrics`]). `tscout_overhead_ratio` is
//! the driver's gauge, declared here because the `overhead_budget`
//! policy reads it.

tscout_telemetry::declare_metrics! {
    /// Every metric declared in `tscout-actions`.
    pub DECLS:
    pub ACTUATED: Counter = "tscout_action_actuated_total",
        "Actions the engine actually actuated (excludes dry-run), per kind";
    pub(crate) EFFICACY_ERR_PCT: Gauge = "tscout_action_efficacy_err_pct",
        "Last observed predicted-vs-observed error of an action's follow-up, per kind";
    pub(crate) LOG_DROPPED: Counter = "tscout_action_log_dropped_total",
        "Action records evicted from the bounded action log (never silent)";
    pub OBSERVED: Counter = "tscout_action_observed_total",
        "Action follow-ups that closed with an observed outcome, per kind";
    pub(crate) PENDING: Gauge = "tscout_action_pending",
        "Actions awaiting their follow-up observation window";
    pub PLANNED: Counter = "tscout_action_planned_total",
        "Actions the engine planned (dry-run included), per kind";
    pub(crate) REGRESSED: Counter = "tscout_action_regressed_total",
        "Actions whose observed outcome moved the target metric the wrong way, per kind";
    pub(crate) SUPPRESSED: Counter = "tscout_action_suppressed_total",
        "Actions a guardrail suppressed before actuation, per reason";
    pub OVERHEAD_RATIO: Gauge = "tscout_overhead_ratio",
        "Profiler-attributed tscout/dbms virtual-time ratio (the action engine's budget signal)";
}
