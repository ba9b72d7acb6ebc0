//! Metric declarations of this crate (see
//! [`tscout_telemetry::declare_metrics`]): the server's self-metrics.

tscout_telemetry::declare_metrics! {
    /// Every metric declared in `tscout-obsd`.
    pub DECLS:
    pub(crate) ERRORS: Counter = "tscout_obsd_errors_total",
        "Operator-plane HTTP responses with status ≥ 400, per endpoint (server-side registry)";
    pub(crate) REJECTED: Counter = "tscout_obsd_rejected_total",
        "Operator-plane connections turned away at the concurrency bound (503, never queued)";
    pub(crate) REQUEST_NS: Hist = "tscout_obsd_request_ns",
        "Operator-plane request service time, wall-clock ns (server-side, never a virtual clock)";
    pub(crate) REQUESTS: Counter = "tscout_obsd_requests_total",
        "Operator-plane HTTP requests served, per endpoint (server-side registry)";
}
