//! Metric declarations of this crate (see
//! [`tscout_telemetry::declare_metrics`]).

tscout_telemetry::declare_metrics! {
    /// Every metric declared in `tscout-workloads`.
    pub DECLS:
    pub(crate) TXN_NS: Hist = "workload_txn_ns", "Virtual transaction latency, by commit/abort outcome";
}
