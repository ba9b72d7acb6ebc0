//! Metric declarations of this crate (see
//! [`tscout_telemetry::declare_metrics`]).

tscout_telemetry::declare_metrics! {
    /// Every metric declared in `tscout-workloads`.
    pub DECLS:
    pub(crate) TXN_NS: Hist = "workload_txn_ns", "Virtual transaction latency, by commit/abort outcome";
}

use tscout_kernel::Frame;

// Profiler frames this crate pushes, each interned on first use.
pub(crate) static ACTIONS_PLAN: Frame = Frame::new("actions:plan");
pub(crate) static ACTIONS_REBASELINE: Frame = Frame::new("actions:rebaseline");
pub(crate) static MODELS_DATASET: Frame = Frame::new("models:dataset");
pub(crate) static MODELS_FIT: Frame = Frame::new("models:fit");
pub(crate) static MODELS_RETRAIN: Frame = Frame::new("models:retrain");
pub(crate) static PROCESSOR_ARCHIVE: Frame = Frame::new("processor:archive");
pub(crate) static TELEMETRY_OBSERVABILITY: Frame = Frame::new("telemetry:observability");
