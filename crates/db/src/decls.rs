//! Metric declarations of this crate (see
//! [`tscout_telemetry::declare_metrics`]). The `db_stmt_*` series are
//! maintained by the statement-stats registry and declared with it in
//! [`tscout_telemetry::decls`].

tscout_telemetry::declare_metrics! {
    /// Every metric declared in `noisetap`.
    pub DECLS:
    pub(crate) CLIENT_REQUEST_NS: Hist = "db_client_request_ns",
        "End-to-end virtual latency of client requests";
    pub(crate) CLIENT_REQUESTS: Counter = "db_client_requests_total",
        "Client requests executed by the engine";
    pub(crate) EXPLAIN_ANALYZE: Counter = "db_explain_analyze_total",
        "EXPLAIN ANALYZE statements executed";
    pub(crate) GC_PRUNED: Counter = "db_gc_pruned_total", "Row versions pruned by garbage collection";
    pub(crate) GC_SWEEPS: Counter = "db_gc_sweeps_total", "Garbage-collection sweeps run";
    pub(crate) PIPELINE_FANOUT: Hist = "db_pipeline_fanout", "OUs fused into each executed pipeline";
    pub(crate) PIPELINE_OUS: Counter = "db_pipeline_ous_total", "OUs executed inside fused pipelines";
    pub(crate) PIPELINES: Counter = "db_pipelines_total", "Fused pipelines executed";
    pub(crate) TXN_ABORTS: Counter = "db_txn_aborts_total", "Transactions aborted";
    pub(crate) TXN_COMMITS: Counter = "db_txn_commits_total", "Transactions committed";
    pub(crate) TXN_WRITES: Counter = "db_txn_writes_total", "Row writes performed by transactions";
    pub(crate) VIRTUAL_SCANS: Counter = "db_virtual_scans_total",
        "Scans over the ts_stat_* virtual system tables, per table";
    pub(crate) WAL_BATCH_RECORDS: Hist = "db_wal_batch_records", "Records per WAL group-commit batch";
    pub(crate) WAL_FLUSH_NS: Hist = "db_wal_flush_ns", "Virtual duration of WAL flushes";
    pub(crate) WAL_FLUSHED_RECORDS: Counter = "db_wal_flushed_records_total",
        "WAL records flushed to the (virtual) log device";
    pub(crate) WAL_FLUSHES: Counter = "db_wal_flushes_total", "WAL group-commit flushes";
}

use tscout_kernel::Frame;

// Profiler frames this crate pushes, each interned on first use.
pub(crate) static PIPELINE: Frame = Frame::new("pipeline");
pub(crate) static VIRTUAL_SCAN: Frame = Frame::new("ou:virtual_scan");
pub(crate) static WAL: Frame = Frame::new("wal");
