//! The metric dictionary: every counter / gauge / histogram the
//! workspace exports, with a one-line meaning.
//!
//! This table is the single source of truth for metric documentation.
//! The `metrics_doc` bench binary renders it into README.md (between
//! `<!-- METRICS -->` markers) and, in `--check` mode, cross-checks it
//! against the names an end-to-end run actually registers — so the
//! README can be neither missing a live metric nor carrying a stale
//! one. CI runs the check.

/// `(name, kind, meaning)` for every exported metric. Kind is
/// `counter`, `gauge`, or `histogram`. Keep sorted by name.
pub const METRIC_DOCS: &[(&str, &str, &str)] = &[
    (
        "alerts_fired_total",
        "counter",
        "Upward health transitions (per rule and subsystem) — the alert firehose",
    ),
    (
        "alerts_recovered_total",
        "counter",
        "Downward health transitions (hysteresis clears) per rule and subsystem",
    ),
    (
        "archive_append_errors_total",
        "counter",
        "Samples the archive sink failed to append",
    ),
    (
        "archive_buffered_samples",
        "gauge",
        "Decoded samples in unflushed archive memtables",
    ),
    (
        "archive_bytes_written_total",
        "counter",
        "Bytes persisted to archive segment files",
    ),
    (
        "archive_flush_ns",
        "histogram",
        "Wall-clock duration of archive memtable flushes (encode + write of one block)",
    ),
    (
        "archive_ou_blocks_total",
        "counter",
        "Column blocks flushed to segment files, per OU",
    ),
    (
        "archive_ou_bytes_written_total",
        "counter",
        "Bytes persisted to segment files, per OU",
    ),
    (
        "archive_ou_samples_appended_total",
        "counter",
        "Samples appended to the training-data archive, per OU",
    ),
    (
        "archive_ou_samples_retired_total",
        "counter",
        "Samples dropped by compaction's retention policy, per OU",
    ),
    (
        "archive_recovered_truncations_total",
        "counter",
        "Torn segment tails truncated during crash recovery",
    ),
    (
        "archive_samples_appended_total",
        "counter",
        "Samples appended to the training-data archive",
    ),
    (
        "archive_samples_retired_total",
        "counter",
        "Samples dropped by compaction's retention policy",
    ),
    (
        "archive_scan_skipped_blocks_total",
        "counter",
        "Unreadable or corrupt column blocks skipped by a scan",
    ),
    (
        "archive_segments",
        "gauge",
        "Archive segment files currently on disk",
    ),
    (
        "archive_segments_compacted_total",
        "counter",
        "Segments rewritten by compaction",
    ),
    (
        "archive_segments_sealed_total",
        "counter",
        "Segments sealed (made immutable)",
    ),
    (
        "db_client_request_ns",
        "histogram",
        "End-to-end virtual latency of client requests",
    ),
    (
        "db_client_requests_total",
        "counter",
        "Client requests executed by the engine",
    ),
    (
        "db_explain_analyze_total",
        "counter",
        "EXPLAIN ANALYZE statements executed",
    ),
    (
        "db_gc_pruned_total",
        "counter",
        "Row versions pruned by garbage collection",
    ),
    (
        "db_gc_sweeps_total",
        "counter",
        "Garbage-collection sweeps run",
    ),
    (
        "db_pipeline_fanout",
        "histogram",
        "OUs fused into each executed pipeline",
    ),
    (
        "db_pipeline_ous_total",
        "counter",
        "OUs executed inside fused pipelines",
    ),
    ("db_pipelines_total", "counter", "Fused pipelines executed"),
    (
        "db_stmt_evicted_total",
        "counter",
        "Statement-stats fingerprints evicted by the LRU cap",
    ),
    (
        "db_stmt_fingerprints",
        "gauge",
        "Distinct statement fingerprints currently tracked",
    ),
    (
        "db_stmt_recorded_total",
        "counter",
        "Statements folded into the statement-stats registry",
    ),
    ("db_txn_aborts_total", "counter", "Transactions aborted"),
    ("db_txn_commits_total", "counter", "Transactions committed"),
    (
        "db_txn_writes_total",
        "counter",
        "Row writes performed by transactions",
    ),
    (
        "db_virtual_scans_total",
        "counter",
        "Scans over the ts_stat_* virtual system tables, per table",
    ),
    (
        "db_wal_batch_records",
        "histogram",
        "Records per WAL group-commit batch",
    ),
    (
        "db_wal_flush_ns",
        "histogram",
        "Virtual duration of WAL flushes",
    ),
    (
        "db_wal_flushed_records_total",
        "counter",
        "WAL records flushed to the (virtual) log device",
    ),
    (
        "db_wal_flushes_total",
        "counter",
        "WAL group-commit flushes",
    ),
    (
        "kernel_context_switches_total",
        "counter",
        "Context switches charged by the virtual kernel, split by PMU save/restore",
    ),
    (
        "kernel_mode_switches_total",
        "counter",
        "User/kernel mode switches charged by the virtual kernel",
    ),
    (
        "kernel_syscalls_total",
        "counter",
        "Syscalls charged by the virtual kernel",
    ),
    (
        "kernel_tracepoint_hits_total",
        "counter",
        "Kernel tracepoint activations (Collector attach points)",
    ),
    (
        "kernel_wal_bytes_total",
        "counter",
        "Bytes written through the virtual WAL device",
    ),
    (
        "kernel_wal_write_ns",
        "histogram",
        "Virtual duration of WAL device writes",
    ),
    (
        "model_generation",
        "gauge",
        "Generation of the live behavior-model set (bumps on accepted swap)",
    ),
    (
        "model_holdout_mape_pct",
        "gauge",
        "Holdout MAPE of the live model set at install time, percent",
    ),
    (
        "model_swap_accepted_total",
        "counter",
        "Model hot-swaps accepted by the accuracy gate",
    ),
    (
        "model_swap_rejected_total",
        "counter",
        "Model hot-swaps rejected by the accuracy gate",
    ),
    (
        "model_trained_points",
        "gauge",
        "Training points the live model set was fit on",
    ),
    (
        "processor_buffered_samples",
        "gauge",
        "Decoded samples buffered in the Processor's sink",
    ),
    (
        "processor_deagg_fanout",
        "histogram",
        "Training points produced per ring record (fused de-aggregation)",
    ),
    (
        "processor_decode_errors_total",
        "counter",
        "Ring records that failed to decode",
    ),
    (
        "processor_drain_ns",
        "histogram",
        "Virtual duration of full ring drains",
    ),
    (
        "processor_points_total",
        "counter",
        "Training points produced by the Processor",
    ),
    (
        "processor_poll_ns",
        "histogram",
        "Virtual duration of Processor poll slices",
    ),
    (
        "processor_rate_reductions_total",
        "counter",
        "Times the loss-feedback hook recommended halving the sampling rate",
    ),
    (
        "processor_records_total",
        "counter",
        "Ring records the Processor consumed",
    ),
    (
        "telemetry_spans_dropped_total",
        "counter",
        "Spans evicted from the span ring (never silent)",
    ),
    (
        "ts_drift_evaluations_total",
        "counter",
        "Drift-detector evaluation passes over the per-OU windows",
    ),
    (
        "ts_drift_ks",
        "gauge",
        "KS distance between an OU channel's live window and its frozen reference",
    ),
    (
        "ts_drift_psi",
        "gauge",
        "PSI between an OU channel's live window and its frozen reference",
    ),
    (
        "ts_drift_rebaselines_total",
        "counter",
        "Drift-reference rebaselines after an actuated retrain (references re-learn)",
    ),
    (
        "ts_drift_score",
        "gauge",
        "Per-OU headline drift score: worst PSI across target/feature channels",
    ),
    (
        "ts_flightrec_bundles_total",
        "counter",
        "Flight-recorder evidence bundles written on CRITICAL transitions",
    ),
    (
        "ts_health_state",
        "gauge",
        "Per-subsystem health: 0=OK, 1=DEGRADED, 2=CRITICAL",
    ),
    (
        "ts_residual_mape_pct",
        "gauge",
        "Live-model residual MAPE per OU over the last window, percent",
    ),
    (
        "tscout_action_actuated_total",
        "counter",
        "Actions the engine actually actuated (excludes dry-run), per kind",
    ),
    (
        "tscout_action_efficacy_err_pct",
        "gauge",
        "Last observed predicted-vs-observed error of an action's follow-up, per kind",
    ),
    (
        "tscout_action_log_dropped_total",
        "counter",
        "Action records evicted from the bounded action log (never silent)",
    ),
    (
        "tscout_action_observed_total",
        "counter",
        "Action follow-ups that closed with an observed outcome, per kind",
    ),
    (
        "tscout_action_pending",
        "gauge",
        "Actions awaiting their follow-up observation window",
    ),
    (
        "tscout_action_planned_total",
        "counter",
        "Actions the engine planned (dry-run included), per kind",
    ),
    (
        "tscout_action_regressed_total",
        "counter",
        "Actions whose observed outcome moved the target metric the wrong way, per kind",
    ),
    (
        "tscout_action_suppressed_total",
        "counter",
        "Actions a guardrail suppressed before actuation, per reason",
    ),
    (
        "tscout_bpf_insns_executed",
        "gauge",
        "BPF instructions executed by the Collector's VM (cumulative)",
    ),
    (
        "tscout_map_deletes",
        "gauge",
        "BPF map delete operations (per map)",
    ),
    (
        "tscout_map_lookups",
        "gauge",
        "BPF map lookup operations (per map)",
    ),
    (
        "tscout_map_stack_pops",
        "gauge",
        "BPF map-of-stacks pop operations (per map)",
    ),
    (
        "tscout_map_stack_pushes",
        "gauge",
        "BPF map-of-stacks push operations (per map)",
    ),
    (
        "tscout_map_updates",
        "gauge",
        "BPF map update operations (per map)",
    ),
    (
        "tscout_marker_events_total",
        "counter",
        "Marker invocations (begin/end/features) per subsystem",
    ),
    (
        "tscout_obsd_errors_total",
        "counter",
        "Operator-plane HTTP responses with status ≥ 400, per endpoint (server-side registry)",
    ),
    (
        "tscout_obsd_rejected_total",
        "counter",
        "Operator-plane connections turned away at the concurrency bound (503, never queued)",
    ),
    (
        "tscout_obsd_request_ns",
        "histogram",
        "Operator-plane request service time, wall-clock ns (server-side, never a virtual clock)",
    ),
    (
        "tscout_obsd_requests_total",
        "counter",
        "Operator-plane HTTP requests served, per endpoint (server-side registry)",
    ),
    (
        "tscout_opt_fallbacks_total",
        "gauge",
        "Loads where the optimizer errored and the verified original ran instead",
    ),
    (
        "tscout_opt_insns_after",
        "gauge",
        "Collector program instructions after load-time optimization (sum)",
    ),
    (
        "tscout_opt_insns_before",
        "gauge",
        "Collector program instructions before load-time optimization (sum)",
    ),
    (
        "tscout_opt_insns_removed_total",
        "gauge",
        "Instructions removed by the load-time optimizer, per pass",
    ),
    (
        "tscout_opt_insns_rewritten_total",
        "gauge",
        "Instructions rewritten in place by the load-time optimizer, per pass",
    ),
    (
        "tscout_opt_iterations",
        "gauge",
        "Optimizer fixed-point pipeline iterations across all loads",
    ),
    (
        "tscout_opt_loops_unrolled",
        "gauge",
        "Bounded loops structurally unrolled at load time",
    ),
    (
        "tscout_ou_samples_begun_total",
        "counter",
        "OU collections begun, per OU — the loss-accounting numerator",
    ),
    (
        "tscout_ou_samples_delivered_total",
        "counter",
        "OU samples that survived to the Processor, per OU",
    ),
    (
        "tscout_ou_samples_lost_total",
        "counter",
        "OU samples lost (ring overwrite, backlog, reset), per OU and cause",
    ),
    (
        "tscout_overhead_ratio",
        "gauge",
        "Profiler-attributed tscout/dbms virtual-time ratio (the action engine's budget signal)",
    ),
    (
        "tscout_ring_bytes",
        "gauge",
        "Bytes currently occupying the perf ring buffer",
    ),
    (
        "tscout_ring_capacity",
        "gauge",
        "Configured perf ring buffer capacity, records",
    ),
    (
        "tscout_ring_drained",
        "gauge",
        "Records drained from the ring (cumulative, mirrored as a gauge)",
    ),
    (
        "tscout_ring_dropped",
        "gauge",
        "Records overwritten in the ring (cumulative, mirrored as a gauge)",
    ),
    (
        "tscout_ring_occupancy_hwm",
        "gauge",
        "High-water mark of ring occupancy, records",
    ),
    (
        "tscout_ring_produced",
        "gauge",
        "Records produced into the ring (cumulative, mirrored as a gauge)",
    ),
    (
        "tscout_ring_pushes",
        "gauge",
        "Push operations on the ring (cumulative, mirrored as a gauge)",
    ),
    (
        "tscout_samples_begun_total",
        "counter",
        "Samples begun, per subsystem — the loss-accounting numerator",
    ),
    (
        "tscout_samples_delivered_total",
        "counter",
        "Samples delivered ring→Processor, per subsystem",
    ),
    (
        "tscout_sampling_rate",
        "gauge",
        "Current per-subsystem sampling rate (0-255)",
    ),
    (
        "tscout_sampling_rate_changes_total",
        "counter",
        "Runtime sampling-rate adjustments, per subsystem",
    ),
    (
        "tscout_state_machine_resets_total",
        "counter",
        "OU marker state machines reset after protocol violations",
    ),
    (
        "tscout_trace_critical_stage_total",
        "counter",
        "Completed traces whose critical path a stage dominated, per stage",
    ),
    (
        "tscout_trace_ring_evicted_total",
        "counter",
        "Completed traces evicted from the bounded trace ring (lineage kept in metrics)",
    ),
    (
        "tscout_trace_stage_ns",
        "histogram",
        "Per-stage virtual latency of traced samples (each stage's worst visit: ts_stat_pipeline.exemplar_trace_id)",
    ),
    (
        "tscout_traces_completed_total",
        "counter",
        "Lineage traces that reached a terminal outcome, per outcome",
    ),
    (
        "tscout_traces_dropped_total",
        "counter",
        "Lineage traces abandoned before completion (in-flight table overflow)",
    ),
    (
        "tscout_traces_started_total",
        "counter",
        "TraceIds assigned at marker fire time (1-in-N sampled)",
    ),
    (
        "tscout_verify_insns",
        "gauge",
        "Instruction count of the last verified Collector program",
    ),
    (
        "tscout_verify_insns_visited",
        "gauge",
        "Instructions visited by the last verifier run",
    ),
    (
        "tscout_verify_paths",
        "gauge",
        "Paths explored by the last verifier run",
    ),
    (
        "tscout_verify_peak_depth",
        "gauge",
        "Peak analysis depth across verifier runs",
    ),
    ("tscout_verify_runs", "gauge", "Collector programs verified"),
    (
        "tscout_verify_states",
        "gauge",
        "States explored by the last verifier run",
    ),
    (
        "tscout_verify_states_pruned",
        "gauge",
        "States pruned by the last verifier run",
    ),
    (
        "workload_txn_ns",
        "histogram",
        "Virtual transaction latency, by commit/abort outcome",
    ),
];

/// Is `name` (label-stripped) in the dictionary?
pub fn is_documented(name: &str) -> bool {
    METRIC_DOCS
        .binary_search_by(|(n, _, _)| n.cmp(&name))
        .is_ok()
}

/// One-line meaning of a documented metric — the `# HELP` text in the
/// OpenMetrics exposition. `None` for undocumented names.
pub fn metric_help(name: &str) -> Option<&'static str> {
    METRIC_DOCS
        .binary_search_by(|(n, _, _)| n.cmp(&name))
        .ok()
        .map(|i| METRIC_DOCS[i].2)
}

/// Render the dictionary as the README's markdown table.
pub fn metric_table_markdown() -> String {
    let mut out = String::from("| Metric | Kind | Meaning |\n|---|---|---|\n");
    for (name, kind, meaning) in METRIC_DOCS {
        out.push_str(&format!("| `{name}` | {kind} | {meaning} |\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_sorted_and_lookup_works() {
        for w in METRIC_DOCS.windows(2) {
            assert!(w[0].0 < w[1].0, "unsorted: {} >= {}", w[0].0, w[1].0);
        }
        assert!(is_documented("db_txn_commits_total"));
        assert!(is_documented("ts_drift_score"));
        assert!(!is_documented("made_up_metric"));
    }

    #[test]
    fn kinds_are_constrained() {
        for (name, kind, meaning) in METRIC_DOCS {
            assert!(
                matches!(*kind, "counter" | "gauge" | "histogram"),
                "{name}: bad kind {kind}"
            );
            assert!(!meaning.is_empty(), "{name}: empty meaning");
        }
    }

    #[test]
    fn markdown_has_one_row_per_metric() {
        let md = metric_table_markdown();
        assert_eq!(md.lines().count(), METRIC_DOCS.len() + 2);
        assert!(md.contains("| `ts_health_state` | gauge |"));
    }
}
