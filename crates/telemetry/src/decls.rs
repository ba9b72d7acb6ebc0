//! Metric declarations of this crate (see [`crate::declare_metrics`]).
//!
//! A metric is declared in the lowest crate that names it. So besides
//! the series the registry itself maintains, this table holds the ones
//! the `ts_stat_archive` / `ts_stat_model` tables, the stock health rules
//! and the action engine *read*; the crates that write them import the
//! declaration from here.

crate::declare_metrics! {
    /// Every metric declared in `tscout-telemetry`.
    pub DECLS:
    pub ALERTS_FIRED: Counter = "alerts_fired_total",
        "Upward health transitions (per rule and subsystem) — the alert firehose";
    pub(crate) ALERTS_RECOVERED: Counter = "alerts_recovered_total",
        "Downward health transitions (hysteresis clears) per rule and subsystem";
    pub STMT_EVICTED: Counter = "db_stmt_evicted_total",
        "Statement-stats fingerprints evicted by the LRU cap";
    pub(crate) STMT_FINGERPRINTS: Gauge = "db_stmt_fingerprints",
        "Distinct statement fingerprints currently tracked";
    pub(crate) STMT_RECORDED: Counter = "db_stmt_recorded_total",
        "Statements folded into the statement-stats registry";
    pub(crate) DRIFT_EVALUATIONS: Counter = "ts_drift_evaluations_total",
        "Drift-detector evaluation passes over the per-OU windows";
    pub(crate) DRIFT_KS: Gauge = "ts_drift_ks",
        "KS distance between an OU channel's live window and its frozen reference";
    pub(crate) DRIFT_PSI: Gauge = "ts_drift_psi",
        "PSI between an OU channel's live window and its frozen reference";
    pub DRIFT_REBASELINES: Counter = "ts_drift_rebaselines_total",
        "Drift-reference rebaselines after an actuated retrain (references re-learn)";
    pub(crate) DRIFT_SCORE: Gauge = "ts_drift_score",
        "Per-OU headline drift score: worst PSI across target/feature channels";
    pub(crate) FLIGHTREC_BUNDLES: Counter = "ts_flightrec_bundles_total",
        "Flight-recorder evidence bundles written on CRITICAL transitions";
    pub HEALTH_STATE: Gauge = "ts_health_state",
        "Per-subsystem health: 0=OK, 1=DEGRADED, 2=CRITICAL";
    pub(crate) RESIDUAL_MAPE_PCT: Gauge = "ts_residual_mape_pct",
        "Live-model residual MAPE per OU over the last window, percent";
    pub(crate) TRACE_CRITICAL_STAGE: Counter = "tscout_trace_critical_stage_total",
        "Completed traces whose critical path a stage dominated, per stage";
    pub(crate) TRACE_RING_EVICTED: Counter = "tscout_trace_ring_evicted_total",
        "Completed traces evicted from the bounded trace ring (lineage kept in metrics)";
    pub(crate) TRACE_STAGE_NS: Hist = "tscout_trace_stage_ns",
        "Per-stage virtual latency of traced samples (each stage's worst visit: ts_stat_pipeline.exemplar_trace_id)";
    pub(crate) TRACES_COMPLETED: Counter = "tscout_traces_completed_total",
        "Lineage traces that reached a terminal outcome, per outcome";
    pub(crate) TRACES_DROPPED: Counter = "tscout_traces_dropped_total",
        "Lineage traces abandoned before completion (in-flight table overflow)";
    pub(crate) TRACES_STARTED: Counter = "tscout_traces_started_total",
        "TraceIds assigned at marker fire time (1-in-N sampled)";
    // Written by tscout-archive, tscout-models and tscout-core.
    pub ARCHIVE_BUFFERED_SAMPLES: Gauge = "archive_buffered_samples",
        "Decoded samples in unflushed archive memtables";
    pub ARCHIVE_OU_BLOCKS: Counter = "archive_ou_blocks_total",
        "Column blocks flushed to segment files, per OU";
    pub ARCHIVE_OU_BYTES_WRITTEN: Counter = "archive_ou_bytes_written_total",
        "Bytes persisted to segment files, per OU";
    pub ARCHIVE_OU_SAMPLES_APPENDED: Counter = "archive_ou_samples_appended_total",
        "Samples appended to the training-data archive, per OU";
    pub ARCHIVE_RECOVERED_TRUNCATIONS: Counter = "archive_recovered_truncations_total",
        "Torn segment tails truncated during crash recovery";
    pub ARCHIVE_SEGMENTS: Gauge = "archive_segments", "Archive segment files currently on disk";
    pub ARCHIVE_SEGMENTS_COMPACTED: Counter = "archive_segments_compacted_total",
        "Segments rewritten by compaction";
    pub ARCHIVE_SEGMENTS_SEALED: Counter = "archive_segments_sealed_total",
        "Segments sealed (made immutable)";
    pub MODEL_GENERATION: Gauge = "model_generation",
        "Generation of the live behavior-model set (bumps on accepted swap)";
    pub MODEL_HOLDOUT_MAPE_PCT: Gauge = "model_holdout_mape_pct",
        "Holdout MAPE of the live model set at install time, percent";
    pub MODEL_SWAP_ACCEPTED: Counter = "model_swap_accepted_total",
        "Model hot-swaps accepted by the accuracy gate";
    pub MODEL_SWAP_REJECTED: Counter = "model_swap_rejected_total",
        "Model hot-swaps rejected by the accuracy gate";
    pub MODEL_TRAINED_POINTS: Gauge = "model_trained_points",
        "Training points the live model set was fit on";
    pub PROCESSOR_DECODE_ERRORS: Counter = "processor_decode_errors_total",
        "Ring records that failed to decode";
    pub SAMPLES_LOST: Counter = "tscout_samples_lost_total",
        "Samples lost between BEGIN and delivery, per subsystem and reason";
    pub OU_SAMPLES_LOST: Counter = "tscout_ou_samples_lost_total",
        "OU samples lost (ring overwrite, backlog, reset), per OU and cause";
}
