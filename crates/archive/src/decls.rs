//! Metric declarations of this crate (see
//! [`tscout_telemetry::declare_metrics`]). The series the
//! `ts_stat_archive` table reads are declared beside it, in
//! [`tscout_telemetry::decls`] (`ARCHIVE_*`).

tscout_telemetry::declare_metrics! {
    /// Every metric declared in `tscout-archive`.
    pub DECLS:
    pub(crate) APPEND_ERRORS: Counter = "archive_append_errors_total",
        "Appended samples dropped because writing their block to a segment failed";
    pub BYTES_WRITTEN: Counter = "archive_bytes_written_total",
        "Bytes persisted to archive segment files";
    pub(crate) SAMPLES_APPENDED: Counter = "archive_samples_appended_total",
        "Samples appended to the training-data archive";
    pub SAMPLES_RETIRED: Counter = "archive_samples_retired_total",
        "Samples dropped by compaction's retention policy";
    pub(crate) SCAN_SKIPPED_BLOCKS: Counter = "archive_scan_skipped_blocks_total",
        "Unreadable or corrupt column blocks skipped by a scan";
}
