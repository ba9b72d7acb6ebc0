//! The metric names this benchmark fixes. `BENCHMARK.json` lists the
//! same names in the same order (`tests/contract.rs` holds them
//! together); later issues state their claims in these names.

/// One metric definition: name, unit, and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// What a user of the pipeline sees; printed by every untraced run.
pub const END_TO_END: [Def; 8] = [
    def("setup_s", "s", "lower"),
    def("samples_per_s", "1/s", "higher"),
    def("txn_per_s", "1/s", "higher"),
    def("retrain_ms", "ms", "lower"),
    def("window_query_ms", "ms", "lower"),
    def("scrape_ms_p50", "ms", "lower"),
    def("bytes_per_sample", "B", "lower"),
    def("peak_rss_mb", "MB", "lower"),
];

/// Single-layer numbers; printed by every traced run (0 where the
/// workload bypasses the layer).
pub const PER_LAYER: [Def; 71] = [
    def("kernel.charge_ns", "ns", "lower"),
    def("bpf.vm_triple_ns", "ns", "lower"),
    def("bpf.vm_insns_per_triple", "count", "lower"),
    def("bpf.vm_ns_per_insn", "ns", "lower"),
    def("bpf.map_update_lookup_ns", "ns", "lower"),
    def("bpf.ring_push_drain_ns", "ns", "lower"),
    def("bpf.load_us", "us", "lower"),
    def("bpf.verify_us", "us", "lower"),
    def("core.marker_sampled_ns", "ns", "lower"),
    def("core.marker_unsampled_ns", "ns", "lower"),
    def("core.processor_decode_ns", "ns", "lower"),
    def("core.sample_path_us", "us", "lower"),
    def("core.marker_path_ns", "ns", "lower"),
    def("core.deploy_ms", "ms", "lower"),
    def("core.samples_begun", "count", "higher"),
    def("core.samples_delivered", "count", "higher"),
    def("core.samples_lost", "count", "lower"),
    def("db.txn_us", "us", "lower"),
    def("db.point_query_ns", "ns", "lower"),
    def("db.parse_plan_ns", "ns", "lower"),
    def("db.txns", "count", "higher"),
    def("workloads.setup_ms", "ms", "lower"),
    def("workloads.run_ms", "ms", "lower"),
    def("workloads.assign_templates_ns", "ns", "lower"),
    def("telemetry.counter_inc_ns", "ns", "lower"),
    def("telemetry.hist_record_ns", "ns", "lower"),
    def("telemetry.registry_clone_us", "us", "lower"),
    def("telemetry.series", "count", "lower"),
    def("telemetry.observability_tick_us", "us", "lower"),
    def("archive.append_ns", "ns", "lower"),
    def("archive.flush_ms", "ms", "lower"),
    def("archive.compact_ms", "ms", "lower"),
    def("archive.seal_ms", "ms", "lower"),
    def("archive.bytes_written_per_sample", "B", "lower"),
    def("archive.segments", "count", "lower"),
    def("archive.blocks", "count", "lower"),
    def("archive.compactions", "count", "lower"),
    def("archive.scan_ns", "ns", "lower"),
    def("archive.scan_ou_ns", "ns", "lower"),
    def("archive.reopen_ms", "ms", "lower"),
    def("models.datasets_ns", "ns", "lower"),
    def("models.train_ridge_ns", "ns", "lower"),
    def("models.train_forest_ns", "ns", "lower"),
    def("models.predict_ns", "ns", "lower"),
    def("models.points", "count", "higher"),
    def("actions.tick_ns", "ns", "lower"),
    def("obsd.metrics_idle_us", "us", "lower"),
    def("obsd.metrics_bytes", "B", "lower"),
    def("obsd.table_json_us", "us", "lower"),
    def("obsd.sql_us", "us", "lower"),
    def("obsd.scrape_ms_p95", "ms", "lower"),
    def("obsd.scrape_late_ms_p50", "ms", "lower"),
    def("obsd.scrapes", "count", "higher"),
    def("obsd.scrape_errors", "count", "lower"),
    def("stage.setup_ms", "ms", "lower"),
    def("stage.deploy_ms", "ms", "lower"),
    def("stage.collect_db_ms", "ms", "lower"),
    def("stage.collect_marker_ms", "ms", "lower"),
    def("stage.collect_sample_ms", "ms", "lower"),
    def("stage.tag_ms", "ms", "lower"),
    def("stage.archive_write_ms", "ms", "lower"),
    def("stage.archive_read_ms", "ms", "lower"),
    def("stage.train_ms", "ms", "lower"),
    def("stage.scrape_ms", "ms", "lower"),
    def("stage.other_ms", "ms", "lower"),
    def("bench.calib_ms", "ms", "lower"),
    def("bench.calib_spread_pct", "%", "lower"),
    def("bench.passes_retried", "count", "lower"),
    def("bench.passes_unsteady", "count", "lower"),
    def("bench.trace_overhead_pct", "%", "lower"),
    def("bench.stage_residual_pct", "%", "lower"),
];

/// The stage rows of the traced layer table, in pipeline order.
pub const STAGES: [&str; 11] = [
    "setup",
    "deploy",
    "collect_db",
    "collect_marker",
    "collect_sample",
    "tag",
    "archive_write",
    "archive_read",
    "train",
    "scrape",
    "other",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_metric_name;

    #[test]
    fn names_are_valid_unique_and_within_contract_limits() {
        let all: Vec<&Def> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for d in &all {
            assert!(valid_metric_name(d.name), "{}", d.name);
            assert!(!d.unit.is_empty() && d.unit.len() <= 16, "{}", d.unit);
            assert!(matches!(d.better, "lower" | "higher"));
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        for s in STAGES {
            let name = format!("stage.{s}_ms");
            assert!(PER_LAYER.iter().any(|d| d.name == name), "{name}");
        }
    }
}
