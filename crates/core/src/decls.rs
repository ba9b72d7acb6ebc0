//! Metric declarations of this crate (see
//! [`tscout_telemetry::declare_metrics`]). The loss counters and
//! `processor_decode_errors_total` are declared in
//! [`tscout_telemetry::decls`], because the stock health rules and the
//! action engine (which does not depend on this crate) read them.

tscout_telemetry::declare_metrics! {
    /// Every metric declared in `tscout-core`.
    pub DECLS:
    pub(crate) PROCESSOR_BUFFERED_SAMPLES: Gauge = "processor_buffered_samples",
        "Decoded samples buffered in the Processor's sink";
    pub(crate) PROCESSOR_DEAGG_FANOUT: Hist = "processor_deagg_fanout",
        "Training points produced per ring record (fused de-aggregation)";
    pub(crate) PROCESSOR_DRAIN_NS: Hist = "processor_drain_ns", "Virtual duration of full ring drains";
    pub(crate) PROCESSOR_POINTS: Counter = "processor_points_total",
        "Training points produced by the Processor";
    pub(crate) PROCESSOR_POLL_NS: Hist = "processor_poll_ns", "Virtual duration of Processor poll slices";
    pub(crate) PROCESSOR_RATE_REDUCTIONS: Counter = "processor_rate_reductions_total",
        "Times the loss-feedback hook recommended halving the sampling rate";
    pub(crate) PROCESSOR_RECORDS: Counter = "processor_records_total",
        "Ring records the Processor consumed";
    pub(crate) BPF_INSNS_EXECUTED: Gauge = "tscout_bpf_insns_executed",
        "BPF instructions executed by the Collector's VM (cumulative)";
    pub(crate) MAP_DELETES: Gauge = "tscout_map_deletes",
        "BPF map delete operations, summed over every map";
    pub(crate) MAP_LOOKUPS: Gauge = "tscout_map_lookups",
        "BPF map lookup operations, summed over every map";
    pub(crate) MAP_UPDATES: Gauge = "tscout_map_updates",
        "BPF map update operations, summed over every map";
    pub(crate) MARKER_EVENTS: Counter = "tscout_marker_events_total",
        "Marker invocations (begin/end/features) per subsystem";
    pub(crate) OU_SAMPLES_BEGUN: Counter = "tscout_ou_samples_begun_total",
        "OU collections begun, per OU — the loss-accounting numerator";
    pub(crate) OU_SAMPLES_DELIVERED: Counter = "tscout_ou_samples_delivered_total",
        "OU samples that survived to the Processor, per OU";
    pub(crate) RING_BYTES: Gauge = "tscout_ring_bytes", "Bytes currently occupying the perf ring buffer";
    pub(crate) RING_CAPACITY: Gauge = "tscout_ring_capacity",
        "Configured perf ring buffer capacity, records";
    pub(crate) RING_DRAINED: Gauge = "tscout_ring_drained",
        "Records drained from the ring (cumulative, mirrored as a gauge)";
    pub(crate) RING_DROPPED: Gauge = "tscout_ring_dropped",
        "Records overwritten in the ring (cumulative, mirrored as a gauge)";
    pub(crate) RING_OCCUPANCY_HWM: Gauge = "tscout_ring_occupancy_hwm",
        "High-water mark of ring occupancy, records";
    pub(crate) RING_PRODUCED: Gauge = "tscout_ring_produced",
        "Records produced into the ring (cumulative, mirrored as a gauge)";
    pub(crate) RING_PUSHES: Gauge = "tscout_ring_pushes",
        "Push operations on the ring (cumulative, mirrored as a gauge)";
    pub(crate) SAMPLES_BEGUN: Counter = "tscout_samples_begun_total",
        "Samples begun, per subsystem — the loss-accounting numerator";
    pub(crate) SAMPLES_DELIVERED: Counter = "tscout_samples_delivered_total",
        "Samples delivered ring→Processor, per subsystem";
    pub(crate) SAMPLING_RATE: Gauge = "tscout_sampling_rate",
        "Current per-subsystem sampling rate (0-255)";
    pub(crate) SAMPLING_RATE_CHANGES: Counter = "tscout_sampling_rate_changes_total",
        "Runtime sampling-rate adjustments, per subsystem";
    pub(crate) STATE_MACHINE_RESETS: Counter = "tscout_state_machine_resets_total",
        "OU marker state machines reset after protocol violations";
    pub(crate) VERIFY_INSNS: Gauge = "tscout_verify_insns",
        "Instructions in the Collector programs, summed over every load — the deployed program size";
    pub(crate) VERIFY_INSNS_VISITED: Gauge = "tscout_verify_insns_visited",
        "Instructions the verifier visited, summed over every load";
    pub(crate) VERIFY_RUNS: Gauge = "tscout_verify_runs", "Collector programs verified";
}

use tscout_kernel::Frame;

// Profiler frames this crate pushes, each interned on first use.
pub(crate) static BPF_VM: Frame = Frame::new("bpf:vm");
pub(crate) static COLLECTOR_BEGIN: Frame = Frame::new("collector:begin");
pub(crate) static COLLECTOR_END: Frame = Frame::new("collector:end");
pub(crate) static COLLECTOR_FEATURES: Frame = Frame::new("collector:features");
pub(crate) static EMIT_USER: Frame = Frame::new("emit:user");
pub(crate) static PROCESSOR_DRAIN: Frame = Frame::new("processor:drain");
pub(crate) static PROCESSOR_POLL: Frame = Frame::new("processor:poll");
pub(crate) static PROCESSOR_SKETCH: Frame = Frame::new("processor:sketch");
pub(crate) static PROCESSOR_TRACE: Frame = Frame::new("processor:trace");
