//! Metric declarations of this crate (see
//! [`tscout_telemetry::declare_metrics`]).

tscout_telemetry::declare_metrics! {
    /// Every metric declared in `tscout-kernel`.
    pub DECLS:
    pub(crate) CONTEXT_SWITCHES: Counter = "kernel_context_switches_total",
        "Context switches charged by the virtual kernel, split by PMU save/restore";
    pub(crate) MODE_SWITCHES: Counter = "kernel_mode_switches_total",
        "User/kernel mode switches charged by the virtual kernel";
    pub(crate) SYSCALLS: Counter = "kernel_syscalls_total", "Syscalls charged by the virtual kernel";
    pub(crate) TRACEPOINT_HITS: Counter = "kernel_tracepoint_hits_total",
        "Kernel tracepoint activations (Collector attach points)";
    pub(crate) WAL_BYTES: Counter = "kernel_wal_bytes_total",
        "Bytes written through the virtual WAL device";
    pub(crate) WAL_WRITE_NS: Hist = "kernel_wal_write_ns", "Virtual duration of WAL device writes";
}
