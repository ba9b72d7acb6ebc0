//! # tscout-suite — the TScout reproduction, in one import
//!
//! Umbrella crate re-exporting the whole workspace:
//!
//! * [`kernel`] (`tscout-kernel`) — the simulated OS substrate;
//! * [`bpf`] (`tscout-bpf`) — the BPF-style VM, verifier, and maps;
//! * [`tscout`] — the TScout framework itself (the paper's contribution);
//! * [`noisetap`] — the NoisePage-style DBMS substrate;
//! * [`archive`] (`tscout-archive`) — the columnar per-OU training-data
//!   archive (segments, compaction, crash recovery);
//! * [`models`] (`tscout-models`) — OU behavior models plus the
//!   generation-counted model registry;
//! * [`workloads`] (`tscout-workloads`) — YCSB/SmallBank/TATP/TPC-C/
//!   CH-benCHmark, offline runners, and the virtual-time driver;
//! * [`telemetry`] (`tscout-telemetry`) — the self-telemetry layer
//!   (metrics registry, sample-lineage tracing, snapshot export);
//! * [`actions`] (`tscout-actions`) — the autonomous action engine that
//!   closes the self-driving loop (policies, guardrails, follow-ups);
//! * [`obsd`] (`tscout-obsd`) — the operator plane: an embedded HTTP
//!   daemon serving live OpenMetrics/JSON views of a running pipeline,
//!   plus the `tscoutctl` CLI;
//! * [`rng`] (`tscout-rng`) — the in-workspace deterministic RNG that
//!   backs the `rand` alias.
//!
//! See `examples/quickstart.rs` for the fastest path to collecting
//! training data, and `tscout-bench <name>` for the paper's figures.
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub use noisetap;
pub use tscout;
pub use tscout_actions as actions;
pub use tscout_archive as archive;
pub use tscout_bpf as bpf;
pub use tscout_kernel as kernel;
pub use tscout_models as models;
pub use tscout_obsd as obsd;
pub use tscout_rng as rng;
pub use tscout_telemetry as telemetry;
pub use tscout_workloads as workloads;
