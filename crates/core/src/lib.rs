//! # TScout — training data collection for self-driving DBMSs
//!
//! A Rust reproduction of the TScout framework (Butrovich et al.,
//! *"Tastes Great! Less Filling! High Performance and Accurate Training
//! Data Collection for Self-Driving Database Management Systems"*,
//! SIGMOD 2022).
//!
//! TScout collects *training data* — operating-unit (OU) input features
//! paired with low-level hardware metrics — from a DBMS while it executes
//! a production workload. The pieces map one-to-one onto the paper:
//!
//! * **Markers** (§3.1): the DBMS annotates each OU with a
//!   `BEGIN`/`END`/`FEATURES` triple. The marker API lives on [`TScout`]
//!   ([`TScout::ou_begin`], [`TScout::ou_end`], [`TScout::ou_features`]);
//!   marker sites register kernel tracepoints at deploy time.
//! * **Codegen** (§3.1): [`codegen`] emits *real BPF bytecode* (for the
//!   `tscout-bpf` VM) per subsystem, tailored to the probe set the
//!   developer selected. The programs are straight-line (per-counter
//!   work is emitted once per slot), pass the verifier, and are a few
//!   hundred instructions long, as in the paper; what codegen emits is
//!   what runs.
//! * **Collector** (§3.2): the loaded BPF programs plus their maps — a
//!   depth-aware begin map (which subsumes the paper's stack-map handling
//!   of recursive operators, §5.2), a done map, and the perf-event ring
//!   buffer toward user space.
//! * **Probes** (§4): CPU (perf counters with multiplexing
//!   normalization), network (`tcp_sock`), and disk (`task_struct`
//!   `ioac`) are kernel-level; memory is the user-level probe whose
//!   values the DBMS reports at the `FEATURES` marker.
//! * **Processor** (§3.2): a user-space component that drains the ring
//!   buffer, decodes and de-aggregates samples (operator fusion, §5.2),
//!   and archives [`TrainingPoint`]s.
//! * **Sampling** (§5.3): per-subsystem 100-bit sampling fields with
//!   shuffled bits and per-thread offsets, adjustable at runtime.
//! * **Collection modes** (§6.2): [`CollectionMode::KernelContinuous`]
//!   (the TScout design), plus the [`CollectionMode::UserToggle`] and
//!   [`CollectionMode::UserContinuous`] baselines the paper compares
//!   against.
//!
//! ## Quick start
//!
//! ```
//! use tscout_kernel::{HardwareProfile, Kernel};
//! use tscout::{CollectionMode, ProbeSet, Subsystem, TScout, TsConfig};
//!
//! let mut kernel = Kernel::new(HardwareProfile::server_2x20());
//! let mut config = TsConfig::new(CollectionMode::KernelContinuous);
//! config.enable_subsystem(Subsystem::ExecutionEngine, ProbeSet::cpu_only());
//! let mut ts = TScout::deploy(&mut kernel, config).unwrap();
//!
//! let ou = ts.register_ou("seq_scan", Subsystem::ExecutionEngine, 2);
//! ts.set_sampling_rate(Subsystem::ExecutionEngine, 100);
//!
//! let worker = kernel.create_task();
//! ts.ou_begin(&mut kernel, worker, ou);
//! kernel.charge_cpu(worker, 50_000.0, 1 << 16); // the OU's work
//! ts.ou_end(&mut kernel, worker, ou);
//! ts.ou_features(&mut kernel, worker, ou, &[1000, 8], &[4096]);
//!
//! let samples = ts.drain_decoded();
//! assert_eq!(samples.len(), 1);
//! assert!(samples[0].elapsed_ns > 0);
//! ```
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod codegen;
pub mod collector;
pub mod data;
pub mod decls;
pub mod ou;
pub mod processor;
pub mod sampling;

pub use collector::{CollectionMode, LossTotals, ProbeSet, TScout, TsConfig, TsError, TsStats};
pub use data::{decode_record, encode_record, RawRecord, TrainingPoint, MAX_PAYLOAD_WORDS};
pub use ou::{OuDef, OuId, OuRegistry, Subsystem, ALL_SUBSYSTEMS};
pub use processor::{Processor, Sink, SubsystemFeedback};
pub use sampling::Sampler;
