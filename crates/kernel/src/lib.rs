//! # tscout-kernel — simulated operating-system substrate
//!
//! The TScout paper (Butrovich et al., SIGMOD 2022) collects DBMS training
//! data through Linux kernel facilities: statically-defined tracepoints,
//! `perf_event` hardware counters, per-task I/O accounting (`task_struct`
//! / `ioac`), socket statistics (`tcp_sock`), and BPF programs running in
//! kernel mode. None of those facilities are portably available to a pure
//! Rust library, so this crate provides a *deterministic simulation* of the
//! kernel surface the paper depends on:
//!
//! * [`HardwareProfile`] — the machine: cores, clock, caches, storage, NIC.
//!   Presets mirror the paper's two testbeds (a 2×20-core Xeon server and a
//!   6-core laptop-class machine).
//! * [`Kernel`] — the kernel proper: task table, per-task virtual clocks,
//!   PMU state, tracepoint registry, and the syscall layer. Every unit of
//!   DBMS work is *charged* to a task, advancing its virtual clock and its
//!   hardware counters according to the [`CostModel`].
//! * [`Pmu`] — per-task performance counters with a limited number of
//!   hardware slots. Enabling more events than slots engages multiplexing,
//!   and reads return `(value, time_enabled, time_running)` so callers must
//!   normalize — exactly the normalization TScout's CPU probe performs.
//! * [`Tracepoint`]s — USDT-style markers. Firing an *enabled* tracepoint
//!   costs one user→kernel mode switch and hands control to whatever BPF
//!   programs are attached (program execution itself is mediated by the
//!   `tscout` crate, which owns the BPF VM).
//!
//! All timing in the simulation is **virtual**: each task owns a nanosecond
//! ledger advanced by the cost model. This makes every experiment in the
//! reproduction deterministic and host-independent while preserving the
//! *relative* costs the paper's evaluation hinges on (one mode switch for a
//! kernel-space probe vs. three syscalls for toggled user-space collection,
//! PMU save/restore on context switches, group-commit I/O batching, ...).
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]
#![deny(missing_debug_implementations)]

pub mod cost;
pub mod decls;
pub mod hw;
pub mod kernel;
pub mod pmu;
pub mod task;
pub mod tracepoint;

pub use cost::CostModel;
pub use hw::{HardwareProfile, StorageDevice};
pub use kernel::{Kernel, SyscallKind};
// Re-export the profiler surface so instrumented crates can name frame
// guards and read folded profiles without a direct telemetry dep.
pub use pmu::{CounterKind, Pmu, PmuReading, ALL_COUNTERS};
pub use task::{Ioac, TaskId, TaskStruct, TcpSock};
pub use tracepoint::{Tracepoint, TracepointArgs, TracepointId};
pub use tscout_telemetry::{
    Attribution, Frame, FrameGuard, FrameId, Profiler, DBMS, DEFAULT_PROFILE_PERIOD_NS, TSCOUT,
};
