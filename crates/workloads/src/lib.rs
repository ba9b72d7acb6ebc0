//! # tscout-workloads — benchmarks, offline runners, and the driver
//!
//! The paper's evaluation workloads (§6.1), reimplemented against the
//! NoiseTap DBMS:
//!
//! * [`ycsb::Ycsb`] — read-only point lookups on a 10×100-byte-field
//!   table;
//! * [`smallbank::SmallBank`] — six banking transactions plus the added
//!   transfer;
//! * [`tatp::Tatp`] — telecom caller-location transactions with a
//!   secondary-index indirection path;
//! * [`tpcc::Tpcc`] — order processing: nine tables, five transaction
//!   types, warehouse scaling;
//! * [`chbenchmark::ChBenchmark`] — HTAP: TPC-C plus TPC-H-flavored
//!   analytical queries;
//! * [`runner::OfflineRunner`] — the per-OU microbenchmark sweeps that
//!   produce *offline* training data (§2.4);
//! * [`driver`] — the BenchBase-equivalent multi-terminal driver with
//!   virtual-time scheduling, trace capture, and dataset assembly.
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod chbenchmark;
pub mod decls;
pub mod driver;
pub mod runner;
pub mod smallbank;
pub mod tatp;
pub mod tpcc;
pub mod util;
pub mod ycsb;

pub use chbenchmark::ChBenchmark;
pub use driver::{
    assign_templates, build_datasets, collect_datasets, run, run_with_lifecycle, tag_templates,
    ModelLifecycle, RunOptions, RunStats, TxnCtx, Workload,
};
pub use runner::OfflineRunner;
pub use smallbank::SmallBank;
pub use tatp::Tatp;
pub use tpcc::Tpcc;
pub use ycsb::Ycsb;
