//! `tsbench` — the repo's wall-clock benchmark. See `README.md`.
#![forbid(unsafe_code)]

pub mod ingest;
pub mod kernels;
pub mod metrics;
pub mod mix;
pub mod noise;
pub mod probe;
pub mod report;
pub mod run;
pub mod stamp;
pub mod stats;
pub mod trace;
