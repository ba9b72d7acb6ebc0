//! # NoiseTap — a NoisePage-style DBMS substrate
//!
//! The paper integrates TScout into NoisePage, "a PostgreSQL-compatible
//! DBMS that uses HyPer-style MVCC over Apache Arrow in-memory columnar
//! data" with an OU-granular execution engine, a networking layer, and a
//! group-commit WAL (log serializer + disk writer). NoiseTap is this
//! repository's from-scratch equivalent:
//!
//! * [`storage`] — in-memory versioned tuple storage (MVCC chains);
//! * [`txn`] — snapshot transactions, first-writer-wins conflicts;
//! * [`index`] — from-scratch B+-tree and open-addressing hash indexes;
//! * [`sql`] — lexer, parser, and planner for the workloads' dialect;
//! * [`exec`] — the OU-granular execution engine with per-operator or
//!   fused-pipeline TScout markers (paper §5.2);
//! * [`wal`] — group-commit log serializer + disk writer subsystems;
//! * [`engine`] — the [`engine::Database`] façade: sessions, prepared
//!   statements, simulated client networking, GC, background pumps.
//!
//! All timing is virtual: DBMS work is charged to the simulated kernel
//! (`tscout-kernel`), so experiments are deterministic and the collected
//! training data reflects a controllable ground-truth cost model.
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod catalog;
pub mod decls;
pub mod engine;
pub mod exec;
pub mod index;
pub mod sql;
pub mod stat;
pub mod storage;
pub mod txn;
pub mod types;
pub mod wal;

pub use engine::{Database, DbError, SessionId, StatementId};
pub use exec::ou::{EngineOu, OuMap, ALL_ENGINE_OUS};
pub use exec::{EngineMode, ExecOutcome};
pub use types::{DataType, Row, Value};
