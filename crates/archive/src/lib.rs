//! # tscout-archive — the training-data archive
//!
//! TScout's Processor "archives training data for OU-level behavior
//! models" (paper §3.2). This crate is that archive: an **append-only,
//! segmented, columnar per-OU sample store** with bounded write-side
//! memory, background compaction, per-OU retention, and crash recovery —
//! the durable stage between the Collector→Processor pipeline and model
//! training.
//!
//! Layout (SciTS-style segmented time series):
//!
//! * [`Sample`]s are appended to **per-OU memtables**; a memtable flush
//!   encodes one columnar block (delta+varint or frame-of-reference
//!   bit-packed per column, CRC32-framed) into the active segment file.
//! * Segments **seal** with a footer manifest once large enough; sealed
//!   segments are immutable.
//! * **Compaction** merges runs of small sealed segments and applies the
//!   per-OU retention budget (oldest samples beyond it are retired).
//! * **Recovery**: opening a directory tolerates torn/truncated tails —
//!   the file is truncated back to its last CRC-valid frame and the
//!   event is counted in `archive_recovered_truncations_total`.
//! * **Scans** stream the archive back block-by-block (never
//!   materializing it) as [`ColumnBatch`]es — one block decoder
//!   ([`ColumnBatch::decode`]) refilling one reused set of column
//!   buffers with the columns a [`Projection`] names. Training reads
//!   those columns directly; [`Archive::scan_ou`] / [`Archive::scan_all`]
//!   turn the rows back into [`Sample`]s **bit-identically**, floats
//!   included (`f64::to_bits` round-trip).
//!
//! Everything is hand-rolled on `std` only; the workspace builds fully
//! offline.
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

mod compact;
mod crc32;
pub mod decls;
mod encode;
mod segment;
mod store;

pub use crc32::crc32;
pub use segment::{BlockMeta, ColumnBatch, OuEntry, Projection, VarColumn};
pub use store::{Archive, ArchiveStats, BatchScan, SampleScan};

/// One archived training sample — the Processor's decoded
/// `TrainingPoint` plus its query-template tag (0 = untagged /
/// background work).
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub ou: u16,
    pub ou_name: String,
    /// Subsystem index (`tscout::Subsystem::index()`).
    pub subsystem: u8,
    pub tid: u32,
    /// Query template that produced the sample (0 = untagged).
    pub template: u32,
    pub start_ns: u64,
    /// Target metric: OU elapsed execution time.
    pub elapsed_ns: u64,
    /// Kernel-probe metrics in the subsystem's probe order.
    pub metrics: Vec<u64>,
    /// OU input features.
    pub features: Vec<f64>,
    /// User-level probe metrics.
    pub user_metrics: Vec<u64>,
}

impl Sample {
    /// Bit-exact equality: features compare by `to_bits`, so NaNs and
    /// signed zeros count as equal to themselves (unlike `==`).
    pub fn bits_eq(&self, other: &Sample) -> bool {
        self.ou == other.ou
            && self.ou_name == other.ou_name
            && self.subsystem == other.subsystem
            && self.tid == other.tid
            && self.template == other.template
            && self.start_ns == other.start_ns
            && self.elapsed_ns == other.elapsed_ns
            && self.metrics == other.metrics
            && self.features.len() == other.features.len()
            && self
                .features
                .iter()
                .zip(&other.features)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && self.user_metrics == other.user_metrics
    }
}

/// Archive tuning knobs. The defaults bound write-side memory at
/// `max_buffered_samples` decoded samples regardless of OU count.
#[derive(Debug, Clone)]
pub struct ArchiveOptions {
    /// Flush an OU's memtable once it holds this many samples.
    pub memtable_flush_samples: usize,
    /// Global cap on buffered samples across all memtables; exceeding it
    /// force-flushes the largest memtable (the write-side memory bound).
    pub max_buffered_samples: usize,
    /// Seal the active segment once it holds this many bytes.
    pub segment_max_bytes: u64,
    /// Compact once this many contiguous small sealed segments exist.
    pub compact_fanin: usize,
    /// A sealed segment below this size is a compaction candidate.
    pub small_segment_bytes: u64,
    /// Retention budget: newest samples kept per OU across the whole
    /// archive (`usize::MAX` = keep everything). Enforced at compaction.
    pub retention_per_ou: usize,
}

impl Default for ArchiveOptions {
    fn default() -> Self {
        ArchiveOptions {
            memtable_flush_samples: 512,
            max_buffered_samples: 8_192,
            segment_max_bytes: 1 << 20,
            compact_fanin: 4,
            small_segment_bytes: 1 << 19,
            retention_per_ou: usize::MAX,
        }
    }
}

/// Archive errors. Corruption inside segment files is *recovered*, not
/// errored — `Corrupt` only surfaces for unusable directories or blocks
/// that a manifest points at but cannot be decoded.
#[derive(Debug)]
pub enum ArchiveError {
    Io(std::io::Error),
    Corrupt(String),
}

impl From<std::io::Error> for ArchiveError {
    fn from(e: std::io::Error) -> Self {
        ArchiveError::Io(e)
    }
}

impl std::fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchiveError::Io(e) => write!(f, "archive io error: {e}"),
            ArchiveError::Corrupt(m) => write!(f, "archive corrupt: {m}"),
        }
    }
}

impl std::error::Error for ArchiveError {}
