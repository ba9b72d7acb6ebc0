//! # tscout-archive — the training-data archive
//!
//! TScout's Processor "archives training data for OU-level behavior
//! models" (paper §3.2). This crate is that archive: an **append-only,
//! segmented, columnar per-OU sample store** with bounded write-side
//! memory, background compaction and crash recovery — the durable stage
//! between the Collector→Processor pipeline and model training. It keeps
//! every row it is given.
//!
//! Layout (SciTS-style segmented time series):
//!
//! * [`Sample`]s, the one owned training row, are appended (owned or
//!   borrowed) to **per-OU memtables**, one per OU id holding one OU
//!   name's rows; a memtable flush encodes one columnar block
//!   (delta+varint or frame-of-reference bit-packed per column, the
//!   feature column as zigzagged integers when every value is one and
//!   that is smaller; CRC32-framed) into the active segment file, whose
//!   header carries format version 2 (version 1, without the integer
//!   form, reads the same).
//! * Segments **seal** once large enough: a sealed segment takes no more
//!   blocks and is never rewritten. The blocks are the manifest; a
//!   segment has no footer.
//! * **Compaction** merges runs of small sealed segments into one by
//!   copying their block frames byte for byte, in order, one frame at a
//!   time: no row is decoded or re-encoded, so every row keeps its place.
//!   An OU is its [`OuEntry`] (id and name): one id under two names is
//!   two OUs.
//! * **Recovery** only reads: opening a directory lists every block
//!   frame that passes its CRC and decode (the one decoder, storing no
//!   values), and steps byte by byte through
//!   anything else (a torn tail, a damaged head, a failed CRC) to the next
//!   one, counting each damaged span once in
//!   `archive_scan_skipped_blocks_total`. A damaged frame costs only its
//!   own rows, wherever it sits; no file is cut. A flipped magic costs
//!   nothing, and a segment of an unknown format version is refused.
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
// Decoded input is narrowed with `try_from`, or where it provably fits
// under an `allow` that says why; an `expect` states its invariant under
// an `allow`; a discarded result says `// ignored: <reason>`. Test
// fixtures do as they like.
#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::let_underscore_must_use
    )
)]

mod compact;
mod crc32;
pub mod decls;
mod encode;
mod segment;
mod store;

pub use crc32::crc32;
pub use segment::{BlockMeta, ColumnBatch, OuEntry, Projection, VarColumn};
pub use store::{Archive, ArchiveStats, BatchScan, SampleScan};

/// One training sample (paper §3.2: an OU's features and metrics): the
/// Processor's decoded output, untagged, and the row the archive stores
/// once the driver has set its `template` in place.
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
    /// A copy tagged with `template`. Kept for `benchmark/src/mix.rs`,
    /// which archives owned copies; the lifecycle tags in place instead.
    pub fn to_sample(&self, template: u32) -> Sample {
        let mut s = self.clone();
        s.template = template;
        s
    }

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
}

impl Default for ArchiveOptions {
    fn default() -> Self {
        ArchiveOptions {
            memtable_flush_samples: 512,
            max_buffered_samples: 8_192,
            segment_max_bytes: 1 << 20,
            compact_fanin: 4,
            small_segment_bytes: 1 << 19,
        }
    }
}

/// Archive errors. Corruption inside segment files is *recovered*, not
/// errored — `Corrupt` only surfaces for a segment of an unknown format
/// version, or a block a manifest points at that compaction cannot read.
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
