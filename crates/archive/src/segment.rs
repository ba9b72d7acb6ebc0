//! Segment file format: a header and a sequence of framed columnar blocks.
//!
//! A segment file is an append-only sequence of CRC-framed records:
//!
//! ```text
//! file   := magic "TSAR" , u8 version (2; 1 is read too) , frame*
//! frame  := u8 kind (1=block | 2=legacy footer)
//!         , u32le payload_len
//!         , payload
//!         , u32le crc32(payload)
//! ```
//!
//! A **block** holds one OU's samples from one memtable flush, stored
//! column-wise (see [`crate::encode`]); its header names the OU (id and
//! name), the row count and the rows' `start_ns` range. The frames are
//! the manifest. One function frames a payload ([`put_frame`], into a
//! buffer the writer sends out in one positional write; compaction
//! copies frames whole) and one reads a block frame
//! ([`read_block_frame`]: kind, length, bounds and CRC in one positional
//! read); recovery, which knows no lengths, finds the frames by their
//! heads ([`HeadReader`]). Earlier builds ended a sealed segment with a
//! footer frame (kind 2), a known kind stepped over unread. Version 2
//! added column tag 2 ([`crate::encode`]); a version-1 segment holds
//! tags 0 and 1 only and reads the same. Another version under the right
//! magic is refused, so an older build leaves a version-2 segment
//! untouched instead of stepping over its blocks as damage; any other
//! header is read for frames like a good one.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;

use crate::encode::{
    get_column, get_varint, put_column, put_float_column, put_varint, skip_column, ColumnSink,
    Tally, Watch,
};
use crate::{crc32::crc32, Sample};

/// File magic ("TScout ARchive").
pub(crate) const MAGIC: &[u8; 4] = b"TSAR";
/// Format version written: 2, since the feature column's tag 2.
pub(crate) const VERSION: u8 = 2;
/// The oldest format version read.
pub(crate) const OLDEST_VERSION: u8 = 1;
/// Frame kind: columnar sample block.
pub(crate) const FRAME_BLOCK: u8 = 1;
/// Frame kind: the footer manifest earlier builds wrote at seal; read
/// past, never written.
pub(crate) const FRAME_FOOTER: u8 = 2;
/// Bytes of frame overhead around a payload (kind + len + crc).
pub(crate) const FRAME_OVERHEAD: usize = 1 + 4 + 4;
/// Header bytes before the first frame.
pub(crate) const HEADER_LEN: u64 = 5;
/// Sanity cap on a single frame payload (a torn length field must not
/// trigger a huge allocation).
pub(crate) const MAX_FRAME_LEN: u32 = 1 << 28;

/// Manifest entry for one block, kept in memory per open segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMeta {
    /// File offset of the frame's kind byte.
    pub offset: u64,
    pub payload_len: u32,
    pub ou: u16,
    pub count: u64,
}

/// One OU's identity as every block header records it: id, subsystem
/// and name together, so one id under two names is two OUs.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct OuEntry {
    pub ou: u16,
    pub subsystem: u8,
    pub name: String,
}

/// Which columns of a block [`ColumnBatch::decode`] materialises. A
/// column left out is stepped over by its self-described byte length
/// and reads back empty; its bytes are still under the frame CRC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Projection {
    pub tid: bool,
    pub template: bool,
    pub start_ns: bool,
    pub elapsed_ns: bool,
    pub metrics: bool,
    pub features: bool,
    pub user_metrics: bool,
}

impl Projection {
    /// Every column: what a [`Sample`] needs.
    pub const ALL: Projection = Projection {
        tid: true,
        template: true,
        start_ns: true,
        elapsed_ns: true,
        metrics: true,
        features: true,
        user_metrics: true,
    };
    /// No column (row count and OU identity only); the base for
    /// `Projection { elapsed_ns: true, ..Projection::NONE }`.
    pub const NONE: Projection = Projection {
        tid: false,
        template: false,
        start_ns: false,
        elapsed_ns: false,
        metrics: false,
        features: false,
        user_metrics: false,
    };

    /// In block column order, matching [`ColumnBatch::fixed`].
    fn fixed(self) -> [bool; 4] {
        [self.tid, self.template, self.start_ns, self.elapsed_ns]
    }

    /// In block column order, matching [`ColumnBatch::var`].
    fn var(self) -> [bool; 3] {
        [self.metrics, self.features, self.user_metrics]
    }
}

/// A variable-length column: one length per row plus every row's values
/// back to back. Fields are private because `lens` must sum to
/// `flat.len()` for [`VarColumn::rows`] to slice without panicking.
/// (`C` is what the two columns decode into; see [`ColumnBatch`].)
#[derive(Debug, Clone, Default)]
pub struct VarColumn<C = Vec<u64>> {
    lens: C,
    flat: C,
}

impl VarColumn {
    /// Values per row.
    pub fn lens(&self) -> &[u64] {
        &self.lens
    }

    /// Every row's values, concatenated in row order.
    pub fn flat(&self) -> &[u64] {
        &self.flat
    }

    /// One slice of values per row, in row order.
    // Fits: decode checked that the lengths add up to `flat.len()`.
    #[allow(clippy::cast_possible_truncation)]
    pub fn rows(&self) -> impl Iterator<Item = &[u64]> + '_ {
        let mut rest = self.flat.as_slice();
        self.lens.iter().map(move |&len| {
            let (row, tail) = rest.split_at(len as usize);
            rest = tail;
            row
        })
    }

    fn push(&mut self, row: impl ExactSizeIterator<Item = u64>) {
        self.lens.push(row.len() as u64);
        self.flat.extend(row);
    }
}

// (The bounds are per method: no public item names the crate's
// `ColumnSink`.)
impl<C> VarColumn<C> {
    fn clear(&mut self)
    where
        C: ColumnSink,
    {
        self.lens.clear();
        self.flat.clear();
    }

    /// Decode (or step over) the length column and the flat column at
    /// `*pos` of a block of `n` rows.
    fn decode(&mut self, payload: &[u8], pos: &mut usize, n: usize, wanted: bool) -> Option<()>
    where
        C: ColumnSink,
    {
        if !wanted {
            self.clear();
            let lens = skip_column(payload, pos)?;
            skip_column(payload, pos)?;
            return (lens == n).then_some(());
        }
        get_column(payload, pos, &mut self.lens)?;
        get_column(payload, pos, &mut self.flat)?;
        let total = self.lens.sum()?;
        (self.lens.len() == n && total == self.flat.len() as u64).then_some(())
    }
}

const TID: usize = 0;
const TEMPLATE: usize = 1;
const START_NS: usize = 2;
const ELAPSED_NS: usize = 3;
const METRICS: usize = 0;
const FEATURES: usize = 1;
const USER_METRICS: usize = 2;

/// One block's rows as columns: the OU identity once, one `u64` column
/// per scalar field and one [`VarColumn`] per vector field (feature
/// values as `f64::to_bits`). It is the archive's one in-memory row
/// container — memtables fill it by [`ColumnBatch::push`] and flush it
/// as one block, block decode refills it in place — and every buffer
/// keeps its capacity across refills, so a scan allocates per block
/// only while the buffers are still growing.
///
/// Fields are private: every projected column holds exactly
/// [`ColumnBatch::len`] rows, a projected-out column none.
///
/// `C` is what a column decodes into. Recovery checks blocks through a
/// [`BlockCheck`], whose columns keep only what the checks read of their
/// values: the same decoder, storing none of them.
#[derive(Debug, Clone, Default)]
pub struct ColumnBatch<C = Vec<u64>> {
    ou: OuEntry,
    rows: usize,
    /// `tid`, `template`, `start_ns`, `elapsed_ns` — block column order.
    fixed: [C; 4],
    /// `metrics`, `features`, `user_metrics` — block column order.
    var: [VarColumn<C>; 3],
}

/// A block decoder that stores no values: it accepts exactly the payloads
/// `decode(_, Projection::ALL)` accepts, with the same OU and row count.
pub(crate) type BlockCheck = ColumnBatch<Tally>;

impl<C> ColumnBatch<C> {
    /// The OU every row of this batch belongs to.
    pub fn ou(&self) -> &OuEntry {
        &self.ou
    }

    /// Rows in the batch (whatever the projection).
    pub fn len(&self) -> usize {
        self.rows
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The manifest entry of this batch as the block whose frame is at
    /// `offset` with `payload_len` payload bytes.
    pub(crate) fn meta(&self, offset: u64, payload_len: u32) -> BlockMeta {
        BlockMeta {
            offset,
            payload_len,
            ou: self.ou.ou,
            count: self.rows as u64,
        }
    }
}

impl ColumnBatch {
    /// An empty batch that rows of `ou` will be pushed into.
    pub(crate) fn for_ou(ou: OuEntry) -> Self {
        ColumnBatch {
            ou,
            ..ColumnBatch::default()
        }
    }

    /// Make room for `rows` more rows, each with as many vector values
    /// as `like`, so that pushing them regrows no column.
    pub(crate) fn reserve(&mut self, rows: usize, like: &Sample) {
        self.fixed.iter_mut().for_each(|col| col.reserve(rows));
        let widths = [
            like.metrics.len(),
            like.features.len(),
            like.user_metrics.len(),
        ];
        for (col, width) in self.var.iter_mut().zip(widths) {
            col.lens.reserve(rows);
            col.flat.reserve(rows.saturating_mul(width));
        }
    }

    pub fn tid(&self) -> &[u64] {
        &self.fixed[TID]
    }

    pub fn template(&self) -> &[u64] {
        &self.fixed[TEMPLATE]
    }

    pub fn start_ns(&self) -> &[u64] {
        &self.fixed[START_NS]
    }

    pub fn elapsed_ns(&self) -> &[u64] {
        &self.fixed[ELAPSED_NS]
    }

    pub fn metrics(&self) -> &VarColumn {
        &self.var[METRICS]
    }

    /// Feature values as `f64::to_bits`.
    pub fn features(&self) -> &VarColumn {
        &self.var[FEATURES]
    }

    pub fn user_metrics(&self) -> &VarColumn {
        &self.var[USER_METRICS]
    }

    pub(crate) fn clear(&mut self) {
        self.rows = 0;
        self.fixed.iter_mut().for_each(Vec::clear);
        self.var.iter_mut().for_each(VarColumn::clear);
    }

    /// Append one sample (of this batch's OU) as a row.
    pub(crate) fn push(&mut self, s: &Sample) {
        self.rows += 1;
        self.fixed[TID].push(s.tid as u64);
        self.fixed[TEMPLATE].push(s.template as u64);
        self.fixed[START_NS].push(s.start_ns);
        self.fixed[ELAPSED_NS].push(s.elapsed_ns);
        self.var[METRICS].push(s.metrics.iter().copied());
        self.var[FEATURES].push(s.features.iter().map(|f| f.to_bits()));
        self.var[USER_METRICS].push(s.user_metrics.iter().copied());
    }

    /// Row `row` of a fully projected batch as an owned [`Sample`].
    /// `flat_at` is the caller's cursor into the three flat columns: all
    /// zeros before row 0, advanced here, so rows are taken in order.
    // Fits: decode checked the lengths against `flat` and `tid` and
    // `template` against `u32::MAX`.
    #[allow(clippy::cast_possible_truncation)]
    pub(crate) fn sample(&self, row: usize, flat_at: &mut [usize; 3]) -> Sample {
        let mut values = |col: usize| {
            let from = flat_at[col];
            flat_at[col] += self.var[col].lens[row] as usize;
            &self.var[col].flat[from..flat_at[col]]
        };
        Sample {
            ou: self.ou.ou,
            ou_name: self.ou.name.clone(),
            subsystem: self.ou.subsystem,
            tid: self.fixed[TID][row] as u32,
            template: self.fixed[TEMPLATE][row] as u32,
            start_ns: self.fixed[START_NS][row],
            elapsed_ns: self.fixed[ELAPSED_NS][row],
            metrics: values(METRICS).to_vec(),
            features: values(FEATURES)
                .iter()
                .map(|b| f64::from_bits(*b))
                .collect(),
            user_metrics: values(USER_METRICS).to_vec(),
        }
    }

    /// Append every row of a fully populated batch to `out` as one block
    /// payload.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        let start_ns = &self.fixed[START_NS];
        put_varint(out, self.ou.ou as u64);
        out.push(self.ou.subsystem);
        put_varint(out, self.ou.name.len() as u64);
        out.extend_from_slice(self.ou.name.as_bytes());
        put_varint(out, self.rows as u64);
        put_varint(out, start_ns.iter().copied().min().unwrap_or(0));
        put_varint(out, start_ns.iter().copied().max().unwrap_or(0));
        for col in &self.fixed {
            put_column(out, col);
        }
        for (i, col) in self.var.iter().enumerate() {
            put_column(out, &col.lens);
            if i == FEATURES {
                put_float_column(out, &col.flat);
            } else {
                put_column(out, &col.flat);
            }
        }
    }

    /// Refill this batch from a block payload, materialising the columns
    /// `projection` names. Whatever the projection, the block's header,
    /// every column's self-description and the row count of every
    /// per-row column are checked, and a projected vector column's
    /// lengths must add up to its values. `None` ⇒ corrupt; the batch is
    /// then empty.
    pub fn decode(&mut self, payload: &[u8], projection: Projection) -> Option<()> {
        let decoded = self.decode_inner(payload, projection);
        if decoded.is_none() {
            self.clear();
        }
        decoded
    }
}

impl BlockCheck {
    /// A check whose `tid` and `template` columns watch for a value past
    /// `u32::MAX` and whose vector lengths are summed, as decode checks them.
    pub(crate) fn new() -> Self {
        let mut check = BlockCheck::default();
        check.fixed[TID] = Tally::new(Watch::U32);
        check.fixed[TEMPLATE] = Tally::new(Watch::U32);
        for col in &mut check.var {
            col.lens = Tally::new(Watch::Sum);
        }
        check
    }

    /// `decode(payload, Projection::ALL)`'s verdict, OU and row count,
    /// with no value stored. `None` ⇒ corrupt.
    pub(crate) fn check(&mut self, payload: &[u8]) -> Option<()> {
        self.decode_inner(payload, Projection::ALL)
    }
}

impl<C> ColumnBatch<C> {
    fn decode_inner(&mut self, payload: &[u8], projection: Projection) -> Option<()>
    where
        C: ColumnSink,
    {
        let mut pos = 0usize;
        self.ou.ou = u16::try_from(get_varint(payload, &mut pos)?).ok()?;
        self.ou.subsystem = *payload.get(pos)?;
        pos += 1;
        let name_len = usize::try_from(get_varint(payload, &mut pos)?).ok()?;
        let name_end = pos.checked_add(name_len)?;
        let name = std::str::from_utf8(payload.get(pos..name_end)?).ok()?;
        self.ou.name.clear();
        self.ou.name.push_str(name);
        pos = name_end;
        let n = usize::try_from(get_varint(payload, &mut pos)?).ok()?;
        let _min_start = get_varint(payload, &mut pos)?;
        let _max_start = get_varint(payload, &mut pos)?;

        for (col, wanted) in self.fixed.iter_mut().zip(projection.fixed()) {
            let rows = if wanted {
                get_column(payload, &mut pos, col)?;
                col.len()
            } else {
                col.clear();
                skip_column(payload, &mut pos)?
            };
            if rows != n {
                return None;
            }
        }
        // `tid` and `template` are `u32` in a `Sample`.
        if self.fixed[..START_NS].iter().any(C::exceeds_u32) {
            return None;
        }
        for (col, wanted) in self.var.iter_mut().zip(projection.var()) {
            col.decode(payload, &mut pos, n, wanted)?;
        }
        if pos != payload.len() {
            return None;
        }
        self.rows = n;
        Some(())
    }
}

/// Append one frame of `kind` to `out`, its payload whatever `put`
/// appends: the head goes first, the payload is written straight after
/// it, then the length is filled in and the CRC appended. Returns the
/// payload length. A payload over `MAX_FRAME_LEN`, which recovery would
/// not read, leaves `out` as it was and is an error.
pub(crate) fn put_frame(
    out: &mut Vec<u8>,
    kind: u8,
    put: impl FnOnce(&mut Vec<u8>),
) -> io::Result<u32> {
    let at = out.len();
    out.extend_from_slice(&[kind, 0, 0, 0, 0]);
    put(out);
    let len = (u32::try_from(out.len() - at - 5).ok()).filter(|&len| len <= MAX_FRAME_LEN);
    let Some(len) = len else {
        out.truncate(at);
        return Err(io::Error::other("frame payload over MAX_FRAME_LEN"));
    };
    out[at + 1..at + 5].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&out[at + 5..]);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(len)
}

/// Bytes of a frame whose payload is `payload_len` bytes.
pub(crate) fn frame_len(payload_len: u32) -> u64 {
    FRAME_OVERHEAD as u64 + u64::from(payload_len)
}

/// Create (or truncate) the segment file at `path` and write its header
/// in one write.
pub(crate) fn create_segment(path: &Path) -> std::io::Result<File> {
    let mut f = OpenOptions::new()
        .create(true)
        .truncate(true)
        .write(true)
        .open(path)?;
    let [t, s, a, r] = *MAGIC;
    f.write_all(&[t, s, a, r, VERSION])?;
    Ok(f)
}

const HEAD_WINDOW: usize = 64 << 10;

/// Recovery's reader of frame heads. With no manifest to say where frames
/// start, recovery steps through damage a byte at a time, so the file is
/// read through one `window` of up to [`HEAD_WINDOW`] bytes (from file
/// offset `start`), not per head.
#[derive(Debug, Default)]
pub(crate) struct HeadReader {
    window: Vec<u8>,
    start: u64,
}

impl HeadReader {
    /// The kind and payload length in the head at `at`, or `None` when no
    /// frame can start there: it would end past `end` (the file length),
    /// its length is over `MAX_FRAME_LEN`, or its kind is unknown.
    pub(crate) fn at(&mut self, f: &File, at: u64, end: u64) -> io::Result<Option<(u8, u32)>> {
        if at.saturating_add(FRAME_OVERHEAD as u64) > end {
            return Ok(None);
        }
        let mut rel = usize::try_from(at.wrapping_sub(self.start)).unwrap_or(usize::MAX);
        if rel.saturating_add(5) > self.window.len() {
            let rest = usize::try_from(end - at).unwrap_or(usize::MAX);
            self.window.resize(rest.min(HEAD_WINDOW), 0);
            f.read_exact_at(&mut self.window, at)?;
            (self.start, rel) = (at, 0);
        }
        // A window read at `at` holds the whole frame overhead, so past
        // the check above it always holds these five bytes.
        let head = self.window.get(rel..).and_then(<[u8]>::first_chunk::<5>);
        let &[kind, len @ ..] = head.ok_or(io::ErrorKind::UnexpectedEof)?;
        let len = u32::from_le_bytes(len);
        let whole = len <= MAX_FRAME_LEN && at + frame_len(len) <= end;
        Ok(((kind == FRAME_BLOCK || kind == FRAME_FOOTER) && whole).then_some((kind, len)))
    }
}

/// Read the block frame of `payload_len` payload bytes at `offset` into
/// `frame` in one positional read, and return its payload. `None` when it
/// would end past `file_len` (checked before reading or allocating), or
/// its kind byte, length field or CRC disagree.
pub(crate) fn read_block_frame<'f>(
    f: &File,
    offset: u64,
    payload_len: u32,
    file_len: u64,
    frame: &'f mut Vec<u8>,
) -> std::io::Result<Option<&'f [u8]>> {
    let len = payload_len as usize;
    let end = offset.checked_add(frame_len(payload_len));
    if payload_len > MAX_FRAME_LEN || end.is_none_or(|end| end > file_len) {
        return Ok(None);
    }
    frame.resize(FRAME_OVERHEAD + len, 0);
    f.read_exact_at(frame, offset)?;
    let (head, rest) = frame.split_at(5);
    let (payload, crc) = rest.split_at(len);
    let intact = head[0] == FRAME_BLOCK
        && head[1..] == payload_len.to_le_bytes()
        && crc == crc32(payload).to_le_bytes();
    Ok(intact.then_some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(i: u64) -> Sample {
        Sample {
            ou: 7,
            ou_name: "seq_scan".into(),
            subsystem: 0,
            tid: 3,
            template: (i % 5) as u32,
            start_ns: 1_000_000 + i * 2_000,
            elapsed_ns: 500 + i,
            metrics: vec![i, i * 2, 0],
            features: vec![i as f64, -1.5, f64::NAN],
            user_metrics: vec![4096],
        }
    }

    fn batch_of(samples: &[Sample]) -> ColumnBatch {
        let mut batch = ColumnBatch::for_ou(OuEntry {
            ou: 7,
            subsystem: 0,
            name: "seq_scan".into(),
        });
        samples.iter().for_each(|s| batch.push(s));
        batch
    }

    fn encode(samples: &[Sample]) -> Vec<u8> {
        let mut out = Vec::new();
        batch_of(samples).encode(&mut out);
        out
    }

    fn samples_of(batch: &ColumnBatch) -> Vec<Sample> {
        let mut flat_at = [0; 3];
        (0..batch.len())
            .map(|row| batch.sample(row, &mut flat_at))
            .collect()
    }

    /// The block layout written sample by sample, as the format
    /// comment states it. The feature column is encoded in every form
    /// and the smallest kept; with `version` 1 only tags 0 and 1 compete,
    /// the bytes every build before tag 2 wrote.
    fn reference_encode(
        version: u8,
        ou: u16,
        subsystem: u8,
        name: &str,
        samples: &[Sample],
    ) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, ou as u64);
        out.push(subsystem);
        put_varint(&mut out, name.len() as u64);
        out.extend_from_slice(name.as_bytes());
        put_varint(&mut out, samples.len() as u64);
        put_varint(
            &mut out,
            samples.iter().map(|s| s.start_ns).min().unwrap_or(0),
        );
        put_varint(
            &mut out,
            samples.iter().map(|s| s.start_ns).max().unwrap_or(0),
        );
        let mut col = |f: &dyn Fn(&Sample) -> Vec<u64>| {
            let values: Vec<u64> = samples.iter().flat_map(f).collect();
            put_column(&mut out, &values);
        };
        let floats = |out: &mut Vec<u8>| {
            let bits: Vec<u64> = (samples.iter())
                .flat_map(|s| s.features.iter().map(|f| f.to_bits()))
                .collect();
            if version == 1 {
                put_column(out, &bits);
            } else {
                crate::encode::tests::reference_put_float_column(out, &bits);
            }
        };
        col(&|s| vec![s.tid as u64]);
        col(&|s| vec![s.template as u64]);
        col(&|s| vec![s.start_ns]);
        col(&|s| vec![s.elapsed_ns]);
        col(&|s| vec![s.metrics.len() as u64]);
        col(&|s| s.metrics.clone());
        col(&|s| vec![s.features.len() as u64]);
        floats(&mut out);
        let mut col = |f: &dyn Fn(&Sample) -> Vec<u64>| {
            let values: Vec<u64> = samples.iter().flat_map(f).collect();
            put_column(&mut out, &values);
        };
        col(&|s| vec![s.user_metrics.len() as u64]);
        col(&|s| s.user_metrics.clone());
        out
    }

    /// Features that are counts, as OU features are: tag 2's case.
    fn counted(i: u64) -> Sample {
        Sample {
            features: vec![(i % 37) as f64, (i * 11 % 1_000) as f64 - 500.0, 4096.0],
            ..sample(i)
        }
    }

    #[test]
    fn block_round_trip_is_bit_identical() {
        let mut batch = ColumnBatch::default();
        for make in [sample, counted] {
            let samples: Vec<Sample> = (0..200).map(make).collect();
            let payload = encode(&samples);
            assert_eq!(payload, reference_encode(2, 7, 0, "seq_scan", &samples));
            batch.decode(&payload, Projection::ALL).unwrap();
            assert_eq!(batch.ou().name, "seq_scan");
            let back = samples_of(&batch);
            assert_eq!(back.len(), samples.len());
            for (a, b) in samples.iter().zip(&back) {
                assert!(a.bits_eq(b), "mismatch: {a:?} vs {b:?}");
            }
        }
        // Integral features take tag 2 and shrink the block; the others
        // write what version 1 wrote.
        let plain: Vec<Sample> = (0..200).map(sample).collect();
        assert_eq!(
            encode(&plain),
            reference_encode(1, 7, 0, "seq_scan", &plain)
        );
        let counts: Vec<Sample> = (0..200).map(counted).collect();
        let v1 = reference_encode(1, 7, 0, "seq_scan", &counts);
        assert!(
            encode(&counts).len() < v1.len(),
            "{} vs {}",
            encode(&counts).len(),
            v1.len()
        );
    }

    /// A version-1 segment built by hand (tags 0 and 1 only, integral
    /// features as raw bits) opens and scans bit-identically, and a
    /// compaction copies its frames under a version-2 header.
    #[test]
    fn a_version_one_segment_reads_bit_identically() {
        use crate::{Archive, ArchiveOptions};
        let dir = std::env::temp_dir().join(format!("tsar_v1_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let samples: Vec<Sample> = (0..300).map(counted).collect();
        for (seq, rows) in samples.chunks(100).enumerate() {
            let mut bytes = [&MAGIC[..], &[1]].concat();
            for block in rows.chunks(40) {
                put_frame(&mut bytes, FRAME_BLOCK, |out| {
                    out.extend(reference_encode(1, 7, 0, "seq_scan", block));
                })
                .unwrap();
            }
            std::fs::write(dir.join(format!("seg-{seq:06}.tsa")), &bytes).unwrap();
        }
        let opts = ArchiveOptions {
            compact_fanin: 2,
            ..Default::default()
        };
        let telemetry = tscout_telemetry::Telemetry::new();
        let mut a = Archive::open(&dir, opts, telemetry.clone()).unwrap();
        let skipped = telemetry.counter_value("archive_scan_skipped_blocks_total", &[]);
        assert_eq!((a.stats().blocks, skipped), (9, 0));
        let scanned = |a: &Archive| -> Vec<Sample> { a.scan_ou("seq_scan").collect() };
        let same = |got: Vec<Sample>| {
            got.len() == samples.len() && got.iter().zip(&samples).all(|(a, b)| a.bits_eq(b))
        };
        assert!(same(scanned(&a)));
        assert!(a.compact_now().unwrap());
        let merged = &a.segments[0].path;
        assert_eq!(
            std::fs::read(merged).unwrap()[..5],
            [&MAGIC[..], &[VERSION]].concat()
        );
        assert!(same(scanned(&a)));
        drop(a);
        let a = Archive::open(&dir, ArchiveOptions::default(), telemetry).unwrap();
        assert!(same(scanned(&a)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn projected_decode_fills_only_the_named_columns() {
        let samples: Vec<Sample> = (0..64).map(sample).collect();
        let payload = encode(&samples);
        let mut full = ColumnBatch::default();
        full.decode(&payload, Projection::ALL).unwrap();
        // A dirty, larger batch is refilled in place: nothing stale survives.
        let mut batch = batch_of(&(0..300).map(sample).collect::<Vec<_>>());
        let training = Projection {
            template: true,
            elapsed_ns: true,
            features: true,
            ..Projection::NONE
        };
        batch.decode(&payload, training).unwrap();
        assert_eq!(batch.len(), 64);
        assert_eq!(batch.ou(), full.ou());
        assert_eq!(batch.template(), full.template());
        assert_eq!(batch.elapsed_ns(), full.elapsed_ns());
        assert_eq!(batch.features().lens(), full.features().lens());
        assert_eq!(batch.features().flat(), full.features().flat());
        assert_eq!(batch.features().rows().count(), 64);
        assert!(batch.tid().is_empty() && batch.start_ns().is_empty());
        assert!(batch.metrics().flat().is_empty() && batch.metrics().lens().is_empty());
        assert_eq!(batch.user_metrics().rows().count(), 0);
        batch.decode(&payload, Projection::NONE).unwrap();
        assert_eq!(batch.len(), 64);
        assert!(batch.template().is_empty() && batch.features().flat().is_empty());
    }

    #[test]
    fn block_decode_rejects_any_truncation() {
        let samples: Vec<Sample> = (0..20).map(sample).collect();
        let payload = encode(&samples);
        let mut batch = ColumnBatch::default();
        for projection in [Projection::ALL, Projection::NONE] {
            for cut in 0..payload.len() {
                assert!(
                    batch.decode(&payload[..cut], projection).is_none(),
                    "truncation at {cut} not detected"
                );
                assert!(batch.is_empty() && batch.start_ns().is_empty());
            }
        }
    }

    /// The ten columns of a valid two-row block.
    fn two_row_columns() -> Vec<u8> {
        let mut out = Vec::new();
        for _ in 0..4 {
            put_column(&mut out, &[1, 2]);
        }
        for _ in 0..3 {
            put_column(&mut out, &[1, 1]);
            put_column(&mut out, &[5, 6]);
        }
        out
    }

    /// A block header with the given fields (valid or not).
    fn header(ou: u64, name_len: u64, name: &[u8], rows: u64) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, ou);
        out.push(0);
        put_varint(&mut out, name_len);
        out.extend_from_slice(name);
        put_varint(&mut out, rows);
        put_varint(&mut out, 0);
        put_varint(&mut out, 0);
        out
    }

    #[test]
    fn hostile_block_lengths_fail_closed() {
        let mut batch = ColumnBatch::default();
        let mut decodes = |head: Vec<u8>, columns: &[u8]| {
            let payload = [head.as_slice(), columns].concat();
            let full = batch.decode(&payload, Projection::ALL).is_some();
            let none = batch.decode(&payload, Projection::NONE).is_some();
            assert_eq!(full, none, "projections disagree on a length fault");
            full
        };
        let columns = two_row_columns();
        assert!(decodes(header(7, 4, b"scan", 2), &columns), "the base case");
        // Name length that would wrap `pos + len`.
        assert!(!decodes(header(7, u64::MAX, b"scan", 2), &columns));
        assert!(!decodes(header(7, u64::MAX - 3, b"scan", 2), &columns));
        // Name running past the payload, non-UTF-8 name, OU id beyond u16.
        assert!(!decodes(header(7, 4_000, b"scan", 2), &columns));
        assert!(!decodes(
            header(7, 4, &[0xFF, 0xFE, 0xFD, 0xFC], 2),
            &columns
        ));
        assert!(!decodes(header(1 << 16, 4, b"scan", 2), &columns));
        // Row count disagreeing with the columns, absurd row count.
        assert!(!decodes(header(7, 4, b"scan", 3), &columns));
        assert!(!decodes(header(7, 4, b"scan", u64::MAX), &columns));

        // A byte length of u64::MAX in each of the ten columns in turn.
        let mut start = 0;
        for column in 0..10 {
            // `tag`, a one-byte `varint n`, then the one-byte length.
            let mut bad = columns[..start + 2].to_vec();
            put_varint(&mut bad, u64::MAX);
            bad.extend_from_slice(&columns[start + 3..]);
            assert!(!decodes(header(7, 4, b"scan", 2), &bad), "column {column}");
            skip_column(&columns, &mut start).unwrap();
        }
        assert_eq!(start, columns.len());

        // Vector lengths whose sum wraps u64 must neither panic nor pass.
        let mut wrap = Vec::new();
        for _ in 0..4 {
            put_column(&mut wrap, &[1, 2]);
        }
        put_column(&mut wrap, &[u64::MAX, 3]);
        put_column(&mut wrap, &[5, 6]);
        for _ in 0..2 {
            put_column(&mut wrap, &[1, 1]);
            put_column(&mut wrap, &[5, 6]);
        }
        let payload = [header(7, 4, b"scan", 2), wrap].concat();
        assert!(batch.decode(&payload, Projection::ALL).is_none());

        // A `tid` or `template` past `u32::MAX`, which no `Sample` holds.
        let mut var = 0;
        for _ in 0..4 {
            skip_column(&columns, &mut var).unwrap();
        }
        for column in 0..2 {
            for (value, fits) in [(u64::from(u32::MAX), true), (1 << 32, false)] {
                let mut wide = Vec::new();
                for c in 0..4 {
                    put_column(&mut wide, &[1, if c == column { value } else { 2 }]);
                }
                wide.extend_from_slice(&columns[var..]);
                let payload = [header(7, 4, b"scan", 2), wide].concat();
                let decoded = batch.decode(&payload, Projection::ALL).is_some();
                assert_eq!(decoded, fits, "column {column}, value {value}");
            }
        }
    }

    #[test]
    fn frames_survive_file_round_trip_and_detect_corruption() {
        let dir = std::env::temp_dir().join(format!("tsar_frame_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.seg");
        let payload = b"hello columnar world".to_vec();
        let mut bytes = Vec::new();
        let block_len = frame_len(
            put_frame(&mut bytes, FRAME_BLOCK, |out| {
                out.extend_from_slice(&payload);
            })
            .unwrap(),
        );
        put_frame(&mut bytes, FRAME_FOOTER, |out| {
            out.extend_from_slice(b"legacy");
        })
        .unwrap();
        std::fs::write(&path, &bytes).unwrap();
        let len = bytes.len() as u64;
        let f = File::open(&path).unwrap();
        let head = |f: &File, at, file_len| HeadReader::default().at(f, at, file_len).unwrap();
        assert_eq!(head(&f, 0, len), Some((FRAME_BLOCK, 20)));
        assert_eq!(head(&f, block_len, len), Some((FRAME_FOOTER, 6)));
        let mut frame = vec![0xAA; 3]; // stale contents, wrong size
        let read = read_block_frame(&f, 0, 20, len, &mut frame).unwrap();
        assert_eq!(read, Some(&payload[..]));
        assert_eq!(frame, bytes[..block_len as usize]);
        // A footer is not a block, and a block must be read at its length.
        assert!(read_block_frame(&f, block_len, 6, len, &mut frame)
            .unwrap()
            .is_none());
        assert!(read_block_frame(&f, 0, 19, len, &mut frame)
            .unwrap()
            .is_none());
        // Flip one payload byte on disk: the frame fails its CRC but its
        // head stays whole.
        bytes[7] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        let f = File::open(&path).unwrap();
        assert_eq!(head(&f, 0, len), Some((FRAME_BLOCK, 20)));
        assert!(read_block_frame(&f, 0, 20, len, &mut frame)
            .unwrap()
            .is_none());
        // No frame starts where its length runs past the file or its kind
        // is unknown.
        assert_eq!(head(&f, 0, block_len - 1), None);
        assert!(read_block_frame(&f, 0, 20, block_len - 1, &mut frame)
            .unwrap()
            .is_none());
        bytes[0] = 3;
        std::fs::write(&path, &bytes).unwrap();
        let f = File::open(&path).unwrap();
        assert_eq!(head(&f, 0, len), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One reader walked forward over a file of several windows, a byte
    /// at a time and from frame to frame, reads what the bytes say.
    #[test]
    fn the_head_reader_reads_every_offset_across_windows() {
        let dir = std::env::temp_dir().join(format!("tsar_heads_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.seg");
        let mut bytes = Vec::new();
        for i in 0..40u32 {
            let payload: Vec<u8> = (0..i * 331).map(|b| (b % 7) as u8).collect();
            put_frame(&mut bytes, FRAME_BLOCK, |out| {
                out.extend_from_slice(&payload);
            })
            .unwrap();
        }
        assert!(bytes.len() > 3 * HEAD_WINDOW);
        std::fs::write(&path, &bytes).unwrap();
        let (f, file_len) = (File::open(&path).unwrap(), bytes.len() as u64);
        let direct = |at: usize| {
            let len = u32::from_le_bytes(bytes.get(at + 1..at + 5)?.try_into().unwrap());
            let known = matches!(bytes[at], FRAME_BLOCK | FRAME_FOOTER);
            let whole = len <= MAX_FRAME_LEN && at as u64 + frame_len(len) <= file_len;
            (known && whole).then_some((bytes[at], len))
        };
        let mut heads = HeadReader::default();
        for at in 0..bytes.len() {
            let read = heads.at(&f, at as u64, file_len).unwrap();
            assert_eq!(read, direct(at), "offset {at}");
        }
        let (mut heads, mut at, mut frames) = (HeadReader::default(), 0, 0);
        while let Some((_, len)) = heads.at(&f, at, file_len).unwrap() {
            (at, frames) = (at + frame_len(len), frames + 1);
        }
        assert_eq!((at, frames), (file_len, 40));
        std::fs::remove_dir_all(&dir).ok();
    }
}
