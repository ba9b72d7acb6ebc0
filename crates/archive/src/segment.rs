//! Segment file format: a header and a sequence of framed columnar blocks.
//!
//! A segment file is an append-only sequence of CRC-framed records:
//!
//! ```text
//! file   := magic "TSAR" , u8 version (1) , frame*
//! frame  := u8 kind (1=block | 2=legacy footer)
//!         , u32le payload_len
//!         , payload
//!         , u32le crc32(payload)
//! ```
//!
//! A **block** holds one OU's samples from one memtable flush, stored
//! column-wise (see [`crate::encode`]); its header names the OU (id and
//! name), the row count and the rows' `start_ns` range. The frames are
//! the manifest: `open` scans every file's frames from the start and
//! decodes each block in full. A torn frame header (a length past the
//! file or `MAX_FRAME_LEN`, or an unknown kind) ends the valid prefix and
//! is truncated; a whole frame that fails its CRC or decode is stepped
//! over and counted. Earlier builds ended a sealed segment with a footer
//! frame (kind 2); it is a known kind that recovery steps over unread, so
//! their archives open unchanged. A file whose version byte is not
//! `VERSION` is refused, not touched.

use std::io::{Read, Seek, SeekFrom, Write};

use crate::encode::{get_column, get_varint, put_column, put_varint, skip_column};
use crate::{crc32::crc32, ArchiveError, Sample};

/// File magic ("TScout ARchive").
pub(crate) const MAGIC: &[u8; 4] = b"TSAR";
/// Format version.
pub(crate) const VERSION: u8 = 1;
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
#[derive(Debug, Clone, Default)]
pub struct VarColumn {
    lens: Vec<u64>,
    flat: Vec<u64>,
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
    pub fn rows(&self) -> impl Iterator<Item = &[u64]> + '_ {
        let mut rest = self.flat.as_slice();
        self.lens.iter().map(move |&len| {
            let (row, tail) = rest.split_at(len as usize);
            rest = tail;
            row
        })
    }

    fn clear(&mut self) {
        self.lens.clear();
        self.flat.clear();
    }

    fn push(&mut self, row: impl ExactSizeIterator<Item = u64>) {
        self.lens.push(row.len() as u64);
        self.flat.extend(row);
    }

    fn extend_from(&mut self, other: &VarColumn) {
        self.lens.extend_from_slice(&other.lens);
        self.flat.extend_from_slice(&other.flat);
    }

    /// Decode (or step over) the length column and the flat column at
    /// `*pos` of a block of `n` rows.
    fn decode(&mut self, payload: &[u8], pos: &mut usize, n: usize, wanted: bool) -> Option<()> {
        if !wanted {
            self.clear();
            let lens = skip_column(payload, pos)?;
            skip_column(payload, pos)?;
            return (lens == n).then_some(());
        }
        get_column(payload, pos, &mut self.lens)?;
        get_column(payload, pos, &mut self.flat)?;
        let total = self
            .lens
            .iter()
            .try_fold(0u64, |sum, &len| sum.checked_add(len))?;
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
/// container — memtables fill it by [`ColumnBatch::push`], block decode
/// refills it in place, compaction appends blocks to it — and every
/// buffer keeps its capacity across refills, so a scan allocates per
/// block only while the buffers are still growing.
///
/// Fields are private: every projected column holds exactly
/// [`ColumnBatch::len`] rows, a projected-out column none.
#[derive(Debug, Clone, Default)]
pub struct ColumnBatch {
    ou: OuEntry,
    rows: usize,
    /// `tid`, `template`, `start_ns`, `elapsed_ns` — block column order.
    fixed: [Vec<u64>; 4],
    /// `metrics`, `features`, `user_metrics` — block column order.
    var: [VarColumn; 3],
}

impl ColumnBatch {
    /// An empty batch that rows of `ou` will be pushed into.
    pub(crate) fn for_ou(ou: OuEntry) -> Self {
        ColumnBatch {
            ou,
            ..ColumnBatch::default()
        }
    }

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

    /// The manifest entry of this batch as the block whose frame is at
    /// `offset` with `payload_len` payload bytes.
    pub(crate) fn meta(&self, offset: u64, payload_len: usize) -> BlockMeta {
        BlockMeta {
            offset,
            payload_len: payload_len as u32,
            ou: self.ou.ou,
            count: self.rows as u64,
        }
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

    /// Append every row of `other` (fully projected, same OU).
    pub(crate) fn extend_from(&mut self, other: &ColumnBatch) {
        self.rows += other.rows;
        for (mine, theirs) in self.fixed.iter_mut().zip(&other.fixed) {
            mine.extend_from_slice(theirs);
        }
        for (mine, theirs) in self.var.iter_mut().zip(&other.var) {
            mine.extend_from(theirs);
        }
    }

    /// Row `row` of a fully projected batch as an owned [`Sample`].
    /// `flat_at` is the caller's cursor into the three flat columns: all
    /// zeros before row 0, advanced here, so rows are taken in order.
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

    /// The rows of a fully populated batch as consecutive runs of at
    /// most `chunk` rows, each ready to be written as one block.
    pub(crate) fn chunks(&self, chunk: usize) -> impl Iterator<Item = BlockRows<'_>> {
        let (mut row, mut flat_at) = (0, [0usize; 3]);
        std::iter::from_fn(move || {
            if row >= self.rows {
                return None;
            }
            let end = row.saturating_add(chunk.max(1)).min(self.rows);
            let mut var = [(&[][..], &[][..]); 3];
            for ((out, at), col) in var.iter_mut().zip(&mut flat_at).zip(&self.var) {
                let lens = &col.lens[row..end];
                let flat_end = *at + lens.iter().sum::<u64>() as usize;
                *out = (lens, &col.flat[*at..flat_end]);
                *at = flat_end;
            }
            let fixed = [TID, TEMPLATE, START_NS, ELAPSED_NS].map(|c| &self.fixed[c][row..end]);
            row = end;
            Some(BlockRows {
                ou: &self.ou,
                fixed,
                var,
            })
        })
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

    fn decode_inner(&mut self, payload: &[u8], projection: Projection) -> Option<()> {
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

/// A run of rows borrowed from a [`ColumnBatch`]: what one block holds.
#[derive(Debug)]
pub(crate) struct BlockRows<'a> {
    ou: &'a OuEntry,
    fixed: [&'a [u64]; 4],
    /// `(lens, flat)` per vector column.
    var: [(&'a [u64], &'a [u64]); 3],
}

impl BlockRows<'_> {
    /// The manifest entry of these rows written as the frame at
    /// `offset` with `payload_len` payload bytes.
    pub(crate) fn meta(&self, offset: u64, payload_len: usize) -> BlockMeta {
        BlockMeta {
            offset,
            payload_len: payload_len as u32,
            ou: self.ou.ou,
            count: self.fixed[START_NS].len() as u64,
        }
    }

    /// Encode these rows as a block payload.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let start_ns = self.fixed[START_NS];
        let mut out = Vec::with_capacity(64 + start_ns.len() * 16);
        put_varint(&mut out, self.ou.ou as u64);
        out.push(self.ou.subsystem);
        put_varint(&mut out, self.ou.name.len() as u64);
        out.extend_from_slice(self.ou.name.as_bytes());
        put_varint(&mut out, start_ns.len() as u64);
        put_varint(&mut out, start_ns.iter().copied().min().unwrap_or(0));
        put_varint(&mut out, start_ns.iter().copied().max().unwrap_or(0));
        for col in self.fixed {
            put_column(&mut out, col);
        }
        for (lens, flat) in self.var {
            put_column(&mut out, lens);
            put_column(&mut out, flat);
        }
        out
    }
}

/// Append one frame to `w`; returns bytes written.
pub(crate) fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> std::io::Result<u64> {
    w.write_all(&[kind])?;
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.write_all(&crc32(payload).to_le_bytes())?;
    Ok((FRAME_OVERHEAD + payload.len()) as u64)
}

/// Read the block frame `meta` names into `frame` in one read of the
/// length `meta` gives, and return its payload. `None` when it would end
/// past `file_len` (checked before reading or allocating), or its kind
/// byte, length field or CRC disagree with `meta`.
pub(crate) fn read_block_frame<'f>(
    f: &mut std::fs::File,
    meta: &BlockMeta,
    file_len: u64,
    frame: &'f mut Vec<u8>,
) -> std::io::Result<Option<&'f [u8]>> {
    let len = meta.payload_len as usize;
    let end = meta.offset.checked_add((FRAME_OVERHEAD + len) as u64);
    if meta.payload_len > MAX_FRAME_LEN || end.is_none_or(|end| end > file_len) {
        return Ok(None);
    }
    frame.resize(FRAME_OVERHEAD + len, 0);
    f.seek(SeekFrom::Start(meta.offset))?;
    f.read_exact(frame)?;
    let (head, rest) = frame.split_at(5);
    let (payload, crc) = rest.split_at(len);
    let intact = head[0] == FRAME_BLOCK
        && head[1..] == meta.payload_len.to_le_bytes()
        && crc == crc32(payload).to_le_bytes();
    Ok(intact.then_some(payload))
}

/// Read the frame at `offset` into `payload` (resized to fit, capacity
/// kept), its length taken from the frame: recovery's reader, which has
/// no manifest. Returns `(kind, next_offset, intact)`, or `None` if the
/// header is torn — the frame is truncated, oversized or of an unknown
/// kind, i.e. the valid portion of the file ends before `offset + frame`.
/// A whole frame that fails its CRC comes back with `intact` false, to be
/// stepped over; `payload` is then unspecified.
pub(crate) fn read_frame(
    f: &mut std::fs::File,
    offset: u64,
    file_len: u64,
    payload: &mut Vec<u8>,
) -> Result<Option<(u8, u64, bool)>, ArchiveError> {
    if offset.saturating_add(FRAME_OVERHEAD as u64) > file_len {
        return Ok(None);
    }
    f.seek(SeekFrom::Start(offset))?;
    let mut head = [0u8; 5];
    f.read_exact(&mut head)?;
    let kind = head[0];
    let len = u32::from_le_bytes([head[1], head[2], head[3], head[4]]);
    if kind != FRAME_BLOCK && kind != FRAME_FOOTER {
        return Ok(None);
    }
    let next = offset + FRAME_OVERHEAD as u64 + len as u64;
    if len > MAX_FRAME_LEN || next > file_len {
        return Ok(None);
    }
    // Payload and trailing CRC in one read.
    payload.resize(len as usize + 4, 0);
    f.read_exact(payload)?;
    let (body, crc) = payload.split_at(len as usize);
    let intact = crc32(body) == u32::from_le_bytes([crc[0], crc[1], crc[2], crc[3]]);
    payload.truncate(len as usize);
    Ok(Some((kind, next, intact)))
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
        let batch = batch_of(samples);
        let mut blocks = batch.chunks(usize::MAX);
        let payload = blocks.next().expect("one block").encode();
        assert!(blocks.next().is_none());
        payload
    }

    fn samples_of(batch: &ColumnBatch) -> Vec<Sample> {
        let mut flat_at = [0; 3];
        (0..batch.len())
            .map(|row| batch.sample(row, &mut flat_at))
            .collect()
    }

    /// The block layout written sample by sample, as the format
    /// comment states it: the bytes every earlier build wrote.
    fn reference_encode(ou: u16, subsystem: u8, name: &str, samples: &[Sample]) -> Vec<u8> {
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
        col(&|s| vec![s.tid as u64]);
        col(&|s| vec![s.template as u64]);
        col(&|s| vec![s.start_ns]);
        col(&|s| vec![s.elapsed_ns]);
        col(&|s| vec![s.metrics.len() as u64]);
        col(&|s| s.metrics.clone());
        col(&|s| vec![s.features.len() as u64]);
        col(&|s| s.features.iter().map(|f| f.to_bits()).collect());
        col(&|s| vec![s.user_metrics.len() as u64]);
        col(&|s| s.user_metrics.clone());
        out
    }

    #[test]
    fn block_round_trip_is_bit_identical() {
        let samples: Vec<Sample> = (0..200).map(sample).collect();
        let payload = encode(&samples);
        assert_eq!(payload, reference_encode(7, 0, "seq_scan", &samples));
        let mut batch = ColumnBatch::default();
        batch.decode(&payload, Projection::ALL).unwrap();
        assert_eq!(batch.ou().name, "seq_scan");
        let back = samples_of(&batch);
        assert_eq!(back.len(), samples.len());
        for (a, b) in samples.iter().zip(&back) {
            assert!(a.bits_eq(b), "mismatch: {a:?} vs {b:?}");
        }
    }

    #[test]
    fn chunks_rechunk_rows_without_changing_them() {
        let samples: Vec<Sample> = (0..50)
            .map(|i| Sample {
                metrics: vec![i; (i % 3) as usize],
                features: vec![i as f64; (i % 4) as usize],
                ..sample(i)
            })
            .collect();
        let batch = batch_of(&samples);
        for chunk in [7, 1, usize::MAX] {
            let mut back = Vec::new();
            let mut block = ColumnBatch::default();
            for rows in batch.chunks(chunk) {
                let at = back.len();
                let payload = rows.encode();
                let want = &samples[at..(at + chunk.min(50)).min(50)];
                assert_eq!(payload, reference_encode(7, 0, "seq_scan", want));
                assert_eq!(rows.meta(9, payload.len()).count, want.len() as u64);
                block.decode(&payload, Projection::ALL).unwrap();
                back.extend(samples_of(&block));
            }
            assert_eq!(back.len(), samples.len(), "chunk {chunk}");
            assert!(back.iter().zip(&samples).all(|(a, b)| a.bits_eq(b)));
        }
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
    }

    #[test]
    fn frames_survive_file_round_trip_and_detect_corruption() {
        let dir = std::env::temp_dir().join(format!("tsar_frame_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.seg");
        let payload = b"hello columnar world".to_vec();
        {
            let mut f = std::fs::File::create(&path).unwrap();
            write_frame(&mut f, FRAME_BLOCK, &payload).unwrap();
        }
        let len = std::fs::metadata(&path).unwrap().len();
        let mut f = std::fs::File::open(&path).unwrap();
        let mut p = vec![0xAA; 3]; // stale contents, wrong size
        let (kind, next, intact) = read_frame(&mut f, 0, len, &mut p).unwrap().unwrap();
        assert_eq!((kind, p.as_slice(), next), (FRAME_BLOCK, &payload[..], len));
        assert!(intact);
        // Flip one payload byte on disk: the frame fails its CRC but
        // stays whole, so recovery can step over it.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[7] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        let mut f = std::fs::File::open(&path).unwrap();
        let read = read_frame(&mut f, 0, len, &mut p).unwrap();
        assert_eq!(read, Some((FRAME_BLOCK, len, false)));
        // A length past the file or an unknown kind is a torn header.
        assert!(read_frame(&mut f, 0, len - 1, &mut p).unwrap().is_none());
        bytes[0] = 3;
        std::fs::write(&path, &bytes).unwrap();
        let mut f = std::fs::File::open(&path).unwrap();
        assert!(read_frame(&mut f, 0, len, &mut p).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
