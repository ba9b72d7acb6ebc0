//! The archive store: memtables, segment lifecycle, recovery, and scans.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom};
use std::path::{Path, PathBuf};

use tscout_telemetry::decls::{
    ARCHIVE_BUFFERED_SAMPLES, ARCHIVE_OU_BLOCKS, ARCHIVE_OU_BYTES_WRITTEN,
    ARCHIVE_OU_SAMPLES_APPENDED, ARCHIVE_OU_SAMPLES_RETIRED, ARCHIVE_RECOVERED_TRUNCATIONS,
    ARCHIVE_SEGMENTS, ARCHIVE_SEGMENTS_COMPACTED, ARCHIVE_SEGMENTS_SEALED,
};
use tscout_telemetry::{CounterSite, CounterVec, GaugeSite, Telemetry};

use crate::encode::MAX_COLUMN_VALUES;
use crate::segment::{
    decode_footer, encode_footer, read_frame, write_frame, BlockMeta, ColumnBatch, OuEntry,
    Projection, FRAME_BLOCK, FRAME_FOOTER, HEADER_LEN, MAGIC, VERSION,
};
use crate::{decls, ArchiveError, ArchiveOptions, Sample};

/// One segment file known to the archive, oldest-first by `seq`.
#[derive(Debug)]
pub(crate) struct SegmentMeta {
    pub seq: u64,
    pub path: PathBuf,
    /// Valid bytes (file length after any recovery truncation).
    pub bytes: u64,
    pub sealed: bool,
    pub ous: Vec<OuEntry>,
    pub blocks: Vec<BlockMeta>,
}

impl SegmentMeta {
    pub(crate) fn samples(&self) -> u64 {
        self.blocks.iter().map(|b| b.count).sum()
    }
}

/// Counters summarizing the archive's current shape.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ArchiveStats {
    pub segments: usize,
    pub sealed_segments: usize,
    pub blocks: usize,
    /// Samples durable in segment files.
    pub samples_stored: u64,
    /// Samples still buffered in memtables.
    pub samples_buffered: usize,
    /// Total bytes across segment files.
    pub bytes: u64,
}

/// The write path's metrics, declared once (see
/// [`tscout_telemetry::Site`]): each series registers on first use, the
/// per-OU families indexed by OU id.
#[derive(Debug)]
pub(crate) struct ArchiveMetrics {
    appended: CounterSite,
    append_errors: CounterSite,
    ou_appended: CounterVec,
    buffered: GaugeSite,
    pub(crate) bytes_written: CounterSite,
    ou_blocks: CounterVec,
    ou_bytes_written: CounterVec,
    pub(crate) segments: GaugeSite,
    segments_sealed: CounterSite,
    pub(crate) segments_compacted: CounterSite,
    recovered_truncations: CounterSite,
    pub(crate) retired: CounterSite,
    pub(crate) ou_retired: CounterVec,
}

impl ArchiveMetrics {
    fn new() -> Self {
        ArchiveMetrics {
            appended: decls::SAMPLES_APPENDED.site(&[]),
            append_errors: decls::APPEND_ERRORS.site(&[]),
            ou_appended: ARCHIVE_OU_SAMPLES_APPENDED.vec("ou"),
            buffered: ARCHIVE_BUFFERED_SAMPLES.site(&[]),
            bytes_written: decls::BYTES_WRITTEN.site(&[]),
            ou_blocks: ARCHIVE_OU_BLOCKS.vec("ou"),
            ou_bytes_written: ARCHIVE_OU_BYTES_WRITTEN.vec("ou"),
            segments: ARCHIVE_SEGMENTS.site(&[]),
            segments_sealed: ARCHIVE_SEGMENTS_SEALED.site(&[]),
            segments_compacted: ARCHIVE_SEGMENTS_COMPACTED.site(&[]),
            recovered_truncations: ARCHIVE_RECOVERED_TRUNCATIONS.site(&[]),
            retired: decls::SAMPLES_RETIRED.site(&[]),
            ou_retired: ARCHIVE_OU_SAMPLES_RETIRED.vec("ou"),
        }
    }
}

/// The append-only, segmented, columnar per-OU sample store.
#[derive(Debug)]
pub struct Archive {
    pub(crate) dir: PathBuf,
    pub(crate) opts: ArchiveOptions,
    pub telemetry: Telemetry,
    pub(crate) metrics: ArchiveMetrics,
    /// Per-OU write buffers, keyed by OU id.
    memtables: BTreeMap<u16, ColumnBatch>,
    buffered: usize,
    pub(crate) segments: Vec<SegmentMeta>,
    /// Open handle for the unsealed last segment, if any.
    active: Option<File>,
    next_seq: u64,
    /// Action-engine hook: while held, `maybe_compact` is a no-op
    /// (compaction deprioritized under overhead pressure).
    pub(crate) compaction_hold: bool,
    /// Action-engine hook: the next `maybe_compact` compacts even if the
    /// fan-in policy would not fire yet.
    pub(crate) compaction_requested: bool,
}

fn seg_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("seg-{seq:06}.tsa"))
}

fn parse_seq(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let rest = name.strip_prefix("seg-")?.strip_suffix(".tsa")?;
    rest.parse().ok()
}

impl Archive {
    /// Open (or create) an archive directory, recovering from torn or
    /// truncated segment tails. After `open` every pre-existing segment
    /// is sealed; new appends start a fresh segment.
    pub fn open(
        dir: impl Into<PathBuf>,
        opts: ArchiveOptions,
        telemetry: Telemetry,
    ) -> Result<Archive, ArchiveError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut paths: Vec<(u64, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "tmp") {
                // Leftover from a crashed compaction: inputs are intact.
                std::fs::remove_file(&path).ok();
                continue;
            }
            if let Some(seq) = parse_seq(&path) {
                paths.push((seq, path));
            }
        }
        paths.sort();
        let mut archive = Archive {
            dir,
            opts,
            telemetry,
            metrics: ArchiveMetrics::new(),
            memtables: BTreeMap::new(),
            buffered: 0,
            segments: Vec::new(),
            active: None,
            next_seq: paths.last().map(|(s, _)| s + 1).unwrap_or(0),
            compaction_hold: false,
            compaction_requested: false,
        };
        let (mut payload, mut block) = (Vec::new(), ColumnBatch::default());
        for (seq, path) in paths {
            if let Some(meta) = archive.recover_segment(seq, &path, &mut payload, &mut block)? {
                archive.segments.push(meta);
            }
        }
        archive.publish_segments();
        Ok(archive)
    }

    /// Publish the segment count as `archive_segments`.
    pub(crate) fn publish_segments(&self) {
        self.metrics
            .segments
            .get(&self.telemetry)
            .set(self.segments.len() as f64);
    }

    /// Scan one segment file frame-by-frame, truncating at the first
    /// invalid frame. Returns `None` (file deleted) if nothing valid
    /// remains. Any recovered unsealed segment is resealed so that all
    /// on-disk segments are immutable after open. Every block is decoded
    /// in full into `block` (scratch, like `payload`, reused from segment
    /// to segment), so the manifest lists only blocks a scan under any
    /// projection can decode.
    fn recover_segment(
        &mut self,
        seq: u64,
        path: &Path,
        payload: &mut Vec<u8>,
        block: &mut ColumnBatch,
    ) -> Result<Option<SegmentMeta>, ArchiveError> {
        let mut f = OpenOptions::new().read(true).write(true).open(path)?;
        let file_len = f.metadata()?.len();
        // Header check: a file too short or with a wrong magic holds no
        // recoverable data.
        let mut valid_to = 0u64;
        let mut header_ok = false;
        if file_len >= HEADER_LEN {
            use std::io::Read;
            let mut head = [0u8; HEADER_LEN as usize];
            f.seek(SeekFrom::Start(0))?;
            f.read_exact(&mut head)?;
            header_ok = &head[..4] == MAGIC && head[4] == VERSION;
        }
        let mut ous: Vec<OuEntry> = Vec::new();
        let mut blocks: Vec<BlockMeta> = Vec::new();
        let mut footer_at_end = false;
        if header_ok {
            valid_to = HEADER_LEN;
            let mut offset = HEADER_LEN;
            while let Some((kind, next)) = read_frame(&mut f, offset, file_len, payload)? {
                match kind {
                    FRAME_BLOCK => {
                        if block.decode(payload, Projection::ALL).is_none() {
                            break; // CRC-valid but undecodable: stop here
                        }
                        blocks.push(block.meta(offset, payload.len()));
                        if !ous.iter().any(|o| o.ou == block.ou().ou) {
                            ous.push(block.ou().clone());
                        }
                        footer_at_end = false;
                    }
                    _ => {
                        if decode_footer(payload).is_none() {
                            break;
                        }
                        // The manifest is advisory; the frame scan above is
                        // authoritative. A valid footer as the final frame
                        // marks the segment sealed.
                        footer_at_end = true;
                    }
                }
                valid_to = next;
                offset = next;
            }
        }
        let torn = valid_to < file_len;
        if torn {
            f.set_len(valid_to)?;
            self.metrics
                .recovered_truncations
                .get(&self.telemetry)
                .inc();
        }
        if blocks.is_empty() {
            drop(f);
            std::fs::remove_file(path)?;
            return Ok(None);
        }
        let mut bytes = valid_to;
        if !footer_at_end {
            // Crash before seal (or the footer itself was torn): reseal in
            // place so the segment is immutable going forward.
            f.seek(SeekFrom::Start(valid_to))?;
            let footer = encode_footer(&ous, &blocks);
            bytes += write_frame(&mut f, FRAME_FOOTER, &footer)?;
            self.metrics.segments_sealed.get(&self.telemetry).inc();
        }
        Ok(Some(SegmentMeta {
            seq,
            path: path.to_path_buf(),
            bytes,
            sealed: true,
            ous,
            blocks,
        }))
    }

    /// Append one sample, owned or borrowed (its fields are copied into
    /// columns either way). Routes to the per-OU memtable; flushes when
    /// the memtable or the global buffer bound fills. This is the only
    /// write-side entry point, so write-side memory is bounded by
    /// [`ArchiveOptions::max_buffered_samples`] decoded samples. `Err`
    /// means that flush failed: the block it was writing (this sample
    /// and the rows buffered with it) is dropped and counted in
    /// `archive_append_errors_total`.
    pub fn append(&mut self, sample: impl Borrow<Sample>) -> Result<(), ArchiveError> {
        let sample = sample.borrow();
        let ou = sample.ou;
        let mt = self.memtables.entry(ou).or_insert_with(|| {
            ColumnBatch::for_ou(OuEntry {
                ou,
                subsystem: sample.subsystem,
                name: sample.ou_name.clone(),
            })
        });
        mt.push(sample);
        let mt_len = mt.len();
        self.buffered += 1;
        let t = &self.telemetry;
        self.metrics.appended.get(t).inc();
        self.metrics
            .ou_appended
            .at(t, ou as usize, || &mt.ou().name)
            .inc();
        self.metrics.buffered.get(t).add(1.0);
        let full_ou = if mt_len >= self.opts.memtable_flush_samples {
            Some(ou)
        } else if self.buffered > self.opts.max_buffered_samples {
            // Global bound: evict the largest memtable.
            self.memtables
                .iter()
                .max_by_key(|(_, mt)| mt.len())
                .map(|(ou, _)| *ou)
        } else {
            None
        };
        if let Some(ou) = full_ou {
            self.flush_ou(ou)?;
        }
        Ok(())
    }

    /// Flush one OU's memtable into the active segment as a block. The
    /// memtable leaves memory either way: when the write fails its rows
    /// are dropped and counted in `archive_append_errors_total`, so
    /// `buffered` and the write-side memory bound hold under a failing
    /// disk and every appended row is stored, buffered or counted lost.
    fn flush_ou(&mut self, ou: u16) -> Result<(), ArchiveError> {
        let Some(mt) = self.memtables.remove(&ou) else {
            return Ok(());
        };
        let written = self.write_block(&mt);
        self.buffered -= mt.len();
        let (t, name) = (&self.telemetry, || &mt.ou().name);
        self.metrics.buffered.get(t).add(-(mt.len() as f64));
        let frame_len = match written {
            Ok(frame_len) => frame_len,
            Err(e) => {
                self.metrics.append_errors.get(t).add(mt.len() as u64);
                return Err(e);
            }
        };
        self.metrics.bytes_written.get(t).add(frame_len);
        self.metrics.ou_blocks.at(t, ou as usize, name).inc();
        self.metrics
            .ou_bytes_written
            .at(t, ou as usize, name)
            .add(frame_len);
        if self.segments.last().map(|m| m.bytes).unwrap_or(0) >= self.opts.segment_max_bytes {
            self.seal_active()?;
        }
        Ok(())
    }

    /// Encode `mt` and write it at the end of the active segment
    /// (created if there is none). Returns the frame's length; the
    /// segment's manifest moves only once the frame is fully written.
    fn write_block(&mut self, mt: &ColumnBatch) -> Result<u64, ArchiveError> {
        let rows = mt
            .chunks(0, usize::MAX)
            .next()
            .expect("a memtable holds at least the row that created it");
        self.ensure_active()?;
        let payload = rows.encode();
        let meta = self.segments.last_mut().expect("active segment exists");
        let f = self.active.as_mut().expect("active file open");
        f.seek(SeekFrom::Start(meta.bytes))?;
        let frame_len = write_frame(f, FRAME_BLOCK, &payload)?;
        meta.blocks.push(rows.meta(meta.bytes, payload.len()));
        meta.bytes += frame_len;
        if !meta.ous.iter().any(|o| o.ou == mt.ou().ou) {
            meta.ous.push(mt.ou().clone());
        }
        Ok(frame_len)
    }

    /// Create the active segment file if there is none.
    fn ensure_active(&mut self) -> Result<(), ArchiveError> {
        if self.active.is_some() {
            return Ok(());
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let path = seg_path(&self.dir, seq);
        let mut f = OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(&path)?;
        use std::io::Write;
        f.write_all(MAGIC)?;
        f.write_all(&[VERSION])?;
        self.segments.push(SegmentMeta {
            seq,
            path,
            bytes: HEADER_LEN,
            sealed: false,
            ous: Vec::new(),
            blocks: Vec::new(),
        });
        self.active = Some(f);
        self.metrics
            .bytes_written
            .get(&self.telemetry)
            .add(HEADER_LEN);
        self.publish_segments();
        Ok(())
    }

    /// Flush every memtable to the active segment (durability point for
    /// everything appended so far, modulo OS buffering). Every memtable
    /// is attempted, so nothing stays buffered afterwards; the first
    /// failure is the one returned.
    pub fn flush(&mut self) -> Result<(), ArchiveError> {
        let ous: Vec<u16> = self.memtables.keys().copied().collect();
        let mut result = Ok(());
        for ou in ous {
            result = result.and(self.flush_ou(ou));
        }
        result
    }

    /// Flush, then seal the active segment with its footer manifest.
    pub fn seal(&mut self) -> Result<(), ArchiveError> {
        self.flush()?;
        self.seal_active()
    }

    fn seal_active(&mut self) -> Result<(), ArchiveError> {
        let Some(mut f) = self.active.take() else {
            return Ok(());
        };
        let meta = self.segments.last_mut().expect("active meta exists");
        if meta.blocks.is_empty() {
            // Nothing flushed: drop the empty file rather than sealing it.
            let path = meta.path.clone();
            self.segments.pop();
            drop(f);
            std::fs::remove_file(path)?;
            self.publish_segments();
            return Ok(());
        }
        f.seek(SeekFrom::Start(meta.bytes))?;
        let footer = encode_footer(&meta.ous, &meta.blocks);
        let frame_len = write_frame(&mut f, FRAME_FOOTER, &footer)?;
        meta.bytes += frame_len;
        meta.sealed = true;
        self.metrics
            .bytes_written
            .get(&self.telemetry)
            .add(frame_len);
        self.metrics.segments_sealed.get(&self.telemetry).inc();
        Ok(())
    }

    /// Samples currently buffered in memtables (`archive_buffered_samples`).
    pub fn buffered_samples(&self) -> usize {
        self.buffered
    }

    /// Per-OU memtable occupancy (compaction's retention accounting).
    pub(crate) fn memtable_sizes(&self) -> Vec<(u16, usize)> {
        self.memtables
            .iter()
            .map(|(ou, mt)| (*ou, mt.len()))
            .collect()
    }

    /// Every OU name the archive has seen (segments + memtables).
    pub fn ou_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .segments
            .iter()
            .flat_map(|s| s.ous.iter().map(|o| o.name.clone()))
            .chain(self.memtables.values().map(|mt| mt.ou().name.clone()))
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Current shape summary.
    pub fn stats(&self) -> ArchiveStats {
        ArchiveStats {
            segments: self.segments.len(),
            sealed_segments: self.segments.iter().filter(|s| s.sealed).count(),
            blocks: self.segments.iter().map(|s| s.blocks.len()).sum(),
            samples_stored: self.segments.iter().map(SegmentMeta::samples).sum(),
            samples_buffered: self.buffered,
            bytes: self.segments.iter().map(|s| s.bytes).sum(),
        }
    }

    /// Stream every sample of one OU in append order: segment blocks
    /// oldest-first, then the OU's memtable tail.
    pub fn scan_ou(&self, ou_name: &str) -> SampleScan {
        SampleScan::over(self.scan_batches(Some(ou_name), Projection::ALL))
    }

    /// Stream every sample in storage order (blocks interleave OUs; each
    /// OU's samples appear in its own append order).
    pub fn scan_all(&self) -> SampleScan {
        SampleScan::over(self.scan_batches(None, Projection::ALL))
    }

    /// The read primitive: one [`ColumnBatch`] per block of `ou_name`
    /// (every OU when `None`), segment blocks oldest-first, then the
    /// unflushed memtable tails in OU-id order, with only the columns
    /// `projection` names decoded (memtable tails carry every column).
    /// [`Archive::scan_ou`] / [`Archive::scan_all`] are this with every
    /// column, turned back into [`Sample`]s row by row.
    pub fn scan_batches(&self, ou_name: Option<&str>, projection: Projection) -> BatchScan {
        let want = |o: &OuEntry| ou_name.is_none_or(|n| o.name == n);
        let mut files = Vec::new();
        let mut plan = Vec::new();
        for seg in &self.segments {
            let ids: Vec<u16> = seg.ous.iter().filter(|o| want(o)).map(|o| o.ou).collect();
            if ids.is_empty() {
                continue;
            }
            for b in seg.blocks.iter().filter(|b| ids.contains(&b.ou)) {
                plan.push((files.len(), b.offset, b.ou, b.count));
            }
            files.push((seg.path.clone(), seg.bytes));
        }
        BatchScan {
            files,
            plan,
            next_block: 0,
            open: None,
            payload: Vec::new(),
            block: ColumnBatch::default(),
            projection,
            tail: self
                .memtables
                .values()
                .filter(|mt| want(mt.ou()))
                .cloned()
                .collect(),
            tail_at: 0,
            telemetry: self.telemetry.clone(),
        }
    }
}

impl Drop for Archive {
    fn drop(&mut self) {
        // Best-effort durability on clean shutdown; a crash instead goes
        // through torn-tail recovery at the next open.
        let _ = self.seal();
    }
}

/// Streaming block reader: decodes one block at a time into one reused
/// [`ColumnBatch`] (and one reused payload buffer), never materializing
/// the archive. Blocks that fail their CRC or decode or disagree with their
/// manifest entry's OU id or row count (only if the file changed under
/// us) are skipped and counted in `archive_scan_skipped_blocks_total`.
#[derive(Debug)]
pub struct BatchScan {
    /// `(path, valid file length)` of every segment the plan touches.
    files: Vec<(PathBuf, u64)>,
    /// `(index into files, frame offset, OU id, rows)` per block, in order.
    plan: Vec<(usize, u64, u16, u64)>,
    next_block: usize,
    /// The open segment file and its index into `files`.
    open: Option<(usize, File)>,
    payload: Vec<u8>,
    block: ColumnBatch,
    projection: Projection,
    tail: Vec<ColumnBatch>,
    /// Memtable tails lent so far (they follow the last segment block).
    tail_at: usize,
    telemetry: Telemetry,
}

impl BatchScan {
    /// The most rows the scan lends: every planned block's manifest count,
    /// each capped at what one block can hold, plus the memtable tails.
    pub fn rows(&self) -> u64 {
        let blocks = self.plan.iter().map(|p| p.3.min(MAX_COLUMN_VALUES));
        let tails = self.tail.iter().map(|t| t.len() as u64);
        blocks.chain(tails).fold(0, u64::saturating_add)
    }

    /// The next readable block (or memtable tail), valid until the next
    /// call; `None` once the scan is done.
    pub fn next_batch(&mut self) -> Option<&ColumnBatch> {
        self.advance().then(|| self.current())
    }

    /// The batch the last successful [`Self::advance`] moved to.
    fn current(&self) -> &ColumnBatch {
        match self.tail_at.checked_sub(1) {
            Some(lent) => &self.tail[lent],
            None => &self.block,
        }
    }

    /// Move to the next readable block or memtable tail; `false` once
    /// there is none.
    fn advance(&mut self) -> bool {
        while let Some(&(file, offset, ou, rows)) = self.plan.get(self.next_block) {
            self.next_block += 1;
            if self.read_block(file, offset).is_some()
                && (self.block.ou().ou, self.block.len() as u64) == (ou, rows)
            {
                return true;
            }
            // Only reachable when a file changed underneath the scan.
            self.block.clear();
            decls::SCAN_SKIPPED_BLOCKS.with(&self.telemetry, &[]).inc();
        }
        let more = self.tail_at < self.tail.len();
        self.tail_at += usize::from(more);
        more
    }

    /// Read and decode the block at `offset` of `files[file]` into
    /// `self.block`; `None` if it cannot be opened, read or decoded.
    fn read_block(&mut self, file: usize, offset: u64) -> Option<()> {
        if self.open.as_ref().is_none_or(|(open, _)| *open != file) {
            self.open = Some((file, File::open(&self.files[file].0).ok()?));
        }
        let f = &mut self.open.as_mut()?.1;
        let (kind, _) = read_frame(f, offset, self.files[file].1, &mut self.payload)
            .ok()
            .flatten()?;
        if kind != FRAME_BLOCK {
            return None;
        }
        self.block.decode(&self.payload, self.projection)
    }
}

/// [`BatchScan`] with every column, handed out as owned [`Sample`]s one
/// row at a time.
#[derive(Debug)]
pub struct SampleScan {
    batches: BatchScan,
    /// Next row of the current batch, and where its values start in the
    /// batch's three flat columns.
    row: usize,
    flat_at: [usize; 3],
}

impl SampleScan {
    fn over(batches: BatchScan) -> Self {
        SampleScan {
            batches,
            row: 0,
            flat_at: [0; 3],
        }
    }
}

impl Iterator for SampleScan {
    type Item = Sample;

    fn next(&mut self) -> Option<Sample> {
        // Before the first `advance` the current batch is the empty block.
        while self.row >= self.batches.current().len() {
            if !self.batches.advance() {
                return None;
            }
            (self.row, self.flat_at) = (0, [0; 3]);
        }
        let sample = self.batches.current().sample(self.row, &mut self.flat_at);
        self.row += 1;
        Some(sample)
    }
}

#[cfg(test)]
pub(crate) fn test_sample(ou: u16, name: &str, i: u64) -> Sample {
    Sample {
        ou,
        ou_name: name.to_string(),
        subsystem: (ou % 6) as u8,
        tid: (i % 4) as u32,
        template: (i % 7) as u32,
        start_ns: 1_000_000 + i * 1_500,
        elapsed_ns: 200 + (i * 37) % 9_000,
        metrics: vec![i, i * 3],
        features: vec![i as f64, (i as f64) * 0.5 - 10.0],
        user_metrics: vec![i % 2],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tscout_archive_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    #[test]
    fn append_flush_seal_scan_round_trip() {
        let dir = tmp_dir("roundtrip");
        let mut a = Archive::open(&dir, ArchiveOptions::default(), Telemetry::new()).unwrap();
        let originals: Vec<Sample> = (0..500)
            .map(|i| {
                test_sample(
                    (i % 3) as u16,
                    ["scan", "filter", "join"][(i % 3) as usize],
                    i,
                )
            })
            .collect();
        for s in &originals {
            a.append(s.clone()).unwrap();
        }
        a.seal().unwrap();
        for name in ["scan", "filter", "join"] {
            let got: Vec<Sample> = a.scan_ou(name).collect();
            let want: Vec<&Sample> = originals.iter().filter(|s| s.ou_name == name).collect();
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert!(g.bits_eq(w));
            }
        }
        assert_eq!(a.scan_all().count(), 500);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_includes_unflushed_memtable_tail() {
        let dir = tmp_dir("tail");
        let mut a = Archive::open(&dir, ArchiveOptions::default(), Telemetry::new()).unwrap();
        for i in 0..10 {
            a.append(test_sample(1, "scan", i)).unwrap();
        }
        assert_eq!(a.buffered_samples(), 10);
        assert_eq!(a.scan_ou("scan").count(), 10);
        assert_eq!(a.stats().samples_stored, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn memtable_bound_forces_flush() {
        let dir = tmp_dir("bound");
        let opts = ArchiveOptions {
            memtable_flush_samples: 64,
            max_buffered_samples: 100,
            ..Default::default()
        };
        let mut a = Archive::open(&dir, opts, Telemetry::new()).unwrap();
        // Spread across many OUs so no single memtable hits 64.
        for i in 0..5_000u64 {
            a.append(test_sample((i % 40) as u16, &format!("ou{}", i % 40), i))
                .unwrap();
        }
        assert!(
            a.buffered_samples() <= 100,
            "buffered {} exceeds bound",
            a.buffered_samples()
        );
        assert_eq!(
            a.telemetry.gauge_value("archive_buffered_samples", &[]),
            a.buffered_samples() as f64
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_after_clean_seal_preserves_everything() {
        let dir = tmp_dir("reopen");
        let originals: Vec<Sample> = (0..300).map(|i| test_sample(2, "join", i)).collect();
        {
            let mut a = Archive::open(&dir, ArchiveOptions::default(), Telemetry::new()).unwrap();
            for s in &originals {
                a.append(s.clone()).unwrap();
            }
            // Drop seals.
        }
        let t = Telemetry::new();
        let a = Archive::open(&dir, ArchiveOptions::default(), t.clone()).unwrap();
        assert_eq!(
            t.counter_value("archive_recovered_truncations_total", &[]),
            0
        );
        let got: Vec<Sample> = a.scan_ou("join").collect();
        assert_eq!(got.len(), 300);
        for (g, w) in got.iter().zip(&originals) {
            assert!(g.bits_eq(w));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unsealed_segment_is_recovered_and_resealed() {
        let dir = tmp_dir("unsealed");
        {
            let mut a = Archive::open(&dir, ArchiveOptions::default(), Telemetry::new()).unwrap();
            for i in 0..50 {
                a.append(test_sample(1, "scan", i)).unwrap();
            }
            a.flush().unwrap(); // blocks on disk, no footer
            std::mem::forget(a); // simulate crash: Drop (seal) never runs
        }
        let t = Telemetry::new();
        let a = Archive::open(&dir, ArchiveOptions::default(), t.clone()).unwrap();
        assert_eq!(a.scan_ou("scan").count(), 50);
        assert_eq!(a.stats().sealed_segments, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_truncates_to_last_valid_block() {
        let dir = tmp_dir("torn");
        {
            let mut a = Archive::open(&dir, ArchiveOptions::default(), Telemetry::new()).unwrap();
            for i in 0..100 {
                a.append(test_sample(1, "scan", i)).unwrap();
            }
            a.flush().unwrap();
            std::mem::forget(a);
        }
        // Append garbage: a torn half-written frame.
        let path = seg_path(&dir, 0);
        let mut bytes = std::fs::read(&path).unwrap();
        let clean_len = bytes.len();
        bytes.extend_from_slice(&[FRAME_BLOCK, 0xFF, 0xFF, 0x00, 0x00, 1, 2, 3]);
        std::fs::write(&path, &bytes).unwrap();
        let t = Telemetry::new();
        let a = Archive::open(&dir, ArchiveOptions::default(), t.clone()).unwrap();
        assert_eq!(
            t.counter_value("archive_recovered_truncations_total", &[]),
            1
        );
        assert_eq!(a.scan_ou("scan").count(), 100);
        // The torn bytes are gone; the file was resealed past clean_len.
        assert!(std::fs::metadata(&path).unwrap().len() >= clean_len as u64);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flip_in_a_projected_out_column_skips_the_block_in_every_scan() {
        use crate::encode::{get_varint, skip_column};
        let dir = tmp_dir("flip");
        let t = Telemetry::new();
        let mut a = Archive::open(&dir, ArchiveOptions::default(), t.clone()).unwrap();
        for block in 0..3 {
            for i in 0..40 {
                a.append(test_sample(1, "scan", block * 40 + i)).unwrap();
            }
            a.flush().unwrap();
        }
        a.seal().unwrap();

        // Find the middle block's flat metrics column: past the block
        // header, the four scalar columns and the metrics lengths.
        let seg = &a.segments[0];
        let victim = &seg.blocks[1];
        let mut bytes = std::fs::read(&seg.path).unwrap();
        let payload_at = victim.offset as usize + 5;
        let payload = &bytes[payload_at..payload_at + victim.payload_len as usize];
        let mut pos = 0;
        get_varint(payload, &mut pos).unwrap(); // ou
        pos += 1; // subsystem
        pos += get_varint(payload, &mut pos).unwrap() as usize; // name
        for _ in 0..3 {
            get_varint(payload, &mut pos).unwrap(); // n, min/max start_ns
        }
        for _ in 0..5 {
            skip_column(payload, &mut pos).unwrap();
        }
        let metrics_flat_at = pos;
        skip_column(payload, &mut pos).unwrap();
        // The column's last byte is value data, not its header.
        bytes[payload_at + pos - 1] ^= 0x10;
        assert!(pos - metrics_flat_at > 8);
        std::fs::write(&seg.path, &bytes).unwrap();

        let skipped = || t.counter_value("archive_scan_skipped_blocks_total", &[]);
        let training = Projection {
            template: true,
            elapsed_ns: true,
            features: true,
            ..Projection::NONE
        };
        let mut scan = a.scan_batches(Some("scan"), training);
        let mut firsts = Vec::new();
        while let Some(batch) = scan.next_batch() {
            assert_eq!(batch.len(), 40);
            firsts.push(batch.elapsed_ns()[0]);
        }
        let elapsed = |i| test_sample(1, "scan", i).elapsed_ns;
        assert_eq!(firsts, [elapsed(0), elapsed(80)], "the middle block goes");
        assert_eq!(skipped(), 1, "the projected scan counts it once");

        let survivors: Vec<Sample> = a.scan_all().collect();
        assert_eq!(survivors.len(), 80);
        assert!(survivors[40].bits_eq(&test_sample(1, "scan", 80)));
        assert_eq!(skipped(), 2, "and so does the full scan");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A block rewritten underneath an open archive as another OU's —
    /// same offset and length, valid CRC — is not its manifest entry: it
    /// is skipped, never lent under the name the scan was planned for.
    #[test]
    fn a_block_that_is_not_its_manifest_entry_is_skipped() {
        let dir = tmp_dir("swap");
        let t = Telemetry::new();
        let mut a = Archive::open(&dir, ArchiveOptions::default(), t.clone()).unwrap();
        for (ou, name) in [(1, "scan"), (2, "sort")] {
            for i in 0..40 {
                a.append(test_sample(ou, name, i)).unwrap();
            }
            a.flush().unwrap();
        }
        a.seal().unwrap();
        // The payload opens with the OU id, subsystem and name; "sort"'s
        // take the same bytes as "scan"'s.
        let (path, victim) = (&a.segments[0].path, &a.segments[0].blocks[0]);
        let mut bytes = std::fs::read(path).unwrap();
        let at = victim.offset as usize + 5;
        let end = at + victim.payload_len as usize;
        assert_eq!(bytes[at..at + 7], [1, 1, 4, b's', b'c', b'a', b'n']);
        bytes[at..at + 7].copy_from_slice(&[2, 2, 4, b's', b'o', b'r', b't']);
        let crc = crate::crc32(&bytes[at..end]).to_le_bytes();
        bytes[end..end + 4].copy_from_slice(&crc);
        std::fs::write(path, &bytes).unwrap();

        let skipped = || t.counter_value("archive_scan_skipped_blocks_total", &[]);
        assert_eq!(a.scan_ou("scan").count(), 0, "sort's rows are not scan's");
        assert_eq!((a.scan_ou("sort").count(), skipped()), (40, 1));
        let all: Vec<Sample> = a.scan_all().collect();
        assert_eq!((all.len(), skipped()), (40, 2));
        assert!((all.iter().zip(0..)).all(|(s, i)| s.bits_eq(&test_sample(2, "sort", i))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_flush_drops_and_counts_its_rows_so_the_books_close() {
        let dir = tmp_dir("flushfail");
        let aside = tmp_dir("flushfail_aside");
        let opts = ArchiveOptions {
            memtable_flush_samples: 8,
            // Every flush seals, so the next one has to create a file.
            segment_max_bytes: 1,
            ..Default::default()
        };
        let t = Telemetry::new();
        let mut a = Archive::open(&dir, opts.clone(), t.clone()).unwrap();
        let lost = || t.counter_value("archive_append_errors_total", &[]);
        // The buffered count and gauge are the rows the memtables hold.
        let buffered_is_held = |a: &Archive| {
            let held: usize = a.memtable_sizes().iter().map(|(_, n)| n).sum();
            assert_eq!(a.buffered_samples(), held);
            assert_eq!(t.gauge_value("archive_buffered_samples", &[]), held as f64);
            assert!(held <= opts.max_buffered_samples);
        };
        // Every appended row is stored or buffered (what a scan returns)
        // or counted lost.
        let books_close = |a: &Archive| {
            buffered_is_held(a);
            assert_eq!(
                t.counter_value("archive_samples_appended_total", &[]),
                a.scan_all().count() as u64 + lost()
            );
        };
        for i in 0..20 {
            a.append(test_sample(1, "scan", i)).unwrap();
        }
        assert_eq!(a.stats().sealed_segments, 2);
        books_close(&a);

        // The directory vanishes under the open archive (moved aside, not
        // deleted, so the 16 rows already sealed stay countable): every
        // flush now fails in `ensure_active`.
        std::fs::rename(&dir, &aside).unwrap();
        let mut failed = 0;
        for i in 20..60 {
            failed += u64::from(a.append(test_sample(1, "scan", i)).is_err());
            buffered_is_held(&a);
        }
        assert_eq!(failed, 5, "one failed flush per 8 rows");
        assert_eq!(lost(), 40);
        assert!(a.flush().is_err());
        assert_eq!(lost(), 44, "a failed flush leaves nothing buffered");
        buffered_is_held(&a);

        std::fs::rename(&aside, &dir).unwrap();
        books_close(&a);
        for i in 60..70 {
            a.append(test_sample(1, "scan", i)).unwrap();
        }
        a.seal().unwrap();
        books_close(&a);
        let appended = t.counter_value("archive_samples_appended_total", &[]);
        drop(a);

        let cold = Archive::open(&dir, opts, Telemetry::new()).unwrap();
        let survivors: Vec<Sample> = cold.scan_all().collect();
        assert_eq!(survivors.len() as u64, appended - lost());
        for (got, i) in survivors.iter().zip((0..16).chain(60..70)) {
            assert!(got.bits_eq(&test_sample(1, "scan", i)));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segments_roll_over_at_size_cap() {
        let dir = tmp_dir("rollover");
        let opts = ArchiveOptions {
            memtable_flush_samples: 32,
            segment_max_bytes: 2_048,
            ..Default::default()
        };
        let t = Telemetry::new();
        let mut a = Archive::open(&dir, opts, t.clone()).unwrap();
        for i in 0..2_000 {
            a.append(test_sample(1, "scan", i)).unwrap();
        }
        a.seal().unwrap();
        assert!(a.stats().segments > 1, "expected rollover: {:?}", a.stats());
        assert_eq!(
            t.counter_value("archive_segments_sealed_total", &[]) as usize,
            a.stats().sealed_segments
        );
        assert_eq!(a.scan_ou("scan").count(), 2_000);
        std::fs::remove_dir_all(&dir).ok();
    }
}
