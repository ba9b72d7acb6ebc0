//! The archive store: memtables, segment lifecycle, recovery, and scans.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use tscout_telemetry::decls::{
    ARCHIVE_BUFFERED_SAMPLES, ARCHIVE_OU_BLOCKS, ARCHIVE_OU_BYTES_WRITTEN,
    ARCHIVE_OU_SAMPLES_APPENDED, ARCHIVE_SEGMENTS, ARCHIVE_SEGMENTS_COMPACTED,
    ARCHIVE_SEGMENTS_SEALED,
};
use tscout_telemetry::{Counter, CounterSite, GaugeSite, Telemetry};

use crate::encode::MAX_COLUMN_VALUES;
use crate::segment::{
    create_segment, frame_len, put_frame, read_block_frame, BlockCheck, BlockMeta, ColumnBatch,
    HeadReader, OuEntry, Projection, FRAME_BLOCK, FRAME_FOOTER, HEADER_LEN, MAGIC, OLDEST_VERSION,
    VERSION,
};
use crate::{decls, ArchiveError, ArchiveOptions, Sample};

/// One segment file known to the archive, oldest-first by `seqs`.
#[derive(Debug)]
pub(crate) struct SegmentMeta {
    /// The first and last sequence numbers whose rows it holds: equal
    /// for a flushed segment, a compacted run's span for a merged one.
    pub seqs: (u64, u64),
    pub path: PathBuf,
    /// File length: recovery cuts nothing, and reads follow the manifest.
    pub bytes: u64,
    pub sealed: bool,
    /// Every distinct OU entry (id and name) its blocks hold.
    pub ous: Vec<OuEntry>,
    pub blocks: Vec<BlockMeta>,
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

/// The write path's archive-wide metrics, declared once (see
/// [`tscout_telemetry::Site`]): each series registers on first use. The
/// per-OU series are resolved by name, once per [`Memtable`].
#[derive(Debug)]
pub(crate) struct ArchiveMetrics {
    appended: CounterSite,
    append_errors: CounterSite,
    buffered: GaugeSite,
    pub(crate) bytes_written: CounterSite,
    pub(crate) segments: GaugeSite,
    segments_sealed: CounterSite,
    pub(crate) segments_compacted: CounterSite,
}

impl ArchiveMetrics {
    fn new() -> Self {
        ArchiveMetrics {
            appended: decls::SAMPLES_APPENDED.site(&[]),
            append_errors: decls::APPEND_ERRORS.site(&[]),
            buffered: ARCHIVE_BUFFERED_SAMPLES.site(&[]),
            bytes_written: decls::BYTES_WRITTEN.site(&[]),
            segments: ARCHIVE_SEGMENTS.site(&[]),
            segments_sealed: ARCHIVE_SEGMENTS_SEALED.site(&[]),
            segments_compacted: ARCHIVE_SEGMENTS_COMPACTED.site(&[]),
        }
    }
}

/// One OU name's write buffer, with the handles of that name's
/// `archive_ou_samples_appended_total`, `archive_ou_blocks_total` and
/// `archive_ou_bytes_written_total` series, and the rows it was presized
/// for.
#[derive(Debug)]
struct Memtable {
    rows: ColumnBatch,
    presized: usize,
    appended: Counter,
    blocks: Counter,
    bytes_written: Counter,
}

/// The append-only, segmented, columnar per-OU sample store.
#[derive(Debug)]
pub struct Archive {
    pub(crate) dir: PathBuf,
    pub(crate) opts: ArchiveOptions,
    pub telemetry: Telemetry,
    pub(crate) metrics: ArchiveMetrics,
    /// Per-OU write buffers, keyed by OU id; each holds one name's rows.
    memtables: BTreeMap<u16, Memtable>,
    buffered: usize,
    /// Rows the live memtables were presized for: at most
    /// `max_buffered_samples`.
    presized: usize,
    /// The frame being written, reused: head, payload and CRC, sent out
    /// in one positional write.
    frame: Vec<u8>,
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

/// `seg-{first:06}.tsa`, or `seg-{first:06}-{last:06}.tsa` for a
/// segment merged from the run `first..=last`.
pub(crate) fn seg_path(dir: &Path, (first, last): (u64, u64)) -> PathBuf {
    if first == last {
        dir.join(format!("seg-{first:06}.tsa"))
    } else {
        dir.join(format!("seg-{first:06}-{last:06}.tsa"))
    }
}

/// The sequence range a segment file's name gives, as [`seg_path`]
/// writes it.
fn parse_seqs(path: &Path) -> Option<(u64, u64)> {
    let name = path.file_name()?.to_str()?;
    let rest = name.strip_prefix("seg-")?.strip_suffix(".tsa")?;
    let (first, last) = rest.split_once('-').unwrap_or((rest, rest));
    let seqs = (first.parse().ok()?, last.parse().ok()?);
    (seqs.0 <= seqs.1).then_some(seqs)
}

impl Archive {
    /// Open (or create) an archive directory, recovering from damaged
    /// segments and from a compaction cut short. After
    /// `open` every pre-existing segment is sealed (it takes no more
    /// blocks); new appends start a fresh segment.
    pub fn open(
        dir: impl Into<PathBuf>,
        opts: ArchiveOptions,
        telemetry: Telemetry,
    ) -> Result<Archive, ArchiveError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut paths: Vec<((u64, u64), PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "tmp") {
                // Leftover from a crashed compaction: inputs are intact.
                std::fs::remove_file(&path)?;
                continue;
            }
            if let Some(seqs) = parse_seqs(&path) {
                paths.push((seqs, path));
            }
        }
        paths.sort();
        // A merged segment holds every row of the run its name spans, so a
        // segment inside another's span is an input a crash left behind
        // between compaction's rename and its removes: its rows are stale.
        let spans: Vec<(u64, u64)> = paths.iter().map(|(seqs, _)| *seqs).collect();
        let covered =
            |&(a, b): &(u64, u64)| spans.iter().any(|&s| s != (a, b) && s.0 <= a && b <= s.1);
        let mut archive = Archive {
            dir,
            opts,
            telemetry,
            metrics: ArchiveMetrics::new(),
            memtables: BTreeMap::new(),
            buffered: 0,
            presized: 0,
            frame: Vec::new(),
            segments: Vec::new(),
            active: None,
            next_seq: spans.iter().map(|s| s.1 + 1).max().unwrap_or(0),
            compaction_hold: false,
            compaction_requested: false,
        };
        let (mut frame, mut block) = (Vec::new(), BlockCheck::new());
        for (seqs, path) in paths {
            if covered(&seqs) {
                std::fs::remove_file(&path)?;
            } else if let Some(meta) =
                archive.recover_segment(seqs, &path, &mut frame, &mut block)?
            {
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

    /// Walk one segment file's frames, reading only. A block frame that
    /// reads whole (kind, length, CRC) and passes `block`'s check (scratch,
    /// like `frame`: a full decode that stores no value) joins the
    /// manifest; an earlier build's footer at a frame boundary is stepped
    /// over. Any other byte is
    /// damage, stepped through a byte at a time to the next such block and
    /// counted once per span in `archive_scan_skipped_blocks_total`, so a
    /// damaged frame costs only its own rows. A version this build does
    /// not read, under the right magic, is `Corrupt`. `None` (file
    /// deleted): no block read.
    fn recover_segment(
        &mut self,
        seqs: (u64, u64),
        path: &Path,
        frame: &mut Vec<u8>,
        block: &mut BlockCheck,
    ) -> Result<Option<SegmentMeta>, ArchiveError> {
        let f = File::open(path)?;
        let file_len = f.metadata()?.len();
        let mut head = [0u8; MAGIC.len() + 1];
        if file_len >= HEADER_LEN {
            f.read_exact_at(&mut head, 0)?;
        }
        if &head[..4] == MAGIC && !(OLDEST_VERSION..=VERSION).contains(&head[4]) {
            return Err(ArchiveError::Corrupt(format!(
                "{} has format version {}, this build reads {OLDEST_VERSION} to {VERSION}",
                path.display(),
                head[4]
            )));
        }
        let (mut ous, mut blocks) = (Vec::new(), Vec::new());
        let (mut heads, mut at, mut damaged) = (HeadReader::default(), HEADER_LEN, false);
        while at < file_len {
            let (kind, len) = heads.at(&f, at, file_len)?.unwrap_or_default();
            let valid = kind == FRAME_BLOCK
                && read_block_frame(&f, at, len, file_len, frame)?
                    .is_some_and(|p| block.check(p).is_some());
            if valid {
                blocks.push(block.meta(at, len));
                if !ous.contains(block.ou()) {
                    ous.push(block.ou().clone());
                }
            }
            // A damaged span ends only at a block frame.
            let intact = valid || (kind == FRAME_FOOTER && !damaged);
            if !intact && !damaged {
                decls::SCAN_SKIPPED_BLOCKS.with(&self.telemetry, &[]).inc();
            }
            damaged = !intact;
            at += if intact { frame_len(len) } else { 1 };
        }
        if blocks.is_empty() {
            drop(f);
            std::fs::remove_file(path)?;
            return Ok(None);
        }
        Ok(Some(SegmentMeta {
            seqs,
            path: path.to_path_buf(),
            bytes: file_len,
            sealed: true,
            ous,
            blocks,
        }))
    }

    /// Append one sample, owned or borrowed (its fields are copied into
    /// columns either way). Routes to the per-OU memtable; flushes when
    /// the memtable or the global buffer bound fills. This is the only
    /// write-side entry point, so write-side memory is bounded by
    /// [`ArchiveOptions::max_buffered_samples`] decoded samples. A
    /// memtable holds the rows of one [`OuEntry`]: a sample whose name or
    /// subsystem is not that of its id's memtable flushes the memtable
    /// first, so no row is ever stored under another OU's entry. A new
    /// memtable is presized for the rows it holds before it flushes, out
    /// of what the global bound has left. `Err` means a flush failed: the
    /// rows of the block it was writing are dropped and counted in
    /// `archive_append_errors_total` (this sample among them only when
    /// the failed flush was of its own memtable).
    pub fn append(&mut self, sample: impl Borrow<Sample>) -> Result<(), ArchiveError> {
        let sample = sample.borrow();
        let ou = sample.ou;
        let displaced = self.memtables.get(&ou).is_some_and(|mt| {
            let entry = mt.rows.ou();
            entry.subsystem != sample.subsystem || entry.name != sample.ou_name
        });
        let displaced = if displaced { self.flush_ou(ou) } else { Ok(()) };
        let t = &self.telemetry;
        let headroom = self.opts.max_buffered_samples.saturating_sub(self.presized);
        let mt = self.memtables.entry(ou).or_insert_with(|| {
            let presized = self.opts.memtable_flush_samples.min(headroom);
            self.presized += presized;
            let mut rows = ColumnBatch::for_ou(OuEntry {
                ou,
                subsystem: sample.subsystem,
                name: sample.ou_name.clone(),
            });
            rows.reserve(presized, sample);
            let label = [("ou", sample.ou_name.as_str())];
            Memtable {
                rows,
                presized,
                appended: ARCHIVE_OU_SAMPLES_APPENDED.with(t, &label),
                blocks: ARCHIVE_OU_BLOCKS.with(t, &label),
                bytes_written: ARCHIVE_OU_BYTES_WRITTEN.with(t, &label),
            }
        });
        mt.rows.push(sample);
        mt.appended.inc();
        let mt_len = mt.rows.len();
        self.buffered += 1;
        self.metrics.appended.get(t).inc();
        self.metrics.buffered.get(t).add(1.0);
        let full_ou = if mt_len >= self.opts.memtable_flush_samples {
            Some(ou)
        } else if self.buffered > self.opts.max_buffered_samples {
            // Global bound: evict the largest memtable.
            self.memtables
                .iter()
                .max_by_key(|(_, mt)| mt.rows.len())
                .map(|(ou, _)| *ou)
        } else {
            None
        };
        let full = full_ou.map_or(Ok(()), |ou| self.flush_ou(ou));
        displaced.and(full)
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
        let written = self.write_block(&mt.rows);
        let rows = mt.rows.len();
        self.buffered -= rows;
        self.presized -= mt.presized;
        let t = &self.telemetry;
        self.metrics.buffered.get(t).add(-(rows as f64));
        let frame_len = match written {
            Ok(frame_len) => frame_len,
            Err(e) => {
                self.metrics.append_errors.get(t).add(rows as u64);
                return Err(e);
            }
        };
        self.metrics.bytes_written.get(t).add(frame_len);
        mt.blocks.inc();
        mt.bytes_written.add(frame_len);
        if self.segments.last().map(|m| m.bytes).unwrap_or(0) >= self.opts.segment_max_bytes {
            self.seal_active()?;
        }
        Ok(())
    }

    /// Encode `mt` as one frame and write it at the end of the active
    /// segment (created if there is none) in one positional write.
    /// Returns the frame's length. The segment's manifest and length move
    /// only once the whole frame is written, so the next frame overwrites
    /// whatever a failed write left.
    fn write_block(&mut self, mt: &ColumnBatch) -> Result<u64, ArchiveError> {
        self.frame.clear();
        let len = put_frame(&mut self.frame, FRAME_BLOCK, |out| mt.encode(out))?;
        self.ensure_active()?;
        let (Some(f), Some(meta)) = (&self.active, self.segments.last_mut()) else {
            return Err(io::Error::other("no active segment to write to").into());
        };
        f.write_all_at(&self.frame, meta.bytes)?;
        meta.blocks.push(mt.meta(meta.bytes, len));
        meta.bytes += frame_len(len);
        if !meta.ous.contains(mt.ou()) {
            meta.ous.push(mt.ou().clone());
        }
        Ok(frame_len(len))
    }

    /// Create the active segment file if there is none.
    fn ensure_active(&mut self) -> Result<(), ArchiveError> {
        if self.active.is_some() {
            return Ok(());
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let path = seg_path(&self.dir, (seq, seq));
        let f = create_segment(&path)?;
        self.segments.push(SegmentMeta {
            seqs: (seq, seq),
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

    /// Flush, then seal the active segment: it takes no more blocks, and
    /// the next flush starts a new one.
    pub fn seal(&mut self) -> Result<(), ArchiveError> {
        self.flush()?;
        self.seal_active()
    }

    /// Close the active segment file; nothing more is written to it.
    fn seal_active(&mut self) -> Result<(), ArchiveError> {
        // The active segment, when there is one, is the last.
        let active = self.active.take();
        let Some(meta) = self.segments.last_mut().filter(|_| active.is_some()) else {
            return Ok(());
        };
        if meta.blocks.is_empty() {
            // Nothing flushed: drop the empty file rather than sealing it.
            let path = meta.path.clone();
            self.segments.pop();
            std::fs::remove_file(path)?;
            self.publish_segments();
            return Ok(());
        }
        meta.sealed = true;
        self.metrics.segments_sealed.get(&self.telemetry).inc();
        Ok(())
    }

    /// Samples currently buffered in memtables (`archive_buffered_samples`).
    pub fn buffered_samples(&self) -> usize {
        self.buffered
    }

    /// Every OU name the archive has seen (segments + memtables).
    pub fn ou_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .segments
            .iter()
            .flat_map(|s| s.ous.iter().map(|o| o.name.clone()))
            .chain(self.memtables.values().map(|mt| mt.rows.ou().name.clone()))
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Current shape summary.
    pub fn stats(&self) -> ArchiveStats {
        let blocks = || self.segments.iter().flat_map(|s| &s.blocks);
        ArchiveStats {
            segments: self.segments.len(),
            sealed_segments: self.segments.iter().filter(|s| s.sealed).count(),
            blocks: blocks().count(),
            samples_stored: blocks().map(|b| b.count).sum(),
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
                plan.push((files.len(), b.clone()));
            }
            files.push((seg.path.clone(), seg.bytes));
        }
        BatchScan {
            name: ou_name.map(str::to_owned),
            files,
            plan,
            next_block: 0,
            open: None,
            frame: Vec::new(),
            block: ColumnBatch::default(),
            projection,
            tail: self
                .memtables
                .values()
                .filter(|mt| want(mt.rows.ou()))
                .map(|mt| mt.rows.clone())
                .collect(),
            tail_at: 0,
            telemetry: self.telemetry.clone(),
        }
    }
}

impl Drop for Archive {
    fn drop(&mut self) {
        // Best-effort durability on clean shutdown; a torn tail a crash
        // leaves instead is stepped over by the next open.
        // ignored: a caller that needs the error calls `seal` first, and a
        // failed flush has counted its rows in archive_append_errors_total.
        drop(self.seal());
    }
}

/// Streaming block reader: decodes one block at a time into one reused
/// [`ColumnBatch`] from one reused frame buffer, never materializing the
/// archive. Blocks that are not their manifest entry (kind, length, OU,
/// rows, or past the file length known at open) or fail their CRC or
/// decode (only if the file changed under us) are skipped and counted in
/// `archive_scan_skipped_blocks_total`. A named scan plans every block
/// of its name's OU ids and passes over, uncounted, those of another
/// name under the same id.
#[derive(Debug)]
pub struct BatchScan {
    /// The OU name scanned for; `None` scans every OU.
    name: Option<String>,
    /// `(path, file length)` of every segment the plan touches.
    files: Vec<(PathBuf, u64)>,
    /// `(index into files, manifest entry)` per block, in order.
    plan: Vec<(usize, BlockMeta)>,
    next_block: usize,
    /// The open segment file (read at offsets) and its index into `files`.
    open: Option<(usize, File)>,
    /// The last frame read, whole: kind, length, payload and CRC.
    frame: Vec<u8>,
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
        let blocks = self.plan.iter().map(|p| p.1.count.min(MAX_COLUMN_VALUES));
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
        while self.next_block < self.plan.len() {
            self.next_block += 1;
            let read = self.read_block(self.next_block - 1).is_some();
            let wanted = |name: &String| *name == self.block.ou().name;
            if read && self.name.as_ref().is_none_or(wanted) {
                return true;
            }
            self.block.clear();
            if !read {
                // Only reachable when a file changed underneath the scan.
                decls::SCAN_SKIPPED_BLOCKS.with(&self.telemetry, &[]).inc();
            }
        }
        let more = self.tail_at < self.tail.len();
        self.tail_at += usize::from(more);
        more
    }

    /// Read and decode the planned block `at` into `self.block`; `None`
    /// if it cannot be opened, read or decoded, or is not its manifest
    /// entry's OU and row count.
    fn read_block(&mut self, at: usize) -> Option<()> {
        let (file, meta) = &self.plan[at];
        if self.open.as_ref().is_none_or(|(open, _)| open != file) {
            self.open = Some((*file, File::open(&self.files[*file].0).ok()?));
        }
        let (f, file_len) = (&self.open.as_ref()?.1, self.files[*file].1);
        let frame = &mut self.frame;
        let payload =
            read_block_frame(f, meta.offset, meta.payload_len, file_len, frame).ok()??;
        self.block.decode(payload, self.projection)?;
        ((self.block.ou().ou, self.block.len() as u64) == (meta.ou, meta.count)).then_some(())
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
        assert_eq!(t.counter_value("archive_scan_skipped_blocks_total", &[]), 0);
        let got: Vec<Sample> = a.scan_ou("join").collect();
        assert_eq!(got.len(), 300);
        for (g, w) in got.iter().zip(&originals) {
            assert!(g.bits_eq(w));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unsealed_segment_is_recovered_untouched() {
        let dir = tmp_dir("unsealed");
        {
            let mut a = Archive::open(&dir, ArchiveOptions::default(), Telemetry::new()).unwrap();
            for i in 0..50 {
                a.append(test_sample(1, "scan", i)).unwrap();
            }
            a.flush().unwrap(); // blocks on disk
            std::mem::forget(a); // simulate crash: Drop (seal) never runs
        }
        let path = seg_path(&dir, (0, 0));
        let bytes = std::fs::read(&path).unwrap();
        let t = Telemetry::new();
        let a = Archive::open(&dir, ArchiveOptions::default(), t.clone()).unwrap();
        assert_eq!(a.scan_ou("scan").count(), 50);
        assert_eq!(a.stats().sealed_segments, 1);
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "open writes nothing");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A torn half-written frame after the last whole one is stepped
    /// over and counted once; it stays on disk, and nothing is written.
    #[test]
    fn a_torn_tail_is_stepped_over_and_left_on_disk() {
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
        let path = seg_path(&dir, (0, 0));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[FRAME_BLOCK, 0xFF, 0xFF, 0x00, 0x00, 1, 2, 3]);
        std::fs::write(&path, &bytes).unwrap();
        let t = Telemetry::new();
        let a = Archive::open(&dir, ArchiveOptions::default(), t.clone()).unwrap();
        assert_eq!(t.counter_value("archive_scan_skipped_blocks_total", &[]), 1);
        assert_eq!(a.scan_ou("scan").count(), 100);
        assert_eq!(a.stats().bytes, bytes.len() as u64);
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "open writes nothing");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Earlier builds ended a sealed segment with a footer frame (kind 2).
    /// Intact or with its CRC broken, it is stepped over: every row opens,
    /// nothing is skipped, and the file is not written.
    #[test]
    fn an_earlier_builds_footer_is_stepped_over_and_left_untouched() {
        use crate::encode::put_varint;
        let originals: Vec<Sample> = (0..90).map(|i| test_sample(1, "scan", i)).collect();
        for broken in [false, true] {
            let dir = tmp_dir(["legacy", "legacy_broken"][usize::from(broken)]);
            let mut a = Archive::open(&dir, ArchiveOptions::default(), Telemetry::new()).unwrap();
            for rows in originals.chunks(30) {
                rows.iter().for_each(|s| a.append(s).unwrap());
                a.flush().unwrap();
            }
            a.seal().unwrap();
            // The footer as they encoded it: the OU directory, then each
            // block's offset, payload length, OU, rows and start_ns range.
            let seg = &a.segments[0];
            let mut footer = vec![1, 1, 1, 4];
            footer.extend_from_slice(b"scan");
            put_varint(&mut footer, seg.blocks.len() as u64);
            for (b, rows) in seg.blocks.iter().zip(originals.chunks(30)) {
                let range = [rows[0].start_ns, rows[rows.len() - 1].start_ns];
                for v in [b.offset, b.payload_len.into(), b.ou.into(), b.count] {
                    put_varint(&mut footer, v);
                }
                range.iter().for_each(|&v| put_varint(&mut footer, v));
            }
            let path = seg.path.clone();
            let mut bytes = std::fs::read(&path).unwrap();
            put_frame(&mut bytes, FRAME_FOOTER, |out| {
                out.extend_from_slice(&footer);
            })
            .unwrap();
            if broken {
                *bytes.last_mut().unwrap() ^= 1;
            }
            drop(a);
            std::fs::write(&path, &bytes).unwrap();

            let t = Telemetry::new();
            let a = Archive::open(&dir, ArchiveOptions::default(), t.clone()).unwrap();
            let got: Vec<Sample> = a.scan_all().collect();
            assert_eq!(got.len(), originals.len(), "broken: {broken}");
            assert!(got.iter().zip(&originals).all(|(g, w)| g.bits_eq(w)));
            let skipped = t.counter_value("archive_scan_skipped_blocks_total", &[]);
            assert_eq!(skipped, 0, "broken: {broken}");
            assert_eq!(a.stats().bytes, bytes.len() as u64);
            drop(a);
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "broken: {broken}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// One OU id under two names (an OU list that changed between
    /// builds) is two OUs. Appended interleaved, flushed apart into one
    /// segment, and written again in a second session that is compacted
    /// and reopened, each name's rows come back as its own, and no block
    /// counts as damaged.
    #[test]
    fn one_id_under_two_names_keeps_each_names_rows() {
        let dir = tmp_dir("renamed");
        let t = Telemetry::new();
        let names = ["a", "b"];
        let mut want: [Vec<Sample>; 2] = Default::default();
        let append = |a: &mut Archive, want: &mut [Vec<Sample>; 2], which: usize, rows| {
            for i in rows {
                let s = test_sample(1, names[which], i);
                a.append(&s).unwrap();
                want[which].push(s);
            }
        };
        let each_name_has_its_rows = |a: &Archive, want: &[Vec<Sample>; 2]| {
            assert_eq!(a.ou_names(), names);
            for (name, want) in names.iter().zip(want) {
                let got: Vec<Sample> = a.scan_ou(name).collect();
                assert_eq!(got.len(), want.len(), "{name}");
                assert!(got.iter().zip(want).all(|(g, w)| g.bits_eq(w)), "{name}");
            }
        };

        let mut a = Archive::open(&dir, ArchiveOptions::default(), t.clone()).unwrap();
        for i in 0..20 {
            append(&mut a, &mut want, (i % 2) as usize, i..i + 1);
        }
        each_name_has_its_rows(&a, &want);
        append(&mut a, &mut want, 0, 20..30);
        a.flush().unwrap();
        append(&mut a, &mut want, 1, 30..40);
        a.seal().unwrap();
        assert_eq!(a.stats().segments, 1);
        each_name_has_its_rows(&a, &want);
        drop(a);

        let mut a = Archive::open(&dir, ArchiveOptions::default(), t.clone()).unwrap();
        append(&mut a, &mut want, 1, 40..50);
        append(&mut a, &mut want, 0, 50..60);
        a.seal().unwrap();
        each_name_has_its_rows(&a, &want);
        assert!(a.compact_now().unwrap());
        each_name_has_its_rows(&a, &want);
        drop(a);
        let a = Archive::open(&dir, ArchiveOptions::default(), t.clone()).unwrap();
        each_name_has_its_rows(&a, &want);
        assert_eq!(a.scan_all().count(), 60);
        let counted = [
            "archive_scan_skipped_blocks_total",
            "archive_append_errors_total",
        ]
        .map(|name| t.counter_value(name, &[]));
        assert_eq!(counted, [0, 0]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One id and name under two subsystems is two OU entries: each row
    /// keeps the subsystem it was appended with, buffered and sealed.
    #[test]
    fn one_id_and_name_under_two_subsystems_keeps_each_rows_subsystem() {
        let dir = tmp_dir("resubsystemed");
        let mut a = Archive::open(&dir, ArchiveOptions::default(), Telemetry::new()).unwrap();
        for (i, subsystem) in (0..10).zip([0, 0, 0, 0, 0, 3, 3, 3, 3, 3]) {
            a.append(Sample {
                subsystem,
                ..test_sample(5, "scan", i)
            })
            .unwrap();
        }
        let subsystems = |a: &Archive| a.scan_ou("scan").map(|s| s.subsystem).collect::<Vec<_>>();
        assert_eq!(subsystems(&a), [0, 0, 0, 0, 0, 3, 3, 3, 3, 3]);
        a.seal().unwrap();
        assert_eq!(subsystems(&a), [0, 0, 0, 0, 0, 3, 3, 3, 3, 3]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The per-OU counters, and the `ts_stat_archive` rows read from
    /// them, follow the name: one id under two names is two OUs there
    /// too, each credited with its own rows, blocks and bytes.
    #[test]
    fn one_id_under_two_names_is_counted_under_each_name() {
        let dir = tmp_dir("renamed_counts");
        let t = Telemetry::new();
        let mut a = Archive::open(&dir, ArchiveOptions::default(), t.clone()).unwrap();
        for i in 0..10 {
            a.append(test_sample(5, "scan", i)).unwrap();
        }
        for i in 10..17 {
            a.append(test_sample(5, "probe", i)).unwrap();
        }
        a.flush().unwrap();
        let counted = |ou: &str| {
            [
                "archive_ou_samples_appended_total",
                "archive_ou_blocks_total",
                "archive_ou_bytes_written_total",
            ]
            .map(|name| t.counter_value(name, &[("ou", ou)]))
        };
        // `scan` was flushed when `probe` displaced it: block 0, then 1.
        let bytes: Vec<u64> = (a.segments[0].blocks.iter())
            .map(|b| frame_len(b.payload_len))
            .collect();
        assert_eq!(bytes, [284, 229]);
        assert_eq!(counted("scan"), [10, 1, 284]);
        assert_eq!(counted("probe"), [7, 1, 229]);
        let archive = tscout_telemetry::tables::table("ts_stat_archive").unwrap();
        let rows = t.with_registry(|r| (archive.rows)(r));
        let per_ou: Vec<_> = rows.iter().map(|row| &row[..4]).collect();
        let row = |ou: &'static str, [samples, blocks, bytes]: [u64; 3]| {
            use tscout_telemetry::Cell::{Int, Text};
            [
                Text(ou.into()),
                Int(samples as i64),
                Int(blocks as i64),
                Int(bytes as i64),
            ]
        };
        assert_eq!(
            per_ou,
            [row("probe", counted("probe")), row("scan", counted("scan"))]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A sample that displaces its id's memtable (another name's rows)
    /// stays buffered when that flush fails; the displaced rows are
    /// counted lost, so the books still close.
    #[test]
    fn a_displacing_sample_stays_buffered_when_its_flush_fails() {
        let dir = tmp_dir("displace");
        let aside = tmp_dir("displace_aside");
        let t = Telemetry::new();
        let mut a = Archive::open(&dir, ArchiveOptions::default(), t.clone()).unwrap();
        for i in 0..3 {
            a.append(test_sample(1, "a", i)).unwrap();
        }
        std::fs::rename(&dir, &aside).unwrap();
        let b = test_sample(1, "b", 3);
        assert!(a.append(&b).is_err());
        assert_eq!(t.counter_value("archive_append_errors_total", &[]), 3);
        assert_eq!(a.buffered_samples(), 1);
        assert_eq!(t.gauge_value("archive_buffered_samples", &[]), 1.0);
        std::fs::rename(&aside, &dir).unwrap();
        a.seal().unwrap();
        drop(a);
        let a = Archive::open(&dir, ArchiveOptions::default(), Telemetry::new()).unwrap();
        let got: Vec<Sample> = a.scan_all().collect();
        assert!(got.len() == 1 && got[0].bits_eq(&b));
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

        // A reopen steps over the damaged block and keeps the one after
        // it: the same 80 survivors, and the file is not cut.
        drop(a);
        let t = Telemetry::new();
        let a = Archive::open(&dir, ArchiveOptions::default(), t.clone()).unwrap();
        let reopened: Vec<Sample> = a.scan_all().collect();
        assert_eq!(reopened.len(), 80);
        assert!(reopened.iter().zip(&survivors).all(|(g, w)| g.bits_eq(w)));
        assert_eq!(std::fs::read(&a.segments[0].path).unwrap(), bytes);
        let skipped = t.counter_value("archive_scan_skipped_blocks_total", &[]);
        assert_eq!(skipped, 1, "skipped once at open");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A segment of a format version this build does not know (the next
    /// one, or 0) is refused, byte for byte as it was, not cut as a torn
    /// file.
    #[test]
    fn an_unknown_version_is_refused_and_left_untouched() {
        let dir = tmp_dir("version");
        {
            let mut a = Archive::open(&dir, ArchiveOptions::default(), Telemetry::new()).unwrap();
            for i in 0..40 {
                a.append(test_sample(1, "scan", i)).unwrap();
            }
        }
        let path = seg_path(&dir, (0, 0));
        let mut bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[4], VERSION);
        for version in [VERSION + 1, 0] {
            bytes[4] = version;
            std::fs::write(&path, &bytes).unwrap();
            let err = Archive::open(&dir, ArchiveOptions::default(), Telemetry::new()).unwrap_err();
            assert!(
                matches!(&err, ArchiveError::Corrupt(m) if m.contains("seg-000000.tsa")),
                "{err}"
            );
            assert_eq!(std::fs::read(&path).unwrap(), bytes);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The version byte decides whether a segment is ours. A flip of any
    /// bit of the magic costs nothing: every row opens and the file is
    /// not written. A flip of the version under the right magic is
    /// refused, the file untouched. Five zero bytes, a creation torn
    /// before its header reached the disk, are deleted.
    #[test]
    fn a_flipped_magic_costs_nothing_and_a_flipped_version_is_refused() {
        let dir = tmp_dir("header");
        {
            let mut a = Archive::open(&dir, ArchiveOptions::default(), Telemetry::new()).unwrap();
            for i in 0..40 {
                a.append(test_sample(1, "scan", i)).unwrap();
            }
        }
        let path = seg_path(&dir, (0, 0));
        let pristine = std::fs::read(&path).unwrap();
        for bit in 0..40 {
            let mut bytes = pristine.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            std::fs::write(&path, &bytes).unwrap();
            let t = Telemetry::new();
            match Archive::open(&dir, ArchiveOptions::default(), t.clone()) {
                Ok(a) => {
                    assert!(bit < 32, "bit {bit} of the version opened");
                    assert_eq!(a.scan_ou("scan").count(), 40, "bit {bit}");
                }
                Err(e) => assert!(bit >= 32 && matches!(e, ArchiveError::Corrupt(_)), "{e}"),
            }
            let skipped = t.counter_value("archive_scan_skipped_blocks_total", &[]);
            assert_eq!(skipped, 0, "bit {bit}");
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "bit {bit}");
        }
        std::fs::write(&path, [0; 5]).unwrap();
        let a = Archive::open(&dir, ArchiveOptions::default(), Telemetry::new()).unwrap();
        assert_eq!(a.stats().segments, 0);
        assert!(!path.exists(), "a torn creation is deleted");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A segment whose one block fails its CRC holds no block to serve:
    /// the damage is counted and the file removed.
    #[test]
    fn a_segment_whose_only_block_fails_its_crc_is_removed() {
        let dir = tmp_dir("only_block");
        {
            let mut a = Archive::open(&dir, ArchiveOptions::default(), Telemetry::new()).unwrap();
            for i in 0..40 {
                a.append(test_sample(1, "scan", i)).unwrap();
            }
        }
        let path = seg_path(&dir, (0, 0));
        let mut bytes = std::fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 1; // the CRC's last byte
        std::fs::write(&path, &bytes).unwrap();
        let t = Telemetry::new();
        let a = Archive::open(&dir, ArchiveOptions::default(), t.clone()).unwrap();
        assert_eq!((a.stats().segments, a.scan_all().count()), (0, 0));
        assert_eq!(t.counter_value("archive_scan_skipped_blocks_total", &[]), 1);
        assert!(
            !path.exists(),
            "a segment with no readable block is removed"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// 400 rows in 32-row blocks, merged by `compact_now` into one
    /// segment of 13 blocks. A flipped bit in any byte of any frame's
    /// head (its kind or its length), the first frame's included, costs
    /// exactly that frame's rows: every other row is served in order,
    /// the damage is counted once, and the file is left as it was.
    #[test]
    fn a_damaged_frame_head_costs_only_its_own_rows_wherever_it_sits() {
        let dir = tmp_dir("heads");
        let opts = ArchiveOptions {
            memtable_flush_samples: 32,
            segment_max_bytes: 2_048,
            ..Default::default()
        };
        let originals: Vec<Sample> = (0..400).map(|i| test_sample(1, "scan", i)).collect();
        let mut a = Archive::open(&dir, opts.clone(), Telemetry::new()).unwrap();
        originals.iter().for_each(|s| a.append(s).unwrap());
        a.seal().unwrap();
        assert!(a.compact_now().unwrap());
        let (path, blocks) = (a.segments[0].path.clone(), a.segments[0].blocks.clone());
        drop(a);
        assert_eq!(blocks.len(), 13);
        let pristine = std::fs::read(&path).unwrap();
        let mut first = 0;
        for (k, victim) in blocks.iter().enumerate() {
            let lost = first..first + victim.count as usize;
            first = lost.end;
            for at in victim.offset as usize..victim.offset as usize + 5 {
                let mut bytes = pristine.clone();
                bytes[at] ^= 0x40;
                std::fs::write(&path, &bytes).unwrap();
                let t = Telemetry::new();
                let a = Archive::open(&dir, opts.clone(), t.clone()).unwrap();
                let got: Vec<Sample> = a.scan_all().collect();
                let kept = (originals.iter().enumerate()).filter(|(i, _)| !lost.contains(i));
                assert_eq!(got.len(), 400 - lost.len(), "block {k}, byte {at}");
                assert!(got.iter().zip(kept).all(|(g, (_, w))| g.bits_eq(w)));
                let skipped = t.counter_value("archive_scan_skipped_blocks_total", &[]);
                assert_eq!(skipped, 1, "block {k}, byte {at}");
                drop(a);
                assert_eq!(std::fs::read(&path).unwrap(), bytes, "block {k}, byte {at}");
            }
        }
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

        // A frame whose kind byte or length field is not its entry's (the
        // CRC, over the payload, still holds), and a block planned past the
        // end of a segment cut short under the open archive: each is
        // skipped and counted, and the frame buffer never grows past the
        // segment's valid length.
        type Damage = fn(&mut Vec<u8>, usize, usize);
        let cases: [(&str, Damage); 3] = [
            ("kind", |bytes, at, _| bytes[at] = FRAME_FOOTER),
            ("length", |bytes, at, len| {
                bytes[at + 1..at + 5].copy_from_slice(&(len as u32 - 1).to_le_bytes());
            }),
            ("cut", |bytes, at, len| bytes.truncate(at + 5 + len / 2)),
        ];
        for (case, damage) in cases {
            let dir = tmp_dir(case);
            let t = Telemetry::new();
            let mut a = Archive::open(&dir, ArchiveOptions::default(), t.clone()).unwrap();
            for block in 0..3 {
                for i in 0..40 {
                    a.append(test_sample(1, "scan", block * 40 + i)).unwrap();
                }
                a.flush().unwrap();
            }
            a.seal().unwrap();
            let (path, victim) = (&a.segments[0].path, &a.segments[0].blocks[2]);
            let mut bytes = std::fs::read(path).unwrap();
            damage(
                &mut bytes,
                victim.offset as usize,
                victim.payload_len as usize,
            );
            std::fs::write(path, &bytes).unwrap();

            let mut scan = a.scan_batches(Some("scan"), Projection::ALL);
            let mut rows = 0;
            while let Some(batch) = scan.next_batch() {
                rows += batch.len();
            }
            let skipped = t.counter_value("archive_scan_skipped_blocks_total", &[]);
            assert_eq!((rows, skipped), (80, 1), "{case}");
            assert!(
                scan.frame.capacity() as u64 <= a.segments[0].bytes,
                "{case}"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
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
            let held: usize = a.memtables.values().map(|mt| mt.rows.len()).sum();
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

    /// A flushed block is one frame: the bytes `put_frame` builds around
    /// the memtable's encoding, written at the segment's end. A write that
    /// fails (the active file swapped for a read-only handle) counts its
    /// rows lost and moves neither the manifest nor the segment's length,
    /// so the next frame goes where the failed one would have, over
    /// whatever a torn write left there.
    #[test]
    fn a_block_is_one_frame_and_a_failed_write_moves_nothing() {
        let dir = tmp_dir("one_write");
        let t = Telemetry::new();
        let mut a = Archive::open(&dir, ArchiveOptions::default(), t.clone()).unwrap();
        let rows = |from: u64, to: u64| (from..to).map(|i| test_sample(1, "scan", i));
        let frame_of = |a: &Archive, from: u64, to: u64| {
            let mut batch = ColumnBatch::for_ou(a.memtables[&1].rows.ou().clone());
            rows(from, to).for_each(|s| batch.push(&s));
            let mut frame = Vec::new();
            put_frame(&mut frame, FRAME_BLOCK, |out| batch.encode(out)).unwrap();
            frame
        };
        rows(0, 40).for_each(|s| a.append(s).unwrap());
        let first = frame_of(&a, 0, 40);
        a.flush().unwrap();
        let path = a.segments[0].path.clone();
        let on_disk = std::fs::read(&path).unwrap();
        assert_eq!(
            on_disk[..HEADER_LEN as usize],
            [b'T', b'S', b'A', b'R', VERSION]
        );
        assert_eq!(on_disk[HEADER_LEN as usize..], first);
        let (end, blocks) = (a.segments[0].bytes, a.segments[0].blocks.clone());
        assert_eq!((end, blocks.len()), (on_disk.len() as u64, 1));

        a.active = Some(File::open(&path).unwrap());
        rows(40, 70).for_each(|s| a.append(s).unwrap());
        assert!(a.flush().is_err());
        assert_eq!(t.counter_value("archive_append_errors_total", &[]), 30);
        assert_eq!(a.buffered_samples(), 0);
        assert_eq!((a.segments[0].bytes, &a.segments[0].blocks), (end, &blocks));
        assert_eq!(std::fs::read(&path).unwrap(), on_disk);

        // A torn write's bytes past the end, shorter than the next frame.
        let mut torn = on_disk.clone();
        torn.extend_from_slice(&[FRAME_BLOCK, 0xFF, 0xFF, 0, 0, 1, 2, 3]);
        std::fs::write(&path, &torn).unwrap();
        a.active = Some(std::fs::OpenOptions::new().write(true).open(&path).unwrap());
        rows(70, 100).for_each(|s| a.append(s).unwrap());
        let third = frame_of(&a, 70, 100);
        a.flush().unwrap();
        let seg = &a.segments[0];
        assert_eq!(
            seg.blocks.iter().map(|b| b.offset).collect::<Vec<_>>(),
            [HEADER_LEN, end]
        );
        assert_eq!(std::fs::read(&path).unwrap(), [on_disk, third].concat());
        a.seal().unwrap();
        drop(a);

        let t = Telemetry::new();
        let a = Archive::open(&dir, ArchiveOptions::default(), t.clone()).unwrap();
        let got: Vec<Sample> = a.scan_all().collect();
        let want: Vec<Sample> = rows(0, 40).chain(rows(70, 100)).collect();
        assert_eq!(got.len(), want.len());
        assert!(got.iter().zip(&want).all(|(g, w)| g.bits_eq(w)));
        assert_eq!(t.counter_value("archive_scan_skipped_blocks_total", &[]), 0);
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

    /// One column as the block format writes it: `tag`, `varint n`,
    /// `varint byte_len`, `body` — whatever the body holds.
    fn column(tag: u8, n: u64, body: &[u8]) -> Vec<u8> {
        use crate::encode::put_varint;
        let mut out = vec![tag];
        put_varint(&mut out, n);
        put_varint(&mut out, body.len() as u64);
        out.extend_from_slice(body);
        out
    }

    /// `values` under tag 0 (delta) or tag 1 (packed at the frame their
    /// range needs), whatever `put_column` would pick.
    fn column_as(tag: u8, values: &[u64]) -> Vec<u8> {
        use crate::encode::{put_delta, put_packed};
        let mut body = Vec::new();
        if tag == 0 {
            put_delta(&mut body, values.iter().copied());
        } else {
            let min = values.iter().copied().min().unwrap_or(0);
            let max = values.iter().copied().max().unwrap_or(0);
            let width = 64 - (max - min).leading_zeros();
            put_packed(&mut body, values.iter().copied(), min, width);
        }
        column(tag, values.len() as u64, &body)
    }

    /// `zs` under tag 2, its inner codec `codec` (0 delta, 1 packed at
    /// the frame their range needs).
    fn integers_as(codec: u8, zs: &[u64]) -> Vec<u8> {
        let inner = column_as(codec, zs);
        let mut at = 1;
        crate::encode::get_varint(&inner, &mut at).unwrap();
        crate::encode::get_varint(&inner, &mut at).unwrap();
        column(2, zs.len() as u64, &[&[codec], &inner[at..]].concat())
    }

    /// A packed body of frame `min`, `width` holding `raws`, whether or
    /// not `min + raw` fits.
    fn packed_body(min: u64, width: u32, raws: &[u64]) -> Vec<u8> {
        use crate::encode::{put_packed, put_varint};
        let mut packed = Vec::new();
        put_packed(&mut packed, raws.iter().copied(), 0, width);
        let mut body = Vec::new();
        put_varint(&mut body, min);
        body.extend_from_slice(&packed[1..]); // past `min` = 0's one byte
        body
    }

    /// The inner codec of a block payload's feature column when it is
    /// tag 2.
    fn integer_codec(payload: &[u8]) -> Option<u8> {
        use crate::encode::{get_varint, skip_column};
        let mut pos = 0;
        get_varint(payload, &mut pos).unwrap(); // ou
        pos += 1; // subsystem
        pos += get_varint(payload, &mut pos).unwrap() as usize; // name
        for _ in 0..3 {
            get_varint(payload, &mut pos).unwrap(); // rows, min/max start_ns
        }
        for _ in 0..7 {
            skip_column(payload, &mut pos).unwrap();
        }
        let tag = payload[pos];
        pos += 1;
        get_varint(payload, &mut pos).unwrap();
        get_varint(payload, &mut pos).unwrap();
        (tag == 2).then(|| payload[pos])
    }

    /// Column-level mutants of one block payload: each of its ten columns
    /// replaced in turn by a truncated or 64-bit-overflowing varint, width
    /// 65, a packed length off by one, frames whose `min + mask` overflows
    /// `u64` or passes `u32::MAX` (with every value fitting, and not),
    /// values past `u32::MAX`, values edited so a vector's length sum moves,
    /// stays or wraps to the flat count, and its own values under the
    /// other codec and under tag 2 (read as zigzagged integers); a tag-2
    /// column's integers edited to ±2^53 and past it under either inner
    /// codec, its inner codec byte swapped, unknown or missing, and its
    /// payload under tags 0 and 1; each length column with the flat column
    /// after it replaced by lengths that overflow onto an empty column;
    /// and trailing bytes.
    fn column_mutants(payload: &[u8]) -> Vec<(String, Vec<u8>)> {
        use crate::encode::{get_column, get_varint};
        let mut pos = 0;
        get_varint(payload, &mut pos).unwrap(); // ou
        pos += 1; // subsystem
        pos += get_varint(payload, &mut pos).unwrap() as usize; // name
        for _ in 0..3 {
            get_varint(payload, &mut pos).unwrap(); // rows, min/max start_ns
        }
        let mut spans = Vec::new();
        let mut values = Vec::new();
        while pos < payload.len() {
            let start = pos;
            get_column(payload, &mut pos, &mut values).unwrap();
            spans.push((start, pos, values.clone()));
        }
        assert_eq!(spans.len(), 10);
        let half = 1u64 << 63;
        type Edit = (&'static str, fn(&mut [u64]));
        let edits: [Edit; 7] = [
            ("recoded", |_| {}),
            ("first + 1", |v| v[0] = v[0].wrapping_add(1)),
            ("one moved from row 1 to row 0", |v| {
                v[0] = v[0].wrapping_add(1);
                v[1] = v[1].wrapping_sub(1);
            }),
            ("rows 0 and 1 + 2^63", |v| {
                v[0] = v[0].wrapping_add(1 << 63);
                v[1] = v[1].wrapping_add(1 << 63);
            }),
            ("u32::MAX at row 0", |v| v[0] = u64::from(u32::MAX)),
            ("u32::MAX + 1 at row 1", |v| v[1] = 1 << 32),
            ("u64::MAX at row 0", |v| v[0] = u64::MAX),
        ];
        let mut mutants = vec![("trailing byte".to_string(), [payload, &[0]].concat())];
        for (c, (start, end, values)) in spans.iter().enumerate() {
            let (tag, n) = (payload[*start], values.len() as u64);
            let mut body_at = start + 1;
            get_varint(payload, &mut body_at).unwrap();
            get_varint(payload, &mut body_at).unwrap();
            let body = &payload[body_at..*end];
            // (What, the column after the replaced ones, replacement.)
            let mut columns: Vec<(&str, usize, Vec<u8>)> = Vec::new();
            for (what, edit) in edits {
                let mut changed = values.clone();
                if changed.len() >= 2 {
                    edit(&mut changed);
                    for as_tag in [0, 1] {
                        columns.push((what, c + 1, column_as(as_tag, &changed)));
                    }
                }
            }
            for codec in [0, 1] {
                columns.push(("values as tag 2", c + 1, integers_as(codec, values)));
            }
            if tag == 2 {
                let zs: Vec<u64> = (values.iter())
                    .map(|&b| {
                        let i = f64::from_bits(b) as i64;
                        ((i << 1) ^ (i >> 63)) as u64
                    })
                    .collect();
                let edits: [Edit; 4] = [
                    ("z + 1 at row 0", |z| z[0] += 1),
                    ("z 2^54 (2^53) at row 0", |z| z[0] = 1 << 54),
                    ("z 2^54 + 1 at row 0", |z| z[0] = (1 << 54) + 1),
                    ("z u64::MAX at row 1", |z| z[1] = u64::MAX),
                ];
                for (what, edit) in edits {
                    let mut changed = zs.clone();
                    edit(&mut changed);
                    for codec in [0, 1] {
                        columns.push((what, c + 1, integers_as(codec, &changed)));
                    }
                }
                let renamed: [(&str, u8); 4] = [
                    ("inner codec 0", 0),
                    ("inner codec 1", 1),
                    ("inner codec 2", 2),
                    ("inner codec 3", 3),
                ];
                for (what, codec) in renamed {
                    let mut swapped = body.to_vec();
                    swapped[0] = codec;
                    columns.push((what, c + 1, column(2, n, &swapped)));
                }
                columns.push(("no inner codec", c + 1, column(2, n, &[])));
                for (what, as_tag) in [("tag 2 payload as tag 0", 0), ("as tag 1", 1)] {
                    columns.push((what, c + 1, column(as_tag, n, body)));
                }
            }
            if tag == 0 && !body.is_empty() {
                let mut cut = body.to_vec();
                *cut.last_mut().unwrap() |= 0x80;
                columns.push(("truncated varint", c + 1, column(0, n, &cut)));
                let mut first_len = 0;
                get_varint(body, &mut first_len).unwrap();
                let over = [&[0xFF; 9][..], &[0x02], &body[first_len..]].concat();
                columns.push(("overflowing varint", c + 1, column(0, n, &over)));
            }
            if tag == 1 {
                let mut width_at = 0;
                get_varint(body, &mut width_at).unwrap();
                let mut wide = body.to_vec();
                wide[width_at] = 65;
                columns.push(("width 65", c + 1, column(1, n, &wide)));
                let long = [body, &[0]].concat();
                columns.push(("packed +1 byte", c + 1, column(1, n, &long)));
                if body.len() > width_at + 1 {
                    let short = &body[..body.len() - 1];
                    columns.push(("packed -1 byte", c + 1, column(1, n, short)));
                }
            }
            for (what, min, width, top_raw) in [
                ("u64 frame overflows, values fit", u64::MAX - 5, 12, 5),
                (
                    "u64 frame overflows, last value too",
                    u64::MAX - 5,
                    12,
                    4_000,
                ),
                (
                    "u32 frame passes u32::MAX, values fit",
                    u64::from(u32::MAX) - 2,
                    2,
                    2,
                ),
                (
                    "u32 frame passes u32::MAX, last value too",
                    u64::from(u32::MAX) - 2,
                    2,
                    3,
                ),
            ] {
                let mut raws: Vec<u64> = (0..n).map(|i| i % 3).collect();
                if let Some(last) = raws.last_mut() {
                    *last = top_raw;
                }
                columns.push((what, c + 1, column(1, n, &packed_body(min, width, &raws))));
            }
            if c >= 4 && c % 2 == 0 && n % 2 == 0 {
                // Lengths whose sum overflows to 0, over an empty flat column.
                let lens = [column_as(1, &vec![half; n as usize]), column_as(0, &[])].concat();
                columns.push(("2^63 lengths, no values", c + 2, lens));
            }
            for (what, after, col) in columns {
                let tail = spans.get(after).map_or(payload.len(), |span| span.0);
                let mutant = [&payload[..*start], &col, &payload[tail..]].concat();
                mutants.push((format!("column {c} ({tag}): {what}"), mutant));
            }
        }
        mutants
    }

    /// Every block of a small three-OU segment, mutated with its CRC
    /// recomputed so that each mutant reaches the decoder: `open`'s check
    /// gives the verdict, OU and row count `decode(_, Projection::ALL)`
    /// gives, on column-level mutants, every truncation and seeded byte
    /// flips; and an archive holding a column-level mutant keeps its block
    /// exactly when decode accepts it.
    #[test]
    fn the_open_check_agrees_with_a_full_decode_on_every_mutant() {
        let dir = tmp_dir("verdicts");
        let opts = ArchiveOptions {
            memtable_flush_samples: 24,
            ..Default::default()
        };
        let mut a = Archive::open(&dir, opts.clone(), Telemetry::new()).unwrap();
        for i in 0..150u64 {
            let mut s = test_sample(
                (i % 3) as u16,
                ["scan", "filter", "wide"][(i % 3) as usize],
                i,
            );
            if s.ou == 2 {
                // Near the tops of `u32` and `u64`: packed frames whose
                // `min + mask` overflows while every value fits.
                s.tid = u32::MAX - (i % 3) as u32;
                s.metrics = vec![u64::MAX - i * 7 % 101, i];
                // Integers, one block of them with a jump (deltas win).
                let base = if i < 10 { 0.0 } else { 1e12 };
                s.features = vec![base + i as f64];
            } else if s.ou == 1 {
                // Small integers: tag 2 over packed.
                s.features = vec![i as f64, (i * 7 % 50) as f64 - 20.0];
            }
            a.append(&s).unwrap();
        }
        a.seal().unwrap();
        let (path, blocks) = (a.segments[0].path.clone(), a.segments[0].blocks.clone());
        let rows: u64 = blocks.iter().map(|b| b.count).sum();
        drop(a);
        assert!(blocks.len() >= 6, "{}", blocks.len());
        let pristine = std::fs::read(&path).unwrap();

        let (mut batch, mut check) = (ColumnBatch::default(), BlockCheck::new());
        let mut agree = |p: &[u8], what: &str| {
            let decoded = batch.decode(p, Projection::ALL).is_some();
            assert_eq!(check.check(p).is_some(), decoded, "{what}");
            if decoded {
                assert_eq!(
                    (check.ou(), check.len()),
                    (batch.ou(), batch.len()),
                    "{what}"
                );
            }
            decoded.then(|| batch.len() as u64)
        };
        let mut next = {
            let mut state = 0x5EED_u64;
            move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            }
        };
        let (mut verdicts, mut opened, mut integers) = ([0usize; 2], 0, [0usize; 2]);
        for (k, victim) in blocks.iter().enumerate() {
            let at = victim.offset as usize;
            let payload = &pristine[at + 5..at + 5 + victim.payload_len as usize];
            assert!(agree(payload, "pristine").is_some());
            if let Some(codec) = integer_codec(payload) {
                integers[usize::from(codec)] += 1;
            }
            for cut in 0..payload.len() {
                assert!(agree(&payload[..cut], &format!("block {k} cut at {cut}")).is_none());
            }
            for flip in 0..300 {
                let mut flipped = payload.to_vec();
                for _ in 0..1 + flip % 3 {
                    let r = next() as usize;
                    flipped[r % payload.len()] ^= 1 << (r >> 32 & 7);
                }
                let kept = agree(&flipped, &format!("block {k} flip {flip}"));
                verdicts[usize::from(kept.is_some())] += 1;
            }
            for (what, mutant) in column_mutants(payload) {
                let what = format!("block {k}, {what}");
                let kept = agree(&mutant, &what);
                verdicts[usize::from(kept.is_some())] += 1;
                // The mutant in place of the block, under a recomputed CRC.
                let mut bytes = pristine[..at].to_vec();
                put_frame(&mut bytes, FRAME_BLOCK, |out| {
                    out.extend_from_slice(&mutant);
                })
                .unwrap();
                bytes.extend_from_slice(&pristine[at + frame_len(victim.payload_len) as usize..]);
                std::fs::write(&path, &bytes).unwrap();
                let t = Telemetry::new();
                let a = Archive::open(&dir, opts.clone(), t.clone()).unwrap();
                let seg = &a.segments[0];
                let got = (
                    seg.blocks.len(),
                    seg.blocks.iter().map(|b| b.count).sum::<u64>(),
                );
                let skipped = t.counter_value("archive_scan_skipped_blocks_total", &[]);
                let want = match kept {
                    Some(n) => ((blocks.len(), rows - victim.count + n), 0),
                    None => ((blocks.len() - 1, rows - victim.count), 1),
                };
                assert_eq!((got, skipped), want, "{what}");
                opened += 1;
            }
        }
        // Both verdicts are common enough for the agreement to mean
        // something, and tag 2 is met over both inner codecs.
        assert!(verdicts[0] > 500 && verdicts[1] > 200, "{verdicts:?}");
        assert!(integers[0] >= 1 && integers[1] >= 2, "{integers:?}");
        assert!(opened > 300, "{opened}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
