//! Compaction: merge runs of small sealed segments and enforce the
//! per-OU retention budget.
//!
//! Only a *contiguous run of sealed segments starting at the oldest* is
//! ever merged, so per-OU append order is preserved: the merged segment
//! replaces the run in place (it takes the run's first sequence number)
//! and every surviving sample keeps its position relative to the
//! untouched newer segments. Retention drops the **oldest** samples of
//! an over-budget OU — and since the run being compacted is the oldest
//! data in the archive, retirement never has to touch newer segments.
//!
//! Crash safety: the merged segment is written to a `.tmp` file and
//! renamed over the run's first segment before the other inputs are
//! deleted. A crash mid-compaction leaves either the inputs intact plus
//! an ignored `.tmp`, or the merged file plus stale inputs whose data is
//! duplicated — `open` keeps whichever files parse, and the worst case
//! is re-doing the compaction.

use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::Write;

use crate::segment::{
    encode_footer, read_frame, write_frame, BlockMeta, ColumnBatch, OuEntry, Projection,
    FRAME_BLOCK, FRAME_FOOTER, HEADER_LEN, MAGIC, VERSION,
};
use crate::store::SegmentMeta;
use crate::{Archive, ArchiveError};

impl Archive {
    /// Compact if the policy says so: at least
    /// [`crate::ArchiveOptions::compact_fanin`] contiguous small sealed
    /// segments at the head of the archive. Returns whether a compaction
    /// ran.
    ///
    /// The action engine overrides the policy in both directions: a
    /// [`Archive::set_compaction_hold`] makes this a no-op (compaction
    /// deprioritized while collection overhead is over budget), and a
    /// [`Archive::request_compaction`] compacts the whole sealed head
    /// run on the next call even below the fan-in threshold.
    pub fn maybe_compact(&mut self) -> Result<bool, ArchiveError> {
        if self.compaction_hold {
            return Ok(false);
        }
        if self.compaction_requested {
            self.compaction_requested = false;
            return self.compact_now();
        }
        let run = self
            .segments
            .iter()
            .take_while(|s| s.sealed && s.bytes <= self.opts.small_segment_bytes)
            .count();
        if run < self.opts.compact_fanin {
            return Ok(false);
        }
        self.compact_run(run)
    }

    /// Hold (`true`) or release (`false`) compaction. Held archives
    /// never compact from `maybe_compact`; explicit `compact_now` calls
    /// still work.
    pub fn set_compaction_hold(&mut self, hold: bool) {
        self.compaction_hold = hold;
    }

    /// Whether compaction is currently held.
    pub fn compaction_held(&self) -> bool {
        self.compaction_hold
    }

    /// Ask for a compaction at the next `maybe_compact`, bypassing the
    /// fan-in threshold (but not a hold).
    pub fn request_compaction(&mut self) {
        self.compaction_requested = true;
    }

    /// Force-compact every sealed segment at the head of the archive
    /// (test hook and retention enforcement point).
    pub fn compact_now(&mut self) -> Result<bool, ArchiveError> {
        let run = self.segments.iter().take_while(|s| s.sealed).count();
        if run == 0 {
            return Ok(false);
        }
        self.compact_run(run)
    }

    /// Merge `segments[..run]` into one segment, applying retention.
    fn compact_run(&mut self, run: usize) -> Result<bool, ArchiveError> {
        // Gather per-OU rows from the run, oldest first, as columns:
        // `(rows, leading rows retention retires)`.
        let mut per_ou: BTreeMap<u16, (ColumnBatch, usize)> = BTreeMap::new();
        let (mut payload, mut block) = (Vec::new(), ColumnBatch::default());
        for seg in &self.segments[..run] {
            let mut f = std::fs::File::open(&seg.path)?;
            for b in &seg.blocks {
                if read_frame(&mut f, b.offset, seg.bytes, &mut payload)?.is_none() {
                    return Err(ArchiveError::Corrupt(format!(
                        "block at {} in {} vanished under compaction",
                        b.offset,
                        seg.path.display()
                    )));
                }
                if block.decode(&payload, Projection::ALL).is_none() {
                    return Err(ArchiveError::Corrupt(format!(
                        "undecodable block at {} in {}",
                        b.offset,
                        seg.path.display()
                    )));
                }
                per_ou
                    .entry(block.ou().ou)
                    .or_insert_with(|| (ColumnBatch::for_ou(block.ou().clone()), 0))
                    .0
                    .extend_from(&block);
            }
        }

        // Retention: budget is per OU across the *whole* archive; newer
        // segments and memtables count first, the oldest (gathered) data
        // absorbs the retirement.
        if self.opts.retention_per_ou != usize::MAX {
            let mut newer: BTreeMap<u16, usize> = BTreeMap::new();
            for seg in &self.segments[run..] {
                for b in &seg.blocks {
                    *newer.entry(b.ou).or_default() += b.count as usize;
                }
            }
            for (ou, n) in self.memtable_sizes() {
                *newer.entry(ou).or_default() += n;
            }
            let mut retired = 0u64;
            for (ou, (rows, drop_n)) in &mut per_ou {
                let elsewhere = newer.get(ou).copied().unwrap_or(0);
                let keep = self.opts.retention_per_ou.saturating_sub(elsewhere);
                if rows.len() > keep {
                    *drop_n = rows.len() - keep;
                    retired += *drop_n as u64;
                    self.metrics
                        .ou_retired
                        .at(&self.telemetry, *ou as usize, || &rows.ou().name)
                        .add(*drop_n as u64);
                }
            }
            if retired > 0 {
                self.metrics.retired.get(&self.telemetry).add(retired);
            }
        }
        per_ou.retain(|_, (rows, drop_n)| rows.len() > *drop_n);

        let first = &self.segments[0];
        let (first_seq, first_path) = (first.seq, first.path.clone());
        let tmp_path = first_path.with_extension("tmp");
        let removed: Vec<std::path::PathBuf> = self.segments[..run]
            .iter()
            .map(|s| s.path.clone())
            .collect();

        if per_ou.is_empty() {
            // Everything retired: the run simply disappears.
            for p in &removed {
                std::fs::remove_file(p)?;
            }
            self.finish_compaction(run, None)?;
            return Ok(true);
        }

        // Write the merged segment: per-OU blocks in OU order, chunked so
        // scans stay bounded-memory.
        let chunk = self.opts.memtable_flush_samples.max(64) * 4;
        let mut f = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(&tmp_path)?;
        f.write_all(MAGIC)?;
        f.write_all(&[VERSION])?;
        let mut offset = HEADER_LEN;
        let mut blocks: Vec<BlockMeta> = Vec::new();
        let mut ous: Vec<OuEntry> = Vec::new();
        for (rows, drop_n) in per_ou.values() {
            for part in rows.chunks(*drop_n, chunk) {
                let payload = part.encode();
                blocks.push(part.meta(offset, payload.len()));
                offset += write_frame(&mut f, FRAME_BLOCK, &payload)?;
            }
            ous.push(rows.ou().clone());
        }
        let footer = encode_footer(&ous, &blocks);
        offset += write_frame(&mut f, FRAME_FOOTER, &footer)?;
        f.sync_all().ok();
        drop(f);
        // Swap in: rename over the first input, then delete the rest.
        std::fs::rename(&tmp_path, &first_path)?;
        for p in removed.iter().skip(1) {
            std::fs::remove_file(p)?;
        }
        self.metrics.bytes_written.get(&self.telemetry).add(offset);
        let merged = SegmentMeta {
            seq: first_seq,
            path: first_path,
            bytes: offset,
            sealed: true,
            ous,
            blocks,
        };
        self.finish_compaction(run, Some(merged))?;
        Ok(true)
    }

    /// Replace `segments[..run]` with the merged result (if any) and
    /// update telemetry.
    fn finish_compaction(
        &mut self,
        run: usize,
        merged: Option<SegmentMeta>,
    ) -> Result<(), ArchiveError> {
        let mut rest = self.segments.split_off(run);
        self.metrics
            .segments_compacted
            .get(&self.telemetry)
            .add(self.segments.len() as u64);
        self.segments.clear();
        if let Some(m) = merged {
            self.segments.push(m);
        }
        self.segments.append(&mut rest);
        self.publish_segments();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::test_sample;
    use crate::{ArchiveOptions, Sample};
    use tscout_telemetry::Telemetry;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("tscout_compact_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn small_opts() -> ArchiveOptions {
        ArchiveOptions {
            memtable_flush_samples: 32,
            segment_max_bytes: 1_024,
            compact_fanin: 3,
            small_segment_bytes: 4_096,
            ..Default::default()
        }
    }

    #[test]
    fn compaction_preserves_per_ou_order_bit_identically() {
        let dir = tmp_dir("order");
        let t = Telemetry::new();
        let mut a = Archive::open(&dir, small_opts(), t.clone()).unwrap();
        let originals: Vec<Sample> = (0..1_500)
            .map(|i| test_sample((i % 2) as u16, ["scan", "probe"][(i % 2) as usize], i))
            .collect();
        for s in &originals {
            a.append(s.clone()).unwrap();
        }
        a.seal().unwrap();
        let before = a.stats();
        assert!(before.segments >= 3, "want several segments: {before:?}");
        assert!(a.maybe_compact().unwrap());
        let after = a.stats();
        assert!(after.segments < before.segments);
        assert_eq!(after.samples_stored, 1_500);
        assert!(t.counter_value("archive_segments_compacted_total", &[]) > 0);
        for name in ["scan", "probe"] {
            let got: Vec<Sample> = a.scan_ou(name).collect();
            let want: Vec<&Sample> = originals.iter().filter(|s| s.ou_name == name).collect();
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert!(g.bits_eq(w), "order or content changed by compaction");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_survives_reopen() {
        let dir = tmp_dir("reopen");
        {
            let mut a = Archive::open(&dir, small_opts(), Telemetry::new()).unwrap();
            for i in 0..1_000 {
                a.append(test_sample(1, "scan", i)).unwrap();
            }
            a.seal().unwrap();
            a.compact_now().unwrap();
        }
        let a = Archive::open(&dir, small_opts(), Telemetry::new()).unwrap();
        assert_eq!(a.scan_ou("scan").count(), 1_000);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retention_drops_oldest_beyond_budget() {
        let dir = tmp_dir("retention");
        let opts = ArchiveOptions {
            retention_per_ou: 200,
            ..small_opts()
        };
        let t = Telemetry::new();
        let mut a = Archive::open(&dir, opts, t.clone()).unwrap();
        let originals: Vec<Sample> = (0..1_000).map(|i| test_sample(1, "scan", i)).collect();
        for s in &originals {
            a.append(s.clone()).unwrap();
        }
        a.seal().unwrap();
        assert!(a.compact_now().unwrap());
        let got: Vec<Sample> = a.scan_ou("scan").collect();
        assert_eq!(got.len(), 200, "retention keeps exactly the budget");
        // The survivors are the *newest* 200, still in order.
        for (g, w) in got.iter().zip(&originals[800..]) {
            assert!(g.bits_eq(w));
        }
        assert_eq!(t.counter_value("archive_samples_retired_total", &[]), 800);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn maybe_compact_respects_fanin_threshold() {
        let dir = tmp_dir("fanin");
        let mut a = Archive::open(&dir, small_opts(), Telemetry::new()).unwrap();
        for i in 0..40 {
            a.append(test_sample(1, "scan", i)).unwrap();
        }
        a.seal().unwrap(); // one sealed segment < fanin
        assert!(!a.maybe_compact().unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hold_and_request_override_the_fanin_policy() {
        let dir = tmp_dir("hooks");
        let mut a = Archive::open(&dir, small_opts(), Telemetry::new()).unwrap();
        for i in 0..1_000 {
            a.append(test_sample(1, "scan", i)).unwrap();
        }
        a.seal().unwrap();
        assert!(a.stats().segments >= 3);
        // Held: the policy would fire, but nothing happens.
        a.set_compaction_hold(true);
        assert!(a.compaction_held());
        assert!(!a.maybe_compact().unwrap());
        // A request does not pierce the hold either.
        a.request_compaction();
        assert!(!a.maybe_compact().unwrap());
        // Released: the pending request compacts the whole sealed run
        // even though it survives below the fan-in threshold afterward.
        a.set_compaction_hold(false);
        assert!(a.maybe_compact().unwrap());
        assert_eq!(a.stats().segments, 1);
        assert_eq!(a.scan_ou("scan").count(), 1_000);
        // Request consumed: the next call is policy-driven again.
        assert!(!a.maybe_compact().unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }
}
