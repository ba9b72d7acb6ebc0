//! Compaction: merge runs of small sealed segments into one.
//!
//! Compaction is a pure merge: the merged segment is its inputs' block
//! frames, copied byte for byte in order (each checked as a scan checks
//! it, none decoded or re-encoded), so it holds one frame at a time.
//! Only a *contiguous run of sealed segments starting at the oldest* is
//! ever merged, so per-OU append order is preserved: the merged segment
//! takes the run's place and every sample keeps its position relative to
//! the untouched newer segments.
//!
//! Crash safety: the merged segment is written to a synced `.tmp` and
//! renamed to `seg-{first:06}-{last:06}.tsa`, the span of sequence numbers
//! it replaces; the directory is synced before any input is removed. A
//! crash before the rename leaves a `.tmp` that `open` deletes; one after
//! it leaves inputs inside the merged span, which `open` deletes. Either
//! way every row is read back once, and no segment byte is rewritten.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::segment::{create_segment, read_block_frame, BlockMeta, OuEntry, HEADER_LEN};
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

    /// Force-compact every sealed segment at the head of the archive.
    pub fn compact_now(&mut self) -> Result<bool, ArchiveError> {
        let run = self.segments.iter().take_while(|s| s.sealed).count();
        if run == 0 {
            return Ok(false);
        }
        self.compact_run(run)
    }

    /// Merge `segments[..run]` into one segment.
    fn compact_run(&mut self, run: usize) -> Result<bool, ArchiveError> {
        let seqs = (self.segments[0].seqs.0, self.segments[run - 1].seqs.1);
        let path = crate::store::seg_path(&self.dir, seqs);
        // A run of one renames over its own input, which must stay.
        let inputs: Vec<PathBuf> = (self.segments[..run].iter())
            .map(|s| s.path.clone())
            .filter(|p| *p != path)
            .collect();

        let (bytes, ous, blocks) = write_merged(&path, &self.segments[..run])?;
        self.metrics.bytes_written.get(&self.telemetry).add(bytes);
        let merged = SegmentMeta {
            seqs,
            path,
            bytes,
            sealed: true,
            ous,
            blocks,
        };
        self.segments.splice(..run, [merged]);
        self.metrics
            .segments_compacted
            .get(&self.telemetry)
            .add(run as u64);
        self.publish_segments();
        // The rename reaches the disk before any input leaves it, so a
        // reopen finds the merged segment and drops whatever inputs a
        // crash or a failed remove left.
        File::open(&self.dir)?.sync_all()?;
        for p in &inputs {
            std::fs::remove_file(p)?;
        }
        Ok(true)
    }
}

/// Copy every manifest frame of `run`, in order and byte for byte, into
/// a sealed segment at `path` through a synced `.tmp`, removed on
/// failure. One frame is held at a time, checked on the way (kind,
/// length, valid length and CRC); one that fails is `Corrupt`. Returns
/// the segment's length, OU list (the union of the inputs') and manifest.
fn write_merged(
    path: &Path,
    run: &[SegmentMeta],
) -> Result<(u64, Vec<OuEntry>, Vec<BlockMeta>), ArchiveError> {
    let tmp = path.with_extension("tmp");
    let write = || -> Result<_, ArchiveError> {
        let mut out = create_segment(&tmp)?;
        let (mut offset, mut frame, mut ous, mut blocks) =
            (HEADER_LEN, Vec::new(), Vec::new(), Vec::new());
        for seg in run {
            let mut f = File::open(&seg.path)?;
            for b in &seg.blocks {
                read_block_frame(&mut f, b.offset, b.payload_len, seg.bytes, &mut frame)?
                    .ok_or_else(|| {
                        ArchiveError::Corrupt(format!(
                            "block at {} in {} is unreadable under compaction",
                            b.offset,
                            seg.path.display()
                        ))
                    })?;
                out.write_all(&frame)?;
                blocks.push(BlockMeta {
                    offset,
                    ..b.clone()
                });
                offset += frame.len() as u64;
            }
            for ou in &seg.ous {
                if !ous.contains(ou) {
                    ous.push(ou.clone());
                }
            }
        }
        out.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok((offset, ous, blocks))
    };
    write().inspect_err(|_| drop(std::fs::remove_file(&tmp)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{write_frame, FRAME_BLOCK, FRAME_FOOTER, FRAME_OVERHEAD, MAGIC, VERSION};
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

    /// Every segment file of `dir` and its bytes, by path.
    fn segment_files(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut files = every_file(dir);
        files.retain(|(p, _)| p.extension().is_some_and(|e| e == "tsa"));
        files
    }

    /// Every file of `dir` and its bytes, by path.
    fn every_file(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut files: Vec<_> = (std::fs::read_dir(dir).unwrap())
            .map(|e| e.unwrap().path())
            .map(|p| (p.clone(), std::fs::read(&p).unwrap()))
            .collect();
        files.sort();
        files
    }

    fn restore(files: &[(PathBuf, Vec<u8>)]) {
        for (path, bytes) in files {
            std::fs::write(path, bytes).unwrap();
        }
    }

    /// Reopen `dir`: every one of `originals` comes back exactly once,
    /// per OU in append order, and the stored count agrees.
    fn reopens_with_every_row_once(dir: &Path, originals: &[Sample]) {
        let a = Archive::open(dir, small_opts(), Telemetry::new()).unwrap();
        assert_eq!(a.stats().samples_stored, originals.len() as u64);
        for name in ["scan", "probe"] {
            let got: Vec<Sample> = a.scan_ou(name).collect();
            let want: Vec<&Sample> = originals.iter().filter(|s| s.ou_name == name).collect();
            assert_eq!(got.len(), want.len(), "{name}: a row is missing or doubled");
            assert!(got.iter().zip(want).all(|(g, w)| g.bits_eq(w)), "{name}");
        }
    }

    /// A crash at each point of a compaction — after the rename (the
    /// inputs all still there), during the removes (some of them), before
    /// the rename (the merged segment still a `.tmp`) — a crash in a
    /// later compaction that merges an already-merged segment, and a run
    /// of one compacted over its own name: each reopen reads every row
    /// exactly once.
    #[test]
    fn a_compaction_cut_short_anywhere_leaves_every_row_once() {
        let dir = tmp_dir("crash");
        let ingest = |a: &mut Archive, rows: std::ops::Range<u64>| {
            let samples: Vec<Sample> = rows
                .map(|i| test_sample((i % 2) as u16, ["scan", "probe"][(i % 2) as usize], i))
                .collect();
            samples.iter().for_each(|s| a.append(s).unwrap());
            a.seal().unwrap();
            samples
        };
        let mut a = Archive::open(&dir, small_opts(), Telemetry::new()).unwrap();
        let mut originals = ingest(&mut a, 0..1_200);
        let inputs = segment_files(&dir);
        assert!(inputs.len() >= 3, "want a run to merge: {inputs:?}");
        assert!(a.compact_now().unwrap());
        drop(a);
        let merged = segment_files(&dir);
        let name = |f: &(PathBuf, Vec<u8>)| f.0.file_name().unwrap().to_owned();
        assert_eq!(merged.len(), 1);
        assert_eq!(
            name(&merged[0]),
            format!("seg-000000-{:06}.tsa", inputs.len() - 1)[..]
        );

        restore(&inputs);
        reopens_with_every_row_once(&dir, &originals);
        assert_eq!(segment_files(&dir), merged, "the stale inputs are gone");
        restore(&inputs[1..2]);
        reopens_with_every_row_once(&dir, &originals);
        assert_eq!(segment_files(&dir), merged);

        std::fs::remove_file(&merged[0].0).unwrap();
        restore(&inputs);
        std::fs::write(dir.join("seg-000000.tmp"), &merged[0].1).unwrap();
        reopens_with_every_row_once(&dir, &originals);
        assert_eq!(
            segment_files(&dir),
            inputs,
            "the inputs stay, the .tmp goes"
        );

        let mut a = Archive::open(&dir, small_opts(), Telemetry::new()).unwrap();
        assert!(a.compact_now().unwrap());
        originals.extend(ingest(&mut a, 1_200..2_000));
        let before = segment_files(&dir);
        assert!(before.len() >= 3 && before[0] == merged[0]);
        assert!(a.compact_now().unwrap());
        drop(a);
        restore(&before);
        reopens_with_every_row_once(&dir, &originals);
        let merged = segment_files(&dir);
        assert_eq!(merged.len(), 1);

        let mut a = Archive::open(&dir, small_opts(), Telemetry::new()).unwrap();
        assert_eq!(a.stats().segments, 1);
        assert!(a.compact_now().unwrap());
        drop(a);
        reopens_with_every_row_once(&dir, &originals);
        assert_eq!(segment_files(&dir), merged, "rewritten byte for byte");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The frames of a segment file's bytes, whole, in file order.
    fn frames(bytes: &[u8]) -> Vec<&[u8]> {
        let (mut out, mut at) = (Vec::new(), HEADER_LEN as usize);
        while at < bytes.len() {
            let len = u32::from_le_bytes(bytes[at + 1..at + 5].try_into().unwrap());
            let end = at + FRAME_OVERHEAD + len as usize;
            out.push(&bytes[at..end]);
            at = end;
        }
        out
    }

    /// `rows` appended as two OUs, then sealed.
    fn ingest(a: &mut Archive, rows: std::ops::Range<u64>) -> Vec<Sample> {
        let samples: Vec<Sample> = rows
            .map(|i| test_sample((i % 2) as u16, ["scan", "probe"][(i % 2) as usize], i))
            .collect();
        samples.iter().for_each(|s| a.append(s).unwrap());
        a.seal().unwrap();
        samples
    }

    /// A merged segment is the header and then its inputs' manifest
    /// frames, in order and byte for byte. An earlier build's footer and
    /// a damaged frame recovery stepped over are in no manifest, so
    /// neither is copied.
    #[test]
    fn a_merged_segment_is_its_inputs_frames() {
        let dir = tmp_dir("frames");
        ingest(
            &mut Archive::open(&dir, small_opts(), Telemetry::new()).unwrap(),
            0..1_200,
        );
        let mut inputs = segment_files(&dir);
        assert!(inputs.len() >= 3, "want a run to merge: {inputs:?}");
        write_frame(&mut inputs[0].1, FRAME_FOOTER, b"legacy").unwrap();
        let second = HEADER_LEN as usize + frames(&inputs[1].1)[0].len();
        inputs[1].1[second + 8] ^= 1;
        restore(&inputs);

        let mut want = [&MAGIC[..], &[VERSION]].concat();
        let mut copied = 0;
        for (_, bytes) in &inputs {
            for frame in frames(bytes) {
                let (payload, crc) = frame[5..].split_at(frame.len() - FRAME_OVERHEAD);
                if frame[0] == FRAME_BLOCK && crc == crate::crc32(payload).to_le_bytes() {
                    want.extend_from_slice(frame);
                    copied += 1;
                }
            }
        }
        let t = Telemetry::new();
        let mut a = Archive::open(&dir, small_opts(), t.clone()).unwrap();
        assert_eq!(t.counter_value("archive_scan_skipped_blocks_total", &[]), 1);
        assert_eq!(a.stats().blocks, copied);
        assert!(a.compact_now().unwrap());
        assert_eq!(a.stats().blocks, copied);
        drop(a);
        let merged = segment_files(&dir);
        assert_eq!(merged.len(), 1);
        assert!(
            merged[0].1 == want,
            "the merged segment is not its inputs' frames"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A block damaged under an open archive fails its compaction closed:
    /// `Corrupt`, and the directory is as it was (every input intact, no
    /// `.tmp`). A reopen steps over that block, and the next compaction
    /// keeps every other row.
    #[test]
    fn a_damaged_input_fails_compaction_closed_and_changes_nothing() {
        let dir = tmp_dir("closed");
        let mut a = Archive::open(&dir, small_opts(), Telemetry::new()).unwrap();
        let originals = ingest(&mut a, 0..1_200);
        assert!(a.stats().segments >= 3);
        // A payload byte of a later input, so the `.tmp` has frames in it
        // when the read fails.
        let (path, victim) = (&a.segments[2].path, &a.segments[2].blocks[0]);
        let mut bytes = std::fs::read(path).unwrap();
        bytes[victim.offset as usize + 5 + victim.payload_len as usize / 2] ^= 1;
        std::fs::write(path, &bytes).unwrap();
        let lost = victim.count;
        let before = every_file(&dir);
        let err = a.compact_now().unwrap_err();
        assert!(matches!(err, ArchiveError::Corrupt(_)), "{err}");
        assert_eq!(every_file(&dir), before, "compaction changed the directory");
        drop(a);

        let t = Telemetry::new();
        let mut a = Archive::open(&dir, small_opts(), t.clone()).unwrap();
        let survivors: Vec<Sample> = a.scan_all().collect();
        assert_eq!(survivors.len() as u64, originals.len() as u64 - lost);
        assert!(a.compact_now().unwrap());
        assert_eq!(a.stats().segments, 1);
        let merged: Vec<Sample> = a.scan_all().collect();
        assert_eq!(merged.len(), survivors.len());
        assert!(merged.iter().zip(&survivors).all(|(m, s)| m.bits_eq(s)));
        assert_eq!(t.counter_value("archive_scan_skipped_blocks_total", &[]), 1);
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
