//! The archive's column-batch read path against its `Sample` adapter
//! and against the old sample-by-sample dataset fold, kept here as the
//! oracle: `scan_batches` rows ≡ `scan_all()` / `scan_ou()` under
//! `Sample::bits_eq`, a projected scan is the full scan minus the
//! columns left out, and `datasets_from_archive` builds what folding
//! `Sample`s built — names, order, feature bits, targets, templates —
//! on archives with awkward shapes: NaN / −0.0 features, empty vectors,
//! several OUs, many segments, compaction, an unflushed
//! memtable tail, one OU name under two OU ids, an OU that exists only in
//! the memtable tail.

use std::collections::BTreeMap;

use tscout_suite::archive::{Archive, ArchiveOptions, ColumnBatch, Projection, Sample};
use tscout_suite::models::{datasets_from_archive, ou_data_from_archive, LabeledPoint, OuData};
use tscout_suite::rng::rngs::StdRng;
use tscout_suite::rng::{RngExt, SeedableRng};
use tscout_suite::telemetry::Telemetry;

/// OU 4, `row_count`, has counted features: the feature column's
/// integer form.
const OUS: [&str; 5] = [
    "seq_scan",
    "idx_probe",
    "wal_write",
    "agg_build",
    "row_count",
];
const CLOCK_GHZ: f64 = 2.1;
const CONCURRENCY: usize = 4;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tscout_batches_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn random_sample(rng: &mut StdRng, i: u64) -> Sample {
    let ou = rng.random_range(0..OUS.len());
    let feature = |rng: &mut StdRng| match rng.random_range(0..12) {
        _ if ou == 4 => rng.random_range(-50i64..5_000) as f64,
        0 => f64::NAN,
        1 => -0.0,
        2 => f64::INFINITY,
        _ => rng.random::<f64>() * 1e6 - 5e5,
    };
    // Every vector is empty now and then; OU 3 never has user metrics.
    let n_metrics = rng.random_range(0..6);
    let n_features = rng.random_range(0..5);
    let n_user = if ou == 3 { 0 } else { rng.random_range(0..3) };
    Sample {
        ou: ou as u16 * 3,
        ou_name: OUS[ou].to_string(),
        subsystem: (ou % 6) as u8,
        tid: rng.random_range(0..32),
        template: rng.random_range(0..9),
        start_ns: i * 1_000 + rng.random_range(0..900),
        elapsed_ns: rng.random_range(0..10_000_000),
        metrics: (0..n_metrics).map(|_| rng.random()).collect(),
        features: (0..n_features).map(|_| feature(rng)).collect(),
        user_metrics: (0..n_user).map(|_| rng.random()).collect(),
    }
}

/// Every row of `batch` (decoded with every column) as a `Sample`.
fn rows_as_samples(batch: &ColumnBatch) -> Vec<Sample> {
    let ou = batch.ou();
    let vectors = batch
        .metrics()
        .rows()
        .zip(batch.features().rows())
        .zip(batch.user_metrics().rows());
    (0..batch.len())
        .zip(vectors)
        .map(|(i, ((metrics, features), user_metrics))| Sample {
            ou: ou.ou,
            ou_name: ou.name.clone(),
            subsystem: ou.subsystem,
            tid: batch.tid()[i] as u32,
            template: batch.template()[i] as u32,
            start_ns: batch.start_ns()[i],
            elapsed_ns: batch.elapsed_ns()[i],
            metrics: metrics.to_vec(),
            features: features.iter().map(|b| f64::from_bits(*b)).collect(),
            user_metrics: user_metrics.to_vec(),
        })
        .collect()
}

fn batch_rows(archive: &Archive, ou: Option<&str>) -> Vec<Sample> {
    let mut scan = archive.scan_batches(ou, Projection::ALL);
    let mut rows = Vec::new();
    while let Some(batch) = scan.next_batch() {
        assert_eq!(batch.tid().len(), batch.len());
        rows.extend(rows_as_samples(batch));
    }
    rows
}

fn assert_same_samples(what: &str, got: &[Sample], want: &[Sample]) {
    assert_eq!(got.len(), want.len(), "{what}: row count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(g.bits_eq(w), "{what}: row {i}: {g:?} vs {w:?}");
    }
}

/// The dataset fold as it was before column batches: one `Sample` at a
/// time, features cloned and the two context features pushed after.
fn oracle_datasets(samples: impl Iterator<Item = Sample>) -> Vec<OuData> {
    let mut by_ou: BTreeMap<String, OuData> = BTreeMap::new();
    for s in samples {
        let d = by_ou
            .entry(s.ou_name.clone())
            .or_insert_with(|| OuData::new(&s.ou_name));
        let mut features = s.features.clone();
        features.push(CLOCK_GHZ);
        features.push(CONCURRENCY as f64);
        d.points.push(LabeledPoint {
            features: &features,
            target_ns: s.elapsed_ns as f64,
            template: s.template,
        });
    }
    by_ou.into_values().collect()
}

fn assert_same_points(what: &str, got: &OuData, want: &OuData) {
    assert_eq!(got.name, want.name, "{what}: OU name");
    assert_eq!(got.len(), want.len(), "{what}: {} points", want.name);
    for (i, (g, w)) in got.points.iter().zip(want.points.iter()).enumerate() {
        let bits = |p: LabeledPoint| p.features.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(g), bits(w), "{what}: {} point {i} features", want.name);
        assert_eq!(
            g.target_ns.to_bits(),
            w.target_ns.to_bits(),
            "{what}: target"
        );
        assert_eq!(g.template, w.template, "{what}: template");
    }
}

/// Every read-path equivalence, on one archive.
fn check_read_paths(what: &str, archive: &Archive) {
    let all: Vec<Sample> = archive.scan_all().collect();
    assert_same_samples(what, &batch_rows(archive, None), &all);
    for ou in archive
        .ou_names()
        .iter()
        .map(String::as_str)
        .chain(["no_such_ou"])
    {
        let of_ou: Vec<Sample> = archive.scan_ou(ou).collect();
        let what = format!("{what}/{ou}");
        assert_same_samples(&what, &batch_rows(archive, Some(ou)), &of_ou);
        let want = oracle_datasets(of_ou.into_iter()).pop();
        let got = ou_data_from_archive(archive, ou, CLOCK_GHZ, CONCURRENCY);
        assert_same_points(&what, &got, &want.unwrap_or_else(|| OuData::new(ou)));
    }

    let want = oracle_datasets(all.iter().cloned());
    let got = datasets_from_archive(archive, CLOCK_GHZ, CONCURRENCY);
    assert_eq!(got.len(), want.len(), "{what}: dataset count");
    for (g, w) in got.iter().zip(&want) {
        assert_same_points(what, g, w);
    }

    // A projected scan is the full scan minus the columns left out.
    let projection = Projection {
        start_ns: true,
        user_metrics: true,
        ..Projection::NONE
    };
    let (mut full, mut part) = (
        archive.scan_batches(None, Projection::ALL),
        archive.scan_batches(None, projection),
    );
    // Memtable tails keep every column; only segment blocks are projected.
    for _ in 0..archive.stats().blocks {
        let (full, part) = (full.next_batch().unwrap(), part.next_batch().unwrap());
        assert_eq!((part.ou(), part.len()), (full.ou(), full.len()));
        assert_eq!(part.start_ns(), full.start_ns());
        assert_eq!(part.user_metrics().lens(), full.user_metrics().lens());
        assert_eq!(part.user_metrics().flat(), full.user_metrics().flat());
        assert!(part.tid().is_empty() && part.template().is_empty());
        assert!(part.elapsed_ns().is_empty() && part.metrics().lens().is_empty());
        assert_eq!(part.features().rows().count(), 0);
    }
    while let Some(full) = full.next_batch() {
        let part = part.next_batch().expect("same number of tails");
        assert_same_samples(what, &rows_as_samples(part), &rows_as_samples(full));
    }
    assert!(part.next_batch().is_none());
    assert_eq!(
        archive
            .telemetry
            .counter_value("archive_scan_skipped_blocks_total", &[]),
        0,
        "{what}: a scan skipped a block"
    );
}

#[test]
fn batch_rows_and_datasets_match_the_sample_scan_on_awkward_archives() {
    for seed in [3u64, 17, 40_961] {
        let dir = temp_dir(&format!("equiv_{seed}"));
        let opts = ArchiveOptions {
            memtable_flush_samples: 48,
            max_buffered_samples: 120,
            segment_max_bytes: 8 * 1024, // many segments
            compact_fanin: 3,
            small_segment_bytes: 64 * 1024,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut archive = Archive::open(&dir, opts.clone(), Telemetry::new()).unwrap();
        check_read_paths("empty", &archive);
        for i in 0..4_000 {
            archive.append(random_sample(&mut rng, i)).unwrap();
        }
        assert!(archive.buffered_samples() > 0, "want a memtable tail");
        assert!(archive.stats().segments > 3, "{:?}", archive.stats());
        check_read_paths("multi-segment with tail", &archive);

        // Compaction is a pure merge: all 4 000 rows stay, per OU in
        // append order.
        archive.seal().unwrap();
        let mut sealed: Vec<Sample> = archive.scan_all().collect();
        assert!(archive.compact_now().unwrap());
        let mut compacted: Vec<Sample> = archive.scan_all().collect();
        assert_eq!(compacted.len(), 4_000);
        sealed.sort_by_key(|s| s.ou);
        compacted.sort_by_key(|s| s.ou);
        assert_same_samples("compacted", &compacted, &sealed);
        for i in 4_000..4_100 {
            archive.append(random_sample(&mut rng, i)).unwrap();
        }
        check_read_paths("compacted with tail", &archive);

        // Cold reopen: same rows, now all from sealed segments.
        let before: Vec<Sample> = archive.scan_all().collect();
        drop(archive);
        let archive = Archive::open(&dir, opts, Telemetry::new()).unwrap();
        assert_eq!(archive.buffered_samples(), 0);
        let mut after: Vec<Sample> = archive.scan_all().collect();
        // Storage order interleaves OUs differently once the tails are
        // blocks; per OU the order is append order either way.
        let mut before = before;
        before.sort_by_key(|s| s.ou);
        after.sort_by_key(|s| s.ou);
        assert_same_samples("reopened", &after, &before);
        check_read_paths("reopened", &archive);
        drop(archive);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Two shapes the per-OU build must fold as the sample scan does: one OU
/// name under two OU ids — two runs that numbered their OUs apart — and
/// an OU that exists only in the memtable tail.
#[test]
fn one_name_under_two_ids_and_a_tail_only_ou_match_the_sample_scan() {
    let dir = temp_dir("two_ids");
    let opts = ArchiveOptions {
        memtable_flush_samples: 48,
        segment_max_bytes: 8 * 1024,
        ..ArchiveOptions::default()
    };
    let mut rng = StdRng::seed_from_u64(5);
    for run in 0..2 {
        // Dropping the archive seals what the run wrote.
        let mut archive = Archive::open(&dir, opts.clone(), Telemetry::new()).unwrap();
        for i in 0..600 {
            let s = random_sample(&mut rng, run * 600 + i);
            let ou = s.ou + 100 * run as u16;
            archive.append(Sample { ou, ..s }).unwrap();
        }
    }
    let mut archive = Archive::open(&dir, opts, Telemetry::new()).unwrap();
    for i in 1_200..1_230 {
        let ou_name = "tail_only".to_string();
        let s = random_sample(&mut rng, i);
        // One subsystem: under a second one the same id and name is a
        // second OU entry, and `append` flushes the first.
        archive
            .append(Sample {
                ou: 999,
                ou_name,
                subsystem: 0,
                ..s
            })
            .unwrap();
    }
    assert_eq!(archive.buffered_samples(), 30);
    check_read_paths("two ids and a tail-only OU", &archive);
    let data = datasets_from_archive(&archive, CLOCK_GHZ, CONCURRENCY);
    let names: Vec<&str> = data.iter().map(|d| d.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "agg_build",
            "idx_probe",
            "row_count",
            "seq_scan",
            "tail_only",
            "wal_write"
        ]
    );
    assert_eq!(data[4].len(), 30);
    drop(archive);
    std::fs::remove_dir_all(&dir).ok();
}
