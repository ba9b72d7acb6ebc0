//! Cross-crate integration tests for the training-data archive and the
//! model lifecycle:
//!
//! 1. a seeded property-style round trip — encode → seal → compact →
//!    scan must return every sample bit-identically, per OU, in append
//!    order, across randomized shapes (vector lengths, float payloads
//!    including NaN, segment rollovers);
//! 2. crash recovery only reads — a cut at every length, or a flipped
//!    byte at every offset, of a plain segment and of a merged one costs
//!    exactly the rows of the frame it lands in (a damaged magic none),
//!    leaves the file byte for byte as it was, and is counted;
//! 3. the model hot-swap gate — a regressed candidate is rejected and
//!    the live generation is unchanged; a good one is then accepted.

use std::path::{Path, PathBuf};

use tscout_suite::archive::{Archive, ArchiveError, ArchiveOptions, Projection, Sample};
use tscout_suite::models::dataset::{LabeledPoint, OuData};
use tscout_suite::models::{ModelKind, ModelRegistry, SwapDecision};
use tscout_suite::rng::rngs::StdRng;
use tscout_suite::rng::{RngExt, SeedableRng};
use tscout_suite::telemetry::Telemetry;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tscout_it_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The OU whose features are counts, whole numbers of either sign: the
/// integer form of the feature column.
const COUNTED: u16 = 5;

/// Deterministic pseudo-random sample with awkward shapes: variable
/// vector lengths, full-range values, and occasional NaN features
/// ([`COUNTED`]'s are whole numbers).
fn random_sample(rng: &mut StdRng, ou: u16) -> Sample {
    let n_metrics = rng.random_range(0..6);
    let n_features = rng.random_range(0..5);
    let n_user = rng.random_range(0..3);
    Sample {
        ou,
        ou_name: format!("ou_{ou}"),
        subsystem: (ou % 6) as u8,
        tid: rng.random_range(0..32),
        template: rng.random_range(0..8),
        start_ns: rng.random_range(0..u64::MAX / 2),
        elapsed_ns: rng.random_range(0..10_000_000),
        metrics: (0..n_metrics).map(|_| rng.random()).collect(),
        features: (0..n_features)
            .map(|_| {
                if ou == COUNTED {
                    rng.random_range(-500i64..50_000) as f64
                } else if rng.random_range(0..20) == 0 {
                    f64::NAN
                } else {
                    rng.random::<f64>() * 1e6 - 5e5
                }
            })
            .collect(),
        user_metrics: (0..n_user).map(|_| rng.random()).collect(),
    }
}

#[test]
fn roundtrip_seal_compact_scan_is_bit_identical_per_ou() {
    let dir = temp_dir("roundtrip");
    let opts = ArchiveOptions {
        memtable_flush_samples: 64,
        segment_max_bytes: 16 * 1024, // force many segments
        compact_fanin: 3,
        small_segment_bytes: 64 * 1024,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(0xD1CE);
    let mut expected: std::collections::BTreeMap<u16, Vec<Sample>> = Default::default();
    let mut a = Archive::open(&dir, opts.clone(), Telemetry::new()).unwrap();
    for _ in 0..4_000 {
        let ou = rng.random_range(0..=COUNTED);
        let s = random_sample(&mut rng, ou);
        expected.entry(ou).or_default().push(s.clone());
        a.append(s).unwrap();
    }
    a.seal().unwrap();
    assert!(a.stats().segments > 3, "options must force multi-segment");
    // Compact everything compactable, then verify per-OU order + bits.
    a.compact_now().unwrap();
    for (ou, exp) in &expected {
        let got: Vec<Sample> = a.scan_ou(&format!("ou_{ou}")).collect();
        assert_eq!(got.len(), exp.len(), "ou {ou} sample count");
        for (i, (g, e)) in got.iter().zip(exp).enumerate() {
            assert!(g.bits_eq(e), "ou {ou} sample {i} differs: {g:?} vs {e:?}");
        }
    }
    // A cold reopen sees the identical contents.
    drop(a);
    let a = Archive::open(&dir, opts, Telemetry::new()).unwrap();
    let total: usize = expected.values().map(Vec::len).sum();
    assert_eq!(a.scan_all().count(), total);
    std::fs::remove_dir_all(&dir).ok();
}

/// The one segment file in `dir`.
fn only_segment(dir: &Path) -> PathBuf {
    let mut segments = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "tsa"));
    let seg = segments.next().expect("a segment on disk");
    assert!(segments.next().is_none(), "one segment");
    seg
}

/// Damage the one segment in `dir` at every offset and cut it at every
/// length, reopening after each; `originals` are its rows in storage
/// order. A flip of the version byte is refused; any other flip costs
/// exactly the rows of the frame it lands in (the magic is in none) and
/// is counted exactly when it lands in a frame. A cut serves exactly the
/// rows of the whole frames before it and is counted exactly when it
/// falls inside a frame. Either way the file is byte for byte as it was,
/// unless no whole block is left, when it is removed.
fn every_flip_and_cut_costs_only_its_frame(
    dir: &Path,
    opts: &ArchiveOptions,
    originals: &[Sample],
) {
    let seg = only_segment(dir);
    let pristine = std::fs::read(&seg).unwrap();
    // Each frame: (offset, end, rows before it, rows in it).
    let mut frames = Vec::new();
    let a = Archive::open(dir, opts.clone(), Telemetry::new()).unwrap();
    let mut blocks = a.scan_batches(None, Projection::NONE);
    let (mut at, mut rows) = (5, 0);
    while let Some(block) = blocks.next_batch() {
        let len = u32::from_le_bytes(pristine[at + 1..at + 5].try_into().unwrap()) as usize;
        frames.push((at, at + 9 + len, rows, block.len()));
        (at, rows) = (at + 9 + len, rows + block.len());
    }
    assert_eq!((at, rows), (pristine.len(), originals.len()));
    assert!(frames.len() >= 4, "several frames to damage");
    drop(a);

    let reopen = |bytes: &[u8]| {
        std::fs::write(&seg, bytes).unwrap();
        let t = Telemetry::new();
        let got =
            Archive::open(dir, opts.clone(), t.clone()).map(|a| a.scan_all().collect::<Vec<_>>());
        let skipped = t.counter_total("archive_scan_skipped_blocks_total");
        (got, skipped)
    };
    let served = |got: &[Sample], want: Vec<&Sample>, bytes: &[u8], what: &str| {
        assert_eq!(got.len(), want.len(), "{what}");
        assert!(got.iter().zip(want).all(|(g, w)| g.bits_eq(w)), "{what}");
        if got.is_empty() {
            assert!(
                !seg.exists(),
                "{what}: a segment with no whole block is removed"
            );
        } else {
            assert_eq!(
                std::fs::read(&seg).unwrap(),
                bytes,
                "{what}: the file changed"
            );
        }
    };

    for off in 0..pristine.len() {
        let mut bad = pristine.clone();
        bad[off] ^= 0xFF;
        let (got, skipped) = reopen(&bad);
        if off == 4 {
            assert!(matches!(got, Err(ArchiveError::Corrupt(_))), "version flip");
            assert_eq!(
                std::fs::read(&seg).unwrap(),
                bad,
                "a refused segment is untouched"
            );
            continue;
        }
        let hit = frames.iter().find(|f| f.0 <= off && off < f.1);
        let lost = hit.map_or(0..0, |f| f.2..f.2 + f.3);
        let want = (originals.iter().enumerate()).filter(|(i, _)| !lost.contains(i));
        let what = format!("flip at {off} of {}", pristine.len());
        served(&got.unwrap(), want.map(|(_, s)| s).collect(), &bad, &what);
        assert_eq!(skipped >= 1, hit.is_some(), "{what}: counted {skipped}");
    }
    for len in 0..=pristine.len() {
        let (got, skipped) = reopen(&pristine[..len]);
        let whole: usize = frames.iter().filter(|f| f.1 <= len).map(|f| f.3).sum();
        let what = format!("cut at {len} of {}", pristine.len());
        served(
            &got.unwrap(),
            originals[..whole].iter().collect(),
            &pristine[..len],
            &what,
        );
        let inside = frames.iter().any(|f| f.0 < len && len < f.1);
        assert_eq!(skipped, u64::from(inside), "{what}");
    }
    std::fs::write(&seg, &pristine).unwrap();
}

#[test]
fn torn_tail_recovers_valid_prefix_at_every_corruption_offset() {
    // Small flush threshold → several blocks in one segment.
    let dir = temp_dir("torn");
    let opts = ArchiveOptions {
        memtable_flush_samples: 25,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(7);
    for ou in [1, COUNTED] {
        let originals: Vec<Sample> = (0..100).map(|_| random_sample(&mut rng, ou)).collect();
        let mut a = Archive::open(&dir, opts.clone(), Telemetry::new()).unwrap();
        originals.iter().for_each(|s| a.append(s).unwrap());
        drop(a);
        every_flip_and_cut_costs_only_its_frame(&dir, &opts, &originals);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The same sweep over a segment that compaction merged from several,
/// its blocks of four OUs interleaved.
#[test]
fn a_merged_segment_recovers_at_every_corruption_offset() {
    let dir = temp_dir("torn_merged");
    let opts = ArchiveOptions {
        memtable_flush_samples: 10,
        segment_max_bytes: 1_200,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(11);
    let mut a = Archive::open(&dir, opts.clone(), Telemetry::new()).unwrap();
    for i in 0..80 {
        a.append(random_sample(&mut rng, [0, 1, 2, COUNTED][i % 4]))
            .unwrap();
    }
    a.seal().unwrap();
    assert!(a.stats().segments >= 3, "want a run to merge");
    assert!(a.compact_now().unwrap());
    let stored: Vec<Sample> = a.scan_all().collect();
    assert_eq!(stored.len(), 80);
    drop(a);
    every_flip_and_cut_costs_only_its_frame(&dir, &opts, &stored);
    std::fs::remove_dir_all(&dir).ok();
}

fn linear_ou(name: &str, n: usize, slope: f64) -> OuData {
    let mut d = OuData::new(name);
    for i in 0..n {
        let f = (i % 64) as f64;
        d.points.push(LabeledPoint {
            features: &[f],
            target_ns: 1000.0 + slope * f,
            template: (i % 3) as u32,
        });
    }
    d
}

#[test]
fn hot_swap_gate_rejects_regressions_and_keeps_generation() {
    let t = Telemetry::new();
    let mut reg = ModelRegistry::new(ModelKind::Ridge, 1, t.clone());
    let good = vec![linear_ou("scan", 300, 500.0)];
    let holdout = vec![linear_ou("scan", 90, 500.0)];
    assert!(matches!(
        reg.retrain_from(&good, &holdout),
        SwapDecision::Accepted { generation: 1, .. }
    ));

    // A candidate trained on corrupted labels must be rejected: live
    // model, generation, and gauge all unchanged.
    let mut garbage = linear_ou("scan", 300, 500.0);
    garbage.points.targets_ns_mut().fill(5.0);
    let before = reg.live().unwrap();
    assert!(matches!(
        reg.retrain_from(&[garbage], &holdout),
        SwapDecision::Rejected { .. }
    ));
    assert_eq!(
        reg.generation(),
        1,
        "rejected swap must not bump generation"
    );
    assert_eq!(t.gauge_value("model_generation", &[]), 1.0);
    assert_eq!(t.counter_total("model_swap_rejected_total"), 1);
    let after = reg.live().unwrap();
    assert!(
        std::sync::Arc::ptr_eq(&before.models, &after.models),
        "live model instance must be untouched by a rejected candidate"
    );

    // A healthy candidate is accepted afterwards.
    assert!(matches!(
        reg.retrain_from(&good, &holdout),
        SwapDecision::Accepted { generation: 2, .. }
    ));
    assert_eq!(t.counter_total("model_swap_accepted_total"), 2);
}
