//! Cross-crate integration tests for the training-data archive and the
//! model lifecycle:
//!
//! 1. a seeded property-style round trip — encode → seal → compact →
//!    scan must return every sample bit-identically, per OU, in append
//!    order, across randomized shapes (vector lengths, float payloads
//!    including NaN, segment rollovers);
//! 2. crash recovery — corrupting the tail segment at every byte offset
//!    must never lose the valid prefix, and recovery is counted; a
//!    damaged block costs only that block's rows, a damaged magic none;
//! 3. the model hot-swap gate — a regressed candidate is rejected and
//!    the live generation is unchanged; a good one is then accepted.

use tscout_suite::archive::{Archive, ArchiveOptions, Sample};
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

/// Deterministic pseudo-random sample with awkward shapes: variable
/// vector lengths, full-range values, and occasional NaN features.
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
                if rng.random_range(0..20) == 0 {
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
        let ou = rng.random_range(0..5u16);
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

#[test]
fn torn_tail_recovers_valid_prefix_at_every_corruption_offset() {
    let dir = temp_dir("torn");
    // Small flush threshold → several blocks in one segment.
    let opts = ArchiveOptions {
        memtable_flush_samples: 25,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(7);
    let originals: Vec<Sample> = (0..100).map(|_| random_sample(&mut rng, 1)).collect();
    let mut a = Archive::open(&dir, opts.clone(), Telemetry::new()).unwrap();
    for s in &originals {
        a.append(s).unwrap();
    }
    a.seal().unwrap();
    drop(a);
    let seg = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| Some(e.ok()?.path()))
        .find(|p| p.extension().is_some_and(|x| x == "tsa"))
        .expect("sealed segment on disk");
    let pristine = std::fs::read(&seg).unwrap();

    // Truncate the file at every length from just-past-the-header to
    // full, plus flip a byte at a spread of offsets: reopen must always
    // recover a valid prefix (never error, never return garbage).
    let mut lengths: Vec<usize> = (6..pristine.len()).step_by(97).collect();
    lengths.push(pristine.len() - 1);
    for &len in &lengths {
        std::fs::write(&seg, &pristine[..len]).unwrap();
        let t = Telemetry::new();
        let a = Archive::open(&dir, opts.clone(), t.clone()).unwrap();
        let n = a.scan_all().count();
        assert!(n <= 100, "truncated tail can never add samples");
        assert!(
            t.counter_total("archive_recovered_truncations_total") >= 1,
            "truncation at {len} must be counted"
        );
        drop(a);
        // Recovery cuts the file; restore the pristine image for the
        // next offset.
        std::fs::write(&seg, &pristine).unwrap();
    }
    // Each frame of the pristine file: (offset, kind). Blocks 0..4 hold
    // 25 rows each.
    let mut frames = Vec::new();
    let mut at = 5;
    while at < pristine.len() {
        frames.push((at, pristine[at]));
        at += 9 + u32::from_le_bytes(pristine[at + 1..at + 5].try_into().unwrap()) as usize;
    }
    assert_eq!(frames.iter().map(|f| f.1).collect::<Vec<_>>(), [1, 1, 1, 1]);
    let mut damaged_blocks = [false; 4];
    for off in (0..4).chain((5..pristine.len()).step_by(131)) {
        let mut bad = pristine.clone();
        bad[off] ^= 0xFF;
        std::fs::write(&seg, &bad).unwrap();
        let a = Archive::open(&dir, opts.clone(), Telemetry::new()).unwrap();
        let got: Vec<Sample> = a.scan_all().collect();
        drop(a);
        match frames.iter().rposition(|f| f.0 <= off) {
            None => {
                // A flip in the magic costs nothing, and open leaves it.
                assert_eq!(got.len(), 100, "flip at {off} in the magic");
                assert!(got.iter().zip(&originals).all(|(g, w)| g.bits_eq(w)));
                assert_eq!(std::fs::read(&seg).unwrap(), bad, "flip at {off}");
            }
            Some(k) if off >= frames[k].0 + 5 => {
                // A flip in block k's payload or CRC costs that block alone.
                damaged_blocks[k] = true;
                let others = (originals.iter().enumerate()).filter(|(i, _)| i / 25 != k);
                assert_eq!(got.len(), 75, "flip at {off} in block {k}");
                assert!(got.iter().zip(others).all(|(g, (_, w))| g.bits_eq(w)));
            }
            Some(_) => {
                // A flip in a frame header ends the valid prefix there.
                assert!(
                    got.len() <= 100,
                    "corruption at {off} can never add samples"
                );
                assert!(got.iter().zip(&originals).all(|(g, w)| g.bits_eq(w)));
            }
        }
        std::fs::write(&seg, &pristine).unwrap();
    }
    assert_eq!(damaged_blocks, [true; 4], "every block is flipped once");
    // Pristine file still yields everything.
    let a = Archive::open(&dir, opts, Telemetry::new()).unwrap();
    assert_eq!(a.scan_all().count(), 100);
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
