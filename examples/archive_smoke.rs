//! Archive smoke test: write a few thousand samples, drop the archive,
//! reopen it from disk, and scan everything back — the write→reopen→scan
//! cycle CI exercises (`ci.sh`).
//!
//! Run with: `cargo run --release --example archive_smoke`
//! The store lands under `$TS_RESULTS/archive_smoke/` (default
//! `results/archive_smoke/`).

use tscout_archive::{Archive, ArchiveOptions, Sample};
use tscout_telemetry::Telemetry;

fn sample(i: u64) -> Sample {
    Sample {
        ou: (i % 4) as u16,
        ou_name: format!("smoke_ou_{}", i % 4),
        subsystem: 0,
        tid: (i % 8) as u32,
        template: (i % 3) as u32,
        start_ns: 1_000_000 + i * 500,
        elapsed_ns: 2_000 + (i * 13) % 700,
        metrics: vec![i, 64],
        features: vec![(i % 32) as f64],
        user_metrics: vec![],
    }
}

fn main() {
    let results = std::env::var("TS_RESULTS").unwrap_or_else(|_| "results".into());
    let dir = std::path::Path::new(&results).join("archive_smoke");
    std::fs::remove_dir_all(&dir).ok();
    const N: u64 = 5_000;

    let telemetry = Telemetry::new();
    {
        let small = ArchiveOptions {
            segment_max_bytes: 64 * 1024, // force several segments
            ..Default::default()
        };
        let mut a = Archive::open(&dir, small, telemetry.clone()).expect("open for write");
        for i in 0..N {
            a.append(sample(i)).expect("append");
        }
        a.seal().expect("seal");
        a.maybe_compact().expect("compact");
        let st = a.stats();
        println!(
            "wrote {N} samples: {} segments, {} blocks, {} bytes on disk",
            st.segments, st.blocks, st.bytes
        );
    }

    // Cold reopen + full scan: every sample must come back bit-identical
    // in per-OU append order.
    let a = Archive::open(&dir, ArchiveOptions::default(), telemetry.clone()).expect("reopen");
    let mut seen = 0u64;
    let mut per_ou_last: std::collections::HashMap<u16, u64> = Default::default();
    for s in a.scan_all() {
        let expect = {
            // Reconstruct which global index this per-OU position maps to.
            let k = per_ou_last.entry(s.ou).or_insert(s.ou as u64);
            let e = sample(*k);
            *k += 4;
            e
        };
        assert!(s.bits_eq(&expect), "mismatch at ou {} sample {:?}", s.ou, s);
        seen += 1;
    }
    assert_eq!(seen, N, "scan returned {seen} of {N} samples");
    println!(
        "reopened and scanned {seen} samples OK (damaged spans stepped over: {})",
        telemetry.counter_total("archive_scan_skipped_blocks_total")
    );
}
