//! The `archive_retrain` pass: no DBMS, no collector.
//!
//! A seeded generator (12 OUs, 2–6 features, 8 metrics, 20 templates,
//! monotone `start_ns`) feeds `Archive::append` in batches of 10,000
//! with `flush` + `maybe_compact` after each batch — what
//! `ModelLifecycle::step` does. Every 4th batch runs a windowed
//! aggregate (`scan_ou` over 3 OUs, the last 20 ms of `start_ns`) and
//! every 10th a full `datasets_from_archive` + `retrain_split` (Ridge).
//! SciTS-shaped: append-heavy ingest with reads beside the writes and
//! compaction under both.

use std::path::Path;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tscout_archive::{Archive, ArchiveOptions, Sample};
use tscout_models::{ModelKind, ModelRegistry};
use tscout_telemetry::Telemetry;

use crate::probe::{self, Checks, Reopened, Retrain, WINDOW_NS};
use crate::trace::Tracer;

pub const OUS: usize = 12;
pub const BATCH: usize = 10_000;
pub const WINDOW_EVERY: usize = 4;
pub const RETRAIN_EVERY: usize = 10;

fn ou_name(ou: usize) -> String {
    format!("syn_ou_{ou:02}")
}

/// `n` synthetic samples; the same seed gives the same vector.
pub fn generate(seed: u64, n: usize) -> Vec<Sample> {
    let mut rng = StdRng::seed_from_u64(seed);
    let names: Vec<String> = (0..OUS).map(ou_name).collect();
    let mut start_ns = 0u64;
    (0..n)
        .map(|_| {
            let ou = rng.random_range(0..OUS);
            // ~1 µs apart on average: a batch spans ~10 virtual ms.
            start_ns += rng.random_range(0..2_000u64);
            let features: Vec<f64> = (0..2 + ou % 5)
                .map(|_| rng.random_range(1..1_000u64) as f64)
                .collect();
            // Linear in the features plus bounded noise, so Ridge has
            // something to fit and the accuracy gate something to judge.
            let elapsed_ns = 400
                + features
                    .iter()
                    .enumerate()
                    .map(|(i, f)| (i as u64 + 1) * 3 * *f as u64)
                    .sum::<u64>()
                + rng.random_range(0..64u64);
            Sample {
                ou: ou as u16,
                ou_name: names[ou].clone(),
                subsystem: (ou % 6) as u8,
                tid: rng.random_range(1..=4u32),
                template: rng.random_range(0..20u32),
                start_ns,
                elapsed_ns,
                metrics: (0..8).map(|_| rng.random_range(0..1u64 << 20)).collect(),
                features,
                user_metrics: Vec::new(),
            }
        })
        .collect()
}

/// Everything one pass measured. Times are raw wall seconds.
#[derive(Debug)]
pub struct IngestPass {
    /// Opening the fresh archive directory and the model registry
    /// (~0.15 ms; the cold reopen of the sealed directory, which is the
    /// set-up a restarted pipeline pays, is `reopened.reopen_s`). Making
    /// the inputs is the harness's work, not the system's set-up, and is
    /// not in here: 400k samples are 120 MB of small allocations whose
    /// page faults cost 45-130 ms depending on what the guest kernel
    /// hands out (span `bench.generate`).
    pub setup_s: f64,
    /// Timed region: the whole interleaved ingest + read phase + seal.
    pub wall_s: f64,
    pub samples: u64,
    pub window_s: Vec<f64>,
    /// Samples the windowed aggregates decoded in total.
    pub window_scanned: u64,
    /// The last Ridge retrain of the pass.
    pub retrain: Retrain,
    pub registry: ModelRegistry,
    pub reopened: Reopened,
    /// `archive_bytes_written_total`: every byte the pass wrote,
    /// compaction rewrites included.
    pub bytes_written: u64,
    pub compactions: u64,
    pub telemetry: Telemetry,
    pub checks: Checks,
}

/// Run one pass with `batches` batches (a multiple of
/// [`RETRAIN_EVERY`]) in `dir` (created fresh, removed afterwards).
pub fn run_pass(batches: usize, seed: u64, dir: &Path, tr: &mut Tracer) -> IngestPass {
    assert!(batches > 0 && batches.is_multiple_of(RETRAIN_EVERY));
    std::fs::remove_dir_all(dir).ok();
    let mut checks = Checks::default();
    let root = tr.begin("pass");

    let g = tr.begin("bench.generate");
    let samples = generate(seed, batches * BATCH);
    // Compact reference for the windowed aggregates: the samples
    // themselves move into the archive.
    let reference: Vec<(u16, u64, u64)> = samples
        .iter()
        .map(|s| (s.ou, s.start_ns, s.elapsed_ns))
        .collect();
    tr.end(g);
    let o = tr.begin("setup");
    let telemetry = Telemetry::new();
    let g = tr.begin("archive.open");
    let mut archive = Archive::open(dir, ArchiveOptions::default(), telemetry.clone())
        .expect("open archive directory");
    tr.end(g);
    let mut registry = ModelRegistry::new(ModelKind::Ridge, seed, telemetry.clone());
    let setup_s = tr.end(o);
    let names: Vec<String> = (0..OUS).map(ou_name).collect();

    let mut window_s = Vec::new();
    let mut window_scanned = 0u64;
    let mut per_ou = [0u64; OUS];
    let mut last_retrain = None;
    let mut appended = 0usize;
    let mut feed = samples.into_iter();
    let timed = tr.begin("timed");
    for b in 1..=batches {
        let o = tr.begin("archive.append");
        let mut errors = 0u64;
        for s in feed.by_ref().take(BATCH) {
            errors += u64::from(archive.append(s).is_err());
        }
        tr.end(o);
        for r in &reference[appended..appended + BATCH] {
            per_ou[r.0 as usize] += 1;
        }
        appended += BATCH;
        checks.ok(BATCH as u64 - errors);
        checks.fail(errors, "Archive::append returned an error");
        let o = tr.begin("archive.flush");
        archive.flush().expect("flush");
        tr.end(o);
        let o = tr.begin("archive.compact");
        archive.maybe_compact().expect("compaction");
        tr.end(o);

        if b % WINDOW_EVERY == 0 {
            let q = b / WINDOW_EVERY;
            let ids: Vec<usize> = (0..3).map(|j| (q + j) % OUS).collect();
            let ous: Vec<&str> = ids.iter().map(|&i| names[i].as_str()).collect();
            let cutoff = reference[appended - 1].1.saturating_sub(WINDOW_NS);
            let o = tr.begin("archive.window");
            let got = probe::window_aggregate(&archive, &ous, cutoff);
            window_s.push(tr.end(o));
            window_scanned += ids.iter().map(|&i| per_ou[i]).sum::<u64>();
            // `start_ns` is monotone: the window is a suffix.
            let want = reference[..appended]
                .iter()
                .rev()
                .take_while(|r| r.1 >= cutoff)
                .filter(|r| ids.contains(&(r.0 as usize)))
                .fold((0u64, 0u64), |(n, sum), r| (n + 1, sum + r.2));
            checks.expect_eq("windowed aggregate", got, want);
        }
        if b % RETRAIN_EVERY == 0 {
            let retrain = probe::retrain(&archive, &mut registry, tr, &mut checks);
            checks.expect_eq("dataset points == appended", retrain.points, appended);
            last_retrain = Some(retrain);
        }
    }
    let o = tr.begin("archive.seal");
    archive.seal().expect("seal");
    tr.end(o);
    let wall_s = tr.end(timed);
    tr.end(root);

    let bytes_written = telemetry.counter_total("archive_bytes_written_total");
    let compactions = telemetry.counter_total("archive_segments_compacted_total");
    drop(archive);
    let reopened = probe::reopen_and_verify(dir, appended as u64, tr, &mut checks);
    std::fs::remove_dir_all(dir).ok();
    IngestPass {
        setup_s,
        wall_s,
        samples: appended as u64,
        window_s,
        window_scanned,
        retrain: last_retrain.expect("at least one retrain period"),
        registry,
        reopened,
        bytes_written,
        compactions,
        telemetry,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_seeded_monotone_and_shaped() {
        let a = generate(7, 2_000);
        assert_eq!(a, generate(7, 2_000));
        assert_ne!(a, generate(8, 2_000));
        assert!(a.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
        let mut ous: Vec<u16> = a.iter().map(|s| s.ou).collect();
        ous.sort_unstable();
        ous.dedup();
        assert_eq!(ous.len(), OUS);
        for s in &a {
            assert_eq!(s.features.len(), 2 + s.ou as usize % 5);
            assert_eq!(s.metrics.len(), 8);
            assert!(s.template < 20);
            assert_eq!(s.ou_name, ou_name(s.ou as usize));
        }
    }
}
