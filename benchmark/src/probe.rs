//! Measurements taken on the state a pass leaves behind — cold reopen +
//! digest of the sealed archive, a full-history retrain, a windowed
//! aggregate, one `/metrics` scrape — plus the correctness ledger they
//! all write into. Every time is raw wall seconds.

use std::path::Path;

use tscout_archive::{crc32, Archive, ArchiveOptions, ArchiveStats, Sample};
use tscout_models::{datasets_from_archive, ModelKind, ModelRegistry, OuData, SwapDecision};
use tscout_obsd::{client, ObsdConfig, ObsdServer};
use tscout_telemetry::Telemetry;

use crate::trace::Tracer;

/// The `clock_ghz` / `concurrency` context columns appended to every
/// dataset (what `ModelLifecycle::step` passes for a 4-terminal run on
/// `server_2x20`).
pub const CLOCK_GHZ: f64 = 2.1;
pub const TERMINALS: usize = 4;
/// Holdout split of the accuracy gate (the lifecycle's default).
pub const HOLDOUT_EVERY: usize = 5;
/// Width of a windowed aggregate, virtual ns.
pub const WINDOW_NS: u64 = 20_000_000;

/// Operations attempted and failed, with one line per failure.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Count `n` operations that succeeded.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count `n` failed operations (they were attempted too).
    pub fn fail(&mut self, n: u64, what: impl Into<String>) {
        if n > 0 {
            self.attempted += n;
            self.failed += n;
            self.failures.push(what.into());
        }
    }

    /// One correctness check: `got` must equal `want`.
    pub fn expect_eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        if got == want {
            self.ok(1);
        } else {
            self.fail(1, format!("{what}: got {got:?}, expected {want:?}"));
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

fn sample_bytes(s: &Sample, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&s.ou.to_le_bytes());
    buf.extend_from_slice(s.ou_name.as_bytes());
    buf.push(s.subsystem);
    buf.extend_from_slice(&s.tid.to_le_bytes());
    buf.extend_from_slice(&s.template.to_le_bytes());
    buf.extend_from_slice(&s.start_ns.to_le_bytes());
    buf.extend_from_slice(&s.elapsed_ns.to_le_bytes());
    for list in [&s.metrics, &s.user_metrics] {
        buf.extend_from_slice(&(list.len() as u32).to_le_bytes());
        for v in list {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    buf.extend_from_slice(&(s.features.len() as u32).to_le_bytes());
    for f in &s.features {
        buf.extend_from_slice(&f.to_bits().to_le_bytes());
    }
}

/// CRC-32 chained over every field of every sample, in scan order.
pub fn digest(samples: impl Iterator<Item = Sample>) -> u32 {
    let mut d = 0u32;
    let mut buf = Vec::with_capacity(256);
    for s in samples {
        buf.clear();
        buf.extend_from_slice(&d.to_le_bytes());
        sample_bytes(&s, &mut buf);
        d = crc32(&buf);
    }
    d
}

/// What a cold reopen of a sealed archive directory shows.
#[derive(Debug)]
pub struct Reopened {
    pub archive: Archive,
    pub stats: ArchiveStats,
    pub reopen_s: f64,
    /// `scan_all().count()`.
    pub scan_s: f64,
    pub digest: u32,
}

/// Reopen `dir` cold and check it holds exactly `expected` samples, by
/// its manifest and by a full scan.
pub fn reopen_and_verify(
    dir: &Path,
    expected: u64,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Reopened {
    let o = tr.begin("archive.reopen");
    let archive = Archive::open(dir, ArchiveOptions::default(), Telemetry::new())
        .expect("reopen sealed archive");
    let reopen_s = tr.end(o);
    let o = tr.begin("archive.scan");
    let count = archive.scan_all().count() as u64;
    let scan_s = tr.end(o);
    let stats = archive.stats();
    checks.expect_eq("reopened samples_stored", stats.samples_stored, expected);
    checks.expect_eq("reopened scan_all().count()", count, expected);
    let o = tr.begin("bench.digest");
    let digest = digest(archive.scan_all());
    tr.end(o);
    Reopened {
        archive,
        stats,
        reopen_s,
        scan_s,
        digest,
    }
}

/// One full-history retrain as the lifecycle does it.
#[derive(Debug)]
pub struct Retrain {
    pub datasets_s: f64,
    pub train_s: f64,
    pub points: usize,
    pub data: Vec<OuData>,
}

impl Retrain {
    /// Request-to-swap latency, s.
    pub fn total_s(&self) -> f64 {
        self.datasets_s + self.train_s
    }
}

/// `datasets_from_archive` + `retrain_split` into `registry`. The swap
/// must be accepted or rejected, never skipped, when the archive holds
/// data.
pub fn retrain(
    archive: &Archive,
    registry: &mut ModelRegistry,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Retrain {
    let o = tr.begin("models.datasets");
    let data = datasets_from_archive(archive, CLOCK_GHZ, TERMINALS);
    let datasets_s = tr.end(o);
    let points = data.iter().map(OuData::len).sum();
    let o = tr.begin("models.train");
    let decision = registry.retrain_split(&data, HOLDOUT_EVERY);
    let train_s = tr.end(o);
    checks.expect_eq(
        "retrain on a non-empty archive is not skipped",
        decision != SwapDecision::Skipped,
        points > 0,
    );
    Retrain {
        datasets_s,
        train_s,
        points,
        data,
    }
}

pub fn fresh_registry(kind: ModelKind, seed: u64) -> ModelRegistry {
    ModelRegistry::new(kind, seed, Telemetry::new())
}

/// `(count, sum of elapsed_ns)` of the samples of `ous` that started at
/// or after `cutoff_ns` — the windowed aggregate, exact in integers so
/// it can be compared bit for bit with a reference.
pub fn window_aggregate(archive: &Archive, ous: &[&str], cutoff_ns: u64) -> (u64, u64) {
    let mut agg = (0u64, 0u64);
    for ou in ous {
        for s in archive.scan_ou(ou) {
            if s.start_ns >= cutoff_ns {
                agg.0 += 1;
                agg.1 += s.elapsed_ns;
            }
        }
    }
    agg
}

/// One `GET /metrics`; returns whether it was a well-formed 200 and
/// whether it carried `family`.
pub fn scrape_once(addr: &str, family: &str) -> (bool, bool) {
    match client::get(addr, "/metrics") {
        Ok((200, body)) if body.contains("# TYPE ") => (true, body.contains(family)),
        _ => (false, false),
    }
}

/// The single-worker daemon every workload scrapes.
pub fn start_obsd(telemetry: &Telemetry) -> ObsdServer {
    let cfg = ObsdConfig {
        workers: 1,
        ..ObsdConfig::default()
    };
    ObsdServer::start(cfg, telemetry.clone()).expect("start obsd on an ephemeral port")
}

/// `VmHWM` of this process, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(i: u64) -> Sample {
        Sample {
            ou: 1,
            ou_name: "scan".into(),
            subsystem: 0,
            tid: 3,
            template: 2,
            start_ns: i * 10,
            elapsed_ns: 100 + i,
            metrics: vec![i, 2 * i],
            features: vec![i as f64],
            user_metrics: vec![],
        }
    }

    #[test]
    fn digest_sees_every_field_and_order() {
        let base = digest((0..4).map(sample));
        assert_eq!(base, digest((0..4).map(sample)));
        assert_ne!(base, digest((0..4).rev().map(sample)));
        let mut flipped: Vec<Sample> = (0..4).map(sample).collect();
        flipped[2].features[0] = -flipped[2].features[0];
        assert_ne!(base, digest(flipped.into_iter()));
    }

    #[test]
    fn checks_ledger_counts_failures_against_attempts() {
        let mut c = Checks::default();
        c.ok(10);
        c.expect_eq("same", 3u64, 3u64);
        c.expect_eq("differs", 3u64, 4u64);
        c.fail(0, "nothing");
        assert_eq!((c.attempted, c.failed), (12, 1));
        assert_eq!(c.failures.len(), 1);
        assert!(c.failures[0].contains("differs"));
    }

    #[test]
    fn peak_rss_reads_proc() {
        assert!(peak_rss_mb() > 0.0);
    }
}
