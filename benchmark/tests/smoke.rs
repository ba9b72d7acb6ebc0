//! A `--scale 0.05` smoke of all four workloads (untraced, and traced
//! for the three distinct trace flavours), plus the demonstration that a
//! corrupted expected count fails a run.

use std::path::{Path, PathBuf};

use tsbench::metrics::{END_TO_END, PER_LAYER, STAGES};
use tsbench::probe::{self, Checks};
use tsbench::report;
use tsbench::run::{self, Config, Outcome, Workload};
use tsbench::trace::Tracer;
use tsbench::{ingest, stats};
use tscout_obsd::json::Json;

fn out_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test_{tag}_{}", std::process::id()))
}

fn smoke(workload: Workload, trace: bool, out: &Path) -> Outcome {
    run::run(&Config {
        workload,
        seed: 7,
        scale: 0.05,
        passes: 1,
        trace,
        out: out.to_path_buf(),
    })
}

/// The contract line parses, has exactly the four keys, and carries
/// every metric of `defs` with its unit.
fn assert_contract_line(o: &Outcome, defs: &[tsbench::metrics::Def]) {
    let line = report::contract_line(o);
    assert!(!line.contains('\n'));
    let json = Json::parse(&line).expect("contract line is JSON");
    let Json::Obj(fields) = &json else {
        panic!("contract line is not an object")
    };
    let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert!(json.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    let metrics = json.get("metrics").unwrap();
    let Json::Obj(m) = metrics else {
        panic!("metrics is not an object")
    };
    assert_eq!(m.len(), defs.len());
    for d in defs {
        let entry = metrics
            .get(d.name)
            .unwrap_or_else(|| panic!("{} missing", d.name));
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(d.unit));
        let v = entry.get("value").and_then(Json::as_f64).unwrap();
        assert!(v.is_finite(), "{} = {v}", d.name);
    }
}

/// Untraced smoke: correct, every end-to-end metric present and never 0.
fn smoke_untraced(w: Workload, out: &Path) -> Outcome {
    let o = smoke(w, false, out);
    assert!(o.correct(), "{}: {:?}", w.name(), o.checks.failures);
    assert_eq!(o.exit_code(), 0);
    assert_contract_line(&o, &END_TO_END);
    for m in &o.metrics {
        assert!(m.value > 0.0, "{} {} must never be 0", w.name(), m.name);
        assert!(stats::valid_metric_name(m.name));
    }
    assert!(report::table(&o).contains("failed_share 0 "));
    assert!(out.join(format!("result_{}.json", w.name())).is_file());
    o
}

/// Traced smoke: correct, every per-layer metric present, a stage table
/// and a span file.
fn smoke_traced(w: Workload, out: &Path) {
    let o = smoke(w, true, out);
    assert!(o.correct(), "{} traced: {:?}", w.name(), o.checks.failures);
    assert_contract_line(&o, &PER_LAYER);
    assert_eq!(o.stages.len(), STAGES.len());
    assert!(o.stages.iter().map(|(_, ms)| ms).sum::<f64>() > 0.0);
    assert!(o.metric("bpf.vm_insns_per_triple").unwrap().value > 0.0);
    assert!(o
        .metric("bench.stage_residual_pct")
        .unwrap()
        .value
        .is_finite());
    // A bypassed layer reads 0, a loaded one does not.
    assert_eq!(
        o.metric("core.samples_delivered").unwrap().value > 0.0,
        w == Workload::CollectScraped,
        "{}",
        w.name()
    );
    assert_eq!(
        o.metric("obsd.scrapes").unwrap().value > 0.0,
        w == Workload::CollectScraped
    );
    let trace = std::fs::read_to_string(out.join(format!("trace_{}.json", w.name())))
        .expect("trace file written");
    assert!(Json::parse(&trace)
        .unwrap()
        .as_arr()
        .is_some_and(|a| !a.is_empty()));
}

// One test per workload so `cargo test` runs them side by side; only
// correctness is asserted, never a time.

#[test]
fn smoke_collect_full_and_scraped_share_a_digest() {
    let out = out_dir("full");
    let full = smoke_untraced(Workload::CollectFull, &out);
    let scraped = smoke_untraced(Workload::CollectScraped, &out);
    // Single-variable sanity: the scraper changes no sample.
    assert_eq!(full.digest, scraped.digest);
    smoke_traced(Workload::CollectScraped, &out);
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn smoke_collect_unsampled() {
    let out = out_dir("unsampled");
    smoke_untraced(Workload::CollectUnsampled, &out);
    smoke_traced(Workload::CollectUnsampled, &out);
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn smoke_archive_retrain() {
    let out = out_dir("ingest");
    smoke_untraced(Workload::ArchiveRetrain, &out);
    smoke_traced(Workload::ArchiveRetrain, &out);
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn corrupting_one_expected_count_fails_the_run() {
    let out = out_dir("corrupt");
    let mut o = smoke(Workload::ArchiveRetrain, false, &out);
    assert_eq!(o.exit_code(), 0);

    // Re-verify a real sealed archive against an expected count that is
    // off by one: the ledger must record it and the run must fail.
    let dir = out.join("corrupt_archive");
    let mut a = tscout_archive::Archive::open(
        &dir,
        tscout_archive::ArchiveOptions::default(),
        tscout_telemetry::Telemetry::new(),
    )
    .unwrap();
    for s in ingest::generate(7, 100) {
        a.append(s).unwrap();
    }
    a.seal().unwrap();
    drop(a);
    let mut checks = Checks::default();
    let mut tr = Tracer::new(false);
    probe::reopen_and_verify(&dir, 100, &mut tr, &mut checks);
    assert_eq!(checks.failed, 0);
    probe::reopen_and_verify(&dir, 101, &mut tr, &mut checks);
    assert_eq!(
        checks.failed, 2,
        "manifest count and scan count both disagree"
    );

    o.checks.absorb(checks);
    assert!(!o.correct());
    assert_ne!(o.exit_code(), 0);
    assert!(o.failed_share() > 0.0);
    assert!(report::contract_line(&o).contains("\"correct\": false"));
    assert!(report::table(&o).contains("FAILED: reopened samples_stored: got 100, expected 101"));
    std::fs::remove_dir_all(&out).ok();
}
