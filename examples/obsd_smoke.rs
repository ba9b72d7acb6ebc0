//! Operator-plane smoke: the CI gate for tscout-obsd (`ci.sh`).
//!
//! 1. Runs a collected YCSB workload with `RunOptions::obsd` enabled on
//!    an ephemeral port; a client thread discovers the port through the
//!    addr file and hammers the daemon *while the run is collecting*. A
//!    leg can end before the first request lands, so the leg repeats on
//!    the same database and lifecycle until the daemon has answered once
//!    (at most [`MAX_LEGS`] legs).
//! 2. After the run, serves the final (quiescent) registry again and
//!    checks exact agreement between the three read paths: OpenMetrics
//!    exposition, the JSON table API, and the read-only SQL endpoint.
//!
//! Run with: `cargo run --release --example obsd_smoke`
//! Artifacts land under `$TS_RESULTS/` (default `results/`):
//! `obsd_smoke.addr` (the live run's bound address) and
//! `obsd_smoke.json` (request counts + agreement numbers).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use tscout_suite::archive::ArchiveOptions;
use tscout_suite::kernel::{HardwareProfile, Kernel};
use tscout_suite::models::ModelKind;
use tscout_suite::noisetap::Database;
use tscout_suite::obsd::json::Json;
use tscout_suite::obsd::{client, ObsdConfig, ObsdServer};
use tscout_suite::tscout::{CollectionMode, TsConfig, ALL_SUBSYSTEMS};
use tscout_suite::workloads::driver::Workload;
use tscout_suite::workloads::{run_with_lifecycle, ModelLifecycle, RunOptions, Ycsb};

/// Sum every sample line of one counter family in an OpenMetrics
/// exposition (counters render one line per label set).
fn exposition_counter_sum(text: &str, family: &str) -> u64 {
    text.lines()
        .filter(|l| l.starts_with(&format!("{family}{{")) || l.starts_with(&format!("{family} ")))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum()
}

/// Collected legs to try before concluding the daemon never answers.
const MAX_LEGS: u32 = 20;

fn main() {
    let results = std::env::var("TS_RESULTS").unwrap_or_else(|_| "results".into());
    let results = std::path::PathBuf::from(results);
    std::fs::create_dir_all(&results).expect("cannot create results dir");
    let addr_file = results.join("obsd_smoke.addr");
    std::fs::remove_file(&addr_file).ok();
    let archive_dir = results.join("obsd_smoke_archive");
    std::fs::remove_dir_all(&archive_dir).ok();

    // -- collected workload with the daemon wired through RunOptions --
    let mut k = Kernel::with_seed(HardwareProfile::server_2x20(), 0x0B5D);
    k.noise_frac = 0.0;
    let mut db = Database::new(k);
    let mut w = Ycsb::new(600);
    w.setup(&mut db);
    let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
    cfg.enable_all_subsystems();
    db.attach_tscout(cfg).unwrap();
    for s in ALL_SUBSYSTEMS {
        db.tscout_mut().unwrap().set_sampling_rate(s, 100);
    }
    let mut lc = ModelLifecycle::new(
        &archive_dir,
        ArchiveOptions::default(),
        ModelKind::Ridge,
        7,
        120e6,
        db.kernel.telemetry.clone(),
    )
    .expect("cannot open smoke archive");

    let stop = Arc::new(AtomicBool::new(false));
    let live = Arc::new(AtomicU64::new(0));
    let hammer = {
        let (stop, live, addr_file) = (Arc::clone(&stop), Arc::clone(&live), addr_file.clone());
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                // Read afresh every round: each leg's daemon binds a port
                // of its own, and the file may be caught mid-write.
                let Ok(a) = std::fs::read_to_string(&addr_file) else {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    continue;
                };
                let a = a.trim();
                for probe in [
                    client::get(a, "/metrics"),
                    client::get(a, "/api/v1/alerts"),
                    client::post(a, "/api/v1/sql", "SELECT count(*) FROM ts_stat_ou"),
                ] {
                    if matches!(probe, Ok((200, _))) {
                        live.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
        })
    };
    let opts = RunOptions {
        terminals: 2,
        duration_ns: 300e6,
        seed: 0x0B5D,
        obsd: Some(ObsdConfig {
            addr_file: Some(addr_file.clone()),
            ..Default::default()
        }),
    };
    let (mut committed, mut legs) = (0, 0);
    while legs < MAX_LEGS && live.load(Ordering::SeqCst) == 0 {
        committed += run_with_lifecycle(&mut db, &mut w, &opts, &mut lc).committed;
        legs += 1;
    }
    stop.store(true, Ordering::SeqCst);
    hammer.join().unwrap();
    let live_requests = live.load(Ordering::SeqCst);
    assert!(committed > 100, "committed {committed}");
    assert!(
        live_requests > 0,
        "no request reached the daemon while any of {legs} runs was collecting"
    );

    // -- post-run: the three read paths must agree exactly --
    let srv = ObsdServer::start(ObsdConfig::default(), db.kernel.telemetry.clone())
        .expect("cannot start post-run server");
    let addr = srv.addr().to_string();

    let (status, exposition) = client::get(&addr, "/metrics").expect("scrape");
    assert_eq!(status, 200);
    for needle in [
        "# TYPE tscout_samples_delivered_total counter",
        "# HELP tscout_samples_delivered_total",
        "le=\"+Inf\"",
        "# TYPE tscout_obsd_requests_total counter",
    ] {
        assert!(exposition.contains(needle), "exposition missing {needle}");
    }
    let delivered_registry = db
        .kernel
        .telemetry
        .counter_total("tscout_samples_delivered_total");
    let delivered_exposition =
        exposition_counter_sum(&exposition, "tscout_samples_delivered_total");
    assert_eq!(
        delivered_registry, delivered_exposition,
        "exposition disagrees with the registry"
    );

    let (status, body) = client::get(&addr, "/api/v1/alerts").expect("alerts");
    assert_eq!(status, 200);
    let alerts = Json::parse(&body).expect("alerts JSON");
    assert!(alerts.get("columns").is_some(), "{body}");

    // The archive table's endpoint agrees with the archive's counters.
    let (status, body) = client::get(&addr, "/api/v1/archive").expect("archive");
    assert_eq!(status, 200, "{body}");
    let archive = Json::parse(&body).expect("archive JSON");
    let appended: f64 = archive
        .column("samples_appended")
        .expect("ts_stat_archive has samples_appended")
        .iter()
        .filter_map(|cell| cell.as_f64())
        .sum();
    let appended_registry = db
        .kernel
        .telemetry
        .counter_total("archive_ou_samples_appended_total");
    assert!(appended_registry > 0, "the run must archive samples");
    assert_eq!(
        appended as u64, appended_registry,
        "/api/v1/archive disagrees with the registry"
    );

    // SQL/registry agreement: the read-only endpoint must see exactly
    // the rows the registry's virtual tables hold.
    let ou = tscout_suite::telemetry::tables::table("ts_stat_ou").unwrap();
    let expected_samples: i64 = db
        .kernel
        .telemetry
        .with_registry(|r| (ou.rows)(r))
        .iter()
        .map(|row| match row[2] {
            tscout_suite::telemetry::Cell::Int(n) => n,
            _ => 0,
        })
        .sum();
    let (status, body) =
        client::post(&addr, "/api/v1/sql", "SELECT sum(samples) FROM ts_stat_ou").expect("sql");
    assert_eq!(status, 200, "{body}");
    let doc = Json::parse(&body).expect("sql JSON");
    let sql_samples = doc.get("rows").unwrap().as_arr().unwrap()[0]
        .as_arr()
        .unwrap()[0]
        .as_f64()
        .unwrap();
    assert!(
        (sql_samples - expected_samples as f64).abs() < 0.5,
        "SQL sum(samples)={sql_samples} disagrees with registry rows={expected_samples}"
    );

    // DML bounces with a structured error.
    let (status, body) = client::post(&addr, "/api/v1/sql", "DELETE FROM ts_stat_ou").unwrap();
    assert_eq!(status, 400, "{body}");
    srv.shutdown();

    std::fs::write(
        results.join("obsd_smoke.json"),
        format!(
            "{{\n  \"live_requests\": {live_requests},\n  \"legs\": {legs},\n  \"committed\": {committed},\n  \"delivered_samples\": {delivered_registry},\n  \"sql_sum_samples\": {sql_samples}\n}}\n"
        ),
    )
    .expect("cannot write obsd_smoke.json");
    std::fs::remove_dir_all(&archive_dir).ok();
    println!(
        "obsd smoke OK: {live_requests} live requests during {legs} run(s); \
         exposition = SQL = registry = {delivered_registry} delivered samples"
    );
}
