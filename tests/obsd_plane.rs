//! Operator-plane integration tests: the embedded tscout-obsd daemon
//! must be a pure observer of the collection pipeline.
//!
//! 1. **Bit-identity** — a collected YCSB run with the daemon serving
//!    and a client hammering every endpoint produces a training-data
//!    archive byte-identical to a server-off run, and the pipeline
//!    accounting invariant (`begun = delivered + lost`) still closes.
//! 2. **Driver wiring** — `RunOptions::obsd` starts the daemon on an
//!    ephemeral port, writes the bound address to the configured file,
//!    and serves live requests for the duration of the run.
//! 3. **One contract across surfaces** — every `ts_*` table renders the
//!    same columns and rows through its declaration, its obsd endpoint
//!    and SQL.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use tscout_suite::archive::ArchiveOptions;
use tscout_suite::kernel::{HardwareProfile, Kernel};
use tscout_suite::models::ModelKind;
use tscout_suite::noisetap::Database;
use tscout_suite::obsd::json::Json;
use tscout_suite::obsd::{client, ObsdConfig, ObsdServer};
use tscout_suite::telemetry::{ActionRecord, ActionState, Rule, Selector, TABLES};
use tscout_suite::tscout::{CollectionMode, TsConfig, ALL_SUBSYSTEMS};
use tscout_suite::workloads::{run_with_lifecycle, ModelLifecycle, RunOptions, Ycsb};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tscout_obsd_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A loaded YCSB database with full collection attached, plus the
/// workload instance holding its prepared statements.
fn collected_db(seed: u64) -> (Database, Ycsb) {
    let mut k = Kernel::with_seed(HardwareProfile::server_2x20(), seed);
    k.noise_frac = 0.0;
    let mut db = Database::new(k);
    let mut w = Ycsb::new(600);
    use tscout_suite::workloads::driver::Workload;
    w.setup(&mut db);
    let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
    cfg.enable_all_subsystems();
    db.attach_tscout(cfg).unwrap();
    for s in ALL_SUBSYSTEMS {
        db.tscout_mut().unwrap().set_sampling_rate(s, 100);
    }
    // Lineage tracing on (clock-neutral, and on in both arms of the
    // bit-identity test), so the trace tables have rows to compare.
    db.kernel.telemetry.trace_set_every(8);
    (db, w)
}

/// One collected YCSB run archiving into `dir`; if `server` is true the
/// daemon serves the run's telemetry while a client thread hammers
/// `/metrics`, the table API, and the SQL endpoint until the run ends.
/// Returns the number of successful hammer requests.
fn collected_run(dir: &std::path::Path, seed: u64, server: bool) -> (Database, u64) {
    let (mut db, mut w) = collected_db(seed);
    let mut lc = ModelLifecycle::new(
        &dir.join("archive"),
        ArchiveOptions::default(),
        ModelKind::Ridge,
        7,
        120e6,
        db.kernel.telemetry.clone(),
    )
    .unwrap();
    let opts = RunOptions {
        terminals: 2,
        duration_ns: 400e6,
        seed,
        ..Default::default()
    };
    if !server {
        run_with_lifecycle(&mut db, &mut w, &opts, &mut lc);
        return (db, 0);
    }
    let srv = ObsdServer::start(ObsdConfig::default(), db.kernel.telemetry.clone()).unwrap();
    let addr = srv.addr().to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let ok = Arc::new(AtomicU64::new(0));
    let hammer = {
        let (stop, ok, addr) = (Arc::clone(&stop), Arc::clone(&ok), addr.clone());
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                for probe in [
                    client::get(&addr, "/metrics"),
                    client::get(&addr, "/api/v1/ou"),
                    client::get(&addr, "/healthz"),
                    client::post(&addr, "/api/v1/sql", "SELECT * FROM ts_stat_pipeline"),
                ] {
                    if matches!(probe, Ok((200, _))) {
                        ok.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
        })
    };
    run_with_lifecycle(&mut db, &mut w, &opts, &mut lc);
    stop.store(true, Ordering::SeqCst);
    hammer.join().unwrap();
    srv.shutdown();
    (db, ok.load(Ordering::SeqCst))
}

/// Every file in the archive directory, relative path → bytes.
fn archive_bytes(dir: &std::path::Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &std::path::Path, dir: &std::path::Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for e in std::fs::read_dir(dir).unwrap().flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(root, &p, out);
            } else {
                let rel = p.strip_prefix(root).unwrap().to_string_lossy().into_owned();
                out.insert(rel, std::fs::read(&p).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

#[test]
fn hammered_run_archives_bit_identical_samples() {
    let off_dir = temp_dir("off");
    let on_dir = temp_dir("on");
    let (db_off, _) = collected_run(&off_dir, 0x0B5D, false);
    let (db_on, served) = collected_run(&on_dir, 0x0B5D, true);
    assert!(
        served > 0,
        "the hammer must have landed requests during the run"
    );

    // The archives are byte-identical, file for file.
    let off = archive_bytes(&off_dir.join("archive"));
    let on = archive_bytes(&on_dir.join("archive"));
    assert!(!off.is_empty(), "server-off run must archive samples");
    let off_names: Vec<&String> = off.keys().collect();
    let on_names: Vec<&String> = on.keys().collect();
    assert_eq!(off_names, on_names, "archive file sets differ");
    for (name, bytes) in &off {
        assert_eq!(
            Some(bytes),
            on.get(name),
            "archive file {name} differs with the server on"
        );
    }

    // The registries agree exactly on the pipeline counters too.
    for db in [&db_off, &db_on] {
        let t = &db.kernel.telemetry;
        let begun = t.counter_total("tscout_samples_begun_total");
        let delivered = t.counter_total("tscout_samples_delivered_total");
        let lost = t.counter_total("tscout_samples_lost_total");
        assert!(begun > 0, "run must collect samples");
        assert_eq!(
            begun,
            delivered + lost,
            "accounting must close: begun = delivered + lost"
        );
    }
    let t_off = &db_off.kernel.telemetry;
    let t_on = &db_on.kernel.telemetry;
    for c in [
        "tscout_samples_begun_total",
        "tscout_samples_delivered_total",
        "tscout_samples_lost_total",
    ] {
        assert_eq!(
            t_off.counter_total(c),
            t_on.counter_total(c),
            "{c} differs with the server on"
        );
    }
    std::fs::remove_dir_all(&off_dir).ok();
    std::fs::remove_dir_all(&on_dir).ok();
}

#[test]
fn every_table_renders_the_same_rows_on_every_surface() {
    let dir = temp_dir("surfaces");
    let (db, _) = collected_run(&dir, 0x0B5F, false);
    let t = &db.kernel.telemetry;
    // The run leaves the action log and (usually) the alert ring empty;
    // give both rows, the action's observed columns NULL.
    t.action_append(ActionRecord {
        id: 0,
        kind: "trigger_retrain".into(),
        policy: "retrain_on_drift".into(),
        target: "data".into(),
        detail: "line one\nline \"two\"".into(),
        state: ActionState::Pending,
        dry_run: true,
        planned_at_ns: 1e6,
        observe_at_ns: 41e6,
        metric: "ts_health_state{subsystem=\"data\"}".into(),
        value_before: 2.0,
        predicted: 0.0,
        observed: None,
        observed_at_ns: None,
        err_pct: None,
        regressed: false,
        model_generation: 1,
    });
    t.with_registry(|r| {
        r.gauge("bad_signal", &[]).set(10.0);
        r.health_mut().add_rule(Rule {
            name: "bad_signal_high".into(),
            subsystem: "data".into(),
            selector: Selector::Gauge("bad_signal".into()),
            per_label: None,
            warn: 1.0,
            crit: 5.0,
            raise_ticks: 1,
            clear_ticks: 2,
        });
    });
    t.observability_tick(500e6);

    // The registry is quiescent now: one snapshot is what every surface
    // must render.
    let snap = t.with_registry(|r| r.clone());
    let srv = ObsdServer::start(ObsdConfig::default(), t.clone()).unwrap();
    let addr = srv.addr().to_string();
    let mut populated = 0;
    for table in TABLES {
        let name = table.name;
        // (a) The declaration: every row is as wide as its columns.
        let rows = (table.rows)(&snap);
        for row in &rows {
            assert_eq!(row.len(), table.columns.len(), "row width in {name}");
        }
        populated += usize::from(!rows.is_empty());
        let declared = Json::parse(&table.to_json(&snap)).unwrap();
        assert_eq!(declared.get("table").unwrap().as_str(), Some(name));
        let columns: Vec<Json> = table
            .columns
            .iter()
            .map(|(column, _)| Json::Str(column.to_string()))
            .collect();
        assert_eq!(declared.get("columns"), Some(&Json::Arr(columns)));

        // (b) The obsd endpoint serves exactly that document.
        let (status, body) = client::get(&addr, &format!("/api/v1/{}", table.api_key)).unwrap();
        assert_eq!(status, 200, "GET /api/v1/{}: {body}", table.api_key);
        assert_eq!(Json::parse(&body).unwrap(), declared, "endpoint of {name}");

        // (c) SQL returns the same columns and rows.
        let (status, body) =
            client::post(&addr, "/api/v1/sql", &format!("SELECT * FROM {name}")).unwrap();
        assert_eq!(status, 200, "SELECT * FROM {name}: {body}");
        let sql = Json::parse(&body).unwrap();
        for member in ["columns", "rows"] {
            assert_eq!(sql.get(member), declared.get(member), "{member} of {name}");
        }
    }
    assert_eq!(
        populated,
        TABLES.len(),
        "every table must have rows to compare"
    );
    srv.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_options_start_the_daemon_and_write_the_addr_file() {
    let dir = temp_dir("wiring");
    std::fs::create_dir_all(&dir).unwrap();
    let addr_file = dir.join("obsd.addr");
    let (mut db, mut w) = collected_db(0x0B5E);
    let mut lc = ModelLifecycle::new(
        &dir.join("archive"),
        ArchiveOptions::default(),
        ModelKind::Ridge,
        7,
        f64::MAX,
        db.kernel.telemetry.clone(),
    )
    .unwrap();
    let opts = RunOptions {
        terminals: 2,
        duration_ns: 300e6,
        seed: 0x0B5E,
        obsd: Some(ObsdConfig {
            addr_file: Some(addr_file.clone()),
            ..Default::default()
        }),
    };
    // Poll the addr file from a second thread and hit the daemon while
    // the run is still going; the server stops when the run returns.
    let served = Arc::new(AtomicU64::new(0));
    let probe = {
        let (served, addr_file) = (Arc::clone(&served), addr_file.clone());
        std::thread::spawn(move || {
            for _ in 0..400 {
                if let Ok(addr) = std::fs::read_to_string(&addr_file) {
                    if let Ok((200, body)) = client::get(addr.trim(), "/healthz") {
                        assert!(body.contains("\"status\""), "{body}");
                        served.fetch_add(1, Ordering::SeqCst);
                        return;
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        })
    };
    run_with_lifecycle(&mut db, &mut w, &opts, &mut lc);
    probe.join().unwrap();
    let addr = std::fs::read_to_string(&addr_file).expect("addr file written");
    let parsed: std::net::SocketAddr = addr.trim().parse().expect("addr file holds host:port");
    assert_ne!(parsed.port(), 0, "bound port is concrete, not ephemeral-0");
    assert_eq!(
        served.load(Ordering::SeqCst),
        1,
        "daemon must have served a live request during the run"
    );
    // The daemon stops with the run: the port no longer accepts.
    assert!(client::get(addr.trim(), "/healthz").is_err());
    std::fs::remove_dir_all(&dir).ok();
}
