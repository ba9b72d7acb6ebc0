//! Metric declarations and handles: the lock-free cells behind the
//! registry.
//!
//! 1. A `Site`, a `SiteVec` slot, `decl.with(..)` and the by-name door
//!    address the same cell.
//! 2. `Registry::clone()` is a value snapshot — and the operator plane,
//!    which installs such snapshots into private registries
//!    (`*r = snapshot`), keeps serving the live values.
//! 3. A scraper cloning the registry while the owner increments through
//!    a handle loses nothing.
//! 4. A seeded `run_with_lifecycle` leg exports exactly the series set
//!    (and the sample-accounting counters) it exported before hot
//!    metrics moved to handles (`tests/golden/series_ycsb_seed42.txt`
//!    was written by the commit that still built an owned key per
//!    call), and every family's `# HELP` is its README row.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};

use tscout_suite::archive::ArchiveOptions;
use tscout_suite::kernel::{HardwareProfile, Kernel};
use tscout_suite::models::ModelKind;
use tscout_suite::noisetap::Database;
use tscout_suite::obsd::json::Json;
use tscout_suite::obsd::{client, ObsdConfig, ObsdServer};
use tscout_suite::telemetry::tables::table;
use tscout_suite::telemetry::{
    declare_metrics, Cell, Registry, Telemetry, DEFAULT_PROFILE_PERIOD_NS,
};
use tscout_suite::tscout::{CollectionMode, TsConfig, ALL_SUBSYSTEMS};
use tscout_suite::workloads::driver::Workload;
use tscout_suite::workloads::{run_with_lifecycle, ModelLifecycle, RunOptions, Ycsb};

declare_metrics! {
    TEST_DECLS:
    EVENTS: Counter = "events_total", "Test events, per kind";
    DEPTH: Gauge = "depth", "Test depth";
    LAT_NS: Hist = "lat_ns", "Test latency, per op";
}

#[test]
fn site_vec_slot_with_and_by_name_door_address_the_same_cell() {
    let t = Telemetry::new();
    assert_eq!(TEST_DECLS.len(), 3);
    assert_eq!(TEST_DECLS[2].kind, "histogram");
    // Declaration sites register on first use, not on declaration.
    let site = EVENTS.site(&[("kind", "a")]);
    let mut family = EVENTS.vec("kind");
    assert!(!t.to_prometheus().contains("events_total"));
    // By name first, declared second — and the other way round.
    t.counter("events_total", &[("kind", "a")]).add(2);
    site.get(&t).inc();
    family.at(&t, 0, || "a").inc();
    family.at(&t, 0, || "renamed").inc(); // the first name sticks
    EVENTS.with(&t, &[("kind", "a")]).inc();
    assert_eq!(t.counter_value("events_total", &[("kind", "a")]), 6);
    family.at(&t, 3, || "b").add(5);
    t.counter_inc("events_total", &[("kind", "b")]);
    assert_eq!(EVENTS.with(&t, &[("kind", "b")]).get(), 6);
    assert_eq!(t.counter_total("events_total"), 12);
    // Label order does not matter to either door.
    let ab = EVENTS.with(&t, &[("x", "1"), ("kind", "c")]);
    t.counter_inc("events_total", &[("kind", "c"), ("x", "1")]);
    assert_eq!(ab.get(), 1);

    let g = DEPTH.site(&[]);
    t.gauge("depth", &[]).set(4.0);
    g.get(&t).add(-1.5);
    g.get(&t).set_max(1.0);
    assert_eq!(t.gauge_value("depth", &[]), 2.5);
    DEPTH.with(&t, &[]).set_max(7.0);
    assert_eq!(t.gauge_value("depth", &[]), 7.0);

    let h = LAT_NS.with(&t, &[("op", "read")]);
    h.record(100.0);
    t.hist("lat_ns", &[("op", "read")]).record(300.0);
    let snap = t.hist_snapshot("lat_ns", &[("op", "read")]).unwrap();
    assert_eq!(
        (snap.count, snap.sum, snap.min, snap.max),
        (2, 400.0, 100.0, 300.0)
    );
    assert_eq!(t.with_registry(|r| r.len()), 5);
    // Whichever door registered a family first, it carries the
    // declaration's help once a declaration has resolved it.
    let prom = t.to_prometheus();
    assert!(prom.contains("# HELP events_total Test events, per kind\n"));
    assert!(prom.contains("# HELP lat_ns Test latency, per op\n"));
}

#[test]
fn registry_clone_is_a_value_snapshot() {
    let t = Telemetry::new();
    let c = t.counter("c_total", &[]);
    let g = t.gauge("g", &[]);
    let h = t.hist("h_ns", &[]);
    c.add(10);
    g.set(1.0);
    h.record(8.0);
    let snap = t.with_registry(|r| r.clone());
    c.add(5);
    g.set(2.0);
    h.record(9.0);
    t.counter_inc("new_total", &[]);
    assert_eq!(snap.counter_value("c_total", &[]), 10);
    assert_eq!(snap.gauge_value("g", &[]), 1.0);
    assert_eq!(snap.hist_snapshot("h_ns", &[]).unwrap().count, 1);
    assert_eq!(snap.counter_value("new_total", &[]), 0);
    assert_eq!(snap.len(), 3);
    assert_eq!(t.counter_value("c_total", &[]), 15);

    // Installing the snapshot into another registry (what obsd does per
    // request) carries the values and leaves the source's handles alone.
    let private = Telemetry::new();
    private.with_registry(|r| *r = snap);
    private.counter_inc("c_total", &[]);
    assert_eq!(private.counter_value("c_total", &[]), 11);
    assert_eq!(t.counter_value("c_total", &[]), 15);
    c.inc();
    assert_eq!(private.counter_value("c_total", &[]), 11);
}

#[test]
fn obsd_serves_values_written_through_handles() {
    let t = Telemetry::new();
    let generation = t.gauge("model_generation", &[]);
    let accepted = t.counter("model_swap_accepted_total", &[]);
    generation.set(7.0);
    accepted.add(3);
    let srv = ObsdServer::start(ObsdConfig::default(), t.clone()).unwrap();
    let addr = srv.addr().to_string();
    let get = |path: &str| {
        let (status, body) = client::get(&addr, path).unwrap();
        assert_eq!(status, 200, "{path}: {body}");
        body
    };
    let sql = || {
        let query = "SELECT generation, swaps_accepted FROM ts_stat_model";
        let (status, body) = client::post(&addr, "/api/v1/sql", query).unwrap();
        assert_eq!(status, 200, "{body}");
        body
    };
    let metrics = get("/metrics");
    assert!(metrics.contains("model_generation 7\n"), "{metrics}");
    assert!(metrics.contains("model_swap_accepted_total 3\n"));
    // The table API and the SQL endpoint each install a snapshot into a
    // private registry (`*r = snapshot`); both must read the values the
    // handles wrote.
    assert!(get("/api/v1/model").contains("\"rows\":[[7,0,0,3,0]]"));
    assert!(sql().contains("\"rows\":[[7,3]]"));
    // Serving never detaches the simulation's own handles: later writes
    // show up in later responses.
    generation.set(8.0);
    accepted.inc();
    assert!(get("/metrics").contains("model_swap_accepted_total 4\n"));
    assert!(get("/api/v1/model").contains("\"rows\":[[8,0,0,4,0]]"));
    assert!(sql().contains("\"rows\":[[8,4]]"));
    // A non-finite gauge reads the same on every surface: the table as
    // its declaration renders it and as its endpoint serves it both say
    // `null` (and stay valid JSON).
    t.gauge("model_holdout_mape_pct", &[]).set(f64::NAN);
    let declared = t.with_registry(|r| table("ts_stat_model").unwrap().to_json(r));
    let declared = Json::parse(&declared).expect("table with a NaN gauge parses");
    let served = Json::parse(&get("/api/v1/model")).expect("served table parses");
    assert_eq!(served, declared);
    assert_eq!(served.column("holdout_mape_pct").unwrap(), [&Json::Null]);
    srv.shutdown();
}

#[test]
fn no_increment_is_lost_under_a_cloning_scraper() {
    const N: u64 = 1_000_000;
    let t = Telemetry::new();
    let c = t.counter("hot_total", &[]);
    let done = AtomicBool::new(false);
    // The owner starts counting only once the scraper is in its loop.
    let started = std::sync::Barrier::new(2);
    let clones = std::thread::scope(|s| {
        let scraper = s.spawn(|| {
            let (mut clones, mut last) = (0u64, 0u64);
            started.wait();
            loop {
                let seen = t
                    .with_registry(|r| r.clone())
                    .counter_value("hot_total", &[]);
                assert!(seen >= last, "a snapshot went backwards: {last} -> {seen}");
                assert!(seen <= N);
                last = seen;
                clones += 1;
                if done.load(Ordering::SeqCst) {
                    break clones;
                }
            }
        });
        started.wait();
        for _ in 0..N {
            c.inc();
        }
        done.store(true, Ordering::SeqCst);
        scraper.join().expect("scraper panicked")
    });
    assert!(clones >= 1);
    assert_eq!(c.get(), N);
    assert_eq!(t.counter_value("hot_total", &[]), N);
    assert_eq!(
        t.with_registry(|r| r.clone())
            .counter_value("hot_total", &[]),
        N
    );
}

/// `kind name{labels}` for every exported series: the rows of `ts_metrics`.
fn exported_series(t: &Telemetry) -> BTreeSet<String> {
    let rows = t.with_registry(|r| (table("ts_metrics").unwrap().rows)(r));
    let series = rows.iter().map(|row| match &row[..3] {
        [Cell::Text(name), Cell::Text(labels), Cell::Text(kind)] => {
            format!("{kind} {name}{labels}")
        }
        other => panic!("ts_metrics row starts {other:?}"),
    });
    series.collect()
}

#[test]
fn seeded_leg_exports_the_same_series_and_accounting_as_before_handles() {
    let dir = std::env::temp_dir().join(format!("tscout_handles_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut kernel = Kernel::with_seed(HardwareProfile::server_2x20(), 42);
    kernel.set_profile_period_ns(DEFAULT_PROFILE_PERIOD_NS);
    let mut db = Database::new(kernel);
    let mut workload = Ycsb::new(2_000);
    workload.setup(&mut db);
    let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
    cfg.enable_all_subsystems();
    cfg.ring_capacity = 1 << 22;
    db.attach_tscout(cfg).unwrap();
    for s in ALL_SUBSYSTEMS {
        db.tscout_mut().unwrap().set_sampling_rate(s, 100);
    }
    let t = db.kernel.telemetry.clone();
    let mut lc = ModelLifecycle::new(
        &dir,
        ArchiveOptions::default(),
        ModelKind::Forest,
        42,
        f64::MAX,
        t.clone(),
    )
    .unwrap();
    let opts = RunOptions {
        terminals: 4,
        duration_ns: 20e6,
        seed: 42,
        ..RunOptions::default()
    };
    let stats = run_with_lifecycle(&mut db, &mut workload, &opts, &mut lc);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!((stats.committed, stats.points.len()), (1114, 5574));

    let golden: BTreeSet<String> = include_str!("golden/series_ycsb_seed42.txt")
        .lines()
        .map(str::to_string)
        .collect();
    let got = exported_series(&t);
    let missing: Vec<_> = golden.difference(&got).collect();
    let extra: Vec<_> = got.difference(&golden).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "exported series changed\nmissing: {missing:#?}\nextra: {extra:#?}"
    );
    // The exposition lists the same families.
    let prom = t.to_prometheus();
    for series in &golden {
        let name = series.split([' ', '{']).nth(1).unwrap();
        assert!(
            prom.contains(&format!("# TYPE {name}")),
            "{name} not exposed"
        );
    }
    // Every family is declared: its `# HELP` is its row of the README
    // metric table, and the help travels with the family through
    // `Registry::clone()` and `merge_from()` into an empty `Registry`.
    // Only a family resolved by bare name alone is `(undocumented)`.
    let readme = include_str!("../README.md");
    let block = readme
        .split_once("<!-- METRICS -->")
        .and_then(|(_, rest)| rest.split_once("<!-- /METRICS -->"))
        .expect("README metric markers")
        .0;
    let mut merged = Registry::new();
    t.with_registry(|r| merged.merge_from(r));
    for text in [
        &prom,
        &t.with_registry(|r| r.clone()).to_prometheus(),
        &merged.to_prometheus(),
    ] {
        assert!(!text.contains("(undocumented)"));
        for help in text.lines().filter_map(|l| l.strip_prefix("# HELP ")) {
            let (family, meaning) = help.split_once(' ').expect("help text");
            let row = block
                .lines()
                .find(|row| row.starts_with(&format!("| `{family}` | ")))
                .unwrap_or_else(|| panic!("{family} has no README row"));
            assert!(row.ends_with(&format!(" | {meaning} |")), "{row} vs {help}");
        }
    }
    t.gauge("bad_signal", &[]).set(1.0);
    assert!(t
        .to_prometheus()
        .contains("# HELP bad_signal (undocumented)\n# TYPE bad_signal gauge\n"));

    let by_subsystem = |name: &str| -> Vec<u64> {
        ALL_SUBSYSTEMS
            .iter()
            .map(|s| t.counter_value(name, &[("subsystem", s.name())]))
            .collect()
    };
    // execution_engine, networking, log_serializer, disk_writer,
    // garbage_collector, transactions.
    let begun = by_subsystem("tscout_samples_begun_total");
    assert_eq!(begun, [2228, 2228, 2, 2, 0, 1114]);
    assert_eq!(by_subsystem("tscout_samples_delivered_total"), begun);
    assert_eq!(t.counter_total("tscout_samples_lost_total"), 0);
    for marker in ["begin", "end", "features"] {
        assert_eq!(
            t.counter_value("tscout_marker_events_total", &[("marker", marker)]),
            5574
        );
    }
    assert_eq!(t.counter_value("kernel_tracepoint_hits_total", &[]), 16722);
    assert_eq!(t.counter_value("kernel_mode_switches_total", &[]), 16722);
}
