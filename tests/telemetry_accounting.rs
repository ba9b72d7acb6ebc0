//! End-to-end lost-sample accounting (paper §5.3): under forced ring
//! pressure, every sample that began collection must be accounted for —
//! delivered to the Processor or counted lost with a reason. No sample
//! vanishes, per subsystem and per OU.

use tscout_suite::kernel::{HardwareProfile, Kernel};
use tscout_suite::noisetap::{Database, EngineMode, Value};
use tscout_suite::tscout::{CollectionMode, TsConfig, ALL_SUBSYSTEMS};
use tscout_suite::workloads::driver::{run, RunOptions};
use tscout_suite::workloads::{Workload, Ycsb};

/// A loaded YCSB database collecting every subsystem into a ring of
/// `ring_capacity` records.
fn ycsb_db(ring_capacity: usize) -> (Database, Ycsb) {
    let mut k = Kernel::with_seed(HardwareProfile::server_2x20(), 0x7E1E);
    k.noise_frac = 0.0;
    let mut db = Database::new(k);
    let mut w = Ycsb::new(2_000);
    w.setup(&mut db);
    let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
    cfg.enable_all_subsystems();
    cfg.ring_capacity = ring_capacity;
    db.attach_tscout(cfg).unwrap();
    (db, w)
}

fn set_rates(db: &mut Database, rate: u8) {
    for s in ALL_SUBSYSTEMS {
        db.tscout_mut().unwrap().set_sampling_rate(s, rate);
    }
}

/// Run YCSB against a deliberately tiny ring at 100% sampling so the
/// collector overwrites records, then drain everything that survived.
fn pressured_run(ring_capacity: usize) -> Database {
    let (mut db, mut w) = ycsb_db(ring_capacity);
    set_rates(&mut db, 100);
    let opts = RunOptions {
        terminals: 4,
        duration_ns: 20e6,
        seed: 9,
        ..Default::default()
    };
    run(&mut db, &mut w, &opts);
    // Final drain: after this nothing is in flight or in the ring, so the
    // accounting identity must hold exactly.
    let _ = db.tscout_mut().unwrap().drain_decoded();
    db
}

#[test]
fn every_begun_sample_is_delivered_or_lost_per_subsystem() {
    let db = pressured_run(8);
    let t = db.kernel.telemetry.clone();
    let ts = db.tscout().unwrap();
    assert_eq!(ts.ring_len(), 0, "final drain must empty the ring");

    let mut any_lost = 0u64;
    for s in ALL_SUBSYSTEMS {
        let label = [("subsystem", s.name())];
        let begun = t.counter_value("tscout_samples_begun_total", &label);
        let delivered = t.counter_value("tscout_samples_delivered_total", &label);
        // Lost is labeled {subsystem, reason}; sum across reasons.
        let lost = t.with_registry(|r| {
            r.counter_sum_where("tscout_samples_lost_total", "subsystem", s.name())
        });
        assert_eq!(
            begun,
            delivered + lost,
            "{}: begun {} != delivered {} + lost {}",
            s.name(),
            begun,
            delivered,
            lost
        );
        any_lost += lost;
    }
    assert!(
        any_lost > 0,
        "an 8-slot ring at 100% sampling must overwrite"
    );

    // The aggregate view agrees with the per-subsystem identity.
    let totals = ts.loss_totals();
    assert_eq!(totals.begun, totals.delivered + totals.lost);
    assert_eq!(totals.lost, any_lost);
}

#[test]
fn per_ou_accounting_matches_subsystem_totals() {
    let db = pressured_run(8);
    let t = db.kernel.telemetry.clone();

    let sum_named = |name: &str| -> u64 { t.counter_total(name) };
    // Every per-subsystem counter has a per-OU shadow; grand totals match.
    assert_eq!(
        sum_named("tscout_samples_begun_total"),
        sum_named("tscout_ou_samples_begun_total")
    );
    assert_eq!(
        sum_named("tscout_samples_delivered_total"),
        sum_named("tscout_ou_samples_delivered_total")
    );
    assert_eq!(
        sum_named("tscout_samples_lost_total"),
        sum_named("tscout_ou_samples_lost_total")
    );

    // And the per-OU identity holds for each OU individually.
    let ous: std::collections::BTreeSet<String> = t.with_registry(|r| {
        r.counter_family("tscout_ou_samples_begun_total")
            .flat_map(|(labels, _)| labels.iter().map(|(_, v)| v.clone()))
            .collect()
    });
    assert!(!ous.is_empty());
    for ou in &ous {
        let label = [("ou", ou.as_str())];
        let begun = t.counter_value("tscout_ou_samples_begun_total", &label);
        let delivered = t.counter_value("tscout_ou_samples_delivered_total", &label);
        let lost =
            t.with_registry(|r| r.counter_sum_where("tscout_ou_samples_lost_total", "ou", ou));
        assert_eq!(
            begun,
            delivered + lost,
            "OU {ou}: {begun} != {delivered} + {lost}"
        );
    }
}

#[test]
fn generous_ring_loses_nothing() {
    let db = pressured_run(1 << 20);
    let ts = db.tscout().unwrap();
    let totals = ts.loss_totals();
    assert!(totals.begun > 0);
    assert_eq!(totals.lost, 0, "a huge ring must not overwrite");
    assert_eq!(totals.begun, totals.delivered);
}

#[test]
fn a_statement_failing_inside_an_operator_still_finishes_its_samples() {
    // An evaluation error used to leave the operator it hit between its
    // BEGIN and END markers: the sample was begun, then neither delivered
    // nor lost. `b + 1` over TEXT fails in a Filter, an index scan's
    // residual, either key of a hash join, an INSERT and a DELETE's scan.
    let text = |s: &str| Value::Text(s.into());
    let steps = [
        ("SELECT k FROM t WHERE k = 3", vec![], false),
        ("SELECT k FROM t WHERE b + 1 > 0", vec![], true),
        ("SELECT k FROM t WHERE k >= 2 AND b + 1 > 0", vec![], true),
        (
            "SELECT count(*) FROM t x JOIN t y ON x.b + 1 = y.k",
            vec![],
            true,
        ),
        (
            "SELECT count(*) FROM t x JOIN t y ON x.k = y.b + 1",
            vec![],
            true,
        ),
        ("INSERT INTO t VALUES (9, $1 + 1)", vec![text("y")], true),
        ("DELETE FROM t WHERE k >= 0 AND b + 1 > 0", vec![], true),
        ("SELECT b FROM t WHERE k = 1", vec![], false),
    ];
    for mode in [EngineMode::PerOperator, EngineMode::Fused] {
        let mut k = Kernel::with_seed(HardwareProfile::server_2x20(), 0x7E1E);
        k.noise_frac = 0.0;
        let mut db = Database::new(k);
        db.mode = mode;
        let sid = db.create_session();
        db.execute(sid, "CREATE TABLE t (k INT PRIMARY KEY, b TEXT)", &[])
            .unwrap();
        for k in 0..8 {
            db.execute(sid, "INSERT INTO t VALUES ($1, 'x')", &[Value::Int(k)])
                .unwrap();
        }
        let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
        cfg.enable_all_subsystems();
        db.attach_tscout(cfg).unwrap();
        set_rates(&mut db, 100);
        for (sql, params, fails) in &steps {
            let result = db.execute(sid, sql, params);
            assert_eq!(result.is_err(), *fails, "{mode:?} {sql}: {result:?}");
            let _ = db.tscout_mut().unwrap().drain_decoded();
            let lt = db.tscout().unwrap().loss_totals();
            assert!(lt.begun > 0, "{mode:?} {sql}");
            assert_eq!(
                lt.begun,
                lt.delivered + lt.lost,
                "{mode:?} after {sql}: begun {} delivered {} lost {}",
                lt.begun,
                lt.delivered,
                lt.lost
            );
        }
    }
}

#[test]
fn a_second_run_on_one_database_alerts_on_its_own_loss_rate() {
    // The sweeps of Figs. 5/6/8 run many times on one database. Each run
    // closes with an observability tick stamped 2 s past its end, so the
    // next run's pump-cadence scrapes are all *earlier* than the latest
    // one retained. When such scrapes were dropped, the loss-rate rule
    // saw one reading per run (the closing tick) and `raise_ticks: 2`
    // was never met: a later run was blind to its own loss.
    let (mut db, mut w) = ycsb_db(256);
    let opts = RunOptions {
        terminals: 4,
        duration_ns: 60e6,
        seed: 9,
        ..Default::default()
    };
    let sample_loss_alerts = |db: &Database| -> Vec<f64> {
        db.kernel.telemetry.with_registry(|r| {
            let alerts = r.health().alerts();
            let fired = alerts.filter(|a| a.rule == "sample_loss" && a.fired());
            fired.map(|a| a.at_ns).collect()
        })
    };
    set_rates(&mut db, 0);
    run(&mut db, &mut w, &opts);
    assert_eq!(db.tscout().unwrap().loss_totals().begun, 0);
    assert!(sample_loss_alerts(&db).is_empty(), "a clean run is silent");

    set_rates(&mut db, 100);
    let lossy = run(&mut db, &mut w, &opts);
    assert!(db.tscout().unwrap().loss_totals().lost > 0);
    let (first, last) = (lossy.txn_ends_ns[0], *lossy.txn_ends_ns.last().unwrap());
    let raised = sample_loss_alerts(&db);
    assert!(
        raised.iter().any(|at_ns| (first..=last).contains(at_ns)),
        "no sample_loss alert inside the lossy run [{first}, {last}]: {raised:?}"
    );
}
