//! Data-quality introspection end-to-end: the `ts_stat_*` virtual
//! tables queried *through SQL* must mirror the live telemetry registry
//! exactly — same rows, same numbers, nothing reformatted or stale —
//! and the drift → health → alert chain must fire on a genuine
//! distribution shift while staying silent on a steady workload.

use tscout_suite::kernel::{HardwareProfile, Kernel};
use tscout_suite::noisetap::{Database, Value};
use tscout_suite::tscout::{CollectionMode, TsConfig, ALL_SUBSYSTEMS};
use tscout_suite::workloads::driver::{run, RunOptions};
use tscout_suite::workloads::{Workload, Ycsb};

fn db() -> Database {
    let mut k = Kernel::with_seed(HardwareProfile::server_2x20(), 0xDA7A);
    k.noise_frac = 0.0;
    Database::new(k)
}

/// Compare every `ts_stat_ou` row returned through SQL against the
/// registry's drift state, column by column. Floats must match exactly:
/// both sides read the same sketches, so any difference means the SQL
/// path reformatted or cached something.
fn assert_sql_mirrors_registry(db: &mut Database) {
    let sid = db.create_session();
    let rows = db
        .execute(sid, "SELECT * FROM ts_stat_ou ORDER BY ou", &[])
        .unwrap()
        .rows;
    let expected: Vec<Vec<Value>> = db.kernel.telemetry.with_registry(|r| {
        let mut exp: Vec<Vec<Value>> = r
            .drift()
            .iter()
            .map(|(ou, d)| {
                vec![
                    Value::Text(ou.as_str().into()),
                    Value::Text(d.subsystem.as_str().into()),
                    Value::Int(d.samples as i64),
                    Value::Float(d.lifetime.mean()),
                    Value::Float(d.lifetime.quantile(0.50)),
                    Value::Float(d.lifetime.quantile(0.99)),
                    Value::Float(d.target.psi()),
                    Value::Float(d.feature.psi()),
                    Value::Float(d.target.ks()),
                    Value::Float(d.feature.ks()),
                    Value::Float(d.drift_score()),
                    Value::Float(d.residual_mape_pct()),
                    Value::Text(r.health().state_for_target(ou).name().into()),
                ]
            })
            .collect();
        exp.sort_by(|a, b| a[0].cmp(&b[0]));
        exp
    });
    assert!(!expected.is_empty(), "registry tracked no OUs");
    assert_eq!(rows.len(), expected.len(), "SQL row count != registry OUs");
    for (row, exp) in rows.iter().zip(&expected) {
        assert_eq!(row, exp, "SQL row diverged from registry for {:?}", exp[0]);
    }
    // The aggregate path must see the same cardinality.
    let n = db
        .execute(sid, "SELECT count(*) FROM ts_stat_ou", &[])
        .unwrap()
        .rows[0][0]
        .as_int()
        .unwrap();
    assert_eq!(n as usize, expected.len());
}

#[test]
fn synthetic_feed_rows_match_registry_exactly() {
    let mut db = db();
    let t = db.kernel.telemetry.clone();
    // Three OUs across two subsystems, distinct distributions, residuals
    // on two of them; enough samples to freeze references and score.
    for i in 0..400u64 {
        let j = (i * 7_919) % 401; // stride permutation, not a ramp
        t.observe_ou_sample("seq_scan", "execution_engine", 900.0 + j as f64, 2.0);
        t.observe_ou_sample(
            "idx_scan",
            "execution_engine",
            4_000.0 + (j * 3) as f64,
            5.0,
        );
        t.observe_ou_sample("wal_flush", "wal", 22_000.0 + (j * 11) as f64, 1.0);
        if i % 4 == 0 {
            t.observe_residual("seq_scan", 950.0, 900.0 + j as f64);
            t.observe_residual("wal_flush", 23_000.0, 22_000.0 + (j * 11) as f64);
        }
        if i % 64 == 63 {
            t.observability_tick(i as f64 * 1e6);
        }
    }
    assert_sql_mirrors_registry(&mut db);

    // The subsystem and model tables mirror the registry too.
    let sid = db.create_session();
    let subs = db
        .execute(
            sid,
            "SELECT subsystem, state, alerts_fired FROM ts_stat_subsystem ORDER BY subsystem",
            &[],
        )
        .unwrap()
        .rows;
    let expected_subs = db
        .kernel
        .telemetry
        .with_registry(|r| r.health().subsystem_states().len());
    assert_eq!(subs.len(), expected_subs);
    let gen = db
        .execute(sid, "SELECT generation FROM ts_stat_model", &[])
        .unwrap()
        .rows[0][0]
        .as_int()
        .unwrap();
    assert_eq!(
        gen,
        db.kernel.telemetry.gauge_value("model_generation", &[]) as i64
    );
}

#[test]
fn live_workload_rows_flow_through_sql() {
    let mut db = db();
    let mut w = Ycsb::new(1_000);
    w.setup(&mut db);
    let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
    cfg.enable_all_subsystems();
    db.attach_tscout(cfg).unwrap();
    for s in ALL_SUBSYSTEMS {
        db.tscout_mut().unwrap().set_sampling_rate(s, 100);
    }
    run(
        &mut db,
        &mut w,
        &RunOptions {
            terminals: 2,
            duration_ns: 40e6,
            seed: 0xDA7A,
            ..Default::default()
        },
    );
    // A real collection run populated the detector; SQL must agree with
    // it exactly, OU for OU.
    assert_sql_mirrors_registry(&mut db);
}

/// Scaled-down version of the `ablation_drift` experiment: identical
/// steady phases, then one arm's target latency jumps 50x. The shifted
/// arm must leave OK and fire `ou_drift` alerts; the control arm must
/// stay silent — both facts read back through SQL.
#[test]
fn injected_shift_degrades_health_while_control_stays_silent() {
    let feed = |shift_at: u64| -> Database {
        let db = db();
        let t = db.kernel.telemetry.clone();
        for i in 0..640u64 {
            let jitter = ((i * 7_919) % 101) as f64;
            let base = if i < shift_at { 1_000.0 } else { 50_000.0 };
            t.observe_ou_sample("agg_build", "execution_engine", base + jitter, 3.0);
            if i % 64 == 63 {
                t.observability_tick(i as f64 * 1e6);
            }
        }
        db
    };

    let mut control = feed(u64::MAX);
    let sid = control.create_session();
    let silent = control
        .execute(sid, "SELECT count(*) FROM ts_alerts", &[])
        .unwrap()
        .rows[0][0]
        .as_int()
        .unwrap();
    assert_eq!(silent, 0, "control arm fired alerts");
    assert_eq!(
        control.kernel.telemetry.counter_total("alerts_fired_total"),
        0
    );
    let health = control
        .execute(
            sid,
            "SELECT health FROM ts_stat_ou WHERE ou = 'agg_build'",
            &[],
        )
        .unwrap()
        .rows[0][0]
        .clone();
    assert_eq!(health, Value::Text("OK".into()));

    let mut shifted = feed(320);
    let sid = shifted.create_session();
    let drift_alerts = shifted
        .execute(
            sid,
            "SELECT count(*) FROM ts_alerts WHERE rule = 'ou_drift'",
            &[],
        )
        .unwrap()
        .rows[0][0]
        .as_int()
        .unwrap();
    assert!(drift_alerts >= 1, "shift did not fire ou_drift alerts");
    assert!(shifted.kernel.telemetry.counter_total("alerts_fired_total") >= 1);
    let row = &shifted
        .execute(
            sid,
            "SELECT health, drift_score FROM ts_stat_ou WHERE ou = 'agg_build'",
            &[],
        )
        .unwrap()
        .rows[0];
    assert_ne!(row[0], Value::Text("OK".into()), "shifted OU still OK");
    assert!(
        row[1].as_float().unwrap() > 0.5,
        "shifted drift score too small: {:?}",
        row[1]
    );
}
