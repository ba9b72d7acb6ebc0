//! Query-level observability integration tests: `EXPLAIN ANALYZE`
//! executes for real and annotates the plan tree with monotone actuals,
//! predicted columns track model hot swaps, plain `EXPLAIN` still never
//! executes, `ts_stat_statements` reconciles with the telemetry
//! accounting through plain SQL, and — the overriding constraint —
//! statement statistics never perturb the collected training samples.

use std::sync::Arc;

use tscout_suite::kernel::{HardwareProfile, Kernel};
use tscout_suite::models::{LabeledPoint, LiveModel, ModelKind, OuData, OuModelSet};
use tscout_suite::noisetap::{Database, Value};
use tscout_suite::tscout::{CollectionMode, TrainingPoint, TsConfig, ALL_SUBSYSTEMS};
use tscout_suite::workloads::driver::{run, RunOptions};
use tscout_suite::workloads::{Workload, Ycsb};

fn fresh(seed: u64) -> Database {
    let mut k = Kernel::with_seed(HardwareProfile::server_2x20(), seed);
    k.noise_frac = 0.0;
    Database::new(k)
}

fn attach(db: &mut Database) {
    let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
    cfg.enable_all_subsystems();
    cfg.ring_capacity = 1 << 20;
    db.attach_tscout(cfg).unwrap();
    for s in ALL_SUBSYSTEMS {
        db.tscout_mut().unwrap().set_sampling_rate(s, 100);
    }
}

/// A small bank schema with enough rows that every operator does real
/// work under `EXPLAIN ANALYZE`.
fn bank(db: &mut Database) -> tscout_suite::noisetap::SessionId {
    let sid = db.create_session();
    db.execute(
        sid,
        "CREATE TABLE acct (id INT PRIMARY KEY, branch INT, bal FLOAT)",
        &[],
    )
    .unwrap();
    db.execute(sid, "CREATE INDEX acct_branch ON acct (branch)", &[])
        .unwrap();
    db.execute(
        sid,
        "CREATE TABLE tx (tid INT PRIMARY KEY, acct INT, amt FLOAT)",
        &[],
    )
    .unwrap();
    for i in 0..200 {
        db.execute(
            sid,
            "INSERT INTO acct VALUES ($1, $2, $3)",
            &[Value::Int(i), Value::Int(i % 10), Value::Float(100.0)],
        )
        .unwrap();
    }
    for i in 0..400 {
        db.execute(
            sid,
            "INSERT INTO tx VALUES ($1, $2, $3)",
            &[Value::Int(i), Value::Int(i % 200), Value::Float(i as f64)],
        )
        .unwrap();
    }
    sid
}

fn explain_lines(
    db: &mut Database,
    sid: tscout_suite::noisetap::SessionId,
    sql: &str,
) -> Vec<String> {
    db.execute(sid, sql, &[])
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_text().unwrap().to_string())
        .collect()
}

/// Parse `actual=<ns>ns` out of an annotated operator line.
fn actual_ns(line: &str) -> Option<f64> {
    line.split("actual=")
        .nth(1)?
        .split("ns")
        .next()?
        .parse()
        .ok()
}

/// Every annotated operator executes *within* its root, so the first
/// (pre-order root) node's inclusive time bounds every descendant's.
#[test]
fn explain_analyze_actuals_are_monotone_with_nesting() {
    let mut db = fresh(0xEA01);
    let sid = bank(&mut db);
    for sql in [
        "EXPLAIN ANALYZE SELECT a.id, t.amt FROM acct a JOIN tx t ON a.id = t.acct \
         WHERE a.branch = 3",
        "EXPLAIN ANALYZE SELECT branch, count(*), sum(bal) FROM acct GROUP BY branch",
        "EXPLAIN ANALYZE SELECT bal FROM acct WHERE branch = 2 ORDER BY bal DESC LIMIT 5",
        "EXPLAIN ANALYZE UPDATE acct SET bal = bal + 1.0 WHERE branch = 7",
    ] {
        let out = explain_lines(&mut db, sid, sql);
        let ops: Vec<(String, f64)> = out
            .iter()
            .filter(|l| !l.starts_with("Execution:"))
            .filter_map(|l| actual_ns(l).map(|ns| (l.clone(), ns)))
            .collect();
        assert!(ops.len() >= 2, "want a nested annotated tree: {out:?}");
        let (root_line, root_ns) = &ops[0];
        assert!(*root_ns > 0.0, "root must accumulate time: {root_line}");
        for (line, ns) in &ops[1..] {
            assert!(
                root_ns >= ns,
                "descendant outlives its root ({ns} > {root_ns}):\n{line}\nin {out:?}"
            );
        }
        let footer = out.last().unwrap();
        let stmt_ns = actual_ns(footer).unwrap();
        assert!(
            stmt_ns >= *root_ns,
            "statement time must bound the root node: {footer} vs {root_line}"
        );
    }
    // The UPDATE above executed for real.
    let out = db
        .execute(sid, "SELECT bal FROM acct WHERE id = 7", &[])
        .unwrap();
    assert_eq!(out.rows[0][0], Value::Float(101.0));
}

/// Ridge fit on a constant target predicts ~that constant everywhere:
/// two scales make two distinguishable generations without the full
/// training pipeline.
fn synth_live(generation: u64, target_ns: f64) -> LiveModel {
    let mk = |name: &str, nf: usize| {
        let mut d = OuData::new(name);
        for i in 0..64usize {
            let mut features: Vec<f64> = (0..nf).map(|k| ((i + k) % 9) as f64).collect();
            features.push(2.5); // clock_ghz column
            features.push(1.0); // concurrency column
            d.points.push(LabeledPoint {
                features: &features,
                target_ns,
                template: 0,
            });
        }
        d
    };
    let data = vec![
        mk("idx_lookup", 3),
        mk("idx_range_scan", 2),
        mk("seq_scan", 2),
        mk("filter", 1),
        mk("hash_join_build", 2),
        mk("hash_join_probe", 2),
        mk("agg_build", 2),
        mk("sort", 2),
        mk("output", 2),
    ];
    LiveModel {
        generation,
        trained_points: data.iter().map(tscout_suite::models::OuData::len).sum(),
        models: Arc::new(OuModelSet::train(ModelKind::Ridge, 1, &data)),
        holdout_mape_pct: 0.0,
    }
}

#[test]
fn predicted_columns_track_model_hot_swap() {
    let mut db = fresh(0xEA02);
    let sid = bank(&mut db);
    let sql = "EXPLAIN ANALYZE SELECT bal FROM acct WHERE branch = 3";

    let bare = explain_lines(&mut db, sid, sql);
    assert!(
        bare.last().unwrap().contains("(no model installed)"),
        "{bare:?}"
    );

    db.install_live_model(Some(synth_live(1, 1_000.0)), 4.0);
    let gen1 = explain_lines(&mut db, sid, sql);
    assert!(
        gen1.last().unwrap().contains("(model generation 1)"),
        "{gen1:?}"
    );
    let p1 = gen1
        .last()
        .unwrap()
        .split("predicted=")
        .nth(1)
        .and_then(|s| s.split("ns").next())
        .and_then(|s| s.parse::<f64>().ok())
        .expect("generation 1 must predict");
    assert!(
        gen1.iter().any(|l| l.contains("err=")),
        "per-node error columns must render: {gen1:?}"
    );

    // Hot swap to a 50x-scale model: a new generation, moved predictions.
    db.install_live_model(Some(synth_live(2, 50_000.0)), 4.0);
    let gen2 = explain_lines(&mut db, sid, sql);
    assert!(
        gen2.last().unwrap().contains("(model generation 2)"),
        "{gen2:?}"
    );
    let p2 = gen2
        .last()
        .unwrap()
        .split("predicted=")
        .nth(1)
        .and_then(|s| s.split("ns").next())
        .and_then(|s| s.parse::<f64>().ok())
        .expect("generation 2 must predict");
    assert!(
        p2 > p1 * 5.0,
        "swap must change predicted cost: gen1={p1}ns gen2={p2}ns"
    );
}

#[test]
fn plain_explain_still_does_not_execute() {
    let mut db = fresh(0xEA03);
    let sid = bank(&mut db);
    let out = explain_lines(&mut db, sid, "EXPLAIN DELETE FROM acct WHERE branch = 3");
    assert!(
        out.iter().all(|l| !l.contains("actual=")),
        "plain EXPLAIN must not carry actuals: {out:?}"
    );
    let n = db.execute(sid, "SELECT count(*) FROM acct", &[]).unwrap();
    assert_eq!(n.rows[0][0], Value::Int(200), "EXPLAIN must not delete");

    // EXPLAIN ANALYZE of the same statement does execute.
    db.execute(
        sid,
        "EXPLAIN ANALYZE DELETE FROM acct WHERE branch = 3",
        &[],
    )
    .unwrap();
    let n = db.execute(sid, "SELECT count(*) FROM acct", &[]).unwrap();
    assert_eq!(n.rows[0][0], Value::Int(180));
}

/// The paper's bar for self-observation, applied to the statement-stats
/// plane: recording per-statement actuals must not change a single bit
/// of the training data collected alongside.
#[test]
fn samples_are_bit_identical_with_stmt_stats_on_and_off() {
    let collect = |stats_on: bool| -> Vec<TrainingPoint> {
        let mut db = fresh(0x57A7);
        db.stmt_stats_enabled = stats_on;
        let mut w = Ycsb::new(3_000);
        w.setup(&mut db);
        attach(&mut db);
        let stats = run(
            &mut db,
            &mut w,
            &RunOptions {
                terminals: 2,
                duration_ns: 120e6,
                seed: 0x57A7,
                ..Default::default()
            },
        );
        assert_eq!(stats.samples_dropped, 0, "ring must keep up for this test");
        if stats_on {
            assert!(
                db.kernel.telemetry.stmt_recorded() > 0,
                "the on-arm must actually record statements"
            );
        }
        stats.points
    };
    let off = collect(false);
    let on = collect(true);
    assert!(!off.is_empty());
    assert_eq!(
        off.len(),
        on.len(),
        "statement stats changed the sample count"
    );
    for (a, b) in off.iter().zip(&on) {
        assert_eq!(a, b, "statement stats changed a decoded sample");
        for (fa, fb) in a.features.iter().zip(&b.features) {
            assert_eq!(fa.to_bits(), fb.to_bits());
        }
    }
}

/// `ts_stat_statements` is plain SQL over the live registry, and its
/// aggregates reconcile exactly with the telemetry counters.
#[test]
fn ts_stat_statements_reconciles_through_sql() {
    let mut db = fresh(0x57A8);
    let mut w = Ycsb::new(2_000);
    w.setup(&mut db);
    attach(&mut db);
    run(
        &mut db,
        &mut w,
        &RunOptions {
            terminals: 2,
            duration_ns: 80e6,
            seed: 0x57A8,
            ..Default::default()
        },
    );
    let recorded = db.kernel.telemetry.stmt_recorded();
    assert!(recorded > 0, "driven run must record statements");

    let sid = db.create_session();
    let out = db
        .execute(
            sid,
            "SELECT fingerprint, calls, rows, total_ns, min_ns, max_ns, mean_ns, \
             ou_ns_total, mape_pct FROM ts_stat_statements ORDER BY total_ns DESC",
            &[],
        )
        .unwrap();
    assert!(!out.rows.is_empty(), "registry must surface through SQL");
    let mut calls_sum = 0u64;
    let mut prev_total = f64::INFINITY;
    for r in &out.rows {
        let fp = r[0].as_text().unwrap();
        let calls = r[1].as_int().unwrap() as u64;
        let total = r[3].as_float().unwrap();
        let min = r[4].as_float().unwrap();
        let max = r[5].as_float().unwrap();
        let mean = r[6].as_float().unwrap();
        let ou_total = r[7].as_float().unwrap();
        let mape = r[8].as_float().unwrap();
        assert!(calls >= 1, "{fp}: empty entry");
        assert!(
            total <= prev_total,
            "ORDER BY total_ns DESC violated at {fp}"
        );
        prev_total = total;
        let eps = 1e-6 * total.max(1.0);
        assert!(
            min <= mean + eps && mean <= max + eps,
            "{fp}: min/mean/max disordered"
        );
        assert!(
            calls as f64 * min <= total + eps && total <= calls as f64 * max + eps,
            "{fp}: total outside calls*[min,max]"
        );
        assert!(
            ou_total <= total + eps,
            "{fp}: OU self time {ou_total} exceeds inclusive {total}"
        );
        assert!(mape >= 0.0, "{fp}: negative MAPE");
        calls_sum += calls;
    }
    // Nothing was evicted in a small run, so per-fingerprint calls must
    // add up to exactly the recorded-statement counter.
    assert_eq!(
        db.kernel
            .telemetry
            .counter_value("db_stmt_evicted_total", &[]),
        0
    );
    assert_eq!(calls_sum, recorded, "calls must reconcile with accounting");
}
