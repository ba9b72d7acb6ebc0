//! The closed self-driving loop, end to end: the action engine watching
//! a live collection run must
//!
//! 1. react to a genuine drift-CRITICAL transition by triggering a
//!    retrain whose accepted swap rebaselines the drift references and
//!    brings data health back to OK — while an identical run without
//!    the engine stays CRITICAL;
//! 2. dump a flight-recorder bundle naming the action id when an
//!    action's follow-up regresses;
//! 3. reconcile the `ts_actions` SQL view with the in-memory log;
//! 4. lower a real collector's sampling rate on an overhead breach and
//!    restore it after recovery, with hysteresis blocking the
//!    immediate reversal;
//! 5. in dry-run mode, plan actions but actuate nothing — and leave
//!    the collected training samples bit-identical with a run that has
//!    no engine at all (the planner's cost lands on the Processor's
//!    clock, never a session's).

use tscout_suite::actions::{
    ActionCommand, ActionConfig, ActionEngine, DbmsActuator, PlannerInputs, SubsystemRate,
};
use tscout_suite::archive::ArchiveOptions;
use tscout_suite::kernel::{HardwareProfile, Kernel};
use tscout_suite::models::ModelKind;
use tscout_suite::noisetap::engine::StatementId;
use tscout_suite::noisetap::{Database, Value};
use tscout_suite::obsd::json::Json;
use tscout_suite::rng::RngExt;
use tscout_suite::tscout::{CollectionMode, TScout, TsConfig, ALL_SUBSYSTEMS};
use tscout_suite::workloads::driver::{
    run_with_lifecycle, ModelLifecycle, RunOptions, TxnCtx, Workload,
};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tscout_act_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Range scans whose width jumps 200x after `shift_after` transactions
/// (the `ablation_drift` workload): the scan OU's latency distribution
/// shifts mid-run and the drift detector goes CRITICAL.
struct ShiftScan {
    rows: i64,
    narrow: i64,
    wide: i64,
    shift_after: u64,
    done: u64,
    scan: Option<StatementId>,
}

impl ShiftScan {
    fn new(shift_after: u64) -> ShiftScan {
        ShiftScan {
            rows: 4_000,
            narrow: 8,
            wide: 1_600,
            shift_after,
            done: 0,
            scan: None,
        }
    }
}

impl Workload for ShiftScan {
    fn name(&self) -> &'static str {
        "shift_scan"
    }

    fn setup(&mut self, db: &mut Database) {
        let sid = db.create_session();
        db.execute(
            sid,
            "CREATE TABLE shift_t (k INT PRIMARY KEY, v FLOAT)",
            &[],
        )
        .unwrap();
        let ins = db.prepare("INSERT INTO shift_t VALUES ($1, $2)").unwrap();
        for k in 0..self.rows {
            db.execute_prepared(sid, ins, &[Value::Int(k), Value::Float(k as f64)])
                .unwrap();
        }
        self.scan = Some(
            db.prepare("SELECT sum(v) FROM shift_t WHERE k >= $1 AND k <= $2")
                .unwrap(),
        );
    }

    fn txn(&mut self, ctx: &mut TxnCtx<'_>) -> bool {
        let width = if self.done < self.shift_after {
            self.narrow
        } else {
            self.wide
        };
        self.done += 1;
        let lo = ctx.rng.random_range(0..(self.rows - width));
        let stmt = self.scan.expect("setup() not called");
        ctx.begin();
        let ok = ctx
            .request(stmt, &[Value::Int(lo), Value::Int(lo + width)])
            .is_ok();
        if ok {
            ctx.commit().is_ok()
        } else {
            ctx.rollback();
            false
        }
    }
}

fn new_db(seed: u64) -> Database {
    let mut k = Kernel::with_seed(HardwareProfile::server_2x20(), seed);
    k.noise_frac = 0.0;
    k.set_profile_period_ns(tscout_suite::telemetry::DEFAULT_PROFILE_PERIOD_NS);
    let mut db = Database::new(k);
    db.stmt_stats_enabled = false;
    db
}

fn attach_collect(db: &mut Database) {
    let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
    cfg.enable_all_subsystems();
    db.attach_tscout(cfg).unwrap();
    for s in ALL_SUBSYSTEMS {
        db.tscout_mut().unwrap().set_sampling_rate(s, 100);
    }
}

/// Run the drift workload with a model lifecycle; `engine` decides the
/// arm (None = control, Some = engine-on or dry-run). `rate` is the
/// per-subsystem sampling rate: 100 saturates the ring (fine for the
/// drift arms), while the bit-identity arms use a lower rate so the
/// run is drop-free — ring overwrite depends on the Processor's clock,
/// which the planner legitimately shifts. Returns the database and
/// every training point the run collected.
fn drift_arm(
    tag: &str,
    rate: u8,
    engine: Option<ActionConfig>,
    flightrec: Option<&std::path::Path>,
) -> (Database, Vec<tscout_suite::archive::Sample>) {
    let dir = temp_dir(tag);
    let mut db = new_db(0xAC7);
    let mut w = ShiftScan::new(1_200);
    w.setup(&mut db);
    attach_collect(&mut db);
    for s in ALL_SUBSYSTEMS {
        db.tscout_mut().unwrap().set_sampling_rate(s, rate);
    }
    if let Some(frdir) = flightrec {
        db.kernel
            .telemetry
            .arm_flight_recorder(frdir.to_path_buf(), "action_loop");
    }
    let mut lc = ModelLifecycle::new(
        &dir.join("archive"),
        ArchiveOptions::default(),
        ModelKind::Ridge,
        7,
        60e6,
        db.kernel.telemetry.clone(),
    )
    .unwrap();
    if let Some(cfg) = engine {
        lc = lc.with_actions(ActionEngine::new(cfg, db.kernel.telemetry.clone()));
    }
    let stats = run_with_lifecycle(
        &mut db,
        &mut w,
        &RunOptions {
            terminals: 2,
            duration_ns: 400e6,
            seed: 0xAC7,
            ..Default::default()
        },
        &mut lc,
    );
    assert!(stats.committed > 500, "committed {}", stats.committed);
    std::fs::remove_dir_all(&dir).ok();
    (db, stats.points)
}

#[test]
fn drift_critical_triggers_retrain_and_health_recovers() {
    // Control: same workload, same lifecycle, no engine. The drift
    // alert fires and nothing ever clears it.
    let (control, _) = drift_arm("control", 100, None, None);
    let t = &control.kernel.telemetry;
    assert!(
        t.gauge_value("ts_health_state", &[("subsystem", "data")]) >= 2.0,
        "control arm must end CRITICAL"
    );
    assert_eq!(t.counter_value("ts_drift_rebaselines_total", &[]), 0);

    // Engine on: a short observation window so the retrain's follow-up
    // closes before health has stepped back down — the action records a
    // regression (and dumps a flight bundle) even though the system
    // recovers by the end of the run.
    let frdir = temp_dir("flightrec");
    std::fs::create_dir_all(&frdir).unwrap();
    let cfg = ActionConfig {
        observation_window_ns: 2e6,
        ..Default::default()
    };
    let (db, _) = drift_arm("engine", 100, Some(cfg), Some(&frdir));
    let t = &db.kernel.telemetry;
    assert!(
        t.counter_value(
            "tscout_action_planned_total",
            &[("kind", "trigger_retrain")]
        ) >= 1,
        "engine never planned a retrain"
    );
    assert!(
        t.counter_value(
            "tscout_action_actuated_total",
            &[("kind", "trigger_retrain")]
        ) >= 1,
        "engine never actuated the retrain"
    );
    assert!(
        t.counter_value("ts_drift_rebaselines_total", &[]) >= 1,
        "accepted swap must rebaseline the drift references"
    );
    assert!(
        t.gauge_value("ts_health_state", &[("subsystem", "data")]) < 2.0,
        "engine arm must leave CRITICAL by end of run"
    );
    // The regressed follow-up dumped a flight bundle naming the action.
    assert!(
        t.counter_value(
            "tscout_action_regressed_total",
            &[("kind", "trigger_retrain")]
        ) >= 1,
        "short-window retrain follow-up should regress"
    );
    let bundles: Vec<std::path::PathBuf> = std::fs::read_dir(&frdir)
        .unwrap()
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("flightrec_action_loop"))
        })
        .collect();
    assert!(!bundles.is_empty(), "no flight bundle written");
    // A bundle names the action when its trigger's action_id joins to a
    // row of the bundle's own ts_actions table.
    let names_the_retrain = |path: &std::path::PathBuf| {
        let text = std::fs::read_to_string(path).unwrap();
        let doc = Json::parse(&text).expect("bundle is JSON");
        let Some(id) = doc.get("trigger").and_then(|t| t.get("action_id")) else {
            return false;
        };
        let actions = doc.get("tables").and_then(|t| t.get("ts_actions"));
        let actions = actions.expect("bundle carries ts_actions");
        let ids = actions.column("id").unwrap();
        let kinds = actions.column("kind").unwrap();
        ids.iter()
            .zip(kinds)
            .any(|(row_id, kind)| *row_id == id && kind.as_str() == Some("trigger_retrain"))
    };
    assert!(
        bundles.iter().any(names_the_retrain),
        "no flight bundle names the regressed retrain action"
    );

    // ts_actions through SQL reconciles with the in-memory log, row for
    // row: same ids, kinds, states.
    let log = t.actions_snapshot();
    assert!(!log.is_empty());
    let mut db = db;
    let sid = db.create_session();
    let rows = db
        .execute(
            sid,
            "SELECT id, kind, state FROM ts_actions ORDER BY id",
            &[],
        )
        .unwrap()
        .rows;
    assert_eq!(rows.len(), log.len());
    for (row, rec) in rows.iter().zip(&log) {
        assert_eq!(row[0], Value::Int(rec.id as i64));
        assert_eq!(row[1], Value::Text(rec.kind.as_str().into()));
        assert_eq!(row[2], Value::Text(rec.state.name().into()));
    }
    // Every closed action's efficacy landed in the archive's own OU
    // family (scanned back in the engine arm's archive before teardown
    // is covered by the ablation binary; here the counters agree).
    let observed: u64 = ["trigger_retrain"]
        .iter()
        .map(|k| {
            db.kernel
                .telemetry
                .counter_value("tscout_action_observed_total", &[("kind", k)])
        })
        .sum();
    assert!(observed >= 1);
    std::fs::remove_dir_all(&frdir).ok();
}

/// Actuates against a real collector: the engine's rate changes land in
/// the live sampler.
struct TsActuator<'a> {
    ts: &'a mut TScout,
}

impl DbmsActuator for TsActuator<'_> {
    fn set_sampling_rate(&mut self, subsystem: &str, rate: u8) {
        if let Some(s) = ALL_SUBSYSTEMS.into_iter().find(|s| s.name() == subsystem) {
            self.ts.set_sampling_rate(s, rate);
        }
    }
    fn trigger_retrain(&mut self) {}
    fn schedule_compaction(&mut self) {}
    fn hold_compaction(&mut self, _hold: bool) {}
    fn set_pipeline_mode(&mut self, _fused: bool) {}
}

#[test]
fn overhead_breach_lowers_live_rate_then_restores_with_hysteresis() {
    let mut db = new_db(0x0BE);
    attach_collect(&mut db);
    let telemetry = db.kernel.telemetry.clone();
    let mut engine = ActionEngine::new(ActionConfig::default(), telemetry.clone());
    let exec = tscout_suite::tscout::Subsystem::ExecutionEngine;
    let ts = db.tscout_mut().unwrap();
    let rates = |ts: &TScout| SubsystemRate {
        subsystem: exec.name().to_string(),
        current: ts.sampler.rate(exec),
        recommended: ts.sampler.rate(exec),
        loss_delta: 0,
    };

    // Over budget: the hottest subsystem's rate halves in the sampler.
    telemetry.gauge("tscout_overhead_ratio", &[]).set(0.08);
    let report = engine.tick(
        &PlannerInputs {
            now_ns: 1e6,
            overhead_ratio: Some(0.08),
            rates: vec![rates(ts)],
            ..Default::default()
        },
        &mut TsActuator { ts },
    );
    assert!(report
        .actuated
        .iter()
        .any(|c| matches!(c, ActionCommand::SetSamplingRate { rate: 50, .. })));
    assert_eq!(ts.sampler.rate(exec), 50);

    // Recovered, but inside the hysteresis window: the raise is held.
    telemetry.gauge("tscout_overhead_ratio", &[]).set(0.01);
    engine.tick(
        &PlannerInputs {
            now_ns: 90e6,
            overhead_ratio: Some(0.01),
            rates: vec![rates(ts)],
            ..Default::default()
        },
        &mut TsActuator { ts },
    );
    assert_eq!(ts.sampler.rate(exec), 50, "hysteresis must hold the rate");
    assert!(
        telemetry.counter_value(
            "tscout_action_suppressed_total",
            &[("reason", "hysteresis")]
        ) >= 1
    );

    // Past the window: restored toward the baseline first seen (100).
    engine.tick(
        &PlannerInputs {
            now_ns: 300e6,
            overhead_ratio: Some(0.01),
            rates: vec![rates(ts)],
            ..Default::default()
        },
        &mut TsActuator { ts },
    );
    assert_eq!(ts.sampler.rate(exec), 100);
}

#[test]
fn dry_run_plans_without_actuating_and_samples_match_engine_off() {
    // Arm A: lifecycle, no engine at all.
    let (off, off_points) = drift_arm("bits_off", 40, None, None);
    // Arm B: identical run with a dry-run engine attached.
    let (dry, dry_points) = drift_arm(
        "bits_dry",
        40,
        Some(ActionConfig {
            dry_run: true,
            ..Default::default()
        }),
        None,
    );
    let t = &dry.kernel.telemetry;
    // Drop-free preconditions: the bit-identity claim covers every
    // sample the DBMS emits, so neither arm may lose any to ring
    // overwrite (loss there is processor-clock dependent by design).
    for (arm, tel) in [("off", &off.kernel.telemetry), ("dry", t)] {
        let overwritten: u64 = ALL_SUBSYSTEMS
            .into_iter()
            .map(|s| {
                tel.counter_value(
                    "tscout_samples_lost_total",
                    &[("subsystem", s.name()), ("reason", "ring_overwrite")],
                )
            })
            .sum();
        assert_eq!(
            overwritten, 0,
            "{arm} arm lost samples to ring overwrite; lower the rate"
        );
    }

    // The dry engine planned real actions...
    let log = t.actions_snapshot();
    assert!(!log.is_empty(), "dry-run engine planned nothing");
    assert!(log.iter().all(|r| r.dry_run));
    assert!(log.iter().any(|r| r.kind == "trigger_retrain"));
    // ...actuated none of them...
    for kind in [
        "adjust_sampling_rate",
        "trigger_retrain",
        "schedule_compaction",
        "deprioritize_compaction",
        "toggle_pipeline",
    ] {
        assert_eq!(
            t.counter_value("tscout_action_actuated_total", &[("kind", kind)]),
            0,
            "dry-run actuated {kind}"
        );
    }
    // ...left the sampler untouched...
    let ts = dry.tscout().unwrap();
    for s in ALL_SUBSYSTEMS {
        assert_eq!(ts.sampler.rate(s), 40);
    }
    // ...never pulled a retrain forward, and never rebaselined.
    assert_eq!(t.counter_value("ts_drift_rebaselines_total", &[]), 0);

    // Bit-identity: both runs collected the exact same training
    // samples. Compare through the archive-sample encoding (floats by
    // bit pattern), which is what ends up on disk.
    assert_eq!(off_points.len(), dry_points.len(), "sample counts diverged");
    for (i, (a, b)) in off_points.iter().zip(&dry_points).enumerate() {
        assert!(
            a.to_sample(0).bits_eq(&b.to_sample(0)),
            "sample {i} diverged: {a:?} vs {b:?}"
        );
    }
    let off_t = &off.kernel.telemetry;
    assert_eq!(
        off_t.counter_total("tscout_samples_delivered_total"),
        t.counter_total("tscout_samples_delivered_total"),
        "delivered-sample counts diverged"
    );
}
