//! Ablation: the action engine closes the self-driving loop.
//!
//! Two identical databases run the same drifting range-scan workload
//! (the `ablation_drift` shift: scan width jumps ~200× mid-run) under a
//! model lifecycle. The *control* arm has no action engine: drift goes
//! CRITICAL and nothing ever clears it. The *engine* arm attaches the
//! action engine on the pump cadence: the drift-CRITICAL transition
//! triggers an out-of-band retrain, the accepted swap rebaselines the
//! drift references, and data health recovers — the closed loop the
//! paper's self-driving premise needs (observe → predict → act →
//! observe the action itself).
//!
//! Every fired action leaves a row in the `ts_actions` virtual table
//! and, once its observation window closes, an efficacy sample in the
//! archive's own `action_efficacy` OU family. The full action log is
//! the `ts_actions` member of `results/tables_ablation_actions.json`.

use super::ablation_drift::ShiftScan;
use noisetap::engine::Database;
use tscout_actions::{ActionConfig, ActionEngine, EFFICACY_OU_NAME};
use tscout_archive::ArchiveOptions;
use tscout_bench::{attach_collect, new_db, Csv};
use tscout_kernel::HardwareProfile;
use tscout_models::ModelKind;
use tscout_telemetry::decls;
use tscout_workloads::driver::{run_with_lifecycle, ModelLifecycle, RunOptions, Workload};

struct ArmResult {
    committed: u64,
    final_health: f64,
    retrains_actuated: u64,
    rebaselines: u64,
    actions_planned: u64,
    actions_observed: u64,
    efficacy_samples: usize,
    log_len: usize,
}

fn run_arm(tag: &str, engine: bool, seed: u64) -> (Database, ArmResult) {
    let dir = std::env::temp_dir().join(format!("ts_abl_actions_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut db = new_db(HardwareProfile::server_2x20(), seed);
    // Single-variable isolation, like `ablation_drift`: statement stats
    // off so only the engine differs between the arms.
    db.stmt_stats_enabled = false;
    let mut w = ShiftScan::new(1_200);
    w.setup(&mut db);
    attach_collect(&mut db);
    let mut lc = ModelLifecycle::new(
        &dir,
        ArchiveOptions::default(),
        ModelKind::Ridge,
        7,
        60e6,
        db.kernel.telemetry.clone(),
    )
    .expect("cannot open lifecycle archive");
    if engine {
        lc = lc.with_actions(ActionEngine::new(
            ActionConfig::default(),
            db.kernel.telemetry.clone(),
        ));
    }
    let stats = run_with_lifecycle(
        &mut db,
        &mut w,
        &RunOptions {
            terminals: 2,
            duration_ns: 400e6,
            seed,
            ..Default::default()
        },
        &mut lc,
    );
    let t = &db.kernel.telemetry;
    let r = ArmResult {
        committed: stats.committed,
        final_health: t.gauge_value(decls::HEALTH_STATE.name, &[("subsystem", "data")]),
        retrains_actuated: t.counter_value(
            tscout_actions::decls::ACTUATED.name,
            &[("kind", "trigger_retrain")],
        ),
        rebaselines: t.counter_value(decls::DRIFT_REBASELINES.name, &[]),
        actions_planned: t.counter_total(tscout_actions::decls::PLANNED.name),
        actions_observed: t.counter_total(tscout_actions::decls::OBSERVED.name),
        efficacy_samples: lc.archive.scan_ou(EFFICACY_OU_NAME).count(),
        log_len: t.actions_snapshot().len(),
    };
    std::fs::remove_dir_all(&dir).ok();
    (db, r)
}

pub(crate) fn main() {
    let mut csv = Csv::create(
        "ablation_actions.csv",
        "arm,committed,final_health,retrains_actuated,rebaselines,actions_planned,actions_observed,efficacy_samples",
    );

    let (_, control) = run_arm("control", false, 0xAC7);
    let (mut engine_db, engine) = run_arm("engine", true, 0xAC7);

    for (arm, r) in [("control", &control), ("engine", &engine)] {
        csv.row(&format!(
            "{arm},{},{},{},{},{},{},{}",
            r.committed,
            r.final_health,
            r.retrains_actuated,
            r.rebaselines,
            r.actions_planned,
            r.actions_observed,
            r.efficacy_samples,
        ));
    }

    // The closed-loop contract this ablation demonstrates.
    assert!(
        control.final_health >= 2.0,
        "control arm must end CRITICAL (health {})",
        control.final_health
    );
    assert_eq!(control.rebaselines, 0, "control arm must never rebaseline");
    assert!(
        engine.retrains_actuated >= 1,
        "engine arm never actuated a retrain"
    );
    assert!(
        engine.rebaselines >= 1,
        "accepted swap must rebaseline the drift references"
    );
    assert!(
        engine.final_health < 2.0,
        "engine arm must leave CRITICAL (health {})",
        engine.final_health
    );
    // Every closed action left an efficacy sample in its own OU family.
    assert!(engine.actions_planned >= 1, "engine planned nothing");
    assert!(
        engine.efficacy_samples as u64 >= engine.actions_observed,
        "closed actions ({}) outnumber archived efficacy samples ({})",
        engine.actions_observed,
        engine.efficacy_samples
    );
    println!(
        "# expectation: engine arm recovers (health {} -> {}), control stays CRITICAL ({})",
        2.0, engine.final_health, control.final_health
    );

    // Every fired action has a `ts_actions` row, readable through SQL.
    let sid = engine_db.create_session();
    let rows = engine_db
        .execute(sid, "SELECT count(*) FROM ts_actions", &[])
        .expect("ts_actions must be queryable")
        .rows;
    assert_eq!(
        rows[0][0].as_int().unwrap() as usize,
        engine.log_len,
        "ts_actions row count disagrees with the in-memory action log"
    );
}
