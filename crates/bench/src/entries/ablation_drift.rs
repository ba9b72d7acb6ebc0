//! Ablation: online drift detection fires on an injected workload shift.
//!
//! Two identical databases run the same range-scan workload; in the
//! *shifted* arm the scan width jumps ~200× partway through (a workload
//! shift that invalidates models trained on the narrow phase), while the
//! *control* arm stays narrow throughout. The per-OU drift detector must
//! flip the affected OUs out of OK and fire `ou_drift` alerts in the
//! shifted arm while the control arm stays silent — the false-positive /
//! false-negative contract of the health engine.
//!
//! Both the detector state and the alert log are read back *through SQL*
//! (`ts_stat_ou`, `ts_alerts`), exercising the introspection path
//! end-to-end. The shifted arm also runs with the lineage tracer on and
//! the flight recorder armed: the CRITICAL `ou_drift` transition must
//! leave a `flightrec_ablation_drift_*.json` evidence bundle whose
//! trigger names the alert and whose tables carry the alert and trace
//! rings.

use noisetap::engine::{Database, StatementId};
use noisetap::Value;
use rand::RngExt;
use tscout_bench::{attach_collect, new_db, results_dir, Csv};
use tscout_kernel::HardwareProfile;
use tscout_obsd::json::Json;
use tscout_workloads::driver::{run, RunOptions, TxnCtx, Workload};

/// Range-scan workload whose scan width jumps from `narrow` to `wide`
/// rows after `shift_after` transactions (`u64::MAX` = never: control).
pub(crate) struct ShiftScan {
    rows: i64,
    narrow: i64,
    wide: i64,
    shift_after: u64,
    done: u64,
    scan: Option<StatementId>,
}

impl ShiftScan {
    pub(crate) fn new(shift_after: u64) -> ShiftScan {
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

struct ArmResult {
    committed: u64,
    alerts_fired: u64,
    drift_alerts: i64,
    unhealthy_ous: Vec<(String, f64, String)>,
    max_drift: f64,
}

fn run_arm(shift_after: u64, seed: u64) -> ArmResult {
    let mut db = new_db(HardwareProfile::server_2x20(), seed);
    // Single-variable isolation: this ablation demonstrates the drift
    // detector's false-positive/false-negative contract, so statement
    // stats stay off — their pump-cadence accounting shifts Processor
    // drain timing, which perturbs which samples sit in the live drift
    // window at evaluation time. `ablation_query_stats` covers the
    // stats-on driven path.
    db.stmt_stats_enabled = false;
    let mut w = ShiftScan::new(shift_after);
    w.setup(&mut db);
    attach_collect(&mut db);
    // Trace 1-in-64 markers and arm the flight recorder: a CRITICAL
    // health transition mid-run dumps an evidence bundle with the
    // trigger, every `ts_*` table, and the profiler state.
    db.kernel.telemetry.trace_set_every(64);
    db.kernel
        .telemetry
        .arm_flight_recorder(results_dir(), "ablation_drift");
    // Fixed virtual duration (no TS_SCALE): the detector freezes its
    // reference after a fixed sample count, so the phase lengths are part
    // of the experiment design, not a runtime knob.
    let stats = run(
        &mut db,
        &mut w,
        &RunOptions {
            terminals: 2,
            duration_ns: 400e6,
            seed,
            ..Default::default()
        },
    );

    // Read the detector back through the SQL introspection tables.
    let sid = db.create_session();
    let ou_rows = db
        .execute(
            sid,
            "SELECT ou, drift_score, health FROM ts_stat_ou ORDER BY drift_score DESC",
            &[],
        )
        .unwrap()
        .rows;
    let unhealthy_ous: Vec<(String, f64, String)> = ou_rows
        .iter()
        .filter(|r| r[2].as_text() != Some("OK"))
        .map(|r| {
            (
                r[0].as_text().unwrap().to_string(),
                r[1].as_float().unwrap(),
                r[2].as_text().unwrap().to_string(),
            )
        })
        .collect();
    let max_drift = ou_rows.first().and_then(|r| r[1].as_float()).unwrap_or(0.0);
    let drift_alerts = db
        .execute(
            sid,
            "SELECT count(*) FROM ts_alerts WHERE rule = 'ou_drift'",
            &[],
        )
        .unwrap()
        .rows[0][0]
        .as_int()
        .unwrap();
    let alerts_fired = db
        .kernel
        .telemetry
        .counter_total(tscout_telemetry::decls::ALERTS_FIRED.name);
    ArmResult {
        committed: stats.committed,
        alerts_fired,
        drift_alerts,
        unhealthy_ous,
        max_drift,
    }
}

pub(crate) fn main() {
    let mut csv = Csv::create(
        "ablation_drift.csv",
        "arm,committed,alerts_fired,drift_alerts,unhealthy_ous,max_drift_score",
    );

    let control = run_arm(u64::MAX, 0xD21F);
    let shifted = run_arm(1_200, 0xD21F);

    for (arm, r) in [("control", &control), ("shifted", &shifted)] {
        csv.row(&format!(
            "{arm},{},{},{},{},{:.3}",
            r.committed,
            r.alerts_fired,
            r.drift_alerts,
            r.unhealthy_ous.len(),
            r.max_drift,
        ));
    }
    for (ou, score, health) in &shifted.unhealthy_ous {
        println!("# shifted arm: {ou} drift_score={score:.3} health={health}");
    }

    // The detector contract this ablation demonstrates.
    assert_eq!(
        control.alerts_fired, 0,
        "control arm must stay silent, fired {}",
        control.alerts_fired
    );
    assert!(
        shifted.alerts_fired >= 1 && shifted.drift_alerts >= 1,
        "shifted arm must fire ou_drift alerts (fired={}, drift={})",
        shifted.alerts_fired,
        shifted.drift_alerts
    );
    assert!(
        !shifted.unhealthy_ous.is_empty(),
        "shifted arm must leave at least one OU out of OK"
    );
    println!(
        "# expectation: injected shift trips the detector ({} alerts, {} OUs unhealthy); control is silent",
        shifted.alerts_fired,
        shifted.unhealthy_ous.len()
    );

    // The CRITICAL transition in the shifted arm must have dumped a
    // flight-recorder bundle that names its cause and carries the
    // alert and trace rings as tables.
    let bundle = results_dir().join("flightrec_ablation_drift_1.json");
    let body = std::fs::read_to_string(&bundle)
        .unwrap_or_else(|e| panic!("CRITICAL transition left no bundle at {bundle:?}: {e}"));
    let doc = Json::parse(&body).expect("bundle is JSON");
    let is_ou_drift = |rule: &&Json| rule.as_str() == Some("ou_drift");
    let trigger = doc.get("trigger").and_then(|t| t.get("alerts"));
    let trigger_rules: Vec<&Json> = trigger
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|alert| alert.get("rule"))
        .collect();
    assert!(
        trigger_rules.iter().any(is_ou_drift),
        "bundle trigger must name the ou_drift rule"
    );
    let column = |table: &str, column: &str| {
        doc.get("tables")
            .and_then(|t| t.get(table))
            .and_then(|t| t.column(column))
            .unwrap_or_else(|| panic!("bundle must carry {table}.{column}"))
    };
    assert!(
        column("ts_alerts", "rule").iter().any(is_ou_drift),
        "bundle's ts_alerts must hold the triggering ou_drift alert"
    );
    assert!(
        column("ts_traces", "outcome")
            .iter()
            .any(|outcome| outcome.as_str().is_some()),
        "bundle's ts_traces must hold a completed lineage trace"
    );
    println!(
        "# flight recorder: CRITICAL transition dumped {}",
        bundle.display()
    );
}
