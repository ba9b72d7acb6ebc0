//! Ablation: query-level observability through the live pipeline.
//!
//! Runs YCSB with the model lifecycle attached so a behavior model
//! trains and hot-swaps in, then reads the query plane back *through
//! SQL*: `EXPLAIN ANALYZE` (the statement executes for real; the plan
//! tree renders per-node actual ns/rows/loops plus the live model's
//! predicted ns and error), and `ts_stat_statements` ordered by total
//! time. The binary asserts the accounting contract: the statement
//! registry is non-empty, every row is internally consistent
//! (`calls*min <= total <= calls*max`, OU self time bounded by
//! inclusive time), per-fingerprint calls add up to the recorded
//! counter when nothing was evicted, and the EXPLAIN ANALYZE footer
//! carries a model generation once a swap has happened.

use tscout_archive::ArchiveOptions;
use tscout_bench::{attach_collect, new_db, Csv};
use tscout_kernel::HardwareProfile;
use tscout_models::ModelKind;
use tscout_workloads::driver::{run_with_lifecycle, ModelLifecycle, RunOptions};
use tscout_workloads::{Workload, Ycsb};

pub(crate) fn main() {
    let dir = std::env::temp_dir().join(format!("query_stats_store_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut csv = Csv::create(
        "ablation_query_stats.csv",
        "fingerprint,calls,rows,total_ns,mean_ns,ou_ns_total,mape_pct",
    );

    let mut db = new_db(HardwareProfile::server_2x20(), 0x5EE1);
    let mut w = Ycsb::new(5_000);
    w.setup(&mut db);
    attach_collect(&mut db);
    let mut lc = ModelLifecycle::new(
        &dir,
        ArchiveOptions::default(),
        ModelKind::Ridge,
        5,
        50e6,
        db.kernel.telemetry.clone(),
    )
    .expect("cannot open lifecycle archive");
    // Fixed virtual duration (no TS_SCALE): the assertions below need at
    // least one accepted model swap for predicted columns to render.
    let stats = run_with_lifecycle(
        &mut db,
        &mut w,
        &RunOptions {
            terminals: 4,
            duration_ns: 300e6,
            seed: 0x5EE1,
            ..Default::default()
        },
        &mut lc,
    );
    assert!(stats.retrains >= 1, "lifecycle must retrain at least once");
    let recorded = db.kernel.telemetry.stmt_recorded();
    assert!(recorded > 0, "driven run must record statements");

    // EXPLAIN ANALYZE through plain SQL: executes for real, annotates
    // actuals, and cites the hot-swapped model's generation.
    let sid = db.create_session();
    let ea = db
        .execute(
            sid,
            "EXPLAIN ANALYZE SELECT * FROM usertable WHERE ycsb_key = 42",
            &[],
        )
        .unwrap()
        .rows;
    for r in &ea {
        println!("  {}", r[0].as_text().unwrap());
    }
    assert!(
        ea.iter()
            .any(|r| r[0].as_text().unwrap().contains("actual=")),
        "EXPLAIN ANALYZE must annotate actuals"
    );
    let footer = ea.last().unwrap()[0].as_text().unwrap().to_string();
    assert!(
        footer.contains("model generation"),
        "a retrained run must attribute predictions to a generation: {footer}"
    );

    // The statement registry, read back through SQL, ordered by cost.
    let rows = db
        .execute(
            sid,
            "SELECT fingerprint, calls, rows, total_ns, mean_ns, ou_ns_total, mape_pct \
             FROM ts_stat_statements ORDER BY total_ns DESC",
            &[],
        )
        .unwrap()
        .rows;
    assert!(!rows.is_empty(), "ts_stat_statements must be non-empty");
    let mut calls_sum = 0u64;
    for r in &rows {
        let fp = r[0].as_text().unwrap();
        let calls = r[1].as_int().unwrap() as u64;
        let total = r[3].as_float().unwrap();
        let mean = r[4].as_float().unwrap();
        let ou_total = r[5].as_float().unwrap();
        let eps = 1e-6 * total.max(1.0);
        assert!(calls >= 1, "{fp}: empty entry surfaced");
        assert!(
            (mean * calls as f64 - total).abs() <= eps,
            "{fp}: mean*calls != total"
        );
        assert!(
            ou_total <= total + eps,
            "{fp}: OU self time exceeds inclusive time"
        );
        calls_sum += calls;
        csv.row(&format!(
            "\"{fp}\",{calls},{},{total:.0},{mean:.0},{ou_total:.0},{:.2}",
            r[2].as_int().unwrap(),
            r[6].as_float().unwrap(),
        ));
    }
    let evicted = db
        .kernel
        .telemetry
        .counter_value(tscout_telemetry::decls::STMT_EVICTED.name, &[]);
    if evicted == 0 {
        // The EXPLAIN ANALYZE above recorded itself after the snapshot
        // we read — allow for statements recorded since the counter read.
        assert!(
            calls_sum >= recorded,
            "per-fingerprint calls ({calls_sum}) must cover recorded statements ({recorded})"
        );
    }
    println!(
        "# statements: fingerprints={} calls={calls_sum} recorded={} evicted={evicted} retrains={}",
        rows.len(),
        db.kernel.telemetry.stmt_recorded(),
        stats.retrains
    );
    println!(
        "# expectation: EXPLAIN ANALYZE annotates per-node actual vs predicted cost, and \
         ts_stat_statements reconciles with the recorded-statement counter"
    );

    std::fs::remove_dir_all(&dir).ok();
}
