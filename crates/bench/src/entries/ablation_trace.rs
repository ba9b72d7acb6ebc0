//! Ablation: end-to-end sample-lineage tracing through the live pipeline.
//!
//! Runs YCSB with the model lifecycle attached and the lineage tracer
//! sampling 1-in-64 collected markers. Every traced sample's journey —
//! marker fire, ring buffer, drain, sink, archive memtable, segment
//! seal, dataset, model generation — is reconstructed, then read back
//! *through SQL* (`ts_traces`, `ts_stat_pipeline`), exercising the
//! introspection path end-to-end. The binary asserts the tracer's
//! correctness contract: at least one completed trace with monotone
//! per-stage virtual timestamps, and exact accounting
//! (`started = completed + dropped + in_flight`).

use tscout_archive::ArchiveOptions;
use tscout_bench::{attach_collect, new_db, result_path, Csv};
use tscout_kernel::HardwareProfile;
use tscout_models::ModelKind;
use tscout_workloads::driver::{run_with_lifecycle, ModelLifecycle, RunOptions};
use tscout_workloads::{Workload, Ycsb};

pub(crate) fn main() {
    let dir = result_path("trace_lifecycle_store");
    std::fs::remove_dir_all(&dir).ok();
    let mut csv = Csv::create(
        "ablation_trace.csv",
        "stage,visits,mean_ns,p50_ns,p99_ns,max_ns,critical_count",
    );

    let mut db = new_db(HardwareProfile::server_2x20(), 0x7ACE);
    let mut w = Ycsb::new(5_000);
    w.setup(&mut db);
    attach_collect(&mut db);
    // Arm the tracer: 1-in-64 collected markers get a TraceId.
    db.kernel.telemetry.trace_set_every(64);
    let mut lc = ModelLifecycle::new(
        &dir,
        ArchiveOptions::default(),
        ModelKind::Forest,
        7,
        50e6,
        db.kernel.telemetry.clone(),
    )
    .expect("cannot open lifecycle archive");
    // Fixed virtual duration (no TS_SCALE): the assertions below need
    // enough samples for the 1/64 sampler to catch full lineages.
    let stats = run_with_lifecycle(
        &mut db,
        &mut w,
        &RunOptions {
            terminals: 4,
            duration_ns: 400e6,
            seed: 0x7ACE,
            ..Default::default()
        },
        &mut lc,
    );

    // Read the pipeline back through the SQL introspection tables.
    let sid = db.create_session();
    let pipe = db
        .execute(
            sid,
            "SELECT stage, visits, mean_ns, p50_ns, p99_ns, max_ns, critical_count \
             FROM ts_stat_pipeline ORDER BY seq",
            &[],
        )
        .unwrap()
        .rows;
    for r in &pipe {
        csv.row(&format!(
            "{},{},{:.0},{:.0},{:.0},{:.0},{}",
            r[0].as_text().unwrap(),
            r[1].as_int().unwrap(),
            r[2].as_float().unwrap(),
            r[3].as_float().unwrap(),
            r[4].as_float().unwrap(),
            r[5].as_float().unwrap(),
            r[6].as_int().unwrap(),
        ));
    }
    let traces = db
        .execute(
            sid,
            "SELECT trace_id, outcome, critical_stage, total_ns, monotone, stages \
             FROM ts_traces",
            &[],
        )
        .unwrap()
        .rows;
    let completed = traces.len();
    let monotone = traces
        .iter()
        .filter(|r| r[4] == noisetap::Value::Bool(true))
        .count();
    let delivered = traces
        .iter()
        .filter(|r| r[1].as_text() == Some("delivered"))
        .count();
    let full_lineage = traces
        .iter()
        .filter(|r| r[1].as_text() == Some("delivered") && r[5].as_int() == Some(8))
        .count();
    let st = db.kernel.telemetry.trace_stats();
    println!(
        "# traces: started={} completed={} dropped={} in_flight={} \
         (delivered={delivered}, full-lineage={full_lineage}, monotone={monotone}/{completed})",
        st.started, st.completed, st.dropped, st.in_flight
    );
    println!(
        "# expectation: 1/64 sampling reconstructs full marker->model lineages \
         with monotone virtual timestamps and exact accounting"
    );

    // The tracer's correctness contract.
    assert!(
        st.started >= 1 && completed >= 1,
        "traced run must complete at least one trace (started={}, completed={completed})",
        st.started
    );
    assert!(
        st.closes(),
        "trace accounting must close: started={} completed={} dropped={} in_flight={}",
        st.started,
        st.completed,
        st.dropped,
        st.in_flight
    );
    assert_eq!(
        monotone, completed,
        "every completed trace must have monotone stage timestamps"
    );
    assert!(
        full_lineage >= 1,
        "at least one delivered trace must carry the full 8-stage lineage \
         (delivered={delivered}, retrains={})",
        stats.retrains
    );
}
