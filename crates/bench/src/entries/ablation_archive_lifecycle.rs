//! Ablation: the training-data archive + model lifecycle in the loop.
//!
//! Runs a workload with the live lifecycle attached — points are tagged
//! and persisted to the columnar archive at the retrain cadence, and the
//! model registry hot-swaps behind its accuracy gate — then reopens the
//! archive cold (crash-recovery path) and retrains from disk, verifying
//! the persisted data reproduces the in-run model quality.

use tscout_archive::{Archive, ArchiveOptions};
use tscout_bench::{attach_collect, new_db, result_path, time_scale, Csv};
use tscout_kernel::HardwareProfile;
use tscout_models::{datasets_from_archive, mape_pct, ModelKind, ModelRegistry};
use tscout_workloads::driver::{run_with_lifecycle, ModelLifecycle, RunOptions};
use tscout_workloads::{Workload, Ycsb};

pub(crate) fn main() {
    let dir = result_path("archive_lifecycle_store");
    std::fs::remove_dir_all(&dir).ok();
    let mut csv = Csv::create(
        "ablation_archive_lifecycle.csv",
        "phase,archived_samples,segments,bytes,retrains,generation,holdout_mape_pct",
    );

    let hw = HardwareProfile::server_2x20();
    let mut db = new_db(hw, 0xA5C1);
    let mut w = Ycsb::new(5_000);
    w.setup(&mut db);
    attach_collect(&mut db);
    let mut lc = ModelLifecycle::new(
        &dir,
        ArchiveOptions::default(),
        ModelKind::Forest,
        7,
        50e6, // retrain every 50 virtual ms
        db.kernel.telemetry.clone(),
    )
    .expect("cannot open lifecycle archive");
    let opts = RunOptions {
        terminals: 4,
        duration_ns: 400e6 * time_scale(),
        seed: 0xA5C1,
        ..Default::default()
    };
    let stats = run_with_lifecycle(&mut db, &mut w, &opts, &mut lc);
    let live = lc.registry.live().expect("lifecycle must install a model");
    let st = lc.archive.stats();
    csv.row(&format!(
        "live_run,{},{},{},{},{},{:.2}",
        stats.archived_samples,
        st.segments,
        st.bytes,
        stats.retrains,
        lc.registry.generation(),
        live.holdout_mape_pct,
    ));
    let clock_ghz = db.kernel.hw.clock_ghz;
    let telemetry = db.kernel.telemetry.clone();
    drop(lc);
    drop(db);

    // Cold restart: reopen the archive from disk and rebuild models from
    // the persisted history alone.
    let archive = Archive::open(&dir, ArchiveOptions::default(), telemetry.clone())
        .expect("cannot reopen archive");
    let st = archive.stats();
    let data = datasets_from_archive(&archive, clock_ghz, opts.terminals);
    let mut registry = ModelRegistry::new(ModelKind::Forest, 7, telemetry);
    registry.retrain_split(&data, 5);
    let reopened = registry.live().expect("cold retrain must install");
    csv.row(&format!(
        "cold_reopen,{},{},{},1,{},{:.2}",
        st.samples_stored,
        st.segments,
        st.bytes,
        registry.generation(),
        reopened.holdout_mape_pct,
    ));
    // The persisted history must support comparable model quality: check
    // the cold-trained model against a fresh holdout split of the data.
    let sanity = mape_pct(&reopened.models, &data);
    println!(
        "# cold-reopen full-data MAPE: {sanity:.2}% (live holdout: {:.2}%)",
        live.holdout_mape_pct
    );
    println!("# expectation: cold reopen sees the same samples the live run archived");
    assert_eq!(
        st.samples_stored, stats.archived_samples,
        "archive must persist every sample the lifecycle appended"
    );
}
