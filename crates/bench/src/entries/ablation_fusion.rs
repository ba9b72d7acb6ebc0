//! Ablation: per-operator markers vs. fused pipelines (paper §5.2).
//!
//! Fused ("JIT") execution wraps a whole query in one marker pair and
//! emits vectorized per-OU features; the Processor de-aggregates by
//! apportioning metrics. Fewer marker events means lower overhead, at
//! the cost of attribution precision in the training data.

use noisetap::EngineMode;
use tscout::{CollectionMode, Subsystem};
use tscout_bench::{attach_collect, new_db, subsystem_error_us, time_scale, Csv};
use tscout_kernel::HardwareProfile;
use tscout_models::dataset::OuData;
use tscout_workloads::driver::{collect_datasets, RunOptions};
use tscout_workloads::{Tpcc, Workload};

fn measure(mode: EngineMode, seed: u64) -> (f64, u64, Vec<OuData>) {
    let mut db = new_db(HardwareProfile::server_2x20(), seed);
    db.mode = mode;
    let mut w = Tpcc::new(2);
    w.setup(&mut db);
    attach_collect(&mut db);
    let (stats, data) = collect_datasets(
        &mut db,
        &mut w,
        &RunOptions {
            terminals: 4,
            duration_ns: 250e6 * time_scale(),
            seed,
            ..Default::default()
        },
    );
    let events = db.tscout().unwrap().stats.marker_events;
    (stats.ktps(), events, data)
}

pub(crate) fn main() {
    let _ = CollectionMode::KernelContinuous;
    let mut csv = Csv::create(
        "ablation_fusion.csv",
        "engine_mode,ktps,marker_events,ee_model_err_us",
    );
    for (name, mode, seed) in [
        ("per_operator", EngineMode::PerOperator, 1u64),
        ("fused_pipeline", EngineMode::Fused, 2),
    ] {
        let (ktps, events, train) = measure(mode, seed);
        // Test on per-operator ground truth (exact attribution).
        let (_, _, test) = measure(EngineMode::PerOperator, seed + 10);
        let err = subsystem_error_us(&train, &test, Subsystem::ExecutionEngine, 3);
        csv.row(&format!("{name},{ktps:.1},{events},{err:.2}"));
    }
    println!(
        "# expectation: fused mode fires fewer markers but its de-aggregated data models worse"
    );
}
