//! Figure 10: model convergence on CH-benCHmark (HTAP).
//!
//! Same convergence study as Fig. 9 but with the hybrid workload: 16
//! OLTP terminals running TPC-C and 4 terminals running TPC-H-flavored
//! analytical queries (the driver maps every 5th terminal to the
//! analytical mix).
//!
//! Paper shape: similar to TPC-C; the log serializer takes longer to
//! converge but reaches similar accuracy; the execution engine is the
//! hardest to model.

use tscout_bench::{
    absorb_db, attach_collect, cap_points, dump_observability, merge_data, new_db, offline_data,
    subsystem_error_us, time_scale, total_points, Csv, REPORTED_SUBSYSTEMS,
};
use tscout_kernel::HardwareProfile;
use tscout_workloads::driver::{collect_datasets, RunOptions};
use tscout_workloads::{ChBenchmark, Workload};

pub fn main() {
    let offline = offline_data(HardwareProfile::laptop_6core(), 0xF10, 600e6);

    let collect = |seed: u64, dur: f64| {
        let mut db = new_db(HardwareProfile::server_2x20(), seed);
        let mut w = ChBenchmark::new(1);
        w.setup(&mut db);
        attach_collect(&mut db);
        let (_, data) = collect_datasets(
            &mut db,
            &mut w,
            &RunOptions {
                terminals: 20,
                duration_ns: dur * time_scale(),
                seed,
                ..Default::default()
            },
        );
        absorb_db(&db);
        data
    };
    let online = collect(0xF10A, 150e6);
    let test = collect(0xF10B, 50e6);
    let available = total_points(&online);
    println!("# online pool: {available} points");

    let mut csv = Csv::create(
        "fig10_convergence_chbench.csv",
        "subsystem,online_points,offline_err_us,online_err_us",
    );
    let sizes = [2_000usize, 5_000, 10_000, 20_000, 40_000, 70_000, 100_000];
    for sub in REPORTED_SUBSYSTEMS {
        let off = subsystem_error_us(&offline, &test, sub, 5);
        for &n in &sizes {
            if n > available {
                continue;
            }
            let subset = cap_points(&online, n, n as u64);
            let augmented = merge_data(&offline, &subset);
            let on = subsystem_error_us(&augmented, &test, sub, 5);
            csv.row(&format!("{sub},{n},{off:.2},{on:.2}"));
        }
    }
    println!("# paper shape: online data converges toward much lower error than offline-only");
    dump_observability("fig10");
}
