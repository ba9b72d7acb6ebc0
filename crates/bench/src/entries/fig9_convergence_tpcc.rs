//! Figure 9: model convergence on TPC-C.
//!
//! How much online data do the models need? The DBMS migrates from the
//! laptop (offline models) to the server, collects online TPC-C data,
//! and retrains at increasing dataset sizes; the offline-only error is
//! the horizontal baseline.
//!
//! Paper shape: the log serializer converges around 40k points (up to
//! −98% error), the disk writer around 70k; networking needs little
//! data; the execution engine's offline models are already competitive
//! at one client (the runners sweep broadly, so there is little for
//! narrow online data to add).

use tscout_bench::{
    absorb_db, attach_collect, cap_points, dump_observability, merge_data, new_db, offline_data,
    subsystem_error_us, time_scale, total_points, Csv, REPORTED_SUBSYSTEMS,
};
use tscout_kernel::HardwareProfile;
use tscout_workloads::driver::{collect_datasets, RunOptions};
use tscout_workloads::{Tpcc, Workload};

pub fn main() {
    let offline = offline_data(HardwareProfile::laptop_6core(), 0xF9, 600e6);

    let collect = |seed: u64, dur: f64| {
        let mut db = new_db(HardwareProfile::server_2x20(), seed);
        let mut w = Tpcc::new(4);
        w.setup(&mut db);
        attach_collect(&mut db);
        let (_, data) = collect_datasets(
            &mut db,
            &mut w,
            &RunOptions {
                terminals: 1,
                duration_ns: dur * time_scale(),
                seed,
                ..Default::default()
            },
        );
        absorb_db(&db);
        data
    };
    let online = collect(0xF9A, 2_000e6);
    let test = collect(0xF9B, 400e6);
    let available = total_points(&online);
    println!("# online pool: {available} points");

    let mut csv = Csv::create(
        "fig9_convergence_tpcc.csv",
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
    println!("# paper shape: WAL subsystems converge by ~40-70k points; networking flat");
    dump_observability("fig9");
}
