//! Figure 7: adapting to environment changes (hardware migration).
//!
//! The DBMS trains offline models on its initial machine, migrates to
//! different hardware, collects online data for a short window, and
//! retrains. "Larger HW" = 6-core laptop → 2×20-core server;
//! "Smaller HW" = the reverse.
//!
//! Paper shape: the disk writer improves most (−98% / −86% error — the
//! storage device changed and no model feature describes it), the log
//! serializer up to −91%; networking and the execution engine see modest
//! changes, and EE on smaller hardware can even fail to improve (the
//! only hardware feature is clock speed, so L3 differences are
//! invisible, §6.4).

use tscout_bench::{
    merge_data, offline_data, online_data, subsystem_error_us, Csv, REPORTED_SUBSYSTEMS,
};
use tscout_kernel::HardwareProfile;
use tscout_models::eval::error_reduction_pct;
use tscout_workloads::Tpcc;

pub(crate) fn main() {
    let mut csv = Csv::create(
        "fig7_env_change.csv",
        "scenario,subsystem,offline_err_us,online_err_us,error_reduction_pct",
    );
    let scenarios = [
        (
            "larger_hw",
            HardwareProfile::laptop_6core(),
            HardwareProfile::server_2x20(),
        ),
        (
            "smaller_hw",
            HardwareProfile::server_2x20(),
            HardwareProfile::laptop_6core(),
        ),
    ];
    for (name, initial_hw, new_hw) in scenarios {
        // Offline runners on the *initial* hardware only.
        let offline = offline_data(initial_hw.clone(), 0xF7, 600e6);
        // Post-migration: 1 minute of online TPC-C on the new hardware
        // (scaled to the simulation's durations).
        let online = online_data(new_hw.clone(), &mut Tpcc::new(4), 1, 0xF7 + 1, 600e6);
        // Evaluate on a fresh trace from the new environment.
        let test = online_data(new_hw.clone(), &mut Tpcc::new(4), 1, 0xF7 + 2, 300e6);
        let augmented = merge_data(&offline, &online);
        for sub in REPORTED_SUBSYSTEMS {
            let off = subsystem_error_us(&offline, &test, sub, 3);
            let on = subsystem_error_us(&augmented, &test, sub, 3);
            csv.row(&format!(
                "{name},{sub},{off:.2},{on:.2},{:.1}",
                error_reduction_pct(off, on)
            ));
        }
    }
    println!("# paper shape: disk_writer and log_serializer improve most after migration");
}
