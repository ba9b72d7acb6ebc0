//! Figure 11: execution-engine model accuracy vs. client count.
//!
//! "As the number of clients increases, the offline models are less
//! accurate at predicting execution time [...] The biggest contributor
//! to this error is contention for resources under heavy load that the
//! offline runners do not capture." Offline runners are single-threaded;
//! online TPC-C data at N terminals embeds the contention.
//!
//! Paper shape: error reduction grows from ~30-47% at 2 terminals to
//! 98-99% at 20; offline absolute error reaches ~885 µs at 20 clients.

use tscout::Subsystem;
use tscout_bench::{cap_points, merge_data, offline_data, online_data, subsystem_error_us, Csv};
use tscout_kernel::HardwareProfile;
use tscout_models::eval::error_reduction_pct;
use tscout_workloads::Tpcc;

pub(crate) fn main() {
    let hw = HardwareProfile::server_2x20();
    let offline = offline_data(hw.clone(), 0xF11, 600e6);
    let mut csv = Csv::create(
        "fig11_convergence_terminals.csv",
        "terminals,online_points,offline_err_us,online_err_us,error_reduction_pct",
    );
    for terminals in [2usize, 5, 10, 20] {
        let collect =
            |seed: u64, dur: f64| online_data(hw.clone(), &mut Tpcc::new(4), terminals, seed, dur);
        let online = collect(0xF11A + terminals as u64, 400e6);
        let test = collect(0xF11B + terminals as u64, 150e6);
        let sub = Subsystem::ExecutionEngine;
        let off = subsystem_error_us(&offline, &test, sub, 5);
        for n in [10_000usize, 20_000, 30_000] {
            let subset = cap_points(&online, n, n as u64);
            let augmented = merge_data(&offline, &subset);
            let on = subsystem_error_us(&augmented, &test, sub, 5);
            csv.row(&format!(
                "{terminals},{n},{off:.2},{on:.2},{:.1}",
                error_reduction_pct(off, on)
            ));
        }
    }
    println!("# paper shape: offline error grows with terminals; reduction reaches >90% at 20");
}
