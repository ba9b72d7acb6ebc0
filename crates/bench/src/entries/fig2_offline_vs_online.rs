//! Figure 2: offline vs. online training data.
//!
//! "Accuracy measurements of behavior models trained with offline and
//! online data when predicting the execution time of TPC-C queries",
//! holding out 20% of query templates. Reported as the reduction in
//! average absolute error from adding online data.
//!
//! Paper: execution engine 9.5%, networking 53%, log serializer 93%,
//! disk writer 77% — the WAL subsystems gain most because group-commit
//! behavior depends on the workload's arrival pattern, which offline
//! runners cannot reproduce.

use tscout_bench::{
    collect_on, merge_data, new_db, offline_data, split_for_eval, subsystem_error_us, Csv,
    REPORTED_SUBSYSTEMS,
};
use tscout_kernel::HardwareProfile;
use tscout_models::eval::error_reduction_pct;
use tscout_workloads::Tpcc;

pub(crate) fn main() {
    let hw = HardwareProfile::server_2x20();
    let offline = offline_data(hw.clone(), 0xF2_0FF, 800e6);

    // Online TPC-C deployment (multi-terminal, so contention and group
    // commit reflect production behavior).
    let online = collect_on(new_db(hw, 0xF20A), &mut Tpcc::new(4), 1, 2, 800e6);

    // Hold out 20% of templates from the online data; evaluate both model
    // sets on the held-out queries.
    let (online_train, test) = split_for_eval(&online, 0.2, 7);
    let with_online = merge_data(&offline, &online_train);

    let mut csv = Csv::create(
        "fig2_offline_vs_online.csv",
        "subsystem,offline_err_us,online_err_us,error_reduction_pct",
    );
    for sub in REPORTED_SUBSYSTEMS {
        let off = subsystem_error_us(&offline, &test, sub, 1);
        let on = subsystem_error_us(&with_online, &test, sub, 1);
        csv.row(&format!(
            "{sub},{off:.2},{on:.2},{:.1}",
            error_reduction_pct(off, on)
        ));
    }
    println!("# paper shape: log_serializer & disk_writer reductions >> execution_engine");
}
