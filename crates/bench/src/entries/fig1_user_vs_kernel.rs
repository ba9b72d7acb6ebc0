//! Figure 1: user-space vs. kernel-space metrics collection.
//!
//! "Transaction latency of TPC-C with (1) DBMS metrics collection
//! disabled, (2) metrics collected in user-space, and (3) metrics
//! collected in kernel-space using BPF." Single client; average p99.
//!
//! Paper: none 5.2 ms, user 6.3 ms, kernel 5.7 ms — kernel collection
//! sits between "off" and the user-space approach because it needs only
//! one mode switch per marker instead of multiple toggling syscalls.

use tscout::CollectionMode;
use tscout_bench::{attach_all, new_db, time_scale, Csv};
use tscout_kernel::HardwareProfile;
use tscout_workloads::driver::{run, RunOptions};
use tscout_workloads::{Tpcc, Workload};

fn p99(mode: Option<CollectionMode>, seed: u64) -> f64 {
    let mut db = new_db(HardwareProfile::server_2x20(), seed);
    let mut w = Tpcc::new(2);
    w.setup(&mut db);
    if let Some(mode) = mode {
        attach_all(&mut db, mode, 10);
    }
    let stats = run(
        &mut db,
        &mut w,
        &RunOptions {
            terminals: 1,
            duration_ns: 400e6 * time_scale(),
            seed,
            ..Default::default()
        },
    );
    stats.latency_percentile_ms(99.0)
}

pub(crate) fn main() {
    let mut csv = Csv::create("fig1_user_vs_kernel.csv", "config,p99_ms (10% sampling)");
    for (name, mode) in [
        ("no_metrics", None),
        ("user_space", Some(CollectionMode::UserToggle)),
        ("kernel_space", Some(CollectionMode::KernelContinuous)),
    ] {
        let v = p99(mode, 0xF161);
        csv.row(&format!("{name},{v:.3}"));
    }
    println!("# paper shape: no_metrics < kernel_space < user_space");
}
