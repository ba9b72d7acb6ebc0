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

use tscout_bench::{convergence_sweep, offline_data, online_data};
use tscout_kernel::HardwareProfile;
use tscout_workloads::ChBenchmark;

pub(crate) fn main() {
    let offline = offline_data(HardwareProfile::laptop_6core(), 0xF10, 600e6);

    let collect = |seed: u64, dur: f64| {
        let server = HardwareProfile::server_2x20();
        online_data(server, &mut ChBenchmark::new(1), 20, seed, dur)
    };
    let online = collect(0xF10A, 150e6);
    let test = collect(0xF10B, 50e6);
    convergence_sweep("fig10_convergence_chbench.csv", &offline, &online, &test);
    println!("# paper shape: online data converges toward much lower error than offline-only");
}
