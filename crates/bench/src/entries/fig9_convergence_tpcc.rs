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

use tscout_bench::{convergence_sweep, offline_data, online_data};
use tscout_kernel::HardwareProfile;
use tscout_workloads::Tpcc;

pub(crate) fn main() {
    let offline = offline_data(HardwareProfile::laptop_6core(), 0xF9, 600e6);

    let collect = |seed: u64, dur: f64| {
        let server = HardwareProfile::server_2x20();
        online_data(server, &mut Tpcc::new(4), 1, seed, dur)
    };
    let online = collect(0xF9A, 2_000e6);
    let test = collect(0xF9B, 400e6);
    convergence_sweep("fig9_convergence_tpcc.csv", &offline, &online, &test);
    println!("# paper shape: WAL subsystems converge by ~40-70k points; networking flat");
}
