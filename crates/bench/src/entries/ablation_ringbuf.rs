//! Ablation: bounded overwrite ring vs. capacity (paper §3/§3.2).
//!
//! "The Collector's buffer is bounded so that TS will overwrite samples
//! if it is full" — the DBMS never blocks on the Processor. Sweeping the
//! ring capacity shows throughput is invariant (no back pressure) while
//! the drop rate falls with capacity.

use tscout::{CollectionMode, TsConfig};
use tscout_bench::{new_db, set_rates, time_scale, Csv};
use tscout_kernel::HardwareProfile;
use tscout_workloads::driver::{run, RunOptions};
use tscout_workloads::{Workload, Ycsb};

pub(crate) fn main() {
    let mut csv = Csv::create(
        "ablation_ringbuf.csv",
        "ring_capacity,ktps,samples_processed,samples_dropped",
    );
    for cap in [256usize, 1024, 4096, 16384, 65536] {
        let mut db = new_db(HardwareProfile::server_2x20(), 0xAB3);
        let mut w = Ycsb::new(20_000);
        w.setup(&mut db);
        let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
        cfg.enable_all_subsystems();
        cfg.ring_capacity = cap;
        db.attach_tscout(cfg).unwrap();
        set_rates(&mut db, 30);
        let stats = run(
            &mut db,
            &mut w,
            &RunOptions {
                terminals: 8,
                duration_ns: 100e6 * time_scale(),
                seed: 4,
                ..Default::default()
            },
        );
        csv.row(&format!(
            "{cap},{:.1},{},{}",
            stats.ktps(),
            stats.samples_processed,
            stats.samples_dropped
        ));
    }
    println!("# expectation: throughput flat across capacities (no back pressure); drops shrink");
}
