//! Ablation: shuffled vs. contiguous sampling bits (paper §5.3).
//!
//! "The random distribution of ones reduces the burstiness of
//! collection. Without shuffling, a transaction's query sequence may
//! fall entirely within the sampling window, thereby experiencing higher
//! latency than other transactions." Same mean overhead, worse tail.

use tscout::CollectionMode;
use tscout_bench::{attach_all, new_db, time_scale, Csv};
use tscout_kernel::HardwareProfile;
use tscout_workloads::driver::{run, RunOptions};
use tscout_workloads::{Workload, Ycsb};

fn measure(shuffle: bool) -> (f64, f64, f64) {
    let mut db = new_db(HardwareProfile::server_2x20(), 0xAB1);
    let mut w = Ycsb::new(20_000);
    w.setup(&mut db);
    attach_all(&mut db, CollectionMode::KernelContinuous, 0);
    {
        let ts = db.tscout_mut().unwrap();
        ts.sampler.shuffle = shuffle;
        for s in tscout::ALL_SUBSYSTEMS {
            ts.set_sampling_rate(s, 20);
        }
    }
    let stats = run(
        &mut db,
        &mut w,
        &RunOptions {
            terminals: 4,
            duration_ns: 150e6 * time_scale(),
            seed: 1,
            ..Default::default()
        },
    );
    (
        stats.latency_percentile_ms(50.0) * 1000.0,
        stats.latency_percentile_ms(99.0) * 1000.0,
        stats.ktps(),
    )
}

pub(crate) fn main() {
    let mut csv = Csv::create(
        "ablation_sampling_shuffle.csv",
        "bit_layout,p50_us,p99_us,ktps",
    );
    for (name, shuffle) in [("shuffled", true), ("contiguous", false)] {
        let (p50, p99, ktps) = measure(shuffle);
        csv.row(&format!("{name},{p50:.1},{p99:.1},{ktps:.1}"));
    }
    println!(
        "# expectation: similar p50/throughput; contiguous bits inflate p99 (bursty sampling)"
    );
}
