//! Figure 8: adjustable per-subsystem sampling.
//!
//! "Impact of training data sampling on YCSB transaction throughput":
//! the run starts with 0% sampling, switches all four subsystems to 10%
//! one third in (throughput dips ~7%), then disables the execution
//! engine and networking subsystems (throughput recovers — the workload
//! is read-only, so the still-enabled WAL subsystems generate almost no
//! data).

use tscout::{CollectionMode, Subsystem};
use tscout_bench::{attach_all, new_db, set_rates, time_scale, Csv};
use tscout_kernel::HardwareProfile;
use tscout_workloads::driver::{run, RunOptions, RunStats};
use tscout_workloads::{Workload, Ycsb};

fn bucketize(csv: &mut Csv, stats: &RunStats, phase: &str, offset_s: f64, bucket_s: f64) {
    if stats.txn_ends_ns.is_empty() {
        return;
    }
    let t0 = stats
        .txn_ends_ns
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    let mut counts: std::collections::BTreeMap<u64, u64> = Default::default();
    for &t in &stats.txn_ends_ns {
        *counts
            .entry(((t - t0) / (bucket_s * 1e9)) as u64)
            .or_default() += 1;
    }
    let last = counts.keys().copied().max().unwrap_or(0);
    for (b, n) in counts {
        if b == last {
            continue; // final partial bucket
        }
        let t_s = offset_s + (b as f64 + 0.5) * bucket_s;
        csv.row(&format!(
            "{t_s:.2},{phase},{:.1}",
            n as f64 / bucket_s / 1000.0
        ));
    }
}

pub(crate) fn main() {
    let phase_s = 1.2 * time_scale();
    let mut db = new_db(HardwareProfile::server_2x20(), 0xF18);
    let mut w = Ycsb::new(20_000);
    w.setup(&mut db);
    attach_all(&mut db, CollectionMode::KernelContinuous, 0);

    let mut csv = Csv::create("fig8_adjustable_sampling.csv", "time_s,phase,ktps");
    let opts = |seed| RunOptions {
        terminals: 4,
        duration_ns: phase_s * 1e9,
        seed,
        ..Default::default()
    };

    // Phase 1: collection off.
    let s1 = run(&mut db, &mut w, &opts(1));
    bucketize(&mut csv, &s1, "off", 0.0, 0.1 * time_scale());

    // Phase 2: 10% sampling for all four subsystems.
    set_rates(&mut db, 0);
    for s in [
        Subsystem::ExecutionEngine,
        Subsystem::Networking,
        Subsystem::LogSerializer,
        Subsystem::DiskWriter,
    ] {
        db.tscout_mut().unwrap().set_sampling_rate(s, 10);
    }
    let s2 = run(&mut db, &mut w, &opts(2));
    bucketize(&mut csv, &s2, "all_10pct", phase_s, 0.1 * time_scale());

    // Phase 3: EE + networking off; WAL subsystems stay at 10%.
    db.tscout_mut()
        .unwrap()
        .set_sampling_rate(Subsystem::ExecutionEngine, 0);
    db.tscout_mut()
        .unwrap()
        .set_sampling_rate(Subsystem::Networking, 0);
    let s3 = run(&mut db, &mut w, &opts(3));
    bucketize(
        &mut csv,
        &s3,
        "wal_only_10pct",
        2.0 * phase_s,
        0.1 * time_scale(),
    );

    println!(
        "# phase means ktps: off={:.1} all_10pct={:.1} wal_only={:.1}",
        s1.ktps(),
        s2.ktps(),
        s3.ktps()
    );
    println!("# paper shape: ~7% dip in phase 2, recovery in phase 3 (read-only workload)");
}
