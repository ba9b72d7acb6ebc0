//! Wall time per profiler frame, in process.
//!
//! Runs YCSB with every subsystem sampled at 100 % (the shape of
//! `tsbench`'s `collect_full` first leg), then prints what the profiler's
//! wall slots measured over the one in `WALL_EVERY` root pushes whose
//! stacks it timed: per frame, the timed pops and the wall and self ns
//! per pop. A sampled marker's wall time inside the BPF VM is `bpf:vm`;
//! outside it, the self time of `collector:begin`, `collector:end` and
//! `collector:features`.
//!
//! ```sh
//! cargo run --release --example wall_layers [virtual ms]
//! ```

use tscout_suite::kernel::{HardwareProfile, Kernel, DEFAULT_PROFILE_PERIOD_NS};
use tscout_suite::noisetap::Database;
use tscout_suite::telemetry::WALL_EVERY;
use tscout_suite::tscout::{CollectionMode, TsConfig, ALL_SUBSYSTEMS};
use tscout_suite::workloads::driver::{run, RunOptions, Workload};
use tscout_suite::workloads::Ycsb;

fn main() {
    let virtual_ms: f64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(1000.0);
    let mut k = Kernel::with_seed(HardwareProfile::server_2x20(), 42);
    k.set_profile_period_ns(DEFAULT_PROFILE_PERIOD_NS);
    let mut db = Database::new(k);
    let mut w = Ycsb::new(20_000);
    w.setup(&mut db);
    let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
    cfg.enable_all_subsystems();
    cfg.ring_capacity = 1 << 22;
    db.attach_tscout(cfg).expect("collector programs verify");
    for s in ALL_SUBSYSTEMS {
        db.tscout_mut().expect("attached").set_sampling_rate(s, 100);
    }
    let opts = RunOptions {
        terminals: 4,
        duration_ns: virtual_ms * 1e6,
        seed: 42,
        ..Default::default()
    };
    let stats = run(&mut db, &mut w, &opts);
    println!(
        "{} samples; one in {WALL_EVERY} root pushes timed\n",
        stats.points.len()
    );
    println!(
        "{:<36} {:>8} {:>12} {:>12}",
        "frame", "pops", "wall ns/pop", "self ns/pop"
    );
    for l in db.kernel.profiler.wall() {
        let per = |ns: u64| ns as f64 / l.pops as f64;
        println!(
            "{:<36} {:>8} {:>12.0} {:>12.0}",
            l.frame,
            l.pops,
            per(l.wall_ns),
            per(l.self_ns)
        );
    }
}
