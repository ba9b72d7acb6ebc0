//! Profiler and time-series invariants over a fig5-style run: every
//! virtual-clock profiling interrupt lands in exactly one folded stack,
//! attribution sees both the DBMS and TScout sides of the house, and the
//! windowed time-series agrees with the final counter values after a
//! full drain.

use std::sync::atomic::{AtomicBool, Ordering};

use tscout_suite::kernel::{Frame, HardwareProfile, Kernel, Profiler, DBMS, TSCOUT};
use tscout_suite::noisetap::Database;
use tscout_suite::telemetry::TaskFrames;
use tscout_suite::tscout::{CollectionMode, TsConfig, ALL_SUBSYSTEMS};
use tscout_suite::workloads::driver::{run, RunOptions, RunStats};
use tscout_suite::workloads::{Tpcc, Workload, Ycsb};

/// YCSB under kernel-continuous collection at 100% sampling with the
/// profiler armed at a fine period, fully drained at the end (the driver
/// drains the ring and takes a final time-series window).
fn profiled_run() -> Database {
    let mut k = Kernel::with_seed(HardwareProfile::server_2x20(), 0xF16);
    k.noise_frac = 0.0;
    k.set_profile_period_ns(10_000.0);
    let mut db = Database::new(k);
    let mut w = Ycsb::new(2_000);
    w.setup(&mut db);
    let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
    cfg.enable_all_subsystems();
    db.attach_tscout(cfg).unwrap();
    for s in ALL_SUBSYSTEMS {
        db.tscout_mut().unwrap().set_sampling_rate(s, 100);
    }
    let opts = RunOptions {
        terminals: 2,
        duration_ns: 20e6,
        seed: 5,
        ..Default::default()
    };
    run(&mut db, &mut w, &opts);
    db
}

/// TPC-C, 4 terminals, seed 42, every subsystem at 100 % sampling,
/// kernel noise on: `during` runs on a second thread while the
/// workload does.
fn tpcc_seed42(during: impl FnOnce(&Profiler, &AtomicBool) + Send) -> Database {
    tpcc_seed42_stats(during).0
}

/// [`tpcc_seed42`] and the run's results.
fn tpcc_seed42_stats(during: impl FnOnce(&Profiler, &AtomicBool) + Send) -> (Database, RunStats) {
    let mut k = Kernel::with_seed(HardwareProfile::server_2x20(), 42);
    k.set_profile_period_ns(10_000.0);
    let mut db = Database::new(k);
    let mut w = Tpcc::new(2);
    w.setup(&mut db);
    let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
    cfg.enable_all_subsystems();
    db.attach_tscout(cfg).unwrap();
    for s in ALL_SUBSYSTEMS {
        db.tscout_mut().unwrap().set_sampling_rate(s, 100);
    }
    let opts = RunOptions {
        terminals: 4,
        duration_ns: 40e6,
        seed: 42,
        ..Default::default()
    };
    let (profiler, done) = (db.kernel.profiler.clone(), AtomicBool::new(false));
    let stats = std::thread::scope(|s| {
        s.spawn(|| during(&profiler, &done));
        let stats = run(&mut db, &mut w, &opts);
        done.store(true, Ordering::SeqCst);
        stats
    });
    (db, stats)
}

/// Wall timing reads a clock beside the virtual one and writes nothing a
/// run reports: the folded profile of a run that timed its layers is the
/// golden written before timing existed, and two runs, whose wall
/// readings differ, give the same results — virtual latencies, samples,
/// trace — byte for byte.
#[test]
fn wall_timing_moves_no_virtual_time_fold_or_sample() {
    let runs = [(), ()].map(|()| tpcc_seed42_stats(|_, _| {}));
    let wall = runs[0].0.kernel.profiler.wall();
    let timed = |frame: &str| wall.iter().any(|l| l.frame == frame && l.pops > 0);
    assert!(
        ["bpf:vm", "collector:end", "dbms"].iter().all(|f| timed(f)),
        "{wall:?}"
    );
    let golden = include_str!("golden/profile_tpcc_seed42.folded");
    for (db, stats) in &runs {
        assert_eq!(db.kernel.profiler.folded_text(), golden);
        assert_eq!(format!("{stats:?}"), format!("{:?}", runs[0].1));
    }
}

/// The golden was written by the commit before frames became per-task
/// id stacks: what folds is the same strings, line for line.
#[test]
fn folded_text_of_a_seeded_tpcc_run_matches_the_golden() {
    let db = tpcc_seed42(|_, _| {});
    let folded = db.kernel.profiler.folded_text();
    assert!(
        folded.lines().count() > 40,
        "a run this long folds many stacks"
    );
    assert_eq!(folded, include_str!("golden/profile_tpcc_seed42.folded"));
}

/// A reader on another thread takes the mutex `fire` takes: whatever it
/// reads while the run proceeds is whole `stack count` lines, and counts
/// only ever grow.
#[test]
fn a_concurrent_reader_sees_only_whole_lines() {
    let db = tpcc_seed42(|profiler, done| {
        let (mut reads, mut last_total) = (0, 0);
        while !done.load(Ordering::SeqCst) || reads == 0 {
            let text = profiler.folded_text();
            assert!(text.is_empty() || text.ends_with('\n'));
            let counts = text.lines().map(|line| {
                let (stack, count) = line.rsplit_once(' ').expect("stack, space, count");
                assert!(!stack.is_empty() && !stack.contains(' '), "{line:?}");
                count.parse::<u64>().unwrap_or_else(|_| panic!("{line:?}"))
            });
            let total = counts.sum::<u64>();
            assert!(total >= last_total, "{total} after {last_total}");
            (reads, last_total) = (reads + 1, total);
        }
    });
    // And the run folded what it folds unobserved.
    let folded = db.kernel.profiler.folded_text();
    assert_eq!(folded, include_str!("golden/profile_tpcc_seed42.folded"));
}

/// Misuse costs a wrong stack, never a panic, and never another task's
/// stack: pushes past the depth a stack records still pop in balance,
/// and a guard dropped early takes the innermost frame with it.
#[test]
fn deep_and_out_of_order_frames_stay_on_their_own_task() {
    static OP: Frame = Frame::new("op");
    let mut k = Kernel::new(HardwareProfile::server_2x20());
    k.set_profile_period_ns(1.0);
    let (task, other) = (k.create_task(), k.create_task());
    let folded = |k: &Kernel| k.profiler.folded_text();
    let _theirs = k.profile_frames(other, [DBMS.id(), OP.id()]);

    let root = k.profile_frame(task, &TSCOUT);
    let deep: Vec<_> = (0..128).map(|_| k.profile_frame(task, &OP)).collect();
    k.charge_overhead(task, 1.0);
    let recorded = folded(&k);
    let stack = recorded
        .strip_suffix(" 1\n")
        .expect("one stack, one sample");
    assert!(stack.starts_with("tscout;op;op;") && stack.len() < 129 * 3 + 6);

    drop(root); // out of order: pops the innermost `op`, not `tscout`
    drop(deep);
    k.charge_overhead(task, 1.0);
    assert!(folded(&k).starts_with("(other) 1\n"), "{}", folded(&k));
    drop(k.profile_frame(task, &OP));
    k.charge_overhead(other, 1.0);
    assert!(folded(&k).contains("dbms;op 1\n"), "{}", folded(&k));
}

/// A task's stack goes back to the spare list with its kernel, and the
/// next task created most likely gets it: a guard that outlived the
/// first kernel pops nothing from it. Other tests take stacks off the
/// list meanwhile, so the hand-over is repeated until it surely happened.
#[test]
fn a_guard_outliving_its_kernel_pops_nothing_from_the_next_owner() {
    static OP: Frame = Frame::new("op");
    let kernel = || {
        let mut k = Kernel::new(HardwareProfile::server_2x20());
        k.set_profile_period_ns(1.0);
        let task = k.create_task();
        (k, task)
    };
    for _ in 0..100 {
        let (first, task) = kernel();
        let stale = first.profile_frames(task, [TSCOUT.id(), OP.id()]);
        drop(first);

        let (mut k, task) = kernel();
        let _frames = k.profile_frames(task, [DBMS.id(), OP.id()]);
        drop(stale);
        k.charge_overhead(task, 1.0);
        assert_eq!(k.profiler.folded_text(), "dbms;op 1\n");
    }
}

/// Stacks are reused, not leaked per task: 1 000 kernels of 4 tasks each,
/// one after another, leak at most the stacks live at once. Other tests
/// of this binary hold a few dozen tasks meanwhile; a leak per task would
/// be 4 000.
#[test]
fn kernels_in_sequence_reuse_their_tasks_stacks() {
    let before = TaskFrames::leaked();
    for _ in 0..1_000 {
        let mut k = Kernel::new(HardwareProfile::server_2x20());
        k.set_profile_period_ns(1.0);
        for _ in 0..4 {
            let task = k.create_task();
            let _frame = k.profile_frame(task, &DBMS);
            k.charge_overhead(task, 1.0);
        }
    }
    let grown = TaskFrames::leaked() - before;
    assert!(grown <= 4 + 200, "{grown} stacks leaked");
}

#[test]
fn folded_samples_sum_exactly_to_interrupts_fired() {
    let db = profiled_run();
    let p = &db.kernel.profiler;
    let fired = p.interrupts_fired();
    assert!(fired > 0, "the profiler must have sampled the run");
    let folded_total: u64 = p.folded().iter().map(|(_, e)| e.samples).sum();
    assert_eq!(
        fired, folded_total,
        "every interrupt lands in exactly one folded stack"
    );
}

#[test]
fn attribution_sees_both_dbms_and_tscout_stacks() {
    let db = profiled_run();
    let folded = db.kernel.profiler.folded();
    assert!(
        folded.iter().any(|(s, _)| s.starts_with("dbms")),
        "expected dbms-rooted stacks, got {:?}",
        folded.iter().map(|(s, _)| s).collect::<Vec<_>>()
    );
    assert!(
        folded.iter().any(|(s, _)| s.starts_with("tscout")),
        "expected tscout-rooted stacks, got {:?}",
        folded.iter().map(|(s, _)| s).collect::<Vec<_>>()
    );
    // Operator-level attribution under the dbms root.
    assert!(
        folded.iter().any(|(s, _)| s.contains(";ou:")),
        "expected per-OU frames in the dbms stacks"
    );

    let attr = db.kernel.profiler.attribution();
    assert_eq!(attr.total_interrupts, db.kernel.profiler.interrupts_fired());
    let ratio = attr
        .tscout_dbms_ratio()
        .expect("both sides sampled, ratio must exist");
    assert!(
        ratio.is_finite() && ratio > 0.0,
        "tscout/dbms overhead ratio must be finite and positive: {ratio}"
    );
}

#[test]
fn timeseries_agrees_with_final_counters_after_drain() {
    let db = profiled_run();
    let t = db.kernel.telemetry.clone();
    assert!(
        t.timeseries_len() >= 2,
        "the driver scrapes a window per pump plus a final one"
    );

    // Final counter value, summed across subsystem label sets.
    let delivered_now: u64 = ALL_SUBSYSTEMS
        .iter()
        .map(|s| t.counter_value("tscout_samples_delivered_total", &[("subsystem", s.name())]))
        .sum();
    assert!(delivered_now > 0, "100% sampling must deliver samples");

    // The last window was scraped after the full drain, so its cumulative
    // total must equal the live counter.
    let (last_total, first_total, rate) = t.with_registry(|r| {
        let ts = r.timeseries();
        let last = ts.len() - 1;
        (
            ts.total_in_window("tscout_samples_delivered_total", last),
            ts.total_in_window("tscout_samples_delivered_total", 0),
            ts.rate_per_sec("tscout_samples_delivered_total"),
        )
    });
    assert_eq!(
        last_total, delivered_now,
        "final window must capture the fully drained counter"
    );

    // rate() is (last - first) / elapsed; cross-check it against the
    // window totals it is defined over.
    let (t0, t1) = t.with_registry(|r| {
        let ts = r.timeseries();
        (
            ts.window(0).unwrap().end_ns,
            ts.window(ts.len() - 1).unwrap().end_ns,
        )
    });
    let expect = (last_total - first_total) as f64 / ((t1 - t0) / 1e9);
    assert!(
        (rate - expect).abs() <= 1e-6 * expect.max(1.0),
        "rate_per_sec {rate} must match (last-first)/elapsed {expect}"
    );
    assert!(rate.is_finite() && rate > 0.0);
}
