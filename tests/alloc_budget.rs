//! Heap-allocation budget of the per-sample path.
//!
//! A counting global allocator brackets the three steady-state pieces of
//! the pipeline — an unsampled marker triple, a sampled
//! `KernelContinuous` triple through the BPF VM into the perf ring, and
//! the Processor's drain into the in-memory sink — and pins what each
//! may allocate once its buffers have reached their working size: the
//! markers nothing, the drain only the owned `TrainingPoint`s.
//!
//! The sampling profiler is on (as in every bench run), so its frames
//! are part of the budget too.
//!
//! One test function: the counter is process-wide, and a second test
//! running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use tscout_suite::kernel::{HardwareProfile, Kernel, TaskId};
use tscout_suite::telemetry::DEFAULT_PROFILE_PERIOD_NS;
use tscout_suite::tscout::{
    CollectionMode, OuId, ProbeSet, Processor, Sink, Subsystem, TScout, TsConfig,
};

/// Counts every allocation and reallocation; frees are not interesting.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one `GlobalAlloc` states; the counter is a
// relaxed atomic and touches no allocator state. `dealloc` and
// `alloc_zeroed` keep their default/`System` behaviour through these two.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations performed by `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Relaxed);
    f();
    ALLOCATIONS.load(Relaxed) - before
}

fn triple(k: &mut Kernel, ts: &mut TScout, task: TaskId, ou: OuId) {
    ts.ou_begin(k, task, ou);
    k.charge_cpu(task, 5_000.0, 64);
    ts.ou_end(k, task, ou);
    ts.ou_features(k, task, ou, &[100, 8], &[4096]);
}

#[test]
fn steady_state_sample_path_stays_within_its_allocation_budget() {
    const WARMUP: usize = 64;
    const MEASURED: usize = 256;

    let mut k = Kernel::with_seed(HardwareProfile::server_2x20(), 11);
    k.set_profile_period_ns(DEFAULT_PROFILE_PERIOD_NS);
    let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
    cfg.enable_subsystem(Subsystem::ExecutionEngine, ProbeSet::all());
    // Roomy: the ring never fills, so nothing is overwritten.
    cfg.ring_capacity = 1 << 16;
    let mut ts = TScout::deploy(&mut k, cfg).expect("collector verifies");
    let ou = ts.register_ou("scan", Subsystem::ExecutionEngine, 2);
    let task = k.create_task();
    ts.register_thread(&mut k, task);
    let mut processor = Processor::new(&mut k, Sink::Memory(Vec::new()));

    // 1. Unsampled: the marker triple does its bookkeeping and nothing else.
    ts.set_sampling_rate(Subsystem::ExecutionEngine, 0);
    for _ in 0..WARMUP {
        triple(&mut k, &mut ts, task, ou);
    }
    let unsampled = allocations(|| {
        for _ in 0..MEASURED {
            triple(&mut k, &mut ts, task, ou);
        }
    });
    assert_eq!(unsampled, 0, "unsampled marker triples allocated");
    assert_eq!(ts.stats.samples_emitted, 0);

    // 2. Sampled: three programs through the VM, maps, and one
    //    `perf_event_output` into the (non-full) ring. Warm-up publishes
    //    more records than the measured stretch will, then drains them,
    //    so the ring's byte queue has reached its working size.
    ts.set_sampling_rate(Subsystem::ExecutionEngine, 100);
    for _ in 0..2 * MEASURED {
        triple(&mut k, &mut ts, task, ou);
    }
    assert_eq!(processor.drain_all(&mut k, &mut ts), 2 * MEASURED);
    processor.take_points();
    let sampled = allocations(|| {
        for _ in 0..MEASURED {
            triple(&mut k, &mut ts, task, ou);
        }
    });
    assert_eq!(sampled, 0, "sampled marker triples allocated");
    assert_eq!(ts.ring_len(), MEASURED);
    assert_eq!(ts.ring_dropped(), 0);

    // 3. Drain: each record decodes straight into its owned
    //    `TrainingPoint` — OU name, metrics, features, user metrics —
    //    and nothing else (the sink's own growth is reserved up front).
    let Sink::Memory(points) = &mut processor.sink else {
        unreachable!("constructed with a memory sink");
    };
    points.reserve(MEASURED);
    let mut drained = 0;
    let drain = allocations(|| drained = processor.drain_all(&mut k, &mut ts));
    assert_eq!(drained, MEASURED);
    assert!(
        drain <= 4 * MEASURED as u64,
        "{drain} allocations draining {MEASURED} records (budget: 4 per point)"
    );
    let points = processor.take_points();
    assert_eq!(points.len(), MEASURED);
    assert_eq!(points[0].features, vec![100.0, 8.0]);
    assert_eq!(points[0].user_metrics, vec![4096]);

    // The accounting the path exists for still closes.
    let lt = ts.loss_totals();
    assert_eq!(lt.begun, 3 * MEASURED as u64);
    assert_eq!(lt.delivered, lt.begun);
    assert_eq!(lt.lost, 0);
}
