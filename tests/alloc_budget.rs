//! Heap-allocation budgets of the per-sample path and of the archive's
//! read side.
//!
//! A counting global allocator brackets the steady-state pieces of the
//! pipeline — an unsampled marker triple, a sampled `KernelContinuous`
//! triple through the BPF VM into the perf ring, the Processor's drain
//! into the in-memory sink, and a sampled triple into a full ring (every
//! push overwrites and accounts one loss) — and pins what each may
//! allocate once its buffers have reached their working size: the
//! markers nothing, the drain only the owned `TrainingPoint`s. On the
//! read side it pins a column scan and a dataset build to O(OUs +
//! blocks) allocations, nothing per point. Training is
//! pinned too: a Forest `fit` allocates per tree and per node, never
//! per (node, candidate feature). And the lowered BPF engine is held to
//! the sample path's budget on *hostile* programs as well: seeded
//! mutants of the 24 Collector streams run to an `Ok` or an `Err`
//! without a panic or an allocation. The operator plane's two
//! byte-eating entry points, `Json::parse` and `http::read_request`, are
//! total on seeded mutants of valid documents and requests and allocate
//! in proportion to the bytes they were given, whatever those claim.
//! And `Registry::clone()`, which every obsd request pays, is pinned to
//! the series it copies, not the length of the run.
//!
//! The sampling profiler is on (as in every bench run), so its frames
//! are part of the budget too.
//!
//! The counter is per thread, so each test counts its own allocations
//! whatever the harness or the test beside it is doing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use tscout_suite::archive::{Archive, ArchiveOptions, Projection, Sample};
use tscout_suite::bpf::lower::lower;
use tscout_suite::kernel::{HardwareProfile, Kernel, TaskId};
use tscout_suite::models::{
    datasets_from_archive, ou_data_from_archive, OuData, RandomForest, Regressor,
};
use tscout_suite::noisetap::index::{Index, IndexKind};
use tscout_suite::noisetap::storage::SlotId;
use tscout_suite::noisetap::types::row_bytes;
use tscout_suite::noisetap::{Database, Value};
use tscout_suite::obsd::http;
use tscout_suite::obsd::json::Json;
use tscout_suite::rng::{RngExt, SeedableRng, StdRng};
use tscout_suite::telemetry::{Telemetry, DEFAULT_PROFILE_PERIOD_NS, TABLES};
use tscout_suite::tscout::codegen::encode_ctx;
use tscout_suite::tscout::{
    CollectionMode, OuId, ProbeSet, Processor, Sink, Subsystem, TScout, TsConfig, ALL_SUBSYSTEMS,
};
use tscout_suite::workloads::driver::{run, RunOptions, Workload};
use tscout_suite::workloads::{Tpcc, Ycsb};

mod common;
use common::{deploy, layouts, mutate, Twin, PROGRAMS};

/// Counts every allocation and reallocation, and the bytes they ask
/// for; frees are not interesting.
struct Counting;

thread_local! {
    // Const-initialised and without a destructor: reading them neither
    // allocates nor registers anything, so the allocator may.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one `GlobalAlloc` states; the counter is a
// thread-local cell and touches no allocator state. `dealloc` and
// `alloc_zeroed` keep their default/`System` behaviour through these two.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // A thread being torn down no longer counts; nothing measured
        // runs there.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        let _ = BYTES.try_with(|n| n.set(n.get() + layout.size() as u64));
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

/// Allocations performed by `f` (on this thread).
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.get();
    f();
    ALLOCATIONS.get() - before
}

/// Bytes `f` asked the allocator for (on this thread), freed or not.
fn allocated_bytes(f: impl FnOnce()) -> u64 {
    let before = BYTES.get();
    f();
    BYTES.get() - before
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

    // 4. Overflow: a ring so small that every measured triple overwrites
    //    the oldest record. Under ring pressure loss accounting *is* the
    //    steady state, so it gets the same budget as the sampled path.
    const RING: usize = 8;
    let mut k = Kernel::with_seed(HardwareProfile::server_2x20(), 11);
    k.set_profile_period_ns(DEFAULT_PROFILE_PERIOD_NS);
    let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
    cfg.enable_subsystem(Subsystem::ExecutionEngine, ProbeSet::all());
    cfg.ring_capacity = RING;
    let mut ts = TScout::deploy(&mut k, cfg).expect("collector verifies");
    let ou = ts.register_ou("scan", Subsystem::ExecutionEngine, 2);
    let task = k.create_task();
    ts.register_thread(&mut k, task);
    ts.set_sampling_rate(Subsystem::ExecutionEngine, 100);
    for _ in 0..2 * MEASURED {
        triple(&mut k, &mut ts, task, ou);
    }
    let evicted_before = ts.ring_dropped();
    assert_eq!(evicted_before, (2 * MEASURED - RING) as u64);
    let overflowing = allocations(|| {
        for _ in 0..MEASURED {
            triple(&mut k, &mut ts, task, ou);
        }
    });
    assert_eq!(ts.ring_dropped() - evicted_before, MEASURED as u64);
    assert_eq!(overflowing, 0, "evicting marker triples allocated");
    let mut processor = Processor::new(&mut k, Sink::Memory(Vec::new()));
    assert_eq!(processor.drain_all(&mut k, &mut ts), RING);
    let lt = ts.loss_totals();
    assert_eq!(lt.begun, 3 * MEASURED as u64);
    assert_eq!(lt.lost, ts.ring_dropped());
    assert_eq!(lt.begun, lt.delivered + lt.lost);
}

#[test]
fn archive_read_side_allocates_per_block_not_per_sample() {
    const SAMPLES: u64 = 6_000;
    const OUS: u64 = 3;

    let dir = std::env::temp_dir().join(format!("tscout_alloc_read_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let opts = ArchiveOptions {
        memtable_flush_samples: 100,
        segment_max_bytes: 64 * 1024,
        ..ArchiveOptions::default()
    };
    let mut archive = Archive::open(&dir, opts, Telemetry::new()).expect("open archive");
    for i in 0..SAMPLES {
        let ou = i % OUS;
        let sample = Sample {
            ou: ou as u16,
            ou_name: format!("ou_{ou}"),
            subsystem: 0,
            tid: 1,
            template: (i % 5) as u32,
            start_ns: i * 1_000,
            elapsed_ns: 500 + i,
            metrics: vec![i, i * 2, i * 3],
            features: vec![i as f64, 0.5 * i as f64],
            user_metrics: vec![4096],
        };
        archive.append(sample).expect("append");
    }
    archive.seal().expect("seal");
    let stats = archive.stats();
    assert_eq!(stats.samples_stored, SAMPLES);
    let blocks = stats.blocks as u64;
    assert!(
        blocks >= 50 && stats.segments > 1,
        "want many blocks over several segments: {stats:?}"
    );

    // A pass that only sums one column: the plan, one file handle per
    // segment, and buffers that stop growing after the first blocks.
    let mut sum = 0u64;
    let scan = allocations(|| {
        let projection = Projection {
            elapsed_ns: true,
            ..Projection::NONE
        };
        let mut scan = archive.scan_batches(None, projection);
        while let Some(batch) = scan.next_batch() {
            sum += batch.elapsed_ns().iter().sum::<u64>();
        }
    });
    assert_eq!(sum, (0..SAMPLES).map(|i| 500 + i).sum::<u64>());
    assert!(
        scan <= blocks + 16,
        "{scan} allocations summing a column over {blocks} blocks ({SAMPLES} samples)"
    );

    // Datasets: an OU's columns are sized once, so what is left is the
    // scan's. The counter is this thread's: one OU at a time here counts
    // the whole build, and `datasets_from_archive` counts the caller's
    // share of its pool (all of it on one CPU) plus the pool itself.
    let budget = blocks + 12 * OUS + 16;
    let mut per_ou = Vec::new();
    let one_at_a_time = allocations(|| {
        for ou in archive.ou_names() {
            per_ou.push(ou_data_from_archive(&archive, &ou, 2.1, 4));
        }
    });
    let mut data: Vec<OuData> = Vec::new();
    let datasets = allocations(|| data = datasets_from_archive(&archive, 2.1, 4));
    assert_eq!(data.iter().map(OuData::len).sum::<usize>() as u64, SAMPLES);
    assert_eq!(data[1].points.at(1).features, vec![4.0, 2.0, 2.1, 4.0]);
    assert!(data.iter().zip(&per_ou).all(|(a, b)| a.points == b.points));
    for (what, n) in [("per OU", one_at_a_time), ("pooled", datasets)] {
        assert!(
            n <= budget,
            "{what}: {n} allocations building {SAMPLES} points from {blocks} blocks"
        );
    }

    drop(archive);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn forest_fit_allocates_per_tree_and_node_not_per_candidate() {
    const POINTS: usize = 4_096;
    const TREES: u64 = 24;

    // Three informative columns of different cardinality and a constant
    // one, so nodes score several candidates and take the all-features
    // fallback now and then.
    let x: Vec<Vec<f64>> = (0..POINTS)
        .map(|i| vec![(i % 61) as f64, (i * 7 % 1_013) as f64, 2.1, (i % 2) as f64])
        .collect();
    let y: Vec<f64> = x.iter().map(|r| 500.0 + 40.0 * r[0] + r[1]).collect();
    let rows: Vec<&[f64]> = x.iter().map(Vec::as_slice).collect();

    let mut forest = RandomForest::new(TREES as usize, 10, 4, 42);
    let fit = allocations(|| forest.fit(&rows, &y));
    let rendered = format!("{forest:?}");
    let nodes = (rendered.matches("Leaf(").count() + rendered.matches("Split {").count()) as u64;
    assert!(
        nodes > 100 * TREES,
        "trees too shallow to say much: {nodes} nodes"
    );
    // One box per node is what a tree is; the rest is per-fit columns
    // and buffers that reach their size within the first tree. A sorted
    // value list or a pair of index lists per node and candidate — what
    // `fit` used to allocate — is 3 × candidates per node on its own.
    let budget = 3 * nodes + 8 * TREES + 64;
    assert!(
        fit <= budget,
        "{fit} allocations fitting {TREES} trees / {nodes} nodes on {POINTS} points (budget {budget})"
    );
}

/// Every obsd request clones the registry under the mutex the DBMS
/// thread takes per statement (`stmt_record`), so the clone must cost
/// what the *series* cost, not what the run's history does: the same
/// workload run four times longer registers the same series and may not
/// make `Registry::clone()` allocate more than a quarter again. (It did
/// while the registry kept a window of every counter per pump tick.)
#[test]
fn registry_clone_does_not_grow_with_the_length_of_the_run() {
    let clone_after = |duration_ns: f64| {
        let mut k = Kernel::with_seed(HardwareProfile::server_2x20(), 0xC10E);
        k.set_profile_period_ns(DEFAULT_PROFILE_PERIOD_NS);
        let mut db = Database::new(k);
        let mut w = Ycsb::new(2_000);
        w.setup(&mut db);
        let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
        cfg.enable_all_subsystems();
        cfg.ring_capacity = 1 << 20;
        db.attach_tscout(cfg).expect("collector verifies");
        for s in ALL_SUBSYSTEMS {
            db.tscout_mut().unwrap().set_sampling_rate(s, 100);
        }
        let opts = RunOptions {
            terminals: 4,
            duration_ns,
            seed: 7,
            ..RunOptions::default()
        };
        run(&mut db, &mut w, &opts);
        db.kernel.telemetry.with_registry(|r| {
            let allocated = allocations(|| drop(std::hint::black_box(r.clone())));
            (r.len(), allocated)
        })
    };
    let (series, short) = clone_after(40e6);
    let (series_4x, long) = clone_after(160e6);
    println!("Registry::clone(): {short} allocations, {long} after a 4x run ({series} series)");
    assert_eq!(series, series_4x, "same workload, same series");
    assert!(series > 50 && short > series as u64, "{series} series");
    assert!(
        4 * long <= 5 * short,
        "Registry::clone() allocated {short} times after the run and {long} after one 4x as long"
    );
}

/// Totality of the execution engines (ROADMAP 2a, the VM slice). Each
/// case changes one field of one instruction of a valid Collector stream
/// (`common::mutate`) — most mutants the verifier would reject, so this
/// is the loader's engine on programs it never sees in production.
/// `lower` and both engines must return, the lowered run must match the
/// reference's (`Twin`), and replayed from the same map state it must
/// not allocate: the kept scratch and the maps' storage reached their
/// size on the first run.
#[test]
fn mutated_collector_programs_neither_panic_nor_allocate() {
    const MUTANTS_PER_STREAM: usize = 48;
    let mut rng = StdRng::seed_from_u64(0x10E_2ED);
    let ctx = encode_ctx(5, 42, 1, 0, &[77, 88, 99]);
    let (mut ok, mut faulted) = (0usize, 0usize);
    for (layout, p) in layouts() {
        let (_, generated, _) = deploy(&p);
        let valid = generated.each_ref().map(|insns| lower(insns));
        let mut twin = Twin::new(|| deploy(&p).0.maps);
        for target in 0..generated.len() {
            for _ in 0..MUTANTS_PER_STREAM {
                let mut mutant = generated[target].clone();
                let change = mutate(&mut mutant, &mut rng);
                let what = format!("{layout} {}, {change}", PROGRAMS[target]);
                let lowered = lower(&mutant);
                // Against empty maps (every lookup misses, so the error
                // arms run) and against what the valid programs before
                // this one leave behind (BEGIN for END, both for FEATURES).
                for prefix in [0, target] {
                    let reset = |twin: &mut Twin| {
                        twin.clear();
                        for i in 0..prefix {
                            let r = twin.run(PROGRAMS[i], &generated[i], &valid[i], &ctx);
                            assert_eq!(r.map(|(r0, _)| r0), Ok(0), "{layout} {}", PROGRAMS[i]);
                        }
                    };
                    reset(&mut twin);
                    let first = twin.run(&what, &mutant, &lowered, &ctx);
                    match first {
                        Ok(_) => ok += 1,
                        Err(_) => faulted += 1,
                    }
                    // The same run again, counted.
                    reset(&mut twin);
                    let expected = twin.run_reference(&mutant, &ctx);
                    let mut got = None;
                    let allocated = allocations(|| got = Some(twin.run_lowered(&lowered, &ctx)));
                    assert_eq!(first, expected, "{what}: the same state ran differently");
                    assert_eq!(got, Some(expected), "{what}: replay differs");
                    assert_eq!(allocated, 0, "{what}: the lowered run allocated");
                }
            }
        }
    }
    println!("{ok} mutant runs returned Ok, {faulted} Err");
    assert!(
        ok > 200 && faulted > 200,
        "mutants should both survive and fault: {ok} Ok, {faulted} Err"
    );
}

/// One seeded mutation of a valid input: the damage a hostile or broken
/// peer does — truncation, flipped and replaced bytes, a repeated or
/// dropped slice, and `bombs` (nesting, absurd numbers, oversized or
/// lying headers) spliced in at a random offset.
fn mutate_bytes(valid: &[u8], bombs: &[Vec<u8>], rng: &mut StdRng) -> Vec<u8> {
    const STRUCTURAL: &[u8] = b"\"\\{}[]:,-+.eEu0\r\n \x00\xff";
    let mut out = valid.to_vec();
    let at = rng.random_range(0..=out.len());
    let end = rng.random_range(at..=out.len().min(at + 64));
    match rng.random_range(0..6) {
        0 => out.truncate(at),
        1 if at < out.len() => out[at] ^= 1 << rng.random_range(0..8),
        2 if at < out.len() => out[at] = STRUCTURAL[rng.random_range(0..STRUCTURAL.len())],
        3 => drop(out.drain(at..end)),
        4 => {
            let slice = out[at..end].to_vec();
            for _ in 0..rng.random_range(1..40) {
                out.splice(at..at, slice.iter().copied());
            }
        }
        _ => {
            let bomb = &bombs[rng.random_range(0..bombs.len())];
            out.splice(at..at, bomb.iter().copied());
        }
    }
    out
}

/// Every `ts_*` table of a registry with metrics, a drifted OU, an alert,
/// a statement and a trace, and the flight-recorder bundle it writes: the
/// documents `Json::parse` meets in this workspace.
fn json_corpus() -> Vec<String> {
    let dir = std::env::temp_dir().join(format!("tscout_alloc_json_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let t = Telemetry::new();
    t.counter("archive_ou_samples_appended_total", &[("ou", "scan")])
        .add(5);
    t.gauge("depth \"quoted\"\n", &[("k", "v\\")]).set(f64::NAN);
    t.hist("lat_ns", &[("op", "read")]).record(1.5e3);
    for i in 0..320 {
        let target_ns = if i < 256 { 1_000.0 } else { 64_000.0 };
        t.observe_ou_sample("scan", "execution_engine", target_ns, 3.0);
    }
    t.stmt_record(
        "select '\u{e9}\u{2192}\t' ?",
        5e3,
        1,
        &[("scan", 3e3)],
        Some(4e3),
    );
    t.trace_set_every(1);
    let id = t
        .trace_begin(7, 2, 42, 100.0)
        .expect("every marker is traced");
    t.trace_publish(id, 200.0, 3);
    assert!(t.trace_consume(7, 42, 300.0, 350.0, 400.0, 2, true));
    t.arm_flight_recorder(dir.clone(), "fuzz");
    let alerts = t.observability_tick(1e9);
    assert!(!alerts.is_empty(), "the shifted OU must alert");
    let bundle = t
        .flight_record(1e9, &alerts, "dbms;ou:scan 3\n")
        .expect("the CRITICAL drift alert writes a bundle");
    let mut docs: Vec<String> = t.with_registry(|r| TABLES.iter().map(|t| t.to_json(r)).collect());
    docs.push(std::fs::read_to_string(bundle).expect("bundle readable"));
    std::fs::remove_dir_all(&dir).ok();
    docs
}

/// Totality of `Json::parse` (ROADMAP 2a): on mutants of every table
/// document and of a flight bundle it returns `Ok` or `Err`, and what it
/// allocates is bounded by the length of its input — at worst the 64
/// bytes per byte of a doubling `Vec<Json>` holding one 32-byte `Json`
/// per `1,` — never by what the text claims (depth, exponents, escapes).
#[test]
fn mutated_json_documents_parse_or_err_within_a_linear_allocation_bound() {
    const MUTANTS_PER_DOC: usize = 400;
    let bombs = [
        "[".repeat(200_000).into_bytes(),
        "{\"a\":".repeat(50_000).into_bytes(),
        "[{\"k\":[".repeat(30_000).into_bytes(),
        b"1e999999999".to_vec(),
        b"-".to_vec(),
        b"0.0.0e+-5".to_vec(),
        "9".repeat(5_000).into_bytes(),
        b"\"\\ud800\\u12\"".to_vec(),
        b"\"\\uzzzz".to_vec(),
        b"\\".to_vec(),
        b"nul".to_vec(),
        "\u{e9}".as_bytes()[..1].to_vec(),
        ",".repeat(1_000).into_bytes(),
        // A `Vec<Json>` that has just doubled: the most tree per byte.
        "1,".repeat(4_100).into_bytes(),
    ];
    let mut rng = StdRng::seed_from_u64(0x15_0BAD);
    let (mut ok, mut err) = (0usize, 0usize);
    for doc in json_corpus() {
        assert!(Json::parse(&doc).is_ok(), "the corpus is valid: {doc}");
        for _ in 0..MUTANTS_PER_DOC {
            let mutant = mutate_bytes(doc.as_bytes(), &bombs, &mut rng);
            // `parse` takes a `&str`: a byte that is not UTF-8 reaches it
            // the way it reaches `tscoutctl`, replaced.
            let mutant = String::from_utf8_lossy(&mutant).into_owned();
            let mut parsed = None;
            let bytes = allocated_bytes(|| parsed = Some(Json::parse(&mutant)));
            match parsed.expect("parse returned") {
                Ok(_) => ok += 1,
                Err(_) => err += 1,
            }
            let budget = 64 * mutant.len() as u64 + 1_024;
            assert!(
                bytes <= budget,
                "parsing {} bytes allocated {bytes} (budget {budget}): {:.200}",
                mutant.len(),
                mutant
            );
        }
    }
    println!("{ok} mutant documents parsed, {err} were rejected");
    assert!(ok > 100 && err > 1_000, "{ok} Ok, {err} Err");
}

/// [`http::read_request`] on `bytes` sent by a peer that then closes its
/// sending half, with what the call allocated.
fn read_request_from(listener: &TcpListener, bytes: &[u8]) -> (Result<http::Request, String>, u64) {
    std::thread::scope(|s| {
        let addr = listener.local_addr().expect("bound");
        // The reader may give up (and close) before the peer has sent
        // everything: its write errors are part of the scenario.
        s.spawn(move || {
            let mut peer = TcpStream::connect(addr).expect("loopback connect");
            let _ = peer.write_all(bytes);
            let _ = peer.shutdown(std::net::Shutdown::Write);
            let _ = peer.read(&mut [0u8; 1]);
        });
        let (mut stream, _) = listener.accept().expect("loopback accept");
        // A bound on a hang, not part of any case: the peer always closes.
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("socket option");
        let mut result = None;
        let allocated = allocated_bytes(|| result = Some(http::read_request(&mut stream)));
        (result.expect("read_request returned"), allocated)
    })
}

/// Totality of obsd's request reader (ROADMAP 2a): on mutants of
/// well-formed GET and POST requests — truncated, with flipped bytes,
/// repeated and oversized headers, and `Content-Length`s that lie — it
/// returns a request within its size limits or an `Err` (the server's
/// `400`), and allocates in proportion to the bytes that arrived, not to
/// the length a header claims.
#[test]
fn mutated_http_requests_are_read_or_refused_within_a_linear_allocation_bound() {
    const MUTANTS_PER_REQUEST: usize = 150;
    let valid: [&[u8]; 3] = [
        b"GET /metrics HTTP/1.1\r\nHost: localhost\r\nAccept: */*\r\n\r\n",
        b"GET /api/v1/series HTTP/1.0\r\n\r\n",
        b"POST /api/v1/sql HTTP/1.1\r\nHost: localhost\r\nContent-Length: 49\r\n\r\n\
          SELECT kind, count(*) FROM ts_metrics GROUP BY kind",
    ];
    let bombs = [
        b"Content-Length: 65536\r\n".to_vec(),
        b"Content-Length: 65537\r\n".to_vec(),
        b"Content-Length: 18446744073709551615\r\n".to_vec(),
        b"Content-Length: 99999999999999999999999\r\n".to_vec(),
        b"Content-Length: -1\r\n".to_vec(),
        b"Content-Length: 3\r\nContent-Length: 4\r\n".to_vec(),
        b"content-length:0\r\n".to_vec(),
        "X-Pad: a\r\n".repeat(2_000).into_bytes(),
        [b"X-Long: ", &[b'a'; 3 * http::MAX_HEAD][..], b"\r\n"].concat(),
        vec![b'b'; 2 * http::MAX_BODY],
        b"\r\n\r\n".to_vec(),
        b"\r\n\r".to_vec(),
        b"\xff\xfe".to_vec(),
        b": \r\n".to_vec(),
    ];
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    for request in valid {
        let (read, _) = read_request_from(&listener, request);
        assert!(read.is_ok(), "the corpus is valid: {read:?}");
    }
    let mut rng = StdRng::seed_from_u64(0x4774_0BAD);
    let (mut ok, mut err) = (0usize, 0usize);
    for request in valid {
        for _ in 0..MUTANTS_PER_REQUEST {
            let mutant = mutate_bytes(request, &bombs, &mut rng);
            let (read, bytes) = read_request_from(&listener, &mutant);
            match read {
                Ok(r) => {
                    assert!(r.path.starts_with('/') && r.body.len() <= http::MAX_BODY);
                    ok += 1;
                }
                Err(_) => err += 1,
            }
            let budget = 4 * mutant.len() as u64 + 2_048;
            assert!(
                bytes <= budget,
                "reading a {}-byte request allocated {bytes} (budget {budget}): {:.200}",
                mutant.len(),
                String::from_utf8_lossy(&mutant)
            );
        }
    }
    println!("{ok} mutant requests were read, {err} refused");
    assert!(ok > 50 && err > 50, "{ok} Ok, {err} Err");
}

/// `execute_prepared` shares the prepared `Plan` (an `Arc`) instead of
/// deep-copying the tree for every execution: what a point query
/// allocates must not grow with the size of its plan.
#[test]
fn a_prepared_point_query_allocates_no_plan_node() {
    let mut db = Database::new(Kernel::with_seed(HardwareProfile::server_2x20(), 3));
    let sid = db.create_session();
    db.execute(sid, "CREATE TABLE t (k INT PRIMARY KEY, a INT, b INT)", &[])
        .unwrap();
    db.execute(sid, "INSERT INTO t VALUES (1, 10, 100)", &[])
        .unwrap();
    // The same lookup and the same one-column row, under a filter of 1
    // and of 33 expression nodes.
    let filters = ["a = 10".to_string(), vec!["a = 10"; 17].join(" AND ")];
    let per_execution = filters.map(|filter| {
        let stmt = db
            .prepare(&format!("SELECT b FROM t WHERE k = $1 AND {filter}"))
            .unwrap();
        let key = [Value::Int(1)];
        let mut run = |n| {
            for _ in 0..n {
                let out = db.execute_prepared(sid, stmt, &key).unwrap();
                assert_eq!(out.rows.len(), 1);
            }
        };
        run(8);
        allocations(|| run(64)) / 64
    });
    assert_eq!(per_execution[0], per_execution[1], "{per_execution:?}");
}

/// NoiseTap's read path (the DBMS half of every YCSB transaction): a
/// prepared `SELECT *` by primary key over 20 000 rows of ten 100-byte
/// TEXT columns allocates the statement's key, result row and scan
/// bookkeeping — not a copy of a B+-tree key per node, a postings list,
/// a key to re-check against, a string per TEXT column (19 allocations
/// and 1 688 B per execution before the tree held its keys flat, lookups
/// borrowed their postings and TEXT was shared), or the scan's copy of
/// the row it read (7 and 656 B before rows were pushed borrowed).
#[test]
fn a_ycsb_point_read_allocates_within_its_budget() {
    const ROWS: i64 = 20_000;
    let mut db = Database::new(Kernel::with_seed(HardwareProfile::server_2x20(), 3));
    Ycsb::new(ROWS as u64).setup(&mut db);
    let sid = db.create_session();
    let stmt = db
        .prepare("SELECT * FROM usertable WHERE ycsb_key = $1")
        .unwrap();
    let mut key = 0;
    let mut run = |n| {
        for _ in 0..n {
            key = (key + 7_919) % ROWS;
            let out = db.execute_prepared(sid, stmt, &[Value::Int(key)]).unwrap();
            assert_eq!((out.rows.len(), out.rows[0].len()), (1, 11));
        }
    };
    run(64);
    let (mut calls, mut bytes) = (0, 0);
    calls += allocations(|| bytes = allocated_bytes(|| run(256)));
    let (calls, bytes) = (calls / 256, bytes / 256);
    println!("YCSB point read: {calls} allocations, {bytes} B per execution");
    assert!(
        calls <= 6 && bytes <= 560,
        "{calls} allocations / {bytes} B per execution"
    );
}

/// A seeded TPC-C warehouse and a prepared statement over it, with the
/// allocations and bytes of one execution averaged over `runs` after
/// eight warm-up executions. `params(n)` gives the n-th execution's.
fn tpcc_statement(sql: &str, runs: u64, params: impl Fn(u64) -> Vec<Value>) -> (u64, u64) {
    let mut db = Database::new(Kernel::with_seed(HardwareProfile::server_2x20(), 3));
    Tpcc::new(1).setup(&mut db);
    let sid = db.create_session();
    let stmt = db.prepare(sql).unwrap();
    let mut n = 0;
    let mut run = |times| {
        for _ in 0..times {
            db.execute_prepared(sid, stmt, &params(n)).unwrap();
            n += 1;
        }
    };
    run(8);
    let (mut calls, mut bytes) = (0, 0);
    calls += allocations(|| bytes = allocated_bytes(|| run(runs)));
    (calls / runs, bytes / runs)
}

/// TPC-C's StockLevel join (warehouse 0, district 0, the last 20 orders,
/// as `Tpcc::stock_level` asks it): ~100 order lines build a hash table
/// that 1 000 stock rows probe. Rows cross operators borrowed, so what it
/// allocates is the build side, the scans' candidate lists and a result
/// row — not a copy of every row it reads (1 471 allocations and 370 KB
/// per execution while each operator returned a `Vec<Row>`).
#[test]
fn a_tpcc_stock_level_join_allocates_within_its_budget() {
    let (calls, bytes) = tpcc_statement(
        "SELECT count(*) FROM orderline ol JOIN stock s ON ol.ol_i_id = s.s_i_id \
         WHERE ol.ol_w_id = $1 AND ol.ol_d_id = $2 AND ol.ol_o_id >= $3 \
         AND s.s_w_id = $1 AND s.s_quantity < $4",
        16,
        |_| vec![Value::Int(0), Value::Int(0), Value::Int(40), Value::Int(15)],
    );
    println!("TPC-C stock_level join: {calls} allocations, {bytes} B per execution");
    assert!(calls <= 64, "{calls} allocations / {bytes} B per execution");
}

/// TPC-C's `UPDATE stock` by primary key: the new row is built once from
/// the borrowed old one (20 allocations per execution while the scan, the
/// update and the table each took a copy, and the schema and index list
/// were cloned per statement).
#[test]
fn a_tpcc_stock_update_allocates_within_its_budget() {
    let (calls, bytes) = tpcc_statement(
        "UPDATE stock SET s_quantity = s_quantity - $3, s_ytd = s_ytd + $4 \
         WHERE s_w_id = $1 AND s_i_id = $2",
        256,
        |n| {
            let item = (n * 7_919 % 1_000) as i64;
            vec![
                Value::Int(0),
                Value::Int(item),
                Value::Int(3),
                Value::Float(12.5),
            ]
        },
    );
    println!("TPC-C UPDATE stock: {calls} allocations, {bytes} B per execution");
    assert!(calls <= 14, "{calls} allocations / {bytes} B per execution");
}

/// A point lookup borrows its postings from either index kind, and a
/// TEXT value is shared, not copied, when cloned.
#[test]
fn index_lookups_and_text_clones_allocate_nothing() {
    for kind in [IndexKind::BTree, IndexKind::Hash] {
        let mut index = Index::new(kind, 2);
        for i in 0..5_000 {
            let name = Value::Text(format!("name{}", i % 7).into());
            index.insert(vec![Value::Int(i / 3), name], SlotId(i as u64));
        }
        let probe = [Value::Int(1_234), Value::Text("name0".into())];
        let mut found = 0;
        let calls = allocations(|| {
            for _ in 0..100 {
                found += std::hint::black_box(index.get(&probe)).0.len();
            }
        });
        assert_eq!((calls, found), (0, 100), "{kind:?}");
    }
    let text = Value::Text("y".repeat(100).into());
    let mut row = Vec::with_capacity(10);
    let calls = allocations(|| row.extend((0..10).map(|_| text.clone())));
    assert_eq!((calls, row_bytes(&row)), (0, 1_000));
}
