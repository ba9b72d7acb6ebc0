//! Lineage-tracing integration tests: a traced run reconstructs full
//! marker→archive→model journeys, per-stage timestamps are monotone in
//! virtual time, the accounting invariant holds, and — the overriding
//! constraint — tracing never perturbs the collected samples.

use std::collections::VecDeque;

use tscout_suite::archive::{ArchiveOptions, Sample};
use tscout_suite::kernel::{HardwareProfile, Kernel};
use tscout_suite::models::ModelKind;
use tscout_suite::noisetap::Database;
use tscout_suite::telemetry::tables::{table, Cell};
use tscout_suite::telemetry::Telemetry;
use tscout_suite::tscout::{
    CollectionMode, LossTotals, ProbeSet, Processor, Sink, Subsystem, TScout, TsConfig,
    ALL_SUBSYSTEMS,
};
use tscout_suite::workloads::driver::{run, run_with_lifecycle, ModelLifecycle, RunOptions};
use tscout_suite::workloads::{Workload, Ycsb};

fn fresh(seed: u64) -> Database {
    let mut k = Kernel::with_seed(HardwareProfile::server_2x20(), seed);
    k.noise_frac = 0.0;
    Database::new(k)
}

/// Attach with 100% sampling and a ring large enough that the Processor
/// keeps up — no overwrites, so the sample stream is insensitive to
/// Processor-side scheduling (tracing charges land there).
fn attach_traced(db: &mut Database, trace_every: u64) {
    let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
    cfg.enable_all_subsystems();
    cfg.ring_capacity = 1 << 20;
    db.attach_tscout(cfg).unwrap();
    db.kernel.telemetry.trace_set_every(trace_every);
    for s in ALL_SUBSYSTEMS {
        db.tscout_mut().unwrap().set_sampling_rate(s, 100);
    }
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("trace_lineage_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

#[test]
fn traced_lifecycle_run_reconstructs_full_lineage() {
    let dir = tmp_dir("full");
    let mut db = fresh(0x11AE);
    let mut w = Ycsb::new(3_000);
    w.setup(&mut db);
    attach_traced(&mut db, 64);
    let mut lc = ModelLifecycle::new(
        &dir,
        ArchiveOptions::default(),
        ModelKind::Ridge,
        5,
        40e6,
        db.kernel.telemetry.clone(),
    )
    .unwrap();
    let stats = run_with_lifecycle(
        &mut db,
        &mut w,
        &RunOptions {
            terminals: 2,
            duration_ns: 200e6,
            seed: 0x11AE,
            ..Default::default()
        },
        &mut lc,
    );
    assert!(stats.retrains >= 1, "lifecycle must retrain at least once");

    let st = db.kernel.telemetry.trace_stats();
    assert!(st.started >= 1, "1/64 sampling must start traces");
    assert!(
        st.closes(),
        "accounting must close: started={} completed={} dropped={} in_flight={}",
        st.started,
        st.completed,
        st.dropped,
        st.in_flight
    );

    // At least one delivered trace must carry the full 8-stage lineage
    // (marker → ring → drain → sink → memtable → seal → dataset →
    // model generation), and every completed trace must be monotone.
    let (full, total) = db.kernel.telemetry.with_registry(|r| {
        let mut full = 0usize;
        let mut total = 0usize;
        for t in r.tracer().completed_iter() {
            total += 1;
            assert!(
                t.timestamps_monotone(),
                "trace {:?} has non-monotone stage timestamps: {:?}",
                t.id,
                t.stages
            );
            let names: Vec<&str> = t.stages.iter().map(|s| s.stage.name()).collect();
            if names
                == [
                    "marker",
                    "ring_buffer",
                    "drain",
                    "sink",
                    "archive_memtable",
                    "segment_seal",
                    "dataset",
                    "model_generation",
                ]
            {
                full += 1;
                assert!(
                    t.model_generation.is_some(),
                    "full lineage must record the model generation"
                );
            }
        }
        (full, total)
    });
    assert!(total >= 1, "must complete at least one trace");
    assert!(
        full >= 1,
        "at least one trace must span marker→model ({total} completed, {full} full)"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The paper's bar for self-observation: turning the tracer on must not
/// change a single bit of the training data it observes.
#[test]
fn samples_are_bit_identical_with_tracing_on_and_off() {
    let collect = |trace_every: u64| -> Vec<Sample> {
        let mut db = fresh(0xB17);
        let mut w = Ycsb::new(3_000);
        w.setup(&mut db);
        attach_traced(&mut db, trace_every);
        let stats = run(
            &mut db,
            &mut w,
            &RunOptions {
                terminals: 2,
                duration_ns: 120e6,
                seed: 0xB17,
                ..Default::default()
            },
        );
        assert_eq!(stats.samples_dropped, 0, "ring must keep up for this test");
        stats.points
    };
    let off = collect(0);
    let on = collect(64);
    assert!(!off.is_empty());
    assert_eq!(off.len(), on.len(), "tracing changed the sample count");
    for (a, b) in off.iter().zip(&on) {
        assert_eq!(a, b, "tracing changed a decoded sample");
        // Belt and braces: the float features must match to the bit.
        for (fa, fb) in a.features.iter().zip(&b.features) {
            assert_eq!(fa.to_bits(), fb.to_bits());
        }
    }
}

/// Losses are traced too: a deliberately tiny ring forces overwrites,
/// and every traced casualty must complete as `lost` with the eviction
/// stamped — accounting still closes exactly.
#[test]
fn lost_samples_complete_as_lost_and_accounting_closes() {
    let mut db = fresh(0x105E);
    let mut w = Ycsb::new(2_000);
    w.setup(&mut db);
    let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
    cfg.enable_all_subsystems();
    cfg.ring_capacity = 64; // force ring pressure
    db.attach_tscout(cfg).unwrap();
    db.kernel.telemetry.trace_set_every(8);
    for s in ALL_SUBSYSTEMS {
        db.tscout_mut().unwrap().set_sampling_rate(s, 100);
    }
    let stats = run(
        &mut db,
        &mut w,
        &RunOptions {
            terminals: 4,
            duration_ns: 60e6,
            seed: 0x105E,
            ..Default::default()
        },
    );
    assert!(stats.samples_dropped > 0, "tiny ring must overwrite");
    let st = db.kernel.telemetry.trace_stats();
    assert!(st.closes(), "accounting must close under ring pressure");
    let lost = db
        .kernel
        .telemetry
        .counter_value("tscout_traces_completed_total", &[("outcome", "lost")]);
    assert!(lost >= 1, "some traced samples must complete as lost");
}

/// `(ou, tid, outcome)` of every `ts_traces` row, in trace-id order.
fn trace_rows(t: &Telemetry) -> Vec<(i64, i64, String)> {
    let rows = t.with_registry(|r| (table("ts_traces").unwrap().rows)(r));
    let mut rows: Vec<_> = rows
        .into_iter()
        .map(|row| match &row[..] {
            [Cell::Int(id), Cell::Int(ou), _, Cell::Int(tid), _, _, Cell::Text(outcome), ..] => {
                (*id, (*ou, *tid, outcome.to_string()))
            }
            other => panic!("unexpected ts_traces row {other:?}"),
        })
        .collect();
    rows.sort_by_key(|(id, _)| *id);
    rows.into_iter().map(|(_, row)| row).collect()
}

/// `triples` marker triples, triple `i` on OU/task `i % 2` of two, into
/// a ring of `ring` records, tracing 1 in `every` collected markers;
/// the Processor drains after every `drain_every` triples and at the
/// end. Returns the `ts_traces` rows and the truth they must equal: a
/// row for collected marker `i` iff `i % every == 0`, naming its OU and
/// task, delivered iff its record — the `i`-th published — was drained
/// before the ring overwrote it.
#[allow(clippy::type_complexity)]
fn traced_triples(
    ring: usize,
    triples: usize,
    every: u64,
    drain_every: usize,
) -> (Vec<(i64, i64, String)>, Vec<(i64, i64, String)>) {
    let mut k = Kernel::with_seed(HardwareProfile::server_2x20(), 9);
    k.noise_frac = 0.0;
    let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
    cfg.ring_capacity = ring;
    cfg.enable_subsystem(Subsystem::ExecutionEngine, ProbeSet::cpu_only());
    let mut ts = TScout::deploy(&mut k, cfg).unwrap();
    ts.set_sampling_rate(Subsystem::ExecutionEngine, 100);
    let mut senders = Vec::new();
    for name in ["scan", "filter"] {
        let ou = ts.register_ou(name, Subsystem::ExecutionEngine, 1);
        let task = k.create_task();
        ts.register_thread(&mut k, task);
        senders.push((ou, task));
    }
    k.telemetry.trace_set_every(every);
    let mut p = Processor::new(&mut k, Sink::Discard);

    let mut queued = VecDeque::new();
    let mut delivered = vec![false; triples];
    for i in 0..triples {
        let (ou, task) = senders[i % 2];
        ts.ou_begin(&mut k, task, ou);
        k.charge_cpu(task, 1_000.0, 64);
        ts.ou_end(&mut k, task, ou);
        ts.ou_features(&mut k, task, ou, &[i as u64], &[]);
        queued.push_back(i);
        if queued.len() > ring {
            queued.pop_front();
        }
        if (i + 1) % drain_every == 0 || i + 1 == triples {
            p.drain_all(&mut k, &mut ts);
            for j in queued.drain(..) {
                delivered[j] = true;
            }
        }
    }
    let truth = (0..triples)
        .filter(|i| (*i as u64).is_multiple_of(every))
        .map(|i| {
            let (ou, task) = senders[i % 2];
            let outcome = if delivered[i] { "delivered" } else { "lost" };
            (i64::from(ou.0), task.as_u64() as i64, outcome.to_string())
        })
        .collect();
    let st = k.telemetry.trace_stats();
    assert!(st.closes() && st.in_flight == 0, "{st:?}");
    (trace_rows(&k.telemetry), truth)
}

/// Ring of one, every second marker traced: record 0 (traced) is
/// overwritten by record 1 (untraced), which is overwritten by record 2
/// (traced), which is drained. Overwriting the untraced record 1 must
/// not end record 2's trace.
#[test]
fn an_overwritten_untraced_record_does_not_end_a_delivered_trace() {
    let mut k = Kernel::with_seed(HardwareProfile::server_2x20(), 9);
    k.noise_frac = 0.0;
    let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
    cfg.ring_capacity = 1;
    cfg.enable_subsystem(Subsystem::ExecutionEngine, ProbeSet::cpu_only());
    let mut ts = TScout::deploy(&mut k, cfg).unwrap();
    ts.set_sampling_rate(Subsystem::ExecutionEngine, 100);
    let ou = ts.register_ou("scan", Subsystem::ExecutionEngine, 1);
    let task = k.create_task();
    ts.register_thread(&mut k, task);
    k.telemetry.trace_set_every(2);
    for i in 0..3 {
        ts.ou_begin(&mut k, task, ou);
        k.charge_cpu(task, 1_000.0, 64);
        ts.ou_end(&mut k, task, ou);
        ts.ou_features(&mut k, task, ou, &[i], &[]);
    }
    let mut p = Processor::new(&mut k, Sink::Discard);
    assert_eq!(p.drain_all(&mut k, &mut ts), 1);
    let outcomes: Vec<String> = trace_rows(&k.telemetry)
        .into_iter()
        .map(|(_, _, outcome)| outcome)
        .collect();
    assert_eq!(outcomes, ["lost", "delivered"]);
    assert!(k.telemetry.trace_stats().closes());
}

/// Every `ts_traces` row names its own record's OU, task and fate, over
/// rings from one record to 64, interleaved senders and drain cadences.
#[test]
fn every_traced_record_reports_its_own_fate() {
    for ring in [1, 2, 5, 64] {
        for triples in [7, 40] {
            for every in [2, 3, 7] {
                for drain_every in [1, 4, usize::MAX] {
                    let (rows, truth) = traced_triples(ring, triples, every, drain_every);
                    assert_eq!(
                        rows, truth,
                        "ring {ring}, {triples} triples, 1 in {every} traced, \
                         drained every {drain_every}"
                    );
                }
            }
        }
    }
}

/// A teardown takes what is still in its ring, and its collected markers
/// still in flight, with it: each is counted lost under `teardown`, and a
/// traced one's trace ends there. The next deployment's ring numbers
/// from 0 again, so its record at position 0 must not complete the old
/// deployment's trace at that position as delivered.
#[test]
fn a_teardown_loses_what_it_holds_and_a_redeployment_completes_none_of_it() {
    let mut k = Kernel::with_seed(HardwareProfile::server_2x20(), 9);
    k.noise_frac = 0.0;
    let task = k.create_task();
    let deploy = |k: &mut Kernel| {
        let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
        cfg.enable_subsystem(Subsystem::ExecutionEngine, ProbeSet::cpu_only());
        let mut ts = TScout::deploy(k, cfg).unwrap();
        ts.set_sampling_rate(Subsystem::ExecutionEngine, 100);
        let ou = ts.register_ou("scan", Subsystem::ExecutionEngine, 1);
        ts.register_thread(k, task);
        (ts, ou)
    };
    let triple = |k: &mut Kernel, ts: &mut TScout, ou| {
        ts.ou_begin(k, task, ou);
        k.charge_cpu(task, 1_000.0, 64);
        ts.ou_end(k, task, ou);
        ts.ou_features(k, task, ou, &[7], &[]);
    };

    // Traced: one record left in the ring, one marker left in flight.
    k.telemetry.trace_set_every(1);
    let (mut ts, ou) = deploy(&mut k);
    triple(&mut k, &mut ts, ou);
    ts.ou_begin(&mut k, task, ou);
    assert_eq!(ts.ring_len(), 1);
    ts.teardown(&mut k);

    // Untraced: one record, drained.
    k.telemetry.trace_set_every(0);
    let (mut ts, ou) = deploy(&mut k);
    triple(&mut k, &mut ts, ou);
    let mut p = Processor::new(&mut k, Sink::Discard);
    assert_eq!(p.drain_all(&mut k, &mut ts), 1);

    let totals = LossTotals {
        begun: 3,
        delivered: 1,
        lost: 2,
    };
    assert_eq!(ts.loss_totals(), totals);
    let labels = [("subsystem", "execution_engine"), ("reason", "teardown")];
    let teardown = k
        .telemetry
        .counter_value("tscout_samples_lost_total", &labels);
    assert_eq!(teardown, 2);
    let task = task.as_u64() as i64;
    let lost = (i64::from(ou.0), task, "lost".to_string());
    assert_eq!(trace_rows(&k.telemetry), [lost.clone(), lost]);
    let st = k.telemetry.trace_stats();
    assert!(st.closes() && st.in_flight == 0, "{st:?}");
}
