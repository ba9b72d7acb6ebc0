//! Lineage-tracing integration tests: a traced run reconstructs full
//! marker→archive→model journeys, per-stage timestamps are monotone in
//! virtual time, the accounting invariant holds, and — the overriding
//! constraint — tracing never perturbs the collected samples.

use tscout_suite::archive::{ArchiveOptions, Sample};
use tscout_suite::kernel::{HardwareProfile, Kernel};
use tscout_suite::models::ModelKind;
use tscout_suite::noisetap::Database;
use tscout_suite::tscout::{CollectionMode, TsConfig, ALL_SUBSYSTEMS};
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
    cfg.trace_every = trace_every;
    db.attach_tscout(cfg).unwrap();
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
    cfg.trace_every = 8;
    db.attach_tscout(cfg).unwrap();
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
