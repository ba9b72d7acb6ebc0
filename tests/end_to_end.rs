//! Cross-crate integration tests: the full collect → train → predict
//! loop, dynamic reconfiguration, engine modes, and determinism.

use tscout_suite::archive::crc32;
use tscout_suite::kernel::{HardwareProfile, Kernel};
use tscout_suite::models::eval::avg_abs_error_per_template_us;
use tscout_suite::models::{ModelKind, OuData, OuModelSet};
use tscout_suite::noisetap::{Database, EngineMode, Value};
use tscout_suite::tscout::{CollectionMode, ProbeSet, Subsystem, TsConfig, ALL_SUBSYSTEMS};
use tscout_suite::workloads::driver::{collect_datasets, run, RunOptions, RunStats};
use tscout_suite::workloads::{SmallBank, Tatp, Tpcc, Workload, Ycsb};

fn fresh(seed: u64) -> Database {
    let mut k = Kernel::with_seed(HardwareProfile::server_2x20(), seed);
    k.noise_frac = 0.0;
    Database::new(k)
}

fn attach100(db: &mut Database) {
    let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
    cfg.enable_all_subsystems();
    cfg.ring_capacity = 1 << 20;
    db.attach_tscout(cfg).unwrap();
    for s in ALL_SUBSYSTEMS {
        db.tscout_mut().unwrap().set_sampling_rate(s, 100);
    }
}

/// The seeded YCSB collection the model tests train on.
fn ycsb_collection() -> (RunStats, Vec<OuData>) {
    let mut db = fresh(1);
    let mut w = Ycsb::new(5_000);
    w.setup(&mut db);
    attach100(&mut db);
    let opts = RunOptions {
        terminals: 2,
        duration_ns: 40e6,
        ..Default::default()
    };
    collect_datasets(&mut db, &mut w, &opts)
}

/// One line per OU: the CRC of the `Debug` rendering of the Forest
/// trained on it — every split feature, threshold and leaf mean.
fn forest_model_lines(data: &[OuData]) -> String {
    data.iter()
        .map(|d| {
            let set = OuModelSet::train(ModelKind::Forest, 7, std::slice::from_ref(d));
            let crc = crc32(format!("{set:?}").as_bytes());
            format!("{} points={} crc32={crc:08x}\n", d.name, d.len())
        })
        .collect()
}

#[test]
fn collect_train_predict_round_trip() {
    let (stats, data) = ycsb_collection();
    assert!(stats.committed > 100);
    assert!(!data.is_empty());

    // Train on the collected data and check in-distribution predictions.
    let models = OuModelSet::train(ModelKind::Forest, 7, &data);
    let lookup = data
        .iter()
        .find(|d| d.name == "idx_lookup")
        .expect("idx_lookup data");
    let err_us = avg_abs_error_per_template_us(&models, std::slice::from_ref(lookup));
    let mean_us = lookup.points.iter().map(|p| p.target_ns).sum::<f64>()
        / lookup.points.len() as f64
        / 1000.0;
    assert!(
        err_us < 0.25 * mean_us,
        "model error {err_us:.2}us should be far below the mean target {mean_us:.2}us"
    );
}

/// Model bytes are pinned the way exported series are: the golden file
/// was written by the commit before forest training was rank-coded, so
/// a retrain that changes any tree — a reassociated sum, a moved
/// threshold, one RNG draw more or less — fails here.
#[test]
fn forest_models_match_the_golden_bytes() {
    let (_, data) = ycsb_collection();
    assert_eq!(
        forest_model_lines(&data),
        include_str!("golden/models_ycsb.txt"),
        "trained Forest models changed (left: this build, right: tests/golden/models_ycsb.txt)"
    );
}

#[test]
fn every_workload_produces_consistent_collection() {
    let workloads: Vec<(Box<dyn Workload>, u64)> = vec![
        (Box::new(Ycsb::new(2_000)), 11),
        (Box::new(SmallBank::new(1_000)), 12),
        (Box::new(Tatp::new(1_000)), 13),
        (Box::new(Tpcc::new(1)), 14),
    ];
    for (mut w, seed) in workloads {
        let mut db = fresh(seed);
        w.setup(&mut db);
        attach100(&mut db);
        let opts = RunOptions {
            terminals: 2,
            duration_ns: 15e6,
            seed,
            ..Default::default()
        };
        let stats = run(&mut db, w.as_mut(), &opts);
        let ts = db.tscout_mut().unwrap();
        assert_eq!(
            ts.stats.state_machine_errors,
            0,
            "{}: markers must stay ordered",
            w.name()
        );
        assert!(stats.points.len() > 50, "{}: expected samples", w.name());
        // Every point's feature count matches its OU schema.
        for p in &stats.points {
            let def = tscout_suite::noisetap::ALL_ENGINE_OUS
                .iter()
                .find(|o| o.name() == p.ou_name)
                .unwrap_or_else(|| panic!("unknown OU {}", p.ou_name));
            assert_eq!(
                p.features.len(),
                def.n_features(),
                "{}: OU {} feature arity",
                w.name(),
                p.ou_name
            );
        }
    }
}

#[test]
fn runs_are_deterministic_for_fixed_seed() {
    let run_once = || {
        let mut db = fresh(99);
        let mut w = SmallBank::new(500);
        w.setup(&mut db);
        attach100(&mut db);
        let opts = RunOptions {
            terminals: 3,
            duration_ns: 10e6,
            seed: 5,
            ..Default::default()
        };
        let stats = run(&mut db, &mut w, &opts);
        (
            stats.committed,
            stats.aborted,
            stats.points.len(),
            stats.trace.len(),
        )
    };
    assert_eq!(run_once(), run_once());
}

#[test]
fn dynamic_reconfiguration_detach_and_redeploy() {
    let mut db = fresh(3);
    let mut w = Ycsb::new(1_000);
    w.setup(&mut db);
    attach100(&mut db);
    let opts = RunOptions {
        terminals: 1,
        duration_ns: 5e6,
        ..Default::default()
    };
    let stats = run(&mut db, &mut w, &opts);
    assert!(
        stats.points.iter().any(|p| p.metrics.len() == 15),
        "all probes → 15 metrics"
    );

    // §5.4: unload, change the probe selection, redeploy.
    let mut cfg = db.detach_tscout().unwrap();
    cfg.subsystems
        .insert(Subsystem::ExecutionEngine, ProbeSet::cpu_only());
    db.attach_tscout(cfg).unwrap();
    for s in ALL_SUBSYSTEMS {
        db.tscout_mut().unwrap().set_sampling_rate(s, 100);
    }
    let stats = run(&mut db, &mut w, &opts);
    let ee_point = stats
        .points
        .iter()
        .find(|p| p.subsystem == Subsystem::ExecutionEngine)
        .expect("EE samples after redeploy");
    assert_eq!(ee_point.metrics.len(), 7, "CPU-only probe set → 7 metrics");
}

#[test]
fn fused_and_per_operator_modes_cover_same_ous() {
    let collect = |mode: EngineMode| {
        let mut db = fresh(8);
        db.mode = mode;
        let mut w = Tpcc::new(1);
        w.setup(&mut db);
        attach100(&mut db);
        let opts = RunOptions {
            terminals: 1,
            duration_ns: 20e6,
            ..Default::default()
        };
        let (_, data) = collect_datasets(&mut db, &mut w, &opts);
        data.iter()
            .filter(|d| {
                tscout_suite::noisetap::ALL_ENGINE_OUS
                    .iter()
                    .any(|o| o.name() == d.name && o.subsystem() == Subsystem::ExecutionEngine)
            })
            .map(|d| d.name.clone())
            .collect::<std::collections::BTreeSet<_>>()
    };
    let per_op = collect(EngineMode::PerOperator);
    let fused = collect(EngineMode::Fused);
    // The fused pipeline de-aggregates into the same OU kinds (minus the
    // pipeline wrapper bookkeeping differences).
    for ou in ["idx_lookup", "insert", "update", "output"] {
        assert!(per_op.contains(ou), "per-op missing {ou}: {per_op:?}");
        assert!(fused.contains(ou), "fused missing {ou}: {fused:?}");
    }
}

#[test]
fn user_modes_and_kernel_mode_produce_comparable_metrics() {
    let collect = |mode: CollectionMode| {
        let mut db = fresh(21);
        let mut w = Ycsb::new(1_000);
        w.setup(&mut db);
        let mut cfg = TsConfig::new(mode);
        cfg.enable_all_subsystems();
        cfg.ring_capacity = 1 << 20;
        db.attach_tscout(cfg).unwrap();
        for s in ALL_SUBSYSTEMS {
            db.tscout_mut().unwrap().set_sampling_rate(s, 100);
        }
        let opts = RunOptions {
            terminals: 1,
            duration_ns: 5e6,
            ..Default::default()
        };
        let (_, data) = collect_datasets(&mut db, &mut w, &opts);
        let lookups = data.into_iter().find(|d| d.name == "idx_lookup").unwrap();
        lookups.points.iter().map(|p| p.target_ns).sum::<f64>() / lookups.points.len() as f64
    };
    let kernel = collect(CollectionMode::KernelContinuous);
    let toggle = collect(CollectionMode::UserToggle);
    let cont = collect(CollectionMode::UserContinuous);
    // "The BPF approach generates the same data as user-space syscalls"
    // (§2.3): measured OU times should agree across methods within noise.
    for (name, v) in [("toggle", toggle), ("continuous", cont)] {
        let rel = (v - kernel).abs() / kernel;
        assert!(
            rel < 0.15,
            "{name} mean {v} vs kernel {kernel} ({rel:.2} apart)"
        );
    }
}

#[test]
fn gc_subsystem_produces_training_data() {
    let mut db = fresh(31);
    let sid = db.create_session();
    db.execute(sid, "CREATE TABLE t (id INT PRIMARY KEY, v INT)", &[])
        .unwrap();
    for i in 0..200 {
        db.execute(sid, "INSERT INTO t VALUES ($1, 0)", &[Value::Int(i)])
            .unwrap();
    }
    attach100(&mut db);
    for i in 0..200 {
        db.execute(
            sid,
            "UPDATE t SET v = v + 1 WHERE id = $1",
            &[Value::Int(i)],
        )
        .unwrap();
    }
    db.execute(sid, "DELETE FROM t WHERE id < 50", &[]).unwrap();
    let pruned = db.run_gc();
    assert!(pruned > 0);
    let pts = db.tscout_mut().unwrap().drain_decoded();
    let gc = pts
        .iter()
        .find(|p| p.subsystem == Subsystem::GarbageCollector)
        .expect("GC sample");
    assert_eq!(gc.features[0] as u64, pruned);
}
