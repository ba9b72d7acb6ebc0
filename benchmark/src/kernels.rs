//! The isolated per-call kernels of the traced run: one public entry
//! point of one layer, called in a tight loop from outside, after the
//! staged passes. Each is warmed up, then timed [`REPS`] times; the
//! median is reported. Costs per call, not shares of a pass — the stage
//! table gives the shares.

use std::hint::black_box;
use std::time::Instant;

use noisetap::{Database, Value};
use tscout::codegen::{encode_ctx, gen_begin, gen_end, gen_features, ProbeLayout, CTX_BYTES};
use tscout::{CollectionMode, ProbeSet, Processor, Sink, Subsystem, TScout, TsConfig};
use tscout_actions::{ActionConfig, ActionEngine, DbmsActuator, PlannerInputs};
use tscout_bpf::maps::MapDef;
use tscout_bpf::vm::NullWorld;
use tscout_bpf::{Loader, MapRegistry};
use tscout_kernel::{HardwareProfile, Kernel};
use tscout_models::{ModelRegistry, OuData};
use tscout_obsd::client;
use tscout_telemetry::Telemetry;

use crate::metrics::PER_LAYER;
use crate::noise::Calibrator;
use crate::probe;
use crate::stats;

const REPS: usize = 3;

/// Iteration counts below are for scale 1; a smoke run scales them down.
#[derive(Debug, Clone, Copy)]
struct Scale(f64);

impl Scale {
    fn iters(self, at_scale_1: usize) -> usize {
        ((at_scale_1 as f64 * self.0.min(1.0)) as usize).max(1)
    }
}

/// Median over [`REPS`] timed repetitions of `iters` calls (after one
/// untimed repetition), in ns per call.
fn per_call_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut rep = || {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        start.elapsed().as_nanos() as f64 / iters as f64
    };
    rep();
    let reps: Vec<f64> = (0..REPS).map(|_| rep()).collect();
    stats::median(&reps)
}

/// Every kernel's result, by per-layer metric name.
pub type Results = Vec<(&'static str, f64)>;

fn kernel_layer(scale: Scale, out: &mut Results) {
    let mut k = Kernel::new(HardwareProfile::server_2x20());
    let task = k.create_task();
    let ns = per_call_ns(scale.iters(200_000), || {
        k.charge_cpu(task, black_box(1_000.0), 4096);
        black_box(k.now(task));
    });
    out.push(("kernel.charge_ns", ns));
}

fn bpf_layer(scale: Scale, out: &mut Results) {
    let probes = ProbeLayout {
        cpu: true,
        disk: true,
        net: true,
    };
    let build = || {
        let mut loader = Loader::new();
        let depth = loader.maps.create(MapDef::hash("d", 8, 8, 256));
        let begin = loader
            .maps
            .create(MapDef::hash("b", 8, probes.snap_words() * 8, 1024));
        let done = loader
            .maps
            .create(MapDef::hash("dn", 8, probes.done_words() * 8, 256));
        let ring = loader.maps.create(MapDef::perf_event_array("r", 1 << 12));
        let progs = [
            ("begin", gen_begin(&probes, depth, begin)),
            ("end", gen_end(&probes, depth, begin, done)),
            ("features", gen_features(&probes, done, ring)),
        ];
        (loader, progs, ring)
    };

    // Load = verify + optimize + re-verify, all three programs.
    let load_ns = per_call_ns(scale.iters(20), || {
        let (mut loader, progs, _) = build();
        for (name, insns) in progs {
            black_box(
                loader
                    .load(name, insns, CTX_BYTES)
                    .expect("collector verifies"),
            );
        }
    });
    out.push(("bpf.load_us", load_ns / 1e3));
    let (loader, progs, _) = build();
    let verify_ns = per_call_ns(scale.iters(20), || {
        for (_, insns) in &progs {
            tscout_bpf::verify(black_box(insns), &loader.maps, CTX_BYTES).expect("verifies");
        }
    });
    out.push(("bpf.verify_us", verify_ns / 1e3));

    // One BEGIN/END/FEATURES triple through the VM, as deployed
    // (optimized), against a world that costs nothing.
    let (mut loader, progs, ring) = build();
    let ids: Vec<_> = progs
        .into_iter()
        .map(|(name, insns)| loader.load(name, insns, CTX_BYTES).expect("verifies"))
        .collect();
    let ctx = encode_ctx(1, 42, 0, 0, &[100, 8, 4096]);
    let mut world = NullWorld::default();
    let mut insns = 0u64;
    let mut triple = |loader: &mut Loader| {
        insns = 0;
        for id in &ids {
            let (_, st) = loader.run(*id, &ctx, &mut world).expect("verified program");
            insns += st.insns;
        }
    };
    let mut since_drain = 0;
    let triple_ns = per_call_ns(scale.iters(20_000), || {
        triple(&mut loader);
        since_drain += 1;
        if since_drain == 2048 {
            black_box(loader.maps.ring_drain(ring, usize::MAX));
            since_drain = 0;
        }
    });
    out.push(("bpf.vm_triple_ns", triple_ns));
    out.push(("bpf.vm_insns_per_triple", insns as f64));
    out.push(("bpf.vm_ns_per_insn", triple_ns / insns.max(1) as f64));

    let mut maps = MapRegistry::new();
    let h = maps.create(MapDef::hash("h", 8, 64, 1 << 12));
    let value = [7u8; 64];
    let mut i = 0u64;
    let map_ns = per_call_ns(scale.iters(100_000), || {
        i = (i + 1) % 1024;
        let key = i.to_le_bytes();
        maps.update(h, &key, &value).expect("map has room");
        black_box(maps.lookup(h, &key));
    });
    out.push(("bpf.map_update_lookup_ns", map_ns));

    let r = maps.create(MapDef::perf_event_array("r", 1 << 12));
    let record = [3u8; 128];
    let ring_ns = per_call_ns(scale.iters(200), || {
        for _ in 0..1024 {
            maps.ring_push(r, &record).expect("ring push");
        }
        black_box(maps.ring_drain(r, usize::MAX));
    }) / 1024.0;
    out.push(("bpf.ring_push_drain_ns", ring_ns));
}

fn core_layer(scale: Scale, out: &mut Results) {
    let deploy_ns = per_call_ns(scale.iters(5), || {
        let mut kernel = Kernel::new(HardwareProfile::server_2x20());
        let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
        cfg.enable_all_subsystems();
        cfg.ring_capacity = 1 << 22;
        black_box(TScout::deploy(&mut kernel, cfg).expect("collector verifies"));
    });
    out.push(("core.deploy_ms", deploy_ns / 1e6));

    for (name, rate) in [
        ("core.marker_sampled_ns", 100u8),
        ("core.marker_unsampled_ns", 0u8),
    ] {
        let mut kernel = Kernel::new(HardwareProfile::server_2x20());
        let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
        cfg.enable_subsystem(Subsystem::ExecutionEngine, ProbeSet::all());
        cfg.ring_capacity = 1 << 16;
        let mut ts = TScout::deploy(&mut kernel, cfg).expect("collector verifies");
        let ou = ts.register_ou("bench_ou", Subsystem::ExecutionEngine, 2);
        ts.set_sampling_rate(Subsystem::ExecutionEngine, rate);
        let task = kernel.create_task();
        ts.register_thread(&mut kernel, task);
        let mut since_drain = 0;
        let ns = per_call_ns(scale.iters(20_000), || {
            ts.ou_begin(&mut kernel, task, ou);
            ts.ou_end(&mut kernel, task, ou);
            ts.ou_features(&mut kernel, task, ou, black_box(&[100, 8]), &[4096]);
            since_drain += 1;
            if since_drain == 4096 {
                black_box(ts.drain_ring(usize::MAX));
                since_drain = 0;
            }
        });
        out.push((name, ns));
    }

    // Processor decode: drain a ring pre-filled with sampled triples.
    const FILL: usize = 8_192;
    let mut kernel = Kernel::new(HardwareProfile::server_2x20());
    let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
    cfg.enable_subsystem(Subsystem::ExecutionEngine, ProbeSet::all());
    cfg.ring_capacity = 1 << 16;
    let mut ts = TScout::deploy(&mut kernel, cfg).expect("collector verifies");
    let ou = ts.register_ou("bench_ou", Subsystem::ExecutionEngine, 2);
    ts.set_sampling_rate(Subsystem::ExecutionEngine, 100);
    let task = kernel.create_task();
    ts.register_thread(&mut kernel, task);
    let mut processor = Processor::new(&mut kernel, Sink::Memory(Vec::new()));
    let mut decode_s = Vec::new();
    for _ in 0..=REPS {
        for _ in 0..FILL {
            ts.ou_begin(&mut kernel, task, ou);
            ts.ou_end(&mut kernel, task, ou);
            ts.ou_features(&mut kernel, task, ou, &[100, 8], &[4096]);
        }
        let start = Instant::now();
        let drained = processor.drain_all(&mut kernel, &mut ts);
        decode_s.push(start.elapsed().as_nanos() as f64 / drained.max(1) as f64);
        black_box(processor.take_points());
    }
    out.push(("core.processor_decode_ns", stats::median(&decode_s[1..])));
}

fn db_layer(scale: Scale, out: &mut Results) {
    let mut db = Database::new(Kernel::new(HardwareProfile::server_2x20()));
    let sid = db.create_session();
    db.execute(sid, "CREATE TABLE t (id INT PRIMARY KEY, v FLOAT)", &[])
        .expect("create table");
    for i in 0..10_000 {
        db.execute(
            sid,
            "INSERT INTO t VALUES ($1, $2)",
            &[Value::Int(i), Value::Float(0.0)],
        )
        .expect("insert");
    }
    let q = db
        .prepare("SELECT v FROM t WHERE id = $1")
        .expect("prepare");
    let mut i = 0i64;
    let point_ns = per_call_ns(scale.iters(20_000), || {
        i = (i + 1) % 10_000;
        black_box(
            db.execute_prepared(sid, q, black_box(&[Value::Int(i)]))
                .expect("point query"),
        );
    });
    out.push(("db.point_query_ns", point_ns));
    let plan_ns = per_call_ns(scale.iters(2_000), || {
        black_box(
            db.prepare(black_box("SELECT v FROM t WHERE id BETWEEN $1 AND $2"))
                .expect("prepare"),
        );
    });
    out.push(("db.parse_plan_ns", plan_ns));
}

/// Registry-side costs against `telemetry`, the end-of-run registry of
/// the last pass (what a scrape clones and what the hot path locks).
fn telemetry_layer(telemetry: &Telemetry, scale: Scale, out: &mut Results) {
    // The hot-path calls go to a clone of the registry so the kernels
    // leave the pass's own numbers alone.
    let scratch = Telemetry::new();
    scratch.with_registry(|r| *r = telemetry.with_registry(|src| src.clone()));
    let counter_ns = per_call_ns(scale.iters(200_000), || {
        scratch.counter_inc("tscout_marker_events_total", &[("marker", "begin")]);
    });
    out.push(("telemetry.counter_inc_ns", counter_ns));
    let mut v = 0.0;
    let hist_ns = per_call_ns(scale.iters(200_000), || {
        v += 17.0;
        scratch.hist_record("workload_txn_ns", &[("outcome", "committed")], v);
    });
    out.push(("telemetry.hist_record_ns", hist_ns));
    let clone_ns = per_call_ns(scale.iters(50), || {
        black_box(telemetry.with_registry(|r| r.clone()));
    });
    out.push(("telemetry.registry_clone_us", clone_ns / 1e3));
    out.push((
        "telemetry.series",
        telemetry.with_registry(|r| r.len()) as f64,
    ));
    let mut now = 1e15;
    let tick_ns = per_call_ns(scale.iters(50), || {
        now += 2e6;
        black_box(scratch.observability_tick(now));
    });
    out.push(("telemetry.observability_tick_us", tick_ns / 1e3));
}

/// One prediction of the live model for the first OU of `data`.
fn models_layer(registry: &ModelRegistry, data: &[OuData], scale: Scale, out: &mut Results) {
    let Some((ou, x)) = data
        .first()
        .and_then(|d| Some((d.name.as_str(), d.points.first()?.features.clone())))
    else {
        out.push(("models.predict_ns", 0.0));
        return;
    };
    let ns = per_call_ns(scale.iters(50_000), || {
        black_box(registry.predict_ns(ou, black_box(&x)));
    });
    out.push(("models.predict_ns", ns));
}

fn actions_layer(scale: Scale, out: &mut Results) {
    #[derive(Debug)]
    struct NullActuator;
    impl DbmsActuator for NullActuator {
        fn set_sampling_rate(&mut self, _subsystem: &str, _rate: u8) {}
        fn trigger_retrain(&mut self) {}
        fn schedule_compaction(&mut self) {}
        fn hold_compaction(&mut self, _hold: bool) {}
        fn set_pipeline_mode(&mut self, _fused: bool) {}
    }
    // A healthy, in-budget system: every tick walks all policies and
    // plans nothing.
    let mut engine = ActionEngine::new(ActionConfig::default(), Telemetry::new());
    let mut now = 0.0;
    let ns = per_call_ns(scale.iters(50_000), || {
        now += 2e6;
        let inputs = PlannerInputs {
            now_ns: now,
            overhead_ratio: Some(0.01),
            ..Default::default()
        };
        black_box(engine.tick(black_box(&inputs), &mut NullActuator));
    });
    out.push(("actions.tick_ns", ns));
}

/// Endpoint latencies against an idle pipeline's end-of-run registry.
fn obsd_layer(telemetry: &Telemetry, scale: Scale, out: &mut Results) {
    let srv = probe::start_obsd(telemetry);
    let addr = srv.addr().to_string();
    let mut bytes = 0;
    let metrics_ns = per_call_ns(scale.iters(40), || {
        let (_, body) = client::get(&addr, "/metrics").expect("GET /metrics");
        bytes = body.len();
    });
    out.push(("obsd.metrics_idle_us", metrics_ns / 1e3));
    out.push(("obsd.metrics_bytes", bytes as f64));
    let table_ns = per_call_ns(scale.iters(40), || {
        black_box(client::get(&addr, "/api/v1/ou").expect("GET table"));
    });
    out.push(("obsd.table_json_us", table_ns / 1e3));
    let sql_ns = per_call_ns(scale.iters(40), || {
        black_box(
            client::post(
                &addr,
                "/api/v1/sql",
                "SELECT count(*) FROM ts_stat_subsystem",
            )
            .expect("POST sql"),
        );
    });
    out.push(("obsd.sql_us", sql_ns / 1e3));
    srv.shutdown();
}

/// Run one layer's kernels between two calibrations and correct the
/// times they report (not the counts) by the bracket's factor.
fn corrected(cal: &mut Calibrator, out: &mut Results, layer: impl FnOnce(&mut Results)) {
    let mut fresh = Results::new();
    let ((), bracket) = cal.bracket(|| layer(&mut fresh));
    for (name, v) in fresh {
        let unit = PER_LAYER
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("kernel metric {name} is not in the table"))
            .unit;
        let is_time = matches!(unit, "ns" | "us" | "ms");
        out.push((name, if is_time { v * bracket.factor() } else { v }));
    }
}

/// Run every kernel. `telemetry`, `registry` and `data` are the last
/// pass's end-of-run registry, live model and the datasets it was
/// trained on; `scale` the invocation's.
pub fn run_all(
    telemetry: &Telemetry,
    registry: &ModelRegistry,
    data: &[OuData],
    scale: f64,
    cal: &mut Calibrator,
) -> Results {
    let scale = Scale(scale);
    let mut out = Results::new();
    corrected(cal, &mut out, |o| kernel_layer(scale, o));
    corrected(cal, &mut out, |o| bpf_layer(scale, o));
    corrected(cal, &mut out, |o| core_layer(scale, o));
    corrected(cal, &mut out, |o| db_layer(scale, o));
    corrected(cal, &mut out, |o| telemetry_layer(telemetry, scale, o));
    corrected(cal, &mut out, |o| {
        models_layer(registry, data, scale, o);
    });
    corrected(cal, &mut out, |o| actions_layer(scale, o));
    corrected(cal, &mut out, |o| obsd_layer(telemetry, scale, o));
    out
}
