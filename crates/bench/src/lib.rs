//! # tscout-bench — the experiment harness
//!
//! `tscout-bench <name>` (`main.rs`) runs one figure of the paper's
//! evaluation (§6), one ablation, or a tool. This library holds the
//! shared experiment plumbing: database construction, TScout deployment,
//! offline/online data collection, per-subsystem dataset handling, and
//! CSV emission.
//!
//! Every entry prints the same series the paper's figure plots and
//! writes a CSV under `results/`. Absolute numbers come from the
//! simulation's cost model; the *shape* (who wins, by what factor, where
//! crossovers fall) is the reproduction target — see EXPERIMENTS.md.
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use noisetap::engine::Database;
use tscout::{CollectionMode, Subsystem, TsConfig, ALL_SUBSYSTEMS};
use tscout_kernel::{HardwareProfile, Kernel};
use tscout_models::dataset::OuData;
use tscout_models::eval::{avg_abs_error_per_template_us, OuModelSet};
use tscout_models::ModelKind;
use tscout_telemetry::tables::all_tables_json;
use tscout_telemetry::{Profiler, Telemetry, DEFAULT_PROFILE_PERIOD_NS};
use tscout_workloads::driver::{collect_datasets, RunOptions, Workload};
use tscout_workloads::{ChBenchmark, OfflineRunner, SmallBank, Tatp, Tpcc, Ycsb};

/// Experiment time scale: `TS_SCALE` multiplies all virtual durations
/// (e.g. `TS_SCALE=0.2` for a quick pass, `TS_SCALE=3` for more data).
pub fn time_scale() -> f64 {
    std::env::var("TS_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// The results directory (`TS_RESULTS`, default `results/`). Not created
/// until something is written into it.
pub fn results_dir() -> PathBuf {
    PathBuf::from(std::env::var("TS_RESULTS").unwrap_or_else(|_| "results".into()))
}

/// Where figure CSVs land.
pub fn result_path(name: &str) -> PathBuf {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).ok();
    dir.join(name)
}

/// Telemetry and profiler handles of every database [`new_db`] built, in
/// construction order: what [`write_observability`] renders once the
/// entry has returned. Handles, not copies — each database's registry
/// is rendered as it stood when its run ended, and none is merged into
/// another.
static DATABASES: Mutex<Vec<(Telemetry, Profiler)>> = Mutex::new(Vec::new());

/// Profiling interrupt period: `TS_PROFILE_PERIOD_NS` overrides (<= 0
/// disables the profiler entirely).
pub fn profile_period_ns() -> f64 {
    std::env::var("TS_PROFILE_PERIOD_NS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_PROFILE_PERIOD_NS)
}

/// The two observability artifacts of an entry, written into `dir`
/// (created if missing) by `tscout-bench <entry>` after the entry
/// returns: `tables_<entry>.json`, an array holding one
/// [`all_tables_json`] document per database the entry built (every
/// `ts_*` table as the SQL and obsd surfaces render it), and the
/// flamegraph-ready `profile_<entry>.folded`, their folded stacks summed.
pub fn write_observability(dir: &Path, entry: &str) {
    let dbs = DATABASES.lock().expect("no entry panics holding this");
    let tables: Vec<String> = dbs
        .iter()
        .map(|(t, _)| t.with_registry(|r| all_tables_json(r)))
        .collect();
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for (stack, e) in dbs.iter().flat_map(|(_, p)| p.folded()) {
        *folded.entry(stack).or_default() += e.samples;
    }
    let folded: String = folded
        .iter()
        .map(|(stack, samples)| format!("{stack} {samples}\n"))
        .collect();
    std::fs::create_dir_all(dir).ok();
    for (name, contents) in [
        (
            format!("tables_{entry}.json"),
            format!("[\n{}]\n", tables.join(",\n")),
        ),
        (format!("profile_{entry}.folded"), folded),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, contents)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        println!("observability -> {}", path.display());
    }
}

/// CSV writer that tees rows to stdout.
#[derive(Debug)]
pub struct Csv {
    file: std::io::BufWriter<std::fs::File>,
}

impl Csv {
    pub fn create(name: &str, header: &str) -> Csv {
        let path = result_path(name);
        let mut file = std::io::BufWriter::new(
            std::fs::File::create(&path).expect("cannot create results file"),
        );
        writeln!(file, "{header}").unwrap();
        println!("{header}");
        Csv { file }
    }

    pub fn row(&mut self, row: &str) {
        writeln!(self.file, "{row}").unwrap();
        println!("{row}");
    }
}

impl Drop for Csv {
    fn drop(&mut self) {
        let _ = self.file.flush();
    }
}

/// Build a fresh DBMS on the given hardware, with the sampling profiler
/// armed at the configured period. The one constructor of the harness:
/// it keeps the database's telemetry and profiler handles for
/// [`write_observability`].
pub fn new_db(hw: HardwareProfile, seed: u64) -> Database {
    let mut kernel = Kernel::with_seed(hw, seed);
    kernel.set_profile_period_ns(profile_period_ns());
    DATABASES
        .lock()
        .expect("no entry panics holding this")
        .push((kernel.telemetry.clone(), kernel.profiler.clone()));
    Database::new(kernel)
}

/// Deploy TScout in a collection mode with all subsystems enabled at the
/// given sampling rate.
pub fn attach_all(db: &mut Database, mode: CollectionMode, rate: u8) {
    let mut cfg = TsConfig::new(mode);
    cfg.enable_all_subsystems();
    db.attach_tscout(cfg).expect("tscout deploy failed");
    set_rates(db, rate);
}

/// Deploy TScout for *training-data collection* runs: kernel mode, 100%
/// sampling, and a large ring so accuracy experiments don't lose samples
/// to overwrites (overhead experiments use the realistic default ring).
pub fn attach_collect(db: &mut Database) {
    let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
    cfg.enable_all_subsystems();
    cfg.ring_capacity = 1 << 22;
    db.attach_tscout(cfg).expect("tscout deploy failed");
    set_rates(db, 100);
}

/// Set every subsystem's sampling rate.
pub fn set_rates(db: &mut Database, rate: u8) {
    if let Some(ts) = db.tscout_mut() {
        for s in ALL_SUBSYSTEMS {
            ts.set_sampling_rate(s, rate);
        }
    }
}

/// Instantiate an evaluation workload by name with a small default scale.
pub fn make_workload(name: &str) -> Box<dyn Workload> {
    match name {
        "ycsb" => Box::new(Ycsb::new(20_000)),
        "smallbank" => Box::new(SmallBank::new(10_000)),
        "tatp" => Box::new(Tatp::new(8_000)),
        "tpcc" => Box::new(Tpcc::new(tpcc_warehouses())),
        "chbenchmark" => Box::new(ChBenchmark::new(1)),
        other => panic!("unknown workload {other}"),
    }
}

/// Warehouses for the "large" TPC-C configuration (paper: 200; env
/// `TS_WAREHOUSES` overrides; default scaled down for laptop runs).
pub fn tpcc_warehouses() -> u64 {
    std::env::var("TS_WAREHOUSES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8)
}

/// Split datasets for evaluation: hold out ~`frac` of query templates
/// (template > 0) plus a random `frac` of background points (template 0,
/// which WAL/GC samples carry). Returns `(train, test)`.
pub fn split_for_eval(data: &[OuData], frac: f64, seed: u64) -> (Vec<OuData>, Vec<OuData>) {
    // Gather all template ids.
    let mut templates: Vec<u32> = data
        .iter()
        .flat_map(|d| d.points.iter().map(|p| p.template))
        .filter(|t| *t > 0)
        .collect();
    templates.sort_unstable();
    templates.dedup();
    let every = (1.0 / frac.max(1e-9)).round().max(1.0) as u64;
    let held: Vec<u32> = templates
        .iter()
        .copied()
        .filter(|t| (*t as u64).wrapping_add(seed).is_multiple_of(every))
        .collect();
    let mut train = Vec::new();
    let mut test = Vec::new();
    for d in data {
        let mut tr = OuData::new(&d.name);
        let mut te = OuData::new(&d.name);
        for (i, p) in d.points.iter().enumerate() {
            let hold = if p.template == 0 {
                (i as u64)
                    .wrapping_mul(2654435761)
                    .wrapping_add(seed)
                    .is_multiple_of(every)
            } else {
                held.contains(&p.template)
            };
            if hold {
                te.points.push(p);
            } else {
                tr.points.push(p);
            }
        }
        if !tr.is_empty() {
            train.push(tr);
        }
        if !te.is_empty() {
            test.push(te);
        }
    }
    (train, test)
}

/// Collect *offline* training data: the runner suite, single-threaded,
/// 100% sampling, on the given hardware.
pub fn offline_data(hw: HardwareProfile, seed: u64, duration_ns: f64) -> Vec<OuData> {
    online_data(hw, &mut OfflineRunner::new(), 1, seed, duration_ns)
}

/// Collect training data from `workload` deployed on a fresh database:
/// set up, attach TScout for collection, run `terminals` terminals for
/// `duration_ns` (times [`time_scale`]) and build the datasets.
pub fn online_data(
    hw: HardwareProfile,
    workload: &mut dyn Workload,
    terminals: usize,
    seed: u64,
    duration_ns: f64,
) -> Vec<OuData> {
    collect_on(new_db(hw, seed), workload, terminals, seed, duration_ns)
}

/// [`online_data`] on a database the caller built (Fig. 2 seeds its
/// kernel apart from its run).
pub fn collect_on(
    mut db: Database,
    workload: &mut dyn Workload,
    terminals: usize,
    seed: u64,
    duration_ns: f64,
) -> Vec<OuData> {
    workload.setup(&mut db);
    attach_collect(&mut db);
    let opts = RunOptions {
        terminals,
        duration_ns: duration_ns * time_scale(),
        seed,
        ..Default::default()
    };
    collect_datasets(&mut db, workload, &opts).1
}

/// The size sweep Figs. 9 and 10 share, written to `csv_name`: per
/// reported subsystem, the offline-only error on `test` and the error
/// after adding `n` points of `online`, for every `n` the pool can supply.
pub fn convergence_sweep(csv_name: &str, offline: &[OuData], online: &[OuData], test: &[OuData]) {
    let available = total_points(online);
    println!("# online pool: {available} points");
    let mut csv = Csv::create(
        csv_name,
        "subsystem,online_points,offline_err_us,online_err_us",
    );
    let sizes = [2_000usize, 5_000, 10_000, 20_000, 40_000, 70_000, 100_000];
    for sub in REPORTED_SUBSYSTEMS {
        let off = subsystem_error_us(offline, test, sub, 5);
        for n in sizes.into_iter().filter(|n| *n <= available) {
            let subset = cap_points(online, n, n as u64);
            let augmented = merge_data(offline, &subset);
            let on = subsystem_error_us(&augmented, test, sub, 5);
            csv.row(&format!("{sub},{n},{off:.2},{on:.2}"));
        }
    }
}

/// One measurement from the runtime-overhead sweep (Figs. 5 and 6).
#[derive(Debug, Clone)]
pub struct SweepPoint {
    pub workload: String,
    pub method: &'static str,
    pub rate: u8,
    pub ktps: f64,
    pub samples_per_sec: f64,
}

/// The collection methods of §6.2.
pub const METHODS: [(&str, CollectionMode); 3] = [
    ("kernel_continuous", CollectionMode::KernelContinuous),
    ("user_toggle", CollectionMode::UserToggle),
    ("user_continuous", CollectionMode::UserContinuous),
];

/// Sweep query sampling rates for every workload × collection method —
/// the shared engine behind Figs. 5 (throughput) and 6 (data rate).
/// One database per (workload, method) is reused across rates.
pub fn overhead_sweep(
    workloads: &[&str],
    rates: &[u8],
    duration_ns: f64,
    terminals: usize,
) -> Vec<SweepPoint> {
    let mut out = Vec::new();
    for wl_name in workloads {
        for (m_name, mode) in METHODS {
            let mut db = new_db(HardwareProfile::server_2x20(), 0x515);
            let mut wl = make_workload(wl_name);
            wl.setup(&mut db);
            attach_all(&mut db, mode, 0);
            for (i, &rate) in rates.iter().enumerate() {
                set_rates(&mut db, rate);
                let stats = tscout_workloads::driver::run(
                    &mut db,
                    wl.as_mut(),
                    &RunOptions {
                        terminals,
                        duration_ns: duration_ns * time_scale(),
                        seed: 100 + i as u64,
                        ..Default::default()
                    },
                );
                out.push(SweepPoint {
                    workload: wl_name.to_string(),
                    method: m_name,
                    rate,
                    ktps: stats.ktps(),
                    samples_per_sec: stats.samples_processed as f64 / (stats.duration_ns / 1e9),
                });
            }
        }
    }
    out
}

/// Map an OU name to its subsystem using the engine catalog.
pub fn subsystem_of(ou_name: &str) -> Option<Subsystem> {
    noisetap::ALL_ENGINE_OUS
        .iter()
        .find(|o| o.name() == ou_name)
        .map(|o| o.subsystem())
}

/// The four subsystems the paper's accuracy figures report.
pub const REPORTED_SUBSYSTEMS: [Subsystem; 4] = [
    Subsystem::ExecutionEngine,
    Subsystem::Networking,
    Subsystem::LogSerializer,
    Subsystem::DiskWriter,
];

/// Keep only the OUs of one subsystem.
pub fn filter_subsystem(data: &[OuData], sub: Subsystem) -> Vec<OuData> {
    data.iter()
        .filter(|d| subsystem_of(&d.name) == Some(sub))
        .cloned()
        .collect()
}

/// Merge datasets by OU name (offline + online augmentation).
pub fn merge_data(a: &[OuData], b: &[OuData]) -> Vec<OuData> {
    let mut by_name: std::collections::BTreeMap<String, OuData> = Default::default();
    for d in a.iter().chain(b) {
        by_name
            .entry(d.name.clone())
            .and_modify(|e| e.extend_from(d))
            .or_insert_with(|| d.clone());
    }
    by_name.into_values().collect()
}

/// Total points across datasets.
pub fn total_points(data: &[OuData]) -> usize {
    data.iter().map(tscout_models::OuData::len).sum()
}

/// Subsample every OU dataset to cap the total at roughly `n` points,
/// preserving per-OU proportions.
pub fn cap_points(data: &[OuData], n: usize, seed: u64) -> Vec<OuData> {
    let total = total_points(data).max(1);
    if total <= n {
        return data.to_vec();
    }
    data.iter()
        .map(|d| {
            let share = (d.len() * n).div_ceil(total);
            d.sample(share.max(1), seed)
        })
        .collect()
}

/// Train per-OU models on `train`, report avg abs error per template (µs)
/// over `test`, both restricted to one subsystem.
pub fn subsystem_error_us(train: &[OuData], test: &[OuData], sub: Subsystem, seed: u64) -> f64 {
    let tr = filter_subsystem(train, sub);
    let te = filter_subsystem(test, sub);
    let models = OuModelSet::train(ModelKind::Forest, seed, &tr);
    avg_abs_error_per_template_us(&models, &te)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subsystem_mapping_covers_reported_set() {
        assert_eq!(subsystem_of("seq_scan"), Some(Subsystem::ExecutionEngine));
        assert_eq!(subsystem_of("network_read"), Some(Subsystem::Networking));
        assert_eq!(
            subsystem_of("log_serialize"),
            Some(Subsystem::LogSerializer)
        );
        assert_eq!(subsystem_of("disk_write"), Some(Subsystem::DiskWriter));
        assert_eq!(subsystem_of("nonsense"), None);
    }

    #[test]
    fn observability_is_one_tables_document_per_database_and_a_summed_profile() {
        // The only test of this binary that builds databases: the list
        // is process-wide.
        let dir = std::env::temp_dir().join(format!("tsbench_obs_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let dbs = [1, 2].map(|seed| new_db(HardwareProfile::server_2x20(), seed));
        for (db, charged_ns) in dbs.iter().zip([250_000.0, 100_000.0]) {
            let task = tscout_telemetry::TaskFrames::default();
            let _root = db
                .kernel
                .profiler
                .push_frames(&task, [tscout_telemetry::DBMS.id()]);
            db.kernel
                .profiler
                .on_charge(&task, &mut 0.0, charged_ns, None);
        }
        dbs[1]
            .kernel
            .telemetry
            .counter_inc("second_only_total", &[]);
        write_observability(&dir, "demo");
        let tables = std::fs::read_to_string(dir.join("tables_demo.json")).unwrap();
        let tables = tscout_obsd::json::Json::parse(&tables).expect("tables artifact parses");
        let docs = tables.as_arr().expect("an array, one element per database");
        assert_eq!(docs.len(), 2);
        let names = |doc: &tscout_obsd::json::Json| {
            let metrics = doc.get("ts_metrics").expect("every table is a member");
            metrics.column("name").unwrap().len()
        };
        assert_eq!(names(&docs[1]), names(&docs[0]) + 1);
        let folded = std::fs::read_to_string(dir.join("profile_demo.folded")).unwrap();
        assert_eq!(folded, "dbms 3\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_and_cap() {
        let mut a = OuData::new("x");
        for i in 0..10 {
            a.points.push(tscout_models::dataset::LabeledPoint {
                features: &[i as f64],
                target_ns: 1.0,
                template: 0,
            });
        }
        let merged = merge_data(&[a.clone()], &[a.clone()]);
        assert_eq!(total_points(&merged), 20);
        let capped = cap_points(&merged, 5, 1);
        assert!(total_points(&capped) <= 6);
    }
}
