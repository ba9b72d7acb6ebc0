//! The OLTP-mix pass behind the three `collect_*` workloads.
//!
//! One pass is a YCSB leg (`Ycsb::new(20_000)`) then a TPC-C leg
//! (`Tpcc::new(4)`), 4 terminals each, `KernelContinuous`, every
//! subsystem enabled, `ring_capacity = 1 << 22`. Each leg builds a fresh
//! `Database`; leg 2 reopens leg 1's archive directory, so its last
//! retrain sees the combined history. The same pass runs in four
//! flavours: through `run_with_lifecycle` (what the end-to-end metrics
//! time), as the *staged* equivalent the traced run brackets call by
//! call, attached at rate 0, and detached.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use noisetap::engine::Database;
use tscout::{CollectionMode, TrainingPoint, TsConfig, ALL_SUBSYSTEMS};
use tscout_archive::{Archive, ArchiveOptions};
use tscout_kernel::{HardwareProfile, Kernel, DEFAULT_PROFILE_PERIOD_NS};
use tscout_models::{ModelKind, ModelRegistry};
use tscout_telemetry::Telemetry;
use tscout_workloads::driver::{
    assign_templates, run, run_with_lifecycle, ModelLifecycle, QuerySpan, RunOptions, RunStats,
    Workload,
};
use tscout_workloads::{Tpcc, Ycsb};

use crate::probe::{self, Checks, Reopened, Retrain, TERMINALS};
use crate::trace::Tracer;

/// Scrape frequency of `collect_scraped`, Hz wall.
pub const SCRAPE_HZ: u32 = 50;
/// The family every scrape must carry once samples flow.
pub const SCRAPE_FAMILY: &str = "tscout_samples_delivered_total";

/// How TScout takes part in a pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Collect {
    /// TScout never attached: the DBMS + driver alone.
    Detached,
    /// Attached, every subsystem sampling at this rate (0 or 100).
    Rate(u8),
}

/// How the timed region is driven.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Drive {
    /// `run_with_lifecycle`, one retrain at the end of each leg.
    Lifecycle,
    /// `driver::run` → `assign_templates` → `Archive::append`/`flush`/
    /// `maybe_compact` → `datasets_from_archive` → `retrain_split` →
    /// `seal`: the same work, every call the benchmark's own.
    Staged,
    /// `driver::run` only (the detached / rate-0 reference passes).
    RunOnly,
}

#[derive(Debug, Clone, Copy)]
pub struct MixSpec {
    pub collect: Collect,
    pub drive: Drive,
    /// Virtual duration of each leg, ns.
    pub leg_ns: f64,
    /// Embedded obsd + 50 Hz open-loop scraper during the timed region.
    pub scraped: bool,
    /// Run the post-pass probes (cold reopen + digest, Forest retrain).
    pub probes: bool,
}

/// Live-scrape samples of one pass.
#[derive(Debug, Default, Clone)]
pub struct Scrapes {
    /// Latency from due time to full response, ms.
    pub latency_ms: Vec<f64>,
    /// How late each request left relative to its due time, ms.
    pub late_ms: Vec<f64>,
    pub errors: u64,
}

/// Everything one pass measured. Times are raw wall seconds.
#[derive(Debug, Default)]
pub struct MixPass {
    pub setup_s: f64,
    /// Timed region: the two legs' run brackets.
    pub wall_s: f64,
    pub committed: u64,
    /// Samples durable in the archive after the timed region.
    pub archived: u64,
    pub begun: u64,
    pub delivered: u64,
    pub lost: u64,
    pub marker_events: u64,
    pub scrapes: Scrapes,
    pub reopened: Option<Reopened>,
    /// Forest retrain on the finished archive, when it holds samples.
    pub retrain: Option<Retrain>,
    /// The registry the probe retrain installed its model into.
    pub registry: Option<ModelRegistry>,
    /// `archive_bytes_written_total` over both legs.
    pub bytes_written: u64,
    pub compactions: u64,
    /// Leg 2's registry, for the isolated telemetry / obsd kernels.
    pub telemetry: Option<Telemetry>,
    pub checks: Checks,
}

fn leg_workload(leg: usize) -> Box<dyn Workload> {
    if leg == 0 {
        Box::new(Ycsb::new(20_000))
    } else {
        Box::new(Tpcc::new(4))
    }
}

fn set_rates(db: &mut Database, rate: u8) {
    let ts = db.tscout_mut().expect("tscout attached");
    for s in ALL_SUBSYSTEMS {
        ts.set_sampling_rate(s, rate);
    }
}

/// Build a leg's database, load its workload and deploy TScout.
fn setup_leg(
    leg: usize,
    collect: Collect,
    seed: u64,
    tr: &mut Tracer,
) -> (Database, Box<dyn Workload>) {
    let o = tr.begin("db.new");
    let mut kernel = Kernel::with_seed(HardwareProfile::server_2x20(), seed + leg as u64);
    kernel.set_profile_period_ns(DEFAULT_PROFILE_PERIOD_NS);
    let mut db = Database::new(kernel);
    tr.end(o);
    let mut workload = leg_workload(leg);
    let o = tr.begin("workloads.setup");
    workload.setup(&mut db);
    tr.end(o);
    if let Collect::Rate(rate) = collect {
        let o = tr.begin("core.deploy");
        let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
        cfg.enable_all_subsystems();
        cfg.ring_capacity = 1 << 22;
        db.attach_tscout(cfg).expect("collector programs verify");
        set_rates(&mut db, rate);
        tr.end(o);
    }
    (db, workload)
}

fn open_lifecycle(dir: &Path, seed: u64, telemetry: Telemetry, tr: &mut Tracer) -> ModelLifecycle {
    let o = tr.begin("archive.open");
    let lc = ModelLifecycle::new(
        dir,
        ArchiveOptions::default(),
        ModelKind::Forest,
        seed,
        f64::MAX,
        telemetry,
    )
    .expect("open archive directory");
    tr.end(o);
    lc
}

/// The open-loop scraper: request `i` is due at `start + i / SCRAPE_HZ`
/// whatever the previous response did, and is timed from that due time.
fn scrape_until(addr: &str, start: Instant, stop: &AtomicBool) -> Scrapes {
    let period = Duration::from_secs(1) / SCRAPE_HZ;
    let mut out = Scrapes::default();
    let mut seen_family = false;
    for i in 1u32.. {
        let due = start + period * i;
        // Sleep in short slices so a finished run is noticed at once.
        while let Some(wait) = due.checked_duration_since(Instant::now()) {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            std::thread::sleep(wait.min(Duration::from_millis(1)));
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let sent = Instant::now();
        let (ok, has_family) = probe::scrape_once(addr, SCRAPE_FAMILY);
        let done = Instant::now();
        out.late_ms.push((sent - due).as_secs_f64() * 1e3);
        out.latency_ms.push((done - due).as_secs_f64() * 1e3);
        // The family appears with the first delivered sample and must
        // never disappear from a later exposition.
        if !ok || (seen_family && !has_family) {
            out.errors += 1;
        }
        seen_family |= has_family;
    }
    // One more scrape once the run is over, outside the latency sample:
    // every sample has been delivered by now, so the family must be
    // there however few scrapes a short leg had time for.
    let (ok, has_family) = probe::scrape_once(addr, SCRAPE_FAMILY);
    if !(ok && has_family) {
        out.errors += 1;
    }
    out
}

/// Run `body` with the scraper thread alive for exactly its duration;
/// returns its raw samples.
fn scraped<T>(addr: &str, body: impl FnOnce() -> T) -> (T, Scrapes) {
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    std::thread::scope(|s| {
        let scraper = s.spawn(|| scrape_until(addr, start, &stop));
        let out = body();
        stop.store(true, Ordering::SeqCst);
        (out, scraper.join().expect("scraper thread panicked"))
    })
}

/// What the staged drive does with a leg's collected points — the body
/// of `ModelLifecycle::step` plus the final seal, call by call.
fn stage_points(
    archive: &mut Archive,
    points: &[TrainingPoint],
    trace: &[QuerySpan],
    seed: u64,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> u64 {
    let o = tr.begin("workloads.tag");
    let tagged = assign_templates(points, trace);
    tr.end(o);
    let mut appended = 0u64;
    let o = tr.begin("archive.append");
    for (p, template) in &tagged {
        if archive.append(p.to_sample(*template)).is_ok() {
            appended += 1;
        }
    }
    tr.end(o);
    checks.fail(
        tagged.len() as u64 - appended,
        "Archive::append returned an error",
    );
    let o = tr.begin("archive.flush");
    archive.flush().expect("flush");
    tr.end(o);
    let o = tr.begin("archive.compact");
    archive.maybe_compact().expect("compaction");
    tr.end(o);
    let mut registry = probe::fresh_registry(ModelKind::Forest, seed);
    probe::retrain(archive, &mut registry, tr, checks);
    let o = tr.begin("archive.seal");
    archive.seal().expect("seal");
    tr.end(o);
    appended
}

/// Where a leg's samples go.
enum Store {
    Lifecycle(Box<ModelLifecycle>),
    Staged(Archive),
    None,
}

/// The timed region of one leg; returns the run's stats and how many
/// samples it archived.
fn drive_leg(
    db: &mut Database,
    workload: &mut dyn Workload,
    opts: &RunOptions,
    store: &mut Store,
    seed: u64,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> (RunStats, u64) {
    if let Store::Lifecycle(lc) = store {
        let before = lc.archived_samples;
        let o = tr.begin("lifecycle.run");
        let stats = run_with_lifecycle(db, workload, opts, lc);
        tr.end(o);
        return (stats, lc.archived_samples - before);
    }
    let o = tr.begin("workloads.run");
    let stats = run(db, workload, opts);
    tr.end(o);
    let archived = match store {
        Store::Staged(archive) => {
            stage_points(archive, &stats.points, &stats.trace, seed, tr, checks)
        }
        _ => 0,
    };
    (stats, archived)
}

/// Run one pass of the mix in `dir` (created fresh, removed afterwards).
pub fn run_pass(spec: &MixSpec, seed: u64, dir: &Path, tr: &mut Tracer) -> MixPass {
    std::fs::remove_dir_all(dir).ok();
    let mut pass = MixPass::default();
    let root = tr.begin("pass");
    for leg in 0..2 {
        let o = tr.begin("setup");
        let (mut db, mut workload) = setup_leg(leg, spec.collect, seed, tr);
        let telemetry = db.kernel.telemetry.clone();
        let mut store = match spec.drive {
            Drive::Lifecycle => {
                Store::Lifecycle(Box::new(open_lifecycle(dir, seed, telemetry.clone(), tr)))
            }
            Drive::Staged => {
                let o = tr.begin("archive.open");
                let a = Archive::open(dir, ArchiveOptions::default(), telemetry.clone())
                    .expect("open archive directory");
                tr.end(o);
                Store::Staged(a)
            }
            Drive::RunOnly => Store::None,
        };
        let obsd = spec.scraped.then(|| {
            let o = tr.begin("obsd.start");
            let srv = probe::start_obsd(&telemetry);
            tr.end(o);
            srv
        });
        pass.setup_s += tr.end(o);

        let opts = RunOptions {
            terminals: TERMINALS,
            duration_ns: spec.leg_ns,
            seed: seed + leg as u64,
            ..RunOptions::default()
        };
        let o = tr.begin("timed");
        let mut drive = || {
            drive_leg(
                &mut db,
                workload.as_mut(),
                &opts,
                &mut store,
                seed,
                tr,
                &mut pass.checks,
            )
        };
        let ((stats, archived), live) = match &obsd {
            Some(srv) => scraped(&srv.addr().to_string(), drive),
            None => (drive(), Scrapes::default()),
        };
        pass.wall_s += tr.end(o);
        if let Some(srv) = obsd {
            srv.shutdown();
        }
        pass.scrapes.latency_ms.extend(live.latency_ms);
        pass.scrapes.late_ms.extend(live.late_ms);
        pass.scrapes.errors += live.errors;

        pass.committed += stats.committed;
        pass.archived += archived;
        if spec.drive != Drive::RunOnly {
            pass.checks
                .expect_eq("archived == points", archived, stats.points.len() as u64);
        }
        if let Some(ts) = db.tscout() {
            let loss = ts.loss_totals();
            pass.checks.expect_eq(
                "begun == delivered + lost",
                loss.begun,
                loss.delivered + loss.lost,
            );
            pass.checks.ok(loss.delivered);
            pass.checks.fail(loss.lost, "samples lost before delivery");
            pass.begun += loss.begun;
            pass.delivered += loss.delivered;
            pass.lost += loss.lost;
            pass.marker_events += ts.stats.marker_events;
        }
        pass.bytes_written += telemetry.counter_total("archive_bytes_written_total");
        pass.compactions += telemetry.counter_total("archive_segments_compacted_total");
        if leg == 1 {
            pass.telemetry = Some(telemetry);
        }
    }
    tr.end(root);

    if spec.probes {
        run_probes(spec, seed, dir, &mut pass, tr);
    }
    std::fs::remove_dir_all(dir).ok();
    pass
}

/// The post-pass probes on the sealed archive.
fn run_probes(spec: &MixSpec, seed: u64, dir: &Path, pass: &mut MixPass, tr: &mut Tracer) {
    if spec.collect == Collect::Rate(0) {
        pass.checks
            .expect_eq("rate 0 archives exactly 0 samples", pass.archived, 0);
    }
    let reopened = probe::reopen_and_verify(dir, pass.archived, tr, &mut pass.checks);
    if pass.archived > 0 {
        let mut registry = probe::fresh_registry(ModelKind::Forest, seed);
        let retrain = probe::retrain(&reopened.archive, &mut registry, tr, &mut pass.checks);
        pass.checks.expect_eq(
            "dataset points == archived",
            retrain.points as u64,
            pass.archived,
        );
        pass.retrain = Some(retrain);
        pass.registry = Some(registry);
    }
    if spec.scraped {
        let n = pass.scrapes.latency_ms.len() as u64;
        pass.checks.ok(n - pass.scrapes.errors.min(n));
        pass.checks.fail(
            pass.scrapes.errors,
            format!("live scrape not a 200 carrying {SCRAPE_FAMILY}"),
        );
    }
    pass.reopened = Some(reopened);
}
