//! Keep the README metric table honest.
//!
//! Default mode rewrites the block between `<!-- METRICS -->` and
//! `<!-- /METRICS -->` in the repo-root README.md from
//! [`tscout_telemetry::METRIC_DOCS`]. `--check` mode (run by ci.sh)
//! fails if the README block is stale, and then runs a small in-process
//! smoke workload — collector attached, lineage tracer sampling, model
//! lifecycle retraining, flight recorder exercised, virtual tables
//! queried — and fails if the run registers any metric name that
//! `METRIC_DOCS` does not document, or if a documented trace /
//! flight-recorder metric never registers (a stale doc entry). Together
//! the directions mean the README can neither miss a live metric nor
//! carry one the code no longer emits.

use tscout_actions::{ActionConfig, ActionEngine};
use tscout_archive::ArchiveOptions;
use tscout_bench::{attach_collect, new_db};
use tscout_kernel::HardwareProfile;
use tscout_models::ModelKind;
use tscout_telemetry::{is_documented, metric_table_markdown, Alert, HealthState, METRIC_DOCS};
use tscout_workloads::driver::{run_with_lifecycle, ModelLifecycle, RunOptions};
use tscout_workloads::{Workload, Ycsb};

const README: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
const BEGIN: &str = "<!-- METRICS -->";
const END: &str = "<!-- /METRICS -->";

/// Replace the marker block's interior with `table`, returning the new
/// README contents. Panics with a clear message if the markers are
/// missing or out of order — that is a repo defect, not a user error.
fn splice(readme: &str, table: &str) -> String {
    let begin = readme
        .find(BEGIN)
        .unwrap_or_else(|| panic!("README.md is missing the {BEGIN} marker"))
        + BEGIN.len();
    let end = readme
        .find(END)
        .unwrap_or_else(|| panic!("README.md is missing the {END} marker"));
    assert!(begin <= end, "README.md metric markers are out of order");
    format!("{}\n{}{}", &readme[..begin], table, &readme[end..])
}

/// Run a small end-to-end smoke — workload + collector + model
/// lifecycle + virtual-table introspection — and return every metric
/// name the run registered.
fn smoke_metric_names() -> Vec<String> {
    let dir = std::env::temp_dir().join(format!("metrics_doc_smoke_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let mut db = new_db(HardwareProfile::server_2x20(), 0xD0C5);
    let mut w = Ycsb::new(1_000);
    w.setup(&mut db);
    attach_collect(&mut db);
    // Sample lineage traces so every trace metric registers.
    db.kernel.telemetry.trace_set_every(16);
    let mut lc = ModelLifecycle::new(
        &dir,
        ArchiveOptions::default(),
        ModelKind::Ridge,
        5,
        30e6,
        db.kernel.telemetry.clone(),
    )
    .expect("cannot open smoke archive");
    // A dry-run action engine: every `tscout_action_*` metric registers
    // (the engine pre-declares them at zero) without actuating anything.
    lc = lc.with_actions(ActionEngine::new(
        ActionConfig {
            dry_run: true,
            ..Default::default()
        },
        db.kernel.telemetry.clone(),
    ));
    run_with_lifecycle(
        &mut db,
        &mut w,
        &RunOptions {
            terminals: 2,
            duration_ns: 120e6,
            seed: 0xD0C5,
            ..Default::default()
        },
        &mut lc,
    );
    // Touch the introspection path too, so its own counters register.
    let sid = db.create_session();
    for table in tscout_telemetry::TABLES {
        db.execute(sid, &format!("SELECT count(*) FROM {}", table.name), &[])
            .unwrap();
    }
    // And the query-observability path: EXPLAIN ANALYZE registers its
    // counter (statement stats registered during the driven run above).
    db.execute(sid, "EXPLAIN ANALYZE SELECT count(*) FROM usertable", &[])
        .unwrap();
    // Exercise the flight recorder with a synthetic CRITICAL transition
    // so its bundle counter registers (the bundle lands in the temp dir).
    db.kernel
        .telemetry
        .arm_flight_recorder(dir.clone(), "metrics_doc_smoke");
    db.kernel.telemetry.flight_record(
        1e9,
        &[Alert {
            seq: 0,
            at_ns: 1e9,
            rule: "smoke".into(),
            subsystem: "data".into(),
            target: String::new(),
            from: HealthState::Ok,
            to: HealthState::Critical,
            value: 1.0,
            threshold: 0.5,
        }],
        "",
    );
    // Operator plane: serve this registry for real and make requests so
    // every `tscout_obsd_*` self-metric registers live (the server keeps
    // them in its own registry — the simulation's stays untouched).
    let srv = tscout_obsd::ObsdServer::start(
        tscout_obsd::ObsdConfig::default(),
        db.kernel.telemetry.clone(),
    )
    .expect("cannot start smoke obsd server");
    let addr = srv.addr().to_string();
    tscout_obsd::client::get(&addr, "/metrics").expect("smoke scrape");
    tscout_obsd::client::get(&addr, "/no/such/path").expect("smoke 404");
    let mut names = db.kernel.telemetry.with_registry(|r| r.metric_names());
    names.extend(srv.self_telemetry().with_registry(|r| r.metric_names()));
    srv.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    names
}

pub fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let readme = std::fs::read_to_string(README).expect("cannot read README.md");
    let updated = splice(&readme, &metric_table_markdown());

    if !check {
        if updated == readme {
            println!("README.md metric table already up to date");
        } else {
            std::fs::write(README, &updated).expect("cannot write README.md");
            println!("README.md metric table rewritten");
        }
        return;
    }

    let mut failed = false;
    if updated != readme {
        eprintln!(
            "FAIL: README.md metric table is stale; \
             run `cargo run -p tscout-bench -- metrics_doc` and commit the diff"
        );
        failed = true;
    }
    let names = smoke_metric_names();
    let undocumented: Vec<&String> = names.iter().filter(|n| !is_documented(n)).collect();
    for name in &undocumented {
        eprintln!("FAIL: metric `{name}` is registered at runtime but not in METRIC_DOCS");
        failed = true;
    }
    // Stale direction for the tracing plane, the load-time optimizer,
    // and the action engine: every documented trace / flight-recorder /
    // optimizer / action metric must actually register during the
    // traced smoke — a renamed or removed metric fails here.
    let stale: Vec<&str> = METRIC_DOCS
        .iter()
        .map(|(n, _, _)| *n)
        .filter(|n| {
            n.starts_with("tscout_trace")
                || n.starts_with("ts_flightrec")
                || n.starts_with("tscout_opt")
                || n.starts_with("tscout_action")
                || n.starts_with("tscout_obsd")
        })
        .filter(|n| !names.iter().any(|have| have == n))
        .collect();
    for name in &stale {
        eprintln!("FAIL: trace metric `{name}` is in METRIC_DOCS but never registered at runtime");
        failed = true;
    }
    println!(
        "checked {} runtime metric names against METRIC_DOCS ({} undocumented, {} stale trace)",
        names.len(),
        undocumented.len(),
        stale.len()
    );
    if failed {
        std::process::exit(1);
    }
    println!("README.md metric table is current");
}
