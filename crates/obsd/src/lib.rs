//! # tscout-obsd — the operator plane
//!
//! An embedded observability daemon: a std-only HTTP/1.1 server over
//! [`std::net::TcpListener`] that exposes the live telemetry registry
//! of a running collection pipeline — OpenMetrics exposition, health
//! probes, JSON snapshots of the `ts_*` virtual tables, a read-only
//! SQL endpoint, and flight-recorder bundle access — plus the
//! `tscoutctl` client binary.
//!
//! ## The bit-identity contract
//!
//! The paper's accuracy story depends on collected samples being a
//! faithful record of the DBMS's work; an observer that perturbs the
//! observed timeline corrupts its own training data. The daemon
//! therefore follows the same discipline as the lineage tracer and the
//! action engine (PRs 6 and 9), strengthened for a real OS thread:
//!
//! - **Serving reads the live state in place, copying out only what it
//!   renders.** Every read happens under the simulation [`Registry`]'s
//!   one lock: `/metrics` captures its values into a buffer its worker
//!   keeps ([`Exposition`]); a table endpoint, and the one `ts_*` scan
//!   of a SQL query, build that table's rows; the probes and the
//!   flight-recorder endpoints copy out the health states / recorder
//!   target. Rendering happens after the lock is released. The
//!   simulation thread never blocks on request processing — only on
//!   that read, under the same lock it takes for any counter bump, and
//!   each request's hold is `tscout_obsd_registry_lock_ns`.
//! - **Nothing on the serving path touches a virtual clock.** Request
//!   handling runs on OS threads; the SQL endpoint executes against a
//!   *server-private* database whose kernel clocks and counters belong
//!   to nobody in the simulation.
//! - **Self-metrics live in a server-owned registry** (rendered into the
//!   same `/metrics` exposition), so the simulation registry
//!   — and every artifact dumped from it — is byte-identical with the
//!   server on or off.
//!
//! `tests/obsd_plane.rs` (repo root) enforces the contract end to end:
//! archived samples from a hammered run are byte-identical to a
//! server-off run, and serving every table and `ts_*` query leaves the
//! registry byte-identical.
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
// No `as` cast narrows a value and nothing unwraps or expects outside
// tests; test fixtures do as they like.
#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::unwrap_used,
        clippy::expect_used
    )
)]

pub mod client;
pub mod decls;
pub mod http;
pub mod json;

use std::borrow::Cow;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use noisetap::sql::ast::{Expr, Projection, SelectStmt, Stmt};
use noisetap::sql::parser::parse;
use noisetap::{Database, SessionId};
use tscout_kernel::{HardwareProfile, Kernel};
use tscout_telemetry::tables::rows_json;
use tscout_telemetry::{
    Cell, CounterSite, Exposition, HealthState, HistSite, Registry, Table, Telemetry, TABLES,
};

use crate::http::Request;

/// Listener configuration. The default binds an ephemeral localhost
/// port — fig binaries opt in via `TSCOUT_OBSD` (see the workload
/// driver) and discover the port through [`ObsdConfig::addr_file`].
#[derive(Debug, Clone)]
pub struct ObsdConfig {
    /// Bind address. On `EADDRINUSE` the server falls back to an
    /// ephemeral port on the same host instead of failing the run.
    pub addr: String,
    /// Worker threads serving parsed requests.
    pub workers: usize,
    /// Accepted connections waiting for a worker beyond the ones in
    /// flight; excess connections get an immediate 503 and count into
    /// `tscout_obsd_rejected_total`.
    pub max_pending: usize,
    /// Time a connection gets to deliver its whole request (head and
    /// body), ms.
    pub read_timeout_ms: u64,
    /// Per-connection write timeout, ms.
    pub write_timeout_ms: u64,
    /// If set, the bound address is written here on startup (ephemeral
    /// port discovery for scrape clients and CI).
    pub addr_file: Option<PathBuf>,
}

impl Default for ObsdConfig {
    fn default() -> Self {
        ObsdConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            max_pending: 32,
            read_timeout_ms: 2_000,
            write_timeout_ms: 2_000,
            addr_file: None,
        }
    }
}

/// State shared between the accept thread and the workers.
struct Shared {
    /// The simulation's live registry handle (locked once per request).
    sim: Telemetry,
    /// Server-owned self-metrics, rendered into `/metrics` beside it.
    self_tel: Telemetry,
    rejected: CounterSite,
    request_ns: HistSite,
    /// The server-private SQL plane.
    sql: Mutex<SqlPlane>,
}

/// A private `Database` whose virtual scans read the simulation's
/// registry in place — `ts_*` virtual tables flow through the normal
/// noisetap parser/planner/executor, but all execution cost and the
/// plane's own counters land on a kernel the simulation never reads.
struct SqlPlane {
    db: Database,
    sid: SessionId,
}

impl SqlPlane {
    fn new() -> SqlPlane {
        let mut db = Database::new(Kernel::new(HardwareProfile::server_2x20()));
        let sid = db.create_session();
        SqlPlane { db, sid }
    }
}

/// The running daemon. Dropping it (or calling [`ObsdServer::shutdown`])
/// stops the listener and joins every thread.
pub struct ObsdServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for ObsdServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsdServer")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish()
    }
}

fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panic on a serving path only loses one response, never server
    // liveness; recover rather than propagate poisoning.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ObsdServer {
    /// Bind and start serving `telemetry` in background threads.
    pub fn start(cfg: ObsdConfig, telemetry: Telemetry) -> io::Result<ObsdServer> {
        let listener = match TcpListener::bind(&cfg.addr) {
            Ok(l) => l,
            Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
                // Robustness satellite: a taken port degrades to an
                // ephemeral one on the same host, never a dead run.
                let host = cfg
                    .addr
                    .rsplit_once(':')
                    .map_or("127.0.0.1", |(host, _)| host);
                TcpListener::bind(format!("{host}:0"))?
            }
            Err(e) => return Err(e),
        };
        let addr = listener.local_addr()?;
        if let Some(f) = &cfg.addr_file {
            std::fs::write(f, addr.to_string())?;
        }
        let shared = Arc::new(Shared {
            sim: telemetry,
            self_tel: Telemetry::new(),
            rejected: decls::REJECTED.site(&[]),
            request_ns: decls::REQUEST_NS.site(&[]),
            sql: Mutex::new(SqlPlane::new()),
        });
        // Every `tscout_obsd_*` family is exported (at zero) from startup.
        let t = &shared.self_tel;
        decls::REQUESTS.with(t, &[("endpoint", "metrics")]);
        decls::ERRORS.with(t, &[("endpoint", "metrics")]);
        decls::REGISTRY_LOCK_NS.with(t, &[("endpoint", "metrics")]);
        shared.rejected.get(t);
        shared.request_ns.get(t);
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(cfg.max_pending);
        let rx = Arc::new(Mutex::new(rx));
        let workers: Vec<JoinHandle<()>> = (0..cfg.workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&rx, &shared))
            })
            .collect();
        let accept = {
            let stop = Arc::clone(&stop);
            let shared = Arc::clone(&shared);
            let cfg = cfg.clone();
            std::thread::spawn(move || accept_loop(&listener, &tx, &stop, &shared, &cfg))
        };
        Ok(ObsdServer {
            addr,
            stop,
            accept: Some(accept),
            workers,
            shared,
        })
    }

    /// The bound address (real port even when configured ephemeral).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server-owned registry holding `tscout_obsd_*` self-metrics.
    pub fn self_telemetry(&self) -> &Telemetry {
        &self.shared.self_tel
    }

    /// Stop accepting, drain in-flight requests, join every thread.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        if self.accept.is_none() {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept call with a throwaway connection.
        for _ in 0..3 {
            if TcpStream::connect(self.addr).is_ok() {
                break;
            }
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ObsdServer {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

fn accept_loop(
    listener: &TcpListener,
    tx: &SyncSender<TcpStream>,
    stop: &AtomicBool,
    shared: &Shared,
    cfg: &ObsdConfig,
) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            continue;
        };
        if stop.load(Ordering::SeqCst) {
            break;
        }
        stream
            .set_read_timeout(Some(Duration::from_millis(cfg.read_timeout_ms.max(1))))
            .ok();
        stream
            .set_write_timeout(Some(Duration::from_millis(cfg.write_timeout_ms.max(1))))
            .ok();
        stream.set_nodelay(true).ok();
        match tx.try_send(stream) {
            Ok(()) => {}
            Err(TrySendError::Full(mut s)) => {
                // Bounded concurrency: turn the connection away rather
                // than queue without limit behind a slow scrape.
                shared.rejected.get(&shared.self_tel).inc();
                let _ = http::write_response(&mut s, 503, "text/plain", b"busy\n");
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
}

/// What a worker keeps from one request to the next: the `/metrics`
/// layouts and the buffer its text is rendered into.
#[derive(Default)]
struct Worker {
    exposition: Exposition,
    text: String,
}

fn worker_loop(rx: &Arc<Mutex<Receiver<TcpStream>>>, shared: &Shared) {
    let mut worker = Worker::default();
    loop {
        let stream = {
            let guard = lock_recovering(rx);
            guard.recv()
        };
        match stream {
            Ok(mut s) => handle_connection(&mut s, shared, &mut worker),
            Err(_) => break, // sender dropped: shutdown
        }
    }
}

fn handle_connection(stream: &mut TcpStream, shared: &Shared, worker: &mut Worker) {
    let t0 = Instant::now();
    let mut panicked = false;
    let (endpoint, status, content_type, body) = match http::read_request(stream) {
        Err(e) => (
            "bad",
            400u16,
            "text/plain",
            format!("bad request: {e}\n").into_bytes().into(),
        ),
        Ok(req) => {
            let endpoint = endpoint_label(&req.path);
            // A handler panic must cost one response, not the server:
            // the listener keeps serving while the observed system (or
            // a handler edge case) misbehaves.
            let reborrow = &mut *worker;
            let handle = move || {
                // Moved, not reborrowed: the body may borrow the
                // worker's buffer past the closure.
                let worker = reborrow;
                route(&req, shared, worker)
            };
            match catch_unwind(AssertUnwindSafe(handle)) {
                Ok((status, content_type, body)) => (endpoint, status, content_type, body),
                Err(_) => {
                    panicked = true;
                    (
                        endpoint,
                        500,
                        "text/plain",
                        Cow::Borrowed(&b"internal error\n"[..]),
                    )
                }
            }
        }
    };
    let (t, labels) = (&shared.self_tel, [("endpoint", endpoint)]);
    decls::REQUESTS.with(t, &labels).inc();
    if status >= 400 {
        decls::ERRORS.with(t, &labels).inc();
    }
    // Wall-clock service time into the server-owned registry — the
    // simulation's virtual clocks are never involved.
    shared
        .request_ns
        .get(t)
        .record(t0.elapsed().as_nanos() as f64);
    let _ = http::write_response(stream, status, content_type, &body);
    if panicked {
        // It may have left a capture without its render.
        *worker = Worker::default();
    }
}

/// Low-cardinality endpoint label for self-metrics.
fn endpoint_label(path: &str) -> &'static str {
    match path {
        "/metrics" => "metrics",
        "/healthz" => "healthz",
        "/readyz" => "readyz",
        "/api/v1/sql" => "sql",
        "/api/v1/tables" => "tables",
        p if p.starts_with("/api/v1/flightrec") => "flightrec",
        p => api_table(p).map_or("other", |t| t.api_key),
    }
}

/// The `ts_*` table served at `path` (`/api/v1/<api_key>`), if any.
fn api_table(path: &str) -> Option<&'static Table> {
    let key = path.strip_prefix("/api/v1/")?;
    TABLES.iter().find(|t| t.api_key == key)
}

/// Status, content type and body; the body of `/metrics` is borrowed from
/// the worker's buffer.
type Response<'w> = (u16, &'static str, Cow<'w, [u8]>);

fn route<'w>(req: &Request, shared: &Shared, worker: &'w mut Worker) -> Response<'w> {
    if let Some(table) = api_table(&req.path) {
        if req.method != "GET" {
            return method_not_allowed();
        }
        let rows = with_sim(shared, table.api_key, |r| (table.rows)(r));
        let columns = table.columns.iter().map(|(name, _)| *name);
        let body = rows_json(Some(table.name), columns, &rows);
        return (200, "application/json", body.into_bytes().into());
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/metrics") => metrics_endpoint(shared, worker),
        ("GET", "/healthz") => health_endpoint(shared, false),
        ("GET", "/readyz") => health_endpoint(shared, true),
        ("POST", "/api/v1/sql") => sql_endpoint(req, shared),
        ("GET", "/api/v1/tables") => tables_endpoint(),
        ("GET", "/api/v1/flightrec") => flightrec_list(shared),
        ("GET", p) if p.starts_with("/api/v1/flightrec/") => {
            flightrec_fetch(shared, &p["/api/v1/flightrec/".len()..])
        }
        (_, "/metrics" | "/healthz" | "/readyz" | "/api/v1/sql" | "/api/v1/tables") => {
            method_not_allowed()
        }
        _ => (404, "text/plain", Cow::Borrowed(b"not found\n")),
    }
}

fn method_not_allowed() -> Response<'static> {
    (405, "text/plain", Cow::Borrowed(b"method not allowed\n"))
}

/// Run `f` on the simulation registry under its lock, and record the
/// wall-clock time from lock acquired to `f` done into
/// `tscout_obsd_registry_lock_ns{endpoint}`.
fn with_sim<T>(shared: &Shared, endpoint: &str, f: impl FnOnce(&Registry) -> T) -> T {
    let (out, held) = shared.sim.with_registry(|r| {
        let locked = Instant::now();
        let out = f(r);
        (out, locked.elapsed())
    });
    let labels = [("endpoint", endpoint)];
    let lock_ns = decls::REGISTRY_LOCK_NS.with(&shared.self_tel, &labels);
    lock_ns.record(held.as_nanos() as f64);
    out
}

/// Capture the self registry, then the simulation's, each under its own
/// lock; render both into the worker's buffer with neither held.
fn metrics_endpoint<'w>(shared: &Shared, worker: &'w mut Worker) -> Response<'w> {
    let Worker { exposition, text } = worker;
    shared.self_tel.with_registry(|r| exposition.capture(r));
    with_sim(shared, "metrics", |r| exposition.capture(r));
    text.clear();
    exposition.render(text);
    let content_type = "text/plain; version=0.0.4; charset=utf-8";
    (200, content_type, Cow::Borrowed(text.as_bytes()))
}

fn health_endpoint(shared: &Shared, ready: bool) -> Response<'static> {
    let states = shared.sim.with_registry(|r| r.health().subsystem_states());
    let worst = states.values().copied().max().unwrap_or(HealthState::Ok);
    let subsystems: Vec<String> = states
        .iter()
        .map(|(s, st)| format!("\"{}\":\"{}\"", json::escape(s), st.name()))
        .collect();
    let body = format!(
        "{{\"status\":\"{}\",\"subsystems\":{{{}}}}}",
        worst.name(),
        subsystems.join(",")
    );
    // Liveness (/healthz) reports state but stays 200 while serving;
    // readiness (/readyz) goes 503 when any subsystem is CRITICAL.
    let status = if ready && worst == HealthState::Critical {
        503
    } else {
        200
    };
    (status, "application/json", body.into_bytes().into())
}

/// `[{"name":...,"api_key":...,"columns":[...]},...]` — what this
/// server serves, so clients need no compiled-in table list.
fn tables_endpoint() -> Response<'static> {
    let tables: Vec<String> = TABLES
        .iter()
        .map(|t| {
            let columns: Vec<String> = t
                .columns
                .iter()
                .map(|(name, _)| format!("\"{name}\""))
                .collect();
            format!(
                "{{\"name\":\"{}\",\"api_key\":\"{}\",\"columns\":[{}]}}",
                t.name,
                t.api_key,
                columns.join(",")
            )
        })
        .collect();
    let body = format!("[{}]", tables.join(","));
    (200, "application/json", body.into_bytes().into())
}

fn sql_endpoint(req: &Request, shared: &Shared) -> Response<'static> {
    let err = |msg: &str| -> Response<'static> {
        (
            400,
            "application/json",
            format!("{{\"error\":\"{}\"}}", json::escape(msg))
                .into_bytes()
                .into(),
        )
    };
    let Ok(sql) = std::str::from_utf8(&req.body) else {
        return err("body is not UTF-8");
    };
    let sql = sql.trim();
    if sql.is_empty() {
        return err("empty query");
    }
    let stmt = match parse(sql) {
        Ok(s) => s,
        Err(e) => return err(&format!("parse error: {e}")),
    };
    let Stmt::Select(sel) = &stmt else {
        return err("read-only endpoint: only SELECT is accepted");
    };
    let names = projection_names(sel);
    // The planner refuses a JOIN with a `ts_*` table, so the query scans
    // one table once: one hold of the simulation's lock, one table's rows.
    let rows = |table: &Table| with_sim(shared, "sql", |r| (table.rows)(r));
    let mut plane = lock_recovering(&shared.sql);
    let sid = plane.sid;
    match plane.db.execute_readonly(sid, sel, &rows) {
        Ok(out) => {
            let rows: Vec<Vec<Cell>> = out
                .rows
                .iter()
                .map(|row| row.iter().map(Cell::from).collect())
                .collect();
            let body = rows_json(None, names.iter().map(String::as_str), &rows);
            (200, "application/json", body.into_bytes().into())
        }
        Err(e) => err(&e.to_string()),
    }
}

fn flightrec_list(shared: &Shared) -> Response<'static> {
    let Some((dir, fig)) = shared.sim.flight_recorder_target() else {
        return (
            200,
            "application/json",
            Cow::Borrowed(b"{\"armed\":false,\"bundles\":[]}"),
        );
    };
    let prefix = format!("flightrec_{fig}_");
    let mut bundles: Vec<(String, u64)> = std::fs::read_dir(&dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            let keep = name.starts_with(&prefix) && name.ends_with(".json");
            keep.then(|| (name, e.metadata().map_or(0, |m| m.len())))
        })
        .collect();
    bundles.sort();
    let rendered: Vec<String> = bundles
        .iter()
        .map(|(name, bytes)| format!("{{\"name\":\"{}\",\"bytes\":{bytes}}}", json::escape(name)))
        .collect();
    let body = format!(
        "{{\"armed\":true,\"dir\":\"{}\",\"fig\":\"{}\",\"bundles\":[{}]}}",
        json::escape(&dir.to_string_lossy()),
        json::escape(&fig),
        rendered.join(",")
    );
    (200, "application/json", body.into_bytes().into())
}

fn flightrec_fetch(shared: &Shared, name: &str) -> Response<'static> {
    // Only bare bundle file names: no separators, no traversal.
    let malformed = name.contains('/')
        || name.contains('\\')
        || name.contains("..")
        || !name.starts_with("flightrec_")
        || !name.ends_with(".json");
    if malformed {
        return (400, "text/plain", Cow::Borrowed(b"bad bundle name\n"));
    }
    let Some((dir, _)) = shared.sim.flight_recorder_target() else {
        return (
            404,
            "text/plain",
            Cow::Borrowed(b"flight recorder not armed\n"),
        );
    };
    match std::fs::read(dir.join(name)) {
        Ok(bytes) => (200, "application/json", bytes.into()),
        Err(_) => (404, "text/plain", Cow::Borrowed(b"no such bundle\n")),
    }
}

/// Output column names for a SELECT, matching executor row order. No
/// JOIN gets this far: the planner refuses any JOIN with a virtual
/// table, and the plane's database holds no other table.
fn projection_names(sel: &SelectStmt) -> Vec<String> {
    let mut out = Vec::new();
    for p in &sel.projections {
        match p {
            Projection::Star => match noisetap::stat::virtual_schema(&sel.from.name) {
                Some(schema) => out.extend(schema.columns.iter().map(|c| c.name.clone())),
                None => out.push("*".to_string()),
            },
            Projection::Expr(e) => out.push(expr_name(e)),
        }
    }
    out
}

fn expr_name(e: &Expr) -> String {
    match e {
        Expr::Column(_, c) => c.clone(),
        Expr::Agg(f, col) => format!("{}({})", f.name(), col.as_deref().unwrap_or("*")),
        Expr::Literal(v) => v.to_string(),
        Expr::Param(i) => format!("${}", i + 1),
        Expr::Binary(..) => "expr".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::io::Write;
    use tscout_telemetry::{Rule, Selector};

    fn start_default(t: &Telemetry) -> ObsdServer {
        ObsdServer::start(ObsdConfig::default(), t.clone()).expect("bind ephemeral")
    }

    fn populated_telemetry() -> Telemetry {
        let t = Telemetry::new();
        t.counter("tscout_samples_begun_total", &[("subsystem", "ee")])
            .add(42);
        t.counter("tscout_samples_delivered_total", &[("subsystem", "ee")])
            .add(40);
        t.gauge("tscout_overhead_ratio", &[]).set(0.004);
        for v in [1e3, 2e3, 5e4, 1e6] {
            t.hist("workload_txn_ns", &[("outcome", "committed")])
                .record(v);
        }
        t
    }

    #[test]
    fn serves_metrics_health_and_tables() {
        let t = populated_telemetry();
        let srv = start_default(&t);
        let addr = srv.addr().to_string();

        let (status, body) = client::get(&addr, "/metrics").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("tscout_samples_begun_total{subsystem=\"ee\"} 42"));
        assert!(body.contains("# TYPE workload_txn_ns histogram"));
        assert!(body.contains("le=\"+Inf\""));
        // Self-metrics ride along in the same exposition.
        assert!(body.contains("# TYPE tscout_obsd_requests_total counter"));

        let (status, body) = client::get(&addr, "/healthz").unwrap();
        assert_eq!(status, 200);
        let health = Json::parse(&body).unwrap();
        assert_eq!(health.get("status").unwrap().as_str(), Some("OK"));
        assert_eq!(client::get(&addr, "/readyz").unwrap().0, 200);

        // Every declared table is served under its api_key, and the
        // catalog endpoint lists exactly those.
        let (status, body) = client::get(&addr, "/api/v1/tables").unwrap();
        assert_eq!(status, 200);
        let catalog = Json::parse(&body).unwrap();
        let catalog = catalog.as_arr().unwrap();
        assert_eq!(catalog.len(), TABLES.len());
        for (entry, table) in catalog.iter().zip(TABLES) {
            assert_eq!(entry.get("name").unwrap().as_str(), Some(table.name));
            let key = entry.get("api_key").unwrap().as_str().unwrap();
            assert_eq!(key, table.api_key);
            let (status, body) = client::get(&addr, &format!("/api/v1/{key}")).unwrap();
            assert_eq!(status, 200, "{key}");
            let doc = Json::parse(&body).unwrap_or_else(|e| panic!("{key}: {e}\n{body}"));
            assert_eq!(doc.get("table").unwrap().as_str(), Some(table.name));
            assert_eq!(doc.get("columns"), entry.get("columns"), "{key}");
        }

        // A second scrape sees the first scrape's self-metrics move.
        let (_, body) = client::get(&addr, "/metrics").unwrap();
        assert!(
            body.contains("tscout_obsd_requests_total{endpoint=\"metrics\"} "),
            "{body}"
        );
        srv.shutdown();
    }

    #[test]
    fn sql_endpoint_is_select_only() {
        let t = populated_telemetry();
        let srv = start_default(&t);
        let addr = srv.addr().to_string();

        let (status, body) = client::post(
            &addr,
            "/api/v1/sql",
            "SELECT count(*) FROM ts_stat_subsystem",
        )
        .unwrap();
        assert_eq!(status, 200, "{body}");
        let doc = Json::parse(&body).unwrap();
        assert_eq!(
            doc.get("columns").unwrap().as_arr().unwrap()[0].as_str(),
            Some("count(*)")
        );
        assert_eq!(doc.get("rows").unwrap().as_arr().unwrap().len(), 1);

        // Projection columns come back named and in order.
        let (status, body) = client::post(
            &addr,
            "/api/v1/sql",
            "SELECT subsystem, samples FROM ts_stat_ou ORDER BY samples DESC",
        )
        .unwrap();
        assert_eq!(status, 200, "{body}");
        let doc = Json::parse(&body).unwrap();
        let cols: Vec<&str> = doc
            .get("columns")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|c| c.as_str().unwrap())
            .collect();
        assert_eq!(cols, ["subsystem", "samples"]);

        // DML/DDL/txn-control all bounce with 400, never execute.
        for bad in [
            "INSERT INTO ts_alerts VALUES (1)",
            "UPDATE ts_stat_ou SET samples = 0",
            "DELETE FROM ts_stat_ou",
            "CREATE TABLE t (a INT)",
            "BEGIN",
            "EXPLAIN ANALYZE SELECT count(*) FROM ts_stat_ou",
            "SELECT * FROM ts_stat_ou FOR UPDATE",
            "not sql at all",
            "SELECT * FROM no_such_table",
        ] {
            let (status, body) = client::post(&addr, "/api/v1/sql", bad).unwrap();
            assert_eq!(status, 400, "{bad} -> {body}");
            assert!(Json::parse(&body).unwrap().get("error").is_some(), "{bad}");
        }
        // GET on the SQL endpoint is a method error, not a crash.
        assert_eq!(client::get(&addr, "/api/v1/sql").unwrap().0, 405);
        assert_eq!(client::get(&addr, "/api/v1/nope").unwrap().0, 404);
        srv.shutdown();
    }

    #[test]
    fn malformed_requests_get_400_and_server_survives() {
        let t = Telemetry::new();
        let srv = start_default(&t);
        let addr = srv.addr().to_string();
        // A head past MAX_HEAD whose terminator arrives in the very read
        // that crosses the limit.
        let long_head = format!(
            "GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(http::MAX_HEAD + 300)
        );
        for garbage in [
            "GARBAGE\r\n\r\n",
            "GET\r\n\r\n",
            "GET /metrics SPDY/9\r\n\r\n",
            "GET metrics HTTP/1.1\r\n\r\n",
            "POST /api/v1/sql HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
            long_head.as_str(),
        ] {
            let mut s = TcpStream::connect(&addr).unwrap();
            s.write_all(garbage.as_bytes()).unwrap();
            let mut out = String::new();
            use std::io::Read;
            s.read_to_string(&mut out).unwrap();
            assert!(out.starts_with("HTTP/1.1 400"), "{garbage:?} -> {out}");
        }
        // Still serving afterwards.
        assert_eq!(client::get(&addr, "/healthz").unwrap().0, 200);
        assert!(
            srv.self_telemetry()
                .counter_total("tscout_obsd_errors_total")
                >= 6
        );
        srv.shutdown();
        // Graceful shutdown: the port stops accepting.
        assert!(client::get(&addr, "/healthz").is_err());
    }

    #[test]
    fn serves_while_health_is_critical() {
        // BugForge-style satellite: the endpoint must stay correct while
        // the system it observes degrades to CRITICAL.
        let t = Telemetry::new();
        t.with_registry(|r| {
            r.gauge("bad_signal", &[]).set(10.0);
            r.health_mut().add_rule(Rule {
                name: "bad_signal_high".to_string(),
                subsystem: "data".to_string(),
                selector: Selector::Gauge("bad_signal".to_string()),
                per_label: None,
                warn: 1.0,
                crit: 5.0,
                raise_ticks: 1,
                clear_ticks: 2,
            });
        });
        for i in 1..=3 {
            t.observability_tick(f64::from(i) * 1e9);
        }
        let srv = start_default(&t);
        let addr = srv.addr().to_string();

        let (status, body) = client::get(&addr, "/healthz").unwrap();
        assert_eq!(status, 200, "liveness stays 200 under CRITICAL");
        let doc = Json::parse(&body).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("CRITICAL"));

        let (status, _) = client::get(&addr, "/readyz").unwrap();
        assert_eq!(status, 503, "readiness trips under CRITICAL");

        // Scrapes and queries keep flowing.
        assert_eq!(client::get(&addr, "/metrics").unwrap().0, 200);
        let (status, body) = client::post(&addr, "/api/v1/sql", "SELECT * FROM ts_alerts").unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(!Json::parse(&body)
            .unwrap()
            .get("rows")
            .unwrap()
            .as_arr()
            .unwrap()
            .is_empty());
        srv.shutdown();
    }

    #[test]
    fn connection_bound_rejects_with_503() {
        let t = Telemetry::new();
        let cfg = ObsdConfig {
            workers: 1,
            max_pending: 0,
            read_timeout_ms: 400,
            ..Default::default()
        };
        let srv = ObsdServer::start(cfg, t).unwrap();
        let addr = srv.addr().to_string();
        // Occupy the only worker with a half-open request (it blocks in
        // read until the timeout). With capacity 0 a connection is only
        // handed to a worker already waiting in `recv`, so a hog that
        // arrives before the worker got there is bounced too: retry
        // until one is held, i.e. gets no response.
        let hog = loop {
            use std::io::Read;
            let mut s = TcpStream::connect(&addr).unwrap();
            s.write_all(b"GET /metrics HTTP/1.1\r\n").unwrap();
            s.set_read_timeout(Some(Duration::from_millis(100)))
                .unwrap();
            if s.read(&mut [0u8; 1]).is_err() {
                break s;
            }
        };
        // The next connection cannot be queued (capacity 0) and bounces.
        let (status, _) = client::get(&addr, "/healthz").unwrap_or((503, String::new()));
        assert_eq!(status, 503);
        assert!(
            srv.self_telemetry()
                .counter_total("tscout_obsd_rejected_total")
                >= 1
        );
        drop(hog);
        // After the hog times out the worker frees up and serving resumes.
        std::thread::sleep(Duration::from_millis(500));
        assert_eq!(client::get(&addr, "/healthz").unwrap().0, 200);
        srv.shutdown();
    }

    #[test]
    fn a_dripping_client_is_cut_off_at_the_request_deadline() {
        use std::io::Read;
        use std::time::Instant;
        const TIMEOUT_MS: u64 = 300;
        let cfg = ObsdConfig {
            workers: 1,
            read_timeout_ms: TIMEOUT_MS,
            ..Default::default()
        };
        let srv = ObsdServer::start(cfg, Telemetry::new()).unwrap();
        let addr = srv.addr().to_string();
        // One byte of a never-finished head per 100 ms: every single read
        // succeeds well inside the timeout, the request never completes.
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let dripper = std::thread::spawn({
            let addr = addr.clone();
            move || {
                let mut s = TcpStream::connect(&addr).unwrap();
                let wait = Duration::from_millis(100);
                s.set_read_timeout(Some(wait)).unwrap();
                let (t0, mut answer) = (Instant::now(), [0u8; 12]);
                for byte in [b"GET /metrics HTTP/1.1\r\nX-Slow: ", &[b'a'; 40][..]].concat() {
                    if s.write_all(&[byte]).is_err() {
                        break;
                    }
                    started_tx.send(()).ok();
                    // The wait between drips is a read: the server's
                    // answer (or its close) ends the drip.
                    if s.read(&mut answer).is_ok() {
                        break;
                    }
                }
                (t0.elapsed(), answer)
            }
        });
        // With the only worker held by the dripper, a well-behaved probe
        // waits for the deadline to free it — not for the drip to end.
        started_rx.recv().expect("dripper connected");
        let probed = Instant::now();
        assert_eq!(client::get(&addr, "/healthz").unwrap().0, 200);
        let waited = probed.elapsed();
        assert!(
            waited < Duration::from_millis(3 * TIMEOUT_MS),
            "/healthz waited {waited:?}"
        );
        let (held, answer) = dripper.join().expect("dripper thread");
        assert!(
            held < Duration::from_millis(2 * TIMEOUT_MS + 200),
            "the dripper held a worker for {held:?} (deadline {TIMEOUT_MS} ms)"
        );
        assert_eq!(&answer, b"HTTP/1.1 400");
        srv.shutdown();
    }

    #[test]
    fn addr_in_use_falls_back_to_ephemeral() {
        let t = Telemetry::new();
        let first = start_default(&t);
        let cfg = ObsdConfig {
            addr: first.addr().to_string(),
            ..Default::default()
        };
        let second = ObsdServer::start(cfg, t).unwrap();
        assert_ne!(first.addr(), second.addr());
        assert_eq!(
            client::get(&first.addr().to_string(), "/healthz")
                .unwrap()
                .0,
            200
        );
        assert_eq!(
            client::get(&second.addr().to_string(), "/healthz")
                .unwrap()
                .0,
            200
        );
        second.shutdown();
        first.shutdown();
    }

    #[test]
    fn flightrec_endpoints_list_and_fetch_bundles() {
        let dir = std::env::temp_dir().join(format!("obsd_flightrec_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let t = populated_telemetry();
        t.arm_flight_recorder(dir.clone(), "obsd_test");
        let exposed = t.to_prometheus();
        t.flight_record(
            1e9,
            &[tscout_telemetry::Alert {
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
        )
        .expect("bundle written");
        let srv = start_default(&t);
        let addr = srv.addr().to_string();

        let (status, body) = client::get(&addr, "/api/v1/flightrec").unwrap();
        assert_eq!(status, 200);
        let doc = Json::parse(&body).unwrap();
        assert_eq!(doc.get("armed"), Some(&Json::Bool(true)));
        let bundles = doc.get("bundles").unwrap().as_arr().unwrap();
        assert_eq!(bundles.len(), 1);
        let name = bundles[0]
            .get("name")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        assert!(name.starts_with("flightrec_obsd_test_"));

        let (status, body) = client::get(&addr, &format!("/api/v1/flightrec/{name}")).unwrap();
        assert_eq!(status, 200);
        let bundle = Json::parse(&body).unwrap_or_else(|e| panic!("bundle is JSON ({e}): {body}"));
        // The bundle's metrics are a table like everything else in it:
        // `ts_metrics` holds exactly the series `/metrics` exposed at
        // the instant of the dump.
        assert!(bundle.get("metrics").is_none());
        let series = bundle.get("tables").and_then(|t| t.get("ts_metrics"));
        let series = series.expect("bundle carries ts_metrics");
        let column = |name: &str| series.column(name).unwrap();
        let lines: Vec<String> = (0..column("name").len())
            .map(|i| {
                let cell = |name: &str| column(name)[i].display();
                let (suffix, value) = match cell("kind").as_str() {
                    "histogram" => ("_count", cell("count")),
                    _ => ("", cell("value")),
                };
                format!("{}{suffix}{} {value}", cell("name"), cell("labels"))
            })
            .collect();
        let exposed: Vec<&str> = exposed
            .lines()
            .filter(|l| !(l.starts_with('#') || l.contains("_bucket{") || l.contains("_sum{")))
            .collect();
        assert_eq!(lines, exposed);

        // Traversal and junk names never leave the armed directory.
        for bad in [
            "/api/v1/flightrec/../secrets.json",
            "/api/v1/flightrec/flightrec_obsd_test_..%2F.json",
            "/api/v1/flightrec/notabundle.json",
        ] {
            let (status, _) = client::get(&addr, bad).unwrap();
            assert!(status == 400 || status == 404, "{bad} -> {status}");
        }
        let (status, _) =
            client::get(&addr, "/api/v1/flightrec/flightrec_obsd_test_99.json").unwrap();
        assert_eq!(status, 404);
        srv.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unarmed_flightrec_lists_empty() {
        let t = Telemetry::new();
        let srv = start_default(&t);
        let (status, body) = client::get(&srv.addr().to_string(), "/api/v1/flightrec").unwrap();
        assert_eq!(status, 200);
        let doc = Json::parse(&body).unwrap();
        assert_eq!(doc.get("armed"), Some(&Json::Bool(false)));
        srv.shutdown();
    }
}
