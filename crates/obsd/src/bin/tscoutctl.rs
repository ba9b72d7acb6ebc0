//! `tscoutctl` — operator CLI for the tscout-obsd daemon.
//!
//! ```text
//! tscoutctl [--addr HOST:PORT | --addr-file PATH] COMMAND
//!
//! Commands:
//!   top [--interval-ms N] [--iterations N]   per-OU sample-rate view
//!   stat TABLE                                dump one ts_* virtual table
//!   tail-alerts [-n N]                        most recent health transitions
//!   sql QUERY                                 run a read-only SELECT
//!   health                                    subsystem health summary
//! ```
//!
//! The address defaults to `$TSCOUT_OBSD_ADDR`, then the contents of
//! `$TSCOUT_OBSD_ADDR_FILE` (what the workload driver writes when a fig
//! binary starts the daemon on an ephemeral port).

use std::collections::BTreeMap;
use std::process::ExitCode;

use tscout_obsd::client;
use tscout_obsd::json::Json;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tscoutctl: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut addr: Option<String> = None;
    let mut rest: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => {
                addr = Some(it.next().ok_or("--addr needs a value")?.clone());
            }
            "--addr-file" => {
                let path = it.next().ok_or("--addr-file needs a value")?;
                let text =
                    std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
                addr = Some(text.trim().to_string());
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(());
            }
            other => rest.push(other),
        }
    }
    let addr = addr
        .or_else(|| {
            std::env::var("TSCOUT_OBSD_ADDR")
                .ok()
                .filter(|s| !s.is_empty())
        })
        .or_else(|| {
            let f = std::env::var("TSCOUT_OBSD_ADDR_FILE").ok()?;
            Some(std::fs::read_to_string(f).ok()?.trim().to_string())
        })
        .ok_or("no address: pass --addr, --addr-file, or set TSCOUT_OBSD_ADDR")?;

    match rest.split_first() {
        Some((&"top", opts)) => top(&addr, opts),
        Some((&"stat", [table])) => stat(&addr, table),
        Some((&"tail-alerts", opts)) => tail_alerts(&addr, opts),
        Some((&"sql", [query])) => sql(&addr, query),
        Some((&"health", [])) => health(&addr),
        _ => {
            print!("{USAGE}");
            Err("unknown or incomplete command".into())
        }
    }
}

const USAGE: &str = "usage: tscoutctl [--addr HOST:PORT | --addr-file PATH] COMMAND
commands:
  top [--interval-ms N] [--iterations N]   per-OU sample-rate view
  stat TABLE                               dump one ts_* virtual table
  tail-alerts [-n N]                       most recent health transitions
  sql QUERY                                run a read-only SELECT
  health                                   subsystem health summary
";

/// Fetch a JSON endpoint and parse, folding HTTP errors into Err.
fn fetch(addr: &str, path: &str) -> Result<Json, String> {
    let (status, body) = client::get(addr, path)?;
    if status != 200 {
        return Err(format!("GET {path}: HTTP {status}: {}", body.trim()));
    }
    Json::parse(&body).map_err(|e| format!("GET {path}: bad JSON: {e}"))
}

/// `{"columns":[...],"rows":[[...]]}` → (headers, display cells).
fn tabulate(doc: &Json) -> Result<(Vec<String>, Vec<Vec<String>>), String> {
    let columns = doc
        .get("columns")
        .and_then(Json::as_arr)
        .ok_or("response has no columns")?;
    let headers: Vec<String> = columns
        .iter()
        .map(|c| c.as_str().unwrap_or("?").to_string())
        .collect();
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("response has no rows")?;
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            r.as_arr()
                .unwrap_or_default()
                .iter()
                .map(Json::display)
                .collect()
        })
        .collect();
    Ok((headers, cells))
}

/// Render a plain-text table with per-column widths.
fn print_table(headers: &[String], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let rendered: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:<w$}", w = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("{}", rendered.join("  ").trim_end());
    };
    line(headers);
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    line(&rule);
    for row in rows {
        line(row);
    }
}

fn stat(addr: &str, table: &str) -> Result<(), String> {
    // The server says what it serves; accept both the API key ("ou")
    // and the SQL name ("ts_stat_ou").
    let catalog = fetch(addr, "/api/v1/tables")?;
    let served: Vec<(&str, &str)> = catalog
        .as_arr()
        .unwrap_or_default()
        .iter()
        .filter_map(|t| Some((t.get("name")?.as_str()?, t.get("api_key")?.as_str()?)))
        .collect();
    let (_, key) = served
        .iter()
        .find(|(name, key)| *name == table || *key == table)
        .ok_or_else(|| {
            let names: Vec<&str> = served.iter().map(|(name, _)| *name).collect();
            format!("unknown table {table:?}; one of: {}", names.join(", "))
        })?;
    let doc = fetch(addr, &format!("/api/v1/{key}"))?;
    let (headers, rows) = tabulate(&doc)?;
    print_table(&headers, &rows);
    println!("({} rows)", rows.len());
    Ok(())
}

fn sql(addr: &str, query: &str) -> Result<(), String> {
    let (status, body) = client::post(addr, "/api/v1/sql", query)?;
    let doc = Json::parse(&body).map_err(|e| format!("bad JSON: {e}"))?;
    if status != 200 {
        let msg = doc
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("unknown error");
        return Err(format!("HTTP {status}: {msg}"));
    }
    let (headers, rows) = tabulate(&doc)?;
    print_table(&headers, &rows);
    println!("({} rows)", rows.len());
    Ok(())
}

fn tail_alerts(addr: &str, opts: &[&str]) -> Result<(), String> {
    let mut n = 20usize;
    let mut it = opts.iter();
    while let Some(o) = it.next() {
        if *o == "-n" {
            n = it
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or("-n needs a number")?;
        }
    }
    let doc = fetch(addr, "/api/v1/alerts")?;
    let (headers, rows) = tabulate(&doc)?;
    let start = rows.len().saturating_sub(n);
    print_table(&headers, &rows[start..]);
    println!("({} of {} alerts)", rows.len() - start, rows.len());
    Ok(())
}

fn health(addr: &str) -> Result<(), String> {
    let (status, body) = client::get(addr, "/readyz")?;
    let doc = Json::parse(&body).map_err(|e| format!("bad JSON: {e}"))?;
    let overall = doc
        .get("status")
        .and_then(Json::as_str)
        .unwrap_or("UNKNOWN");
    println!("overall: {overall} (readyz HTTP {status})");
    if let Some(Json::Obj(subsystems)) = doc.get("subsystems") {
        for (name, st) in subsystems {
            println!("  {name:<16} {}", st.display());
        }
    }
    Ok(())
}

/// One `top` snapshot: per-OU cumulative sample count keyed by OU name,
/// plus the display row for everything except the rate column.
type OuSnapshot = (BTreeMap<String, f64>, Vec<Vec<String>>);

fn ou_snapshot(addr: &str) -> Result<OuSnapshot, String> {
    let doc = fetch(addr, "/api/v1/ou")?;
    let columns = doc
        .get("columns")
        .and_then(Json::as_arr)
        .ok_or("no columns")?;
    let idx = |name: &str| -> Result<usize, String> {
        columns
            .iter()
            .position(|c| c.as_str() == Some(name))
            .ok_or_else(|| format!("ts_stat_ou has no column {name}"))
    };
    let (i_ou, i_sub, i_samples, i_mean, i_p99, i_drift, i_health) = (
        idx("ou")?,
        idx("subsystem")?,
        idx("samples")?,
        idx("target_mean_ns")?,
        idx("target_p99_ns")?,
        idx("drift_score")?,
        idx("health")?,
    );
    let mut counts = BTreeMap::new();
    let mut rows = Vec::new();
    for r in doc.get("rows").and_then(Json::as_arr).unwrap_or_default() {
        let cells = r.as_arr().unwrap_or_default();
        let cell = |i: usize| cells.get(i).map_or_else(String::new, Json::display);
        let ou = cell(i_ou);
        let samples = cells.get(i_samples).and_then(Json::as_f64).unwrap_or(0.0);
        counts.insert(ou.clone(), samples);
        rows.push(vec![
            ou,
            cell(i_sub),
            cell(i_samples),
            cell(i_mean),
            cell(i_p99),
            cell(i_drift),
            cell(i_health),
        ]);
    }
    Ok((counts, rows))
}

fn top(addr: &str, opts: &[&str]) -> Result<(), String> {
    let mut interval_ms = 1_000u64;
    let mut iterations = u64::MAX;
    let mut it = opts.iter();
    while let Some(o) = it.next() {
        match *o {
            "--interval-ms" => {
                interval_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--interval-ms needs a number")?;
            }
            "--once" => iterations = 1,
            "--iterations" => {
                iterations = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--iterations needs a number")?;
            }
            other => return Err(format!("unknown top option {other:?}")),
        }
    }
    let headers: Vec<String> = [
        "ou",
        "subsystem",
        "samples",
        "samples/s",
        "mean_ns",
        "p99_ns",
        "drift",
        "health",
    ]
    .iter()
    .map(ToString::to_string)
    .collect();
    let (mut prev, _) = ou_snapshot(addr)?;
    for i in 0..iterations {
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(1)));
        let (counts, rows) = ou_snapshot(addr)?;
        // Wall-clock sample arrival rate since the previous snapshot.
        let dt_s = interval_ms as f64 / 1_000.0;
        let display: Vec<Vec<String>> = rows
            .into_iter()
            .map(|r| {
                let ou = r[0].clone();
                let rate = (counts.get(&ou).unwrap_or(&0.0) - prev.get(&ou).unwrap_or(&0.0)) / dt_s;
                vec![
                    r[0].clone(),
                    r[1].clone(),
                    r[2].clone(),
                    format!("{rate:.1}"),
                    r[3].clone(),
                    r[4].clone(),
                    r[5].clone(),
                    r[6].clone(),
                ]
            })
            .collect();
        if iterations != 1 {
            println!("--- tick {} ---", i + 1);
        }
        print_table(&headers, &display);
        prev = counts;
    }
    Ok(())
}
