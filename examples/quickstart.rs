//! Quickstart: deploy TScout on the NoiseTap DBMS, run some SQL, and
//! inspect the training data it collects.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use tscout_suite::kernel::{HardwareProfile, Kernel};
use tscout_suite::noisetap::{Database, Value};
use tscout_suite::tscout::{CollectionMode, Subsystem, TsConfig, ALL_SUBSYSTEMS};

fn main() {
    // 1. A DBMS on simulated server hardware.
    let mut db = Database::new(Kernel::new(HardwareProfile::server_2x20()));
    let sid = db.create_session();
    db.execute(
        sid,
        "CREATE TABLE orders (id INT PRIMARY KEY, customer INT, total FLOAT)",
        &[],
    )
    .unwrap();
    db.execute(
        sid,
        "CREATE INDEX orders_customer ON orders (customer)",
        &[],
    )
    .unwrap();
    for i in 0..5_000 {
        db.execute(
            sid,
            "INSERT INTO orders VALUES ($1, $2, $3)",
            &[
                Value::Int(i),
                Value::Int(i % 100),
                Value::Float((i % 977) as f64),
            ],
        )
        .unwrap();
    }

    // 2. Setup Phase: deploy TScout. This code-generates the Collector
    //    BPF programs, runs them through the verifier, and attaches them
    //    to the marker tracepoints — exactly the paper's Fig. 3 flow.
    let mut config = TsConfig::new(CollectionMode::KernelContinuous);
    config.enable_all_subsystems();
    db.attach_tscout(config).expect("deploy failed");
    for s in ALL_SUBSYSTEMS {
        db.tscout_mut().unwrap().set_sampling_rate(s, 100);
    }

    // 3. Runtime Phase: execute queries as client requests.
    let point = db
        .prepare("SELECT total FROM orders WHERE id = $1")
        .unwrap();
    let by_customer = db
        .prepare("SELECT count(*), sum(total) FROM orders WHERE customer = $1")
        .unwrap();
    let pay = db
        .prepare("UPDATE orders SET total = total + $2 WHERE id = $1")
        .unwrap();
    for i in 0..200 {
        db.client_request(sid, point, &[Value::Int(i * 13 % 5000)])
            .unwrap();
        db.client_request(sid, by_customer, &[Value::Int(i % 100)])
            .unwrap();
        db.client_request(sid, pay, &[Value::Int(i), Value::Float(1.0)])
            .unwrap();
    }
    // Flush the WAL so the log-serializer and disk-writer OUs fire too.
    let horizon = db.now(sid) + 1e9;
    db.pump_wal(horizon);

    // 4. Inspect the training data.
    let ts = db.tscout_mut().unwrap();
    println!(
        "marker events: {}   samples emitted: {}   BPF instructions interpreted: {}",
        ts.stats.marker_events, ts.stats.samples_emitted, ts.stats.bpf_insns
    );
    let points = ts.drain_decoded();
    println!("decoded {} training points; a few examples:", points.len());
    // A point carries its subsystem as `Subsystem::index()`.
    let subsystem = |i: u8| Subsystem::from_index(usize::from(i)).unwrap();
    let mut seen = std::collections::BTreeSet::new();
    for p in &points {
        if seen.insert(p.ou_name.clone()) {
            println!(
                "  [{:>16}] subsystem={:<16} elapsed={:>7} ns features={:?} cpu_instructions={}",
                p.ou_name,
                subsystem(p.subsystem).to_string(),
                p.elapsed_ns,
                p.features,
                p.metrics.get(1).copied().unwrap_or(0),
            );
        }
    }
    let subsystems: std::collections::BTreeSet<_> =
        points.iter().map(|p| subsystem(p.subsystem)).collect();
    println!("subsystems covered: {subsystems:?}");
    assert!(subsystems.contains(&Subsystem::ExecutionEngine));
    assert!(subsystems.contains(&Subsystem::LogSerializer));
}
