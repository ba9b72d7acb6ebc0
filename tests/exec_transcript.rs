//! A transcript of NoiseTap's executor, pinned byte for byte.
//!
//! Every YCSB, TPC-C and CH-benCHmark statement template, `ts_*`
//! introspection queries, and statements that fail inside an operator
//! (a Filter residual, a Project, a join key, a probe residual, an UPDATE
//! `SET`, a write conflict, ...) run on a seeded database with TScout
//! sampling every subsystem at 100 % and no clock noise, once per
//! [`EngineMode`]. For each statement the transcript holds its rows or
//! its error, the `EXPLAIN ANALYZE` lines of the same statement run on a
//! twin database that executes the same stream, and every training point
//! the statement produced (OU, features, metrics, user metrics, start and
//! elapsed ns). The accounting identity closes each mode.
//!
//! The golden was written by the materialising executor that the push
//! executor replaced: it stands in for that executor as the oracle, so a
//! change to how rows move between operators must leave it byte-identical.
//! Only its error cases have moved since, when an OU an error stops began
//! to finish with the features counted so far. On a mismatch the test writes what it produced to
//! `<temp dir>/exec_transcript_seed42.txt`; copy that over the golden only
//! for an intended change of what the executor computes or charges.

use std::fmt::Write as _;

use tscout_suite::archive::crc32;
use tscout_suite::kernel::{HardwareProfile, Kernel};
use tscout_suite::noisetap::{Database, EngineMode, SessionId, Value};
use tscout_suite::tscout::{CollectionMode, Processor, Sink, TsConfig, ALL_SUBSYSTEMS};
use tscout_suite::workloads::{ChBenchmark, Workload, Ycsb};

const SEED: u64 = 42;

/// A row longer than this renders as its length and `crc32`.
const ROW_CHARS: usize = 160;

fn i(v: i64) -> Value {
    Value::Int(v)
}

fn f(v: f64) -> Value {
    Value::Float(v)
}

fn t(s: &str) -> Value {
    Value::Text(s.into())
}

/// One statement of the stream: the session it runs on (sessions are
/// created on first use, in the same order on both twins), its SQL and
/// its parameters.
struct Step {
    session: usize,
    sql: &'static str,
    params: Vec<Value>,
}

fn on(session: usize, sql: &'static str, params: Vec<Value>) -> Step {
    Step {
        session,
        sql,
        params,
    }
}

/// The workload templates (with the parameters their transactions pass)
/// and queries that reach every operator, access path and `ts_*` scan,
/// all on session 0.
fn main_stream() -> Vec<Step> {
    vec![
        // YCSB.
        on(
            0,
            "SELECT * FROM usertable WHERE ycsb_key = $1",
            vec![i(17)],
        ),
        // TPC-C NewOrder.
        on(
            0,
            "SELECT w_name FROM warehouse WHERE w_id = $1",
            vec![i(0)],
        ),
        on(
            0,
            "SELECT d_next_o_id FROM district WHERE d_w_id = $1 AND d_id = $2",
            vec![i(0), i(3)],
        ),
        on(
            0,
            "UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = $1 AND d_id = $2",
            vec![i(0), i(3)],
        ),
        on(
            0,
            "INSERT INTO orders VALUES ($1, $2, $3, $4, $5, $6)",
            vec![i(0), i(3), i(60), i(5), i(1), i(60)],
        ),
        on(
            0,
            "INSERT INTO neworder VALUES ($1, $2, $3)",
            vec![i(0), i(3), i(60)],
        ),
        on(0, "SELECT i_price FROM item WHERE i_id = $1", vec![i(42)]),
        on(
            0,
            "SELECT s_quantity FROM stock WHERE s_w_id = $1 AND s_i_id = $2",
            vec![i(0), i(42)],
        ),
        on(
            0,
            "UPDATE stock SET s_quantity = s_quantity - $3, s_ytd = s_ytd + $4 \
             WHERE s_w_id = $1 AND s_i_id = $2",
            vec![i(0), i(42), i(3), f(129.0)],
        ),
        on(
            0,
            "INSERT INTO orderline VALUES ($1, $2, $3, $4, $5, $6, $7, $8)",
            vec![i(0), i(3), i(60), i(0), i(42), i(3), f(129.0), i(0)],
        ),
        // TPC-C Payment.
        on(
            0,
            "UPDATE warehouse SET w_ytd = w_ytd + $2 WHERE w_id = $1",
            vec![i(0), f(10.5)],
        ),
        on(
            0,
            "UPDATE district SET d_ytd = d_ytd + $3 WHERE d_w_id = $1 AND d_id = $2",
            vec![i(0), i(3), f(10.5)],
        ),
        on(
            0,
            "SELECT c_id FROM customer \
             WHERE c_w_id = $1 AND c_d_id = $2 AND c_last = $3 ORDER BY c_id",
            vec![i(0), i(3), t("NAME005")],
        ),
        on(
            0,
            "UPDATE customer SET c_balance = c_balance + $4, \
             c_ytd_payment = c_ytd_payment + $5 \
             WHERE c_w_id = $1 AND c_d_id = $2 AND c_id = $3",
            vec![i(0), i(3), i(45), f(-10.5), f(10.5)],
        ),
        on(
            0,
            "INSERT INTO history VALUES ($1, $2, $3, $4)",
            vec![i(45), i(0), f(10.5), i(0)],
        ),
        // TPC-C OrderStatus.
        on(
            0,
            "SELECT c_balance FROM customer WHERE c_w_id = $1 AND c_d_id = $2 AND c_id = $3",
            vec![i(0), i(3), i(45)],
        ),
        on(
            0,
            "SELECT o_id, o_ol_cnt FROM orders \
             WHERE o_w_id = $1 AND o_d_id = $2 AND o_c_id = $3 ORDER BY o_id DESC LIMIT 1",
            vec![i(0), i(3), i(45)],
        ),
        on(
            0,
            "SELECT ol_i_id, ol_qty, ol_amount FROM orderline \
             WHERE ol_w_id = $1 AND ol_d_id = $2 AND ol_o_id = $3",
            vec![i(0), i(3), i(45)],
        ),
        // TPC-C Delivery.
        on(
            0,
            "SELECT no_o_id FROM neworder \
             WHERE no_w_id = $1 AND no_d_id = $2 ORDER BY no_o_id LIMIT 1",
            vec![i(0), i(3)],
        ),
        on(
            0,
            "DELETE FROM neworder WHERE no_w_id = $1 AND no_d_id = $2 AND no_o_id = $3",
            vec![i(0), i(3), i(40)],
        ),
        on(
            0,
            "SELECT sum(ol_amount) FROM orderline \
             WHERE ol_w_id = $1 AND ol_d_id = $2 AND ol_o_id = $3",
            vec![i(0), i(3), i(40)],
        ),
        on(
            0,
            "UPDATE orderline SET ol_delivery_d = $4 \
             WHERE ol_w_id = $1 AND ol_d_id = $2 AND ol_o_id = $3",
            vec![i(0), i(3), i(40), i(1)],
        ),
        on(
            0,
            "SELECT o_c_id FROM orders WHERE o_w_id = $1 AND o_d_id = $2 AND o_id = $3",
            vec![i(0), i(3), i(40)],
        ),
        // TPC-C StockLevel.
        on(
            0,
            "SELECT count(*) FROM orderline ol JOIN stock s ON ol.ol_i_id = s.s_i_id \
             WHERE ol.ol_w_id = $1 AND ol.ol_d_id = $2 AND ol.ol_o_id >= $3 \
             AND s.s_w_id = $1 AND s.s_quantity < $4",
            vec![i(0), i(0), i(40), i(15)],
        ),
        // CH-benCHmark's analytical queries.
        on(
            0,
            "SELECT ol_number, count(*), sum(ol_qty), sum(ol_amount), avg(ol_amount) \
             FROM orderline WHERE ol_delivery_d >= $1 GROUP BY ol_number",
            vec![i(0)],
        ),
        on(
            0,
            "SELECT sum(ol_amount) FROM orderline WHERE ol_qty BETWEEN $1 AND $2",
            vec![i(3), i(8)],
        ),
        on(
            0,
            "SELECT o.o_ol_cnt, count(*) FROM orders o \
             JOIN orderline ol ON o.o_id = ol.ol_o_id \
             WHERE o.o_w_id = $1 AND o.o_d_id = $2 AND ol.ol_w_id = $1 \
             GROUP BY o.o_ol_cnt",
            vec![i(0), i(3)],
        ),
        on(
            0,
            "SELECT sum(ol.ol_amount) FROM orderline ol \
             JOIN item i ON ol.ol_i_id = i.i_id WHERE i.i_price > $1",
            vec![f(50.0)],
        ),
        // Access paths and operators the templates leave out.
        on(0, "SELECT * FROM errs WHERE a = 3", vec![]),
        on(0, "SELECT k, a FROM errs WHERE k >= 5 AND k <= 12", vec![]),
        on(0, "SELECT k FROM errs WHERE k > 15", vec![]),
        on(0, "SELECT * FROM errs", vec![]),
        on(0, "SELECT * FROM errs LIMIT 0", vec![]),
        on(
            0,
            "SELECT a, count(*), sum(k), min(t), max(k), avg(k) FROM errs GROUP BY a",
            vec![],
        ),
        on(0, "SELECT count(*) FROM errs WHERE k > 100", vec![]),
        on(0, "SELECT k FROM errs ORDER BY a DESC LIMIT 4", vec![]),
        on(0, "SELECT a + 1 FROM errs ORDER BY k LIMIT 3", vec![]),
        on(
            0,
            "SELECT e.k, w.w_name FROM errs e JOIN warehouse w ON e.a = w.w_id \
             WHERE e.k + w.w_id > 3",
            vec![],
        ),
        on(
            0,
            "SELECT e.k, f.a FROM errs e JOIN errs f ON e.a = f.a WHERE e.k < f.k",
            vec![],
        ),
        on(0, "UPDATE errs SET a = a + 10 WHERE k = 3", vec![]),
        on(0, "SELECT k FROM errs WHERE a = 13", vec![]),
        on(0, "DELETE FROM errs WHERE k = 19", vec![]),
        // Introspection: virtual scans under Filter, Sort, Aggregate.
        on(
            0,
            "SELECT ou, subsystem, samples FROM ts_stat_ou WHERE samples > 0 ORDER BY ou",
            vec![],
        ),
        on(
            0,
            "SELECT subsystem, count(*) FROM ts_stat_ou GROUP BY subsystem",
            vec![],
        ),
        on(
            0,
            "SELECT fingerprint, calls, rows FROM ts_stat_statements ORDER BY fingerprint",
            vec![],
        ),
    ]
}

/// Statements that fail inside an operator, each on a session of its own
/// so that whatever a failure leaves behind in the collector's per-thread
/// state stays with it. Row `k = 7` of `errs` has a NULL `a`, so `a + 1`
/// fails in the middle of a stream; `t` is TEXT, so `t + 1` fails at once.
fn error_stream() -> Vec<Step> {
    vec![
        // Filter residual of a sequential scan, and of index scans.
        on(1, "SELECT k FROM errs WHERE a + 1 > 0", vec![]),
        on(2, "SELECT k FROM errs WHERE k >= 2 AND a + 1 > 0", vec![]),
        on(3, "SELECT k FROM errs WHERE a = 2 AND t + 1 > 0", vec![]),
        on(4, "SELECT k FROM errs WHERE a + 1 > 0 ORDER BY k", vec![]),
        on(
            5,
            "SELECT a, count(*) FROM errs WHERE a + 1 > 0 GROUP BY a",
            vec![],
        ),
        // Project, and a Project failing before the scan beneath it does.
        on(6, "SELECT a + 1 FROM errs WHERE k >= 0", vec![]),
        on(7, "SELECT t + 1 FROM errs WHERE a + 1 > 0", vec![]),
        // Hash join: build key, probe key, probe residual, and either
        // child's own failure.
        on(
            8,
            "SELECT count(*) FROM errs e JOIN warehouse w ON e.a + 1 = w.w_id",
            vec![],
        ),
        on(
            9,
            "SELECT count(*) FROM warehouse w JOIN errs e ON w.w_id = e.a + 1",
            vec![],
        ),
        on(
            10,
            "SELECT e.k FROM errs e JOIN errs f ON e.k = f.k WHERE e.a + f.k >= 0",
            vec![],
        ),
        on(
            11,
            "SELECT count(*) FROM errs e JOIN warehouse w ON e.a = w.w_id WHERE e.a + 1 > 0",
            vec![],
        ),
        on(
            12,
            "SELECT count(*) FROM warehouse w JOIN errs e ON w.w_id = e.a WHERE e.a + 1 > 0",
            vec![],
        ),
        // Virtual scan residual.
        on(13, "SELECT ou FROM ts_stat_ou WHERE ou + 1 > 0", vec![]),
        // UPDATE SET failing after four rows changed an indexed column;
        // the index keeps what they inserted (k = 5 under a = 1).
        on(14, "UPDATE errs SET a = a + 1 WHERE k >= 3", vec![]),
        on(15, "SELECT k FROM errs WHERE a = 1", vec![]),
        // DML over a failing scan; INSERT failing to evaluate, and on a
        // duplicate key.
        on(16, "DELETE FROM errs WHERE k >= 0 AND a + 1 > 0", vec![]),
        on(
            17,
            "INSERT INTO errs VALUES (100, $1 + 1, 'z')",
            vec![t("q")],
        ),
        on(18, "INSERT INTO errs VALUES (1, 1, 'dup')", vec![]),
        // Write conflicts in the middle of an UPDATE and of a DELETE.
        on(19, "BEGIN", vec![]),
        on(19, "UPDATE errs SET t = 'y' WHERE k = 15", vec![]),
        on(
            20,
            "UPDATE errs SET a = a WHERE k >= 10 AND k <= 18",
            vec![],
        ),
        on(21, "DELETE FROM errs WHERE k >= 12", vec![]),
        on(19, "ROLLBACK", vec![]),
    ]
}

/// A seeded database with the YCSB, TPC-C / CH-benCHmark and `errs`
/// tables loaded, then TScout attached at 100 % and a Processor to drain
/// it.
fn database(mode: EngineMode) -> (Database, Processor) {
    let mut k = Kernel::with_seed(HardwareProfile::server_2x20(), SEED);
    k.noise_frac = 0.0;
    let mut db = Database::new(k);
    db.mode = mode;
    Ycsb::new(200).setup(&mut db);
    ChBenchmark::new(1).setup(&mut db);
    let sid = db.create_session();
    db.execute(
        sid,
        "CREATE TABLE errs (k INT PRIMARY KEY, a INT, t TEXT)",
        &[],
    )
    .unwrap();
    db.execute(sid, "CREATE INDEX errs_a ON errs (a)", &[])
        .unwrap();
    for k in 0..20 {
        let a = if k == 7 { Value::Null } else { i(k % 5) };
        db.execute(sid, "INSERT INTO errs VALUES ($1, $2, 'x')", &[i(k), a])
            .unwrap();
    }
    let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
    cfg.enable_all_subsystems();
    cfg.ring_capacity = 1 << 20;
    db.attach_tscout(cfg).unwrap();
    for s in ALL_SUBSYSTEMS {
        db.tscout_mut().unwrap().set_sampling_rate(s, 100);
    }
    let processor = Processor::new(&mut db.kernel, Sink::Memory(Vec::new()));
    (db, processor)
}

/// One of the twins: a database, its Processor and its sessions.
struct Twin {
    db: Database,
    processor: Processor,
    sessions: Vec<SessionId>,
}

impl Twin {
    fn new(mode: EngineMode) -> Twin {
        let (db, processor) = database(mode);
        Twin {
            db,
            processor,
            sessions: Vec::new(),
        }
    }

    fn session(&mut self, n: usize) -> SessionId {
        while self.sessions.len() <= n {
            let sid = self.db.create_session();
            self.sessions.push(sid);
        }
        self.sessions[n]
    }

    fn run(&mut self, step: &Step, sql: &str) -> Result<Vec<Vec<Value>>, String> {
        let sid = self.session(step.session);
        self.db
            .execute(sid, sql, &step.params)
            .map(|out| out.rows)
            .map_err(|e| e.to_string())
    }

    /// Drain the ring and render every point it held, one line each.
    fn points(&mut self) -> Vec<String> {
        let (kernel, ts) = self.db.collection_parts();
        self.processor.drain_all(kernel, ts.expect("attached"));
        self.processor
            .take_points()
            .iter()
            .map(|p| {
                format!(
                    "{} f={:?} m={:?} u={:?} start={} elapsed={} tid={}",
                    p.ou_name,
                    p.features,
                    p.metrics,
                    p.user_metrics,
                    p.start_ns,
                    p.elapsed_ns,
                    p.tid
                )
            })
            .collect()
    }
}

fn render_row(row: &[Value]) -> String {
    let text = format!("{row:?}");
    if text.len() <= ROW_CHARS {
        text
    } else {
        format!("len={} crc32={:08x}", text.len(), crc32(text.as_bytes()))
    }
}

/// The transcript of both streams in one mode.
fn transcript(mode: EngineMode, out: &mut String) {
    let mut plain = Twin::new(mode);
    let mut analyze = Twin::new(mode);
    for (section, steps) in [("main", main_stream()), ("errors", error_stream())] {
        writeln!(out, "== {mode:?} {section}").unwrap();
        for (n, step) in steps.iter().enumerate() {
            writeln!(out, "#{n} s{} {} {:?}", step.session, step.sql, step.params).unwrap();
            match plain.run(step, step.sql) {
                Ok(rows) => {
                    writeln!(out, "  rows {}", rows.len()).unwrap();
                    for row in &rows {
                        writeln!(out, "  | {}", render_row(row)).unwrap();
                    }
                }
                Err(e) => writeln!(out, "  error: {e}").unwrap(),
            }
            for p in plain.points() {
                writeln!(out, "  point {p}").unwrap();
            }
            // Transaction control has no plan to analyze; the twin runs it
            // as it is to stay in step.
            let control = ["BEGIN", "COMMIT", "ROLLBACK"].contains(&step.sql);
            let analyzed = if control {
                analyze.run(step, step.sql).map(|_| Vec::new())
            } else {
                analyze.run(step, &format!("EXPLAIN ANALYZE {}", step.sql))
            };
            match analyzed {
                Ok(lines) => {
                    for line in lines {
                        writeln!(out, "  explain {}", line[0].as_text().unwrap()).unwrap();
                    }
                }
                Err(e) => writeln!(out, "  explain error: {e}").unwrap(),
            }
            let points = analyze.points().join("\n");
            writeln!(
                out,
                "  analyze twin: points crc32={:08x}",
                crc32(points.as_bytes())
            )
            .unwrap();
        }
    }
    let lt = plain.db.tscout().unwrap().loss_totals();
    writeln!(
        out,
        "== {mode:?} accounting: begun {} delivered {} lost {}",
        lt.begun, lt.delivered, lt.lost
    )
    .unwrap();
}

#[test]
fn executor_transcript_matches_the_golden() {
    let mut out = String::new();
    for mode in [EngineMode::PerOperator, EngineMode::Fused] {
        transcript(mode, &mut out);
    }
    let golden = include_str!("golden/exec_transcript_seed42.txt");
    if out == golden {
        return;
    }
    let path = std::env::temp_dir().join("exec_transcript_seed42.txt");
    std::fs::write(&path, &out).unwrap();
    let (got, want): (Vec<_>, Vec<_>) = (out.lines().collect(), golden.lines().collect());
    let first = (0..got.len().max(want.len()))
        .find(|&n| got.get(n) != want.get(n))
        .unwrap_or(0);
    let differing = (0..got.len().max(want.len()))
        .filter(|&n| got.get(n) != want.get(n))
        .count();
    panic!(
        "the transcript differs from the golden on {differing} lines, first line {}:\n  \
         golden: {:?}\n  got:    {:?}\n(the whole transcript is in {})",
        first + 1,
        want.get(first),
        got.get(first),
        path.display()
    );
}
