//! Offline runners (paper §2.4): developer-written microbenchmarks that
//! sweep each OU's input space on an idle system to bootstrap the
//! behavior models.
//!
//! "Runners target specific DBMS components by sweeping input values to
//! generate unique training data points." They run single-threaded, so
//! the data they produce misses exactly what the paper shows online data
//! captures: contention under concurrency, group-commit batch economics
//! at production arrival rates, and the deployment hardware's devices.

use rand::RngExt;

use noisetap::engine::{Database, StatementId};
use noisetap::Value;

use crate::driver::{TxnCtx, Workload};
use crate::util::bulk_load;

/// Table sizes the scan sweeps cover.
const SCAN_SIZES: [u64; 3] = [200, 2000, 10_000];

/// The offline runner suite.
#[derive(Debug)]
pub struct OfflineRunner {
    step: u64,
    sink_next: i64,
    stmts: Vec<(Kind, StatementId)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    SeqScan(usize),
    PointLookup,
    RangeScan,
    SortRange,
    GroupAgg,
    Join,
    InsertOne,
    UpdateOne,
    UpdateRange,
    DeleteOne,
}

impl OfflineRunner {
    pub fn new() -> OfflineRunner {
        OfflineRunner {
            step: 0,
            sink_next: 1_000_000,
            stmts: Vec::new(),
        }
    }
}

impl Default for OfflineRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl Workload for OfflineRunner {
    fn name(&self) -> &'static str {
        "offline_runner"
    }

    fn setup(&mut self, db: &mut Database) {
        let sid = db.create_session();
        // Scan targets of several sizes.
        for (i, n) in SCAN_SIZES.iter().enumerate() {
            db.execute(
                sid,
                &format!(
                    "CREATE TABLE runner_seq{i} (id INT PRIMARY KEY, a INT, b FLOAT, pad TEXT)"
                ),
                &[],
            )
            .unwrap();
            let ins = db
                .prepare(&format!(
                    "INSERT INTO runner_seq{i} VALUES ($1, $2, $3, $4)"
                ))
                .unwrap();
            bulk_load(
                db,
                sid,
                ins,
                (0..*n).map(|k| {
                    vec![
                        Value::Int(k as i64),
                        Value::Int((k % 50) as i64),
                        Value::Float(k as f64),
                        Value::Text("x".repeat(64).into()),
                    ]
                }),
                2000,
            );
        }
        // The main keyed table and a small dimension for joins.
        db.execute(
            sid,
            "CREATE TABLE runner_data (id INT PRIMARY KEY, a INT, b FLOAT, pad TEXT)",
            &[],
        )
        .unwrap();
        let ins = db
            .prepare("INSERT INTO runner_data VALUES ($1, $2, $3, $4)")
            .unwrap();
        bulk_load(
            db,
            sid,
            ins,
            (0..20_000u64).map(|k| {
                vec![
                    Value::Int(k as i64),
                    Value::Int((k % 200) as i64),
                    Value::Float((k * 3 % 977) as f64),
                    Value::Text("y".repeat(64).into()),
                ]
            }),
            2000,
        );
        db.execute(
            sid,
            "CREATE TABLE runner_dim (k INT PRIMARY KEY, label TEXT)",
            &[],
        )
        .unwrap();
        let ins = db
            .prepare("INSERT INTO runner_dim VALUES ($1, $2)")
            .unwrap();
        bulk_load(
            db,
            sid,
            ins,
            (0..200u64).map(|k| vec![Value::Int(k as i64), Value::Text(format!("d{k}").into())]),
            1000,
        );
        db.execute(
            sid,
            "CREATE TABLE runner_sink (id INT PRIMARY KEY, v FLOAT)",
            &[],
        )
        .unwrap();

        let mut stmts = Vec::new();
        for i in 0..SCAN_SIZES.len() {
            stmts.push((
                Kind::SeqScan(i),
                db.prepare(&format!("SELECT count(*) FROM runner_seq{i} WHERE b >= $1"))
                    .unwrap(),
            ));
        }
        stmts.push((
            Kind::PointLookup,
            db.prepare("SELECT * FROM runner_data WHERE id = $1")
                .unwrap(),
        ));
        stmts.push((
            Kind::RangeScan,
            db.prepare("SELECT a FROM runner_data WHERE id BETWEEN $1 AND $2")
                .unwrap(),
        ));
        stmts.push((
            Kind::SortRange,
            db.prepare("SELECT b FROM runner_data WHERE id BETWEEN $1 AND $2 ORDER BY b DESC")
                .unwrap(),
        ));
        stmts.push((
            Kind::GroupAgg,
            db.prepare(
                "SELECT a, count(*), sum(b) FROM runner_data WHERE id BETWEEN $1 AND $2 GROUP BY a",
            )
            .unwrap(),
        ));
        stmts.push((
            Kind::Join,
            // The probe-side restriction sweeps the probe count too, so
            // the hash-join-probe model sees feature variety.
            db.prepare(
                "SELECT count(*) FROM runner_data r JOIN runner_dim d ON r.a = d.k \
                 WHERE r.id BETWEEN $1 AND $2 AND d.k <= $3",
            )
            .unwrap(),
        ));
        stmts.push((
            Kind::InsertOne,
            db.prepare("INSERT INTO runner_sink VALUES ($1, $2)")
                .unwrap(),
        ));
        stmts.push((
            Kind::UpdateOne,
            db.prepare("UPDATE runner_data SET b = b + 1.0 WHERE id = $1")
                .unwrap(),
        ));
        stmts.push((
            Kind::UpdateRange,
            db.prepare("UPDATE runner_data SET b = b + 1.0 WHERE id BETWEEN $1 AND $2")
                .unwrap(),
        ));
        stmts.push((
            Kind::DeleteOne,
            db.prepare("DELETE FROM runner_sink WHERE id = $1").unwrap(),
        ));
        self.stmts = stmts;
    }

    fn txn(&mut self, ctx: &mut TxnCtx<'_>) -> bool {
        let (kind, stmt) = self.stmts[(self.step % self.stmts.len() as u64) as usize];
        // Sweep widths cycle through several decades.
        let widths = [1i64, 8, 32, 128, 512, 2048];
        let width = widths[(self.step / self.stmts.len() as u64) as usize % widths.len()];
        let lo = ctx.rng.random_range(0..18_000) as i64;
        self.step += 1;
        ctx.begin();
        let r = match kind {
            Kind::SeqScan(_) => ctx.request(stmt, &[Value::Float(0.0)]).map(|_| ()),
            Kind::PointLookup => ctx.request(stmt, &[Value::Int(lo)]).map(|_| ()),
            Kind::RangeScan | Kind::SortRange | Kind::GroupAgg | Kind::UpdateRange => ctx
                .request(stmt, &[Value::Int(lo), Value::Int(lo + width)])
                .map(|_| ()),
            Kind::Join => ctx
                .request(
                    stmt,
                    &[
                        Value::Int(lo),
                        Value::Int(lo + width),
                        Value::Int((width / 4) % 200),
                    ],
                )
                .map(|_| ()),
            Kind::InsertOne => {
                self.sink_next += 1;
                ctx.request(stmt, &[Value::Int(self.sink_next), Value::Float(1.0)])
                    .map(|_| ())
            }
            Kind::UpdateOne => ctx.request(stmt, &[Value::Int(lo)]).map(|_| ()),
            Kind::DeleteOne => {
                let victim = self.sink_next - 1;
                ctx.request(stmt, &[Value::Int(victim.max(1_000_000))])
                    .map(|_| ())
            }
        };
        match r {
            Ok(()) => ctx.commit().is_ok(),
            Err(_) => {
                ctx.rollback();
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{collect_datasets, RunOptions};
    use tscout::{CollectionMode, TsConfig};
    use tscout_kernel::{HardwareProfile, Kernel};

    #[test]
    fn runner_sweeps_generate_diverse_ou_data() {
        let mut k = Kernel::with_seed(HardwareProfile::server_2x20(), 77);
        k.noise_frac = 0.0;
        let mut db = Database::new(k);
        let mut w = OfflineRunner::new();
        w.setup(&mut db);
        let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
        cfg.enable_all_subsystems();
        db.attach_tscout(cfg).unwrap();
        {
            let ts = db.tscout_mut().unwrap();
            for s in tscout::ALL_SUBSYSTEMS {
                ts.set_sampling_rate(s, 100);
            }
        }
        let (stats, data) = collect_datasets(
            &mut db,
            &mut w,
            &RunOptions {
                terminals: 1,
                duration_ns: 60e6,
                ..Default::default()
            },
        );
        assert!(stats.committed > 30, "committed {}", stats.committed);
        let names: Vec<&str> = data.iter().map(|d| d.name.as_str()).collect();
        for expected in [
            "seq_scan",
            "idx_lookup",
            "idx_range_scan",
            "sort",
            "agg_build",
            "hash_join_build",
            "insert",
            "update",
            "output",
            "network_read",
            "network_write",
            "log_serialize",
        ] {
            assert!(
                names.contains(&expected),
                "missing OU data for {expected}: {names:?}"
            );
        }
        // The sweeps must cover a range of feature magnitudes.
        let range = data.iter().find(|d| d.name == "idx_range_scan").unwrap();
        let max_examined = range
            .points
            .iter()
            .map(|p| p.features[0])
            .fold(0.0f64, f64::max);
        let min_examined = range
            .points
            .iter()
            .map(|p| p.features[0])
            .fold(f64::INFINITY, f64::min);
        assert!(
            max_examined > 20.0 * min_examined.max(1.0),
            "sweep range too narrow"
        );
    }
}
