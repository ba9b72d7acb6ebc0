//! YCSB — the Yahoo! Cloud Serving Benchmark (paper §6.1).
//!
//! Read-only configuration as in the paper: every transaction retrieves a
//! single tuple by primary key. One table of tuples with a key and ten
//! 100-byte fields (~1 KB/row). The paper loads 12M tuples (~13 GB); the
//! default here is scaled down and configurable.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use noisetap::engine::{Database, StatementId};
use noisetap::Value;

use crate::driver::{TxnCtx, Workload};
use crate::util::{bulk_load, rand_string};

/// YCSB workload state.
#[derive(Debug)]
pub struct Ycsb {
    pub rows: u64,
    pub field_len: usize,
    read: Option<StatementId>,
    load_seed: u64,
}

impl Ycsb {
    pub fn new(rows: u64) -> Ycsb {
        Ycsb {
            rows,
            field_len: 100,
            read: None,
            load_seed: 0x5C5B,
        }
    }
}

impl Workload for Ycsb {
    fn name(&self) -> &'static str {
        "ycsb"
    }

    fn setup(&mut self, db: &mut Database) {
        let sid = db.create_session();
        let cols: String = (0..10)
            .map(|i| format!(", field{i} TEXT"))
            .collect::<Vec<_>>()
            .concat();
        db.execute(
            sid,
            &format!("CREATE TABLE usertable (ycsb_key INT PRIMARY KEY{cols})"),
            &[],
        )
        .unwrap();
        let placeholders: String = (2..=11)
            .map(|i| format!(", ${i}"))
            .collect::<Vec<_>>()
            .concat();
        let ins = db
            .prepare(&format!("INSERT INTO usertable VALUES ($1{placeholders})"))
            .unwrap();
        let mut rng = StdRng::seed_from_u64(self.load_seed);
        let field_len = self.field_len;
        let n = self.rows;
        // One shared payload string keeps load memory-frugal while the
        // row *width* (what the cost model sees) stays realistic.
        let payload = Value::Text(rand_string(&mut rng, field_len).into());
        bulk_load(
            db,
            sid,
            ins,
            (0..n).map(move |k| {
                let mut row = vec![Value::Int(k as i64)];
                row.extend((0..10).map(|_| payload.clone()));
                row
            }),
            1000,
        );
        self.read = Some(
            db.prepare("SELECT * FROM usertable WHERE ycsb_key = $1")
                .unwrap(),
        );
    }

    fn txn(&mut self, ctx: &mut TxnCtx<'_>) -> bool {
        let key = ctx.rng.random_range(0..self.rows) as i64;
        let stmt = self.read.expect("setup() not called");
        ctx.begin();
        let ok = ctx.request(stmt, &[Value::Int(key)]).is_ok();
        if ok {
            ctx.commit().is_ok()
        } else {
            ctx.rollback();
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run, RunOptions};
    use tscout_kernel::{HardwareProfile, Kernel};

    #[test]
    fn ycsb_runs_and_commits() {
        let mut k = Kernel::with_seed(HardwareProfile::server_2x20(), 5);
        k.noise_frac = 0.0;
        let mut db = Database::new(k);
        let mut w = Ycsb::new(500);
        w.setup(&mut db);
        assert_eq!(db.table_live_tuples("usertable"), Some(500));
        let stats = run(
            &mut db,
            &mut w,
            &RunOptions {
                terminals: 2,
                duration_ns: 3e6,
                ..Default::default()
            },
        );
        assert!(stats.committed > 10, "committed {}", stats.committed);
        assert_eq!(stats.aborted, 0);
        assert!(stats.throughput > 0.0);
        // Read-only: no WAL records beyond the load.
        let flushed_before = db.wal.flushed_records;
        db.pump_wal(1e12);
        assert_eq!(db.wal.flushed_records, flushed_before);
    }
}
