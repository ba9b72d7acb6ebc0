//! SmallBank — simple banking OLTP (paper §6.1).
//!
//! "Transactions perform simple read and update operations on customers'
//! accounts [...] In addition to the original six transaction types, we
//! added a transaction that transfers money between two accounts."

use rand::RngExt;

use noisetap::engine::{Database, StatementId};
use noisetap::Value;

use crate::driver::{TxnCtx, Workload};
use crate::util::{bulk_load, pick_weighted};

/// SmallBank workload.
#[derive(Debug)]
pub struct SmallBank {
    pub customers: u64,
    stmts: Option<Stmts>,
}

#[derive(Debug)]
struct Stmts {
    get_savings: StatementId,
    get_checking: StatementId,
    upd_savings: StatementId,
    upd_checking: StatementId,
    zero_savings: StatementId,
}

impl SmallBank {
    pub fn new(customers: u64) -> SmallBank {
        SmallBank {
            customers,
            stmts: None,
        }
    }

    fn two_accounts(&self, ctx: &mut TxnCtx<'_>) -> (i64, i64) {
        let a = ctx.rng.random_range(0..self.customers) as i64;
        let mut b = ctx.rng.random_range(0..self.customers) as i64;
        if b == a {
            b = (b + 1) % self.customers as i64;
        }
        (a, b)
    }
}

impl Workload for SmallBank {
    fn name(&self) -> &'static str {
        "smallbank"
    }

    fn setup(&mut self, db: &mut Database) {
        let sid = db.create_session();
        db.execute(
            sid,
            "CREATE TABLE accounts (custid INT PRIMARY KEY, name TEXT)",
            &[],
        )
        .unwrap();
        db.execute(
            sid,
            "CREATE TABLE savings (custid INT PRIMARY KEY, bal FLOAT)",
            &[],
        )
        .unwrap();
        db.execute(
            sid,
            "CREATE TABLE checking (custid INT PRIMARY KEY, bal FLOAT)",
            &[],
        )
        .unwrap();
        let ins_a = db.prepare("INSERT INTO accounts VALUES ($1, $2)").unwrap();
        let ins_s = db.prepare("INSERT INTO savings VALUES ($1, $2)").unwrap();
        let ins_c = db.prepare("INSERT INTO checking VALUES ($1, $2)").unwrap();
        let n = self.customers;
        bulk_load(
            db,
            sid,
            ins_a,
            (0..n).map(|i| vec![Value::Int(i as i64), Value::Text(format!("cust{i}").into())]),
            1000,
        );
        bulk_load(
            db,
            sid,
            ins_s,
            (0..n).map(|i| vec![Value::Int(i as i64), Value::Float(1000.0)]),
            1000,
        );
        bulk_load(
            db,
            sid,
            ins_c,
            (0..n).map(|i| vec![Value::Int(i as i64), Value::Float(1000.0)]),
            1000,
        );
        self.stmts = Some(Stmts {
            get_savings: db
                .prepare("SELECT bal FROM savings WHERE custid = $1")
                .unwrap(),
            get_checking: db
                .prepare("SELECT bal FROM checking WHERE custid = $1")
                .unwrap(),
            upd_savings: db
                .prepare("UPDATE savings SET bal = bal + $2 WHERE custid = $1")
                .unwrap(),
            upd_checking: db
                .prepare("UPDATE checking SET bal = bal + $2 WHERE custid = $1")
                .unwrap(),
            zero_savings: db
                .prepare("UPDATE savings SET bal = 0.0 WHERE custid = $1")
                .unwrap(),
        });
    }

    fn txn(&mut self, ctx: &mut TxnCtx<'_>) -> bool {
        let s = self.stmts.as_ref().expect("setup() not called");
        let (get_savings, get_checking, upd_savings, upd_checking, zero_savings) = (
            s.get_savings,
            s.get_checking,
            s.upd_savings,
            s.upd_checking,
            s.zero_savings,
        );
        let (a, b) = self.two_accounts(ctx);
        // Balance, DepositChecking, TransactSavings, Amalgamate,
        // WriteCheck, SendPayment (the added transfer).
        let choice = pick_weighted(ctx.rng, &[15, 15, 15, 15, 15, 25]);
        ctx.begin();
        let amount = Value::Float(ctx.rng.random_range(1..100) as f64);
        let ok = (|| -> Result<(), noisetap::DbError> {
            match choice {
                0 => {
                    ctx.request(get_savings, &[Value::Int(a)])?;
                    ctx.request(get_checking, &[Value::Int(a)])?;
                }
                1 => {
                    ctx.request(upd_checking, &[Value::Int(a), amount.clone()])?;
                }
                2 => {
                    ctx.request(upd_savings, &[Value::Int(a), amount.clone()])?;
                }
                3 => {
                    let bal = ctx
                        .request(get_savings, &[Value::Int(a)])?
                        .rows
                        .first()
                        .and_then(|r| r[0].as_float())
                        .unwrap_or(0.0);
                    ctx.request(zero_savings, &[Value::Int(a)])?;
                    ctx.request(upd_checking, &[Value::Int(b), Value::Float(bal)])?;
                }
                4 => {
                    ctx.request(get_savings, &[Value::Int(a)])?;
                    ctx.request(get_checking, &[Value::Int(a)])?;
                    ctx.request(
                        upd_checking,
                        &[Value::Int(a), Value::Float(-amount.as_float().unwrap())],
                    )?;
                }
                _ => {
                    ctx.request(
                        upd_checking,
                        &[Value::Int(a), Value::Float(-amount.as_float().unwrap())],
                    )?;
                    ctx.request(upd_checking, &[Value::Int(b), amount.clone()])?;
                }
            }
            Ok(())
        })();
        match ok {
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
    use crate::driver::{run, RunOptions};
    use tscout_kernel::{HardwareProfile, Kernel};

    #[test]
    fn smallbank_conserves_money_modulo_deposits() {
        let mut k = Kernel::with_seed(HardwareProfile::server_2x20(), 9);
        k.noise_frac = 0.0;
        let mut db = Database::new(k);
        let mut w = SmallBank::new(200);
        w.setup(&mut db);
        let stats = run(
            &mut db,
            &mut w,
            &RunOptions {
                terminals: 4,
                duration_ns: 4e6,
                ..Default::default()
            },
        );
        assert!(stats.committed > 10);
        // Every account still exists and balances are finite numbers.
        let sid = db.create_session();
        let out = db
            .execute(sid, "SELECT count(*) FROM checking", &[])
            .unwrap();
        assert_eq!(out.rows[0][0], Value::Int(200));
        let out = db
            .execute(sid, "SELECT sum(bal) FROM checking", &[])
            .unwrap();
        assert!(out.rows[0][0].as_float().unwrap().is_finite());
    }
}
