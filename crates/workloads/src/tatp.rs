//! TATP — Telecom Application Transaction Processing (paper §6.1).
//!
//! A caller-location workload: point lookups by subscriber id, a
//! secondary-index indirection path (subscriber number → id), and small
//! updates/inserts/deletes on the call-forwarding tables.

use rand::RngExt;

use noisetap::engine::{Database, StatementId};
use noisetap::Value;

use crate::driver::{TxnCtx, Workload};
use crate::util::{bulk_load, pick_weighted};

/// TATP workload.
#[derive(Debug)]
pub struct Tatp {
    pub subscribers: u64,
    stmts: Option<Stmts>,
}

#[derive(Debug)]
struct Stmts {
    get_subscriber: StatementId,
    get_access: StatementId,
    get_special: StatementId,
    get_forwarding: StatementId,
    find_by_nbr: StatementId,
    upd_location: StatementId,
    upd_subscriber: StatementId,
    upd_special: StatementId,
    ins_forwarding: StatementId,
    del_forwarding: StatementId,
}

impl Tatp {
    pub fn new(subscribers: u64) -> Tatp {
        Tatp {
            subscribers,
            stmts: None,
        }
    }

    fn sid(&self, ctx: &mut TxnCtx<'_>) -> i64 {
        ctx.rng.random_range(0..self.subscribers) as i64
    }
}

fn sub_nbr(s_id: u64) -> String {
    format!("{s_id:015}")
}

impl Workload for Tatp {
    fn name(&self) -> &'static str {
        "tatp"
    }

    fn setup(&mut self, db: &mut Database) {
        let sid = db.create_session();
        db.execute(
            sid,
            "CREATE TABLE subscriber (s_id INT PRIMARY KEY, sub_nbr TEXT, \
             bit_1 INT, vlr_location INT)",
            &[],
        )
        .unwrap();
        db.execute(
            sid,
            "CREATE UNIQUE INDEX sub_nbr_idx ON subscriber (sub_nbr) USING HASH",
            &[],
        )
        .unwrap();
        db.execute(
            sid,
            "CREATE TABLE access_info (s_id INT, ai_type INT, data1 INT, \
             PRIMARY KEY (s_id, ai_type))",
            &[],
        )
        .unwrap();
        db.execute(
            sid,
            "CREATE TABLE special_facility (s_id INT, sf_type INT, is_active INT, \
             PRIMARY KEY (s_id, sf_type))",
            &[],
        )
        .unwrap();
        db.execute(
            sid,
            "CREATE TABLE call_forwarding (s_id INT, sf_type INT, start_time INT, \
             end_time INT, numberx TEXT, PRIMARY KEY (s_id, sf_type, start_time))",
            &[],
        )
        .unwrap();

        let n = self.subscribers;
        let ins_sub = db
            .prepare("INSERT INTO subscriber VALUES ($1, $2, $3, $4)")
            .unwrap();
        bulk_load(
            db,
            sid,
            ins_sub,
            (0..n).map(|i| {
                vec![
                    Value::Int(i as i64),
                    Value::Text(sub_nbr(i).into()),
                    Value::Int((i % 2) as i64),
                    Value::Int((i * 7 % 100) as i64),
                ]
            }),
            1000,
        );
        let ins_ai = db
            .prepare("INSERT INTO access_info VALUES ($1, $2, $3)")
            .unwrap();
        bulk_load(
            db,
            sid,
            ins_ai,
            (0..n).flat_map(|i| {
                (0..=(i % 4))
                    .map(move |t| vec![Value::Int(i as i64), Value::Int(t as i64), Value::Int(42)])
            }),
            1000,
        );
        let ins_sf = db
            .prepare("INSERT INTO special_facility VALUES ($1, $2, $3)")
            .unwrap();
        bulk_load(
            db,
            sid,
            ins_sf,
            (0..n).flat_map(|i| {
                (0..=(i % 3))
                    .map(move |t| vec![Value::Int(i as i64), Value::Int(t as i64), Value::Int(1)])
            }),
            1000,
        );
        let ins_cf = db
            .prepare("INSERT INTO call_forwarding VALUES ($1, $2, $3, $4, $5)")
            .unwrap();
        bulk_load(
            db,
            sid,
            ins_cf,
            (0..n).filter(|i| i % 2 == 0).map(|i| {
                vec![
                    Value::Int(i as i64),
                    Value::Int(0),
                    Value::Int(0),
                    Value::Int(8),
                    Value::Text(sub_nbr(i).into()),
                ]
            }),
            1000,
        );

        self.stmts = Some(Stmts {
            get_subscriber: db
                .prepare("SELECT * FROM subscriber WHERE s_id = $1")
                .unwrap(),
            get_access: db
                .prepare("SELECT data1 FROM access_info WHERE s_id = $1 AND ai_type = $2")
                .unwrap(),
            get_special: db
                .prepare("SELECT is_active FROM special_facility WHERE s_id = $1 AND sf_type = $2")
                .unwrap(),
            get_forwarding: db
                .prepare(
                    "SELECT numberx FROM call_forwarding WHERE s_id = $1 AND sf_type = $2 \
                     AND start_time <= $3 AND end_time > $3",
                )
                .unwrap(),
            find_by_nbr: db
                .prepare("SELECT s_id FROM subscriber WHERE sub_nbr = $1")
                .unwrap(),
            upd_location: db
                .prepare("UPDATE subscriber SET vlr_location = $2 WHERE s_id = $1")
                .unwrap(),
            upd_subscriber: db
                .prepare("UPDATE subscriber SET bit_1 = $2 WHERE s_id = $1")
                .unwrap(),
            upd_special: db
                .prepare(
                    "UPDATE special_facility SET is_active = $3 WHERE s_id = $1 AND sf_type = $2",
                )
                .unwrap(),
            ins_forwarding: db
                .prepare("INSERT INTO call_forwarding VALUES ($1, $2, $3, $4, $5)")
                .unwrap(),
            del_forwarding: db
                .prepare(
                    "DELETE FROM call_forwarding WHERE s_id = $1 AND sf_type = $2 \
                     AND start_time = $3",
                )
                .unwrap(),
        });
    }

    fn txn(&mut self, ctx: &mut TxnCtx<'_>) -> bool {
        let s_id = self.sid(ctx);
        let st = self.stmts.as_ref().expect("setup() not called");
        let (get_subscriber, get_access, get_special, get_forwarding, find_by_nbr) = (
            st.get_subscriber,
            st.get_access,
            st.get_special,
            st.get_forwarding,
            st.find_by_nbr,
        );
        let (upd_location, upd_subscriber, upd_special, ins_forwarding, del_forwarding) = (
            st.upd_location,
            st.upd_subscriber,
            st.upd_special,
            st.ins_forwarding,
            st.del_forwarding,
        );
        // GetSubscriberData 35, GetNewDestination 10, GetAccessData 35,
        // UpdateSubscriberData 2, UpdateLocation 14, InsertCallForwarding 2,
        // DeleteCallForwarding 2.
        let choice = pick_weighted(ctx.rng, &[35, 10, 35, 2, 14, 2, 2]);
        ctx.begin();
        let result = (|| -> Result<bool, noisetap::DbError> {
            match choice {
                0 => {
                    ctx.request(get_subscriber, &[Value::Int(s_id)])?;
                }
                1 => {
                    let active = ctx
                        .request(get_special, &[Value::Int(s_id), Value::Int(0)])?
                        .rows;
                    if !active.is_empty() {
                        ctx.request(
                            get_forwarding,
                            &[Value::Int(s_id), Value::Int(0), Value::Int(4)],
                        )?;
                    }
                }
                2 => {
                    ctx.request(get_access, &[Value::Int(s_id), Value::Int(0)])?;
                }
                3 => {
                    ctx.request(upd_subscriber, &[Value::Int(s_id), Value::Int(1)])?;
                    ctx.request(
                        upd_special,
                        &[Value::Int(s_id), Value::Int(0), Value::Int(0)],
                    )?;
                }
                4 => {
                    // Secondary-index indirection: number → id → update.
                    let rows = ctx
                        .request(find_by_nbr, &[Value::Text(sub_nbr(s_id as u64).into())])?
                        .rows;
                    let found = rows[0][0].clone();
                    ctx.request(upd_location, &[found, Value::Int(99)])?;
                }
                5 => {
                    // May hit a duplicate key — a legal abort in TATP.
                    ctx.request(
                        ins_forwarding,
                        &[
                            Value::Int(s_id),
                            Value::Int(0),
                            Value::Int(0),
                            Value::Int(8),
                            Value::Text("x".into()),
                        ],
                    )?;
                }
                _ => {
                    ctx.request(
                        del_forwarding,
                        &[Value::Int(s_id), Value::Int(0), Value::Int(0)],
                    )?;
                }
            }
            Ok(true)
        })();
        match result {
            Ok(_) => ctx.commit().is_ok(),
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
    fn tatp_runs_with_expected_abort_profile() {
        let mut k = Kernel::with_seed(HardwareProfile::server_2x20(), 13);
        k.noise_frac = 0.0;
        let mut db = Database::new(k);
        let mut w = Tatp::new(300);
        w.setup(&mut db);
        let stats = run(
            &mut db,
            &mut w,
            &RunOptions {
                terminals: 3,
                duration_ns: 5e6,
                ..Default::default()
            },
        );
        assert!(stats.committed > 20, "committed {}", stats.committed);
        // InsertCallForwarding occasionally violates the PK: aborts happen
        // but stay a small minority.
        assert!(stats.aborted as f64 <= 0.2 * stats.committed as f64);
    }
}
