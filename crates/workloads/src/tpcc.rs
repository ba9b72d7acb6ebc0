//! TPC-C — order processing (paper §6.1): nine tables, five transaction
//! types, warehouse-based scaling.
//!
//! Cardinalities are scaled down from the spec (items, customers and
//! seeded orders per district) so experiments load in seconds; the
//! *structure* — table touches per transaction, index paths, read/write
//! mix, contention on warehouse/district rows — follows the spec.

use rand::RngExt;

use noisetap::engine::{Database, StatementId};
use noisetap::Value;

use crate::driver::{TxnCtx, Workload};
use crate::util::{bulk_load, nurand, pick_weighted};

pub const DISTRICTS_PER_WAREHOUSE: u64 = 10;
pub const CUSTOMERS_PER_DISTRICT: u64 = 120;
pub const ITEMS: u64 = 1000;
pub const SEED_ORDERS_PER_DISTRICT: u64 = 60;
pub const LAST_NAMES: u64 = 40;

/// TPC-C workload.
#[derive(Debug)]
pub struct Tpcc {
    pub warehouses: u64,
    stmts: Option<Stmts>,
    /// Optional restriction of the transaction mix (template holdout
    /// experiments disable some types).
    pub mix: [u32; 5],
}

#[derive(Debug)]
pub struct Stmts {
    get_warehouse: StatementId,
    get_district: StatementId,
    upd_district_next_oid: StatementId,
    ins_order: StatementId,
    ins_neworder: StatementId,
    get_item: StatementId,
    get_stock: StatementId,
    upd_stock: StatementId,
    ins_orderline: StatementId,
    upd_warehouse_ytd: StatementId,
    upd_district_ytd: StatementId,
    get_customer: StatementId,
    get_customers_by_last: StatementId,
    upd_customer_bal: StatementId,
    ins_history: StatementId,
    latest_order_of_customer: StatementId,
    get_orderlines: StatementId,
    oldest_neworder: StatementId,
    del_neworder: StatementId,
    sum_orderlines: StatementId,
    upd_orderline_delivery: StatementId,
    get_order_customer: StatementId,
    stock_level_join: StatementId,
}

fn last_name(i: u64) -> String {
    format!("NAME{:03}", i % LAST_NAMES)
}

impl Tpcc {
    pub fn new(warehouses: u64) -> Tpcc {
        // NewOrder 45, Payment 43, OrderStatus 4, Delivery 4, StockLevel 4.
        Tpcc {
            warehouses,
            stmts: None,
            mix: [45, 43, 4, 4, 4],
        }
    }

    fn w_id(&self, ctx: &mut TxnCtx<'_>) -> i64 {
        ctx.rng.random_range(0..self.warehouses) as i64
    }
}

impl Workload for Tpcc {
    fn name(&self) -> &'static str {
        "tpcc"
    }

    fn setup(&mut self, db: &mut Database) {
        let sid = db.create_session();
        db.execute(
            sid,
            "CREATE TABLE warehouse (w_id INT PRIMARY KEY, w_name TEXT, w_ytd FLOAT)",
            &[],
        )
        .unwrap();
        db.execute(
            sid,
            "CREATE TABLE district (d_w_id INT, d_id INT, d_next_o_id INT, d_ytd FLOAT, \
             PRIMARY KEY (d_w_id, d_id))",
            &[],
        )
        .unwrap();
        db.execute(
            sid,
            "CREATE TABLE customer (c_w_id INT, c_d_id INT, c_id INT, c_last TEXT, \
             c_balance FLOAT, c_ytd_payment FLOAT, PRIMARY KEY (c_w_id, c_d_id, c_id))",
            &[],
        )
        .unwrap();
        db.execute(
            sid,
            "CREATE INDEX customer_by_last ON customer (c_w_id, c_d_id, c_last)",
            &[],
        )
        .unwrap();
        db.execute(
            sid,
            "CREATE TABLE history (h_c_id INT, h_w_id INT, h_amount FLOAT, h_ts INT)",
            &[],
        )
        .unwrap();
        db.execute(
            sid,
            "CREATE TABLE neworder (no_w_id INT, no_d_id INT, no_o_id INT, \
             PRIMARY KEY (no_w_id, no_d_id, no_o_id))",
            &[],
        )
        .unwrap();
        db.execute(
            sid,
            "CREATE TABLE orders (o_w_id INT, o_d_id INT, o_id INT, o_c_id INT, \
             o_ol_cnt INT, o_entry_d INT, PRIMARY KEY (o_w_id, o_d_id, o_id))",
            &[],
        )
        .unwrap();
        db.execute(
            sid,
            "CREATE INDEX orders_by_customer ON orders (o_w_id, o_d_id, o_c_id)",
            &[],
        )
        .unwrap();
        db.execute(
            sid,
            "CREATE TABLE orderline (ol_w_id INT, ol_d_id INT, ol_o_id INT, ol_number INT, \
             ol_i_id INT, ol_qty INT, ol_amount FLOAT, ol_delivery_d INT, \
             PRIMARY KEY (ol_w_id, ol_d_id, ol_o_id, ol_number))",
            &[],
        )
        .unwrap();
        db.execute(
            sid,
            "CREATE TABLE item (i_id INT PRIMARY KEY, i_name TEXT, i_price FLOAT)",
            &[],
        )
        .unwrap();
        db.execute(
            sid,
            "CREATE TABLE stock (s_w_id INT, s_i_id INT, s_quantity INT, s_ytd FLOAT, \
             PRIMARY KEY (s_w_id, s_i_id))",
            &[],
        )
        .unwrap();

        let w = self.warehouses;
        let ins = db
            .prepare("INSERT INTO warehouse VALUES ($1, $2, $3)")
            .unwrap();
        bulk_load(
            db,
            sid,
            ins,
            (0..w).map(|i| {
                vec![
                    Value::Int(i as i64),
                    Value::Text(format!("W{i}").into()),
                    Value::Float(0.0),
                ]
            }),
            1000,
        );
        let ins = db
            .prepare("INSERT INTO district VALUES ($1, $2, $3, $4)")
            .unwrap();
        bulk_load(
            db,
            sid,
            ins,
            (0..w).flat_map(|wi| {
                (0..DISTRICTS_PER_WAREHOUSE).map(move |d| {
                    vec![
                        Value::Int(wi as i64),
                        Value::Int(d as i64),
                        Value::Int(SEED_ORDERS_PER_DISTRICT as i64),
                        Value::Float(0.0),
                    ]
                })
            }),
            1000,
        );
        let ins = db
            .prepare("INSERT INTO customer VALUES ($1, $2, $3, $4, $5, $6)")
            .unwrap();
        bulk_load(
            db,
            sid,
            ins,
            (0..w).flat_map(|wi| {
                (0..DISTRICTS_PER_WAREHOUSE).flat_map(move |d| {
                    (0..CUSTOMERS_PER_DISTRICT).map(move |c| {
                        vec![
                            Value::Int(wi as i64),
                            Value::Int(d as i64),
                            Value::Int(c as i64),
                            Value::Text(last_name(c).into()),
                            Value::Float(-10.0),
                            Value::Float(10.0),
                        ]
                    })
                })
            }),
            2000,
        );
        let ins = db.prepare("INSERT INTO item VALUES ($1, $2, $3)").unwrap();
        bulk_load(
            db,
            sid,
            ins,
            (0..ITEMS).map(|i| {
                vec![
                    Value::Int(i as i64),
                    Value::Text(format!("item{i}").into()),
                    Value::Float(1.0 + (i % 100) as f64),
                ]
            }),
            1000,
        );
        let ins = db
            .prepare("INSERT INTO stock VALUES ($1, $2, $3, $4)")
            .unwrap();
        bulk_load(
            db,
            sid,
            ins,
            (0..w).flat_map(|wi| {
                (0..ITEMS).map(move |i| {
                    vec![
                        Value::Int(wi as i64),
                        Value::Int(i as i64),
                        Value::Int(10 + (i % 91) as i64),
                        Value::Float(0.0),
                    ]
                })
            }),
            2000,
        );
        // Seed orders + orderlines + neworders (the newest third of the
        // seeded orders are undelivered).
        let ins_o = db
            .prepare("INSERT INTO orders VALUES ($1, $2, $3, $4, $5, $6)")
            .unwrap();
        bulk_load(
            db,
            sid,
            ins_o,
            (0..w).flat_map(|wi| {
                (0..DISTRICTS_PER_WAREHOUSE).flat_map(move |d| {
                    (0..SEED_ORDERS_PER_DISTRICT).map(move |o| {
                        vec![
                            Value::Int(wi as i64),
                            Value::Int(d as i64),
                            Value::Int(o as i64),
                            Value::Int((o % CUSTOMERS_PER_DISTRICT) as i64),
                            Value::Int(5),
                            Value::Int(o as i64),
                        ]
                    })
                })
            }),
            2000,
        );
        let ins_ol = db
            .prepare("INSERT INTO orderline VALUES ($1, $2, $3, $4, $5, $6, $7, $8)")
            .unwrap();
        bulk_load(
            db,
            sid,
            ins_ol,
            (0..w).flat_map(|wi| {
                (0..DISTRICTS_PER_WAREHOUSE).flat_map(move |d| {
                    (0..SEED_ORDERS_PER_DISTRICT).flat_map(move |o| {
                        (0..5u64).map(move |l| {
                            vec![
                                Value::Int(wi as i64),
                                Value::Int(d as i64),
                                Value::Int(o as i64),
                                Value::Int(l as i64),
                                Value::Int(((o * 7 + l) % ITEMS) as i64),
                                Value::Int(5),
                                Value::Float(25.0),
                                Value::Int(if o < 2 * SEED_ORDERS_PER_DISTRICT / 3 {
                                    1
                                } else {
                                    0
                                }),
                            ]
                        })
                    })
                })
            }),
            4000,
        );
        let ins_no = db
            .prepare("INSERT INTO neworder VALUES ($1, $2, $3)")
            .unwrap();
        bulk_load(
            db,
            sid,
            ins_no,
            (0..w).flat_map(|wi| {
                (0..DISTRICTS_PER_WAREHOUSE).flat_map(move |d| {
                    (2 * SEED_ORDERS_PER_DISTRICT / 3..SEED_ORDERS_PER_DISTRICT).map(move |o| {
                        vec![
                            Value::Int(wi as i64),
                            Value::Int(d as i64),
                            Value::Int(o as i64),
                        ]
                    })
                })
            }),
            2000,
        );

        self.stmts = Some(Stmts {
            get_warehouse: db
                .prepare("SELECT w_name FROM warehouse WHERE w_id = $1")
                .unwrap(),
            get_district: db
                .prepare("SELECT d_next_o_id FROM district WHERE d_w_id = $1 AND d_id = $2")
                .unwrap(),
            upd_district_next_oid: db
                .prepare(
                    "UPDATE district SET d_next_o_id = d_next_o_id + 1 \
                     WHERE d_w_id = $1 AND d_id = $2",
                )
                .unwrap(),
            ins_order: db
                .prepare("INSERT INTO orders VALUES ($1, $2, $3, $4, $5, $6)")
                .unwrap(),
            ins_neworder: db
                .prepare("INSERT INTO neworder VALUES ($1, $2, $3)")
                .unwrap(),
            get_item: db
                .prepare("SELECT i_price FROM item WHERE i_id = $1")
                .unwrap(),
            get_stock: db
                .prepare("SELECT s_quantity FROM stock WHERE s_w_id = $1 AND s_i_id = $2")
                .unwrap(),
            upd_stock: db
                .prepare(
                    "UPDATE stock SET s_quantity = s_quantity - $3, s_ytd = s_ytd + $4 \
                     WHERE s_w_id = $1 AND s_i_id = $2",
                )
                .unwrap(),
            ins_orderline: db
                .prepare("INSERT INTO orderline VALUES ($1, $2, $3, $4, $5, $6, $7, $8)")
                .unwrap(),
            upd_warehouse_ytd: db
                .prepare("UPDATE warehouse SET w_ytd = w_ytd + $2 WHERE w_id = $1")
                .unwrap(),
            upd_district_ytd: db
                .prepare("UPDATE district SET d_ytd = d_ytd + $3 WHERE d_w_id = $1 AND d_id = $2")
                .unwrap(),
            get_customer: db
                .prepare(
                    "SELECT c_balance FROM customer \
                     WHERE c_w_id = $1 AND c_d_id = $2 AND c_id = $3",
                )
                .unwrap(),
            get_customers_by_last: db
                .prepare(
                    "SELECT c_id FROM customer \
                     WHERE c_w_id = $1 AND c_d_id = $2 AND c_last = $3 ORDER BY c_id",
                )
                .unwrap(),
            upd_customer_bal: db
                .prepare(
                    "UPDATE customer SET c_balance = c_balance + $4, \
                     c_ytd_payment = c_ytd_payment + $5 \
                     WHERE c_w_id = $1 AND c_d_id = $2 AND c_id = $3",
                )
                .unwrap(),
            ins_history: db
                .prepare("INSERT INTO history VALUES ($1, $2, $3, $4)")
                .unwrap(),
            latest_order_of_customer: db
                .prepare(
                    "SELECT o_id, o_ol_cnt FROM orders \
                     WHERE o_w_id = $1 AND o_d_id = $2 AND o_c_id = $3 \
                     ORDER BY o_id DESC LIMIT 1",
                )
                .unwrap(),
            get_orderlines: db
                .prepare(
                    "SELECT ol_i_id, ol_qty, ol_amount FROM orderline \
                     WHERE ol_w_id = $1 AND ol_d_id = $2 AND ol_o_id = $3",
                )
                .unwrap(),
            oldest_neworder: db
                .prepare(
                    "SELECT no_o_id FROM neworder \
                     WHERE no_w_id = $1 AND no_d_id = $2 ORDER BY no_o_id LIMIT 1",
                )
                .unwrap(),
            del_neworder: db
                .prepare(
                    "DELETE FROM neworder \
                     WHERE no_w_id = $1 AND no_d_id = $2 AND no_o_id = $3",
                )
                .unwrap(),
            sum_orderlines: db
                .prepare(
                    "SELECT sum(ol_amount) FROM orderline \
                     WHERE ol_w_id = $1 AND ol_d_id = $2 AND ol_o_id = $3",
                )
                .unwrap(),
            upd_orderline_delivery: db
                .prepare(
                    "UPDATE orderline SET ol_delivery_d = $4 \
                     WHERE ol_w_id = $1 AND ol_d_id = $2 AND ol_o_id = $3",
                )
                .unwrap(),
            get_order_customer: db
                .prepare(
                    "SELECT o_c_id FROM orders WHERE o_w_id = $1 AND o_d_id = $2 AND o_id = $3",
                )
                .unwrap(),
            stock_level_join: db
                .prepare(
                    "SELECT count(*) FROM orderline ol JOIN stock s ON ol.ol_i_id = s.s_i_id \
                     WHERE ol.ol_w_id = $1 AND ol.ol_d_id = $2 AND ol.ol_o_id >= $3 \
                     AND s.s_w_id = $1 AND s.s_quantity < $4",
                )
                .unwrap(),
        });
    }

    fn txn(&mut self, ctx: &mut TxnCtx<'_>) -> bool {
        let choice = pick_weighted(ctx.rng, &self.mix);
        match choice {
            0 => self.new_order(ctx),
            1 => self.payment(ctx),
            2 => self.order_status(ctx),
            3 => self.delivery(ctx),
            _ => self.stock_level(ctx),
        }
    }
}

type TxnOutcome = Result<(), noisetap::DbError>;

impl Tpcc {
    fn finish(ctx: &mut TxnCtx<'_>, r: TxnOutcome) -> bool {
        match r {
            Ok(()) => ctx.commit().is_ok(),
            Err(_) => {
                ctx.rollback();
                false
            }
        }
    }

    pub fn new_order(&mut self, ctx: &mut TxnCtx<'_>) -> bool {
        let st = self.stmts.as_ref().unwrap();
        let (get_warehouse, get_district, upd_next, ins_order, ins_neworder) = (
            st.get_warehouse,
            st.get_district,
            st.upd_district_next_oid,
            st.ins_order,
            st.ins_neworder,
        );
        let (get_item, get_stock, upd_stock, ins_orderline) =
            (st.get_item, st.get_stock, st.upd_stock, st.ins_orderline);
        let w = self.w_id(ctx);
        let d = ctx.rng.random_range(0..DISTRICTS_PER_WAREHOUSE) as i64;
        let c = nurand(ctx.rng, 255, CUSTOMERS_PER_DISTRICT) as i64;
        let ol_cnt = ctx.rng.random_range(5..=15);
        let items: Vec<(i64, i64)> = (0..ol_cnt)
            .map(|_| {
                (
                    nurand(ctx.rng, 1023, ITEMS) as i64,
                    ctx.rng.random_range(1..=10) as i64,
                )
            })
            .collect();
        ctx.begin();
        let r = (|| -> TxnOutcome {
            ctx.request(get_warehouse, &[Value::Int(w)])?;
            let o_id = ctx
                .request(get_district, &[Value::Int(w), Value::Int(d)])?
                .rows
                .first()
                .and_then(|r| r[0].as_int())
                .unwrap_or(0);
            ctx.request(upd_next, &[Value::Int(w), Value::Int(d)])?;
            ctx.request(
                ins_order,
                &[
                    Value::Int(w),
                    Value::Int(d),
                    Value::Int(o_id),
                    Value::Int(c),
                    Value::Int(items.len() as i64),
                    Value::Int(o_id),
                ],
            )?;
            ctx.request(
                ins_neworder,
                &[Value::Int(w), Value::Int(d), Value::Int(o_id)],
            )?;
            for (number, (i_id, qty)) in items.iter().enumerate() {
                let price = ctx
                    .request(get_item, &[Value::Int(*i_id)])?
                    .rows
                    .first()
                    .and_then(|r| r[0].as_float())
                    .unwrap_or(1.0);
                ctx.request(get_stock, &[Value::Int(w), Value::Int(*i_id)])?;
                ctx.request(
                    upd_stock,
                    &[
                        Value::Int(w),
                        Value::Int(*i_id),
                        Value::Int(*qty),
                        Value::Float(price * *qty as f64),
                    ],
                )?;
                ctx.request(
                    ins_orderline,
                    &[
                        Value::Int(w),
                        Value::Int(d),
                        Value::Int(o_id),
                        Value::Int(number as i64),
                        Value::Int(*i_id),
                        Value::Int(*qty),
                        Value::Float(price * *qty as f64),
                        Value::Int(0),
                    ],
                )?;
            }
            Ok(())
        })();
        Self::finish(ctx, r)
    }

    pub fn payment(&mut self, ctx: &mut TxnCtx<'_>) -> bool {
        let st = self.stmts.as_ref().unwrap();
        let (upd_w, upd_d, get_by_last, upd_bal, ins_hist) = (
            st.upd_warehouse_ytd,
            st.upd_district_ytd,
            st.get_customers_by_last,
            st.upd_customer_bal,
            st.ins_history,
        );
        let w = self.w_id(ctx);
        let d = ctx.rng.random_range(0..DISTRICTS_PER_WAREHOUSE) as i64;
        let amount = ctx.rng.random_range(1..5000) as f64 / 100.0;
        let by_last = ctx.rng.random_range(0..100) < 60;
        let c_id = nurand(ctx.rng, 255, CUSTOMERS_PER_DISTRICT) as i64;
        let name = last_name(c_id as u64);
        ctx.begin();
        let r = (|| -> TxnOutcome {
            ctx.request(upd_w, &[Value::Int(w), Value::Float(amount)])?;
            ctx.request(upd_d, &[Value::Int(w), Value::Int(d), Value::Float(amount)])?;
            let target = if by_last {
                // Spec: pick the middle customer of the matching set.
                let rows = ctx
                    .request(
                        get_by_last,
                        &[Value::Int(w), Value::Int(d), Value::Text(name.into())],
                    )?
                    .rows;
                rows.get(rows.len() / 2)
                    .and_then(|r| r[0].as_int())
                    .unwrap_or(c_id)
            } else {
                c_id
            };
            ctx.request(
                upd_bal,
                &[
                    Value::Int(w),
                    Value::Int(d),
                    Value::Int(target),
                    Value::Float(-amount),
                    Value::Float(amount),
                ],
            )?;
            ctx.request(
                ins_hist,
                &[
                    Value::Int(target),
                    Value::Int(w),
                    Value::Float(amount),
                    Value::Int(0),
                ],
            )?;
            Ok(())
        })();
        Self::finish(ctx, r)
    }

    pub fn order_status(&mut self, ctx: &mut TxnCtx<'_>) -> bool {
        let st = self.stmts.as_ref().unwrap();
        let (get_cust, latest, get_ols) = (
            st.get_customer,
            st.latest_order_of_customer,
            st.get_orderlines,
        );
        let w = self.w_id(ctx);
        let d = ctx.rng.random_range(0..DISTRICTS_PER_WAREHOUSE) as i64;
        let c = nurand(ctx.rng, 255, CUSTOMERS_PER_DISTRICT) as i64;
        ctx.begin();
        let r = (|| -> TxnOutcome {
            ctx.request(get_cust, &[Value::Int(w), Value::Int(d), Value::Int(c)])?;
            let rows = ctx
                .request(latest, &[Value::Int(w), Value::Int(d), Value::Int(c)])?
                .rows;
            if let Some(o_id) = rows.first().and_then(|r| r[0].as_int()) {
                ctx.request(get_ols, &[Value::Int(w), Value::Int(d), Value::Int(o_id)])?;
            }
            Ok(())
        })();
        Self::finish(ctx, r)
    }

    pub fn delivery(&mut self, ctx: &mut TxnCtx<'_>) -> bool {
        let st = self.stmts.as_ref().unwrap();
        let (oldest, del_no, sum_ol, upd_ol, get_oc, upd_bal) = (
            st.oldest_neworder,
            st.del_neworder,
            st.sum_orderlines,
            st.upd_orderline_delivery,
            st.get_order_customer,
            st.upd_customer_bal,
        );
        let w = self.w_id(ctx);
        ctx.begin();
        let r = (|| -> TxnOutcome {
            for d in 0..DISTRICTS_PER_WAREHOUSE as i64 {
                let rows = ctx.request(oldest, &[Value::Int(w), Value::Int(d)])?.rows;
                let Some(o_id) = rows.first().and_then(|r| r[0].as_int()) else {
                    continue;
                };
                ctx.request(del_no, &[Value::Int(w), Value::Int(d), Value::Int(o_id)])?;
                let amount = ctx
                    .request(sum_ol, &[Value::Int(w), Value::Int(d), Value::Int(o_id)])?
                    .rows
                    .first()
                    .and_then(|r| r[0].as_float())
                    .unwrap_or(0.0);
                ctx.request(
                    upd_ol,
                    &[
                        Value::Int(w),
                        Value::Int(d),
                        Value::Int(o_id),
                        Value::Int(1),
                    ],
                )?;
                let c = ctx
                    .request(get_oc, &[Value::Int(w), Value::Int(d), Value::Int(o_id)])?
                    .rows
                    .first()
                    .and_then(|r| r[0].as_int())
                    .unwrap_or(0);
                ctx.request(
                    upd_bal,
                    &[
                        Value::Int(w),
                        Value::Int(d),
                        Value::Int(c),
                        Value::Float(amount),
                        Value::Float(0.0),
                    ],
                )?;
            }
            Ok(())
        })();
        Self::finish(ctx, r)
    }

    pub fn stock_level(&mut self, ctx: &mut TxnCtx<'_>) -> bool {
        let st = self.stmts.as_ref().unwrap();
        let (get_district, join) = (st.get_district, st.stock_level_join);
        let w = self.w_id(ctx);
        let d = ctx.rng.random_range(0..DISTRICTS_PER_WAREHOUSE) as i64;
        let threshold = ctx.rng.random_range(10..=20) as i64;
        ctx.begin();
        let r = (|| -> TxnOutcome {
            let next = ctx
                .request(get_district, &[Value::Int(w), Value::Int(d)])?
                .rows
                .first()
                .and_then(|r| r[0].as_int())
                .unwrap_or(0);
            ctx.request(
                join,
                &[
                    Value::Int(w),
                    Value::Int(d),
                    Value::Int((next - 20).max(0)),
                    Value::Int(threshold),
                ],
            )?;
            Ok(())
        })();
        Self::finish(ctx, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run, RunOptions};
    use tscout_kernel::{HardwareProfile, Kernel};

    fn fresh(warehouses: u64) -> (Database, Tpcc) {
        let mut k = Kernel::with_seed(HardwareProfile::server_2x20(), 21);
        k.noise_frac = 0.0;
        let mut db = Database::new(k);
        let mut w = Tpcc::new(warehouses);
        w.setup(&mut db);
        (db, w)
    }

    #[test]
    fn load_cardinalities() {
        let (db, _) = fresh(1);
        assert_eq!(db.table_live_tuples("warehouse"), Some(1));
        assert_eq!(db.table_live_tuples("district"), Some(10));
        assert_eq!(
            db.table_live_tuples("customer"),
            Some(10 * CUSTOMERS_PER_DISTRICT)
        );
        assert_eq!(db.table_live_tuples("item"), Some(ITEMS));
        assert_eq!(db.table_live_tuples("stock"), Some(ITEMS));
        assert_eq!(
            db.table_live_tuples("orders"),
            Some(10 * SEED_ORDERS_PER_DISTRICT)
        );
        assert_eq!(
            db.table_live_tuples("orderline"),
            Some(10 * SEED_ORDERS_PER_DISTRICT * 5)
        );
    }

    #[test]
    fn mixed_run_commits_and_orders_grow() {
        let (mut db, mut w) = fresh(2);
        let before = db.table_live_tuples("orders").unwrap();
        let stats = run(
            &mut db,
            &mut w,
            &RunOptions {
                terminals: 4,
                duration_ns: 30e6,
                ..Default::default()
            },
        );
        assert!(stats.committed > 20, "committed {}", stats.committed);
        let after = db.table_live_tuples("orders").unwrap();
        assert!(
            after > before,
            "NewOrder inserted orders: {before} -> {after}"
        );
        // Sanity: the abort rate is small (write-write conflicts on hot
        // district rows are possible but rare under txn-granular
        // interleaving).
        assert!(stats.aborted * 10 <= stats.committed);
    }

    #[test]
    fn delivery_consumes_neworders() {
        let (mut db, mut w) = fresh(1);
        let before = db.table_live_tuples("neworder").unwrap();
        let sid = db.create_session();
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut trace = Vec::new();
        let mut ctx = crate::driver::TxnCtx::new(&mut db, sid, &mut rng, &mut trace);
        assert!(w.delivery(&mut ctx));
        let after = db.table_live_tuples("neworder").unwrap();
        assert!(after < before, "delivery should consume neworder rows");
    }
}
