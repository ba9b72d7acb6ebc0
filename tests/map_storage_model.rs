//! Model-based test of the map and ring storage.
//!
//! The slab/byte-queue storage in `tscout-bpf` replaced
//! `BTreeMap<Vec<u8>, Vec<u8>>` hash maps and a `VecDeque<Vec<u8>>`
//! ring. Those old semantics live on here as the *oracle*: seeded random
//! operation sequences run against both, and every return value,
//! `dump()`, `RingStats` and `MapOpStats` must agree. Two properties the
//! oracle cannot state are pinned beside it: a map-value pointer dies
//! with its key, and the ring's memory follows what is queued, not its
//! configured capacity.

use std::collections::{BTreeMap, VecDeque};

use tscout_suite::rng::{RngExt, SeedableRng, StdRng};

use tscout_suite::bpf::insn::{AluOp, Helper, Size, R0, R1, R10, R2, R3, R4, R6};
use tscout_suite::bpf::maps::{MapDef, MapError, MapKind, EVICTED_HEADER_BYTES, EVICTED_KEEP};
use tscout_suite::bpf::vm::{NullWorld, Vm, VmError};
use tscout_suite::bpf::{MapId, MapOpStats, MapRegistry, ProgramBuilder, RingStats};

// ---------------------------------------------------------------------
// The oracle: the storage as it was before the slabs.
// ---------------------------------------------------------------------

#[derive(Debug)]
enum OracleStorage {
    Hash(BTreeMap<Vec<u8>, Vec<u8>>),
    Ring {
        buf: VecDeque<Vec<u8>>,
        dropped: u64,
        produced: u64,
        bytes: u64,
        hwm: usize,
        evicted: VecDeque<Vec<u8>>,
    },
}

#[derive(Debug, Default)]
struct Oracle {
    maps: Vec<(MapDef, OracleStorage)>,
    ops: MapOpStats,
}

impl Oracle {
    fn create(&mut self, def: MapDef) {
        let storage = match def.kind {
            MapKind::Hash { .. } => OracleStorage::Hash(BTreeMap::new()),
            MapKind::PerfEventArray { .. } => OracleStorage::Ring {
                buf: VecDeque::new(),
                dropped: 0,
                produced: 0,
                bytes: 0,
                hwm: 0,
                evicted: VecDeque::new(),
            },
        };
        self.maps.push((def, storage));
    }

    fn lookup(&mut self, id: usize, key: &[u8]) -> Option<&mut Vec<u8>> {
        self.ops.lookups += 1;
        match &mut self.maps[id].1 {
            OracleStorage::Hash(h) => h.get_mut(key),
            OracleStorage::Ring { .. } => None,
        }
    }

    fn update(&mut self, id: usize, key: &[u8], value: &[u8]) -> Result<(), MapError> {
        self.ops.updates += 1;
        let (def, storage) = &mut self.maps[id];
        if key.len() != def.key_size || value.len() != def.value_size {
            return Err(MapError::Invalid);
        }
        match (storage, def.kind) {
            (OracleStorage::Hash(h), MapKind::Hash { max_entries }) => {
                if !h.contains_key(key) && h.len() >= max_entries {
                    return Err(MapError::Full);
                }
                h.insert(key.to_vec(), value.to_vec());
                Ok(())
            }
            _ => Err(MapError::Invalid),
        }
    }

    fn delete(&mut self, id: usize, key: &[u8]) -> Result<(), MapError> {
        self.ops.deletes += 1;
        match &mut self.maps[id].1 {
            OracleStorage::Hash(h) => h.remove(key).map(|_| ()).ok_or(MapError::NotFound),
            OracleStorage::Ring { .. } => Err(MapError::Invalid),
        }
    }

    fn ring_push(&mut self, id: usize, data: &[u8]) -> Result<(), MapError> {
        self.ops.ring_pushes += 1;
        let (def, storage) = &mut self.maps[id];
        match (storage, def.kind) {
            (
                OracleStorage::Ring {
                    buf,
                    dropped,
                    produced,
                    bytes,
                    hwm,
                    evicted,
                },
                MapKind::PerfEventArray { capacity },
            ) => {
                // (The old ring let a capacity of 0 hold one record and
                // counted a first drop that evicted nothing; a ring with
                // no room loses the incoming record.)
                buf.push_back(data.to_vec());
                if buf.len() > capacity {
                    if evicted.len() >= EVICTED_KEEP {
                        evicted.pop_front();
                    }
                    evicted.extend(buf.pop_front());
                    *dropped += 1;
                }
                *produced += 1;
                *bytes += data.len() as u64;
                *hwm = (*hwm).max(buf.len());
                Ok(())
            }
            _ => Err(MapError::Invalid),
        }
    }

    fn ring_drain(&mut self, id: usize, max: usize) -> Vec<Vec<u8>> {
        let out: Vec<Vec<u8>> = match &mut self.maps[id].1 {
            OracleStorage::Ring { buf, .. } => {
                let n = buf.len().min(max);
                buf.drain(..n).collect()
            }
            _ => Vec::new(),
        };
        self.ops.ring_drained += out.len() as u64;
        out
    }

    fn ring_take_evicted(&mut self, id: usize) -> Vec<Vec<u8>> {
        match &mut self.maps[id].1 {
            OracleStorage::Ring { evicted, .. } => evicted.drain(..).collect(),
            _ => Vec::new(),
        }
    }

    fn ring_stats(&self, id: usize) -> RingStats {
        let (def, storage) = &self.maps[id];
        match (storage, def.kind) {
            (
                OracleStorage::Ring {
                    buf,
                    dropped,
                    produced,
                    bytes,
                    hwm,
                    ..
                },
                MapKind::PerfEventArray { capacity },
            ) => RingStats {
                produced: *produced,
                dropped: *dropped,
                bytes: *bytes,
                hwm: *hwm,
                len: buf.len(),
                capacity,
            },
            _ => RingStats::default(),
        }
    }

    fn clear(&mut self, id: usize) {
        match &mut self.maps[id].1 {
            OracleStorage::Hash(h) => h.clear(),
            OracleStorage::Ring {
                buf,
                dropped,
                evicted,
                ..
            } => {
                buf.clear();
                evicted.clear();
                *dropped = 0;
            }
        }
    }

    fn dump(&self, id: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        match &self.maps[id].1 {
            OracleStorage::Hash(h) => h.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
            OracleStorage::Ring { buf, .. } => (buf.iter().enumerate())
                .map(|(i, v)| ((i as u32).to_le_bytes().to_vec(), v.clone()))
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------
// Random operation sequences
// ---------------------------------------------------------------------

fn defs() -> Vec<MapDef> {
    vec![
        MapDef::hash("h8", 8, 16, 6),
        MapDef::hash("h3", 3, 5, 3),
        MapDef::hash("h0", 0, 4, 2),
        MapDef::perf_event_array("r4", 4),
        MapDef::perf_event_array("r1", 1),
        MapDef::perf_event_array("r0", 0),
    ]
}

fn bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.random_range(0u8..=255)).collect()
}

/// A key for `def`: from a domain small enough that hits are common,
/// occasionally of the wrong width.
fn key_for(rng: &mut StdRng, def: &MapDef) -> Vec<u8> {
    if rng.random_bool(0.05) {
        let len = rng.random_range(0usize..10);
        return bytes(rng, len);
    }
    let mut key = vec![0u8; def.key_size];
    let small = rng.random_range(0u32..10);
    for (dst, src) in key.iter_mut().zip(small.to_le_bytes()) {
        *dst = src;
    }
    key
}

fn value_for(rng: &mut StdRng, def: &MapDef) -> Vec<u8> {
    let len = if rng.random_bool(0.05) {
        rng.random_range(0usize..20)
    } else {
        def.value_size
    };
    bytes(rng, len)
}

/// What left each ring other than by being overwritten, and the
/// eviction headers taken, since the run began or the ring was cleared.
#[derive(Debug, Default, Clone, Copy)]
struct RingLedger {
    drained: u64,
    cleared: u64,
    headers_taken: u64,
}

/// The ring's conservation law: every record ever published was
/// drained, is live, was overwritten, or went with a `clear`; and every
/// overwritten record left a header (fewer than `EVICTED_KEEP` are ever
/// pending here).
fn check_conservation(real: &MapRegistry, oracle: &Oracle, ledgers: &[RingLedger], step: usize) {
    for (id, ledger) in ledgers.iter().enumerate() {
        let OracleStorage::Ring { evicted, .. } = &oracle.maps[id].1 else {
            continue;
        };
        let s = real.ring_stats(MapId(id as u32));
        assert_eq!(
            s.produced,
            ledger.drained + s.len as u64 + s.dropped + ledger.cleared,
            "ring {id} (capacity {}), step {step}: {s:?} {ledger:?}",
            s.capacity
        );
        assert!(s.len <= s.capacity, "ring {id}, step {step}: {s:?}");
        assert_eq!(
            ledger.headers_taken + evicted.len() as u64,
            s.dropped,
            "ring {id}, step {step}: a header per overwritten record"
        );
    }
}

fn check_all(real: &MapRegistry, oracle: &Oracle, step: usize) {
    for id in 0..oracle.maps.len() {
        let rid = MapId(id as u32);
        assert_eq!(
            real.dump(rid),
            oracle.dump(id),
            "dump of map {id}, step {step}"
        );
        assert_eq!(
            real.ring_stats(rid),
            oracle.ring_stats(id),
            "ring stats of map {id}, step {step}"
        );
    }
    assert_eq!(real.op_stats(), oracle.ops, "op stats, step {step}");
}

#[test]
fn storage_matches_the_old_semantics_on_random_sequences() {
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0x5_1AB + seed);
        let mut real = MapRegistry::new();
        let mut oracle = Oracle::default();
        for def in defs() {
            real.create(def.clone());
            oracle.create(def);
        }
        let mut ledgers = vec![RingLedger::default(); oracle.maps.len()];
        for step in 0..4_000 {
            let id = rng.random_range(0..oracle.maps.len());
            let rid = MapId(id as u32);
            let def = oracle.maps[id].0.clone();
            match rng.random_range(0u32..100) {
                0..=24 => {
                    let (k, v) = (key_for(&mut rng, &def), value_for(&mut rng, &def));
                    assert_eq!(real.update(rid, &k, &v), oracle.update(id, &k, &v));
                }
                25..=39 => {
                    let k = key_for(&mut rng, &def);
                    let want = oracle.lookup(id, &k).map(|v| v.clone());
                    assert_eq!(real.lookup(rid, &k).map(<[u8]>::to_vec), want);
                }
                40..=49 => {
                    // In-place mutation through the mutable view.
                    let k = key_for(&mut rng, &def);
                    let byte = rng.random_range(0u8..=255);
                    let want = oracle.lookup(id, &k);
                    let got = real.lookup_mut(rid, &k);
                    assert_eq!(got.is_some(), want.is_some());
                    if let (Some(got), Some(want)) = (got, want) {
                        if let (Some(g), Some(w)) = (got.first_mut(), want.first_mut()) {
                            *g = byte;
                            *w = byte;
                        }
                    }
                }
                50..=59 => {
                    let k = key_for(&mut rng, &def);
                    assert_eq!(real.delete(rid, &k), oracle.delete(id, &k));
                }
                60..=79 => {
                    // Often past capacity: the rings hold 4, 1 and 0.
                    let len = rng.random_range(0usize..40);
                    let data = bytes(&mut rng, len);
                    assert_eq!(real.ring_push(rid, &data), oracle.ring_push(id, &data));
                }
                80..=87 => {
                    let max = rng.random_range(0usize..6);
                    let drained = real.ring_drain(rid, max);
                    ledgers[id].drained += drained.len() as u64;
                    assert_eq!(drained, oracle.ring_drain(id, max));
                }
                88..=93 => {
                    // Only the header of an overwritten record is kept.
                    let mut got = Vec::new();
                    while let Some(header) = real.ring_pop_evicted(rid) {
                        got.push(header.as_bytes().to_vec());
                    }
                    let want: Vec<Vec<u8>> = oracle
                        .ring_take_evicted(id)
                        .into_iter()
                        .map(|p| p[..p.len().min(EVICTED_HEADER_BYTES)].to_vec())
                        .collect();
                    ledgers[id].headers_taken += got.len() as u64;
                    assert_eq!(got, want);
                }
                94..=97 => {
                    // `clear` empties the ring and zeroes `dropped`.
                    let s = real.ring_stats(rid);
                    ledgers[id].cleared += s.len as u64 + s.dropped;
                    ledgers[id].headers_taken = 0;
                    real.clear(rid);
                    oracle.clear(id);
                }
                _ => check_all(&real, &oracle, step),
            }
            assert_eq!(
                real.entries(rid),
                oracle.dump(id).len(),
                "entries, step {step}"
            );
            check_conservation(&real, &oracle, &ledgers, step);
        }
        check_all(&real, &oracle, usize::MAX);
    }
}

#[test]
fn evicted_headers_are_bounded() {
    // Far more overwrites than `EVICTED_KEEP`: the newest headers stay,
    // the drop count stays exact.
    let mut real = MapRegistry::new();
    let ring = real.create(MapDef::perf_event_array("r", 1));
    let total = EVICTED_KEEP + 100;
    for i in 0..=total {
        real.ring_push(ring, &(i as u64).to_le_bytes()).unwrap();
    }
    assert_eq!(real.ring_dropped(ring), total as u64);
    let mut kept = Vec::new();
    while let Some(h) = real.ring_pop_evicted(ring) {
        kept.push(u64::from_le_bytes(h.as_bytes().try_into().unwrap()));
    }
    let want: Vec<u64> = (100..total as u64).collect();
    assert_eq!(kept, want);
}

// ---------------------------------------------------------------------
// A map-value pointer dies with its key
// ---------------------------------------------------------------------

/// `lookup(key=7)`, keep the pointer in R6, run `between`, then load
/// through R6.
fn deref_after(
    between: impl FnOnce(&mut ProgramBuilder, MapId),
) -> (MapRegistry, Result<u64, VmError>) {
    let mut maps = MapRegistry::new();
    let h = maps.create(MapDef::hash("h", 8, 8, 8));
    maps.update(h, &7u64.to_le_bytes(), &0x77u64.to_le_bytes())
        .unwrap();
    let mut b = ProgramBuilder::new();
    b.store_imm(Size::B8, R10, -8, 7);
    b.load_map(R1, h);
    b.mov_reg(R2, R10);
    b.alu_imm(AluOp::Add, R2, -8);
    b.call(Helper::MapLookup);
    b.mov_reg(R6, R0);
    between(&mut b, h);
    b.load(Size::B8, R0, R6, 0);
    b.exit();
    let prog = b.resolve().unwrap();
    let mut world = NullWorld::default();
    let result = Vm::run(&prog, &[], &mut maps, &mut world).map(|(r0, _)| r0);
    (maps, result)
}

fn call_delete(b: &mut ProgramBuilder, map: MapId, key_off: i32) {
    b.load_map(R1, map);
    b.mov_reg(R2, R10);
    b.alu_imm(AluOp::Add, R2, key_off as i64);
    b.call(Helper::MapDelete);
}

fn call_update(b: &mut ProgramBuilder, map: MapId, key: i64, value: i64) {
    b.store_imm(Size::B8, R10, -16, key);
    b.store_imm(Size::B8, R10, -24, value);
    b.load_map(R1, map);
    b.mov_reg(R2, R10);
    b.alu_imm(AluOp::Add, R2, -16);
    b.mov_reg(R3, R10);
    b.alu_imm(AluOp::Add, R3, -24);
    b.mov_imm(R4, 0);
    b.call(Helper::MapUpdate);
}

#[test]
fn map_value_pointer_is_stale_after_its_key_is_deleted() {
    // Undisturbed, the pointer reads the value.
    let (_, live) = deref_after(|_, _| {});
    assert_eq!(live, Ok(0x77));

    // Overwriting the key keeps the pointer valid and shows the new value.
    let (_, updated) = deref_after(|b, h| call_update(b, h, 7, 0x99));
    assert_eq!(updated, Ok(0x99));

    // Deleted: stale, not a panic.
    let (_, deleted) = deref_after(|b, h| call_delete(b, h, -8));
    assert!(
        matches!(deleted, Err(VmError::StaleMapValue { .. })),
        "{deleted:?}"
    );

    // Deleted, and the freed slot handed to another key: still stale,
    // never the other key's bytes.
    let (maps, reused) = deref_after(|b, h| {
        call_delete(b, h, -8);
        call_update(b, h, 8, 0x88);
    });
    assert!(
        matches!(reused, Err(VmError::StaleMapValue { .. })),
        "{reused:?}"
    );
    assert_eq!(
        maps.lookup(MapId(0), &8u64.to_le_bytes()),
        Some(&0x88u64.to_le_bytes()[..])
    );
}

// ---------------------------------------------------------------------
// The ring's memory follows its contents
// ---------------------------------------------------------------------

#[test]
fn a_huge_capacity_ring_owns_only_what_it_holds() {
    let mut maps = MapRegistry::new();
    let ring = maps.create(MapDef::perf_event_array("tscout_ring", 1 << 22));
    assert_eq!(
        maps.ring_owned_bytes(ring),
        0,
        "nothing sized from the capacity"
    );
    let record = [0xABu8; 440];
    for _ in 0..10 {
        maps.ring_push(ring, &record).unwrap();
    }
    assert_eq!(maps.ring_len(ring), 10);
    assert!(
        maps.ring_owned_bytes(ring) < 64 * 1024,
        "ring owns {} bytes for 10 records",
        maps.ring_owned_bytes(ring)
    );
    // Draining gives the records back in order and keeps the queue's
    // memory for the next burst instead of growing it.
    let owned = maps.ring_owned_bytes(ring);
    let mut seen = 0;
    maps.ring_drain_with(ring, usize::MAX, |rec, behind| {
        assert_eq!(rec, record);
        seen += 1;
        assert_eq!(behind, 10 - seen);
    });
    assert_eq!(seen, 10);
    for _ in 0..10 {
        maps.ring_push(ring, &record).unwrap();
    }
    assert_eq!(maps.ring_owned_bytes(ring), owned);
}
