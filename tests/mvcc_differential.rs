//! NoiseTap's MVCC storage and transaction table held to the layouts they
//! replaced.
//!
//! [`reference`] keeps the `Vec<Version>`-per-slot table and the
//! `BTreeMap` of active transactions as they were shipped, verbatim but
//! for `pub(crate)` for `pub` and the methods nobody here calls. Seeded
//! streams run on both:
//!
//! - storage: inserts, updates, deletes, commits, rollbacks and GC of
//!   transactions in flight together, with readers at several snapshots;
//!   every result, every read, the version count and the estimates match
//!   after every step;
//! - transactions: begin / write / commit / abort across five terminals;
//!   handles, write logs, commit timestamps and `oldest_read_ts` match
//!   after every step.

use tscout_suite::noisetap::catalog::TableId;
use tscout_suite::noisetap::storage::{SlotId, VersionedTable, WwConflict};
use tscout_suite::noisetap::txn::{TxnManager, UndoRef};
use tscout_suite::noisetap::types::{DataType, Row, Schema};
use tscout_suite::noisetap::Value;
use tscout_suite::rng::{RngExt, SeedableRng, StdRng};

mod reference {
    //! The replaced layouts.
    use std::collections::BTreeMap;

    use tscout_suite::noisetap::storage::{SlotId, Version, WwConflict, TS_INF, TXN_BIT};
    use tscout_suite::noisetap::txn::{TxnHandle, UndoRef};
    use tscout_suite::noisetap::types::Row;

    #[derive(Debug, Default)]
    struct Slot {
        /// Newest-first version chain. Empty = free slot.
        versions: Vec<Version>,
    }

    /// A versioned table.
    #[derive(Debug, Default)]
    pub(crate) struct VersionedTable {
        slots: Vec<Slot>,
        free: Vec<SlotId>,
        live_estimate: u64,
        byte_estimate: u64,
    }

    impl VersionedTable {
        pub(crate) fn num_slots(&self) -> usize {
            self.slots.len()
        }

        pub(crate) fn live_tuples(&self) -> u64 {
            self.live_estimate
        }

        pub(crate) fn live_bytes(&self) -> u64 {
            self.byte_estimate
        }

        pub(crate) fn insert(&mut self, row: Row, me: u64) -> SlotId {
            let bytes = tscout_suite::noisetap::types::row_bytes(&row) as u64;
            let version = Version {
                begin: TXN_BIT | me,
                end: TS_INF,
                row,
            };
            let slot = match self.free.pop() {
                Some(s) => {
                    self.slots[s.0 as usize].versions = vec![version];
                    s
                }
                None => {
                    self.slots.push(Slot {
                        versions: vec![version],
                    });
                    SlotId(self.slots.len() as u64 - 1)
                }
            };
            self.live_estimate += 1;
            self.byte_estimate += bytes;
            slot
        }

        pub(crate) fn read(&self, slot: SlotId, read_ts: u64, me: u64) -> Option<&Row> {
            self.slots
                .get(slot.0 as usize)?
                .versions
                .iter()
                .find(|v| v.visible_to(read_ts, me))
                .map(|v| &v.row)
        }

        pub(crate) fn scan_slots(&self) -> impl Iterator<Item = SlotId> + '_ {
            self.slots
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.versions.is_empty())
                .map(|(i, _)| SlotId(i as u64))
        }

        fn head_mut(&mut self, slot: SlotId) -> Option<&mut Version> {
            self.slots.get_mut(slot.0 as usize)?.versions.first_mut()
        }

        pub(crate) fn update(
            &mut self,
            slot: SlotId,
            new_row: Row,
            me: u64,
        ) -> Result<(), WwConflict> {
            let new_bytes = tscout_suite::noisetap::types::row_bytes(&new_row) as u64;
            let head = self.head_mut(slot).ok_or(WwConflict)?;
            if head.end != TS_INF {
                return Err(WwConflict); // deleted or delete-pending
            }
            if head.begin & TXN_BIT != 0 {
                if head.begin == TXN_BIT | me {
                    // Second update by the same transaction: overwrite in place.
                    let old = tscout_suite::noisetap::types::row_bytes(&head.row) as u64;
                    head.row = new_row;
                    self.byte_estimate = self.byte_estimate + new_bytes - old;
                    return Ok(());
                }
                return Err(WwConflict);
            }
            head.end = TXN_BIT | me;
            let version = Version {
                begin: TXN_BIT | me,
                end: TS_INF,
                row: new_row,
            };
            self.slots[slot.0 as usize].versions.insert(0, version);
            self.byte_estimate += new_bytes;
            Ok(())
        }

        pub(crate) fn delete(&mut self, slot: SlotId, me: u64) -> Result<(), WwConflict> {
            let head = self.head_mut(slot).ok_or(WwConflict)?;
            if head.end != TS_INF {
                return Err(WwConflict);
            }
            if head.begin & TXN_BIT != 0 && head.begin != TXN_BIT | me {
                return Err(WwConflict);
            }
            head.end = TXN_BIT | me;
            self.live_estimate = self.live_estimate.saturating_sub(1);
            Ok(())
        }

        pub(crate) fn commit_slot(&mut self, slot: SlotId, me: u64, commit_ts: u64) {
            if let Some(s) = self.slots.get_mut(slot.0 as usize) {
                for v in &mut s.versions {
                    if v.begin == TXN_BIT | me {
                        v.begin = commit_ts;
                    }
                    if v.end == TXN_BIT | me {
                        v.end = commit_ts;
                    }
                }
            }
        }

        pub(crate) fn abort_slot(&mut self, slot: SlotId, me: u64) {
            let Some(s) = self.slots.get_mut(slot.0 as usize) else {
                return;
            };
            // Remove versions this transaction installed.
            let before = s.versions.len();
            s.versions.retain(|v| {
                if v.begin == TXN_BIT | me {
                    self.byte_estimate = self
                        .byte_estimate
                        .saturating_sub(tscout_suite::noisetap::types::row_bytes(&v.row) as u64);
                    false
                } else {
                    true
                }
            });
            let removed = before - s.versions.len();
            self.live_estimate = self.live_estimate.saturating_sub(removed as u64);
            // Clear pending delete marks.
            let mut undeleted = 0;
            for v in &mut s.versions {
                if v.end == TXN_BIT | me {
                    v.end = TS_INF;
                    undeleted += 1;
                }
            }
            self.live_estimate += undeleted;
            if s.versions.is_empty() {
                self.free.push(slot);
            }
        }

        pub(crate) fn gc_slot_with_row(
            &mut self,
            slot: SlotId,
            oldest_read_ts: u64,
        ) -> (usize, Option<Row>) {
            let Some(s) = self.slots.get_mut(slot.0 as usize) else {
                return (0, None);
            };
            if s.versions.is_empty() {
                return (0, None);
            }
            let all_dead = s
                .versions
                .iter()
                .all(|v| v.end & TXN_BIT == 0 && v.end <= oldest_read_ts);
            if all_dead {
                let pruned = s.versions.len();
                let row = s.versions.first().map(|v| v.row.clone());
                s.versions.clear();
                self.free.push(slot);
                return (pruned, row);
            }
            let before = s.versions.len();
            s.versions
                .retain(|v| v.end & TXN_BIT != 0 || v.end > oldest_read_ts);
            (before - s.versions.len(), None)
        }

        pub(crate) fn total_versions(&self) -> usize {
            self.slots.iter().map(|s| s.versions.len()).sum()
        }
    }

    #[derive(Debug)]
    struct ActiveTxn {
        read_ts: u64,
        undo: Vec<UndoRef>,
    }

    /// The transaction manager.
    #[derive(Debug)]
    pub(crate) struct TxnManager {
        next_ts: u64,
        active: BTreeMap<u64, ActiveTxn>,
        pub(crate) committed: u64,
        pub(crate) aborted: u64,
    }

    impl TxnManager {
        pub(crate) fn new() -> Self {
            TxnManager {
                next_ts: 1,
                active: BTreeMap::new(),
                committed: 0,
                aborted: 0,
            }
        }

        pub(crate) fn begin(&mut self) -> TxnHandle {
            let id = self.next_ts;
            self.next_ts += 1;
            let read_ts = id - 1; // snapshot: everything committed before us
            self.active.insert(
                id,
                ActiveTxn {
                    read_ts,
                    undo: Vec::new(),
                },
            );
            TxnHandle { id, read_ts }
        }

        pub(crate) fn log_write(&mut self, txn: TxnHandle, undo: UndoRef) {
            if let Some(a) = self.active.get_mut(&txn.id) {
                a.undo.push(undo);
            }
        }

        pub(crate) fn commit(&mut self, txn: TxnHandle) -> (u64, Vec<UndoRef>) {
            let a = self.active.remove(&txn.id).expect("commit of unknown txn");
            let commit_ts = self.next_ts;
            self.next_ts += 1;
            self.committed += 1;
            (commit_ts, a.undo)
        }

        pub(crate) fn abort(&mut self, txn: TxnHandle) -> Vec<UndoRef> {
            self.aborted += 1;
            self.active
                .remove(&txn.id)
                .map(|a| a.undo)
                .unwrap_or_default()
        }

        pub(crate) fn oldest_read_ts(&self) -> u64 {
            self.active
                .values()
                .map(|a| a.read_ts)
                .min()
                .unwrap_or(self.next_ts.saturating_sub(1))
        }

        pub(crate) fn active_count(&self) -> usize {
            self.active.len()
        }

        pub(crate) fn write_count(&self, txn: TxnHandle) -> usize {
            self.active.get(&txn.id).map(|a| a.undo.len()).unwrap_or(0)
        }
    }
}

fn row(rng: &mut StdRng) -> Row {
    let pad = ["", "x", "a longer text value"][rng.random_range(0..3)];
    vec![
        Value::Int(rng.random_range(0..1_000)),
        Value::Text(pad.into()),
    ]
}

/// A transaction of the storage stream: its id, snapshot and the slots
/// it wrote, in order.
struct Txn {
    id: u64,
    read_ts: u64,
    writes: Vec<SlotId>,
}

/// The shipped and the reference table in step.
struct Tables {
    ours: VersionedTable,
    want: reference::VersionedTable,
}

impl Tables {
    /// Every slot read by `me` at `read_ts` on both tables.
    fn reads_match(&self, read_ts: u64, me: u64, case: &str) {
        for s in 0..self.ours.num_slots() as u64 + 1 {
            let slot = SlotId(s);
            assert_eq!(
                self.ours.read(slot, read_ts, me),
                self.want.read(slot, read_ts, me),
                "{case}: read of slot {s} at {read_ts} by {me}"
            );
        }
    }

    fn counts_match(&self, case: &str) {
        let counts = |n: usize, v: usize, l: u64, b: u64| (n, v, l, b);
        assert_eq!(
            counts(
                self.ours.num_slots(),
                self.ours.total_versions(),
                self.ours.live_tuples(),
                self.ours.live_bytes()
            ),
            counts(
                self.want.num_slots(),
                self.want.total_versions(),
                self.want.live_tuples(),
                self.want.live_bytes()
            ),
            "{case}: slots, versions, live tuples, live bytes"
        );
        for (read_ts, me) in [(0, 0), (u64::MAX >> 1, 0)] {
            let want = (self.want.scan_slots()).map(|s| (s, self.want.read(s, read_ts, me)));
            assert!(
                self.ours.scan(read_ts, me).eq(want),
                "{case}: scan at {read_ts}"
            );
        }
    }
}

/// One seeded storage stream of `steps` operations.
fn storage_stream(seed: u64, steps: usize) -> (usize, u64) {
    let rng = &mut StdRng::seed_from_u64(seed);
    let schema = Schema::new(&[("k", DataType::Int), ("pad", DataType::Text)]);
    let mut t = Tables {
        ours: VersionedTable::new(schema),
        want: reference::VersionedTable::default(),
    };
    let (mut next_ts, mut active, mut pruned) = (1u64, Vec::<Txn>::new(), 0u64);
    let mut conflicts = 0;
    for step in 0..steps {
        let case = format!("seed {seed} step {step}");
        let slots = t.ours.num_slots() as u64;
        let pick = rng.random_range(0..active.len().max(1));
        match rng.random_range(0..100) {
            0..=9 if active.len() < 6 => {
                active.push(Txn {
                    id: next_ts,
                    read_ts: next_ts - 1,
                    writes: Vec::new(),
                });
                next_ts += 1;
            }
            10..=29 if !active.is_empty() => {
                let txn = &mut active[pick];
                let r = row(rng);
                let slot = t.ours.insert(r.clone(), txn.id);
                assert_eq!(slot, t.want.insert(r, txn.id), "{case}: insert");
                txn.writes.push(slot);
            }
            30..=59 if !active.is_empty() && slots > 0 => {
                let txn = &mut active[pick];
                let slot = SlotId(rng.random_range(0..slots));
                let result = if rng.random_range(0..4) == 0 {
                    let got = t.ours.delete(slot, txn.id);
                    assert_eq!(got, t.want.delete(slot, txn.id), "{case}: delete");
                    got
                } else {
                    let r = row(rng);
                    let got = t.ours.update(slot, r.clone(), txn.id);
                    assert_eq!(got, t.want.update(slot, r, txn.id), "{case}: update");
                    got
                };
                match result {
                    Ok(()) => txn.writes.push(slot),
                    Err(WwConflict) => conflicts += 1,
                }
            }
            60..=74 if !active.is_empty() => {
                let txn = active.swap_remove(pick);
                let commit_ts = next_ts;
                next_ts += 1;
                for &slot in &txn.writes {
                    t.ours.commit_slot(slot, txn.id, commit_ts);
                    t.want.commit_slot(slot, txn.id, commit_ts);
                }
            }
            75..=82 if !active.is_empty() => {
                let txn = active.swap_remove(pick);
                for &slot in txn.writes.iter().rev() {
                    t.ours.abort_slot(slot, txn.id);
                    t.want.abort_slot(slot, txn.id);
                }
            }
            83..=89 => {
                let oldest = active.iter().map(|x| x.read_ts).min();
                let oldest = oldest.unwrap_or(next_ts - 1);
                for s in 0..slots + 1 {
                    let got = t.ours.gc_slot_with_row(SlotId(s), oldest);
                    let want = t.want.gc_slot_with_row(SlotId(s), oldest);
                    assert_eq!(got, want, "{case}: gc of slot {s} at {oldest}");
                    pruned += got.0 as u64;
                }
            }
            _ => {
                // Readers: every in-flight transaction at its snapshot,
                // an outsider at the latest and at a random one.
                for txn in &active {
                    t.reads_match(txn.read_ts, txn.id, &case);
                }
                t.reads_match(next_ts, 0, &case);
                t.reads_match(rng.random_range(0..next_ts), 0, &case);
            }
        }
        t.counts_match(&case);
    }
    assert!(conflicts > 0, "seed {seed}: the stream never conflicted");
    (t.ours.total_versions(), pruned)
}

/// Seeded storage streams: the head-in-place chain gives the
/// `Vec<Version>` chain's results, reads, GC counts and estimates.
#[test]
fn storage_matches_the_version_vec_chain() {
    let mut pruned = 0;
    for seed in 0..12 {
        pruned += storage_stream(seed, 3_000).1;
    }
    assert!(pruned > 1_000, "GC pruned only {pruned} versions");
}

/// Five terminals begin, write, commit and abort at random; the flat
/// transaction table answers as the `BTreeMap` one does after every step.
#[test]
fn transaction_table_matches_the_btreemap_oracle() {
    const TERMINALS: usize = 5;
    for seed in 0..8u64 {
        let rng = &mut StdRng::seed_from_u64(seed);
        let (mut ours, mut want) = (TxnManager::new(), reference::TxnManager::new());
        let mut open = [None; TERMINALS];
        let mut reorders = 0;
        for step in 0..4_000 {
            let case = format!("seed {seed} step {step}");
            let term = rng.random_range(0..TERMINALS);
            match open[term] {
                None => {
                    let txn = ours.begin();
                    assert_eq!(txn, want.begin(), "{case}: begin");
                    open[term] = Some(txn);
                }
                Some(txn) => match rng.random_range(0..10) {
                    0..=5 => {
                        let undo = UndoRef {
                            table: TableId(rng.random_range(0..3)),
                            slot: SlotId(rng.random_range(0..100)),
                            redo_bytes: rng.random_range(0..200),
                        };
                        ours.log_write(txn, undo);
                        want.log_write(txn, undo);
                        assert_eq!(ours.write_count(txn), want.write_count(txn), "{case}");
                    }
                    6..=8 => {
                        // Finishing anything but the oldest reorders the rest.
                        reorders += usize::from(ours.oldest_read_ts() != txn.read_ts);
                        assert_eq!(ours.commit(txn), Some(want.commit(txn)), "{case}: commit");
                        assert_eq!(ours.commit(txn), None, "{case}: a second commit");
                        open[term] = None;
                    }
                    _ => {
                        assert_eq!(ours.abort(txn), want.abort(txn), "{case}: abort");
                        open[term] = None;
                    }
                },
            }
            assert_eq!(
                (ours.oldest_read_ts(), ours.active_count()),
                (want.oldest_read_ts(), want.active_count()),
                "{case}: oldest_read_ts, active"
            );
            assert_eq!(
                (ours.committed, ours.aborted),
                (want.committed, want.aborted),
                "{case}"
            );
        }
        assert!(
            reorders > 100,
            "seed {seed}: {reorders} out-of-order finishes"
        );
    }
}
