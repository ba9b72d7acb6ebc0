//! In-memory versioned storage: HyPer-style MVCC version chains
//! (paper §6: NoisePage "uses HyPer-style MVCC \[38\] over Apache Arrow
//! in-memory columnar data").
//!
//! Each tuple slot holds a newest-first chain of [`Version`]s, the
//! newest in the slot itself, so a read that sees the head loads no
//! other block. A version's `begin`/`end` fields hold either a commit
//! timestamp or a *transaction marker* (`TXN_BIT | txn_id`) while the
//! writing transaction is still in flight. Readers resolve visibility
//! against their snapshot timestamp; write-write conflicts are detected
//! at update time (first-writer-wins).
//!
//! The Arrow columnar layout of NoisePage is simplified to row-structured
//! blocks here — the physical column format is orthogonal to the
//! training-data collection behaviors this reproduction measures; the
//! cost model charges scans by tuple count and byte width either way.

use crate::types::{Row, Schema};

/// High bit marks a begin/end field as an uncommitted transaction id.
pub const TXN_BIT: u64 = 1 << 63;
/// "Infinity" end timestamp: version is the live head.
pub const TS_INF: u64 = !TXN_BIT;

/// Slot identifier within a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotId(pub u64);

/// One tuple version.
#[derive(Debug, Clone)]
pub struct Version {
    pub begin: u64,
    pub end: u64,
    pub row: Row,
}

impl Version {
    /// Is this version visible to a reader with snapshot `read_ts` running
    /// as transaction `me`?
    pub fn visible_to(&self, read_ts: u64, me: u64) -> bool {
        let begin_ok = if self.begin & TXN_BIT != 0 {
            self.begin == TXN_BIT | me
        } else {
            self.begin <= read_ts
        };
        let end_ok = if self.end & TXN_BIT != 0 {
            // Pending delete: invisible only to the deleter itself.
            self.end != TXN_BIT | me
        } else {
            self.end > read_ts
        };
        begin_ok && end_ok
    }
}

/// A tuple slot: its newest version in place, older ones newest-first
/// behind it — the chain `head, older[0], older[1], ..`. No head is a
/// free slot, and a free slot has no older version.
#[derive(Debug, Default)]
struct Slot {
    head: Option<Version>,
    older: Vec<Version>,
}

impl Slot {
    /// The chain, newest first.
    fn versions(&self) -> impl Iterator<Item = &Version> {
        self.head.iter().chain(&self.older)
    }

    fn versions_mut(&mut self) -> impl Iterator<Item = &mut Version> {
        self.head.iter_mut().chain(&mut self.older)
    }

    fn len(&self) -> usize {
        usize::from(self.head.is_some()) + self.older.len()
    }

    /// The row `me` sees at `read_ts`.
    fn visible(&self, read_ts: u64, me: u64) -> Option<&Row> {
        self.versions()
            .find(|v| v.visible_to(read_ts, me))
            .map(|v| &v.row)
    }

    /// Keep the versions `keep` accepts, in chain order, asking newest
    /// first; returns how many went.
    fn retain(&mut self, mut keep: impl FnMut(&Version) -> bool) -> usize {
        let before = self.len();
        let head_kept = self.head.as_ref().is_some_and(&mut keep);
        self.older.retain(keep);
        if !head_kept {
            self.head = (!self.older.is_empty()).then(|| self.older.remove(0));
        }
        before - self.len()
    }
}

/// Slots per chunk of a table.
const CHUNK: usize = 1 << 10;

/// A table's slots, [`CHUNK`] to a block: a slot never moves, so the
/// table grows without copying — a single `Vec` holds its old and new
/// buffers at once at every doubling.
#[derive(Debug, Default)]
struct Slots {
    chunks: Vec<Vec<Slot>>,
}

impl Slots {
    fn len(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |last| (self.chunks.len() - 1) * CHUNK + last.len())
    }

    fn get(&self, slot: SlotId) -> Option<&Slot> {
        let i = slot.0 as usize;
        self.chunks.get(i / CHUNK)?.get(i % CHUNK)
    }

    fn get_mut(&mut self, slot: SlotId) -> Option<&mut Slot> {
        let i = slot.0 as usize;
        self.chunks.get_mut(i / CHUNK)?.get_mut(i % CHUNK)
    }

    /// Append a slot; its id.
    fn push(&mut self, slot: Slot) -> SlotId {
        let id = SlotId(self.len() as u64);
        match self.chunks.last_mut() {
            Some(last) if last.len() < CHUNK => last.push(slot),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(slot);
                self.chunks.push(chunk);
            }
        }
        id
    }

    fn iter(&self) -> impl Iterator<Item = &Slot> {
        self.chunks.iter().flatten()
    }
}

/// Write-write conflict error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WwConflict;

/// A versioned table.
#[derive(Debug)]
pub struct VersionedTable {
    pub schema: Schema,
    slots: Slots,
    free: Vec<SlotId>,
    /// Live (visible-to-someone) tuple estimate, maintained on
    /// insert/delete commit. Used by the planner and cost model.
    live_estimate: u64,
    /// Total bytes of live tuple data (cost-model working set).
    byte_estimate: u64,
}

impl VersionedTable {
    pub fn new(schema: Schema) -> Self {
        VersionedTable {
            schema,
            slots: Slots::default(),
            free: Vec::new(),
            live_estimate: 0,
            byte_estimate: 0,
        }
    }

    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    pub fn live_tuples(&self) -> u64 {
        self.live_estimate
    }

    pub fn live_bytes(&self) -> u64 {
        self.byte_estimate
    }

    /// Insert a new (uncommitted) tuple for transaction `me`.
    pub fn insert(&mut self, row: Row, me: u64) -> SlotId {
        let bytes = crate::types::row_bytes(&row) as u64;
        let version = Version {
            begin: TXN_BIT | me,
            end: TS_INF,
            row,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                if let Some(slot) = self.slots.get_mut(s) {
                    slot.head = Some(version);
                    slot.older.clear();
                }
                s
            }
            None => self.slots.push(Slot {
                head: Some(version),
                older: Vec::new(),
            }),
        };
        self.live_estimate += 1;
        self.byte_estimate += bytes;
        slot
    }

    /// Snapshot read.
    pub fn read(&self, slot: SlotId, read_ts: u64, me: u64) -> Option<&Row> {
        self.slots.get(slot)?.visible(read_ts, me)
    }

    /// Every slot that holds a version, in slot order, with the row `me`
    /// sees in it at `read_ts` (a sequential scan counts the slots and
    /// emits the rows).
    pub fn scan(&self, read_ts: u64, me: u64) -> impl Iterator<Item = (SlotId, Option<&Row>)> {
        (self.slots.iter().enumerate())
            .filter(|(_, s)| s.head.is_some())
            .map(move |(i, s)| (SlotId(i as u64), s.visible(read_ts, me)))
    }

    fn head_mut(&mut self, slot: SlotId) -> Option<&mut Version> {
        self.slots.get_mut(slot)?.head.as_mut()
    }

    /// Update a tuple: installs a new uncommitted version. Returns
    /// `Err(WwConflict)` when another in-flight transaction owns the head.
    pub fn update(&mut self, slot: SlotId, new_row: Row, me: u64) -> Result<(), WwConflict> {
        let new_bytes = crate::types::row_bytes(&new_row) as u64;
        let s = self.slots.get_mut(slot).ok_or(WwConflict)?;
        let head = s.head.as_mut().ok_or(WwConflict)?;
        if head.end != TS_INF {
            return Err(WwConflict); // deleted or delete-pending
        }
        if head.begin & TXN_BIT != 0 {
            if head.begin == TXN_BIT | me {
                // Second update by the same transaction: overwrite in place.
                let old = crate::types::row_bytes(&head.row) as u64;
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
        let old = std::mem::replace(head, version);
        s.older.insert(0, old);
        self.byte_estimate += new_bytes;
        Ok(())
    }

    /// Delete a tuple (marks the head's end with the transaction id).
    pub fn delete(&mut self, slot: SlotId, me: u64) -> Result<(), WwConflict> {
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

    /// Stamp a transaction's marks on a slot with its commit timestamp.
    pub fn commit_slot(&mut self, slot: SlotId, me: u64, commit_ts: u64) {
        if let Some(s) = self.slots.get_mut(slot) {
            for v in s.versions_mut() {
                if v.begin == TXN_BIT | me {
                    v.begin = commit_ts;
                }
                if v.end == TXN_BIT | me {
                    v.end = commit_ts;
                }
            }
        }
    }

    /// Roll back a transaction's effects on a slot.
    pub fn abort_slot(&mut self, slot: SlotId, me: u64) {
        let Some(s) = self.slots.get_mut(slot) else {
            return;
        };
        // Remove versions this transaction installed.
        let removed = s.retain(|v| {
            if v.begin == TXN_BIT | me {
                self.byte_estimate = self
                    .byte_estimate
                    .saturating_sub(crate::types::row_bytes(&v.row) as u64);
                false
            } else {
                true
            }
        });
        self.live_estimate = self.live_estimate.saturating_sub(removed as u64);
        // Clear pending delete marks.
        let mut undeleted = 0;
        for v in s.versions_mut() {
            if v.end == TXN_BIT | me {
                v.end = TS_INF;
                undeleted += 1;
            }
        }
        self.live_estimate += undeleted;
        if s.head.is_none() {
            self.free.push(slot);
        }
    }

    /// GC variant that reports the head row before freeing the slot, so
    /// the engine can clean index entries.
    pub fn gc_slot_with_row(&mut self, slot: SlotId, oldest_read_ts: u64) -> (usize, Option<Row>) {
        let Some(s) = self.slots.get_mut(slot) else {
            return (0, None);
        };
        let dead = |v: &Version| v.end & TXN_BIT == 0 && v.end <= oldest_read_ts;
        if s.head.is_none() {
            return (0, None);
        }
        if s.versions().all(dead) {
            let pruned = s.len();
            s.older.clear();
            let row = s.head.take().map(|v| v.row);
            self.free.push(slot);
            return (pruned, row);
        }
        (s.retain(|v| !dead(v)), None)
    }

    /// Total version count (GC pressure metric).
    pub fn total_versions(&self) -> usize {
        self.slots.iter().map(Slot::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{DataType, Value};

    fn table() -> VersionedTable {
        VersionedTable::new(Schema::new(&[("id", DataType::Int), ("v", DataType::Int)]))
    }

    fn row(id: i64, v: i64) -> Row {
        vec![Value::Int(id), Value::Int(v)]
    }

    #[test]
    fn own_writes_visible_before_commit_others_not() {
        let mut t = table();
        let slot = t.insert(row(1, 10), 5);
        assert!(t.read(slot, 100, 5).is_some(), "writer sees own insert");
        assert!(t.read(slot, 100, 6).is_none(), "others do not");
        t.commit_slot(slot, 5, 50);
        assert!(t.read(slot, 50, 6).is_some(), "visible at commit ts");
        assert!(t.read(slot, 49, 6).is_none(), "invisible before commit ts");
    }

    #[test]
    fn update_creates_version_old_readers_see_old() {
        let mut t = table();
        let slot = t.insert(row(1, 10), 1);
        t.commit_slot(slot, 1, 10);
        t.update(slot, row(1, 20), 2).unwrap();
        t.commit_slot(slot, 2, 20);
        assert_eq!(t.read(slot, 15, 9).unwrap()[1], Value::Int(10));
        assert_eq!(t.read(slot, 25, 9).unwrap()[1], Value::Int(20));
        assert_eq!(t.total_versions(), 2);
    }

    #[test]
    fn write_write_conflict_detected() {
        let mut t = table();
        let slot = t.insert(row(1, 10), 1);
        t.commit_slot(slot, 1, 10);
        t.update(slot, row(1, 20), 2).unwrap();
        assert_eq!(t.update(slot, row(1, 30), 3), Err(WwConflict));
        assert_eq!(t.delete(slot, 3), Err(WwConflict));
    }

    #[test]
    fn same_txn_double_update_overwrites_in_place() {
        let mut t = table();
        let slot = t.insert(row(1, 10), 1);
        t.commit_slot(slot, 1, 10);
        t.update(slot, row(1, 20), 2).unwrap();
        t.update(slot, row(1, 25), 2).unwrap();
        t.commit_slot(slot, 2, 20);
        assert_eq!(t.read(slot, 30, 9).unwrap()[1], Value::Int(25));
        assert_eq!(
            t.total_versions(),
            2,
            "no third version for in-place rewrite"
        );
    }

    #[test]
    fn abort_rolls_back_update_and_delete() {
        let mut t = table();
        let slot = t.insert(row(1, 10), 1);
        t.commit_slot(slot, 1, 10);

        t.update(slot, row(1, 99), 2).unwrap();
        t.abort_slot(slot, 2);
        assert_eq!(t.read(slot, 20, 9).unwrap()[1], Value::Int(10));
        assert_eq!(t.total_versions(), 1);

        t.delete(slot, 3).unwrap();
        t.abort_slot(slot, 3);
        assert!(t.read(slot, 20, 9).is_some(), "delete undone");
    }

    #[test]
    fn abort_insert_frees_slot_for_reuse() {
        let mut t = table();
        let slot = t.insert(row(1, 1), 1);
        t.abort_slot(slot, 1);
        assert!(t.read(slot, 100, 9).is_none());
        let slot2 = t.insert(row(2, 2), 2);
        assert_eq!(slot, slot2, "freed slot reused");
    }

    #[test]
    fn delete_then_commit_hides_row() {
        let mut t = table();
        let slot = t.insert(row(1, 10), 1);
        t.commit_slot(slot, 1, 10);
        t.delete(slot, 2).unwrap();
        // Deleter no longer sees it; others still do until commit.
        assert!(t.read(slot, 20, 2).is_none());
        assert!(t.read(slot, 20, 9).is_some());
        t.commit_slot(slot, 2, 30);
        assert!(t.read(slot, 40, 9).is_none());
        assert!(t.read(slot, 25, 9).is_some(), "old snapshot still sees it");
    }

    #[test]
    fn gc_prunes_dead_versions_and_frees_slots() {
        let mut t = table();
        let slot = t.insert(row(1, 10), 1);
        t.commit_slot(slot, 1, 10);
        for (txn, ts, v) in [(2u64, 20u64, 20i64), (3, 30, 30), (4, 40, 40)] {
            t.update(slot, row(1, v), txn).unwrap();
            t.commit_slot(slot, txn, ts);
        }
        assert_eq!(t.total_versions(), 4);
        let (pruned, freed) = t.gc_slot_with_row(slot, 35);
        assert_eq!(pruned, 2, "versions dead before ts 35 pruned");
        assert!(freed.is_none());
        assert_eq!(t.read(slot, 100, 9).unwrap()[1], Value::Int(40));

        // Delete, commit, then GC past the delete → slot freed.
        t.delete(slot, 5).unwrap();
        t.commit_slot(slot, 5, 50);
        let (pruned, freed) = t.gc_slot_with_row(slot, 60);
        assert_eq!(pruned, 2);
        assert!(freed.is_some(), "engine gets the row for index cleanup");
        assert!(t.read(slot, 100, 9).is_none());
    }

    #[test]
    fn scan_skips_free_slots() {
        let mut t = table();
        let a = t.insert(row(1, 1), 1);
        let _b = t.insert(row(2, 2), 1);
        t.commit_slot(a, 1, 10);
        t.abort_slot(SlotId(1), 1);
        let live: Vec<_> = t.scan(20, 9).collect();
        assert_eq!(live, vec![(a, Some(&row(1, 1)))]);
        assert_eq!(t.scan(5, 9).collect::<Vec<_>>(), vec![(a, None)]);
    }

    #[test]
    fn estimates_track_live_data() {
        let mut t = table();
        assert_eq!(t.live_tuples(), 0);
        let s = t.insert(row(1, 1), 1);
        t.commit_slot(s, 1, 5);
        assert_eq!(t.live_tuples(), 1);
        assert_eq!(t.live_bytes(), 16);
        t.delete(s, 2).unwrap();
        t.commit_slot(s, 2, 10);
        assert_eq!(t.live_tuples(), 0);
    }
}
