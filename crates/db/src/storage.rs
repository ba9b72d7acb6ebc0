//! In-memory versioned storage: HyPer-style MVCC version chains
//! (paper §6: NoisePage "uses HyPer-style MVCC \[38\] over Apache Arrow
//! in-memory columnar data").
//!
//! Each tuple slot holds a newest-first chain of [`Version`]s. A version's
//! `begin`/`end` fields hold either a commit timestamp or a *transaction
//! marker* (`TXN_BIT | txn_id`) while the writing transaction is still in
//! flight. Readers resolve visibility against their snapshot timestamp;
//! write-write conflicts are detected at update time (first-writer-wins).
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

#[derive(Debug, Default)]
struct Slot {
    /// Newest-first version chain. Empty = free slot.
    versions: Vec<Version>,
}

/// Write-write conflict error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WwConflict;

/// A versioned table.
#[derive(Debug)]
pub struct VersionedTable {
    pub schema: Schema,
    slots: Vec<Slot>,
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
            slots: Vec::new(),
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

    /// Snapshot read.
    pub fn read(&self, slot: SlotId, read_ts: u64, me: u64) -> Option<&Row> {
        self.slots
            .get(slot.0 as usize)?
            .versions
            .iter()
            .find(|v| v.visible_to(read_ts, me))
            .map(|v| &v.row)
    }

    /// All slots with any version (for sequential scans). The scan itself
    /// filters by visibility.
    pub fn scan_slots(&self) -> impl Iterator<Item = SlotId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.versions.is_empty())
            .map(|(i, _)| SlotId(i as u64))
    }

    fn head_mut(&mut self, slot: SlotId) -> Option<&mut Version> {
        self.slots.get_mut(slot.0 as usize)?.versions.first_mut()
    }

    /// Update a tuple: installs a new uncommitted version. Returns
    /// `Err(WwConflict)` when another in-flight transaction owns the head.
    pub fn update(&mut self, slot: SlotId, new_row: Row, me: u64) -> Result<(), WwConflict> {
        let new_bytes = crate::types::row_bytes(&new_row) as u64;
        let head = self.head_mut(slot).ok_or(WwConflict)?;
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
        self.slots[slot.0 as usize].versions.insert(0, version);
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

    /// Roll back a transaction's effects on a slot.
    pub fn abort_slot(&mut self, slot: SlotId, me: u64) {
        let Some(s) = self.slots.get_mut(slot.0 as usize) else {
            return;
        };
        // Remove versions this transaction installed.
        let before = s.versions.len();
        s.versions.retain(|v| {
            if v.begin == TXN_BIT | me {
                self.byte_estimate = self
                    .byte_estimate
                    .saturating_sub(crate::types::row_bytes(&v.row) as u64);
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

    /// GC variant that reports the head row before freeing the slot, so
    /// the engine can clean index entries.
    pub fn gc_slot_with_row(&mut self, slot: SlotId, oldest_read_ts: u64) -> (usize, Option<Row>) {
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

    /// Total version count (GC pressure metric).
    pub fn total_versions(&self) -> usize {
        self.slots.iter().map(|s| s.versions.len()).sum()
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
    fn scan_slots_skips_free_slots() {
        let mut t = table();
        let a = t.insert(row(1, 1), 1);
        let _b = t.insert(row(2, 2), 1);
        t.commit_slot(a, 1, 10);
        t.abort_slot(SlotId(1), 1);
        let live: Vec<SlotId> = t.scan_slots().collect();
        assert_eq!(live, vec![a]);
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
