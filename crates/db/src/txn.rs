//! Transaction management: timestamps, undo logs, commit/abort.
//!
//! A thin MVCC transaction manager over [`crate::storage`]: monotonically
//! increasing timestamps double as transaction ids, every write records an
//! undo reference, and commit stamps the transaction's marks with a fresh
//! commit timestamp. The oldest active snapshot bounds garbage collection.

use crate::catalog::TableId;
use crate::storage::SlotId;

/// A write recorded for commit/abort processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UndoRef {
    pub table: TableId,
    pub slot: SlotId,
    /// Approximate redo-log bytes this write will serialize.
    pub redo_bytes: u64,
}

/// An in-flight transaction handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnHandle {
    pub id: u64,
    pub read_ts: u64,
}

#[derive(Debug)]
struct ActiveTxn {
    read_ts: u64,
    undo: Vec<UndoRef>,
}

/// The transaction manager.
#[derive(Debug)]
pub struct TxnManager {
    next_ts: u64,
    /// In-flight transactions by id, in no particular order: one per
    /// open session, a handful, so a scan of one small `Vec` finds them.
    active: Vec<(u64, ActiveTxn)>,
    pub committed: u64,
    pub aborted: u64,
}

impl Default for TxnManager {
    fn default() -> Self {
        Self::new()
    }
}

impl TxnManager {
    pub fn new() -> Self {
        // Timestamp 0 is reserved so "bootstrap" rows (loaded outside any
        // transaction) can be stamped visible-to-everyone.
        TxnManager {
            next_ts: 1,
            active: Vec::new(),
            committed: 0,
            aborted: 0,
        }
    }

    pub fn begin(&mut self) -> TxnHandle {
        let id = self.next_ts;
        self.next_ts += 1;
        let read_ts = id - 1; // snapshot: everything committed before us
        let undo = Vec::new();
        self.active.push((id, ActiveTxn { read_ts, undo }));
        TxnHandle { id, read_ts }
    }

    /// Take `txn` out of the active set.
    fn take(&mut self, txn: TxnHandle) -> Option<ActiveTxn> {
        let at = self.active.iter().position(|(id, _)| *id == txn.id)?;
        Some(self.active.swap_remove(at).1)
    }

    /// Record a write for later commit stamping / rollback.
    pub fn log_write(&mut self, txn: TxnHandle, undo: UndoRef) {
        if let Some((_, a)) = self.active.iter_mut().find(|(id, _)| *id == txn.id) {
            a.undo.push(undo);
        }
    }

    /// Finish a transaction: returns `(commit_ts, writes)` for the engine
    /// to stamp slots and build WAL records, or `None` (and no timestamp
    /// spent) when `txn` is not active.
    pub fn commit(&mut self, txn: TxnHandle) -> Option<(u64, Vec<UndoRef>)> {
        let a = self.take(txn)?;
        let commit_ts = self.next_ts;
        self.next_ts += 1;
        self.committed += 1;
        Some((commit_ts, a.undo))
    }

    /// Abort: returns the undo refs for the engine to roll back.
    pub fn abort(&mut self, txn: TxnHandle) -> Vec<UndoRef> {
        self.aborted += 1;
        self.take(txn).map(|a| a.undo).unwrap_or_default()
    }

    /// Snapshot bound for GC: no active transaction can read anything
    /// committed at or before this timestamp... precisely, the minimum
    /// read timestamp among active transactions (or the current clock when
    /// idle).
    pub fn oldest_read_ts(&self) -> u64 {
        self.active
            .iter()
            .map(|(_, a)| a.read_ts)
            .min()
            .unwrap_or(self.next_ts.saturating_sub(1))
    }

    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Number of writes logged so far by a transaction.
    pub fn write_count(&self, txn: TxnHandle) -> usize {
        (self.active.iter())
            .find(|(id, _)| *id == txn.id)
            .map_or(0, |(_, a)| a.undo.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn undo(t: u32, s: u64) -> UndoRef {
        UndoRef {
            table: TableId(t),
            slot: SlotId(s),
            redo_bytes: 64,
        }
    }

    #[test]
    fn timestamps_monotonic_and_snapshots_exclude_self() {
        let mut m = TxnManager::new();
        let t1 = m.begin();
        let t2 = m.begin();
        assert!(t2.id > t1.id);
        assert_eq!(t1.read_ts, t1.id - 1);
        let (c1, _) = m.commit(t1).unwrap();
        assert!(c1 > t2.id);
        assert_eq!(m.commit(t1), None, "t1 is no longer active");
    }

    #[test]
    fn commit_returns_undo_log_in_order() {
        let mut m = TxnManager::new();
        let t = m.begin();
        m.log_write(t, undo(1, 10));
        m.log_write(t, undo(2, 20));
        assert_eq!(m.write_count(t), 2);
        let (_, writes) = m.commit(t).unwrap();
        assert_eq!(writes, vec![undo(1, 10), undo(2, 20)]);
        assert_eq!(m.committed, 1);
    }

    #[test]
    fn abort_returns_undo_and_counts() {
        let mut m = TxnManager::new();
        let t = m.begin();
        m.log_write(t, undo(1, 1));
        let writes = m.abort(t);
        assert_eq!(writes.len(), 1);
        assert_eq!(m.aborted, 1);
        assert_eq!(m.active_count(), 0);
    }

    #[test]
    fn oldest_read_ts_tracks_active_set() {
        let mut m = TxnManager::new();
        let idle = m.oldest_read_ts();
        let t1 = m.begin();
        let t2 = m.begin();
        assert_eq!(m.oldest_read_ts(), t1.read_ts);
        m.commit(t1);
        assert_eq!(m.oldest_read_ts(), t2.read_ts);
        m.commit(t2);
        assert!(m.oldest_read_ts() > idle);
    }
}
