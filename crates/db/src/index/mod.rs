//! Index access methods: B+-tree (ordered) and hash (point lookups).

pub mod btree;
pub mod hash;

pub use btree::{BTreeIndex, IndexKey};
pub use hash::HashIndex;

use std::cmp::Ordering;

use crate::storage::SlotId;
use crate::types::Value;

/// Index kind selected at `CREATE INDEX` time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    BTree,
    Hash,
}

/// A live index structure.
#[derive(Debug)]
pub enum Index {
    BTree(BTreeIndex),
    Hash(HashIndex),
}

impl Index {
    /// An empty index over keys of `arity` values (its column count).
    pub fn new(kind: IndexKind, arity: usize) -> Index {
        match kind {
            IndexKind::BTree => Index::BTree(BTreeIndex::new(arity)),
            IndexKind::Hash => Index::Hash(HashIndex::new()),
        }
    }

    pub fn kind(&self) -> IndexKind {
        match self {
            Index::BTree(_) => IndexKind::BTree,
            Index::Hash(_) => IndexKind::Hash,
        }
    }

    pub fn insert(&mut self, key: IndexKey, slot: SlotId) {
        match self {
            Index::BTree(t) => t.insert(key, slot),
            Index::Hash(h) => h.insert(key, slot),
        }
    }

    pub fn remove(&mut self, key: &[Value], slot: SlotId) -> bool {
        match self {
            Index::BTree(t) => t.remove(key, slot),
            Index::Hash(h) => h.remove(key, slot),
        }
    }

    /// Point lookup: `(postings, entries_examined)`, the postings
    /// borrowed from the index.
    pub fn get(&self, key: &[Value]) -> (&[SlotId], usize) {
        match self {
            Index::BTree(t) => t.get(key),
            Index::Hash(h) => h.get(key),
        }
    }

    /// Inclusive range scan (B-tree only; hash indexes return empty).
    pub fn range(&self, lo: Option<&[Value]>, hi: Option<&[Value]>) -> (Vec<SlotId>, usize) {
        match self {
            Index::BTree(t) => t.range(lo, hi),
            Index::Hash(_) => (Vec::new(), 0),
        }
    }

    /// Prefix scan (B-tree only).
    pub fn prefix(&self, prefix: &[Value]) -> (Vec<SlotId>, usize) {
        match self {
            Index::BTree(t) => t.prefix(prefix),
            Index::Hash(_) => (Vec::new(), 0),
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Index::BTree(t) => t.len(),
            Index::Hash(h) => h.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Structural depth (B-tree height; 1 for hash) — an OU feature.
    pub fn depth(&self) -> usize {
        match self {
            Index::BTree(t) => t.depth(),
            Index::Hash(_) => 1,
        }
    }
}

/// Extract an index key from a row given the indexed column positions —
/// for an index that must own it; a check reads the row in place.
pub fn key_from_row(row: &[Value], cols: &[usize]) -> IndexKey {
    cols.iter().map(|c| row[*c].clone()).collect()
}

/// `key_from_row(row, cols).cmp(key)` without building the key: how a
/// scan re-checks a row, and the unique check compares one.
pub fn row_key_cmp(row: &[Value], cols: &[usize], key: &[Value]) -> Ordering {
    cols.iter().map(|c| &row[*c]).cmp(key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Row;

    #[test]
    fn dispatch_works_for_both_kinds() {
        for kind in [IndexKind::BTree, IndexKind::Hash] {
            let mut idx = Index::new(kind, 1);
            assert_eq!(idx.kind(), kind);
            idx.insert(vec![Value::Int(1)], SlotId(7));
            assert_eq!(idx.get(&[Value::Int(1)]).0, vec![SlotId(7)]);
            assert_eq!(idx.len(), 1);
            assert!(idx.depth() >= 1);
            assert!(idx.remove(&[Value::Int(1)], SlotId(7)));
            assert!(idx.is_empty());
        }
    }

    #[test]
    fn range_on_hash_is_empty() {
        let mut idx = Index::new(IndexKind::Hash, 1);
        idx.insert(vec![Value::Int(1)], SlotId(1));
        assert!(idx.range(None, None).0.is_empty());
    }

    #[test]
    fn key_extraction() {
        let row: Row = vec![Value::Int(1), Value::Text("x".into()), Value::Int(3)];
        assert_eq!(
            key_from_row(&row, &[2, 0]),
            vec![Value::Int(3), Value::Int(1)]
        );
    }
}
