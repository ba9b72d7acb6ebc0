//! A from-scratch open-addressing hash index.
//!
//! Linear probing with tombstones, deterministic hashing (the standard
//! library's `DefaultHasher` with a fixed initial state), and postings
//! lists per key for non-unique indexes. Point lookups are O(1) — the
//! primary-key access path for YCSB/TATP-style workloads.

use std::hash::{Hash, Hasher};

use crate::storage::SlotId;
use crate::types::Value;

use super::btree::IndexKey;

#[derive(Debug, Clone)]
enum Bucket {
    Empty,
    Tombstone,
    Full { key: IndexKey, posts: Vec<SlotId> },
}

/// The hash index.
#[derive(Debug)]
pub struct HashIndex {
    buckets: Vec<Bucket>,
    keys: usize,
    entries: usize,
    tombstones: usize,
}

fn hash_key(key: &[Value]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

impl Default for HashIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl HashIndex {
    pub fn new() -> Self {
        HashIndex {
            buckets: vec![Bucket::Empty; 16],
            keys: 0,
            entries: 0,
            tombstones: 0,
        }
    }

    /// Number of (key, slot) postings.
    pub fn len(&self) -> usize {
        self.entries
    }

    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.keys
    }

    fn mask(&self) -> usize {
        self.buckets.len() - 1
    }

    fn grow_if_needed(&mut self) {
        if (self.keys + self.tombstones) * 10 < self.buckets.len() * 7 {
            return;
        }
        let mut old = std::mem::replace(&mut self.buckets, vec![Bucket::Empty; 0]);
        self.buckets = vec![Bucket::Empty; (old.len() * 2).max(16)];
        self.tombstones = 0;
        for b in old.drain(..) {
            if let Bucket::Full { key, posts } = b {
                let idx = self.find_insert_slot(&key);
                self.buckets[idx] = Bucket::Full { key, posts };
            }
        }
    }

    fn find_insert_slot(&self, key: &[Value]) -> usize {
        let mut i = hash_key(key) as usize & self.mask();
        loop {
            match &self.buckets[i] {
                Bucket::Empty | Bucket::Tombstone => return i,
                Bucket::Full { key: k, .. } if k[..] == *key => return i,
                _ => i = (i + 1) & self.mask(),
            }
        }
    }

    /// Probe for an existing key; returns `(bucket, probes)`.
    fn find(&self, key: &[Value]) -> (Option<usize>, usize) {
        let mut i = hash_key(key) as usize & self.mask();
        let mut probes = 1;
        loop {
            match &self.buckets[i] {
                Bucket::Empty => return (None, probes),
                Bucket::Full { key: k, .. } if k[..] == *key => return (Some(i), probes),
                _ => {
                    i = (i + 1) & self.mask();
                    probes += 1;
                    if probes > self.buckets.len() {
                        return (None, probes);
                    }
                }
            }
        }
    }

    pub fn insert(&mut self, key: IndexKey, slot: SlotId) {
        self.grow_if_needed();
        // The key may live *past* a tombstone in its probe chain, while
        // `find_insert_slot` would stop at the tombstone and create a
        // duplicate — search for the existing key first.
        let idx = match self.find(&key).0 {
            Some(i) => i,
            None => self.find_insert_slot(&key),
        };
        match &mut self.buckets[idx] {
            b @ (Bucket::Empty | Bucket::Tombstone) => {
                if matches!(b, Bucket::Tombstone) {
                    self.tombstones -= 1;
                }
                *b = Bucket::Full {
                    key,
                    posts: vec![slot],
                };
                self.keys += 1;
                self.entries += 1;
            }
            Bucket::Full { posts, .. } => {
                if !posts.contains(&slot) {
                    posts.push(slot);
                    self.entries += 1;
                }
            }
        }
    }

    pub fn remove(&mut self, key: &[Value], slot: SlotId) -> bool {
        let (found, _) = self.find(key);
        let Some(idx) = found else { return false };
        let Bucket::Full { posts, .. } = &mut self.buckets[idx] else {
            unreachable!()
        };
        let Some(p) = posts.iter().position(|s| *s == slot) else {
            return false;
        };
        posts.swap_remove(p);
        self.entries -= 1;
        if posts.is_empty() {
            self.buckets[idx] = Bucket::Tombstone;
            self.keys -= 1;
            self.tombstones += 1;
        }
        true
    }

    /// Point lookup: `(postings, probes)` — probes feed the OU model.
    pub fn get(&self, key: &[Value]) -> (&[SlotId], usize) {
        match self.find(key) {
            (Some(i), probes) => match &self.buckets[i] {
                Bucket::Full { posts, .. } => (posts, probes),
                _ => (&[], probes),
            },
            (None, probes) => (&[], probes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(v: i64) -> IndexKey {
        vec![Value::Int(v)]
    }

    #[test]
    fn crud_round_trip() {
        let mut h = HashIndex::new();
        h.insert(k(1), SlotId(10));
        h.insert(k(1), SlotId(11));
        h.insert(k(2), SlotId(20));
        assert_eq!(h.len(), 3);
        assert_eq!(h.key_count(), 2);
        let (posts, probes) = h.get(&k(1));
        assert_eq!(posts.len(), 2);
        assert!(probes >= 1);
        assert!(h.remove(&k(1), SlotId(10)));
        assert!(!h.remove(&k(1), SlotId(10)));
        assert_eq!(h.get(&k(1)).0, vec![SlotId(11)]);
        assert!(h.remove(&k(1), SlotId(11)));
        assert!(h.get(&k(1)).0.is_empty());
        assert_eq!(h.key_count(), 1);
    }

    #[test]
    fn grows_under_load_and_stays_correct() {
        let mut h = HashIndex::new();
        for i in 0..10_000 {
            h.insert(k(i), SlotId(i as u64));
        }
        assert_eq!(h.len(), 10_000);
        for i in (0..10_000).step_by(97) {
            assert_eq!(h.get(&k(i)).0, vec![SlotId(i as u64)], "key {i}");
        }
        assert_eq!(h.get(&k(10_001)).0, Vec::<SlotId>::new());
    }

    #[test]
    fn tombstones_do_not_break_probe_chains() {
        let mut h = HashIndex::new();
        // Insert enough to produce collisions, then delete interleaved.
        for i in 0..200 {
            h.insert(k(i), SlotId(i as u64));
        }
        for i in (0..200).step_by(2) {
            assert!(h.remove(&k(i), SlotId(i as u64)));
        }
        for i in (1..200).step_by(2) {
            assert_eq!(h.get(&k(i)).0, vec![SlotId(i as u64)], "survivor {i}");
        }
        // Reinsert over tombstones.
        for i in (0..200).step_by(2) {
            h.insert(k(i), SlotId((1000 + i) as u64));
        }
        assert_eq!(h.get(&k(4)).0, vec![SlotId(1004)]);
    }

    #[test]
    fn composite_keys_work() {
        let mut h = HashIndex::new();
        let key = vec![Value::Int(1), Value::Text("abc".into())];
        h.insert(key.clone(), SlotId(5));
        assert_eq!(h.get(&key).0, vec![SlotId(5)]);
        let other = vec![Value::Int(1), Value::Text("abd".into())];
        assert!(h.get(&other).0.is_empty());
    }

    #[test]
    fn matches_std_hashmap_model() {
        use std::collections::HashMap;
        let mut ours = HashIndex::new();
        let mut model: HashMap<i64, Vec<SlotId>> = HashMap::new();
        let mut x: i64 = 7;
        for step in 0..20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(99);
            let key = (x >> 40) % 500;
            let slot = SlotId(step as u64 % 31);
            if step % 4 == 0 {
                let present = model.get(&key).map(|v| v.contains(&slot)).unwrap_or(false);
                assert_eq!(ours.remove(&k(key), slot), present);
                if present {
                    let v = model.get_mut(&key).unwrap();
                    v.retain(|s| *s != slot);
                    if v.is_empty() {
                        model.remove(&key);
                    }
                }
            } else {
                ours.insert(k(key), slot);
                let v = model.entry(key).or_default();
                if !v.contains(&slot) {
                    v.push(slot);
                }
            }
        }
        assert_eq!(ours.len(), model.values().map(Vec::len).sum::<usize>());
        for (key, slots) in &model {
            let mut got = ours.get(&k(*key)).0.to_vec();
            got.sort();
            let mut want = slots.clone();
            want.sort();
            assert_eq!(got, want);
        }
    }
}
