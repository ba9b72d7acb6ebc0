//! A from-scratch B+-tree index.
//!
//! Order-`B` tree mapping composite keys to slot-id postings lists
//! (non-unique indexes store several slots per key). Inserts split
//! bottom-up; deletes are *lazy* (keys are removed but nodes are not
//! rebalanced — standard practice for in-memory OLTP indexes where keys
//! churn in place). Range scans descend per query; the tree reports its
//! height and per-scan examined-entry counts because those are OU input
//! features for the index-scan behavior model.
//!
//! Every key is `arity` values wide (the index's column count, fixed at
//! creation), so a node holds its keys flat — one `Vec<Value>`, key `i`
//! at `i * arity..` — and beside them each key's first value as a
//! machine word. While the probe's first value and every key's in a node
//! are `Int`s, a lookup's binary search reads the words and calls
//! `Value::cmp` on the other columns only on a tie. Keys compare as slices of
//! `Value`s either way: same splits, same `examined`, same height as the
//! `Vec<IndexKey>` nodes this replaced (kept as a test-only oracle). A
//! key with one slot keeps it inline ([`Postings`]).

use std::cmp::Ordering;

use super::Postings;
use crate::storage::SlotId;
use crate::types::Value;

/// An owned composite index key.
pub type IndexKey = Vec<Value>;

const ORDER: usize = 32; // max keys per node = 2*ORDER

#[derive(Debug)]
enum Node {
    Leaf {
        keys: NodeKeys,
        posts: Vec<Postings>,
    },
    Inner {
        keys: NodeKeys,
        children: Vec<Node>,
    },
}

impl Node {
    fn leaf() -> Node {
        Node::Leaf {
            keys: NodeKeys::new(),
            posts: Vec::new(),
        }
    }

    /// Number of keys.
    fn len(&self) -> usize {
        match self {
            Node::Leaf { posts, .. } => posts.len(),
            Node::Inner { children, .. } => children.len() - 1,
        }
    }

    fn is_full(&self) -> bool {
        self.len() >= 2 * ORDER
    }

    fn keys(&self, arity: usize) -> Keys<'_> {
        let (Node::Leaf { keys, .. } | Node::Inner { keys, .. }) = self;
        Keys {
            keys,
            arity,
            len: self.len(),
        }
    }
}

/// A key's first value as a machine word, when it is an `Int`.
fn first_word(key: &[Value]) -> Option<i64> {
    match key.first() {
        Some(Value::Int(i)) => Some(*i),
        _ => None,
    }
}

/// Whether every key of the flat `values` starts with an `Int`.
fn all_int(values: &[Value], arity: usize) -> bool {
    values.chunks(arity.max(1)).all(|k| first_word(k).is_some())
}

/// A node's keys, flat: key `i` is `values[i * arity..][..arity]`, and
/// `firsts[i]` its first value as a word (0 when not an `Int`). While
/// `all_int` holds, every key's first value is an `Int`; a removal
/// leaves it as it was, which stays true, and a split counts afresh.
#[derive(Debug)]
struct NodeKeys {
    values: Vec<Value>,
    firsts: Vec<i64>,
    all_int: bool,
}

impl NodeKeys {
    fn new() -> NodeKeys {
        NodeKeys {
            values: Vec::new(),
            firsts: Vec::new(),
            all_int: true,
        }
    }

    /// The keys in `values`.
    fn of(values: Vec<Value>, arity: usize) -> NodeKeys {
        let keys = values.chunks(arity.max(1));
        let firsts = keys.map(|k| first_word(k).unwrap_or(0)).collect();
        let all_int = all_int(&values, arity);
        NodeKeys {
            values,
            firsts,
            all_int,
        }
    }

    /// Insert `key` as key `i`.
    fn insert(&mut self, i: usize, arity: usize, key: IndexKey) {
        let first = first_word(&key);
        self.all_int &= first.is_some();
        self.firsts.insert(i, first.unwrap_or(0));
        self.values.splice(i * arity..i * arity, key);
    }

    /// Drop key `i`.
    fn remove(&mut self, i: usize, arity: usize) {
        self.firsts.remove(i);
        self.values.drain(i * arity..(i + 1) * arity);
    }

    /// Keys `i..` as a node of their own, this one keeping `..i`.
    fn split_off(&mut self, i: usize, arity: usize) -> NodeKeys {
        let right = NodeKeys::of(self.values.split_off(i * arity), arity);
        self.firsts.truncate(i);
        self.all_int = all_int(&self.values, arity);
        right
    }
}

/// A looked-up key and its first value as a word, when that is an `Int`.
struct Probe<'a> {
    key: &'a [Value],
    first: Option<i64>,
}

impl<'a> Probe<'a> {
    fn new(key: &'a [Value]) -> Probe<'a> {
        Probe {
            key,
            first: first_word(key),
        }
    }
}

/// A node's flat keys, `len` of them, `arity` values each.
#[derive(Clone, Copy)]
struct Keys<'a> {
    keys: &'a NodeKeys,
    arity: usize,
    len: usize,
}

impl<'a> Keys<'a> {
    fn at(self, i: usize) -> &'a [Value] {
        &self.keys.values[i * self.arity..(i + 1) * self.arity]
    }

    fn get(self, i: usize) -> Option<&'a [Value]> {
        (i < self.len).then(|| self.at(i))
    }

    fn iter(self) -> impl Iterator<Item = &'a [Value]> {
        (0..self.len).map(move |i| self.at(i))
    }

    /// `self.at(i).cmp(probe)`. With `first`, the probe's first value and
    /// key `i`'s are both `Int`s: compare the words — `Value::cmp`'s
    /// order on an `Int` pair — and the other columns only on a tie.
    fn cmp_at(self, i: usize, probe: &[Value], first: Option<i64>) -> Ordering {
        let Some(word) = first else {
            return self.at(i).cmp(probe);
        };
        let at = i * self.arity;
        self.keys.firsts[i]
            .cmp(&word)
            .then_with(|| self.keys.values[at + 1..at + self.arity].cmp(&probe[1..]))
    }

    /// `binary_search` over the keys: `Ok(i)` where `probe` is, else
    /// `Err(i)` where it would go.
    fn find(self, probe: &Probe<'_>) -> Result<usize, usize> {
        let first = probe.first.filter(|_| self.keys.all_int);
        let lo = self.partition(|i| self.cmp_at(i, probe.key, first).is_lt());
        if lo < self.len && self.cmp_at(lo, probe.key, first).is_eq() {
            Ok(lo)
        } else {
            Err(lo)
        }
    }

    /// The first key `below` is false for, `below` being true for a
    /// prefix of the keys.
    fn partition(self, below: impl Fn(usize) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if below(mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Entries a binary search over this node examines.
    fn search_cost(self) -> usize {
        self.len.max(1).ilog2() as usize + 1
    }
}

/// The child of an inner node whose keys `find` placed a key at: the
/// number of separators `<=` the key.
fn child(found: Result<usize, usize>) -> usize {
    found.map_or_else(|i| i, |i| i + 1)
}

/// The B+-tree.
#[derive(Debug)]
pub struct BTreeIndex {
    root: Node,
    arity: usize,
    entries: usize,
    height: usize,
}

impl BTreeIndex {
    /// An empty tree over keys of `arity` values.
    pub fn new(arity: usize) -> Self {
        BTreeIndex {
            root: Node::leaf(),
            arity,
            entries: 0,
            height: 1,
        }
    }

    /// Number of (key, slot) postings.
    pub fn len(&self) -> usize {
        self.entries
    }

    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Tree height — an input feature of the index-lookup OU model.
    pub fn depth(&self) -> usize {
        self.height
    }

    /// Add a posting; a key that is not `arity` wide is refused (the
    /// tree is unchanged).
    pub fn insert(&mut self, key: IndexKey, slot: SlotId) {
        if key.len() != self.arity {
            return;
        }
        if self.root.is_full() {
            let old_root = std::mem::replace(&mut self.root, Node::leaf());
            let ((left, sep), right) = split(old_root, self.arity);
            self.root = Node::Inner {
                keys: NodeKeys::of(sep, self.arity),
                children: vec![left, right],
            };
            self.height += 1;
        }
        if insert_non_full(&mut self.root, self.arity, key, slot) {
            self.entries += 1;
        }
    }

    /// Remove one posting. Returns whether it was present.
    pub fn remove(&mut self, key: &[Value], slot: SlotId) -> bool {
        let removed = remove_rec(&mut self.root, self.arity, &Probe::new(key), slot);
        if removed {
            self.entries -= 1;
        }
        removed
    }

    /// Point lookup. Returns the postings and the number of comparisons
    /// performed (the "entries examined" feature).
    pub fn get(&self, key: &[Value]) -> (&[SlotId], usize) {
        let probe = Probe::new(key);
        let mut examined = 0usize;
        let mut node = &self.root;
        loop {
            let keys = node.keys(self.arity);
            examined += keys.search_cost();
            match node {
                Node::Inner { children, .. } => node = &children[child(keys.find(&probe))],
                Node::Leaf { posts, .. } => {
                    return match keys.find(&probe) {
                        Ok(i) => (posts[i].as_slice(), examined),
                        Err(_) => (&[], examined),
                    };
                }
            }
        }
    }

    /// Inclusive range scan. Returns postings in key order plus the number
    /// of entries examined.
    pub fn range(&self, lo: Option<&[Value]>, hi: Option<&[Value]>) -> (Vec<SlotId>, usize) {
        let mut out = Vec::new();
        let mut examined = 0usize;
        range_rec(&self.root, self.arity, lo, hi, &mut out, &mut examined);
        (out, examined)
    }

    /// Scan keys with a given prefix (for composite keys where only the
    /// leading columns are bound).
    pub fn prefix(&self, prefix: &[Value]) -> (Vec<SlotId>, usize) {
        let mut out = Vec::new();
        let mut examined = 0usize;
        prefix_rec(&self.root, self.arity, prefix, &mut out, &mut examined);
        (out, examined)
    }
}

/// Split a full node; returns ((left, separator), right).
fn split(node: Node, arity: usize) -> ((Node, IndexKey), Node) {
    let mid = node.len() / 2;
    match node {
        Node::Leaf {
            mut keys,
            mut posts,
        } => {
            let rk = keys.split_off(mid, arity);
            let rp = posts.split_off(mid);
            let sep = rk.values[..arity].to_vec();
            (
                (Node::Leaf { keys, posts }, sep),
                Node::Leaf {
                    keys: rk,
                    posts: rp,
                },
            )
        }
        Node::Inner {
            mut keys,
            mut children,
        } => {
            let mut rk = keys.split_off(mid, arity);
            let sep = rk.values[..arity].to_vec();
            rk.remove(0, arity);
            let rc = children.split_off(mid + 1);
            (
                (Node::Inner { keys, children }, sep),
                Node::Inner {
                    keys: rk,
                    children: rc,
                },
            )
        }
    }
}

/// Insert into a non-full node. Returns true when a *new* posting was
/// added (false when the slot was already present for the key).
fn insert_non_full(node: &mut Node, arity: usize, key: IndexKey, slot: SlotId) -> bool {
    let found = node.keys(arity).find(&Probe::new(&key));
    match node {
        Node::Leaf { keys, posts } => match found {
            Ok(i) => posts[i].insert(slot),
            Err(i) => {
                keys.insert(i, arity, key);
                posts.insert(i, Postings::One(slot));
                true
            }
        },
        Node::Inner { keys, children } => {
            let mut idx = child(found);
            if children[idx].is_full() {
                let child = std::mem::replace(&mut children[idx], Node::leaf());
                let ((left, sep), right) = split(child, arity);
                children[idx] = left;
                children.insert(idx + 1, right);
                let go_right = key >= sep;
                keys.insert(idx, arity, sep);
                if go_right {
                    idx += 1;
                }
            }
            insert_non_full(&mut children[idx], arity, key, slot)
        }
    }
}

fn remove_rec(node: &mut Node, arity: usize, probe: &Probe<'_>, slot: SlotId) -> bool {
    let found = node.keys(arity).find(probe);
    match node {
        Node::Leaf { keys, posts } => {
            let Ok(i) = found else { return false };
            match posts[i].remove(slot) {
                Some(true) => {
                    keys.remove(i, arity);
                    posts.remove(i);
                    true
                }
                Some(false) => true,
                None => false,
            }
        }
        Node::Inner { children, .. } => remove_rec(&mut children[child(found)], arity, probe, slot),
    }
}

fn range_rec(
    node: &Node,
    arity: usize,
    lo: Option<&[Value]>,
    hi: Option<&[Value]>,
    out: &mut Vec<SlotId>,
    examined: &mut usize,
) {
    let keys = node.keys(arity);
    match node {
        Node::Leaf { posts, .. } => {
            for (k, p) in keys.iter().zip(posts) {
                *examined += 1;
                if lo.is_some_and(|l| k < l) {
                    continue;
                }
                if hi.is_some_and(|h| k > h) {
                    return;
                }
                out.extend_from_slice(p.as_slice());
            }
        }
        Node::Inner { children, .. } => {
            // Child `i` holds keys in [keys[i-1], keys[i]) with open ends
            // at the edges; descend only children intersecting [lo, hi].
            for (i, child) in children.iter().enumerate() {
                let left_sep = i.checked_sub(1).and_then(|j| keys.get(j));
                let right_sep = keys.get(i);
                if let (Some(h), Some(ls)) = (hi, left_sep) {
                    if ls > h {
                        continue; // child minimum already beyond hi
                    }
                }
                if let (Some(l), Some(rs)) = (lo, right_sep) {
                    if rs <= l {
                        continue; // child maximum below lo
                    }
                }
                range_rec(child, arity, lo, hi, out, examined);
            }
        }
    }
}

fn prefix_rec(
    node: &Node,
    arity: usize,
    prefix: &[Value],
    out: &mut Vec<SlotId>,
    examined: &mut usize,
) {
    let keys = node.keys(arity);
    if prefix.len() > arity {
        // No key is that long, so none matches, but the scan walks the
        // whole tree, as the separators' band test leaves every child in.
        match node {
            Node::Leaf { .. } => *examined += keys.len,
            Node::Inner { children, .. } => {
                for child in children {
                    prefix_rec(child, arity, prefix, out, examined);
                }
            }
        }
        return;
    }
    let head = |i| &keys.at(i)[..prefix.len()];
    // Keys sort by their heads too, so the matching keys, and the
    // children whose separators bracket the prefix, are one run each.
    let first = keys.partition(|i| head(i) < prefix);
    match node {
        Node::Leaf { posts, .. } => {
            *examined += keys.len;
            for i in (first..keys.len).take_while(|&i| head(i) == prefix) {
                out.extend_from_slice(posts[i].as_slice());
            }
        }
        Node::Inner { children, .. } => {
            let last = keys.partition(|i| head(i) <= prefix);
            for child in &children[first..=last] {
                prefix_rec(child, arity, prefix, out, examined);
            }
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
    fn insert_get_many() {
        let mut t = BTreeIndex::new(1);
        for i in 0..2000 {
            t.insert(k(i * 7 % 1999), SlotId(i as u64));
        }
        assert_eq!(t.len(), 2000);
        let (posts, examined) = t.get(&k(7));
        assert_eq!(posts.len(), 1);
        assert!(examined > 0);
        assert!(t.depth() >= 2, "2000 keys must split the root");
    }

    #[test]
    fn duplicate_postings_are_deduped() {
        let mut t = BTreeIndex::new(1);
        t.insert(k(1), SlotId(9));
        t.insert(k(1), SlotId(9));
        t.insert(k(1), SlotId(10));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(&k(1)).0.len(), 2);
    }

    #[test]
    fn remove_postings_and_keys() {
        let mut t = BTreeIndex::new(1);
        t.insert(k(1), SlotId(1));
        t.insert(k(1), SlotId(2));
        assert!(t.remove(&k(1), SlotId(1)));
        assert!(!t.remove(&k(1), SlotId(1)), "already gone");
        assert_eq!(t.get(&k(1)).0, vec![SlotId(2)]);
        assert!(t.remove(&k(1), SlotId(2)));
        assert!(t.get(&k(1)).0.is_empty());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn range_scan_inclusive() {
        let mut t = BTreeIndex::new(1);
        for i in 0..500 {
            t.insert(k(i), SlotId(i as u64));
        }
        let (slots, _) = t.range(Some(&k(100)), Some(&k(110)));
        let ids: Vec<u64> = slots.iter().map(|s| s.0).collect();
        assert_eq!(ids, (100..=110).collect::<Vec<u64>>());
        let (all, _) = t.range(None, None);
        assert_eq!(all.len(), 500);
        let (tail, _) = t.range(Some(&k(495)), None);
        assert_eq!(tail.len(), 5);
        let (head, _) = t.range(None, Some(&k(4)));
        assert_eq!(head.len(), 5);
    }

    #[test]
    fn composite_keys_and_prefix_scan() {
        let mut t = BTreeIndex::new(2);
        for a in 0..20i64 {
            for b in 0..10i64 {
                t.insert(
                    vec![Value::Int(a), Value::Int(b)],
                    SlotId((a * 10 + b) as u64),
                );
            }
        }
        let (slots, _) = t.prefix(&[Value::Int(7)]);
        let mut ids: Vec<u64> = slots.iter().map(|s| s.0).collect();
        ids.sort();
        assert_eq!(ids, (70..80).collect::<Vec<u64>>());
    }

    #[test]
    fn matches_std_btreemap_model() {
        use std::collections::BTreeMap;
        let mut ours = BTreeIndex::new(1);
        let mut model: BTreeMap<IndexKey, Vec<SlotId>> = BTreeMap::new();
        let mut x: i64 = 42;
        for step in 0..5000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = k((x >> 33) % 300);
            let slot = SlotId(step as u64 % 97);
            if step % 3 == 0 {
                // removal
                let present = model.get(&key).map(|v| v.contains(&slot)).unwrap_or(false);
                assert_eq!(ours.remove(&key, slot), present, "step {step}");
                if present {
                    let v = model.get_mut(&key).unwrap();
                    v.retain(|s| *s != slot);
                    if v.is_empty() {
                        model.remove(&key);
                    }
                }
            } else {
                ours.insert(key.clone(), slot);
                let v = model.entry(key).or_default();
                if !v.contains(&slot) {
                    v.push(slot);
                }
            }
        }
        let expect: usize = model.values().map(std::vec::Vec::len).sum();
        assert_eq!(ours.len(), expect);
        for (key, slots) in &model {
            let mut got = ours.get(key).0.to_vec();
            got.sort();
            let mut want = slots.clone();
            want.sort();
            assert_eq!(got, want, "key {key:?}");
        }
        // Full range scan returns everything in key order.
        let (all, _) = ours.range(None, None);
        assert_eq!(all.len(), expect);
    }
}
