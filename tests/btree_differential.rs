//! The flat-key B+-tree held to the layout it replaced.
//!
//! [`reference`] is NoiseTap's B+-tree as it was before its nodes held
//! their keys flat — one heap `Vec<Value>` per key — verbatim but for the
//! `Default` impl and `is_empty` nobody here calls and `pub(crate)` for
//! `pub`. It lives here, not in the crate, because the public API is all
//! it needs. Seeded insert / remove / get / range / prefix streams over
//! 1-, 2- and 3-column keys mixing Int, Float, Text, Null and Bool — and
//! streams whose first columns sit at the edges of `i64`, for the word
//! descent — run on both trees; after every step the shipped tree must
//! return the same postings in the same order, the same `examined` count
//! and the same `depth()` — the OU features an index lookup or range
//! scan emits.

use tscout_suite::noisetap::index::{BTreeIndex, IndexKey};
use tscout_suite::noisetap::storage::SlotId;
use tscout_suite::noisetap::Value;
use tscout_suite::rng::{RngExt, SeedableRng, StdRng};

mod reference {
    //! The `Vec<IndexKey>`-per-node B+-tree, as shipped until the flat
    //! layout replaced it.
    use tscout_suite::noisetap::index::IndexKey;
    use tscout_suite::noisetap::storage::SlotId;
    use tscout_suite::noisetap::Value;

    const ORDER: usize = 32; // max keys per node = 2*ORDER

    #[derive(Debug)]
    enum Node {
        Leaf {
            keys: Vec<IndexKey>,
            posts: Vec<Vec<SlotId>>,
        },
        Inner {
            keys: Vec<IndexKey>,
            children: Vec<Node>,
        },
    }

    impl Node {
        fn leaf() -> Node {
            Node::Leaf {
                keys: Vec::new(),
                posts: Vec::new(),
            }
        }

        fn is_full(&self) -> bool {
            match self {
                Node::Leaf { keys, .. } | Node::Inner { keys, .. } => keys.len() >= 2 * ORDER,
            }
        }
    }

    /// The B+-tree.
    #[derive(Debug)]
    pub(crate) struct BTreeIndex {
        root: Node,
        entries: usize,
        height: usize,
    }

    impl BTreeIndex {
        pub(crate) fn new() -> Self {
            BTreeIndex {
                root: Node::leaf(),
                entries: 0,
                height: 1,
            }
        }

        /// Number of (key, slot) postings.
        pub(crate) fn len(&self) -> usize {
            self.entries
        }

        /// Tree height — an input feature of the index-lookup OU model.
        pub(crate) fn depth(&self) -> usize {
            self.height
        }

        pub(crate) fn insert(&mut self, key: IndexKey, slot: SlotId) {
            if self.root.is_full() {
                let old_root = std::mem::replace(&mut self.root, Node::leaf());
                let ((left, sep), right) = split(old_root);
                self.root = Node::Inner {
                    keys: vec![sep],
                    children: vec![left, right],
                };
                self.height += 1;
            }
            if insert_non_full(&mut self.root, key, slot) {
                self.entries += 1;
            }
        }

        /// Remove one posting. Returns whether it was present.
        pub(crate) fn remove(&mut self, key: &IndexKey, slot: SlotId) -> bool {
            let removed = remove_rec(&mut self.root, key, slot);
            if removed {
                self.entries -= 1;
            }
            removed
        }

        /// Point lookup. Returns the postings and the number of comparisons
        /// performed (the "entries examined" feature).
        pub(crate) fn get(&self, key: &IndexKey) -> (Vec<SlotId>, usize) {
            let mut examined = 0usize;
            let mut node = &self.root;
            loop {
                match node {
                    Node::Inner { keys, children } => {
                        let idx = keys.partition_point(|k| k <= key);
                        examined += (keys.len().max(1)).ilog2() as usize + 1;
                        node = &children[idx];
                    }
                    Node::Leaf { keys, posts } => {
                        examined += (keys.len().max(1)).ilog2() as usize + 1;
                        return match keys.binary_search(key) {
                            Ok(i) => (posts[i].clone(), examined),
                            Err(_) => (Vec::new(), examined),
                        };
                    }
                }
            }
        }

        /// Inclusive range scan. Returns postings in key order plus the number
        /// of entries examined.
        pub(crate) fn range(
            &self,
            lo: Option<&IndexKey>,
            hi: Option<&IndexKey>,
        ) -> (Vec<SlotId>, usize) {
            let mut out = Vec::new();
            let mut examined = 0usize;
            range_rec(&self.root, lo, hi, &mut out, &mut examined);
            (out, examined)
        }

        /// Scan keys with a given prefix (for composite keys where only the
        /// leading columns are bound).
        pub(crate) fn prefix(&self, prefix: &[Value]) -> (Vec<SlotId>, usize) {
            let mut out = Vec::new();
            let mut examined = 0usize;
            prefix_rec(&self.root, prefix, &mut out, &mut examined);
            (out, examined)
        }
    }

    /// Split a full node; returns ((left, separator), right).
    fn split(node: Node) -> ((Node, IndexKey), Node) {
        match node {
            Node::Leaf {
                mut keys,
                mut posts,
            } => {
                let mid = keys.len() / 2;
                let rk = keys.split_off(mid);
                let rp = posts.split_off(mid);
                let sep = rk[0].clone();
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
                let mid = keys.len() / 2;
                let mut rk = keys.split_off(mid);
                let sep = rk.remove(0);
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
    fn insert_non_full(node: &mut Node, key: IndexKey, slot: SlotId) -> bool {
        match node {
            Node::Leaf { keys, posts } => match keys.binary_search(&key) {
                Ok(i) => {
                    if posts[i].contains(&slot) {
                        false
                    } else {
                        posts[i].push(slot);
                        true
                    }
                }
                Err(i) => {
                    keys.insert(i, key);
                    posts.insert(i, vec![slot]);
                    true
                }
            },
            Node::Inner { keys, children } => {
                let mut idx = keys.partition_point(|k| k <= &key);
                if children[idx].is_full() {
                    let child = std::mem::replace(&mut children[idx], Node::leaf());
                    let ((left, sep), right) = split(child);
                    children[idx] = left;
                    children.insert(idx + 1, right);
                    keys.insert(idx, sep);
                    if key >= keys[idx] {
                        idx += 1;
                    }
                }
                insert_non_full(&mut children[idx], key, slot)
            }
        }
    }

    fn remove_rec(node: &mut Node, key: &IndexKey, slot: SlotId) -> bool {
        match node {
            Node::Leaf { keys, posts } => match keys.binary_search(key) {
                Ok(i) => {
                    let had = posts[i].iter().position(|s| *s == slot);
                    match had {
                        Some(p) => {
                            posts[i].swap_remove(p);
                            if posts[i].is_empty() {
                                keys.remove(i);
                                posts.remove(i);
                            }
                            true
                        }
                        None => false,
                    }
                }
                Err(_) => false,
            },
            Node::Inner { keys, children } => {
                let idx = keys.partition_point(|k| k <= key);
                remove_rec(&mut children[idx], key, slot)
            }
        }
    }

    fn range_rec(
        node: &Node,
        lo: Option<&IndexKey>,
        hi: Option<&IndexKey>,
        out: &mut Vec<SlotId>,
        examined: &mut usize,
    ) {
        match node {
            Node::Leaf { keys, posts } => {
                for (k, p) in keys.iter().zip(posts) {
                    *examined += 1;
                    if lo.is_some_and(|l| k < l) {
                        continue;
                    }
                    if hi.is_some_and(|h| k > h) {
                        return;
                    }
                    out.extend_from_slice(p);
                }
            }
            Node::Inner { keys, children } => {
                // Child `i` holds keys in [keys[i-1], keys[i]) with open ends
                // at the edges; descend only children intersecting [lo, hi].
                for (i, child) in children.iter().enumerate() {
                    let left_sep = if i == 0 { None } else { keys.get(i - 1) };
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
                    range_rec(child, lo, hi, out, examined);
                }
            }
        }
    }

    fn prefix_rec(node: &Node, prefix: &[Value], out: &mut Vec<SlotId>, examined: &mut usize) {
        match node {
            Node::Leaf { keys, posts } => {
                for (k, p) in keys.iter().zip(posts) {
                    *examined += 1;
                    if k.len() >= prefix.len() && &k[..prefix.len()] == prefix {
                        out.extend_from_slice(p);
                    }
                }
            }
            Node::Inner { keys, children } => {
                for (i, child) in children.iter().enumerate() {
                    // Prune children strictly outside the prefix band.
                    let left_sep = i.checked_sub(1).and_then(|j| keys.get(j));
                    let right_sep = keys.get(i);
                    let lo_ok = left_sep.is_none_or(|sep| {
                        sep.len() < prefix.len() || sep[..prefix.len()] <= *prefix
                    });
                    let hi_ok = right_sep.is_none_or(|sep| {
                        sep.len() < prefix.len() || sep[..prefix.len()] >= *prefix
                    });
                    if lo_ok && hi_ok {
                        prefix_rec(child, prefix, out, examined);
                    }
                }
            }
        }
    }
}

/// One key value: mostly ints over a range wide enough to split the
/// tree twice, then floats equal to some of those ints or between them,
/// signed zeros and NaNs, short strings, NULL and booleans.
fn value(rng: &mut StdRng) -> Value {
    match rng.random_range(0..10) {
        0..=4 => Value::Int(rng.random_range(-40i64..2_000)),
        5 => Value::Float(
            rng.random_range(-40i64..2_000) as f64 + 0.5 * rng.random_range(0..2) as f64,
        ),
        6 => Value::Float([0.0, -0.0, f64::NAN, -f64::NAN, f64::INFINITY][rng.random_range(0..5)]),
        7 => Value::Text(["", "a", "ab", "b", "ba"][rng.random_range(0..5)].into()),
        8 => Value::Null,
        _ => Value::Bool(rng.random()),
    }
}

/// One key value at the edges a word compare could get wrong: ints at
/// `i64::MIN`, `i64::MAX` and either side of 2⁵³ and 0, three in four,
/// so most nodes read their first column as words; floats that round to
/// or between them; and now and then anything [`value`] makes (NULL,
/// text, a boolean), which turns a node's words off until it splits.
fn edge_value(rng: &mut StdRng) -> Value {
    const EDGES: [i64; 6] = [i64::MIN, -(1 << 53), -1, 0, 1 << 53, i64::MAX];
    let near = EDGES[rng.random_range(0..EDGES.len())].saturating_add(rng.random_range(-3i64..=3));
    match rng.random_range(0..20) {
        0..=14 => Value::Int(near),
        15 | 16 => Value::Float(near as f64 + 0.5 * rng.random_range(-1i64..=1) as f64),
        _ => value(rng),
    }
}

/// Where a stream's key values come from.
type Values = fn(&mut StdRng) -> Value;

fn key(rng: &mut StdRng, width: usize, value: Values) -> IndexKey {
    (0..width).map(|_| value(rng)).collect()
}

/// A key inserted earlier (so removes and lookups hit), or a fresh one.
fn probe(rng: &mut StdRng, seen: &[IndexKey], arity: usize, value: Values) -> IndexKey {
    if !seen.is_empty() && rng.random_range(0..10) < 7 {
        seen[rng.random_range(0..seen.len())].clone()
    } else {
        key(rng, arity, value)
    }
}

/// A range or prefix bound: absent, or 1..=arity leading values.
fn bound(rng: &mut StdRng, seen: &[IndexKey], arity: usize, value: Values) -> Option<IndexKey> {
    let width = rng.random_range(0..=arity);
    (width > 0).then(|| probe(rng, seen, arity, value)[..width].to_vec())
}

/// One seeded stream; returns the height the trees reached.
fn run_stream(seed: u64, arity: usize, steps: usize, value: Values) -> usize {
    let rng = &mut StdRng::seed_from_u64(seed);
    let (mut ours, mut want) = (BTreeIndex::new(arity), reference::BTreeIndex::new());
    let mut seen: Vec<IndexKey> = Vec::new();
    for step in 0..steps {
        let case = format!("seed {seed} arity {arity} step {step}");
        match rng.random_range(0..100) {
            0..=54 => {
                let k = probe(rng, &seen, arity, value);
                let slot = SlotId(rng.random_range(0..16));
                ours.insert(k.clone(), slot);
                want.insert(k.clone(), slot);
                seen.push(k);
            }
            55..=74 => {
                let k = probe(rng, &seen, arity, value);
                let slot = SlotId(rng.random_range(0..16));
                assert_eq!(
                    ours.remove(&k, slot),
                    want.remove(&k, slot),
                    "{case}: remove"
                );
            }
            75..=94 => {
                let k = probe(rng, &seen, arity, value);
                let (posts, examined) = ours.get(&k);
                assert_eq!(
                    (posts.to_vec(), examined),
                    want.get(&k),
                    "{case}: get {k:?}"
                );
            }
            95..=97 => {
                let lo = bound(rng, &seen, arity, value);
                let hi = bound(rng, &seen, arity, value);
                let got = ours.range(lo.as_deref(), hi.as_deref());
                assert_eq!(got, want.range(lo.as_ref(), hi.as_ref()), "{case}: range");
            }
            _ => {
                let mut prefix = bound(rng, &seen, arity, value).unwrap_or_default();
                if rng.random_range(0..8) == 0 {
                    prefix = key(rng, arity + 1, value); // wider than any key
                }
                assert_eq!(ours.prefix(&prefix), want.prefix(&prefix), "{case}: prefix");
            }
        }
        assert_eq!(
            (ours.depth(), ours.len()),
            (want.depth(), want.len()),
            "{case}"
        );
    }
    ours.depth()
}

fn sweep(seeds: u64, steps: usize, value: Values) -> usize {
    let mut height = 0;
    for arity in 1..=3 {
        for seed in 0..seeds {
            height = height.max(run_stream(1_000 * arity as u64 + seed, arity, steps, value));
        }
    }
    height
}

/// Tier-1 size: every operation and key shape, the root split at least
/// once per stream.
#[test]
fn flat_key_tree_matches_the_reference_tree() {
    assert!(sweep(2, 3_000, value) >= 2);
}

/// The full sweep (`ci.sh` runs it in release): trees three levels high.
#[test]
#[ignore = "seconds in release, a minute in a debug build"]
fn flat_key_tree_matches_the_reference_tree_full_sweep() {
    assert!(sweep(24, 20_000, value) >= 3);
    assert!(sweep(8, 20_000, edge_value) >= 3);
}

/// The word descent where it could go wrong: first columns mostly `Int`
/// at `i64::MIN`, `i64::MAX` and near 2⁵³, floats that round to them,
/// and NULL, text and booleans that switch a node's words off.
#[test]
fn word_descent_matches_the_reference_at_the_edges_of_i64() {
    assert!(sweep(2, 3_000, edge_value) >= 2);
}

/// One key's postings go 1 → 2 → 3 → 2 → 1 → 0 while other keys come
/// and go around it (enough to split the root), in a tree whose other
/// keys hold one slot each — a unique index — and in one where they
/// hold three. After every step the key's postings, in order, its
/// `examined`, `depth()` and `len()` are the reference's, and the
/// postings are what push and `swap_remove` leave.
#[test]
fn one_keys_postings_grow_to_three_and_shrink_to_none() {
    let focal = vec![Value::Int(500)];
    let steps: [(bool, u64, &[u64]); 6] = [
        (true, 10, &[10]),
        (true, 11, &[10, 11]),
        (true, 12, &[10, 11, 12]),
        (false, 10, &[12, 11]),
        (false, 12, &[11]),
        (false, 11, &[]),
    ];
    for slots_per_key in [1, 3] {
        let rng = &mut StdRng::seed_from_u64(slots_per_key);
        let (mut ours, mut want) = (BTreeIndex::new(1), reference::BTreeIndex::new());
        for (step, &(insert, slot, expected)) in steps.iter().enumerate() {
            let case = format!("{slots_per_key} slots per other key, step {step}");
            for _ in 0..60 {
                let other = vec![Value::Int(2 * rng.random_range(0i64..300) + 1)];
                let slot = SlotId(rng.random_range(0..slots_per_key));
                if rng.random_range(0..4) == 0 {
                    assert_eq!(ours.remove(&other, slot), want.remove(&other, slot));
                } else {
                    ours.insert(other.clone(), slot);
                    want.insert(other, slot);
                }
            }
            if insert {
                ours.insert(focal.clone(), SlotId(slot));
                want.insert(focal.clone(), SlotId(slot));
            } else {
                assert!(ours.remove(&focal, SlotId(slot)), "{case}");
                assert!(want.remove(&focal, SlotId(slot)), "{case}");
            }
            let (posts, examined) = ours.get(&focal);
            assert_eq!((posts.to_vec(), examined), want.get(&focal), "{case}");
            let expected: Vec<SlotId> = expected.iter().map(|&s| SlotId(s)).collect();
            assert_eq!(posts, expected, "{case}");
            assert_eq!(
                (ours.depth(), ours.len()),
                (want.depth(), want.len()),
                "{case}"
            );
        }
        assert!(ours.depth() >= 2, "the root split");
    }
}

#[test]
fn a_key_of_the_wrong_width_is_refused() {
    let mut t = BTreeIndex::new(2);
    t.insert(vec![Value::Int(1), Value::Int(2)], SlotId(1));
    t.insert(vec![Value::Int(1)], SlotId(2));
    t.insert(vec![Value::Int(1); 3], SlotId(3));
    assert_eq!(t.len(), 1);
    assert!(t.get(&[Value::Int(1)]).0.is_empty() && !t.remove(&[Value::Int(1)], SlotId(1)));
    assert_eq!(t.prefix(&[Value::Int(1)]).0, [SlotId(1)]);
}

/// Ints either side of 2⁵³ beside the floats they round to: every key
/// is found across node splits, `Float(2⁵³)` as the same key as
/// `Int(2⁵³)` (equal values) and never as `Int(2⁵³ + 1)`.
#[test]
fn ints_and_floats_near_2_pow_53_are_each_found() {
    let p53 = 1i64 << 53;
    let mut t = BTreeIndex::new(1);
    for d in -300..300 {
        t.insert(vec![Value::Int(p53 + d)], SlotId((d + 300) as u64));
    }
    for d in -300..300 {
        t.insert(vec![Value::Float((p53 + d) as f64)], SlotId(1_000));
    }
    assert!(t.depth() >= 2);
    for d in -300..300i64 {
        let (posts, _) = t.get(&[Value::Int(p53 + d)]);
        assert_eq!(posts[0], SlotId((d + 300) as u64), "2^53 {d:+}");
        // A float equal to this int adds its posting to the same key.
        let float_twin = (p53 + d) as f64 as i64 == p53 + d;
        assert_eq!(posts.len(), 1 + usize::from(float_twin), "2^53 {d:+}");
    }
}
