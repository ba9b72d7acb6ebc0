//! Statement-level execution statistics (the `pg_stat_statements` shape).
//!
//! The engine fingerprints every executed statement by rendering its AST
//! with literals normalized away (see `noisetap::sql::fingerprint`), so
//! `SELECT v FROM t WHERE id = 7` and `select  V from T where ID=42`
//! collapse into one template. Each fingerprint accumulates call counts,
//! total/min/max actual virtual-clock ns, row counts, a per-OU cost
//! breakdown, and a rolling predicted-vs-actual error (MAPE) against the
//! live behavior models — the per-query evidence a self-driving action
//! engine needs before trusting a model enough to act on it.
//!
//! A fingerprint is interned once into a [`StmtId`] (a prepared statement
//! at `prepare`, an ad-hoc one per call) and the per-statement fold keys
//! by that id and by OU slot ([`OuNs`]): no string is compared on the hot
//! path. Names are rendered, and entries sorted by them, only when read.
//!
//! The registry is bounded: at most `cap` distinct fingerprints are kept,
//! evicted least-recently-used (every record stamps a fresh clock, so
//! identical runs evict identically). An
//! `evicted` counter records the casualties; nothing here ever touches
//! the virtual clock — accounting costs are charged by the workload
//! driver at pump cadence via the kernel cost-model constants
//! (`stmt_fingerprint_ns` / `stmt_record_ns`), keeping collected
//! training samples bit-identical with statement stats on or off.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Default bound on distinct fingerprints retained.
pub const DEFAULT_STMT_CAP: usize = 256;

/// Every interned fingerprint, and each one's [`StmtId`]. Process-wide, as
/// frame names are, so an id means the same template to every registry:
/// a prepared statement's id stays valid across evictions, registry
/// resets and snapshots. It only grows, by one entry per distinct
/// template, and literals are normalized away before interning.
#[derive(Debug)]
struct Interner {
    names: Vec<Arc<str>>,
    ids: BTreeMap<Arc<str>, u32>,
}

static FINGERPRINTS: Mutex<Interner> = Mutex::new(Interner {
    names: Vec::new(),
    ids: BTreeMap::new(),
});

fn fingerprints() -> std::sync::MutexGuard<'static, Interner> {
    FINGERPRINTS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An interned statement fingerprint: what [`StmtStats::record`] keys
/// its entries by. Interning registers no entry; the first record does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StmtId(u32);

impl StmtId {
    /// Intern `fingerprint` (takes a lock — do it where the fingerprint
    /// is built, as `prepare` does, not per execution).
    pub fn intern(fingerprint: &str) -> StmtId {
        let mut fps = fingerprints();
        if let Some(&id) = fps.ids.get(fingerprint) {
            return StmtId(id);
        }
        #[allow(clippy::cast_possible_truncation)] // templates number in the thousands, not 2^32
        let id = fps.names.len() as u32;
        let name: Arc<str> = fingerprint.into();
        fps.names.push(Arc::clone(&name));
        fps.ids.insert(name, id);
        StmtId(id)
    }

    /// The id of `fingerprint` if it was ever interned.
    fn lookup(fingerprint: &str) -> Option<StmtId> {
        fingerprints().ids.get(fingerprint).copied().map(StmtId)
    }

    fn index(self) -> usize {
        self.0 as usize
    }

    /// The fingerprint this id interned.
    fn name(self) -> Arc<str> {
        let fps = fingerprints();
        fps.names
            .get(self.index())
            .map_or_else(|| "?".into(), Arc::clone)
    }
}

/// One statement's actual ns per OU it charged, as `(slot, ns)` pairs:
/// slot `k` is the OU `names[k]`. `names` is sorted and the pairs are in
/// slot order, so every sum over them adds in the order a name-keyed map
/// would.
#[derive(Debug, Clone, Copy)]
pub struct OuNs<'a> {
    names: &'static [&'static str],
    ns: &'a [(usize, f64)],
}

impl<'a> OuNs<'a> {
    /// `ns` pairs a slot of `names` with its OU's ns; `names` must be
    /// sorted and the slots ascending, each below `names.len()`.
    pub fn new(names: &'static [&'static str], ns: &'a [(usize, f64)]) -> OuNs<'a> {
        debug_assert!(names.is_sorted() && ns.is_sorted_by(|a, b| a.0 < b.0));
        debug_assert!(ns.last().is_none_or(|&(k, _)| k < names.len()));
        OuNs { names, ns }
    }
}

/// Accumulated statistics for one statement fingerprint.
#[derive(Debug, Clone)]
pub struct StmtEntry {
    /// The literal-normalized statement template.
    pub fingerprint: Arc<str>,
    /// Number of executions folded in.
    pub calls: u64,
    /// Total rows returned (queries) or affected (DML).
    pub rows: u64,
    /// Total actual virtual-clock ns across all calls.
    pub total_ns: f64,
    /// Fastest single call, ns.
    pub min_ns: f64,
    /// Slowest single call, ns.
    pub max_ns: f64,
    /// Calls for which the live model produced a prediction.
    pub predicted_calls: u64,
    /// Sum of per-call absolute percentage errors (predicted vs the
    /// OU-attributed actual), in percent; divide by `predicted_calls`.
    pub err_pct_sum: f64,
    /// Actual ns per OU slot (see [`OuNs`]), summed across calls; empty
    /// until a call charges an OU.
    ou_ns: Vec<Option<f64>>,
    /// The names of `ou_ns`' slots.
    ou_names: &'static [&'static str],
    id: StmtId,
    /// LRU stamp: the registry clock at the most recent record.
    last_used: u64,
}

impl StmtEntry {
    fn new(id: StmtId) -> StmtEntry {
        StmtEntry {
            fingerprint: id.name(),
            calls: 0,
            rows: 0,
            total_ns: 0.0,
            min_ns: f64::INFINITY,
            max_ns: 0.0,
            predicted_calls: 0,
            err_pct_sum: 0.0,
            ou_ns: Vec::new(),
            ou_names: &[],
            id,
            last_used: 0,
        }
    }

    /// Actual ns attributed to each OU this statement fired, summed
    /// across calls, in OU-name order (e.g. `("seq_scan", ns)`).
    pub fn ou_ns(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        let slots = self.ou_names.iter().zip(&self.ou_ns);
        slots.filter_map(|(name, ns)| ns.map(|ns| (*name, ns)))
    }

    /// Mean actual ns per call.
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns / self.calls as f64
        }
    }

    /// Total ns attributed to OUs (the modeled portion of `total_ns`).
    pub fn ou_ns_total(&self) -> f64 {
        self.ou_ns.iter().flatten().sum()
    }

    /// Rolling mean absolute percentage error of the model's predicted
    /// cost vs the OU-attributed actual, over predicted calls.
    pub fn mape_pct(&self) -> f64 {
        if self.predicted_calls == 0 {
            0.0
        } else {
            self.err_pct_sum / self.predicted_calls as f64
        }
    }
}

/// Bounded LRU registry of per-fingerprint statement statistics.
#[derive(Debug, Clone)]
pub struct StmtStats {
    cap: usize,
    clock: u64,
    recorded: u64,
    evicted: u64,
    /// Live entries, in no order: an eviction moves the last one into
    /// the victim's place.
    entries: Vec<StmtEntry>,
    /// `slot[id]` is one past the position in `entries` of `id`'s entry,
    /// 0 when it has none.
    slot: Vec<usize>,
}

impl Default for StmtStats {
    fn default() -> Self {
        StmtStats::new(DEFAULT_STMT_CAP)
    }
}

impl StmtStats {
    pub fn new(cap: usize) -> StmtStats {
        StmtStats {
            cap: cap.max(1),
            clock: 0,
            recorded: 0,
            evicted: 0,
            entries: Vec::new(),
            slot: Vec::new(),
        }
    }

    /// Fold one executed statement into its fingerprint's entry, created
    /// if the fingerprint has none (evicting the least recently used one
    /// at the cap).
    ///
    /// `ou_ns` is the actual ns of every OU the execution charged.
    /// `predicted_ns`, when present, is the live model's total predicted
    /// cost for those OUs and feeds the rolling MAPE against their summed
    /// actual.
    pub fn record(
        &mut self,
        id: StmtId,
        actual_ns: f64,
        rows: u64,
        ou_ns: OuNs<'_>,
        predicted_ns: Option<f64>,
    ) {
        self.clock += 1;
        self.recorded += 1;
        let at = match self.position(id) {
            Some(at) => at,
            None => self.insert(id),
        };
        let e = &mut self.entries[at];
        e.calls += 1;
        e.rows += rows;
        e.total_ns += actual_ns;
        e.min_ns = e.min_ns.min(actual_ns);
        e.max_ns = e.max_ns.max(actual_ns);
        if e.ou_ns.is_empty() && !ou_ns.ns.is_empty() {
            e.ou_ns = vec![None; ou_ns.names.len()];
            e.ou_names = ou_ns.names;
        }
        debug_assert!(ou_ns.ns.is_empty() || e.ou_names == ou_ns.names);
        for &(k, ns) in ou_ns.ns {
            if let Some(acc) = e.ou_ns.get_mut(k) {
                *acc = Some(acc.map_or(ns, |acc| acc + ns));
            }
        }
        if let Some(p) = predicted_ns {
            let actual: f64 = ou_ns.ns.iter().map(|(_, ns)| ns).sum();
            e.predicted_calls += 1;
            e.err_pct_sum += (p - actual).abs() / actual.max(1e-9) * 100.0;
        }
        e.last_used = self.clock;
    }

    /// Position in `entries` of `id`'s entry.
    fn position(&self, id: StmtId) -> Option<usize> {
        self.slot.get(id.index())?.checked_sub(1)
    }

    /// Add an empty entry for `id`, first evicting at the cap; returns
    /// its position.
    fn insert(&mut self, id: StmtId) -> usize {
        if self.entries.len() >= self.cap {
            self.evict_lru();
        }
        if self.slot.len() <= id.index() {
            self.slot.resize(id.index() + 1, 0);
        }
        self.entries.push(StmtEntry::new(id));
        self.slot[id.index()] = self.entries.len();
        self.entries.len() - 1
    }

    /// Evict the least-recently-used entry. Every record stamps one
    /// entry with a fresh clock, so no two entries share a stamp and the
    /// victim is the same whatever order the entries are in.
    fn evict_lru(&mut self) {
        let victim = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(at, _)| at);
        if let Some(at) = victim {
            let gone = self.entries.swap_remove(at);
            self.slot[gone.id.index()] = 0;
            if let Some(moved) = self.entries.get(at) {
                self.slot[moved.id.index()] = at + 1;
            }
            self.evicted += 1;
        }
    }

    /// Number of distinct fingerprints currently tracked.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total record() calls (drives the driver's pump-cadence cost
    /// charge: each recorded statement paid one fingerprint + one fold).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Entries evicted by the LRU cap since creation.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Entries in fingerprint order (deterministic), sorted per call.
    pub fn entries(&self) -> impl Iterator<Item = &StmtEntry> {
        let mut sorted: Vec<&StmtEntry> = self.entries.iter().collect();
        sorted.sort_unstable_by(|a, b| a.fingerprint.cmp(&b.fingerprint));
        sorted.into_iter()
    }

    /// Look up one fingerprint.
    pub fn get(&self, fingerprint: &str) -> Option<&StmtEntry> {
        let at = self.position(StmtId::lookup(fingerprint)?)?;
        self.entries.get(at)
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    /// The OU slots these tests charge, in name order.
    static OUS: [&str; 3] = ["idx_lookup", "output", "seq_scan"];

    /// Charges of [`OUS`] slots, summed per slot in charge order, in
    /// slot order: the pairs an [`OuNs`] takes.
    fn ous(charged: &[(usize, f64)]) -> Vec<(usize, f64)> {
        let mut ns: Vec<(usize, f64)> = Vec::new();
        for &(k, v) in charged {
            match ns.iter_mut().find(|(s, _)| *s == k) {
                Some((_, acc)) => *acc += v,
                None => ns.push((k, v)),
            }
        }
        ns.sort_unstable_by_key(|(k, _)| *k);
        ns
    }

    fn record(
        s: &mut StmtStats,
        fp: &str,
        actual: f64,
        rows: u64,
        ns: &[(usize, f64)],
        p: Option<f64>,
    ) {
        s.record(
            StmtId::intern(fp),
            actual,
            rows,
            OuNs::new(&OUS, &ous(ns)),
            p,
        );
    }

    #[test]
    fn accumulators_track_calls_rows_and_extremes() {
        let mut s = StmtStats::new(8);
        record(&mut s, "select ?", 100.0, 1, &[(2, 60.0)], None);
        record(&mut s, "select ?", 300.0, 3, &[(2, 200.0)], None);
        let e = s.get("select ?").unwrap();
        assert_eq!(e.calls, 2);
        assert_eq!(e.rows, 4);
        assert_eq!(e.total_ns, 400.0);
        assert_eq!(e.min_ns, 100.0);
        assert_eq!(e.max_ns, 300.0);
        assert_eq!(e.mean_ns(), 200.0);
        assert_eq!(e.ou_ns().collect::<Vec<_>>(), [("seq_scan", 260.0)]);
        assert_eq!(e.ou_ns_total(), 260.0);
        assert_eq!(e.mape_pct(), 0.0); // no predictions yet
        assert_eq!(s.recorded(), 2);
        assert_eq!(s.evicted(), 0);
    }

    #[test]
    fn mape_compares_prediction_to_ou_attributed_actual() {
        let mut s = StmtStats::default();
        // predicted 150 vs OU actual 100 -> 50% error
        record(&mut s, "q", 120.0, 0, &[(0, 100.0)], Some(150.0));
        // predicted 100 vs OU actual 200 -> 50% error
        record(&mut s, "q", 250.0, 0, &[(0, 200.0)], Some(100.0));
        // unpredicted call does not dilute the MAPE
        record(&mut s, "q", 250.0, 0, &[(0, 200.0)], None);
        let e = s.get("q").unwrap();
        assert_eq!(e.predicted_calls, 2);
        assert!((e.mape_pct() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn lru_cap_evicts_deterministically_and_counts() {
        let mut s = StmtStats::new(2);
        record(&mut s, "a", 1.0, 0, &[], None); // clock 1
        record(&mut s, "b", 1.0, 0, &[], None); // clock 2
        record(&mut s, "a", 1.0, 0, &[], None); // clock 3: a is now most recent
        record(&mut s, "c", 1.0, 0, &[], None); // evicts b (LRU)
        assert_eq!(s.len(), 2);
        assert!(s.get("b").is_none());
        assert!(s.get("a").is_some() && s.get("c").is_some());
        assert_eq!(s.evicted(), 1);
        // Repeat the exact sequence: the same victim falls.
        let mut t = StmtStats::new(2);
        for fp in ["a", "b", "a", "c"] {
            record(&mut t, fp, 1.0, 0, &[], None);
        }
        assert!(t.get("b").is_none());
        assert_eq!(t.evicted(), 1);
    }

    /// Interning registers nothing: an id with no record has no entry,
    /// and interning a name twice gives one id.
    #[test]
    fn interning_is_idempotent_and_registers_no_entry() {
        let id = StmtId::intern("select only_interned from t");
        assert_eq!(StmtId::intern("select only_interned from t"), id);
        let s = StmtStats::default();
        assert!(s.is_empty() && s.get("select only_interned from t").is_none());
    }

    /// splitmix64: a seeded stream without a dependency.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A cost with a fractional part, so every addition rounds.
        fn ns(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 40) as f64 * 1e4
        }
    }

    /// Every field of an id-keyed entry, bit for bit, against the
    /// string-keyed reference's entry of the same fingerprint.
    fn assert_same_entry(got: &StmtEntry, want: &reference::StmtEntry) {
        assert_eq!(*got.fingerprint, want.fingerprint);
        let bits = |e: [f64; 4]| e.map(f64::to_bits);
        assert_eq!(
            (got.calls, got.rows, got.predicted_calls),
            (want.calls, want.rows, want.predicted_calls),
            "{}",
            want.fingerprint
        );
        assert_eq!(
            bits([got.total_ns, got.min_ns, got.max_ns, got.err_pct_sum]),
            bits([want.total_ns, want.min_ns, want.max_ns, want.err_pct_sum]),
            "{}",
            want.fingerprint
        );
        let ou: Vec<(&str, u64)> = got.ou_ns().map(|(n, v)| (n, v.to_bits())).collect();
        let want_ou: Vec<(&str, u64)> = want
            .ou_ns
            .iter()
            .map(|(n, v)| (n.as_str(), v.to_bits()))
            .collect();
        assert_eq!(ou, want_ou, "{}", want.fingerprint);
        assert_eq!(got.ou_ns_total().to_bits(), want.ou_ns_total().to_bits());
        assert_eq!(got.mape_pct().to_bits(), want.mape_pct().to_bits());
    }

    /// Seeded streams of records over more fingerprints than the cap:
    /// evictions, an evicted fingerprint re-recorded through the id
    /// interned before its eviction, and registry resets. After every
    /// step the id-keyed registry holds the string-keyed reference's
    /// entries, `recorded` and `evicted`, bit for bit.
    #[test]
    fn id_keyed_stats_match_the_string_keyed_reference() {
        let (mut evictions, mut resets) = (0, 0);
        for seed in 0..24u64 {
            let mut rng = Rng(seed);
            let cap = 1 + rng.below(6) as usize;
            let names: Vec<String> = (0..cap as u64 + 1 + rng.below(6))
                .map(|i| format!("select ? from diff_{seed}_{i}"))
                .collect();
            // Interned once up front: every later record, after however
            // many evictions and resets, goes through these ids.
            let ids: Vec<StmtId> = names.iter().map(|n| StmtId::intern(n)).collect();
            let mut got = StmtStats::new(cap);
            let mut want = reference::StmtStats::new(cap);
            for step in 0..600 {
                if rng.below(150) == 0 {
                    (evictions, resets) = (evictions + got.evicted(), resets + 1);
                    got = StmtStats::new(cap);
                    want = reference::StmtStats::new(cap);
                }
                let i = rng.below(names.len() as u64) as usize;
                let (actual, rows) = (rng.ns(), rng.below(4));
                let mut charged = Vec::new();
                for _ in 0..rng.below(5) {
                    charged.push((rng.below(OUS.len() as u64) as usize, rng.ns()));
                }
                let predicted = (rng.below(3) == 0).then(|| rng.ns());
                let slots = ous(&charged);
                got.record(ids[i], actual, rows, OuNs::new(&OUS, &slots), predicted);
                // The reference takes the breakdown as the engine used to
                // hand it: one summed pair per OU, sorted by name.
                let pairs: Vec<(&str, f64)> = slots.iter().map(|&(k, v)| (OUS[k], v)).collect();
                want.record(&names[i], actual, rows, &pairs, predicted);
                assert_eq!(
                    (got.recorded(), got.evicted()),
                    (want.recorded(), want.evicted())
                );
                assert_eq!(got.len(), want.len(), "seed {seed} step {step}");
                let (g, w): (Vec<_>, Vec<_>) = (got.entries().collect(), want.entries().collect());
                for (g, w) in g.iter().zip(&w) {
                    assert_same_entry(g, w);
                }
            }
            evictions += got.evicted();
        }
        assert!(evictions > 1_000 && resets > 24, "{evictions} {resets}");
    }
}
