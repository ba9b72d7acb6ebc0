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
//! The registry is bounded: at most `cap` distinct fingerprints are kept,
//! evicted least-recently-used with deterministic tie-breaking (smallest
//! fingerprint wins the tie, so identical runs evict identically). An
//! `evicted` counter records the casualties; nothing here ever touches
//! the virtual clock — accounting costs are charged by the workload
//! driver at pump cadence via the kernel cost-model constants
//! (`stmt_fingerprint_ns` / `stmt_record_ns`), keeping collected
//! training samples bit-identical with statement stats on or off.

use std::collections::BTreeMap;

/// Default bound on distinct fingerprints retained.
pub const DEFAULT_STMT_CAP: usize = 256;

/// Accumulated statistics for one statement fingerprint.
#[derive(Debug, Clone)]
pub struct StmtEntry {
    /// The literal-normalized statement template.
    pub fingerprint: String,
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
    /// Actual ns attributed to each OU this statement fired, summed
    /// across calls (keys are OU names, e.g. `seq_scan`).
    pub ou_ns: BTreeMap<String, f64>,
    /// Calls for which the live model produced a prediction.
    pub predicted_calls: u64,
    /// Sum of per-call absolute percentage errors (predicted vs the
    /// OU-attributed actual), in percent; divide by `predicted_calls`.
    pub err_pct_sum: f64,
    /// LRU stamp: the registry clock at the most recent record.
    last_used: u64,
}

impl StmtEntry {
    fn new(fingerprint: &str) -> StmtEntry {
        StmtEntry {
            fingerprint: fingerprint.to_string(),
            calls: 0,
            rows: 0,
            total_ns: 0.0,
            min_ns: f64::INFINITY,
            max_ns: 0.0,
            ou_ns: BTreeMap::new(),
            predicted_calls: 0,
            err_pct_sum: 0.0,
            last_used: 0,
        }
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
        self.ou_ns.values().sum()
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
    entries: BTreeMap<String, StmtEntry>,
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
            entries: BTreeMap::new(),
        }
    }

    /// Fold one executed statement into its fingerprint's entry.
    ///
    /// `ou_ns` lists `(ou_name, actual_ns)` pairs for every OU the
    /// execution charged (repeats allowed — they sum). `predicted_ns`,
    /// when present, is the live model's total predicted cost for those
    /// OUs and feeds the rolling MAPE against their summed actual.
    pub fn record(
        &mut self,
        fingerprint: &str,
        actual_ns: f64,
        rows: u64,
        ou_ns: &[(&str, f64)],
        predicted_ns: Option<f64>,
    ) {
        self.clock += 1;
        self.recorded += 1;
        let clock = self.clock;
        // Steady state (the per-statement hot path) allocates nothing
        // and looks the fingerprint up exactly once: borrowed-str
        // lookups fold into the existing entry; the owned keys are only
        // built the first time a fingerprint or OU shows.
        let fold = |e: &mut StmtEntry| {
            e.calls += 1;
            e.rows += rows;
            e.total_ns += actual_ns;
            e.min_ns = e.min_ns.min(actual_ns);
            e.max_ns = e.max_ns.max(actual_ns);
            for (ou, ns) in ou_ns {
                match e.ou_ns.get_mut(*ou) {
                    Some(acc) => *acc += ns,
                    None => {
                        e.ou_ns.insert((*ou).to_string(), *ns);
                    }
                }
            }
            if let Some(p) = predicted_ns {
                let actual: f64 = ou_ns.iter().map(|(_, ns)| ns).sum();
                e.predicted_calls += 1;
                e.err_pct_sum += (p - actual).abs() / actual.max(1e-9) * 100.0;
            }
            e.last_used = clock;
        };
        if let Some(e) = self.entries.get_mut(fingerprint) {
            fold(e);
            return;
        }
        if self.entries.len() >= self.cap {
            self.evict_lru();
        }
        let e = self
            .entries
            .entry(fingerprint.to_string())
            .or_insert_with(|| StmtEntry::new(fingerprint));
        fold(e);
    }

    /// Evict the least-recently-used entry. Ties (same stamp) break to
    /// the lexicographically smallest fingerprint — BTreeMap iteration
    /// order plus a strict `<` comparison make the choice deterministic.
    fn evict_lru(&mut self) {
        let victim = self
            .entries
            .values()
            .min_by_key(|e| e.last_used)
            .map(|e| e.fingerprint.clone());
        if let Some(fp) = victim {
            self.entries.remove(&fp);
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

    /// Entries in fingerprint order (deterministic).
    pub fn entries(&self) -> impl Iterator<Item = &StmtEntry> {
        self.entries.values()
    }

    /// Look up one fingerprint.
    pub fn get(&self, fingerprint: &str) -> Option<&StmtEntry> {
        self.entries.get(fingerprint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulators_track_calls_rows_and_extremes() {
        let mut s = StmtStats::new(8);
        s.record("select ?", 100.0, 1, &[("seq_scan", 60.0)], None);
        s.record("select ?", 300.0, 3, &[("seq_scan", 200.0)], None);
        let e = s.get("select ?").unwrap();
        assert_eq!(e.calls, 2);
        assert_eq!(e.rows, 4);
        assert_eq!(e.total_ns, 400.0);
        assert_eq!(e.min_ns, 100.0);
        assert_eq!(e.max_ns, 300.0);
        assert_eq!(e.mean_ns(), 200.0);
        assert_eq!(e.ou_ns["seq_scan"], 260.0);
        assert_eq!(e.ou_ns_total(), 260.0);
        assert_eq!(e.mape_pct(), 0.0); // no predictions yet
        assert_eq!(s.recorded(), 2);
        assert_eq!(s.evicted(), 0);
    }

    #[test]
    fn mape_compares_prediction_to_ou_attributed_actual() {
        let mut s = StmtStats::default();
        // predicted 150 vs OU actual 100 -> 50% error
        s.record("q", 120.0, 0, &[("idx_lookup", 100.0)], Some(150.0));
        // predicted 100 vs OU actual 200 -> 50% error
        s.record("q", 250.0, 0, &[("idx_lookup", 200.0)], Some(100.0));
        // unpredicted call does not dilute the MAPE
        s.record("q", 250.0, 0, &[("idx_lookup", 200.0)], None);
        let e = s.get("q").unwrap();
        assert_eq!(e.predicted_calls, 2);
        assert!((e.mape_pct() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn lru_cap_evicts_deterministically_and_counts() {
        let mut s = StmtStats::new(2);
        s.record("a", 1.0, 0, &[], None); // clock 1
        s.record("b", 1.0, 0, &[], None); // clock 2
        s.record("a", 1.0, 0, &[], None); // clock 3: a is now most recent
        s.record("c", 1.0, 0, &[], None); // evicts b (LRU)
        assert_eq!(s.len(), 2);
        assert!(s.get("b").is_none());
        assert!(s.get("a").is_some() && s.get("c").is_some());
        assert_eq!(s.evicted(), 1);
        // Repeat the exact sequence: the same victim falls.
        let mut t = StmtStats::new(2);
        for fp in ["a", "b", "a", "c"] {
            t.record(fp, 1.0, 0, &[], None);
        }
        assert!(t.get("b").is_none());
        assert_eq!(t.evicted(), 1);
    }
}
