//! The string-keyed statement stats the id-keyed [`super::StmtStats`]
//! replaced, kept verbatim as the differential's oracle: entries in a
//! `BTreeMap` by fingerprint, each with a `BTreeMap` of OU name to ns.
#![allow(dead_code, unreachable_pub)]

use std::collections::BTreeMap;

use super::DEFAULT_STMT_CAP;

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
