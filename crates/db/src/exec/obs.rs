//! Per-statement execution observation: actual virtual-clock cost per
//! plan node and per OU.
//!
//! When a [`StmtObs`] is attached to the [`ExecCtx`](super::ExecCtx),
//! the executor assigns each plan node an index in *pre-order execution
//! order* — the same order [`plan::explain`](super::plan::explain)
//! renders operator lines — and brackets the node's inclusive work with
//! virtual-clock reads. Every [`ExecCtx::charge`](super::ExecCtx) call
//! additionally records the OU's name, its modeled elapsed ns, and the
//! feature vector it was charged with, attributed to the innermost open
//! node (or to the statement as a whole when no node is open, e.g. the
//! Output OU).
//!
//! Observation is *clock-neutral*: it only reads `Kernel::now` and
//! pushes into vectors — it never charges the session task, so the
//! training samples a traced workload produces are bit-identical whether
//! statement observation is on or off. The accounting cost of the
//! bookkeeping is charged separately (`stmt_fingerprint_ns` /
//! `stmt_record_ns` on the Processor task at pump cadence, and
//! `explain_analyze_node_ns` on the session task for EXPLAIN ANALYZE).

use super::ou::EngineOu;

/// Observed actuals for one plan node.
#[derive(Debug, Clone, Default)]
pub struct NodeObs {
    /// Inclusive virtual-clock ns (children included), summed over loops.
    pub ns: f64,
    /// Rows produced (rows affected for DML header nodes).
    pub rows: u64,
    /// Times the node was entered.
    pub loops: u64,
}

/// One OU charge observed during statement execution.
#[derive(Debug, Clone)]
pub struct OuCharge {
    pub ou: EngineOu,
    /// Modeled elapsed ns the charge advanced the session clock by.
    pub ns: f64,
    /// Feature vector as charged (empty unless
    /// [`StmtObs::keep_features`] was set).
    pub features: Vec<u64>,
    /// Index of the innermost open node when the charge landed, or
    /// `None` for statement-level charges (e.g. the Output OU).
    pub node: Option<usize>,
}

/// Observed actuals for one statement execution.
///
/// The buffer is reusable: [`StmtObs::reset`] clears it while keeping
/// vector capacity, so the engine can pool one instance across the
/// per-statement hot path instead of reallocating per execution.
#[derive(Debug, Clone, Default)]
pub struct StmtObs {
    /// One entry per plan node, indexed in pre-order execution order.
    pub nodes: Vec<NodeObs>,
    /// OU charges in the order they landed.
    pub ou: Vec<OuCharge>,
    /// Open nodes: (node index, entry clock).
    stack: Vec<(usize, f64)>,
    /// Copy feature vectors into [`Self::ou`]. Features feed per-OU
    /// model predictions, so they are only worth the per-charge
    /// allocation when someone will predict from them (a live model is
    /// installed, or the statement is an EXPLAIN ANALYZE).
    pub keep_features: bool,
}

impl StmtObs {
    /// An observation buffer; `keep_features` controls whether per-OU
    /// feature vectors are retained (see the field docs).
    pub fn new(keep_features: bool) -> StmtObs {
        StmtObs {
            keep_features,
            ..StmtObs::default()
        }
    }

    /// Clear observations while retaining vector capacity, readying the
    /// buffer for the next statement.
    pub fn reset(&mut self, keep_features: bool) {
        self.nodes.clear();
        self.ou.clear();
        self.stack.clear();
        self.keep_features = keep_features;
    }

    /// Open a new node at clock `now`; returns its index.
    pub fn enter(&mut self, now: f64) -> usize {
        let idx = self.nodes.len();
        self.nodes.push(NodeObs {
            loops: 1,
            ..NodeObs::default()
        });
        self.stack.push((idx, now));
        idx
    }

    /// Close node `idx` at clock `now` with `rows` produced.
    pub fn exit(&mut self, idx: usize, now: f64, rows: u64) {
        if let Some((top, t0)) = self.stack.pop() {
            debug_assert_eq!(top, idx, "node enter/exit must nest");
            let n = &mut self.nodes[idx];
            n.ns += now - t0;
            n.rows = rows;
        }
    }

    /// Record an OU charge, attributed to the innermost open node.
    pub fn record_ou(&mut self, ou: EngineOu, ns: f64, features: &[u64]) {
        let features = if self.keep_features {
            features.to_vec()
        } else {
            Vec::new()
        };
        let node = self.stack.last().map(|&(node, _)| node);
        self.ou.push(OuCharge {
            ou,
            ns,
            features,
            node,
        });
    }

    /// OU charges attributed to node `idx` (children excluded).
    pub fn node_charges(&self, idx: usize) -> impl Iterator<Item = &OuCharge> {
        self.ou.iter().filter(move |c| c.node == Some(idx))
    }

    /// Total actual ns summed over all OU charges (the statement's
    /// OU-accounted cost — what `ts_stat_ou` sees).
    pub fn ou_total_ns(&self) -> f64 {
        self.ou.iter().map(|c| c.ns).sum()
    }

    /// Per-OU actual-ns totals, each summed in charge order, as
    /// `(name rank, ns)` pairs ([`EngineOu::name_rank`]) in rank order —
    /// OU-name order — into `out` (cleared first, so the hot path can
    /// reuse its capacity). A statement charges a handful of distinct OUs
    /// at most, so a linear merge beats a map on this per-statement path.
    pub fn ou_breakdown_into(&self, out: &mut Vec<(usize, f64)>) {
        out.clear();
        for c in &self.ou {
            let rank = c.ou.name_rank();
            match out.iter_mut().find(|(r, _)| *r == rank) {
                Some((_, acc)) => *acc += c.ns,
                None => out.push((rank, c.ns)),
            }
        }
        out.sort_unstable_by_key(|(r, _)| *r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_attributes_ous_to_innermost_open_node() {
        let mut o = StmtObs::default();
        let root = o.enter(0.0);
        let child = o.enter(10.0);
        o.record_ou(EngineOu::SeqScan, 50.0, &[100, 8]);
        o.exit(child, 70.0, 42);
        o.record_ou(EngineOu::HashJoinBuild, 30.0, &[42]);
        o.exit(root, 100.0, 7);
        o.record_ou(EngineOu::Output, 5.0, &[7]);

        assert_eq!(o.nodes.len(), 2);
        let root_ous: Vec<&str> = o.node_charges(root).map(|c| c.ou.name()).collect();
        let child_ous: Vec<&str> = o.node_charges(child).map(|c| c.ou.name()).collect();
        assert_eq!(root_ous, ["hash_join_build"]);
        assert_eq!(child_ous, ["seq_scan"]);
        // Inclusive: parent window covers the child's.
        assert!(o.nodes[root].ns >= o.nodes[child].ns);
        assert_eq!(o.nodes[root].rows, 7);
        assert_eq!(o.nodes[child].rows, 42);
        // The Output OU lands on no node (statement-level).
        assert_eq!(o.ou.len(), 3);
        assert_eq!(o.ou[2].node, None);
        assert!((o.ou_total_ns() - 85.0).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_state_and_keeps_capacity() {
        let mut o = StmtObs::new(true);
        let n = o.enter(0.0);
        o.record_ou(EngineOu::SeqScan, 10.0, &[5]);
        o.exit(n, 10.0, 1);
        let node_cap = o.nodes.capacity();
        o.reset(false);
        assert!(o.nodes.is_empty() && o.ou.is_empty());
        assert!(!o.keep_features);
        assert!(o.nodes.capacity() >= node_cap);
        // Reused buffer observes a fresh statement from index 0.
        assert_eq!(o.enter(0.0), 0);
        o.record_ou(EngineOu::IdxLookup, 3.0, &[9]);
        assert!(o.ou[0].features.is_empty()); // keep_features now off
    }

    #[test]
    fn breakdown_merges_by_name() {
        let mut o = StmtObs::default();
        o.record_ou(EngineOu::SeqScan, 20.0, &[2, 3]);
        o.record_ou(EngineOu::Filter, 10.0, &[1]);
        o.record_ou(EngineOu::Filter, 5.0, &[4]);
        let mut pairs = Vec::new();
        o.ou_breakdown_into(&mut pairs);
        let named: Vec<(&str, f64)> = (pairs.iter())
            .map(|&(r, ns)| (super::super::ou::OU_NAMES[r], ns))
            .collect();
        assert_eq!(named, [("filter", 15.0), ("seq_scan", 20.0)]);
    }
}
