//! The action log: every decision the autonomous action engine makes,
//! with its prediction and (once the observation window closes) the
//! observed outcome.
//!
//! The log is the system of record the `ts_actions` virtual table and
//! the flight recorder read from; the engine itself only keeps the
//! lightweight follow-up state it needs to close each record. Records
//! live in a bounded ring so a long run cannot grow telemetry without
//! bound — evictions are counted, never silent.

use std::collections::VecDeque;

/// Default bound on retained action records.
pub const ACTION_LOG_CAPACITY: usize = 512;

/// Lifecycle of one logged action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionState {
    /// Planned (and actuated unless `dry_run`); follow-up still pending.
    Pending,
    /// Follow-up ran: `observed` / `err_pct` / `regressed` are final.
    Observed,
}

impl ActionState {
    pub fn name(self) -> &'static str {
        match self {
            ActionState::Pending => "pending",
            ActionState::Observed => "observed",
        }
    }
}

/// One planned action with its prediction and eventual outcome.
#[derive(Debug, Clone)]
pub struct ActionRecord {
    /// Monotonic id, assigned by the log at append time.
    pub id: u64,
    /// Action kind (e.g. `adjust_sampling_rate`, `trigger_retrain`).
    pub kind: String,
    /// Policy that planned it (e.g. `overhead_budget`).
    pub policy: String,
    /// What the action acts on (a subsystem name, `archive`, ...).
    pub target: String,
    /// Human-readable parameterization (e.g. `rate 40 -> 20`).
    pub detail: String,
    pub state: ActionState,
    /// Planned-only: the engine never called the actuator.
    pub dry_run: bool,
    pub planned_at_ns: f64,
    /// When the follow-up becomes due.
    pub observe_at_ns: f64,
    /// The metric the prediction names (rendered with labels).
    pub metric: String,
    /// Metric value when the action was planned.
    pub value_before: f64,
    /// Predicted metric value at follow-up time.
    pub predicted: f64,
    /// Observed metric value at follow-up (None while pending).
    pub observed: Option<f64>,
    pub observed_at_ns: Option<f64>,
    /// `|observed - predicted| / max(|predicted|, 1) * 100`.
    pub err_pct: Option<f64>,
    /// Outcome moved the target metric the wrong way beyond tolerance.
    pub regressed: bool,
    /// Live model generation when the action was planned.
    pub model_generation: u64,
}

/// Bounded ring of [`ActionRecord`]s with monotonic id assignment.
#[derive(Debug, Clone, Default)]
pub struct ActionLog {
    records: VecDeque<ActionRecord>,
    next_id: u64,
    dropped: u64,
}

impl ActionLog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a record, assigning and returning its id. The oldest
    /// record is evicted (and counted) once the ring is full.
    pub fn append(&mut self, mut record: ActionRecord) -> u64 {
        self.next_id += 1;
        record.id = self.next_id;
        if self.records.len() >= ACTION_LOG_CAPACITY {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(record);
        self.next_id
    }

    pub fn get(&self, id: u64) -> Option<&ActionRecord> {
        self.records.iter().find(|r| r.id == id)
    }

    /// Close a pending record with its observed outcome. Returns the
    /// updated record (cloned) so callers can archive / flight-record it
    /// without holding the registry lock.
    pub fn observe(
        &mut self,
        id: u64,
        observed: f64,
        observed_at_ns: f64,
        err_pct: f64,
        regressed: bool,
    ) -> Option<ActionRecord> {
        let r = self.records.iter_mut().find(|r| r.id == id)?;
        r.state = ActionState::Observed;
        r.observed = Some(observed);
        r.observed_at_ns = Some(observed_at_ns);
        r.err_pct = Some(err_pct);
        r.regressed = regressed;
        Some(r.clone())
    }

    pub fn iter(&self) -> impl Iterator<Item = &ActionRecord> {
        self.records.iter()
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records evicted by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Actions ever appended (monotonic, unaffected by eviction).
    pub fn appended(&self) -> u64 {
        self.next_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(kind: &str) -> ActionRecord {
        ActionRecord {
            id: 0,
            kind: kind.to_string(),
            policy: "p".to_string(),
            target: "t".to_string(),
            detail: "d".to_string(),
            state: ActionState::Pending,
            dry_run: false,
            planned_at_ns: 10.0,
            observe_at_ns: 50.0,
            metric: "m".to_string(),
            value_before: 1.0,
            predicted: 0.5,
            observed: None,
            observed_at_ns: None,
            err_pct: None,
            regressed: false,
            model_generation: 0,
        }
    }

    #[test]
    fn append_assigns_monotonic_ids() {
        let mut log = ActionLog::new();
        assert_eq!(log.append(record("a")), 1);
        assert_eq!(log.append(record("b")), 2);
        assert_eq!(log.len(), 2);
        assert_eq!(log.get(1).unwrap().kind, "a");
        assert_eq!(log.appended(), 2);
    }

    #[test]
    fn observe_closes_the_record() {
        let mut log = ActionLog::new();
        let id = log.append(record("a"));
        let closed = log.observe(id, 0.4, 60.0, 20.0, false).unwrap();
        assert_eq!(closed.state, ActionState::Observed);
        assert_eq!(closed.observed, Some(0.4));
        assert_eq!(log.get(id).unwrap().err_pct, Some(20.0));
        assert!(log.observe(999, 0.0, 0.0, 0.0, false).is_none());
    }

    #[test]
    fn ring_bounds_and_counts_evictions() {
        let mut log = ActionLog::new();
        for _ in 0..(ACTION_LOG_CAPACITY + 5) {
            log.append(record("a"));
        }
        assert_eq!(log.len(), ACTION_LOG_CAPACITY);
        assert_eq!(log.dropped(), 5);
        // Evicted ids no longer resolve.
        assert!(log.get(1).is_none());
        assert_eq!(log.appended() as usize, ACTION_LOG_CAPACITY + 5);
    }
}
