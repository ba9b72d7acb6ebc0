//! End-to-end sample-lineage tracing.
//!
//! The registry's metrics say *how many* samples moved through each
//! pipeline stage; this module says *which* ones and *when*. A sampled
//! fraction of markers is assigned a [`TraceId`] at fire time, and the
//! id is propagated — out of band, never inside the record bytes, so
//! samples stay bit-identical — through every stage of the collection
//! pipeline:
//!
//! ```text
//! marker → ring_buffer → drain → sink → archive_memtable
//!        → segment_seal → dataset → model_generation
//! ```
//!
//! Each stage records an enter/exit timestamp pair (virtual clock) and
//! the queue depth it observed. Completed traces land in a bounded ring
//! with exact accounting: every started trace is, at all times, exactly
//! one of completed, dropped, or in flight —
//! `started = completed + dropped + in_flight`. Evictions from the
//! bounded *completed* ring are counted separately (they are completed
//! traces whose storage was reclaimed, not lost lineage).
//!
//! Propagation between the marker and the Processor is keyed by the
//! `(ou, tid)` pair both ends can read from the record header. The perf
//! ring is a global FIFO, so it is a per-`(ou, tid)` FIFO too: a
//! `VecDeque` per key gives exact matching — publish pushes back, drain
//! pops front, a ring overwrite evicts the front.

use std::collections::{BTreeMap, HashMap, VecDeque};

/// Default capacity of the completed-trace ring.
pub const DEFAULT_TRACE_CAPACITY: usize = 2048;

/// Default bound on concurrently in-flight traces. Overflow drops the
/// *oldest* in-flight trace (counted in `dropped`, never silent).
pub const DEFAULT_ACTIVE_TRACE_CAPACITY: usize = 8192;

/// Identity of one traced sample's journey.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

/// The pipeline stages a traced sample passes through, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// BEGIN marker fire → FEATURES publish (the BPF state machine).
    Marker,
    /// Resident in the per-CPU perf ring buffer.
    RingBuffer,
    /// Popped from the ring, waiting in the Processor's drain batch.
    Drain,
    /// Decode + de-aggregation + sink dispatch in the Processor.
    Sink,
    /// Appended to an archive memtable.
    ArchiveMemtable,
    /// Memtable flushed into a sealed segment block.
    SegmentSeal,
    /// Scanned out of the archive into a training dataset.
    Dataset,
    /// Consumed by a model retrain (lineage terminal).
    ModelGeneration,
}

/// All stages, pipeline order.
pub const ALL_STAGES: [Stage; 8] = [
    Stage::Marker,
    Stage::RingBuffer,
    Stage::Drain,
    Stage::Sink,
    Stage::ArchiveMemtable,
    Stage::SegmentSeal,
    Stage::Dataset,
    Stage::ModelGeneration,
];

impl Stage {
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Marker => "marker",
            Stage::RingBuffer => "ring_buffer",
            Stage::Drain => "drain",
            Stage::Sink => "sink",
            Stage::ArchiveMemtable => "archive_memtable",
            Stage::SegmentSeal => "segment_seal",
            Stage::Dataset => "dataset",
            Stage::ModelGeneration => "model_generation",
        }
    }

    fn idx(&self) -> usize {
        ALL_STAGES.iter().position(|s| s == self).unwrap()
    }
}

/// Terminal outcome of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOutcome {
    /// The sample survived to its sink's terminal stage.
    Delivered,
    /// The sample was lost (ring overwrite, reset, backlog, decode).
    Lost,
    /// The sample reached the archive but was retired by compaction
    /// retention before reaching a model.
    Compacted,
}

impl TraceOutcome {
    pub fn name(&self) -> &'static str {
        match self {
            TraceOutcome::Delivered => "delivered",
            TraceOutcome::Lost => "lost",
            TraceOutcome::Compacted => "compacted",
        }
    }
}

/// One stage visit: enter/exit in virtual ns plus the queue depth the
/// stage observed on entry.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRecord {
    pub stage: Stage,
    pub enter_ns: f64,
    pub exit_ns: f64,
    pub queue_depth: u64,
}

/// One sample's reconstructed journey.
#[derive(Debug, Clone)]
pub struct Trace {
    pub id: TraceId,
    pub ou: u16,
    pub subsystem: u8,
    pub tid: u64,
    pub started_ns: f64,
    pub stages: Vec<StageRecord>,
    pub outcome: Option<TraceOutcome>,
    pub fail_reason: Option<String>,
    pub model_generation: Option<u64>,
}

impl Trace {
    /// End-to-end virtual latency (last exit − marker fire).
    pub fn total_ns(&self) -> f64 {
        self.stages
            .last()
            .map(|s| s.exit_ns - self.started_ns)
            .unwrap_or(0.0)
    }

    /// The dominating stage: the one with the largest enter→exit span.
    pub fn critical_stage(&self) -> Option<(Stage, f64)> {
        self.stages
            .iter()
            .map(|s| (s.stage, s.exit_ns - s.enter_ns))
            .fold(None, |best, (st, d)| match best {
                Some((_, bd)) if bd >= d => best,
                _ => Some((st, d)),
            })
    }

    /// Are the stage timestamps monotone in virtual time? (Every stage's
    /// exit ≥ its enter, and every stage enters no earlier than the
    /// previous stage did.)
    pub fn timestamps_monotone(&self) -> bool {
        let mut prev = self.started_ns;
        for s in &self.stages {
            if s.enter_ns + 1e-9 < prev || s.exit_ns + 1e-9 < s.enter_ns {
                return false;
            }
            prev = s.enter_ns;
        }
        true
    }

    /// Close the last stage at `now`, clamped so exit never precedes
    /// enter — stamps arrive from different per-task virtual clocks
    /// (workload, Processor, lifecycle), which are individually monotone
    /// but mutually skewed.
    fn close_last(&mut self, now_ns: f64) -> f64 {
        match self.stages.last_mut() {
            Some(s) => {
                s.exit_ns = now_ns.max(s.enter_ns);
                s.exit_ns
            }
            None => now_ns,
        }
    }

    /// Append a stage, clamped against the previous stage's exit so the
    /// per-trace timeline stays monotone under clock skew.
    fn push_stage(&mut self, stage: Stage, enter_ns: f64, exit_ns: f64, queue_depth: u64) {
        let floor = self
            .stages
            .last()
            .map(|s| s.exit_ns)
            .unwrap_or(self.started_ns);
        let enter = enter_ns.max(floor);
        self.stages.push(StageRecord {
            stage,
            enter_ns: enter,
            exit_ns: exit_ns.max(enter),
            queue_depth,
        });
    }
}

/// Exact accounting over every trace ever started.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// TraceIds assigned at marker fire time.
    pub started: u64,
    /// Traces that reached a terminal outcome (delivered, lost, or
    /// compacted) with full stage lineage.
    pub completed: u64,
    /// Traces abandoned before completion (in-flight table overflow).
    pub dropped: u64,
    /// Traces currently between marker fire and a terminal outcome.
    pub in_flight: u64,
    /// Completed traces evicted from the bounded trace ring. These are
    /// counted in `completed`; eviction reclaims storage, not lineage.
    pub ring_evicted: u64,
}

impl TraceStats {
    /// The invariant the CI step asserts.
    pub fn closes(&self) -> bool {
        self.started == self.completed + self.dropped + self.in_flight
    }
}

/// Per-stage aggregate over completed traces (feeds `ts_stat_pipeline`).
#[derive(Debug, Clone, Copy, Default)]
pub struct StageAgg {
    pub count: u64,
    pub total_ns: f64,
    pub max_ns: f64,
    /// TraceId that produced `max_ns` — the headline exemplar.
    pub max_id: u64,
    pub queue_sum: f64,
    /// Completed traces whose critical path this stage dominated.
    pub critical: u64,
}

/// A completion event the registry turns into metrics (histograms and
/// outcome counters) after the tracer mutates its state.
#[derive(Debug, Clone)]
pub(crate) struct Completion {
    pub outcome: TraceOutcome,
    pub critical: Option<Stage>,
    pub stage_durs: Vec<(Stage, f64)>,
}

/// Flight-recorder arming state: where on-CRITICAL evidence bundles go.
/// Unarmed (`dir: None`) by default — arming is a figure-binary choice.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorderArm {
    /// Output directory for `flightrec_<fig>_<seq>.json` bundles.
    pub dir: Option<std::path::PathBuf>,
    /// Figure tag baked into bundle filenames.
    pub fig: String,
    /// Bundles written so far (sequence number of the next is seq+1).
    pub seq: u64,
}

/// The lineage tracer. Lives inside the registry (next to the drift
/// detector) so SQL introspection and JSON exports see it through the
/// normal telemetry handle.
#[derive(Debug, Clone)]
pub struct Tracer {
    /// Trace 1 in `every` *collected* markers; 0 disables tracing.
    every: u64,
    seen: u64,
    next_id: u64,
    /// In-flight traces by raw id.
    active: BTreeMap<u64, Trace>,
    active_capacity: usize,
    /// Ids published to the ring, awaiting Processor pickup, keyed by
    /// the `(ou, tid)` pair readable from the record header.
    in_ring: HashMap<(u16, u64), VecDeque<u64>>,
    /// Ids past the sink stage, parked until the archive/model
    /// lifecycle stamps the collective stages.
    parked: VecDeque<u64>,
    completed: VecDeque<Trace>,
    capacity: usize,
    stats: TraceStats,
    stage_aggs: [StageAgg; 8],
    pending: Vec<Completion>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            every: 0,
            seen: 0,
            next_id: 0,
            active: BTreeMap::new(),
            active_capacity: DEFAULT_ACTIVE_TRACE_CAPACITY,
            in_ring: HashMap::new(),
            parked: VecDeque::new(),
            completed: VecDeque::new(),
            capacity: DEFAULT_TRACE_CAPACITY,
            stats: TraceStats::default(),
            stage_aggs: [StageAgg::default(); 8],
            pending: Vec::new(),
        }
    }
}

impl Tracer {
    /// Trace 1 in `every` collected markers (0 = off).
    pub fn set_every(&mut self, every: u64) {
        self.every = every;
    }

    pub fn every(&self) -> u64 {
        self.every
    }

    /// Has this tracer ever started a trace? (Merge adoption check.)
    pub fn is_idle(&self) -> bool {
        self.stats.started == 0
    }

    pub fn stats(&self) -> TraceStats {
        let mut s = self.stats;
        s.in_flight = self.active.len() as u64;
        s
    }

    pub fn stage_aggs(&self) -> impl Iterator<Item = (Stage, &StageAgg)> {
        ALL_STAGES.iter().map(|s| (*s, &self.stage_aggs[s.idx()]))
    }

    /// Completed traces, oldest first.
    pub fn completed_iter(&self) -> impl Iterator<Item = &Trace> {
        self.completed.iter()
    }

    /// Sampling decision at marker fire time. Returns the id the caller
    /// must carry through the marker state machine.
    pub fn maybe_begin(
        &mut self,
        ou: u16,
        subsystem: u8,
        tid: u64,
        now_ns: f64,
    ) -> Option<TraceId> {
        if self.every == 0 {
            return None;
        }
        let n = self.seen;
        self.seen += 1;
        if !n.is_multiple_of(self.every) {
            return None;
        }
        self.next_id += 1;
        let id = self.next_id;
        self.stats.started += 1;
        if self.active.len() >= self.active_capacity {
            // Drop the oldest in-flight trace; its queue entries are
            // reaped lazily when the stale id surfaces.
            if let Some((&old, _)) = self.active.iter().next() {
                self.active.remove(&old);
                self.stats.dropped += 1;
            }
        }
        self.active.insert(
            id,
            Trace {
                id: TraceId(id),
                ou,
                subsystem,
                tid,
                started_ns: now_ns,
                stages: vec![StageRecord {
                    stage: Stage::Marker,
                    enter_ns: now_ns,
                    exit_ns: now_ns,
                    queue_depth: 0,
                }],
                outcome: None,
                fail_reason: None,
                model_generation: None,
            },
        );
        Some(TraceId(id))
    }

    /// The marker state machine published its record into the ring.
    pub fn on_publish(&mut self, id: TraceId, now_ns: f64, ring_depth: u64) {
        let Some(t) = self.active.get_mut(&id.0) else {
            return;
        };
        let now = t.close_last(now_ns);
        t.push_stage(Stage::RingBuffer, now, now, ring_depth);
        let key = (t.ou, t.tid);
        self.in_ring.entry(key).or_default().push_back(id.0);
    }

    /// The marker state machine died before publishing (reset, backlog,
    /// features error): the trace terminates at the marker stage.
    pub fn on_marker_abort(&mut self, id: TraceId, now_ns: f64, reason: &str) {
        let Some(mut t) = self.active.remove(&id.0) else {
            return;
        };
        t.close_last(now_ns);
        t.fail_reason = Some(reason.to_string());
        self.finish(t, TraceOutcome::Lost);
    }

    /// The ring overwrote its oldest record for `(ou, tid)`.
    pub fn on_ring_evict(&mut self, ou: u16, tid: u64, now_ns: f64) {
        let Some(id) = self.pop_in_ring(ou, tid) else {
            return;
        };
        let Some(mut t) = self.active.remove(&id) else {
            return;
        };
        t.close_last(now_ns);
        t.fail_reason = Some("ring_overwrite".to_string());
        self.finish(t, TraceOutcome::Lost);
    }

    /// The Processor consumed the next `(ou, tid)` record: close the
    /// ring stage, stamp drain + sink. `terminal` completes the trace as
    /// delivered (no lifecycle behind the sink); otherwise it parks
    /// awaiting the archive lifecycle. Returns whether a trace was
    /// matched (the caller charges tracing cost only then).
    #[allow(clippy::too_many_arguments)]
    pub fn on_consume(
        &mut self,
        ou: u16,
        tid: u64,
        drain_ns: f64,
        sink_enter_ns: f64,
        sink_exit_ns: f64,
        queue_depth: u64,
        terminal: bool,
    ) -> bool {
        let Some(id) = self.pop_in_ring(ou, tid) else {
            return false;
        };
        let Some(t) = self.active.get_mut(&id) else {
            return false;
        };
        t.close_last(drain_ns);
        t.push_stage(Stage::Drain, drain_ns, sink_enter_ns, queue_depth);
        t.push_stage(Stage::Sink, sink_enter_ns, sink_exit_ns, 0);
        if terminal {
            let t = self.active.remove(&id).unwrap();
            self.finish(t, TraceOutcome::Delivered);
        } else {
            self.parked.push_back(id);
        }
        true
    }

    /// A consumed record failed to decode: the trace dies at the sink.
    pub fn on_decode_error(&mut self, ou: u16, tid: u64, now_ns: f64) {
        let Some(id) = self.pop_in_ring(ou, tid) else {
            return;
        };
        let Some(mut t) = self.active.remove(&id) else {
            return;
        };
        t.close_last(now_ns);
        t.fail_reason = Some("decode_error".to_string());
        self.finish(t, TraceOutcome::Lost);
    }

    /// Collective lifecycle stamp: every parked trace passed through
    /// `stage` during `[enter, exit]` with the given queue depth.
    /// Lifecycle stages are batch operations (a memtable flush, a
    /// dataset scan), so one stamp covers every parked sample.
    pub fn lifecycle_stamp(&mut self, stage: Stage, enter_ns: f64, exit_ns: f64, depth: u64) {
        self.reap_parked();
        for id in &self.parked {
            if let Some(t) = self.active.get_mut(id) {
                if let Some(last) = t.stages.last_mut() {
                    if last.stage == stage {
                        // Re-stamped within the same batch (e.g. two
                        // flushes before a retrain): extend, don't dup.
                        last.exit_ns = exit_ns.max(last.exit_ns);
                        continue;
                    }
                    last.exit_ns = last.exit_ns.max(enter_ns);
                }
                t.push_stage(stage, enter_ns, exit_ns, depth);
            }
        }
    }

    /// A retrain consumed the archive: every parked trace terminates
    /// delivered, tagged with the resulting model generation. Returns
    /// how many traces completed.
    pub fn lifecycle_complete(&mut self, now_ns: f64, generation: u64) -> usize {
        self.reap_parked();
        let ids: Vec<u64> = self.parked.drain(..).collect();
        let mut n = 0;
        for id in ids {
            if let Some(mut t) = self.active.remove(&id) {
                t.push_stage(Stage::ModelGeneration, now_ns, now_ns, 0);
                t.model_generation = Some(generation);
                self.finish(t, TraceOutcome::Delivered);
                n += 1;
            }
        }
        n
    }

    /// Compaction retention retired `n` of the oldest archived samples:
    /// the oldest parked traces terminate as compacted.
    pub fn on_compacted(&mut self, n: u64, now_ns: f64) {
        for _ in 0..n {
            self.reap_parked();
            let Some(id) = self.parked.pop_front() else {
                return;
            };
            if let Some(mut t) = self.active.remove(&id) {
                if let Some(last) = t.stages.last_mut() {
                    last.exit_ns = last.exit_ns.max(now_ns);
                }
                self.finish(t, TraceOutcome::Compacted);
            }
        }
    }

    /// Pop the oldest live id for a key, skipping ids whose trace was
    /// dropped from the active table.
    fn pop_in_ring(&mut self, ou: u16, tid: u64) -> Option<u64> {
        let q = self.in_ring.get_mut(&(ou, tid))?;
        while let Some(id) = q.pop_front() {
            if self.active.contains_key(&id) {
                if q.is_empty() {
                    self.in_ring.remove(&(ou, tid));
                }
                return Some(id);
            }
        }
        self.in_ring.remove(&(ou, tid));
        None
    }

    /// Drop stale (already-dropped) ids from the head of the parked queue.
    fn reap_parked(&mut self) {
        while let Some(id) = self.parked.front() {
            if self.active.contains_key(id) {
                return;
            }
            self.parked.pop_front();
        }
    }

    /// Terminal bookkeeping: aggregates, the completed ring,
    /// and the pending metric event the registry flushes.
    fn finish(&mut self, mut t: Trace, outcome: TraceOutcome) {
        t.outcome = Some(outcome);
        self.stats.completed += 1;
        let critical = t.critical_stage().map(|(s, _)| s);
        let mut durs = Vec::with_capacity(t.stages.len());
        for s in &t.stages {
            let d = (s.exit_ns - s.enter_ns).max(0.0);
            durs.push((s.stage, d));
            let agg = &mut self.stage_aggs[s.stage.idx()];
            agg.count += 1;
            agg.total_ns += d;
            agg.queue_sum += s.queue_depth as f64;
            if d >= agg.max_ns {
                agg.max_ns = d;
                agg.max_id = t.id.0;
            }
        }
        if let Some(c) = critical {
            self.stage_aggs[c.idx()].critical += 1;
        }
        self.pending.push(Completion {
            outcome,
            critical,
            stage_durs: durs,
        });
        if self.completed.len() == self.capacity {
            self.completed.pop_front();
            self.stats.ring_evicted += 1;
        }
        self.completed.push_back(t);
    }

    /// Completion events since the last flush (registry-internal).
    pub(crate) fn take_pending(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced(t: &mut Tracer) -> TraceId {
        t.maybe_begin(3, 1, 40, 100.0).expect("sampled")
    }

    #[test]
    fn sampling_respects_every() {
        let mut t = Tracer::default();
        assert!(t.maybe_begin(1, 1, 1, 0.0).is_none(), "off by default");
        t.set_every(4);
        let mut hits = 0;
        for i in 0..16 {
            if t.maybe_begin(1, 1, 1, i as f64).is_some() {
                hits += 1;
            }
        }
        assert_eq!(hits, 4);
        assert_eq!(t.stats().started, 4);
    }

    #[test]
    fn full_delivered_lineage_and_accounting() {
        let mut t = Tracer::default();
        t.set_every(1);
        let id = traced(&mut t);
        t.on_publish(id, 200.0, 5);
        assert!(t.on_consume(3, 40, 300.0, 310.0, 350.0, 4, false));
        t.lifecycle_stamp(Stage::ArchiveMemtable, 400.0, 410.0, 2);
        t.lifecycle_stamp(Stage::SegmentSeal, 420.0, 430.0, 0);
        t.lifecycle_stamp(Stage::Dataset, 440.0, 450.0, 0);
        assert_eq!(t.lifecycle_complete(500.0, 7), 1);
        let st = t.stats();
        assert!(st.closes(), "{st:?}");
        assert_eq!(st.completed, 1);
        assert_eq!(st.in_flight, 0);
        let tr = t.completed_iter().next().unwrap();
        assert_eq!(tr.outcome, Some(TraceOutcome::Delivered));
        assert_eq!(tr.model_generation, Some(7));
        assert_eq!(tr.stages.len(), 8, "{:?}", tr.stages);
        assert!(tr.timestamps_monotone());
        assert_eq!(tr.stages[0].stage, Stage::Marker);
        assert_eq!(tr.stages.last().unwrap().stage, Stage::ModelGeneration);
    }

    #[test]
    fn ring_eviction_is_fifo_per_key_and_lost() {
        let mut t = Tracer::default();
        t.set_every(1);
        let a = t.maybe_begin(3, 1, 40, 0.0).unwrap();
        let b = t.maybe_begin(3, 1, 40, 1.0).unwrap();
        t.on_publish(a, 10.0, 1);
        t.on_publish(b, 11.0, 2);
        t.on_ring_evict(3, 40, 20.0);
        // The *older* publish was evicted.
        assert!(t.on_consume(3, 40, 30.0, 31.0, 32.0, 0, true));
        let outcomes: Vec<_> = t.completed_iter().map(|x| (x.id, x.outcome)).collect();
        assert_eq!(outcomes[0], (a, Some(TraceOutcome::Lost)));
        assert_eq!(outcomes[1], (b, Some(TraceOutcome::Delivered)));
        assert!(t.stats().closes());
    }

    #[test]
    fn marker_abort_terminates_lost() {
        let mut t = Tracer::default();
        t.set_every(1);
        let id = traced(&mut t);
        t.on_marker_abort(id, 150.0, "state_reset");
        let tr = t.completed_iter().next().unwrap();
        assert_eq!(tr.outcome, Some(TraceOutcome::Lost));
        assert_eq!(tr.fail_reason.as_deref(), Some("state_reset"));
        assert!(t.stats().closes());
    }

    #[test]
    fn active_overflow_drops_oldest_and_still_closes() {
        let mut t = Tracer::default();
        t.set_every(1);
        t.active_capacity = 4;
        let ids: Vec<TraceId> = (0..6)
            .map(|i| t.maybe_begin(1, 1, i, i as f64).unwrap())
            .collect();
        let st = t.stats();
        assert_eq!(st.started, 6);
        assert_eq!(st.dropped, 2);
        assert_eq!(st.in_flight, 4);
        assert!(st.closes());
        // Publishing a dropped trace is a no-op; a live one still works.
        t.on_publish(ids[0], 10.0, 0);
        t.on_publish(ids[5], 10.0, 0);
        assert!(!t.on_consume(1, 0, 20.0, 21.0, 22.0, 0, true));
        assert!(t.on_consume(1, 5, 20.0, 21.0, 22.0, 0, true));
        assert!(t.stats().closes());
    }

    #[test]
    fn completed_ring_bounds_and_counts_evictions() {
        let mut t = Tracer::default();
        t.set_every(1);
        t.capacity = 3;
        for i in 0..5u64 {
            let id = t.maybe_begin(1, 1, i, 0.0).unwrap();
            t.on_marker_abort(id, 1.0, "x");
        }
        assert_eq!(t.completed.len(), 3);
        let st = t.stats();
        assert_eq!(st.completed, 5);
        assert_eq!(st.ring_evicted, 2);
        assert!(st.closes());
    }

    #[test]
    fn critical_stage_picks_dominating() {
        let mut t = Tracer::default();
        t.set_every(1);
        let id = traced(&mut t);
        t.on_publish(id, 110.0, 9); // marker: 10 ns
        assert!(t.on_consume(3, 40, 5_110.0, 5_120.0, 5_150.0, 3, true)); // ring: 5000 ns
        let tr = t.completed_iter().next().unwrap();
        assert_eq!(tr.critical_stage().unwrap().0, Stage::RingBuffer);
        let ring_agg = t
            .stage_aggs()
            .find(|(s, _)| *s == Stage::RingBuffer)
            .unwrap()
            .1;
        assert_eq!(ring_agg.critical, 1);
        assert_eq!(ring_agg.max_id, tr.id.0);
    }
}
