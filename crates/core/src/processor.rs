//! The Processor: user-space extraction and archival of training data
//! (paper §3.2).
//!
//! The Processor drains finished samples from the Collector's perf ring
//! buffer, transforms them (type conversion, fused-pipeline
//! de-aggregation), and hands them to an output target. It runs as its
//! own (virtual) task so its throughput is bounded: when the DBMS
//! generates samples faster than the Processor's per-sample cost allows,
//! the ring fills and the Collector overwrites — data is dropped without
//! back pressure, exactly the design property of §3. A feedback hook
//! recommends lowering the sampling rate when that happens.

use tscout_archive::Sample;
use tscout_kernel::{Kernel, TaskId, TSCOUT};
use tscout_telemetry::decls::{PROCESSOR_DECODE_ERRORS, SAMPLES_LOST};
use tscout_telemetry::{CounterSite, CounterVec, GaugeSite, HistSite, Telemetry};

use crate::collector::{DrainedRecord, TScout};
use crate::data::{header_ids, RecordView};
use crate::decls;
use crate::ou::{OuId, OuRegistry, Subsystem, ALL_SUBSYSTEMS};

/// Drift observations are folded into the registry this many at a time
/// (and at the end of every `poll`/`drain_all`).
const DRIFT_BATCH: usize = 256;

/// One subsystem's loss-feedback verdict from
/// [`Processor::subsystem_feedback`]: the current sampling rate, the
/// rate the Processor recommends, and the losses that motivated it.
#[derive(Debug, Clone)]
pub struct SubsystemFeedback {
    pub subsystem: Subsystem,
    /// The subsystem's sampling rate right now.
    pub current: u8,
    /// Recommended rate: halved when the subsystem lost samples since
    /// the last check, unchanged otherwise.
    pub recommended: u8,
    /// New losses attributed to this subsystem since the last check.
    pub loss_delta: u64,
}

/// Where processed training data goes. Persistence is the caller's
/// step: the workload driver takes the in-memory points, tags them with
/// their query template, and appends them to the archive
/// (`ModelLifecycle::step`).
#[derive(Debug)]
pub enum Sink {
    /// Keep decoded points in memory (model training pipelines).
    Memory(Vec<Sample>),
    /// Count only (overhead experiments).
    Discard,
}

/// The user-space Processor component.
#[derive(Debug)]
pub struct Processor {
    /// The Processor's own kernel task (it consumes CPU too).
    pub task: TaskId,
    pub sink: Sink,
    /// Samples fully processed.
    pub processed: u64,
    /// Cloned from the kernel at construction.
    pub telemetry: Telemetry,
    /// Lineage tracing: park consumed traces for the archive/model
    /// lifecycle instead of completing them at the sink. The driver
    /// sets this when a `ModelLifecycle` stages points through the
    /// in-memory sink before archiving them.
    pub trace_parks: bool,
    /// Lost-sample total at the last `recommended_rate` check.
    last_lost: u64,
    /// Per-subsystem lost-sample totals at the last
    /// `subsystem_feedback` check, indexed by `Subsystem::index()`.
    last_lost_by_subsystem: [u64; ALL_SUBSYSTEMS.len()],
    metrics: ProcessorMetrics,
    /// Decoded points waiting to be folded into their OU's drift
    /// sketches: one registry lock per batch instead of one per point.
    drift_batch: Vec<DriftObservation>,
}

/// The Processor's metrics (declared in [`crate::decls`]): each series
/// registers on first use.
#[derive(Debug)]
struct ProcessorMetrics {
    records: CounterSite,
    points: CounterSite,
    deagg_fanout: HistSite,
    buffered_samples: GaugeSite,
    poll_ns: HistSite,
    drain_ns: HistSite,
    decode_errors: CounterSite,
    rate_reductions: CounterSite,
    /// Indexed by `Subsystem::index()`.
    subsystem_rate_reductions: CounterVec,
}

impl Default for ProcessorMetrics {
    fn default() -> Self {
        ProcessorMetrics {
            records: decls::PROCESSOR_RECORDS.site(&[]),
            points: decls::PROCESSOR_POINTS.site(&[]),
            deagg_fanout: decls::PROCESSOR_DEAGG_FANOUT.site(&[]),
            buffered_samples: decls::PROCESSOR_BUFFERED_SAMPLES.site(&[]),
            poll_ns: decls::PROCESSOR_POLL_NS.site(&[]),
            drain_ns: decls::PROCESSOR_DRAIN_NS.site(&[]),
            decode_errors: PROCESSOR_DECODE_ERRORS.site(&[]),
            rate_reductions: decls::PROCESSOR_RATE_REDUCTIONS.site(&[]),
            subsystem_rate_reductions: decls::PROCESSOR_RATE_REDUCTIONS.vec("subsystem"),
        }
    }
}

/// One point's contribution to its (registered) OU's drift channels.
#[derive(Debug, Clone, Copy)]
struct DriftObservation {
    ou: OuId,
    subsystem: Subsystem,
    /// Target: the OU's elapsed time.
    target_ns: f64,
    /// L2 norm of the feature vector.
    feature_norm: f64,
}

impl Processor {
    pub fn new(kernel: &mut Kernel, sink: Sink) -> Processor {
        Processor {
            task: kernel.create_task(),
            sink,
            processed: 0,
            telemetry: kernel.telemetry.clone(),
            trace_parks: false,
            last_lost: 0,
            last_lost_by_subsystem: [0; ALL_SUBSYSTEMS.len()],
            metrics: ProcessorMetrics::default(),
            drift_batch: Vec::new(),
        }
    }

    /// Process ring records until the Processor's virtual clock reaches
    /// `until_ns` or the ring is empty. Returns samples processed.
    ///
    /// The per-sample transform cost comes from the kernel cost model, so
    /// a single-threaded Processor saturates at
    /// `1 / processor_per_sample_ns` samples per second — the Fig. 6
    /// plateau.
    pub fn poll(&mut self, kernel: &mut Kernel, ts: &mut TScout, until_ns: f64) -> usize {
        let _frames = kernel.profile_frames(self.task, [TSCOUT.id(), decls::PROCESSOR_POLL.id()]);
        let start_ns = kernel.now(self.task);
        let mut n = 0;
        let mut polled = false;
        while kernel.now(self.task) < until_ns {
            polled = true;
            let drained = ts.drain_ring_with(1, |record| self.consume(kernel, record));
            if drained == 0 {
                kernel.advance_to(self.task, until_ns);
                break;
            }
            n += 1;
        }
        if polled {
            ts.publish_bpf_telemetry();
        }
        self.flush_drift(&ts.registry);
        let dur = kernel.now(self.task) - start_ns;
        self.metrics.poll_ns.get(&self.telemetry).record(dur);
        n
    }

    /// Drain and process everything regardless of virtual time (offline
    /// analysis / end-of-run flush). Still charges the Processor's task.
    pub fn drain_all(&mut self, kernel: &mut Kernel, ts: &mut TScout) -> usize {
        let _frames = kernel.profile_frames(self.task, [TSCOUT.id(), decls::PROCESSOR_DRAIN.id()]);
        let start_ns = kernel.now(self.task);
        let mut n = 0;
        loop {
            let drained = ts.drain_ring_with(64, |record| self.consume(kernel, record));
            if drained == 0 {
                break;
            }
            n += drained;
        }
        ts.publish_bpf_telemetry();
        self.flush_drift(&ts.registry);
        let dur = kernel.now(self.task) - start_ns;
        self.metrics.drain_ns.get(&self.telemetry).record(dur);
        n
    }

    /// Charge the per-sample transform cost and consume one drained
    /// record.
    fn consume(&mut self, kernel: &mut Kernel, record: DrainedRecord<'_>) {
        let drained_at = kernel.now(self.task);
        kernel.charge_overhead(self.task, kernel.cost.processor_per_sample_ns);
        // The lineage key, readable even when the full decode fails.
        let (tr_ou, tr_tid, _) = header_ids(record.bytes);
        let tr_ou = tr_ou.map_or(u16::MAX, |ou| ou.0);
        // Decoded in place: the only owned form is the training point.
        let view = RecordView::parse(record.bytes);
        let n_points = view.map_or(0, RecordView::point_count);
        let Some(view) = view.filter(|_| n_points > 0) else {
            self.metrics.decode_errors.get(&self.telemetry).inc();
            self.telemetry
                .trace_decode_error(tr_ou, tr_tid, kernel.now(self.task));
            return;
        };
        // Only a record of a known subsystem has points.
        let subsystem = ALL_SUBSYSTEMS[view.subsystem as usize];
        let sink_enter = kernel.now(self.task);
        // De-aggregation fan-out: fused-pipeline records expand into one
        // point per constituent OU (§5.2).
        let t = &self.telemetry;
        self.metrics.records.get(t).inc();
        self.metrics.points.get(t).add(n_points as u64);
        self.metrics.deagg_fanout.get(t).record(n_points as f64);
        {
            // Data-quality observability: every point is folded into its
            // OU's drift sketches (target = elapsed time, feature = L2
            // norm of the feature vector). The cost lands here; the
            // observations themselves are batched below.
            let _frame = kernel.profile_frame(self.task, &decls::PROCESSOR_SKETCH);
            kernel.charge_overhead(
                self.task,
                kernel.cost.sketch_per_sample_ns * n_points as f64,
            );
        }
        view.for_each_point(record.registry, |p| {
            let target_ns = p.elapsed_ns as f64;
            let feature_norm = p.features.iter().map(|f| f * f).sum::<f64>().sqrt();
            if record.registry.get(OuId(p.ou)).is_some() {
                self.drift_batch.push(DriftObservation {
                    ou: OuId(p.ou),
                    subsystem,
                    target_ns,
                    feature_norm,
                });
            } else {
                // An OU nobody registered: keyed by its synthesized name.
                self.telemetry.observe_ou_sample(
                    &p.ou_name,
                    subsystem.name(),
                    target_ns,
                    feature_norm,
                );
            }
            match &mut self.sink {
                Sink::Memory(v) => v.push(p),
                Sink::Discard => {}
            }
        });
        if self.drift_batch.len() >= DRIFT_BATCH {
            self.flush_drift(record.registry);
        }
        self.processed += 1;
        // Stamp the drain + sink stages on this record's trace (if it
        // carries one). A parked trace continues into the driver's
        // memtable/segment/dataset lifecycle; otherwise it terminates
        // delivered here. Tracing cost — the id assignment plus one
        // enter/exit record per marker/ring/drain/sink stage — lands on
        // the Processor's clock so sample bytes never shift.
        let terminal = !self.trace_parks;
        let traced = self.telemetry.trace_consume(
            tr_ou,
            tr_tid,
            drained_at,
            sink_enter,
            kernel.now(self.task),
            record.ring_len as u64,
            terminal,
        );
        if traced {
            let _frame = kernel.profile_frame(self.task, &decls::PROCESSOR_TRACE);
            kernel.charge_overhead(
                self.task,
                kernel.cost.trace_begin_ns + 4.0 * kernel.cost.trace_stage_record_ns,
            );
        }
        self.metrics
            .buffered_samples
            .get(&self.telemetry)
            .set(self.buffered_samples() as f64);
    }

    /// Fold the batched drift observations into their OUs' sketches.
    fn flush_drift(&mut self, registry: &OuRegistry) {
        if self.drift_batch.is_empty() {
            return;
        }
        let batch = &mut self.drift_batch;
        self.telemetry.with_registry(|r| {
            for o in batch.drain(..) {
                if let Some(def) = registry.get(o.ou) {
                    r.observe_ou_sample(&def.name, o.subsystem.name(), o.target_ns, o.feature_norm);
                }
            }
        });
    }

    /// Decoded samples currently held in Processor memory: the in-memory
    /// sink's backlog, which the driver drains into the archive at each
    /// lifecycle turn (DESIGN.md §2.4).
    pub fn buffered_samples(&self) -> usize {
        match &self.sink {
            Sink::Memory(v) => v.len(),
            Sink::Discard => 0,
        }
    }

    /// Feedback mechanism (§3.2), driven by the exact lost-sample
    /// accounting: when *any* samples were lost since the last check —
    /// ring overwrites, emission backlog, marker resets — recommend
    /// halving the sampling rate; otherwise the current rate is
    /// sustainable. The Processor remembers the last-seen loss total
    /// itself, so callers just poll.
    pub fn recommended_rate(&mut self, ts: &TScout, current: u8) -> u8 {
        let lost = ts.loss_totals().lost;
        let new_losses = lost.saturating_sub(self.last_lost);
        self.last_lost = lost;
        if new_losses > 0 {
            self.metrics.rate_reductions.get(&self.telemetry).inc();
            (current / 2).max(1)
        } else {
            current
        }
    }

    /// Per-subsystem refinement of [`Processor::recommended_rate`]: the
    /// loss counters are already attributed per subsystem
    /// (`tscout_samples_lost_total{subsystem,reason}`), so the feedback
    /// can lower exactly the subsystem that is losing data instead of
    /// punishing all six. One entry per subsystem; `recommended <
    /// current` only where new losses landed since the last check. The
    /// action engine's `loss_backoff` policy actuates these verdicts.
    pub fn subsystem_feedback(&mut self, ts: &TScout) -> Vec<SubsystemFeedback> {
        let mut out = Vec::with_capacity(ALL_SUBSYSTEMS.len());
        for s in ALL_SUBSYSTEMS {
            let total = self
                .telemetry
                .with_registry(|r| r.counter_sum_where(SAMPLES_LOST.name, "subsystem", s.name()));
            let idx = s.index();
            let loss_delta = total.saturating_sub(self.last_lost_by_subsystem[idx]);
            self.last_lost_by_subsystem[idx] = total;
            let current = ts.sampler.rate(s);
            let recommended = if loss_delta > 0 && current > 1 {
                self.metrics
                    .subsystem_rate_reductions
                    .at(&self.telemetry, idx, || s.name())
                    .inc();
                (current / 2).max(1)
            } else {
                current
            };
            out.push(SubsystemFeedback {
                subsystem: s,
                current,
                recommended,
                loss_delta,
            });
        }
        out
    }

    /// Take the in-memory points (empties the sink).
    pub fn take_points(&mut self) -> Vec<Sample> {
        match &mut self.sink {
            Sink::Memory(v) => std::mem::take(v),
            Sink::Discard => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{CollectionMode, ProbeSet, TsConfig};
    use crate::data::{encode_record, RawRecord};
    use crate::ou::Subsystem;
    use tscout_kernel::HardwareProfile;

    fn harness() -> (Kernel, TScout, TaskId, crate::ou::OuId) {
        let mut k = Kernel::with_seed(HardwareProfile::server_2x20(), 3);
        k.noise_frac = 0.0;
        let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
        cfg.enable_subsystem(Subsystem::ExecutionEngine, ProbeSet::cpu_only());
        let mut ts = TScout::deploy(&mut k, cfg).unwrap();
        let ou = ts.register_ou("scan", Subsystem::ExecutionEngine, 1);
        ts.set_sampling_rate(Subsystem::ExecutionEngine, 100);
        let t = k.create_task();
        ts.register_thread(&mut k, t);
        (k, ts, t, ou)
    }

    fn emit(k: &mut Kernel, ts: &mut TScout, t: TaskId, ou: crate::ou::OuId, n: usize) {
        for i in 0..n {
            ts.ou_begin(k, t, ou);
            k.charge_cpu(t, 5_000.0, 64);
            ts.ou_end(k, t, ou);
            ts.ou_features(k, t, ou, &[i as u64], &[]);
        }
    }

    #[test]
    fn poll_respects_virtual_time_budget() {
        let (mut k, mut ts, t, ou) = harness();
        emit(&mut k, &mut ts, t, ou, 50);
        let mut p = Processor::new(&mut k, Sink::Memory(Vec::new()));
        // Give the Processor time for exactly ~10 samples.
        let budget = 10.0 * k.cost.processor_per_sample_ns;
        let n = p.poll(&mut k, &mut ts, budget);
        assert!((9..=11).contains(&n), "processed {n}");
        assert_eq!(ts.ring_len(), 50 - n);
    }

    #[test]
    fn drain_all_empties_ring() {
        let (mut k, mut ts, t, ou) = harness();
        emit(&mut k, &mut ts, t, ou, 20);
        let mut p = Processor::new(&mut k, Sink::Memory(Vec::new()));
        assert_eq!(p.drain_all(&mut k, &mut ts), 20);
        assert_eq!(ts.ring_len(), 0);
        let pts = p.take_points();
        assert_eq!(pts.len(), 20);
        assert_eq!(pts[3].features, vec![3.0]);
        assert_eq!(p.take_points().len(), 0, "take empties the sink");
    }

    #[test]
    fn malformed_records_are_counted_not_fatal() {
        let (mut k, ts, _, _) = harness();
        let mut p = Processor::new(&mut k, Sink::Discard);
        // A fused group whose OU id does not fit a u16 is malformed too,
        // not decoded as OU 65 539 mod 2^16 = 3.
        let payload = vec![65_539, 1, 100];
        let fused = encode_record(&RawRecord {
            flags: 1,
            payload,
            ..RawRecord::default()
        });
        for (i, bytes) in [&[1, 2, 3][..], &fused].into_iter().enumerate() {
            p.consume(
                &mut k,
                DrainedRecord {
                    bytes,
                    registry: &ts.registry,
                    ring_len: 0,
                },
            );
            let errors = k.telemetry.counter_value(PROCESSOR_DECODE_ERRORS.name, &[]);
            assert_eq!((errors, p.processed), (i as u64 + 1, 0));
        }
    }

    #[test]
    fn feedback_recommends_lower_rate_on_drops() {
        let (mut k, mut ts, t, ou) = harness();
        let mut p = Processor::new(&mut k, Sink::Discard);
        assert_eq!(p.recommended_rate(&ts, 40), 40);
        // Overflow the ring (capacity 4096) to force drops.
        emit(&mut k, &mut ts, t, ou, 5000);
        assert!(ts.ring_dropped() > 0);
        assert_eq!(p.recommended_rate(&ts, 40), 20);
        // Telemetry has attributed the losses by now; with no new losses
        // since the last check, the rate holds steady.
        assert_eq!(p.recommended_rate(&ts, 20), 20);
    }

    #[test]
    fn subsystem_feedback_targets_only_the_losing_subsystem() {
        let (mut k, mut ts, t, ou) = harness();
        let mut p = Processor::new(&mut k, Sink::Discard);
        // Quiet start: every subsystem holds its current rate.
        for f in p.subsystem_feedback(&ts) {
            assert_eq!(f.recommended, f.current);
            assert_eq!(f.loss_delta, 0);
        }
        // Overflow the ring: losses land on execution_engine only.
        emit(&mut k, &mut ts, t, ou, 5000);
        assert!(ts.ring_dropped() > 0);
        let fb = p.subsystem_feedback(&ts);
        for f in &fb {
            if f.subsystem == Subsystem::ExecutionEngine {
                assert!(f.loss_delta > 0);
                assert_eq!(f.current, 100);
                assert_eq!(f.recommended, 50);
            } else {
                assert_eq!(f.recommended, f.current, "{:?}", f.subsystem);
                assert_eq!(f.loss_delta, 0);
            }
        }
        assert_eq!(
            p.telemetry.counter_value(
                "processor_rate_reductions_total",
                &[("subsystem", "execution_engine")],
            ),
            1
        );
        // No new losses since: everything holds.
        ts.drain_ring(usize::MAX);
        let fb = p.subsystem_feedback(&ts);
        assert!(fb.iter().all(|f| f.recommended == f.current));
    }
}
