//! The TScout runtime: markers, Collector orchestration, collection modes.
//!
//! [`TScout::deploy`] performs the paper's Setup Phase: it takes the
//! marker metadata (which subsystems to instrument, with which probes),
//! code-generates the Collector BPF programs, loads them through the
//! verifier, and attaches them to the kernel tracepoints the markers
//! compile into.
//!
//! At runtime the DBMS calls [`TScout::ou_begin`] / [`TScout::ou_end`] /
//! [`TScout::ou_features`] at its marker sites. Sampling is decided at
//! `BEGIN` (one bit test — the user-space flag of §5.3, exposed to the
//! DBMS as [`TScout::should_collect`] so it can skip feature
//! aggregation); when a marker triple is sampled, the configured
//! collection mode gathers metrics:
//!
//! * [`CollectionMode::KernelContinuous`] — TScout's design: the marker
//!   fires its tracepoint (one mode switch) and the Collector programs
//!   run in the BPF VM, reading per-CPU perf counters and kernel structs
//!   directly.
//! * [`CollectionMode::UserToggle`] — the user-space baseline that
//!   toggles per-task perf counters around each OU: enable + disable +
//!   read syscalls per sample (§6.2's slowest method).
//! * [`CollectionMode::UserContinuous`] — counters stay enabled (so
//!   every context switch pays PMU save/restore) and each sample costs a
//!   single group-read syscall at each boundary.
//!
//! User-space modes ship finished records through a *serialized* emission
//! path (a shared buffer guarded by one lock), which is what caps their
//! aggregate data-generation rate in Fig. 6; the kernel mode publishes
//! through the per-CPU perf ring buffer instead.

use std::collections::BTreeMap;

use tscout_bpf::maps::MapDef;
use tscout_bpf::vm::HelperWorld;
use tscout_bpf::{LoadError, Loader, MapId};
use tscout_kernel::pmu::ALL_COUNTERS;
use tscout_kernel::task::{Ioac, TcpSock};
use tscout_kernel::tracepoint::TracepointId;
use tscout_kernel::{Kernel, PmuReading, SyscallKind, TaskId, TSCOUT};
use tscout_telemetry::decls::{OU_SAMPLES_LOST, SAMPLES_LOST};
use tscout_telemetry::{
    Counter, CounterSite, CounterVec, Decl, Gauge, SiteVec, Telemetry, TraceId,
};

use crate::codegen::{self, encode_ctx_into, ProbeLayout, CTX_BYTES};
use crate::data::{decode_points, encode_record, RawRecord, TrainingPoint, MAX_PAYLOAD_WORDS};
use crate::decls::{self, BPF_VM, COLLECTOR_BEGIN, COLLECTOR_END, COLLECTOR_FEATURES, EMIT_USER};
use crate::ou::{OuId, OuRegistry, Subsystem, ALL_SUBSYSTEMS};
use crate::sampling::Sampler;

/// Probe selection per subsystem (re-export of the codegen layout).
pub type ProbeSet = ProbeLayout;

impl ProbeLayout {
    pub fn all() -> Self {
        ProbeLayout {
            cpu: true,
            disk: true,
            net: true,
        }
    }

    pub fn cpu_only() -> Self {
        ProbeLayout {
            cpu: true,
            disk: false,
            net: false,
        }
    }
}

/// How metrics are gathered for sampled OUs (paper §6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectionMode {
    /// Kernel-level probes via BPF with continuously-enabled per-CPU
    /// counters — the TScout approach.
    KernelContinuous,
    /// User-level probes toggling per-task perf counters per OU.
    UserToggle,
    /// User-level probes with continuously-enabled per-task counters.
    UserContinuous,
}

/// Seed of the marker-sampling decision stream.
const SAMPLER_SEED: u64 = 0x7511;

/// Deploy-time configuration (the Setup Phase inputs).
#[derive(Debug, Clone)]
pub struct TsConfig {
    pub mode: CollectionMode,
    pub subsystems: BTreeMap<Subsystem, ProbeSet>,
    /// Perf ring buffer capacity (records). Bounded: the Collector
    /// overwrites when the Processor falls behind.
    pub ring_capacity: usize,
    /// Lineage tracing: assign a `TraceId` to 1 in `trace_every`
    /// *collected* markers and follow it through every pipeline stage
    /// (0 = off). The id travels out of band — record bytes are
    /// bit-identical with tracing on or off.
    pub trace_every: u64,
}

impl TsConfig {
    pub fn new(mode: CollectionMode) -> Self {
        TsConfig {
            mode,
            subsystems: BTreeMap::new(),
            ring_capacity: 4096,
            trace_every: 0,
        }
    }

    /// Enable collection for a subsystem with the given probe set.
    pub fn enable_subsystem(&mut self, s: Subsystem, probes: ProbeSet) -> &mut Self {
        self.subsystems.insert(s, probes);
        self
    }

    /// Enable all six subsystems with every kernel probe (the maximum-
    /// impact configuration of §6.2).
    pub fn enable_all_subsystems(&mut self) -> &mut Self {
        for s in crate::ou::ALL_SUBSYSTEMS {
            self.subsystems.insert(s, ProbeSet::all());
        }
        self
    }
}

/// Deploy-time errors.
#[derive(Debug)]
pub enum TsError {
    Load(LoadError),
}

impl std::fmt::Display for TsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TsError::Load(e) => write!(f, "failed to load collector program: {e}"),
        }
    }
}

impl std::error::Error for TsError {}

/// Runtime counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct TsStats {
    /// Marker events observed (sampled or not).
    pub marker_events: u64,
    /// BEGIN events that passed the sampling check.
    pub sampled_events: u64,
    /// Records published toward the Processor.
    pub samples_emitted: u64,
    /// Marker-order violations that reset collection state (§5.1).
    pub state_machine_errors: u64,
    /// User-mode samples dropped because the emission path was backlogged.
    pub user_emit_drops: u64,
    /// Total BPF instructions interpreted.
    pub bpf_insns: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Began,
    Ended,
}

#[derive(Debug, Clone)]
struct UserSnapshot {
    start_ns: u64,
    pmu: [PmuReading; 7],
    ioac: Ioac,
    tcp: TcpSock,
}

#[derive(Debug, Clone)]
struct InFlight {
    ou: OuId,
    subsystem: Subsystem,
    collected: bool,
    phase: Phase,
    /// User-mode BEGIN snapshot (boxed: kernel-mode markers, the hot
    /// path, move this struct around without it).
    snap: Option<Box<UserSnapshot>>,
    /// User-mode END result: (start, elapsed, metrics).
    done: Option<(u64, u64, Vec<u64>)>,
    /// Lineage trace id when this collection was sampled for tracing.
    trace: Option<TraceId>,
}

#[derive(Debug, Default)]
struct TaskState {
    inflight: Vec<InFlight>,
}

#[derive(Debug, Clone, Copy)]
struct BpfRt {
    depth_map: MapId,
    begin_map: MapId,
    done_map: MapId,
    tp_begin: TracepointId,
    tp_end: TracepointId,
    tp_feat: TracepointId,
}

#[derive(Debug, Clone, Copy)]
struct SubsysRt {
    probes: ProbeSet,
    bpf: Option<BpfRt>,
}

#[derive(Debug, Clone, Copy)]
enum Marker {
    Begin,
    End,
    Features,
}

impl Marker {
    /// Value of the `marker` label on `tscout_marker_events_total`.
    fn name(self) -> &'static str {
        match self {
            Marker::Begin => "begin",
            Marker::End => "end",
            Marker::Features => "features",
        }
    }
}

/// A FEATURES payload staged on the stack: the first
/// [`MAX_PAYLOAD_WORDS`] words the marker supplied (the wire format
/// carries no more).
struct Payload {
    words: [u64; MAX_PAYLOAD_WORDS],
    len: usize,
}

impl Payload {
    fn new() -> Self {
        Payload {
            words: [0; MAX_PAYLOAD_WORDS],
            len: 0,
        }
    }

    fn extend(&mut self, words: &[u64]) {
        let n = words.len().min(MAX_PAYLOAD_WORDS - self.len);
        self.words[self.len..self.len + n].copy_from_slice(&words[..n]);
        self.len += n;
    }

    fn as_slice(&self) -> &[u64] {
        &self.words[..self.len]
    }
}

/// One ring record handed to a [`TScout::drain_ring_with`] visitor, in
/// place.
#[derive(Debug, Clone, Copy)]
pub struct DrainedRecord<'a> {
    pub bytes: &'a [u8],
    /// The OU schemas to decode it with.
    pub registry: &'a OuRegistry,
    /// Records still queued behind this one.
    pub ring_len: usize,
}

/// Why a begun sample never reached the Processor: the `reason` label of
/// `tscout_samples_lost_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LossReason {
    RingOverwrite,
    BeginError,
    FeaturesError,
    NoEndSnapshot,
    EmitBacklog,
    StateReset,
}

impl LossReason {
    const COUNT: usize = 6;

    fn name(self) -> &'static str {
        match self {
            LossReason::RingOverwrite => "ring_overwrite",
            LossReason::BeginError => "begin_error",
            LossReason::FeaturesError => "features_error",
            LossReason::NoEndSnapshot => "no_end_snapshot",
            LossReason::EmitBacklog => "emit_backlog",
            LossReason::StateReset => "state_reset",
        }
    }
}

/// The Collector's metrics (declared in [`crate::decls`]): each series
/// registers on first use.
#[derive(Debug)]
struct CollectorMetrics {
    /// Indexed by `Marker as usize`.
    marker_events: CounterVec,
    /// Indexed by `Subsystem::index()`.
    begun: CounterVec,
    delivered: CounterVec,
    /// Indexed by `[Subsystem::index()][LossReason as usize]`.
    lost: [[Option<Counter>; LossReason::COUNT]; ALL_SUBSYSTEMS.len()],
    /// Indexed by OU id (registered OUs only).
    ou_begun: CounterVec,
    ou_delivered: CounterVec,
    ou_lost: CounterVec,
    /// Indexed by `Subsystem::index()`.
    sampling_rate: SiteVec<Gauge>,
    sampling_rate_changes: CounterVec,
    state_machine_resets: CounterSite,
    /// Handles for [`TScout::bpf_gauges`], in its order; resolved at
    /// deploy, where every one of them is first published.
    bpf: Vec<Gauge>,
    ring_hwm: Gauge,
}

impl CollectorMetrics {
    fn new(t: &Telemetry, bpf_gauges: impl Iterator<Item = &'static Decl<Gauge>>) -> Self {
        CollectorMetrics {
            marker_events: decls::MARKER_EVENTS.vec("marker"),
            begun: decls::SAMPLES_BEGUN.vec("subsystem"),
            delivered: decls::SAMPLES_DELIVERED.vec("subsystem"),
            lost: Default::default(),
            ou_begun: decls::OU_SAMPLES_BEGUN.vec("ou"),
            ou_delivered: decls::OU_SAMPLES_DELIVERED.vec("ou"),
            ou_lost: OU_SAMPLES_LOST.vec("ou"),
            sampling_rate: decls::SAMPLING_RATE.vec("subsystem"),
            sampling_rate_changes: decls::SAMPLING_RATE_CHANGES.vec("subsystem"),
            state_machine_resets: decls::STATE_MACHINE_RESETS.site(&[]),
            bpf: bpf_gauges.map(|decl| decl.with(t, &[])).collect(),
            ring_hwm: decls::RING_OCCUPANCY_HWM.with(t, &[]),
        }
    }
}

/// Exact sample accounting totals, read back from telemetry counters.
///
/// After a full ring drain (and with no triples in flight),
/// `begun == delivered + lost` holds exactly, per subsystem and in
/// aggregate — the paper's §5.3 requirement that TScout *knows* how many
/// samples it loses, rather than estimating.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LossTotals {
    /// Samples that passed the sampling check at `BEGIN`.
    pub begun: u64,
    /// Records handed to the Processor by `drain_ring`.
    pub delivered: u64,
    /// Samples lost anywhere between `BEGIN` and delivery (ring
    /// overwrites, emission backlog, marker state resets, BPF errors).
    pub lost: u64,
}

/// The deployed TScout framework instance.
#[derive(Debug)]
pub struct TScout {
    pub config: TsConfig,
    pub registry: OuRegistry,
    pub sampler: Sampler,
    pub stats: TsStats,
    /// Cloned from the kernel at deploy time — metrics land in the same
    /// registry as the kernel's and the DBMS's.
    pub telemetry: Telemetry,
    loader: Loader,
    ring: MapId,
    /// Indexed by `Subsystem::index()`; `None` = not configured.
    subsys: [Option<SubsysRt>; ALL_SUBSYSTEMS.len()],
    /// Indexed by task id.
    tasks: Vec<TaskState>,
    metrics: CollectorMetrics,
    /// Most recent marker-side virtual timestamp. Ring evictions are
    /// discovered lazily (at the next push or drain) with no Kernel in
    /// scope, so their traces are closed at this time instead.
    last_now: f64,
}

/// Bridges BPF helper calls to the simulated kernel, charging the
/// per-helper costs to the task that hit the tracepoint.
struct KernelWorld<'a> {
    k: &'a mut Kernel,
    task: TaskId,
}

impl HelperWorld for KernelWorld<'_> {
    fn ktime_ns(&mut self) -> u64 {
        self.k.now(self.task) as u64
    }

    fn perf_event_read(&mut self, idx: u64) -> Option<[u64; 3]> {
        let kind = tscout_kernel::CounterKind::from_index(idx as usize)?;
        let ns = self.k.cost.pmu_read_kernel_ns;
        self.k
            .charge_overhead_in(self.task, "helper:perf_event_read", ns);
        let r = self.k.task(self.task).pmu.read(kind);
        Some([r.value, r.time_enabled, r.time_running])
    }

    fn read_task_io(&mut self) -> [u64; 4] {
        self.k
            .charge_overhead_in(self.task, "helper:read_task_io", 35.0);
        let io = self.k.task(self.task).ioac;
        [
            io.read_bytes,
            io.write_bytes,
            io.read_syscalls,
            io.write_syscalls,
        ]
    }

    fn read_tcp_sock(&mut self) -> [u64; 4] {
        self.k
            .charge_overhead_in(self.task, "helper:read_tcp_sock", 35.0);
        let t = self.k.task(self.task).tcp;
        [t.bytes_sent, t.bytes_received, t.segs_out, t.segs_in]
    }
}

impl TScout {
    /// Setup Phase: codegen, verify, load, and attach the Collector.
    pub fn deploy(kernel: &mut Kernel, config: TsConfig) -> Result<TScout, TsError> {
        let mut loader = Loader::new();
        let ring = loader.maps.create(MapDef::perf_event_array(
            "tscout_ring",
            config.ring_capacity,
        ));

        let mut subsys = [None; ALL_SUBSYSTEMS.len()];
        for (&s, &probes) in &config.subsystems {
            let bpf = if config.mode == CollectionMode::KernelContinuous {
                let depth_map =
                    loader
                        .maps
                        .create(MapDef::hash(&format!("{s}_depth"), 8, 8, 1 << 10));
                let begin_map = loader.maps.create(MapDef::hash(
                    &format!("{s}_begin"),
                    8,
                    probes.snap_words() * 8,
                    1 << 14,
                ));
                let done_map = loader.maps.create(MapDef::hash(
                    &format!("{s}_done"),
                    8,
                    probes.done_words() * 8,
                    1 << 10,
                ));
                let p_begin = loader
                    .load(
                        &format!("{s}_begin"),
                        codegen::gen_begin(&probes, depth_map, begin_map),
                        CTX_BYTES,
                    )
                    .map_err(TsError::Load)?;
                let p_end = loader
                    .load(
                        &format!("{s}_end"),
                        codegen::gen_end(&probes, depth_map, begin_map, done_map),
                        CTX_BYTES,
                    )
                    .map_err(TsError::Load)?;
                let p_feat = loader
                    .load(
                        &format!("{s}_features"),
                        codegen::gen_features(&probes, done_map, ring),
                        CTX_BYTES,
                    )
                    .map_err(TsError::Load)?;

                let tp_begin = kernel.tracepoints.register("tscout", &format!("{s}_begin"));
                let tp_end = kernel.tracepoints.register("tscout", &format!("{s}_end"));
                let tp_feat = kernel
                    .tracepoints
                    .register("tscout", &format!("{s}_features"));
                kernel.tracepoints.attach(tp_begin, p_begin);
                kernel.tracepoints.attach(tp_end, p_end);
                kernel.tracepoints.attach(tp_feat, p_feat);
                Some(BpfRt {
                    depth_map,
                    begin_map,
                    done_map,
                    tp_begin,
                    tp_end,
                    tp_feat,
                })
            } else {
                None
            };
            subsys[s.index()] = Some(SubsysRt { probes, bpf });
        }

        let sampler = Sampler::new(SAMPLER_SEED);
        let stats = TsStats::default();
        let metrics = CollectorMetrics::new(
            &kernel.telemetry,
            Self::bpf_gauges(&loader, ring, &stats)
                .into_iter()
                .map(|(decl, _)| decl),
        );
        let ts = TScout {
            config,
            registry: OuRegistry::new(),
            sampler,
            stats,
            telemetry: kernel.telemetry.clone(),
            loader,
            ring,
            subsys,
            tasks: Vec::new(),
            metrics,
            last_now: 0.0,
        };
        if ts.config.trace_every > 0 {
            ts.telemetry.trace_set_every(ts.config.trace_every);
        }
        ts.publish_bpf_telemetry();
        Ok(ts)
    }

    /// Tear down: detach and unload every Collector program (dynamic
    /// feature selection, §5.4 — modify config, then `deploy` again).
    pub fn teardown(mut self, kernel: &mut Kernel) -> TsConfig {
        for rt in self.subsys.iter().flatten() {
            if let Some(bpf) = rt.bpf {
                for tp in [bpf.tp_begin, bpf.tp_end, bpf.tp_feat] {
                    for prog in kernel.tracepoints.attached_programs(tp).to_vec() {
                        kernel.tracepoints.detach(tp, prog);
                        self.loader.unload(prog);
                    }
                }
            }
        }
        self.config
    }

    /// Register an OU (Setup Phase marker metadata).
    pub fn register_ou(&mut self, name: &str, s: Subsystem, n_features: usize) -> OuId {
        self.registry.register(name, s, n_features)
    }

    /// Per-thread initialization: enables continuous counters when the
    /// mode requires them.
    pub fn register_thread(&mut self, kernel: &mut Kernel, task: TaskId) {
        if matches!(
            self.config.mode,
            CollectionMode::KernelContinuous | CollectionMode::UserContinuous
        ) {
            kernel.perf_enable_all_free(task);
        }
        self.task_state(task);
    }

    /// The marker state of `task`, created on first sight.
    fn task_state(&mut self, task: TaskId) -> &mut TaskState {
        let idx = task.0 as usize;
        if idx >= self.tasks.len() {
            self.tasks.resize_with(idx + 1, TaskState::default);
        }
        &mut self.tasks[idx]
    }

    /// Whether context switches for this deployment pay the PMU
    /// save/restore tax (per-task continuous counters; §6.2).
    pub fn pmu_cs_tax(&self) -> bool {
        self.config.mode == CollectionMode::UserContinuous
    }

    /// Adjust a subsystem's sampling rate at runtime (§5.3 / §6.3).
    pub fn set_sampling_rate(&mut self, s: Subsystem, rate: u8) {
        self.sampler.set_rate(s, rate);
        let (t, m) = (&self.telemetry, &mut self.metrics);
        m.sampling_rate_changes.at(t, s.index(), || s.name()).inc();
        m.sampling_rate
            .at(t, s.index(), || s.name())
            .set(rate as f64);
    }

    /// The user-space flag (§3.1): true while the innermost in-flight OU
    /// on this thread is being collected, so the DBMS can skip feature
    /// aggregation otherwise.
    pub fn should_collect(&self, task: TaskId) -> bool {
        let top = self
            .tasks
            .get(task.0 as usize)
            .and_then(|t| t.inflight.last());
        top.is_some_and(|f| f.collected)
    }

    // ------------------------------------------------------------------
    // Sample accounting (the telemetry side of §5.3)
    // ------------------------------------------------------------------

    fn ou_label(registry: &OuRegistry, ou: OuId) -> String {
        registry
            .get(ou)
            .map(|d| d.name.clone())
            .unwrap_or_else(|| format!("ou{}", ou.0))
    }

    fn count_marker(&mut self, which: Marker) {
        self.stats.marker_events += 1;
        self.metrics
            .marker_events
            .at(&self.telemetry, which as usize, || which.name())
            .inc();
    }

    /// `ou` is registered (the caller looked it up).
    fn mark_begun(&mut self, subsystem: Subsystem, ou: OuId) {
        let (t, registry) = (&self.telemetry, &self.registry);
        self.metrics
            .begun
            .at(t, subsystem.index(), || subsystem.name())
            .inc();
        self.metrics
            .ou_begun
            .at(t, ou.0 as usize, || Self::ou_label(registry, ou))
            .inc();
    }

    /// Under ring overwrite loss *is* the steady state, so this path is
    /// as allocation- and lock-free as `mark_begun`. A header naming no
    /// registered OU resolves uncached instead of growing the per-OU vec.
    fn mark_lost(&mut self, subsystem: Subsystem, ou: OuId, reason: LossReason) {
        let (t, registry, m) = (&self.telemetry, &self.registry, &mut self.metrics);
        m.lost[subsystem.index()][reason as usize]
            .get_or_insert_with(|| {
                let labels = [("subsystem", subsystem.name()), ("reason", reason.name())];
                SAMPLES_LOST.with(t, &labels)
            })
            .inc();
        if registry.get(ou).is_some() {
            m.ou_lost
                .at(t, ou.0 as usize, || Self::ou_label(registry, ou))
                .inc();
        } else {
            OU_SAMPLES_LOST
                .with(t, &[("ou", &Self::ou_label(registry, ou))])
                .inc();
        }
    }

    /// Parse subsystem + OU + emitting thread out of an encoded record's
    /// header (word 0 is the OU id, word 1 the tid, word 2 the subsystem
    /// index) without a full decode.
    fn record_ids(bytes: &[u8]) -> (Option<Subsystem>, Option<OuId>, u64) {
        let word = |i: usize| {
            bytes
                .get(i * 8..i * 8 + 8)
                .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
        };
        let s = word(2).and_then(|i| Subsystem::from_index(i as usize));
        let ou = word(0).map(|id| OuId(id as u16));
        let tid = word(1).unwrap_or(0);
        (s, ou, tid)
    }

    /// Harvest records the ring buffer overwrote since the last call and
    /// attribute each loss to its subsystem and OU. Called on every path
    /// that pushes to the ring, so the bounded eviction queue never
    /// overflows and the accounting stays exact.
    fn account_ring_evictions(&mut self) {
        while let Some(header) = self.loader.maps.ring_pop_evicted(self.ring) {
            let (s, ou, tid) = Self::record_ids(header.as_bytes());
            let s = s.unwrap_or(Subsystem::ExecutionEngine);
            let ou = ou.unwrap_or(OuId(u16::MAX));
            self.mark_lost(s, ou, LossReason::RingOverwrite);
            self.telemetry.trace_ring_evict(ou.0, tid, self.last_now);
        }
    }

    /// The BPF substrate's own counters (ring, map ops, verifier) as
    /// `(gauge, value)`.
    fn bpf_gauges(
        loader: &Loader,
        ring: MapId,
        stats: &TsStats,
    ) -> [(&'static Decl<Gauge>, f64); 13] {
        let rs = loader.maps.ring_stats(ring);
        let ops = loader.maps.op_stats();
        let v = loader.verify_totals();
        [
            (&decls::RING_PRODUCED, rs.produced as f64),
            (&decls::RING_DROPPED, rs.dropped as f64),
            (&decls::RING_BYTES, rs.bytes as f64),
            (&decls::RING_CAPACITY, rs.capacity as f64),
            (&decls::MAP_LOOKUPS, ops.lookups as f64),
            (&decls::MAP_UPDATES, ops.updates as f64),
            (&decls::MAP_DELETES, ops.deletes as f64),
            (&decls::RING_PUSHES, ops.ring_pushes as f64),
            (&decls::RING_DRAINED, ops.ring_drained as f64),
            (&decls::VERIFY_INSNS, v.insns as f64),
            (&decls::VERIFY_INSNS_VISITED, v.insns_visited as f64),
            (&decls::VERIFY_RUNS, loader.verify_runs() as f64),
            (&decls::BPF_INSNS_EXECUTED, stats.bpf_insns as f64),
        ]
    }

    /// Export the BPF substrate's own counters as gauges. Called at
    /// deploy and once per Processor `poll`/`drain_all` (or per
    /// [`TScout::drain_ring`]).
    pub fn publish_bpf_telemetry(&self) {
        let m = &self.metrics;
        for (gauge, (_, value)) in
            m.bpf
                .iter()
                .zip(Self::bpf_gauges(&self.loader, self.ring, &self.stats))
        {
            gauge.set(value);
        }
        m.ring_hwm
            .set_max(self.loader.maps.ring_stats(self.ring).hwm as f64);
    }

    /// Exact begun/delivered/lost totals across all subsystems.
    pub fn loss_totals(&self) -> LossTotals {
        LossTotals {
            begun: self.telemetry.counter_total(decls::SAMPLES_BEGUN.name),
            delivered: self.telemetry.counter_total(decls::SAMPLES_DELIVERED.name),
            lost: self.telemetry.counter_total(SAMPLES_LOST.name),
        }
    }

    // ------------------------------------------------------------------
    // Markers
    // ------------------------------------------------------------------

    /// `BEGIN` marker: decide sampling and start metric collection.
    pub fn ou_begin(&mut self, k: &mut Kernel, task: TaskId, ou: OuId) {
        self.count_marker(Marker::Begin);
        // Root frame: marker handling is collection-side work, so its
        // virtual time re-bases under `tscout;...` even though it runs
        // in the middle of a DBMS stack.
        let _frames = k.profile_frames(task, [TSCOUT.id(), COLLECTOR_BEGIN.id()]);
        k.charge_overhead(task, k.cost.sampling_check_ns);
        let Some(def) = self.registry.get(ou) else {
            return;
        };
        let subsystem = def.subsystem;
        let configured = self.subsys[subsystem.index()].is_some();
        let collected = configured && self.sampler.decide(task.0 as usize, subsystem);

        let mut snap = None;
        let mut trace = None;
        if collected {
            self.stats.sampled_events += 1;
            self.mark_begun(subsystem, ou);
            // Lineage sampling happens at marker fire time. The id lives
            // in a side table keyed by (ou, tid) — never in the record —
            // and the (virtual) cost is charged on the Processor's clock,
            // so sample bytes are identical with tracing on or off.
            self.last_now = k.now(task);
            trace = self.telemetry.trace_begin(
                ou.0,
                subsystem.index() as u8,
                task.as_u64(),
                self.last_now,
            );
            match self.config.mode {
                CollectionMode::KernelContinuous => {
                    let r0 = self.fire(k, task, subsystem, Marker::Begin, ou, 0, &[]);
                    if r0 != 0 {
                        self.mark_lost(subsystem, ou, LossReason::BeginError);
                        if let Some(id) = trace {
                            self.telemetry
                                .trace_marker_abort(id, k.now(task), "begin_error");
                        }
                        self.state_machine_reset(k, task);
                        return;
                    }
                }
                CollectionMode::UserToggle => {
                    k.task_mut(task).pmu.reset();
                    k.perf_enable_all(task); // ioctl ENABLE
                    k.syscall(task, SyscallKind::Generic); // io/net stats read
                    snap = Some(Box::new(self.user_snapshot(k, task, /*read_pmu=*/ false)));
                }
                CollectionMode::UserContinuous => {
                    let pmu = k.perf_read_user(task); // one group-read syscall
                    k.syscall(task, SyscallKind::Generic);
                    let mut s = self.user_snapshot(k, task, false);
                    s.pmu = pmu;
                    snap = Some(Box::new(s));
                }
            }
        }
        self.task_state(task).inflight.push(InFlight {
            ou,
            subsystem,
            collected,
            phase: Phase::Began,
            snap,
            done: None,
            trace,
        });
    }

    /// `END` marker: stop metric collection and compute deltas.
    pub fn ou_end(&mut self, k: &mut Kernel, task: TaskId, ou: OuId) {
        self.count_marker(Marker::End);
        let _frames = k.profile_frames(task, [TSCOUT.id(), COLLECTOR_END.id()]);
        k.charge_overhead(task, k.cost.sampling_check_ns);
        let top = self.task_state(task).inflight.last_mut();
        let Some(top) = top.filter(|top| top.ou == ou && top.phase == Phase::Began) else {
            self.state_machine_reset(k, task);
            return;
        };
        top.phase = Phase::Ended;
        let (collected, subsystem) = (top.collected, top.subsystem);
        if !collected {
            return;
        }
        match self.config.mode {
            CollectionMode::KernelContinuous => {
                let r0 = self.fire(k, task, subsystem, Marker::End, ou, 0, &[]);
                if r0 != 0 {
                    self.state_machine_reset(k, task);
                }
            }
            CollectionMode::UserToggle => {
                // The OU ends *here*; the toggling syscalls below are
                // instrumentation overhead, not OU time.
                let end_ns = k.now(task) as u64;
                k.perf_disable_all(task); // ioctl DISABLE
                let pmu = k.perf_read_user(task); // read syscall
                k.syscall(task, SyscallKind::Generic); // io/net stats
                self.user_finish(k, task, subsystem, pmu, /*delta_pmu=*/ false, end_ns);
            }
            CollectionMode::UserContinuous => {
                let end_ns = k.now(task) as u64;
                let pmu = k.perf_read_user(task);
                k.syscall(task, SyscallKind::Generic);
                self.user_finish(k, task, subsystem, pmu, true, end_ns);
            }
        }
    }

    /// `FEATURES` marker: attach input features (and user-level metrics
    /// such as the memory probe's bytes) and emit the sample.
    pub fn ou_features(
        &mut self,
        k: &mut Kernel,
        task: TaskId,
        ou: OuId,
        features: &[u64],
        user_metrics: &[u64],
    ) {
        self.features_common(k, task, ou, 0, |payload| {
            payload.extend(features);
            payload.extend(user_metrics);
        });
    }

    /// Vectorized `FEATURES` for fused pipelines (§5.2): one metrics
    /// sample covers several OUs; each group is `(ou, features)`.
    pub fn ou_features_vec(
        &mut self,
        k: &mut Kernel,
        task: TaskId,
        pipeline_ou: OuId,
        groups: &[(OuId, Vec<u64>)],
    ) {
        self.features_common(k, task, pipeline_ou, groups.len() as u64, |payload| {
            for (ou, feats) in groups {
                payload.extend(&[ou.as_u64(), feats.len() as u64]);
                payload.extend(feats);
            }
        });
    }

    /// The marker proper; `build` stages the payload, and runs only for a
    /// collected sample.
    fn features_common(
        &mut self,
        k: &mut Kernel,
        task: TaskId,
        ou: OuId,
        flags: u64,
        build: impl FnOnce(&mut Payload),
    ) {
        self.count_marker(Marker::Features);
        let _frames = k.profile_frames(task, [TSCOUT.id(), COLLECTOR_FEATURES.id()]);
        k.charge_overhead(task, k.cost.sampling_check_ns);
        let inflight = &mut self.task_state(task).inflight;
        let top = inflight.pop_if(|top| top.ou == ou && top.phase == Phase::Ended);
        let Some(top) = top else {
            self.state_machine_reset(k, task);
            return;
        };
        if !top.collected {
            return;
        }
        let mut payload = Payload::new();
        build(&mut payload);
        let payload = payload.as_slice();
        match self.config.mode {
            CollectionMode::KernelContinuous => {
                let before = self.stats.samples_emitted;
                let r0 = self.fire(k, task, top.subsystem, Marker::Features, ou, flags, payload);
                self.last_now = k.now(task);
                // The FEATURES program is the one that publishes; a sample
                // that produced no ring record is lost right here.
                if self.stats.samples_emitted == before {
                    self.mark_lost(top.subsystem, ou, LossReason::FeaturesError);
                    if let Some(id) = top.trace {
                        self.telemetry
                            .trace_marker_abort(id, self.last_now, "features_error");
                    }
                } else if let Some(id) = top.trace {
                    self.telemetry
                        .trace_publish(id, self.last_now, self.ring_len() as u64);
                }
                self.account_ring_evictions();
                if r0 != 0 {
                    self.state_machine_reset(k, task);
                }
            }
            CollectionMode::UserToggle | CollectionMode::UserContinuous => {
                let Some((start, elapsed, metrics)) = top.done else {
                    self.mark_lost(top.subsystem, ou, LossReason::NoEndSnapshot);
                    if let Some(id) = top.trace {
                        self.telemetry
                            .trace_marker_abort(id, k.now(task), "no_end_snapshot");
                    }
                    return;
                };
                let rec = RawRecord {
                    ou: ou.as_u64(),
                    tid: task.as_u64(),
                    subsystem: top.subsystem.index() as u64,
                    flags,
                    start_ns: start,
                    elapsed_ns: elapsed,
                    metrics,
                    payload: payload.to_vec(),
                };
                self.emit_user(k, task, &rec, top.trace);
            }
        }
    }

    // ------------------------------------------------------------------
    // Mode internals
    // ------------------------------------------------------------------

    fn user_snapshot(&self, k: &Kernel, task: TaskId, read_pmu: bool) -> UserSnapshot {
        let t = k.task(task);
        let mut pmu = [PmuReading {
            value: 0,
            time_enabled: 0,
            time_running: 0,
        }; 7];
        if read_pmu {
            for c in ALL_COUNTERS {
                pmu[c.index()] = t.pmu.read(c);
            }
        }
        UserSnapshot {
            start_ns: t.clock_ns as u64,
            pmu,
            ioac: t.ioac,
            tcp: t.tcp,
        }
    }

    fn user_finish(
        &mut self,
        k: &mut Kernel,
        task: TaskId,
        subsystem: Subsystem,
        pmu_end: [PmuReading; 7],
        delta_pmu: bool,
        end_ns: u64,
    ) {
        let Some(probes) = self.subsys[subsystem.index()].map(|rt| rt.probes) else {
            return;
        };
        let now = end_ns;
        let cur_io = k.task(task).ioac;
        let cur_tcp = k.task(task).tcp;
        let Some(top) = self.task_state(task).inflight.last_mut() else {
            return;
        };
        let Some(snap) = &top.snap else { return };
        let mut metrics = Vec::with_capacity(probes.metric_words());
        if probes.cpu {
            for c in ALL_COUNTERS {
                let end = pmu_end[c.index()].normalized();
                let begin = if delta_pmu {
                    snap.pmu[c.index()].normalized()
                } else {
                    0.0
                };
                metrics.push((end - begin).max(0.0) as u64);
            }
        }
        if probes.disk {
            metrics.push(cur_io.read_bytes - snap.ioac.read_bytes);
            metrics.push(cur_io.write_bytes - snap.ioac.write_bytes);
            metrics.push(cur_io.read_syscalls - snap.ioac.read_syscalls);
            metrics.push(cur_io.write_syscalls - snap.ioac.write_syscalls);
        }
        if probes.net {
            metrics.push(cur_tcp.bytes_sent - snap.tcp.bytes_sent);
            metrics.push(cur_tcp.bytes_received - snap.tcp.bytes_received);
            metrics.push(cur_tcp.segs_out - snap.tcp.segs_out);
            metrics.push(cur_tcp.segs_in - snap.tcp.segs_in);
        }
        top.done = Some((snap.start_ns, now - snap.start_ns, metrics));
    }

    /// Serialized user-space emission: all threads funnel through one
    /// lock-guarded copy path before the record reaches the Processor.
    /// When the path is backlogged the sample is *dropped* rather than
    /// queued — TScout never applies back pressure to the DBMS (§3) —
    /// which is what caps the user-space methods' aggregate data rate at
    /// roughly `1 / user_emit_lock_ns` (Fig. 6).
    fn emit_user(&mut self, k: &mut Kernel, task: TaskId, rec: &RawRecord, trace: Option<TraceId>) {
        let _frame = k.profile_frame(task, &EMIT_USER);
        // The emitting thread pays an asynchronous hand-off (write syscall
        // + record copy into the staging buffer)...
        k.syscall(task, SyscallKind::Generic);
        k.charge_overhead(task, 1_800.0);
        let now = k.now(task);
        self.last_now = now;
        let hold = k.cost.user_emit_lock_ns;
        if k.user_emit_path.free_at() - now > 24.0 * hold {
            // ...but the serialized delivery path drains at 1/hold; past a
            // bounded backlog the staging buffer overflows and the sample
            // is dropped (no back pressure, §3).
            self.stats.user_emit_drops += 1;
            let s =
                Subsystem::from_index(rec.subsystem as usize).unwrap_or(Subsystem::ExecutionEngine);
            self.mark_lost(s, OuId(rec.ou as u16), LossReason::EmitBacklog);
            if let Some(id) = trace {
                self.telemetry.trace_marker_abort(id, now, "emit_backlog");
            }
            return;
        }
        let bytes = encode_record(rec);
        k.user_emit_path.acquire(now, hold);
        let _ = self.loader.maps.ring_push(self.ring, &bytes);
        self.stats.samples_emitted += 1;
        if let Some(id) = trace {
            self.telemetry
                .trace_publish(id, now, self.ring_len() as u64);
        }
        self.account_ring_evictions();
    }

    /// Fire a marker tracepoint and run the attached Collector programs.
    #[allow(clippy::too_many_arguments)]
    fn fire(
        &mut self,
        k: &mut Kernel,
        task: TaskId,
        subsystem: Subsystem,
        which: Marker,
        ou: OuId,
        flags: u64,
        payload: &[u64],
    ) -> u64 {
        let Some(bpf) = self.subsys[subsystem.index()].and_then(|r| r.bpf) else {
            return 0;
        };
        let tp = match which {
            Marker::Begin => bpf.tp_begin,
            Marker::End => bpf.tp_end,
            Marker::Features => bpf.tp_feat,
        };
        let attached = k.fire_tracepoint(task, tp).len();
        if attached == 0 {
            return 0;
        }
        let mut ctx = [0u8; CTX_BYTES];
        encode_ctx_into(
            &mut ctx,
            ou.as_u64(),
            task.as_u64(),
            subsystem.index() as u64,
            flags,
            payload,
        );
        let mut result = 0;
        for i in 0..attached {
            // (Nothing attaches or detaches while a marker fires.)
            let prog = k.tracepoints.attached_programs(tp)[i];
            // `bpf:prog:<name>;bpf:vm`, held across both the VM run
            // (helper charges land inside) and the post-run
            // instruction-cost charge below.
            let _frames =
                (self.loader.get(prog)).map(|p| k.profile_frames(task, [p.frame, BPF_VM.id()]));
            let run = {
                let mut world = KernelWorld { k, task };
                self.loader.run(prog, &ctx, &mut world)
            };
            match run {
                Ok((r0, stats)) => {
                    let ns = stats.insns as f64 * k.cost.bpf_insn_ns
                        + stats.ring_publishes as f64 * k.cost.ringbuf_publish_ns;
                    k.charge_overhead(task, ns);
                    self.stats.bpf_insns += stats.insns;
                    self.stats.samples_emitted += stats.ring_publishes;
                    if r0 != 0 {
                        result = r0;
                    }
                }
                Err(_) => result = u64::MAX,
            }
        }
        result
    }

    /// §5.1: on out-of-order markers, reset collection for the thread,
    /// discard intermediate results, and count the error.
    fn state_machine_reset(&mut self, k: &mut Kernel, task: TaskId) {
        self.stats.state_machine_errors += 1;
        self.metrics.state_machine_resets.get(&self.telemetry).inc();
        // Every collected sample still in flight on this thread dies with
        // the reset — attribute each one before discarding.
        let mut inflight = std::mem::take(&mut self.task_state(task).inflight);
        for f in inflight.iter().filter(|f| f.collected) {
            self.mark_lost(f.subsystem, f.ou, LossReason::StateReset);
            if let Some(id) = f.trace {
                self.telemetry
                    .trace_marker_abort(id, k.now(task), "state_reset");
            }
        }
        // (Handed back empty, with its capacity.)
        inflight.clear();
        self.task_state(task).inflight = inflight;
        let tid = task.as_u64().to_le_bytes();
        for rt in self.subsys.iter().flatten() {
            if let Some(bpf) = rt.bpf {
                let _ = self.loader.maps.delete(bpf.done_map, &tid);
                let _ = self.loader.maps.delete(bpf.depth_map, &tid);
                for d in 0u64..64 {
                    let bkey = ((task.as_u64() << 8) | d).to_le_bytes();
                    let _ = self.loader.maps.delete(bpf.begin_map, &bkey);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Processor-facing surface
    // ------------------------------------------------------------------

    /// Drain up to `max` raw records from the ring buffer, handing each
    /// to `visit` in place. Every drained record is counted as
    /// *delivered* toward its subsystem and OU; ring overwrites that
    /// happened since the last drain are attributed as losses first.
    /// Returns how many records were drained.
    pub fn drain_ring_with(
        &mut self,
        max: usize,
        mut visit: impl FnMut(DrainedRecord<'_>),
    ) -> usize {
        self.account_ring_evictions();
        let TScout {
            loader,
            registry,
            telemetry,
            metrics,
            ring,
            ..
        } = self;
        loader.maps.ring_drain_with(*ring, max, |bytes, ring_len| {
            let (s, ou, _tid) = Self::record_ids(bytes);
            let s = s.unwrap_or(Subsystem::ExecutionEngine);
            metrics
                .delivered
                .at(telemetry, s.index(), || s.name())
                .inc();
            match ou.filter(|ou| registry.get(*ou).is_some()) {
                Some(ou) => metrics
                    .ou_delivered
                    .at(telemetry, ou.0 as usize, || Self::ou_label(registry, ou))
                    .inc(),
                // A header no registered OU wrote: resolved uncached.
                None => {
                    let o = ou.map_or_else(|| "unknown".into(), |ou| Self::ou_label(registry, ou));
                    decls::OU_SAMPLES_DELIVERED
                        .with(telemetry, &[("ou", &o)])
                        .inc();
                }
            }
            visit(DrainedRecord {
                bytes,
                registry,
                ring_len,
            });
        })
    }

    /// [`TScout::drain_ring_with`] into owned records, publishing the BPF
    /// gauges afterwards.
    pub fn drain_ring(&mut self, max: usize) -> Vec<Vec<u8>> {
        let mut raw = Vec::new();
        self.drain_ring_with(max, |record| raw.push(record.bytes.to_vec()));
        self.publish_bpf_telemetry();
        raw
    }

    /// Current ring occupancy.
    pub fn ring_len(&self) -> usize {
        self.loader.maps.ring_len(self.ring)
    }

    /// Records lost to ring overwrites so far.
    pub fn ring_dropped(&self) -> u64 {
        self.loader.maps.ring_dropped(self.ring)
    }

    /// Ring capacity configured at deploy time.
    pub fn ring_capacity(&self) -> usize {
        self.config.ring_capacity
    }

    /// Convenience: drain everything and decode into training points
    /// (bypasses the Processor's cost accounting; meant for tests and
    /// offline analysis).
    pub fn drain_decoded(&mut self) -> Vec<TrainingPoint> {
        let mut points = Vec::new();
        self.drain_ring_with(usize::MAX, |record| {
            points.extend(decode_points(record.bytes, record.registry));
        });
        self.publish_bpf_telemetry();
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tscout_kernel::HardwareProfile;

    fn setup(mode: CollectionMode) -> (Kernel, TScout, TaskId, OuId) {
        let mut k = Kernel::with_seed(HardwareProfile::server_2x20(), 5);
        k.noise_frac = 0.0;
        let mut cfg = TsConfig::new(mode);
        cfg.enable_subsystem(Subsystem::ExecutionEngine, ProbeSet::all());
        let mut ts = TScout::deploy(&mut k, cfg).unwrap();
        let ou = ts.register_ou("seq_scan", Subsystem::ExecutionEngine, 2);
        ts.set_sampling_rate(Subsystem::ExecutionEngine, 100);
        let task = k.create_task();
        ts.register_thread(&mut k, task);
        (k, ts, task, ou)
    }

    fn one_ou(k: &mut Kernel, ts: &mut TScout, task: TaskId, ou: OuId) {
        ts.ou_begin(k, task, ou);
        k.charge_cpu(task, 100_000.0, 1 << 16);
        ts.ou_end(k, task, ou);
        ts.ou_features(k, task, ou, &[1000, 64], &[4096]);
    }

    #[test]
    fn kernel_mode_end_to_end() {
        let (mut k, mut ts, task, ou) = setup(CollectionMode::KernelContinuous);
        one_ou(&mut k, &mut ts, task, ou);
        assert_eq!(ts.stats.samples_emitted, 1);
        assert_eq!(ts.stats.state_machine_errors, 0);
        assert!(ts.stats.bpf_insns > 100, "collector must actually run BPF");
        let pts = ts.drain_decoded();
        assert_eq!(pts.len(), 1);
        let p = &pts[0];
        assert_eq!(p.ou_name, "seq_scan");
        assert_eq!(p.features, vec![1000.0, 64.0]);
        assert_eq!(p.user_metrics, vec![4096]);
        assert!(p.elapsed_ns > 0);
        assert_eq!(p.metrics.len(), 15);
        // CPU instructions metric should be near the charged 100k.
        let instr = p.metrics[1] as f64;
        assert!(
            (instr - 100_000.0).abs() / 100_000.0 < 0.05,
            "instr {instr}"
        );
    }

    #[test]
    fn user_modes_end_to_end() {
        for mode in [CollectionMode::UserToggle, CollectionMode::UserContinuous] {
            let (mut k, mut ts, task, ou) = setup(mode);
            one_ou(&mut k, &mut ts, task, ou);
            let pts = ts.drain_decoded();
            assert_eq!(pts.len(), 1, "{mode:?}");
            let instr = pts[0].metrics[1] as f64;
            assert!(
                (instr - 100_000.0).abs() / 100_000.0 < 0.25,
                "{mode:?} instr {instr}"
            );
        }
    }

    #[test]
    fn unsampled_ous_cost_almost_nothing() {
        let (mut k, mut ts, task, ou) = setup(CollectionMode::KernelContinuous);
        ts.set_sampling_rate(Subsystem::ExecutionEngine, 0);
        let before = k.now(task);
        ts.ou_begin(&mut k, task, ou);
        ts.ou_end(&mut k, task, ou);
        ts.ou_features(&mut k, task, ou, &[1], &[]);
        let overhead = k.now(task) - before;
        assert!(overhead < 50.0, "sampling-off overhead {overhead} ns");
        assert_eq!(ts.stats.samples_emitted, 0);
    }

    #[test]
    fn kernel_mode_is_cheaper_per_sample_than_user_toggle() {
        let cost = |mode| {
            let (mut k, mut ts, task, ou) = setup(mode);
            let before = k.now(task);
            ts.ou_begin(&mut k, task, ou);
            ts.ou_end(&mut k, task, ou);
            ts.ou_features(&mut k, task, ou, &[1, 2], &[]);
            k.now(task) - before
        };
        let kernel = cost(CollectionMode::KernelContinuous);
        let toggle = cost(CollectionMode::UserToggle);
        assert!(
            toggle > 1.5 * kernel,
            "toggle {toggle} should far exceed kernel {kernel}"
        );
    }

    #[test]
    fn out_of_order_markers_reset_state() {
        let (mut k, mut ts, task, ou) = setup(CollectionMode::KernelContinuous);
        // END without BEGIN.
        ts.ou_end(&mut k, task, ou);
        assert_eq!(ts.stats.state_machine_errors, 1);
        // Recovery: a full triple still works afterwards.
        one_ou(&mut k, &mut ts, task, ou);
        assert_eq!(ts.drain_decoded().len(), 1);
    }

    #[test]
    fn features_for_wrong_ou_resets() {
        let (mut k, mut ts, task, ou) = setup(CollectionMode::KernelContinuous);
        let other = ts.register_ou("filter", Subsystem::ExecutionEngine, 1);
        ts.ou_begin(&mut k, task, ou);
        ts.ou_end(&mut k, task, ou);
        ts.ou_features(&mut k, task, other, &[1], &[]);
        assert_eq!(ts.stats.state_machine_errors, 1);
        assert_eq!(ts.drain_decoded().len(), 0);
    }

    #[test]
    fn nested_ous_both_collected() {
        let (mut k, mut ts, task, outer) = setup(CollectionMode::KernelContinuous);
        let inner = ts.register_ou("hash_join", Subsystem::ExecutionEngine, 1);
        ts.ou_begin(&mut k, task, outer);
        k.charge_cpu(task, 10_000.0, 4096);
        ts.ou_begin(&mut k, task, inner);
        k.charge_cpu(task, 30_000.0, 4096);
        ts.ou_end(&mut k, task, inner);
        ts.ou_features(&mut k, task, inner, &[7], &[]);
        k.charge_cpu(task, 10_000.0, 4096);
        ts.ou_end(&mut k, task, outer);
        ts.ou_features(&mut k, task, outer, &[9, 9], &[]);
        let pts = ts.drain_decoded();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].ou_name, "hash_join");
        assert_eq!(pts[1].ou_name, "seq_scan");
        assert!(
            pts[1].elapsed_ns > pts[0].elapsed_ns,
            "outer OU encloses inner"
        );
    }

    #[test]
    fn fused_pipeline_emits_vectorized_features() {
        let (mut k, mut ts, task, pipe) = setup(CollectionMode::KernelContinuous);
        let idx = ts.register_ou("idx_lookup", Subsystem::ExecutionEngine, 2);
        let filt = ts.register_ou("filter2", Subsystem::ExecutionEngine, 1);
        ts.ou_begin(&mut k, task, pipe);
        k.charge_cpu(task, 90_000.0, 4096);
        ts.ou_end(&mut k, task, pipe);
        ts.ou_features_vec(
            &mut k,
            task,
            pipe,
            &[(idx, vec![100, 3]), (filt, vec![200])],
        );
        let pts = ts.drain_decoded();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].ou_name, "idx_lookup");
        assert_eq!(pts[1].ou_name, "filter2");
        let total: u64 = pts.iter().map(|p| p.elapsed_ns).sum();
        assert!(total > 0);
    }

    #[test]
    fn should_collect_reflects_sampling() {
        let (mut k, mut ts, task, ou) = setup(CollectionMode::KernelContinuous);
        ts.ou_begin(&mut k, task, ou);
        assert!(ts.should_collect(task));
        ts.ou_end(&mut k, task, ou);
        ts.ou_features(&mut k, task, ou, &[1, 2], &[]);
        assert!(!ts.should_collect(task));

        ts.set_sampling_rate(Subsystem::ExecutionEngine, 0);
        ts.ou_begin(&mut k, task, ou);
        assert!(!ts.should_collect(task));
    }

    #[test]
    fn disabled_subsystem_collects_nothing() {
        let (mut k, mut ts, task, _) = setup(CollectionMode::KernelContinuous);
        let wal = ts.register_ou("log_serialize", Subsystem::LogSerializer, 1);
        ts.ou_begin(&mut k, task, wal);
        ts.ou_end(&mut k, task, wal);
        ts.ou_features(&mut k, task, wal, &[5], &[]);
        assert_eq!(ts.stats.samples_emitted, 0);
        assert_eq!(ts.stats.state_machine_errors, 0);
    }

    #[test]
    fn teardown_detaches_everything() {
        let (mut k, ts, task, _ou) = setup(CollectionMode::KernelContinuous);
        let cfg = ts.teardown(&mut k);
        assert_eq!(cfg.subsystems.len(), 1);
        // Firing the tracepoints is now free (NOP again).
        let tp = k
            .tracepoints
            .lookup("tscout", "execution_engine_begin")
            .unwrap();
        let before = k.now(task);
        assert!(k.fire_tracepoint(task, tp).is_empty());
        assert_eq!(k.now(task), before);
    }

    #[test]
    fn loss_accounting_is_exact_under_ring_pressure() {
        let mut k = Kernel::with_seed(HardwareProfile::server_2x20(), 5);
        k.noise_frac = 0.0;
        let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
        cfg.ring_capacity = 4;
        cfg.enable_subsystem(Subsystem::ExecutionEngine, ProbeSet::cpu_only());
        let mut ts = TScout::deploy(&mut k, cfg).unwrap();
        let ou = ts.register_ou("scan", Subsystem::ExecutionEngine, 1);
        ts.set_sampling_rate(Subsystem::ExecutionEngine, 100);
        let task = k.create_task();
        ts.register_thread(&mut k, task);
        for i in 0..50 {
            ts.ou_begin(&mut k, task, ou);
            k.charge_cpu(task, 1000.0, 64);
            ts.ou_end(&mut k, task, ou);
            ts.ou_features(&mut k, task, ou, &[i], &[]);
        }
        ts.drain_ring(usize::MAX);
        let lt = ts.loss_totals();
        assert_eq!(lt.begun, 50);
        assert_eq!(lt.delivered, 4);
        assert_eq!(lt.lost, 46);
        assert_eq!(lt.delivered + lt.lost, lt.begun);
        // All losses here are ring overwrites, attributed to the right
        // subsystem and OU.
        assert_eq!(
            ts.telemetry.counter_value(
                "tscout_samples_lost_total",
                &[
                    ("subsystem", "execution_engine"),
                    ("reason", "ring_overwrite")
                ],
            ),
            46
        );
        assert_eq!(
            ts.telemetry
                .counter_value("tscout_ou_samples_lost_total", &[("ou", "scan")]),
            46
        );
    }

    #[test]
    fn state_resets_count_inflight_samples_as_lost() {
        let (mut k, mut ts, task, ou) = setup(CollectionMode::KernelContinuous);
        // BEGIN then a wrong-OU FEATURES: the in-flight sample dies.
        let other = ts.register_ou("other", Subsystem::ExecutionEngine, 1);
        ts.ou_begin(&mut k, task, ou);
        ts.ou_end(&mut k, task, ou);
        ts.ou_features(&mut k, task, other, &[1], &[]);
        ts.drain_ring(usize::MAX);
        let lt = ts.loss_totals();
        assert_eq!(lt.begun, 1);
        assert_eq!(lt.delivered, 0);
        assert_eq!(lt.lost, 1);
        assert_eq!(
            ts.telemetry.counter_value(
                "tscout_samples_lost_total",
                &[("subsystem", "execution_engine"), ("reason", "state_reset")],
            ),
            1
        );
    }

    #[test]
    fn ring_overwrites_under_pressure() {
        let mut k = Kernel::with_seed(HardwareProfile::server_2x20(), 5);
        k.noise_frac = 0.0;
        let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
        cfg.ring_capacity = 4;
        cfg.enable_subsystem(Subsystem::ExecutionEngine, ProbeSet::cpu_only());
        let mut ts = TScout::deploy(&mut k, cfg).unwrap();
        let ou = ts.register_ou("scan", Subsystem::ExecutionEngine, 1);
        ts.set_sampling_rate(Subsystem::ExecutionEngine, 100);
        let task = k.create_task();
        ts.register_thread(&mut k, task);
        for i in 0..10 {
            ts.ou_begin(&mut k, task, ou);
            k.charge_cpu(task, 1000.0, 64);
            ts.ou_end(&mut k, task, ou);
            ts.ou_features(&mut k, task, ou, &[i], &[]);
        }
        assert_eq!(ts.ring_len(), 4);
        assert_eq!(ts.ring_dropped(), 6);
        // The newest samples survive (overwrite-oldest).
        let pts = ts.drain_decoded();
        assert_eq!(pts[0].features, vec![6.0]);
    }
}
