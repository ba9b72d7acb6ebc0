//! The simulated kernel: task table, charging APIs, syscalls, tracepoints.
//!
//! Everything the DBMS and TScout do is expressed as *charges* against a
//! task: CPU work, I/O, network traffic, syscalls, mode switches. A charge
//! advances the task's virtual clock and updates whatever kernel-visible
//! state the work touches (PMU counters, `ioac`, `tcp_sock`). Benchmarks
//! then derive throughput and latency from the virtual clocks, which makes
//! every experiment deterministic for a fixed seed.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tscout_telemetry::{
    CounterSite, CounterVec, Frame, FrameGuard, FrameId, HistSite, Profiler, Telemetry,
};

use crate::cost::CostModel;
use crate::decls;
use crate::hw::HardwareProfile;
use crate::pmu::{CounterDelta, PmuReading, ALL_COUNTERS};
use crate::task::{TaskId, TaskStruct};
use crate::tracepoint::{AttachedProgId, TracepointId, TracepointRegistry};

/// Classification of syscalls for cost accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyscallKind {
    /// A generic syscall (e.g. `getrusage`).
    Generic,
    /// `ioctl(PERF_EVENT_IOC_{ENABLE,DISABLE})` — reprograms the PMU.
    PerfToggle,
    /// `read()` on a perf fd group covering `n` counters.
    PerfRead(usize),
    /// Storage read/write of a given size.
    Io,
    /// Socket send/recv.
    Net,
}

/// A resource that serializes callers (models a contended lock / pipe).
///
/// `acquire` advances the caller to the moment the resource frees up, holds
/// it for `hold_ns`, and returns the caller's new clock. This is how the
/// user-space sample-emission path bottlenecks (§6.2): all DBMS threads
/// funnel through one lock, so aggregate emission rate is capped at
/// `1 / hold_ns` regardless of thread count.
#[derive(Debug, Clone, Default)]
pub struct SerializedResource {
    free_at_ns: f64,
}

impl SerializedResource {
    pub fn acquire(&mut self, now_ns: f64, hold_ns: f64) -> f64 {
        let start = now_ns.max(self.free_at_ns);
        self.free_at_ns = start + hold_ns;
        self.free_at_ns
    }

    pub fn free_at(&self) -> f64 {
        self.free_at_ns
    }

    pub fn reset(&mut self) {
        self.free_at_ns = 0.0;
    }
}

/// The kernel's own metrics (declared in [`crate::decls`]). Handles
/// resolve against the telemetry registry installed when each metric
/// first fires.
#[derive(Debug)]
struct KernelMetrics {
    mode_switches: CounterSite,
    tracepoint_hits: CounterSite,
    /// Indexed by [`SyscallKind::label`].
    syscalls: CounterVec,
    /// Indexed by `pmu_enabled as usize`.
    context_switches: CounterVec,
    wal_write_ns: HistSite,
    wal_bytes: CounterSite,
}

impl Default for KernelMetrics {
    fn default() -> Self {
        KernelMetrics {
            mode_switches: decls::MODE_SWITCHES.site(&[]),
            tracepoint_hits: decls::TRACEPOINT_HITS.site(&[]),
            syscalls: decls::SYSCALLS.vec("kind"),
            context_switches: decls::CONTEXT_SWITCHES.vec("pmu"),
            wal_write_ns: decls::WAL_WRITE_NS.site(&[]),
            wal_bytes: decls::WAL_BYTES.site(&[]),
        }
    }
}

impl SyscallKind {
    /// `(index, value)` of the `kind` label on `kernel_syscalls_total`.
    fn label(self) -> (usize, &'static str) {
        match self {
            SyscallKind::Generic => (0, "generic"),
            SyscallKind::PerfToggle => (1, "perf_toggle"),
            SyscallKind::PerfRead(_) => (2, "perf_read"),
            SyscallKind::Io => (3, "io"),
            SyscallKind::Net => (4, "net"),
        }
    }
}

/// The simulated kernel.
#[derive(Debug)]
pub struct Kernel {
    pub hw: HardwareProfile,
    pub cost: CostModel,
    tasks: Vec<TaskStruct>,
    pub tracepoints: TracepointRegistry,
    /// Serialized user-space sample-emission path (shared buffer + lock).
    pub user_emit_path: SerializedResource,
    /// Serialized WAL device: one flush at a time.
    pub wal_device: SerializedResource,
    rng: StdRng,
    /// Multiplicative noise applied to CPU charges (0 disables).
    pub noise_frac: f64,
    /// Number of tasks currently runnable (set by the workload driver; feeds
    /// the contention model).
    runnable: u32,
    /// The simulation-wide metrics registry. The kernel owns the canonical
    /// handle; TScout, the Processor, and the DBMS clone it at construction
    /// so one snapshot covers the whole simulated world.
    pub telemetry: Telemetry,
    /// Virtual-clock sampling profiler (see [`Profiler`]). Disabled by
    /// default (zero period); the bench harness enables it via
    /// [`Kernel::set_profile_period_ns`]. Every charge feeds it, so when
    /// enabled, folded samples account for all charged virtual time.
    pub profiler: Profiler,
    metrics: KernelMetrics,
}

impl Kernel {
    pub fn new(hw: HardwareProfile) -> Self {
        Self::with_seed(hw, 0xC0FFEE)
    }

    pub fn with_seed(hw: HardwareProfile, seed: u64) -> Self {
        Kernel {
            hw,
            cost: CostModel::default(),
            tasks: Vec::new(),
            tracepoints: TracepointRegistry::new(),
            user_emit_path: SerializedResource::default(),
            wal_device: SerializedResource::default(),
            rng: StdRng::seed_from_u64(seed),
            noise_frac: 0.03,
            runnable: 1,
            telemetry: Telemetry::default(),
            profiler: Profiler::default(),
            metrics: KernelMetrics::default(),
        }
    }

    /// Enable the sampling profiler with one interrupt per `period_ns`
    /// of charged virtual time (`<= 0` disables it).
    pub fn set_profile_period_ns(&mut self, period_ns: f64) {
        self.profiler.set_period_ns(period_ns);
    }

    /// Push a profiler frame for `id`'s execution context; the frame
    /// pops when the returned guard drops. A root frame re-bases
    /// attribution (collection-side work pushes the `tscout` root so its
    /// overhead never folds under the DBMS stack it interrupted).
    #[inline]
    pub fn profile_frame(&self, id: TaskId, frame: &Frame) -> FrameGuard {
        self.profile_frames(id, [frame.id()])
    }

    /// Several frames at once, outermost first — one guard (see
    /// [`Profiler::push_frames`]).
    #[inline]
    pub fn profile_frames<const N: usize>(&self, id: TaskId, frames: [FrameId; N]) -> FrameGuard {
        self.profiler
            .push_frames(&self.tasks[id.0 as usize].frames, frames)
    }

    // ------------------------------------------------------------------
    // Tasks
    // ------------------------------------------------------------------

    pub fn create_task(&mut self) -> TaskId {
        // Each task is a `TaskStruct` of many bytes: 2^32 do not fit in
        // memory.
        #[allow(clippy::expect_used)]
        let id = TaskId(u32::try_from(self.tasks.len()).expect("fewer than 2^32 tasks"));
        self.tasks.push(TaskStruct::new(id, self.hw.pmu_slots));
        id
    }

    pub fn task(&self, id: TaskId) -> &TaskStruct {
        &self.tasks[id.0 as usize]
    }

    pub fn task_mut(&mut self, id: TaskId) -> &mut TaskStruct {
        &mut self.tasks[id.0 as usize]
    }

    /// Current virtual time of a task, ns.
    pub fn now(&self, id: TaskId) -> f64 {
        self.task(id).clock_ns
    }

    /// Advance a task's clock without doing accountable work (sleep/wait).
    pub fn advance(&mut self, id: TaskId, ns: f64) {
        self.task_mut(id).clock_ns += ns;
    }

    /// Jump a task's clock forward to `ns` if it is behind (waiting on an
    /// event that completes at `ns`).
    pub fn advance_to(&mut self, id: TaskId, ns: f64) {
        let t = self.task_mut(id);
        if t.clock_ns < ns {
            t.clock_ns = ns;
        }
    }

    /// Tell the contention model how many tasks are actively executing.
    pub fn set_runnable(&mut self, n: u32) {
        self.runnable = n.max(1);
    }

    pub fn runnable(&self) -> u32 {
        self.runnable
    }

    // ------------------------------------------------------------------
    // Charging
    // ------------------------------------------------------------------

    fn noise(&mut self) -> f64 {
        if self.noise_frac == 0.0 {
            1.0
        } else {
            1.0 + self.noise_frac * (2.0 * self.rng.random::<f64>() - 1.0)
        }
    }

    /// Deterministic RNG for callers that need reproducible randomness tied
    /// to the kernel seed.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Charge a block of CPU work to a task.
    ///
    /// * `instructions` — dynamic instruction count of the work.
    /// * `ws_bytes` — working-set size driving LLC pressure.
    ///
    /// Returns the elapsed virtual nanoseconds.
    pub fn charge_cpu(&mut self, id: TaskId, instructions: f64, ws_bytes: u64) -> f64 {
        let noise = self.noise();
        let instructions = instructions * noise;
        let contention = self.cost.contention_factor(&self.hw, self.runnable);
        let miss_rate = self.cost.miss_rate(&self.hw, ws_bytes, self.runnable);
        let mem_refs = instructions * 0.35;
        let cache_refs = mem_refs * 0.18; // refs that reach LLC
        let misses = cache_refs * miss_rate;
        let ns = self.cost.cpu_ns(&self.hw, instructions, misses) * contention;
        let cycles = self.hw.ns_to_cycles(ns);
        let delta = CounterDelta {
            cycles,
            instructions,
            ref_cycles: cycles,
            cache_references: cache_refs,
            cache_misses: misses,
            branches: instructions * 0.2,
            branch_misses: instructions * 0.2 * 0.03,
        };
        self.ledger(id, &delta, ns, None);
        ns
    }

    /// Book one charge: counters, clock, and the profiling interrupt
    /// source — which observes the charge, never alters it. (Idle waits,
    /// `advance`/`advance_to`, are not work and are deliberately not
    /// sampled.) `leaf` is a profiler frame covering just this charge.
    fn ledger(&mut self, id: TaskId, delta: &CounterDelta, ns: f64, leaf: Option<&'static str>) {
        let t = &mut self.tasks[id.0 as usize];
        t.pmu.charge(delta, ns);
        t.clock_ns += ns;
        self.profiler
            .on_charge(&t.frames, &mut t.profile_credit, ns, leaf);
    }

    /// Charge fixed-duration kernel-side overhead (mode switches, BPF
    /// execution, ...). Counts toward cycles but not data-work counters.
    pub fn charge_overhead(&mut self, id: TaskId, ns: f64) -> f64 {
        self.charge_overhead_leaf(id, ns, None)
    }

    /// [`Kernel::charge_overhead`] under a profiler frame that spans
    /// exactly this charge (`frame` folds as the innermost frame of any
    /// sample the charge fires).
    pub fn charge_overhead_in(&mut self, id: TaskId, frame: &'static str, ns: f64) -> f64 {
        self.charge_overhead_leaf(id, ns, Some(frame))
    }

    fn charge_overhead_leaf(&mut self, id: TaskId, ns: f64, leaf: Option<&'static str>) -> f64 {
        let cycles = self.hw.ns_to_cycles(ns);
        let delta = CounterDelta {
            cycles,
            instructions: cycles * self.cost.ipc * 0.6,
            ref_cycles: cycles,
            ..Default::default()
        };
        self.ledger(id, &delta, ns, leaf);
        ns
    }

    /// One user↔kernel mode switch.
    pub fn mode_switch(&mut self, id: TaskId) -> f64 {
        let ns = self.cost.mode_switch_ns;
        self.metrics.mode_switches.get(&self.telemetry).inc();
        self.charge_overhead(id, ns)
    }

    /// Issue a syscall of the given kind, charging its full cost.
    pub fn syscall(&mut self, id: TaskId, kind: SyscallKind) -> f64 {
        let ns = match kind {
            SyscallKind::Generic | SyscallKind::Io | SyscallKind::Net => self.cost.syscall_ns(),
            SyscallKind::PerfToggle => self.cost.perf_toggle_syscall_ns(),
            SyscallKind::PerfRead(n) => self.cost.perf_read_syscall_ns(n),
        };
        self.task_mut(id).syscalls += 1;
        let (idx, label) = kind.label();
        self.metrics
            .syscalls
            .at(&self.telemetry, idx, || label)
            .inc();
        self.charge_overhead(id, ns)
    }

    /// A context switch; if perf counters are continuously enabled the
    /// kernel additionally saves/restores PMU state (the User-Continuous
    /// floor cost of §6.2).
    pub fn context_switch(&mut self, id: TaskId, pmu_enabled: bool) -> f64 {
        let mut ns = self.cost.context_switch_ns;
        if pmu_enabled {
            ns += self.cost.cs_pmu_save_ns;
        }
        self.task_mut(id).context_switches += 1;
        self.metrics
            .context_switches
            .at(&self.telemetry, pmu_enabled as usize, || {
                if pmu_enabled {
                    "on"
                } else {
                    "off"
                }
            })
            .inc();
        self.charge_overhead(id, ns)
    }

    // ------------------------------------------------------------------
    // Perf event syscalls (user-space collection paths)
    // ------------------------------------------------------------------

    /// Enable all counters via one ioctl on the group fd.
    pub fn perf_enable_all(&mut self, id: TaskId) {
        self.syscall(id, SyscallKind::PerfToggle);
        for k in ALL_COUNTERS {
            self.task_mut(id).pmu.enable(k);
        }
    }

    /// Disable all counters via one ioctl on the group fd.
    pub fn perf_disable_all(&mut self, id: TaskId) {
        self.syscall(id, SyscallKind::PerfToggle);
        for k in ALL_COUNTERS {
            self.task_mut(id).pmu.disable(k);
        }
    }

    /// Enable counters without charging a syscall — used at DBMS start-up
    /// for the continuous collection modes (setup cost is off the hot path).
    pub fn perf_enable_all_free(&mut self, id: TaskId) {
        for k in ALL_COUNTERS {
            self.task_mut(id).pmu.enable(k);
        }
    }

    /// Read all counters from user space: one group-read syscall.
    pub fn perf_read_user(&mut self, id: TaskId) -> [PmuReading; 7] {
        self.syscall(id, SyscallKind::PerfRead(ALL_COUNTERS.len()));
        let t = self.task(id);
        let mut out = [PmuReading {
            value: 0,
            time_enabled: 0,
            time_running: 0,
        }; 7];
        for k in ALL_COUNTERS {
            out[k.index()] = t.pmu.read(k);
        }
        out
    }

    /// Read all counters from kernel space (BPF helper path): no syscall,
    /// just the per-counter MSR read cost. The mode switch was already paid
    /// by the tracepoint.
    pub fn perf_read_kernel(&mut self, id: TaskId) -> [PmuReading; 7] {
        let ns = ALL_COUNTERS.len() as f64 * self.cost.pmu_read_kernel_ns;
        self.charge_overhead(id, ns);
        let t = self.task(id);
        let mut out = [PmuReading {
            value: 0,
            time_enabled: 0,
            time_running: 0,
        }; 7];
        for k in ALL_COUNTERS {
            out[k.index()] = t.pmu.read(k);
        }
        out
    }

    // ------------------------------------------------------------------
    // I/O and network
    // ------------------------------------------------------------------

    /// Write `bytes` to the WAL device. Charges the syscall to the caller,
    /// updates `ioac`, serializes on the device, and returns the completion
    /// time (the caller's clock is advanced to it).
    pub fn io_write(&mut self, id: TaskId, bytes: u64) -> f64 {
        self.syscall(id, SyscallKind::Io);
        let t = self.task_mut(id);
        t.ioac.write_bytes += bytes;
        t.ioac.write_syscalls += 1;
        let now = t.clock_ns;
        let dev_ns = self.hw.storage.write_time_ns(bytes);
        let done = self.wal_device.acquire(now, dev_ns);
        // Observed latency includes queueing behind earlier flushes, which
        // is what a caller blocked on fsync actually experiences.
        self.metrics
            .wal_write_ns
            .get(&self.telemetry)
            .record(done - now);
        self.metrics.wal_bytes.get(&self.telemetry).add(bytes);
        self.advance_to(id, done);
        done
    }

    /// Send `bytes` on a socket: syscall + wire time, updates `tcp_sock`.
    pub fn net_send(&mut self, id: TaskId, bytes: u64) -> f64 {
        self.syscall(id, SyscallKind::Net);
        let wire = bytes as f64 / 1024.0 * self.hw.net_ns_per_kb;
        self.charge_overhead(id, wire);
        let t = self.task_mut(id);
        t.tcp.bytes_sent += bytes;
        t.tcp.segs_out += bytes.div_ceil(1448).max(1);
        t.clock_ns
    }

    /// Receive `bytes` from a socket.
    pub fn net_recv(&mut self, id: TaskId, bytes: u64) -> f64 {
        self.syscall(id, SyscallKind::Net);
        let wire = bytes as f64 / 1024.0 * self.hw.net_ns_per_kb;
        self.charge_overhead(id, wire);
        let t = self.task_mut(id);
        t.tcp.bytes_received += bytes;
        t.tcp.segs_in += bytes.div_ceil(1448).max(1);
        t.clock_ns
    }

    // ------------------------------------------------------------------
    // Tracepoints
    // ------------------------------------------------------------------

    /// Fire a tracepoint from `task`. If the site is enabled, the task pays
    /// one mode switch and the kernel returns the attached program ids for
    /// the caller (the BPF runtime in `tscout`) to execute. Disabled sites
    /// are NOPs and cost nothing here.
    pub fn fire_tracepoint(&mut self, id: TaskId, tp: TracepointId) -> &[AttachedProgId] {
        if !self.tracepoints.attached_programs(tp).is_empty() {
            self.metrics.tracepoint_hits.get(&self.telemetry).inc();
            self.mode_switch(id);
        }
        self.tracepoints.attached_programs(tp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pmu::CounterKind;

    fn kernel() -> Kernel {
        let mut k = Kernel::with_seed(HardwareProfile::server_2x20(), 7);
        k.noise_frac = 0.0;
        k
    }

    #[test]
    fn charge_cpu_advances_clock_and_counters() {
        let mut k = kernel();
        let t = k.create_task();
        k.perf_enable_all_free(t);
        let ns = k.charge_cpu(t, 100_000.0, 1 << 16);
        assert!(ns > 0.0);
        assert_eq!(k.now(t), ns);
        let cycles = k.task(t).pmu.read(CounterKind::Cycles);
        assert!(cycles.value > 0);
        let instr = k.task(t).pmu.read(CounterKind::Instructions);
        // 7 events on 4 slots: raw is scaled by 4/7 but normalization recovers.
        assert!((instr.normalized() - 100_000.0).abs() / 100_000.0 < 0.01);
    }

    #[test]
    fn user_toggle_is_costlier_than_tracepoint_fire() {
        let mut k = kernel();
        let t1 = k.create_task();
        let t2 = k.create_task();

        // User-toggle pattern: enable, disable, read.
        k.perf_enable_all(t1);
        k.perf_disable_all(t1);
        k.perf_read_user(t1);
        let user_cost = k.now(t1);

        // Kernel pattern: tracepoint fire + in-kernel reads (twice: begin+end).
        let tp = k.tracepoints.register("x", "y");
        k.tracepoints.attach(tp, 1);
        k.fire_tracepoint(t2, tp);
        k.perf_read_kernel(t2);
        k.fire_tracepoint(t2, tp);
        k.perf_read_kernel(t2);
        let kernel_cost = k.now(t2);

        assert!(
            user_cost > 2.0 * kernel_cost,
            "user {user_cost} kernel {kernel_cost}"
        );
    }

    #[test]
    fn disabled_tracepoint_costs_nothing() {
        let mut k = kernel();
        let t = k.create_task();
        let tp = k.tracepoints.register("x", "y");
        let progs = k.fire_tracepoint(t, tp);
        assert!(progs.is_empty());
        assert_eq!(k.now(t), 0.0);
    }

    #[test]
    fn io_write_serializes_on_device() {
        let mut k = kernel();
        let a = k.create_task();
        let b = k.create_task();
        let done_a = k.io_write(a, 1 << 20);
        let done_b = k.io_write(b, 1 << 20);
        // Task b started at time ~0 but the device was busy until done_a.
        assert!(done_b > done_a);
        assert_eq!(k.task(a).ioac.write_bytes, 1 << 20);
        assert_eq!(k.task(b).ioac.write_syscalls, 1);
    }

    #[test]
    fn net_updates_tcp_sock() {
        let mut k = kernel();
        let t = k.create_task();
        k.net_send(t, 3000);
        k.net_recv(t, 100);
        let tcp = k.task(t).tcp;
        assert_eq!(tcp.bytes_sent, 3000);
        assert_eq!(tcp.bytes_received, 100);
        assert_eq!(tcp.segs_out, 3); // ceil(3000/1448)
        assert_eq!(tcp.segs_in, 1);
    }

    #[test]
    fn context_switch_pmu_tax() {
        let mut k = kernel();
        let a = k.create_task();
        let b = k.create_task();
        let plain = k.context_switch(a, false);
        let taxed = k.context_switch(b, true);
        assert!((taxed - plain - k.cost.cs_pmu_save_ns).abs() < 1e-9);
    }

    #[test]
    fn serialized_resource_queues() {
        let mut r = SerializedResource::default();
        assert_eq!(r.acquire(0.0, 10.0), 10.0);
        assert_eq!(r.acquire(0.0, 10.0), 20.0); // queued behind first
        assert_eq!(r.acquire(100.0, 10.0), 110.0); // idle gap
    }

    #[test]
    fn contention_scales_cpu_charge() {
        let mut k = kernel();
        let a = k.create_task();
        let ns1 = k.charge_cpu(a, 1_000_000.0, 1 << 10);
        k.set_runnable(80); // 2x oversubscribed on 40 cores
        let b = k.create_task();
        k.set_runnable(80);
        let ns2 = {
            let before = k.now(b);
            k.charge_cpu(b, 1_000_000.0, 1 << 10);
            k.now(b) - before
        };
        assert!(ns2 > 1.5 * ns1, "contended {ns2} uncontended {ns1}");
    }

    #[test]
    fn telemetry_tracks_charging_paths() {
        let mut k = kernel();
        let t = k.create_task();
        k.syscall(t, SyscallKind::Generic);
        k.syscall(t, SyscallKind::PerfToggle);
        k.context_switch(t, true);
        k.io_write(t, 4096);
        assert_eq!(
            k.telemetry
                .counter_value("kernel_syscalls_total", &[("kind", "generic")]),
            1
        );
        assert_eq!(
            k.telemetry
                .counter_value("kernel_syscalls_total", &[("kind", "perf_toggle")]),
            1
        );
        // io_write issues an "io" syscall internally.
        assert_eq!(k.telemetry.counter_total("kernel_syscalls_total"), 3);
        assert_eq!(
            k.telemetry
                .counter_value("kernel_context_switches_total", &[("pmu", "on")]),
            1
        );
        assert_eq!(
            k.telemetry.counter_value("kernel_wal_bytes_total", &[]),
            4096
        );
        let wal = k
            .telemetry
            .hist_snapshot("kernel_wal_write_ns", &[])
            .unwrap();
        assert_eq!(wal.count, 1);
        assert!(wal.max > 0.0);
    }

    #[test]
    fn profiler_samples_charges_without_altering_them() {
        let mut with = kernel();
        let mut without = kernel();
        with.set_profile_period_ns(50.0);
        let a = with.create_task();
        let b = without.create_task();
        let guard = with.profile_frame(a, &tscout_telemetry::DBMS);
        let ns_with = with.charge_cpu(a, 100_000.0, 1 << 16) + with.charge_overhead(a, 777.0);
        drop(guard);
        let ns_without =
            without.charge_cpu(b, 100_000.0, 1 << 16) + without.charge_overhead(b, 777.0);
        // Identical charges whether or not the profiler observes them.
        assert_eq!(ns_with, ns_without);
        let fired = with.profiler.interrupts_fired();
        assert_eq!(fired, (ns_with / 50.0).floor() as u64);
        let folded = with.profiler.folded();
        assert_eq!(folded.len(), 1);
        assert_eq!(folded[0].0, "dbms");
        assert_eq!(folded[0].1.samples, fired);
        assert_eq!(without.profiler.interrupts_fired(), 0);
    }

    #[test]
    fn idle_waits_are_not_sampled() {
        let mut k = kernel();
        k.set_profile_period_ns(10.0);
        let t = k.create_task();
        k.advance(t, 1_000.0);
        k.advance_to(t, 5_000.0);
        assert_eq!(k.profiler.interrupts_fired(), 0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = || {
            let mut k = Kernel::with_seed(HardwareProfile::server_2x20(), 99);
            let t = k.create_task();
            let mut total = 0.0;
            for i in 0..100 {
                total += k.charge_cpu(t, 1000.0 + i as f64, 4096);
            }
            total
        };
        assert_eq!(run(), run());
    }
}
