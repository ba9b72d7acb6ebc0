//! Continuous virtual-clock sampling profiler.
//!
//! The simulation has no wall clock to interrupt, but it has something
//! better: every nanosecond of simulated work flows through the kernel's
//! `charge_cpu` / `charge_overhead` ledger. The [`Profiler`] piggybacks
//! on that ledger the way a `perf_event` sampler piggybacks on the CPU
//! cycle counter: each task accrues *credit* as it is charged, and every
//! time the credit crosses the sampling period a profiling interrupt
//! "fires", snapshotting the task's current execution-context stack into
//! a folded-stack map. Because firing is derived from charged virtual
//! time, the profile is exact and deterministic: a stack's sample count
//! is `floor(charged_ns / period)` with no statistical jitter.
//!
//! Stacks are built cooperatively: components push named frames with
//! [`Profiler::push_frame`] (RAII — the returned [`FrameGuard`] pops on
//! drop). Frame names are `&'static str`, or an `Arc<str>` built once
//! where the name is known (a loaded program's `bpf:prog:<name>`), so
//! pushing a frame never allocates. Frames can be marked as *roots*; folding renders the stack
//! from the **last** root frame onward. That is what makes overhead
//! attribution honest: when TScout's marker handling runs in the middle
//! of a DBMS pipeline, it pushes a `tscout` root frame, so the marker's
//! virtual time folds under `tscout;...`, not under the `dbms;...` stack
//! it interrupted — exactly the DBMS-work vs. collection-work split of
//! the paper's Figs. 5–6.
//!
//! The folded output (`stack;frames count` per line) renders directly
//! with any flamegraph tool; [`Profiler::attribution`] additionally
//! aggregates per top-level frame and reports the `tscout`/`dbms`
//! virtual-ns ratio as a single overhead number.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Default sampling period: one sample per 100 µs of charged virtual
/// time. Fine enough to see every OU in a figure run, coarse enough to
/// keep folded maps small.
pub const DEFAULT_PROFILE_PERIOD_NS: f64 = 100_000.0;

/// Stack name used when an interrupt fires with no frames pushed
/// (e.g. bookkeeping charges outside any instrumented scope).
pub const OTHER_STACK: &str = "(other)";

#[derive(Debug)]
enum FrameName {
    Static(&'static str),
    Shared(Arc<str>),
}

impl FrameName {
    fn as_str(&self) -> &str {
        match self {
            FrameName::Static(s) => s,
            FrameName::Shared(s) => s,
        }
    }
}

#[derive(Debug, Default)]
struct TaskFrames {
    /// `(name, is_root)` — roots re-base attribution (see module docs).
    frames: Vec<(FrameName, bool)>,
}

#[derive(Debug, Default)]
struct ProfileState {
    tasks: Vec<TaskFrames>,
    /// Folded stack -> (samples, attributed virtual ns).
    folded: BTreeMap<String, FoldedEntry>,
    /// Total profiling interrupts fired (== sum of folded samples).
    interrupts: u64,
    /// Reused by `fire` to render the stack it samples.
    key_buf: String,
}

/// Per-folded-stack accumulation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FoldedEntry {
    pub samples: u64,
    pub ns: f64,
}

impl ProfileState {
    fn task_mut(&mut self, task: usize) -> &mut TaskFrames {
        if task >= self.tasks.len() {
            self.tasks.resize_with(task + 1, TaskFrames::default);
        }
        &mut self.tasks[task]
    }

    /// Render the task's stack from its last root frame onward into
    /// `key`, with `leaf` (if any) as one more innermost frame.
    fn fold_key(&self, task: usize, leaf: Option<&str>, key: &mut String) {
        let frames = self.tasks.get(task).map_or(&[][..], |t| {
            let start = t.frames.iter().rposition(|(_, root)| *root).unwrap_or(0);
            &t.frames[start..]
        });
        key.clear();
        for name in frames.iter().map(|(name, _)| name.as_str()).chain(leaf) {
            if !key.is_empty() {
                key.push(';');
            }
            key.push_str(name);
        }
        if key.is_empty() {
            key.push_str(OTHER_STACK);
        }
    }

    /// Record `fires` samples against the task's current stack. A stack
    /// seen before costs no allocation.
    fn fire(&mut self, task: usize, fires: f64, period: f64, leaf: Option<&str>) {
        let n = fires as u64;
        let mut key = std::mem::take(&mut self.key_buf);
        self.fold_key(task, leaf, &mut key);
        if !self.folded.contains_key(key.as_str()) {
            self.folded.insert(key.clone(), FoldedEntry::default());
        }
        let e = self.folded.get_mut(key.as_str()).expect("inserted above");
        e.samples += n;
        e.ns += fires * period;
        self.interrupts += n;
        self.key_buf = key;
    }
}

#[derive(Debug, Default)]
struct Shared {
    period_bits: AtomicU64,
    state: Mutex<ProfileState>,
}

/// Cheap-clone handle to a shared sampling profiler.
///
/// Like [`crate::Telemetry`], clones share state; the `Kernel` owns the
/// canonical handle and every instrumented component clones it. The
/// period is stored as `f64` bits in an atomic so the disabled fast path
/// (`period == 0`) costs one relaxed load and no lock.
#[derive(Clone, Default)]
pub struct Profiler {
    inner: Arc<Shared>,
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.lock();
        f.debug_struct("Profiler")
            .field("period_ns", &self.period_ns())
            .field("interrupts", &st.interrupts)
            .field("stacks", &st.folded.len())
            .finish()
    }
}

impl Profiler {
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, ProfileState> {
        self.inner
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Set the sampling period in virtual ns. `<= 0` (or non-finite)
    /// disables the profiler; frame pushes and charges become no-ops.
    pub fn set_period_ns(&self, period_ns: f64) {
        let p = if period_ns.is_finite() && period_ns > 0.0 {
            period_ns
        } else {
            0.0
        };
        self.inner.period_bits.store(p.to_bits(), Ordering::Relaxed);
    }

    /// Current sampling period (0.0 when disabled).
    pub fn period_ns(&self) -> f64 {
        f64::from_bits(self.inner.period_bits.load(Ordering::Relaxed))
    }

    pub fn is_enabled(&self) -> bool {
        self.period_ns() > 0.0
    }

    /// Push a named frame onto `task`'s stack; the returned guard pops
    /// it on drop. `root` re-bases folding at this frame (see module
    /// docs). No-op (no lock) while disabled; never allocates.
    pub fn push_frame(&self, task: usize, name: &'static str, root: bool) -> FrameGuard {
        self.push_frames(task, [(name, root)])
    }

    /// [`Self::push_frame`] for a name built at run time: the caller
    /// builds the `Arc<str>` once (e.g. when a program is loaded) and
    /// every push shares it.
    pub fn push_frame_shared(&self, task: usize, name: &Arc<str>, root: bool) -> FrameGuard {
        self.push(task, [(FrameName::Shared(Arc::clone(name)), root)])
    }

    /// Push several frames (outermost first, each `(name, root)`) under
    /// one lock; the guard pops them together. For the fixed
    /// `root;marker` pairs collection-side code opens on every marker.
    pub fn push_frames<const N: usize>(
        &self,
        task: usize,
        frames: [(&'static str, bool); N],
    ) -> FrameGuard {
        self.push(
            task,
            frames.map(|(name, root)| (FrameName::Static(name), root)),
        )
    }

    fn push<const N: usize>(&self, task: usize, frames: [(FrameName, bool); N]) -> FrameGuard {
        if !self.is_enabled() {
            return FrameGuard {
                owner: None,
                depth: 0,
            };
        }
        self.lock().task_mut(task).frames.extend(frames);
        FrameGuard {
            owner: Some((self.clone(), task)),
            depth: N,
        }
    }

    fn pop_frames(&self, task: usize, depth: usize) {
        let mut st = self.lock();
        if let Some(t) = st.tasks.get_mut(task) {
            t.frames.truncate(t.frames.len().saturating_sub(depth));
        }
    }

    /// The profiling interrupt source: add `ns` of charged virtual time
    /// to `credit` — the task's charged-but-unsampled remainder, kept by
    /// the caller (the kernel, in its task table) — and fire
    /// `floor(credit / period)` samples against the task's current
    /// stack. Must never alter the charge itself. The lock is only taken
    /// when a sample actually fires.
    ///
    /// `leaf` names a frame that is on top of the stack for exactly this
    /// charge (a BPF helper's body) — cheaper than pushing and popping it
    /// around every charge when almost none of them fire.
    pub fn on_charge(&self, task: usize, credit: &mut f64, ns: f64, leaf: Option<&'static str>) {
        let period = self.period_ns();
        if period <= 0.0 || ns.is_nan() || ns <= 0.0 {
            return;
        }
        *credit += ns;
        let fires = (*credit / period).floor();
        if fires < 1.0 {
            return;
        }
        *credit -= fires * period;
        self.lock().fire(task, fires, period, leaf);
    }

    /// Total profiling interrupts fired so far.
    pub fn interrupts_fired(&self) -> u64 {
        self.lock().interrupts
    }

    /// Folded stacks, sorted by stack name.
    pub fn folded(&self) -> Vec<(String, FoldedEntry)> {
        self.lock()
            .folded
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Flamegraph-ready folded-stack text: one `stack;frames count`
    /// line per distinct stack.
    pub fn folded_text(&self) -> String {
        let mut out = String::new();
        for (k, e) in &self.lock().folded {
            out.push_str(k);
            out.push(' ');
            out.push_str(&e.samples.to_string());
            out.push('\n');
        }
        out
    }

    /// Per-top-level-frame attribution summary (see [`Attribution`]).
    pub fn attribution(&self) -> Attribution {
        let st = self.lock();
        let mut by_top: BTreeMap<String, FoldedEntry> = BTreeMap::new();
        for (k, e) in &st.folded {
            let top = k.split(';').next().unwrap_or(OTHER_STACK).to_string();
            let t = by_top.entry(top).or_default();
            t.samples += e.samples;
            t.ns += e.ns;
        }
        Attribution {
            by_top_frame: by_top,
            total_interrupts: st.interrupts,
        }
    }
}

/// RAII frame guard returned by [`Profiler::push_frame`]; pops the
/// frame(s) it pushed when dropped. Holds a cloned handle, so it never
/// borrows the kernel or the component that pushed it.
#[must_use = "the frame pops when this guard drops"]
#[derive(Debug)]
pub struct FrameGuard {
    owner: Option<(Profiler, usize)>,
    /// Frames to pop.
    depth: usize,
}

impl Drop for FrameGuard {
    fn drop(&mut self) {
        if let Some((p, task)) = self.owner.take() {
            p.pop_frames(task, self.depth);
        }
    }
}

/// Overhead attribution: samples and virtual ns grouped by the
/// top-level (root) frame of each folded stack.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    pub by_top_frame: BTreeMap<String, FoldedEntry>,
    pub total_interrupts: u64,
}

impl Attribution {
    /// Virtual ns attributed to stacks rooted at `top`.
    pub fn ns_of(&self, top: &str) -> f64 {
        self.by_top_frame.get(top).map(|e| e.ns).unwrap_or(0.0)
    }

    /// The paper's Fig. 5/6 overhead number: collection-side virtual ns
    /// over DBMS-side virtual ns. `None` when either side has no
    /// samples (a ratio over zero is noise, not a measurement).
    pub fn tscout_dbms_ratio(&self) -> Option<f64> {
        let tscout = self.ns_of("tscout");
        let dbms = self.ns_of("dbms");
        if tscout > 0.0 && dbms > 0.0 {
            Some(tscout / dbms)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One charge against a task with no unsampled remainder.
    fn charge(p: &Profiler, task: usize, ns: f64) {
        p.on_charge(task, &mut 0.0, ns, None);
    }

    #[test]
    fn disabled_profiler_is_inert() {
        let p = Profiler::new();
        assert!(!p.is_enabled());
        let _g = p.push_frame(0, "dbms", true);
        charge(&p, 0, 1e9);
        assert_eq!(p.interrupts_fired(), 0);
        assert!(p.folded().is_empty());
        assert_eq!(p.folded_text(), "");
    }

    #[test]
    fn samples_are_floor_of_charge_over_period() {
        let p = Profiler::new();
        p.set_period_ns(100.0);
        let _g = p.push_frame(3, "dbms", true);
        let mut credit = 0.0;
        p.on_charge(3, &mut credit, 250.0, None); // 2 fires, 50 credit left
        p.on_charge(3, &mut credit, 49.0, None); // 99 credit — no fire
        p.on_charge(3, &mut credit, 1.0, None); // 100 credit — 1 fire
        assert_eq!(credit, 0.0);
        assert_eq!(p.interrupts_fired(), 3);
        let folded = p.folded();
        assert_eq!(folded.len(), 1);
        assert_eq!(folded[0].0, "dbms");
        assert_eq!(folded[0].1.samples, 3);
        assert_eq!(folded[0].1.ns, 300.0);
    }

    #[test]
    fn root_frames_rebase_attribution() {
        let p = Profiler::new();
        p.set_period_ns(10.0);
        let _dbms = p.push_frame(0, "dbms", true);
        let _op = p.push_frame(0, "ou:seq_scan", false);
        charge(&p, 0, 10.0);
        {
            let _ts = p.push_frame(0, "tscout", true);
            let _col = p.push_frame(0, "collector", false);
            charge(&p, 0, 20.0);
        }
        charge(&p, 0, 10.0); // back under dbms after guards dropped
        let folded: BTreeMap<String, FoldedEntry> = p.folded().into_iter().collect();
        assert_eq!(folded["dbms;ou:seq_scan"].samples, 2);
        assert_eq!(folded["tscout;collector"].samples, 2);
        assert_eq!(p.interrupts_fired(), 4);
    }

    #[test]
    fn empty_stack_folds_to_other() {
        let p = Profiler::new();
        p.set_period_ns(5.0);
        charge(&p, 1, 12.0);
        let folded = p.folded();
        assert_eq!(folded.len(), 1);
        assert_eq!(folded[0].0, OTHER_STACK);
        assert_eq!(folded[0].1.samples, 2);
    }

    #[test]
    fn folded_samples_sum_to_interrupts() {
        let p = Profiler::new();
        p.set_period_ns(7.0);
        for task in 0..4usize {
            let _g = p.push_frame(task, if task % 2 == 0 { "dbms" } else { "tscout" }, true);
            charge(&p, task, 13.0 * (task as f64 + 1.0));
        }
        let total: u64 = p.folded().iter().map(|(_, e)| e.samples).sum();
        assert_eq!(total, p.interrupts_fired());
        assert!(p.interrupts_fired() > 0);
    }

    #[test]
    fn attribution_ratio() {
        let p = Profiler::new();
        p.set_period_ns(10.0);
        {
            let _g = p.push_frame(0, "dbms", true);
            let _h = p.push_frame(0, "ou:sort", false);
            charge(&p, 0, 300.0);
        }
        {
            let _g = p.push_frame(0, "tscout", true);
            charge(&p, 0, 100.0);
        }
        let a = p.attribution();
        assert_eq!(a.ns_of("dbms"), 300.0);
        assert_eq!(a.ns_of("tscout"), 100.0);
        let r = a.tscout_dbms_ratio().unwrap();
        assert!((r - 1.0 / 3.0).abs() < 1e-12);
        // Single-sided profile has no ratio.
        let q = Profiler::new();
        q.set_period_ns(1.0);
        let _g = q.push_frame(0, "dbms", true);
        charge(&q, 0, 5.0);
        assert!(q.attribution().tscout_dbms_ratio().is_none());
    }

    #[test]
    fn folded_text_is_flamegraph_shaped() {
        let p = Profiler::new();
        p.set_period_ns(10.0);
        let _g = p.push_frame(0, "dbms", true);
        let _h = p.push_frame(0, "wal", false);
        charge(&p, 0, 35.0);
        assert_eq!(p.folded_text(), "dbms;wal 3\n");
    }
}
