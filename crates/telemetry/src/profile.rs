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
//! Stacks are built cooperatively: components push frames onto their
//! task's [`TaskFrames`] with [`Profiler::push_frames`] (RAII — the
//! returned [`FrameGuard`] pops on drop). A frame is a [`FrameId`]: its
//! name interned once — a `static` [`Frame`] declared where it is pushed,
//! or [`FrameId::intern`] where the name is only known at run time (a
//! loaded program's `bpf:prog:<name>`) — so a push stores a `u32` and a
//! pop decrements a depth: no lock, no allocation, no reference count.
//! A stack is a `&'static` slot array from a process-wide spare list
//! (leaked only when the list is empty, returned when its task drops),
//! and the guard remembers the stack's generation, bumped on every
//! return: a guard that outlives its task pops nothing from the stack's
//! next owner. The mutex is taken when a sample fires and by
//! readers, and only then are ids folded back to names. Root frames
//! re-base folding: a stack renders from its **last** root frame onward.
//! That is what makes overhead attribution honest: when TScout's marker
//! handling runs in the middle of a DBMS pipeline, it pushes the
//! [`TSCOUT`] root, so the marker's virtual time folds under
//! `tscout;...`, not under the `dbms;...` stack it interrupted — exactly
//! the DBMS-work vs. collection-work split of the paper's Figs. 5–6.
//!
//! The folded output (`stack;frames count` per line) renders directly
//! with any flamegraph tool; [`Profiler::attribution`] additionally
//! aggregates per top-level frame and reports the `tscout`/`dbms`
//! virtual-ns ratio as a single overhead number.
//!
//! The same frames also measure **wall** time, beside and apart from the
//! virtual clock. One in [`WALL_EVERY`] root-frame pushes on a task marks
//! its stack timed; every frame pushed while it stays timed takes an
//! [`Instant`] reading, and its pop adds the frame's wall and self ns
//! (self: less its timed children) to a process-wide slot per
//! [`FrameId`], which [`Profiler::wall`] reads. Pushes still take no lock
//! and allocate nothing, and no virtual nanosecond, fold or sample
//! depends on a reading.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Default sampling period: one sample per 100 µs of charged virtual
/// time. Fine enough to see every OU in a figure run, coarse enough to
/// keep folded maps small.
pub const DEFAULT_PROFILE_PERIOD_NS: f64 = 100_000.0;

/// Stack name used when an interrupt fires with no frames pushed
/// (e.g. bookkeeping charges outside any instrumented scope).
pub const OTHER_STACK: &str = "(other)";

/// Frames a task's stack records; deeper pushes are counted (so pops
/// stay balanced) but fold as if they were not there.
const MAX_DEPTH: usize = 64;

/// One in this many root-frame pushes on a task times the stack it
/// opens (see the module docs). Prime, so that no short cycle of root
/// kinds on a task always lands on the same one; large, so that timed
/// stacks, whose every push and pop reads the clock, stay rare.
pub const WALL_EVERY: u32 = 1021;
const _: () = assert!(WALL_EVERY > 0);

/// Frame ids with a wall-time slot; frames interned past them are not
/// timed.
const WALL_FRAMES: usize = 512;

/// One frame's wall time, summed over its timed pops.
#[derive(Debug)]
struct WallSlot {
    pops: AtomicU64,
    wall_ns: AtomicU64,
    self_ns: AtomicU64,
}

static WALL: [WallSlot; WALL_FRAMES] = [const {
    WallSlot {
        pops: AtomicU64::new(0),
        wall_ns: AtomicU64::new(0),
        self_ns: AtomicU64::new(0),
    }
}; WALL_FRAMES];

/// Wall-clock ns since the first reading in the process.
fn wall_now() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let ns = EPOCH.get_or_init(Instant::now).elapsed().as_nanos();
    u64::try_from(ns).unwrap_or(u64::MAX)
}

/// One frame's wall time over a process's timed pops (see
/// [`Profiler::wall`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WallLayer {
    pub frame: String,
    /// Timed pops of the frame.
    pub pops: u64,
    pub wall_ns: u64,
    /// `wall_ns` less the wall time of the frames pushed above it.
    pub self_ns: u64,
}

/// The root of every DBMS-side stack.
pub static DBMS: Frame = Frame::root("dbms");
/// The root of every collection-side stack.
pub static TSCOUT: Frame = Frame::root("tscout");

/// Every interned frame name; a [`FrameId`] indexes it. Process-wide, so
/// an id means the same name to every profiler.
static NAMES: Mutex<Vec<Box<str>>> = Mutex::new(Vec::new());

/// An interned frame name and whether it is a root: what a stack stores.
#[derive(Debug, Clone, Copy)]
pub struct FrameId(u32);

impl FrameId {
    /// Intern `name` (once per distinct name; takes a lock — do it where
    /// the name is built, not where it is pushed).
    pub fn intern(name: &str, root: bool) -> FrameId {
        let mut names = NAMES.lock().unwrap_or_else(PoisonError::into_inner);
        let known = names.iter().position(|n| **n == *name);
        let index = known.unwrap_or_else(|| {
            names.push(name.into());
            names.len() - 1
        });
        // Never 0, which is a `Frame`'s "not interned yet".
        #[allow(clippy::cast_possible_truncation)] // frame names number in the hundreds, not 2^31
        FrameId(((index as u32 + 1) << 1) | root as u32)
    }

    fn is_root(self) -> bool {
        self.0 & 1 == 1
    }

    fn index(self) -> usize {
        ((self.0 >> 1) as usize).wrapping_sub(1)
    }

    fn name(self, names: &[Box<str>]) -> &str {
        names.get(self.index()).map_or("?", |n| n)
    }
}

/// A frame name known at compile time, declared once as a `static` and
/// interned the first time it is pushed.
#[derive(Debug)]
pub struct Frame {
    name: &'static str,
    root: bool,
    id: AtomicU32,
}

impl Frame {
    pub const fn new(name: &'static str) -> Frame {
        Frame {
            name,
            root: false,
            id: AtomicU32::new(0),
        }
    }

    /// A frame folding re-bases at (see the module docs).
    pub const fn root(name: &'static str) -> Frame {
        Frame {
            root: true,
            ..Frame::new(name)
        }
    }

    pub fn id(&self) -> FrameId {
        match self.id.load(Relaxed) {
            // Racing first uses intern the same name to the same id.
            0 => {
                let id = FrameId::intern(self.name, self.root);
                self.id.store(id.0, Relaxed);
                id
            }
            id => FrameId(id),
        }
    }
}

// What every push and pop reads comes first, on one cache line.
#[repr(C)]
#[derive(Debug)]
struct FrameSlots {
    /// Bumped each time the stack goes back to the spare list.
    generation: AtomicU32,
    /// Frames pushed and not popped; may exceed [`MAX_DEPTH`].
    depth: AtomicU32,
    /// One past the depth of the first timed frame; 0 while untimed.
    timed_from: AtomicU32,
    /// Root pushes left, while untimed, before the next one is timed.
    roots: AtomicU32,
    slots: [AtomicU32; MAX_DEPTH],
    /// Kept apart, so that an untimed push or pop touches only the lines
    /// above.
    timing: &'static WallTiming,
}

/// Per slot of a timed frame: [`wall_now`] at its push, and the wall ns
/// of the timed frames popped above it.
#[derive(Debug)]
struct WallTiming {
    started: [AtomicU64; MAX_DEPTH],
    children: [AtomicU64; MAX_DEPTH],
}

impl FrameSlots {
    /// Whether the `n` frames just pushed above `depth` are timed: on a
    /// timed stack, always; on an untimed one, when a root among them is
    /// the one in [`WALL_EVERY`] root pushes that opens a timed stack.
    /// Returns `n`, with [`TIMED`] set if they are.
    #[inline(always)]
    fn wall_push<const N: usize>(&self, frames: &[FrameId; N], depth: u32, n: u32) -> u32 {
        if self.timed_from.load(Relaxed) != 0 {
            return self.start_wall(depth, n);
        }
        if !frames.iter().any(|f| f.is_root()) {
            return n;
        }
        // Only the task's own thread pushes: a load and a store.
        let left = self.roots.load(Relaxed);
        self.roots
            .store(left.checked_sub(1).unwrap_or(WALL_EVERY - 1), Relaxed);
        if left == 0 {
            self.start_wall(depth, n)
        } else {
            n
        }
    }

    /// Time the `n` frames just pushed above `depth`, opening the timed
    /// stack at them if none is open. Returns `n | TIMED`.
    #[cold]
    #[inline(never)]
    fn start_wall(&self, depth: u32, n: u32) -> u32 {
        if self.timed_from.load(Relaxed) == 0 {
            self.timed_from.store(depth + 1, Relaxed);
        }
        let now = wall_now();
        let opened = depth as usize..(depth + n) as usize;
        for d in opened.take_while(|&d| d < MAX_DEPTH) {
            self.timing.started[d].store(now, Relaxed);
            self.timing.children[d].store(0, Relaxed);
        }
        n | TIMED
    }

    /// Add the timed frames at depths `from..to` (innermost first) to
    /// their wall slots, and each one's wall to its timed parent's
    /// children; end the timing when its first frame pops.
    #[cold]
    #[inline(never)]
    fn record_wall(&self, from: u32, to: u32) {
        let timed_from = self.timed_from.load(Relaxed);
        let now = wall_now();
        for d in (from as usize..(to as usize).min(MAX_DEPTH)).rev() {
            let wall = now.saturating_sub(self.timing.started[d].load(Relaxed));
            let children = self.timing.children[d].load(Relaxed);
            if let Some(slot) = WALL.get(FrameId(self.slots[d].load(Relaxed)).index()) {
                slot.pops.fetch_add(1, Relaxed);
                slot.wall_ns.fetch_add(wall, Relaxed);
                slot.self_ns
                    .fetch_add(wall.saturating_sub(children), Relaxed);
            }
            if d >= timed_from as usize {
                self.timing.children[d - 1].fetch_add(wall, Relaxed);
            }
        }
        if from < timed_from {
            self.timed_from.store(0, Relaxed);
        }
    }
}

/// Stacks no task holds, and how many stacks were ever leaked: each is
/// either held or spare, so `leaked` is the peak number held at once.
struct Spare {
    stacks: Vec<&'static FrameSlots>,
    leaked: usize,
}

static SPARE: Mutex<Spare> = Mutex::new(Spare {
    stacks: Vec::new(),
    leaked: 0,
});

fn spare() -> MutexGuard<'static, Spare> {
    SPARE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One task's execution-context stack, kept by whoever keeps the task
/// (the kernel, in its task table); dropping it returns the stack to the
/// spare list. Written by the thread that simulates the task and read by
/// it when a sample fires, so the atomics are `Relaxed`: they publish
/// nothing, they only let the owner stay `Send + Sync`. A guard dropped
/// out of order, or after its task, leaves a wrong stack — never a panic,
/// never another task's stack.
#[derive(Debug)]
pub struct TaskFrames(&'static FrameSlots);

impl Default for TaskFrames {
    fn default() -> Self {
        let mut spare = spare();
        let stack = spare.stacks.pop().unwrap_or_else(|| {
            spare.leaked += 1;
            Box::leak(Box::new(FrameSlots {
                generation: AtomicU32::new(0),
                depth: AtomicU32::new(0),
                slots: [const { AtomicU32::new(0) }; MAX_DEPTH],
                roots: AtomicU32::new(0),
                timed_from: AtomicU32::new(0),
                timing: Box::leak(Box::new(WallTiming {
                    started: [const { AtomicU64::new(0) }; MAX_DEPTH],
                    children: [const { AtomicU64::new(0) }; MAX_DEPTH],
                })),
            }))
        });
        TaskFrames(stack)
    }
}

impl Drop for TaskFrames {
    fn drop(&mut self) {
        self.0.generation.fetch_add(1, Relaxed);
        self.0.depth.store(0, Relaxed);
        self.0.timed_from.store(0, Relaxed);
        self.0.roots.store(0, Relaxed);
        spare().stacks.push(self.0);
    }
}

impl TaskFrames {
    /// Stacks ever leaked process-wide: the peak number of `TaskFrames`
    /// alive at once, as every other one came off the spare list.
    #[doc(hidden)]
    pub fn leaked() -> usize {
        spare().leaked
    }

    /// Render the stack from its last root frame onward into `key`, with
    /// `leaf` (if any) as one more innermost frame.
    fn fold_key(&self, leaf: Option<&str>, key: &mut String) {
        let depth = (self.0.depth.load(Relaxed) as usize).min(MAX_DEPTH);
        let frame = |slot: &AtomicU32| FrameId(slot.load(Relaxed));
        let frames = &self.0.slots[..depth];
        let start = frames.iter().rposition(|f| frame(f).is_root()).unwrap_or(0);
        let names = NAMES.lock().unwrap_or_else(PoisonError::into_inner);
        let frames = frames[start..].iter().map(|f| frame(f).name(&names));
        key.clear();
        for name in frames.chain(leaf) {
            if !key.is_empty() {
                key.push(';');
            }
            key.push_str(name);
        }
        if key.is_empty() {
            key.push_str(OTHER_STACK);
        }
    }
}

#[derive(Debug, Default)]
struct ProfileState {
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
    /// Record `fires` samples against `stack`. A stack seen before costs
    /// no allocation.
    fn fire(&mut self, stack: &TaskFrames, fires: f64, period: f64, leaf: Option<&str>) {
        // fires is floored, non-negative and far below 2^64.
        #[allow(clippy::cast_possible_truncation)]
        let n = fires as u64;
        let mut key = std::mem::take(&mut self.key_buf);
        stack.fold_key(leaf, &mut key);
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
        self.inner.period_bits.store(p.to_bits(), Relaxed);
    }

    /// Current sampling period (0.0 when disabled).
    pub fn period_ns(&self) -> f64 {
        f64::from_bits(self.inner.period_bits.load(Relaxed))
    }

    pub fn is_enabled(&self) -> bool {
        self.period_ns() > 0.0
    }

    /// Wall time per frame over every timed pop in the process so far,
    /// by frame name, frames never timed left out. The slots are
    /// process-wide, as frame ids are: what another profiler's tasks
    /// timed is in them too.
    pub fn wall(&self) -> Vec<WallLayer> {
        let names = NAMES.lock().unwrap_or_else(PoisonError::into_inner);
        let mut layers: Vec<WallLayer> = WALL
            .iter()
            .zip(names.iter())
            .filter(|(slot, _)| slot.pops.load(Relaxed) > 0)
            .map(|(slot, name)| WallLayer {
                frame: name.to_string(),
                pops: slot.pops.load(Relaxed),
                wall_ns: slot.wall_ns.load(Relaxed),
                self_ns: slot.self_ns.load(Relaxed),
            })
            .collect();
        layers.sort_by(|a, b| a.frame.cmp(&b.frame));
        layers
    }

    /// Push `frames` onto `stack`, outermost first; the returned guard
    /// pops them together on drop. No-op while disabled; takes no lock
    /// and never allocates.
    #[inline]
    pub fn push_frames<const N: usize>(
        &self,
        stack: &TaskFrames,
        frames: [FrameId; N],
    ) -> FrameGuard {
        if !self.is_enabled() {
            return FrameGuard { stack: None };
        }
        let s = stack.0;
        let depth = s.depth.load(Relaxed);
        for (slot, frame) in s.slots.iter().skip(depth as usize).zip(frames) {
            slot.store(frame.0, Relaxed);
        }
        #[allow(clippy::cast_possible_truncation)] // N frames are a handful
        let n = N as u32;
        s.depth.store(depth + n, Relaxed);
        let pushed = s.wall_push(&frames, depth, n);
        FrameGuard {
            stack: Some((s, s.generation.load(Relaxed), pushed)),
        }
    }

    /// The profiling interrupt source: add `ns` of charged virtual time
    /// to `credit` — the task's charged-but-unsampled remainder, kept by
    /// the caller beside the task's `stack` — and fire
    /// `floor(credit / period)` samples against that stack. Must never
    /// alter the charge itself. The lock is only taken when a sample
    /// actually fires. A non-finite or non-positive `ns` is ignored: an
    /// infinite one would leave the task's credit `NaN` for good.
    ///
    /// `leaf` names a frame that is on top of the stack for exactly this
    /// charge (a BPF helper's body) — cheaper than pushing and popping it
    /// around every charge when almost none of them fire.
    pub fn on_charge(
        &self,
        stack: &TaskFrames,
        credit: &mut f64,
        ns: f64,
        leaf: Option<&'static str>,
    ) {
        let period = self.period_ns();
        if period <= 0.0 || !ns.is_finite() || ns <= 0.0 {
            return;
        }
        *credit += ns;
        // (`credit < period` is `floor(credit / period) < 1`, without
        // the division.)
        if *credit < period {
            return;
        }
        let fires = (*credit / period).floor();
        *credit -= fires * period;
        self.lock().fire(stack, fires, period, leaf);
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

/// RAII frame guard returned by [`Profiler::push_frames`]; pops the
/// frame(s) it pushed when dropped, unless the stack has gone back to
/// the spare list since. Holds the stack itself (it is `'static`), so it
/// never borrows the kernel or the component that pushed it.
#[must_use = "the frame pops when this guard drops"]
#[derive(Debug)]
pub struct FrameGuard {
    /// The stack, its generation at the push, and how many frames to pop
    /// — with [`TIMED`] set when the push was timed.
    stack: Option<(&'static FrameSlots, u32, u32)>,
}

/// The bit of [`FrameGuard`]'s frame count that marks a timed push.
const TIMED: u32 = 1 << 31;

impl Drop for FrameGuard {
    // Every pop runs this, in every crate that pushes: without the hint
    // its out-of-line call to `record_wall` would keep it from being
    // inlined across crates.
    #[inline]
    fn drop(&mut self) {
        if let Some((slots, generation, pushed)) = self.stack {
            if slots.generation.load(Relaxed) == generation {
                let depth = slots.depth.load(Relaxed);
                let popped = depth.saturating_sub(pushed & !TIMED);
                if pushed & TIMED != 0 && slots.timed_from.load(Relaxed) != 0 {
                    slots.record_wall(popped, depth);
                }
                slots.depth.store(popped, Relaxed);
            }
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

    static OP: Frame = Frame::new("ou:seq_scan");
    static COLLECTOR: Frame = Frame::new("collector");

    /// One charge against a task with no unsampled remainder.
    fn charge(p: &Profiler, stack: &TaskFrames, ns: f64) {
        p.on_charge(stack, &mut 0.0, ns, None);
    }

    #[test]
    fn disabled_profiler_is_inert() {
        let (p, t) = (Profiler::new(), TaskFrames::default());
        assert!(!p.is_enabled());
        let _g = p.push_frames(&t, [DBMS.id()]);
        charge(&p, &t, 1e9);
        assert_eq!(p.interrupts_fired(), 0);
        assert!(p.folded().is_empty());
        assert_eq!(p.folded_text(), "");
    }

    #[test]
    fn samples_are_floor_of_charge_over_period() {
        let (p, t) = (Profiler::new(), TaskFrames::default());
        p.set_period_ns(100.0);
        let _g = p.push_frames(&t, [DBMS.id()]);
        let mut credit = 0.0;
        p.on_charge(&t, &mut credit, 250.0, None); // 2 fires, 50 credit left
        p.on_charge(&t, &mut credit, 49.0, None); // 99 credit — no fire
        p.on_charge(&t, &mut credit, 1.0, None); // 100 credit — 1 fire
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
        let (p, t) = (Profiler::new(), TaskFrames::default());
        p.set_period_ns(10.0);
        let _dbms = p.push_frames(&t, [DBMS.id()]);
        let _op = p.push_frames(&t, [OP.id()]);
        charge(&p, &t, 10.0);
        {
            let _ts = p.push_frames(&t, [TSCOUT.id(), COLLECTOR.id()]);
            charge(&p, &t, 20.0);
        }
        charge(&p, &t, 10.0); // back under dbms after the guard dropped
        let folded: BTreeMap<String, FoldedEntry> = p.folded().into_iter().collect();
        assert_eq!(folded["dbms;ou:seq_scan"].samples, 2);
        assert_eq!(folded["tscout;collector"].samples, 2);
        assert_eq!(p.interrupts_fired(), 4);
    }

    #[test]
    fn empty_stack_folds_to_other() {
        let (p, t) = (Profiler::new(), TaskFrames::default());
        p.set_period_ns(5.0);
        charge(&p, &t, 12.0);
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
            let t = TaskFrames::default();
            let _g = p.push_frames(&t, [if task % 2 == 0 { &DBMS } else { &TSCOUT }.id()]);
            charge(&p, &t, 13.0 * (task as f64 + 1.0));
        }
        let total: u64 = p.folded().iter().map(|(_, e)| e.samples).sum();
        assert_eq!(total, p.interrupts_fired());
        assert!(p.interrupts_fired() > 0);
    }

    #[test]
    fn attribution_ratio() {
        let (p, t) = (Profiler::new(), TaskFrames::default());
        p.set_period_ns(10.0);
        {
            let _g = p.push_frames(&t, [DBMS.id(), OP.id()]);
            charge(&p, &t, 300.0);
        }
        {
            let _g = p.push_frames(&t, [TSCOUT.id()]);
            charge(&p, &t, 100.0);
        }
        let a = p.attribution();
        assert_eq!(a.ns_of("dbms"), 300.0);
        assert_eq!(a.ns_of("tscout"), 100.0);
        let r = a.tscout_dbms_ratio().unwrap();
        assert!((r - 1.0 / 3.0).abs() < 1e-12);
        // Single-sided profile has no ratio.
        let q = Profiler::new();
        q.set_period_ns(1.0);
        let _g = q.push_frames(&t, [DBMS.id()]);
        charge(&q, &t, 5.0);
        assert!(q.attribution().tscout_dbms_ratio().is_none());
    }

    #[test]
    fn folded_text_is_flamegraph_shaped() {
        let (p, t) = (Profiler::new(), TaskFrames::default());
        p.set_period_ns(10.0);
        let _g = p.push_frames(&t, [DBMS.id()]);
        charge(&p, &t, 30.0);
        p.on_charge(&t, &mut 0.0, 15.0, Some("wal"));
        assert_eq!(p.folded_text(), "dbms 3\ndbms;wal 1\n");
    }

    /// An infinite charge samples nothing and leaves the task's credit
    /// finite, so the task's later charges fold as usual.
    #[test]
    fn an_infinite_charge_leaves_the_task_sampling() {
        let (p, t) = (Profiler::new(), TaskFrames::default());
        p.set_period_ns(10.0);
        let _g = p.push_frames(&t, [DBMS.id()]);
        let mut credit = 5.0;
        for ns in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            p.on_charge(&t, &mut credit, ns, None);
        }
        assert_eq!((credit, p.interrupts_fired()), (5.0, 0));
        p.on_charge(&t, &mut credit, 15.0, None);
        assert_eq!(credit, 0.0);
        assert_eq!(p.folded_text(), "dbms 2\n");
        assert_eq!(p.attribution().ns_of("dbms"), 20.0);
    }

    /// The wall slot of `frame` (each test times frames of its own, as
    /// the slots are process-wide).
    fn wall_of(p: &Profiler, frame: &Frame) -> Option<WallLayer> {
        p.wall().into_iter().find(|l| l.frame == frame.name)
    }

    /// A timed root and a frame pushed above it: each pop adds its wall
    /// time, the root's self time is its wall less the frame's, and a
    /// frame pushed before the root is not timed. A task's first root
    /// push is timed.
    #[test]
    fn timed_frames_record_wall_and_self_time() {
        static BELOW: Frame = Frame::new("wall-test:below");
        static ROOT: Frame = Frame::root("wall-test:root");
        static ABOVE: Frame = Frame::new("wall-test:above");
        let (p, t) = (Profiler::new(), TaskFrames::default());
        p.set_period_ns(10.0);
        let below = p.push_frames(&t, [BELOW.id()]);
        {
            let _root = p.push_frames(&t, [ROOT.id()]);
            let _above = p.push_frames(&t, [ABOVE.id()]);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        drop(below);
        assert_eq!(wall_of(&p, &BELOW), None);
        let (root, above) = (wall_of(&p, &ROOT).unwrap(), wall_of(&p, &ABOVE).unwrap());
        assert_eq!((root.pops, above.pops), (1, 1));
        assert!(above.wall_ns >= 2_000_000, "{above:?}");
        assert_eq!(above.self_ns, above.wall_ns);
        assert!(root.wall_ns >= above.wall_ns, "{root:?}");
        assert_eq!(root.self_ns, root.wall_ns - above.wall_ns);
        // The root's pop ended the timing: a frame pushed after it is not
        // timed.
        drop(p.push_frames(&t, [ABOVE.id()]));
        assert_eq!(wall_of(&p, &ABOVE).unwrap().pops, 1);
    }

    /// One in `WALL_EVERY` root pushes opens a timed stack, and none
    /// while the profiler is off.
    #[test]
    fn one_in_every_root_push_is_timed() {
        static ROOT: Frame = Frame::root("wall-test:every");
        let (p, t) = (Profiler::new(), TaskFrames::default());
        for _ in 0..WALL_EVERY {
            drop(p.push_frames(&t, [ROOT.id()]));
        }
        assert_eq!(wall_of(&p, &ROOT), None);
        p.set_period_ns(10.0);
        for _ in 0..3 * WALL_EVERY {
            drop(p.push_frames(&t, [ROOT.id()]));
        }
        assert_eq!(wall_of(&p, &ROOT).unwrap().pops, 3);
    }

    /// An infinite charge on one task does not overflow the interrupt
    /// count when another task samples next.
    #[test]
    fn an_infinite_charge_does_not_overflow_another_tasks_sample() {
        let (a, b) = (TaskFrames::default(), TaskFrames::default());
        let p = Profiler::new();
        p.set_period_ns(10.0);
        p.on_charge(&a, &mut 0.0, f64::INFINITY, None);
        let _g = p.push_frames(&b, [TSCOUT.id()]);
        charge(&p, &b, 10.0);
        assert_eq!(p.interrupts_fired(), 1);
        assert_eq!(p.folded_text(), "tscout 1\n");
    }
}
