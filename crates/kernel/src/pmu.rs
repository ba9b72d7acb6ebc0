//! Simulated performance-monitoring unit (PMU).
//!
//! Real CPUs expose a small number of programmable counter slots (four per
//! hyperthread on the paper's Xeons). When software enables more events than
//! slots, the kernel time-multiplexes the events across the slots: each event
//! only counts while it is scheduled on a slot, and `perf_event` reads return
//! `(raw_value, time_enabled, time_running)` so the reader can scale the raw
//! value by `enabled / running` to estimate the true count.
//!
//! TScout's CPU probe performs exactly that normalization (paper §4.1), so
//! the simulation must reproduce the mechanism: with `n` enabled events and
//! `s` slots, each event accumulates only `s/n` of the work charged while
//! multiplexed, and accumulates `time_running = time_enabled * s/n`.

/// Hardware event kinds supported by the simulated PMU.
///
/// These are the pipeline and cache events TScout's CPU probe collects
/// (paper §4.1: cycles, instructions, reference cycles, cache references,
/// cache misses; we also expose branch events as the Linux perf API does).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CounterKind {
    Cycles,
    Instructions,
    RefCycles,
    CacheReferences,
    CacheMisses,
    Branches,
    BranchMisses,
}

/// All counters, in the canonical order used by generated BPF programs.
pub const ALL_COUNTERS: [CounterKind; 7] = [
    CounterKind::Cycles,
    CounterKind::Instructions,
    CounterKind::RefCycles,
    CounterKind::CacheReferences,
    CounterKind::CacheMisses,
    CounterKind::Branches,
    CounterKind::BranchMisses,
];

impl CounterKind {
    /// Index into per-event arrays.
    pub fn index(self) -> usize {
        match self {
            CounterKind::Cycles => 0,
            CounterKind::Instructions => 1,
            CounterKind::RefCycles => 2,
            CounterKind::CacheReferences => 3,
            CounterKind::CacheMisses => 4,
            CounterKind::Branches => 5,
            CounterKind::BranchMisses => 6,
        }
    }

    pub fn from_index(i: usize) -> Option<Self> {
        ALL_COUNTERS.get(i).copied()
    }

    pub fn name(self) -> &'static str {
        match self {
            CounterKind::Cycles => "cpu_cycles",
            CounterKind::Instructions => "instructions",
            CounterKind::RefCycles => "ref_cycles",
            CounterKind::CacheReferences => "cache_references",
            CounterKind::CacheMisses => "cache_misses",
            CounterKind::Branches => "branches",
            CounterKind::BranchMisses => "branch_misses",
        }
    }
}

/// A `perf_event` style reading: raw value plus multiplexing bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PmuReading {
    /// Raw accumulated count (already scaled down by multiplexing).
    pub value: u64,
    /// Nanoseconds the event has been enabled.
    pub time_enabled: u64,
    /// Nanoseconds the event was actually scheduled on a hardware slot.
    pub time_running: u64,
}

impl PmuReading {
    /// Scale the raw value by `enabled / running` — the normalization
    /// TScout's CPU probe performs transparently (paper §4.1).
    pub fn normalized(&self) -> f64 {
        if self.time_running == 0 {
            0.0
        } else {
            self.value as f64 * self.time_enabled as f64 / self.time_running as f64
        }
    }
}

/// Per-task simulated PMU.
#[derive(Debug, Clone)]
pub struct Pmu {
    slots: usize,
    /// Per event, indexed by [`CounterKind::index`]: the raw count and
    /// the two multiplexing clocks, as `f64` so that the fractions of
    /// multiplexed charges accumulate.
    raw: [f64; 7],
    time_enabled: [f64; 7],
    time_running: [f64; 7],
    enabled: [bool; 7],
    /// How many events are enabled, and [`Pmu::running_fraction`] for
    /// that many: both kept by `enable` and `disable`, not recounted per
    /// charge.
    n_enabled: usize,
    frac: f64,
}

/// True counts accrued by one charge, before multiplexing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CounterDelta {
    pub cycles: f64,
    pub instructions: f64,
    pub ref_cycles: f64,
    pub cache_references: f64,
    pub cache_misses: f64,
    pub branches: f64,
    pub branch_misses: f64,
}

impl CounterDelta {
    /// The counts indexed by [`CounterKind::index`].
    fn counts(&self) -> [f64; 7] {
        [
            self.cycles,
            self.instructions,
            self.ref_cycles,
            self.cache_references,
            self.cache_misses,
            self.branches,
            self.branch_misses,
        ]
    }
}

impl Pmu {
    pub fn new(slots: usize) -> Self {
        assert!(slots > 0, "a PMU needs at least one counter slot");
        Pmu {
            slots,
            raw: [0.0; 7],
            time_enabled: [0.0; 7],
            time_running: [0.0; 7],
            enabled: [false; 7],
            n_enabled: 0,
            frac: 0.0,
        }
    }

    /// Fraction of the time a given enabled event holds a hardware slot.
    pub fn running_fraction(&self) -> f64 {
        self.frac
    }

    fn set_enabled(&mut self, kind: CounterKind, on: bool) {
        self.enabled[kind.index()] = on;
        self.n_enabled = self.enabled.iter().filter(|&&e| e).count();
        self.frac = if self.n_enabled == 0 {
            0.0
        } else {
            (self.slots as f64 / self.n_enabled as f64).min(1.0)
        };
    }

    /// Enable an event (idempotent). Mirrors `ioctl(PERF_EVENT_IOC_ENABLE)`.
    pub fn enable(&mut self, kind: CounterKind) {
        self.set_enabled(kind, true);
    }

    /// Disable an event (idempotent). Accumulated values are retained, as
    /// with real perf fds.
    pub fn disable(&mut self, kind: CounterKind) {
        self.set_enabled(kind, false);
    }

    pub fn is_enabled(&self, kind: CounterKind) -> bool {
        self.enabled[kind.index()]
    }

    /// Charge work to the PMU: `delta` holds *true* counts over `elapsed_ns`
    /// of task time. Each enabled event accrues only its multiplexed share.
    pub fn charge(&mut self, delta: &CounterDelta, elapsed_ns: f64) {
        if self.n_enabled == 0 {
            return;
        }
        let (frac, counts) = (self.frac, delta.counts());
        let mut accrue = |i: usize| {
            self.raw[i] += counts[i] * frac;
            self.time_enabled[i] += elapsed_ns;
            self.time_running[i] += elapsed_ns * frac;
        };
        // All seven (what the CPU probe enables) is one pass over whole
        // arrays, which the compiler unrolls and vectorizes lane by lane:
        // the same operations per event, so the same bits.
        if self.n_enabled == ALL_COUNTERS.len() {
            (0..ALL_COUNTERS.len()).for_each(accrue);
        } else {
            for i in 0..ALL_COUNTERS.len() {
                if self.enabled[i] {
                    accrue(i);
                }
            }
        }
    }

    /// Read an event, `perf_event` style. Reading a disabled (never enabled)
    /// event returns zeros, as a freshly opened fd would.
    // A counter reads whole events: `as` drops the fraction by design
    // (and saturates, so a NaN or negative accrual reads 0).
    #[allow(clippy::cast_possible_truncation)]
    pub fn read(&self, kind: CounterKind) -> PmuReading {
        let i = kind.index();
        PmuReading {
            value: self.raw[i] as u64,
            time_enabled: self.time_enabled[i] as u64,
            time_running: self.time_running[i] as u64,
        }
    }

    /// Reset all counters (used by toggled user-space collection between
    /// operating units).
    pub fn reset(&mut self) {
        self.raw = [0.0; 7];
        self.time_enabled = [0.0; 7];
        self.time_running = [0.0; 7];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn delta(cycles: f64) -> CounterDelta {
        CounterDelta {
            cycles,
            instructions: cycles * 1.5,
            ..Default::default()
        }
    }

    #[test]
    fn no_multiplexing_within_slot_budget() {
        let mut pmu = Pmu::new(4);
        pmu.enable(CounterKind::Cycles);
        pmu.enable(CounterKind::Instructions);
        pmu.charge(&delta(1000.0), 500.0);
        let r = pmu.read(CounterKind::Cycles);
        assert_eq!(r.value, 1000);
        assert_eq!(r.time_enabled, r.time_running);
        assert!((r.normalized() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn multiplexing_scales_raw_but_normalization_recovers() {
        let mut pmu = Pmu::new(4);
        for kind in ALL_COUNTERS {
            pmu.enable(kind);
        }
        // 7 events on 4 slots: running fraction 4/7.
        assert!((pmu.running_fraction() - 4.0 / 7.0).abs() < 1e-12);
        pmu.charge(&delta(7000.0), 700.0);
        let r = pmu.read(CounterKind::Cycles);
        assert_eq!(r.value, 4000); // 7000 * 4/7
        assert_eq!(r.time_enabled, 700);
        assert_eq!(r.time_running, 400);
        assert!((r.normalized() - 7000.0).abs() < 1.0);
    }

    #[test]
    fn disabled_events_do_not_accumulate() {
        let mut pmu = Pmu::new(4);
        pmu.enable(CounterKind::Cycles);
        pmu.charge(&delta(100.0), 10.0);
        pmu.disable(CounterKind::Cycles);
        pmu.charge(&delta(100.0), 10.0);
        assert_eq!(pmu.read(CounterKind::Cycles).value, 100);
        assert_eq!(pmu.read(CounterKind::Instructions).value, 0);
    }

    #[test]
    fn reset_clears_values() {
        let mut pmu = Pmu::new(4);
        pmu.enable(CounterKind::Cycles);
        pmu.charge(&delta(100.0), 10.0);
        pmu.reset();
        let r = pmu.read(CounterKind::Cycles);
        assert_eq!(r.value, 0);
        assert_eq!(r.time_enabled, 0);
        assert!(pmu.is_enabled(CounterKind::Cycles));
    }

    #[test]
    fn never_enabled_reads_zero() {
        let pmu = Pmu::new(4);
        let r = pmu.read(CounterKind::CacheMisses);
        assert_eq!(
            r,
            PmuReading {
                value: 0,
                time_enabled: 0,
                time_running: 0
            }
        );
        assert_eq!(r.normalized(), 0.0);
    }

    #[test]
    fn counter_kind_index_round_trip() {
        for (i, k) in ALL_COUNTERS.iter().enumerate() {
            assert_eq!(k.index(), i);
            assert_eq!(CounterKind::from_index(i), Some(*k));
        }
        assert_eq!(CounterKind::from_index(7), None);
    }

    /// The PMU as it was before the running fraction was cached: an
    /// `enabled` flag per event, every event visited on every charge, the
    /// fraction recounted each time — the oracle the property below holds
    /// the shipped one to.
    #[derive(Debug)]
    struct FlagPmu {
        slots: usize,
        events: [(bool, f64, f64, f64); 7],
    }

    impl FlagPmu {
        fn running_fraction(&self) -> f64 {
            let n = self.events.iter().filter(|e| e.0).count();
            if n == 0 {
                0.0
            } else {
                (self.slots as f64 / n as f64).min(1.0)
            }
        }

        fn charge(&mut self, delta: &CounterDelta, elapsed_ns: f64) {
            let frac = self.running_fraction();
            for kind in ALL_COUNTERS {
                let d = match kind {
                    CounterKind::Cycles => delta.cycles,
                    CounterKind::Instructions => delta.instructions,
                    CounterKind::RefCycles => delta.ref_cycles,
                    CounterKind::CacheReferences => delta.cache_references,
                    CounterKind::CacheMisses => delta.cache_misses,
                    CounterKind::Branches => delta.branches,
                    CounterKind::BranchMisses => delta.branch_misses,
                };
                let ev = &mut self.events[kind.index()];
                if ev.0 {
                    ev.1 += d * frac;
                    ev.2 += elapsed_ns;
                    ev.3 += elapsed_ns * frac;
                }
            }
        }

        fn read(&self, kind: CounterKind) -> PmuReading {
            let ev = &self.events[kind.index()];
            PmuReading {
                value: ev.1 as u64,
                time_enabled: ev.2 as u64,
                time_running: ev.3 as u64,
            }
        }
    }

    /// A delta or elapsed time: ordinary, or one of the values float
    /// arithmetic treats specially.
    fn arb_f64(rng: &mut StdRng) -> f64 {
        match rng.random_range(0..10) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -rng.random::<f64>() * 1e4,
            4 => f64::MIN_POSITIVE * rng.random::<f64>(), // subnormal
            5 => -0.0,
            _ => rng.random::<f64>() * 1e6,
        }
    }

    #[test]
    fn the_pmu_keeps_every_reading_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x0930_5EED);
        let mut seen_enabled = [false; 8];
        for _ in 0..400 {
            let slots = rng.random_range(1usize..=8);
            let mut pmu = Pmu::new(slots);
            let mut flags = FlagPmu {
                slots,
                events: [(false, 0.0, 0.0, 0.0); 7],
            };
            for _ in 0..60 {
                let kind = ALL_COUNTERS[rng.random_range(0..7)];
                match rng.random_range(0..12) {
                    0..=2 => {
                        pmu.enable(kind);
                        flags.events[kind.index()].0 = true;
                    }
                    3..=4 => {
                        pmu.disable(kind);
                        flags.events[kind.index()].0 = false;
                    }
                    5 => {
                        pmu.reset();
                        for ev in &mut flags.events {
                            (ev.1, ev.2, ev.3) = (0.0, 0.0, 0.0);
                        }
                    }
                    _ => {
                        let c = [(); 7].map(|()| arb_f64(&mut rng));
                        let delta = CounterDelta {
                            cycles: c[0],
                            instructions: c[1],
                            ref_cycles: c[2],
                            cache_references: c[3],
                            cache_misses: c[4],
                            branches: c[5],
                            branch_misses: c[6],
                        };
                        let ns = arb_f64(&mut rng);
                        pmu.charge(&delta, ns);
                        flags.charge(&delta, ns);
                    }
                }
                seen_enabled[pmu.n_enabled] = true;
                // Rust leaves a NaN's sign and payload unspecified (an
                // optimised build may swap an addition's operands, and x86
                // keeps the first operand's NaN), so every NaN is one value
                // here; every other value must keep its bits.
                let bits = |x: f64| if x.is_nan() { f64::NAN } else { x }.to_bits();
                assert_eq!(bits(pmu.running_fraction()), bits(flags.running_fraction()));
                for k in ALL_COUNTERS {
                    let (i, ev) = (k.index(), flags.events[k.index()]);
                    assert_eq!(pmu.is_enabled(k), ev.0, "{k:?}");
                    assert_eq!(
                        [pmu.raw[i], pmu.time_enabled[i], pmu.time_running[i]].map(bits),
                        [ev.1, ev.2, ev.3].map(bits),
                        "{k:?} on {slots} slots"
                    );
                    let (new, old) = (pmu.read(k), flags.read(k));
                    assert_eq!(new, old, "{k:?}");
                    assert_eq!(bits(new.normalized()), bits(old.normalized()), "{k:?}");
                }
            }
        }
        assert_eq!(seen_enabled, [true; 8], "0 to 7 enabled events all occur");
    }
}
