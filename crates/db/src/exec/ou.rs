//! The engine's operating units (OUs) and their cost model.
//!
//! Every discrete unit of DBMS work is an OU with a marker triple around
//! it (paper §3.1). This module declares the OU catalog — name, owning
//! subsystem, input-feature schema — and the simulation cost model that
//! converts an OU's features into abstract work (instructions, working
//! set, allocated bytes) charged to the kernel.
//!
//! The cost formulas are the *ground truth* the behavior models must
//! learn. They are deliberately workload- and environment-sensitive in
//! the ways the paper's evaluation exploits: per-batch fixed costs in the
//! log serializer (group commit amortization), device-dependent disk
//! writes, cache-pressure terms in scans, and contention inflation under
//! concurrency (applied by the kernel).

use tscout::{OuId, Subsystem, TScout};
use tscout_kernel::Frame;

/// All OUs the NoiseTap engine is annotated with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineOu {
    // Execution engine.
    SeqScan,
    IdxLookup,
    IdxRangeScan,
    Filter,
    HashJoinBuild,
    HashJoinProbe,
    AggBuild,
    Sort,
    Output,
    Insert,
    Update,
    Delete,
    /// Fused-pipeline wrapper (JIT mode, §5.2).
    Pipeline,
    // Networking.
    NetworkRead,
    NetworkWrite,
    // WAL.
    LogSerialize,
    DiskWrite,
    // Background.
    GcSweep,
    TxnCommit,
}

/// Number of OU kinds.
pub const ENGINE_OU_COUNT: usize = 19;

/// All OUs in index order.
pub const ALL_ENGINE_OUS: [EngineOu; ENGINE_OU_COUNT] = [
    EngineOu::SeqScan,
    EngineOu::IdxLookup,
    EngineOu::IdxRangeScan,
    EngineOu::Filter,
    EngineOu::HashJoinBuild,
    EngineOu::HashJoinProbe,
    EngineOu::AggBuild,
    EngineOu::Sort,
    EngineOu::Output,
    EngineOu::Insert,
    EngineOu::Update,
    EngineOu::Delete,
    EngineOu::Pipeline,
    EngineOu::NetworkRead,
    EngineOu::NetworkWrite,
    EngineOu::LogSerialize,
    EngineOu::DiskWrite,
    EngineOu::GcSweep,
    EngineOu::TxnCommit,
];

/// Whether `a` sorts before `b` (`str`'s order, in a `const`).
const fn name_lt(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut i = 0;
    while i < a.len() && i < b.len() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
        i += 1;
    }
    a.len() < b.len()
}

/// `NAME_RANK[ou.index()]` is `ou`'s position in [`OU_NAMES`]: how many
/// OU names sort before its own.
const NAME_RANK: [usize; ENGINE_OU_COUNT] = {
    let mut rank = [0; ENGINE_OU_COUNT];
    let mut i = 0;
    while i < ENGINE_OU_COUNT {
        let mut j = 0;
        while j < ENGINE_OU_COUNT {
            if name_lt(ALL_ENGINE_OUS[j].name(), ALL_ENGINE_OUS[i].name()) {
                rank[i] += 1;
            }
            j += 1;
        }
        i += 1;
    }
    rank
};

/// Every OU's name, sorted: a statement's OU breakdown has one slot per
/// OU in this order ([`EngineOu::name_rank`]), so a sum over the slots
/// adds in name order.
pub const OU_NAMES: [&str; ENGINE_OU_COUNT] = {
    let mut names = [""; ENGINE_OU_COUNT];
    let mut i = 0;
    while i < ENGINE_OU_COUNT {
        names[NAME_RANK[i]] = ALL_ENGINE_OUS[i].name();
        i += 1;
    }
    names
};

/// Each OU's name, written down once: `name()` for telemetry and
/// `frame()` (`ou:<name>`) for the profiler.
macro_rules! engine_ou_names {
    ($($variant:ident => $name:literal,)*) => {
        pub const fn name(self) -> &'static str {
            match self {
                $(EngineOu::$variant => $name,)*
            }
        }

        /// The OU's profiler frame: `ou:<name>`.
        pub fn frame(self) -> &'static Frame {
            match self {
                $(EngineOu::$variant => {
                    static FRAME: Frame = Frame::new(concat!("ou:", $name));
                    &FRAME
                })*
            }
        }
    };
}

impl EngineOu {
    /// The OU's position in [`ALL_ENGINE_OUS`], which lists the
    /// variants in declaration order.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The OU's position in [`OU_NAMES`]: its slot in a statement's OU
    /// breakdown.
    pub fn name_rank(self) -> usize {
        NAME_RANK[self.index()]
    }

    engine_ou_names! {
        SeqScan => "seq_scan",
        IdxLookup => "idx_lookup",
        IdxRangeScan => "idx_range_scan",
        Filter => "filter",
        HashJoinBuild => "hash_join_build",
        HashJoinProbe => "hash_join_probe",
        AggBuild => "agg_build",
        Sort => "sort",
        Output => "output",
        Insert => "insert",
        Update => "update",
        Delete => "delete",
        Pipeline => "pipeline",
        NetworkRead => "network_read",
        NetworkWrite => "network_write",
        LogSerialize => "log_serialize",
        DiskWrite => "disk_write",
        GcSweep => "gc_sweep",
        TxnCommit => "txn_commit",
    }

    pub fn subsystem(self) -> Subsystem {
        match self {
            EngineOu::NetworkRead | EngineOu::NetworkWrite => Subsystem::Networking,
            EngineOu::LogSerialize => Subsystem::LogSerializer,
            EngineOu::DiskWrite => Subsystem::DiskWriter,
            EngineOu::GcSweep => Subsystem::GarbageCollector,
            EngineOu::TxnCommit => Subsystem::Transactions,
            _ => Subsystem::ExecutionEngine,
        }
    }

    /// Input-feature schema (names double as documentation).
    pub fn feature_names(self) -> &'static [&'static str] {
        match self {
            EngineOu::SeqScan => &["tuples_examined", "avg_row_bytes"],
            EngineOu::IdxLookup => &["entries_examined", "index_depth", "matches"],
            EngineOu::IdxRangeScan => &["entries_examined", "matches"],
            EngineOu::Filter => &["tuples_in"],
            EngineOu::HashJoinBuild => &["rows", "bytes"],
            EngineOu::HashJoinProbe => &["probes", "matches"],
            EngineOu::AggBuild => &["rows", "groups"],
            EngineOu::Sort => &["rows", "bytes"],
            EngineOu::Output => &["rows", "bytes"],
            EngineOu::Insert => &["rows", "bytes", "num_indexes"],
            EngineOu::Update => &["rows", "bytes", "num_indexes"],
            EngineOu::Delete => &["rows", "num_indexes"],
            EngineOu::Pipeline => &["num_ous"],
            EngineOu::NetworkRead => &["bytes", "messages"],
            EngineOu::NetworkWrite => &["bytes", "messages"],
            EngineOu::LogSerialize => &["records", "bytes"],
            EngineOu::DiskWrite => &["bytes", "ios"],
            EngineOu::GcSweep => &["versions_pruned"],
            EngineOu::TxnCommit => &["writes"],
        }
    }

    pub fn n_features(self) -> usize {
        self.feature_names().len()
    }
}

/// The OU-id table filled in when TScout is attached.
#[derive(Debug, Clone)]
pub struct OuMap {
    ids: [OuId; ENGINE_OU_COUNT],
}

impl OuMap {
    /// Register every engine OU with a deployed TScout instance.
    pub fn register(ts: &mut TScout) -> OuMap {
        let mut ids = [OuId(0); ENGINE_OU_COUNT];
        for ou in ALL_ENGINE_OUS {
            ids[ou.index()] = ts.register_ou(ou.name(), ou.subsystem(), ou.n_features());
        }
        OuMap { ids }
    }

    pub fn id(&self, ou: EngineOu) -> OuId {
        self.ids[ou.index()]
    }
}

/// Abstract work an OU performs, fed to the kernel's charge APIs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Work {
    /// Dynamic instruction count.
    pub instructions: f64,
    /// Working-set bytes (drives LLC pressure).
    pub ws_bytes: u64,
    /// Bytes allocated — the user-level memory probe's value (§4.2).
    pub mem_bytes: u64,
}

/// The simulation cost model: features → abstract work.
pub fn work_for(ou: EngineOu, f: &[u64]) -> Work {
    let g = |i: usize| f.get(i).copied().unwrap_or(0) as f64;
    // Calibration note: constants target production-DBMS magnitudes on
    // the paper's hardware — a networked point query lands around
    // 25-40 us, a TPC-C NewOrder around 1 ms, so that marker/collection
    // overheads (hundreds of ns to a few us per sampled OU) sit in the
    // same proportion as the paper's Figs. 1/5.
    let (instructions, ws_bytes, mem_bytes) = match ou {
        EngineOu::SeqScan => {
            let (tuples, width) = (g(0), g(1));
            (
                2_000.0 + tuples * (120.0 + width / 2.0),
                (tuples * width) as u64,
                0,
            )
        }
        EngineOu::IdxLookup => {
            let (examined, depth, matches) = (g(0), g(1), g(2));
            (
                15_000.0 + 1_200.0 * examined + 2_500.0 * depth + 500.0 * matches,
                (examined * 512.0) as u64,
                0,
            )
        }
        EngineOu::IdxRangeScan => {
            let (examined, matches) = (g(0), g(1));
            (
                16_000.0 + 400.0 * examined + 500.0 * matches,
                (examined * 256.0) as u64,
                0,
            )
        }
        EngineOu::Filter => (1_500.0 + 80.0 * g(0), (g(0) * 64.0) as u64, 0),
        EngineOu::HashJoinBuild => {
            let (rows, bytes) = (g(0), g(1));
            (
                8_000.0 + 350.0 * rows + bytes,
                bytes as u64,
                (bytes as u64) + (rows as u64) * 16,
            )
        }
        EngineOu::HashJoinProbe => (
            8_000.0 + 300.0 * g(0) + 200.0 * g(1),
            (g(0) * 64.0) as u64,
            0,
        ),
        EngineOu::AggBuild => (
            6_000.0 + 250.0 * g(0) + 400.0 * g(1),
            (g(1) * 48.0) as u64,
            (g(1) * 48.0) as u64,
        ),
        EngineOu::Sort => {
            let rows = g(0).max(1.0);
            (
                4_000.0 + 220.0 * rows * rows.max(2.0).log2(),
                g(1) as u64,
                g(1) as u64,
            )
        }
        EngineOu::Output => (
            3_000.0 + 100.0 * g(0) + g(1) / 2.0,
            g(1) as u64,
            g(1) as u64,
        ),
        EngineOu::Insert => {
            let (rows, bytes, nidx) = (g(0), g(1), g(2));
            (
                rows * (9_000.0 + bytes / rows.max(1.0) + nidx * 2_500.0),
                bytes as u64,
                bytes as u64,
            )
        }
        EngineOu::Update => {
            let (rows, bytes, nidx) = (g(0), g(1), g(2));
            (
                rows * (10_000.0 + bytes / rows.max(1.0) + nidx * 3_000.0),
                bytes as u64,
                bytes as u64,
            )
        }
        EngineOu::Delete => (g(0) * (8_000.0 + g(1) * 2_200.0), 0, 0),
        EngineOu::Pipeline => (500.0, 0, 0),
        EngineOu::NetworkRead | EngineOu::NetworkWrite => {
            (8_000.0 + g(0) * 2.0, g(0) as u64, g(0) as u64)
        }
        // Group commit amortization: a large fixed cost per batch plus a
        // modest per-record cost — the per-record economics the offline
        // runners mispredict (paper Figs. 2/7/9).
        EngineOu::LogSerialize => {
            let (records, bytes) = (g(0), g(1));
            (
                60_000.0 + 6_000.0 * records + bytes * 3.0,
                bytes as u64,
                bytes as u64,
            )
        }
        // Device time is charged separately via the kernel's I/O model;
        // this is only the submission-path CPU.
        EngineOu::DiskWrite => (15_000.0 + g(0) / 16.0, 4096, 0),
        EngineOu::GcSweep => (3_000.0 + 600.0 * g(0), (g(0) * 128.0) as u64, 0),
        EngineOu::TxnCommit => (12_000.0 + 300.0 * g(0), 2048, 0),
    };
    Work {
        instructions,
        ws_bytes,
        mem_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_ou_has_distinct_name_and_index() {
        let mut names = std::collections::HashSet::new();
        for (i, ou) in ALL_ENGINE_OUS.iter().enumerate() {
            assert_eq!(ou.index(), i);
            assert!(names.insert(ou.name()));
            assert!(ou.n_features() >= 1);
        }
        assert_eq!(names.len(), ENGINE_OU_COUNT);
    }

    #[test]
    fn name_ranks_order_the_ous_by_name() {
        assert!(OU_NAMES.is_sorted());
        for ou in ALL_ENGINE_OUS {
            assert_eq!(OU_NAMES[ou.name_rank()], ou.name());
        }
    }

    #[test]
    fn subsystem_assignment_matches_paper() {
        assert_eq!(EngineOu::SeqScan.subsystem(), Subsystem::ExecutionEngine);
        assert_eq!(EngineOu::NetworkRead.subsystem(), Subsystem::Networking);
        assert_eq!(EngineOu::LogSerialize.subsystem(), Subsystem::LogSerializer);
        assert_eq!(EngineOu::DiskWrite.subsystem(), Subsystem::DiskWriter);
        assert_eq!(EngineOu::GcSweep.subsystem(), Subsystem::GarbageCollector);
        assert_eq!(EngineOu::TxnCommit.subsystem(), Subsystem::Transactions);
    }

    #[test]
    fn cost_model_scales_with_features() {
        let small = work_for(EngineOu::SeqScan, &[10, 100]);
        let big = work_for(EngineOu::SeqScan, &[10_000, 100]);
        assert!(big.instructions > 100.0 * small.instructions / 2.0);
        assert!(big.ws_bytes > small.ws_bytes);
    }

    #[test]
    fn log_serializer_amortizes_per_record_cost() {
        let one = work_for(EngineOu::LogSerialize, &[1, 100]);
        let hundred = work_for(EngineOu::LogSerialize, &[100, 10_000]);
        let per_record_single = one.instructions / 1.0;
        let per_record_batched = hundred.instructions / 100.0;
        assert!(
            per_record_batched < per_record_single / 5.0,
            "group commit must amortize: single {per_record_single}, batched {per_record_batched}"
        );
    }

    #[test]
    fn sort_is_superlinear() {
        let a = work_for(EngineOu::Sort, &[1_000, 8_000]).instructions;
        let b = work_for(EngineOu::Sort, &[10_000, 80_000]).instructions;
        assert!(b > 10.0 * a, "n log n growth expected");
    }

    #[test]
    fn missing_features_default_to_zero() {
        let w = work_for(EngineOu::IdxLookup, &[]);
        assert!(w.instructions > 0.0);
    }

    #[test]
    fn memory_probe_values_present_where_allocations_happen() {
        assert!(work_for(EngineOu::HashJoinBuild, &[100, 6400]).mem_bytes > 0);
        assert!(work_for(EngineOu::Sort, &[100, 6400]).mem_bytes > 0);
        assert_eq!(work_for(EngineOu::Filter, &[100]).mem_bytes, 0);
    }
}
