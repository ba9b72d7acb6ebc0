//! Operating units (OUs) and DBMS subsystems.
//!
//! An OU is "a discrete component in the DBMS" (paper §2.1): a unit of
//! work small enough to model accurately — a sequential scan, a hash-join
//! build, serializing a log buffer. OUs are grouped into *subsystems*
//! because OUs in a subsystem share input-feature schemas and sampling
//! configuration (§5.3).

use std::fmt;

/// DBMS subsystems, as used throughout the paper's evaluation
/// (execution engine, networking, log serializer, disk writer) plus the
/// background subsystems NoisePage also instruments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Subsystem {
    ExecutionEngine,
    Networking,
    LogSerializer,
    DiskWriter,
    GarbageCollector,
    Transactions,
}

/// All subsystems, in stable order.
pub const ALL_SUBSYSTEMS: [Subsystem; 6] = [
    Subsystem::ExecutionEngine,
    Subsystem::Networking,
    Subsystem::LogSerializer,
    Subsystem::DiskWriter,
    Subsystem::GarbageCollector,
    Subsystem::Transactions,
];

impl Subsystem {
    pub fn index(self) -> usize {
        match self {
            Subsystem::ExecutionEngine => 0,
            Subsystem::Networking => 1,
            Subsystem::LogSerializer => 2,
            Subsystem::DiskWriter => 3,
            Subsystem::GarbageCollector => 4,
            Subsystem::Transactions => 5,
        }
    }

    pub fn from_index(i: usize) -> Option<Self> {
        ALL_SUBSYSTEMS.get(i).copied()
    }

    pub fn name(self) -> &'static str {
        match self {
            Subsystem::ExecutionEngine => "execution_engine",
            Subsystem::Networking => "networking",
            Subsystem::LogSerializer => "log_serializer",
            Subsystem::DiskWriter => "disk_writer",
            Subsystem::GarbageCollector => "garbage_collector",
            Subsystem::Transactions => "transactions",
        }
    }
}

impl fmt::Display for Subsystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The first OU id `register` never hands out: `0xFFFE` names the
/// action-efficacy OU's archived samples and `0xFFFF` a record header
/// that names no OU.
pub const OU_IDS_RESERVED: u16 = 0xFFFE;

/// Identifier of a registered OU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OuId(pub u16);

impl OuId {
    pub fn as_u64(self) -> u64 {
        self.0 as u64
    }
}

/// Metadata the developer declares per OU at annotation time (§3.1).
#[derive(Debug, Clone)]
pub struct OuDef {
    pub id: OuId,
    pub name: String,
    pub subsystem: Subsystem,
    /// Number of input features the `FEATURES` marker reports. Payload
    /// words beyond this count are user-level metrics (e.g. the memory
    /// probe, §4.2).
    pub n_features: usize,
}

/// Registry of all annotated OUs — the marker metadata TScout extracts
/// from the DBMS during its Setup Phase.
#[derive(Debug, Default)]
pub struct OuRegistry {
    defs: Vec<OuDef>,
}

impl OuRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an OU. Registering the same name again returns the
    /// existing id (markers may appear in multiple code paths).
    ///
    /// # Panics
    ///
    /// When every id below [`OU_IDS_RESERVED`] is taken: a new OU never
    /// shares an id, reserved or registered.
    pub fn register(&mut self, name: &str, subsystem: Subsystem, n_features: usize) -> OuId {
        if let Some(d) = self.defs.iter().find(|d| d.name == name) {
            return d.id;
        }
        // A caller's bug (see `# Panics`): the DBMS registers a fixed
        // set of markers, far below the reserved ids.
        #[allow(clippy::expect_used)]
        let id = u16::try_from(self.defs.len())
            .ok()
            .filter(|id| *id < OU_IDS_RESERVED)
            .map(OuId)
            .expect("OU ids exhausted: ids from 0xFFFE up are reserved");
        self.defs.push(OuDef {
            id,
            name: name.into(),
            subsystem,
            n_features,
        });
        id
    }

    pub fn get(&self, id: OuId) -> Option<&OuDef> {
        self.defs.get(id.0 as usize)
    }

    pub fn by_name(&self, name: &str) -> Option<&OuDef> {
        self.defs.iter().find(|d| d.name == name)
    }

    pub fn len(&self) -> usize {
        self.defs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &OuDef> {
        self.defs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut r = OuRegistry::new();
        let scan = r.register("seq_scan", Subsystem::ExecutionEngine, 3);
        let log = r.register("log_serialize", Subsystem::LogSerializer, 2);
        assert_ne!(scan, log);
        assert_eq!(r.get(scan).unwrap().name, "seq_scan");
        assert_eq!(r.by_name("log_serialize").unwrap().id, log);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn reregistering_returns_same_id() {
        let mut r = OuRegistry::new();
        let a = r.register("x", Subsystem::Networking, 1);
        let b = r.register("x", Subsystem::Networking, 1);
        assert_eq!(a, b);
        assert_eq!(r.len(), 1);
    }

    /// The 65 534th OU takes the last free id; one more is refused
    /// instead of wrapping onto a reserved or registered id.
    #[test]
    #[should_panic(expected = "OU ids exhausted")]
    fn register_refuses_to_reach_the_reserved_ids() {
        let mut r = OuRegistry::new();
        r.defs = (0..OU_IDS_RESERVED - 1)
            .map(|i| OuDef {
                id: OuId(i),
                name: format!("ou{i}"),
                subsystem: Subsystem::ExecutionEngine,
                n_features: 0,
            })
            .collect();
        let last = r.register("last", Subsystem::ExecutionEngine, 0);
        assert_eq!(last, OuId(OU_IDS_RESERVED - 1));
        r.register("one_more", Subsystem::ExecutionEngine, 0);
    }

    #[test]
    fn subsystem_index_round_trip() {
        for (i, s) in ALL_SUBSYSTEMS.iter().enumerate() {
            assert_eq!(s.index(), i);
            assert_eq!(Subsystem::from_index(i), Some(*s));
        }
        assert_eq!(Subsystem::from_index(6), None);
    }
}
