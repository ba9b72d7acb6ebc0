//! Per-task kernel state: `task_struct` in miniature.
//!
//! TScout's kernel-level disk probe reads the task's I/O accounting struct
//! (`ioac`, paper §4.4) and its network probe reads `tcp_sock` statistics
//! (paper §4.3). Both live here, together with the task's virtual clock and
//! its PMU.

use tscout_telemetry::TaskFrames;

use crate::pmu::Pmu;

/// Opaque task identifier (a simulated TID).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

impl TaskId {
    pub fn as_u64(self) -> u64 {
        self.0 as u64
    }
}

/// Linux-style per-task I/O accounting (`struct task_io_accounting`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ioac {
    /// Bytes the task has caused to be read from storage.
    pub read_bytes: u64,
    /// Bytes the task has caused to be written to storage.
    pub write_bytes: u64,
    /// Number of read syscalls issued.
    pub read_syscalls: u64,
    /// Number of write syscalls issued.
    pub write_syscalls: u64,
}

/// Socket statistics mirroring the fields TScout reads out of `tcp_sock`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpSock {
    pub bytes_sent: u64,
    pub bytes_received: u64,
    pub segs_out: u64,
    pub segs_in: u64,
}

/// The simulated `task_struct`.
#[derive(Debug)]
pub struct TaskStruct {
    pub id: TaskId,
    /// Virtual monotonic clock for this task, in nanoseconds.
    pub clock_ns: f64,
    /// Per-task performance counters.
    pub pmu: Pmu,
    /// I/O accounting (read by the disk probe).
    pub ioac: Ioac,
    /// Socket statistics (read by the network probe).
    pub tcp: TcpSock,
    /// Number of context switches this task has experienced.
    pub context_switches: u64,
    /// Total syscalls issued (all kinds).
    pub syscalls: u64,
    /// Charged virtual ns the sampling profiler has not sampled yet
    /// (always less than one sampling period).
    pub(crate) profile_credit: f64,
    /// The profiler frames this task is executing under.
    pub(crate) frames: TaskFrames,
}

impl TaskStruct {
    pub fn new(id: TaskId, pmu_slots: usize) -> Self {
        TaskStruct {
            id,
            clock_ns: 0.0,
            pmu: Pmu::new(pmu_slots),
            ioac: Ioac::default(),
            tcp: TcpSock::default(),
            context_switches: 0,
            syscalls: 0,
            profile_credit: 0.0,
            frames: TaskFrames::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_task_is_zeroed() {
        let t = TaskStruct::new(TaskId(7), 4);
        assert_eq!(t.id, TaskId(7));
        assert_eq!(t.clock_ns, 0.0);
        assert_eq!(t.ioac, Ioac::default());
        assert_eq!(t.tcp, TcpSock::default());
        assert_eq!(t.context_switches, 0);
    }

    #[test]
    fn task_id_as_u64() {
        assert_eq!(TaskId(42).as_u64(), 42);
    }
}
