//! Write-ahead logging: the log serializer and disk writer subsystems.
//!
//! NoiseTap uses group commit: committed transactions append redo records
//! to a queue, and a background WAL task periodically drains whatever
//! arrived in the current window into one buffer (the **log serializer**
//! OU), then writes that buffer to the storage device (the **disk
//! writer** OU). Both behaviors are *workload dependent* — batch size
//! follows the commit arrival rate — which is exactly why the paper's
//! offline runners mispredict these subsystems and online data helps most
//! (Figs. 2, 7, 9).

use tscout::TScout;
use tscout_kernel::{Kernel, TaskId, DBMS};
use tscout_telemetry::{CounterSite, HistSite};

use crate::decls;
use crate::exec::ou::{work_for, EngineOu, OuMap};

/// One committed transaction's redo payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalRecord {
    pub commit_ts: u64,
    /// Serialized redo bytes.
    pub bytes: u64,
    /// Number of writes in the transaction.
    pub writes: u64,
    /// Virtual arrival time (commit time on the session task).
    pub arrival_ns: f64,
}

/// The WAL's metrics (declared in [`crate::decls`]).
#[derive(Debug)]
struct WalMetrics {
    flushes: CounterSite,
    flushed_records: CounterSite,
    batch_records: HistSite,
    flush_ns: HistSite,
}

/// WAL runtime state.
#[derive(Debug)]
pub struct Wal {
    /// The background WAL task (owns the serializer + disk writer OUs).
    pub task: TaskId,
    queue: std::collections::VecDeque<WalRecord>,
    /// Group-commit window length.
    pub interval_ns: f64,
    /// Flush early when this many buffered bytes accumulate.
    pub max_batch_bytes: u64,
    pub flushed_batches: u64,
    pub flushed_records: u64,
    pub flushed_bytes: u64,
    metrics: WalMetrics,
}

impl Wal {
    pub fn new(kernel: &mut Kernel) -> Wal {
        Wal {
            task: kernel.create_task(),
            queue: std::collections::VecDeque::new(),
            interval_ns: 200_000.0, // 200 µs group-commit window
            max_batch_bytes: 64 * 1024,
            flushed_batches: 0,
            flushed_records: 0,
            flushed_bytes: 0,
            metrics: WalMetrics {
                flushes: decls::WAL_FLUSHES.site(&[]),
                flushed_records: decls::WAL_FLUSHED_RECORDS.site(&[]),
                batch_records: decls::WAL_BATCH_RECORDS.site(&[]),
                flush_ns: decls::WAL_FLUSH_NS.site(&[]),
            },
        }
    }

    /// Enqueue a committed transaction's redo records.
    pub fn append(&mut self, rec: WalRecord) {
        // Arrival order can jitter slightly across session tasks; keep the
        // queue sorted by arrival so batch windows are well defined.
        let pos = self
            .queue
            .iter()
            .rposition(|r| r.arrival_ns <= rec.arrival_ns)
            .map(|p| p + 1)
            .unwrap_or(0);
        self.queue.insert(pos, rec);
    }

    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Run the WAL task forward to `until_ns`, flushing complete group-
    /// commit batches. Emits LOG_SERIALIZE and DISK_WRITE marker triples
    /// per batch when TScout is attached.
    pub fn pump(
        &mut self,
        kernel: &mut Kernel,
        mut ts: Option<&mut TScout>,
        ous: Option<&OuMap>,
        until_ns: f64,
    ) -> usize {
        let _root = kernel.profile_frame(self.task, &DBMS);
        let _wal = kernel.profile_frame(self.task, &decls::WAL);
        let mut batches = 0;
        loop {
            let Some(first) = self.queue.front() else {
                kernel.advance_to(self.task, until_ns);
                return batches;
            };
            // The window opens when the first record arrives (or when the
            // WAL task becomes free, if later).
            let open = first.arrival_ns.max(kernel.now(self.task));
            let close = open + self.interval_ns;
            if close > until_ns {
                return batches; // batch not complete yet
            }
            kernel.advance_to(self.task, close);

            // Collect the batch: everything that arrived before the close,
            // capped by bytes.
            let mut records = 0u64;
            let mut bytes = 0u64;
            let mut writes = 0u64;
            while let Some(r) = self.queue.front() {
                if r.arrival_ns > close || bytes + r.bytes > self.max_batch_bytes {
                    break;
                }
                bytes += r.bytes;
                writes += r.writes;
                records += 1;
                self.queue.pop_front();
            }
            if records == 0 {
                // A single oversized record (the `first` above): take it
                // alone.
                if let Some(r) = self.queue.pop_front() {
                    (bytes, writes, records) = (r.bytes, r.writes, 1);
                }
            }

            // --- Log serializer OU ---
            let ser_feats = [records, bytes];
            {
                let _ou = kernel.profile_frame(self.task, EngineOu::LogSerialize.frame());
                if let (Some(ts), Some(ous)) = (ts.as_deref_mut(), ous) {
                    ts.ou_begin(kernel, self.task, ous.id(EngineOu::LogSerialize));
                }
                let w = work_for(EngineOu::LogSerialize, &ser_feats);
                kernel.charge_cpu(self.task, w.instructions, w.ws_bytes);
                if let (Some(ts), Some(ous)) = (ts.as_deref_mut(), ous) {
                    let id = ous.id(EngineOu::LogSerialize);
                    ts.ou_end(kernel, self.task, id);
                    ts.ou_features(kernel, self.task, id, &ser_feats, &[w.mem_bytes]);
                }
            }

            // --- Disk writer OU ---
            let io_feats = [bytes, 1];
            let disk_frame = kernel.profile_frame(self.task, EngineOu::DiskWrite.frame());
            if let (Some(ts), Some(ous)) = (ts.as_deref_mut(), ous) {
                ts.ou_begin(kernel, self.task, ous.id(EngineOu::DiskWrite));
            }
            let w = work_for(EngineOu::DiskWrite, &io_feats);
            kernel.charge_cpu(self.task, w.instructions, w.ws_bytes);
            let flush_start_ns = kernel.now(self.task);
            kernel.io_write(self.task, bytes.max(512));
            let flush_dur = kernel.now(self.task) - flush_start_ns;
            if let (Some(ts), Some(ous)) = (ts.as_deref_mut(), ous) {
                let id = ous.id(EngineOu::DiskWrite);
                ts.ou_end(kernel, self.task, id);
                ts.ou_features(kernel, self.task, id, &io_feats, &[0]);
            }
            drop(disk_frame);

            self.flushed_batches += 1;
            self.flushed_records += records;
            self.flushed_bytes += bytes;
            let _ = writes;
            batches += 1;
            let (t, m) = (&kernel.telemetry, &self.metrics);
            m.flushes.get(t).inc();
            m.flushed_records.get(t).add(records);
            m.batch_records.get(t).record(records as f64);
            m.flush_ns.get(t).record(flush_dur);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tscout_kernel::HardwareProfile;

    fn kernel() -> Kernel {
        let mut k = Kernel::with_seed(HardwareProfile::server_2x20(), 1);
        k.noise_frac = 0.0;
        k
    }

    fn rec(arrival_us: f64, bytes: u64) -> WalRecord {
        WalRecord {
            commit_ts: 1,
            bytes,
            writes: 1,
            arrival_ns: arrival_us * 1000.0,
        }
    }

    #[test]
    fn group_commit_batches_by_arrival_window() {
        let mut k = kernel();
        let mut wal = Wal::new(&mut k);
        // Five records inside one 200 µs window.
        for i in 0..5 {
            wal.append(rec(10.0 * i as f64, 100));
        }
        // One record far later.
        wal.append(rec(10_000.0, 100));
        let batches = wal.pump(&mut k, None, None, 50_000_000.0);
        assert_eq!(batches, 2);
        assert_eq!(wal.flushed_records, 6);
        assert_eq!(wal.flushed_batches, 2);
        assert_eq!(wal.pending(), 0);
    }

    #[test]
    fn incomplete_window_waits() {
        let mut k = kernel();
        let mut wal = Wal::new(&mut k);
        wal.append(rec(50.0, 100));
        // Window closes at 50µs + 200µs = 250µs; pumping to 100µs flushes
        // nothing.
        assert_eq!(wal.pump(&mut k, None, None, 100_000.0), 0);
        assert_eq!(wal.pending(), 1);
        assert_eq!(wal.pump(&mut k, None, None, 300_000.0), 1);
        assert_eq!(wal.pending(), 0);
    }

    #[test]
    fn byte_cap_splits_batches() {
        let mut k = kernel();
        let mut wal = Wal::new(&mut k);
        wal.max_batch_bytes = 250;
        for i in 0..5 {
            wal.append(rec(i as f64, 100));
        }
        wal.pump(&mut k, None, None, 10_000_000.0);
        assert!(wal.flushed_batches >= 2, "byte cap must split the batch");
        assert_eq!(wal.flushed_records, 5);
    }

    #[test]
    fn oversized_record_flushes_alone() {
        let mut k = kernel();
        let mut wal = Wal::new(&mut k);
        wal.max_batch_bytes = 100;
        wal.append(rec(0.0, 5_000));
        assert_eq!(wal.pump(&mut k, None, None, 1_000_000.0), 1);
        assert_eq!(wal.flushed_bytes, 5_000);
    }

    #[test]
    fn out_of_order_arrivals_are_sorted() {
        let mut k = kernel();
        let mut wal = Wal::new(&mut k);
        wal.append(rec(300.0, 1));
        wal.append(rec(100.0, 2));
        wal.append(rec(200.0, 3));
        let arrivals: Vec<f64> = wal.queue.iter().map(|r| r.arrival_ns).collect();
        assert_eq!(arrivals, vec![100_000.0, 200_000.0, 300_000.0]);
    }

    #[test]
    fn wal_task_clock_advances_to_pump_horizon_when_idle() {
        let mut k = kernel();
        let mut wal = Wal::new(&mut k);
        wal.pump(&mut k, None, None, 1_000_000.0);
        assert_eq!(k.now(wal.task), 1_000_000.0);
    }
}
