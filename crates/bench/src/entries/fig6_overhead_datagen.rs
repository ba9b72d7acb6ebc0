//! Figure 6: runtime overhead (training data generation).
//!
//! "Impact of query sampling on OLTP training data generation."
//!
//! Paper shape: Kernel-Continuous generates ~3× more samples/s than the
//! user-space methods (which bottleneck on their serialized emission
//! path at low single-digit sampling rates); kernel collection peaks
//! around a 20–30% rate and the Processor caps the ceiling.

use tscout_bench::{overhead_sweep, Csv};

pub(crate) fn main() {
    let rates = [0u8, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
    let points = overhead_sweep(&["ycsb", "smallbank", "tatp", "tpcc"], &rates, 120e6, 20);
    let mut csv = Csv::create(
        "fig6_overhead_datagen.csv",
        "workload,method,rate_pct,ksamples_per_sec",
    );
    for p in &points {
        csv.row(&format!(
            "{},{},{},{:.2}",
            p.workload,
            p.method,
            p.rate,
            p.samples_per_sec / 1000.0
        ));
    }
    println!("# paper shape: kernel_continuous ~3x the user methods; peak near 20-30% sampling");
}
