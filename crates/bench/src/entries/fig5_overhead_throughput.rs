//! Figure 5: runtime overhead (transaction throughput).
//!
//! "Impact of query sampling on OLTP transaction throughput, comparing
//! user-space and kernel-space approaches to system metrics collection."
//! All subsystems enabled; 20 client threads; rates swept 0–100%.
//!
//! Paper shape: User-Toggle degrades worst (≈ −50% at 100%);
//! User-Continuous starts 2–8% below baseline even at 0% (PMU
//! save/restore on every context switch) but degrades gently;
//! Kernel-Continuous sits near baseline at low rates.

use tscout_bench::{overhead_sweep, Csv};

pub(crate) fn main() {
    let rates = [0u8, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
    let points = overhead_sweep(&["ycsb", "smallbank", "tatp", "tpcc"], &rates, 120e6, 20);
    let mut csv = Csv::create(
        "fig5_overhead_throughput.csv",
        "workload,method,rate_pct,ktps",
    );
    for p in &points {
        csv.row(&format!(
            "{},{},{},{:.2}",
            p.workload, p.method, p.rate, p.ktps
        ));
    }
    println!(
        "# paper shape: user_toggle worst at high rates; user_continuous below baseline at 0%"
    );
}
