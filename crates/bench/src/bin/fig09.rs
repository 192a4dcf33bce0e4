//! Figure 9 (RQ0): per-component energy breakdown of BITSPEC relative to
//! BASELINE (ALU, register file, D$, I$, pipeline).
//!
//! Cells fan out across the worker pool (`-j N` or `BITSPEC_JOBS`); the
//! artifact cache shares the builds with any harness already run in this
//! process.

use bench::{pct, pool, run_matrix_sims};
use bitspec::BuildConfig;
use mibench::{names, workload, Input};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    bench::header("fig09", "component energy: BITSPEC relative to BASELINE");
    println!(
        "{:<16} {:>8} {:>8} {:>8} {:>8} {:>9} {:>8}",
        "benchmark", "ALUΔ%", "RFΔ%", "D$Δ%", "I$Δ%", "pipeΔ%", "totalΔ%"
    );
    let workloads: Vec<_> = names().iter().map(|n| workload(n, Input::Large)).collect();
    let cfgs = [BuildConfig::baseline(), BuildConfig::bitspec()];
    let rows = run_matrix_sims(&workloads, &cfgs, pool::jobs_for(&args));
    for (name, row) in names().iter().zip(&rows) {
        let (b, s) = (&row[0], &row[1]);
        println!(
            "{name:<16} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>8.1}% {:>7.1}%",
            pct(s.energy.alu, b.energy.alu),
            pct(s.energy.regfile, b.energy.regfile),
            pct(s.energy.dcache, b.energy.dcache),
            pct(s.energy.icache, b.energy.icache),
            pct(s.energy.pipeline, b.energy.pipeline),
            pct(s.total_energy(), b.total_energy()),
        );
    }
}
