//! Table 2 (RQ5): misspeculation counts per heuristic — more aggressive
//! selections misspeculate more.
//!
//! The workload × heuristic matrix fans out across the worker pool
//! (`-j N` or `BITSPEC_JOBS`); output order is fixed.

use bench::{pool, run_matrix_sims};
use bitspec::{BitwidthHeuristic, BuildConfig};
use mibench::{names, workload, Input};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    bench::header("table2", "misspeculation counts per heuristic");
    println!(
        "{:<16} {:>10} {:>10} {:>10}",
        "benchmark", "MAX", "AVG", "MIN"
    );
    let workloads: Vec<_> = names().iter().map(|n| workload(n, Input::Large)).collect();
    let cfgs: Vec<_> = BitwidthHeuristic::ALL
        .iter()
        .map(|&h| BuildConfig {
            empirical_gate: false,
            ..BuildConfig::bitspec_with(h)
        })
        .collect();
    let rows = run_matrix_sims(&workloads, &cfgs, pool::jobs_for(&args));
    for (name, row) in names().iter().zip(&rows) {
        let mut line = format!("{name:<16}");
        for cell in row {
            line.push_str(&format!(" {:>10}", cell.counts.misspecs));
        }
        println!("{line}");
    }
}
