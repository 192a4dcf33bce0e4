//! Figure 8 (RQ0): energy consumption, dynamic instructions and EPI of
//! BITSPEC relative to BASELINE.
//!
//! Cells fan out across the worker pool (`-j N` or `BITSPEC_JOBS`);
//! output order is fixed regardless of worker count.

use bench::{mean, pct, pool, run_matrix_sims};
use bitspec::BuildConfig;
use mibench::{names, workload, Input};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    bench::header(
        "fig08",
        "BITSPEC vs BASELINE: energy / dynamic instructions / EPI",
    );
    println!(
        "{:<16} {:>9} {:>9} {:>9} {:>10}",
        "benchmark", "energyΔ%", "dynΔ%", "EPIΔ%", "misspecs"
    );
    let workloads: Vec<_> = names().iter().map(|n| workload(n, Input::Large)).collect();
    let cfgs = [BuildConfig::baseline(), BuildConfig::bitspec()];
    let rows = run_matrix_sims(&workloads, &cfgs, pool::jobs_for(&args));
    let mut de = Vec::new();
    let mut dd = Vec::new();
    let mut dp = Vec::new();
    for (name, row) in names().iter().zip(&rows) {
        let (base, bs) = (&row[0], &row[1]);
        assert_eq!(base.outputs, bs.outputs, "{name}: outputs diverge");
        let e = pct(bs.total_energy(), base.total_energy());
        let d = pct(bs.counts.dyn_insts as f64, base.counts.dyn_insts as f64);
        let p = pct(bs.epi(), base.epi());
        println!(
            "{name:<16} {e:>8.1}% {d:>8.1}% {p:>8.1}% {:>10}",
            bs.counts.misspecs
        );
        de.push(e);
        dd.push(d);
        dp.push(p);
    }
    println!(
        "{:<16} {:>8.1}% {:>8.1}% {:>8.1}%",
        "MEAN",
        mean(&de),
        mean(&dd),
        mean(&dp)
    );
}
