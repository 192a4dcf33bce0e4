//! The expander auto-tuner (§3.2.1): grid search over unrolling factor and
//! size budgets, minimizing total BASELINE dynamic instructions across the
//! suite (the paper ran OpenTuner for 10 days). The 36-point grid takes
//! about 5 s on a 2-vCPU host (median of three runs; 14 s before the
//! unroller stopped rescanning whole functions per unrolled loop), and its
//! optimum is baked into `ExpanderConfig::default`. `ci.sh` diffs a fresh
//! run against `results/tuner.txt`.
//!
//! The whole grid × workload matrix fans out across the worker pool
//! (`-j N` or `BITSPEC_JOBS`); grid points print in sweep order.

use bench::{pool, run_matrix_sims};
use bitspec::BuildConfig;
use mibench::{names, workload, Input};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    bench::header(
        "tuner",
        "expander auto-tuning on BASELINE dynamic instructions",
    );
    let mut grid = Vec::new();
    for unroll in [1u32, 2, 4, 8] {
        for max_loop in [200usize, 400, 800] {
            for max_func in [2000usize, 4000, 8000] {
                grid.push(opt::ExpanderConfig {
                    unroll_factor: unroll,
                    max_loop_size: max_loop,
                    max_func_size: max_func,
                    enabled: true,
                });
            }
        }
    }
    let workloads: Vec<_> = names().iter().map(|n| workload(n, Input::Large)).collect();
    let cfgs: Vec<_> = grid
        .iter()
        .map(|&expander| BuildConfig {
            expander,
            ..BuildConfig::baseline()
        })
        .collect();
    let rows = run_matrix_sims(&workloads, &cfgs, pool::jobs_for(&args));
    let mut best: Option<(u64, opt::ExpanderConfig)> = None;
    for (gi, cfg) in grid.iter().enumerate() {
        let total: u64 = rows.iter().map(|row| row[gi].counts.dyn_insts).sum();
        println!(
            "unroll={} max_loop={:<5} max_func={:<5} total_dyn={total}",
            cfg.unroll_factor, cfg.max_loop_size, cfg.max_func_size
        );
        if best.as_ref().map(|(t, _)| total < *t).unwrap_or(true) {
            best = Some((total, *cfg));
        }
    }
    let (total, cfg) = best.unwrap();
    println!("BEST: {cfg:?} → {total} dynamic instructions");
}
