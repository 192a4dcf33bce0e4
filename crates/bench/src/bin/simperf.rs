//! Simulator/harness wall-clock performance target.
//!
//! Measures (a) the two simulation engines — the retained reference and
//! the block-fused turbo engine — against each other on sim-dominated
//! MiBench workloads, in two rows: plain BASELINE builds, and BITSPEC
//! builds simulated in DTS mode (build once, interleave timed repetitions,
//! report median + min per engine), and (b) the fig08-style matrix harness
//! under 1 worker vs the pool default. Writes the numbers to
//! `BENCH_sim.json` and prints a summary.
//!
//! Usage: `simperf [-j N] [--check] [reps]`. At least 5 repetitions are
//! always run so the medians are meaningful; the positional argument can
//! only raise the count. `--check` exits nonzero if turbo's median total
//! speedup over the reference falls below [`SPEEDUP_FLOOR`] on either row
//! — CI uses this to catch dispatch-path and DTS-accounting regressions.

use bench::{clear_cache, pool, run_matrix};
use bitspec::{build, simulate_with, BuildConfig, Compiled, Engine, SimConfig, Workload};
use mibench::{workload, Input};
use std::time::Instant;

/// Sim-dominated targets: long dynamic instruction counts, cheap builds.
const TARGETS: &[&str] = &["sha", "crc32", "dijkstra", "qsort", "susan-edges"];

/// Engine matrix, oracle first (printed column order).
const ENGINES: [Engine; 2] = [Engine::Reference, Engine::Turbo];

/// The `--check` bar: the total speedup over the reference that the
/// predecoded per-instruction engine turbo replaced reached on the plain
/// row (`total_fast_speedup` in `BENCH_sim.json` before its removal).
/// Turbo must stay at least that far ahead on both rows.
const SPEEDUP_FLOOR: f64 = 1.917;

fn once(c: &Compiled, w: &Workload, cfg: &SimConfig) -> f64 {
    let t = Instant::now();
    let r = simulate_with(c, w, cfg).expect("sim");
    std::hint::black_box(r.cycles);
    t.elapsed().as_secs_f64()
}

/// Sorts in place and returns the median (mean of the middle two for even
/// lengths).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

struct Row {
    mode: &'static str,
    name: String,
    dyn_insts: u64,
    /// Per-engine median seconds, `ENGINES` order.
    med: [f64; 2],
    /// Per-engine minimum seconds, `ENGINES` order.
    min: [f64; 2],
}

/// Times every target under `cfg` with both engines and prints one line
/// per workload plus the row total. Returns the per-workload rows and the
/// per-engine median totals.
fn time_row(mode: &'static str, cfg: &BuildConfig, reps: usize) -> (Vec<Row>, [f64; 2]) {
    let sim_of = |engine: Engine| SimConfig {
        engine,
        ..SimConfig::default()
    };
    println!("-- {mode}");
    println!(
        "{:<16} {:>12} {:>10} {:>10} {:>7}",
        "workload", "dyn_insts", "ref_ms", "turbo_ms", "turbo×"
    );
    let mut rows = Vec::new();
    for name in TARGETS {
        let w = workload(name, Input::Large);
        let c = build(&w, cfg).expect("build");
        // Untimed warm-up run; also the dyn_insts source.
        let dyn_insts = simulate_with(&c, &w, &sim_of(Engine::Turbo))
            .expect("sim")
            .counts
            .dyn_insts;
        // Interleave engines within each round so clock and thermal drift
        // hit both equally.
        let mut secs: [Vec<f64>; 2] = std::array::from_fn(|_| Vec::new());
        for _ in 0..reps {
            for (ei, engine) in ENGINES.iter().enumerate() {
                secs[ei].push(once(&c, &w, &sim_of(*engine)));
            }
        }
        let med = [0, 1].map(|ei| median(&mut secs[ei]));
        let min = [0, 1].map(|ei| secs[ei][0]); // sorted by median()
        println!(
            "{name:<16} {dyn_insts:>12} {:>10.2} {:>10.2} {:>6.2}x",
            med[0] * 1e3,
            med[1] * 1e3,
            med[0] / med[1]
        );
        rows.push(Row {
            mode,
            name: name.to_string(),
            dyn_insts,
            med,
            min,
        });
    }
    let tot = [0, 1].map(|ei| rows.iter().map(|r| r.med[ei]).sum::<f64>());
    println!(
        "{:<16} {:>12} {:>10.2} {:>10.2} {:>6.2}x",
        "TOTAL",
        "",
        tot[0] * 1e3,
        tot[1] * 1e3,
        tot[0] / tot[1]
    );
    (rows, tot)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut reps: usize = 5;
    let mut check = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "-j" || a == "--jobs" {
            it.next();
            continue;
        }
        if a == "--check" {
            check = true;
            continue;
        }
        if a.starts_with('-') {
            continue;
        }
        if let Ok(n) = a.parse::<usize>() {
            // Medians of fewer than 5 reps are too noisy to gate on.
            reps = n.max(5);
        }
    }
    let jobs = pool::jobs_for(&args);
    bench::header("simperf", "reference vs turbo engine / pool wall-clock");

    let modes = [
        ("plain", BuildConfig::baseline()),
        (
            "dts",
            BuildConfig {
                dts: true,
                ..BuildConfig::bitspec()
            },
        ),
    ];
    let mut rows = Vec::new();
    let mut totals = Vec::new();
    for (mode, cfg) in &modes {
        let (r, tot) = time_row(mode, cfg, reps);
        rows.extend(r);
        totals.push((*mode, tot));
    }

    // Harness wall-clock: the fig08 matrix under 1 worker vs the pool.
    let workloads: Vec<_> = TARGETS.iter().map(|n| workload(n, Input::Large)).collect();
    let cfgs = [BuildConfig::baseline(), BuildConfig::bitspec()];
    let cells = workloads.len() * cfgs.len();
    let workers = pool::effective_workers(cells, jobs);
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    clear_cache();
    let t1 = Instant::now();
    std::hint::black_box(run_matrix(&workloads, &cfgs, 1));
    let serial = t1.elapsed().as_secs_f64();
    clear_cache();
    let t2 = Instant::now();
    let first = run_matrix(&workloads, &cfgs, jobs);
    let pooled = t2.elapsed().as_secs_f64();
    let t3 = Instant::now();
    let second = run_matrix(&workloads, &cfgs, jobs);
    let cached = t3.elapsed().as_secs_f64();
    assert_eq!(first.len(), second.len());
    println!(
        "harness: serial={serial:.2}s pool(workers={workers}/{jobs} req, {host_cores} cores)=\
         {pooled:.2}s cached_resweep={cached:.3}s"
    );

    let mut json = String::from("{\n  \"engines\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"row\": \"{}\", \"workload\": \"{}\", \"dyn_insts\": {}, \
             \"reference_median_s\": {:.6}, \"reference_min_s\": {:.6}, \
             \"turbo_median_s\": {:.6}, \"turbo_min_s\": {:.6}, \
             \"turbo_speedup\": {:.3}}}{}\n",
            r.mode,
            r.name,
            r.dyn_insts,
            r.med[0],
            r.min[0],
            r.med[1],
            r.min[1],
            r.med[0] / r.med[1],
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"rows\": [\n");
    for (i, (mode, tot)) in totals.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"row\": \"{mode}\", \"total_reference_s\": {:.6}, \
             \"total_turbo_s\": {:.6}, \"total_speedup\": {:.3}}}{}\n",
            tot[0],
            tot[1],
            tot[0] / tot[1],
            if i + 1 < totals.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"speedup_floor\": {SPEEDUP_FLOOR:.3},\n  \
         \"harness\": {{\"jobs_requested\": {jobs}, \"workers_effective\": {workers}, \
         \"host_cores\": {host_cores}, \"serial_s\": {serial:.6}, \
         \"pool_s\": {pooled:.6}, \"cached_s\": {cached:.6}}},\n  \"reps\": {reps}\n}}\n"
    ));
    std::fs::write("BENCH_sim.json", &json).expect("write BENCH_sim.json");
    println!("wrote BENCH_sim.json");

    if check {
        let slow: Vec<String> = totals
            .iter()
            .filter(|(_, tot)| tot[0] / tot[1] < SPEEDUP_FLOOR)
            .map(|(mode, tot)| format!("{mode} {:.3}x", tot[0] / tot[1]))
            .collect();
        if !slow.is_empty() {
            eprintln!(
                "simperf --check: turbo's total speedup over reference is below \
                 {SPEEDUP_FLOOR}x on: {}",
                slow.join(", ")
            );
            std::process::exit(1);
        }
    }
}
