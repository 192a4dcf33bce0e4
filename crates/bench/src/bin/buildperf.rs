//! Build-pipeline wall-clock performance target.
//!
//! The sim side has `simperf`; this is the compiler side. Measures:
//!
//! 1. **Cold builds**: one full BITSPEC build per workload with every
//!    stage cache cleared first.
//! 2. **Matrix sweeps** over the fig09 + table2 + ablation config sets
//!    (8 configs per workload differing only downstream of the profiler):
//!    the uncached serial pipeline vs the stage-cached serial sweep (the
//!    acceptance ratio; per-variant minimum over `min(reps, 3)` sweeps),
//!    plus the cached sweep under the worker pool and an immediate
//!    fully-warm resweep.
//! 3. **Profiler engines**: the predecoded fast-path profiling
//!    interpreter vs the tree-walking reference engine on every MiBench
//!    workload's expanded module (A/B interleaved, per-engine minimum),
//!    asserting bit-identical outputs, statistics and profiles.
//!
//! Writes the numbers to `BENCH_build.json` and prints a summary.
//!
//! Usage: `buildperf [-j N] [reps]`.

use bench::{clear_cache, pool, run, run_cached_traced, suite_configs, CellSource};
use bitspec::{build, stages, BuildConfig, Workload};
use interp::{Interpreter, Profile, RunResult};
use mibench::{names, workload, Input};
use std::time::Instant;

/// Clears both the bench artifact cache and the stage caches.
fn clear_all() {
    clear_cache();
    stages::clear();
}

/// Times one serial sweep of the full workload × config matrix through
/// the ordinary build+simulate pipeline.
fn sweep_serial(workloads: &[Workload], cfgs: &[BuildConfig]) -> f64 {
    let t = Instant::now();
    for w in workloads {
        for cfg in cfgs {
            std::hint::black_box(run(w, cfg));
        }
    }
    t.elapsed().as_secs_f64()
}

/// One profiling run of `module` on the chosen engine; returns elapsed
/// seconds plus the results for the equivalence check.
fn profile_once(
    module: &sir::Module,
    inputs: &[(String, Vec<u8>)],
    reference: bool,
) -> (f64, RunResult, Profile) {
    let t = Instant::now();
    let mut i = Interpreter::new(module);
    i.set_reference(reference);
    i.enable_profiling();
    for (g, data) in inputs {
        i.install_global(g, data);
    }
    let r = i.run("main", &[]).expect("profiling run");
    let p = i.take_profile().expect("profiling enabled");
    (t.elapsed().as_secs_f64(), r, p)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut reps: usize = 5;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "-j" || a == "--jobs" {
            it.next();
            continue;
        }
        if a.starts_with('-') {
            continue;
        }
        if let Ok(n) = a.parse() {
            if n >= 1 {
                reps = n;
            }
        }
    }
    let jobs = pool::jobs_for(&args);
    bench::header("buildperf", "staged build pipeline / profiler wall-clock");

    let workloads: Vec<_> = names().iter().map(|n| workload(n, Input::Large)).collect();
    // The shared 112-cell evaluation matrix (`bench::suite_configs`):
    // fig09 pair + table2 heuristics + rq3 ablations + fig12 nospec.
    let cfgs = suite_configs();

    // 1. Cold full builds (every cache cleared per build), with the
    // pass-manager's per-pass wall-time breakdown aggregated across
    // workloads (first-appearance order).
    let mut cold_rows = Vec::new();
    let mut pass_rows: Vec<(String, u64, u64)> = Vec::new();
    for w in &workloads {
        clear_all();
        let t = Instant::now();
        let c = build(w, &BuildConfig::bitspec()).expect("build");
        cold_rows.push((w.name.clone(), t.elapsed().as_secs_f64()));
        for p in &c.trace.passes {
            match pass_rows.iter_mut().find(|(n, _, _)| *n == p.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += p.wall_ns;
                }
                None => pass_rows.push((p.name.clone(), 1, p.wall_ns)),
            }
        }
        std::hint::black_box(c);
    }
    let cold_total: f64 = cold_rows.iter().map(|r| r.1).sum();
    println!(
        "cold bitspec builds: {:.3}s total over {} workloads",
        cold_total,
        cold_rows.len()
    );
    println!("{:<20} {:>6} {:>12}", "pass", "runs", "total_ms");
    for (name, count, wall_ns) in &pass_rows {
        println!("{name:<20} {count:>6} {:>12.2}", *wall_ns as f64 / 1e6);
    }

    // 2. Matrix sweeps: uncached serial vs stage-cached serial vs pool.
    // Whole-sweep wall clock is noisy (scheduler, page cache), so take the
    // per-variant minimum over a few sweeps — evenly for both sides.
    let sweep_reps = reps.min(3);
    let cells = workloads.len() * cfgs.len();
    stages::set_enabled(false);
    let mut uncached_serial = f64::INFINITY;
    for _ in 0..sweep_reps {
        clear_all();
        uncached_serial = uncached_serial.min(sweep_serial(&workloads, &cfgs));
    }
    stages::set_enabled(true);
    let (mut warm_serial, mut resweep) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..sweep_reps {
        clear_all();
        warm_serial = warm_serial.min(sweep_serial(&workloads, &cfgs));
        // Artifact + stage caches hot.
        resweep = resweep.min(sweep_serial(&workloads, &cfgs));
    }
    clear_all();
    let t = Instant::now();
    std::hint::black_box(bench::run_matrix(&workloads, &cfgs, jobs));
    let warm_pool = t.elapsed().as_secs_f64();
    let warm_speedup = uncached_serial / warm_serial;
    println!(
        "matrix sweep ({cells} cells): uncached_serial={uncached_serial:.3}s \
         staged_serial={warm_serial:.3}s ({warm_speedup:.2}x) \
         staged_pool(j={jobs})={warm_pool:.3}s resweep={resweep:.3}s"
    );

    // 2b. Persistent store matrix: cold (populate a fresh store) /
    // disk-warm (memory caches wiped, cells served from disk) /
    // memory-warm (the `resweep` above). The disk-warm leg asserts every
    // cell really came from the store and that the artifacts are
    // bit-identical to the builds that populated it.
    let store_dir = std::env::temp_dir().join(format!("buildperf-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    bitspec::store::configure(Some(&store_dir), None);
    clear_all();
    let t = Instant::now();
    let mut populate_fps = Vec::with_capacity(cells);
    for w in &workloads {
        for cfg in &cfgs {
            let (manifest, _) = run_cached_traced(w, cfg);
            populate_fps.push(manifest.parts.program);
        }
    }
    let store_populate = t.elapsed().as_secs_f64();
    clear_all(); // memory gone; the store keeps its entries
    let t = Instant::now();
    let mut disk_hits = 0usize;
    for (i, (w, cfg)) in workloads
        .iter()
        .flat_map(|w| cfgs.iter().map(move |c| (w, c)))
        .enumerate()
    {
        let (manifest, source) = run_cached_traced(w, cfg);
        if source == CellSource::Disk {
            disk_hits += 1;
        }
        assert_eq!(
            manifest.parts.program, populate_fps[i],
            "{}: disk-served artifact differs from the build that populated it",
            w.name
        );
    }
    let disk_resweep = t.elapsed().as_secs_f64();
    assert_eq!(disk_hits, cells, "disk-warm re-sweep missed the store");
    let disk_speedup = uncached_serial / disk_resweep;
    println!(
        "store matrix ({cells} cells): populate={store_populate:.3}s \
         disk_resweep={disk_resweep:.3}s ({disk_speedup:.1}x vs uncached) \
         memory_resweep={resweep:.3}s"
    );
    bitspec::store::configure(None, None);
    let _ = std::fs::remove_dir_all(&store_dir);
    clear_all();

    // 2c. `-j` cold-build matrix: the full suite matrix from an entirely
    // cold start (stage, function and artifact caches all cleared) at
    // increasing pool widths. Every width must produce bit-identical
    // programs: the suite fingerprint (an order-sensitive fold of the
    // per-cell program fingerprints) is asserted equal across widths,
    // which is the parallel-vs-serial divergence gate ci.sh relies on.
    let host_par = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut js = vec![1usize, 2, 4, jobs.max(host_par)];
    js.sort_unstable();
    js.dedup();
    let mut jrows: Vec<(usize, f64, u64, u32, u32)> = Vec::new();
    for &j in &js {
        clear_all();
        let t = Instant::now();
        let m = bench::run_matrix(&workloads, &cfgs, j);
        let secs = t.elapsed().as_secs_f64();
        let mut suite_fp = 0xcbf2_9ce4_8422_2325u64;
        let (mut fn_hits, mut fn_total) = (0u32, 0u32);
        for row in &m {
            for cell in row {
                suite_fp = suite_fp.rotate_left(13) ^ backend::program_fingerprint(&cell.0.program);
                fn_hits += cell.0.stage_hits.fn_hits;
                fn_total += cell.0.stage_hits.fn_total;
            }
        }
        jrows.push((j, secs, suite_fp, fn_hits, fn_total));
    }
    let (_, _, serial_suite_fp, serial_hits, serial_total) = jrows[0];
    for (j, _, fp, hits, total) in &jrows {
        assert_eq!(
            *fp, serial_suite_fp,
            "-j{j} cold build diverged from the -j1 suite fingerprint"
        );
        assert_eq!(
            (*hits, *total),
            (serial_hits, serial_total),
            "-j{j} cold build's fn cache accounting diverged from -j1"
        );
    }
    // Two different wins, kept apart: the pool's (cold -j1 over the best
    // cold -j) and the stage cache's (the uncached serial pipeline over
    // the same cold matrix at -j1, which shares stages across configs).
    let cold_j1 = jrows[0].1;
    let cold_best = jrows.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
    let jobs_speedup = cold_j1 / cold_best;
    let cold_cache_speedup = uncached_serial / cold_j1;
    println!(
        "{:<8} {:>10} {:>20} {:>10} {:>10}",
        "jobs", "cold_s", "suite_fp", "fn_hits", "fn_total"
    );
    for (j, secs, fp, hits, total) in &jrows {
        println!("{j:<8} {secs:>10.3} {fp:>20x} {hits:>10} {total:>10}");
    }
    println!(
        "cold -j matrix: parallel cold build {jobs_speedup:.2}x over -j1 (host \
         parallelism {host_par}); stage cache {cold_cache_speedup:.2}x over the \
         uncached serial pipeline at -j1"
    );

    // 2d. Function-granular incremental rebuild on the synthetic multifn
    // workload (expander off so its k+1 functions stay separate backend
    // compilation units; no empirical gate so the timed region is
    // front/expand/profile cache hits + codegen + link). `T_full` wipes
    // the function cache so every function recompiles; `T_inc` primes it
    // with the pre-edit module first, so the one-constant edit recompiles
    // exactly one function. Both must link bit-identical programs.
    let kfns = 40usize;
    let mut icfg = BuildConfig::baseline();
    icfg.expander.enabled = false;
    icfg.empirical_gate = false;
    // Verification off so the timed region isolates codegen: the
    // per-function mir/regalloc verdicts are cached inside the artifacts
    // either way, but the Δ-skeleton check on the linked image is
    // whole-program and would rerun on every rebuild, swamping the
    // incremental win with a cost the function cache cannot remove.
    icfg.verify_each = false;
    let w_pre = mibench::multifn(kfns, 0);
    let w_post = mibench::multifn(kfns, 1);
    clear_all();
    build(&w_pre, &icfg).expect("multifn pre-edit build");
    build(&w_post, &icfg).expect("multifn post-edit build");
    let (mut t_full, mut t_inc) = (f64::INFINITY, f64::INFINITY);
    let (mut full_fp, mut inc_fp) = (0u64, 0u64);
    let (mut inc_hits, mut inc_total) = (0u32, 0u32);
    for _ in 0..reps {
        stages::clear_fns();
        let t = Instant::now();
        let c = build(&w_post, &icfg).expect("full warm rebuild");
        t_full = t_full.min(t.elapsed().as_secs_f64());
        full_fp = backend::program_fingerprint(&c.program);
        assert_eq!(c.stage_hits.fn_hits, 0, "full rebuild hit the fn cache");

        stages::clear_fns();
        build(&w_pre, &icfg).expect("prime pre-edit fn artifacts");
        let t = Instant::now();
        let c = build(&w_post, &icfg).expect("incremental rebuild");
        t_inc = t_inc.min(t.elapsed().as_secs_f64());
        inc_fp = backend::program_fingerprint(&c.program);
        inc_hits = c.stage_hits.fn_hits;
        inc_total = c.stage_hits.fn_total;
    }
    assert_eq!(full_fp, inc_fp, "incremental rebuild diverged from full");
    assert_eq!(
        (inc_hits, inc_total),
        (kfns as u32, kfns as u32 + 1),
        "one-function edit should recompile exactly one of k+1 functions"
    );
    let inc_speedup = t_full / t_inc;
    println!(
        "incremental rebuild ({} fns): full={:.2}ms one-fn-edit={:.2}ms \
         ({inc_speedup:.2}x; {inc_hits}/{inc_total} fn cache hits)",
        kfns + 1,
        t_full * 1e3,
        t_inc * 1e3
    );

    // Parallel per-function codegen on the same workload: worker counts
    // must not change the linked image (the serial layout pass is the
    // only cross-function step).
    let cg_jobs = jobs.max(2).max(host_par);
    let mut cg_rows: Vec<(usize, f64, u64)> = Vec::new();
    for &j in &[1usize, cg_jobs] {
        stages::set_codegen_workers(j);
        let (mut best, mut fp) = (f64::INFINITY, 0u64);
        for _ in 0..reps {
            stages::clear_fns();
            let t = Instant::now();
            let c = build(&w_pre, &icfg).expect("parallel codegen build");
            best = best.min(t.elapsed().as_secs_f64());
            fp = backend::program_fingerprint(&c.program);
        }
        cg_rows.push((j, best, fp));
    }
    stages::set_codegen_workers(1);
    assert_eq!(
        cg_rows[0].2, cg_rows[1].2,
        "parallel codegen diverged from serial"
    );
    println!(
        "parallel codegen: j=1 {:.2}ms  j={} {:.2}ms (bit-identical)",
        cg_rows[0].1 * 1e3,
        cg_rows[1].0,
        cg_rows[1].1 * 1e3
    );
    clear_all();

    // 3. Profiler engines on every workload's expanded module.
    let mut prof_rows = Vec::new();
    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>8}",
        "workload", "dyn_insts", "ref_ms", "fast_ms", "speedup"
    );
    for w in &workloads {
        let mut tracer =
            bitspec::pipeline::Tracer::new(bitspec::pipeline::TracePolicy::verify(true));
        let (module, _) =
            stages::expand(w, &BuildConfig::bitspec().expander, &mut tracer).expect("expand");
        let train = if w.train_inputs.is_empty() {
            &w.inputs
        } else {
            &w.train_inputs
        };
        let (mut t_ref, mut t_fast) = (f64::INFINITY, f64::INFINITY);
        let mut identical = true;
        let mut dyn_insts = 0;
        for _ in 0..reps {
            let (tr, rr, pr) = profile_once(&module, train, true);
            let (tf, rf, pf) = profile_once(&module, train, false);
            t_ref = t_ref.min(tr);
            t_fast = t_fast.min(tf);
            identical &= rr == rf && pr == pf;
            dyn_insts = rr.stats.dyn_insts;
        }
        assert!(identical, "{}: fast/reference profiler divergence", w.name);
        println!(
            "{:<16} {dyn_insts:>12} {:>12.2} {:>12.2} {:>7.2}x",
            w.name,
            t_ref * 1e3,
            t_fast * 1e3,
            t_ref / t_fast
        );
        prof_rows.push((w.name.clone(), dyn_insts, t_ref, t_fast, identical));
    }
    let sum_ref: f64 = prof_rows.iter().map(|r| r.2).sum();
    let sum_fast: f64 = prof_rows.iter().map(|r| r.3).sum();
    println!(
        "{:<16} {:>12} {:>12.2} {:>12.2} {:>7.2}x",
        "TOTAL",
        "",
        sum_ref * 1e3,
        sum_fast * 1e3,
        sum_ref / sum_fast
    );

    let mut json = String::from("{\n  \"cold_builds\": [\n");
    for (i, (name, secs)) in cold_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": \"{name}\", \"bitspec_s\": {secs:.6}}}{}\n",
            if i + 1 < cold_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"passes\": [\n");
    for (i, (name, count, wall_ns)) in pass_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{name}\", \"runs\": {count}, \"total_wall_ns\": {wall_ns}}}{}\n",
            if i + 1 < pass_rows.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"cold_total_s\": {cold_total:.6},\n  \"sweep\": {{\"cells\": {cells}, \
         \"configs\": {}, \"uncached_serial_s\": {uncached_serial:.6}, \
         \"staged_serial_s\": {warm_serial:.6}, \"warm_speedup\": {warm_speedup:.3}, \
         \"staged_pool_jobs\": {jobs}, \"staged_pool_s\": {warm_pool:.6}, \
         \"resweep_s\": {resweep:.6}, \"store_populate_s\": {store_populate:.6}, \
         \"disk_resweep_s\": {disk_resweep:.6}, \"disk_speedup\": {disk_speedup:.3}}},\n  \"jobs_matrix\": [\n",
        cfgs.len()
    ));
    for (i, (j, secs, fp, hits, total)) in jrows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"jobs\": {j}, \"cold_s\": {secs:.6}, \"suite_fp\": \"{fp:016x}\", \
             \"fn_hits\": {hits}, \"fn_total\": {total}}}{}\n",
            if i + 1 < jrows.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"jobs_speedup\": {jobs_speedup:.3},\n  \
         \"cold_cache_speedup\": {cold_cache_speedup:.3},\n  \
         \"host_parallelism\": {host_par},\n  \"incremental\": {{\
         \"functions\": {}, \"full_rebuild_s\": {t_full:.6}, \
         \"incremental_s\": {t_inc:.6}, \"speedup\": {inc_speedup:.3}, \
         \"fn_hits\": {inc_hits}, \"fn_total\": {inc_total}, \
         \"codegen_serial_s\": {:.6}, \"codegen_parallel_s\": {:.6}, \
         \"codegen_jobs\": {}}},\n  \"profiler\": [\n",
        kfns + 1,
        cg_rows[0].1,
        cg_rows[1].1,
        cg_rows[1].0
    ));
    for (i, (name, dyn_insts, t_ref, t_fast, identical)) in prof_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": \"{name}\", \"dyn_insts\": {dyn_insts}, \
             \"reference_s\": {t_ref:.6}, \"fast_s\": {t_fast:.6}, \
             \"speedup\": {:.3}, \"identical\": {identical}}}{}\n",
            t_ref / t_fast,
            if i + 1 < prof_rows.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"profiler_total_reference_s\": {sum_ref:.6},\n  \
         \"profiler_total_fast_s\": {sum_fast:.6},\n  \
         \"profiler_total_speedup\": {:.3},\n  \"reps\": {reps}\n}}\n",
        sum_ref / sum_fast
    ));
    std::fs::write("BENCH_build.json", &json).expect("write BENCH_build.json");
    println!("wrote BENCH_build.json");
}
