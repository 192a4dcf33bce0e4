//! Parallel builds are bit-identical to serial builds.
//!
//! The backend compiles functions independently (possibly across pool
//! workers, possibly served from the function cache in any interleaving)
//! and a single serial layout/link pass assembles the image — so worker
//! counts must never change a linked program. These tests sweep the full
//! mibench suite across the arch × empirical-gate config grid at `-j1`
//! and `-jN` (pool workers *and* per-function codegen workers) and assert
//! the results are bit-identical: per-program fingerprints, instruction
//! addresses, function tables, Δ-skeleton layout tables, and the folded
//! suite fingerprint. The sweep then repeats as bench cells against a
//! persistent store (`BITSPEC_STORE_DIR` tier) to prove that cells
//! recomputed for disk-served manifests link the same images.
//!
//! Per-build provenance (which cell's build computed a shared artifact
//! first, and so its `StageHits` flags) legitimately varies with the
//! worker count. The process-wide counters do not: every cache is a
//! single-flight memo, so each artifact is computed once at any `-j`, and
//! the `memo::stats()` deltas of the `-j1` and `-j8` sweeps must agree
//! for every kind on both the memory and the disk tier, store writes and
//! corrupt reads included.
//!
//! Every artifact is also computed *once*: on a slice of the expander
//! tuner's grid, where several corners expand a workload to the same
//! module, the profile and evaluation-sim memos must miss exactly once per
//! distinct expanded module and linked program, at any `-j`. On a gated
//! slice of the suite the one `sim` stage serves the empirical gate's
//! training runs and the evaluation runs alike, so it misses exactly once
//! per distinct run over both, and every gated cell's evaluation is a hit.
//! That slice runs `bench::suite_configs` through `bench::run_matrix`, and
//! its linked programs are also the same at `-j1` and `-j8`.
//!
//! The stage caches and store configuration are process-global, so the
//! tests take a file-wide lock.

use bitspec::memo::{self, Stats};
use bitspec::{
    build, build_matrix, pipeline, program_fingerprint, resolve_inputs, simulate_with, stages,
    Arch, BuildConfig, BuildError, Compiled, ExpanderConfig, SimConfig, Workload,
};
use mibench::{names, workload, Input};
use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard, OnceLock};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The arch × empirical-gate grid: every architecture with the gate on
/// and off (8 configs — the gate adds a second codegen leg, so both gate
/// states must stay deterministic).
fn arch_gate_configs() -> Vec<BuildConfig> {
    let mut cfgs = Vec::new();
    for arch in [Arch::Baseline, Arch::BitSpec, Arch::NoSpec, Arch::Compact] {
        for gate in [false, true] {
            cfgs.push(BuildConfig {
                arch,
                empirical_gate: gate,
                ..BuildConfig::baseline()
            });
        }
    }
    cfgs
}

/// The deterministic projection of one build compared across `-j` levels.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Snapshot {
    fingerprint: u64,
    addrs: Vec<u32>,
    func_entries: Vec<usize>,
    func_names: Vec<String>,
    spec_targets: Vec<(usize, usize, usize)>,
}

/// One sweep's results: per-cell snapshots (suite order), the folded
/// suite fingerprint, and the cache counters the sweep moved.
type Sweep = (Vec<Snapshot>, u64, Stats);

/// One full suite × config sweep at the given worker count, from cold
/// memory caches: bare builds, or with `cells` bench cells
/// (`bench::run_matrix`), whose manifests an active store holds.
fn sweep(workloads: &[Workload], cfgs: &[BuildConfig], jobs: usize, cells: bool) -> Sweep {
    stages::clear();
    bench::clear_cache();
    let before = memo::stats();
    stages::set_codegen_workers(jobs);
    let built: Vec<Compiled> = if cells {
        bench::run_matrix(workloads, cfgs, jobs)
            .iter()
            .flatten()
            .map(|cell| cell.0.clone())
            .collect()
    } else {
        workloads
            .iter()
            .flat_map(|w| {
                build_matrix(w, cfgs, jobs)
                    .into_iter()
                    .map(|r| r.unwrap_or_else(|e| panic!("{}: build failed: {e}", w.name)))
            })
            .collect()
    };
    let mut snaps = Vec::new();
    let mut suite_fp = 0xcbf2_9ce4_8422_2325u64;
    for c in built {
        let fp = program_fingerprint(&c.program);
        suite_fp = suite_fp.rotate_left(13) ^ fp;
        snaps.push(Snapshot {
            fingerprint: fp,
            addrs: c.program.addrs,
            func_entries: c.program.func_entries,
            func_names: c.program.func_names,
            spec_targets: c.program.spec_targets,
        });
    }
    stages::set_codegen_workers(1);
    (snaps, suite_fp, memo::stats().since(&before))
}

fn assert_sweeps_identical(
    label: &str,
    workloads: &[Workload],
    cfgs: &[BuildConfig],
    a: &Sweep,
    b: &Sweep,
) {
    for (i, (sa, sb)) in a.0.iter().zip(&b.0).enumerate() {
        let (w, cfg) = (&workloads[i / cfgs.len()], &cfgs[i % cfgs.len()]);
        assert_eq!(
            sa, sb,
            "{label}: {} under {:?}/gate={} diverged between -j1 and -jN",
            w.name, cfg.arch, cfg.empirical_gate
        );
    }
    assert_eq!(a.1, b.1, "{label}: suite fingerprint diverged");
}

/// Every counter but waits, kind by kind. Waits are the one
/// scheduling-dependent counter (a -j1 sweep never waits).
fn accounting(s: &Stats) -> Vec<(&'static str, [u64; 6])> {
    s.iter()
        .map(|(k, c)| {
            (
                k,
                [
                    c.hits,
                    c.misses,
                    c.disk_hits,
                    c.disk_misses,
                    c.puts,
                    c.corrupt,
                ],
            )
        })
        .collect()
}

/// Asserts two sweeps over the same cache state moved the same counters.
fn assert_same_accounting(label: &str, a: &Sweep, b: &Sweep) {
    assert_eq!(
        accounting(&a.2),
        accounting(&b.2),
        "{label}: cache counters diverged between -j1 and -jN"
    );
}

#[test]
fn suite_parallel_builds_match_serial() {
    let _g = serial();
    let workloads: Vec<_> = names().iter().map(|n| workload(n, Input::Large)).collect();
    let cfgs = arch_gate_configs();
    let serial_sweep = sweep(&workloads, &cfgs, 1, false);
    let parallel_sweep = sweep(&workloads, &cfgs, 8, false);
    assert_sweeps_identical("memory", &workloads, &cfgs, &serial_sweep, &parallel_sweep);
    assert_same_accounting("memory", &serial_sweep, &parallel_sweep);
    stages::clear();
}

#[test]
fn suite_parallel_builds_match_serial_through_disk_store() {
    let _g = serial();
    // A reduced grid keeps the disk leg fast; it still covers every arch
    // and both gate states across two workloads with very different
    // function/region structure.
    let workloads: Vec<_> = ["crc32", "dijkstra"]
        .iter()
        .map(|n| workload(n, Input::Large))
        .collect();
    let cfgs = arch_gate_configs();
    let dir = std::env::temp_dir().join(format!("pdet-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Cold sweeps of bench cells into an empty store compute everything
    // and write each cell's manifest; each gets a store of its own.
    bitspec::store::configure(Some(&dir.join("j1")), None);
    let serial_cold = sweep(&workloads, &cfgs, 1, true);
    bitspec::store::configure(Some(&dir.join("j8")), None);
    let parallel_cold = sweep(&workloads, &cfgs, 8, true);
    // Disk-warm sweeps start with empty memory tiers, so their manifests
    // come off the populated store and their cells are recomputed.
    let serial_disk = sweep(&workloads, &cfgs, 1, true);
    let parallel_disk = sweep(&workloads, &cfgs, 8, true);

    bitspec::store::configure(None, None);
    let _ = std::fs::remove_dir_all(&dir);
    stages::clear();

    assert_sweeps_identical(
        "cold store",
        &workloads,
        &cfgs,
        &serial_cold,
        &parallel_cold,
    );
    assert_sweeps_identical("disk", &workloads, &cfgs, &serial_cold, &parallel_disk);
    assert_same_accounting("cold store", &serial_cold, &parallel_cold);
    assert_same_accounting("disk", &serial_disk, &parallel_disk);
    for (kind, c) in parallel_disk.2.iter() {
        assert_eq!(
            c.disk_misses, 0,
            "{kind}: the disk-warm sweep missed the store"
        );
    }
    assert_eq!(
        parallel_disk.2.get("manifest").disk_hits,
        serial_cold.0.len() as u64,
        "the disk-warm -jN sweep must read every cell's manifest off the store"
    );
}

/// Four of the tuner's grid corners (BASELINE). The two `unroll_factor: 1`
/// corners differ only in budgets that loop-free and small functions never
/// reach, so they expand most workloads to the same module.
fn grid_slice_configs() -> Vec<BuildConfig> {
    [
        (1, 200, 2000),
        (1, 800, 8000),
        (4, 200, 8000),
        (8, 800, 2000),
    ]
    .into_iter()
    .map(
        |(unroll_factor, max_loop_size, max_func_size)| BuildConfig {
            expander: ExpanderConfig {
                unroll_factor,
                max_loop_size,
                max_func_size,
                enabled: true,
            },
            ..BuildConfig::baseline()
        },
    )
    .collect()
}

#[test]
fn expander_grid_computes_each_profile_and_sim_once_at_any_job_count() {
    let _g = serial();
    let workloads: Vec<_> = ["crc32", "dijkstra"]
        .iter()
        .map(|n| workload(n, Input::Large))
        .collect();
    let cfgs = grid_slice_configs();
    let mut moved = Vec::new();
    for jobs in [1, 8] {
        stages::clear();
        bench::clear_cache();
        let before = memo::stats();
        stages::set_codegen_workers(jobs);
        let rows = bench::run_matrix(&workloads, &cfgs, jobs);
        stages::set_codegen_workers(1);
        let delta = memo::stats().since(&before);
        let cells: Vec<_> = rows.iter().flatten().collect();
        // BASELINE codegens the expanded module itself.
        let expanded: BTreeSet<u64> = cells
            .iter()
            .map(|c| sir::pass::ir_fingerprint(&c.0.module))
            .collect();
        let programs: BTreeSet<u64> = cells
            .iter()
            .map(|c| program_fingerprint(&c.0.program))
            .collect();
        assert!(
            expanded.len() < cells.len(),
            "-j{jobs}: no two corners expand alike, so the slice proves nothing"
        );
        assert_eq!(
            delta.get("profile").misses,
            expanded.len() as u64,
            "-j{jobs}: one profiling run per distinct expanded module"
        );
        assert_eq!(
            delta.get("sim").misses,
            programs.len() as u64,
            "-j{jobs}: one evaluation sim per distinct program"
        );
        moved.push(accounting(&delta));
    }
    stages::clear();
    bench::clear_cache();
    assert_eq!(
        moved[0], moved[1],
        "cache counters diverged between -j1 and -j8"
    );
}

/// One simulation run as the `sim` stage tells runs apart: the program
/// fingerprint, the inputs resolved to `(address, bytes)` pairs and the
/// build's DTS flag. Every run of the gated slice uses
/// `SimConfig::default()`, so the configuration adds no distinction.
type SimRun = (u64, Vec<(u32, Vec<u8>)>, bool);

fn sim_run(
    module: &sir::Module,
    program: &bitspec::Program,
    inputs: &[(String, Vec<u8>)],
    dts: bool,
) -> SimRun {
    (
        program_fingerprint(program),
        resolve_inputs(module, inputs),
        dts,
    )
}

/// The two training runs the empirical gate of a gated cell made: the
/// squeezed candidate (which the same config with the gate off links) and
/// the memoized unsqueezed reference leg. Call with the sweep's stage
/// memos still warm: the reference comes off the `gate` memo.
fn gate_runs(w: &Workload, cfg: &BuildConfig) -> [SimRun; 2] {
    let train = if w.train_inputs.is_empty() {
        &w.inputs
    } else {
        &w.train_inputs
    };
    let cand = build(
        w,
        &BuildConfig {
            empirical_gate: false,
            ..cfg.clone()
        },
    )
    .unwrap();
    let opts = backend::CodegenOpts {
        bitspec: true,
        compact: false,
        spill_prefer_orig: cfg.spill_prefer_orig,
    };
    let (gref, hit) = stages::gate_ref(
        w,
        &cfg.expander,
        &pipeline::policy(cfg.verify_each),
        &opts,
        || -> Result<stages::GateRef, BuildError> { panic!("the sweep computed this leg") },
    )
    .unwrap();
    assert!(hit);
    let (expanded, _) = stages::expand(
        w,
        &cfg.expander,
        &mut sir::pass::Tracer::new(pipeline::policy(cfg.verify_each)),
    )
    .unwrap();
    [
        sim_run(&cand.module, &cand.program, train, false),
        sim_run(&expanded, &gref.program, train, false),
    ]
}

fn gated(c: &Compiled) -> bool {
    c.config.empirical_gate && c.squeeze.narrowed > 0
}

#[test]
fn gated_suite_slice_simulates_each_distinct_run_once_at_any_job_count() {
    let _g = serial();
    let workloads: Vec<_> = ["crc32", "dijkstra"]
        .iter()
        .map(|n| workload(n, Input::Large))
        .collect();
    let cfgs = bench::suite_configs();
    let mut moved = Vec::new();
    for jobs in [1, 8] {
        stages::clear();
        bench::clear_cache();
        let before = memo::stats();
        stages::set_codegen_workers(jobs);
        let rows = bench::run_matrix(&workloads, &cfgs, jobs);
        stages::set_codegen_workers(1);
        let delta = memo::stats().since(&before);
        let mut runs = BTreeSet::new();
        let mut gated_cells = 0;
        let mut programs = Vec::new();
        for (w, row) in workloads.iter().zip(&rows) {
            for (cfg, cell) in cfgs.iter().zip(row) {
                let (c, r) = &**cell;
                programs.push(program_fingerprint(&c.program));
                let fresh = simulate_with(c, w, &SimConfig::default()).unwrap();
                assert_eq!(r.outputs, fresh.outputs, "{}: outputs", w.name);
                assert_eq!(r.cycles, fresh.cycles, "{}: cycles", w.name);
                assert_eq!(r.counts, fresh.counts, "{}: counts", w.name);
                assert_eq!(
                    r.total_energy().to_bits(),
                    fresh.total_energy().to_bits(),
                    "{}: energy",
                    w.name
                );
                assert_eq!(format!("{r:?}"), format!("{fresh:?}"), "{}", w.name);
                let eval = sim_run(&c.module, &c.program, &w.inputs, c.config.dts);
                if gated(c) {
                    gated_cells += 1;
                    let legs = gate_runs(w, cfg);
                    assert!(
                        legs.contains(&eval),
                        "-j{jobs}: {} under {cfg:?}: the gate never ran the kept program",
                        w.name
                    );
                    runs.extend(legs);
                }
                runs.insert(eval);
            }
        }
        assert!(gated_cells > 0, "-j{jobs}: the slice gates nothing");
        assert_eq!(
            delta.get("sim").misses,
            runs.len() as u64,
            "-j{jobs}: one sim per distinct evaluation or gate run"
        );
        moved.push((accounting(&delta), programs));
    }
    assert_eq!(
        moved[0].0, moved[1].0,
        "cache counters diverged between -j1 and -j8"
    );
    assert_eq!(
        moved[0].1, moved[1].1,
        "linked programs diverged between -j1 and -j8"
    );
    // Cell by cell from cold memos: a gated cell's evaluation lookup is
    // served by the run its gate just made.
    for w in &workloads {
        for cfg in cfgs
            .iter()
            .filter(|c| c.empirical_gate && c.squeeze_config().is_some())
        {
            stages::clear();
            bench::clear_cache();
            let before = memo::stats();
            let (c, _) = bench::run(w, cfg);
            let sims = memo::stats().since(&before).get("sim");
            if gated(&c) {
                let legs = gate_runs(w, cfg);
                let distinct = if legs[0] == legs[1] { 1 } else { 2 };
                assert_eq!(
                    (sims.misses, sims.hits + sims.misses),
                    (distinct, 3),
                    "{} under {cfg:?}: the evaluation run missed",
                    w.name
                );
            }
        }
    }
    stages::clear();
    bench::clear_cache();
}
