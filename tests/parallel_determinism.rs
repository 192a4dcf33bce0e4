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
//! suite fingerprint. The sweep then repeats against a persistent store
//! (`BITSPEC_STORE_DIR` tier) to prove disk-served artifacts link the
//! same images.
//!
//! Per-build provenance (which cell's build computed a shared artifact
//! first, and so its `StageHits` flags) legitimately varies with the
//! worker count. The process-wide counters do not: every cache is a
//! single-flight memo, so each artifact is computed once at any `-j`, and
//! the `stages::stats()` deltas of the `-j1` and `-j8` sweeps must agree
//! for every kind on both the memory and the disk tier.
//!
//! Every artifact is also computed *once*: on a slice of the expander
//! tuner's grid, where several corners expand a workload to the same
//! module, the profile and evaluation-sim memos must miss exactly once per
//! distinct expanded module and linked program, at any `-j`.
//!
//! The stage caches and store configuration are process-global, so the
//! tests take a file-wide lock.

use bitspec::memo::Stats;
use bitspec::{
    build_matrix, program_fingerprint, stages, Arch, BuildConfig, ExpanderConfig, Workload,
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
/// memory caches.
fn sweep(workloads: &[Workload], cfgs: &[BuildConfig], jobs: usize) -> Sweep {
    stages::clear();
    let before = stages::stats();
    stages::set_codegen_workers(jobs);
    let mut snaps = Vec::new();
    let mut suite_fp = 0xcbf2_9ce4_8422_2325u64;
    for w in workloads {
        for r in build_matrix(w, cfgs, jobs) {
            let c = r.unwrap_or_else(|e| panic!("{}: build failed: {e}", w.name));
            let fp = program_fingerprint(&c.program);
            suite_fp = suite_fp.rotate_left(13) ^ fp;
            snaps.push(Snapshot {
                fingerprint: fp,
                addrs: c.program.addrs.clone(),
                func_entries: c.program.func_entries.clone(),
                func_names: c.program.func_names.clone(),
                spec_targets: c.program.spec_targets.clone(),
            });
        }
    }
    stages::set_codegen_workers(1);
    (snaps, suite_fp, stages::stats().since(&before))
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
fn accounting(s: &Stats) -> Vec<(&'static str, [u64; 4])> {
    s.iter()
        .map(|(k, c)| (k, [c.hits, c.misses, c.disk_hits, c.disk_misses]))
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
    let serial_sweep = sweep(&workloads, &cfgs, 1);
    let parallel_sweep = sweep(&workloads, &cfgs, 8);
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

    // Cold sweeps into an empty store compute and publish everything;
    // each gets a store of its own.
    bitspec::store::configure(Some(&dir.join("j1")), None);
    let serial_cold = sweep(&workloads, &cfgs, 1);
    bitspec::store::configure(Some(&dir.join("j8")), None);
    let parallel_cold = sweep(&workloads, &cfgs, 8);
    // Disk-warm sweeps start with empty memory tiers, so their artifacts
    // come off the populated store.
    let serial_disk = sweep(&workloads, &cfgs, 1);
    let parallel_disk = sweep(&workloads, &cfgs, 8);

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
    assert!(
        parallel_disk.2.get("profile").disk_hits > 0,
        "the disk-warm -jN sweep must be served by the store"
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
        let before = stages::stats();
        stages::set_codegen_workers(jobs);
        let rows = bench::run_matrix(&workloads, &cfgs, jobs);
        stages::set_codegen_workers(1);
        let delta = stages::stats().since(&before);
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
