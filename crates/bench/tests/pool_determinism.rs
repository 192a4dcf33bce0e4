//! Harness determinism: `run_suite`/`run_matrix` must return results in
//! input order with identical contents for every worker count, and the
//! artifact cache must serve repeats without changing them.

use bench::{clear_cache, pool, run_matrix, run_suite};
use bitspec::fingerprint::cell_key;
use bitspec::{BuildConfig, Workload};
use std::sync::Mutex;

/// The artifact cache is process-wide; tests that clear or rely on it
/// must not interleave with each other.
static CACHE_LOCK: Mutex<()> = Mutex::new(());

fn tiny_workloads() -> Vec<Workload> {
    // Cheap distinct kernels with distinct outputs, so a mixed-up result
    // order cannot go unnoticed.
    (0..6)
        .map(|k| {
            Workload::from_source(
                format!("tiny{k}"),
                format!(
                    "void main() {{
                        u32 s = {k};
                        for (u32 i = 0; i < {}; i++) {{ s = s * 3 + (i & 7); }}
                        out(s);
                    }}",
                    40 + k * 17
                ),
            )
        })
        .collect()
}

#[test]
fn suite_results_identical_across_worker_counts() {
    let _guard = CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let ws = tiny_workloads();
    let cfg = BuildConfig::baseline();
    clear_cache();
    let reference: Vec<Vec<u32>> = run_suite(&ws, &cfg, 1)
        .iter()
        .map(|c| c.1.outputs.clone())
        .collect();
    let ref_cycles: Vec<u64> = {
        clear_cache();
        run_suite(&ws, &cfg, 1).iter().map(|c| c.1.cycles).collect()
    };
    for workers in [2, 4, 8] {
        clear_cache();
        let cells = run_suite(&ws, &cfg, workers);
        let outputs: Vec<Vec<u32>> = cells.iter().map(|c| c.1.outputs.clone()).collect();
        let cycles: Vec<u64> = cells.iter().map(|c| c.1.cycles).collect();
        assert_eq!(outputs, reference, "workers={workers}: outputs reordered");
        assert_eq!(cycles, ref_cycles, "workers={workers}: cycles diverge");
    }
}

#[test]
fn matrix_is_input_ordered_and_cache_serves_repeats() {
    let _guard = CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let ws = tiny_workloads();
    let cfgs = [
        BuildConfig::baseline(),
        BuildConfig {
            empirical_gate: false,
            ..BuildConfig::bitspec()
        },
    ];
    clear_cache();
    let rows = run_matrix(&ws, &cfgs, 4);
    assert_eq!(rows.len(), ws.len());
    for (w, row) in ws.iter().zip(&rows) {
        assert_eq!(row.len(), cfgs.len());
        // Both configs compute the same program.
        assert_eq!(row[0].1.outputs, row[1].1.outputs, "{}", w.name);
    }
    // A repeat sweep is served from the cache: the same Arc, not a rerun.
    let again = run_matrix(&ws, &cfgs, 2);
    for (row, row2) in rows.iter().zip(&again) {
        for (cell, cell2) in row.iter().zip(row2) {
            assert!(std::sync::Arc::ptr_eq(cell, cell2), "cache missed a repeat");
        }
    }
    clear_cache();
}

#[test]
fn fingerprints_separate_configs_and_inputs() {
    let w = tiny_workloads().remove(0);
    let base = BuildConfig::baseline();
    let bs = BuildConfig::bitspec();
    assert_ne!(cell_key(&w, &base), cell_key(&w, &bs));
    let mut w2 = w.clone();
    w2.inputs.push(("data".into(), vec![1, 2, 3]));
    assert_ne!(cell_key(&w, &base), cell_key(&w2, &base));
    let mut w3 = w2.clone();
    w3.inputs[0].1[0] = 9;
    assert_ne!(cell_key(&w2, &base), cell_key(&w3, &base));
    assert_eq!(cell_key(&w, &base), cell_key(&w.clone(), &base));
}

#[test]
fn pool_preserves_order_under_contention() {
    // Uneven per-item cost exercises work stealing: late indices finish
    // before early ones, and the collection must still be input-ordered.
    let out = pool::run_ordered(64, 8, |i| {
        if i % 7 == 0 {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        i * 31
    });
    assert_eq!(out, (0..64).map(|i| i * 31).collect::<Vec<_>>());
}
