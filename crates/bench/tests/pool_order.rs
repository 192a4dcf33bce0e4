//! `pool::run_ordered` ordering audit and harness-output regression.
//!
//! The pool's contract is that output order is input order for any
//! worker count — every table/figure harness and `bitspecd --ordered`
//! depend on it for byte-stable output under `-j`. These tests audit the
//! contract directly against a serial reference under adversarial
//! completion order, then prove it end-to-end: the formatted JSONL rows
//! and the summary a harness would emit from `run_matrix` are
//! byte-identical at 1 and 8 workers.

use bench::{clear_cache, pool, run_matrix, Cell};
use bitspec::{program_fingerprint, stages, BuildConfig, Workload};
use std::sync::Mutex;

/// The bench artifact cache and the compiler stage caches are
/// process-global; tests that clear them must not interleave.
static CACHE_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn run_ordered_matches_serial_reference_under_adversarial_completion() {
    // Early indices are the slowest, so with 8 workers the completion
    // order is roughly the reverse of the input order — the collected
    // results must still equal the sequential (workers=1) reference
    // element for element.
    let work = |i: usize| {
        if i < 8 {
            std::thread::sleep(std::time::Duration::from_millis(8 - i as u64));
        }
        (i, i.wrapping_mul(0x9E37_79B9))
    };
    let reference = pool::run_ordered(48, 1, work);
    for workers in [2, 8] {
        assert_eq!(
            pool::run_ordered(48, workers, work),
            reference,
            "workers={workers}: result order diverged from the serial reference"
        );
    }
    // More workers than items degenerates cleanly.
    assert_eq!(pool::effective_workers(3, 8), 3);
    assert_eq!(pool::run_ordered(3, 8, work), reference[..3]);
}

/// Renders a matrix sweep the way the harnesses do: one JSONL row per
/// cell (workload-major, config-minor) plus a BENCH-style trailer with
/// the folded suite fingerprint.
fn render(workloads: &[Workload], cfgs: &[BuildConfig], rows: &[Vec<Cell>]) -> String {
    let mut out = String::new();
    let mut suite_fp = 0xcbf2_9ce4_8422_2325u64;
    for (w, row) in workloads.iter().zip(rows) {
        for (ci, cell) in row.iter().enumerate() {
            let fp = program_fingerprint(&cell.0.program);
            suite_fp = suite_fp.rotate_left(13) ^ fp;
            out.push_str(&format!(
                "{{\"workload\":\"{}\",\"config\":{},\"fingerprint\":\"{:016x}\",\
                 \"cycles\":{},\"outputs\":{:?}}}\n",
                w.name, ci, fp, cell.1.cycles, cell.1.outputs
            ));
        }
    }
    out.push_str(&format!(
        "{{\"cells\":{},\"suite_fingerprint\":\"{:016x}\"}}\n",
        workloads.len() * cfgs.len(),
        suite_fp
    ));
    out
}

#[test]
fn formatted_matrix_output_is_byte_identical_across_worker_counts() {
    let _guard = CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let workloads: Vec<Workload> = (0..5)
        .map(|k| {
            Workload::from_source(
                format!("row{k}"),
                format!(
                    "void main() {{
                        u32 s = {};
                        for (u32 i = 0; i < {}; i++) {{ s = (s ^ (s >> 3)) + i; }}
                        out(s);
                    }}",
                    k * 7 + 1,
                    50 + k * 13
                ),
            )
        })
        .collect();
    let cfgs = [
        BuildConfig::baseline(),
        BuildConfig {
            empirical_gate: false,
            ..BuildConfig::bitspec()
        },
    ];

    // Each sweep starts from fully cold caches so the 8-worker run
    // really computes its cells concurrently instead of replaying the
    // serial run's artifacts.
    clear_cache();
    stages::clear();
    let serial = render(&workloads, &cfgs, &run_matrix(&workloads, &cfgs, 1));
    clear_cache();
    stages::clear();
    let parallel = render(&workloads, &cfgs, &run_matrix(&workloads, &cfgs, 8));
    assert_eq!(
        serial, parallel,
        "harness output must be byte-stable under -j"
    );
    clear_cache();
    stages::clear();
}
