//! `run_matrix_sims`, the accessor of the harnesses that read only each
//! cell's evaluation result: it returns exactly the `SimResult`s of
//! `run_matrix`, and a disk-warm run reads manifests and nothing else.

use bench::{clear_cache, run_matrix, run_matrix_sims};
use bitspec::memo::{self, Counts};
use bitspec::{stages, store, wire, BuildConfig, SimResult, Workload};
use std::fs;

/// Each result's wire encoding: equal bytes are bit-identical results.
fn bits(rows: &[Vec<SimResult>]) -> Vec<Vec<Vec<u8>>> {
    rows.iter()
        .map(|row| row.iter().map(wire::encode).collect())
        .collect()
}

fn workload(tag: &str, seed: Vec<u8>) -> Workload {
    let src = format!(
        "global u8 seed[2]; // sim matrix {tag}
         void main() {{
            u32 s = 1;
            for (u32 i = 0; i < 40; i++) {{ s = (s + seed[i & 1]) * 5 & 255; }}
            out(s);
         }}"
    );
    Workload::from_source(format!("sim_matrix_{tag}"), src)
        .with_input("seed", seed)
        .with_train_input("seed", vec![1, 2])
}

#[test]
fn disk_warm_sim_matrix_reads_only_manifests() {
    let dir = std::env::temp_dir().join(format!("bitspec-sim-matrix-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    store::configure(Some(&dir), None);
    let workloads = [workload("a", vec![3, 9]), workload("b", vec![200, 7])];
    let cfgs = [BuildConfig::baseline(), BuildConfig::bitspec()];
    let n = (workloads.len() * cfgs.len()) as u64;

    let cold = run_matrix_sims(&workloads, &cfgs, 2);
    let cells = run_matrix(&workloads, &cfgs, 2);
    let from_cells: Vec<Vec<SimResult>> = cells
        .iter()
        .map(|row| row.iter().map(|c| c.1.clone()).collect())
        .collect();
    assert_eq!(bits(&cold), bits(&from_cells));

    clear_cache();
    stages::clear();
    let before = memo::stats();
    let warm = run_matrix_sims(&workloads, &cfgs, 2);
    let delta = memo::stats().since(&before);
    store::configure(None, None);
    let _ = fs::remove_dir_all(&dir);

    assert_eq!(bits(&warm), bits(&cold));
    for (kind, counts) in delta.iter() {
        if kind == "manifest" {
            assert_eq!(counts.disk_hits, n, "every cell comes off disk");
            assert_eq!(counts.misses, 0);
        } else {
            assert_eq!(counts, Counts::default(), "{kind} was looked up");
        }
    }
}
