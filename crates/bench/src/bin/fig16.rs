//! Figure 16 (RQ6 deep dive): susan-edges cross-input study. For each pair
//! of images (i, j): compile with i as the profile input, run on j, and
//! report dynamic instructions relative to the self-profiled build p_j(j).
//! Repeated per heuristic; printed as distribution quantiles (the paper's
//! CDF). Uses an 8-image sample (64 runs/heuristic) instead of the paper's
//! 50 BSDS500 images — see DESIGN.md.
//!
//! Every cell in row i shares the build profiled on image i, so the sweep
//! is one build + one simulation per run image for each (heuristic,
//! profile image). Rows fan out across the worker pool (`-j N` or
//! `BITSPEC_JOBS`); the (j, j) self-profiled references fall out of the
//! same rows.

use bench::pool;
use bitspec::{build, simulate_with, BitwidthHeuristic, BuildConfig, SimConfig, Workload};
use mibench::{susan_image, Input};

const IMAGES: u64 = 8;

/// susan-edges with image `img` as both its profiling and its run input.
/// Row i builds `image_workload(i)` (fig16 runs with the empirical gate
/// off, so the build only consumes the train input) and runs the result
/// on every `image_workload(j)`'s input.
fn image_workload(img: u64) -> Workload {
    Workload::from_source("susan-edges", mibench::source_of("susan-edges"))
        .with_input("image", susan_image(Input::Seeded(img)))
        .with_train_input("image", susan_image(Input::Seeded(img)))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workers = pool::jobs_for(&args);
    bench::header(
        "fig16",
        "susan-edges cross-input dynamic-instruction ratios",
    );
    let images: Vec<Workload> = (0..IMAGES).map(image_workload).collect();
    for h in BitwidthHeuristic::ALL {
        let cfg = BuildConfig {
            empirical_gate: false,
            ..BuildConfig::bitspec_with(h)
        };
        // rows[i][j] = dyn_insts of the build profiled on i, run on j.
        let rows: Vec<Vec<u64>> = pool::run_ordered(IMAGES as usize, workers, |i| {
            let c = build(&images[i], &cfg).expect("build");
            images
                .iter()
                .map(|w| {
                    simulate_with(&c, w, &SimConfig::default())
                        .expect("sim")
                        .counts
                        .dyn_insts
                })
                .collect()
        });
        // Self-profiled reference per run image: the (j, j) diagonal.
        let self_insts: Vec<f64> = (0..IMAGES as usize).map(|j| rows[j][j] as f64).collect();
        let mut ratios: Vec<f64> = rows
            .iter()
            .flat_map(|row| {
                row.iter()
                    .enumerate()
                    .map(|(j, &d)| d as f64 / self_insts[j])
            })
            .collect();
        ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let q = |p: f64| ratios[((ratios.len() - 1) as f64 * p) as usize];
        println!(
            "{h}: n={} min={:.3} p25={:.3} p50={:.3} p75={:.3} p95={:.3} max={:.3}",
            ratios.len(),
            q(0.0),
            q(0.25),
            q(0.5),
            q(0.75),
            q(0.95),
            q(1.0)
        );
    }
}
