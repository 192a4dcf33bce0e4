//! The cells of the `expander-grid` and `sim-inputs` workloads, shared by
//! the load generator and the traced run.

use crate::rng::SplitMix;
use bitspec::{BuildConfig, ExpanderConfig};

/// The tuner's grid corners, unroll × loop budget × function budget
/// ({1, 2, 4, 8} × {200, 800} × {2000, 8000}); a 4-point grid in smoke
/// mode. Every corner builds BASELINE.
pub fn grid(smoke: bool) -> Vec<ExpanderConfig> {
    let (unrolls, loops, funcs): (&[u32], &[usize], &[usize]) = if smoke {
        (&[1, 8], &[200, 800], &[8000])
    } else {
        (&[1, 2, 4, 8], &[200, 800], &[2000, 8000])
    };
    let mut out = Vec::new();
    for &unroll_factor in unrolls {
        for &max_loop_size in loops {
            for &max_func_size in funcs {
                out.push(ExpanderConfig {
                    unroll_factor,
                    max_loop_size,
                    max_func_size,
                    enabled: true,
                });
            }
        }
    }
    out
}

/// The expander-grid batch in the order `seed` picks: the workloads and
/// the grid corners, each shuffled (`bench::run_matrix` fans out every
/// workload × corner pair in this order).
pub fn grid_order(seed: u64, smoke: bool) -> (Vec<&'static str>, Vec<ExpanderConfig>) {
    let mut names = mibench::names();
    crate::rng::shuffle(&mut names, seed);
    let mut corners = grid(smoke);
    crate::rng::shuffle(&mut corners, seed.rotate_left(32));
    (names, corners)
}

/// A grid corner's label in result lines.
pub fn corner(e: &ExpanderConfig) -> String {
    format!(
        "{}/{}/{}",
        e.unroll_factor, e.max_loop_size, e.max_func_size
    )
}

/// The `Input::Seeded` seeds of the input sets sim-inputs simulates: 16
/// drawn from `seed` (2 in smoke mode).
pub fn input_seeds(seed: u64, smoke: bool) -> Vec<u64> {
    let mut rng = SplitMix::new(seed ^ 0x51A1_1A7E);
    (0..if smoke { 2 } else { 16 })
        .map(|_| rng.next_u64())
        .collect()
}

/// The programs sim-inputs builds per workload, all trained on
/// `Input::Large`.
pub const PROGRAMS: [&str; 3] = ["baseline", "bitspec", "bitspec-dts"];

/// The build configuration of `PROGRAMS[p]`.
pub fn program_config(p: usize) -> BuildConfig {
    match p {
        0 => BuildConfig::baseline(),
        1 => BuildConfig::bitspec(),
        _ => BuildConfig {
            dts: true,
            ..BuildConfig::bitspec()
        },
    }
}
