//! Correctness oracles the benchmark checks every output against.
//!
//! None of them comes from the compiler under test: the output table is
//! copied by hand from mibench's pinned regression list
//! (`benchmark_outputs_are_pinned`, the reference interpreter's outputs on
//! `Input::Large`), and the suite ratios are the BITSPEC ÷ BASELINE
//! geometric means `bitspecd` reported for the 112-cell suite when the
//! benchmark was defined. A speed-up must never move any of them.

use bitspec::fingerprint::Fnv;

/// Every MiBench workload's output stream on `Input::Large`.
pub const PINNED_OUTPUTS: [(&str, &[u32]); 14] = [
    ("crc32", &[335923627, 44, 464]),
    ("fft", &[88758, 94, 4294967232]),
    ("basicmath", &[15951, 2, 4538]),
    ("bitcount", &[1785, 1785, 1785, 1785, 1785]),
    ("blowfish", &[2172484257]),
    ("dijkstra", &[5393]),
    ("patricia", &[128, 255]),
    ("qsort", &[3496543583, 1]),
    ("rijndael", &[1612225275, 193]),
    (
        "sha",
        &[2037308229, 2403765143, 3309849184, 3291684071, 2245319721],
    ),
    ("stringsearch", &[29, 983]),
    ("susan-edges", &[19035, 204]),
    ("susan-corners", &[4131, 1]),
    ("susan-smoothing", &[3555938768]),
];

/// Geometric mean over the 14 workloads of BITSPEC ÷ BASELINE total
/// energy (`energy_pj`) in the suite.
pub const SUITE_ENERGY_RATIO: f64 = 0.873429033647012;

/// The same for simulated cycles.
pub const SUITE_CYCLES_RATIO: f64 = 0.8801332081460225;

/// The pinned `Input::Large` outputs of `workload`.
pub fn pinned_outputs(workload: &str) -> Option<&'static [u32]> {
    PINNED_OUTPUTS
        .iter()
        .find(|(w, _)| *w == workload)
        .map(|(_, o)| *o)
}

/// FNV-1a over an output stream, fed one `u32` at a time through
/// `bitspec::fingerprint::Fnv` — the `outputs_fnv` field of `bitspecd`'s
/// result lines.
pub fn outputs_fnv(outputs: &[u32]) -> u64 {
    let mut h = Fnv::new();
    for o in outputs {
        h.u32(*o);
    }
    h.finish()
}

/// [`outputs_fnv`] of the pinned outputs of `workload`.
pub fn pinned_fnv(workload: &str) -> Option<u64> {
    pinned_outputs(workload).map(outputs_fnv)
}

/// Whether a recomputed ratio reproduces a pinned one (the geometric mean
/// is recomputed in the same order, so only the last bits may differ).
pub fn ratio_matches(got: f64, pinned: f64) -> bool {
    ((got - pinned) / pinned).abs() < 1e-12
}
