//! # perf — the BITSPEC pipeline's benchmark
//!
//! One load generator (`perf`) measures four workloads end to end, each
//! repetition in a fresh child process; a separate traced run
//! (`perf-trace`) times every layer by wrapping the calls into that
//! layer's public functions. See `perf/README.md` for the metrics, the
//! workloads and how to run, compare and trace.
//!
//! This library holds what both binaries share and the tests exercise:
//! statistics, the JSON reader, the `bitspecd` protocol, the correctness
//! oracles, spans, and reports. It depends only on the most stable
//! interfaces of the repository, like the `perf` binary.

#[cfg(not(target_os = "linux"))]
compile_error!("the benchmark measures children with Linux `wait4`");

pub mod cells;
pub mod child;
pub mod json;
pub mod metrics;
pub mod oracle;
pub mod proto;
pub mod report;
pub mod rng;
pub mod span;
pub mod stats;

use std::path::PathBuf;

/// `perf/out`: where runs write reports, traces and scratch stores.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}
