//! The unified pass manager: registry, policy and per-build traces.
//!
//! Every transformation in the Figure 4 pipeline — expander, simplify,
//! DCE, the squeezer's sub-phases, instruction selection, register
//! allocation, emission — runs as a *named pass* instrumented by a
//! [`Tracer`] (`sir::pass`). This module is the manager-facing layer on
//! top of that substrate:
//!
//! * [`registered_passes`] — the registry: which pass
//!   names a build of a given configuration runs, in order. Golden tests
//!   pin these.
//! * [`policy`] — the per-build [`TracePolicy`], combining the config's
//!   `verify_each` with the `BITSPEC_PRINT_AFTER` environment variable
//!   (`all` or a pass name; sub-phases match their parent's name).
//! * [`BuildTrace`] — the per-build report: one [`PassTrace`] entry per
//!   executed (or stage-cache-replayed) pass.
//! * [`first_divergent_pass`] — given two builds' traces, the first pass
//!   at which their IR fingerprints diverge (the fuzzer's triage probe).
//!
//! Stage-cached artifacts carry the traces of the build that computed
//! them; replayed entries keep their original wall times and are marked
//! `cached`, so a warm build's trace still names every pass.

use crate::{Arch, BuildConfig};
use std::cell::RefCell;
use std::sync::OnceLock;

pub use sir::pass::{IrStats, PassTrace, PrintAfter, TracePolicy, Tracer};

/// Middle-end pass names shared by every configuration, in order.
const FRONT_AND_MIDDLE: [&str; 5] = ["front", "expand", "simplify", "dce", "profile"];

/// The registered pass names a build under `cfg` executes, in order.
///
/// This is the golden pass order: `squeeze` expands to its dotted
/// sub-phases (speculative or packing mode), verification-only entries
/// (`verify`, `bitlint`, the back-end `*-verify` passes) appear per the
/// config's `verify_each`, and gated builds append the empirical gate's
/// train-measurement legs (`gate.sim` for the squeezed candidate,
/// `gate-ref.*` for the memoized unsqueezed reference).
pub fn registered_passes(cfg: &BuildConfig) -> Vec<String> {
    let mut names: Vec<String> = FRONT_AND_MIDDLE.iter().map(|s| s.to_string()).collect();
    let squeezes = matches!(cfg.arch, Arch::BitSpec | Arch::NoSpec);
    if squeezes {
        names.push("squeeze".to_string());
        let speculation = cfg.arch == Arch::BitSpec;
        for p in opt::SqueezePass::phase_names(speculation) {
            names.push(p.to_string());
        }
    }
    if !cfg.verify_each || !squeezes {
        // The pipeline always verifies the pre-backend module at least
        // once; with verify-each on, a squeezing build already verified it
        // as part of the squeeze pass.
        names.push("verify".to_string());
    }
    if cfg.verify_each {
        names.push("bitlint".to_string());
    }
    let backend_names = |out: &mut Vec<String>, prefix: &str| {
        for p in backend::PASS_NAMES {
            let is_check = p.ends_with("-verify");
            if !is_check || cfg.verify_each {
                out.push(format!("{prefix}{p}"));
            }
        }
    };
    backend_names(&mut names, "");
    if squeezes && cfg.empirical_gate {
        // The gate only runs when the squeezer narrowed something, but a
        // build that narrows follows exactly this order.
        names.push("gate.sim".to_string());
        backend_names(&mut names, "gate-ref.");
        names.push("gate-ref.sim".to_string());
    }
    names
}

thread_local! {
    /// Test override for the print-after selection (env vars are
    /// process-global and racy under the parallel test harness).
    static PRINT_AFTER_OVERRIDE: RefCell<Option<PrintAfter>> = const { RefCell::new(None) };
}

fn print_after_env() -> &'static Option<PrintAfter> {
    static ENV: OnceLock<Option<PrintAfter>> = OnceLock::new();
    ENV.get_or_init(|| {
        std::env::var("BITSPEC_PRINT_AFTER")
            .ok()
            .map(|v| PrintAfter::parse(&v))
    })
}

/// Runs `f` with `BITSPEC_PRINT_AFTER` behaviour forced to `pa` on this
/// thread (dumps are captured in the trace, not echoed). Tests use this
/// instead of mutating the process environment.
pub fn with_print_after<T>(pa: PrintAfter, f: impl FnOnce() -> T) -> T {
    PRINT_AFTER_OVERRIDE.with(|o| *o.borrow_mut() = Some(pa));
    let r = f();
    PRINT_AFTER_OVERRIDE.with(|o| *o.borrow_mut() = None);
    r
}

/// The build policy: the config's `verify_each` plus the
/// `BITSPEC_PRINT_AFTER` selection (environment variable, or the
/// [`with_print_after`] thread override). Dumps requested through the
/// real environment echo to stderr as they happen; overridden dumps are
/// only captured in the trace.
pub fn policy(verify_each: bool) -> TracePolicy {
    let over = PRINT_AFTER_OVERRIDE.with(|o| o.borrow().clone());
    match over {
        Some(pa) => TracePolicy {
            verify_each,
            print_after: pa,
            echo_dumps: false,
        },
        None => TracePolicy {
            verify_each,
            print_after: print_after_env().clone().unwrap_or_default(),
            echo_dumps: print_after_env().is_some(),
        },
    }
}

/// The serialized per-build pass report.
#[derive(Debug, Clone, Default)]
pub struct BuildTrace {
    pub passes: Vec<PassTrace>,
}

impl BuildTrace {
    /// Total wall time across all non-cached entries, in nanoseconds.
    pub fn total_wall_ns(&self) -> u64 {
        self.passes
            .iter()
            .filter(|p| !p.cached)
            .map(|p| p.wall_ns)
            .sum()
    }

    /// The first entry named `name`, if any.
    pub fn get(&self, name: &str) -> Option<&PassTrace> {
        self.passes.iter().find(|p| p.name == name)
    }

    /// The pass names in execution order.
    pub fn names(&self) -> Vec<&str> {
        self.passes.iter().map(|p| p.name.as_str()).collect()
    }
}

/// The first pass name at which two builds' IR fingerprints diverge.
///
/// Entries are aligned by pass name (passes present in only one trace are
/// skipped — e.g. a gate leg that ran on one side only); the first
/// name-aligned pair whose fingerprints are both present and unequal is
/// the divergence point. `None` means the traces agree everywhere they
/// are comparable.
pub fn first_divergent_pass(a: &[PassTrace], b: &[PassTrace]) -> Option<String> {
    for pa in a {
        let Some(fa) = pa.fingerprint else { continue };
        let Some(pb) = b.iter().find(|p| p.name == pa.name) else {
            continue;
        };
        let Some(fb) = pb.fingerprint else { continue };
        if fa != fb {
            return Some(pa.name.clone());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_wall_ns_skips_cached_entries() {
        let mut t = BuildTrace::default();
        t.passes.push(PassTrace::new("dce", 42));
        let mut replayed = PassTrace::new("expand", 1000);
        replayed.cached = true;
        t.passes.push(replayed);
        assert_eq!(t.total_wall_ns(), 42);
        assert_eq!(t.names(), ["dce", "expand"]);
        assert!(t.get("expand").is_some_and(|p| p.cached));
    }

    #[test]
    fn divergence_aligns_by_name() {
        let a = vec![
            PassTrace::new("expand", 1).fingerprinted(10),
            PassTrace::new("squeeze", 1).fingerprinted(20),
        ];
        let mut b = vec![
            PassTrace::new("expand", 1).fingerprinted(10),
            PassTrace::new("only-in-b", 1).fingerprinted(99),
            PassTrace::new("squeeze", 1).fingerprinted(21),
        ];
        assert_eq!(first_divergent_pass(&a, &b), Some("squeeze".to_string()));
        b[2].fingerprint = Some(20);
        assert_eq!(first_divergent_pass(&a, &b), None);
    }

    #[test]
    fn registry_covers_all_archs() {
        let bs = registered_passes(&BuildConfig::bitspec());
        assert!(bs.iter().any(|n| n == "squeeze.ssa-repair"));
        assert!(bs.iter().any(|n| n == "gate-ref.emit"));
        assert!(bs.iter().any(|n| n == "bitlint"));
        assert!(!bs.iter().any(|n| n == "verify"), "squeeze pass verifies");
        let base = registered_passes(&BuildConfig::baseline());
        assert!(base.iter().any(|n| n == "verify"));
        assert!(!base.iter().any(|n| n.starts_with("squeeze")));
        let mut unverified = BuildConfig::bitspec();
        unverified.verify_each = false;
        let u = registered_passes(&unverified);
        assert!(u.iter().any(|n| n == "verify"));
        assert!(!u.iter().any(|n| n == "mir-verify"));
    }
}
