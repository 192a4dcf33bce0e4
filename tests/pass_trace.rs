//! Pass-trace smoke: a BITSPEC build's trace names every registered
//! pass, in order, and carries nonzero timings and IR deltas.

use bitspec::{build, pipeline, stages, BuildConfig, Workload};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Both tests build the same workload and clear the process-wide stage
/// caches, so one's `clear` could land between the other's cold and warm
/// builds; they run one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A workload the expander cannot fold away and the squeezer narrows, so
/// the empirical gate runs and every registered pass appears. The source
/// is unique to this binary to keep its cold-build path deterministic.
fn traced_workload() -> Workload {
    let data: Vec<u8> = (0..64u32).map(|i| (i * 29 + 7) as u8).collect();
    Workload::from_source(
        "pass_trace_smoke",
        "global u8 data[64];
         void main() {
            u32 s = 0;
            for (u32 i = 0; i < 60; i++) { s += (data[i & 63] ^ i) & 31; }
            out(s);
         }",
    )
    .with_input("data", data)
}

#[test]
fn bitspec_trace_names_every_registered_pass_with_nonzero_work() {
    let _g = serial();
    stages::clear();
    let w = traced_workload();
    let cfg = BuildConfig::bitspec();
    let c = build(&w, &cfg).expect("build");
    assert!(
        c.squeeze.narrowed > 0,
        "workload must exercise the squeezer"
    );

    // Every registered pass appears, in registry order.
    assert_eq!(c.trace.names(), pipeline::registered_passes(&cfg));

    // Transformation passes did measurable work: nonzero wall time and a
    // nonempty IR after the pass.
    for name in [
        "front", "expand", "simplify", "dce", "profile", "squeeze", "isel", "regalloc", "emit",
    ] {
        let p = c
            .trace
            .get(name)
            .unwrap_or_else(|| panic!("pass {name} missing"));
        assert!(p.wall_ns > 0, "{name} has zero wall time");
        assert!(p.after.insts > 0, "{name} reports an empty post-pass IR");
    }

    // The squeezer narrowed: its delta shows slices appearing.
    let squeeze = c.trace.get("squeeze").unwrap();
    assert!(
        squeeze.after.slices > squeeze.before.slices,
        "squeeze delta shows no new slices"
    );

    // Verification entries all passed, and middle-end passes carry
    // fingerprints (the fuzzer's divergence probe needs them).
    for p in &c.trace.passes {
        if p.name.contains("verify") || p.name.contains("bitlint") {
            assert!(p.verified, "{} not verified", p.name);
        }
    }
    for name in ["front", "expand", "simplify", "dce", "squeeze", "emit"] {
        let p = c.trace.get(name).unwrap();
        assert!(p.fingerprint.is_some(), "{name} unfingerprinted");
    }
    stages::clear();
}

#[test]
fn warm_rebuild_replays_cached_stages_with_identical_fingerprints() {
    let _g = serial();
    let w = traced_workload();
    let cfg = BuildConfig::bitspec();
    let a = build(&w, &cfg).expect("cold build");
    let b = build(&w, &cfg).expect("warm build");
    assert!(
        b.stage_hits.profile,
        "second build must hit the stage cache"
    );
    // The warm trace still names every pass; cached entries keep the
    // fingerprints of the run that computed them.
    assert_eq!(a.trace.names(), b.trace.names());
    for name in ["front", "expand", "simplify", "dce"] {
        let ea = a.trace.get(name).unwrap();
        let eb = b.trace.get(name).unwrap();
        assert_eq!(ea.fingerprint, eb.fingerprint, "{name} fingerprint drift");
        assert!(eb.cached, "{name} should be served from the stage cache");
    }
    assert_eq!(
        pipeline::first_divergent_pass(&a.trace.passes, &b.trace.passes),
        None,
        "identical builds must not diverge"
    );
    stages::clear();
}
