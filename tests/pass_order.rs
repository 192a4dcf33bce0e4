//! Golden pass-order snapshots: for every architecture and verification
//! policy the trace names exactly the registry's pass list, in order.

use bitspec::{build, pipeline, stages, Arch, BuildConfig, Workload};

/// Data-dependent accumulation the squeezer narrows, so the empirical
/// gate actually runs for the gate-on configurations.
fn narrowing_workload() -> Workload {
    let data: Vec<u8> = (0..64u32).map(|i| (i * 17 + 5) as u8).collect();
    Workload::from_source(
        "pass_order_probe",
        "global u8 data[64];
         void main() {
            u32 s = 0;
            for (u32 i = 0; i < 60; i++) { s += (data[i & 63] ^ i) & 31; }
            out(s);
         }",
    )
    .with_input("data", data)
}

fn snapshot(cfg: &BuildConfig, label: &str) {
    let w = narrowing_workload();
    let c = build(&w, cfg).unwrap_or_else(|e| panic!("{label}: build failed: {e}"));
    assert_eq!(
        c.trace.names(),
        pipeline::registered_passes(cfg),
        "{label}: trace order diverges from the registry"
    );
}

#[test]
fn every_arch_matches_its_registered_pass_order() {
    stages::clear();
    let combos: Vec<(&str, BuildConfig)> = vec![
        ("baseline", BuildConfig::baseline()),
        (
            "baseline-unverified",
            BuildConfig {
                verify_each: false,
                ..BuildConfig::baseline()
            },
        ),
        (
            "compact",
            BuildConfig {
                arch: Arch::Compact,
                ..BuildConfig::baseline()
            },
        ),
        (
            "nospec",
            BuildConfig {
                arch: Arch::NoSpec,
                empirical_gate: false,
                ..BuildConfig::bitspec()
            },
        ),
        (
            "nospec-unverified",
            BuildConfig {
                arch: Arch::NoSpec,
                empirical_gate: false,
                verify_each: false,
                ..BuildConfig::bitspec()
            },
        ),
        (
            "bitspec-gate-off",
            BuildConfig {
                empirical_gate: false,
                ..BuildConfig::bitspec()
            },
        ),
        (
            "bitspec-gate-off-unverified",
            BuildConfig {
                empirical_gate: false,
                verify_each: false,
                ..BuildConfig::bitspec()
            },
        ),
        ("bitspec-gate-on", BuildConfig::bitspec()),
    ];
    for (label, cfg) in &combos {
        snapshot(cfg, label);
    }
    stages::clear();
}

/// The literal golden snapshot for the flagship configuration, spelled
/// out so a registry change has to be acknowledged here by hand.
#[test]
fn bitspec_gate_on_verify_each_golden_order() {
    stages::clear();
    let cfg = BuildConfig::bitspec(); // gate + verify-each on by default
    let c = build(&narrowing_workload(), &cfg).expect("build");
    assert_eq!(
        c.trace.names(),
        [
            "front",
            "expand",
            "simplify",
            "dce",
            "profile",
            "squeeze",
            "squeeze.prepare",
            "squeeze.analyze",
            "squeeze.clone",
            "squeeze.handlers",
            "squeeze.ssa-repair",
            "squeeze.cleanup",
            "bitlint",
            "isel",
            "mir-verify",
            "regalloc",
            "regalloc-verify",
            "emit",
            "emit-verify",
            "gate.sim",
            "gate-ref.isel",
            "gate-ref.mir-verify",
            "gate-ref.regalloc",
            "gate-ref.regalloc-verify",
            "gate-ref.emit",
            "gate-ref.emit-verify",
            "gate-ref.sim",
        ]
    );
    stages::clear();
}
