//! Two-way engine equivalence (the tentpole regression).
//!
//! The simulator keeps two engines: the retained reference engine
//! (`machine.rs`, `Engine::Reference`) and the block-fused turbo engine
//! (`turbo.rs`, `Engine::Turbo`, the default). Their contract:
//!
//! * `outputs`, `cycles`, `counts` and `activity` are **bit-identical**,
//! * every energy component agrees within float-summation tolerance
//!   (turbo folds integer counters once at end of run; the reference
//!   accumulates f64 per step — same events, different summation order).
//!
//! This suite holds turbo to that contract on every MiBench workload under
//! the BASELINE and BITSPEC builds, a misspeculation-heavy Min-heuristic
//! build (mid-block redirect entries stress turbo's fallback path), the
//! DTS mode, and alternate inputs.

use bitspec::{build, simulate_with, BuildConfig, Engine, SimConfig, Workload};
use interp::Heuristic;
use mibench::{names, workload, Input};
use sim::SimResult;

const REL_TOL: f64 = 1e-6;

fn rel_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// (reference, turbo) results for one build.
fn run_both(w: &Workload, cfg: &BuildConfig, dts: bool) -> [SimResult; 2] {
    let c = build(w, cfg).unwrap_or_else(|e| panic!("{}: build: {e}", w.name));
    [Engine::Reference, Engine::Turbo].map(|engine| {
        let sim_cfg = SimConfig {
            dts,
            engine,
            ..SimConfig::default()
        };
        simulate_with(&c, w, &sim_cfg).unwrap_or_else(|e| panic!("{}: {engine:?}: {e}", w.name))
    })
}

fn assert_equivalent(name: &str, tag: &str, refr: &SimResult, turbo: &SimResult) {
    let r = turbo;
    assert_eq!(r.outputs, refr.outputs, "{name}/{tag}: outputs");
    assert_eq!(r.cycles, refr.cycles, "{name}/{tag}: cycles");
    assert_eq!(r.counts, refr.counts, "{name}/{tag}: counts");
    assert_eq!(r.activity, refr.activity, "{name}/{tag}: activity");
    for (comp, e, x) in [
        ("alu", r.energy.alu, refr.energy.alu),
        ("regfile", r.energy.regfile, refr.energy.regfile),
        ("icache", r.energy.icache, refr.energy.icache),
        ("dcache", r.energy.dcache, refr.energy.dcache),
        ("pipeline", r.energy.pipeline, refr.energy.pipeline),
    ] {
        assert!(
            rel_close(e, x),
            "{name}/{tag}: energy.{comp} diverges: turbo={e} ref={x}"
        );
    }
}

/// BITSPEC build with the empirical gate off: the gate runs two extra
/// full simulations per build, which doubles suite time without touching
/// what this test checks (engine equivalence on whatever code runs).
fn bitspec_ungated() -> BuildConfig {
    BuildConfig {
        empirical_gate: false,
        ..BuildConfig::bitspec()
    }
}

#[test]
fn engines_match_on_baseline_suite() {
    for name in names() {
        let w = workload(name, Input::Large);
        let [refr, turbo] = run_both(&w, &BuildConfig::baseline(), false);
        assert_equivalent(name, "baseline", &refr, &turbo);
    }
}

#[test]
fn engines_match_on_bitspec_suite() {
    for name in names() {
        let w = workload(name, Input::Large);
        let [refr, turbo] = run_both(&w, &bitspec_ungated(), false);
        assert_equivalent(name, "bitspec", &refr, &turbo);
    }
}

#[test]
fn engines_match_under_min_heuristic_misspeculation() {
    // The Min heuristic narrows aggressively, so evaluation inputs drive
    // far more misspeculation redirects — each one enters a block
    // mid-span through the Δ-skeleton, exercising turbo's per-instruction
    // fallback and prefix-counter flush.
    let cfg = BuildConfig {
        empirical_gate: false,
        ..BuildConfig::bitspec_with(Heuristic::Min)
    };
    for name in names() {
        let w = workload(name, Input::Large);
        let [refr, turbo] = run_both(&w, &cfg, false);
        assert_equivalent(name, "bitspec-min", &refr, &turbo);
    }
}

#[test]
fn engines_match_under_dts() {
    // DTS is applied per step in the reference engine and folded per
    // class in turbo (the block-level static split plus per-site dynamic
    // charges): the ALU/regfile split of the discount differs in
    // summation order, but totals and all integer state must still agree.
    for name in ["crc32", "sha", "dijkstra"] {
        let w = workload(name, Input::Large);
        let [refr, r] = run_both(&w, &bitspec_ungated(), true);
        assert_eq!(r.outputs, refr.outputs, "{name}/dts: outputs");
        assert_eq!(r.cycles, refr.cycles, "{name}/dts: cycles");
        assert_eq!(r.counts, refr.counts, "{name}/dts: counts");
        assert_eq!(r.activity, refr.activity, "{name}/dts: activity");
        assert!(
            rel_close(r.total_energy(), refr.total_energy()),
            "{name}/dts: total energy diverges: {} ref={}",
            r.total_energy(),
            refr.total_energy()
        );
        // Caches are a separate voltage domain — DTS must not touch
        // them, so those components stay point-comparable.
        assert!(rel_close(r.energy.icache, refr.energy.icache));
        assert!(rel_close(r.energy.dcache, refr.energy.dcache));
    }
}

#[test]
fn alternate_inputs_agree_too() {
    // A second input set exercises different control paths (misspeculation
    // rates change with data).
    for name in ["bitcount", "qsort", "stringsearch"] {
        let w = workload(name, Input::Alternate);
        let [refr, turbo] = run_both(&w, &bitspec_ungated(), false);
        assert_equivalent(name, "alternate", &refr, &turbo);
    }
}
