//! The multi-oracle differential harness.
//!
//! A generated program carries no expected output — correctness is defined
//! by agreement. [`check`] runs the program through every engine pair the
//! repo maintains and reports each disagreement as a [`Finding`]:
//!
//! | oracle | pair | compared |
//! |---|---|---|
//! | build | frontend + verify-each checkers | acceptance (generated programs are well-typed by construction) |
//! | interp | tree-walk reference vs predecoded fast path | full `Result` — outputs, return value, stats, traps |
//! | sim | reference engine vs block-fused turbo, DTS off (`turbo`) and on (`turbo-dts`) | outputs/cycles/counts/activity exactly, energy within `REL_TOL` (under DTS: total, I$ and D$) |
//! | arch | BITSPEC (Max/Avg/Min), NoSpec vs BASELINE | output stream + trap behaviour |
//! | cross | interpreter vs simulator, per config | output stream + trap behaviour |
//!
//! The BITSPEC/NoSpec configs run with `empirical_gate: false` so the
//! squeezed code always ships — the gate would otherwise quietly fall back
//! to the baseline codegen and mask squeezer bugs. `verify_each` stays on:
//! a checker rejection of generated (legal) code is itself a finding.

use crate::gen::Case;
use bitspec::{
    build_matrix, simulate_with, Arch, BuildConfig, Compiled, Engine, SimConfig, Workload,
};
use interp::{ExecError, Heuristic, Interpreter, RunResult};
use sim::SimResult;

/// Relative tolerance for energy components (float summation order may
/// differ between the two simulator engines).
pub const REL_TOL: f64 = 1e-6;

/// Dynamic-instruction budget for interpreter runs (profiling included).
/// Generated programs are bounded by construction (constant loop bounds,
/// ≲10M dynamic IR instructions worst-case), so a legitimate program never
/// comes near this. Shrink candidates, however, can mutate a loop-step
/// constant to zero — without a bound each such candidate burns the
/// interpreter's 2×10⁹ default fuel across every engine run and stalls
/// the shrinker for minutes.
pub const INTERP_FUEL: u64 = 50_000_000;

/// Simulator fuel: machine instructions per IR instruction vary by config,
/// so the bound is looser — far above any legitimate program, but still
/// cutting a degenerate candidate off in well under a second.
pub const SIM_FUEL: u64 = 200_000_000;

/// Classification of a divergence (stable names — corpus entries key on
/// these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// The frontend rejected a generated (well-typed) program.
    Compile,
    /// A verify-each checker rejected legal code.
    Verify,
    /// The profiling run trapped — generated programs are trap-free by
    /// construction (guarded denominators, masked indices, counted loops).
    Trap,
    /// The pipeline panicked. Reachable when a program escapes the
    /// back-end's supported subset (e.g. 64-bit division); the generator
    /// stays inside it, so a panic on a generated program is a finding.
    Panic,
    /// Interpreter tree-walk vs fast path disagreed.
    InterpEngines,
    /// A simulator engine (fast or turbo) disagreed with the reference.
    SimEngines,
    /// A speculative config's outputs/trap differ from BASELINE.
    ArchOutputs,
    /// Interpreter and simulator disagree on the same compiled module.
    InterpVsSim,
}

impl Kind {
    /// The stable textual name (corpus header / summary key).
    pub fn name(self) -> &'static str {
        match self {
            Kind::Compile => "compile",
            Kind::Verify => "verify",
            Kind::Trap => "trap",
            Kind::Panic => "panic",
            Kind::InterpEngines => "interp-engines",
            Kind::SimEngines => "sim-engines",
            Kind::ArchOutputs => "arch-outputs",
            Kind::InterpVsSim => "interp-vs-sim",
        }
    }

    /// Parses [`Kind::name`] back (corpus loader).
    pub fn parse(s: &str) -> Option<Kind> {
        Some(match s {
            "compile" => Kind::Compile,
            "verify" => Kind::Verify,
            "trap" => Kind::Trap,
            "panic" => Kind::Panic,
            "interp-engines" => Kind::InterpEngines,
            "sim-engines" => Kind::SimEngines,
            "arch-outputs" => Kind::ArchOutputs,
            "interp-vs-sim" => Kind::InterpVsSim,
            _ => return None,
        })
    }
}

/// One observed divergence.
#[derive(Debug, Clone)]
pub struct Finding {
    pub kind: Kind,
    /// Which config/pair produced it, plus the disagreeing values.
    pub detail: String,
}

/// The config matrix every generated program is pushed through.
///
/// Order matters: index 0 is BASELINE, the reference everything else is
/// compared against.
pub fn config_matrix() -> Vec<(String, BuildConfig)> {
    let mut cfgs = vec![("baseline".to_string(), BuildConfig::baseline())];
    for h in Heuristic::ALL {
        cfgs.push((
            format!("bitspec-{h:?}").to_lowercase(),
            BuildConfig {
                empirical_gate: false,
                ..BuildConfig::bitspec_with(h)
            },
        ));
    }
    cfgs.push((
        "nospec".to_string(),
        BuildConfig {
            arch: Arch::NoSpec,
            empirical_gate: false,
            ..BuildConfig::baseline()
        },
    ));
    cfgs
}

/// Runs every oracle over `case`; the empty vec means full agreement.
pub fn check(case: &Case) -> Vec<Finding> {
    check_workload(&case.workload())
}

/// [`check`] behind a panic guard: a panic anywhere in the pipeline (build,
/// either interpreter engine, either simulator engine) becomes a
/// [`Kind::Panic`] finding instead of tearing down the fuzzing process.
/// The stage cache stays sound across an unwind — pipeline work runs
/// outside its locks.
pub fn check_protected(case: &Case) -> Vec<Finding> {
    let w = case.workload();
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check_workload(&w))) {
        Ok(findings) => findings,
        Err(payload) => vec![Finding {
            kind: Kind::Panic,
            detail: format!("pipeline panicked: {}", panic_message(&payload)),
        }],
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string payload>".to_string())
}

/// [`check`], but starting from an already-rendered workload (corpus
/// replay enters here — a stored source must not depend on the generator).
pub fn check_workload(w: &Workload) -> Vec<Finding> {
    // Bound every run (see [`INTERP_FUEL`]): degenerate shrink candidates
    // must fail fast, not exhaust the interpreter's default fuel.
    let w = &Workload {
        profile_fuel: Some(INTERP_FUEL),
        ..w.clone()
    };
    let mut findings = Vec::new();
    let cfgs = config_matrix();
    let configs: Vec<BuildConfig> = cfgs.iter().map(|(_, c)| c.clone()).collect();
    let built = build_matrix(w, &configs, configs.len());

    let mut compiled: Vec<(&str, &Compiled)> = Vec::new();
    for ((name, _), res) in cfgs.iter().zip(&built) {
        match res {
            Ok(c) => compiled.push((name, c)),
            Err(bitspec::BuildError::Compile(e)) => findings.push(Finding {
                kind: Kind::Compile,
                detail: format!("[{name}] frontend rejected generated program: {e}"),
            }),
            // Fuel exhaustion is not a trap: only shrink-mutated
            // candidates with degenerate (infinite) loops reach the
            // bound, and those must read as "does not reproduce", never
            // as a Trap the shrinker could latch onto.
            Err(bitspec::BuildError::Profile(ExecError::OutOfFuel)) => {}
            Err(e @ bitspec::BuildError::Profile(_)) => findings.push(Finding {
                kind: Kind::Trap,
                detail: format!("[{name}] {e}"),
            }),
            Err(e) => findings.push(Finding {
                kind: Kind::Verify,
                detail: format!("[{name}] {e}"),
            }),
        }
    }
    let Some(&(_, baseline)) = compiled.first().filter(|(n, _)| *n == "baseline") else {
        // Without a baseline there is nothing to compare against; the
        // build failure above is the finding.
        return findings;
    };

    // Oracle: interpreter tree-walk vs fast path, on the untransformed
    // baseline module and on every squeezed module (speculative regions
    // take different code paths in the two engines).
    for &(name, c) in &compiled {
        let r_ref = run_interp(c, w, true);
        let r_fast = run_interp(c, w, false);
        if r_ref != r_fast {
            findings.push(Finding {
                kind: Kind::InterpEngines,
                detail: format!("[{name}] reference {r_ref:?} vs fast {r_fast:?}"),
            });
        }
    }

    // Oracle: simulator reference engine vs turbo, per config, with DTS
    // off and on. Each DTS setting is its own leg so a finding names the
    // accounting that broke.
    for &(name, c) in &compiled {
        for (leg, dts) in [("turbo", false), ("turbo-dts", true)] {
            let s_ref = simulate_with(c, w, &sim_cfg(Engine::Reference, dts));
            let s_leg = simulate_with(c, w, &sim_cfg(Engine::Turbo, dts));
            match (&s_ref, &s_leg) {
                (Ok(a), Ok(b)) => {
                    if let Some(diff) = sim_diff(a, b, dts) {
                        findings.push(Finding {
                            kind: Kind::SimEngines,
                            detail: format!("[{name}] {leg}: {diff}"),
                        });
                    }
                }
                (Err(a), Err(b)) if a == b => {}
                _ => findings.push(Finding {
                    kind: Kind::SimEngines,
                    detail: format!(
                        "[{name}] trap asymmetry: reference {s_ref:?} vs {leg} {s_leg:?}"
                    ),
                }),
            }
        }
    }

    // Oracle: every speculative config agrees with BASELINE on the
    // observable output stream (Theorem 3.1), including trap behaviour.
    // Failing cases carry the pass-manager's triage probe: the first
    // registered pass whose IR fingerprint diverges from the baseline
    // build pins down which pipeline layer introduced the difference
    // ("squeeze" is expected for speculative configs; anything earlier
    // means a shared stage or its cache broke).
    let base_sim = simulate_with(baseline, w, &sim_cfg(Engine::Turbo, false));
    for &(name, c) in &compiled[1..] {
        let r = simulate_with(c, w, &sim_cfg(Engine::Turbo, false));
        match (&base_sim, &r) {
            (Ok(b), Ok(r)) => {
                if b.outputs != r.outputs {
                    findings.push(Finding {
                        kind: Kind::ArchOutputs,
                        detail: format!(
                            "[{name}] outputs {:?} vs baseline {:?}{}",
                            r.outputs,
                            b.outputs,
                            divergence_probe(baseline, c)
                        ),
                    });
                }
            }
            (Err(b), Err(r)) if b == r => {}
            _ => findings.push(Finding {
                kind: Kind::ArchOutputs,
                detail: format!(
                    "[{name}] trap asymmetry vs baseline: {:?} vs {:?}{}",
                    r.as_ref().err(),
                    base_sim.as_ref().err(),
                    divergence_probe(baseline, c)
                ),
            }),
        }
    }

    // Oracle: the interpreter and the simulator agree on each config's
    // *transformed* module (this crosses the backend: regalloc, emit,
    // Δ-skeleton layout all sit between the two).
    for &(name, c) in &compiled {
        let i = run_interp(c, w, false);
        let s = simulate_with(c, w, &sim_cfg(Engine::Turbo, false));
        match (&i, &s) {
            (Ok(i), Ok(s)) => {
                if i.outputs != s.outputs {
                    findings.push(Finding {
                        kind: Kind::InterpVsSim,
                        detail: format!(
                            "[{name}] interp outputs {:?} vs sim outputs {:?}",
                            i.outputs, s.outputs
                        ),
                    });
                }
            }
            (Err(_), Err(_)) => {} // both trapped; error spaces differ, so kinds aren't compared
            _ => findings.push(Finding {
                kind: Kind::InterpVsSim,
                detail: format!(
                    "[{name}] trap asymmetry: interp {:?} vs sim {:?}",
                    i.as_ref().err(),
                    s.as_ref().err()
                ),
            }),
        }
    }

    findings
}

/// Renders the first pass at which two builds' IR fingerprints diverge
/// (see [`bitspec::pipeline::first_divergent_pass`]) for a finding's
/// detail line; empty when the traces agree everywhere comparable.
fn divergence_probe(a: &Compiled, b: &Compiled) -> String {
    match bitspec::pipeline::first_divergent_pass(&a.trace.passes, &b.trace.passes) {
        Some(pass) => format!("; first divergent pass: {pass}"),
        None => String::new(),
    }
}

/// Runs a compiled module on the SIR interpreter with the workload's
/// evaluation inputs, selecting the tree-walk (`reference = true`) or
/// predecoded fast engine.
fn run_interp(c: &Compiled, w: &Workload, reference: bool) -> Result<RunResult, ExecError> {
    let mut i = Interpreter::new(&c.module);
    i.set_reference(reference);
    i.set_fuel(INTERP_FUEL);
    for (g, data) in &w.inputs {
        i.install_global(g, data);
    }
    i.run("main", &[])
}

/// The simulator configuration every oracle run uses: default DTS/energy
/// model, [`SIM_FUEL`] budget, the given engine.
fn sim_cfg(engine: Engine, dts: bool) -> SimConfig {
    SimConfig {
        dts,
        engine,
        fuel: SIM_FUEL,
        ..SimConfig::default()
    }
}

/// The sim-engine equivalence contract: everything integral bit-identical,
/// energy components within [`REL_TOL`]. Under DTS the reference deducts
/// the reclaimed core energy from ALU and register file step by step while
/// turbo deducts it once, so only the total and the cache components
/// (a separate voltage domain) are point-comparable there. Returns a
/// description of the first violated field.
fn sim_diff(a: &SimResult, b: &SimResult, dts: bool) -> Option<String> {
    if a.outputs != b.outputs {
        return Some(format!("outputs {:?} vs {:?}", a.outputs, b.outputs));
    }
    if a.cycles != b.cycles {
        return Some(format!("cycles {} vs {}", a.cycles, b.cycles));
    }
    if a.counts != b.counts {
        return Some(format!("counts {:?} vs {:?}", a.counts, b.counts));
    }
    if a.activity != b.activity {
        return Some(format!("activity {:?} vs {:?}", a.activity, b.activity));
    }
    let (ea, eb) = (&a.energy, &b.energy);
    let components = if dts {
        vec![
            ("total", ea.total(), eb.total()),
            ("icache", ea.icache, eb.icache),
            ("dcache", ea.dcache, eb.dcache),
        ]
    } else {
        vec![
            ("alu", ea.alu, eb.alu),
            ("regfile", ea.regfile, eb.regfile),
            ("icache", ea.icache, eb.icache),
            ("dcache", ea.dcache, eb.dcache),
            ("pipeline", ea.pipeline, eb.pipeline),
        ]
    };
    for (name, x, y) in components {
        if !rel_close(x, y) {
            return Some(format!("energy.{name} {x} vs {y}"));
        }
    }
    None
}

fn rel_close(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs());
    scale == 0.0 || (a - b).abs() <= REL_TOL * scale
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    #[test]
    fn matrix_has_baseline_first_and_all_heuristics() {
        let m = config_matrix();
        assert_eq!(m[0].0, "baseline");
        assert_eq!(m.len(), 2 + Heuristic::ALL.len());
        assert!(m.iter().skip(1).all(|(_, c)| !c.empirical_gate));
    }

    #[test]
    fn clean_seed_produces_no_findings() {
        let case = generate(42);
        let findings = check(&case);
        assert!(
            findings.is_empty(),
            "seed 42 diverged: {:?}",
            findings.iter().map(|f| &f.detail).collect::<Vec<_>>()
        );
    }

    #[test]
    fn divergence_probe_points_at_the_squeezer() {
        // Two speculative configs whose only difference is the squeezer
        // heuristic share every stage up to `profile`; the probe must
        // name `squeeze` as the first fingerprint divergence. The loop is
        // data-dependent so the expander cannot fold it away, and the
        // accumulator exceeds 8 bits so Max and Min select differently.
        let data: Vec<u8> = (0..64u32).map(|i| (i * 41 + 3) as u8).collect();
        let w = Workload::from_source(
            "probe",
            "global u8 data[64];
             void main() {
                u32 s = 0;
                for (u32 i = 0; i < 2000; i++) { s += data[i & 63]; }
                out(s);
             }",
        )
        .with_input("data", data);
        let cfgs = vec![
            BuildConfig {
                empirical_gate: false,
                ..BuildConfig::bitspec_with(Heuristic::Max)
            },
            BuildConfig {
                empirical_gate: false,
                ..BuildConfig::bitspec_with(Heuristic::Min)
            },
        ];
        let built = build_matrix(&w, &cfgs, 2);
        let a = built[0].as_ref().expect("max builds");
        let b = built[1].as_ref().expect("min builds");
        assert_eq!(divergence_probe(a, a), "");
        assert_eq!(
            bitspec::pipeline::first_divergent_pass(&a.trace.passes, &b.trace.passes).as_deref(),
            Some("squeeze")
        );
    }

    #[test]
    fn rel_close_tolerates_summation_noise() {
        assert!(rel_close(1.0, 1.0 + 1e-9));
        assert!(!rel_close(1.0, 1.01));
        assert!(rel_close(0.0, 0.0));
    }
}
