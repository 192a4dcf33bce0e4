//! # bitspec — per-variable bitwidth speculation, end to end
//!
//! The public API of the BITSPEC reproduction (ASPLOS'25): compile a
//! mini-C workload through the Figure 4 pipeline and run it on the
//! simulated baseline or BITSPEC processor.
//!
//! ```text
//! source ─lang→ SIR ─expander→ SIR ─profiler→ bitwidth profile
//!        ─squeezer→ SIR+regions ─backend→ machine code ─sim→ energy
//! ```
//!
//! ```
//! use bitspec::{Arch, BuildConfig, Workload};
//!
//! let w = Workload::from_source(
//!     "demo",
//!     "void main() { u32 s = 0; for (u32 i = 0; i < 40; i++) { s += i; } out(s); }",
//! );
//! let baseline = bitspec::build(&w, &BuildConfig::baseline()).unwrap();
//! let bitspec = bitspec::build(&w, &BuildConfig::bitspec()).unwrap();
//! let rb = bitspec::simulate(&baseline, &w).unwrap();
//! let rs = bitspec::simulate(&bitspec, &w).unwrap();
//! assert_eq!(rb.outputs, rs.outputs);
//! ```

use interp::{Heuristic, Interpreter, Layout, Profile};
use opt::{SqueezeConfig, SqueezeReport};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

pub mod fingerprint;
pub mod memo;
pub mod pipeline;
pub mod pool;
pub mod stages;
pub mod store;
pub mod wire;

pub use backend::{program_fingerprint, Program};
pub use interp::Heuristic as BitwidthHeuristic;
pub use opt::ExpanderConfig;
pub use pipeline::BuildTrace;
pub use sim::{Engine, SimConfig, SimResult};
pub use stages::StageHits;

use pipeline::{PassTrace, Tracer};

/// Which processor/compiler pair to build for (§4.1's configurations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arch {
    /// The unmodified processor and compiler.
    Baseline,
    /// The full BITSPEC co-design.
    BitSpec,
    /// Register packing *without* speculation (RQ2).
    NoSpec,
    /// The compact Thumb-like ISA (RQ9) — baseline compiler, 2-byte ops.
    Compact,
}

/// Full build configuration (one point in the evaluation matrix).
#[derive(Debug, Clone)]
pub struct BuildConfig {
    pub arch: Arch,
    /// Profiler aggressiveness (RQ5).
    pub heuristic: Heuristic,
    /// Expander knobs (§3.2.1, RQ4).
    pub expander: ExpanderConfig,
    /// §3.2.4 optimizations (RQ3 ablations).
    pub compare_elim: bool,
    pub bitmask_elision: bool,
    /// Register-allocator branch-weight heuristic (RQ5 deep dive).
    pub spill_prefer_orig: bool,
    /// Dynamic timing slack mode (RQ8).
    pub dts: bool,
    /// Measure squeezed vs unsqueezed codegen on the training input and
    /// keep the winner (on by default; the RQ5 heuristic studies disable
    /// it to expose the raw cost of aggressive selections).
    pub empirical_gate: bool,
    /// Verify-each pipeline mode (on by default): run the SIR verifier
    /// after every middle-end stage, the `bitlint` speculation-soundness
    /// checks after the squeezer, the SMIR verifier after instruction
    /// selection and register allocation, and the Δ-skeleton layout checks
    /// on the linked image. Violations surface as [`BuildError::Verify`]
    /// with stable rule IDs instead of miscompiled programs.
    pub verify_each: bool,
    /// Profile with the tree-walking reference interpreter instead of the
    /// predecoded fast path (off by default). Both engines are
    /// bit-identical in outputs, statistics and profiles — this flag
    /// exists for the differential equivalence suite and for bisecting
    /// suspected fast-path bugs.
    pub reference_profiler: bool,
}

impl BuildConfig {
    /// The BASELINE configuration.
    pub fn baseline() -> BuildConfig {
        BuildConfig {
            arch: Arch::Baseline,
            heuristic: Heuristic::Max,
            expander: ExpanderConfig::default(),
            compare_elim: true,
            bitmask_elision: true,
            spill_prefer_orig: true,
            dts: false,
            empirical_gate: true,
            verify_each: true,
            reference_profiler: false,
        }
    }

    /// The BITSPEC configuration with the MAX heuristic.
    pub fn bitspec() -> BuildConfig {
        BuildConfig {
            arch: Arch::BitSpec,
            ..Self::baseline()
        }
    }

    /// BITSPEC with a chosen heuristic.
    pub fn bitspec_with(h: Heuristic) -> BuildConfig {
        BuildConfig {
            heuristic: h,
            ..Self::bitspec()
        }
    }

    /// The squeezer configuration this build runs, or `None` when the
    /// architecture skips the squeezer (BASELINE, compact).
    pub fn squeeze_config(&self) -> Option<SqueezeConfig> {
        match self.arch {
            Arch::BitSpec => Some(SqueezeConfig {
                heuristic: self.heuristic,
                compare_elim: self.compare_elim,
                bitmask_elision: self.bitmask_elision,
                speculation: true,
            }),
            Arch::NoSpec => Some(SqueezeConfig {
                heuristic: self.heuristic,
                compare_elim: false,
                bitmask_elision: self.bitmask_elision,
                speculation: false,
            }),
            Arch::Baseline | Arch::Compact => None,
        }
    }
}

/// A benchmark: source plus named inputs for profiling and evaluation.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: String,
    pub source: String,
    /// Evaluation inputs: (global name, bytes).
    pub inputs: Vec<(String, Vec<u8>)>,
    /// Profiling (train) inputs; falls back to `inputs` when empty.
    pub train_inputs: Vec<(String, Vec<u8>)>,
    /// Dynamic-instruction budget for the profiling run (`None` = the
    /// interpreter default). Fuzzing sets a tight bound so a degenerate
    /// candidate (e.g. a shrink mutation that zeroes a loop step) fails
    /// the profiling run quickly instead of burning the full default fuel.
    pub profile_fuel: Option<u64>,
}

impl Workload {
    /// A workload with no external inputs.
    pub fn from_source(name: impl Into<String>, source: impl Into<String>) -> Workload {
        Workload {
            name: name.into(),
            source: source.into(),
            inputs: Vec::new(),
            train_inputs: Vec::new(),
            profile_fuel: None,
        }
    }

    /// Adds an evaluation input.
    pub fn with_input(mut self, global: impl Into<String>, data: Vec<u8>) -> Workload {
        self.inputs.push((global.into(), data));
        self
    }

    /// Adds a training (profile) input.
    pub fn with_train_input(mut self, global: impl Into<String>, data: Vec<u8>) -> Workload {
        self.train_inputs.push((global.into(), data));
        self
    }

    fn train(&self) -> &[(String, Vec<u8>)] {
        if self.train_inputs.is_empty() {
            &self.inputs
        } else {
            &self.train_inputs
        }
    }
}

/// Build error.
#[derive(Debug)]
pub enum BuildError {
    Compile(lang::CompileError),
    Profile(interp::ExecError),
    Verify(sir::verify::VerifyError),
    /// The empirical gate's measurement run on the training input faulted.
    /// A program that cannot run its own training input is a build-time
    /// defect, not a measurement to be silently discarded.
    TrainSim(sim::SimError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Compile(e) => write!(f, "frontend: {e}"),
            BuildError::Profile(e) => write!(f, "profiling run failed: {e}"),
            BuildError::Verify(e) => write!(f, "post-transform verification failed: {e}"),
            BuildError::TrainSim(e) => {
                write!(f, "empirical gate's training-input run faulted: {e}")
            }
        }
    }
}

impl Error for BuildError {}

/// A fully compiled workload. The IR module and profile are shared
/// (`Arc`) with the process-wide stage cache rather than deep-copied per
/// build.
#[derive(Debug, Clone)]
pub struct Compiled {
    pub module: Arc<sir::Module>,
    pub program: Program,
    pub profile: Arc<Profile>,
    pub squeeze: SqueezeReport,
    pub config: BuildConfig,
    /// Dynamic IR instructions executed during the profiling run.
    pub profile_dyn_insts: u64,
    /// Whether the squeezed code was kept (BITSPEC builds measure both
    /// codegens on the training input and keep the winner — the same
    /// measurement-driven stance as the paper's offline auto-tuner).
    pub used_squeezed: bool,
    /// Which pipeline stages this build served from the process-wide
    /// stage cache (see [`stages`]).
    pub stage_hits: StageHits,
    /// Per-pass instrumentation for this build: every registered pass
    /// that ran (or was replayed from the stage cache), in order, with
    /// wall times, IR deltas and fingerprints. See [`pipeline`].
    pub trace: BuildTrace,
}

/// A bench cell as the persistent store holds it (`manifest` kind): every
/// field of its [`Compiled`] and evaluation [`SimResult`] except the
/// module, program and profile, plus the linked program's fingerprint.
/// Serving a cell reads nothing else.
#[derive(Debug, Clone)]
pub struct Manifest {
    pub config: BuildConfig,
    pub used_squeezed: bool,
    pub squeeze: SqueezeReport,
    pub profile_dyn_insts: u64,
    pub stage_hits: StageHits,
    pub trace: BuildTrace,
    /// The evaluation-input simulation result.
    pub sim: SimResult,
    /// [`program_fingerprint`] of the linked program: the cell's build
    /// fingerprint.
    pub program_fp: u64,
}

impl Manifest {
    /// The manifest of the cell `(c, sim)`, whose program fingerprint is
    /// `program_fp`.
    pub fn of(c: &Compiled, sim: &SimResult, program_fp: u64) -> Manifest {
        Manifest {
            config: c.config.clone(),
            used_squeezed: c.used_squeezed,
            squeeze: c.squeeze,
            profile_dyn_insts: c.profile_dyn_insts,
            stage_hits: c.stage_hits,
            trace: c.trace.clone(),
            sim: sim.clone(),
            program_fp,
        }
    }
}

/// Compiles `workload` under `cfg` through the full Figure 4 pipeline.
///
/// Every transformation runs as a registered pass under the unified pass
/// manager (see [`pipeline`]); the returned [`Compiled::trace`] carries
/// one record per pass with wall time, IR deltas and fingerprints.
/// `BITSPEC_PRINT_AFTER=<pass|all>` dumps the IR after matching passes.
///
/// # Errors
/// Returns a [`BuildError`] on frontend errors, profiling faults,
/// training-input simulator faults in the empirical gate, or (a pipeline
/// bug) post-transformation verification failures — the latter naming
/// the failing pass and carrying the last-good IR.
pub fn build(workload: &Workload, cfg: &BuildConfig) -> Result<Compiled, BuildError> {
    let mut tr = Tracer::new(pipeline::policy(cfg.verify_each));
    // Stages 1–3 (frontend, expander, profiler) are memoized process-wide;
    // sweeps differing only in downstream knobs share them (see `stages`).
    let (expanded, pdata, mut stage_hits) =
        stages::profile(workload, &cfg.expander, cfg.reference_profiler, &mut tr)?;
    let profile = Arc::clone(&pdata.profile);
    let profile_dyn_insts = pdata.dyn_insts;
    let opts = backend::CodegenOpts {
        bitspec: matches!(cfg.arch, Arch::BitSpec | Arch::NoSpec),
        compact: cfg.arch == Arch::Compact,
        spill_prefer_orig: cfg.spill_prefer_orig,
    };

    // Squeezer (§3.2.3) — per-config, never cached. Baseline/Compact
    // builds skip it entirely and codegen the shared expanded module
    // directly (no per-build clone).
    let (squeezed, squeeze) = match cfg.squeeze_config() {
        Some(scfg) => {
            let mut module = (*expanded).clone();
            let mut pass = opt::SqueezePass::new(&profile, scfg);
            tr.run_sir(&mut module, &mut pass)
                .map_err(BuildError::Verify)?;
            (Some(module), pass.report)
        }
        None => (None, SqueezeReport::default()),
    };
    // Pre-backend checks, memoized per distinct module content: the SIR
    // verifier (the squeeze pass already ran it under verify-each), then
    // under verify-each the speculation-soundness lint (eq 4–6, eq 8,
    // Theorem 3.1 coverage).
    let pre: &sir::Module = squeezed.as_ref().unwrap_or(&expanded);
    // The pass manager fingerprinted `pre` after the last SIR pass that
    // produced it (the squeeze, or the expand stage's `dce`): read that
    // record back instead of re-hashing the module.
    let last_pass = if squeezed.is_some() { "squeeze" } else { "dce" };
    let pre_fp = tr
        .entries()
        .iter()
        .rev()
        .find(|e| e.name == last_pass)
        .and_then(|e| e.fingerprint)
        .expect("the pass manager fingerprints every SIR pass");
    debug_assert_eq!(pre_fp, sir::pass::ir_fingerprint(pre));
    if squeezed.is_none() || !cfg.verify_each {
        stages::check("verify", pre_fp, &mut tr, || {
            sir::verify::verify_module(pre)
        })
        .map_err(BuildError::Verify)?;
    }
    if cfg.verify_each {
        stages::check("bitlint", pre_fp, &mut tr, || {
            sir::bitlint::lint_module(pre)
        })
        .map_err(BuildError::Verify)?;
    }

    // Empirical gate (BITSPEC only): simulate both codegens on the training
    // input and keep whichever consumes less energy. Profile-guided
    // speculation sometimes loses (the paper's qsort); measuring on the
    // train set is the honest way to decide, mirroring the paper's
    // measurement-driven auto-tuning. Both codegen+train-sim legs run as
    // pool jobs; the unsqueezed reference leg *is* the expanded module's
    // codegen, so it is additionally memoized process-wide
    // (`stages::gate_ref`) and shared across every gated config in a sweep.
    // Both training runs go through the shared `stages::sim` stage, where
    // an evaluation run on the same inputs finds them.
    let (module, program, used_squeezed) = match squeezed {
        Some(module) if cfg.empirical_gate && squeeze.narrowed > 0 => {
            let train = workload.train();
            let policy = tr.policy.clone();
            type Leg = (Program, f64, Vec<PassTrace>, bool, stages::FnHits);
            let mut legs = pool::run_ordered(2, 2, |i| -> Result<Leg, BuildError> {
                if i == 0 {
                    // Candidate leg: the squeezed codegen, traced as the
                    // build's canonical back-end passes.
                    let mut leg_tr = Tracer::new(policy.clone());
                    let (p, fns) =
                        stages::codegen(&module, &opts, &mut leg_tr).map_err(BuildError::Verify)?;
                    let (e, entry) = gate_sim("gate.sim", &module, &p, train)?;
                    leg_tr.record(entry);
                    Ok((p, e, leg_tr.finish(), false, fns))
                } else {
                    let mut ref_fns = stages::FnHits::default();
                    let (r, hit) =
                        stages::gate_ref(workload, &cfg.expander, &policy, &opts, || {
                            let mut leg_tr = Tracer::new(policy.clone());
                            let (p, fns) = stages::codegen(&expanded, &opts, &mut leg_tr)
                                .map_err(BuildError::Verify)?;
                            ref_fns = fns;
                            let (e, sim_entry) = gate_sim("gate-ref.sim", &expanded, &p, train)?;
                            let mut traces = leg_tr.finish();
                            for entry in &mut traces {
                                entry.name = format!("gate-ref.{}", entry.name);
                            }
                            traces.push(sim_entry);
                            Ok(stages::GateRef {
                                program: p,
                                energy: e,
                                traces,
                            })
                        })?;
                    Ok((r.program.clone(), r.energy, r.traces.clone(), hit, ref_fns))
                }
            });
            let (base_program, eb, ref_traces, ref_cached, ref_fns) =
                legs.pop().expect("gate ran two legs")?;
            let (program, es, cand_traces, _, cand_fns) = legs.pop().expect("gate ran two legs")?;
            stage_hits.add_fns(cand_fns);
            // On a gate-ref hit the reference leg compiled nothing, so its
            // (zero) function counts contribute nothing.
            stage_hits.add_fns(ref_fns);
            tr.replay(&cand_traces, false);
            tr.replay(&ref_traces, ref_cached);
            if es <= eb {
                (Arc::new(module), program, true)
            } else {
                // The unsqueezed winner is exactly the shared expanded
                // module — no clone needed.
                (expanded, base_program, false)
            }
        }
        Some(module) => {
            let (program, fns) =
                stages::codegen(&module, &opts, &mut tr).map_err(BuildError::Verify)?;
            stage_hits.add_fns(fns);
            (Arc::new(module), program, false)
        }
        None => {
            let (program, fns) =
                stages::codegen(&expanded, &opts, &mut tr).map_err(BuildError::Verify)?;
            stage_hits.add_fns(fns);
            (expanded, program, false)
        }
    };
    Ok(Compiled {
        module,
        program,
        profile,
        squeeze,
        config: cfg.clone(),
        profile_dyn_insts,
        used_squeezed,
        stage_hits,
        trace: BuildTrace {
            passes: tr.finish(),
        },
    })
}

/// One empirical-gate leg's training-input run of `p` (compiled from `m`)
/// through the shared [`stages::sim`] stage, under the default simulator
/// configuration with DTS off. Returns the run's energy and its `name`
/// trace entry: a stage hit carries the computing run's wall time,
/// marked cached.
fn gate_sim(
    name: &str,
    m: &sir::Module,
    p: &Program,
    train: &[(String, Vec<u8>)],
) -> Result<(f64, PassTrace), BuildError> {
    let inputs = resolve_inputs(m, train);
    let (run, hit) = stages::sim(p, None, &inputs, &SimConfig::default(), false)
        .map_err(BuildError::TrainSim)?;
    let mut entry = PassTrace::new(name, run.wall_ns);
    entry.cached = hit;
    Ok((run.result.total_energy(), entry))
}

/// Builds one workload under every configuration in `cfgs`, fanning the
/// per-config builds across `workers` pool threads.
///
/// Matrix sweeps (and the differential fuzzer's ~5-config oracle) stay
/// cheap by design: stages 1–3 (frontend, expander, profiler) are
/// single-flight memos ([`stages`]), so the first leg to reach them
/// computes them once while concurrent legs wait for the shared result,
/// and only the config-specific squeezer/backend/gate work fans out.
/// Results are in `cfgs` order, and the linked programs are
/// bit-identical, for any worker count — parallelism never changes
/// outputs.
pub fn build_matrix(
    workload: &Workload,
    cfgs: &[BuildConfig],
    workers: usize,
) -> Vec<Result<Compiled, BuildError>> {
    pool::run_ordered(cfgs.len(), workers, |i| build(workload, &cfgs[i]))
}

/// Runs `compiled` on the simulator with the workload's evaluation inputs.
///
/// # Errors
/// Propagates simulator faults.
pub fn simulate(compiled: &Compiled, workload: &Workload) -> Result<SimResult, sim::SimError> {
    simulate_with(compiled, workload, &SimConfig::default())
}

/// Like [`simulate`], with a custom simulator configuration (DTS, fuel).
///
/// # Errors
/// Propagates simulator faults.
pub fn simulate_with(
    compiled: &Compiled,
    workload: &Workload,
    config: &SimConfig,
) -> Result<SimResult, sim::SimError> {
    let mut config = config.clone();
    config.dts |= compiled.config.dts;
    let inputs = resolve_inputs(&compiled.module, &workload.inputs);
    sim::run_program(&compiled.program, &config, &inputs)
}

/// Resolves named inputs (`(global name, bytes)` pairs) to the
/// `(address, bytes)` pairs the simulator installs, in `module`'s data
/// layout.
///
/// # Panics
/// Panics when an input names no global of `module`.
pub fn resolve_inputs(module: &sir::Module, inputs: &[(String, Vec<u8>)]) -> Vec<(u32, Vec<u8>)> {
    let layout = Layout::new(module);
    inputs
        .iter()
        .map(|(g, data)| {
            let gid = module
                .globals
                .iter()
                .position(|x| x.name == *g)
                .unwrap_or_else(|| panic!("no global named `{g}`"));
            (layout.addr(sir::GlobalId(gid as u32)), data.clone())
        })
        .collect()
}

/// Reference interpreter run of the *compiled (transformed)* module on the
/// evaluation inputs — used in differential tests.
///
/// # Errors
/// Propagates interpreter faults.
pub fn interpret(
    compiled: &Compiled,
    workload: &Workload,
) -> Result<interp::RunResult, interp::ExecError> {
    let mut i = Interpreter::new(&compiled.module);
    for (g, data) in &workload.inputs {
        i.install_global(g, data);
    }
    i.run("main", &[])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counting_workload() -> Workload {
        Workload::from_source(
            "count",
            "void main() {
                u32 s = 0;
                for (u32 i = 0; i < 200; i++) { s += i & 15; }
                out(s);
            }",
        )
    }

    #[test]
    fn all_archs_agree_on_outputs() {
        let w = counting_workload();
        let base = build(&w, &BuildConfig::baseline()).unwrap();
        let ref_out = simulate(&base, &w).unwrap().outputs;
        for cfg in [
            BuildConfig::bitspec(),
            BuildConfig {
                arch: Arch::NoSpec,
                ..BuildConfig::baseline()
            },
            BuildConfig {
                arch: Arch::Compact,
                ..BuildConfig::baseline()
            },
        ] {
            let c = build(&w, &cfg).unwrap();
            let r = simulate(&c, &w).unwrap();
            assert_eq!(r.outputs, ref_out, "arch {:?} diverges", cfg.arch);
        }
    }

    #[test]
    fn bitspec_uses_slice_registers() {
        // The pressure workload keeps its squeezed code through the
        // empirical gate (the small counting kernel may not).
        let w = pressure_workload();
        let c = build(&w, &BuildConfig::bitspec()).unwrap();
        assert!(c.squeeze.narrowed > 0, "squeezer found nothing");
        assert!(c.used_squeezed, "squeezed code should win on this kernel");
        let r = simulate(&c, &w).unwrap();
        assert!(
            r.activity.reg_accesses_8 > 0,
            "BITSPEC should access register slices"
        );
    }

    /// The paper's Figure 2 scenario: more narrow live values than the
    /// register file has word registers. BASELINE spills; BITSPEC packs
    /// them into slices.
    fn pressure_workload() -> Workload {
        let mut body = String::from("u32 x = data[i];\n");
        let n = 14;
        for k in 0..n {
            let prev = if k == 0 {
                "x".to_string()
            } else {
                format!("a{}", k - 1)
            };
            body.push_str(&format!("a{k} = (a{k} + ({prev} ^ {})) & 0xFF;\n", k + 1));
        }
        let decls: String = (0..n).map(|k| format!("u32 a{k} = {k};\n")).collect();
        let outs: String = (0..n).map(|k| format!("out(a{k});\n")).collect();
        let src = format!(
            "global u8 data[1024];
             void main() {{
                {decls}
                for (u32 i = 0; i < 1024; i++) {{
                    {body}
                }}
                {outs}
             }}"
        );
        let data: Vec<u8> = (0..1024u32).map(|i| (i * 37 + 11) as u8).collect();
        Workload::from_source("pressure", src).with_input("data", data)
    }

    #[test]
    fn bitspec_saves_energy_under_register_pressure() {
        let w = pressure_workload();
        let base = build(&w, &BuildConfig::baseline()).unwrap();
        let bs = build(&w, &BuildConfig::bitspec()).unwrap();
        let rb = simulate(&base, &w).unwrap();
        let rs = simulate(&bs, &w).unwrap();
        assert_eq!(rb.outputs, rs.outputs);
        assert!(
            rs.counts.spill_loads < rb.counts.spill_loads,
            "packing should cut spill reloads: {} vs {}",
            rs.counts.spill_loads,
            rb.counts.spill_loads
        );
        assert!(
            rs.total_energy() < rb.total_energy(),
            "BITSPEC should save energy under pressure: {} vs {}",
            rs.total_energy(),
            rb.total_energy()
        );
    }

    #[test]
    fn misspeculation_recovers_on_hardware() {
        // Train on small values, evaluate on large ones: the squeezed adds
        // must misspeculate on the simulator and still produce the right
        // answer through the Δ-skeleton-handler path.
        let src = "global u32 n[1];
            void main() {
                u32 s = 0;
                for (u32 i = 0; i < n[0]; i++) { s = s + 1; }
                out(s);
            }";
        let w = Workload::from_source("misspec", src)
            .with_input("n", 600u32.to_le_bytes().to_vec())
            .with_train_input("n", 40u32.to_le_bytes().to_vec());
        let c = build(&w, &BuildConfig::bitspec()).unwrap();
        assert!(c.squeeze.regions > 0);
        let r = simulate(&c, &w).unwrap();
        assert_eq!(r.outputs, vec![600]);
        assert!(r.counts.misspecs >= 1, "must misspeculate past 255");
        // And the interpreter agrees on the transformed module.
        let ir = interpret(&c, &w).unwrap();
        assert_eq!(ir.outputs, r.outputs);
    }

    #[test]
    fn train_vs_eval_inputs_are_distinct() {
        let w = Workload::from_source("t", "global u8 x[1]; void main() { out(x[0]); }")
            .with_input("x", vec![7])
            .with_train_input("x", vec![3]);
        let c = build(&w, &BuildConfig::bitspec()).unwrap();
        let r = simulate(&c, &w).unwrap();
        assert_eq!(r.outputs, vec![7]);
    }
}
