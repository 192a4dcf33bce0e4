//! The staged build pipeline with memoized artifacts.
//!
//! [`crate::build`] decomposes into cacheable stages mirroring Figure 4:
//!
//! ```text
//! front(source) → expand(module, ExpanderConfig) → profile(module, train)
//!               → squeeze + codegen (per-config, never cached)
//!               → gate_ref (the gate's unsqueezed compile + train-sim)
//! program + resolved inputs → sim (gate legs and evaluation runs alike)
//! ```
//!
//! Keys are *recipe*-keyed down to `expand` and *content*-keyed below
//! it, so a recipe change that yields the same bytes rebuilds nothing
//! downstream (Bazel/Shake-style early cutoff). All keys are stable
//! fingerprints ([`crate::fingerprint`]):
//!
//! - the frontend key hashes the source (and the verify flag);
//! - the expand key adds the expander knobs;
//! - the profile key hashes the expanded module's [`content_key`], the
//!   resolved training inputs and the profiling fuel — never the
//!   expander knobs or the verify flag;
//! - the gate-ref key hashes the same content key, the training inputs,
//!   the backend options and the verify flag (the leg's traces record
//!   its verify-each checks);
//! - the sim key ([`crate::fingerprint::sim_run_key`]) hashes the linked
//!   program's fingerprint, the inputs resolved to `(address, bytes)`
//!   pairs, every `SimConfig` field and the build's DTS flag.
//!
//! Matrix, tuner and heuristic sweeps that differ only in downstream
//! knobs (squeezer heuristic, backend options, gate, DTS) therefore share
//! the frontend module, the expanded module and — the expensive one — the
//! profiling run across a whole process, the same way the paper's staged
//! pipeline fixes the expanded module before profile-guided narrowing.
//! Expander-tuner corners that expand a workload to the same module share
//! its profile and gate leg too. Gated builds additionally share the
//! empirical gate's unsqueezed reference leg ([`gate_ref`]), which varies
//! with the backend options but not with the squeezer knobs under test.
//! Every simulation the sweep needs — both gate legs on the training
//! input and the evaluation run in `bench::run_with` — goes through the
//! one [`sim`] stage, so a program simulated by its build's gate is not
//! simulated again when the cell is evaluated on the same inputs.
//! Pre-backend checks (`verify`, `bitlint`) are memoized by check name and
//! module fingerprint ([`check_module`] is the verifier's entry point).
//!
//! Every stage runs its transformations as registered passes under a
//! [`Tracer`], and each cached artifact carries the [`PassTrace`] records
//! of the build that computed it. A cache hit *replays* those records
//! into the requesting build's tracer (marked `cached`, original wall
//! times preserved), so warm builds still report the full pass sequence.
//! When the policy requests `BITSPEC_PRINT_AFTER` dumps, stages bypass
//! the caches: dump fidelity beats memoization in a debugging session,
//! and dump-laden artifacts must not be published process-wide.
//!
//! Every stage cache is a single-flight [`crate::memo::Memo`]: concurrent
//! builds needing the same artifact compute it once.
//! [`crate::memo::stats`] reports one counter row per memo kind, and
//! [`clear`] drops the artifacts. Every stage is memory-only: the
//! persistent store ([`crate::store`]) holds bench cells' manifests, and
//! no later process reads a stage artifact back.

use crate::fingerprint::{eat_inputs, Fnv};
use crate::memo::Memo;
use crate::{BuildError, SimConfig, SimResult, Workload};
use interp::{Interpreter, Profile};
use opt::ExpanderConfig;
use sir::pass::{ir_fingerprint, IrStats, PassTrace, PrintAfter, TracePolicy, Tracer};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Which stages of one build were served from the process-wide cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageHits {
    pub front: bool,
    pub expand: bool,
    pub profile: bool,
    /// Function-level codegen cache: functions served from cache vs total
    /// functions compiled across this build's [`codegen`] calls (a gated
    /// build runs codegen for both the candidate and — on a gate-ref
    /// miss — the reference leg).
    pub fn_hits: u32,
    pub fn_total: u32,
}

impl StageHits {
    /// Folds one [`codegen`] call's per-function counts into the build's
    /// totals.
    pub fn add_fns(&mut self, f: FnHits) {
        self.fn_hits += f.hits;
        self.fn_total += f.total;
    }
}

/// Per-call function-level cache counts returned by [`codegen`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FnHits {
    /// Functions served from the function memo.
    pub hits: u32,
    /// Total functions in the module.
    pub total: u32,
}

/// A cached SIR artifact (frontend or expanded module) plus the pass
/// records of the build that computed it.
#[derive(Debug, Clone)]
pub(crate) struct SirStage {
    pub module: Arc<sir::Module>,
    pub traces: Vec<PassTrace>,
    /// [`content_key`] of `module`, computed once per artifact.
    pub content: u64,
}

impl SirStage {
    /// Wraps a module and its pass records, computing its content key.
    pub(crate) fn new(module: Arc<sir::Module>, traces: Vec<PassTrace>) -> SirStage {
        let content = content_key(&module);
        SirStage {
            module,
            traces,
            content,
        }
    }
}

/// The content key of a module, the key every stage below `expand`
/// builds on: its structural fingerprint ([`ir_fingerprint`]) plus each
/// function's value-arena length. The fingerprint covers every placed
/// instruction, so it fixes what the profiler executes and what codegen
/// emits; the arena lengths fix the profile's shape ([`Profile::new`]
/// sizes one slot per arena entry, dead or not), which the fingerprint
/// alone does not.
pub fn content_key(m: &sir::Module) -> u64 {
    let mut h = Fnv::new();
    h.str("content");
    h.u64(ir_fingerprint(m));
    h.u64(m.funcs.len() as u64);
    for f in &m.funcs {
        h.u64(f.insts.len() as u64);
    }
    h.finish()
}

/// The cached result of a profiling run.
#[derive(Debug, Clone)]
pub struct ProfileData {
    pub profile: Arc<Profile>,
    /// Dynamic IR instructions executed during the run.
    pub dyn_insts: u64,
    /// The `profile` pass record (wall time of the run).
    pub traces: Vec<PassTrace>,
}

/// The memoized unsqueezed reference leg of the empirical gate: the
/// expanded module's codegen plus its training-input energy. The leg
/// depends only on the expanded module's content, the backend options
/// and the training inputs — never on the squeezer knobs under test, nor
/// on the expander knobs that produced the module — so every gated config
/// in a sweep shares one compile + train-simulation.
#[derive(Debug, Clone)]
pub struct GateRef {
    pub program: backend::Program,
    pub energy: f64,
    /// The leg's back-end pass records, names prefixed `gate-ref.`.
    pub traces: Vec<PassTrace>,
}

/// One memoized simulation run ([`sim`]): the result plus the wall time
/// of the run that computed it (replayed on hits).
#[derive(Debug, Clone)]
pub struct SimRun {
    pub result: SimResult,
    pub wall_ns: u64,
}

static FRONT: Memo<SirStage> = Memo::new("front", None);
static EXPAND: Memo<SirStage> = Memo::new("expand", None);
static PROFILE: Memo<ProfileData> = Memo::new("profile", None);
static GATE: Memo<GateRef> = Memo::new("gate", None);
static FNS: Memo<backend::FnArtifact> = Memo::new("fnmir", None);
/// Simulation runs, memory only: a run is cheap next to a store round
/// trip, and a cell that reaches the store carries its result.
static SIMS: Memo<SimRun> = Memo::new("sim", None);
/// Pre-backend check verdicts: `(check name, module fingerprint)` pairs
/// that passed, mapped to the wall time of the run that proved them
/// (replayed on hits).
static CHECKS: Memo<u64> = Memo::new("check", None);
static CODEGEN_WORKERS: AtomicUsize = AtomicUsize::new(1);

/// Drops every cached stage artifact (counters are preserved).
pub fn clear() {
    FRONT.clear();
    EXPAND.clear();
    PROFILE.clear();
    GATE.clear();
    FNS.clear();
    CHECKS.clear();
    SIMS.clear();
}

/// Drops only the memoized simulation runs.
pub fn clear_sims() {
    SIMS.clear();
}

/// A pre-backend check (`verify`, `bitlint`) over a module whose
/// [`ir_fingerprint`] is `fp`, memoized by `(name, fp)`: sweeps and warm
/// rebuilds run each check once per distinct module (the cached expanded
/// module is byte-identical across every config that reaches it, so
/// re-checking it per build is pure overhead). Hits replay a `name` pass
/// entry carrying the proving run's wall time, marked `cached`; misses
/// run `run` and record its entry. Only successes are memoized — a
/// failing module is re-checked (and re-reported) every time.
///
/// # Errors
/// Propagates the check's rejection.
pub(crate) fn check(
    name: &'static str,
    fp: u64,
    tr: &mut Tracer,
    run: impl FnOnce() -> Result<(), sir::verify::VerifyError>,
) -> Result<(), sir::verify::VerifyError> {
    let mut h = Fnv::new();
    h.str(name);
    h.u64(fp);
    let (wall, src) = CHECKS.get(h.finish(), false, || {
        tr.run_check(name, run)?;
        Ok(tr.entries().last().map_or(0, |e| e.wall_ns))
    })?;
    if src.hit() {
        tr.replay(&[PassTrace::new(name, *wall).verified(true)], true);
    }
    Ok(())
}

/// `check` with the SIR verifier ([`sir::verify::verify_module`]).
///
/// # Errors
/// Propagates the verifier's rejection.
pub fn check_module(m: &sir::Module, tr: &mut Tracer) -> Result<(), sir::verify::VerifyError> {
    check("verify", ir_fingerprint(m), tr, || {
        sir::verify::verify_module(m)
    })
}

/// Sets the worker count [`codegen`] fans functions across (process-wide;
/// default 1 = serial). The parallel/serial split never changes outputs
/// — results are merged in function order — only wall time, so this is
/// a tuning knob, not a semantic one.
pub fn set_codegen_workers(n: usize) {
    CODEGEN_WORKERS.store(n.max(1), Ordering::SeqCst);
}

/// The current [`codegen`] worker count.
pub fn codegen_workers() -> usize {
    CODEGEN_WORKERS.load(Ordering::SeqCst).max(1)
}

fn front_key(w: &Workload, verify: bool) -> u64 {
    let mut h = Fnv::new();
    h.str("front");
    h.str(&w.name);
    h.str(&w.source);
    h.bool(verify);
    h.finish()
}

fn expand_key(w: &Workload, ecfg: &ExpanderConfig, verify: bool) -> u64 {
    let mut h = Fnv::new();
    h.str("expand");
    h.u64(front_key(w, verify));
    let (unroll, max_func, max_loop, enabled) = ecfg.key_fields();
    h.u32(unroll);
    h.u64(max_func);
    h.u64(max_loop);
    h.bool(enabled);
    h.finish()
}

fn profile_key(content: u64, w: &Workload) -> u64 {
    let mut h = Fnv::new();
    h.str("profile");
    h.u64(content);
    // The *resolved* training inputs (train_inputs falls back to inputs),
    // so flipping which list feeds the profiler invalidates the stage.
    eat_inputs(&mut h, w.train());
    // The fuel bound only changes which runs *fail* (never cached), but a
    // cached unbounded success must not satisfy a bounded query either.
    h.u64(w.profile_fuel.unwrap_or(0));
    h.finish()
}

fn gate_ref_key(content: u64, w: &Workload, verify: bool, opts: &backend::CodegenOpts) -> u64 {
    let mut h = Fnv::new();
    h.str("gate-ref");
    h.u64(content);
    // The reference leg is simulated on the resolved training inputs.
    eat_inputs(&mut h, w.train());
    let backend::CodegenOpts {
        bitspec,
        compact,
        spill_prefer_orig,
    } = opts;
    h.bool(*bitspec);
    h.bool(*compact);
    h.bool(*spill_prefer_orig);
    // The leg's traces record the verify-each checks its codegen ran.
    h.bool(verify);
    h.finish()
}

/// Whether a policy forces the caches aside (print-after dumps must come
/// from a real run of every pass, and must not be published).
fn bypass(policy: &TracePolicy) -> bool {
    policy.print_after != PrintAfter::None
}

/// Stage 1 worker: compiles the workload source to SIR and records the
/// `front` pass entry (plus the verify-each check). Memory-only: the
/// frontend is cheap enough that a disk round-trip wouldn't pay.
fn front_art(w: &Workload, policy: &TracePolicy) -> Result<(Arc<SirStage>, bool), BuildError> {
    let verify = policy.verify_each;
    let (art, src) = FRONT.get(front_key(w, verify), bypass(policy), || {
        let t = Instant::now();
        let module = lang::compile(&w.name, &w.source).map_err(BuildError::Compile)?;
        let wall = t.elapsed().as_nanos() as u64;
        let mut entry = PassTrace::new("front", wall)
            .stats(IrStats::default(), IrStats::of_module(&module))
            .fingerprinted(ir_fingerprint(&module));
        if verify {
            sir::verify::verify_module(&module).map_err(BuildError::Verify)?;
            entry.verified = true;
        }
        if policy.print_after.matches("front") {
            entry.dump = Some(sir::print::print_module(&module));
        }
        Ok(SirStage::new(Arc::new(module), vec![entry]))
    })?;
    Ok((art, src.hit()))
}

/// Stage 2 worker: expander + simplify + DCE as traced passes over the
/// frontend module. The artifact's trace leads with the frontend entry,
/// so a warm expand hit still replays the whole prefix.
fn expand_art(
    w: &Workload,
    ecfg: &ExpanderConfig,
    policy: &TracePolicy,
) -> Result<(Arc<SirStage>, StageHits), BuildError> {
    let key = expand_key(w, ecfg, policy.verify_each);
    let mut front_hit = true;
    let (art, src) = EXPAND.get(key, bypass(policy), || {
        let (front, hit) = front_art(w, policy)?;
        front_hit = hit;
        let mut local = Tracer::new(policy.clone());
        local.replay(&front.traces, hit);
        let mut module = (*front.module).clone();
        local
            .run_sir(&mut module, &mut opt::ExpandPass(*ecfg))
            .map_err(BuildError::Verify)?;
        local
            .run_sir(&mut module, &mut opt::SimplifyPass)
            .map_err(BuildError::Verify)?;
        local
            .run_sir(&mut module, &mut opt::DcePass)
            .map_err(BuildError::Verify)?;
        Ok(SirStage::new(Arc::new(module), local.finish()))
    })?;
    // An expand hit means the frontend wasn't consulted at all; report it
    // as a hit too (the work was saved either way).
    Ok((
        art,
        StageHits {
            front: front_hit,
            expand: src.hit(),
            ..StageHits::default()
        },
    ))
}

/// Stage 1: frontend. Compiles the workload source to SIR (plus the
/// verify-each check), replaying the `front` pass entry into `tr`.
/// Returns the shared module and whether it was a cache hit.
///
/// # Errors
/// Propagates frontend and verifier errors (never cached).
pub fn front(w: &Workload, tr: &mut Tracer) -> Result<(Arc<sir::Module>, bool), BuildError> {
    let (art, hit) = front_art(w, &tr.policy.clone())?;
    tr.replay(&art.traces, hit);
    Ok((Arc::clone(&art.module), hit))
}

/// Stage 2: expander (§3.2.1) + cleanup on the frontend module, replayed
/// into `tr` as the `front`/`expand`/`simplify`/`dce` passes. Returns
/// the shared expanded module and the per-stage hit flags so far.
///
/// # Errors
/// Propagates frontend and verifier errors.
pub fn expand(
    w: &Workload,
    ecfg: &ExpanderConfig,
    tr: &mut Tracer,
) -> Result<(Arc<sir::Module>, StageHits), BuildError> {
    let (art, hits) = expand_art(w, ecfg, &tr.policy.clone())?;
    tr.replay(&art.traces, hits.expand);
    Ok((Arc::clone(&art.module), hits))
}

/// Stage 3: the bitwidth profiler (§3.2.2) over the training inputs,
/// recorded as the `profile` pass. Returns the shared expanded module,
/// the shared profile data, and the per-stage hit flags. The profile is
/// keyed by the expanded module's content, so expander configs that
/// expand to the same module share one profiling run. `reference`
/// selects the tree-walking reference interpreter instead of the fast
/// path; both are bit-identical, so the flag is deliberately *not* part
/// of the cache key.
///
/// # Errors
/// Propagates frontend, verifier and profiling-run errors.
pub fn profile(
    w: &Workload,
    ecfg: &ExpanderConfig,
    reference: bool,
    tr: &mut Tracer,
) -> Result<(Arc<sir::Module>, Arc<ProfileData>, StageHits), BuildError> {
    let policy = tr.policy.clone();
    let (art, mut hits) = expand_art(w, ecfg, &policy)?;
    let (data, src) = PROFILE.get(profile_key(art.content, w), bypass(&policy), || {
        let t = Instant::now();
        let (prof, dyn_insts) = profile_run(&art.module, w.train(), reference, w.profile_fuel)?;
        let wall = t.elapsed().as_nanos() as u64;
        let stats = IrStats::of_module(&art.module);
        Ok::<_, BuildError>(ProfileData {
            profile: Arc::new(prof),
            dyn_insts,
            traces: vec![PassTrace::new("profile", wall).stats(stats, stats)],
        })
    })?;
    hits.profile = src.hit();
    tr.replay(&art.traces, hits.expand);
    tr.replay(&data.traces, hits.profile);
    Ok((Arc::clone(&art.module), data, hits))
}

/// Stage 4 (gated builds only): the empirical gate's unsqueezed
/// reference leg — codegen of the *expanded* (pre-squeeze) module plus
/// its training-input energy, supplied by `make` on a miss. Keyed by the
/// expanded module's content, the resolved training inputs, the backend
/// options and the verify flag; squeezer and expander knobs are
/// deliberately absent, so a sweep over heuristics, §3.2.4 ablations or
/// expander corners that expand to one module compiles and simulates the
/// reference exactly once. The caller replays the artifact's
/// (`gate-ref.`-prefixed) traces.
///
/// # Errors
/// Propagates expand errors and whatever `make` returns (never cached).
pub fn gate_ref(
    w: &Workload,
    ecfg: &ExpanderConfig,
    policy: &TracePolicy,
    opts: &backend::CodegenOpts,
    make: impl FnOnce() -> Result<GateRef, BuildError>,
) -> Result<(Arc<GateRef>, bool), BuildError> {
    // The key needs the expanded module's content key, one expand-memo
    // hit away. A bypassed memo never reads the key, so it must not pay
    // for (or echo the dumps of) a second expansion.
    let skip = bypass(policy);
    let key = if skip {
        0
    } else {
        let (art, _) = expand_art(w, ecfg, policy)?;
        gate_ref_key(art.content, w, policy.verify_each, opts)
    };
    let (art, src) = GATE.get(key, skip, make)?;
    Ok((art, src.hit()))
}

/// Cache key of one function's codegen artifact: the function's
/// structural fingerprint ([`sir::pass::fn_fingerprint`], which covers its
/// name and the symbolic ids of its callees), the global data layout it
/// was compiled against, the backend options, and the verify flag (an
/// unverified artifact must never satisfy a verifying build).
///
/// Everything [`backend::compile_function`] reads is covered, so a hit is
/// sound across *modules*: a function body compiled in one module links
/// correctly into any other module where the same body hashes appear,
/// because callee references stay symbolic until the link pass.
fn fn_key(f: &sir::Function, layout_fp: u64, opts: &backend::CodegenOpts, verify: bool) -> u64 {
    let mut h = Fnv::new();
    h.str("fnmir");
    h.u64(sir::pass::fn_fingerprint(f));
    h.u64(layout_fp);
    let backend::CodegenOpts {
        bitspec,
        compact,
        spill_prefer_orig,
    } = opts;
    h.bool(*bitspec);
    h.bool(*compact);
    h.bool(*spill_prefer_orig);
    h.bool(verify);
    h.finish()
}

/// Fingerprint of the global data layout as codegen sees it: every
/// global's assigned address (isel folds these into address operands), in
/// global-id order, plus each global's size/init-carrying identity via the
/// module walk order. Two modules with the same layout fingerprint place
/// every global at the same address.
fn layout_fingerprint(m: &sir::Module, layout: &interp::Layout) -> u64 {
    let mut h = Fnv::new();
    h.str("layout");
    h.u64(m.globals.len() as u64);
    for i in 0..m.globals.len() {
        h.u32(layout.addr(sir::GlobalId(i as u32)));
    }
    h.finish()
}

/// Stage 5: function-granular codegen — the parallel/incremental
/// composition of [`backend::compile_function`] and the serial
/// [`backend::link_traced`] layout pass.
///
/// Each function is looked up in the function memo (memory only: a
/// cell's linked program is what the store keeps) and compiled on a
/// miss, fanned across [`crate::pool`] workers per
/// [`set_codegen_workers`]. Results are merged *in function order*
/// regardless of which worker produced them, and the link pass is
/// serial, so the linked program is bit-identical for every worker count
/// and cache state. An artifact that failed verification comes back from
/// its compute as `Err`: it is merged (the build must report every
/// diagnostic) but never published.
///
/// Print-after builds bypass the cache and compile serially through
/// [`backend::compile_module_traced`] (dump fidelity beats memoization,
/// and dump-laden artifacts must not be published).
///
/// # Errors
/// Returns the merged verification error when the policy verifies and any
/// function or the linked layout is rejected.
///
/// # Panics
/// Panics on constructs the back-end does not support — see DESIGN.md.
pub fn codegen(
    m: &sir::Module,
    opts: &backend::CodegenOpts,
    tr: &mut Tracer,
) -> Result<(backend::Program, FnHits), sir::verify::VerifyError> {
    let policy = tr.policy.clone();
    if bypass(&policy) {
        let program = backend::compile_module_traced(m, opts, tr)?;
        return Ok((program, FnHits::default()));
    }
    let layout = interp::Layout::new(m);
    let lfp = layout_fingerprint(m, &layout);
    let fids: Vec<sir::FuncId> = m.func_ids().collect();
    let looked_up = crate::pool::run_ordered(fids.len(), codegen_workers(), |i| {
        let key = fn_key(m.func(fids[i]), lfp, opts, policy.verify_each);
        let compiled = FNS.get(key, false, || {
            let art = backend::compile_function(m, fids[i], &layout, opts, &policy);
            if art.clean() {
                Ok(art)
            } else {
                Err(Box::new(art))
            }
        });
        match compiled {
            Ok((art, src)) => (art, src.hit()),
            Err(rejected) => (Arc::from(rejected), false),
        }
    });
    let hits = looked_up.iter().filter(|(_, hit)| *hit).count();
    let arts: Vec<Arc<backend::FnArtifact>> = looked_up.into_iter().map(|(a, _)| a).collect();
    let all_cached = hits == fids.len() && !fids.is_empty();
    let program = backend::link_traced(m, &arts, opts, &layout, tr, all_cached)?;
    Ok((
        program,
        FnHits {
            hits: hits as u32,
            total: fids.len() as u32,
        },
    ))
}

/// Stage 6: one simulation of a linked `program` on `inputs`, already
/// resolved to the `(address, bytes)` pairs the simulator installs
/// ([`crate::resolve_inputs`]), under `cfg` with the build's DTS flag
/// `dts` ORed in. `program_fp` is the program's
/// [`backend::program_fingerprint`] when the caller already holds it.
/// A memory-only single-flight memo keyed by
/// [`crate::fingerprint::sim_run_key`]: the empirical gate's two
/// training-input legs and `bench::run_with`'s evaluation run share it,
/// so a program is simulated once per distinct run however many of them
/// ask. Returns the run and whether it was a hit; callers that trace the
/// run replay its `wall_ns` marked cached on a hit. [`crate::simulate_with`]
/// stays un-memoized.
///
/// # Errors
/// Propagates simulator faults (never cached).
pub fn sim(
    program: &backend::Program,
    program_fp: Option<u64>,
    inputs: &[(u32, Vec<u8>)],
    cfg: &SimConfig,
    dts: bool,
) -> Result<(Arc<SimRun>, bool), ::sim::SimError> {
    let fp = program_fp.unwrap_or_else(|| backend::program_fingerprint(program));
    let key = crate::fingerprint::sim_run_key(fp, inputs, cfg, dts);
    let (run, src) = SIMS.get(key, false, || {
        let mut cfg = cfg.clone();
        cfg.dts |= dts;
        let t = Instant::now();
        let result = ::sim::run_program(program, &cfg, inputs)?;
        Ok(SimRun {
            result,
            wall_ns: t.elapsed().as_nanos() as u64,
        })
    })?;
    Ok((run, src.hit()))
}

/// Runs the profiler over the training inputs.
fn profile_run(
    module: &sir::Module,
    inputs: &[(String, Vec<u8>)],
    reference: bool,
    fuel: Option<u64>,
) -> Result<(Profile, u64), BuildError> {
    let mut i = Interpreter::new(module);
    i.set_reference(reference);
    if let Some(fuel) = fuel {
        i.set_fuel(fuel);
    }
    i.enable_profiling();
    for (g, data) in inputs {
        i.install_global(g, data);
    }
    let r = i.run("main", &[]).map_err(BuildError::Profile)?;
    Ok((
        i.take_profile().expect("profiling enabled"),
        r.stats.dyn_insts,
    ))
}
