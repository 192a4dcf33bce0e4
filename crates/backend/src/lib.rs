//! # backend — SIR → machine code (§3.3)
//!
//! The BITSPEC back-end lowers SIR to the machine ISA of the [`isa`] crate:
//!
//! * [`mir`]: Machine IR over virtual registers (SMIR in the paper), with
//!   speculative-region membership propagated from SIR (§3.3.1).
//! * [`isel`]: instruction selection (§3.3.2) — maps speculative SIR
//!   instructions onto the Table 1 slice operations, legalizes 64-bit
//!   arithmetic onto register pairs, fuses compare+branch, folds small
//!   immediates and address offsets, and destructs SSA into parallel copies
//!   on (split) edges.
//! * [`regalloc`]: a slice-aware linear-scan allocator (§3.3.3). 8-bit
//!   virtual registers may occupy any of the four byte slices of a physical
//!   register, which is where BITSPEC's register packing comes from.
//!   Liveness flows over misspeculation edges (every block of a region may
//!   jump to the handler — equation 2), so values a handler needs survive
//!   the whole region. Spilled values use a spill-everywhere scheme whose
//!   loads/stores are tagged for the Figure 10 accounting.
//! * [`emit`]: code layout (§3.3.4) — the spec segment is laid out
//!   contiguously, a skeleton segment of identical size mirrors it at
//!   `+Δ` containing branches to handlers at misspeculation-capable
//!   offsets, and `Δ` is written by the prologue (`SetDelta`).
//!
//! The entry point is [`compile_module`], producing a linked [`Program`]
//! for the simulator.

pub mod emit;
pub mod isel;
pub mod mir;
pub mod mir_verify;
pub mod regalloc;

pub use emit::{PreInst, Program};
pub use isel::CodegenOpts;

use sir::pass::{FnvHasher, IrStats, PassTrace, TracePolicy, Tracer};
use sir::verify::VerifyError;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// The back-end pass names, in execution order, as they appear in a trace
/// when verification is on. With verification off, only the three
/// transformation passes (`isel`, `regalloc`, `emit`) run.
pub const PASS_NAMES: [&str; 6] = [
    "isel",
    "mir-verify",
    "regalloc",
    "regalloc-verify",
    "emit",
    "emit-verify",
];

/// Compiles a verified SIR module into a linked machine program.
///
/// # Panics
/// Panics on constructs the back-end does not support (64-bit division,
/// 64-bit variable-amount shifts) — see DESIGN.md for the supported subset.
pub fn compile_module(m: &sir::Module, opts: &CodegenOpts) -> Program {
    compile_module_checked(m, opts, false).expect("unchecked compile cannot fail verification")
}

/// Like [`compile_module`], but optionally verifying the machine IR after
/// instruction selection and register allocation (`mir-verify`) and the
/// Δ-skeleton layout of the linked image (`emit-verify`).
///
/// With `verify` false this is exactly [`compile_module`] and always
/// succeeds.
///
/// # Errors
/// Returns every diagnostic collected across all stages when `verify` is
/// set and an invariant is violated.
///
/// # Panics
/// Panics on constructs the back-end does not support (64-bit division,
/// 64-bit variable-amount shifts) — see DESIGN.md for the supported subset.
pub fn compile_module_checked(
    m: &sir::Module,
    opts: &CodegenOpts,
    verify: bool,
) -> Result<Program, sir::verify::VerifyError> {
    let mut tr = Tracer::new(TracePolicy::verify(verify));
    compile_module_traced(m, opts, &mut tr)
}

/// Accumulates one MIR function into the shared [`IrStats`] shape:
/// `slices` counts byte-class virtual registers (the squeezer's 8-bit
/// values after lowering), `regions` the mirrored speculative regions.
fn add_mir_stats(s: &mut IrStats, f: &mir::MirFunction) {
    s.funcs += 1;
    s.blocks += f.blocks.len() as u32;
    s.regions += f.regions.len() as u32;
    s.slices += f
        .classes
        .iter()
        .filter(|c| **c == mir::RegClass::Byte)
        .count() as u32;
    for b in &f.blocks {
        s.insts += b.insts.len() as u32;
    }
}

/// Structural fingerprint of a linked program: the flat instruction image
/// plus entry points and global initializers. Matches the role
/// [`sir::pass::ir_fingerprint`] plays for SIR — two programs fingerprint
/// equal iff the simulator sees identical images, which is what lets
/// harnesses share one simulation between builds that link the same
/// program.
///
/// `Program` is destructured exhaustively, so a new field is a compile
/// error until it is either hashed or listed as safe to skip. The skipped
/// fields never change a simulation:
/// - `func_names` are diagnostics only;
/// - `spec_targets` is the cover table [`emit::verify_layout`] checks;
///   the simulator follows the skeleton branches in `insts` instead;
/// - `addr_index` is derived from `addrs`, and `pre` from `insts` and
///   `compact`.
pub fn program_fingerprint(p: &Program) -> u64 {
    let Program {
        insts,
        addrs,
        entry,
        halt,
        func_entries,
        func_names: _,
        global_inits,
        mem_size,
        compact,
        addr_index: _,
        spec_targets: _,
        pre: _,
    } = p;
    let mut h = FnvHasher::default();
    (insts.len() as u64).hash(&mut h);
    for i in insts {
        i.hash(&mut h);
    }
    addrs.hash(&mut h);
    entry.hash(&mut h);
    halt.hash(&mut h);
    func_entries.hash(&mut h);
    global_inits.hash(&mut h);
    mem_size.hash(&mut h);
    compact.hash(&mut h);
    h.finish()
}

/// The per-function compiled artifact: emitted position-independent code
/// plus everything [`link_traced`] needs to merge deterministic aggregate
/// pass-trace entries — per-stage wall times, MIR size stats, verifier
/// verdicts/diagnostics, and (for print-after builds) MIR dumps.
///
/// An artifact depends only on the function's own SIR, the global data
/// layout, the codegen options, and the verify flag — the function-level
/// cache in `core::stages` keys on exactly those. Dumps and diagnostics
/// are carried for trace fidelity; cacheable artifacts have neither (the
/// cache bypasses print-after builds and never publishes rejected code).
#[derive(Debug, Clone)]
pub struct FnArtifact {
    pub code: emit::FnCode,
    /// MIR stats after isel / after regalloc (single-function counts).
    pub mid: IrStats,
    pub alloc: IrStats,
    /// Per-stage wall times (ns): isel, mir-verify, regalloc,
    /// regalloc-verify, per-function emit.
    pub t_isel: u64,
    pub t_mirv: u64,
    pub t_ra: u64,
    pub t_rav: u64,
    pub t_emit: u64,
    /// Verifier outcomes (vacuously true when verification was off).
    pub mirv_ok: bool,
    pub rav_ok: bool,
    /// Diagnostics from `mir-verify` / `regalloc-verify` on this function.
    pub mirv_problems: Vec<sir::Diag>,
    pub rav_problems: Vec<sir::Diag>,
    /// `BITSPEC_PRINT_AFTER` captures, when requested.
    pub isel_dump: Option<String>,
    pub ra_dump: Option<String>,
}

impl FnArtifact {
    /// Whether the artifact is publishable to a cache: verification (if
    /// any) accepted and no dump payload is attached.
    pub fn clean(&self) -> bool {
        self.mirv_problems.is_empty()
            && self.rav_problems.is_empty()
            && self.isel_dump.is_none()
            && self.ra_dump.is_none()
    }
}

/// Compiles one function: isel → (mir-verify) → regalloc →
/// (regalloc-verify) → per-function emit. Entirely function-local —
/// [`isel::select_function`] reads only the function, the global `layout`,
/// and `opts`; callee references stay symbolic in the emitted [`FnCode`] —
/// so calls for different functions may run on different workers and the
/// result may be cached by function content.
pub fn compile_function(
    m: &sir::Module,
    fid: sir::FuncId,
    layout: &interp::Layout,
    opts: &CodegenOpts,
    policy: &TracePolicy,
) -> FnArtifact {
    let verify = policy.verify_each;
    let t = Instant::now();
    let mir = isel::select_function(m, fid, layout, opts);
    let t_isel = t.elapsed().as_nanos() as u64;
    let mut mid = IrStats::default();
    add_mir_stats(&mut mid, &mir);
    let isel_dump = policy
        .print_after
        .matches("isel")
        .then(|| mir::print_mir(&mir));
    let (mut t_mirv, mut t_rav) = (0u64, 0u64);
    let mut mirv_problems = Vec::new();
    if verify {
        let t = Instant::now();
        mirv_problems = mir_verify::verify_mir(&mir);
        t_mirv = t.elapsed().as_nanos() as u64;
    }
    let t = Instant::now();
    let af = regalloc::allocate(mir, opts);
    let t_ra = t.elapsed().as_nanos() as u64;
    let mut alloc = IrStats::default();
    add_mir_stats(&mut alloc, &af.mir);
    let ra_dump = policy
        .print_after
        .matches("regalloc")
        .then(|| mir::print_mir(&af.mir));
    let mut rav_problems = Vec::new();
    if verify {
        let t = Instant::now();
        rav_problems = mir_verify::verify_allocated(&af);
        t_rav = t.elapsed().as_nanos() as u64;
    }
    let t = Instant::now();
    let code = emit::emit_function(&af, opts);
    let t_emit = t.elapsed().as_nanos() as u64;
    FnArtifact {
        code,
        mid,
        alloc,
        t_isel,
        t_mirv,
        t_ra,
        t_rav,
        t_emit,
        mirv_ok: mirv_problems.is_empty(),
        rav_ok: rav_problems.is_empty(),
        mirv_problems,
        rav_problems,
        isel_dump,
        ra_dump,
    }
}

/// The serial layout/link pass with trace merging: takes per-function
/// artifacts *in function order* (however they were produced — serially,
/// across pool workers, or from a cache), merges their measurements into
/// the aggregate `isel`/`mir-verify`/`regalloc`/`regalloc-verify` entries,
/// links the image, and records `emit`/`emit-verify`.
///
/// Merging is deterministic by construction: every fold (wall-time sums,
/// stat accumulation, dump concatenation, diagnostic collection, the
/// earliest-rejecting-stage attribution) walks `arts` in function order,
/// so the trace and any error are independent of completion order.
///
/// `cached` marks the merged per-function entries as cache-replayed (their
/// wall times are the recorded compute-time walls); the `emit` and
/// `emit-verify` entries are always fresh, since linking re-runs per build.
///
/// # Errors
/// Returns every diagnostic collected across all stages when verification
/// was on and an invariant was violated; the error names the earliest
/// back-end stage that rejected in (function, stage) order.
pub fn link_traced<A: std::borrow::Borrow<FnArtifact>>(
    m: &sir::Module,
    arts: &[A],
    opts: &CodegenOpts,
    layout: &interp::Layout,
    tr: &mut Tracer,
    cached: bool,
) -> Result<Program, VerifyError> {
    let verify = tr.verify_each();
    let sir_stats = IrStats::of_module(m);
    let want_isel_dump = tr.policy.print_after.matches("isel");
    let want_ra_dump = tr.policy.print_after.matches("regalloc");

    let mut problems = Vec::new();
    let mut first_bad: Option<&'static str> = None;
    let mut bad = |slot: &mut Option<&'static str>, stage, fresh: &[sir::Diag]| {
        if slot.is_none() && !fresh.is_empty() {
            *slot = Some(stage);
        }
        problems.extend_from_slice(fresh);
    };
    let (mut t_isel, mut t_mirv, mut t_ra, mut t_rav, mut t_emit) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut mid = IrStats::default();
    let mut allocated = IrStats::default();
    let mut isel_dump = String::new();
    let mut ra_dump = String::new();
    let mut mirv_ok = true;
    let mut rav_ok = true;
    let acc = |s: &mut IrStats, f: &IrStats| {
        s.funcs += f.funcs;
        s.blocks += f.blocks;
        s.insts += f.insts;
        s.regions += f.regions;
        s.slices += f.slices;
    };
    for a in arts {
        let a = a.borrow();
        t_isel += a.t_isel;
        t_mirv += a.t_mirv;
        t_ra += a.t_ra;
        t_rav += a.t_rav;
        t_emit += a.t_emit;
        acc(&mut mid, &a.mid);
        acc(&mut allocated, &a.alloc);
        if let Some(d) = &a.isel_dump {
            isel_dump.push_str(d);
        }
        if let Some(d) = &a.ra_dump {
            ra_dump.push_str(d);
        }
        bad(&mut first_bad, "mir-verify", &a.mirv_problems);
        mirv_ok &= a.mirv_ok;
        bad(&mut first_bad, "regalloc-verify", &a.rav_problems);
        rav_ok &= a.rav_ok;
    }
    let mut isel_entry = PassTrace::new("isel", t_isel).stats(sir_stats, mid);
    isel_entry.cached = cached;
    if want_isel_dump {
        isel_entry.dump = Some(isel_dump);
    }
    tr.record(isel_entry);
    if verify {
        let mut e = PassTrace::new("mir-verify", t_mirv).verified(mirv_ok);
        e.cached = cached;
        tr.record(e);
    }
    let mut ra_entry = PassTrace::new("regalloc", t_ra).stats(mid, allocated);
    ra_entry.cached = cached;
    if want_ra_dump {
        ra_entry.dump = Some(ra_dump);
    }
    tr.record(ra_entry);
    if verify {
        let mut e = PassTrace::new("regalloc-verify", t_rav).verified(rav_ok);
        e.cached = cached;
        tr.record(e);
    }

    let t = Instant::now();
    let codes: Vec<&emit::FnCode> = arts.iter().map(|a| &a.borrow().code).collect();
    let program = emit::link_codes(m, &codes, opts, layout);
    t_emit += t.elapsed().as_nanos() as u64;
    let prog_stats = IrStats {
        funcs: program.func_entries.len() as u32,
        insts: program.insts.len() as u32,
        regions: program.spec_targets.len() as u32,
        ..IrStats::default()
    };
    tr.record(
        PassTrace::new("emit", t_emit)
            .stats(allocated, prog_stats)
            .fingerprinted(program_fingerprint(&program)),
    );
    if verify {
        let t = Instant::now();
        let p = emit::verify_layout(&program);
        let t_ev = t.elapsed().as_nanos() as u64;
        bad(&mut first_bad, "emit-verify", &p);
        tr.record(PassTrace::new("emit-verify", t_ev).verified(p.is_empty()));
    }

    if let Err(e) = VerifyError::check(problems) {
        let stage = first_bad.unwrap_or("backend");
        return Err(e.in_pass(stage, sir::print::print_module(m)));
    }
    Ok(program)
}

/// [`compile_module_checked`] with full per-pass instrumentation: the
/// tracer receives one entry per back-end pass (`isel`, `regalloc`,
/// `emit`, and — when the policy verifies — `mir-verify`,
/// `regalloc-verify`, `emit-verify`). Stage wall times are aggregated
/// across functions; IR deltas use [`IrStats`] with `slices` meaning
/// byte-class vregs; the `emit` entry carries the program fingerprint.
/// `BITSPEC_PRINT_AFTER=isel|regalloc` dumps the MIR of every function via
/// [`mir::print_mir`].
///
/// This is the serial composition of [`compile_function`] per function and
/// one [`link_traced`]; the function-level cache in `core::stages` is the
/// parallel/incremental composition of the same two pieces.
///
/// Verification keeps the accumulate-all-diagnostics semantics of
/// [`compile_module_checked`]; the returned error names the earliest
/// back-end stage that rejected and carries the (last-good) SIR input as
/// its failure artifact.
///
/// # Errors
/// Returns every diagnostic collected across all stages when the tracer's
/// policy verifies and an invariant is violated.
///
/// # Panics
/// Panics on constructs the back-end does not support (64-bit division,
/// 64-bit variable-amount shifts) — see DESIGN.md for the supported subset.
pub fn compile_module_traced(
    m: &sir::Module,
    opts: &CodegenOpts,
    tr: &mut Tracer,
) -> Result<Program, VerifyError> {
    let layout = interp::Layout::new(m);
    let policy = tr.policy.clone();
    let arts: Vec<FnArtifact> = m
        .func_ids()
        .map(|fid| compile_function(m, fid, &layout, opts, &policy))
        .collect();
    link_traced(m, &arts, opts, &layout, tr, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every field the simulator reads moves the fingerprint.
    #[test]
    fn program_fingerprint_sees_every_simulated_field() {
        let m = lang::compile(
            "fp",
            "global u8 g[4] = {1, 2, 3, 4};
             u32 f(u32 x) { return x + g[1]; }
             void main() { out(f(2)); }",
        )
        .unwrap();
        let p = compile_module(&m, &CodegenOpts::default());
        let base = program_fingerprint(&p);
        type Edit = (&'static str, fn(&mut Program));
        let edits: [Edit; 8] = [
            ("insts", |p| p.insts.push(isa::MInst::Halt)),
            ("addrs", |p| p.addrs[0] += 4),
            ("entry", |p| p.entry += 1),
            ("halt", |p| p.halt += 1),
            ("func_entries", |p| p.func_entries[0] += 1),
            ("global_inits", |p| p.global_inits[0].1[0] ^= 1),
            ("mem_size", |p| p.mem_size += 4),
            ("compact", |p| p.compact = !p.compact),
        ];
        for (field, edit) in edits {
            let mut q = p.clone();
            edit(&mut q);
            assert_ne!(program_fingerprint(&q), base, "`{field}` is not hashed");
        }
    }
}
