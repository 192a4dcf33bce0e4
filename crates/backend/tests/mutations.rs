//! Seeded-mutation regression tests for the verification layer.
//!
//! Each test compiles a real workload through the BITSPEC pipeline, then
//! injects one representative compiler bug and asserts the responsible
//! checker rejects it with its stable rule ID:
//!
//! * erase a speculative region (handler-edge deletion) → `LINT-COVER`;
//! * drop the extend between a slice and a word read → `MIR-CLASS` /
//!   `MIR-UNDEF`;
//! * delete a select's default move, so its conditional move reads an
//!   undefined destination → `MIR-UNDEF`;
//! * corrupt the emitted `Δ` → `EMIT-DELTA`.
//!
//! These are exactly the bug classes the paper's soundness argument
//! (Theorem 3.1, eq 8, the §3.3.4 layout) rules out; the tests pin that the
//! checkers actually stand guard over them.

use backend::emit::verify_layout;
use backend::isel::CodegenOpts;
use backend::mir::{MirInst, MirTerm, RegClass, VReg};
use backend::mir_verify::{verify_allocated, verify_mir};
use backend::{isel, regalloc};
use isa::MInst;
use sir::builder::FunctionBuilder;
use sir::{Cc, Width};

const SRC: &str = "
    u32 sum(u32 n) {
        u32 s = 0;
        for (u32 i = 0; i < n; i++) { s += i; }
        return s;
    }
    void main() { out(sum(200)); }
";

/// Compiles `SRC` through profile + squeeze, returning the squeezed module.
fn squeezed_module() -> sir::Module {
    let mut m = lang::compile("mut", SRC).unwrap();
    let mut i = interp::Interpreter::new(&m);
    i.enable_profiling();
    i.run("main", &[]).unwrap();
    let profile = i.take_profile().unwrap();
    let report = opt::squeeze_module(
        &mut m,
        &profile,
        &opt::SqueezeConfig {
            heuristic: interp::Heuristic::Max,
            compare_elim: true,
            bitmask_elision: true,
            speculation: true,
        },
    );
    assert!(report.regions > 0, "workload must form speculative regions");
    sir::verify::verify_module(&m).unwrap();
    sir::bitlint::lint_module(&m).expect("squeezer output must lint clean");
    m
}

/// Whether `inst` reads `v`.
fn reads(inst: &MirInst, v: VReg) -> bool {
    let mut hit = false;
    inst.for_each_use(|u| hit |= u == v);
    hit
}

/// Whether `term` reads `v`.
fn term_reads(term: &MirTerm, v: VReg) -> bool {
    let mut hit = false;
    term.for_each_use(|u| hit |= u == v);
    hit
}

fn opts() -> CodegenOpts {
    CodegenOpts {
        bitspec: true,
        compact: false,
        spill_prefer_orig: true,
    }
}

/// Mutation 1: delete a region (and its block marks) from squeezed SIR —
/// the misspeculation handler edge vanishes while the speculative
/// instructions remain. `bitlint` must flag every uncovered instruction.
#[test]
fn erased_region_is_rejected_with_lint_cover() {
    let mut m = squeezed_module();
    let mut erased = false;
    for f in &mut m.funcs {
        if f.regions.is_empty() {
            continue;
        }
        f.regions.clear();
        for b in &mut f.blocks {
            b.region = None;
            b.handler_for = None;
        }
        erased = true;
    }
    assert!(erased);
    let err = sir::bitlint::lint_module(&m).expect_err("uncovered speculation must not lint");
    assert!(err.has_rule("LINT-COVER"), "want LINT-COVER, got: {err}");
}

/// Mutation 2a: replace the slice→word extend with a plain register move —
/// a Byte vreg flows into a Word operand position. The SMIR verifier must
/// report the class violation.
#[test]
fn dropped_extend_is_rejected_with_mir_class() {
    let m = squeezed_module();
    let layout = interp::Layout::new(&m);
    let mut mutated = false;
    for fid in m.func_ids() {
        let mut mir = isel::select_function(&m, fid, &layout, &opts());
        assert!(verify_mir(&mir).is_empty(), "clean isel must verify");
        'seek: for b in 0..mir.blocks.len() {
            for i in 0..mir.blocks[b].insts.len() {
                if let MirInst::SExtend { rd, bn, .. } = mir.blocks[b].insts[i] {
                    mir.blocks[b].insts[i] = MirInst::Mov { rd, rm: bn };
                    mutated = true;
                    break 'seek;
                }
            }
        }
        if !mutated {
            continue;
        }
        let diags = verify_mir(&mir);
        assert!(
            diags.iter().any(|d| d.rule == "MIR-CLASS"),
            "want MIR-CLASS, got {diags:?}"
        );
        return;
    }
    panic!("no SExtend found in bitspec isel output");
}

/// Mutation 2b: delete the extend entirely — its word destination is then
/// read without ever being defined. The definedness dataflow (which flows
/// over misspeculation edges too) must report it.
#[test]
fn deleted_extend_is_rejected_with_mir_undef() {
    let m = squeezed_module();
    let layout = interp::Layout::new(&m);
    for fid in m.func_ids() {
        let mut mir = isel::select_function(&m, fid, &layout, &opts());
        let mut victim: Option<(usize, usize)> = None;
        'seek: for b in 0..mir.blocks.len() {
            for i in 0..mir.blocks[b].insts.len() {
                if let MirInst::SExtend { rd, .. } = mir.blocks[b].insts[i] {
                    // Only a meaningful mutation if rd is read afterwards.
                    let read_later = mir.blocks.iter().enumerate().any(|(bj, blk)| {
                        blk.insts
                            .iter()
                            .enumerate()
                            .any(|(ij, inst)| (bj != b || ij > i) && reads(inst, rd))
                            || term_reads(&blk.term, rd)
                    });
                    if read_later {
                        victim = Some((b, i));
                        break 'seek;
                    }
                }
            }
        }
        let Some((b, i)) = victim else { continue };
        mir.blocks[b].insts.remove(i);
        let diags = verify_mir(&mir);
        assert!(
            diags.iter().any(|d| d.rule == "MIR-UNDEF"),
            "want MIR-UNDEF, got {diags:?}"
        );
        return;
    }
    panic!("no live SExtend found in bitspec isel output");
}

/// Mutation 2c: delete the default `Mov` of a lowered select. `MovCc`
/// writes its destination only when the condition holds, so it reads the
/// destination's previous value, which is now undefined on every path.
#[test]
fn deleted_select_default_is_rejected_with_mir_undef() {
    let mut b = FunctionBuilder::new("pick", vec![Width::W32, Width::W32], Some(Width::W32));
    let (x, y) = (b.param(0), b.param(1));
    let c = b.icmp(Cc::Ult, Width::W32, x, y);
    let s = b.select(Width::W32, c, x, y);
    b.ret(Some(s));
    let mut m = sir::Module::new("sel");
    let fid = m.add_function(b.finish());
    sir::verify::verify_module(&m).unwrap();
    let layout = interp::Layout::new(&m);
    let mut mir = isel::select_function(&m, fid, &layout, &opts());
    assert!(verify_mir(&mir).is_empty(), "clean isel must verify");
    let (bi, i, rd) = mir
        .blocks
        .iter()
        .enumerate()
        .find_map(|(bi, blk)| {
            blk.insts
                .iter()
                .enumerate()
                .find_map(|(i, inst)| match inst {
                    MirInst::MovCc { rd, .. } => Some((bi, i, *rd)),
                    _ => None,
                })
        })
        .expect("select lowers to MovCc");
    let default = mir.blocks[bi].insts[..i]
        .iter()
        .rposition(|inst| matches!(inst, MirInst::Mov { rd: d, .. } if *d == rd))
        .expect("select default move precedes the MovCc");
    mir.blocks[bi].insts.remove(default);
    let diags = verify_mir(&mir);
    assert!(
        diags.iter().any(|d| d.rule == "MIR-UNDEF"),
        "want MIR-UNDEF, got {diags:?}"
    );
}

/// Mutation 3: corrupt the patched `SetDelta` displacement in the linked
/// image — `pc + Δ` no longer lands on the mirrored skeleton branch. The
/// layout checker must reject the image.
#[test]
fn corrupted_delta_is_rejected_with_emit_delta() {
    let m = squeezed_module();
    let mut p = backend::compile_module_checked(&m, &opts(), true).expect("clean compile");
    assert!(
        !p.spec_targets.is_empty(),
        "bitspec program must have cover entries"
    );
    assert!(verify_layout(&p).is_empty());
    let mut corrupted = false;
    for inst in &mut p.insts {
        if let MInst::SetDelta { bytes } = inst {
            *bytes += 4;
            corrupted = true;
        }
    }
    assert!(corrupted, "bitspec program must set Δ");
    let diags = verify_layout(&p);
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "EMIT-DELTA" || d.rule == "EMIT-GRID"),
        "want EMIT-DELTA/EMIT-GRID, got {diags:?}"
    );
}

/// Bonus coverage: dropping a cover entry leaves the misspeculation-capable
/// instruction unaccounted for (`EMIT-UNCOVERED`), and the full allocated
/// pipeline stays clean end to end (`verify_allocated`).
#[test]
fn missing_cover_entry_is_rejected_with_emit_uncovered() {
    let m = squeezed_module();
    let mut p = backend::compile_module_checked(&m, &opts(), true).expect("clean compile");
    assert!(!p.spec_targets.is_empty());
    p.spec_targets.pop();
    let diags = verify_layout(&p);
    assert!(
        diags.iter().any(|d| d.rule == "EMIT-UNCOVERED"),
        "want EMIT-UNCOVERED, got {diags:?}"
    );
}

#[test]
fn allocated_pipeline_verifies_clean() {
    let m = squeezed_module();
    let layout = interp::Layout::new(&m);
    let mut saw_byte_vreg = false;
    for fid in m.func_ids() {
        let mir = isel::select_function(&m, fid, &layout, &opts());
        saw_byte_vreg |= mir.classes.contains(&RegClass::Byte);
        let af = regalloc::allocate(mir, &opts());
        let diags = verify_allocated(&af);
        assert!(diags.is_empty(), "post-regalloc: {diags:?}");
        // Sanity: the verifier inspected real vregs.
        assert!(af.mir.classes.len() > VReg(0).index());
    }
    assert!(saw_byte_vreg, "squeezed code must carry slice vregs");
}
