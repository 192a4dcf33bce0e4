//! SMIR verifier — machine-IR counterpart of `sir::verify`.
//!
//! Runs after instruction selection (`verify_mir`) and again after register
//! allocation (`verify_allocated`), checking the invariants the emitter and
//! the §3.3.4 layout rely on:
//!
//! * every vreg is defined before use on all paths, including misspeculation
//!   edges into handlers (`MIR-UNDEF`, a forward dataflow over the 2-CFG);
//! * every operand position carries a vreg of the expected register class —
//!   no wide read of a slice-defined register without an `SExtend`
//!   (`MIR-CLASS`);
//! * region/handler cross-references are consistent, region blocks sit on
//!   the speculative side, and every misspeculation-capable instruction is
//!   covered by a region (`MIR-REGION`);
//! * after allocation, locations agree with classes and the block order
//!   keeps the spec segment a contiguous prefix (`MIR-LOC`, `MIR-REGION`).

use crate::mir::{MOperand, MirFunction, MirInst, MirTerm, RegClass, SAluOp, SMOperand, VReg};
use crate::regalloc::{AllocatedFn, Loc};
use sir::bitset::BitRows;
use sir::dataflow::Reversed;
use sir::liveness;
use sir::Diag;

/// Pass name used in every diagnostic this module emits.
pub const PASS: &str = "mir-verify";

/// Whether a MIR instruction can trigger misspeculation (mirrors
/// [`isa::MInst::can_misspeculate`] one level up).
pub fn can_misspeculate(i: &MirInst) -> bool {
    match i {
        MirInst::SAlu {
            op, speculative, ..
        } => *speculative && matches!(op, SAluOp::Add | SAluOp::Sub | SAluOp::Lsl),
        MirInst::SLoadSpec { .. } => true,
        MirInst::SLoadIdx { speculative, .. } | MirInst::STrunc { speculative, .. } => *speculative,
        MirInst::SpecCheck { .. } => true,
        _ => false,
    }
}

/// Calls `f` with the expected register class of every vreg operand of
/// `i`, as `(vreg, class, role)`, covering both uses and defs.
fn for_each_operand_class(i: &MirInst, mut f: impl FnMut(VReg, RegClass, &'static str)) {
    use RegClass::{Byte, Word};
    match i {
        MirInst::Alu { rd, rn, src2, .. } => {
            f(*rd, Word, "rd");
            f(*rn, Word, "rn");
            if let MOperand::VReg(v) = src2 {
                f(*v, Word, "src2");
            }
        }
        MirInst::MovImm { rd, .. } | MirInst::CSet { rd, .. } => f(*rd, Word, "rd"),
        MirInst::Mov { rd, rm } | MirInst::MovCc { rd, rm, .. } => {
            f(*rd, Word, "rd");
            f(*rm, Word, "rm");
        }
        MirInst::Cmp { rn, src2 } => {
            f(*rn, Word, "rn");
            if let MOperand::VReg(v) = src2 {
                f(*v, Word, "src2");
            }
        }
        MirInst::Extend { rd, rm, .. } => {
            f(*rd, Word, "rd");
            f(*rm, Word, "rm");
        }
        MirInst::Umull { rdlo, rdhi, rn, rm } => {
            f(*rdlo, Word, "rdlo");
            f(*rdhi, Word, "rdhi");
            f(*rn, Word, "rn");
            f(*rm, Word, "rm");
        }
        MirInst::Load { rd, rn, .. } => {
            f(*rd, Word, "rd");
            f(*rn, Word, "rn");
        }
        MirInst::LoadIdx { rd, rn, bidx, .. } => {
            f(*rd, Word, "rd");
            f(*rn, Word, "rn");
            f(*bidx, Byte, "bidx");
        }
        MirInst::SLoadIdx { bd, rn, bidx, .. } => {
            f(*bd, Byte, "bd");
            f(*rn, Word, "rn");
            f(*bidx, Byte, "bidx");
        }
        MirInst::Store { rs, rn, .. } => {
            f(*rs, Word, "rs");
            f(*rn, Word, "rn");
        }
        MirInst::GlobalAddr { rd, .. }
        | MirInst::FrameAddr { rd, .. }
        | MirInst::GetParam { rd, .. } => f(*rd, Word, "rd"),
        MirInst::Call { args, rets, .. } => {
            for a in args {
                f(*a, Word, "arg");
            }
            for r in rets {
                f(*r, Word, "ret");
            }
        }
        MirInst::Out { rn } | MirInst::SpecCheck { rn } => f(*rn, Word, "rn"),
        MirInst::SAlu { bd, bn, src2, .. } => {
            f(*bd, Byte, "bd");
            f(*bn, Byte, "bn");
            if let SMOperand::VReg(v) = src2 {
                f(*v, Byte, "src2");
            }
        }
        MirInst::SCmp { bn, src2 } => {
            f(*bn, Byte, "bn");
            if let SMOperand::VReg(v) = src2 {
                f(*v, Byte, "src2");
            }
        }
        MirInst::SLoadSpec { bd, rn, .. } | MirInst::SLoad { bd, rn, .. } => {
            f(*bd, Byte, "bd");
            f(*rn, Word, "rn");
        }
        MirInst::SStore { bs, rn, .. } => {
            f(*bs, Byte, "bs");
            f(*rn, Word, "rn");
        }
        MirInst::SExtend { rd, bn, .. } => {
            f(*rd, Word, "rd");
            f(*bn, Byte, "bn");
        }
        MirInst::STrunc { bd, rn, .. } => {
            f(*bd, Byte, "bd");
            f(*rn, Word, "rn");
        }
        MirInst::SMov { bd, bs } => {
            f(*bd, Byte, "bd");
            f(*bs, Byte, "bs");
        }
        MirInst::SMovImm { bd, .. } => f(*bd, Byte, "bd"),
    }
}

/// Verifies a post-isel MIR function. Returns diagnostics (empty = clean).
pub fn verify_mir(f: &MirFunction) -> Vec<Diag> {
    let mut problems = Vec::new();
    check_classes(f, &mut problems);
    check_regions(f, &mut problems);
    check_defined(f, &mut problems);
    problems
}

/// Verifies an allocated function: MIR invariants must still hold, every
/// location must agree with its vreg's class, and the layout order must keep
/// the spec segment contiguous.
pub fn verify_allocated(a: &AllocatedFn) -> Vec<Diag> {
    let mut problems = verify_mir(&a.mir);
    check_locs(a, &mut problems);
    check_order(a, &mut problems);
    problems
}

fn diag(f: &MirFunction, rule: &'static str, loc: impl ToString, msg: impl Into<String>) -> Diag {
    Diag::new(rule, PASS, f.name.clone(), loc, msg)
}

fn check_classes(f: &MirFunction, problems: &mut Vec<Diag>) {
    for b in f.block_ids() {
        for (ii, inst) in f.block(b).insts.iter().enumerate() {
            for_each_operand_class(inst, |v, expected, role| {
                if v.index() >= f.classes.len() {
                    problems.push(diag(
                        f,
                        "MIR-CLASS",
                        format!("{b:?}[{ii}]"),
                        format!("{v:?} ({role}) has no class entry"),
                    ));
                } else if f.class_of(v) != expected {
                    problems.push(diag(
                        f,
                        "MIR-CLASS",
                        format!("{b:?}[{ii}]"),
                        format!(
                            "{v:?} ({role}) is {:?} but position requires {expected:?}",
                            f.class_of(v)
                        ),
                    ));
                }
            });
        }
        if let MirTerm::Ret(vals) = &f.block(b).term {
            for v in vals {
                if v.index() >= f.classes.len() || f.class_of(*v) != RegClass::Word {
                    problems.push(diag(
                        f,
                        "MIR-CLASS",
                        format!("{b:?}"),
                        format!("return value {v:?} must be Word (extend slices before return)"),
                    ));
                }
            }
        }
    }
}

fn check_regions(f: &MirFunction, problems: &mut Vec<Diag>) {
    // Region tables and block annotations must cross-reference exactly.
    for (ri, (members, handler)) in f.regions.iter().enumerate() {
        for &m in members {
            if m.index() >= f.blocks.len() {
                problems.push(diag(
                    f,
                    "MIR-REGION",
                    format!("{m:?}"),
                    format!("region {ri} member out of range"),
                ));
                continue;
            }
            if f.block(m).region != Some(ri as u32) {
                problems.push(diag(
                    f,
                    "MIR-REGION",
                    format!("{m:?}"),
                    format!(
                        "listed in region {ri} but annotated {:?}",
                        f.block(m).region
                    ),
                ));
            }
            if !f.block(m).spec_side {
                problems.push(diag(
                    f,
                    "MIR-REGION",
                    format!("{m:?}"),
                    format!("region {ri} member is not on the speculative side"),
                ));
            }
        }
        if handler.index() >= f.blocks.len() {
            problems.push(diag(
                f,
                "MIR-REGION",
                format!("{handler:?}"),
                format!("region {ri} handler out of range"),
            ));
        } else {
            if f.block(*handler).handler_for != Some(ri as u32) {
                problems.push(diag(
                    f,
                    "MIR-REGION",
                    format!("{handler:?}"),
                    format!(
                        "handler of region {ri} annotated handler_for {:?}",
                        f.block(*handler).handler_for
                    ),
                ));
            }
            if f.block(*handler).spec_side {
                problems.push(diag(
                    f,
                    "MIR-REGION",
                    format!("{handler:?}"),
                    format!("handler of region {ri} must not be on the speculative side"),
                ));
            }
        }
    }
    for b in f.block_ids() {
        if let Some(r) = f.block(b).region {
            if r as usize >= f.regions.len() {
                problems.push(diag(
                    f,
                    "MIR-REGION",
                    format!("{b:?}"),
                    format!("block annotated with unknown region {r}"),
                ));
            } else if !f.regions[r as usize].0.contains(&b) {
                problems.push(diag(
                    f,
                    "MIR-REGION",
                    format!("{b:?}"),
                    format!("annotated region {r} but absent from its member list"),
                ));
            }
        }
        if let Some(r) = f.block(b).handler_for {
            if r as usize >= f.regions.len() || f.regions[r as usize].1 != b {
                problems.push(diag(
                    f,
                    "MIR-REGION",
                    format!("{b:?}"),
                    format!("annotated handler_for {r} but region disagrees"),
                ));
            }
        }
        // Every misspeculation-capable instruction needs a covering region,
        // or the skeleton has no branch slot for it and a misspeculation
        // would land on a NOP (or worse).
        if f.block(b).region.is_none() {
            for (ii, inst) in f.block(b).insts.iter().enumerate() {
                if can_misspeculate(inst) {
                    problems.push(diag(
                        f,
                        "MIR-REGION",
                        format!("{b:?}[{ii}]"),
                        "misspeculation-capable instruction outside any region",
                    ));
                }
            }
        }
    }
}

/// `MIR-UNDEF`: flags each use of a vreg that may be undefined there, i.e.
/// that some path from the entry (misspeculation edges included) reaches
/// without defining it. "May be undefined" is a forward union with
/// `out = in ∖ defs`, seeded with every vreg at the entry: the gen/kill
/// shape of [`liveness::solve`], run over the reversed CFG.
fn check_defined(f: &MirFunction, problems: &mut Vec<Diag>) {
    let (nb, nvregs) = (f.blocks.len(), f.classes.len());
    let mut defs: BitRows = BitRows::new(nb, nvregs);
    for b in f.block_ids() {
        for inst in &f.block(b).insts {
            inst.for_each_def(|d| {
                if d.index() < nvregs {
                    defs.insert(b.index(), d.index());
                }
            });
        }
    }
    let mut seed: BitRows = BitRows::new(nb, nvregs);
    (0..nvregs).for_each(|v| seed.insert(f.entry.index(), v));
    let rev = Reversed::of(&f.cfg(true));
    let (_, undef_in) = liveness::solve(&rev, BitRows::new(nb, nvregs), defs, seed);
    // `local[v] == b + 1` once block `b` has defined `v` above the cursor.
    let mut local = vec![0u32; nvregs];
    for b in f.block_ids() {
        let (undef, stamp) = (undef_in.row(b.index()), b.index() as u32 + 1);
        // Locations are formatted lazily: this runs per operand on every
        // (usually clean) function.
        let mut check = |u: VReg, local: &[u32], ii: Option<usize>| {
            let i = u.index();
            if i >= nvregs || (local[i] != stamp && undef.contains(i)) {
                let loc = match ii {
                    Some(i) => format!("{b:?}[{i}]"),
                    None => format!("{b:?}"),
                };
                problems.push(Diag::new(
                    "MIR-UNDEF",
                    PASS,
                    f.name.clone(),
                    loc,
                    format!("{u:?} used before definition"),
                ));
            }
        };
        for (ii, inst) in f.block(b).insts.iter().enumerate() {
            inst.for_each_use(|u| check(u, &local, Some(ii)));
            inst.for_each_def(|d| {
                if d.index() < nvregs {
                    local[d.index()] = stamp;
                }
            });
        }
        f.block(b).term.for_each_use(|u| check(u, &local, None));
    }
}

fn check_locs(a: &AllocatedFn, problems: &mut Vec<Diag>) {
    let f = &a.mir;
    if a.locs.len() < f.classes.len() {
        problems.push(diag(
            f,
            "MIR-LOC",
            "fn",
            format!(
                "{} vregs but only {} locations",
                f.classes.len(),
                a.locs.len()
            ),
        ));
        return;
    }
    for (vi, class) in f.classes.iter().enumerate() {
        let loc = a.locs[vi];
        // `Spill(u32::MAX)` is the allocator's "never allocated" sentinel
        // for dead vregs; it carries no class.
        if loc == Loc::Spill(u32::MAX) {
            continue;
        }
        let ok = match class {
            RegClass::Word => matches!(loc, Loc::Reg(_) | Loc::WriteThrough { .. } | Loc::Spill(_)),
            RegClass::Byte => matches!(
                loc,
                Loc::Slice(_) | Loc::WriteThroughSlice { .. } | Loc::Spill(_)
            ),
        };
        if !ok {
            problems.push(diag(
                f,
                "MIR-LOC",
                format!("v{vi}"),
                format!("{class:?} vreg assigned incompatible location {loc:?}"),
            ));
        }
    }
}

fn check_order(a: &AllocatedFn, problems: &mut Vec<Diag>) {
    let f = &a.mir;
    let mut seen = vec![0u32; f.blocks.len()];
    for &b in &a.order {
        if b.index() >= f.blocks.len() {
            problems.push(diag(
                f,
                "MIR-REGION",
                format!("{b:?}"),
                "order names unknown block",
            ));
            return;
        }
        seen[b.index()] += 1;
    }
    for (bi, &count) in seen.iter().enumerate() {
        if count != 1 {
            problems.push(diag(
                f,
                "MIR-REGION",
                format!("mb{bi}"),
                format!("block appears {count} times in layout order (want exactly 1)"),
            ));
        }
    }
    // The emitter takes the leading run of spec-side blocks as the spec
    // segment; a spec block after the first non-spec block would escape the
    // skeleton mirror entirely.
    let spec_count = a
        .order
        .iter()
        .take_while(|b| f.block(**b).spec_side)
        .count();
    for &b in a.order.iter().skip(spec_count) {
        if f.block(b).spec_side {
            problems.push(diag(
                f,
                "MIR-REGION",
                format!("{b:?}"),
                "speculative-side block laid out after the spec segment",
            ));
        }
    }
    if !a.order.is_empty() && a.order[0] != f.entry {
        problems.push(diag(
            f,
            "MIR-REGION",
            format!("{:?}", a.order[0]),
            "layout order must start at the entry block",
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isel::CodegenOpts;
    use crate::{isel, regalloc};

    /// Compiles `src` (squeezing when `opts.bitspec`) into allocated functions.
    fn allocated(src: &str, opts: &CodegenOpts) -> Vec<AllocatedFn> {
        let mut m = lang::compile("t", src).unwrap();
        if opts.bitspec {
            let mut i = interp::Interpreter::new(&m);
            i.enable_profiling();
            i.run("main", &[]).unwrap();
            let profile = i.take_profile().unwrap();
            opt::squeeze_module(
                &mut m,
                &profile,
                &opt::SqueezeConfig {
                    heuristic: interp::Heuristic::Max,
                    compare_elim: true,
                    bitmask_elision: true,
                    speculation: true,
                },
            );
            sir::verify::verify_module(&m).unwrap();
        }
        let layout = interp::Layout::new(&m);
        m.func_ids()
            .map(|fid| regalloc::allocate(isel::select_function(&m, fid, &layout, opts), opts))
            .collect()
    }

    const LOOPY: &str = "
        u32 sum(u32 n) {
            u32 s = 0;
            for (u32 i = 0; i < n; i++) { s += i; }
            return s;
        }
        void main() { out(sum(200)); }
    ";

    #[test]
    fn clean_pipeline_verifies_post_isel_and_post_regalloc() {
        for opts in [
            CodegenOpts::default(),
            CodegenOpts {
                bitspec: true,
                compact: false,
                spill_prefer_orig: true,
            },
        ] {
            for af in allocated(LOOPY, &opts) {
                let d = verify_mir(&af.mir);
                assert!(d.is_empty(), "post-isel: {d:?}");
                let d = verify_allocated(&af);
                assert!(d.is_empty(), "post-regalloc: {d:?}");
            }
        }
    }

    fn first_bitspec_fn() -> AllocatedFn {
        let opts = CodegenOpts {
            bitspec: true,
            compact: false,
            spill_prefer_orig: true,
        };
        allocated(LOOPY, &opts)
            .into_iter()
            .find(|af| !af.mir.regions.is_empty())
            .expect("bitspec compile must form at least one region")
    }

    /// A hand-built function over word vregs `v0..v{nv}`: block `i` holds
    /// `blocks[i]`, block 0 is the entry, and `regions` are `(blocks,
    /// handler)` pairs by block index.
    fn hand(
        nv: usize,
        blocks: Vec<(Vec<MirInst>, MirTerm)>,
        regions: Vec<(Vec<u32>, u32)>,
    ) -> MirFunction {
        use crate::mir::{MBlockId, MirBlock};
        let mut f = MirFunction {
            name: "hand".into(),
            blocks: blocks
                .into_iter()
                .map(|(insts, term)| MirBlock {
                    insts,
                    term,
                    region: None,
                    handler_for: None,
                    spec_side: false,
                })
                .collect(),
            entry: MBlockId(0),
            classes: vec![RegClass::Word; nv],
            regions: Vec::new(),
            alloca_sizes: Vec::new(),
            param_slots: 0,
        };
        for (r, (rb, h)) in regions.into_iter().enumerate() {
            for &b in &rb {
                f.blocks[b as usize].region = Some(r as u32);
            }
            f.blocks[h as usize].handler_for = Some(r as u32);
            f.regions
                .push((rb.into_iter().map(MBlockId).collect(), MBlockId(h)));
        }
        f
    }

    fn def(v: u32) -> MirInst {
        MirInst::MovImm {
            rd: VReg(v),
            imm: 1,
        }
    }

    fn br(b: u32) -> MirTerm {
        MirTerm::Br(crate::mir::MBlockId(b))
    }

    fn bc(t: u32, e: u32) -> MirTerm {
        MirTerm::Bc {
            cond: isa::Cond::Eq,
            if_true: crate::mir::MBlockId(t),
            if_false: crate::mir::MBlockId(e),
        }
    }

    /// `(location, message)` of every `MIR-UNDEF` diagnostic.
    fn undefined(f: &MirFunction) -> Vec<(String, String)> {
        let mut d = Vec::new();
        check_defined(f, &mut d);
        assert!(d.iter().all(|p| p.rule == "MIR-UNDEF"));
        d.into_iter().map(|p| (p.loc, p.msg)).collect()
    }

    #[test]
    fn use_at_a_join_defined_on_one_arm_is_undefined() {
        // 0 -> {1, 2} -> 3; only arm 1 defines v0, and 3 returns it.
        let f = hand(
            1,
            vec![
                (vec![], bc(1, 2)),
                (vec![def(0)], br(3)),
                (vec![], br(3)),
                (vec![], MirTerm::Ret(vec![VReg(0)])),
            ],
            vec![],
        );
        let want = ("mb3".to_string(), "v0 used before definition".to_string());
        assert_eq!(undefined(&f), vec![want]);
        // Defining it on the other arm too makes the join clean.
        let mut g = f.clone();
        g.blocks[2].insts.push(def(0));
        assert_eq!(undefined(&g), vec![]);
    }

    #[test]
    fn handler_use_of_a_vreg_defined_later_in_its_region_is_undefined() {
        // Region {1, 2} with handler 4: a misspeculation in block 1 reaches
        // the handler before block 2 defines v0.
        let f = hand(
            1,
            vec![
                (vec![], br(1)),
                (vec![], br(2)),
                (vec![def(0)], br(3)),
                (vec![], MirTerm::Ret(vec![VReg(0)])),
                (vec![], MirTerm::Ret(vec![VReg(0)])),
            ],
            vec![(vec![1, 2], 4)],
        );
        let locs: Vec<String> = undefined(&f).into_iter().map(|(l, _)| l).collect();
        assert_eq!(locs, vec!["mb4"], "only the handler's use");
    }

    #[test]
    fn loop_carried_definition_and_unreachable_block_are_clean() {
        // 0 defines v0; loop 1 reads v0, redefines it and defines v1, which
        // the exit 2 returns. Block 3 is unreachable and reads an
        // otherwise-undefined v2: with no path from the entry, no use there
        // can see an undefined vreg.
        let f = hand(
            3,
            vec![
                (vec![def(0)], br(1)),
                (
                    vec![
                        MirInst::Mov {
                            rd: VReg(1),
                            rm: VReg(0),
                        },
                        def(0),
                    ],
                    bc(1, 2),
                ),
                (vec![], MirTerm::Ret(vec![VReg(0), VReg(1)])),
                (vec![], MirTerm::Ret(vec![VReg(2)])),
            ],
            vec![],
        );
        assert_eq!(undefined(&f), vec![]);
        // A vreg index past the class table is always flagged.
        let mut g = f.clone();
        g.blocks[2].term = MirTerm::Ret(vec![VReg(3)]);
        assert_eq!(undefined(&g).len(), 1);
    }

    #[test]
    fn dropped_extend_is_undefined_use() {
        // Replace the first SExtend with a Mov from a fresh (never-defined)
        // word vreg: the use must surface as MIR-UNDEF.
        let mut af = first_bitspec_fn();
        let f = &mut af.mir;
        let fresh = VReg(f.classes.len() as u32);
        f.classes.push(RegClass::Word);
        let mut replaced = false;
        'outer: for b in 0..f.blocks.len() {
            for i in 0..f.blocks[b].insts.len() {
                if let MirInst::SExtend { rd, .. } = f.blocks[b].insts[i] {
                    f.blocks[b].insts[i] = MirInst::Mov { rd, rm: fresh };
                    replaced = true;
                    break 'outer;
                }
            }
        }
        assert!(replaced, "expected an SExtend in bitspec output");
        let d = verify_mir(&af.mir);
        assert!(
            d.iter().any(|p| p.rule == "MIR-UNDEF"),
            "want MIR-UNDEF, got {d:?}"
        );
    }

    #[test]
    fn wide_read_of_slice_vreg_is_a_class_violation() {
        // Route a Byte vreg into a word position (the "forgot the extend"
        // bug): MIR-CLASS must fire.
        let mut af = first_bitspec_fn();
        let f = &mut af.mir;
        let mut mutated = false;
        'outer: for b in 0..f.blocks.len() {
            for i in 0..f.blocks[b].insts.len() {
                if let MirInst::SExtend { rd, bn, .. } = f.blocks[b].insts[i] {
                    f.blocks[b].insts[i] = MirInst::Mov { rd, rm: bn };
                    mutated = true;
                    break 'outer;
                }
            }
        }
        assert!(mutated, "expected an SExtend in bitspec output");
        let d = verify_mir(&af.mir);
        assert!(
            d.iter().any(|p| p.rule == "MIR-CLASS"),
            "want MIR-CLASS, got {d:?}"
        );
    }

    #[test]
    fn erased_region_leaves_uncovered_speculation() {
        let mut af = first_bitspec_fn();
        let f = &mut af.mir;
        f.regions.clear();
        for b in &mut f.blocks {
            b.region = None;
            b.handler_for = None;
        }
        let d = verify_mir(f);
        assert!(
            d.iter()
                .any(|p| p.rule == "MIR-REGION" && p.msg.contains("outside any region")),
            "want uncovered-speculation MIR-REGION, got {d:?}"
        );
    }

    #[test]
    fn handler_marked_speculative_is_rejected() {
        let mut af = first_bitspec_fn();
        let f = &mut af.mir;
        let h = f.regions[0].1;
        f.block_mut(h).spec_side = true;
        let d = verify_mir(f);
        assert!(
            d.iter()
                .any(|p| p.rule == "MIR-REGION" && p.msg.contains("speculative side")),
            "got {d:?}"
        );
    }

    #[test]
    fn misallocated_slice_location_is_rejected() {
        let mut af = first_bitspec_fn();
        let byte_vreg = af
            .mir
            .classes
            .iter()
            .enumerate()
            .find(|(vi, c)| **c == RegClass::Byte && af.locs[*vi] != Loc::Spill(u32::MAX))
            .map(|(vi, _)| vi)
            .expect("bitspec output has live byte vregs");
        af.locs[byte_vreg] = Loc::Reg(isa::Reg(4));
        let d = verify_allocated(&af);
        assert!(
            d.iter().any(|p| p.rule == "MIR-LOC"),
            "want MIR-LOC, got {d:?}"
        );
    }

    #[test]
    fn spec_block_after_segment_is_rejected() {
        let mut af = first_bitspec_fn();
        // Move the first spec-side block to the end of the order.
        let first = af.order.remove(0);
        assert!(af.mir.block(first).spec_side);
        // Ensure something non-spec now leads the order tail.
        af.order.push(first);
        let d = verify_allocated(&af);
        assert!(
            d.iter().any(|p| p.rule == "MIR-REGION"
                && (p.msg.contains("after the spec segment") || p.msg.contains("entry block"))),
            "got {d:?}"
        );
    }
}
