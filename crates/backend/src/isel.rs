//! Instruction selection: SIR → MIR (§3.3.1–3.3.2).
//!
//! * 64-bit values are legalized onto register pairs (`adds/adc` chains,
//!   `umull`-based multiplies, constant-amount shift expansions).
//! * Sub-word (8/16-bit) values are kept *canonical* (zero-extended) in
//!   word registers; in BITSPEC mode, 8-bit values live in slice virtual
//!   registers and use the Table 1 operations instead.
//! * Compares feeding a conditional branch in the same block are fused
//!   (no materialized boolean); the compare is sunk to just before the
//!   terminator, ahead of the φ-resolution copies (which never touch
//!   flags).
//! * SSA is destructed by splitting critical edges and placing ordered
//!   parallel-copy sequences at predecessor ends.
//! * Compact mode (RQ9) restricts ALU ops to two-address form and eight
//!   registers, mirroring Thumb's main costs.

use crate::mir::{
    MBlockId, MOperand, MirBlock, MirFunction, MirInst, MirTerm, RegClass, SAluOp, SMOperand, VReg,
};
use interp::Layout;
use isa::{AluOp, Cond, MemWidth};
use sir::{BinOp, BlockId, Cc, FuncId, Function, Inst, Module, Terminator, ValueId, Width};

/// Code generation options (architecture selection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodegenOpts {
    /// Use the BITSPEC slice ISA (required for squeezed modules).
    pub bitspec: bool,
    /// Thumb-like compact mode (RQ9): 2-address ALU, 8 registers, 2-byte
    /// encodings. Mutually exclusive with `bitspec`.
    pub compact: bool,
    /// The register allocator's branch-weight heuristic (RQ5): when true
    /// (the paper's default), handlers are treated as almost-never-taken,
    /// so spilling prefers `CFG_orig` values and keeps `CFG_spec` fast.
    pub spill_prefer_orig: bool,
}

impl Default for CodegenOpts {
    fn default() -> Self {
        CodegenOpts {
            bitspec: true,
            compact: false,
            spill_prefer_orig: true,
        }
    }
}

/// Load addressing modes.
#[derive(Debug, Clone, Copy)]
enum AddrMode {
    BaseOff(VReg, i32),
    /// `base + (slice << shift)` — Table 1 slice-indexed addressing.
    BaseSliceIdx(VReg, VReg, u8),
}

/// How a SIR value maps onto virtual registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Val {
    /// One word register (W1/W16/W32, and W8 in non-BITSPEC mode).
    W(VReg),
    /// An 8-bit slice register (BITSPEC mode only).
    B(VReg),
    /// A 64-bit pair (lo, hi).
    Pair(VReg, VReg),
}

/// Selects instructions for one function.
pub fn select_function(
    m: &Module,
    fid: FuncId,
    layout: &Layout,
    opts: &CodegenOpts,
) -> MirFunction {
    assert!(
        !(opts.bitspec && opts.compact),
        "compact mode has no BITSPEC extensions"
    );
    let mut f = m.func(fid).clone();
    split_critical_edges(&mut f);
    let mut use_counts = vec![0u32; f.insts.len()];
    let mut count = |v: ValueId| {
        if let Some(n) = use_counts.get_mut(v.index()) {
            *n += 1;
        }
    };
    for i in &f.insts {
        i.for_each_operand(&mut count);
    }
    for b in &f.blocks {
        b.term.for_each_operand(&mut count);
    }
    let sel = Selector {
        f: &f,
        layout,
        opts,
        classes: Vec::new(),
        vals: vec![None; f.insts.len()],
        blocks: Vec::new(),
        alloca_sizes: Vec::new(),
        cur: Vec::new(),
        use_counts,
    };
    sel.run()
}

fn split_critical_edges(f: &mut Function) {
    let preds = f.branch_preds();
    let mut edges = Vec::new();
    for p in f.block_ids() {
        let succs = f.succs(p);
        if succs.len() < 2 {
            continue;
        }
        for s in succs {
            if preds[s.index()].len() > 1 {
                edges.push((p, s));
            }
        }
    }
    for (p, s) in edges {
        if f.phi_count(s) == 0 {
            continue; // no copies needed on this edge
        }
        let e = f.add_block();
        // Inherit the region side for layout grouping (an edge block never
        // contains speculative instructions, so it is not region-member).
        f.block_mut(e).term = Terminator::Br(s);
        let mut term = f.block(p).term.clone();
        let mut done = false;
        term.map_successors(|t| {
            // Only retarget ONE occurrence; a condbr with both edges to the
            // same φ-bearing block would be two distinct critical edges, but
            // then φ inputs agree, so one retarget suffices per call.
            if t == s && !done {
                done = true;
                e
            } else {
                t
            }
        });
        f.block_mut(p).term = term;
        // Update φ incomings: edge p→s becomes e→s.
        let phis: Vec<ValueId> = f
            .block(s)
            .insts
            .iter()
            .copied()
            .filter(|v| f.inst(*v).is_phi())
            .collect();
        for phi in phis {
            if let Inst::Phi { incomings, .. } = f.inst_mut(phi) {
                let mut fixed = false;
                for (pb, _) in incomings {
                    if *pb == p && !fixed {
                        *pb = e;
                        fixed = true;
                    }
                }
            }
        }
    }
}

struct Selector<'a> {
    f: &'a Function,
    layout: &'a Layout,
    opts: &'a CodegenOpts,
    classes: Vec<RegClass>,
    /// Virtual registers per SIR value, indexed by `ValueId` (`None` for
    /// values without a result).
    vals: Vec<Option<Val>>,
    blocks: Vec<MirBlock>,
    alloca_sizes: Vec<u32>,
    cur: Vec<MirInst>,
    /// Operand occurrences per SIR value across the whole function
    /// (instruction operands + terminator operands), indexed by `ValueId`.
    use_counts: Vec<u32>,
}

impl<'a> Selector<'a> {
    fn new_vreg(&mut self, class: RegClass) -> VReg {
        let v = VReg(self.classes.len() as u32);
        self.classes.push(class);
        v
    }

    fn val_of(&self, v: ValueId) -> Val {
        self.vals
            .get(v.index())
            .copied()
            .flatten()
            .unwrap_or_else(|| panic!("no vreg for {v}"))
    }

    fn word_of(&self, v: ValueId) -> VReg {
        match self.val_of(v) {
            Val::W(r) => r,
            other => panic!("{v} is not a word value: {other:?}"),
        }
    }

    fn emit(&mut self, i: MirInst) {
        self.cur.push(i);
    }

    fn run(mut self) -> MirFunction {
        let f = self.f;
        // Pre-create vregs for every SIR value so forward references (φs,
        // back edges) resolve.
        for vi in 0..f.insts.len() as u32 {
            let v = ValueId(vi);
            let Some(w) = f.value_width(v) else { continue };
            let val = match w {
                Width::W64 => {
                    let lo = self.new_vreg(RegClass::Word);
                    let hi = self.new_vreg(RegClass::Word);
                    Val::Pair(lo, hi)
                }
                Width::W8 if self.opts.bitspec => Val::B(self.new_vreg(RegClass::Byte)),
                _ => Val::W(self.new_vreg(RegClass::Word)),
            };
            self.vals[vi as usize] = Some(val);
        }
        // Create MIR blocks 1:1.
        let spec_side = spec_side_blocks(f);
        for b in f.block_ids() {
            let blk = f.block(b);
            self.blocks.push(MirBlock {
                insts: Vec::new(),
                term: MirTerm::Ret(vec![]),
                region: blk.region.map(|r| r.0),
                handler_for: blk.handler_for.map(|r| r.0),
                spec_side: spec_side[b.index()],
            });
        }
        // Select per block.
        for b in f.block_ids() {
            self.cur = Vec::new();
            self.select_block(b);
            let term = self.lower_terminator(b);
            let mb = &mut self.blocks[b.index()];
            mb.insts = std::mem::take(&mut self.cur);
            mb.term = term;
        }
        // φ-resolution copies at predecessor ends (before sunk compares are
        // respected: copies are inserted before the trailing Cmp/SCmp if one
        // exists — flags must be set immediately before the branch, but
        // copies don't touch flags, so copies-then-cmp and cmp-then-copies
        // are both safe; we insert before the cmp so compare operands are
        // not shadowed… φ-copy destinations are successor φ vregs which
        // never feed this block's compare, so order is immaterial. We
        // append after the cmp for simplicity.)
        self.insert_phi_copies();
        let regions = f
            .regions
            .iter()
            .map(|r| {
                (
                    r.blocks.iter().map(|b| MBlockId(b.0)).collect(),
                    MBlockId(r.handler.0),
                )
            })
            .collect();
        let param_slots = f.params.iter().map(|w| word_slots(*w)).sum();
        let mut mf = MirFunction {
            name: f.name.clone(),
            blocks: self.blocks,
            entry: MBlockId(f.entry.0),
            classes: self.classes,
            regions,
            alloca_sizes: self.alloca_sizes,
            param_slots,
        };
        mir_dce(&mut mf);
        mf
    }

    fn select_block(&mut self, b: BlockId) {
        let f = self.f;
        for &v in &f.block(b).insts {
            let inst = f.inst(v).clone();
            if inst.is_phi() {
                continue; // resolved by edge copies
            }
            self.select_inst(b, v, &inst);
        }
    }

    // ---- terminators ------------------------------------------------------

    fn lower_terminator(&mut self, b: BlockId) -> MirTerm {
        let f = self.f;
        match f.block(b).term.clone() {
            Terminator::Br(t) => MirTerm::Br(MBlockId(t.0)),
            Terminator::CondBr {
                cond,
                if_true,
                if_false,
            } => {
                // Fuse when the condition is an icmp defined in this block
                // with no other uses.
                if let Some((cc, width, lhs, rhs)) = self.fusable_icmp(b, cond) {
                    let mcond = self.emit_compare(cc, width, lhs, rhs);
                    return MirTerm::Bc {
                        cond: mcond,
                        if_true: MBlockId(if_true.0),
                        if_false: MBlockId(if_false.0),
                    };
                }
                let c = self.word_of(cond);
                self.emit(MirInst::Cmp {
                    rn: c,
                    src2: MOperand::Imm(1),
                });
                MirTerm::Bc {
                    cond: Cond::Eq,
                    if_true: MBlockId(if_true.0),
                    if_false: MBlockId(if_false.0),
                }
            }
            Terminator::Ret(v) => {
                let vals = match v {
                    None => vec![],
                    Some(v) => match self.val_of(v) {
                        Val::W(r) => vec![r],
                        Val::Pair(lo, hi) => vec![lo, hi],
                        Val::B(s) => {
                            let w = self.new_vreg(RegClass::Word);
                            self.emit(MirInst::SExtend {
                                rd: w,
                                bn: s,
                                signed: false,
                            });
                            vec![w]
                        }
                    },
                };
                MirTerm::Ret(vals)
            }
            Terminator::Unreachable => MirTerm::Ret(vec![]),
        }
    }

    /// If `cond` is an icmp defined in `b` used only by `b`'s terminator,
    /// returns its pieces for fusion.
    fn fusable_icmp(&self, b: BlockId, cond: ValueId) -> Option<(Cc, Width, ValueId, ValueId)> {
        let f = self.f;
        let Inst::Icmp {
            cc,
            width,
            lhs,
            rhs,
        } = f.inst(cond)
        else {
            return None;
        };
        if !f.block(b).insts.contains(&cond) {
            return None;
        }
        if self.use_counts[cond.index()] > 1 {
            return None;
        }
        Some((*cc, *width, *lhs, *rhs))
    }

    /// Emits the flag-setting compare sequence; returns the branch
    /// condition. Handles all widths incl. 64-bit pair compares.
    fn emit_compare(&mut self, cc: Cc, width: Width, lhs: ValueId, rhs: ValueId) -> Cond {
        match width {
            Width::W64 => self.emit_compare64(cc, lhs, rhs),
            Width::W8 if self.opts.bitspec => {
                let bn = self.byte_of(lhs);
                let src2 = self.byte_operand(rhs);
                self.emit(MirInst::SCmp { bn, src2 });
                cond_of(cc)
            }
            Width::W16 | Width::W8 if cc.is_signed() => {
                // Canonical zero-extended storage: sign-extend first.
                let sw = if width == Width::W16 {
                    MemWidth::H
                } else {
                    MemWidth::B
                };
                let l = self.word_of(lhs);
                let r = self.word_of(rhs);
                let le = self.new_vreg(RegClass::Word);
                let re = self.new_vreg(RegClass::Word);
                self.emit(MirInst::Extend {
                    rd: le,
                    rm: l,
                    from: sw,
                    signed: true,
                });
                self.emit(MirInst::Extend {
                    rd: re,
                    rm: r,
                    from: sw,
                    signed: true,
                });
                self.emit(MirInst::Cmp {
                    rn: le,
                    src2: MOperand::VReg(re),
                });
                cond_of(cc)
            }
            _ => {
                let l = self.word_of(lhs);
                let src2 = self.word_operand(rhs);
                self.emit(MirInst::Cmp { rn: l, src2 });
                cond_of(cc)
            }
        }
    }

    fn emit_compare64(&mut self, cc: Cc, lhs: ValueId, rhs: ValueId) -> Cond {
        let Val::Pair(alo, ahi) = self.val_of(lhs) else {
            panic!("W64 compare of non-pair")
        };
        let Val::Pair(blo, bhi) = self.val_of(rhs) else {
            panic!("W64 compare of non-pair")
        };
        match cc {
            Cc::Eq | Cc::Ne => {
                let t1 = self.new_vreg(RegClass::Word);
                let t2 = self.new_vreg(RegClass::Word);
                let t3 = self.new_vreg(RegClass::Word);
                self.emit(MirInst::Alu {
                    op: AluOp::Eor,
                    rd: t1,
                    rn: alo,
                    src2: MOperand::VReg(blo),
                });
                self.emit(MirInst::Alu {
                    op: AluOp::Eor,
                    rd: t2,
                    rn: ahi,
                    src2: MOperand::VReg(bhi),
                });
                self.emit(MirInst::Alu {
                    op: AluOp::Orr,
                    rd: t3,
                    rn: t1,
                    src2: MOperand::VReg(t2),
                });
                self.emit(MirInst::Cmp {
                    rn: t3,
                    src2: MOperand::Imm(0),
                });
                if cc == Cc::Eq {
                    Cond::Eq
                } else {
                    Cond::Ne
                }
            }
            _ => {
                // subs/sbcs chains; >,≤ swap operands.
                let (xlo, xhi, ylo, yhi, cond) = match cc {
                    Cc::Ult => (alo, ahi, blo, bhi, Cond::Lo),
                    Cc::Uge => (alo, ahi, blo, bhi, Cond::Hs),
                    Cc::Ugt => (blo, bhi, alo, ahi, Cond::Lo),
                    Cc::Ule => (blo, bhi, alo, ahi, Cond::Hs),
                    Cc::Slt => (alo, ahi, blo, bhi, Cond::Lt),
                    Cc::Sge => (alo, ahi, blo, bhi, Cond::Ge),
                    Cc::Sgt => (blo, bhi, alo, ahi, Cond::Lt),
                    Cc::Sle => (blo, bhi, alo, ahi, Cond::Ge),
                    _ => unreachable!(),
                };
                let t1 = self.new_vreg(RegClass::Word);
                let t2 = self.new_vreg(RegClass::Word);
                self.emit(MirInst::Alu {
                    op: AluOp::Subs,
                    rd: t1,
                    rn: xlo,
                    src2: MOperand::VReg(ylo),
                });
                self.emit(MirInst::Alu {
                    op: AluOp::Sbcs,
                    rd: t2,
                    rn: xhi,
                    src2: MOperand::VReg(yhi),
                });
                cond
            }
        }
    }

    // ---- operand helpers --------------------------------------------------

    fn word_operand(&mut self, v: ValueId) -> MOperand {
        if let Inst::Const { value, .. } = self.f.inst(v) {
            if *value <= 0xFF {
                return MOperand::Imm(*value as u32);
            }
        }
        MOperand::VReg(self.word_of(v))
    }

    fn byte_of(&mut self, v: ValueId) -> VReg {
        match self.val_of(v) {
            Val::B(s) => s,
            Val::W(_) | Val::Pair(..) => panic!("{v} is not a byte value"),
        }
    }

    fn byte_operand(&mut self, v: ValueId) -> SMOperand {
        if let Inst::Const { value, .. } = self.f.inst(v) {
            if *value <= 0xF {
                return SMOperand::Imm(*value as u8);
            }
        }
        SMOperand::VReg(self.byte_of(v))
    }

    // ---- instruction selection ---------------------------------------------

    #[allow(clippy::too_many_lines)]
    fn select_inst(&mut self, b: BlockId, v: ValueId, inst: &Inst) {
        match inst {
            Inst::Param { .. } => {
                // Parameter slots are assigned in order.
                let mut slot = 0u32;
                for (i, w) in self.f.params.iter().enumerate() {
                    if self.f.param_value(i) == v {
                        break;
                    }
                    let _ = w;
                    slot += word_slots(self.f.params[i]);
                }
                match self.val_of(v) {
                    Val::W(r) => self.emit(MirInst::GetParam { rd: r, slot }),
                    Val::Pair(lo, hi) => {
                        self.emit(MirInst::GetParam { rd: lo, slot });
                        self.emit(MirInst::GetParam {
                            rd: hi,
                            slot: slot + 1,
                        });
                    }
                    Val::B(s) => {
                        let t = self.new_vreg(RegClass::Word);
                        self.emit(MirInst::GetParam { rd: t, slot });
                        self.emit(MirInst::STrunc {
                            bd: s,
                            rn: t,
                            speculative: false,
                        });
                    }
                }
            }
            Inst::Const { width, value } => match self.val_of(v) {
                Val::W(r) => self.emit(MirInst::MovImm {
                    rd: r,
                    imm: (*value & 0xFFFF_FFFF) as u32,
                }),
                Val::B(s) => self.emit(MirInst::SMovImm {
                    bd: s,
                    imm: (*value & 0xFF) as u8,
                }),
                Val::Pair(lo, hi) => {
                    let _ = width;
                    self.emit(MirInst::MovImm {
                        rd: lo,
                        imm: (*value & 0xFFFF_FFFF) as u32,
                    });
                    self.emit(MirInst::MovImm {
                        rd: hi,
                        imm: (*value >> 32) as u32,
                    });
                }
            },
            Inst::GlobalAddr { global } => {
                let rd = self.word_of(v);
                self.emit(MirInst::GlobalAddr {
                    rd,
                    addr: self.layout.addr(*global),
                });
            }
            Inst::Alloca { size } => {
                let id = self.alloca_sizes.len() as u32;
                self.alloca_sizes.push(*size);
                let rd = self.word_of(v);
                self.emit(MirInst::FrameAddr { rd, alloca: id });
            }
            Inst::Bin {
                op,
                width,
                lhs,
                rhs,
                speculative,
            } => self.select_bin(v, *op, *width, *lhs, *rhs, *speculative),
            Inst::Icmp {
                cc,
                width,
                lhs,
                rhs,
            } => {
                // Fused icmps are skipped here and emitted at the terminator.
                if self
                    .fusable_icmp(b, v)
                    .map(|_| {
                        matches!(&self.f.block(b).term, Terminator::CondBr { cond, .. } if *cond == v)
                    })
                    .unwrap_or(false)
                {
                    return;
                }
                let cond = self.emit_compare(*cc, *width, *lhs, *rhs);
                let rd = self.word_of(v);
                self.emit(MirInst::CSet { rd, cond });
            }
            Inst::Zext { to, arg } => self.select_zext(v, *to, *arg),
            Inst::Sext { to, arg } => self.select_sext(v, *to, *arg),
            Inst::Trunc {
                to,
                arg,
                speculative,
            } => self.select_trunc(v, *to, *arg, *speculative),
            Inst::Load {
                width,
                addr,
                speculative,
                ..
            } => self.select_load(v, *width, *addr, *speculative),
            Inst::Store {
                width, addr, value, ..
            } => self.select_store(*width, *addr, *value),
            Inst::Select {
                width,
                cond,
                tval,
                fval,
            } => self.select_select(v, *width, *cond, *tval, *fval),
            Inst::Call { callee, args, ret } => {
                let mut argv = Vec::new();
                for &a in args {
                    match self.val_of(a) {
                        Val::W(r) => argv.push(r),
                        Val::Pair(lo, hi) => {
                            argv.push(lo);
                            argv.push(hi);
                        }
                        Val::B(s) => {
                            let t = self.new_vreg(RegClass::Word);
                            self.emit(MirInst::SExtend {
                                rd: t,
                                bn: s,
                                signed: false,
                            });
                            argv.push(t);
                        }
                    }
                }
                let rets = match ret {
                    None => vec![],
                    Some(Width::W64) => {
                        let Val::Pair(lo, hi) = self.val_of(v) else {
                            unreachable!()
                        };
                        vec![lo, hi]
                    }
                    Some(Width::W8) if self.opts.bitspec => {
                        let t = self.new_vreg(RegClass::Word);
                        vec![t]
                    }
                    Some(_) => vec![self.word_of(v)],
                };
                let byte_ret = matches!(ret, Some(Width::W8)) && self.opts.bitspec;
                let t0 = rets.first().copied();
                self.emit(MirInst::Call {
                    callee: *callee,
                    args: argv,
                    rets,
                });
                if byte_ret {
                    let s = self.byte_of(v);
                    self.emit(MirInst::STrunc {
                        bd: s,
                        rn: t0.unwrap(),
                        speculative: false,
                    });
                }
            }
            Inst::Phi { .. } => unreachable!("φ handled via edge copies"),
            Inst::Output { value } => {
                let rn = self.word_of(*value);
                self.emit(MirInst::Out { rn });
            }
        }
    }

    fn select_bin(
        &mut self,
        v: ValueId,
        op: BinOp,
        width: Width,
        lhs: ValueId,
        rhs: ValueId,
        speculative: bool,
    ) {
        match width {
            Width::W8 if self.opts.bitspec => {
                let sop = match op {
                    BinOp::Add => SAluOp::Add,
                    BinOp::Sub => SAluOp::Sub,
                    BinOp::And => SAluOp::And,
                    BinOp::Or => SAluOp::Orr,
                    BinOp::Xor => SAluOp::Eor,
                    BinOp::Shl => SAluOp::Lsl,
                    BinOp::Lshr => SAluOp::Lsr,
                    BinOp::Ashr => SAluOp::Asr,
                    _ => {
                        // No slice form: extend, do word op, truncate back.
                        return self.bin_via_word(v, op, lhs, rhs);
                    }
                };
                let bd = self.byte_of(v);
                let bn = self.byte_of(lhs);
                let src2 = self.byte_operand(rhs);
                self.emit(MirInst::SAlu {
                    op: sop,
                    bd,
                    bn,
                    src2,
                    speculative,
                });
            }
            Width::W64 => self.select_bin64(v, op, lhs, rhs),
            _ => {
                debug_assert!(!speculative, "speculative ops are 8-bit");
                self.select_bin_word(v, op, width, lhs, rhs);
            }
        }
    }

    /// W8 op with no slice form (mul/div/rem): via word registers.
    fn bin_via_word(&mut self, v: ValueId, op: BinOp, lhs: ValueId, rhs: ValueId) {
        let wl = self.new_vreg(RegClass::Word);
        let wr = self.new_vreg(RegClass::Word);
        let bl = self.byte_of(lhs);
        let br = self.byte_of(rhs);
        self.emit(MirInst::SExtend {
            rd: wl,
            bn: bl,
            signed: false,
        });
        self.emit(MirInst::SExtend {
            rd: wr,
            bn: br,
            signed: false,
        });
        let wt = self.new_vreg(RegClass::Word);
        self.emit_word_bin(wt, op, Width::W8, wl, MOperand::VReg(wr));
        let bd = self.byte_of(v);
        self.emit(MirInst::STrunc {
            bd,
            rn: wt,
            speculative: false,
        });
    }

    fn select_bin_word(&mut self, v: ValueId, op: BinOp, width: Width, lhs: ValueId, rhs: ValueId) {
        let rd = self.word_of(v);
        let rn = self.word_of(lhs);
        let src2 = self.word_operand(rhs);
        self.emit_word_bin_into(rd, op, width, rn, src2);
    }

    fn emit_word_bin(&mut self, rd: VReg, op: BinOp, width: Width, rn: VReg, src2: MOperand) {
        self.emit_word_bin_into(rd, op, width, rn, src2);
    }

    /// Emits a word binary op with sub-word canonicalization (results of
    /// W8/W16 arithmetic are re-zero-extended so the canonical invariant
    /// holds).
    fn emit_word_bin_into(&mut self, rd: VReg, op: BinOp, width: Width, rn: VReg, src2: MOperand) {
        let narrow = match width {
            Width::W8 => Some(MemWidth::B),
            Width::W16 => Some(MemWidth::H),
            _ => None,
        };
        let aop = match op {
            BinOp::Add => AluOp::Add,
            BinOp::Sub => AluOp::Sub,
            BinOp::Mul => AluOp::Mul,
            BinOp::And => AluOp::And,
            BinOp::Or => AluOp::Orr,
            BinOp::Xor => AluOp::Eor,
            BinOp::Shl => AluOp::Lsl,
            BinOp::Lshr => AluOp::Lsr,
            BinOp::Ashr => AluOp::Asr,
            BinOp::Udiv => AluOp::Udiv,
            BinOp::Sdiv => AluOp::Sdiv,
            BinOp::Urem | BinOp::Srem => {
                // rem = a - (a / b) * b
                let q = self.new_vreg(RegClass::Word);
                let (rn2, rm2) = self.signed_fixup(op == BinOp::Srem, width, rn, src2);
                self.emit(MirInst::Alu {
                    op: if op == BinOp::Srem {
                        AluOp::Sdiv
                    } else {
                        AluOp::Udiv
                    },
                    rd: q,
                    rn: rn2,
                    src2: rm2,
                });
                let t = self.new_vreg(RegClass::Word);
                self.emit(MirInst::Alu {
                    op: AluOp::Mul,
                    rd: t,
                    rn: q,
                    src2: rm2,
                });
                self.emit(MirInst::Alu {
                    op: AluOp::Sub,
                    rd,
                    rn: rn2,
                    src2: MOperand::VReg(t),
                });
                self.canonicalize(rd, narrow);
                return;
            }
        };
        // Signed narrow ops need sign-extended inputs.
        let needs_sext = narrow.is_some() && matches!(op, BinOp::Ashr | BinOp::Sdiv);
        let (rn, src2) = if needs_sext {
            self.signed_fixup(true, width, rn, src2)
        } else {
            (rn, src2)
        };
        self.emit(MirInst::Alu {
            op: aop,
            rd,
            rn,
            src2,
        });
        // Canonicalize results that can overflow the sub-word range.
        if narrow.is_some()
            && matches!(
                op,
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Shl | BinOp::Ashr | BinOp::Sdiv
            )
        {
            self.canonicalize(rd, narrow);
        }
    }

    /// For signed narrow operations: sign-extend the canonical inputs.
    fn signed_fixup(
        &mut self,
        signed: bool,
        width: Width,
        rn: VReg,
        src2: MOperand,
    ) -> (VReg, MOperand) {
        let from = match width {
            Width::W8 => MemWidth::B,
            Width::W16 => MemWidth::H,
            _ => return (rn, src2),
        };
        if !signed {
            return (rn, src2);
        }
        let a = self.new_vreg(RegClass::Word);
        self.emit(MirInst::Extend {
            rd: a,
            rm: rn,
            from,
            signed: true,
        });
        let s2 = match src2 {
            MOperand::VReg(r) => {
                let b2 = self.new_vreg(RegClass::Word);
                self.emit(MirInst::Extend {
                    rd: b2,
                    rm: r,
                    from,
                    signed: true,
                });
                MOperand::VReg(b2)
            }
            imm => imm,
        };
        (a, s2)
    }

    fn canonicalize(&mut self, rd: VReg, narrow: Option<MemWidth>) {
        if let Some(w) = narrow {
            self.emit(MirInst::Extend {
                rd,
                rm: rd,
                from: w,
                signed: false,
            });
        }
    }

    fn select_bin64(&mut self, v: ValueId, op: BinOp, lhs: ValueId, rhs: ValueId) {
        let Val::Pair(dlo, dhi) = self.val_of(v) else {
            unreachable!()
        };
        let Val::Pair(alo, ahi) = self.val_of(lhs) else {
            unreachable!()
        };
        match op {
            BinOp::Add | BinOp::Sub => {
                let Val::Pair(blo, bhi) = self.val_of(rhs) else {
                    unreachable!()
                };
                let (o1, o2) = if op == BinOp::Add {
                    (AluOp::Adds, AluOp::Adc)
                } else {
                    (AluOp::Subs, AluOp::Sbc)
                };
                self.emit(MirInst::Alu {
                    op: o1,
                    rd: dlo,
                    rn: alo,
                    src2: MOperand::VReg(blo),
                });
                self.emit(MirInst::Alu {
                    op: o2,
                    rd: dhi,
                    rn: ahi,
                    src2: MOperand::VReg(bhi),
                });
            }
            BinOp::And | BinOp::Or | BinOp::Xor => {
                let Val::Pair(blo, bhi) = self.val_of(rhs) else {
                    unreachable!()
                };
                let aop = match op {
                    BinOp::And => AluOp::And,
                    BinOp::Or => AluOp::Orr,
                    _ => AluOp::Eor,
                };
                self.emit(MirInst::Alu {
                    op: aop,
                    rd: dlo,
                    rn: alo,
                    src2: MOperand::VReg(blo),
                });
                self.emit(MirInst::Alu {
                    op: aop,
                    rd: dhi,
                    rn: ahi,
                    src2: MOperand::VReg(bhi),
                });
            }
            BinOp::Mul => {
                let Val::Pair(blo, bhi) = self.val_of(rhs) else {
                    unreachable!()
                };
                // d = a * b (low 64): umull + cross terms.
                let t1 = self.new_vreg(RegClass::Word);
                let t2 = self.new_vreg(RegClass::Word);
                self.emit(MirInst::Umull {
                    rdlo: dlo,
                    rdhi: t1,
                    rn: alo,
                    rm: blo,
                });
                self.emit(MirInst::Alu {
                    op: AluOp::Mul,
                    rd: t2,
                    rn: alo,
                    src2: MOperand::VReg(bhi),
                });
                let t3 = self.new_vreg(RegClass::Word);
                self.emit(MirInst::Alu {
                    op: AluOp::Mul,
                    rd: t3,
                    rn: ahi,
                    src2: MOperand::VReg(blo),
                });
                let t4 = self.new_vreg(RegClass::Word);
                self.emit(MirInst::Alu {
                    op: AluOp::Add,
                    rd: t4,
                    rn: t1,
                    src2: MOperand::VReg(t2),
                });
                self.emit(MirInst::Alu {
                    op: AluOp::Add,
                    rd: dhi,
                    rn: t4,
                    src2: MOperand::VReg(t3),
                });
            }
            BinOp::Shl | BinOp::Lshr | BinOp::Ashr => {
                let Inst::Const { value: k, .. } = self.f.inst(rhs) else {
                    panic!(
                        "64-bit variable-amount shifts are unsupported (see DESIGN.md); \
                         function `{}`",
                        self.f.name
                    );
                };
                self.shift64_const(op, dlo, dhi, alo, ahi, (*k).min(64) as u32);
            }
            _ => panic!(
                "64-bit {op:?} is unsupported by the back-end (see DESIGN.md); function `{}`",
                self.f.name
            ),
        }
    }

    fn shift64_const(&mut self, op: BinOp, dlo: VReg, dhi: VReg, alo: VReg, ahi: VReg, k: u32) {
        let imm = |k: u32| MOperand::Imm(k);
        match (op, k) {
            (_, 0) => {
                self.emit(MirInst::Mov { rd: dlo, rm: alo });
                self.emit(MirInst::Mov { rd: dhi, rm: ahi });
            }
            (BinOp::Shl, k) if k < 32 => {
                // dhi = (ahi << k) | (alo >> (32-k)); dlo = alo << k
                let t1 = self.new_vreg(RegClass::Word);
                let t2 = self.new_vreg(RegClass::Word);
                self.emit(MirInst::Alu {
                    op: AluOp::Lsl,
                    rd: t1,
                    rn: ahi,
                    src2: imm(k),
                });
                self.emit(MirInst::Alu {
                    op: AluOp::Lsr,
                    rd: t2,
                    rn: alo,
                    src2: imm(32 - k),
                });
                self.emit(MirInst::Alu {
                    op: AluOp::Orr,
                    rd: dhi,
                    rn: t1,
                    src2: MOperand::VReg(t2),
                });
                self.emit(MirInst::Alu {
                    op: AluOp::Lsl,
                    rd: dlo,
                    rn: alo,
                    src2: imm(k),
                });
            }
            (BinOp::Shl, k) => {
                self.emit(MirInst::Alu {
                    op: AluOp::Lsl,
                    rd: dhi,
                    rn: alo,
                    src2: imm((k - 32).min(31)),
                });
                if k >= 64 {
                    self.emit(MirInst::MovImm { rd: dhi, imm: 0 });
                }
                self.emit(MirInst::MovImm { rd: dlo, imm: 0 });
            }
            (BinOp::Lshr, k) if k < 32 => {
                let t1 = self.new_vreg(RegClass::Word);
                let t2 = self.new_vreg(RegClass::Word);
                self.emit(MirInst::Alu {
                    op: AluOp::Lsr,
                    rd: t1,
                    rn: alo,
                    src2: imm(k),
                });
                self.emit(MirInst::Alu {
                    op: AluOp::Lsl,
                    rd: t2,
                    rn: ahi,
                    src2: imm(32 - k),
                });
                self.emit(MirInst::Alu {
                    op: AluOp::Orr,
                    rd: dlo,
                    rn: t1,
                    src2: MOperand::VReg(t2),
                });
                self.emit(MirInst::Alu {
                    op: AluOp::Lsr,
                    rd: dhi,
                    rn: ahi,
                    src2: imm(k),
                });
            }
            (BinOp::Lshr, k) => {
                self.emit(MirInst::Alu {
                    op: AluOp::Lsr,
                    rd: dlo,
                    rn: ahi,
                    src2: imm((k - 32).min(31)),
                });
                if k >= 64 {
                    self.emit(MirInst::MovImm { rd: dlo, imm: 0 });
                }
                self.emit(MirInst::MovImm { rd: dhi, imm: 0 });
            }
            (BinOp::Ashr, k) if k < 32 => {
                let t1 = self.new_vreg(RegClass::Word);
                let t2 = self.new_vreg(RegClass::Word);
                self.emit(MirInst::Alu {
                    op: AluOp::Lsr,
                    rd: t1,
                    rn: alo,
                    src2: imm(k),
                });
                self.emit(MirInst::Alu {
                    op: AluOp::Lsl,
                    rd: t2,
                    rn: ahi,
                    src2: imm(32 - k),
                });
                self.emit(MirInst::Alu {
                    op: AluOp::Orr,
                    rd: dlo,
                    rn: t1,
                    src2: MOperand::VReg(t2),
                });
                self.emit(MirInst::Alu {
                    op: AluOp::Asr,
                    rd: dhi,
                    rn: ahi,
                    src2: imm(k),
                });
            }
            (BinOp::Ashr, k) => {
                self.emit(MirInst::Alu {
                    op: AluOp::Asr,
                    rd: dlo,
                    rn: ahi,
                    src2: imm((k - 32).min(31)),
                });
                self.emit(MirInst::Alu {
                    op: AluOp::Asr,
                    rd: dhi,
                    rn: ahi,
                    src2: imm(31),
                });
            }
            _ => unreachable!(),
        }
    }

    fn select_zext(&mut self, v: ValueId, to: Width, arg: ValueId) {
        let src = self.val_of(arg);
        match (src, self.val_of(v)) {
            (Val::B(s), Val::W(rd)) => self.emit(MirInst::SExtend {
                rd,
                bn: s,
                signed: false,
            }),
            (Val::B(s), Val::Pair(lo, hi)) => {
                self.emit(MirInst::SExtend {
                    rd: lo,
                    bn: s,
                    signed: false,
                });
                self.emit(MirInst::MovImm { rd: hi, imm: 0 });
            }
            (Val::W(r), Val::W(rd)) => {
                // Canonical storage: zext is a move.
                let _ = to;
                self.emit(MirInst::Mov { rd, rm: r });
            }
            (Val::W(r), Val::Pair(lo, hi)) => {
                self.emit(MirInst::Mov { rd: lo, rm: r });
                self.emit(MirInst::MovImm { rd: hi, imm: 0 });
            }
            other => panic!("bad zext mapping {other:?}"),
        }
    }

    fn select_sext(&mut self, v: ValueId, to: Width, arg: ValueId) {
        let from_w = self.f.value_width(arg).unwrap();
        let from = match from_w {
            Width::W1 => {
                // sext i1: 0 → 0, 1 → all-ones; lower as 0 - x.
                match self.val_of(v) {
                    Val::W(rd) => {
                        let x = self.word_of(arg);
                        let z = self.new_vreg(RegClass::Word);
                        self.emit(MirInst::MovImm { rd: z, imm: 0 });
                        self.emit(MirInst::Alu {
                            op: AluOp::Sub,
                            rd,
                            rn: z,
                            src2: MOperand::VReg(x),
                        });
                    }
                    Val::Pair(lo, hi) => {
                        let x = self.word_of(arg);
                        let z = self.new_vreg(RegClass::Word);
                        self.emit(MirInst::MovImm { rd: z, imm: 0 });
                        self.emit(MirInst::Alu {
                            op: AluOp::Sub,
                            rd: lo,
                            rn: z,
                            src2: MOperand::VReg(x),
                        });
                        self.emit(MirInst::Mov { rd: hi, rm: lo });
                    }
                    Val::B(_) => panic!("sext i1 to i8 unsupported"),
                }
                return;
            }
            Width::W8 => MemWidth::B,
            Width::W16 => MemWidth::H,
            Width::W32 => MemWidth::W,
            Width::W64 => panic!("sext from i64"),
        };
        let src_word = match self.val_of(arg) {
            Val::B(s) => {
                let t = self.new_vreg(RegClass::Word);
                self.emit(MirInst::SExtend {
                    rd: t,
                    bn: s,
                    signed: true,
                });
                t
            }
            Val::W(r) => r,
            Val::Pair(..) => unreachable!(),
        };
        match self.val_of(v) {
            Val::W(rd) => {
                if from == MemWidth::W || matches!(self.val_of(arg), Val::B(_)) {
                    self.emit(MirInst::Mov { rd, rm: src_word });
                    // A byte-slice source was sign-extended to a full
                    // 32-bit word above; a W16 destination must still be
                    // stored 16-bit-clean (canonical sub-word storage).
                    if to == Width::W16 {
                        self.canonicalize(rd, Some(MemWidth::H));
                    }
                } else {
                    self.emit(MirInst::Extend {
                        rd,
                        rm: src_word,
                        from,
                        signed: true,
                    });
                    // Canonical sub-word storage for W16 targets.
                    if to == Width::W16 {
                        self.canonicalize(rd, Some(MemWidth::H));
                    }
                }
            }
            Val::Pair(lo, hi) => {
                if from == MemWidth::W || matches!(self.val_of(arg), Val::B(_)) {
                    self.emit(MirInst::Mov {
                        rd: lo,
                        rm: src_word,
                    });
                } else {
                    self.emit(MirInst::Extend {
                        rd: lo,
                        rm: src_word,
                        from,
                        signed: true,
                    });
                }
                self.emit(MirInst::Alu {
                    op: AluOp::Asr,
                    rd: hi,
                    rn: lo,
                    src2: MOperand::Imm(31),
                });
            }
            Val::B(_) => panic!("sext into i8"),
        }
    }

    fn select_trunc(&mut self, v: ValueId, to: Width, arg: ValueId, speculative: bool) {
        let (src_lo, src_hi) = match self.val_of(arg) {
            Val::W(r) => (r, None),
            Val::Pair(lo, hi) => (lo, Some(hi)),
            Val::B(_) => panic!("trunc from i8"),
        };
        match self.val_of(v) {
            Val::B(bd) => {
                if speculative {
                    if let Some(hi) = src_hi {
                        // 64-bit source: check (lo >> 8) | hi == 0, then take
                        // the slice.
                        let t1 = self.new_vreg(RegClass::Word);
                        self.emit(MirInst::Alu {
                            op: AluOp::Lsr,
                            rd: t1,
                            rn: src_lo,
                            src2: MOperand::Imm(8),
                        });
                        let t2 = self.new_vreg(RegClass::Word);
                        self.emit(MirInst::Alu {
                            op: AluOp::Orr,
                            rd: t2,
                            rn: t1,
                            src2: MOperand::VReg(hi),
                        });
                        self.emit(MirInst::SpecCheck { rn: t2 });
                        self.emit(MirInst::STrunc {
                            bd,
                            rn: src_lo,
                            speculative: false,
                        });
                    } else {
                        self.emit(MirInst::STrunc {
                            bd,
                            rn: src_lo,
                            speculative: true,
                        });
                    }
                } else {
                    self.emit(MirInst::STrunc {
                        bd,
                        rn: src_lo,
                        speculative: false,
                    });
                }
            }
            Val::W(rd) => {
                debug_assert!(!speculative, "speculative truncs target slices");
                match to {
                    Width::W8 => self.emit(MirInst::Extend {
                        rd,
                        rm: src_lo,
                        from: MemWidth::B,
                        signed: false,
                    }),
                    Width::W16 => self.emit(MirInst::Extend {
                        rd,
                        rm: src_lo,
                        from: MemWidth::H,
                        signed: false,
                    }),
                    Width::W32 => self.emit(MirInst::Mov { rd, rm: src_lo }),
                    Width::W1 => self.emit(MirInst::Alu {
                        op: AluOp::And,
                        rd,
                        rn: src_lo,
                        src2: MOperand::Imm(1),
                    }),
                    Width::W64 => unreachable!(),
                }
            }
            Val::Pair(..) => unreachable!("trunc to i64"),
        }
    }

    /// Slice-index pattern: `zext(b)`, `zext(b) << k` (k ≤ 3) or
    /// `zext(b) * {1,2,4,8}` — Table 1's `Mem[R_n + B_m]` addressing with
    /// an AGU scale.
    fn slice_index_of(&self, v: ValueId) -> Option<(ValueId, u8)> {
        if !self.opts.bitspec {
            return None;
        }
        match self.f.inst(v) {
            Inst::Zext { arg, .. } => {
                if matches!(self.val_of(*arg), Val::B(_)) {
                    Some((*arg, 0))
                } else {
                    None
                }
            }
            Inst::Bin {
                op: BinOp::Shl,
                width: Width::W32,
                lhs,
                rhs,
                speculative: false,
            } => match (self.slice_index_of(*lhs), self.f.inst(*rhs)) {
                (Some((b, 0)), Inst::Const { value, .. }) if *value <= 3 => Some((b, *value as u8)),
                _ => None,
            },
            Inst::Bin {
                op: BinOp::Mul,
                width: Width::W32,
                lhs,
                rhs,
                speculative: false,
            } => match (self.slice_index_of(*lhs), self.f.inst(*rhs)) {
                (Some((b, 0)), Inst::Const { value, .. }) if matches!(value, 1 | 2 | 4 | 8) => {
                    Some((b, (*value as u8).trailing_zeros() as u8))
                }
                _ => None,
            },
            _ => None,
        }
    }

    /// Addressing-mode selection for loads: base+slice-index when the
    /// address is `base + scaled(zext(slice))`, else base+offset.
    fn load_addr_mode(&mut self, addr: ValueId) -> AddrMode {
        if let Inst::Bin {
            op: BinOp::Add,
            width: Width::W32,
            lhs,
            rhs,
            speculative: false,
        } = self.f.inst(addr).clone()
        {
            for (base, idx) in [(lhs, rhs), (rhs, lhs)] {
                if matches!(self.val_of(base), Val::W(_)) {
                    if let Some((b, sh)) = self.slice_index_of(idx) {
                        return AddrMode::BaseSliceIdx(self.word_of(base), self.byte_vreg(b), sh);
                    }
                }
            }
        }
        let (rn, off) = self.addr_of(addr);
        AddrMode::BaseOff(rn, off)
    }

    fn byte_vreg(&self, v: ValueId) -> VReg {
        match self.val_of(v) {
            Val::B(b) => b,
            other => panic!("expected byte value, got {other:?}"),
        }
    }

    /// Tries to fold `addr = base + const` into a load/store offset.
    fn addr_of(&mut self, addr: ValueId) -> (VReg, i32) {
        if let Inst::Bin {
            op: BinOp::Add,
            width: Width::W32,
            lhs,
            rhs,
            speculative: false,
        } = self.f.inst(addr)
        {
            if let Inst::Const { value, .. } = self.f.inst(*rhs) {
                if *value <= 4095 {
                    if let Val::W(base) = self.val_of(*lhs) {
                        return (base, *value as i32);
                    }
                }
            }
        }
        (self.word_of(addr), 0)
    }

    fn select_load(&mut self, v: ValueId, width: Width, addr: ValueId, speculative: bool) {
        let mode = self.load_addr_mode(addr);
        if let AddrMode::BaseSliceIdx(rn, bidx, shift) = mode {
            match (speculative, self.val_of(v)) {
                (true, Val::B(bd)) => {
                    self.emit(MirInst::SLoadIdx {
                        bd,
                        rn,
                        bidx,
                        shift,
                        speculative: true,
                    });
                    return;
                }
                (false, Val::B(bd)) => {
                    self.emit(MirInst::SLoadIdx {
                        bd,
                        rn,
                        bidx,
                        shift,
                        speculative: false,
                    });
                    return;
                }
                (false, Val::W(rd)) => {
                    let mw = match width {
                        Width::W1 | Width::W8 => MemWidth::B,
                        Width::W16 => MemWidth::H,
                        _ => MemWidth::W,
                    };
                    self.emit(MirInst::LoadIdx {
                        rd,
                        rn,
                        bidx,
                        shift,
                        width: mw,
                    });
                    return;
                }
                _ => {}
            }
        }
        let (rn, offset) = match mode {
            AddrMode::BaseOff(rn, off) => (rn, off),
            AddrMode::BaseSliceIdx(..) => self.addr_of(addr),
        };
        if speculative {
            let bd = self.byte_of(v);
            self.emit(MirInst::SLoadSpec { bd, rn, offset });
            return;
        }
        match self.val_of(v) {
            Val::B(bd) => self.emit(MirInst::SLoad { bd, rn, offset }),
            Val::W(rd) => {
                let mw = match width {
                    Width::W1 | Width::W8 => MemWidth::B,
                    Width::W16 => MemWidth::H,
                    _ => MemWidth::W,
                };
                self.emit(MirInst::Load {
                    rd,
                    rn,
                    offset,
                    width: mw,
                });
            }
            Val::Pair(lo, hi) => {
                self.emit(MirInst::Load {
                    rd: lo,
                    rn,
                    offset,
                    width: MemWidth::W,
                });
                self.emit(MirInst::Load {
                    rd: hi,
                    rn,
                    offset: offset + 4,
                    width: MemWidth::W,
                });
            }
        }
    }

    fn select_store(&mut self, width: Width, addr: ValueId, value: ValueId) {
        let (rn, offset) = self.addr_of(addr);
        match self.val_of(value) {
            Val::B(bs) => self.emit(MirInst::SStore { bs, rn, offset }),
            Val::W(rs) => {
                let mw = match width {
                    Width::W1 | Width::W8 => MemWidth::B,
                    Width::W16 => MemWidth::H,
                    _ => MemWidth::W,
                };
                self.emit(MirInst::Store {
                    rs,
                    rn,
                    offset,
                    width: mw,
                });
            }
            Val::Pair(lo, hi) => {
                self.emit(MirInst::Store {
                    rs: lo,
                    rn,
                    offset,
                    width: MemWidth::W,
                });
                self.emit(MirInst::Store {
                    rs: hi,
                    rn,
                    offset: offset + 4,
                    width: MemWidth::W,
                });
            }
        }
    }

    fn select_select(
        &mut self,
        v: ValueId,
        width: Width,
        cond: ValueId,
        tval: ValueId,
        fval: ValueId,
    ) {
        let c = self.word_of(cond);
        let emit_sel = |sel: &mut Self, rd: VReg, t: VReg, fv: VReg| {
            sel.emit(MirInst::Mov { rd, rm: fv });
            sel.emit(MirInst::Cmp {
                rn: c,
                src2: MOperand::Imm(1),
            });
            sel.emit(MirInst::MovCc {
                rd,
                rm: t,
                cond: Cond::Eq,
            });
        };
        match (self.val_of(v), width) {
            (Val::W(rd), _) => {
                let t = self.word_of(tval);
                let fv = self.word_of(fval);
                emit_sel(self, rd, t, fv);
            }
            (Val::Pair(lo, hi), _) => {
                let Val::Pair(tlo, thi) = self.val_of(tval) else {
                    unreachable!()
                };
                let Val::Pair(flo, fhi) = self.val_of(fval) else {
                    unreachable!()
                };
                self.emit(MirInst::Mov { rd: lo, rm: flo });
                self.emit(MirInst::Mov { rd: hi, rm: fhi });
                self.emit(MirInst::Cmp {
                    rn: c,
                    src2: MOperand::Imm(1),
                });
                self.emit(MirInst::MovCc {
                    rd: lo,
                    rm: tlo,
                    cond: Cond::Eq,
                });
                self.emit(MirInst::MovCc {
                    rd: hi,
                    rm: thi,
                    cond: Cond::Eq,
                });
            }
            (Val::B(bd), _) => {
                // Extend → word select → truncate back.
                let tb = self.byte_of(tval);
                let fb = self.byte_of(fval);
                let tw = self.new_vreg(RegClass::Word);
                let fw = self.new_vreg(RegClass::Word);
                self.emit(MirInst::SExtend {
                    rd: tw,
                    bn: tb,
                    signed: false,
                });
                self.emit(MirInst::SExtend {
                    rd: fw,
                    bn: fb,
                    signed: false,
                });
                let rw = self.new_vreg(RegClass::Word);
                emit_sel(self, rw, tw, fw);
                self.emit(MirInst::STrunc {
                    bd,
                    rn: rw,
                    speculative: false,
                });
            }
        }
    }

    /// Destructs SSA: for every edge p→s and φ in s, append ordered copies
    /// at the end of p (after any sunk compare; copies don't affect flags).
    fn insert_phi_copies(&mut self) {
        let f = self.f;
        for p in f.block_ids() {
            let succs = f.succs(p);
            for s in succs {
                let mut copies: Vec<(Val, Val)> = Vec::new(); // (dst, src)
                for &phi in &f.block(s).insts {
                    let Inst::Phi { incomings, .. } = f.inst(phi) else {
                        break;
                    };
                    let Some((_, src)) = incomings.iter().find(|(pb, _)| *pb == p) else {
                        continue;
                    };
                    copies.push((self.val_of(phi), self.val_of(*src)));
                }
                if copies.is_empty() {
                    continue;
                }
                let seq = order_copies(&copies, &mut self.classes);
                self.blocks[p.index()].insts.extend(seq);
            }
        }
    }
}

/// Expands possibly-cyclic parallel copies into a safe sequence, using a
/// fresh temp vreg per cycle.
fn order_copies(copies: &[(Val, Val)], classes: &mut Vec<RegClass>) -> Vec<MirInst> {
    // Flatten pairs into unit copies.
    let mut units: Vec<(VReg, VReg, RegClass)> = Vec::new();
    for (d, s) in copies {
        match (d, s) {
            (Val::W(d), Val::W(s)) => units.push((*d, *s, RegClass::Word)),
            (Val::B(d), Val::B(s)) => units.push((*d, *s, RegClass::Byte)),
            (Val::Pair(dl, dh), Val::Pair(sl, sh)) => {
                units.push((*dl, *sl, RegClass::Word));
                units.push((*dh, *sh, RegClass::Word));
            }
            other => panic!("φ copy class mismatch {other:?}"),
        }
    }
    let mut out = Vec::new();
    let mut pending: Vec<(VReg, VReg, RegClass)> =
        units.into_iter().filter(|(d, s, _)| d != s).collect();
    while !pending.is_empty() {
        // Emit copies whose destination is not a pending source.
        let ready: Vec<usize> = (0..pending.len())
            .filter(|&i| !pending.iter().any(|(_, s, _)| *s == pending[i].0))
            .collect();
        if ready.is_empty() {
            // Cycle: break it with a temp.
            let (d, s, class) = pending[0];
            let tmp = VReg(classes.len() as u32);
            classes.push(class);
            out.push(copy_inst(tmp, s, class));
            pending[0] = (d, tmp, class);
            // mark s as satisfied by replacing source occurrences…
            // (only the first element had source s in the cycle; others
            // unchanged — the cycle is now a chain.)
            continue;
        }
        // Remove in reverse order to keep indices valid.
        for &i in ready.iter().rev() {
            let (d, s, class) = pending.remove(i);
            out.push(copy_inst(d, s, class));
        }
    }
    out
}

fn copy_inst(d: VReg, s: VReg, class: RegClass) -> MirInst {
    match class {
        RegClass::Word => MirInst::Mov { rd: d, rm: s },
        RegClass::Byte => MirInst::SMov { bd: d, bs: s },
    }
}

/// Blocks reachable from the entry via branch edges only (the speculative
/// side of the 2-CFG; handlers and `CFG_orig` are excluded).
fn spec_side_blocks(f: &Function) -> Vec<bool> {
    let mut side = vec![false; f.blocks.len()];
    let mut work = vec![f.entry];
    side[f.entry.index()] = true;
    while let Some(b) = work.pop() {
        for s in f.succs(b) {
            if !side[s.index()] {
                side[s.index()] = true;
                work.push(s);
            }
        }
    }
    side
}

/// Maps a SIR condition code onto a machine condition.
fn cond_of(cc: Cc) -> Cond {
    match cc {
        Cc::Eq => Cond::Eq,
        Cc::Ne => Cond::Ne,
        Cc::Ult => Cond::Lo,
        Cc::Ule => Cond::Ls,
        Cc::Ugt => Cond::Hi,
        Cc::Uge => Cond::Hs,
        Cc::Slt => Cond::Lt,
        Cc::Sle => Cond::Le,
        Cc::Sgt => Cond::Gt,
        Cc::Sge => Cond::Ge,
    }
}

/// Argument word slots for a width.
fn word_slots(w: Width) -> u32 {
    if w == Width::W64 {
        2
    } else {
        1
    }
}

/// Removes MIR instructions with unused defs and no side effects.
///
/// An instruction is dead when it has defs, no side effects, and none of
/// its defs is read by another live instruction or a terminator (a read of
/// its own def — `MovCc`'s `rd` — keeps nothing alive). Removal only ever
/// lowers use counts, so one use-count worklist reaches the same fixpoint
/// as rescanning the function until nothing changes.
fn mir_dce(f: &mut MirFunction) {
    let nv = f.classes.len();
    // Every instruction by flat index, in block order.
    let insts: Vec<&MirInst> = f.blocks.iter().flat_map(|b| &b.insts).collect();
    let mut uses = vec![0u32; nv];
    // Def sites per vreg as compressed rows of flat indices: a φ
    // destination is defined once per predecessor copy.
    let mut def_start = vec![0u32; nv + 1];
    for i in &insts {
        i.for_each_use(|u| {
            if !i.defines(u) {
                uses[u.index()] += 1;
            }
        });
        i.for_each_def(|d| def_start[d.index() + 1] += 1);
    }
    for b in &f.blocks {
        b.term.for_each_use(|u| uses[u.index()] += 1);
    }
    for v in 0..nv {
        def_start[v + 1] += def_start[v];
    }
    let mut fill = def_start.clone();
    let mut def_sites = vec![0u32; def_start[nv] as usize];
    for (k, i) in insts.iter().enumerate() {
        i.for_each_def(|d| {
            def_sites[fill[d.index()] as usize] = k as u32;
            fill[d.index()] += 1;
        });
    }
    let removable = |i: &MirInst, uses: &[u32]| {
        let (mut any_def, mut all_unused) = (false, true);
        i.for_each_def(|d| {
            any_def = true;
            all_unused &= uses[d.index()] == 0;
        });
        any_def && all_unused && !i.has_side_effects()
    };
    let mut work: Vec<usize> = (0..insts.len())
        .filter(|&k| removable(insts[k], &uses))
        .collect();
    let mut dead = vec![false; insts.len()];
    work.iter().for_each(|&k| dead[k] = true);
    while let Some(k) = work.pop() {
        let i = insts[k];
        i.for_each_use(|u| {
            if i.defines(u) {
                return;
            }
            uses[u.index()] -= 1;
            if uses[u.index()] != 0 {
                return;
            }
            let sites = def_start[u.index()] as usize..def_start[u.index() + 1] as usize;
            for &s in &def_sites[sites] {
                let s = s as usize;
                if !dead[s] && removable(insts[s], &uses) {
                    dead[s] = true;
                    work.push(s);
                }
            }
        });
    }
    let mut k = 0;
    for b in &mut f.blocks {
        b.insts.retain(|_| {
            k += 1;
            !dead[k - 1]
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mir_for(src: &str, func: &str, opts: &CodegenOpts) -> MirFunction {
        let mut m = lang::compile("t", src).unwrap();
        opt::simplify::run(&mut m); // fold constant address arithmetic
        opt::dce::run(&mut m);
        let fid = m.func_by_name(func).unwrap();
        let layout = Layout::new(&m);
        select_function(&m, fid, &layout, opts)
    }

    #[test]
    fn simple_add_selects_alu() {
        let f = mir_for(
            "u32 f(u32 a, u32 b) { return a + b; }",
            "f",
            &CodegenOpts::default(),
        );
        let has_add = f.blocks.iter().any(|b| {
            b.insts
                .iter()
                .any(|i| matches!(i, MirInst::Alu { op: AluOp::Add, .. }))
        });
        assert!(has_add);
    }

    #[test]
    fn small_const_folds_into_imm() {
        let f = mir_for(
            "u32 f(u32 a) { return a + 7; }",
            "f",
            &CodegenOpts::default(),
        );
        let folded = f.blocks.iter().any(|b| {
            b.insts.iter().any(|i| {
                matches!(
                    i,
                    MirInst::Alu {
                        src2: MOperand::Imm(7),
                        ..
                    }
                )
            })
        });
        assert!(folded);
    }

    #[test]
    fn branch_fusion_avoids_cset() {
        let f = mir_for(
            "u32 f(u32 a) { if (a < 3) { return 1; } return 2; }",
            "f",
            &CodegenOpts::default(),
        );
        let csets = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, MirInst::CSet { .. }))
            .count();
        assert_eq!(csets, 0, "compare should fuse into the branch");
    }

    #[test]
    fn load_offset_folding() {
        let f = mir_for(
            "global u32 g[8]; u32 f() { return g[2]; }",
            "f",
            &CodegenOpts::default(),
        );
        let has_folded = f.blocks.iter().any(|b| {
            b.insts
                .iter()
                .any(|i| matches!(i, MirInst::Load { offset, .. } if *offset == 8))
        });
        assert!(has_folded, "constant index should fold into the offset");
    }

    #[test]
    fn u64_add_uses_carry_chain() {
        let f = mir_for(
            "u64 f(u64 a, u64 b) { return a + b; }",
            "f",
            &CodegenOpts::default(),
        );
        let insts: Vec<&MirInst> = f.blocks.iter().flat_map(|b| &b.insts).collect();
        assert!(insts.iter().any(|i| matches!(
            i,
            MirInst::Alu {
                op: AluOp::Adds,
                ..
            }
        )));
        assert!(insts
            .iter()
            .any(|i| matches!(i, MirInst::Alu { op: AluOp::Adc, .. })));
    }

    #[test]
    fn critical_edges_split_for_phis() {
        // Loop header with φ and conditional latch creates a critical edge.
        let src = "u32 f(u32 n) {
            u32 s = 0;
            for (u32 i = 0; i < n; i++) { if (i & 1) { s += i; } }
            return s;
        }";
        let f = mir_for(src, "f", &CodegenOpts::default());
        // Just ensure selection completed and produced blocks.
        assert!(f.blocks.len() >= 4);
    }

    #[test]
    fn compact_mode_rejects_bitspec() {
        let r = std::panic::catch_unwind(|| {
            mir_for(
                "u32 f() { return 1; }",
                "f",
                &CodegenOpts {
                    bitspec: true,
                    compact: true,
                    spill_prefer_orig: true,
                },
            )
        });
        assert!(r.is_err());
    }
}
