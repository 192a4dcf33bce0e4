//! Machine IR over virtual registers (the paper's SMIR, §3.1.3).

use isa::{AluOp, Cond, MemWidth};
use sir::dataflow::Graph;
use sir::FuncId;

/// A virtual register. Class is tracked per-function in [`MirFunction`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VReg(pub u32);

impl VReg {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for VReg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Register class: a full 32-bit word or an 8-bit slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegClass {
    Word,
    Byte,
}

/// Slice ALU ops (re-exported naming for MIR convenience).
pub use isa::inst::SAluOp;

/// Word-op second operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MOperand {
    VReg(VReg),
    Imm(u32),
}

/// Slice-op second operand (Table 1 allows a 4-bit immediate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SMOperand {
    VReg(VReg),
    Imm(u8),
}

/// MIR block id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MBlockId(pub u32);

impl MBlockId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for MBlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mb{}", self.0)
    }
}

/// MIR instructions (virtual-register forms of [`isa::MInst`] plus
/// call/frame/param pseudos expanded at emission).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MirInst {
    Alu {
        op: AluOp,
        rd: VReg,
        rn: VReg,
        src2: MOperand,
    },
    MovImm {
        rd: VReg,
        imm: u32,
    },
    Mov {
        rd: VReg,
        rm: VReg,
    },
    /// `rd := rm` when the current flags satisfy `cond` (select lowering).
    MovCc {
        rd: VReg,
        rm: VReg,
        cond: Cond,
    },
    Cmp {
        rn: VReg,
        src2: MOperand,
    },
    CSet {
        rd: VReg,
        cond: Cond,
    },
    Extend {
        rd: VReg,
        rm: VReg,
        from: MemWidth,
        signed: bool,
    },
    /// `rdlo:rdhi := rn * rm` (64-bit product, for mul64 legalization).
    Umull {
        rdlo: VReg,
        rdhi: VReg,
        rn: VReg,
        rm: VReg,
    },
    Load {
        rd: VReg,
        rn: VReg,
        offset: i32,
        width: MemWidth,
    },
    /// Slice-indexed load (Table 1 `Mem[R_n + B_m]` addressing).
    LoadIdx {
        rd: VReg,
        rn: VReg,
        bidx: VReg,
        shift: u8,
        width: MemWidth,
    },
    /// Slice-indexed slice load; speculative form checks > 0xFF.
    SLoadIdx {
        bd: VReg,
        rn: VReg,
        bidx: VReg,
        shift: u8,
        speculative: bool,
    },
    Store {
        rs: VReg,
        rn: VReg,
        offset: i32,
        width: MemWidth,
    },
    /// Materialize the address of a global.
    GlobalAddr {
        rd: VReg,
        addr: u32,
    },
    /// Materialize the address of stack allocation `alloca`.
    FrameAddr {
        rd: VReg,
        alloca: u32,
    },
    /// Read incoming argument word `slot` (flattened across 64-bit pairs).
    GetParam {
        rd: VReg,
        slot: u32,
    },
    /// Call pseudo: argument/return marshalling expands at emission.
    Call {
        callee: FuncId,
        args: Vec<VReg>,
        rets: Vec<VReg>,
    },
    Out {
        rn: VReg,
    },
    /// Misspeculate iff `rn != 0` (64-bit speculative-truncate support).
    SpecCheck {
        rn: VReg,
    },

    // ---- slice (Table 1) forms -------------------------------------------
    SAlu {
        op: SAluOp,
        bd: VReg,
        bn: VReg,
        src2: SMOperand,
        speculative: bool,
    },
    SCmp {
        bn: VReg,
        src2: SMOperand,
    },
    SLoadSpec {
        bd: VReg,
        rn: VReg,
        offset: i32,
    },
    SLoad {
        bd: VReg,
        rn: VReg,
        offset: i32,
    },
    SStore {
        bs: VReg,
        rn: VReg,
        offset: i32,
    },
    SExtend {
        rd: VReg,
        bn: VReg,
        signed: bool,
    },
    STrunc {
        bd: VReg,
        rn: VReg,
        speculative: bool,
    },
    SMov {
        bd: VReg,
        bs: VReg,
    },
    SMovImm {
        bd: VReg,
        imm: u8,
    },
}

impl MirInst {
    /// Calls `f` on every virtual register this instruction reads, in
    /// operand order, without allocating. `MovCc` writes `rd` only when its
    /// condition holds, so it reads `rd`'s previous value too.
    pub fn for_each_use(&self, mut f: impl FnMut(VReg)) {
        use MirInst::*;
        match self {
            Alu { rn, src2, .. } | Cmp { rn, src2 } => {
                f(*rn);
                if let MOperand::VReg(v) = src2 {
                    f(*v);
                }
            }
            SAlu { bn, src2, .. } | SCmp { bn, src2 } => {
                f(*bn);
                if let SMOperand::VReg(v) = src2 {
                    f(*v);
                }
            }
            MovImm { .. }
            | CSet { .. }
            | GlobalAddr { .. }
            | FrameAddr { .. }
            | GetParam { .. }
            | SMovImm { .. } => {}
            MovCc { rd, rm, .. } => {
                f(*rm);
                f(*rd);
            }
            Mov { rm, .. } | Extend { rm, .. } => f(*rm),
            Umull { rn, rm, .. } => {
                f(*rn);
                f(*rm);
            }
            Store { rs: a, rn: b, .. }
            | SStore { bs: a, rn: b, .. }
            | LoadIdx { rn: a, bidx: b, .. }
            | SLoadIdx { rn: a, bidx: b, .. } => {
                f(*a);
                f(*b);
            }
            Call { args, .. } => args.iter().copied().for_each(f),
            Out { rn }
            | SpecCheck { rn }
            | Load { rn, .. }
            | SLoadSpec { rn, .. }
            | SLoad { rn, .. }
            | STrunc { rn, .. } => f(*rn),
            SExtend { bn, .. } => f(*bn),
            SMov { bs, .. } => f(*bs),
        }
    }

    /// Calls `f` on every virtual register this instruction writes, without
    /// allocating.
    pub fn for_each_def(&self, mut f: impl FnMut(VReg)) {
        use MirInst::*;
        match self {
            Alu { rd, .. }
            | MovImm { rd, .. }
            | Mov { rd, .. }
            | MovCc { rd, .. }
            | CSet { rd, .. }
            | Extend { rd, .. }
            | Load { rd, .. }
            | LoadIdx { rd, .. }
            | GlobalAddr { rd, .. }
            | FrameAddr { rd, .. }
            | GetParam { rd, .. }
            | SExtend { rd, .. } => f(*rd),
            Umull { rdlo, rdhi, .. } => {
                f(*rdlo);
                f(*rdhi);
            }
            Call { rets, .. } => rets.iter().copied().for_each(f),
            SAlu { bd, .. }
            | SLoadSpec { bd, .. }
            | SLoad { bd, .. }
            | STrunc { bd, .. }
            | SMov { bd, .. }
            | SMovImm { bd, .. }
            | SLoadIdx { bd, .. } => f(*bd),
            Cmp { .. }
            | Store { .. }
            | Out { .. }
            | SpecCheck { .. }
            | SCmp { .. }
            | SStore { .. } => {}
        }
    }

    /// Whether `v` is one of this instruction's defs.
    pub(crate) fn defines(&self, v: VReg) -> bool {
        let mut hit = false;
        self.for_each_def(|d| hit |= d == v);
        hit
    }

    /// Whether this is a call pseudo (interval-crossing constraint for the
    /// register allocator).
    pub fn is_call(&self) -> bool {
        matches!(self, MirInst::Call { .. })
    }

    /// Whether this instruction has observable effects even if its defs are
    /// dead.
    pub fn has_side_effects(&self) -> bool {
        // Flag-setting ALU ops exist for their flags (64-bit compares).
        if let MirInst::Alu { op, .. } = self {
            if op.sets_flags() {
                return true;
            }
        }
        matches!(
            self,
            MirInst::Store { .. }
                | MirInst::SStore { .. }
                | MirInst::Call { .. }
                | MirInst::Out { .. }
                | MirInst::Cmp { .. }
                | MirInst::SCmp { .. }
                | MirInst::SpecCheck { .. }
                | MirInst::SLoadSpec { .. }
                | MirInst::LoadIdx { .. }
                | MirInst::SLoadIdx {
                    speculative: true,
                    ..
                }
                | MirInst::STrunc {
                    speculative: true,
                    ..
                }
                | MirInst::SAlu {
                    speculative: true,
                    ..
                }
                | MirInst::Load { .. }
        )
    }
}

/// Block terminators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MirTerm {
    Br(MBlockId),
    /// Branch on current flags.
    Bc {
        cond: Cond,
        if_true: MBlockId,
        if_false: MBlockId,
    },
    /// Return `vals` (0, 1 or 2 words → r0/r1).
    Ret(Vec<VReg>),
}

impl MirTerm {
    /// Branch targets, in order.
    pub fn successor_slots(&self) -> [Option<MBlockId>; 2] {
        match self {
            MirTerm::Br(t) => [Some(*t), None],
            MirTerm::Bc {
                if_true, if_false, ..
            } => [Some(*if_true), Some(*if_false)],
            MirTerm::Ret(_) => [None, None],
        }
    }

    /// Calls `f` on every virtual register the terminator reads.
    pub fn for_each_use(&self, f: impl FnMut(VReg)) {
        if let MirTerm::Ret(vs) = self {
            vs.iter().copied().for_each(f);
        }
    }
}

/// A MIR block with its region annotations.
#[derive(Debug, Clone)]
pub struct MirBlock {
    pub insts: Vec<MirInst>,
    pub term: MirTerm,
    /// Region index this block belongs to, if any.
    pub region: Option<u32>,
    /// Region index this block handles, if any.
    pub handler_for: Option<u32>,
    /// Whether this block is on the speculative side of the 2-CFG (laid out
    /// in the contiguous spec segment mirrored by skeletons).
    pub spec_side: bool,
}

/// A function in MIR form.
#[derive(Debug, Clone)]
pub struct MirFunction {
    pub name: String,
    pub blocks: Vec<MirBlock>,
    pub entry: MBlockId,
    /// Class per vreg.
    pub classes: Vec<RegClass>,
    /// (region blocks, handler block) pairs, mirrored from SIR.
    pub regions: Vec<(Vec<MBlockId>, MBlockId)>,
    /// Alloca sizes (bytes), indexed by the `alloca` field of `FrameAddr`.
    pub alloca_sizes: Vec<u32>,
    /// Number of incoming argument word slots.
    pub param_slots: u32,
}

impl MirFunction {
    pub fn block(&self, b: MBlockId) -> &MirBlock {
        &self.blocks[b.index()]
    }

    pub fn block_mut(&mut self, b: MBlockId) -> &mut MirBlock {
        &mut self.blocks[b.index()]
    }

    pub fn block_ids(&self) -> impl Iterator<Item = MBlockId> {
        (0..self.blocks.len() as u32).map(MBlockId)
    }

    pub fn class_of(&self, v: VReg) -> RegClass {
        self.classes[v.index()]
    }

    /// The CFG as a dataflow graph, with or without misspeculation edges.
    pub fn cfg(&self, handler_edges: bool) -> Cfg<'_> {
        Cfg {
            mir: self,
            handler_edges,
        }
    }
}

/// A MIR function's CFG as a dataflow graph: branch edges, plus the
/// equation-2 misspeculation edges (region block → handler) when
/// `handler_edges` is set.
pub struct Cfg<'a> {
    mir: &'a MirFunction,
    handler_edges: bool,
}

impl Graph for Cfg<'_> {
    fn num_nodes(&self) -> usize {
        self.mir.blocks.len()
    }

    fn entry(&self) -> usize {
        self.mir.entry.index()
    }

    fn for_each_succ(&self, n: usize, mut f: impl FnMut(usize)) {
        let blk = &self.mir.blocks[n];
        let slots = blk.term.successor_slots();
        slots.into_iter().flatten().for_each(|x| f(x.index()));
        let handler = blk.region.map(|r| self.mir.regions[r as usize].1);
        if let Some(h) = handler.filter(|h| self.handler_edges && !slots.contains(&Some(*h))) {
            f(h.index());
        }
    }
}

/// Renders a MIR function as text — the back-end half of
/// `BITSPEC_PRINT_AFTER` (the SIR half is `sir::print`). One line per
/// instruction in the `Debug` form (which is already compact and names
/// vregs `v<n>`), prefixed with a header summarizing register classes and
/// regions.
pub fn print_mir(f: &MirFunction) -> String {
    use std::fmt::Write;
    let bytes = f.classes.iter().filter(|c| **c == RegClass::Byte).count();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "mfunc {} entry {:?} ({} vregs, {} byte-class, {} param slots)",
        f.name,
        f.entry,
        f.classes.len(),
        bytes,
        f.param_slots
    );
    for (ri, (blocks, handler)) in f.regions.iter().enumerate() {
        let _ = writeln!(s, "  ; region {ri}: blocks {blocks:?} handler {handler:?}");
    }
    for (i, b) in f.blocks.iter().enumerate() {
        let mut attrs = Vec::new();
        if let Some(r) = b.region {
            attrs.push(format!("region {r}"));
        }
        if let Some(r) = b.handler_for {
            attrs.push(format!("handler-for {r}"));
        }
        if b.spec_side {
            attrs.push("spec".to_string());
        }
        let suffix = if attrs.is_empty() {
            String::new()
        } else {
            format!("  ; {}", attrs.join(", "))
        };
        let _ = writeln!(s, "mb{i}:{suffix}");
        for inst in &b.insts {
            let _ = writeln!(s, "  {inst:?}");
        }
        let _ = writeln!(s, "  {:?}", b.term);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uses(i: &MirInst) -> Vec<VReg> {
        let mut out = Vec::new();
        i.for_each_use(|v| out.push(v));
        out
    }

    fn defs(i: &MirInst) -> Vec<VReg> {
        let mut out = Vec::new();
        i.for_each_def(|v| out.push(v));
        out
    }

    #[test]
    fn uses_and_defs() {
        let i = MirInst::Alu {
            op: AluOp::Add,
            rd: VReg(0),
            rn: VReg(1),
            src2: MOperand::VReg(VReg(2)),
        };
        assert_eq!(defs(&i), vec![VReg(0)]);
        assert_eq!(uses(&i), vec![VReg(1), VReg(2)]);
        let s = MirInst::Store {
            rs: VReg(3),
            rn: VReg(4),
            offset: 0,
            width: MemWidth::W,
        };
        assert!(defs(&s).is_empty());
        assert_eq!(uses(&s), vec![VReg(3), VReg(4)]);
        assert!(s.has_side_effects());
    }

    #[test]
    fn movcc_reads_its_destination() {
        let i = MirInst::MovCc {
            rd: VReg(5),
            rm: VReg(6),
            cond: Cond::Eq,
        };
        assert_eq!(uses(&i), vec![VReg(6), VReg(5)]);
        assert_eq!(defs(&i), vec![VReg(5)]);
        assert!(i.defines(VReg(5)) && !i.defines(VReg(6)));
    }

    #[test]
    fn call_is_flagged() {
        let c = MirInst::Call {
            callee: sir::FuncId(0),
            args: vec![VReg(1)],
            rets: vec![VReg(2)],
        };
        assert!(c.is_call());
        assert_eq!(defs(&c), vec![VReg(2)]);
        assert_eq!(uses(&c), vec![VReg(1)]);
    }
}
