//! Machine instruction definitions.

use crate::regs::{Reg, Slice};
use std::fmt;

/// Word-level ALU operations. The `…S` variants update NZCV; `Adc`/`Sbc`
/// consume the carry (64-bit legalization chains).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    Add,
    Adds,
    Adc,
    Sub,
    Subs,
    Sbc,
    /// Subtract-with-carry, flag-setting (64-bit compares).
    Sbcs,
    And,
    Orr,
    Eor,
    Lsl,
    Lsr,
    Asr,
    Mul,
    Udiv,
    Sdiv,
}

impl AluOp {
    /// Whether the op writes the flags.
    pub fn sets_flags(self) -> bool {
        matches!(self, AluOp::Adds | AluOp::Subs | AluOp::Sbcs)
    }
}

/// Slice (8-bit) ALU operations — the Table 1 extensions. Speculative
/// variants misspeculate per the table; the plain forms never do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SAluOp {
    Add,
    Sub,
    And,
    Orr,
    Eor,
    Lsl,
    Lsr,
    Asr,
}

/// Condition codes for branches and `CSet`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    Eq,
    Ne,
    /// unsigned <  (C clear)
    Lo,
    /// unsigned <=
    Ls,
    /// unsigned >
    Hi,
    /// unsigned >=
    Hs,
    /// signed <
    Lt,
    /// signed <=
    Le,
    /// signed >
    Gt,
    /// signed >=
    Ge,
}

impl Cond {
    pub fn negated(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lo => Cond::Hs,
            Cond::Ls => Cond::Hi,
            Cond::Hi => Cond::Ls,
            Cond::Hs => Cond::Lo,
            Cond::Lt => Cond::Ge,
            Cond::Le => Cond::Gt,
            Cond::Gt => Cond::Le,
            Cond::Ge => Cond::Lt,
        }
    }
}

/// Memory access widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    B,
    H,
    W,
}

impl MemWidth {
    pub fn bytes(self) -> u32 {
        match self {
            MemWidth::B => 1,
            MemWidth::H => 2,
            MemWidth::W => 4,
        }
    }
}

/// Second operand of word ALU ops: register or small immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    Reg(Reg),
    /// Immediate; the back-end guarantees it fits the encoding (≤ 12 bits
    /// for ALU ops, any for `MovImm` which may occupy two fetch slots).
    Imm(u32),
}

/// Second operand of slice ops: slice or 4-bit immediate (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SliceOperand {
    Slice(Slice),
    Imm(u8),
}

/// A machine instruction. Branch targets are *flat instruction indices*
/// within the linked program image.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MInst {
    /// Word ALU. `rd := rn op src2`.
    Alu {
        op: AluOp,
        rd: Reg,
        rn: Reg,
        src2: Operand,
    },
    /// `rd := imm` (occupies two fetch slots when `imm > 0xFFFF`).
    MovImm { rd: Reg, imm: u32 },
    /// `rd := rm`.
    Mov { rd: Reg, rm: Reg },
    /// Compare: flags := rn - src2.
    Cmp { rn: Reg, src2: Operand },
    /// `rd := cond ? 1 : 0`.
    CSet { rd: Reg, cond: Cond },
    /// `rd := rm` when the flags satisfy `cond` (IT-block style move).
    MovCc { rd: Reg, rm: Reg, cond: Cond },
    /// `rdlo:rdhi := rn * rm` (unsigned 64-bit product).
    Umull {
        rdlo: Reg,
        rdhi: Reg,
        rn: Reg,
        rm: Reg,
    },
    /// Zero/sign extension from a narrow width held in `rm`'s low bits.
    Extend {
        rd: Reg,
        rm: Reg,
        from: MemWidth,
        signed: bool,
    },
    /// Load `rd := Mem[rn + offset]`, zero-extended.
    Load {
        rd: Reg,
        rn: Reg,
        offset: i32,
        width: MemWidth,
        /// Register-allocator spill reload (Figure 10 accounting).
        spill: bool,
    },
    /// Slice-indexed load `rd := Mem[rn + (Bidx << shift)]` — Table 1's
    /// `Mem[R_n + B_m]` addressing, with an AGU scale for word tables.
    LoadIdx {
        rd: Reg,
        rn: Reg,
        bidx: Slice,
        shift: u8,
        width: MemWidth,
    },
    /// Store `Mem[rn + offset] := rs`.
    Store {
        rs: Reg,
        rn: Reg,
        offset: i32,
        width: MemWidth,
        spill: bool,
    },
    /// Push registers (descending), for prologues.
    Push { regs: Vec<Reg> },
    /// Pop registers, for epilogues.
    Pop { regs: Vec<Reg> },
    /// Unconditional branch to instruction index.
    B { target: usize },
    /// Conditional branch on current flags.
    Bc { cond: Cond, target: usize },
    /// Call: `lr := return index; pc := target`.
    Bl { target: usize },
    /// Return (`bx lr`).
    Ret,
    /// Write a word to the observable output port.
    Out { rn: Reg },
    /// Stop the machine (end of program).
    Halt,
    /// No operation (skeleton-segment padding).
    Nop,

    // ---- BITSPEC extensions (Table 1) ------------------------------------
    /// Slice ALU `bd := bn op src2`. When `speculative`, the Table 1
    /// misspeculation condition is monitored (add overflow, sub underflow,
    /// lsl carry-out).
    SAlu {
        op: SAluOp,
        bd: Slice,
        bn: Slice,
        src2: SliceOperand,
        speculative: bool,
    },
    /// Slice compare (never misspeculates).
    SCmp { bn: Slice, src2: SliceOperand },
    /// Speculative load: a 32-bit access whose value must fit 8 bits.
    SLoadSpec { bd: Slice, rn: Reg, offset: i32 },
    /// Slice-indexed slice load `bd := Mem[rn + (Bidx << shift)]`; the
    /// speculative form reads 32 bits and misspeculates past 8.
    SLoadIdx {
        bd: Slice,
        rn: Reg,
        bidx: Slice,
        shift: u8,
        speculative: bool,
    },
    /// Plain 8-bit load into a slice.
    SLoad {
        bd: Slice,
        rn: Reg,
        offset: i32,
        spill: bool,
    },
    /// Plain 8-bit store from a slice.
    SStore {
        bs: Slice,
        rn: Reg,
        offset: i32,
        spill: bool,
    },
    /// Extension `rd := Zero/SignExtend(bn)` (never misspeculates).
    SExtend { rd: Reg, bn: Slice, signed: bool },
    /// Truncate `bd := low8(rn)`; the speculative form misspeculates when
    /// `rn > 0xFF`.
    STrunc {
        bd: Slice,
        rn: Reg,
        speculative: bool,
    },
    /// Slice-to-slice move.
    SMov { bd: Slice, bs: Slice },
    /// Slice := 8-bit immediate.
    SMovImm { bd: Slice, imm: u8 },
    /// Write the misspeculation displacement register Δ (§3.3.4).
    SetDelta { bytes: u32 },
    /// Misspeculate iff `rn != 0` (64-bit speculative-truncate support;
    /// a small extension over the paper's Table 1, see DESIGN.md).
    SpecCheck { rn: Reg },
}

impl MInst {
    /// Whether this instruction can trigger misspeculation.
    pub fn can_misspeculate(&self) -> bool {
        match self {
            MInst::SAlu {
                op, speculative, ..
            } => *speculative && matches!(op, SAluOp::Add | SAluOp::Sub | SAluOp::Lsl),
            MInst::SLoadSpec { .. } => true,
            MInst::SLoadIdx { speculative, .. } => *speculative,
            MInst::STrunc { speculative, .. } => *speculative,
            MInst::SpecCheck { .. } => true,
            _ => false,
        }
    }

    /// Bitmask (bit `i` = `r_i`) of the word registers this instruction
    /// reads *for load-use interlock purposes*. Slice operands contribute
    /// their containing word register. `Push`/`Pop`, branches and
    /// immediates contribute nothing — the interlock models the operand
    /// read port of the execute stage, and those consume no forwarded
    /// operand (stack ops sequence through the memory stage).
    pub fn interlock_read_mask(&self) -> u32 {
        fn bit(r: Reg) -> u32 {
            1 << r.index()
        }
        fn op(o: &Operand) -> u32 {
            match o {
                Operand::Reg(r) => bit(*r),
                Operand::Imm(_) => 0,
            }
        }
        fn sop(o: &SliceOperand) -> u32 {
            match o {
                SliceOperand::Slice(s) => bit(s.reg),
                SliceOperand::Imm(_) => 0,
            }
        }
        match self {
            MInst::Alu { rn, src2, .. } | MInst::Cmp { rn, src2 } => bit(*rn) | op(src2),
            MInst::Mov { rm, .. } | MInst::MovCc { rm, .. } => bit(*rm),
            MInst::Extend { rm, .. } => bit(*rm),
            MInst::Umull { rn, rm, .. } => bit(*rn) | bit(*rm),
            MInst::Load { rn, .. } => bit(*rn),
            MInst::Store { rs, rn, .. } => bit(*rs) | bit(*rn),
            MInst::Out { rn } | MInst::SpecCheck { rn } => bit(*rn),
            MInst::SAlu { bn, src2, .. } => bit(bn.reg) | sop(src2),
            MInst::SCmp { bn, src2 } => bit(bn.reg) | sop(src2),
            MInst::SLoadSpec { rn, .. } | MInst::SLoad { rn, .. } => bit(*rn),
            MInst::LoadIdx { rn, bidx, .. } | MInst::SLoadIdx { rn, bidx, .. } => {
                bit(*rn) | bit(bidx.reg)
            }
            MInst::SStore { bs, rn, .. } => bit(bs.reg) | bit(*rn),
            MInst::SExtend { bn, .. } => bit(bn.reg),
            MInst::STrunc { rn, .. } => bit(*rn),
            MInst::SMov { bs, .. } => bit(bs.reg),
            _ => 0,
        }
    }

    /// Destination-register bitmask when the instruction is a word load
    /// whose result triggers the one-cycle load-use interlock on the next
    /// instruction (`Load`/`LoadIdx`); zero otherwise.
    pub fn load_dest_mask(&self) -> u32 {
        match self {
            MInst::Load { rd, .. } | MInst::LoadIdx { rd, .. } => 1 << rd.index(),
            _ => 0,
        }
    }

    /// Encoded size in bytes. `compact` selects the Thumb-like mode (RQ9).
    pub fn size(&self, compact: bool) -> u32 {
        let unit = if compact { 2 } else { 4 };
        match self {
            // A full 32-bit immediate needs a movw/movt-style pair.
            MInst::MovImm { imm, .. } if *imm > 0xFFFF => 2 * unit,
            // Multi-register push/pop encode as one instruction.
            _ => unit,
        }
    }
}

impl fmt::Display for MInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regs::Reg;

    #[test]
    fn misspeculation_classification() {
        let s = Slice::new(Reg(0), 0);
        let add = MInst::SAlu {
            op: SAluOp::Add,
            bd: s,
            bn: s,
            src2: SliceOperand::Imm(1),
            speculative: true,
        };
        assert!(add.can_misspeculate());
        let xor = MInst::SAlu {
            op: SAluOp::Eor,
            bd: s,
            bn: s,
            src2: SliceOperand::Imm(1),
            speculative: true,
        };
        assert!(!xor.can_misspeculate(), "logic never misspeculates");
        let plain_add = MInst::SAlu {
            op: SAluOp::Add,
            bd: s,
            bn: s,
            src2: SliceOperand::Imm(1),
            speculative: false,
        };
        assert!(!plain_add.can_misspeculate());
        assert!(MInst::SLoadSpec {
            bd: s,
            rn: Reg(1),
            offset: 0
        }
        .can_misspeculate());
    }

    #[test]
    fn sizes() {
        let m = MInst::MovImm {
            rd: Reg(0),
            imm: 0x12345678,
        };
        assert_eq!(m.size(false), 8);
        assert_eq!(m.size(true), 4);
        assert_eq!(MInst::Ret.size(false), 4);
        assert_eq!(MInst::Ret.size(true), 2);
    }

    #[test]
    fn interlock_masks() {
        let ld = MInst::Load {
            rd: Reg(3),
            rn: Reg(7),
            offset: 4,
            width: MemWidth::W,
            spill: false,
        };
        assert_eq!(ld.interlock_read_mask(), 1 << 7);
        assert_eq!(ld.load_dest_mask(), 1 << 3);
        let alu = MInst::Alu {
            op: AluOp::Add,
            rd: Reg(0),
            rn: Reg(3),
            src2: Operand::Reg(Reg(5)),
        };
        assert_eq!(alu.interlock_read_mask(), (1 << 3) | (1 << 5));
        assert_eq!(alu.load_dest_mask(), 0);
        // Stack ops don't participate in the interlock.
        assert_eq!(
            MInst::Push {
                regs: vec![Reg(0), Reg(1)]
            }
            .interlock_read_mask(),
            0
        );
        // Slice operands contribute their containing word register.
        let salu = MInst::SAlu {
            op: SAluOp::Add,
            bd: Slice::new(Reg(2), 0),
            bn: Slice::new(Reg(4), 1),
            src2: SliceOperand::Slice(Slice::new(Reg(6), 2)),
            speculative: false,
        };
        assert_eq!(salu.interlock_read_mask(), (1 << 4) | (1 << 6));
    }

    #[test]
    fn cond_negation_involution() {
        for c in [
            Cond::Eq,
            Cond::Ne,
            Cond::Lo,
            Cond::Ls,
            Cond::Hi,
            Cond::Hs,
            Cond::Lt,
            Cond::Le,
            Cond::Gt,
            Cond::Ge,
        ] {
            assert_eq!(c.negated().negated(), c);
        }
    }
}
