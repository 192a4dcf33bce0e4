//! Instruction and terminator definitions.

use crate::types::{BlockId, FuncId, GlobalId, ValueId, Width};
use std::fmt;

/// Binary integer operations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Udiv,
    Urem,
    Sdiv,
    Srem,
    And,
    Or,
    Xor,
    Shl,
    Lshr,
    Ashr,
}

impl BinOp {
    /// Whether the BITSPEC ISA provides an 8-bit speculative variant of this
    /// operation (`Speculative?` in §3.2.2 / Table 1). Multiplication,
    /// division and remainder have no slice-wide variant.
    pub fn has_speculative_form(self) -> bool {
        matches!(
            self,
            BinOp::Add
                | BinOp::Sub
                | BinOp::And
                | BinOp::Or
                | BinOp::Xor
                | BinOp::Shl
                | BinOp::Lshr
                | BinOp::Ashr
        )
    }

    /// Whether the op is a division or remainder (can trap on zero divisor).
    pub fn is_div_rem(self) -> bool {
        matches!(self, BinOp::Udiv | BinOp::Urem | BinOp::Sdiv | BinOp::Srem)
    }

    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Udiv => "udiv",
            BinOp::Urem => "urem",
            BinOp::Sdiv => "sdiv",
            BinOp::Srem => "srem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Lshr => "lshr",
            BinOp::Ashr => "ashr",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Comparison condition codes for [`Inst::Icmp`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Cc {
    Eq,
    Ne,
    Ult,
    Ule,
    Ugt,
    Uge,
    Slt,
    Sle,
    Sgt,
    Sge,
}

impl Cc {
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cc::Eq => "eq",
            Cc::Ne => "ne",
            Cc::Ult => "ult",
            Cc::Ule => "ule",
            Cc::Ugt => "ugt",
            Cc::Uge => "uge",
            Cc::Slt => "slt",
            Cc::Sle => "sle",
            Cc::Sgt => "sgt",
            Cc::Sge => "sge",
        }
    }

    /// The condition with operands swapped (`a cc b` ⇔ `b cc.swapped() a`).
    pub fn swapped(self) -> Cc {
        match self {
            Cc::Eq => Cc::Eq,
            Cc::Ne => Cc::Ne,
            Cc::Ult => Cc::Ugt,
            Cc::Ule => Cc::Uge,
            Cc::Ugt => Cc::Ult,
            Cc::Uge => Cc::Ule,
            Cc::Slt => Cc::Sgt,
            Cc::Sle => Cc::Sge,
            Cc::Sgt => Cc::Slt,
            Cc::Sge => Cc::Sle,
        }
    }

    /// The negated condition (`!(a cc b)` ⇔ `a cc.negated() b`).
    pub fn negated(self) -> Cc {
        match self {
            Cc::Eq => Cc::Ne,
            Cc::Ne => Cc::Eq,
            Cc::Ult => Cc::Uge,
            Cc::Ule => Cc::Ugt,
            Cc::Ugt => Cc::Ule,
            Cc::Uge => Cc::Ult,
            Cc::Slt => Cc::Sge,
            Cc::Sle => Cc::Sgt,
            Cc::Sgt => Cc::Sle,
            Cc::Sge => Cc::Slt,
        }
    }

    /// Whether the comparison interprets its operands as signed.
    pub fn is_signed(self) -> bool {
        matches!(self, Cc::Slt | Cc::Sle | Cc::Sgt | Cc::Sge)
    }

    /// Evaluates the comparison on `w`-wide values stored zero-extended.
    pub fn eval(self, w: Width, a: u64, b: u64) -> bool {
        let (a, b) = (w.truncate(a), w.truncate(b));
        match self {
            Cc::Eq => a == b,
            Cc::Ne => a != b,
            Cc::Ult => a < b,
            Cc::Ule => a <= b,
            Cc::Ugt => a > b,
            Cc::Uge => a >= b,
            Cc::Slt => w.sext_to_64(a) < w.sext_to_64(b),
            Cc::Sle => w.sext_to_64(a) <= w.sext_to_64(b),
            Cc::Sgt => w.sext_to_64(a) > w.sext_to_64(b),
            Cc::Sge => w.sext_to_64(a) >= w.sext_to_64(b),
        }
    }
}

impl fmt::Display for Cc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A SIR instruction. Each instruction defines at most one SSA value,
/// identified by its [`ValueId`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Inst {
    /// The `i`-th function parameter. Always at the start of the entry block.
    Param { index: u32, width: Width },
    /// An integer constant.
    Const { width: Width, value: u64 },
    /// Address of a module global.
    GlobalAddr { global: GlobalId },
    /// A stack allocation of `size` bytes; yields the (W32) address.
    Alloca { size: u32 },
    /// Binary operation. `speculative` marks reduced-bitwidth operations
    /// whose result is monitored by the hardware (§3.2.3, Table 1).
    Bin {
        op: BinOp,
        width: Width,
        lhs: ValueId,
        rhs: ValueId,
        speculative: bool,
    },
    /// Integer comparison producing a `W1` value.
    Icmp {
        cc: Cc,
        width: Width,
        lhs: ValueId,
        rhs: ValueId,
    },
    /// Zero extension.
    Zext { to: Width, arg: ValueId },
    /// Sign extension.
    Sext { to: Width, arg: ValueId },
    /// Truncation. A *speculative* truncate (Table 1) misspeculates at run
    /// time if the dropped bits are non-zero.
    Trunc {
        to: Width,
        arg: ValueId,
        speculative: bool,
    },
    /// Memory load of `width` bytes from address `addr` (a W32 value).
    /// A *speculative* load (Table 1) performs a `width`-wide access but
    /// misspeculates if the loaded value needs more than 8 bits; its result
    /// is W8.
    Load {
        width: Width,
        addr: ValueId,
        volatile: bool,
        speculative: bool,
    },
    /// Memory store.
    Store {
        width: Width,
        addr: ValueId,
        value: ValueId,
        volatile: bool,
    },
    /// `cond ? tval : fval` at `width`.
    Select {
        width: Width,
        cond: ValueId,
        tval: ValueId,
        fval: ValueId,
    },
    /// Direct call. `args` must match the callee signature.
    Call {
        callee: FuncId,
        args: Vec<ValueId>,
        ret: Option<Width>,
    },
    /// φ-node: selects the value flowing in from the executed predecessor.
    Phi {
        width: Width,
        incomings: Vec<(BlockId, ValueId)>,
    },
    /// Emits `value` to the program's observable output stream. Volatile
    /// (never idempotent); used for differential correctness checking.
    Output { value: ValueId },
}

impl Inst {
    /// The width of the value this instruction defines, if it defines one.
    pub fn result_width(&self) -> Option<Width> {
        match self {
            Inst::Param { width, .. } | Inst::Const { width, .. } => Some(*width),
            Inst::GlobalAddr { .. } | Inst::Alloca { .. } => Some(Width::W32),
            Inst::Bin { width, .. } => Some(*width),
            Inst::Icmp { .. } => Some(Width::W1),
            Inst::Zext { to, .. } | Inst::Sext { to, .. } | Inst::Trunc { to, .. } => Some(*to),
            Inst::Load {
                width, speculative, ..
            } => Some(if *speculative { Width::W8 } else { *width }),
            Inst::Store { .. } => None,
            Inst::Select { width, .. } => Some(*width),
            Inst::Call { ret, .. } => *ret,
            Inst::Phi { width, .. } => Some(*width),
            Inst::Output { .. } => None,
        }
    }

    /// Whether this instruction is a φ-node.
    pub fn is_phi(&self) -> bool {
        matches!(self, Inst::Phi { .. })
    }

    /// Whether this instruction may observe or mutate memory or I/O.
    pub fn has_side_effects(&self) -> bool {
        // A speculative instruction can trap to its region handler — a
        // control-flow effect that must survive even when the result is
        // unused (compare elision replaces the consumer with a constant
        // and relies on the producer's trap to guard the prediction).
        if self.is_speculative() {
            return true;
        }
        match self {
            Inst::Store { .. } | Inst::Call { .. } | Inst::Output { .. } => true,
            Inst::Load { volatile, .. } => *volatile,
            // Division can trap; treat as effectful for DCE purposes.
            Inst::Bin { op, .. } => op.is_div_rem(),
            _ => false,
        }
    }

    /// Whether this instruction is *idempotent* in the sense of §3.2.3:
    /// re-executing it (after partial execution of its block) observes no
    /// additional side effects. Volatile operations, calls and output are
    /// non-idempotent.
    pub fn is_idempotent(&self) -> bool {
        match self {
            Inst::Call { .. } | Inst::Output { .. } => false,
            Inst::Load { volatile, .. } => !volatile,
            Inst::Store { volatile, .. } => !volatile,
            _ => true,
        }
    }

    /// Whether this instruction carries the speculative flag.
    pub fn is_speculative(&self) -> bool {
        match self {
            Inst::Bin { speculative, .. }
            | Inst::Trunc { speculative, .. }
            | Inst::Load { speculative, .. } => *speculative,
            _ => false,
        }
    }

    /// The value operands of this instruction, in operand order.
    pub fn operands(&self) -> Vec<ValueId> {
        let mut out = Vec::new();
        self.for_each_operand(|v| out.push(v));
        out
    }

    /// Calls `f` on every value operand, in operand order, without
    /// allocating.
    pub fn for_each_operand(&self, mut f: impl FnMut(ValueId)) {
        match self {
            Inst::Param { .. }
            | Inst::Const { .. }
            | Inst::GlobalAddr { .. }
            | Inst::Alloca { .. } => {}
            Inst::Bin { lhs, rhs, .. } | Inst::Icmp { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            Inst::Zext { arg, .. } | Inst::Sext { arg, .. } | Inst::Trunc { arg, .. } => f(*arg),
            Inst::Load { addr, .. } => f(*addr),
            Inst::Store { addr, value, .. } => {
                f(*addr);
                f(*value);
            }
            Inst::Select {
                cond, tval, fval, ..
            } => {
                f(*cond);
                f(*tval);
                f(*fval);
            }
            Inst::Call { args, .. } => args.iter().for_each(|a| f(*a)),
            Inst::Phi { incomings, .. } => incomings.iter().for_each(|(_, v)| f(*v)),
            Inst::Output { value } => f(*value),
        }
    }

    /// Applies `f` to every value operand in place.
    pub fn map_operands(&mut self, mut f: impl FnMut(ValueId) -> ValueId) {
        match self {
            Inst::Param { .. }
            | Inst::Const { .. }
            | Inst::GlobalAddr { .. }
            | Inst::Alloca { .. } => {}
            Inst::Bin { lhs, rhs, .. } | Inst::Icmp { lhs, rhs, .. } => {
                *lhs = f(*lhs);
                *rhs = f(*rhs);
            }
            Inst::Zext { arg, .. } | Inst::Sext { arg, .. } | Inst::Trunc { arg, .. } => {
                *arg = f(*arg);
            }
            Inst::Load { addr, .. } => *addr = f(*addr),
            Inst::Store { addr, value, .. } => {
                *addr = f(*addr);
                *value = f(*value);
            }
            Inst::Select {
                cond, tval, fval, ..
            } => {
                *cond = f(*cond);
                *tval = f(*tval);
                *fval = f(*fval);
            }
            Inst::Call { args, .. } => {
                for a in args {
                    *a = f(*a);
                }
            }
            Inst::Phi { incomings, .. } => {
                for (_, v) in incomings {
                    *v = f(*v);
                }
            }
            Inst::Output { value } => *value = f(*value),
        }
    }
}

/// Block terminators. Exactly one per block.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Terminator {
    /// Unconditional branch.
    Br(BlockId),
    /// Conditional branch on a `W1` value.
    CondBr {
        cond: ValueId,
        if_true: BlockId,
        if_false: BlockId,
    },
    /// Function return.
    Ret(Option<ValueId>),
    /// Statically unreachable point (e.g. after a diverging call).
    Unreachable,
}

impl Terminator {
    /// Branch-target successor blocks (in branch order).
    pub fn successors(&self) -> Vec<BlockId> {
        self.successor_slots().into_iter().flatten().collect()
    }

    /// The successors as two fixed slots (in branch order, unused slots
    /// `None`), for CFG walks that should not allocate per block.
    pub fn successor_slots(&self) -> [Option<BlockId>; 2] {
        match self {
            Terminator::Br(t) => [Some(*t), None],
            Terminator::CondBr {
                if_true, if_false, ..
            } => [Some(*if_true), Some(*if_false)],
            Terminator::Ret(_) | Terminator::Unreachable => [None, None],
        }
    }

    /// Applies `f` to every successor block id in place.
    pub fn map_successors(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Terminator::Br(t) => *t = f(*t),
            Terminator::CondBr {
                if_true, if_false, ..
            } => {
                *if_true = f(*if_true);
                *if_false = f(*if_false);
            }
            Terminator::Ret(_) | Terminator::Unreachable => {}
        }
    }

    /// The value operands of the terminator.
    pub fn operands(&self) -> Vec<ValueId> {
        let mut out = Vec::new();
        self.for_each_operand(|v| out.push(v));
        out
    }

    /// Calls `f` on every value operand, without allocating.
    pub fn for_each_operand(&self, mut f: impl FnMut(ValueId)) {
        match self {
            Terminator::CondBr { cond, .. } => f(*cond),
            Terminator::Ret(Some(v)) => f(*v),
            _ => {}
        }
    }

    /// Applies `f` to every value operand in place.
    pub fn map_operands(&mut self, mut f: impl FnMut(ValueId) -> ValueId) {
        match self {
            Terminator::CondBr { cond, .. } => *cond = f(*cond),
            Terminator::Ret(Some(v)) => *v = f(*v),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cc_eval_unsigned_and_signed() {
        assert!(Cc::Ult.eval(Width::W8, 1, 2));
        assert!(!Cc::Ult.eval(Width::W8, 2, 1));
        // 0xFF is -1 signed at W8 but 255 unsigned.
        assert!(Cc::Slt.eval(Width::W8, 0xFF, 0));
        assert!(Cc::Ugt.eval(Width::W8, 0xFF, 0));
        assert!(Cc::Eq.eval(Width::W8, 0x1FF, 0xFF)); // truncation before compare
    }

    #[test]
    fn cc_negation_and_swap_are_involutions() {
        for cc in [
            Cc::Eq,
            Cc::Ne,
            Cc::Ult,
            Cc::Ule,
            Cc::Ugt,
            Cc::Uge,
            Cc::Slt,
            Cc::Sle,
            Cc::Sgt,
            Cc::Sge,
        ] {
            assert_eq!(cc.negated().negated(), cc);
            assert_eq!(cc.swapped().swapped(), cc);
            // semantic checks
            for (a, b) in [(3u64, 5u64), (5, 3), (4, 4), (0xFF, 1)] {
                let w = Width::W8;
                assert_eq!(cc.eval(w, a, b), !cc.negated().eval(w, a, b));
                assert_eq!(cc.eval(w, a, b), cc.swapped().eval(w, b, a));
            }
        }
    }

    #[test]
    fn speculative_forms_exclude_mul_div() {
        assert!(BinOp::Add.has_speculative_form());
        assert!(BinOp::Xor.has_speculative_form());
        assert!(!BinOp::Mul.has_speculative_form());
        assert!(!BinOp::Udiv.has_speculative_form());
    }

    #[test]
    fn operand_mapping_roundtrip() {
        let mut i = Inst::Bin {
            op: BinOp::Add,
            width: Width::W32,
            lhs: ValueId(1),
            rhs: ValueId(2),
            speculative: false,
        };
        i.map_operands(|v| ValueId(v.0 + 10));
        assert_eq!(i.operands(), vec![ValueId(11), ValueId(12)]);
    }

    #[test]
    fn idempotency_classification() {
        assert!(Inst::Bin {
            op: BinOp::Add,
            width: Width::W32,
            lhs: ValueId(0),
            rhs: ValueId(1),
            speculative: false
        }
        .is_idempotent());
        assert!(!Inst::Output { value: ValueId(0) }.is_idempotent());
        assert!(!Inst::Call {
            callee: FuncId(0),
            args: vec![],
            ret: None
        }
        .is_idempotent());
        assert!(!Inst::Load {
            width: Width::W32,
            addr: ValueId(0),
            volatile: true,
            speculative: false
        }
        .is_idempotent());
    }
}
