//! Ergonomic construction of SIR functions.

use crate::func::Function;
use crate::inst::{BinOp, Cc, Inst, Terminator};
use crate::types::{BlockId, FuncId, ValueId, Width};

/// A cursor-style builder over a [`Function`].
///
/// The builder keeps an insertion block; instruction helpers append to it.
/// Terminator helpers seal the current block.
///
/// ```
/// use sir::builder::FunctionBuilder;
/// use sir::{BinOp, Width};
///
/// let mut b = FunctionBuilder::new("twice", vec![Width::W32], Some(Width::W32));
/// let x = b.param(0);
/// let y = b.bin(BinOp::Add, Width::W32, x, x);
/// b.ret(Some(y));
/// let f = b.finish();
/// assert_eq!(f.name, "twice");
/// ```
#[derive(Debug)]
pub struct FunctionBuilder {
    func: Function,
    cur: BlockId,
}

impl FunctionBuilder {
    /// Creates a builder positioned at the entry block.
    pub fn new(name: impl Into<String>, params: Vec<Width>, ret: Option<Width>) -> Self {
        let func = Function::new(name, params, ret);
        let cur = func.entry;
        FunctionBuilder { func, cur }
    }

    /// Consumes the builder, yielding the function.
    pub fn finish(self) -> Function {
        self.func
    }

    /// The function under construction (read access for tests).
    pub fn func(&self) -> &Function {
        &self.func
    }

    /// Current insertion block.
    pub fn current_block(&self) -> BlockId {
        self.cur
    }

    /// Creates a new (unsealed) block.
    pub fn new_block(&mut self) -> BlockId {
        self.func.add_block()
    }

    /// Moves the insertion point to `b`.
    pub fn switch_to(&mut self, b: BlockId) {
        self.cur = b;
    }

    /// Value id of parameter `i`.
    pub fn param(&self, i: usize) -> ValueId {
        self.func.param_value(i)
    }

    fn push(&mut self, inst: Inst) -> ValueId {
        self.func.append_inst(self.cur, inst)
    }

    /// Integer constant.
    pub fn iconst(&mut self, width: Width, value: u64) -> ValueId {
        self.push(Inst::Const {
            width,
            value: width.truncate(value),
        })
    }

    /// Stack allocation of `size` bytes.
    pub fn alloca(&mut self, size: u32) -> ValueId {
        self.push(Inst::Alloca { size })
    }

    /// Binary operation.
    pub fn bin(&mut self, op: BinOp, width: Width, lhs: ValueId, rhs: ValueId) -> ValueId {
        self.push(Inst::Bin {
            op,
            width,
            lhs,
            rhs,
            speculative: false,
        })
    }

    /// Comparison (yields a `W1`).
    pub fn icmp(&mut self, cc: Cc, width: Width, lhs: ValueId, rhs: ValueId) -> ValueId {
        self.push(Inst::Icmp {
            cc,
            width,
            lhs,
            rhs,
        })
    }

    /// Zero-extension.
    pub fn zext(&mut self, to: Width, arg: ValueId) -> ValueId {
        self.push(Inst::Zext { to, arg })
    }

    /// Sign-extension.
    pub fn sext(&mut self, to: Width, arg: ValueId) -> ValueId {
        self.push(Inst::Sext { to, arg })
    }

    /// Truncation.
    pub fn trunc(&mut self, to: Width, arg: ValueId) -> ValueId {
        self.push(Inst::Trunc {
            to,
            arg,
            speculative: false,
        })
    }

    /// Memory load.
    pub fn load(&mut self, width: Width, addr: ValueId) -> ValueId {
        self.push(Inst::Load {
            width,
            addr,
            volatile: false,
            speculative: false,
        })
    }

    /// Memory store.
    pub fn store(&mut self, width: Width, addr: ValueId, value: ValueId) {
        self.push(Inst::Store {
            width,
            addr,
            value,
            volatile: false,
        });
    }

    /// Select (`cond ? t : f`).
    pub fn select(&mut self, width: Width, cond: ValueId, t: ValueId, f: ValueId) -> ValueId {
        self.push(Inst::Select {
            width,
            cond,
            tval: t,
            fval: f,
        })
    }

    /// Direct call.
    pub fn call(&mut self, callee: FuncId, args: Vec<ValueId>, ret: Option<Width>) -> ValueId {
        self.push(Inst::Call { callee, args, ret })
    }

    /// φ-node. Must be created before non-φ instructions in the block; the
    /// verifier enforces ordering.
    pub fn phi(&mut self, width: Width, incomings: Vec<(BlockId, ValueId)>) -> ValueId {
        let v = self.func.add_inst(Inst::Phi { width, incomings });
        // Insert after existing φs, before other instructions.
        let blk = self.func.block_mut(self.cur);
        let at = blk.insts.len(); // appended below after computing position
        let _ = at;
        let pos = {
            let f = &self.func;
            f.block(self.cur)
                .insts
                .iter()
                .take_while(|x| f.inst(**x).is_phi())
                .count()
        };
        self.func.block_mut(self.cur).insts.insert(pos, v);
        v
    }

    /// Replaces the incoming edges of a previously created φ-node.
    ///
    /// # Panics
    /// Panics if `phi` is not a φ-node.
    pub fn set_phi_incomings(&mut self, phi: ValueId, incomings: Vec<(BlockId, ValueId)>) {
        match self.func.inst_mut(phi) {
            Inst::Phi { incomings: inc, .. } => *inc = incomings,
            other => panic!("{phi} is not a φ-node: {other:?}"),
        }
    }

    /// Mutable access to the function under construction, for surgery that
    /// the builder API does not cover.
    pub fn func_mut(&mut self) -> &mut Function {
        &mut self.func
    }

    /// Emits a value to the observable output stream.
    pub fn output(&mut self, value: ValueId) {
        self.push(Inst::Output { value });
    }

    /// Seals the current block with an unconditional branch.
    pub fn br(&mut self, target: BlockId) {
        self.func.block_mut(self.cur).term = Terminator::Br(target);
    }

    /// Seals the current block with a conditional branch.
    pub fn cond_br(&mut self, cond: ValueId, if_true: BlockId, if_false: BlockId) {
        self.func.block_mut(self.cur).term = Terminator::CondBr {
            cond,
            if_true,
            if_false,
        };
    }

    /// Seals the current block with a return.
    pub fn ret(&mut self, value: Option<ValueId>) {
        self.func.block_mut(self.cur).term = Terminator::Ret(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_loop_with_phi() {
        // The paper's running example: x = 0; do { x += 1 } while (x <= 255)
        let mut b = FunctionBuilder::new("count", vec![], Some(Width::W32));
        let zero = b.iconst(Width::W32, 0);
        let body = b.new_block();
        let exit = b.new_block();
        b.br(body);
        b.switch_to(body);
        let x0 = b.phi(Width::W32, vec![]);
        let one = b.iconst(Width::W32, 1);
        let x1 = b.bin(BinOp::Add, Width::W32, x0, one);
        let limit = b.iconst(Width::W32, 255);
        let c = b.icmp(Cc::Ule, Width::W32, x1, limit);
        b.cond_br(c, body, exit);
        // patch φ incomings
        let entry = b.func().entry;
        b.set_phi_incomings(x0, vec![(entry, zero), (body, x1)]);
        b.switch_to(exit);
        b.ret(Some(x1));
        let f = b.finish();
        assert_eq!(f.blocks.len(), 3);
        assert!(f.inst(x0).is_phi());
        // φ is first in the body block even though created after iconst calls
        assert_eq!(f.block(BlockId(1)).insts[0], x0);
    }

    #[test]
    fn phis_stay_grouped_at_head() {
        let mut b = FunctionBuilder::new("g", vec![], None);
        let blk = b.new_block();
        b.br(blk);
        b.switch_to(blk);
        let c = b.iconst(Width::W8, 1);
        let p1 = b.phi(Width::W8, vec![]);
        let p2 = b.phi(Width::W8, vec![]);
        b.ret(None);
        let f = b.finish();
        let insts = &f.block(blk).insts;
        assert_eq!(insts[0], p1);
        assert_eq!(insts[1], p2);
        assert_eq!(insts[2], c);
    }
}
