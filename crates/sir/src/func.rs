//! Functions, basic blocks and speculative regions.

use crate::inst::{Inst, Terminator};
use crate::types::{BlockId, RegionId, ValueId, Width};
use std::collections::HashMap;

/// A basic block: a list of instruction (value) ids plus one terminator.
#[derive(Clone, Debug)]
pub struct Block {
    /// Instructions in execution order. φ-nodes must come first.
    pub insts: Vec<ValueId>,
    /// The block terminator.
    pub term: Terminator,
    /// The speculative region containing this block, if any.
    pub region: Option<RegionId>,
    /// Set if this block is the misspeculation handler *for* a region.
    pub handler_for: Option<RegionId>,
}

impl Block {
    fn new() -> Block {
        Block {
            insts: Vec::new(),
            term: Terminator::Unreachable,
            region: None,
            handler_for: None,
        }
    }
}

/// A speculative region (§3.1.1): a single-entry single-exit sequence of
/// basic blocks with a unique misspeculation handler.
#[derive(Clone, Debug)]
pub struct Region {
    /// Blocks belonging to the region, entry first.
    pub blocks: Vec<BlockId>,
    /// The handler block, invoked iff an instruction in the region
    /// misspeculates. Never the target of an ordinary branch.
    pub handler: BlockId,
}

impl Region {
    /// The region entry block (`Entry : SR → BB`).
    pub fn entry(&self) -> BlockId {
        self.blocks[0]
    }
}

/// A SIR function in SSA form.
#[derive(Clone, Debug)]
pub struct Function {
    /// Symbol name.
    pub name: String,
    /// Parameter widths.
    pub params: Vec<Width>,
    /// Return width, or `None` for `void`.
    pub ret: Option<Width>,
    /// Value arena: `insts[v.index()]` is the defining instruction of `v`.
    pub insts: Vec<Inst>,
    /// Block arena.
    pub blocks: Vec<Block>,
    /// Speculative regions.
    pub regions: Vec<Region>,
    /// The entry block.
    pub entry: BlockId,
}

impl Function {
    /// Creates an empty function with a fresh entry block containing the
    /// parameter pseudo-instructions.
    pub fn new(name: impl Into<String>, params: Vec<Width>, ret: Option<Width>) -> Function {
        let mut f = Function {
            name: name.into(),
            params: params.clone(),
            ret,
            insts: Vec::new(),
            blocks: Vec::new(),
            regions: Vec::new(),
            entry: BlockId(0),
        };
        let entry = f.add_block();
        f.entry = entry;
        for (i, w) in params.iter().enumerate() {
            let v = f.add_inst(Inst::Param {
                index: i as u32,
                width: *w,
            });
            f.blocks[entry.index()].insts.push(v);
        }
        f
    }

    /// The value id of parameter `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn param_value(&self, i: usize) -> ValueId {
        assert!(i < self.params.len(), "parameter index out of range");
        self.blocks[self.entry.index()].insts[i]
    }

    /// Appends a new empty block and returns its id.
    pub fn add_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block::new());
        id
    }

    /// Adds an instruction to the value arena (not yet placed in a block).
    pub fn add_inst(&mut self, inst: Inst) -> ValueId {
        let id = ValueId(self.insts.len() as u32);
        self.insts.push(inst);
        id
    }

    /// Adds an instruction and appends it to `block`.
    pub fn append_inst(&mut self, block: BlockId, inst: Inst) -> ValueId {
        let v = self.add_inst(inst);
        self.blocks[block.index()].insts.push(v);
        v
    }

    /// Accessor for an instruction.
    pub fn inst(&self, v: ValueId) -> &Inst {
        &self.insts[v.index()]
    }

    /// Mutable accessor for an instruction.
    pub fn inst_mut(&mut self, v: ValueId) -> &mut Inst {
        &mut self.insts[v.index()]
    }

    /// Accessor for a block.
    pub fn block(&self, b: BlockId) -> &Block {
        &self.blocks[b.index()]
    }

    /// Mutable accessor for a block.
    pub fn block_mut(&mut self, b: BlockId) -> &mut Block {
        &mut self.blocks[b.index()]
    }

    /// Iterator over all block ids.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// The width of value `v`, if it produces one.
    pub fn value_width(&self, v: ValueId) -> Option<Width> {
        self.inst(v).result_width()
    }

    /// Registers a new speculative region. The handler block is marked.
    pub fn add_region(&mut self, blocks: Vec<BlockId>, handler: BlockId) -> RegionId {
        let id = RegionId(self.regions.len() as u32);
        for &b in &blocks {
            self.blocks[b.index()].region = Some(id);
        }
        self.blocks[handler.index()].handler_for = Some(id);
        self.regions.push(Region { blocks, handler });
        id
    }

    /// *Branch* successors of `b` (handler edges excluded).
    pub fn succs(&self, b: BlockId) -> Vec<BlockId> {
        self.block(b).term.successors()
    }

    /// Branch predecessor map for all blocks (handler edges excluded).
    pub fn branch_preds(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for b in self.block_ids() {
            for s in self.block(b).term.successor_slots().into_iter().flatten() {
                preds[s.index()].push(b);
            }
        }
        preds
    }

    /// SIR predecessor map (§3.1.2): like [`Function::branch_preds`], but a
    /// region handler additionally inherits the predecessors of the region
    /// entry (equation 1). This is what liveness and the verifier use to
    /// establish that values defined inside a region are dead in its handler.
    pub fn sir_preds(&self) -> Vec<Vec<BlockId>> {
        let mut preds = self.branch_preds();
        for r in &self.regions {
            let entry_preds = preds[r.entry().index()].clone();
            let hp = &mut preds[r.handler.index()];
            for p in entry_preds {
                if !hp.contains(&p) {
                    hp.push(p);
                }
            }
        }
        preds
    }

    /// Control-flow successor map *including* misspeculation edges: every
    /// block of a region may transfer control to the region handler. This is
    /// the conservative view used by liveness (SMIR semantics, equation 2).
    pub fn spec_succs(&self, b: BlockId) -> impl Iterator<Item = BlockId> {
        let slots = self.block(b).term.successor_slots();
        let handler = self
            .block(b)
            .region
            .map(|r| self.regions[r.index()].handler)
            .filter(|h| !slots.contains(&Some(*h)));
        slots.into_iter().flatten().chain(handler)
    }

    /// Reverse postorder from the entry block. Handler edges count, so
    /// handlers are reachable in RPO.
    pub fn rpo(&self) -> Vec<BlockId> {
        let post = crate::dataflow::Edges::of(self).postorder([self.entry.index()]);
        post.into_iter().rev().map(BlockId::from).collect()
    }

    /// Returns the number of φ-nodes at the head of `b`.
    pub fn phi_count(&self, b: BlockId) -> usize {
        self.block(b)
            .insts
            .iter()
            .take_while(|v| self.inst(**v).is_phi())
            .count()
    }

    /// Replaces every use of `from` with `to` across the whole function
    /// (instruction operands and terminators).
    pub fn replace_all_uses(&mut self, from: ValueId, to: ValueId) {
        let map = |v: ValueId| if v == from { to } else { v };
        for inst in &mut self.insts {
            inst.map_operands(map);
        }
        for block in &mut self.blocks {
            block.term.map_operands(map);
        }
    }

    /// Applies a bulk value substitution to all operands.
    pub fn rewrite_uses(&mut self, map: &HashMap<ValueId, ValueId>) {
        let f = |v: ValueId| *map.get(&v).unwrap_or(&v);
        for inst in &mut self.insts {
            inst.map_operands(f);
        }
        for block in &mut self.blocks {
            block.term.map_operands(f);
        }
    }

    /// Splits `b` before position `at` (an index into `insts`). The first
    /// `at` instructions stay in `b`; the rest move to a new block, which
    /// inherits the terminator, region membership and successor φ edges;
    /// `b` gets an unconditional branch to the new block. Returns the new
    /// block's id.
    pub fn split_block(&mut self, b: BlockId, at: usize) -> BlockId {
        let nb = self.add_block();
        let (tail, term) = {
            let blk = &mut self.blocks[b.index()];
            let tail = blk.insts.split_off(at);
            let term = std::mem::replace(&mut blk.term, Terminator::Br(nb));
            (tail, term)
        };
        let succs = term.successors();
        let region = self.blocks[b.index()].region;
        {
            let nblk = &mut self.blocks[nb.index()];
            nblk.insts = tail;
            nblk.term = term;
            nblk.region = region;
        }
        // Fix φ-incoming block ids in successors: edges from `b` now come
        // from `nb`.
        for s in succs {
            let phis: Vec<ValueId> = self.blocks[s.index()]
                .insts
                .iter()
                .copied()
                .filter(|v| self.inst(*v).is_phi())
                .collect();
            for p in phis {
                if let Inst::Phi { incomings, .. } = self.inst_mut(p) {
                    for (pb, _) in incomings {
                        if *pb == b {
                            *pb = nb;
                        }
                    }
                }
            }
        }
        nb
    }

    /// Total number of non-φ instructions (a static size metric used by the
    /// expander's auto-tuner).
    pub fn static_size(&self) -> usize {
        self.block_ids()
            .map(|b| {
                self.block(b)
                    .insts
                    .iter()
                    .filter(|v| !self.inst(**v).is_phi())
                    .count()
                    + 1 // terminator
            })
            .sum()
    }

    /// Removes blocks unreachable from the entry (via branch + handler
    /// edges), remapping block ids. Instructions stay in the arena; dangling
    /// φ edges from removed predecessors are pruned.
    pub fn remove_unreachable_blocks(&mut self) {
        let mut reach = vec![false; self.blocks.len()];
        for b in crate::dataflow::Edges::of(self).postorder([self.entry.index()]) {
            reach[b] = true;
        }
        if reach.iter().all(|r| *r) {
            return;
        }
        // Build remap.
        let mut remap: Vec<Option<BlockId>> = vec![None; self.blocks.len()];
        let mut new_blocks = Vec::new();
        for (i, keep) in reach.iter().enumerate() {
            if *keep {
                remap[i] = Some(BlockId(new_blocks.len() as u32));
                new_blocks.push(self.blocks[i].clone());
            }
        }
        let rm = |b: BlockId| remap[b.index()].expect("branch to removed block");
        for blk in &mut new_blocks {
            blk.term.map_successors(rm);
        }
        self.entry = rm(self.entry);
        // Prune φ edges from removed predecessors and remap the rest.
        let reach_set = reach;
        for inst in &mut self.insts {
            if let Inst::Phi { incomings, .. } = inst {
                incomings.retain(|(pb, _)| reach_set[pb.index()]);
                for (pb, _) in incomings {
                    *pb = remap[pb.index()].unwrap();
                }
            }
        }
        // Remap regions, dropping regions whose blocks vanished entirely.
        let mut new_regions = Vec::new();
        for r in &self.regions {
            let blocks: Vec<BlockId> = r
                .blocks
                .iter()
                .filter(|b| reach_set[b.index()])
                .map(|b| remap[b.index()].unwrap())
                .collect();
            if blocks.is_empty() || !reach_set[r.handler.index()] {
                continue;
            }
            new_regions.push(Region {
                blocks,
                handler: remap[r.handler.index()].unwrap(),
            });
        }
        // Rewrite region back-references.
        for blk in &mut new_blocks {
            blk.region = None;
            blk.handler_for = None;
        }
        self.blocks = new_blocks;
        self.regions = Vec::new();
        for r in new_regions {
            self.add_region(r.blocks, r.handler);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::BinOp;

    fn simple_fn() -> Function {
        // entry: v = a + b; br b1 / b2 on (v == 0); both ret.
        let mut f = Function::new("t", vec![Width::W32, Width::W32], Some(Width::W32));
        let e = f.entry;
        let a = f.param_value(0);
        let b = f.param_value(1);
        let v = f.append_inst(
            e,
            Inst::Bin {
                op: BinOp::Add,
                width: Width::W32,
                lhs: a,
                rhs: b,
                speculative: false,
            },
        );
        let z = f.append_inst(
            e,
            Inst::Const {
                width: Width::W32,
                value: 0,
            },
        );
        let c = f.append_inst(
            e,
            Inst::Icmp {
                cc: crate::Cc::Eq,
                width: Width::W32,
                lhs: v,
                rhs: z,
            },
        );
        let b1 = f.add_block();
        let b2 = f.add_block();
        f.block_mut(e).term = Terminator::CondBr {
            cond: c,
            if_true: b1,
            if_false: b2,
        };
        f.block_mut(b1).term = Terminator::Ret(Some(z));
        f.block_mut(b2).term = Terminator::Ret(Some(v));
        f
    }

    #[test]
    fn params_are_first_values() {
        let f = simple_fn();
        assert_eq!(f.param_value(0), ValueId(0));
        assert_eq!(f.param_value(1), ValueId(1));
        assert_eq!(f.value_width(f.param_value(0)), Some(Width::W32));
    }

    #[test]
    fn preds_and_succs() {
        let f = simple_fn();
        assert_eq!(f.succs(f.entry).len(), 2);
        let preds = f.branch_preds();
        assert_eq!(preds[1], vec![f.entry]);
        assert_eq!(preds[2], vec![f.entry]);
        assert!(preds[0].is_empty());
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_reachable() {
        let f = simple_fn();
        let rpo = f.rpo();
        assert_eq!(rpo[0], f.entry);
        assert_eq!(rpo.len(), 3);
    }

    #[test]
    fn split_block_moves_tail_and_rewires() {
        let mut f = simple_fn();
        let nb = f.split_block(f.entry, 3); // keep params + add
        assert_eq!(f.block(f.entry).insts.len(), 3);
        assert_eq!(f.block(nb).insts.len(), 2);
        assert_eq!(f.succs(f.entry), vec![nb]);
        assert_eq!(f.succs(nb).len(), 2);
    }

    #[test]
    fn handler_preds_inherit_region_entry_preds() {
        let mut f = simple_fn();
        // Make bb1 a speculative region with a handler block.
        let h = f.add_block();
        f.block_mut(h).term = Terminator::Ret(None);
        let b1 = BlockId(1);
        f.add_region(vec![b1], h);
        let preds = f.sir_preds();
        // Handler inherits entry's preds: preds(bb1) = {entry}.
        assert_eq!(preds[h.index()], vec![f.entry]);
        // Branch preds do not include the handler edge.
        assert!(f.branch_preds()[h.index()].is_empty());
        // spec_succs of region block includes the handler.
        assert!(f.spec_succs(b1).any(|s| s == h));
    }

    #[test]
    fn replace_all_uses_rewrites_terms() {
        let mut f = simple_fn();
        let v = ValueId(2); // the add
        let z = ValueId(3); // the const
        f.replace_all_uses(v, z);
        match &f.block(BlockId(2)).term {
            Terminator::Ret(Some(r)) => assert_eq!(*r, z),
            t => panic!("unexpected terminator {t:?}"),
        }
    }

    #[test]
    fn remove_unreachable_blocks_compacts() {
        let mut f = simple_fn();
        let dead = f.add_block();
        f.block_mut(dead).term = Terminator::Ret(None);
        assert_eq!(f.blocks.len(), 4);
        f.remove_unreachable_blocks();
        assert_eq!(f.blocks.len(), 3);
    }
}
