//! Dominator tree computation (Cooper–Harvey–Kennedy), with O(1)
//! dominance queries from preorder intervals over the tree.

use crate::dataflow::Edges;
use crate::func::Function;
use crate::types::BlockId;

/// The dominator tree of a function's CFG (branch + handler edges).
#[derive(Debug, Clone)]
pub struct DomTree {
    /// Immediate dominator of each block (`idom[entry] == entry`);
    /// `None` for unreachable blocks.
    pub idom: Vec<Option<BlockId>>,
    /// RPO index of each reachable block.
    rpo_index: Vec<Option<usize>>,
    /// RPO ordering used for the fixpoint.
    pub rpo: Vec<BlockId>,
    /// Preorder number of each reachable block in the dominator tree.
    pre: Vec<u32>,
    /// Dominator-subtree size of each block (0 for unreachable blocks):
    /// `a` dominates `b` iff `pre[b]` lies in `pre[a]..pre[a] + size[a]`.
    size: Vec<u32>,
}

impl DomTree {
    /// Computes the dominator tree of `f`.
    pub fn compute(f: &Function) -> DomTree {
        // Traversal edges (branch + handler edges), as `Function::rpo` uses.
        let succs = Edges::of(f);
        let preds = succs.reversed();
        let post = succs.postorder([f.entry.index()]);
        let rpo: Vec<BlockId> = post.into_iter().rev().map(BlockId::from).collect();
        let n = f.blocks.len();
        let mut rpo_index = vec![None; n];
        for (i, b) in rpo.iter().enumerate() {
            rpo_index[b.index()] = Some(i);
        }
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        idom[f.entry.index()] = Some(f.entry);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for p in preds.succs(b.index()).iter().map(|&p| BlockId::from(p)) {
                    if idom[p.index()].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => Self::intersect(&idom, &rpo_index, p, cur),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.index()] != Some(ni) {
                        idom[b.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        let (pre, size) = Self::number(&idom, &rpo);
        DomTree {
            idom,
            rpo_index,
            rpo,
            pre,
            size,
        }
    }

    /// Numbers the dominator tree in preorder without building child
    /// lists. A block's idom precedes it in RPO, so one backward sweep
    /// sums subtree sizes and one forward sweep hands each child the next
    /// free slot of its parent's interval.
    fn number(idom: &[Option<BlockId>], rpo: &[BlockId]) -> (Vec<u32>, Vec<u32>) {
        let n = idom.len();
        let mut size = vec![0u32; n];
        for &b in rpo.iter().rev() {
            size[b.index()] += 1;
            let p = idom[b.index()].expect("reachable");
            if p != b {
                size[p.index()] += size[b.index()];
            }
        }
        let mut pre = vec![0u32; n];
        // `next[b]`: the first preorder slot not yet handed to a child of b.
        let mut next = vec![0u32; n];
        for &b in rpo {
            let p = idom[b.index()].expect("reachable");
            if p != b {
                pre[b.index()] = next[p.index()];
                next[p.index()] += size[b.index()];
            }
            next[b.index()] = pre[b.index()] + 1;
        }
        (pre, size)
    }

    fn intersect(
        idom: &[Option<BlockId>],
        rpo_index: &[Option<usize>],
        mut a: BlockId,
        mut b: BlockId,
    ) -> BlockId {
        let idx = |x: BlockId| rpo_index[x.index()].expect("reachable");
        while a != b {
            while idx(a) > idx(b) {
                a = idom[a.index()].expect("reachable");
            }
            while idx(b) > idx(a) {
                b = idom[b.index()].expect("reachable");
            }
        }
        a
    }

    /// Whether `a` dominates `b` (reflexive; an unreachable block
    /// dominates only itself and is dominated by nothing else). O(1).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if a == b {
            return true;
        }
        let (a, b) = (a.index(), b.index());
        self.size[a] > 0
            && self.size[b] > 0
            && self.pre[a] <= self.pre[b]
            && self.pre[b] < self.pre[a] + self.size[a]
    }

    /// Whether block `b` is reachable from the entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_index[b.index()].is_some()
    }
}

/// The defining block of every value, indexed by value id: `None` for a
/// value placed in no block (detached). A value placed more than once maps
/// to its last placement in block order.
pub fn def_blocks(f: &Function) -> Vec<Option<BlockId>> {
    let mut m = vec![None; f.insts.len()];
    for b in f.block_ids() {
        for &v in &f.block(b).insts {
            m[v.index()] = Some(b);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Inst, Terminator};
    use crate::types::Width;

    /// Diamond: e -> a, b; a,b -> m.
    fn diamond() -> Function {
        let mut f = Function::new("d", vec![Width::W1], None);
        let e = f.entry;
        let c = f.param_value(0);
        let a = f.add_block();
        let b = f.add_block();
        let m = f.add_block();
        f.block_mut(e).term = Terminator::CondBr {
            cond: c,
            if_true: a,
            if_false: b,
        };
        f.block_mut(a).term = Terminator::Br(m);
        f.block_mut(b).term = Terminator::Br(m);
        f.block_mut(m).term = Terminator::Ret(None);
        f
    }

    #[test]
    fn diamond_idoms() {
        let f = diamond();
        let dt = DomTree::compute(&f);
        let e = f.entry;
        assert_eq!(dt.idom[1], Some(e));
        assert_eq!(dt.idom[2], Some(e));
        assert_eq!(dt.idom[3], Some(e)); // merge dominated by entry, not a or b
        assert!(dt.dominates(e, BlockId(3)));
        assert!(!dt.dominates(BlockId(1), BlockId(3)));
        assert!(dt.dominates(BlockId(3), BlockId(3)));
    }

    #[test]
    fn unreachable_block_has_no_idom() {
        let mut f = diamond();
        let dead = f.add_block();
        f.block_mut(dead).term = Terminator::Ret(None);
        let dt = DomTree::compute(&f);
        assert!(dt.idom[dead.index()].is_none());
        assert!(!dt.is_reachable(dead));
    }

    #[test]
    fn def_block_map_covers_placed_values() {
        let mut f = diamond();
        let m = BlockId(3);
        let v = f.append_inst(
            m,
            Inst::Const {
                width: Width::W8,
                value: 1,
            },
        );
        let map = def_blocks(&f);
        assert_eq!(map[v.index()], Some(m));
        assert_eq!(map[f.param_value(0).index()], Some(f.entry));
    }
}
