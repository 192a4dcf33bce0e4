//! Dominator tree computation (Cooper–Harvey–Kennedy).

use crate::dataflow::Edges;
use crate::func::Function;
use crate::types::{BlockId, ValueId};
use std::collections::HashMap;

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
        DomTree {
            idom,
            rpo_index,
            rpo,
        }
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

    /// Whether `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut x = b;
        loop {
            if x == a {
                return true;
            }
            match self.idom[x.index()] {
                Some(i) if i != x => x = i,
                _ => return false,
            }
        }
    }

    /// Whether block `b` is reachable from the entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_index[b.index()].is_some()
    }
}

/// Maps every value to its defining block. Values not placed in any block
/// (detached) are absent.
pub fn def_blocks(f: &Function) -> HashMap<ValueId, BlockId> {
    let mut m = HashMap::new();
    for b in f.block_ids() {
        for &v in &f.block(b).insts {
            m.insert(v, b);
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
        assert_eq!(map[&v], m);
        assert_eq!(map[&f.param_value(0)], f.entry);
    }
}
