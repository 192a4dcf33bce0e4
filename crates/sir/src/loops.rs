//! Natural loop detection, used by the expander's unroller.

use crate::dom::DomTree;
use crate::func::Function;
use crate::types::BlockId;

/// A natural loop: a back edge `latch → header` plus the set of blocks that
/// can reach the latch without passing through the header.
#[derive(Debug, Clone)]
pub struct NaturalLoop {
    pub header: BlockId,
    pub latch: BlockId,
    /// All blocks in the loop, including header and latch, in ascending
    /// block order.
    pub blocks: Vec<BlockId>,
}

impl NaturalLoop {
    /// Number of blocks in the loop body.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Whether `b` belongs to the loop.
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.binary_search(&b).is_ok()
    }

    /// Blocks outside the loop targeted by branches from inside (loop
    /// exits), in deterministic (sorted-block) order.
    pub fn exit_targets(&self, f: &Function) -> Vec<BlockId> {
        let mut out = Vec::new();
        for &b in &self.blocks {
            for s in f.succs(b) {
                if !self.contains(s) && !out.contains(&s) {
                    out.push(s);
                }
            }
        }
        out
    }
}

/// Finds all natural loops of `f` (one per back edge), ordered by latch
/// block and then by the latch's branch order. Back edges through
/// speculative-region handler edges are ignored: loops are a branch-CFG
/// concept.
///
/// One dominator tree and one predecessor map serve every back edge; each
/// loop's block walk costs only that loop's size.
pub fn find_loops(f: &Function) -> Vec<NaturalLoop> {
    let dt = DomTree::compute(f);
    let preds = f.branch_preds();
    // `seen[b] == i + 1` once `b` joined loop `i`: one marker array for
    // all loops instead of a fresh set per back edge.
    let mut seen = vec![0usize; f.blocks.len()];
    let mut loops = Vec::new();
    for b in f.block_ids() {
        if !dt.is_reachable(b) {
            continue;
        }
        for s in f.block(b).term.successor_slots().into_iter().flatten() {
            if dt.dominates(s, b) {
                loops.push(collect_loop(&preds, &mut seen, loops.len() + 1, s, b));
            }
        }
    }
    loops
}

fn collect_loop(
    preds: &[Vec<BlockId>],
    seen: &mut [usize],
    mark: usize,
    header: BlockId,
    latch: BlockId,
) -> NaturalLoop {
    seen[header.index()] = mark;
    let mut blocks = vec![header];
    let mut work = vec![latch];
    while let Some(b) = work.pop() {
        if seen[b.index()] != mark {
            seen[b.index()] = mark;
            blocks.push(b);
            work.extend_from_slice(&preds[b.index()]);
        }
    }
    blocks.sort_unstable();
    NaturalLoop {
        header,
        latch,
        blocks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, Cc};
    use crate::types::Width;

    fn counting_loop() -> (Function, BlockId) {
        let mut b = FunctionBuilder::new("f", vec![Width::W32], Some(Width::W32));
        let n = b.param(0);
        let zero = b.iconst(Width::W32, 0);
        let body = b.new_block();
        let exit = b.new_block();
        b.br(body);
        b.switch_to(body);
        let x = b.phi(Width::W32, vec![]);
        let one = b.iconst(Width::W32, 1);
        let x1 = b.bin(BinOp::Add, Width::W32, x, one);
        let c = b.icmp(Cc::Ult, Width::W32, x1, n);
        b.cond_br(c, body, exit);
        let entry = b.func().entry;
        b.set_phi_incomings(x, vec![(entry, zero), (body, x1)]);
        b.switch_to(exit);
        b.ret(Some(x1));
        (b.finish(), body)
    }

    #[test]
    fn finds_single_block_loop() {
        let (f, body) = counting_loop();
        let loops = find_loops(&f);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].header, body);
        assert_eq!(loops[0].latch, body);
        assert_eq!(loops[0].blocks.len(), 1);
    }

    #[test]
    fn exit_targets_of_loop() {
        let (f, _) = counting_loop();
        let loops = find_loops(&f);
        let exits = loops[0].exit_targets(&f);
        assert_eq!(exits.len(), 1);
    }

    /// `for i { for j { } }`: outer header `oh` → inner header `ih` ⇄
    /// inner latch `il`, then outer latch `ol` → `oh`; `oh` also exits.
    #[test]
    fn finds_nested_loops_with_their_blocks() {
        let mut b = FunctionBuilder::new("n", vec![Width::W1], None);
        let c = b.param(0);
        let oh = b.new_block();
        let ih = b.new_block();
        let il = b.new_block();
        let ol = b.new_block();
        let exit = b.new_block();
        b.br(oh);
        b.switch_to(oh);
        b.cond_br(c, ih, exit);
        b.switch_to(ih);
        b.br(il);
        b.switch_to(il);
        b.cond_br(c, ih, ol);
        b.switch_to(ol);
        b.br(oh);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let loops = find_loops(&f);
        // Ordered by latch: the inner latch precedes the outer one.
        assert_eq!(loops.len(), 2);
        assert_eq!((loops[0].header, loops[0].latch), (ih, il));
        assert_eq!(loops[0].blocks, vec![ih, il]);
        assert_eq!((loops[1].header, loops[1].latch), (oh, ol));
        assert_eq!(loops[1].blocks, vec![oh, ih, il, ol]);
        assert!(loops[1].contains(ih) && !loops[1].contains(exit));
        assert_eq!(loops[1].exit_targets(&f), vec![exit]);
    }

    /// One header `h` with two latches (`continue` and the loop end): one
    /// loop per back edge, each holding only the blocks reaching its latch.
    #[test]
    fn two_latches_give_one_loop_per_back_edge() {
        let mut b = FunctionBuilder::new("t", vec![Width::W1], None);
        let c = b.param(0);
        let h = b.new_block();
        let l1 = b.new_block();
        let mid = b.new_block();
        let l2 = b.new_block();
        let exit = b.new_block();
        b.br(h);
        b.switch_to(h);
        b.cond_br(c, l1, exit);
        b.switch_to(l1);
        b.cond_br(c, h, mid);
        b.switch_to(mid);
        b.br(l2);
        b.switch_to(l2);
        b.br(h);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let loops = find_loops(&f);
        assert_eq!(loops.len(), 2);
        assert_eq!((loops[0].header, loops[0].latch), (h, l1));
        assert_eq!(loops[0].blocks, vec![h, l1]);
        assert_eq!((loops[1].header, loops[1].latch), (h, l2));
        assert_eq!(loops[1].blocks, vec![h, l1, mid, l2]);
    }

    #[test]
    fn no_loops_in_straightline() {
        let mut b = FunctionBuilder::new("g", vec![], None);
        b.ret(None);
        let f = b.finish();
        assert!(find_loops(&f).is_empty());
    }
}
