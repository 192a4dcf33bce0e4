//! Block-level liveness analysis.
//!
//! Liveness respects SIR/SMIR speculative-region semantics: every block of a
//! region has an implicit edge to the region's handler (equation 2 of
//! §3.1.3), so anything live into a handler stays live throughout its region.
//! φ-node operands are treated as uses at the end of the corresponding
//! predecessor, in the usual SSA fashion. Live sets are word-packed
//! [`BitRows`] solved by [`solve`], which the machine-IR register allocator
//! and verifier share through [`Graph`].

use crate::bitset::{BitRows, Idx, Row};
use crate::dataflow::{Edges, Graph};
use crate::func::Function;
use crate::inst::Inst;
use crate::types::{BlockId, ValueId};

/// Per-block live-in/live-out sets.
#[derive(Debug, Clone)]
pub struct Liveness {
    live_in: BitRows<ValueId>,
    live_out: BitRows<ValueId>,
}

impl Liveness {
    /// Computes liveness for `f` over branch + misspeculation edges.
    pub fn compute(f: &Function) -> Liveness {
        let (n, nv) = (f.blocks.len(), f.insts.len());
        // Per-block upward-exposed uses (excluding φ operands) and defs;
        // a φ operand flowing along edge p→b is live-out of p.
        let mut uses = BitRows::new(n, nv);
        let mut defs = BitRows::new(n, nv);
        let mut phi_out = BitRows::new(n, nv);
        for b in f.block_ids() {
            let bi = b.index();
            let mut use_op = |defs: &BitRows<ValueId>, op: ValueId| {
                if !defs.row(bi).contains(op) {
                    uses.insert(bi, op);
                }
            };
            for &v in &f.block(b).insts {
                let inst = f.inst(v);
                if let Inst::Phi { incomings, .. } = inst {
                    for (p, val) in incomings {
                        phi_out.insert(p.index(), *val);
                    }
                } else {
                    inst.for_each_operand(|op| use_op(&defs, op));
                }
                if inst.result_width().is_some() {
                    defs.insert(bi, v);
                }
            }
            f.block(b).term.for_each_operand(|op| use_op(&defs, op));
        }
        let (live_in, live_out) = solve(f, uses, defs, phi_out);
        Liveness { live_in, live_out }
    }

    /// Values live on entry to `b`, iterated in `ValueId` order.
    pub fn live_in_of(&self, b: BlockId) -> Row<'_, ValueId> {
        self.live_in.row(b.index())
    }

    /// Values live on exit from `b`, iterated in `ValueId` order.
    pub fn live_out_of(&self, b: BlockId) -> Row<'_, ValueId> {
        self.live_out.row(b.index())
    }
}

/// The least fixpoint of backward liveness over `g`: `out[n]` is the seed
/// row `out[n]` (φ uses at the end of `n`, or nothing) joined with `in[s]`
/// of every successor, and `in[n] = uses[n] ∪ (out[n] ∖ defs[n])`. Returns
/// `(live_in, live_out)`; the transient use/def rows are freed on return.
///
/// A postorder worklist: nodes are swept successors first (unreachable
/// components get their own DFS), revisiting only the predecessors of a
/// node whose live-in grew. Rows only grow, so order cannot change the
/// result.
///
/// Over a [`Reversed`](crate::dataflow::Reversed) graph the same equations
/// are a forward union problem: machine-IR definedness seeds `out[entry]`
/// with every vreg and reads "may be undefined at block entry" from the
/// returned `out` rows.
pub fn solve<G: Graph, I: Idx>(
    g: &G,
    uses: BitRows<I>,
    defs: BitRows<I>,
    mut out: BitRows<I>,
) -> (BitRows<I>, BitRows<I>) {
    let n = g.num_nodes();
    let succs = Edges::of(g);
    let preds = succs.reversed();
    let order = succs.postorder(std::iter::once(g.entry()).chain(0..n));
    let mut live_in = uses;
    let mut dirty = vec![true; n];
    while dirty.contains(&true) {
        for &u in &order {
            if !std::mem::replace(&mut dirty[u], false) {
                continue;
            }
            let o = out.row_mut(u);
            for &s in succs.succs(u) {
                for (w, x) in o.iter_mut().zip(live_in.row(s).words()) {
                    *w |= x;
                }
            }
            let mut grew = false;
            let (o, d) = (out.row(u).words(), defs.row(u).words());
            for ((w, &x), &k) in live_in.row_mut(u).iter_mut().zip(o).zip(d) {
                let next = *w | (x & !k);
                grew |= next != *w;
                *w = next;
            }
            if grew {
                preds.succs(u).iter().for_each(|&p| dirty[p] = true);
            }
        }
    }
    (live_in, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, Cc, Terminator};
    use crate::types::Width;

    #[test]
    fn straightline_liveness() {
        let mut b = FunctionBuilder::new("f", vec![Width::W32, Width::W32], Some(Width::W32));
        let x = b.param(0);
        let y = b.param(1);
        let s = b.bin(BinOp::Add, Width::W32, x, y);
        b.ret(Some(s));
        let f = b.finish();
        let lv = Liveness::compute(&f);
        // Params are defined in entry, so nothing is live-in.
        assert!(lv.live_in_of(f.entry).is_empty());
        assert!(lv.live_out_of(f.entry).is_empty());
    }

    #[test]
    fn loop_carries_liveness() {
        // entry -> body(phi x) -> body | exit; exit returns x.
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
        let f = b.finish();
        let lv = Liveness::compute(&f);
        // n is live into the loop body (used by the compare every iteration).
        assert!(lv.live_in_of(body).contains(n));
        // x1 is live out of body (φ use on backedge + use in exit).
        assert!(lv.live_out_of(body).contains(x1));
        // zero flows into body's φ, so it is live out of entry…
        assert!(lv.live_out_of(entry).contains(zero));
        // …but not live into body (φ semantics).
        assert!(!lv.live_in_of(body).contains(zero));
    }

    #[test]
    fn handler_uses_keep_values_live_through_region() {
        // entry defines k; region block r uses nothing; handler uses k.
        // k must be live-out of r because of the misspeculation edge.
        let mut f = crate::func::Function::new("f", vec![Width::W32], Some(Width::W32));
        let k = f.param_value(0);
        let r = f.add_block();
        let h = f.add_block();
        let exit = f.add_block();
        f.block_mut(f.entry).term = Terminator::Br(r);
        f.block_mut(r).term = Terminator::Br(exit);
        f.block_mut(h).term = Terminator::Ret(Some(k));
        let zero = f.append_inst(
            exit,
            crate::inst::Inst::Const {
                width: Width::W32,
                value: 0,
            },
        );
        f.block_mut(exit).term = Terminator::Ret(Some(zero));
        f.add_region(vec![r], h);
        let lv = Liveness::compute(&f);
        assert!(lv.live_in_of(r).contains(k));
        assert!(lv.live_in_of(h).contains(k));
    }
}
