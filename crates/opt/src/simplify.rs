//! Constant folding, algebraic simplification and add-chain reassociation.
//!
//! Kept deliberately small: enough to clean up after the expander (folded
//! induction-variable chains after unrolling, constant conditions after
//! inlining) without turning into a full InstCombine.

use interp::exec::eval_bin;
use sir::{BinOp, BlockId, Function, Inst, Module, Terminator, ValueId};
use std::collections::HashMap;

/// Applies simplifications until a fixpoint; returns rewrites performed.
pub fn run(m: &mut Module) -> usize {
    let mut total = 0;
    for fid in m.func_ids().collect::<Vec<_>>() {
        total += run_function(m.func_mut(fid));
    }
    total
}

/// Simplifies a single function.
pub fn run_function(f: &mut Function) -> usize {
    let mut rewrites = 0;
    loop {
        let n = pass(f);
        rewrites += n;
        if n == 0 {
            break;
        }
    }
    // Fold constant conditional branches so unrolled exit checks vanish.
    rewrites += fold_branches(f);
    rewrites += merge_blocks(f);
    rewrites
}

/// Merges `b → t` pairs where `t` has `b` as its only predecessor
/// (simplifycfg): removes the intermediate unconditional branch, which is
/// where unrolled loop copies recover their dynamic-instruction savings.
/// Regions and handlers are never merged across.
///
/// Pairs merge in ascending order of `b`. The predecessor map is updated
/// in place, and the scan resumes at the merged block: a merge at `b`
/// only renames `t` to `b` in its successors' predecessor lists, so it
/// cannot make a pair at a lower-numbered block mergeable.
fn merge_blocks(f: &mut Function) -> usize {
    let mut preds = f.branch_preds();
    let mut merged = 0;
    let mut next = 0;
    while next < f.blocks.len() {
        let b = BlockId(next as u32);
        let t = match f.block(b).term {
            Terminator::Br(t)
                if f.block(b).region.is_none()
                    && f.block(b).handler_for.is_none()
                    && t != b
                    && t != f.entry
                    && preds[t.index()].len() == 1
                    && f.block(t).region.is_none()
                    && f.block(t).handler_for.is_none()
                    && f.phi_count(t) == 0 =>
            {
                t
            }
            _ => {
                next += 1;
                continue;
            }
        };
        let tail = std::mem::take(&mut f.block_mut(t).insts);
        let term = std::mem::replace(&mut f.block_mut(t).term, Terminator::Unreachable);
        f.block_mut(b).insts.extend(tail);
        f.block_mut(b).term = term;
        preds[t.index()].clear();
        // b's new successors: edges and φs from t now come from b.
        for s in f.succs(b) {
            for p in &mut preds[s.index()] {
                if *p == t {
                    *p = b;
                }
            }
            let phis: Vec<ValueId> = f
                .block(s)
                .insts
                .iter()
                .copied()
                .filter(|v| f.inst(*v).is_phi())
                .collect();
            for p in phis {
                if let Inst::Phi { incomings, .. } = f.inst_mut(p) {
                    for (pb, _) in incomings {
                        if *pb == t {
                            *pb = b;
                        }
                    }
                }
            }
        }
        merged += 1;
    }
    if merged > 0 {
        f.remove_unreachable_blocks();
    }
    merged
}

fn const_of(f: &Function, v: ValueId) -> Option<(sir::Width, u64)> {
    match f.inst(v) {
        Inst::Const { width, value } => Some((*width, *value)),
        _ => None,
    }
}

fn pass(f: &mut Function) -> usize {
    let mut replace: HashMap<ValueId, ValueId> = HashMap::new();
    let mut rewritten = 0;
    for b in f.block_ids().collect::<Vec<_>>() {
        for i in 0..f.block(b).insts.len() {
            let v = f.block(b).insts[i];
            if replace.contains_key(&v) {
                continue;
            }
            let inst = f.inst(v).clone();
            match inst {
                Inst::Bin {
                    op,
                    width,
                    lhs,
                    rhs,
                    speculative: false,
                } => {
                    let lc = const_of(f, lhs);
                    let rc = const_of(f, rhs);
                    // Constant folding.
                    if let (Some((_, a)), Some((_, c))) = (lc, rc) {
                        if let Some(r) = eval_bin(op, width, a, c) {
                            *f.inst_mut(v) = Inst::Const { width, value: r };
                            rewritten += 1;
                            continue;
                        }
                    }
                    // Identities.
                    if let Some((_, c)) = rc {
                        let id = match op {
                            BinOp::Add
                            | BinOp::Sub
                            | BinOp::Or
                            | BinOp::Xor
                            | BinOp::Shl
                            | BinOp::Lshr
                            | BinOp::Ashr => c == 0,
                            BinOp::Mul | BinOp::Udiv | BinOp::Sdiv => c == 1,
                            BinOp::And => c == width.mask(),
                            _ => false,
                        };
                        if id {
                            replace.insert(v, lhs);
                            rewritten += 1;
                            continue;
                        }
                        // x * 0, x & 0 → 0
                        if c == 0 && matches!(op, BinOp::Mul | BinOp::And) {
                            *f.inst_mut(v) = Inst::Const { width, value: 0 };
                            rewritten += 1;
                            continue;
                        }
                    }
                    if let Some((_, c)) = lc {
                        if c == 0 && matches!(op, BinOp::Add | BinOp::Or | BinOp::Xor) {
                            replace.insert(v, rhs);
                            rewritten += 1;
                            continue;
                        }
                    }
                    // Reassociation: (x op c1) op c2 → x op (c1 op c2) for
                    // associative ops — collapses unrolled induction chains.
                    if matches!(
                        op,
                        BinOp::Add | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Mul
                    ) {
                        if let Some((_, c2)) = rc {
                            if let Inst::Bin {
                                op: iop,
                                width: iw,
                                lhs: ilhs,
                                rhs: irhs,
                                speculative: false,
                            } = f.inst(lhs).clone()
                            {
                                if iop == op && iw == width {
                                    if let Some((_, c1)) = const_of(f, irhs) {
                                        let folded = eval_bin(op, width, c1, c2)
                                            .expect("assoc ops cannot trap");
                                        // Reuse v as the new op; materialize
                                        // the folded constant in place.
                                        let cval = f.add_inst(Inst::Const {
                                            width,
                                            value: folded,
                                        });
                                        let pos = f.block(b).insts[..=i]
                                            .iter()
                                            .position(|x| *x == v)
                                            .unwrap();
                                        f.block_mut(b).insts.insert(pos, cval);
                                        *f.inst_mut(v) = Inst::Bin {
                                            op,
                                            width,
                                            lhs: ilhs,
                                            rhs: cval,
                                            speculative: false,
                                        };
                                        rewritten += 1;
                                        continue;
                                    }
                                }
                            }
                        }
                    }
                }
                Inst::Icmp {
                    cc,
                    width,
                    lhs,
                    rhs,
                } => {
                    if let (Some((_, a)), Some((_, c))) = (const_of(f, lhs), const_of(f, rhs)) {
                        let r = u64::from(cc.eval(width, a, c));
                        *f.inst_mut(v) = Inst::Const {
                            width: sir::Width::W1,
                            value: r,
                        };
                        rewritten += 1;
                    }
                }
                Inst::Zext { to, arg } => {
                    if let Some((_, a)) = const_of(f, arg) {
                        *f.inst_mut(v) = Inst::Const {
                            width: to,
                            value: a,
                        };
                        rewritten += 1;
                    }
                }
                Inst::Sext { to, arg } => {
                    if let Some((w, a)) = const_of(f, arg) {
                        *f.inst_mut(v) = Inst::Const {
                            width: to,
                            value: to.truncate(w.sext_to_64(a) as u64),
                        };
                        rewritten += 1;
                    }
                }
                Inst::Trunc {
                    to,
                    arg,
                    speculative: false,
                } => {
                    if let Some((_, a)) = const_of(f, arg) {
                        *f.inst_mut(v) = Inst::Const {
                            width: to,
                            value: to.truncate(a),
                        };
                        rewritten += 1;
                    }
                }
                Inst::Select {
                    cond, tval, fval, ..
                } => {
                    if let Some((_, c)) = const_of(f, cond) {
                        replace.insert(v, if c & 1 == 1 { tval } else { fval });
                        rewritten += 1;
                    }
                }
                Inst::Phi { incomings, .. } => {
                    // φ with identical (or single) incomings collapses; a φ
                    // referencing only itself plus one value is also trivial.
                    let distinct: Vec<ValueId> = {
                        let mut d: Vec<ValueId> = incomings
                            .iter()
                            .map(|(_, x)| *x)
                            .filter(|x| *x != v)
                            .collect();
                        d.sort();
                        d.dedup();
                        d
                    };
                    if distinct.len() == 1 {
                        replace.insert(v, distinct[0]);
                        rewritten += 1;
                    }
                }
                _ => {}
            }
        }
    }
    if !replace.is_empty() {
        // Resolve chains a→b→c.
        let resolve = |mut v: ValueId| {
            let mut seen = 0;
            while let Some(n) = replace.get(&v) {
                v = *n;
                seen += 1;
                if seen > replace.len() {
                    break;
                }
            }
            v
        };
        let final_map: HashMap<ValueId, ValueId> =
            replace.keys().map(|k| (*k, resolve(*k))).collect();
        f.rewrite_uses(&final_map);
        for b in f.block_ids().collect::<Vec<_>>() {
            let keep: Vec<ValueId> = f
                .block(b)
                .insts
                .iter()
                .copied()
                .filter(|v| !final_map.contains_key(v))
                .collect();
            f.block_mut(b).insts = keep;
        }
    }
    rewritten
}

/// Rewrites `condbr` on constants to unconditional branches and prunes the
/// dead φ edges / unreachable blocks this creates.
fn fold_branches(f: &mut Function) -> usize {
    let mut n = 0;
    for b in f.block_ids().collect::<Vec<_>>() {
        if let Terminator::CondBr {
            cond,
            if_true,
            if_false,
        } = f.block(b).term.clone()
        {
            if let Some((_, c)) = const_of(f, cond) {
                let (taken, dead) = if c & 1 == 1 {
                    (if_true, if_false)
                } else {
                    (if_false, if_true)
                };
                f.block_mut(b).term = Terminator::Br(taken);
                n += 1;
                if taken != dead {
                    // Remove the φ edge from b in the dead target.
                    let phis: Vec<ValueId> = f
                        .block(dead)
                        .insts
                        .iter()
                        .copied()
                        .filter(|v| f.inst(*v).is_phi())
                        .collect();
                    for p in phis {
                        if let Inst::Phi { incomings, .. } = f.inst_mut(p) {
                            incomings.retain(|(pb, _)| *pb != b);
                        }
                    }
                }
            }
        }
    }
    if n > 0 {
        f.remove_unreachable_blocks();
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simplified(src: &str) -> Module {
        let mut m = lang::compile("t", src).unwrap();
        run(&mut m);
        crate::dce::run(&mut m);
        sir::verify::verify_module(&m).expect("simplified module must verify");
        m
    }

    fn count_bins(f: &Function) -> usize {
        f.block_ids()
            .flat_map(|b| f.block(b).insts.clone())
            .filter(|v| matches!(f.inst(*v), Inst::Bin { .. }))
            .count()
    }

    #[test]
    fn folds_constants() {
        let m = simplified("u32 f() { return 2 + 3 * 4; }");
        let f = m.func(m.func_by_name("f").unwrap());
        assert_eq!(count_bins(f), 0);
    }

    #[test]
    fn removes_identities() {
        let m = simplified("u32 f(u32 x) { return (x + 0) * 1; }");
        let f = m.func(m.func_by_name("f").unwrap());
        assert_eq!(count_bins(f), 0);
    }

    #[test]
    fn reassociates_add_chain() {
        let m = simplified("u32 f(u32 x) { return x + 1 + 2 + 3; }");
        let f = m.func(m.func_by_name("f").unwrap());
        assert_eq!(count_bins(f), 1, "x+1+2+3 should fold to x+6");
    }

    #[test]
    fn folds_constant_branch() {
        let m = simplified("u32 f() { if (1 < 2) { return 5; } return 6; }");
        let f = m.func(m.func_by_name("f").unwrap());
        assert_eq!(f.blocks.len(), 1, "constant branch should be folded away");
    }

    /// `e → {a, d}`, `a → b → c → d`, and `d` has a φ incoming from `c`:
    /// one call folds `b` and `c` into `a` and renames the φ edge to `a`.
    #[test]
    fn merge_blocks_collapses_chain_and_renames_phi_edges() {
        use sir::builder::FunctionBuilder;
        use sir::Width;
        let mut fb = FunctionBuilder::new("chain", vec![Width::W1], Some(Width::W32));
        let p = fb.param(0);
        let v0 = fb.iconst(Width::W32, 7);
        let e = fb.current_block();
        let a = fb.new_block();
        let b = fb.new_block();
        let c = fb.new_block();
        let d = fb.new_block();
        fb.cond_br(p, a, d);
        fb.switch_to(a);
        let va = fb.iconst(Width::W32, 1);
        fb.br(b);
        fb.switch_to(b);
        let vb = fb.bin(BinOp::Add, Width::W32, va, va);
        fb.br(c);
        fb.switch_to(c);
        let vc = fb.bin(BinOp::Mul, Width::W32, vb, va);
        fb.br(d);
        fb.switch_to(d);
        let phi = fb.phi(Width::W32, vec![(e, v0), (c, vc)]);
        fb.ret(Some(phi));
        let mut f = fb.finish();

        assert_eq!(merge_blocks(&mut f), 2);
        sir::verify::verify_function(&f).expect("merged function verifies");
        // b and c are gone; a (still block 1) holds the whole chain and
        // d is renumbered to block 2.
        assert_eq!(f.blocks.len(), 3);
        let (a, d) = (BlockId(1), BlockId(2));
        assert_eq!(f.block(a).insts, vec![va, vb, vc]);
        assert_eq!(f.block(a).term, Terminator::Br(d));
        let Inst::Phi { incomings, .. } = f.inst(phi) else {
            panic!("φ expected");
        };
        assert_eq!(incomings, &vec![(e, v0), (a, vc)]);
    }

    #[test]
    fn preserves_semantics() {
        let src = "u32 f(u32 x) { return (x + 0) + (3 * 7) + (x << 0); }";
        let m0 = lang::compile("t", src).unwrap();
        let m1 = simplified(src);
        for x in [0u64, 1, 77, 0xFFFF_FFFF] {
            let mut i0 = interp::Interpreter::new(&m0);
            let mut i1 = interp::Interpreter::new(&m1);
            let r0 = i0.run("f", &[x]).unwrap();
            let r1 = i1.run("f", &[x]).unwrap();
            assert_eq!(r0.ret, r1.ret, "mismatch at x={x}");
        }
    }
}
