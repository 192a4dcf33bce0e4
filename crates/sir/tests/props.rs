//! Deterministic property tests of the IR's core data structures and
//! analyses: the former proptest strategies are replaced by fixed
//! adversarial value sets and exhaustive small-pattern enumeration so the
//! suite runs offline with no external dependencies.

#[path = "support/liveness_oracle.rs"]
mod liveness_oracle;

use sir::builder::FunctionBuilder;
use sir::dom::DomTree;
use sir::liveness::Liveness;
use sir::types::required_bits;
use sir::{BinOp, BlockId, Cc, Function, Inst, Terminator, Width};

/// Boundary-heavy 64-bit values: powers of two and their neighbours, plus
/// mixed bit patterns — the cases where bit-length and sign logic break.
fn interesting_u64() -> Vec<u64> {
    let mut vs = vec![0u64, u64::MAX, 0xAAAA_AAAA_AAAA_AAAA, 0x5555_5555_5555_5555];
    for b in 0..64 {
        let p = 1u64 << b;
        vs.push(p);
        vs.push(p.wrapping_sub(1));
        vs.push(p.wrapping_add(1));
        vs.push(p.wrapping_mul(0x9E37_79B9));
    }
    vs
}

/// `required_bits` is the inverse of a bit-length bound.
#[test]
fn required_bits_bounds_value() {
    for v in interesting_u64() {
        let b = required_bits(v);
        assert!((1..=64).contains(&b), "v={v:#x} b={b}");
        if b < 64 {
            assert!(v < (1u64 << b), "v={v:#x} b={b}");
        }
        if v > 0 {
            assert!(v >= (1u64 << (b - 1)), "v={v:#x} b={b}");
        }
    }
}

/// Truncation is idempotent and masks exactly.
#[test]
fn width_truncate_idempotent() {
    for v in interesting_u64() {
        for w in Width::ALL {
            let t = w.truncate(v);
            assert_eq!(w.truncate(t), t);
            assert_eq!(t, v & w.mask());
        }
    }
}

/// Sign extension of a truncated value round-trips.
#[test]
fn sext_roundtrip() {
    for v in interesting_u64() {
        for w in Width::ALL {
            let t = w.truncate(v);
            let s = w.sext_to_64(t);
            assert_eq!(w.truncate(s as u64), t, "width {w} v {v:#x}");
        }
    }
}

/// Negation, swapping and evaluation of condition codes agree on all
/// operand pairs drawn from the boundary set, at all widths.
#[test]
fn cc_laws() {
    let ccs = [
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
    ];
    let vs = [
        0u64,
        1,
        0x7F,
        0x80,
        0xFF,
        0x7FFF,
        0x8000,
        0xFFFF,
        0x7FFF_FFFF,
        0x8000_0000,
        0xFFFF_FFFF,
        0x7FFF_FFFF_FFFF_FFFF,
        0x8000_0000_0000_0000,
        u64::MAX,
        0x1234_5678_9ABC_DEF0,
    ];
    for a in vs {
        for b in vs {
            for w in Width::ALL {
                for cc in ccs {
                    assert_eq!(cc.eval(w, a, b), !cc.negated().eval(w, a, b));
                    assert_eq!(cc.eval(w, a, b), cc.swapped().eval(w, b, a));
                }
            }
        }
    }
}

/// On every branching-chain shape up to 7 splits (each split either a
/// straight edge or a two-way diamond): the entry dominates every reachable
/// block, dominance is reflexive, and liveness live-in of the entry is
/// empty for a function whose values are all locally defined.
#[test]
fn dominator_and_liveness_sanity() {
    for len in 1usize..8 {
        for pattern in 0u32..(1 << len) {
            let splits: Vec<bool> = (0..len).map(|i| pattern & (1 << i) != 0).collect();
            let mut fb = FunctionBuilder::new("p", vec![Width::W32], Some(Width::W32));
            let x = fb.param(0);
            let mut acc = fb.iconst(Width::W32, 1);
            let mut blocks = vec![fb.current_block()];
            for (i, two_way) in splits.iter().enumerate() {
                let nxt = fb.new_block();
                if *two_way {
                    let alt = fb.new_block();
                    let c = fb.icmp(Cc::Ult, Width::W32, acc, x);
                    fb.cond_br(c, nxt, alt);
                    fb.switch_to(alt);
                    fb.br(nxt);
                    blocks.push(alt);
                } else {
                    fb.br(nxt);
                }
                fb.switch_to(nxt);
                blocks.push(nxt);
                let k = fb.iconst(Width::W32, i as u64 + 1);
                acc = fb.bin(BinOp::Add, Width::W32, k, k);
            }
            fb.ret(Some(acc));
            let f = fb.finish();
            sir::verify::verify_function(&f).unwrap();
            let dt = DomTree::compute(&f);
            for b in f.block_ids() {
                if dt.is_reachable(b) {
                    assert!(dt.dominates(f.entry, b));
                    assert!(dt.dominates(b, b));
                }
            }
            let lv = Liveness::compute(&f);
            assert!(lv.live_in_of(f.entry).is_empty());
            liveness_oracle::assert_matches(&f, &format!("chain {pattern:#b}/{len}"));
        }
    }
}

/// One generated function: a chain of `steps` (0 straight edge, 1 diamond
/// merged by a φ, 2 self-loop carrying a φ), each step reading the running
/// value and the parameter. With `region`, the block after the first step
/// becomes a speculative region whose handler re-reads the running value
/// from before it and resumes at the last block.
fn chain_fn(steps: &[u32], region: bool) -> Function {
    let mut fb = FunctionBuilder::new("g", vec![Width::W32], Some(Width::W32));
    let x = fb.param(0);
    let mut acc = fb.iconst(Width::W32, 1);
    let first_acc = acc;
    let mut firsts = Vec::new();
    for &kind in steps {
        let cur = fb.current_block();
        let nxt = fb.new_block();
        match kind {
            0 => {
                fb.br(nxt);
                fb.switch_to(nxt);
                acc = fb.bin(BinOp::Add, Width::W32, acc, x);
            }
            1 => {
                let alt = fb.new_block();
                let c = fb.icmp(Cc::Ult, Width::W32, acc, x);
                fb.cond_br(c, nxt, alt);
                fb.switch_to(alt);
                let t = fb.bin(BinOp::Xor, Width::W32, acc, x);
                fb.br(nxt);
                fb.switch_to(nxt);
                acc = fb.phi(Width::W32, vec![(cur, acc), (alt, t)]);
            }
            _ => {
                let body = fb.new_block();
                fb.br(body);
                fb.switch_to(body);
                let p = fb.phi(Width::W32, vec![]);
                let p1 = fb.bin(BinOp::Add, Width::W32, p, x);
                let c = fb.icmp(Cc::Ult, Width::W32, p1, x);
                fb.cond_br(c, body, nxt);
                fb.set_phi_incomings(p, vec![(cur, acc), (body, p1)]);
                fb.switch_to(nxt);
                acc = p1;
            }
        }
        firsts.push(nxt);
    }
    fb.ret(Some(acc));
    let last = fb.current_block();
    let mut f = fb.finish();
    if region && firsts.len() > 1 {
        let h = f.add_block();
        f.append_inst(
            h,
            Inst::Zext {
                to: Width::W64,
                arg: first_acc,
            },
        );
        f.block_mut(h).term = Terminator::Br(last);
        f.add_region(vec![firsts[0]], h);
    }
    f
}

/// The word-packed liveness equals the `HashSet` oracle on every chain of
/// up to five straight, diamond and loop steps, with and without a
/// speculative region (whose misspeculation edge keeps the handler's
/// live-ins live through the region).
#[test]
fn liveness_matches_hashset_oracle_on_generated_functions() {
    for len in 1u32..=5 {
        for code in 0..3u32.pow(len) {
            let steps: Vec<u32> = (0..len).map(|i| code / 3u32.pow(i) % 3).collect();
            for region in [false, true] {
                let f = chain_fn(&steps, region);
                liveness_oracle::assert_matches(&f, &format!("steps {steps:?} region {region}"));
            }
        }
    }
}

/// Dominance by walking `b`'s idom chain up to the entry — the query
/// `DomTree::dominates` answered before it used preorder intervals, kept
/// here as its oracle.
fn dominates_by_walk(dt: &DomTree, a: BlockId, b: BlockId) -> bool {
    let mut x = b;
    loop {
        if x == a {
            return true;
        }
        match dt.idom[x.index()] {
            Some(i) if i != x => x = i,
            _ => return false,
        }
    }
}

/// The O(1) `DomTree::dominates` agrees with the idom-chain walk on every
/// ordered block pair of every generated chain (straight, diamond and loop
/// steps, with and without a speculative region), each with an extra
/// unreachable block that dominates only itself.
#[test]
fn dominates_matches_idom_walk_on_generated_functions() {
    for len in 1u32..=5 {
        for code in 0..3u32.pow(len) {
            let steps: Vec<u32> = (0..len).map(|i| code / 3u32.pow(i) % 3).collect();
            for region in [false, true] {
                let mut f = chain_fn(&steps, region);
                let dead = f.add_block();
                f.block_mut(dead).term = Terminator::Br(f.entry);
                let dt = DomTree::compute(&f);
                assert!(!dt.is_reachable(dead));
                for a in f.block_ids() {
                    for b in f.block_ids() {
                        assert_eq!(
                            dt.dominates(a, b),
                            dominates_by_walk(&dt, a, b),
                            "steps {steps:?} region {region}: dominates({a}, {b})"
                        );
                    }
                }
            }
        }
    }
}
