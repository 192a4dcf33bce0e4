//! A forward maximum-value analysis (a simple known-bits/value-range
//! analysis in the spirit of the static bitwidth-selection literature the
//! paper cites: Budiu et al., Stephenson et al.).
//!
//! Used by the *no-speculation* register-packing mode (RQ2): a value may be
//! statically narrowed to 8 bits only when this analysis proves its maximum
//! possible value fits — no hardware check exists to catch a miss.
//!
//! The solve is sparse: an SSA value has one definition, so it has one
//! bound. [`max_values`] sweeps the blocks in reverse postorder (unreached
//! blocks last), re-evaluating [`inst_max`] in place until no bound grows.
//! A bound that has grown more than 8 times jumps to its width's mask
//! (top), so loop-carried counters terminate.

use sir::{BinOp, Function, Inst, ValueId, Width};

/// Growths a bound may take before it is widened to its width's mask.
const WIDEN_AFTER: u8 = 8;

/// Per-instruction transfer: a sound upper bound on the result of `v` given
/// operand bounds in `get`, or `None` when `v` has no result.
pub fn inst_max(f: &Function, v: ValueId, get: impl Fn(ValueId) -> u64) -> Option<u64> {
    let inst = f.inst(v);
    let w = inst.result_width()?;
    Some(match inst {
        Inst::Const { value, .. } => *value,
        Inst::Param { width, .. } => width.mask(),
        Inst::GlobalAddr { .. } | Inst::Alloca { .. } => Width::W32.mask(),
        Inst::Icmp { .. } => 1,
        Inst::Zext { arg, .. } => get(*arg),
        Inst::Sext { arg, to } => {
            let aw = f.value_width(*arg).unwrap();
            let a = get(*arg);
            // Non-negative proven iff sign bit can't be set.
            if a < (1 << (aw.bits() - 1)) {
                a
            } else {
                to.mask()
            }
        }
        Inst::Trunc { to, arg, .. } => get(*arg).min(to.mask()),
        Inst::Load {
            width, speculative, ..
        } => {
            if *speculative {
                0xFF
            } else {
                width.mask()
            }
        }
        Inst::Select { tval, fval, .. } => get(*tval).max(get(*fval)),
        Inst::Call { ret, .. } => ret.map_or(0, Width::mask),
        Inst::Phi { incomings, .. } => incomings.iter().map(|(_, x)| get(*x)).max().unwrap_or(0),
        Inst::Bin {
            op,
            width,
            lhs,
            rhs,
            ..
        } => {
            let (a, c) = (get(*lhs), get(*rhs));
            let m = width.mask();
            match op {
                BinOp::Add => a.saturating_add(c).min(m),
                // a - b ≤ a only when b is provably 0; any
                // possible underflow wraps to the full mask.
                BinOp::Sub => {
                    if c == 0 {
                        a.min(m)
                    } else {
                        m
                    }
                }
                BinOp::Mul => a.saturating_mul(c).min(m),
                BinOp::And => a.min(c).min(m),
                BinOp::Or | BinOp::Xor => {
                    // bounded by the next power of two covering both
                    let hb = 64 - a.max(c).leading_zeros();
                    if hb >= 64 {
                        m
                    } else {
                        ((1u64 << hb) - 1).min(m)
                    }
                }
                BinOp::Udiv => a.min(m),
                BinOp::Urem => {
                    if c == 0 {
                        m
                    } else {
                        a.min(c - 1).min(m)
                    }
                }
                // Conservative unless the shift is a constant that drops
                // no set bit past bit 63.
                BinOp::Shl => match f.inst(*rhs) {
                    Inst::Const { value, .. }
                        if *value < 64 && u64::from(a.leading_zeros()) >= *value =>
                    {
                        (a << value).min(m)
                    }
                    _ => m,
                },
                BinOp::Lshr => a.min(m),
                BinOp::Ashr | BinOp::Sdiv | BinOp::Srem => m,
            }
        }
        _ => w.mask(),
    })
}

/// Computes, per SSA value, a sound upper bound on its (zero-extended)
/// runtime value. `u64::MAX` means "unknown".
pub fn max_values(f: &Function) -> Vec<u64> {
    let mut order = f.rpo();
    let mut reached = vec![false; f.blocks.len()];
    order.iter().for_each(|b| reached[b.index()] = true);
    order.extend(f.block_ids().filter(|b| !reached[b.index()]));
    let mut max = vec![0; f.insts.len()];
    let mut grown = vec![0u8; f.insts.len()];
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &order {
            for &v in &f.block(b).insts {
                let Some(new) = inst_max(f, v, |x| max[x.index()]) else {
                    continue;
                };
                let i = v.index();
                if new > max[i] {
                    grown[i] = grown[i].saturating_add(1);
                    max[i] = if grown[i] > WIDEN_AFTER {
                        f.value_width(v).map_or(new, |w| w.mask().max(new))
                    } else {
                        new
                    };
                    changed = true;
                }
            }
        }
    }
    max
}

/// Values statically provable to fit in 8 bits (candidates for
/// no-speculation register packing).
pub fn provably_narrow(f: &Function) -> Vec<bool> {
    max_values(f).iter().map(|m| *m <= 0xFF).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sir::Terminator;

    fn analyse(src: &str, func: &str) -> (sir::Module, Vec<u64>) {
        let m = lang::compile("t", src).unwrap();
        let fid = m.func_by_name(func).unwrap();
        let mv = max_values(m.func(fid));
        (m, mv)
    }

    #[test]
    fn and_mask_bounds_value() {
        let (m, mv) = analyse("u32 f(u32 x) { return x & 0xF; }", "f");
        let f = m.func(m.func_by_name("f").unwrap());
        let and = (0..f.insts.len() as u32)
            .map(ValueId)
            .find(|v| matches!(f.inst(*v), Inst::Bin { op: BinOp::And, .. }))
            .unwrap();
        assert_eq!(mv[and.index()], 0xF);
    }

    #[test]
    fn add_of_bounded_values() {
        let (m, mv) = analyse("u32 f(u32 x, u32 y) { return (x & 0xF) + (y & 0xF); }", "f");
        let f = m.func(m.func_by_name("f").unwrap());
        let add = (0..f.insts.len() as u32)
            .map(ValueId)
            .find(|v| matches!(f.inst(*v), Inst::Bin { op: BinOp::Add, .. }))
            .unwrap();
        assert_eq!(mv[add.index()], 0x1E);
    }

    #[test]
    fn u8_load_is_narrow() {
        let src = "global u8 g[4]; u32 f(u32 i) { return g[i & 3]; }";
        let m = lang::compile("t", src).unwrap();
        let f = m.func(m.func_by_name("f").unwrap());
        let narrow = provably_narrow(f);
        let load = (0..f.insts.len() as u32)
            .map(ValueId)
            .find(|v| matches!(f.inst(*v), Inst::Load { .. }))
            .unwrap();
        assert!(narrow[load.index()]);
    }

    #[test]
    fn unbounded_param_is_wide() {
        let (m, mv) = analyse("u32 f(u32 x) { return x + 1; }", "f");
        let f = m.func(m.func_by_name("f").unwrap());
        assert_eq!(mv[f.param_value(0).index()], u32::MAX as u64);
    }

    #[test]
    fn loop_counter_widens_to_top() {
        // The analysis must terminate and be sound for loop-carried values.
        let (m, mv) = analyse(
            "u32 f(u32 n) { u32 i = 0; while (i < n) { i = i + 1; } return i; }",
            "f",
        );
        let f = m.func(m.func_by_name("f").unwrap());
        // The φ'd counter cannot be proven narrow.
        let phi = (0..f.insts.len() as u32)
            .map(ValueId)
            .find(|v| f.inst(*v).is_phi())
            .unwrap();
        assert!(mv[phi.index()] > 0xFF);
    }

    #[test]
    fn sext_of_nonnegative_slice_value_keeps_bound() {
        // sext(0x7F: u8 → u32): the sign bit is provably clear, so the
        // bound survives the extension.
        let mut f = Function::new("sx", vec![], Some(Width::W32));
        let c = f.append_inst(
            f.entry,
            Inst::Const {
                width: Width::W8,
                value: 0x7F,
            },
        );
        let s = f.append_inst(
            f.entry,
            Inst::Sext {
                to: Width::W32,
                arg: c,
            },
        );
        f.block_mut(f.entry).term = Terminator::Ret(Some(s));
        let mv = max_values(&f);
        assert_eq!(mv[s.index()], 0x7F);
        assert!(provably_narrow(&f)[s.index()]);
    }

    #[test]
    fn sext_of_possibly_negative_slice_value_is_wide() {
        // sext(0x80: u8 → u32) may set all high bits: the bound must jump
        // to the destination width's top.
        let mut f = Function::new("sx", vec![], Some(Width::W32));
        let c = f.append_inst(
            f.entry,
            Inst::Const {
                width: Width::W8,
                value: 0x80,
            },
        );
        let s = f.append_inst(
            f.entry,
            Inst::Sext {
                to: Width::W32,
                arg: c,
            },
        );
        f.block_mut(f.entry).term = Terminator::Ret(Some(s));
        let mv = max_values(&f);
        assert_eq!(mv[s.index()], Width::W32.mask());
        assert!(!provably_narrow(&f)[s.index()]);
    }

    #[test]
    fn icmp_is_bounded_by_one() {
        let mut f = Function::new("ic", vec![Width::W32, Width::W32], Some(Width::W32));
        let a = f.param_value(0);
        let b = f.param_value(1);
        let c = f.append_inst(
            f.entry,
            Inst::Icmp {
                cc: sir::Cc::Ult,
                width: Width::W32,
                lhs: a,
                rhs: b,
            },
        );
        let z = f.append_inst(
            f.entry,
            Inst::Zext {
                to: Width::W32,
                arg: c,
            },
        );
        f.block_mut(f.entry).term = Terminator::Ret(Some(z));
        let mv = max_values(&f);
        assert_eq!(mv[c.index()], 1);
        assert_eq!(mv[z.index()], 1);
        assert!(provably_narrow(&f)[z.index()]);
    }

    #[test]
    fn converging_loop_bound_is_exact_not_widened() {
        // i = (i + 1) & 0x3 climbs to its exact fixpoint (3) in fewer than
        // 8 visits of the loop header — the bound must be the precise
        // fixpoint, not the widened top.
        let (m, mv) = analyse(
            "u32 f(u32 n) { u32 i = 0; while (i < n) { i = (i + 1) & 0x3; } return i; }",
            "f",
        );
        let f = m.func(m.func_by_name("f").unwrap());
        let phi = (0..f.insts.len() as u32)
            .map(ValueId)
            .find(|v| f.inst(*v).is_phi())
            .unwrap();
        assert_eq!(mv[phi.index()], 0x3);
    }

    #[test]
    fn shl_by_constant_shifts_the_bound() {
        let (m, mv) = analyse("u32 f(u32 x) { return (x & 3) << 4; }", "f");
        let f = m.func(m.func_by_name("f").unwrap());
        let shl = (0..f.insts.len() as u32)
            .map(ValueId)
            .find(|v| matches!(f.inst(*v), Inst::Bin { op: BinOp::Shl, .. }))
            .unwrap();
        assert_eq!(mv[shl.index()], 0x30);
    }

    #[test]
    fn shl_past_bit_63_is_top() {
        // x % 3 is bounded by 2, and 2 << 63 wraps to 0 in a u64. The
        // shift can set bit 63, so the bound must be top: a wrapped 0 would
        // let NoSpec packing compute the shift in a byte slice.
        let mut f = Function::new("sh", vec![Width::W64], Some(Width::W64));
        let x = f.param_value(0);
        let c3 = f.append_inst(
            f.entry,
            Inst::Const {
                width: Width::W64,
                value: 3,
            },
        );
        let a = f.append_inst(
            f.entry,
            Inst::Bin {
                op: BinOp::Urem,
                width: Width::W64,
                lhs: x,
                rhs: c3,
                speculative: false,
            },
        );
        let c63 = f.append_inst(
            f.entry,
            Inst::Const {
                width: Width::W64,
                value: 63,
            },
        );
        let s = f.append_inst(
            f.entry,
            Inst::Bin {
                op: BinOp::Shl,
                width: Width::W64,
                lhs: a,
                rhs: c63,
                speculative: false,
            },
        );
        f.block_mut(f.entry).term = Terminator::Ret(Some(s));
        let mv = max_values(&f);
        assert_eq!(mv[a.index()], 2);
        assert_eq!(mv[s.index()], u64::MAX);
        assert!(!provably_narrow(&f)[s.index()]);
    }

    #[test]
    fn constant_inside_a_widened_loop_keeps_its_bound() {
        // The counter widens to top; the constant added each iteration is
        // defined once and never grows, so it keeps its exact bound.
        let (m, mv) = analyse(
            "u32 f(u32 n) { u32 i = 0; u32 s = 0; while (i < n) { s = s + 7; i = i + 1; } return s; }",
            "f",
        );
        let f = m.func(m.func_by_name("f").unwrap());
        let seven = (0..f.insts.len() as u32)
            .map(ValueId)
            .find(|v| matches!(f.inst(*v), Inst::Const { value: 7, .. }))
            .unwrap();
        assert_eq!(mv[seven.index()], 7);
        let add = (0..f.insts.len() as u32)
            .map(ValueId)
            .find(|v| matches!(f.inst(*v), Inst::Bin { op: BinOp::Add, .. }))
            .unwrap();
        assert_eq!(mv[add.index()], Width::W32.mask());
    }

    #[test]
    fn widening_cutoff_fires_after_eight_visits() {
        // A bare increment climbs by 1 per sweep: without the cutoff the
        // fixpoint would take 2^32 rounds. The widened bound must be top,
        // and must be reached (analysis terminates).
        let (m, mv) = analyse(
            "u32 f(u32 n) { u32 i = 0; while (i < n) { i = i + 1; } return i; }",
            "f",
        );
        let f = m.func(m.func_by_name("f").unwrap());
        let add = (0..f.insts.len() as u32)
            .map(ValueId)
            .find(|v| matches!(f.inst(*v), Inst::Bin { op: BinOp::Add, .. }))
            .unwrap();
        assert_eq!(mv[add.index()], Width::W32.mask());
    }
}
