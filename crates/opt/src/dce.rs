//! Dead code elimination.

use sir::{Function, Module, ValueId};

/// Removes instructions whose results are unused and that have no side
/// effects. Returns the number of instructions removed.
///
/// One mark-and-sweep: roots (side-effecting instructions, parameters and
/// terminator operands) are marked live, marks propagate backwards through
/// operands on a worklist, and every unmarked instruction is dropped.
pub fn run_function(f: &mut Function) -> usize {
    let mut live = vec![false; f.insts.len()];
    let mut work: Vec<ValueId> = Vec::new();
    let mut mark = |v: ValueId, work: &mut Vec<ValueId>| {
        if !live[v.index()] {
            live[v.index()] = true;
            work.push(v);
        }
    };
    for b in f.block_ids() {
        for &v in &f.block(b).insts {
            let inst = f.inst(v);
            if inst.has_side_effects() || matches!(inst, sir::Inst::Param { .. }) {
                mark(v, &mut work);
            }
        }
        f.block(b).term.for_each_operand(|op| mark(op, &mut work));
    }
    while let Some(v) = work.pop() {
        f.inst(v).for_each_operand(|op| mark(op, &mut work));
    }
    let mut removed = 0;
    for blk in &mut f.blocks {
        let before = blk.insts.len();
        blk.insts.retain(|v| live[v.index()]);
        removed += before - blk.insts.len();
    }
    removed
}

/// Runs DCE on every function of a module. Returns total removals.
pub fn run(m: &mut Module) -> usize {
    let mut n = 0;
    for fid in m.func_ids().collect::<Vec<_>>() {
        n += run_function(m.func_mut(fid));
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn removes_unused_arithmetic() {
        let mut m = lang::compile("t", "u32 f(u32 a) { u32 dead = a * 3; return a + 1; }").unwrap();
        let before = m.static_size();
        let removed = run(&mut m);
        assert!(removed >= 1);
        assert!(m.static_size() < before);
        assert!(sir::verify::verify_module(&m).is_ok());
    }

    #[test]
    fn keeps_stores_and_outputs() {
        let mut m = lang::compile("t", "global u8 g[1]; void f() { g[0] = 1; out(5); }").unwrap();
        run(&mut m);
        let f = m.func(m.func_by_name("f").unwrap());
        assert!(f.insts.iter().enumerate().any(|(i, inst)| {
            matches!(inst, sir::Inst::Store { .. })
                && f.block_ids()
                    .any(|b| f.block(b).insts.contains(&ValueId(i as u32)))
        }));
        assert!(sir::verify::verify_module(&m).is_ok());
    }

    #[test]
    fn keeps_transitive_dependencies() {
        let mut m = lang::compile(
            "t",
            "u32 f(u32 a) { u32 x = a + 1; u32 y = x * 2; return y; }",
        )
        .unwrap();
        let removed = run(&mut m);
        assert_eq!(removed, 0);
    }

    #[test]
    fn dead_phi_removed() {
        let mut m = lang::compile(
            "t",
            "u32 f(u32 a) {
                u32 x = 0;
                if (a > 2) { x = 1; } else { x = 2; }
                return a; // x's φ is dead
            }",
        )
        .unwrap();
        run(&mut m);
        let f = m.func(m.func_by_name("f").unwrap());
        let placed_phis = f
            .block_ids()
            .flat_map(|b| f.block(b).insts.clone())
            .filter(|v| f.inst(*v).is_phi())
            .count();
        assert_eq!(placed_phis, 0);
    }
}
